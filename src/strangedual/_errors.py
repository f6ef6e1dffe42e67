"""The package's one exception base; a leaf module, so every module can import it."""


class StrangedualError(Exception):
    """A domain error: input or a computation the library refuses."""
