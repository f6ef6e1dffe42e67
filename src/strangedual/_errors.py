"""The package's one exception base, and the ``_make`` of its validated
records; a leaf module, so every module can import both."""


class StrangedualError(Exception):
    """A domain error: input or a computation the library refuses."""


#: ``_make`` of a record whose ``__new__`` checks its fields.  namedtuple's
#: own ``_make`` builds the tuple unchecked, and ``_replace`` calls it.
checked_make = classmethod(lambda cls, values: cls(*values))
