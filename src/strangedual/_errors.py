"""The package's one exception base, the ``_make`` of its validated records
and its one integer check; a leaf module, so every module can import them."""

from operator import index


class StrangedualError(Exception):
    """A domain error: input or a computation the library refuses."""


#: ``_make`` of a record whose ``__new__`` checks its fields.  namedtuple's
#: own ``_make`` builds the tuple unchecked, and ``_replace`` calls it.
checked_make = classmethod(lambda cls, values: cls(*values))


def integers(values, error: type[Exception], what: str) -> tuple[int, ...]:
    """The values as a tuple of ``int``, by ``operator.index``; else ``error``
    naming ``what``.  A ``float`` or ``Fraction`` is refused even when equal
    to an integer, as it would share that integer's cache keys.  A loop over
    single values tests ``type(v) is int`` and calls this on a failure."""
    values = tuple(values)
    for value in values:
        if type(value) is not int:
            try:
                return tuple(map(index, values))
            except TypeError:
                raise error(f"{what} must be integers, got {values!r}") from None
    return values
