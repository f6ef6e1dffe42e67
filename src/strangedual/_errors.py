"""The package's one exception base, and the ``_make`` and integer test of
its validated records; a leaf module, so every module can import them."""

from operator import index


class StrangedualError(Exception):
    """A domain error: input or a computation the library refuses."""


#: ``_make`` of a record whose ``__new__`` checks its fields.  namedtuple's
#: own ``_make`` builds the tuple unchecked, and ``_replace`` calls it.
checked_make = classmethod(lambda cls, values: cls(*values))


def all_integers(values) -> bool:
    """Whether ``operator.index`` takes every value.  A ``float`` or
    ``Fraction`` is refused even when it equals an integer: it would share
    that integer's keys in a cache."""
    try:
        for value in values:
            index(value)
    except TypeError:
        return False
    return True
