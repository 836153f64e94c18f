"""Frozen value records, the base of the package's value classes.

A record is a slotted class with hand-written methods.  The standard
library's class generator would load inspect, ast, dis and tokenize, and
take about a millisecond to build each frozen slotted class, which every
fresh rimcert process would pay before its first spec.
"""

from operator import attrgetter


class Record:
    """A frozen value over the fields its class lists in ``__slots__``.

    ``__init__`` sets every field once, by ``_set`` in slot order; setting
    or deleting one afterwards raises AttributeError.  Equality, hashing
    and the repr read ``_fields``, all the slots unless the class names
    fewer.  Records of different classes are never equal, and a record
    that holds a dict is unhashable.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = names = cls.__dict__.get("_fields", cls.__slots__)
        get = attrgetter(*names)
        cls._values = staticmethod(get if len(names) > 1 else lambda r: (get(r),))

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{self.__class__.__name__}({fields})"

    # pickle and copy restore the slots through _set, not __setattr__.
    def __getstate__(self) -> tuple:
        return tuple(getattr(self, n) for n in self.__slots__)

    def __setstate__(self, state: tuple) -> None:
        self._set(*state)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
