"""The one base of zqu's immutable value classes.

A subclass names its fields in `__slots__` and assigns each of them once, in
its `__init__`.  Two values are equal when they are of the same class and
their fields are equal; the hash is the hash of the field tuple and the repr
is `Name(field=value, ...)`, both as a frozen dataclass gives them, so set
orders, cache keys and printed output do not depend on which of the two
built the class.  A subclass needs at least two fields, so that `_fields`
returns a tuple.
"""

from operator import attrgetter


class Value:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if len(cls.__slots__) < 2:
            raise TypeError(f"{cls.__name__} needs at least two fields in __slots__")
        cls._fields = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == other._fields(other)

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self.__slots__, self._fields(self)))
        return f"{self.__class__.__qualname__}({fields})"
