"""Bases for the records that check, convert or cache what they hold.

Records that only hold values are typing.NamedTuple classes.  The others
derive from Record, or from FrozenRecord when their fields are fixed once
built.  Each writes its own __init__ and names, in `_fields`, the fields
that its equality, hash and repr read, in that order; nothing here builds
code at import.
"""


class Record:
    """Equality and repr over the fields named in `_fields`; unhashable.

    Two records are equal when they are of the same class and their fields
    are equal in turn.
    """

    _fields = ()

    def _values(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    """A Record whose attributes cannot be set or deleted; hash() is that of
    its field values.

    __init__ sets each attribute with object.__setattr__, and
    functools.cached_property stores what it caches in the instance's
    __dict__.  Writing to that __dict__ directly would be faster to build,
    but it makes CPython keep the attributes in a dict of their own, and
    reading them then costs about three times as much.
    """

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
