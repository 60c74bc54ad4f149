"""Value classes: equality, repr and hashing derived from a tuple of fields.

A subclass lists its field names, in order, in `_fields` and writes its own
`__init__`.  Two instances are equal when they are of the same class and
their field tuples are equal; the repr reads `Name(field=value, ...)`.  A
`Record` is mutable and so unhashable; a `FrozenRecord` refuses assignment
and hashes its field tuple.  These are the semantics `dataclasses` gives
`@dataclass` and `@dataclass(frozen=True)`, without importing it: that
import pulls in `inspect`, `ast`, `dis` and `tokenize`, about 10 ms at every
command start.
"""


class Record:
    """A mutable value: compared and printed by its fields, unhashable."""

    _fields = ()

    def _values(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        return "%s(%s)" % (self.__class__.__qualname__, ", ".join(
            ["%s=%r" % (name, getattr(self, name)) for name in self._fields]))


class FrozenRecord(Record):
    """An immutable value: hashable, and no attribute can be set or deleted.

    `__init__` stores the fields through `_store`.
    """

    def _store(self, *values):
        vars(self).update(zip(self._fields, values))

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)
