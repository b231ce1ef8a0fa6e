"""Frozen value classes, with no code generated when a class is defined.

A subclass names its fields in `_fields` and sets each one in its own
`__init__` with `setfield(self, name, value)`, next to its validation.
`Value` then gives it equality and hashing over those fields, a repr,
`replace`, and attributes that cannot be assigned.  Equality and hashing
read the fields with one class-level `operator.attrgetter`: two values are
equal when they are of the same class and their fields are.
"""

from __future__ import annotations

import operator

setfield = object.__setattr__


class Value:
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._key = operator.attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen "
                             f"{type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen "
                             f"{type(self).__name__}")

    def replace(self, **changes):
        """A copy with some fields changed; its `__init__` validates it again."""
        fields = {name: changes.pop(name) if name in changes else getattr(self, name)
                  for name in self._fields}
        return type(self)(**fields, **changes)
