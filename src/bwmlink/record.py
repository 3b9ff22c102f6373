"""The shared base of the package's immutable value records.

``BraidWord``, ``PlanarDiagram``, ``BratteliGraph``, ``Quotient`` and
``Specialization`` are small records of named fields.  They
are plain classes on this base rather than frozen dataclasses: importing
``dataclasses`` loads ``inspect``, ``ast``, ``dis`` and ``tokenize`` with
it, and each decorator builds its methods with ``exec``: together they cost
a one-shot ``bwmlink`` process more than evaluating a short braid word.

A subclass names its fields, in order, in ``_fields`` and stores each one
from ``__init__`` with ``init_field(self, name, value)``.  A record has an
instance ``__dict__``, not ``__slots__``, so ``copy.copy`` and ``pickle``
restore it by updating that dict, not through the raising ``__setattr__``.
"""

from __future__ import annotations

# Stores a field past the raising ``__setattr__``.  Writing
# ``self.__dict__[name]`` instead constructs faster, but on CPython 3.11 it
# turns the instance's inline attribute values into a dict object, and every
# later read such as ``diagram.arcs`` then takes the generic attribute
# lookup: 33 ns instead of 10 ns a read (2-vCPU host), on the skein
# engine's hottest path.
init_field = object.__setattr__


class Record:
    """An immutable record: equal to a record of the same class with equal
    fields, hashed on its fields, and shown as ``Name(field=value, ...)``.
    Assigning or deleting an attribute raises ``AttributeError``."""

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        pairs = zip(self._fields, self._values())
        fields = ", ".join(f"{name}={value!r}" for name, value in pairs)
        return f"{type(self).__qualname__}({fields})"
