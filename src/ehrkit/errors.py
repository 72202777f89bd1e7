"""Exception types and the record base shared across the package.

Every failure mode is explicit: bad input data, an operation outside the
supported regime, evaluation at a pole, or a mathematical identity that the
code expected to hold and did not. The last one is the serious one; it means
a bug, not a bad input.

`Record` and `FrozenRecord` give the package's record classes value
equality, a hash and a `Name(field=value, ...)` repr from one tuple of field
names per class. They stand in for `dataclasses`, whose import pulls in
`inspect` and whose decorator compiles each generated method from source
when the module is imported, on every start of the CLI.
"""

from __future__ import annotations


class EhrkitError(Exception):
    """Base class for all package errors."""


class InputError(EhrkitError):
    """Malformed or inconsistent input data (JSON, vertex lists, options)."""


class UnsupportedError(EhrkitError):
    """Input is valid but outside the supported regime (e.g. non-pointed cone)."""


class PoleError(EhrkitError):
    """Evaluation of a rational generating function at one of its poles."""


class TheoremViolationError(EhrkitError):
    """An identity that must hold mathematically failed; indicates a bug."""


# How a FrozenRecord's __init__ sets its slots past the frozen __setattr__.
# A module global is found faster than `object.__setattr__`, and
# `HalfOpenSimplicialCone` and `Poly` are built once per face or piece.
_set_field = object.__setattr__


class Record:
    """Mutable record: equality and repr follow the class's `_fields`.

    A subclass declares `__slots__`, names its compared fields in `_fields`
    and sets them in an `__init__`. Two records are equal when they
    are of the same class and their fields are equal. Slots outside
    `_fields` (a piece's solve or a plan) take no part in equality or repr.
    Defining `__eq__` leaves a mutable record unhashable.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({body})"


class FrozenRecord(Record):
    """Immutable, hashable record; `__init__` sets its slots by `_set_field`.

    The shared `__init__` takes one value per name in `_fields`, in order;
    a record that checks or converts its values, or keeps a slot outside
    `_fields`, writes its own. The hash is that of the field tuple.
    Pickling and `copy` restore the slots the same way, bypassing the
    frozen `__setattr__`.
    """

    __slots__ = ()

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{self.__class__.__qualname__} takes {len(self._fields)} "
                            f"values, got {len(values)}")
        for name, value in zip(self._fields, values):
            _set_field(self, name, value)

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        # the default state of an instance with slots and no __dict__
        for name, value in state[1].items():
            _set_field(self, name, value)
