"""The base of qtoric's record types: a plain class, so that importing
qtoric generates no code.

A `Value` names its fields in the class-level `_fields` tuple.  It equals
a value of the same class whose fields are equal, hashes over its fields
and prints as ``Name(field=value, ...)``.  It is frozen: its ``__init__``
writes its fields into ``self.__dict__``, where functools.cached_property
also writes, and setattr and delattr raise AttributeError.
"""


class Value:
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
