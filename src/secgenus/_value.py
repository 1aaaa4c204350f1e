"""Base classes of the package's value types.

A value type names its fields, in constructor order, in ``__match_args__``
(and, unless it needs a ``__dict__``, in ``__slots__`` as well) and sets
them in its own ``__init__``.  ``Record`` reads those names for equality
of same-class instances field by field and for the repr
``Name(field=value, ...)``, and gives no hash, since a record may change.
``Frozen`` records refuse assignment, so their ``__init__`` sets each field
with ``object.__setattr__``; they hash their field tuple, and copy and
pickle through the constructor.
"""


class Record:
    __slots__ = ()
    __match_args__: tuple[str, ...] = ()
    __hash__ = None

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__match_args__])
        return f"{type(self).__qualname__}({fields})"


class Frozen(Record):
    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which alone may set a field
        return type(self), self._values()
