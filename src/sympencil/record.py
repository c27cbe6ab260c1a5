"""Immutable value records built without import-time code generation.

Every result type of the package lists its fields in ``__slots__`` and
subclasses :class:`Record`, which derives the constructor, equality,
hashing, ``repr`` and immutability from that tuple at call time. Nothing is
generated or compiled when a record class is defined, so importing a module
that declares records costs about as much as declaring a plain class; every
CLI process pays those imports.
"""

from __future__ import annotations


class Record:
    """Base of the immutable result types.

    A subclass names its fields, in positional order, in ``__slots__``.
    The constructor takes every field, positionally or by keyword, and then
    calls ``__post_init__``, which may validate the fields and normalise
    them through ``object.__setattr__``. Assigning or deleting a field afterwards
    raises ``AttributeError``. Two records are equal when they are of the
    same class and their fields are equal, and a record hashes its fields.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls._fields + tuple(cls.__dict__.get("__slots__", ()))

    def __init__(self, *args, **kwargs):
        cls = type(self)
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(
                f"{cls.__name__}() takes {len(fields)} arguments "
                f"but {len(args)} were given"
            )
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        for name in fields[len(args):]:
            if name not in kwargs:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
            object.__setattr__(self, name, kwargs.pop(name))
        if kwargs:
            raise TypeError(
                f"{cls.__name__}() got unexpected or repeated arguments "
                f"{sorted(kwargs)}"
            )
        # Looked up on each call, so a wrapper set on the class later (such
        # as the benchmark's tracer) is seen.
        self.__post_init__()

    def __post_init__(self) -> None:
        """Validate and normalise the fields; a no-op unless overridden."""

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __reduce__(self):
        # Slot state would be restored by assignment, which is refused, so
        # copies and pickles go back through the constructor.
        return type(self), self._values()
