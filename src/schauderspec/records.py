"""Frozen value records, built without the standard library's data classes.

Importing those loads ``inspect``, and their decorator ``exec``s six methods per
class: two thirds of ``import schauderspec``.  :func:`record` ``exec``s only
``__init__`` and shares the rest.  It keeps the fields (bases' first, class attributes
as defaults, ``__post_init__`` last), ``==`` within one class, the field tuple's
hash, the ``Name(a=1)`` repr, :class:`FrozenInstanceError` and ``__match_args__``.
"""

from operator import attrgetter


class FrozenInstanceError(AttributeError):
    """An attempt to assign or delete a field of a record."""


def _eq(self, other):
    if other.__class__ is self.__class__:
        return self._record_values(self) == other._record_values(other)
    return NotImplemented


def _hash(self):
    return hash(self._record_values(self))


def _repr(self):
    fields = ", ".join([f"{name}={value!r}" for name, value
                        in zip(self._record_fields, self._record_values(self))])
    return f"{self.__class__.__qualname__}({fields})"


def _frozen(self, name, *value):  # __setattr__ and __delattr__
    verb = "assign to" if value else "delete"
    raise FrozenInstanceError(f"cannot {verb} field {name!r}")


def record(cls):
    """Make ``cls`` a frozen record."""
    own = cls.__dict__.get("__annotations__", {})
    names = tuple(dict.fromkeys((*getattr(cls, "_record_fields", ()), *own)))
    # one update of the instance dict takes about half the time of an
    # object.__setattr__ per field (the class's own __setattr__ refuses)
    body = f"\n self.__dict__.update({', '.join(f'{n}={n}' for n in names)})"
    if hasattr(cls, "__post_init__"):
        body += "\n self.__post_init__()"
    scope = {}
    exec(f"def __init__(self, {', '.join(names)}):{body}", scope)
    init = scope["__init__"]
    init.__defaults__ = tuple(getattr(cls, n) for n in names if hasattr(cls, n))
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    shared = dict(__init__=init, __repr__=_repr, __eq__=_eq, __hash__=_hash,
                  __setattr__=_frozen, __delattr__=_frozen, __match_args__=names)
    for attr in shared.keys() - cls.__dict__.keys():  # keep what the class writes
        setattr(cls, attr, shared[attr])
    cls._record_fields = names
    # attrgetter is the fast read, but returns a tuple only for two names or more
    cls._record_values = staticmethod(attrgetter(*names) if len(names) > 1 else (
        lambda obj: tuple([getattr(obj, n) for n in names])))
    return cls


def replace(obj, /, **changes):
    """A copy of the record ``obj`` with the given fields changed."""
    kwargs = {n: changes.pop(n, getattr(obj, n)) for n in obj._record_fields}
    return obj.__class__(**kwargs, **changes)
