"""Immutable record types and the uniform holds-or-witness result value.

Holding verdicts are one shared object, ``HOLDS``, which ``Verdict.of``
returns for no witness; only a holding verdict with a detail, such as a
skipped law, is a new object.  A failing verdict is a new object with its
witness.  Compare verdicts with ``bool(v)`` or ``==``, not ``is``.
"""

from operator import attrgetter


class Record:
    """Frozen value type over the fields in ``__slots__`` (and a ``__dict__``
    slot for cached properties); ``__init__`` sets each field once with
    ``object.__setattr__``.  ``==``, ``hash`` and ``repr`` read every field
    but those in ``_hidden``; a record equals only records of its class.
    """

    __slots__ = ()
    _hidden = ()

    def __init_subclass__(cls):
        shown = tuple(f for f in cls.__slots__ if f != "__dict__" and f not in cls._hidden)
        get = attrgetter(*shown)
        cls._shown = shown
        cls._values = staticmethod(get if len(shown) > 1 else lambda record: (get(record),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._shown)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        # copy and pickle pass the (__dict__, slots) pair of object.__getstate__;
        # the __dict__ is dropped: its law scans are keyed by this process's laws
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


class Verdict(Record):
    """Truthy iff the checked property holds; otherwise carries a witness."""

    __slots__ = ("holds", "witness", "detail")

    def __init__(self, holds, witness=(), detail=""):
        object.__setattr__(self, "holds", holds)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "detail", detail)

    def __bool__(self):
        return self.holds

    @classmethod
    def of(cls, witness, detail=""):
        """HOLDS for no witness (None), else failing with it and the detail."""
        return HOLDS if witness is None else cls(False, witness, detail)


HOLDS = Verdict(True)
