"""Immutable record types and the uniform holds-or-witness result value.

A record type lists its fields in ``__slots__`` and the defaults of its
trailing optional fields in ``_defaults``.  From them ``Record`` compiles
one setter per type, ``_fill``: it is the ``__init__`` of a type that
defines none, and a type with checks ends its ``__init__`` by calling it.

Holding verdicts are one shared object, ``HOLDS``, which ``Verdict.of``
returns for no witness; only a holding verdict with a detail, such as a
skipped law, is a new object.  A failing verdict is a new object with its
witness.  Compare verdicts with ``bool(v)`` or ``==``, not ``is``.
"""

from operator import attrgetter


class Record:
    """Frozen value type over the fields in ``__slots__`` (and a ``__dict__``
    slot for cached properties).  ``_fill``, compiled once per type as
    ``collections.namedtuple`` compiles its ``__new__``, sets each field once
    with ``object.__setattr__`` and loops over none.  ``==``, ``hash`` and
    ``repr`` read every field but those in ``_hidden``; a record equals only
    records of its class.
    """

    __slots__ = ()
    _hidden = ()
    _defaults = {}

    def __init_subclass__(cls):
        fields = tuple(f for f in cls.__slots__ if f != "__dict__")
        shown = tuple(f for f in fields if f not in cls._hidden)
        get = attrgetter(*shown)
        cls._shown = shown
        cls._values = staticmethod(get if len(shown) > 1 else lambda record: (get(record),))
        name = "_fill" if "__init__" in vars(cls) else "__init__"
        params = ", ".join(f"{f}=_defaults[{f!r}]" if f in cls._defaults else f for f in fields)
        body = "".join(f"\n    _set(self, {f!r}, {f})" for f in fields)
        # __name__ becomes the setter's __module__
        namespace = {"__name__": cls.__module__, "_set": object.__setattr__,
                     "_defaults": cls._defaults}
        exec(f"def {name}(self, {params}):{body}", namespace)
        cls._fill = fill = namespace[name]
        fill.__qualname__ = f"{cls.__qualname__}.{name}"
        if name == "__init__":
            cls.__init__ = fill

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
        self._fill(**state[1])


class Verdict(Record):
    """Truthy iff the checked property holds; otherwise carries a witness."""

    __slots__ = ("holds", "witness", "detail")
    _defaults = {"witness": (), "detail": ""}

    def __bool__(self):
        return self.holds

    @classmethod
    def of(cls, witness, detail=""):
        """HOLDS for no witness (None), else failing with it and the detail."""
        return HOLDS if witness is None else cls(False, witness, detail)


HOLDS = Verdict(True)
