"""Finite posets and lattices over dense element indices.

Subsets of the carrier are int bitmasks: bit i stands for element i.
``up[i]`` is the mask of everything above element i (inclusive), ``down[i]``
the mask of everything below.  A fixed linear extension ``topo`` orders all
witness searches, so every reported counterexample is deterministic and
lexicographically least in that order.
"""

from functools import cached_property

from . import _kernels as kernels
from . import laws
from ._kernels._common import common_bounds
from .binop import BinOp
from .errors import CycleDetectedError, DuplicateNameError, SizeBudgetError, UnknownNameError
from .verdict import Record

MAX_ELEMENTS = 64

# poset_index's faults other than a cycle
_FAULTS = {
    "carrier": "up-mask of %r has bits outside the carrier",
    "reflexive": "order is not reflexive at %r",
    "transitive": "order is not transitive at %r",
}


class Poset:
    """Immutable finite poset: element names plus closed up-masks."""

    __slots__ = (
        "names", "up", "down", "n", "full", "topo", "top", "bottom", "_covers",
    )

    def __init__(self, names, up, *, _closed=False):
        # _closed: the masks are known to be transitive, so only carrier,
        # reflexivity and cycles need checking
        names = tuple(names)
        up = tuple(up)
        n = len(names)
        if n == 0:
            raise ValueError("poset needs at least one element")
        if len(set(names)) != n:
            dup = next(x for x in names if names.count(x) > 1)
            raise DuplicateNameError(f"duplicate element name {dup!r}")
        if len(up) != n:
            raise ValueError("up-mask count does not match element count")
        index = kernels.poset_index(n, up, _closed)
        if len(index) == 3:
            kind, i, j = index
            if kind == "cycle":
                raise CycleDetectedError(names[i], names[j])
            raise ValueError(_FAULTS[kind] % (names[i],))
        self.down, self.topo, self.top, self.bottom, self._covers = index
        self.names = names
        self.up = up
        self.n = n
        self.full = (1 << n) - 1

    def leq(self, i, j):
        return bool(self.up[i] >> j & 1)

    def index(self, name):
        try:
            return self.names.index(name)
        except ValueError:
            raise UnknownNameError(f"unknown element {name!r}") from None

    def covers(self):
        """Transitive reduction as (lower, upper) index pairs, sorted.

        ``poset_index`` returns it with the down-masks when the poset is
        built, as one mask of upper covers per element; this expands it.
        """
        return tuple((i, j) for i, mask in enumerate(self._covers) for j in self.iter_mask(mask))

    def iter_mask(self, mask):
        """The elements of a subset mask, in index order."""
        return _elements(_within(self, mask))

    def __eq__(self, other):
        return isinstance(other, Poset) and self.names == other.names and self.up == other.up

    def __hash__(self):
        return hash((self.names, self.up))

    def __repr__(self):
        return f"Poset({len(self.names)} elements: {' '.join(self.names)})"


def make_poset(names, cover_pairs, max_size=MAX_ELEMENTS):
    """Build a poset from cover pairs (lower, upper) given by element name.

    The carrier is capped at ``max_size`` (default 64, one machine word per
    mask); pass a larger cap to fall back to unbounded Python-int masks.
    """
    names = tuple(names)
    if len(names) > max_size:
        raise SizeBudgetError(f"{len(names)} elements exceed the cap of {max_size}")
    index = {name: i for i, name in enumerate(names)}
    adj = [0] * len(names)
    try:
        for lo, hi in cover_pairs:
            adj[index[lo]] |= 1 << index[hi]
    except KeyError as exc:
        raise UnknownNameError(f"cover references unknown element {exc.args[0]!r}") from None
    return Poset(names, kernels.closure(len(names), adj), _closed=True)


def _within(p, mask):
    # a negative mask has bits outside every carrier
    if mask & ~p.full:
        raise ValueError(f"mask {mask} has bits outside the carrier of {p.n} elements")
    return mask


def _check_pair(n, a, b):
    # an index check before a cell lookup: a negative index would wrap
    if not (0 <= a < n and 0 <= b < n):
        raise ValueError(f"pair ({a}, {b}) outside the carrier of {n} elements")


def _elements(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def upper_set(p, mask):
    """Common upper bounds of the subset; the empty set yields everything."""
    return common_bounds(p.full, p.up, _within(p, mask))


def lower_set(p, mask):
    """Common lower bounds of the subset; the empty set yields everything."""
    return common_bounds(p.full, p.down, _within(p, mask))


def bounds(p):
    """(bottom, top) indices, either may be None."""
    return (p.bottom, p.top)


class NotALattice(Record):
    """Witness that a pair has no lub or no glb.

    ``frontier`` holds the minimal upper bounds (kind 'join') or maximal
    lower bounds (kind 'meet') of the offending pair; it is an antichain
    that never has exactly one member.  ``as_lattice`` reports a meet
    failure only at a pair without common lower bounds: two maximal lower
    bounds of a pair have no join, and their own pair comes first.  The
    hidden ``poset`` is the order ``as_lattice`` was given, or None.
    """

    __slots__ = ("kind", "pair", "frontier", "poset")
    _hidden = ("poset",)
    _defaults = {"poset": None}


class LatticeOps(Record):
    """Total join/meet tables over a poset; verified against the order.

    A finite order has at most one join table and one meet table, which
    ``as_lattice`` computes; tables given here must equal them, cell for
    cell, and the object keeps ``as_lattice``'s rows.  The first lattice
    check to run scans the three laws of ``laws.LATTICE`` once and keeps
    the result as ``found``.  Tables derived from the poset are not kept
    here: ``star_table_poset`` keeps the last poset's star table.
    """

    __slots__ = ("poset", "join", "meet", "top", "bottom", "__dict__")

    def __init__(self, poset, join, meet):
        p = poset
        ops = {}
        for name, table in (("join", join), ("meet", meet)):
            try:
                op = BinOp(p.n, table)
            except ValueError as exc:
                raise ValueError(f"{name} table: {exc}") from None
            if not op.is_total:
                a, b = op.first_undefined(p.topo)
                raise ValueError(f"{name} table undefined at ({p.names[a]}, {p.names[b]})")
            ops[name] = op
        lat = as_lattice(p)
        if isinstance(lat, NotALattice):
            a, b = lat.pair
            raise ValueError(
                f"order is not a lattice: {lat.kind} fails at ({p.names[a]}, {p.names[b]})")
        for name, op in ops.items():
            wrong = next(op.differences(getattr(lat, name), p.topo), None)
            if wrong is not None:
                a, b = wrong
                raise ValueError(f"{name} table wrong at ({p.names[a]}, {p.names[b]})")
        self._fill(p, lat.join, lat.meet, p.top, p.bottom)

    @cached_property
    def found(self):
        """Each law of laws.LATTICE to its least failing triple, or None."""
        return laws.scan(self.poset, laws.LATTICE, join=self.join, meet=self.meet)

    @property
    def n(self):
        return self.poset.n

    def join_of(self, a, b):
        return self.join[a][b]

    def meet_of(self, a, b):
        return self.meet[a][b]

    def flat_join(self):
        return [x for row in self.join for x in row]


def as_lattice(p):
    """LatticeOps when every pair has a lub and glb, else a NotALattice witness.

    The ``lattice_tables`` kernel runs the pairs in the fixed topological
    order and names the first failure itself, with its frontier as a mask.
    Its tables are the order's least upper and greatest lower bounds, the
    ones ``LatticeOps(p, join, meet)`` holds given tables to, so they
    enter the LatticeOps as they are.
    """
    tabs = kernels.lattice_tables(p.n, p.up, p.down)
    if len(tabs) == 2:
        lat = object.__new__(LatticeOps)
        lat._fill(p, *tabs, p.top, p.bottom)
        return lat
    kind, a, b, frontier = tabs
    return NotALattice(kind, (a, b), tuple(i for i in p.topo if frontier >> i & 1), p)
