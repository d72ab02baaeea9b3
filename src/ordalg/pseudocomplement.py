"""Sectional and relative pseudocomplements, with structure classification.

Two independent routes exist on purpose: the lattice route works from
join/meet tables, the poset route only from upper/lower cones.  On any
lattice the two must agree cell for cell, and the test suite holds them
to that.
"""

from dataclasses import dataclass

from . import _kernels as kernels
from . import laws
from .binop import BinOp
from .poset import LatticeOps, NotALattice, as_lattice
from .verdict import Verdict


def _max_in(p, mask):
    # the member of the set lying above all others, or None
    for x in p.iter_mask(mask):
        if mask & ~p.down[x] == 0:
            return x
    return None


def sectional_pc_lattice(lat, a, b):
    """Greatest x with (a v b) ^ x = b, or None if the set has no greatest."""
    p = lat.poset
    vee = lat.join[a][b]
    s = 0
    for x in range(p.n):
        if lat.meet[vee][x] == b:
            s |= 1 << x
    return _max_in(p, s)


def relative_pc(lat, a, b):
    """Greatest x with a ^ x <= b, or None."""
    p = lat.poset
    s = 0
    for x in range(p.n):
        if p.up[lat.meet[a][x]] >> b & 1:
            s |= 1 << x
    return _max_in(p, s)


def sectional_pc_poset(p, a, b):
    """Cone-only sectional pseudocomplement of a relative to b, or None.

    The result d is characterized by: for every c, the common lower bounds
    of U(a,b) and U(c,b) are exactly the cone of b iff d is in U(c,b).
    """
    full = p.full
    lu_ab = full
    for x in p.iter_mask(p.up[a] & p.up[b]):
        lu_ab &= p.down[x]
    lb = p.down[b]
    t = full
    for c in range(p.n):
        lu_cb = full
        for x in p.iter_mask(p.up[c] & p.up[b]):
            lu_cb &= p.down[x]
        if lu_ab & lu_cb == lb:
            t &= p.up[c] & p.up[b]
    d = None
    for x in p.iter_mask(t):
        if t & ~p.up[x] == 0:
            d = x
            break
    if d is None:
        return None
    if not p.down[d] >> b & 1 or lu_ab & p.down[d] != lb:
        return None
    return d


def _relative_cell(p, by_down, a, b):
    # x qualifies iff no y <= a outside the cone of b lies below x, so the
    # qualifying set is a down-set: it has a greatest element iff it is a cone
    up = p.up
    above = 0
    m = p.down[a] & ~p.down[b]
    while m:
        low = m & -m
        above |= up[low.bit_length() - 1]
        m ^= low
    return by_down.get(p.full & ~above)


def _cone_index(p):
    return {d: x for x, d in enumerate(p.down)}


def relative_pc_poset(p, a, b):
    """Greatest d whose common lower bounds with a sit inside the cone of b."""
    return _relative_cell(p, _cone_index(p), a, b)


def star_table_poset(p):
    """Full sectional pseudocomplement table of a poset (kernel-backed)."""
    flat = kernels.poset_star_table(p.n, p.up, p.down)
    return BinOp.from_flat(p.n, flat)


def relative_table_poset(p):
    by_down = _cone_index(p)
    rows = [[_relative_cell(p, by_down, a, b) for b in range(p.n)] for a in range(p.n)]
    return BinOp.from_rows(rows)


def is_meet_semidistributive(lat):
    """Verdict of: a^b = a^c implies a^(b v c) = a^b, scanned over triples."""
    return Verdict.of(_lattice_scan(lat, (laws.MEET_SEMIDISTRIBUTIVE,))[0])


def _lattice_scan(lat, checks):
    return laws.scan(lat.poset, checks, join=lat.join, meet=lat.meet)


@dataclass(frozen=True)
class FailureWitness:
    """Pair where the join-of-candidates formula misses the defining identity."""

    pair: tuple
    candidate: int
    meet_value: int


def synthesize_sectional(lat):
    """Total sectional pseudocomplement table built by the join formula.

    Each cell is the join of every x above b with (a v b) ^ x = b; when the
    lattice is meet-semidistributive this join itself satisfies the identity,
    otherwise the first offending pair is returned as a FailureWitness.
    """
    p = lat.poset
    rows = [[0] * p.n for _ in range(p.n)]
    for ra in range(p.n):
        a = p.topo[ra]
        for rb in range(p.n):
            b = p.topo[rb]
            vee = lat.join[a][b]
            ub = p.up[b]
            cand = b
            for x in range(p.n):
                if ub >> x & 1 and lat.meet[vee][x] == b:
                    cand = lat.join[cand][x]
            if lat.meet[vee][cand] != b:
                return FailureWitness((a, b), cand, lat.meet[vee][cand])
            rows[a][b] = cand
    return BinOp.from_rows(rows)


@dataclass(frozen=True)
class ClassificationReport:
    """Yes/no flags with a witness for every flag that is False.

    Lattice-only flags are None on non-lattices.  Witness shapes:
    is_lattice: (kind, a, b, frontier...); has_top/has_bottom: the maximal
    or minimal antichain; modular/distributive/meet-semidistributive: the
    violating triple; sectional/relative pc: the first undefined pair.
    """

    is_lattice: bool
    has_top: bool
    has_bottom: bool
    is_modular: "bool | None"
    is_distributive: "bool | None"
    is_meet_semidistributive: "bool | None"
    is_sectionally_pc: bool
    is_relatively_pc: bool
    witnesses: dict


def _first_undefined(p, op):
    for ra in range(p.n):
        a = p.topo[ra]
        for rb in range(p.n):
            b = p.topo[rb]
            if not op.defined(a, b):
                return (a, b)
    return None


def classify(p, lattice=None):
    """Classify a poset; pass a prebuilt LatticeOps to skip recomputing it."""
    witnesses = {}
    lat = lattice if lattice is not None else as_lattice(p)
    if isinstance(lat, NotALattice):
        is_lattice = False
        witnesses["is_lattice"] = (lat.kind, *lat.pair, lat.frontier)
        lat = None
    else:
        is_lattice = True
    has_top = p.top is not None
    if not has_top:
        witnesses["has_top"] = tuple(i for i in p.topo if p.up[i] == 1 << i)
    has_bottom = p.bottom is not None
    if not has_bottom:
        witnesses["has_bottom"] = tuple(i for i in p.topo if p.down[i] == 1 << i)
    is_modular = is_distributive = is_semi = None
    if lat is not None:
        found = _lattice_scan(lat, (laws.MODULAR, laws.DISTRIBUTIVE))
        semi = is_meet_semidistributive(lat)
        found.append(None if semi else semi.witness)
        for key, w in zip(("is_modular", "is_distributive", "is_meet_semidistributive"), found):
            if w is not None:
                witnesses[key] = w
        is_modular, is_distributive, is_semi = (w is None for w in found)
    star = star_table_poset(p)
    spc = star.is_total
    if not spc:
        witnesses["is_sectionally_pc"] = _first_undefined(p, star)
    rel = relative_table_poset(p)
    rpc = rel.is_total
    if not rpc:
        witnesses["is_relatively_pc"] = _first_undefined(p, rel)
    return ClassificationReport(
        is_lattice=is_lattice,
        has_top=has_top,
        has_bottom=has_bottom,
        is_modular=is_modular,
        is_distributive=is_distributive,
        is_meet_semidistributive=is_semi,
        is_sectionally_pc=spc,
        is_relatively_pc=rpc,
        witnesses=witnesses,
    )
