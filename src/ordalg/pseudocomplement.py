"""Sectional and relative pseudocomplements, with structure classification.

Two independent routes exist on purpose: the lattice route works from
join/meet tables, the poset route only from upper/lower cones.  On any
lattice the two must agree cell for cell, and the test suite holds them
to that.  The poset route reads both tables from ``poset._order_tables``,
which keeps the last order's tables from one kernel call; their cell
rules ``_kernels._common`` states once (``star_cell``, ``relative_cell``),
and the single-cell functions here call those rules.  The lattice route
stays plain Python, independent of them.
The join formula of ``synthesize_sectional`` only explains a failure.
``classify`` and ``is_meet_semidistributive`` read modularity,
distributivity and meet semidistributivity from the lattice's one kept
law scan, ``LatticeOps.found``, whichever of them runs first.
"""

from . import laws
from ._kernels._common import extreme, relative_cell, star_cell
from .binop import _check_pair
from .poset import NotALattice, _order_tables, _require_lattice, as_lattice, lower_set
from .verdict import Record, Verdict


def sectional_pc_lattice(lat, a, b):
    """Greatest x with (a v b) ^ x = b, or None if the set has no greatest."""
    p = _require_lattice(lat).poset
    _check_pair(p.n, a, b)
    vee = lat.join[a][b]
    s = 0
    for x in range(p.n):
        if lat.meet[vee][x] == b:
            s |= 1 << x
    m = extreme(s, p.down)
    return None if m < 0 else m


def relative_pc(lat, a, b):
    """Greatest x with a ^ x <= b, or None."""
    p = _require_lattice(lat).poset
    _check_pair(p.n, a, b)
    s = 0
    for x in range(p.n):
        if p.up[lat.meet[a][x]] >> b & 1:
            s |= 1 << x
    m = extreme(s, p.down)
    return None if m < 0 else m


def sectional_pc_poset(p, a, b):
    """Cone-only sectional pseudocomplement of a relative to b, or None.

    The result d is characterized by: for every c, the common lower bounds
    of U(a,b) and U(c,b) are exactly the cone of b iff d is in U(c,b).
    """
    _check_pair(p.n, a, b)
    lu_b = [lower_set(p, p.up[c] & p.up[b]) for c in range(p.n)]
    return star_cell(p.full, p.up, p.down, lu_b[a], lu_b, b)


def relative_pc_poset(p, a, b):
    """Greatest d whose common lower bounds with a sit inside the cone of b."""
    _check_pair(p.n, a, b)
    by_down = {d: x for x, d in enumerate(p.down)}
    return relative_cell(p.full, p.up, by_down, p.down[a], p.down[b])


def star_table_poset(p):
    """Full sectional pseudocomplement table of a poset (kernel-backed).

    It is kept with the last poset's other tables: checks that share a
    poset build them once, in one kernel call.
    """
    return _order_tables(p)[1]


def relative_table_poset(p):
    """Full relative pseudocomplement table of a poset, kept with its star table."""
    return _order_tables(p)[2]


def is_meet_semidistributive(lat):
    """Verdict of: a^b = a^c implies a^(b v c) = a^b, from the lattice's law scan."""
    return Verdict.of(_require_lattice(lat).found[laws.MEET_SEMIDISTRIBUTIVE])


class FailureWitness(Record):
    """Pair where the join-of-candidates formula misses the defining identity."""

    __slots__ = ("pair", "candidate", "meet_value")


def synthesize_sectional(lat):
    """Total sectional pseudocomplement table of a lattice, or a FailureWitness.

    The table is ``star_table_poset``'s, which keeps the last poset's
    tables, so after ``classify`` on the same poset it is not built again.
    Each cell (a, b) is the greatest x with (a v b) ^ x = b, which exists
    exactly when the join of all such x satisfies the identity itself, and
    then is that join.  Where the table has a gap, the first in topological
    order, the join formula names the candidate that misses the identity.
    A NotALattice raises ValueError, as every function that takes a
    lattice does.
    """
    p = _require_lattice(lat).poset
    star = star_table_poset(p)
    if star.is_total:
        return star
    a, b = star.first_undefined(p.topo)
    vee = lat.join[a][b]
    cand = b
    for x in p.iter_mask(p.up[b]):
        if lat.meet[vee][x] == b:
            cand = lat.join[cand][x]
    return FailureWitness((a, b), cand, lat.meet[vee][cand])


class ClassificationReport(Record):
    """Yes/no flags with a witness for every flag that is False.

    Lattice-only flags are None on non-lattices.  Witness shapes:
    is_lattice: (kind, a, b, frontier...); has_top/has_bottom: the maximal
    or minimal antichain; modular/distributive/meet-semidistributive: the
    violating triple; sectional/relative pc: the first undefined pair.
    """

    __slots__ = ("is_lattice", "has_top", "has_bottom", "is_modular", "is_distributive",
                 "is_meet_semidistributive", "is_sectionally_pc", "is_relatively_pc", "witnesses")


def classify(p, lattice=None):
    """Classify a poset; pass ``as_lattice(p)`` to skip recomputing it.

    A LatticeOps or NotALattice of another poset raises ValueError.  The
    lattice laws come from the lattice's kept law scan, and the star and
    relative tables from the order's kept tables, built in one kernel call
    with its join and meet.
    """
    witnesses = {}
    lat = lattice if lattice is not None else as_lattice(p)
    if lat.poset not in (p, None):
        raise ValueError("lattice is over another poset")
    is_lattice = not isinstance(lat, NotALattice)
    if not is_lattice:
        witnesses["is_lattice"] = (lat.kind, *lat.pair, lat.frontier)
    has_top = p.top is not None
    if not has_top:
        witnesses["has_top"] = tuple(i for i in p.topo if p.up[i] == 1 << i)
    has_bottom = p.bottom is not None
    if not has_bottom:
        witnesses["has_bottom"] = tuple(i for i in p.topo if p.down[i] == 1 << i)
    is_modular = is_distributive = is_semi = None
    if is_lattice:
        semi = is_meet_semidistributive(lat)
        found = (lat.found[laws.MODULAR], lat.found[laws.DISTRIBUTIVE],
                 None if semi else semi.witness)
        for key, w in zip(("is_modular", "is_distributive", "is_meet_semidistributive"), found):
            if w is not None:
                witnesses[key] = w
        is_modular, is_distributive, is_semi = (w is None for w in found)
    star, rel = star_table_poset(p), relative_table_poset(p)
    for key, table in (("is_sectionally_pc", star), ("is_relatively_pc", rel)):
        if not table.is_total:
            witnesses[key] = table.first_undefined(p.topo)
    return ClassificationReport(
        is_lattice=is_lattice,
        has_top=has_top,
        has_bottom=has_bottom,
        is_modular=is_modular,
        is_distributive=is_distributive,
        is_meet_semidistributive=is_semi,
        is_sectionally_pc=star.is_total,
        is_relatively_pc=rel.is_total,
        witnesses=witnesses,
    )
