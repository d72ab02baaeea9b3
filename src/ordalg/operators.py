"""Residuation lifted to subset operators on a poset with a greatest element.

The canonical product of two subsets is the set of their common lower
bounds; the canonical residual of a pair of elements is the lower cone of
their sectional pseudocomplement.  Explicit table-backed operators exist
so tests can inject broken operators and watch the axioms fail.  The
sets U(x, y) and their lower sets come from the order's kept tables,
``poset._order_tables``.
"""

from functools import cached_property

from . import laws
from .errors import NoTopError, OrdAlgError, PartialStarError, SubsetBudgetError
from .binop import _check_pair
from .poset import _order_tables, lower_set
from .residuation import AxiomReport, _require_verified
from .verdict import HOLDS, Record, Verdict

SUBSET_BUDGET = 12


class CanonicalProduct:
    """Product of subset masks: common lower bounds of their union.

    L(A u B) = L(A) & L(B), so the product needs one lower set per operand,
    which it keeps for its own lifetime.  An operator scan pre-fills the
    lower sets of every U(x, y) from the order's kept tables, so the
    product table it builds does no ``lower_set`` work.
    """

    def __init__(self, poset):
        self.poset = poset
        self._lower = _LowerSets(poset)

    def m(self, a_mask, b_mask):
        return self._lower[a_mask] & self._lower[b_mask]


class _LowerSets(dict):
    """Lower set of each mask, computed on first lookup."""

    def __init__(self, poset):
        super().__init__()
        self.poset = poset

    def __missing__(self, mask):
        low = self[mask] = lower_set(self.poset, mask)
        return low


class CanonicalResidual:
    """Residual of an element pair: lower cone of the star-table entry."""

    def __init__(self, poset, star):
        if star.n != poset.n:
            raise ValueError(f"star table carrier size {star.n} != {poset.n}")
        if not star.is_total:
            a, b = star.first_undefined(poset.topo)
            raise PartialStarError(f"star table undefined at ({poset.names[a]}, {poset.names[b]})")
        self.poset = poset
        self.star = star

    def r(self, x, y):
        return self.poset.down[self.star.value(x, y)]


class ExplicitProduct:
    """Product given by a mask-pair table; evaluation outside it is an error."""

    def __init__(self, poset, mapping):
        self.poset = poset
        self.mapping = dict(mapping)

    def m(self, a_mask, b_mask):
        try:
            return self.mapping[(a_mask, b_mask)]
        except KeyError:
            raise OrdAlgError("table-backed product queried outside its table") from None


class ExplicitResidual:
    """Residual given by an element-pair table."""

    def __init__(self, poset, mapping):
        self.poset = poset
        self.mapping = dict(mapping)

    def r(self, x, y):
        try:
            return self.mapping[(x, y)]
        except KeyError:
            raise OrdAlgError("table-backed residual queried outside its table") from None


class OperatorPoset(Record):
    """Poset with top plus product and residual subset operators."""

    __slots__ = ("poset", "prod", "resid", "__dict__")

    def __init__(self, poset, prod, resid):
        if poset.top is None:
            raise NoTopError("operator residuation needs a greatest element")
        self._fill(poset, prod, resid)

    @cached_property
    def found(self):
        """Each law of laws.OPERATOR to its least failing tuple, or None.

        One law scan per operator poset runs them all over its mask tables.
        Law v, which needs a least element, is left out without one.
        """
        p = self.poset
        suite = laws.OPERATOR if p.bottom is not None else laws.OPERATOR_WITHOUT_BOTTOM
        return laws.scan(p, suite, **_mask_tables(self))


def canonical_operators(p, star):
    """OperatorPoset with the canonical product and residual for this star table."""
    # OperatorPoset checks this too, but only after the residual has checked
    # the star table, which is never total on a poset without a top
    if p.top is None:
        raise NoTopError("operator residuation needs a greatest element")
    return OperatorPoset(p, CanonicalProduct(p), CanonicalResidual(p, star))


def generated_family(p):
    """Deterministic small family of subset masks: all U(x,y), singletons, empty, full."""
    us = _order_tables(p)[3][0]
    return tuple(sorted({0, p.full, *(1 << i for i in range(p.n)), *us}))


def check_operator_axioms(op, exhaustive_subsets=False):
    """Scan commutativity, unit laws, and both adjointness directions.

    Subset-quantified laws run over the generated family by default, or
    over the full powerset with ``exhaustive_subsets`` (carrier capped at
    12 elements).  For the canonical product, commutativity and the unit
    law hold by construction: L(A u B) = L(B u A), and L(A u {top}) = L(A)
    because every element lies below top.  Only a table-backed product is
    scanned for them.  Each adjointness direction reports its first
    failing triple in the fixed topological order, from the operator
    poset's one law scan, which this check makes when it runs first.
    """
    p = op.poset
    if exhaustive_subsets and p.n > SUBSET_BUDGET:
        raise SubsetBudgetError(
            f"powerset mode allows at most {SUBSET_BUDGET} elements, carrier has {p.n}"
        )
    commut = unit = HOLDS
    if not isinstance(op.prod, CanonicalProduct):
        subsets = tuple(range(1 << p.n) if exhaustive_subsets else generated_family(p))
        commut, unit = _groupoid_verdicts(p, op.prod, subsets)
    found = op.found
    fwd = Verdict.of(found[laws.OPERATOR_FORWARD])
    bwd = Verdict.of(found[laws.OPERATOR_BACKWARD])
    return AxiomReport(
        subject=op,
        verdicts=(
            ("subset-commutativity", commut),
            ("subset-unit", unit),
            ("adjointness-forward", fwd),
            ("adjointness-backward", bwd),
        ),
    )


def _groupoid_verdicts(p, prod, subsets):
    top_mask = 1 << p.top
    commut = unit = HOLDS
    for a_mask in subsets:
        for b_mask in subsets:
            if prod.m(a_mask, b_mask) != prod.m(b_mask, a_mask):
                commut = Verdict(False, (a_mask, b_mask), "subset masks")
                break
        if not commut:
            break
    for a_mask in subsets:
        want = lower_set(p, a_mask)
        if prod.m(top_mask, a_mask) != want or prod.m(a_mask, top_mask) != want:
            unit = Verdict(False, (a_mask,), "subset mask")
            break
    return commut, unit


def _mask_tables(op):
    """The tables the operator laws read, by their names in laws.TABLES.

    They hold the residual of each pair and, over the distinct sets U(x, y)
    of common upper bounds, which the uid table numbers, their common lower
    bounds and the product of each two of them.  The order's kept tables
    give the sets, uid and lu tables.
    """
    p, prod, resid = op.poset, op.prod, op.resid
    if isinstance(resid, CanonicalResidual):
        rows = [[p.down[s] for s in row] for row in resid.star.table]
    else:
        rows = [[resid.r(x, y) for y in range(p.n)] for x in range(p.n)]
    us, uid, low, lu = _order_tables(p)[3]
    if isinstance(prod, CanonicalProduct) and prod.poset is p:
        prod._lower.update(zip(us, low))
    return {"resid": rows, "uid": uid, "prod": [[prod.m(u, v) for v in us] for u in us], "lu": lu}


def operator_derived_laws(op, checked):
    """The five consequences for a verified operator poset.

    ``checked`` must be a passing AxiomReport for this operator poset.
    The witnesses come from the operator poset's one law scan.  Law v
    needs a least element and is skipped without one.
    """
    _require_verified(checked, op)
    found = op.found
    out = {name: Verdict.of(found[law], name) for name, law in laws.OPERATOR_LAWS if law in found}
    if op.poset.bottom is None:
        out["v"] = Verdict(True, (), "skipped: no least element")
    return out


def adjointness_solutions(p, a, b):
    """All values v for which v could serve as the residual seed at (a, b).

    v qualifies iff for every c: the common lower bounds of U(a,b) and
    U(c,b) equal the cone of b exactly when v lies in U(c,b).  On any
    poset with top this set is empty or a single element, and it is
    nonempty exactly when the sectional pseudocomplement exists.
    """
    _check_pair(p.n, a, b)
    lb = p.down[b]
    lu_ab = lower_set(p, p.up[a] & p.up[b])
    # each c keeps the v inside U(c,b) when its condition holds, else those outside
    sols = p.full
    for c in range(p.n):
        ucb = p.up[c] & p.up[b]
        sols &= ucb if lu_ab & lower_set(p, ucb) == lb else ~ucb
    return tuple(p.iter_mask(sols))
