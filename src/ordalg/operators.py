"""Residuation lifted to subset operators on a poset with a greatest element.

The canonical product of two subsets is the set of their common lower
bounds; the canonical residual of a pair of elements is the lower cone of
their sectional pseudocomplement.  Explicit table-backed operators exist
so tests can inject broken operators and watch the axioms fail.
"""

from dataclasses import dataclass, field

from .errors import NoTopError, OrdAlgError, PartialStarError, SubsetBudgetError
from .poset import lower_set
from .residuation import AxiomReport, _require_verified
from .verdict import Verdict

SUBSET_BUDGET = 12


class CanonicalProduct:
    """Product of subset masks: common lower bounds of their union."""

    kind = "canonical-product"

    def __init__(self, poset):
        self.poset = poset
        self._lower = {}

    def m(self, a_mask, b_mask):
        mask = a_mask | b_mask
        low = self._lower.get(mask)
        if low is None:
            low = self._lower[mask] = lower_set(self.poset, mask)
        return low


class CanonicalResidual:
    """Residual of an element pair: lower cone of the star-table entry."""

    kind = "canonical-residual"

    def __init__(self, poset, star):
        if star.n != poset.n:
            raise ValueError(f"star table carrier size {star.n} != {poset.n}")
        if not star.is_total:
            cell = star.undefined_cells()[0]
            raise PartialStarError(
                f"star table undefined at ({poset.names[cell[0]]}, {poset.names[cell[1]]})"
            )
        self.poset = poset
        self.star = star

    def r(self, x, y):
        return self.poset.down[self.star.value(x, y)]


class ExplicitProduct:
    """Product given by a mask-pair table; evaluation outside it is an error."""

    kind = "table-backed"

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

    kind = "table-backed"

    def __init__(self, poset, mapping):
        self.poset = poset
        self.mapping = dict(mapping)

    def r(self, x, y):
        try:
            return self.mapping[(x, y)]
        except KeyError:
            raise OrdAlgError("table-backed residual queried outside its table") from None


@dataclass(frozen=True)
class OperatorPoset:
    """Poset with top plus product and residual subset operators."""

    poset: object
    prod: object
    resid: object

    def __post_init__(self):
        if self.poset.top is None:
            raise NoTopError("operator residuation needs a greatest element")


def canonical_operators(p, star):
    """OperatorPoset with the canonical product and residual for this star table."""
    if p.top is None:
        raise NoTopError("operator residuation needs a greatest element")
    return OperatorPoset(p, CanonicalProduct(p), CanonicalResidual(p, star))


def generated_family(p):
    """Deterministic small family of subset masks: all U(x,y), singletons, empty, full."""
    fam = {0, p.full}
    for i in range(p.n):
        fam.add(1 << i)
        for j in range(p.n):
            fam.add(p.up[i] & p.up[j])
    return tuple(sorted(fam))


def check_operator_axioms(op, exhaustive_subsets=False):
    """Scan commutativity, unit laws, and both adjointness directions.

    Subset-quantified laws run over the generated family by default, or
    over the full powerset with ``exhaustive_subsets`` (carrier capped at
    12 elements).  For the canonical product, commutativity and the unit
    law hold by construction: L(A u B) = L(B u A), and L(A u {top}) = L(A)
    because every element lies below top.  Only a table-backed product is
    scanned for them.  Each adjointness direction reports its first
    failing triple in the fixed topological order.
    """
    p = op.poset
    if exhaustive_subsets and p.n > SUBSET_BUDGET:
        raise SubsetBudgetError(
            f"powerset mode allows at most {SUBSET_BUDGET} elements, carrier has {p.n}"
        )
    commut = unit = Verdict(True)
    if not isinstance(op.prod, CanonicalProduct):
        subsets = tuple(range(1 << p.n) if exhaustive_subsets else generated_family(p))
        commut, unit = _groupoid_verdicts(p, op.prod, subsets)
    fwd, bwd = _adjointness_verdicts(p, op.prod, op.resid)
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
    commut = unit = Verdict(True)
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


def _adjointness_verdicts(p, prod, resid):
    up, down = p.up, p.down
    # U(c,b) and its lower set depend on (c, b) only, not on a
    cones = {}
    for b in p.topo:
        row = []
        for c in p.topo:
            ucb = up[c] & up[b]
            row.append((c, ucb, lower_set(p, ucb)))
        cones[b] = row
    # the canonical product of U(a,b) and U(c,b) is L(U(a,b)) & L(U(c,b))
    canonical = isinstance(prod, CanonicalProduct)
    fwd = bwd = None
    for a in p.topo:
        for b in p.topo:
            _, uab, lab = cones[b][p.rank[a]]
            lb = down[b]
            rab = resid.r(a, b)
            for c, ucb, lcb in cones[b]:
                prod_abc = lab & lcb if canonical else prod.m(uab, ucb)
                lhs = prod_abc & ~lb == 0
                rhs = lcb & ~rab == 0
                if lhs and not rhs and fwd is None:
                    fwd = (a, b, c)
                if rhs and not lhs and bwd is None:
                    bwd = (a, b, c)
                if fwd and bwd:
                    return Verdict(False, fwd), Verdict(False, bwd)
    return Verdict(fwd is None, fwd or ()), Verdict(bwd is None, bwd or ())


def operator_derived_laws(op, checked):
    """The five consequences for a verified operator poset.

    ``checked`` must be a passing AxiomReport for this operator poset.
    Law v needs a least element and is skipped without one.
    """
    _require_verified(checked, op)
    p = op.poset
    full = p.full
    out = {}
    law = Verdict(True)
    for a in p.topo:
        if p.down[a] & ~op.resid.r(p.top, a):
            law = Verdict(False, (a,), "i")
            break
    out["i"] = law
    law = Verdict(True)
    for a in p.topo:
        for b in p.topo:
            if (p.up[a] >> b & 1) != (op.resid.r(a, b) == full):
                law = Verdict(False, (a, b), "ii")
                break
        if not law:
            break
    out["ii"] = law
    law = Verdict(True)
    for a in p.topo:
        for b in p.topo:
            if op.prod.m(p.up[a], p.up[a] & p.up[b]) & ~p.down[a]:
                law = Verdict(False, (a, b), "iii")
                break
        if not law:
            break
    out["iii"] = law
    law = Verdict(True)
    for a in p.topo:
        for b in p.topo:
            if p.down[b] & ~op.resid.r(a, b):
                law = Verdict(False, (a, b), "iv")
                break
        if not law:
            break
    out["iv"] = law
    if p.bottom is None:
        out["v"] = Verdict(True, (), "skipped: no least element")
    else:
        bot_mask = 1 << p.bottom
        law = Verdict(True)
        for a in p.topo:
            for b in p.topo:
                lhs = op.prod.m(p.up[a], p.up[b]) & ~bot_mask == 0
                rhs = p.down[a] & ~op.resid.r(b, p.bottom) == 0
                if lhs != rhs:
                    law = Verdict(False, (a, b), "v")
                    break
            if not law:
                break
        out["v"] = law
    return out


def adjointness_solutions(p, a, b):
    """All values v for which v could serve as the residual seed at (a, b).

    v qualifies iff for every c: the common lower bounds of U(a,b) and
    U(c,b) equal the cone of b exactly when v lies in U(c,b).  On any
    poset with top this set is empty or a single element, and it is
    nonempty exactly when the sectional pseudocomplement exists.
    """
    lb = p.down[b]
    lu_ab = lower_set(p, p.up[a] & p.up[b])
    # each c keeps the v inside U(c,b) when its condition holds, else those outside
    sols = p.full
    for c in range(p.n):
        ucb = p.up[c] & p.up[b]
        sols &= ucb if lu_ab & lower_set(p, ucb) == lb else ~ucb
    return tuple(p.iter_mask(sols))
