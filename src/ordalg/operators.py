"""Residuation lifted to subset operators on a poset with a greatest element.

The canonical product of two subsets is the set of their common lower
bounds; the canonical residual of a pair of elements is the lower cone of
their sectional pseudocomplement.  Explicit table-backed operators exist
so tests can inject broken operators and watch the axioms fail.
"""

from dataclasses import dataclass, field

from . import laws
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
    # the mask tables the operator laws read, built on the first scan
    tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
    fwd, bwd = map(Verdict.of, _operator_scan(op, (laws.OPERATOR_FORWARD,
                                                     laws.OPERATOR_BACKWARD)))
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


def _operator_scan(op, checks):
    """Scan the operator laws over mask tables, built once per operator poset.

    The tables hold the residual of each pair and, over the distinct sets
    U(x, y) of common upper bounds, which the uid table numbers, their
    common lower bounds and the product of each two of them.
    """
    p, prod, resid, tables = op.poset, op.prod, op.resid, op.tables
    if not tables:
        if isinstance(resid, CanonicalResidual):
            rows = [[p.down[s] for s in row] for row in resid.star.table]
        else:
            rows = [[resid.r(x, y) for y in range(p.n)] for x in range(p.n)]
        ids = {}
        uid = [[ids.setdefault(p.up[x] & p.up[y], len(ids)) for y in range(p.n)]
               for x in range(p.n)]
        low = [lower_set(p, u) for u in ids]
        tables.update(resid=rows, uid=uid, prod=[[prod.m(u, v) for v in ids] for u in ids],
                      lu=[[low[i] for i in row] for row in uid])
    return laws.scan(p, checks, **tables)


def operator_derived_laws(op, checked):
    """The five consequences for a verified operator poset.

    ``checked`` must be a passing AxiomReport for this operator poset.
    Law v needs a least element and is skipped without one.
    """
    _require_verified(checked, op)
    named = laws.OPERATOR_LAWS if op.poset.bottom is not None else laws.OPERATOR_LAWS[:-1]
    found = _operator_scan(op, [law for _, law in named])
    out = {name: Verdict.of(w, name) for (name, _), w in zip(named, found)}
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
    lb = p.down[b]
    lu_ab = lower_set(p, p.up[a] & p.up[b])
    # each c keeps the v inside U(c,b) when its condition holds, else those outside
    sols = p.full
    for c in range(p.n):
        ucb = p.up[c] & p.up[b]
        sols &= ucb if lu_ab & lower_set(p, ucb) == lb else ~ucb
    return tuple(p.iter_mask(sols))
