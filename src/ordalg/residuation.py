"""Relative residuation on finite lattices with a greatest element.

A candidate bundles a lattice with total multiplication and implication
tables.  ``check_residuation`` scans every instance of the defining axioms;
the consequence suite and the identity-basis check are gated on a passing
axiom report so nothing downstream runs on an unverified structure.
"""

from dataclasses import dataclass, field

from . import _kernels as kernels
from .binop import BinOp
from .errors import NotVerifiedError, PreconditionError
from .verdict import Verdict


@dataclass(frozen=True)
class ResiduationCandidate:
    """Lattice plus total mult/imp tables over the same carrier."""

    lattice: object
    mult: BinOp
    imp: BinOp

    def __post_init__(self):
        n = self.lattice.poset.n
        for name, op in (("mult", self.mult), ("imp", self.imp)):
            if op.n != n:
                raise ValueError(f"{name} table carrier size {op.n} != {n}")
            if not op.is_total:
                raise ValueError(f"{name} table must be total")


@dataclass(frozen=True)
class AxiomReport:
    """Named verdicts for one checked structure."""

    subject: object = field(repr=False, compare=False)
    verdicts: tuple = ()

    @property
    def passed(self):
        return all(v for _, v in self.verdicts)

    def verdict(self, name):
        for key, v in self.verdicts:
            if key == name:
                return v
        raise KeyError(name)

    def failed(self):
        return tuple(name for name, v in self.verdicts if not v)


def _pairs(p):
    for a in p.topo:
        for b in p.topo:
            yield a, b


def _triples(p):
    for a in p.topo:
        for b in p.topo:
            for c in p.topo:
                yield a, b, c


def _groupoid_verdict(cand):
    p = cand.lattice.poset
    mult = cand.mult.table
    top = cand.lattice.top
    for a, b in _pairs(p):
        if mult[a][b] != mult[b][a]:
            return Verdict(False, (a, b), "commutativity")
    for a in p.topo:
        if mult[top][a] != a:
            return Verdict(False, (a,), "unit")
    return Verdict(True)


def _monotone_verdict(lat, mult):
    p = lat.poset
    up = p.up
    t = mult.table
    for a, b in _pairs(p):
        if up[a] >> b & 1:
            for c in p.topo:
                if not up[t[a][c]] >> t[b][c] & 1 or not up[t[c][a]] >> t[c][b] & 1:
                    return Verdict(False, (a, b, c))
    return Verdict(True)


def _adjointness_verdicts(lat, mult, imp):
    p = lat.poset
    up = p.up
    join = lat.join
    mt, it = mult.table, imp.table
    fwd = bwd = None
    for a, b, c in _triples(p):
        ab = join[a][b]
        cb = join[c][b]
        lhs = up[mt[ab][cb]] >> b & 1
        rhs = up[cb] >> it[a][b] & 1
        if lhs and not rhs and fwd is None:
            fwd = (a, b, c)
        if rhs and not lhs and bwd is None:
            bwd = (a, b, c)
        if fwd and bwd:
            break
    return (
        Verdict(fwd is None, fwd or ()),
        Verdict(bwd is None, bwd or ()),
    )


def check_residuation(cand):
    """Exhaustive check of the residuation axioms; every failure has a witness.

    The flat scans run on the kernel backend; witness hunts re-run in pure
    Python over the fixed topological order.
    """
    lat = cand.lattice
    p = lat.poset
    bits = kernels.rrl_scan(
        p.n, p.up, lat.top, lat.flat_join(), cand.mult.flat(), cand.imp.flat()
    )
    group = _groupoid_verdict(cand) if bits & 1 else Verdict(True)
    mono = _monotone_verdict(lat, cand.mult) if bits & 2 else Verdict(True)
    if bits & 12:
        fwd, bwd = _adjointness_verdicts(lat, cand.mult, cand.imp)
    else:
        fwd = bwd = Verdict(True)
    return AxiomReport(
        subject=cand,
        verdicts=(
            ("commutative-groupoid-with-unit", group),
            ("mult-monotone", mono),
            ("adjointness-forward", fwd),
            ("adjointness-backward", bwd),
        ),
    )


def check_divisibility(cand, mult_override=None):
    """Verdict of (x v y) * (x -> y) = y over all pairs.

    ``mult_override`` substitutes another total table for the product in
    the identity, which lets a caller replay the same scan with the
    lattice meet standing in for the declared multiplication.
    """
    lat = cand.lattice
    p = lat.poset
    mult = cand.mult if mult_override is None else mult_override
    if not mult.is_total or mult.n != p.n:
        raise ValueError("override must be a total table on the same carrier")
    if kernels.divisibility_scan(p.n, lat.flat_join(), mult.flat(), cand.imp.flat()):
        return Verdict(True)
    mt, it = mult.table, cand.imp.table
    for x, y in _pairs(p):
        if mt[lat.join[x][y]][it[x][y]] != y:
            return Verdict(False, (x, y), "divisibility")
    raise AssertionError("kernel reported a failure the rescan cannot find")


def from_sectional(lat, star):
    """Candidate with meet as multiplication and a star table as implication."""
    if not star.is_total:
        raise ValueError("star table must be total")
    meet_op = BinOp(lat.poset.n, tuple(tuple(row) for row in lat.meet))
    return ResiduationCandidate(lat, meet_op, star)


def _require_verified(report, subject):
    if (
        not isinstance(report, AxiomReport)
        or report.subject is not subject
        or not report.passed
    ):
        raise NotVerifiedError("run check_residuation on this candidate first")


def derived_laws(cand, checked):
    """The nine consequences of the axioms, each exhaustively verified.

    ``checked`` must be a passing AxiomReport for this very candidate.
    Law ix needs a least element and is skipped without one.
    """
    _require_verified(checked, cand)
    lat = cand.lattice
    p = lat.poset
    up = p.up
    join = lat.join
    mt, it = cand.mult.table, cand.imp.table
    top, bot = lat.top, lat.bottom
    out = {}

    def scan_pairs(law, test):
        for a, b in _pairs(p):
            if not test(a, b):
                return Verdict(False, (a, b), law)
        return Verdict(True)

    out["i"] = Verdict(True)
    for x in p.topo:
        if it[top][x] != x:
            out["i"] = Verdict(False, (x,), "i")
            break
    out["ii"] = scan_pairs("ii", lambda a, b: (up[a] >> b & 1) == (it[a][b] == top))
    out["iii"] = scan_pairs("iii", lambda a, b: up[mt[a][join[a][b]]] >> a & 1)
    out["iv"] = scan_pairs("iv", lambda a, b: up[b] >> it[a][b] & 1)
    out["v"] = scan_pairs("v", lambda a, b: up[mt[join[a][b]][it[a][b]]] >> b & 1)
    out["vi"] = scan_pairs("vi", lambda a, b: it[a][b] == it[join[a][b]][b])
    out["vii"] = scan_pairs("vii", lambda a, b: up[join[a][b]] >> it[it[a][b]][b] & 1)
    law8 = Verdict(True)
    for a, b, c in _triples(p):
        if up[a] >> b & 1 and not up[it[b][c]] >> it[a][c] & 1:
            law8 = Verdict(False, (a, b, c), "viii")
            break
    out["viii"] = law8
    if bot is None:
        out["ix"] = Verdict(True, (), "skipped: no least element")
    else:
        law9 = scan_pairs("ix", lambda a, b: (mt[a][b] == bot) == (up[a] >> it[b][bot] & 1))
        if law9:
            for x in p.topo:
                if mt[bot][x] != bot:
                    law9 = Verdict(False, (x,), "ix")
                    break
        out["ix"] = law9
    return out


def half_adjointness(lat, mult, imp):
    """One adjointness direction from second-argument monotonicity plus law v.

    Raises PreconditionError naming whichever hypothesis fails; otherwise
    verifies that (c v b) <= a -> b forces (a v b) * (c v b) <= b.
    """
    p = lat.poset
    up = p.up
    mt, it = mult.table, imp.table
    join = lat.join
    for a in p.topo:
        for b, c in _pairs(p):
            if up[b] >> c & 1 and not up[mt[a][b]] >> mt[a][c] & 1:
                raise PreconditionError("mult monotone in second argument", (a, b, c))
    for a, b in _pairs(p):
        if not up[mt[join[a][b]][it[a][b]]] >> b & 1:
            raise PreconditionError("(a v b) * (a -> b) <= b", (a, b))
    for a, b, c in _triples(p):
        cb = join[c][b]
        if up[cb] >> it[a][b] & 1 and not up[mt[join[a][b]][cb]] >> b & 1:
            return Verdict(False, (a, b, c))
    return Verdict(True)


@dataclass(frozen=True)
class IdentityBasisReport:
    """Four inequality checks plus the groupoid laws and their consequence."""

    subject: object = field(repr=False, compare=False)
    conditions: tuple = ()
    groupoid: Verdict = Verdict(True)
    residuation: "AxiomReport | None" = None

    @property
    def all_conditions_hold(self):
        return bool(self.groupoid) and all(v for _, v in self.conditions)


def identity_basis_check(cand):
    """Check the four-identity basis; when it holds, cross-check the axioms.

    If every condition and the groupoid laws hold, the candidate must pass
    check_residuation outright, and the resulting report is attached.
    """
    lat = cand.lattice
    p = lat.poset
    up = p.up
    join = lat.join
    mt, it = cand.mult.table, cand.imp.table
    top = lat.top
    conds = []
    v = Verdict(True)
    for a, b, c in _triples(p):
        ab, cb = join[a][b], join[c][b]
        if not up[it[mt[ab][cb]][b]] >> it[cb][it[a][b]] & 1:
            v = Verdict(False, (a, b, c), "i")
            break
    conds.append(("i", v))
    v = Verdict(True)
    for a, b in _pairs(p):
        if not up[mt[join[a][b]][it[a][b]]] >> b & 1:
            v = Verdict(False, (a, b), "ii")
            break
    conds.append(("ii", v))
    v = Verdict(True)
    for a, b, c in _triples(p):
        if not up[mt[a][b]] >> mt[a][join[b][c]] & 1:
            v = Verdict(False, (a, b, c), "iii")
            break
    conds.append(("iii", v))
    v = Verdict(True)
    for x, y in _pairs(p):
        if it[x][join[x][y]] != top:
            v = Verdict(False, (x, y), "iv")
            break
    conds.append(("iv", v))
    group = _groupoid_verdict(cand)
    report = IdentityBasisReport(subject=cand, conditions=tuple(conds), groupoid=group)
    if report.all_conditions_hold:
        report = IdentityBasisReport(
            subject=cand,
            conditions=tuple(conds),
            groupoid=group,
            residuation=check_residuation(cand),
        )
    return report
