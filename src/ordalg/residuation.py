"""Relative residuation on finite lattices with a greatest element.

A candidate bundles a lattice with total multiplication and implication
tables.  ``check_residuation`` scans every instance of the defining axioms;
the consequence suite and the identity-basis check are gated on a passing
axiom report so nothing downstream runs on an unverified structure.
"""

from dataclasses import dataclass, field, replace

from . import laws
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
        _require_total(self.lattice.poset.n, mult=self.mult, imp=self.imp)


def _require_total(n, **ops):
    for name, op in ops.items():
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


def _axiom_scan(lat, mult, imp, checks):
    return laws.scan(lat.poset, checks, join=lat.join, mult=mult.table, imp=imp.table)


def _groupoid_verdict(commutative, unit):
    if commutative:
        return Verdict(False, commutative, "commutativity")
    return Verdict.of(unit, "unit")


_AXIOMS = (laws.COMMUTATIVE, laws.UNIT, laws.MONOTONE, laws.ADJOINT_FORWARD,
           laws.ADJOINT_BACKWARD)


def _residuation_report(cand, found):
    # the report of the least failing tuples of _AXIOMS, in its order
    comm, unit, mono, fwd, bwd = found
    return AxiomReport(
        subject=cand,
        verdicts=(
            ("commutative-groupoid-with-unit", _groupoid_verdict(comm, unit)),
            ("mult-monotone", Verdict.of(mono)),
            ("adjointness-forward", Verdict.of(fwd)),
            ("adjointness-backward", Verdict.of(bwd)),
        ),
    )


def check_residuation(cand):
    """Exhaustive check of the residuation axioms; every failure has a witness.

    One law scan finds each axiom's least failing tuple in the fixed
    topological order.
    """
    return _residuation_report(cand, _axiom_scan(cand.lattice, cand.mult, cand.imp, _AXIOMS))


def check_divisibility(cand):
    """Verdict of (x v y) * (x -> y) = y over all pairs.

    The law engine scans ``laws.DIVISIBLE`` once, and a failure's witness is
    its least failing pair in the fixed topological order.  To read the
    identity with the lattice meet as the product, check a candidate
    built with the meet table as its multiplication.
    """
    (witness,) = _axiom_scan(cand.lattice, cand.mult, cand.imp, (laws.DIVISIBLE,))
    return Verdict.of(witness, "divisibility")


def from_sectional(lat, star):
    """Candidate with meet as multiplication and a star table as implication."""
    return ResiduationCandidate(lat, BinOp._trusted(lat.meet, True), star)


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
    """
    _require_verified(checked, cand)
    found = _axiom_scan(cand.lattice, cand.mult, cand.imp,
                        [law for _, law in laws.DERIVED] + list(laws.LAW_IX))
    out = {name: Verdict.of(w, name) for (name, _), w in zip(laws.DERIVED, found)}
    out["ix"] = Verdict.of(found[-2] or found[-1], "ix")
    return out


def half_adjointness(lat, mult, imp):
    """One adjointness direction from second-argument monotonicity plus law v.

    Raises ValueError unless both tables are total on the lattice's
    carrier, and PreconditionError naming whichever hypothesis fails;
    otherwise verifies that (c v b) <= a -> b forces (a v b) * (c v b) <= b.
    """
    _require_total(lat.poset.n, mult=mult, imp=imp)
    monotone, below, found = _axiom_scan(
        lat, mult, imp, (laws.MONOTONE_RIGHT, laws.PRODUCT_BELOW, laws.ADJOINT_BACKWARD))
    if monotone:
        raise PreconditionError("mult monotone in second argument", monotone)
    if below:
        raise PreconditionError("(a v b) * (a -> b) <= b", below)
    return Verdict.of(found)


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

    One law scan runs the basis and the residuation axioms together.  The
    basis with the groupoid laws holds exactly when the axioms do (see
    ``laws.BASIS``), so when every condition and the groupoid laws hold
    the candidate must pass the axioms outright, and their report, as
    ``check_residuation`` gives it, is attached; a failing condition means
    that the axioms fail too.
    """
    found = _axiom_scan(cand.lattice, cand.mult, cand.imp,
                        [law for _, law in laws.BASIS] + list(_AXIOMS))
    conds = tuple((name, Verdict.of(w, name)) for (name, _), w in zip(laws.BASIS, found))
    axioms = _residuation_report(cand, found[len(laws.BASIS):])
    report = IdentityBasisReport(subject=cand, conditions=conds,
                                 groupoid=axioms.verdict("commutative-groupoid-with-unit"))
    return replace(report, residuation=axioms) if report.all_conditions_hold else report
