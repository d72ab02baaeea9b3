"""Relative residuation on finite lattices with a greatest element.

A candidate bundles a lattice with total multiplication and implication
tables.  ``check_residuation`` scans every instance of the defining axioms,
``check_divisibility`` one identity, ``derived_laws`` the consequences of
the axioms and ``identity_basis_check`` the four-identity basis.  The
first of them to run on a candidate scans every law the four read,
``laws.CANDIDATE``, in one law scan and keeps each law's least failing
tuple on the candidate; each check reads its own laws from there.
``derived_laws`` is gated on a passing axiom report, so no consequence is
reported for an unverified structure.
"""

from dataclasses import dataclass, field, replace

from . import laws
from .binop import BinOp
from .errors import NotVerifiedError, PreconditionError
from .verdict import HOLDS, Verdict


@dataclass(frozen=True)
class ResiduationCandidate:
    """Lattice plus total mult/imp tables over the same carrier."""

    lattice: object
    mult: BinOp
    imp: BinOp
    # each law of laws.CANDIDATE_LAWS to its least failing tuple or None,
    # filled by the first check that runs on this candidate
    found: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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


def _found(cand):
    """Each law of laws.CANDIDATE_LAWS to its least failing tuple on cand, or None."""
    found = cand.found
    if not found:
        found.update(zip(laws.CANDIDATE_LAWS,
                         _axiom_scan(cand.lattice, cand.mult, cand.imp, laws.CANDIDATE)))
    return found


def _groupoid_verdict(commutative, unit):
    if commutative:
        return Verdict(False, commutative, "commutativity")
    return Verdict.of(unit, "unit")


def _residuation_report(cand, found):
    return AxiomReport(
        subject=cand,
        verdicts=(
            ("commutative-groupoid-with-unit",
             _groupoid_verdict(found[laws.COMMUTATIVE], found[laws.UNIT])),
            ("mult-monotone", Verdict.of(found[laws.MONOTONE])),
            ("adjointness-forward", Verdict.of(found[laws.ADJOINT_FORWARD])),
            ("adjointness-backward", Verdict.of(found[laws.ADJOINT_BACKWARD])),
        ),
    )


def check_residuation(cand):
    """Exhaustive check of the residuation axioms; every failure has a witness.

    Each axiom's witness is its least failing tuple in the fixed
    topological order, from the candidate's one law scan, which this
    check makes when it runs first.
    """
    return _residuation_report(cand, _found(cand))


def check_divisibility(cand):
    """Verdict of (x v y) * (x -> y) = y over all pairs.

    A failure's witness is the least failing pair of ``laws.DIVISIBLE`` in
    the fixed topological order, from the candidate's one law scan.  To
    read the identity with the lattice meet as the product, check a
    candidate built with the meet table as its multiplication.
    """
    return Verdict.of(_found(cand)[laws.DIVISIBLE], "divisibility")


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

    ``checked`` must be a passing AxiomReport for this very candidate.  The
    witnesses come from the candidate's one law scan.
    """
    _require_verified(checked, cand)
    found = _found(cand)
    out = {name: Verdict.of(found[law], name) for name, law in laws.DERIVED}
    ix, ix_bottom = laws.LAW_IX
    out["ix"] = Verdict.of(found[ix] or found[ix_bottom], "ix")
    return out


def half_adjointness(lat, mult, imp):
    """One adjointness direction from second-argument monotonicity plus law v.

    Raises ValueError unless both tables are total on the lattice's
    carrier, and PreconditionError naming whichever hypothesis fails;
    otherwise verifies that (c v b) <= a -> b forces (a v b) * (c v b) <= b.
    """
    _require_total(lat.poset.n, mult=mult, imp=imp)
    monotone, below, found = _axiom_scan(lat, mult, imp, laws.HALF_ADJOINT)
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
    groupoid: Verdict = HOLDS
    residuation: "AxiomReport | None" = None

    @property
    def all_conditions_hold(self):
        return bool(self.groupoid) and all(v for _, v in self.conditions)


def identity_basis_check(cand):
    """Check the four-identity basis; when it holds, cross-check the axioms.

    The basis and the residuation axioms come from the candidate's one law
    scan.  The basis with the groupoid laws holds exactly when the axioms
    do (see ``laws.BASIS``), so when every condition and the groupoid laws
    hold the candidate must pass the axioms outright, and their report, as
    ``check_residuation`` gives it, is attached; a failing condition means
    that the axioms fail too.
    """
    found = _found(cand)
    conds = tuple((name, Verdict.of(found[law], name)) for name, law in laws.BASIS)
    axioms = _residuation_report(cand, found)
    report = IdentityBasisReport(subject=cand, conditions=conds,
                                 groupoid=axioms.verdict("commutative-groupoid-with-unit"))
    return replace(report, residuation=axioms) if report.all_conditions_hold else report
