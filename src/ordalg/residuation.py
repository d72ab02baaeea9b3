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

from functools import cached_property

from . import laws
from .binop import BinOp
from .errors import NotVerifiedError, PreconditionError
from .verdict import HOLDS, Record, Verdict


class ResiduationCandidate(Record):
    """Lattice plus total mult/imp tables over the same carrier."""

    __slots__ = ("lattice", "mult", "imp", "__dict__")

    def __init__(self, lattice, mult, imp):
        _require_total(lattice.poset.n, mult=mult, imp=imp)
        self._fill(lattice, mult, imp)

    @cached_property
    def found(self):
        """Each law of laws.CANDIDATE to its least failing tuple, or None."""
        lat = self.lattice
        return laws.scan(lat.poset, laws.CANDIDATE, join=lat.join, mult=self.mult.table,
                         imp=self.imp.table)


def _require_total(n, **ops):
    for name, op in ops.items():
        if op.n != n:
            raise ValueError(f"{name} table carrier size {op.n} != {n}")
        if not op.is_total:
            raise ValueError(f"{name} table must be total")


class AxiomReport(Record):
    """Named verdicts for one checked structure."""

    __slots__ = ("subject", "verdicts")
    _hidden = ("subject",)
    _defaults = {"verdicts": ()}

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
    return _residuation_report(cand, cand.found)


def check_divisibility(cand):
    """Verdict of (x v y) * (x -> y) = y over all pairs.

    A failure's witness is the least failing pair of ``laws.DIVISIBLE`` in
    the fixed topological order, from the candidate's one law scan.  To
    read the identity with the lattice meet as the product, check a
    candidate built with the meet table as its multiplication.
    """
    return Verdict.of(cand.found[laws.DIVISIBLE], "divisibility")


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
    found = cand.found
    return {name: Verdict.of(found[law], name) for name, law in laws.DERIVED}


def half_adjointness(lat, mult, imp):
    """One adjointness direction from second-argument monotonicity plus law v.

    Raises ValueError unless both tables are total on the lattice's
    carrier, and PreconditionError naming whichever hypothesis fails;
    otherwise verifies that (c v b) <= a -> b forces (a v b) * (c v b) <= b.
    """
    _require_total(lat.poset.n, mult=mult, imp=imp)
    found = laws.scan(lat.poset, laws.HALF_ADJOINT, join=lat.join, mult=mult.table,
                      imp=imp.table)
    if found[laws.MONOTONE_RIGHT]:
        raise PreconditionError("mult monotone in second argument", found[laws.MONOTONE_RIGHT])
    if found[laws.PRODUCT_BELOW]:
        raise PreconditionError("(a v b) * (a -> b) <= b", found[laws.PRODUCT_BELOW])
    return Verdict.of(found[laws.ADJOINT_BACKWARD])


class IdentityBasisReport(Record):
    """Four inequality checks plus the groupoid laws and their consequence."""

    __slots__ = ("subject", "conditions", "groupoid", "residuation")
    _hidden = ("subject",)
    _defaults = {"conditions": (), "groupoid": HOLDS, "residuation": None}

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
    found = cand.found
    conds = tuple((name, Verdict.of(found[law], name)) for name, law in laws.BASIS)
    axioms = _residuation_report(cand, found)
    groupoid = axioms.verdict("commutative-groupoid-with-unit")
    holds = groupoid and all(v for _, v in conds)
    return IdentityBasisReport(cand, conds, groupoid, axioms if holds else None)
