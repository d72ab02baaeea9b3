"""Residuation axioms, divisibility, and the derived-law suite."""

import itertools
import random

import pytest

from ordalg import (
    BinOp,
    NotVerifiedError,
    PreconditionError,
    ResiduationCandidate,
    as_lattice,
    check_divisibility,
    check_residuation,
    derived_laws,
    enumerate_structures,
    fixture,
    from_sectional,
    half_adjointness,
    identity_basis_check,
    laws,
    synthesize_sectional,
)
from ordalg import _kernels as kernels

AXIOMS = (
    "commutative-groupoid-with-unit",
    "mult-monotone",
    "adjointness-forward",
    "adjointness-backward",
)


def chain_candidate():
    fx = fixture("residuated-chain")
    return ResiduationCandidate(as_lattice(fx.poset), fx.mult, fx.imp)


def pentagon_candidate():
    fx = fixture("pentagon")
    return from_sectional(as_lattice(fx.poset), fx.star)


def meet_table(lat):
    return BinOp(lat.poset.n, tuple(tuple(row) for row in lat.meet))


def test_chain_passes_all_axioms():
    report = check_residuation(chain_candidate())
    assert report.passed
    assert tuple(name for name, _ in report.verdicts) == AXIOMS
    assert report.failed() == ()


def test_chain_divisible_with_own_mult_but_not_with_meet():
    cand = chain_candidate()
    assert check_divisibility(cand)
    replay = check_divisibility(
        ResiduationCandidate(cand.lattice, meet_table(cand.lattice), cand.imp))
    assert not replay
    p = cand.lattice.poset
    assert tuple(p.names[i] for i in replay.witness) == ("a", "0")
    # the displayed computation: (a v 0) ^ (a -> 0) = a ^ a = a, not 0
    a, zero = p.index("a"), p.index("0")
    lhs = cand.lattice.meet_of(
        cand.lattice.join_of(a, zero), cand.imp.value(a, zero)
    )
    assert lhs == a != zero


def test_pentagon_sectional_candidate_is_divisible_residuation():
    cand = pentagon_candidate()
    report = check_residuation(cand)
    assert report.passed
    assert check_divisibility(cand)


def test_mutant_imp_fails_backward_adjointness_with_least_witness():
    fx = fixture("residuated-chain")
    p = fx.poset
    rows = [list(r) for r in fx.imp.table]
    one, zero, a = p.index("1"), p.index("0"), p.index("a")
    rows[one][zero] = one
    cand = ResiduationCandidate(as_lattice(p), fx.mult, BinOp.from_rows(rows))
    report = check_residuation(cand)
    assert report.failed() == ("adjointness-backward",)
    v = report.verdict("adjointness-backward")
    assert tuple(p.names[i] for i in v.witness) == ("1", "0", "a")
    # the triple (1, 0, 1) violates the same axiom, just later in scan order
    lat = cand.lattice
    for c in (a, one):
        cb = lat.join_of(c, zero)
        rhs = p.leq(cb, cand.imp.value(one, zero))
        lhs = p.leq(cand.mult.value(lat.join_of(one, zero), cb), zero)
        assert rhs and not lhs


def test_broken_unit_detected():
    fx = fixture("residuated-chain")
    rows = [list(r) for r in fx.mult.table]
    rows[2][0] = rows[0][2] = 2
    cand = ResiduationCandidate(as_lattice(fx.poset), BinOp.from_rows(rows), fx.imp)
    report = check_residuation(cand)
    assert "commutative-groupoid-with-unit" in report.failed()


def test_noncommutative_mult_detected():
    fx = fixture("residuated-chain")
    rows = [list(r) for r in fx.mult.table]
    rows[0][1] = 1
    cand = ResiduationCandidate(as_lattice(fx.poset), BinOp.from_rows(rows), fx.imp)
    report = check_residuation(cand)
    assert "commutative-groupoid-with-unit" in report.failed()


def test_derived_laws_hold_on_both_fixtures():
    for cand in (chain_candidate(), pentagon_candidate()):
        report = check_residuation(cand)
        laws = derived_laws(cand, report)
        assert sorted(laws) == sorted(
            ["i", "ii", "iii", "iv", "v", "vi", "vii", "viii", "ix"]
        )
        assert all(laws.values())


def test_derived_laws_require_matching_passing_report():
    cand = chain_candidate()
    other = pentagon_candidate()
    other_report = check_residuation(other)
    with pytest.raises(NotVerifiedError):
        derived_laws(cand, other_report)
    with pytest.raises(NotVerifiedError):
        derived_laws(cand, None)


def test_half_adjointness_on_chain():
    cand = chain_candidate()
    assert half_adjointness(cand.lattice, cand.mult, cand.imp)


def test_half_adjointness_preconditions_reported():
    fx = fixture("residuated-chain")
    lat = as_lattice(fx.poset)
    rows = [list(r) for r in fx.mult.table]
    rows[2][0] = 2
    bad_mult = BinOp.from_rows(rows)
    with pytest.raises(PreconditionError) as exc:
        half_adjointness(lat, bad_mult, fx.imp)
    assert exc.value.hypothesis == "mult monotone in second argument"
    rows = [list(r) for r in fx.imp.table]
    rows[2][0] = 2
    with pytest.raises(PreconditionError) as exc:
        half_adjointness(lat, fx.mult, BinOp.from_rows(rows))
    assert "<= b" in exc.value.hypothesis


def test_half_adjointness_rejects_partial_and_foreign_tables():
    fx = fixture("residuated-chain")
    lat = as_lattice(fx.poset)
    partial = BinOp.from_rows([[0, None, 0], [0, 0, 1], [0, 1, 2]])
    with pytest.raises(ValueError, match="mult table must be total"):
        half_adjointness(lat, partial, fx.imp)
    with pytest.raises(ValueError, match="imp table carrier size 5 != 3"):
        half_adjointness(lat, fx.mult, fixture("pentagon").star)


def test_identity_basis_on_chain_cross_checks(monkeypatch):
    # the basis and the axioms share one law scan, and the attached
    # report is the one check_residuation gives
    cand = chain_candidate()
    calls = []
    scan = kernels.law_scan
    monkeypatch.setattr(kernels, "law_scan", lambda *args: calls.append(1) or scan(*args))
    report = identity_basis_check(cand)
    assert len(calls) == 1
    assert report.all_conditions_hold
    assert report.residuation is not None and report.residuation.passed
    assert report.residuation.subject is cand
    assert report.residuation.verdicts == check_residuation(cand).verdicts


def test_identity_basis_flags_mutant():
    fx = fixture("residuated-chain")
    rows = [list(r) for r in fx.imp.table]
    rows[2][0] = 2
    cand = ResiduationCandidate(as_lattice(fx.poset), fx.mult, BinOp.from_rows(rows))
    report = identity_basis_check(cand)
    assert not report.all_conditions_hold
    assert report.residuation is None


def test_currying_fails_on_a_residuation_with_non_associative_product():
    # On chain4 this product and implication pass every axiom and derived
    # law, and the basis holds, yet currying, the basis's identity i
    # before, fails: the axioms do not imply it.  The product is not
    # associative.
    lat = as_lattice(fixture("chain4").poset)
    mult = BinOp.from_rows([(0, 0, 0, 0), (0, 0, 1, 1), (0, 1, 1, 2), (0, 1, 2, 3)])
    imp = BinOp.from_rows([(3, 3, 3, 3), (1, 3, 3, 3), (0, 2, 3, 3), (0, 1, 2, 3)])
    cand = ResiduationCandidate(lat, mult, imp)
    axioms = check_residuation(cand)
    assert axioms.passed and all(derived_laws(cand, axioms).values())
    r = range(4)
    assert any(mult.value(mult.value(x, y), z) != mult.value(x, mult.value(y, z))
               for x in r for y in r for z in r)
    report = identity_basis_check(cand)
    assert report.all_conditions_hold and report.residuation.passed
    currying = laws.scan(lat.poset, laws.Suite((laws.CURRYING,)), join=lat.join,
                         mult=mult.table, imp=imp.table)[laws.CURRYING]
    assert tuple(lat.poset.names[i] for i in currying) == ("c2", "c0", "c2")


def test_basis_with_groupoid_laws_holds_exactly_when_the_axioms_do():
    # both directions: every commutative product with unit top on chain3,
    # each with a seeded sample of 1,000 implications, and the sectional
    # candidate of every lattice with n <= 8 that has one
    lat = as_lattice(fixture("chain3").poset)
    top = lat.top
    low = [x for x in range(3) if x != top]
    pairs = [(x, y) for x in low for y in low if x <= y]
    rng = random.Random(22)
    cands = []
    for cells in itertools.product(range(3), repeat=len(pairs)):
        rows = [[y if x == top else x if y == top else None for y in range(3)] for x in range(3)]
        for (x, y), cell in zip(pairs, cells):
            rows[x][y] = rows[y][x] = cell
        mult = BinOp.from_rows(rows)
        for code in rng.sample(range(3 ** 9), 1000):
            imp = BinOp.from_rows([[code // 3 ** (3 * x + y) % 3 for y in range(3)]
                                   for x in range(3)])
            cands.append(ResiduationCandidate(lat, mult, imp))
    assert len(cands) == 27_000
    sectional = 0
    for p in (p for n in range(1, 9) for p in enumerate_structures(n, "lattices").members):
        star = synthesize_sectional(as_lattice(p))
        if isinstance(star, BinOp):
            cands.append(from_sectional(as_lattice(p), star))
            sectional += 1
    assert sectional == 106
    outcomes = set()
    for cand in cands:
        report, axioms = identity_basis_check(cand), check_residuation(cand)
        assert report.all_conditions_hold == axioms.passed
        outcomes.add(axioms.passed)
    assert outcomes == {True, False}


def test_candidate_rejects_partial_tables():
    fx = fixture("residuated-chain")
    partial = BinOp.from_rows([[0, None, 0], [0, 0, 1], [0, 1, 2]])
    with pytest.raises(ValueError):
        ResiduationCandidate(as_lattice(fx.poset), partial, fx.imp)
