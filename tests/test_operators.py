"""Subset-operator residuation on posets with a greatest element."""

import itertools
import random
from collections import Counter

import pytest

from ordalg import (
    AxiomReport,
    CanonicalProduct,
    CanonicalResidual,
    ExplicitProduct,
    ExplicitResidual,
    NoTopError,
    NotVerifiedError,
    OperatorPoset,
    OrdAlgError,
    PartialStarError,
    SubsetBudgetError,
    adjointness_solutions,
    canonical_operators,
    check_operator_axioms,
    direct_product,
    enumerate_structures,
    fixture,
    generated_family,
    lower_set,
    make_poset,
    operator_derived_laws,
    star_table_poset,
)

from oracles import adjointness_per_triple, subset_groupoid_loops

AXIOMS = (
    "subset-commutativity",
    "subset-unit",
    "adjointness-forward",
    "adjointness-backward",
)


def operators_for(name):
    fx = fixture(name)
    return canonical_operators(fx.poset, fx.star)


@pytest.mark.parametrize("name", ["pentagon", "bowtie"])
@pytest.mark.parametrize("exhaustive", [False, True])
def test_canonical_operators_pass(name, exhaustive):
    op = operators_for(name)
    report = check_operator_axioms(op, exhaustive_subsets=exhaustive)
    assert tuple(k for k, _ in report.verdicts) == AXIOMS
    assert report.passed


@pytest.mark.parametrize("name", ["pentagon", "bowtie"])
def test_derived_laws_i_to_v(name):
    op = operators_for(name)
    report = check_operator_axioms(op, exhaustive_subsets=True)
    laws = operator_derived_laws(op, report)
    assert sorted(laws) == ["i", "ii", "iii", "iv", "v"]
    assert all(laws.values())


def test_derived_laws_gate_on_verified_report():
    op = operators_for("pentagon")
    with pytest.raises(NotVerifiedError):
        operator_derived_laws(op, None)
    other = operators_for("bowtie")
    other_report = check_operator_axioms(other)
    with pytest.raises(NotVerifiedError):
        operator_derived_laws(op, other_report)


def test_a_failed_first_scan_caches_nothing():
    fx = fixture("pentagon")
    p = fx.poset
    for op, which in ((OperatorPoset(p, ExplicitProduct(p, {}), CanonicalResidual(p, fx.star)),
                       "product"),
                      (OperatorPoset(p, CanonicalProduct(p), ExplicitResidual(p, {})),
                       "residual")):
        for _ in range(2):
            with pytest.raises(OrdAlgError, match=f"^table-backed {which} queried outside"):
                check_operator_axioms(op)
            with pytest.raises(OrdAlgError, match=f"^table-backed {which} queried outside"):
                operator_derived_laws(op, AxiomReport(subject=op))
        assert "found" not in vars(op)


def test_generated_family_contents():
    p = fixture("bowtie").poset
    fam = generated_family(p)
    assert 0 in fam and p.full in fam
    a, b = p.index("a"), p.index("b")
    assert p.up[a] & p.up[b] in fam
    assert all(1 << i in fam for i in range(p.n))


def test_generated_family_is_every_cone_meet_with_singletons_empty_and_full():
    for n in range(1, 6):
        for p in enumerate_structures(n, "all-posets").members:
            fam = {0, p.full, *(1 << i for i in range(n))}
            fam |= {p.up[i] & p.up[j] for i in range(n) for j in range(n)}
            assert generated_family(p) == tuple(sorted(fam)), p.up


def test_broken_residual_fails_forward_adjointness():
    p = fixture("bowtie").poset
    bad = ExplicitResidual(
        p, {(x, y): p.down[y] for x in range(p.n) for y in range(p.n)}
    )
    op = OperatorPoset(p, canonical_operators(p, fixture("bowtie").star).prod, bad)
    report = check_operator_axioms(op)
    assert not report.passed
    assert "adjointness-forward" in report.failed()


def test_table_backed_operators_match_canonical_on_family():
    fx = fixture("pentagon")
    p = fx.poset
    canon = canonical_operators(p, fx.star)
    fam = generated_family(p)
    prod = ExplicitProduct(
        p, {(x, y): canon.prod.m(x, y) for x in fam for y in fam}
    )
    resid = ExplicitResidual(
        p, {(x, y): canon.resid.r(x, y) for x in range(p.n) for y in range(p.n)}
    )
    op = OperatorPoset(p, prod, resid)
    report = check_operator_axioms(op)
    assert report.passed


def test_partial_star_rejected():
    p = fixture("diamond").poset
    star = star_table_poset(p)
    with pytest.raises(PartialStarError):
        CanonicalResidual(p, star)


def test_partial_star_names_first_gap_in_topological_order():
    names = [f"e{i}" for i in range(6)]
    covers = [("e0", "e4"), ("e1", "e4"), ("e2", "e4"), ("e3", "e0"), ("e3", "e1"),
              ("e3", "e2"), ("e5", "e0")]
    p = make_poset(names, covers)
    with pytest.raises(PartialStarError, match=r"undefined at \(e5, e3\)"):
        canonical_operators(p, star_table_poset(p))


def test_star_table_of_another_carrier_rejected():
    pentagon, bowtie = fixture("pentagon"), fixture("bowtie")
    for p, star in ((pentagon.poset, bowtie.star), (bowtie.poset, pentagon.star)):
        with pytest.raises(ValueError, match=f"carrier size {star.n} != {p.n}"):
            canonical_operators(p, star)


def test_no_top_rejected():
    p = make_poset(("x", "y"), ())
    with pytest.raises(NoTopError):
        canonical_operators(p, star_table_poset(make_poset(("x",), ())))
    # direct construction skips canonical_operators' check
    with pytest.raises(NoTopError):
        OperatorPoset(p, CanonicalProduct(p), ExplicitResidual(p, {}))


def test_subset_budget_guard():
    # the full powerset admits twelve elements and no more
    chain12 = fixture("chain12").poset
    report = check_operator_axioms(canonical_operators(chain12, star_table_poset(chain12)),
                                   exhaustive_subsets=True)
    assert tuple(k for k, _ in report.verdicts) == AXIOMS
    assert report.passed
    for name, n in (("chain13", 13), ("bool4", 16)):
        p = fixture(name).poset
        op = canonical_operators(p, star_table_poset(p))
        with pytest.raises(SubsetBudgetError, match=f"at most 12 elements, carrier has {n}$"):
            check_operator_axioms(op, exhaustive_subsets=True)


def test_adjointness_solutions_match_star_on_fixtures():
    for name in ("pentagon", "bowtie"):
        p = fixture(name).poset
        star = star_table_poset(p)
        for a in range(p.n):
            for b in range(p.n):
                sols = adjointness_solutions(p, a, b)
                d = star.value(a, b)
                assert sols == ((d,) if d is not None else ())


def test_adjointness_solutions_refuse_elements_outside_the_carrier():
    p = fixture("pentagon").poset
    for a, b in ((7, 0), (0, 7), (5, 0), (-1, 0), (0, -1)):
        with pytest.raises(ValueError, match=rf"^pair \({a}, {b}\) outside the carrier "
                                             "of 5 elements$"):
            adjointness_solutions(p, a, b)


def test_adjointness_solutions_sweep_small_posets_with_top():
    for n in range(1, 5):
        for p in enumerate_structures(n, "posets-with-top").members:
            star = star_table_poset(p)
            for a in range(n):
                for b in range(n):
                    sols = adjointness_solutions(p, a, b)
                    d = star.value(a, b)
                    assert sols == ((d,) if d is not None else ())


def test_residual_masks_are_lower_cones():
    fx = fixture("bowtie")
    op = canonical_operators(fx.poset, fx.star)
    p = fx.poset
    for x in range(p.n):
        for y in range(p.n):
            mask = op.resid.r(x, y)
            assert mask == p.down[fx.star.value(x, y)]
            spread = 0
            for i in p.iter_mask(mask):
                spread |= p.down[i]
            assert spread == mask


def _posets_with_top(max_n):
    for n in range(1, max_n + 1):
        yield from enumerate_structures(n, "posets-with-top").members


def test_canonical_product_laws_hold_by_construction():
    # the per-pair loops check_operator_axioms skips for the canonical product
    for p in _posets_with_top(6):
        prod = CanonicalProduct(p)
        for subsets in (generated_family(p), range(1 << p.n)):
            commut, unit = subset_groupoid_loops(p, prod, subsets)
            assert commut and unit, p.up


def _wide_posets():
    # n = 16, 20 and 30: carriers too wide for a full powerset scan
    yield fixture("bool4").poset
    yield fixture("chain20").poset
    yield direct_product(fixture("bowtie").poset, fixture("pentagon").poset)


def test_canonical_product_is_lower_set_of_union():
    for p in _posets_with_top(5):
        prod = CanonicalProduct(p)
        for a_mask in range(1 << p.n):
            for b_mask in range(1 << p.n):
                assert prod.m(a_mask, b_mask) == lower_set(p, a_mask | b_mask), p.up
    for p in _wide_posets():
        prod = CanonicalProduct(p)
        fam = generated_family(p)
        for a_mask in fam:
            for b_mask in fam:
                assert prod.m(a_mask, b_mask) == lower_set(p, a_mask | b_mask), p.n


def _broken_operators(p, rng):
    fam = generated_family(p)
    canon = CanonicalProduct(p)
    cones = [ExplicitResidual(p, {(x, y): p.down[y] for x in range(p.n) for y in range(p.n)}),
             ExplicitResidual(p, {(x, y): p.full for x in range(p.n) for y in range(p.n)})]
    for resid in cones:
        yield OperatorPoset(p, canon, resid)
    for _ in range(3):
        prod = ExplicitProduct(p, {
            (x, y): canon.m(x, y) if rng.random() < 0.7 else rng.randrange(1 << p.n)
            for x in fam for y in fam
        })
        resid = ExplicitResidual(p, {
            (x, y): p.down[rng.randrange(p.n)] for x in range(p.n) for y in range(p.n)
        })
        yield OperatorPoset(p, prod, resid)
    star = star_table_poset(p)
    if star.is_total:
        # the canonical residual with one cell changed fails only at that
        # cell's (a, b), which may lie deep in the scan
        for _ in range(2):
            table = {(x, y): p.down[star.value(x, y)] for x in range(p.n) for y in range(p.n)}
            table[rng.randrange(p.n), rng.randrange(p.n)] = p.down[rng.randrange(p.n)]
            yield OperatorPoset(p, canon, ExplicitResidual(p, table))


def test_adjointness_witnesses_match_per_triple_oracle():
    rng = random.Random(7)
    failed = Counter()
    for p in itertools.chain(_posets_with_top(5), _wide_posets()):
        for op in _broken_operators(p, rng):
            report = check_operator_axioms(op)
            want = (subset_groupoid_loops(p, op.prod, generated_family(p))
                    + adjointness_per_triple(op))
            assert tuple(v for _, v in report.verdicts) == want, p.up
            failed.update(report.failed())
    assert failed["adjointness-forward"] and failed["adjointness-backward"], failed
