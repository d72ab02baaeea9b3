"""The law engine against the hand loops it replaced, kept in oracles.py.

Every verdict, witness and detail string must match, and so must the
hypothesis half_adjointness reports as failing.  Consequence suites are
also run past their gate, on a report with no verdicts, so that failing
inputs reach them.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles as o
from ordalg import (
    AxiomReport,
    BinOp,
    LatticeOps,
    PreconditionError,
    ResiduationCandidate,
    as_lattice,
    canonical_operators,
    check_divisibility,
    check_operator_axioms,
    check_residuation,
    classify,
    derived_laws,
    enumerate_structures,
    from_sectional,
    half_adjointness,
    identity_basis_check,
    is_meet_semidistributive,
    laws,
    make_poset,
    operator_derived_laws,
    star_table_poset,
    synthesize_sectional,
)
from test_operators import _broken_operators, _posets_with_top, _wide_posets

LATTICES = tuple(p for n in range(1, 9) for p in enumerate_structures(n, "lattices").members)


def _outcome(check, *args):
    try:
        return check(*args)
    except PreconditionError as exc:
        return exc.hypothesis, exc.witness


def assert_residuation_matches(cand):
    lat = cand.lattice
    assert check_residuation(cand).verdicts == o.residuation_by_loops(cand)
    meet = BinOp(lat.n, lat.meet)
    for replay in (cand, ResiduationCandidate(lat, meet, cand.imp)):
        assert check_divisibility(replay) == o.divisibility_by_loops(replay)
    got = derived_laws(cand, AxiomReport(subject=cand))
    assert list(got.items()) == list(o.derived_laws_by_loops(cand).items())
    basis = identity_basis_check(cand)
    assert (basis.conditions, basis.groupoid) == o.identity_basis_by_loops(cand)
    assert _outcome(half_adjointness, lat, cand.mult, cand.imp) == \
        _outcome(o.half_adjointness_by_loops, lat, cand.mult, cand.imp)


def _mutant(cand, rng):
    """The candidate with one random cell of mult or imp changed."""
    n = cand.lattice.n
    which = rng.choice(("mult", "imp"))
    rows = [list(row) for row in getattr(cand, which).table]
    rows[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
    ops = {"mult": cand.mult, "imp": cand.imp, which: BinOp.from_rows(rows)}
    return ResiduationCandidate(cand.lattice, ops["mult"], ops["imp"])


def test_lattice_laws_match_triple_loops():
    for p in LATTICES:
        lat = as_lattice(p)
        rep = classify(p, lat)
        for key, oracle in (("is_modular", o.modularity_by_triples),
                            ("is_distributive", o.distributivity_by_triples),
                            ("is_meet_semidistributive", o.meet_semidistributive_by_triples)):
            want = oracle(lat)
            assert getattr(rep, key) == want.holds, (p.up, key)
            assert rep.witnesses.get(key, ()) == want.witness, (p.up, key)
        assert is_meet_semidistributive(lat) == o.meet_semidistributive_by_triples(lat)


def test_lattice_tables_are_rejected_at_the_cells_the_loops_reject():
    rng = random.Random(19)
    rejected = 0
    for p in LATTICES:
        lat = as_lattice(p)
        for changed in (("join",), ("meet",), ("join", "meet")):
            tables = {"join": lat.join, "meet": lat.meet}
            for which in changed:
                rows = [list(row) for row in tables[which]]
                rows[rng.randrange(p.n)][rng.randrange(p.n)] = rng.randrange(p.n)
                tables[which] = tuple(map(tuple, rows))
            want = o.lattice_tables_by_loops(p, tables["join"], tables["meet"])
            try:
                LatticeOps(p, tables["join"], tables["meet"])
                got = None
            except ValueError as exc:
                got = str(exc)
            assert got == want, p.up
            rejected += want is not None
    assert rejected > 300


def test_residuation_laws_match_loops_on_synthesized_candidates_and_mutants():
    rng = random.Random(17)
    candidates = mutants = 0
    for p in LATTICES:
        lat = as_lattice(p)
        star = synthesize_sectional(lat)
        if not isinstance(star, BinOp):
            continue
        cand = from_sectional(lat, star)
        assert_residuation_matches(cand)
        candidates += 1
        for _ in range(2):
            assert_residuation_matches(_mutant(cand, rng))
            mutants += 1
    assert candidates > 100 and mutants == 2 * candidates


@st.composite
def random_candidates(draw):
    n = draw(st.integers(1, 6))
    members = enumerate_structures(n, "lattices").members
    lat = as_lattice(members[draw(st.integers(0, len(members) - 1))])
    cell = st.integers(0, n - 1)
    table = st.tuples(*[st.tuples(*[cell] * n)] * n)
    return ResiduationCandidate(lat, BinOp(n, draw(table)), BinOp(n, draw(table)))


@given(random_candidates())
@settings(max_examples=150, deadline=None)
def test_residuation_laws_match_loops_on_drawn_tables(cand):
    assert_residuation_matches(cand)


def test_scan_reads_the_bottom_of_an_order_without_a_top():
    # the kernel finds top and bottom in the order itself: a law that
    # pushes only bottom runs where there is no top, and one that pushes
    # top raises ValueError
    p = make_poset(("0", "a", "b"), (("0", "a"), ("0", "b")))
    assert p.top is None and p.bottom == 0
    x = laws.a
    assert laws.scan(p, [laws.Law(1, laws.leq(laws.bottom, x)),
                         laws.Law(1, laws.eq(x, laws.bottom))]) == [None, (1,)]
    with pytest.raises(ValueError, match="operand out of range"):
        laws.scan(p, [laws.Law(1, laws.leq(x, laws.top))])


def test_operator_laws_match_loops():
    rng = random.Random(7)
    broken = (op for p in itertools.chain(_posets_with_top(5), _wide_posets())
              for op in _broken_operators(p, rng))
    canonical = (canonical_operators(p, star) for p in _posets_with_top(7)
                 for star in (star_table_poset(p),) if star.is_total)
    checked = 0
    for op in itertools.chain(broken, canonical):
        p = op.poset
        verdicts = check_operator_axioms(op).verdicts
        fwd, bwd = o.operator_adjointness_by_loops(p, op.prod, op.resid)
        assert verdicts[2:] == (("adjointness-forward", fwd), ("adjointness-backward", bwd))
        got = operator_derived_laws(op, AxiomReport(subject=op))
        assert list(got.items()) == list(o.operator_laws_by_loops(op).items()), p.up
        checked += 1
    assert checked > 500
