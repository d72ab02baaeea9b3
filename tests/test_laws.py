"""The law engine against the hand loops it replaced, kept in oracles.py.

Every verdict, witness and detail string must match, and so must the
hypothesis half_adjointness reports as failing.  Consequence suites are
also run past their gate, on a report with no verdicts, so that failing
inputs reach them.
"""

import hashlib
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
    OperatorPoset,
    PreconditionError,
    ResiduationCandidate,
    Verdict,
    as_lattice,
    canonical_operators,
    check_divisibility,
    check_operator_axioms,
    check_residuation,
    classify,
    derived_laws,
    enumerate_structures,
    fixture,
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
from ordalg import _kernels as kernels
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


def _basis_outcome(report):
    attached = None if report.residuation is None else report.residuation.verdicts
    return report.conditions, report.groupoid, attached


# the four checks on a candidate, derived_laws past its gate
FOUR_CHECKS = {
    "residuation": lambda cand: check_residuation(cand).verdicts,
    "divisibility": check_divisibility,
    "derived": lambda cand: list(derived_laws(cand, AxiomReport(subject=cand)).items()),
    "basis": lambda cand: _basis_outcome(identity_basis_check(cand)),
}


def _four_checks_by_loops(cand):
    axioms = o.residuation_by_loops(cand)
    conds, groupoid = o.identity_basis_by_loops(cand)
    holds = bool(groupoid) and all(v for _, v in conds)
    return {"residuation": axioms, "divisibility": o.divisibility_by_loops(cand),
            "derived": list(o.derived_laws_by_loops(cand).items()),
            "basis": (conds, groupoid, axioms if holds else None)}


@pytest.fixture
def law_scan_calls(monkeypatch):
    calls = []
    scan = kernels.law_scan
    monkeypatch.setattr(kernels, "law_scan", lambda *args: calls.append(1) or scan(*args))
    return calls


def _lattice_verdicts(p, lat):
    rep = classify(p, lat)
    return tuple(Verdict(getattr(rep, key), rep.witnesses.get(key, ()))
                 for key in ("is_modular", "is_distributive", "is_meet_semidistributive"))


# the two checks on a lattice that read its law scan
LATTICE_CHECKS = {
    "classify": _lattice_verdicts,
    "semi": lambda p, lat: is_meet_semidistributive(lat),
}


def test_lattice_checks_share_one_scan_in_any_order(law_scan_calls):
    # whichever check runs first on a fresh lattice scans the three lattice
    # laws, alone or with the other check, and each gives what it gives alone
    orders = (("classify",), ("semi",), ("classify", "semi"), ("semi", "classify", "semi"))
    for p in LATTICES:
        lat = as_lattice(p)
        semi = o.meet_semidistributive_by_triples(lat)
        want = {"classify": (o.modularity_by_triples(lat), o.distributivity_by_triples(lat), semi),
                "semi": semi}
        for order in orders:
            fresh = as_lattice(p)
            law_scan_calls.clear()
            got = {name: LATTICE_CHECKS[name](p, fresh) for name in order}
            assert got == {name: want[name] for name in order}, (p.up, order)
            assert len(law_scan_calls) == 1


def test_residuation_checks_share_one_scan_in_any_order(law_scan_calls):
    # whichever check runs first on a fresh candidate scans for all four,
    # and each then gives what it gives alone
    orders = (("basis", "residuation", "divisibility", "derived"),
              ("derived", "divisibility", "basis", "residuation"),
              ("divisibility", "derived", "residuation", "basis"))
    rng = random.Random(23)
    checked = 0
    for p in LATTICES:
        lat = as_lattice(p)
        star = synthesize_sectional(lat)
        if not isinstance(star, BinOp):
            continue
        cand = from_sectional(lat, star)
        for subject in (cand, _mutant(cand, rng), _mutant(cand, rng)):
            want = _four_checks_by_loops(subject)
            for order in orders:
                fresh = ResiduationCandidate(lat, subject.mult, subject.imp)
                law_scan_calls.clear()
                got = {name: FOUR_CHECKS[name](fresh) for name in order}
                assert got == want, (p.up, order)
                assert len(law_scan_calls) == 1
                checked += 1
    assert checked == 3 * 3 * 106


def test_operator_checks_share_one_scan_with_and_without_bottom(law_scan_calls):
    rng = random.Random(24)
    kinds = set()
    for p in _posets_with_top(5):
        star = star_table_poset(p)
        canonical = [canonical_operators(p, star)] if star.is_total else []
        for op in canonical + list(_broken_operators(p, rng)):
            fwd, bwd = o.operator_adjointness_by_loops(p, op.prod, op.resid)
            want = list(o.operator_laws_by_loops(op).items())
            law_scan_calls.clear()
            axioms = check_operator_axioms(op)
            assert axioms.verdicts[2:] == (("adjointness-forward", fwd),
                                           ("adjointness-backward", bwd))
            assert list(operator_derived_laws(op, AxiomReport(subject=op)).items()) == want
            assert len(law_scan_calls) == 1
            # the laws first, on a fresh operator poset
            again = OperatorPoset(op.poset, op.prod, op.resid)
            law_scan_calls.clear()
            assert list(operator_derived_laws(again, AxiomReport(subject=again)).items()) == want
            assert check_operator_axioms(again).verdicts == axioms.verdicts
            assert len(law_scan_calls) == 1
            kinds.add(p.bottom is None)
    assert kinds == {True, False}


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


# Law ix at a = bottom reads bottom * b = bottom <=> bottom <= b -> bottom,
# whose right side always holds: wherever law ix holds, bottom * x = bottom
# does too, so it needs no scan of its own
IX = dict(laws.DERIVED)["ix"]
BOTTOM_ABSORBS = laws.Law(laws.eq(laws.mult(laws.bottom, laws.a), laws.bottom))
IX_AND_BOTTOM_ABSORBS = laws.Suite((IX, BOTTOM_ABSORBS))


def _law_ix_holds(p, mult, imp):
    """Scan law ix with bottom * x = bottom; check the second against the
    loop and that it holds where the first does.  True where law ix holds."""
    found = laws.scan(p, IX_AND_BOTTOM_ABSORBS, mult=mult, imp=imp)
    assert found[BOTTOM_ABSORBS] == o.bottom_absorbs_by_loop(p, mult)
    if found[IX] is None:
        assert found[BOTTOM_ABSORBS] is None
    return found[IX] is None


def test_law_ix_gives_bottom_absorbs_on_every_small_lattice_and_table():
    # both laws compare a product only with bottom and read the implication
    # only in bottom's column: products range over bottom and top, that
    # column over every element, and the implication is top elsewhere
    holding = 0
    for n in (1, 2, 3):
        for p in enumerate_structures(n, "lattices").members:
            bot, top = p.bottom, p.top
            for cells in itertools.product(sorted({bot, top}), repeat=n * n):
                mult = tuple(cells[row * n:row * n + n] for row in range(n))
                for column in itertools.product(range(n), repeat=n):
                    imp = tuple(tuple(column[b] if x == bot else top for x in range(n))
                                for b in range(n))
                    holding += _law_ix_holds(p, mult, imp)
    # one chain3 table per implication column, and one for each of chain2
    # and the one-element lattice
    assert holding == 27 + 4 + 1


@st.composite
def law_ix_tables(draw):
    """A lattice of at most five elements with total product and implication
    tables; with ``fitted``, each product cell is moved to the side of
    bottom that law ix asks for, so that it holds."""
    n = draw(st.integers(1, 5))
    members = enumerate_structures(n, "lattices").members
    p = members[draw(st.integers(0, len(members) - 1))]
    cell = st.integers(0, n - 1)
    table = st.tuples(*[st.tuples(*[cell] * n)] * n)
    mult, imp = draw(table), draw(table)
    fitted = draw(st.booleans())
    if fitted:
        bot, top = p.bottom, p.top
        mult = tuple(
            tuple(bot if p.up[a] >> imp[b][bot] & 1 else (v if v != bot else top)
                  for b, v in enumerate(row))
            for a, row in enumerate(mult))
    return p, mult, imp, fitted


@given(law_ix_tables())
@settings(max_examples=200, deadline=None)
def test_law_ix_gives_bottom_absorbs_on_drawn_tables(drawn):
    p, mult, imp, fitted = drawn
    assert _law_ix_holds(p, mult, imp) or not fitted


def test_scan_reads_the_bottom_of_an_order_without_a_top():
    # the kernel finds top and bottom in the order itself: a law that
    # pushes only bottom runs where there is no top, and one that pushes
    # top raises ValueError
    p = make_poset(("0", "a", "b"), (("0", "a"), ("0", "b")))
    assert p.top is None and p.bottom == 0
    x = laws.a
    above, equal = laws.Law(laws.leq(laws.bottom, x)), laws.Law(laws.eq(x, laws.bottom))
    assert laws.scan(p, laws.Suite((above, equal))) == {above: None, equal: (1,)}
    with pytest.raises(ValueError, match="operand out of range"):
        laws.scan(p, laws.Suite((laws.Law(laws.leq(x, laws.top)),)))


def test_scan_rejects_table_names_it_does_not_know():
    # an extra table and a misspelled one a law reads are both named,
    # rather than ignored or left to the kernel as a missing operand
    lat = as_lattice(fixture("pentagon").poset)
    p = lat.poset
    with pytest.raises(ValueError, match="^unknown tables: mlt$"):
        laws.scan(p, laws.LATTICE, join=lat.join, meet=lat.meet, mlt=lat.meet)
    with pytest.raises(ValueError, match="^unknown tables: mete$"):
        laws.scan(p, laws.LATTICE, join=lat.join, mete=lat.meet)
    with pytest.raises(ValueError, match="^unknown tables: a, b$"):
        laws.scan(p, laws.LATTICE, join=lat.join, meet=lat.meet, b=(), a=())


def test_a_suite_answers_by_law_whatever_its_order():
    # an implication that is top everywhere fails several candidate laws at
    # different tuples; the suite in reverse order compiles to other
    # registers and gives the same dict
    lat = as_lattice(fixture("chain4").poset)
    cand = from_sectional(lat, synthesize_sectional(lat))
    imp = ((lat.top,) * 4,) * 4
    tables = {"join": lat.join, "mult": cand.mult.table, "imp": imp}
    reverse = laws.Suite(reversed(laws.CANDIDATE.laws))
    assert reverse.compiled != laws.CANDIDATE.compiled
    found = laws.scan(lat.poset, laws.CANDIDATE, **tables)
    assert list(found) == list(laws.CANDIDATE.laws)
    assert laws.scan(lat.poset, reverse, **tables) == found
    assert len({w for w in found.values() if w is not None}) >= 3


# The first 16 hex digits of sha256(repr(suite.compiled)) of each suite the
# library scans: a change to a law, or to the compiler, that moves a
# compiled suite changes its digest here
SUITE_DIGESTS = {
    "LATTICE": "6781436abfd0fa2d",
    "CANDIDATE": "dcd8fbc82f35a102",
    "HALF_ADJOINT": "6a9aa7588e107585",
    "OPERATOR": "f4848cbbfdefe11b",
    "OPERATOR_WITHOUT_BOTTOM": "3e2fde88284e4267",
}


def test_library_suites_compile_to_their_pinned_digests():
    # law_compile is shared Python, so this reads no kernel and holds on both twins
    suites = {name: value for name, value in vars(laws).items() if isinstance(value, laws.Suite)}
    assert suites.keys() == SUITE_DIGESTS.keys()
    for name, suite in suites.items():
        digest = hashlib.sha256(repr(suite.compiled).encode()).hexdigest()[:16]
        assert digest == SUITE_DIGESTS[name], name


def test_a_law_takes_its_arity_from_the_variables_it_reads():
    a, b, c = laws.a, laws.b, laws.c
    assert laws.Law(laws.eq(c, c)).arity == 3
    assert laws.Law(laws.eq(laws.mult(laws.top, a), a)).arity == 1
    # the guard's variables count too
    assert laws.Law(laws.eq(a, a), guard=laws.leq(a, b)).arity == 2
    # a law that reads no variable has arity 0, which no suite takes
    with pytest.raises(ValueError, match="law arity must lie in 1..4"):
        laws.Suite((laws.Law(laws.eq(laws.top, laws.top)),))


def test_holding_verdicts_are_one_shared_frozen_object():
    holds = Verdict.of(None)
    assert holds is Verdict.of(None, "ignored") and holds == Verdict(True)
    assert holds.witness == () and holds.detail == ""
    for field, value in (("holds", False), ("witness", (0,)), ("detail", "x")):
        with pytest.raises(AttributeError):
            setattr(holds, field, value)
    w = (1, 2)
    failing = Verdict.of(w, "d")
    assert (failing.holds, failing.witness, failing.detail) == (False, w, "d")
    assert not failing and failing is not Verdict.of(w, "d") and failing == Verdict.of(w, "d")
    # library checks hand out the shared object when a law holds
    lat = as_lattice(make_poset(("0", "a", "1"), (("0", "a"), ("a", "1"))))
    assert is_meet_semidistributive(lat) is holds


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
