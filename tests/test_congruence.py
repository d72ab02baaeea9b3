"""Congruence enumeration against the exhaustive-partition oracle."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordalg import (
    BudgetError,
    Congruence,
    FiniteAlgebra,
    MissingConstantError,
    all_congruences,
    check_congruence_distributive,
    check_permutable,
    check_weakly_regular,
    direct_product,
    enumerate_structures,
    fixture,
    make_poset,
    maltsev_replay,
    principal_congruence,
    star_table_poset,
    synthesize_sectional,
    as_lattice,
    BinOp,
)
from ordalg import _kernels as kernels
from ordalg import congruence

from oracles import (
    all_partitions,
    congruence_oracle,
    congruences_by_all_pairs,
    congruences_by_frontier,
    distributive_by_triples,
    join_by_closure,
    join_irreducibles,
    lattice_algebra,
    maltsev_by_con_pairs,
    permutable_by_relations,
    poset_from_edges,
    principal_congruence_sweep,
    product_congruences,
    weakly_regular_by_blocks,
)


def pentagon_lattice_algebra():
    return lattice_algebra(fixture("pentagon").poset)


def pentagon_star_algebra():
    fx = fixture("pentagon")
    return lattice_algebra(fx.poset, star=fx.star)


def chain_algebra():
    fx = fixture("residuated-chain")
    lat = as_lattice(fx.poset)
    return FiniteAlgebra.build(
        fx.poset,
        {
            "join": BinOp(3, tuple(tuple(r) for r in lat.join)),
            "meet": BinOp(3, tuple(tuple(r) for r in lat.meet)),
            "mult": fx.mult,
            "imp": fx.imp,
        },
        {"one": fx.poset.top},
    )


def named_blocks(p, cong):
    return tuple(tuple(p.names[i] for i in b) for b in cong.blocks())


def test_pentagon_pure_lattice_has_five_congruences():
    alg = pentagon_lattice_algebra()
    congs = all_congruences(alg)
    assert len(congs) == 5
    assert congs == congruence_oracle(alg)
    p = alg.poset
    shapes = {named_blocks(p, c) for c in congs}
    assert (("0", "b"), ("a", "c", "1")) in shapes
    assert (("0", "a", "c"), ("b", "1")) in shapes


def test_pentagon_star_algebra_has_three_congruences():
    alg = pentagon_star_algebra()
    congs = all_congruences(alg)
    assert len(congs) == 3
    assert congs == congruence_oracle(alg)
    p = alg.poset
    middles = [c for c in congs if 1 < c.num_blocks < p.n]
    assert [named_blocks(p, c) for c in middles] == [(("0", "b"), ("a", "c", "1"))]


def test_chain_algebra_has_two_congruences():
    alg = chain_algebra()
    congs = all_congruences(alg)
    assert len(congs) == 2
    assert congs == congruence_oracle(alg)


def test_principal_congruences():
    alg = pentagon_lattice_algebra()
    p = alg.poset
    theta = principal_congruence(alg, p.index("a"), p.index("c"))
    assert named_blocks(p, theta) == (("0",), ("a", "c"), ("b",), ("1",))
    star_alg = pentagon_star_algebra()
    theta = principal_congruence(star_alg, p.index("0"), p.index("b"))
    assert named_blocks(p, theta) == (("0", "b"), ("a", "c", "1"))


def test_principal_congruence_rejects_pairs_outside_carrier():
    alg = pentagon_lattice_algebra()
    for a, b in ((-1, 0), (0, 5), (5, 5), (0, -5)):
        with pytest.raises(ValueError, match="carrier of 5 elements"):
            principal_congruence(alg, a, b)


def test_principal_congruence_follows_both_arguments():
    # x*y = y+1 (mod 3) moves only with its right argument and x*y = x+1
    # only with its left one, so each relies on one side of the translates
    for table in (
        tuple(tuple((y + 1) % 3 for y in range(3)) for _ in range(3)),
        tuple(tuple((x + 1) % 3 for _ in range(3)) for x in range(3)),
    ):
        alg = FiniteAlgebra.build(poset_from_edges(3, ()), {"*": BinOp(3, table)})
        assert principal_congruence(alg, 0, 1) == Congruence.total(3)
        assert all_congruences(alg) == congruence_oracle(alg)


def small_lattice_algebras(max_n):
    """Join/meet algebra of every lattice up to max_n elements, and its
    algebra with the sectional table where that table is total."""
    for n in range(1, max_n + 1):
        for p in enumerate_structures(n, "lattices").members:
            yield lattice_algebra(p)
            star = synthesize_sectional(as_lattice(p))
            if isinstance(star, BinOp):
                yield lattice_algebra(p, star=star)


def test_worklist_matches_sweep_oracles_on_small_lattices():
    for alg in small_lattice_algebras(7):
        n = alg.n
        for a in range(n):
            for b in range(n):
                assert principal_congruence(alg, a, b) == principal_congruence_sweep(alg, a, b)
        congs = all_congruences(alg)
        assert congs == congruences_by_all_pairs(alg)
        got = check_congruence_distributive(alg, congs)
        want = distributive_by_triples(congs)
        assert (bool(got), got.witness) == (bool(want), want.witness)


@st.composite
def random_algebras(draw):
    n = draw(st.integers(1, 5))
    cell = st.integers(0, n - 1)
    row = st.tuples(*[cell] * n)
    tables = draw(st.lists(st.tuples(*[row] * n), min_size=1, max_size=2))
    ops = {f"t{k}": BinOp(n, t) for k, t in enumerate(tables)}
    return FiniteAlgebra.build(poset_from_edges(n, ()), ops)


@given(random_algebras())
@settings(max_examples=150, deadline=None)
def test_worklist_matches_oracles_on_random_algebras(alg):
    n = alg.n
    for a in range(n):
        for b in range(a + 1, n):
            assert principal_congruence(alg, a, b) == principal_congruence_sweep(alg, a, b)
    assert all_congruences(alg) == congruence_oracle(alg)


def projection_algebra(n):
    """x*y = x on n points: every partition is a congruence."""
    table = tuple(tuple(x for _ in range(n)) for x in range(n))
    return FiniteAlgebra.build(poset_from_edges(n, ()), {"*": BinOp(n, table)})


def test_projection_algebra_fails_distributivity_with_first_triple():
    # the partition lattice on three or more points is not distributive
    for n in range(3, 6):
        alg = projection_algebra(n)
        congs = all_congruences(alg)
        assert congs == sorted(all_partitions(n), key=lambda c: (c.num_blocks, c.labels))
        got = check_congruence_distributive(alg, congs)
        want = distributive_by_triples(congs)
        assert not got
        assert got.witness == want.witness


def _leq(p, q):
    # every block of p lies within a block of q
    return all(q.relates(i, p.labels[i]) for i in range(p.n))


def _composes(theta, phi, x, z):
    # x (theta;phi) z: some y has x theta y and y phi z
    return any(theta.relates(x, y) and phi.relates(y, z) for y in range(theta.n))


def assert_witnesses_hold(alg, perm, dist, regular):
    """Each failing verdict's witness shows what it claims."""
    if not perm:
        theta, phi, (x, z) = perm.witness
        assert theta.is_compatible(alg) and phi.is_compatible(alg)
        assert _composes(theta, phi, x, z) and not _composes(phi, theta, x, z)
    if not dist:
        j, b, c = dist.witness
        assert all(x.is_compatible(alg) for x in (j, b, c))
        assert _leq(j, b.join(c)) and not _leq(j, b) and not _leq(j, c)
        assert j.meet(b.join(c)) != j.meet(b).join(j.meet(c))
    if regular is not None and not regular and regular.detail == "same block of one":
        theta, phi = regular.witness
        one = alg.constant("one")
        assert theta.is_compatible(alg) and phi.is_compatible(alg)
        assert theta != phi and theta.block_of(one) == phi.block_of(one)


def three_verdicts(alg, congs=None):
    try:
        regular = check_weakly_regular(alg, congs)
    except MissingConstantError:
        regular = None
    return (check_permutable(alg, congs), check_congruence_distributive(alg, congs), regular)


def assert_default_path_matches(alg, oracle_congs):
    """Default-path verdicts equal the list path's and the oracles' on oracle_congs."""
    got = three_verdicts(alg)
    listed = three_verdicts(alg, all_congruences(alg))
    assert [v if v is None else bool(v) for v in got] == \
        [v if v is None else bool(v) for v in listed]
    assert bool(got[0]) == permutable_by_relations(oracle_congs)
    assert bool(got[1]) == bool(distributive_by_triples(oracle_congs))
    if got[2] is not None:
        # the term condition is the same Python loop on both paths
        assert got[2].detail == listed[2].detail
        blocks_ok = bool(got[2]) or got[2].detail != "same block of one"
        assert blocks_ok == weakly_regular_by_blocks(oracle_congs, alg.constant("one"))
    assert_witnesses_hold(alg, *got)
    return got


def test_default_path_matches_list_path_and_oracles_on_small_lattices():
    failures = [0, 0]
    for alg in small_lattice_algebras(7):
        got = assert_default_path_matches(alg, congruences_by_all_pairs(alg))
        failures[0] += not got[0]
        failures[1] += not got[2]
    # lattices are congruence distributive; the other two fail often
    assert min(failures) > 10


@st.composite
def pointed_algebras(draw):
    """random_algebras, or a projection with some cells changed, with a constant one."""
    alg = draw(st.one_of(random_algebras(), near_projection_algebras()))
    one = draw(st.integers(0, alg.n - 1))
    return FiniteAlgebra.build(alg.poset, alg.ops, {"one": one})


@st.composite
def near_projection_algebras(draw):
    n = draw(st.integers(2, 5))
    rows = [[x] * n for x in range(n)]
    for x, y, v in draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * 3), max_size=3)):
        rows[x][y] = v
    return FiniteAlgebra.build(poset_from_edges(n, ()), {"*": BinOp.from_rows(rows)})


@given(st.one_of(random_algebras(), pointed_algebras()))
@settings(max_examples=200, deadline=None)
def test_default_path_matches_list_path_and_oracles_on_random_algebras(alg):
    assert_default_path_matches(alg, congruence_oracle(alg))


def test_default_path_matches_on_projection_algebras():
    for n in range(3, 6):
        base = projection_algebra(n)
        alg = FiniteAlgebra.build(base.poset, base.ops, {"one": 0})
        got = assert_default_path_matches(alg, all_partitions(n))
        assert not any(got)


def test_default_path_witnesses():
    # the first failing triple, pair or principal, in index order
    chain = lattice_algebra(fixture("chain4").poset)
    perm, _, regular = three_verdicts(chain)
    assert perm.witness == (Congruence((0, 0, 2, 3)), Congruence((0, 1, 1, 3)), (0, 2))
    assert regular.witness == (Congruence((0, 1, 2, 3)), Congruence((0, 0, 2, 3)))
    _, dist, _ = three_verdicts(projection_algebra(3))
    assert dist.witness == (Congruence((0, 0, 2)), Congruence((0, 1, 0)),
                            Congruence((0, 1, 1)))


def test_default_path_answers_wide_chains_and_cubes_without_listing_con(monkeypatch):
    # chain16 has 2^15 congruences; listing them would take Congruence.join
    def no_listing(*args):
        raise AssertionError("the default path listed Con")

    algs = [lattice_algebra(fixture(name).poset) for name in ("chain16", "bool4")]
    with monkeypatch.context() as patched:
        patched.setattr(Congruence, "join", no_listing)
        verdicts = [three_verdicts(alg) for alg in algs]
    assert [tuple(map(bool, v)) for v in verdicts] == [(False, True, False), (True, True, True)]
    for alg, got in zip(algs, verdicts):
        assert_witnesses_hold(alg, *got)


def test_distributivity_accepts_lists_not_closed_under_join_and_meet():
    # three atoms of the partition lattice on three points: their joins
    # are the total partition and their meets the diagonal, neither listed
    alg = projection_algebra(3)
    atoms = [c for c in all_partitions(3) if c.num_blocks == 2]
    got = check_congruence_distributive(alg, atoms)
    want = distributive_by_triples(atoms)
    assert not got and got.witness == want.witness
    for congs in (atoms[:1], atoms[:2], atoms[::-1], atoms + atoms):
        got = check_congruence_distributive(alg, congs)
        want = distributive_by_triples(congs)
        assert (bool(got), got.witness) == (bool(want), want.witness)


def test_distributivity_computes_each_join_and_meet_once(monkeypatch):
    alg = lattice_algebra(fixture("chain6").poset)
    congs = all_congruences(alg)
    assert len(congs) == 32
    calls = []
    for name in ("join", "meet"):
        method = getattr(Congruence, name)

        def counted(self, other, method=method):
            calls.append(1)
            return method(self, other)

        monkeypatch.setattr(Congruence, name, counted)
    assert check_congruence_distributive(alg, congs)
    assert 0 < len(calls) <= 2 * 32 ** 2


def test_star_algebra_arithmetical_and_weakly_regular():
    alg = pentagon_star_algebra()
    assert check_permutable(alg)
    assert check_congruence_distributive(alg)
    assert check_weakly_regular(alg)
    assert maltsev_replay(alg) == []


def test_chain_algebra_arithmetical_and_weakly_regular():
    alg = chain_algebra()
    assert check_permutable(alg)
    assert check_congruence_distributive(alg)
    assert check_weakly_regular(alg)
    assert maltsev_replay(alg) == []


def test_pure_lattice_fails_weak_regularity_with_shared_kernel():
    alg = pentagon_lattice_algebra()
    verdict = check_weakly_regular(alg)
    assert not verdict
    theta, phi = verdict.witness
    one = alg.constant("one")
    assert theta != phi
    assert theta.block_of(one) == phi.block_of(one) == (one,)


def test_weak_regularity_needs_the_constant():
    p = fixture("pentagon").poset
    alg = lattice_algebra(p, constants={})
    with pytest.raises(MissingConstantError):
        check_weakly_regular(alg)


def test_oracle_agreement_all_small_lattices():
    for alg in small_lattice_algebras(6):
        assert all_congruences(alg) == congruence_oracle(alg) == congruences_by_frontier(alg, 64)


def product_2x4x8():
    chain = [fixture(f"chain{k}").poset for k in (2, 4, 8)]
    return direct_product(chain[0], direct_product(chain[1], chain[2]))


def counting_joins(monkeypatch):
    """Patch Congruence.join to record the argument of every call."""
    join = Congruence.join
    others = []
    monkeypatch.setattr(Congruence, "join",
                        lambda self, other: others.append(other) or join(self, other))
    return others


def test_rounds_are_the_join_irreducibles_of_con(monkeypatch):
    # a principal that is a join of finer ones is found before its turn
    # comes and skipped, so the principals joined with are exactly the
    # join-irreducibles of Con
    others = counting_joins(monkeypatch)
    for alg in [*small_lattice_algebras(7), lattice_algebra(product_2x4x8())]:
        del others[:]
        congs = all_congruences(alg)
        assert set(others) == set(join_irreducibles(congs))


def test_2x4x8_lists_con_in_one_join_per_congruence(monkeypatch):
    # Con(2x4x8) is Boolean with 11 atoms, which are its join-irreducibles,
    # so the rounds make 1 + 2 + ... + 1024 joins; a round for each of the
    # 405 distinct principals made 350,796
    others = counting_joins(monkeypatch)
    congs = all_congruences(lattice_algebra(product_2x4x8()))
    assert len(others) == 2047
    monkeypatch.undo()
    # the frontier oracle takes about a minute on the 64-element product,
    # so it lists each chain's Con and the product is formed from those
    two, four, eight = (congruences_by_frontier(lattice_algebra(fixture(f"chain{k}").poset), 128)
                        for k in (2, 4, 8))
    want = product_congruences(two, product_congruences(four, eight))
    assert congs == sorted(want, key=lambda c: (c.num_blocks, c.labels))


def test_budget_counts_congruences():
    # chain8 has 2^7 congruences and bool3 2^3: a budget of |Con| lists
    # them and |Con| - 1 stops, in the one pass over the principals as in
    # the round-by-round frontier loop it replaced.  A one-element algebra
    # has no principal congruence, so no round runs, yet its diagonal counts
    for poset, size in ((fixture("chain8").poset, 128), (fixture("bool3").poset, 8),
                        (make_poset(["a"], []), 1)):
        alg = lattice_algebra(poset)
        for listing in (all_congruences, congruences_by_frontier):
            congs = listing(alg, budget=size)
            assert len(congs) == size and congs == congruence_oracle(alg)
            with pytest.raises(BudgetError, match=f"more than {size - 1} congruences"):
                listing(alg, budget=size - 1)
        # a negative budget is a ValueError, not a BudgetError
        with pytest.raises(ValueError, match="budget -1 is negative"):
            all_congruences(alg, budget=-1)


def test_build_rejects_partial_ops_and_outside_constants():
    p = make_poset(["a", "b"], [("a", "b")])
    with pytest.raises(ValueError, match="op '\\*' must be a total table"):
        FiniteAlgebra.build(p, {"*": BinOp(2, ((0, None), (1, 1)))})
    with pytest.raises(ValueError, match="constant 'one' outside the carrier"):
        FiniteAlgebra.build(p, {"*": BinOp(2, ((0, 1), (1, 1)))}, {"one": 2})


def test_carrier_budget():
    alg = lattice_algebra(fixture("chain20").poset)
    with pytest.raises(BudgetError):
        all_congruences(alg)
    # raising the budget works; with star a 17-chain has exactly 17
    # congruences, one per collapsed principal filter
    fx = fixture("chain17")
    star = synthesize_sectional(as_lattice(fx.poset))
    congs = all_congruences(lattice_algebra(fx.poset, star=star), budget=17)
    assert len(congs) == 17


def test_partition_count_at_five():
    assert len(all_partitions(5)) == 52


def test_congruence_block_operations():
    c = Congruence.from_blocks(5, [(0, 2), (1,), (3, 4)])
    assert c.relates(0, 2) and not c.relates(0, 1)
    assert c.block_of(4) == (3, 4)
    assert c.num_blocks == 3
    d = Congruence.diagonal(5)
    assert c.meet(d) == d
    assert c.join(d) == c
    assert c.join(Congruence.total(5)) == Congruence.total(5)


def test_from_blocks_merges_overlapping_blocks_within_the_carrier():
    assert Congruence.from_blocks(3, [(0, 1), (1, 2)]) == Congruence.total(3)
    assert Congruence.from_blocks(5, [(3, 4), (2, 0), (4, 1)]).labels == (0, 1, 0, 1, 1)
    for block in ((0, 3), (-1, 0)):
        with pytest.raises(ValueError, match="leaves the carrier of 3 elements"):
            Congruence.from_blocks(3, [block])


def test_compatibility_rejects_an_algebra_on_another_carrier():
    with pytest.raises(ValueError, match="carriers of 3 and 5 elements"):
        Congruence.diagonal(3).is_compatible(pentagon_lattice_algebra())


def test_maltsev_replay_names_both_implications_when_neither_is_there():
    with pytest.raises(KeyError, match=r"neither an 'imp' nor a '\*' op"):
        maltsev_replay(pentagon_lattice_algebra())


def implication_algebras(p, table):
    """(meet, imp) and (join, meet, *) on a lattice, one table in both roles."""
    lat = as_lattice(p)
    join, meet = BinOp(p.n, lat.join), BinOp(p.n, lat.meet)
    one = {"one": p.top}
    return (FiniteAlgebra.build(p, {"meet": meet, "imp": table}, one),
            FiniteAlgebra.build(p, {"join": join, "meet": meet, "*": table}, one))


def deviations(entries):
    """The (a, b, c, side) of each replay entry, as a set."""
    return {entry[2:5] + entry[6:] for entry in entries}


def assert_principal_entries(alg, entries):
    """One entry per (a, b, c, side), with Θ(a, b) and Θ(b, c), the
    diagonal for an equal pair."""
    assert len(deviations(entries)) == len(entries)
    for theta, phi, a, b, c, _, _ in entries:
        assert theta == principal_congruence(alg, a, b)
        assert phi == principal_congruence(alg, b, c)


def test_maltsev_replay_matches_con_pair_oracle_on_small_lattices():
    # the star table where it is total, and six random tables per lattice
    rng = random.Random(1505)
    checked = failing = 0
    for n in range(1, 7):
        for p in enumerate_structures(n, "lattices").members:
            star = star_table_poset(p)
            tables = [star] if star.is_total else []
            tables += [BinOp(n, tuple(tuple(rng.randrange(n) for _ in range(n))
                                      for _ in range(n))) for _ in range(6)]
            for table in tables:
                for alg in implication_algebras(p, table):
                    got = maltsev_replay(alg)
                    want = maltsev_by_con_pairs(alg, congruence_oracle(alg))
                    assert deviations(got) == deviations(want)
                    assert_principal_entries(alg, got)
                    checked += 1
                    failing += bool(got)
    assert checked > 300 and 200 < failing < checked


def projection_chain_algebra(k):
    """Meet and the projection x -> y = x on a k-chain: Con has 2^(k-1) members."""
    p = fixture(f"chain{k}").poset
    proj = BinOp(k, tuple((x,) * k for x in range(k)))
    return implication_algebras(p, proj)[0]


def test_maltsev_replay_lists_no_congruences(monkeypatch):
    def no_listing(*args, **kwargs):
        raise AssertionError("maltsev_replay listed Con")

    small = projection_chain_algebra(6)
    want = maltsev_by_con_pairs(small, congruence_oracle(small))
    cases = [small, projection_chain_algebra(10), projection_chain_algebra(14),
             pentagon_star_algebra(), chain_algebra()]
    if kernels.BACKEND == "c":
        # the pure congruence_scan alone takes seconds at 64 elements
        for name in ("bool6", "chain64"):
            p = fixture(name).poset
            cases.append(lattice_algebra(p, star=star_table_poset(p)))
    with monkeypatch.context() as patched:
        patched.setattr(congruence, "all_congruences", no_listing)
        patched.setattr(Congruence, "join", no_listing)
        got = [maltsev_replay(alg) for alg in cases]
    assert deviations(got[0]) == deviations(want)
    assert [len(entries) for entries in got[1:5]] == [570, 1638, 0, 0]
    assert all(entries == [] for entries in got[5:])
    for alg, entries in zip(cases[:3], got):
        assert_principal_entries(alg, entries)


def test_join_and_meet_reject_other_carriers():
    small = Congruence.from_blocks(3, [(0, 1)])
    big = Congruence.diagonal(5)
    for x, y in ((small, big), (big, small)):
        with pytest.raises(ValueError, match="carriers of"):
            x.join(y)
        with pytest.raises(ValueError, match="carriers of"):
            x.meet(y)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_partition_lattice_laws(data):
    n = data.draw(st.integers(2, 6))
    parts = all_partitions(n)
    x = data.draw(st.sampled_from(parts))
    y = data.draw(st.sampled_from(parts))
    assert x.meet(x) == x and x.join(x) == x
    assert x.meet(y) == y.meet(x)
    assert x.join(y) == y.join(x)
    assert x.join(x.meet(y)) == x
    assert x.meet(x.join(y)) == x
    # meet is the coarsest common refinement, join the finest common coarsening
    m, j = x.meet(y), x.join(y)
    assert j == join_by_closure(x, y)
    for a in range(n):
        for b in range(n):
            assert m.relates(a, b) == (x.relates(a, b) and y.relates(a, b))
            if x.relates(a, b) or y.relates(a, b):
                assert j.relates(a, b)
