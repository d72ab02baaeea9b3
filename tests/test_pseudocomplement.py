"""Sectional and relative pseudocomplements, both lattice and order routes."""

import random

import pytest
from hypothesis import given, settings

from ordalg import (
    BinOp,
    FailureWitness,
    LatticeOps,
    NotALattice,
    Poset,
    as_lattice,
    classify,
    direct_product,
    enumerate_structures,
    fixture,
    is_meet_semidistributive,
    lower_set,
    relative_pc,
    relative_pc_poset,
    relative_table_poset,
    sectional_pc_lattice,
    sectional_pc_poset,
    star_table_poset,
    synthesize_sectional,
    upper_set,
)
from ordalg import _kernels as kernels
from ordalg._kernels import _core_py
from ordalg.pseudocomplement import _star_table

from oracles import (
    relabeled,
    relative_pc_per_x,
    sectional_pc_by_cones,
    synthesize_by_join_formula,
)
from test_poset import random_posets


def test_pentagon_star_three_routes_match_frozen():
    fx = fixture("pentagon")
    lat = as_lattice(fx.poset)
    assert synthesize_sectional(lat).table == fx.star.table
    assert star_table_poset(fx.poset).table == fx.star.table
    for a in range(5):
        for b in range(5):
            assert sectional_pc_poset(fx.poset, a, b) == fx.star.table[a][b]
            assert sectional_pc_lattice(lat, a, b) == fx.star.table[a][b]


def test_pentagon_relative_gap_is_exactly_c_a():
    fx = fixture("pentagon")
    p = fx.poset
    lat = as_lattice(p)
    c, a = p.index("c"), p.index("a")
    assert relative_pc(lat, c, a) is None
    assert relative_pc_poset(p, c, a) is None
    assert relative_table_poset(p).undefined_cells() == ((c, a),)


def test_poset_route_cells_refuse_elements_outside_the_carrier():
    p = fixture("pentagon").poset
    for cell in (sectional_pc_poset, relative_pc_poset):
        for a, b in ((7, 1), (1, 7), (5, 0), (-1, 1), (1, -1)):
            with pytest.raises(ValueError, match=rf"^pair \({a}, {b}\) outside the carrier "
                                                 "of 5 elements$"):
                cell(p, a, b)


def test_lattice_route_cells_refuse_elements_outside_the_carrier():
    # a negative index would read the last element's row, and 7 past the rows
    p = fixture("pentagon").poset
    lat = as_lattice(p)
    for cell in (sectional_pc_lattice, relative_pc):
        for a, b in ((7, 1), (1, 7), (5, 0), (-1, 1), (1, -1)):
            with pytest.raises(ValueError, match=rf"^pair \({a}, {b}\) outside the carrier "
                                                 "of 5 elements$"):
                cell(lat, a, b)


def test_bowtie_star_matches_frozen_and_relative_total():
    fx = fixture("bowtie")
    assert star_table_poset(fx.poset).table == fx.star.table
    rel = relative_table_poset(fx.poset)
    assert rel.is_total
    for a in range(6):
        for b in range(6):
            assert sectional_pc_poset(fx.poset, a, b) == fx.star.table[a][b]


def test_relative_pc_greatest_property_bowtie():
    p = fixture("bowtie").poset
    rel = relative_table_poset(p)
    for a in range(p.n):
        la = p.down[a]
        for b in range(p.n):
            d = rel.value(a, b)
            lb = p.down[b]
            good = [x for x in range(p.n) if la & p.down[x] & ~lb == 0]
            assert d in good
            assert all(p.leq(x, d) for x in good)


def test_diamond_not_meet_semidistributive():
    p = fixture("diamond").poset
    lat = as_lattice(p)
    v = is_meet_semidistributive(lat)
    assert not v
    a, b, c = v.witness
    assert lat.meet_of(a, b) == lat.meet_of(a, c)
    assert lat.meet_of(a, lat.join_of(b, c)) != lat.meet_of(a, b)
    fw = synthesize_sectional(lat)
    assert isinstance(fw, FailureWitness)
    pa, pb = fw.pair
    assert lat.meet_of(lat.join_of(pa, pb), fw.candidate) == fw.meet_value != pb


def test_star_equals_relative_of_join_when_relatively_pc():
    for name in ("bool3", "chain5"):
        p = fixture(name).poset
        lat = as_lattice(p)
        star = synthesize_sectional(lat)
        assert isinstance(star, BinOp)
        for a in range(p.n):
            for b in range(p.n):
                assert star.value(a, b) == relative_pc(lat, lat.join_of(a, b), b)


def test_semidistributive_iff_total_star():
    for n in range(2, 7):
        for p in enumerate_structures(n, "lattices").members:
            lat = as_lattice(p)
            synth = synthesize_sectional(lat)
            assert isinstance(synth, BinOp) == bool(is_meet_semidistributive(lat))


def test_lattice_and_poset_routes_agree_on_all_small_lattices():
    for n in range(1, 6):
        for p in enumerate_structures(n, "lattices").members:
            lat = as_lattice(p)
            table = star_table_poset(p)
            for a in range(n):
                for b in range(n):
                    assert table.value(a, b) == sectional_pc_lattice(lat, a, b)


def test_synthesis_cells_are_greatest_solutions():
    for n in range(2, 6):
        for p in enumerate_structures(n, "lattices").members:
            lat = as_lattice(p)
            synth = synthesize_sectional(lat)
            for a in range(n):
                for b in range(n):
                    ab = lat.join_of(a, b)
                    good = [x for x in range(n) if lat.meet_of(ab, x) == b]
                    if isinstance(synth, BinOp):
                        d = synth.value(a, b)
                        assert d in good and all(p.leq(x, d) for x in good)
                    else:
                        # at the failure pair there is no greatest solution
                        if (a, b) == synth.pair:
                            assert not any(
                                all(p.leq(x, d) for x in good) for d in good
                            )


def test_classify_pentagon():
    rep = classify(fixture("pentagon").poset)
    assert rep.is_lattice and rep.has_top and rep.has_bottom
    assert rep.is_modular is False
    assert rep.is_distributive is False
    assert rep.is_meet_semidistributive is True
    assert rep.is_sectionally_pc and not rep.is_relatively_pc
    assert "is_modular" in rep.witnesses


def test_classify_diamond():
    rep = classify(fixture("diamond").poset)
    assert rep.is_modular is True
    assert rep.is_distributive is False
    assert rep.is_meet_semidistributive is False
    assert not rep.is_sectionally_pc and not rep.is_relatively_pc


def test_classify_bool3_distributive():
    rep = classify(fixture("bool3").poset)
    assert rep.is_modular and rep.is_distributive and rep.is_meet_semidistributive
    assert rep.is_sectionally_pc and rep.is_relatively_pc


def test_classify_bowtie():
    rep = classify(fixture("bowtie").poset)
    assert not rep.is_lattice
    assert rep.is_modular is None
    assert rep.is_sectionally_pc and rep.is_relatively_pc
    kind, a, b, frontier = rep.witnesses["is_lattice"]
    assert kind == "join" and len(frontier) == 2


def test_classify_rejects_a_lattice_over_another_poset():
    # the diamond's lattice would answer the pentagon's lattice laws; an
    # equal poset built apart is the same order and is accepted
    pentagon = fixture("pentagon").poset
    with pytest.raises(ValueError, match="another poset"):
        classify(pentagon, as_lattice(fixture("diamond").poset))
    twin = Poset(pentagon.names, pentagon.up)
    assert twin is not pentagon
    assert classify(pentagon, as_lattice(twin)) == classify(pentagon)


def test_classify_rejects_a_non_lattice_witness_of_another_poset():
    # as_lattice's witness keeps its poset, so the bowtie's join failure is
    # not reported as the pentagon's; a witness built by hand names no
    # poset and is taken as p's
    pentagon, bowtie = fixture("pentagon").poset, fixture("bowtie").poset
    witness = as_lattice(bowtie)
    with pytest.raises(ValueError, match="another poset"):
        classify(pentagon, witness)
    assert classify(bowtie, witness) == classify(bowtie)
    by_hand = NotALattice(witness.kind, witness.pair, witness.frontier)
    assert by_hand == witness and by_hand.poset is None and witness.poset is bowtie
    assert classify(bowtie, by_hand) == classify(bowtie)


def test_classify_and_the_checks_after_it_build_the_star_table_once(monkeypatch):
    # star_table_poset keeps the last poset's table, so the checks that
    # follow classify on an equal poset reuse it, and a new poset replaces it
    calls = []
    build = kernels.poset_star_table
    monkeypatch.setattr(kernels, "poset_star_table", lambda *args: calls.append(1) or build(*args))
    pentagon, bowtie = fixture("pentagon").poset, fixture("bowtie").poset
    _star_table.cache_clear()
    classify(pentagon)
    assert star_table_poset(pentagon).table == fixture("pentagon").star.table
    assert len(calls) == 1
    _star_table.cache_clear()
    lat = as_lattice(pentagon)
    classify(pentagon, lat)
    assert synthesize_sectional(lat) is star_table_poset(fixture("pentagon").poset)
    assert len(calls) == 2
    star_table_poset(bowtie)
    star_table_poset(pentagon)
    assert len(calls) == 4


@given(random_posets(max_n=6))
@settings(max_examples=80, deadline=None)
def test_star_cells_satisfy_defining_biconditional(p):
    table = star_table_poset(p)
    n = p.n
    for a in range(n):
        for b in range(n):
            assert table.value(a, b) == sectional_pc_poset(p, a, b)
            d = table.value(a, b)
            if d is None:
                continue
            lu_ab = lower_set(p, upper_set(p, (1 << a) | (1 << b)))
            lb = p.down[b]
            for c in range(n):
                lu_cb = lower_set(p, upper_set(p, (1 << c) | (1 << b)))
                reduces = lu_ab & lu_cb == lb
                member = bool(upper_set(p, (1 << c) | (1 << b)) >> d & 1)
                assert reduces == member


@given(random_posets(max_n=6))
@settings(max_examples=60, deadline=None)
def test_relative_cells_are_greatest(p):
    n = p.n
    for a in range(n):
        for b in range(n):
            d = relative_pc_poset(p, a, b)
            good = [x for x in range(n) if p.down[a] & p.down[x] & ~p.down[b] == 0]
            if d is None:
                assert not any(all(p.leq(x, t) for x in good) for t in good)
            else:
                assert d in good and all(p.leq(x, d) for x in good)


def _relative_cases():
    for n in range(1, 9):
        yield from enumerate_structures(n, "lattices").members
    for n in range(1, 8):
        yield from enumerate_structures(n, "posets-with-top").members
    for n in range(1, 7):
        yield from enumerate_structures(n, "all-posets").members
    yield direct_product(fixture("bowtie").poset, fixture("pentagon").poset)
    # 80 elements: masks wider than a machine word
    yield direct_product(fixture("pentagon").poset, fixture("bool4").poset, max_size=128)


def test_relative_table_matches_per_x_oracle():
    checked = 0
    for p in _relative_cases():
        rel = relative_table_poset(p)
        for a in range(p.n):
            for b in range(p.n):
                assert rel.value(a, b) == relative_pc_per_x(p, a, b), (p.up, a, b)
        checked += 1
    assert checked == 300 + 406 + 405 + 2


def test_pure_relative_table_matches_per_x_oracle():
    # the dispatcher sends carriers of 1..64 elements to the compiled twin
    # when it is built, so call the pure twin's kernel directly
    cases = [p for n in range(1, 8) for p in enumerate_structures(n, "posets-with-top").members]
    cases += [p for n in range(1, 7) for p in enumerate_structures(n, "all-posets").members]
    for p in cases:
        want = tuple(tuple(relative_pc_per_x(p, a, b) for b in range(p.n)) for a in range(p.n))
        total = all(None not in row for row in want)
        assert _core_py.poset_relative_table(p.n, p.up, p.down) == (want, total), p.up
    assert len(cases) == 406 + 405


def test_synthesis_matches_join_formula_oracle_on_relabeled_lattices():
    # the join formula agrees with the star table wherever the table is
    # defined, and its first failure is the table's first gap; relabeling
    # moves the topological order away from the catalog's natural labels
    rng = random.Random(11)
    checked = failures = 0
    for n in range(1, 9):
        for p in enumerate_structures(n, "lattices").members:
            perm = list(range(n))
            rng.shuffle(perm)
            lat = as_lattice(relabeled(p, perm))
            got, want = synthesize_sectional(lat), synthesize_by_join_formula(lat)
            assert type(got) is type(want) and got == want, (p.up, perm)
            checked += 1
            failures += isinstance(want, FailureWitness)
    assert checked == 300 and 0 < failures < checked


def test_pure_star_table_matches_cone_oracle():
    # the dispatcher sends carriers of 1..64 elements to the compiled twin
    # when it is built, so call the pure twin's kernel directly
    cases = [p for n in range(1, 8) for p in enumerate_structures(n, "posets-with-top").members]
    cases += [p for n in range(1, 7) for p in enumerate_structures(n, "all-posets").members]
    for p in cases:
        want = tuple(tuple(sectional_pc_by_cones(p, a, b) for b in range(p.n))
                     for a in range(p.n))
        total = all(None not in row for row in want)
        assert _core_py.poset_star_table(p.n, p.up, p.down) == (want, total), p.up
    assert len(cases) == 406 + 405
