"""Fixtures, products, catalogs, and the canonical relabeling key."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordalg import (
    BudgetError,
    DuplicateNameError,
    FIXTURE_NAMES,
    LatticeOps,
    Poset,
    SizeBudgetError,
    UnknownFixtureError,
    are_isomorphic,
    as_lattice,
    canonical_key,
    direct_product,
    enumerate_structures,
    fixture,
    star_table_poset,
    synthesize_sectional,
)
from ordalg import _kernels as kernels

from oracles import (
    iso_by_permutation,
    naive_labeled_posets,
    permutation_classes,
    poset_from_edges,
    relabeled,
)
from test_poset import random_posets


def test_fixture_star_tables_match_synthesis():
    # the frozen tables exist so later edits cannot silently change them;
    # here they must agree with what the library derives from the order
    for name in ("pentagon", "bowtie"):
        fx = fixture(name)
        assert star_table_poset(fx.poset) == fx.star
    pent = fixture("pentagon")
    assert synthesize_sectional(as_lattice(pent.poset)) == pent.star


def test_fixture_families():
    c = fixture("chain7").poset
    assert c.n == 7 and all(c.leq(i, j) == (i <= j) for i in range(7) for j in range(7))
    b = fixture("bool3").poset
    assert b.n == 8
    assert set(b.names) == {format(v, "03b") for v in range(8)}
    i, j = b.names.index("001"), b.names.index("011")
    assert b.leq(i, j) and not b.leq(j, i)
    assert are_isomorphic(fixture("bool1").poset, fixture("chain2").poset)


def test_fixture_rejects_unknown_names():
    for bad in ("hexagon", "chain1", "chain65", "bool0", "bool7", "chainx"):
        with pytest.raises(UnknownFixtureError):
            fixture(bad)
    listed = [n for n in FIXTURE_NAMES if "K" not in n]
    for name in listed:
        assert fixture(name).name == name


def test_direct_product_componentwise():
    p = fixture("pentagon").poset
    q = fixture("residuated-chain").poset
    prod = direct_product(p, q)
    assert prod.n == 15
    for i in range(p.n):
        for j in range(q.n):
            assert prod.names[i * q.n + j] == f"{p.names[i]}.{q.names[j]}"
    for i1 in range(p.n):
        for j1 in range(q.n):
            for i2 in range(p.n):
                for j2 in range(q.n):
                    expect = p.leq(i1, i2) and q.leq(j1, j2)
                    assert prod.leq(i1 * q.n + j1, i2 * q.n + j2) == expect


def test_direct_product_budget():
    big = fixture("chain9").poset
    cube = fixture("bool3").poset
    with pytest.raises(SizeBudgetError):
        direct_product(big, cube)
    prod = direct_product(big, cube, max_size=128)
    assert prod.n == 72
    assert prod.top == prod.n - 1


def test_direct_product_name_collision():
    p = Poset(("x", "x.y"), (0b01, 0b10))
    q = Poset(("y.z", "z"), (0b01, 0b10))
    # (x, y.z) and (x.y, z) are both named x.y.z
    with pytest.raises(DuplicateNameError, match=r"^product elements \(x, y\.z\) and "
                                                 r"\(x\.y, z\) are both named 'x\.y\.z'$"):
        direct_product(p, q)


POSET_COUNTS = {1: 1, 2: 2, 3: 5, 4: 16, 5: 63, 6: 318}
TOPPED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 5, 5: 16, 6: 63}
LATTICE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 5, 6: 15, 7: 53, 8: 222}


def test_catalog_counts():
    for n, count in POSET_COUNTS.items():
        assert len(enumerate_structures(n, "all-posets")) == count
    for n, count in TOPPED_COUNTS.items():
        assert len(enumerate_structures(n, "posets-with-top")) == count
    for n, count in LATTICE_COUNTS.items():
        if n <= 7:
            assert len(enumerate_structures(n, "lattices")) == count


@pytest.mark.slow
def test_catalog_count_lattices_eight():
    assert len(enumerate_structures(8, "lattices")) == 222


def test_catalogs_and_products_skip_the_closure(monkeypatch):
    # enum_orders, canonical_keys and the componentwise order all emit
    # closed orders, so Poset does not close them again
    bow, pent = fixture("bowtie").poset, fixture("pentagon").poset
    calls = []
    closure = kernels.closure
    monkeypatch.setattr(kernels, "closure", lambda n, up: calls.append(n) or closure(n, up))
    built = [enumerate_structures(6, "all-posets").members,
             enumerate_structures(6, "all-posets", dedup=False).members,
             enumerate_structures(8, "lattices").members,
             (direct_product(bow, pent),)]
    assert calls == []
    assert [len(members) for members in built] == [318, 4824, 222, 1]
    for p in (p for members in built for p in members):
        assert closure(p.n, p.up) == p.up


def test_lattices_with_top_is_an_alias():
    for n in range(1, 6):
        a = enumerate_structures(n, "lattices").members
        b = enumerate_structures(n, "lattices-with-top").members
        assert tuple(p.up for p in a) == tuple(p.up for p in b)


def test_labeled_enumeration_matches_naive_oracle():
    for n in range(1, 6):
        cat = enumerate_structures(n, "all-posets", dedup=False)
        assert sorted(p.up for p in cat.members) == sorted(naive_labeled_posets(n))


def test_lattice_enumeration_is_a_filter_of_posets():
    # the same list in the same order: the lattice search prunes only
    # subtrees without a lattice, so its leaves come in the poset order
    for n in range(1, 7):
        every = enumerate_structures(n, "all-posets", dedup=False).members
        expected = [p.up for p in every if isinstance(as_lattice(p), LatticeOps)]
        got = [p.up for p in enumerate_structures(n, "lattices", dedup=False).members]
        assert got == expected


def test_dedup_matches_permutation_classes():
    labeled = enumerate_structures(4, "all-posets", dedup=False).members
    classes = permutation_classes(list(labeled))
    deduped = enumerate_structures(4, "all-posets").members
    assert len(deduped) == len(classes)
    for member in deduped:
        hits = [cls for cls in classes if iso_by_permutation(member, cls[0])]
        assert len(hits) == 1


def test_canonical_key_complete_at_four():
    members = enumerate_structures(4, "all-posets", dedup=False).members
    for p in members:
        for q in members:
            assert (canonical_key(p) == canonical_key(q)) == iso_by_permutation(p, q)


def test_canonical_key_and_iso_respect_relabeling():
    rng = random.Random(7)
    for p in enumerate_structures(5, "all-posets").members:
        perm = list(range(p.n))
        rng.shuffle(perm)
        q = relabeled(p, perm)
        assert canonical_key(q) == canonical_key(p)
        assert are_isomorphic(p, q)


def test_are_isomorphic_agrees_with_permutation_oracle():
    members = enumerate_structures(4, "all-posets").members
    for p in members:
        for q in members:
            assert are_isomorphic(p, q) == iso_by_permutation(p, q)
    assert not are_isomorphic(fixture("chain3").poset, fixture("chain4").poset)


def test_catalog_budgets_and_kinds():
    with pytest.raises(BudgetError):
        enumerate_structures(8, "all-posets")
    with pytest.raises(BudgetError):
        enumerate_structures(9, "lattices")
    with pytest.raises(BudgetError):
        enumerate_structures(0, "lattices")
    with pytest.raises(ValueError):
        enumerate_structures(3, "forests")
    with pytest.raises(BudgetError):
        canonical_key(fixture("chain9").poset)


@given(random_posets(max_n=6), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_canonical_key_invariant_under_random_relabeling(p, rng):
    perm = list(range(p.n))
    rng.shuffle(perm)
    q = relabeled(p, perm)
    assert canonical_key(q) == canonical_key(p)
