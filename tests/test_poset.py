"""Order construction, validation, and lattice recognition."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordalg import (
    CycleDetectedError,
    DuplicateNameError,
    LatticeOps,
    NotALattice,
    Poset,
    SizeBudgetError,
    UnknownNameError,
    as_lattice,
    bounds,
    enumerate_structures,
    fixture,
    laws,
    lower_set,
    make_poset,
    upper_set,
)

from oracles import poset_from_edges


def pentagon():
    return fixture("pentagon").poset


def test_make_poset_closes_transitively():
    p = make_poset(("x", "y", "z"), (("x", "y"), ("y", "z")))
    assert p.leq(p.index("x"), p.index("z"))
    assert not p.leq(p.index("z"), p.index("x"))


def test_duplicate_name_rejected():
    with pytest.raises(DuplicateNameError):
        make_poset(("a", "a"), ())


def test_unknown_cover_name_rejected():
    with pytest.raises(UnknownNameError):
        make_poset(("a", "b"), (("a", "c"),))


def test_cycle_rejected_with_pair():
    with pytest.raises(CycleDetectedError) as exc:
        make_poset(("a", "b", "c"), (("a", "b"), ("b", "c"), ("c", "a")))
    assert set(exc.value.pair) <= {"a", "b", "c"}


def test_cycle_pair_same_from_covers_and_closed_masks():
    names = ("a", "b", "c")
    pairs = []
    for build in (lambda: make_poset(names, (("a", "b"), ("b", "c"), ("c", "a"))),
                  lambda: Poset(names, (0b111, 0b111, 0b111))):
        with pytest.raises(CycleDetectedError) as exc:
            build()
        pairs.append(exc.value.pair)
    assert pairs == [("a", "b"), ("a", "b")]


def test_size_budget():
    names = tuple(f"v{i}" for i in range(65))
    with pytest.raises(SizeBudgetError):
        make_poset(names, ())
    p = make_poset(names, (), max_size=100)
    assert p.n == 65


def test_index_error_names_element():
    with pytest.raises(UnknownNameError):
        pentagon().index("zz")


def test_topo_is_linear_extension():
    p = fixture("bowtie").poset
    seen = set()
    for i in p.topo:
        strict = p.down[i] & ~(1 << i)
        assert all(j in seen for j in p.iter_mask(strict))
        seen.add(i)


def test_covers_of_pentagon():
    p = pentagon()
    named = {(p.names[i], p.names[j]) for i, j in p.covers()}
    assert named == {("0", "a"), ("a", "c"), ("c", "1"), ("0", "b"), ("b", "1")}


def test_covers_regenerate_order():
    p = fixture("bowtie").poset
    q = make_poset(p.names, tuple((p.names[i], p.names[j]) for i, j in p.covers()))
    assert q == p


def test_bounds_and_cones():
    p = pentagon()
    bottom, top = bounds(p)
    assert (p.names[bottom], p.names[top]) == ("0", "1")
    a, b = p.index("a"), p.index("b")
    assert p.names_of(upper_set(p, p.mask_of("ab"))) == ("1",)
    assert p.names_of(lower_set(p, p.mask_of("ab"))) == ("0",)
    assert upper_set(p, 0) == p.full
    assert p.names_of(upper_set(p, 1 << a)) == ("a", "c", "1")


def test_as_lattice_tables_cross_verified():
    p = pentagon()
    lat = as_lattice(p)
    assert isinstance(lat, LatticeOps)
    a, b, c = p.index("a"), p.index("b"), p.index("c")
    assert p.names[lat.join_of(a, b)] == "1"
    assert p.names[lat.meet_of(c, b)] == "0"
    assert lat.top == p.top and lat.bottom == p.bottom


def test_bowtie_is_not_a_lattice_with_least_witness():
    p = fixture("bowtie").poset
    nl = as_lattice(p)
    assert isinstance(nl, NotALattice)
    assert nl.kind == "join"
    assert tuple(p.names[i] for i in nl.pair) == ("a", "b")
    assert tuple(p.names[i] for i in nl.frontier) == ("c", "d")


def test_antichain_has_no_bounds():
    p = make_poset(("x", "y"), ())
    assert p.top is None and p.bottom is None
    assert isinstance(as_lattice(p), NotALattice)


def test_single_element():
    p = make_poset(("x",), ())
    assert p.top == p.bottom == 0
    lat = as_lattice(p)
    assert isinstance(lat, LatticeOps)


def test_lattice_ops_validation_rejects_bad_table():
    p = pentagon()
    lat = as_lattice(p)
    rows = [list(r) for r in lat.join]
    rows[1][2] = p.index("c")
    with pytest.raises(ValueError):
        LatticeOps(p, tuple(tuple(r) for r in rows), lat.meet)


@st.composite
def random_posets(draw, max_n=7):
    n = draw(st.integers(min_value=1, max_value=max_n))
    edges = draw(st.sets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda e: e[0] < e[1]
        ),
        max_size=n * 2,
    ))
    return poset_from_edges(n, edges)


@given(random_posets())
@settings(max_examples=120, deadline=None)
def test_order_axioms_hold(p):
    n = p.n
    for i in range(n):
        assert p.leq(i, i)
        for j in range(n):
            if i != j and p.leq(i, j):
                assert not p.leq(j, i)
            for k in range(n):
                if p.leq(i, j) and p.leq(j, k):
                    assert p.leq(i, k)


@given(random_posets())
@settings(max_examples=120, deadline=None)
def test_covers_round_trip(p):
    q = make_poset(p.names, tuple((p.names[i], p.names[j]) for i, j in p.covers()))
    assert q.up == p.up


@given(random_posets(max_n=6))
@settings(max_examples=100, deadline=None)
def test_cone_galois_connection(p):
    full = p.full
    for mask in range(full + 1):
        u = upper_set(p, mask)
        lu = lower_set(p, u)
        # closure: A within L(U(A)), and U is antitone
        assert mask & ~lu == 0
        assert upper_set(p, lu) == u


def tables_are_bounds(lat):
    """True when lat's join and meet are least upper and greatest lower bounds."""
    found = laws.scan(lat.poset, (laws.JOIN_IS_LUB, laws.MEET_IS_GLB),
                      join=lat.join, meet=lat.meet)
    return found == [None, None]


def test_kernel_join_and_meet_are_bounds_on_every_small_lattice():
    # as_lattice takes the kernel's tables unchecked; hold them to the laws
    for n in range(1, 9):
        for p in enumerate_structures(n, "lattices").members:
            assert tables_are_bounds(as_lattice(p)), p.up


@st.composite
def bounded_posets(draw, max_n=8):
    # a least and a greatest element make most small random posets lattices
    n = draw(st.integers(min_value=2, max_value=max_n))
    edges = draw(st.sets(
        st.tuples(st.integers(1, n - 2), st.integers(1, n - 2)).filter(lambda e: e[0] < e[1]),
        max_size=n * 2,
    )) if n > 3 else set()
    edges |= {(0, j) for j in range(1, n)} | {(i, n - 1) for i in range(n - 1)}
    return poset_from_edges(n, edges)


@given(bounded_posets())
@settings(max_examples=150, deadline=None)
def test_kernel_join_and_meet_are_bounds_on_random_posets(p):
    lat = as_lattice(p)
    if isinstance(lat, LatticeOps):
        assert tables_are_bounds(lat)
