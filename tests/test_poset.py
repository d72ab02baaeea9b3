"""Order construction, validation, and lattice recognition."""

import random
import re
from itertools import product

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
    direct_product,
    enumerate_structures,
    fixture,
    lower_set,
    make_poset,
    upper_set,
)
from ordalg import _kernels as kernels
from ordalg._kernels import _core_py

from oracles import (
    checked_order,
    covers_by_definition,
    lattice_tables_by_loops,
    not_a_lattice_by_rescan,
    poset_from_edges,
    relabeled,
)


def pentagon():
    return fixture("pentagon").poset


def test_make_poset_closes_transitively():
    p = make_poset(("x", "y", "z"), (("x", "y"), ("y", "z")))
    assert p.leq(p.index("x"), p.index("z"))
    assert not p.leq(p.index("z"), p.index("x"))


def test_make_poset_closes_once(monkeypatch):
    # the closed masks are transitive, so Poset does not close them again;
    # a cycle is still found, with the same pair
    calls = []
    closure = kernels.closure
    monkeypatch.setattr(kernels, "closure", lambda n, up: calls.append(n) or closure(n, up))
    p = make_poset(("x", "y", "z"), (("x", "y"), ("y", "z")))
    assert calls == [3] and p.up == closure(3, p.up)
    with pytest.raises(CycleDetectedError) as exc:
        make_poset(("a", "b", "c"), (("a", "b"), ("b", "c"), ("c", "a")))
    assert exc.value.pair == ("a", "b") and calls == [3, 3]


def test_duplicate_name_rejected():
    with pytest.raises(DuplicateNameError, match="^duplicate element name 'a'$"):
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


def _built_or_raised(build, names, up):
    try:
        return build(names, up)
    except (ValueError, CycleDetectedError) as exc:
        return type(exc), str(exc)


def _poset_masks(names, up):
    p = Poset(names, up)
    return p.up, p.down


def _relations():
    """Every relation on at most three points, then seeded random ones on
    at most nine: closed orders, some with one bit flipped, possibly one
    past the carrier, and unclosed relations with one bit flipped."""
    for n in range(1, 4):
        yield from product(range(1 << n), repeat=n)
    rng = random.Random(13)
    for _ in range(3000):
        n = rng.randint(1, 9)
        up = [1 << i for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.3:
                    up[i] |= 1 << j
        shape = rng.randrange(4)
        if shape < 3:
            up = list(kernels.closure(n, up))
        if shape > 0:
            up[rng.randrange(n)] ^= 1 << rng.randrange(n + (shape == 2))
        yield tuple(up)


def test_poset_checks_match_the_one_step_oracle():
    seen = set()
    for up in _relations():
        names = tuple("abcdefghi"[:len(up)])
        want = _built_or_raised(checked_order, names, up)
        assert _built_or_raised(_poset_masks, names, up) == want, up
        seen.add(want[1].split("'")[0] if isinstance(want[0], type) else "built")
    assert seen == {"built", "up-mask of ", "order is not reflexive at ",
                    "cover cycle through ", "order is not transitive at "}


def test_poset_names_the_first_failing_check():
    with pytest.raises(ValueError, match="^poset needs at least one element$"):
        Poset((), ())
    with pytest.raises(ValueError, match="^up-mask count does not match element count$"):
        Poset(("a", "b"), (1,))
    names = ("a", "b", "c")
    with pytest.raises(ValueError, match="^order is not transitive at 'a'$"):
        Poset(names, (0b011, 0b110, 0b100))
    with pytest.raises(CycleDetectedError) as exc:
        Poset(names, (0b011, 0b011, 0b101))
    assert exc.value.pair == ("a", "b")


def test_poset_and_its_covers_are_one_kernel_call_each(monkeypatch):
    # poset_index returns the covers with the down-masks, so a Poset and its
    # covers are one call, covers() makes none, and make_poset adds only the
    # closure before it
    calls = []
    for name in ("closure", "poset_index"):
        kernel = getattr(kernels, name)
        monkeypatch.setattr(kernels, name, lambda *args, _name=name, _kernel=kernel:
                            calls.append(_name) or _kernel(*args))
    p = Poset(("a", "b", "c"), (0b111, 0b110, 0b100))
    assert p.covers() == p.covers() == ((0, 1), (1, 2))
    assert calls == ["poset_index"]
    calls.clear()
    q = make_poset(("a", "b", "c"), (("a", "b"), ("b", "c")))
    assert q.covers() == p.covers()
    assert calls == ["closure", "poset_index"]


def test_size_budget():
    names = tuple(f"v{i}" for i in range(65))
    with pytest.raises(SizeBudgetError):
        make_poset(names, ())
    p = make_poset(names, (), max_size=100)
    assert p.n == 65


def test_index_error_names_element():
    for name in ("zz", ["a"], 0):
        with pytest.raises(UnknownNameError, match="^unknown element "):
            pentagon().index(name)


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


@pytest.mark.parametrize("twin", ["compiled", "pure"])
def test_covers_are_the_pairs_with_nothing_between(twin, monkeypatch):
    orders = [p.up for n in range(1, 8) for p in enumerate_structures(n, "all-posets").members]
    orders += [fixture(name).poset.up for name in ("bool6", "chain64")]
    if twin == "pure":
        monkeypatch.setattr(kernels, "_active", _core_py)
    elif not kernels.HAVE_C:
        pytest.skip("compiled backend not built")
    for up in orders:
        p = Poset(tuple(f"e{i}" for i in range(len(up))), up)
        assert p.covers() == covers_by_definition(up), up


def test_covers_regenerate_order():
    p = fixture("bowtie").poset
    q = make_poset(p.names, tuple((p.names[i], p.names[j]) for i, j in p.covers()))
    assert q == p


def test_bounds_and_cones():
    p = pentagon()
    bottom, top = bounds(p)
    assert (p.names[bottom], p.names[top]) == ("0", "1")

    def mask(names):
        return sum(1 << p.index(x) for x in names)

    assert upper_set(p, mask("ab")) == mask("1")
    assert lower_set(p, mask("ab")) == mask("0")
    assert upper_set(p, 0) == p.full
    assert upper_set(p, mask("a")) == mask("ac1")


def test_masks_outside_the_carrier_are_refused():
    """iter_mask, upper_set and lower_set refuse a mask with bits outside
    the carrier, a negative one included, naming it and the carrier size."""
    p = pentagon()
    assert list(p.iter_mask(p.full)) == [0, 1, 2, 3, 4]
    for bad in (-1, -2, 1 << 5, 1 << 9, p.full | 1 << 7):
        for call in (p.iter_mask, lambda m: upper_set(p, m), lambda m: lower_set(p, m)):
            with pytest.raises(ValueError, match=f"^mask {bad} has bits outside the carrier "
                                                 "of 5 elements$"):
                call(bad)


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


@pytest.mark.parametrize("twin", ["compiled", "pure"])
def test_lattice_ops_names_a_cell_that_is_not_an_element(twin, monkeypatch):
    """A float, a string, an index outside the carrier or None in a join or
    meet table is a ValueError naming the cell, on either kernel twin."""
    if twin == "pure":
        monkeypatch.setattr(kernels, "_active", _core_py)
    elif not kernels.HAVE_C:
        pytest.skip("compiled backend not built")
    p = fixture("chain3").poset
    lat = as_lattice(p)
    for which in ("join", "meet"):
        for cell, message in ((2.0, "cell 2.0 is not an int"), ("2", "cell '2' is not an int"),
                              (3, "cell 3 outside the carrier"), (None, "undefined at (c2, c1)")):
            tables = {"join": lat.join, "meet": lat.meet}
            rows = [list(row) for row in tables[which]]
            rows[2][1] = cell
            tables[which] = rows
            with pytest.raises(ValueError, match=f"^{which} table:? {re.escape(message)}$"):
                LatticeOps(p, tables["join"], tables["meet"])
    assert LatticeOps(p, [list(row) for row in lat.join], lat.meet).join == lat.join


def test_lattice_ops_on_an_order_that_is_not_a_lattice_names_its_witness():
    """No tables are a non-lattice's join and meet: whatever total tables
    are given, all-top ones among them, LatticeOps names the pair that
    as_lattice finds without a lub."""
    p = fixture("bowtie").poset
    witness = as_lattice(p)
    assert (witness.kind, witness.pair) == ("join", (p.index("a"), p.index("b")))
    rng = random.Random(43)
    tables = [(((p.top,) * p.n,) * p.n,) * 2]
    tables += [[[[rng.randrange(p.n) for _ in range(p.n)] for _ in range(p.n)] for _ in "jm"]
               for _ in range(20)]
    for join, meet in tables:
        with pytest.raises(ValueError, match=r"^order is not a lattice: join fails at \(a, b\)$"):
            LatticeOps(p, join, meet)


def test_lattice_ops_keeps_the_orders_tables_on_every_small_lattice():
    for n in range(1, 9):
        for p in enumerate_structures(n, "lattices").members:
            lat = as_lattice(p)
            assert LatticeOps(p, [list(row) for row in lat.join], lat.meet) == lat, p.up


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
    return lattice_tables_by_loops(lat.poset, lat.join, lat.meet) is None


def test_kernel_join_and_meet_are_bounds_on_every_small_lattice():
    # as_lattice takes the kernel's tables unchecked; hold them to the per-cell loops
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


def kernel_witness(twin, p):
    """as_lattice's answer read from one twin's order_tables: None on a lattice."""
    tabs = twin.order_tables(p.n, p.up, p.down)[0]
    if len(tabs) == 2:
        return None
    kind, a, b, frontier = tabs
    return NotALattice(kind, (a, b), tuple(i for i in p.topo if frontier >> i & 1))


def assert_witness_is_the_rescan(p):
    want = not_a_lattice_by_rescan(p)
    got = as_lattice(p)
    if want is None:
        assert isinstance(got, LatticeOps)
    else:
        assert got == want
        # two maximal lower bounds of a pair have no join, and their pair
        # comes first, so a reported meet failure has no frontier
        assert want.kind == "join" or want.frontier == ()
    return want


def test_lattice_witness_is_the_rescan_on_every_small_labelled_poset():
    # each poset as enumerated and with its labels reversed, so that topo
    # order and index order differ; the kernel twins one by one
    twins = (_core_py,) + ((kernels._c,) if kernels.HAVE_C else ())
    labelled = failing = 0
    for n in range(1, 7):
        for q in enumerate_structures(n, "all-posets", dedup=False).members:
            for p in (q, relabeled(q, range(n - 1, -1, -1))):
                want = assert_witness_is_the_rescan(p)
                for twin in twins:
                    assert kernel_witness(twin, p) == want, (twin.__name__, p.up)
                labelled += 1
                failing += want is not None
    assert (labelled, failing) == (10_462, 10_360)


@given(random_posets(max_n=9), st.data())
@settings(max_examples=150, deadline=None)
def test_lattice_witness_is_the_rescan_on_random_posets(p, data):
    assert_witness_is_the_rescan(p)
    assert_witness_is_the_rescan(relabeled(p, data.draw(st.permutations(range(p.n)))))


def test_lattice_witness_is_the_rescan_past_64_elements():
    # 66 elements route to the pure twin, whose masks are unbounded ints
    p = direct_product(fixture("bowtie").poset, fixture("chain11").poset, max_size=66)
    assert p.n == 66
    nl = assert_witness_is_the_rescan(p)
    assert nl.kind == "join" and len(nl.frontier) == 2


def test_order_and_lattice_accessors_refuse_elements_outside_the_carrier():
    p = fixture("pentagon").poset
    lat = as_lattice(p)
    for accessor in (p.leq, lat.join_of, lat.meet_of):
        for a, b in ((7, 0), (0, 9), (5, 0), (-1, 0), (0, -1)):
            with pytest.raises(ValueError, match=rf"^pair \({a}, {b}\) outside the carrier "
                                                 "of 5 elements$"):
                accessor(a, b)
    assert p.leq(0, 4) and lat.join_of(1, 2) == lat.join[1][2] and lat.meet_of(4, 3) == 3
