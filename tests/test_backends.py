"""Differential checks: compiled kernels against the pure Python twins.

The heavy exhaustive sweep lives in the benchmarks; these tests keep a
condensed version in the default run so a miscompiled kernel cannot hide.
"""

import gc
import itertools
import os
import random
import subprocess
import sys

import pytest

import oracles as o
import test_congruence as tc
import test_poset as tp
from ordalg import _kernels as kernels
from ordalg import (
    BinOp,
    FiniteAlgebra,
    check_congruence_distributive,
    check_permutable,
    check_weakly_regular,
    classify,
    as_lattice,
    direct_product,
    enumerate_structures,
    fixture,
    from_sectional,
    laws,
    lower_set,
    make_poset,
    star_table_poset,
    synthesize_sectional,
)
from ordalg._kernels import _core_py as py
from ordalg._kernels._common import law_compile

pytestmark = pytest.mark.skipif(
    not kernels.HAVE_C, reason="compiled backend not built"
)


def c_backend():
    from ordalg._kernels import _core_c

    return _core_c


def test_enum_orders_identical():
    c = c_backend()
    # n = 7 builds the largest poset catalog
    for n in range(1, 8):
        for lattices in (False, True):
            assert list(c.enum_orders(n, lattices)) == list(py.enum_orders(n, lattices))


def typed(x):
    """x with every value paired with its type, so that == compares the types too."""
    if isinstance(x, (tuple, list)):
        return type(x), tuple(map(typed, x))
    return type(x), x


def test_poset_index_and_covers_identical():
    """Both twins give the same index, covers and types included, or the
    same first fault; mask i of an order's covers holds the j of its strict
    pairs (i, j) with nothing strictly between them."""
    c = c_backend()
    catalogs = (p.up for n in range(1, 8) for p in enumerate_structures(n, "all-posets").members)
    wide = (fixture(name).poset.up for name in ("bool6", "chain64"))
    extreme = [(-1, 2), (1, 1 << 64), (1, (1 << 64) - 1), (3, -2)]
    kinds = set()
    for up in itertools.chain(tp._relations(), catalogs, wide, extreme):
        n = len(up)
        for closed in (False, True):
            index = c.poset_index(n, list(up), closed)
            assert typed(index) == typed(py.poset_index(n, list(up), closed)), up
            if len(index) == 3:
                kinds.add(index[0])
                continue
            kinds.add("order")
            masks = [0] * n
            for i, j in o.covers_by_definition(up):
                masks[i] |= 1 << j
            assert index[4] == tuple(masks), up
    assert kinds == {"order", "carrier", "reflexive", "cycle", "transitive"}


def relabel(n, packed, perm):
    """The packed order with element i renamed perm[i]."""
    out = 0
    for i in range(n):
        row = packed >> 8 * i
        for j in range(n):
            if row >> j & 1:
                out |= 1 << (8 * perm[i] + perm[j])
    return out


def test_canonical_keys_identical():
    c = c_backend()
    cases = [(n, c.enum_orders(n, False)) for n in range(1, 7)]
    cases += [(n, c.enum_orders(n, True)) for n in range(1, 9)]
    chain8 = sum(((1 << 8) - (1 << i)) << 8 * i for i in range(8))
    antichain8 = sum(1 << 9 * i for i in range(8))
    cases += [(1, [1]), (8, [chain8, antichain8])]
    rng = random.Random(13)
    relabeled = []
    for p in enumerate_structures(7, "all-posets").members:
        perm = list(range(7))
        rng.shuffle(perm)
        relabeled.append(relabel(7, sum(m << 8 * i for i, m in enumerate(p.up)), perm))
    cases.append((7, relabeled))
    for n, orders in cases:
        assert c.canonical_keys(n, orders) == py.canonical_keys(n, orders)


def test_tables_identical_on_catalog():
    c = c_backend()
    catalog = (p for n in range(1, 6)
               for p in enumerate_structures(n, "all-posets", dedup=False).members)
    # bool6 and chain64 fill all 64 bits, where bit 63 and the full mask matter
    wide = (fixture(name).poset for name in ("bool6", "chain64"))
    undefined, failures = set(), set()
    for p in itertools.chain(catalog, wide):
        args = (p.n, list(p.up), list(p.down))
        for twin in (c, py):
            lattice = twin.lattice_tables(*args)
            star, rel = twin.poset_star_table(*args), twin.poset_relative_table(*args)
            for table, total in (star, rel):
                assert type(total) is bool and total == all(None not in row for row in table)
            assert type(lattice) is tuple and len(lattice) in (2, 4)
            if len(lattice) == 4:
                kind, a, b, frontier = lattice
                assert kind in ("join", "meet") and type(kind) is str
                assert all(type(x) is int for x in (a, b, frontier))
                assert 0 <= a < p.n and 0 <= b < p.n and 0 <= frontier <= p.full
                failures.add((kind, frontier == 0))
                lattice = ()
            # a tuple never equals a list, so == below also compares the types
            for table in (star[0], rel[0]) + lattice:
                assert type(table) is tuple and len(table) == p.n
                for row in table:
                    assert type(row) is tuple and len(row) == p.n
                    assert {type(cell) for cell in row} <= {int, type(None)}
                    assert all(cell is None or 0 <= cell < p.n for cell in row)
                    undefined.update(cell is None for cell in row)
        assert c.lattice_tables(*args) == py.lattice_tables(*args)
        assert c.poset_star_table(*args) == py.poset_star_table(*args)
        assert c.poset_relative_table(*args) == py.poset_relative_table(*args)
    assert undefined == {True, False}
    # a first meet failure never has a frontier: two maximal lower bounds
    # have no join, and their pair comes earlier in topo order
    assert failures == {("join", False), ("join", True), ("meet", True)}


def operator_tables_keep_their_contract(p, tables):
    us, uid, low, lu = tables
    assert type(us) is tuple and type(low) is tuple and len(us) == len(low) == len(set(us))
    assert all(type(m) is int and 0 <= m <= p.full for m in us + low)
    for rows, cells in ((uid, range(len(us))), (lu, low)):
        assert type(rows) is tuple and len(rows) == p.n
        for row in rows:
            assert type(row) is tuple and len(row) == p.n
            assert all(type(cell) is int and cell in cells for cell in row)


def test_operator_tables_identical_and_equal_to_the_comprehensions():
    c = c_backend()
    with_top = (p for n in range(1, 8) for p in enumerate_structures(n, "posets-with-top").members)
    wide = (fixture(name).poset for name in ("bool6", "chain64"))
    for p in itertools.chain(with_top, wide):
        args = (p.n, list(p.up), list(p.down))
        tables = c.operator_tables(*args)
        operator_tables_keep_their_contract(p, tables)
        assert tables == py.operator_tables(*args) == o.operator_tables_by_comprehension(p)
    # n = 80 routes to the pure twin
    p = direct_product(fixture("pentagon").poset, fixture("bool4").poset, max_size=80)
    tables = kernels.operator_tables(p.n, p.up, p.down)
    operator_tables_keep_their_contract(p, tables)
    assert tables == o.operator_tables_by_comprehension(p)


TABLE_KERNELS = ("lattice_tables", "poset_star_table", "poset_relative_table", "operator_tables")


def scan_args(alg):
    """congruence_scan's arguments for an algebra, as the library passes them."""
    return alg.n, [op.table for _, op in alg.ops], dict(alg.constants).get("one")


@pytest.mark.parametrize("twin, calls", (("c", 10_000), ("py", 1_000)))
def test_table_kernels_hold_no_reference_after_returning(twin, calls):
    # A row the kernel forgets to release outlives every call, so the
    # allocated block count grows with the number of calls; the pure twin
    # takes fewer calls because each one is slower.
    # The bowtie covers lattice_tables' failure return; chain4 and the
    # projection algebra cover each of congruence_scan's witnesses.
    twin = c_backend() if twin == "c" else py
    cases = [(kernel, (p.n, list(p.up), list(p.down)))
             for kernel, p in [(kernel, fixture("bool4").poset) for kernel in TABLE_KERNELS]
             + [("lattice_tables", fixture("bowtie").poset)]]
    pointed = o.lattice_algebra(fixture("chain4").poset), tc.projection_algebra(3)
    cases += [("congruence_scan", scan_args(alg)) for alg in pointed]
    for kernel, args in cases:
        fn = getattr(twin, kernel)
        for _ in range(100):
            fn(*args)
        gc.collect()
        before = sys.getallocatedblocks()
        for _ in range(calls):
            fn(*args)
        gc.collect()
        assert sys.getallocatedblocks() - before <= 20, (kernel, args[0])


def congruence_scan_inputs():
    """(n, tables, one) for congruence_scan: the algebras the congruence
    tests use, seeded random tables with zero to three ops, and a
    64-element projection algebra."""
    for alg in tc.small_lattice_algebras(7):
        yield scan_args(alg)
    for n in range(3, 6):
        yield scan_args(tc.projection_algebra(n))
    rng = random.Random(16)
    for _ in range(300):
        n = rng.randrange(1, 7)
        near = [rng.randrange(n) for _ in range(n)]
        tables = []
        for _ in range(rng.randrange(4)):
            rows = [[near[x] if rng.random() < 0.5 else x for _ in range(n)] for x in range(n)]
            rows[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
            tables.append(rows)
        yield n, tables, rng.choice([None, *range(n)])
    yield 64, [[[x] * 64 for x in range(64)]], 63


def test_congruence_scan_identical():
    c = c_backend()
    failed = set()
    for n, tables, one in congruence_scan_inputs():
        got = c.congruence_scan(n, tables, one)
        assert got == py.congruence_scan(n, tables, one)
        labels = got[0]
        assert type(labels) is tuple and len(labels) == n * (n - 1) // 2
        assert all(type(lab) is tuple and len(lab) == n and all(type(x) is int for x in lab)
                   for lab in labels)
        for k, witness in enumerate(got[1:]):
            assert witness is None or type(witness) is tuple
            if witness is not None:
                failed.add(k)
                assert all(type(lab) is tuple for lab in witness)
    assert failed == {0, 1, 2}


def test_closure_identical_on_random_dags():
    c = c_backend()
    rng = random.Random(11)
    sizes = itertools.chain((rng.randrange(1, 12) for _ in range(60)), (1, 64))
    for n in sizes:
        up = [1 << i for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.3:
                    up[i] |= 1 << j
        assert c.closure(n, list(up)) == py.closure(n, list(up))


def scan_inputs():
    """(n, up, top, join, mult, imp) for the axiom scans, as flat row-major tables."""
    rng = random.Random(12)
    for _ in range(80):
        n = rng.randrange(2, 6)
        up = list(fixture(f"chain{n}").poset.up)
        join = tuple(max(i, j) for i in range(n) for j in range(n))
        mult = tuple(rng.randrange(n) for _ in range(n * n))
        imp = tuple(rng.randrange(n) for _ in range(n * n))
        yield n, up, n - 1, join, mult, imp
    yield 1, [1], 0, (0,), (0,), (0,)
    # the 64-element cube: its synthesized residuation passes every scan, and
    # an implication that is top everywhere breaks adjointness and divisibility
    lat = as_lattice(fixture("bool6").poset)
    cand = from_sectional(lat, synthesize_sectional(lat))
    p = lat.poset
    yield p.n, list(p.up), p.top, lat.flat_join(), cand.mult.flat(), cand.imp.flat()
    yield p.n, list(p.up), p.top, lat.flat_join(), cand.mult.flat(), (p.top,) * (p.n * p.n)


def test_axiom_scans_identical_on_random_tables():
    c = c_backend()
    for n, up, top, join, mult, imp in scan_inputs():
        got_c = c.rrl_scan(n, list(up), top, join, mult, imp)
        got_py = py.rrl_scan(n, list(up), top, join, mult, imp)
        assert got_c == got_py
        assert c.divisibility_scan(n, join, mult, imp) == \
            py.divisibility_scan(n, join, mult, imp)


def library_laws():
    """Every law of the law library, as an (arity, term) pair."""
    found = []
    for value in vars(laws).values():
        items = value if isinstance(value, tuple) else (value,)
        for item in items:
            law = item[1] if isinstance(item, tuple) and len(item) == 2 else item
            if isinstance(law, laws.Law):
                found.append((law.arity, law.term))
    return list(dict.fromkeys(found))


# term builders that name tables by index; laws has the others
x0, x1, x2 = (("var", i) for i in range(3))


def table(t, x, y):
    return ("table", t, x, y)


def fold(t, xs):
    """table t folded left over the terms xs."""
    term = xs[0]
    for x in xs[1:]:
        term = table(t, term, x)
    return term


def ups(count):
    """x0 under count ups: a term count + 1 deep."""
    term = x0
    for _ in range(count):
        term = laws.up(term)
    return term


def law_structures(rng):
    """The lattices law_inputs() runs on: n = 1, 2, 3, 4, 5, 8, 16 and 64.

    Their sizes split arities 3 and 4 into row and outer variables in every
    way the compiled twin does: 0, 1, 2 or 3 outer variables.
    """
    structures = [fixture("chain2").poset, fixture("bool3").poset, fixture("bool6").poset]
    structures.append(enumerate_structures(1, "lattices").members[0])
    structures += rng.sample(enumerate_structures(8, "lattices").members, 4)
    return structures + [fixture(name).poset for name in ("chain3", "bool2", "pentagon", "bool4")]


def law_inputs():
    """(n, up, down, tables) on which both twins must agree.

    The tables follow laws.TABLES: join, meet, mult, imp, a residual of
    masks, ids of the distinct masks U(x, y), a product over those ids and
    the common lower bounds of each U(x, y).
    """
    rng = random.Random(14)
    for p in law_structures(rng):
        n = p.n
        lat = as_lattice(p)
        ids = {}
        uid = [[ids.setdefault(p.up[x] & p.up[y], len(ids)) for y in range(n)] for x in range(n)]
        star = synthesize_sectional(lat)
        passing = star.table if isinstance(star, BinOp) else lat.meet
        for mult, imp in ((lat.meet, passing),
                          *[(rand_table(rng, n), rand_table(rng, n)) for _ in range(3)]):
            resid = [[p.down[y] for y in row] for row in imp]
            prod = [[p.full & rng.randrange(1 << n) for _ in ids] for _ in ids]
            low = [[lower_set(p, p.up[x] & p.up[y]) for y in range(n)] for x in range(n)]
            yield n, p.up, p.down, (lat.join, lat.meet, mult, imp, resid, uid, prod, low)


def rand_table(rng, n):
    return tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(n))


def plan_of(twin, suite):
    """twin's plan of a suite of (arity, term) laws, compiled by the one compiler."""
    return twin.law_plan(law_compile(suite))


def test_law_scan_identical():
    c = c_backend()
    library = library_laws()
    assert len(library) >= 30
    plans = plan_of(c, library), plan_of(py, library)
    sizes, results = set(), set()
    for args in law_inputs():
        got_c = c.law_scan(*args, plans[0])
        assert got_c == py.law_scan(*args, plans[1])
        sizes.add(args[0])
        results.update(w is None for w in got_c)
    assert sizes == {1, 2, 3, 4, 5, 8, 16, 64} and results == {True, False}


def random_term(rng, arity, depth):
    """A random well-formed term; often ill-typed, as when a mask is an index."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.8:
            return ("var", rng.randrange(arity))
        return ("const", rng.randrange(2))
    name = rng.choice(kernels.LAW_OPS[2:])
    head = (name, rng.randrange(len(laws.TABLES))) if name == "table" else (name,)
    width = 1 if name in ("up", "down") else 2
    return head + tuple(random_term(rng, arity, depth - 1) for _ in range(width))


def random_tree(rng, depth):
    """A random tuple of a head, ints and subtrees; often no term at all."""
    operands = (random_tree(rng, depth - 1) if depth and rng.random() < 0.5
                else rng.randrange(-1, 9) for _ in range(rng.randrange(4)))
    return (rng.choice(kernels.LAW_OPS + ("nor",)), *operands)


def random_law(rng, k):
    """A random term when k is odd, else a random tree, with an arity."""
    if k % 2:
        arity = rng.randrange(1, 4)
        return arity, random_term(rng, arity, 4)
    return rng.randrange(0, 6), random_tree(rng, 3)


def law_scan_outcome(twin, args, plan):
    try:
        return twin.law_scan(*args, plan)
    except ValueError:
        return ValueError


def random_plans(rng, k):
    """Both twins' plans of random_law(rng, k), or None when it does not compile."""
    try:
        compiled = law_compile([random_law(rng, k)])
    except ValueError:
        return None
    return c_backend().law_plan(compiled), py.law_plan(compiled)


def test_law_scan_identical_on_random_terms():
    """Random terms and random trees, often malformed, each law on one
    input: both twins raise or agree, and a tree the compiler rejects is
    never scanned."""
    c = c_backend()
    rng = random.Random(15)
    outcomes = set()
    for args in itertools.islice(law_inputs(), 0, None, 3):
        for k in range(300):
            plans = random_plans(rng, k)
            if plans is None:
                outcomes.add("rejected")
                continue
            got = [law_scan_outcome(twin, args, plan) for twin, plan in zip((c, py), plans)]
            assert got[0] == got[1], k
            outcomes.add("error" if got[0] is ValueError else got[0][0] is None)
    assert outcomes == {"rejected", "error", True, False}


def test_law_scan_identical_on_random_terms_with_one_plan_per_law():
    """The same, with each law's plans made once and reused on every input,
    so that each call checks them against its own order and tables."""
    c = c_backend()
    rng = random.Random(15)
    inputs = list(itertools.islice(law_inputs(), 0, None, 3))
    outcomes = set()
    for k in range(300):
        plans = random_plans(rng, k)
        for args in inputs if plans else ():
            got = [law_scan_outcome(twin, args, plan) for twin, plan in zip((c, py), plans)]
            assert got[0] == got[1], k
            outcomes.add("error" if got[0] is ValueError else got[0][0] is None)
    assert outcomes == {"error", True, False}


def test_law_scan_rechecks_one_plan_on_every_call():
    """Each twin's plan of a suite, made once, is checked again against each
    call's carrier, tables and constants."""
    c = c_backend()
    # table 0 indexed by the variables, its entry used as an element
    indexed = (2, laws.leq(table(0, x0, x1), x0))
    # table 1 indexed by table 0's entries
    nested = (2, table(1, table(0, x0, x1), x1))
    bottom = (1, laws.leq(laws.bottom, x0))
    plans = {twin: plan_of(twin, (indexed, nested, bottom)) for twin in (c, py)}
    chain3, bool2 = (fixture(name).poset for name in ("chain3", "bool2"))
    no_bottom = make_poset(("a", "b", "1"), (("a", "1"), ("b", "1")))

    def order(p):
        return p.n, p.up, p.down

    def join(p, width=None):
        return [row[:width] for row in as_lattice(p).join[:width]]

    index, operand = "indexes with a value", "operand out of range"
    cases = [
        (order(chain3), [join(chain3), join(chain3)], None),
        (order(bool2), [join(bool2), join(bool2)], None),  # another n
        (order(chain3), [join(chain3, 2), join(chain3)], index),  # a narrower table
        (order(chain3), [(), join(chain3)], operand),  # an absent table
        (order(chain3), [join(chain3), join(chain3, 2)], index),
        (order(chain3), [[[4] * 3] * 3, join(chain3)], index),  # mask 4 is no element
        (order(no_bottom), [join(chain3), join(chain3)], operand),  # no bottom to push
        (order(chain3), [join(chain3), join(chain3)], None),
    ]
    for args, tables, error in cases:
        for twin in (c, py):
            if error is None:
                assert twin.law_scan(*args, tables, plans[twin]) == \
                    py.law_scan(*args, tables, plan_of(py, (indexed, nested, bottom)))
            else:
                with pytest.raises(ValueError, match=error):
                    twin.law_scan(*args, tables, plans[twin])


def test_both_twins_name_the_first_fault_of_the_register_walk():
    """Each twin checks a plan register by register, in the same order, so
    both name the same fault.  Here table 0's entry 4 is used as an element
    before bottom, which the order lacks, is read."""
    no_bottom = make_poset(("a", "b", "1"), (("a", "1"), ("b", "1")))
    args = (no_bottom.n, no_bottom.up, no_bottom.down, [[[4] * 3] * 3])
    law = (2, laws.both(laws.leq(table(0, x0, x1), x0), laws.eq(laws.bottom, x0)))
    for twin in (c_backend(), py):
        with pytest.raises(ValueError, match="indexes with a value that may be out of range"):
            twin.law_scan(*args, plan_of(twin, [law]))


def nested_eq(term, count, right):
    """term under count eqs, each against x0 and x1 in turn, on the right or left."""
    for i in range(count):
        term = laws.eq(("var", i % 2), term) if right else laws.eq(term, ("var", i % 2))
    return term


def test_law_terms_compile_to_any_shape_within_64_nodes():
    """A term's depth is bounded only by its 64 nodes: a right-nested eq
    term 17 deep, and the deepest 64-node shapes (a chain of up, and eq
    nested left and right over one up), plan and scan alike on both twins;
    one node more is rejected."""
    c = c_backend()
    deepest = [ups(63)] + [nested_eq(laws.up(x0), 31, right) for right in (False, True)]
    assert [sum(1 for _ in subterms(term)) for term in deepest] == [64] * 3
    outcomes = set()
    for term in [nested_eq(x0, 16, True), *deepest]:
        plans = plan_of(c, [(2, term)]), plan_of(py, [(2, term)])
        for args in itertools.islice(law_inputs(), 0, None, 4):
            got = [law_scan_outcome(twin, args, plan) for twin, plan in zip((c, py), plans)]
            assert got[0] == got[1], term
            outcomes.add("error" if got[0] is ValueError else "ran")
    for term in deepest:
        with pytest.raises(ValueError, match="at most 64 nodes"):
            law_compile([(2, laws.up(term))])
    assert outcomes == {"error", "ran"}


def subterms(term):
    """term and every subterm in it, repeats included."""
    yield term
    for operand in term[1:]:
        if isinstance(operand, tuple):
            yield from subterms(operand)


def distinct_subterms(terms):
    """The registers a batch of one arity needs when equal subterms share one."""
    return len({sub for term in terms for sub in subterms(term)})


def test_law_scan_batches_agree_with_single_calls():
    """Batches of 2..12 laws mixing arities 1..4: both twins agree, each
    witness is the law's witness when scanned alone, and one law that no
    call can scan in mid-batch makes both raise."""
    c = c_backend()
    rng = random.Random(16)
    library = library_laws()
    arities, witnesses = set(), set()
    inputs = [args for args in law_inputs() if args[0] <= 8]
    for n, up, down, tables in inputs[::2]:

        def scan(twin, suite):
            try:
                return twin.law_scan(n, up, down, tables, plan_of(twin, suite))
            except ValueError:
                return ValueError

        alone = {law: scan(py, [law])[0] for law in library}
        malformed = []
        while len(alone) < len(library) + 20 or not malformed:
            arity = rng.randrange(1, 5)
            law = (arity, random_term(rng, arity, 3))
            got = scan(py, [law])
            assert scan(c, [law]) == got, law
            if got is ValueError:
                malformed.append(law)
            else:
                alone[law] = got[0]
        pool = list(alone)
        for _ in range(8):
            batch = rng.choices(pool, k=rng.randrange(2, 13))
            want = [alone[law] for law in batch]
            assert scan(c, batch) == scan(py, batch) == want, batch
            arities.update(arity for arity, _ in batch)
            witnesses.update(w is None for w in want)
            batch.insert(rng.randrange(1, len(batch)), rng.choice(malformed))
            assert scan(c, batch) is scan(py, batch) is ValueError, batch
    assert arities == {1, 2, 3, 4} and witnesses == {True, False}

    # the residuation axioms, the derived laws i-ix and the basis in one
    # call on bool3 with its passing residuation, and random terms until
    # the arity-3 group shares more than 64 registers
    n, up, down, tables = inputs[4]
    assert n == 8
    named = [laws.COMMUTATIVE, laws.UNIT, laws.MONOTONE, laws.ADJOINT_FORWARD,
             laws.ADJOINT_BACKWARD] + [law for _, law in laws.DERIVED + laws.BASIS]
    batch = [(law.arity, law.term) for law in named]
    while distinct_subterms([term for arity, term in batch if arity == 3]) <= 64:
        law = (3, random_term(rng, 3, 3))
        try:
            py.law_scan(n, up, down, tables, plan_of(py, [law]))
        except ValueError:
            continue
        batch.append(law)
    want = [py.law_scan(n, up, down, tables, plan_of(py, [law]))[0] for law in batch]
    assert want[:5] == [None] * 5
    for twin in (c, py):
        assert twin.law_scan(n, up, down, tables, plan_of(twin, batch)) == want


def first_failure(p, arity, fails):
    """The least tuple in p.topo order at which fails holds, or None."""
    return next((t for t in itertools.product(p.topo, repeat=arity) if fails(*t)), None)


def outer_variables(n, arity):
    """How many outer variables the compiled twin scans arity's tuples with:
    the innermost variables whose tuples fit in 64 row positions are rows."""
    first, count = arity - 1, n
    while first > 0 and count * n <= 64:
        first, count = first - 1, count * n
    return first


def test_law_scan_recomputes_only_what_moved():
    """Laws whose term reads only outer variables, only row variables, both
    or none, in one batch, on every row/outer split of arities 3 and 4.

    Table 1 is false only at (top, top), so a law that tests the meet
    of some variables there fails only where all of them are top, the last
    element in topological order: for the outer variables, only at the
    last outer step.  A register left stale when a variable it reads moves,
    or a result not tested where it changes, gives a wrong or missing
    witness against first_failure's brute force.
    """
    c = c_backend()
    top, bottom = laws.top, laws.bottom
    splits = set()
    for p in law_structures(random.Random(14)):
        if p.n > 16:
            continue
        tables = (as_lattice(p).meet,
                  [[int(not x == y == p.top) for y in range(p.n)] for x in range(p.n)])
        for arity in (3, 4):
            first = outer_variables(p.n, arity)
            splits.add((arity, first))
            outer, rows, every = range(first), range(first, arity), range(arity)
            cases = [((arity, laws.eq(top, top)), lambda *t: False),
                     ((arity, table(1, top, top)), lambda *t: True),
                     ((arity, table(1, top, bottom)), lambda *t: p.top == p.bottom)]
            for vs in (outer, rows, every, outer[-1:], (0, arity - 1)):
                if vs:
                    meet = fold(0, [("var", v) for v in vs])
                    cases += [
                        ((arity, table(1, meet, top)),
                         lambda *t, vs=vs: all(t[v] == p.top for v in vs)),
                        ((arity, laws.leq(meet, top)), lambda *t: False),
                    ]
            suite = [law for law, _ in cases]
            want = [first_failure(p, arity, fails) for _, fails in cases]
            args = (p.n, p.up, p.down, tables)
            assert c.law_scan(*args, plan_of(c, suite)) == \
                py.law_scan(*args, plan_of(py, suite)) == want, (p.up, arity)
            assert [c.law_scan(*args, plan_of(c, [law]))[0] for law in suite] == want
    assert splits == {(3, 0), (3, 1), (3, 2), (4, 0), (4, 1), (4, 2), (4, 3)}


def test_kernels_derive_the_topological_order_top_and_bottom():
    """lattice_tables and law_scan take an order as (n, up, down) alone.

    On every poset of the n <= 6 catalog, as enumerated and with its labels
    reversed, and on bool6 and chain64, both twins agree, result types
    included; each scans Poset.topo, as the oracles that loop over it do;
    and constant 0 is the top and 1 the bottom, or, when the order lacks
    it, a law that reads it raises ValueError in both twins.
    """
    c = c_backend()
    leq, eq, top, bottom = laws.leq, laws.eq, laws.top, laws.bottom
    rng = random.Random(22)
    catalog = (q for n in range(1, 7) for p in enumerate_structures(n, "all-posets").members
               for q in (p, o.relabeled(p, range(n - 1, -1, -1))))
    wide = (fixture(name).poset for name in ("bool6", "chain64"))
    bounds = set()
    for p in itertools.chain(catalog, wide):
        # truth values with about one cell in eight false, so that the
        # least false tuple depends on a long prefix of the order
        truth = [[int(rng.random() >= 0.125) for _ in range(p.n)] for _ in range(p.n)]
        order = [
            ((2, table(0, x0, x1)), 2, lambda x, y: not truth[x][y]),
            ((3, laws.both(table(0, x0, x1), table(0, x1, x2))), 3,
             lambda x, y, z: not truth[x][y] & truth[y][z]),
            ((2, leq(x0, x1)), 2, lambda x, y: not p.leq(x, y)),
        ]
        # (the constant each group reads, or None when the order lacks it; the group)
        groups = (
            ("none", order),
            (p.top, [((1, eq(x0, top)), 1, lambda x: x != p.top),
                     ((1, leq(x0, top)), 1, lambda x: not p.leq(x, p.top))]),
            (p.bottom, [((1, eq(x0, bottom)), 1, lambda x: x != p.bottom),
                        ((1, leq(bottom, x0)), 1, lambda x: not p.leq(p.bottom, x))]),
        )
        bounds.add((p.top is not None, p.bottom is not None))
        args = (p.n, p.up, p.down)
        assert typed(c.lattice_tables(*args)) == typed(py.lattice_tables(*args))
        for twin in (c, py):
            assert tp.kernel_witness(twin, p) == o.not_a_lattice_by_rescan(p), p.up
        for end, cases in groups:
            suite = [law for law, _, _ in cases]
            if end is None:
                for twin in (c, py):
                    with pytest.raises(ValueError, match="operand out of range"):
                        twin.law_scan(*args, [truth], plan_of(twin, suite))
                    # one such law fails the whole batch
                    with pytest.raises(ValueError, match="operand out of range"):
                        twin.law_scan(*args, [truth], plan_of(twin, [order[0][0], suite[0]]))
                continue
            got = c.law_scan(*args, [truth], plan_of(c, suite))
            assert typed(got) == typed(py.law_scan(*args, [truth], plan_of(py, suite)))
            assert got == [first_failure(p, arity, fails) for _, arity, fails in cases], p.up
    # no top, no bottom, a bottom without a top, a top without a bottom, both
    assert bounds == {(False, False), (False, True), (True, False), (True, True)}


def test_kernels_reject_inputs_their_buffers_cannot_hold():
    c = c_backend()
    cases = (
        ("closure", 64, lambda n: (n, [0] * n)),
        ("lattice_tables", 64, lambda n: (n, [0] * n, [0] * n)),
        ("poset_star_table", 64, lambda n: (n, [0] * n, [0] * n)),
        ("poset_relative_table", 64, lambda n: (n, [0] * n, [0] * n)),
        ("operator_tables", 64, lambda n: (n, [0] * n, [0] * n)),
        ("rrl_scan", 64, lambda n: (n, [0] * n, 0) + ([0] * (n * n),) * 3),
        ("divisibility_scan", 64, lambda n: (n,) + ([0] * (n * n),) * 3),
        ("law_scan", 64, lambda n: (n, [0] * n, [0] * n, (), plan_of(c, ()))),
        ("enum_orders", 8, lambda n: (n, False)),
        ("canonical_keys", 8, lambda n: (n, [])),
        ("congruence_scan", 64, lambda n: (n, [], None)),
    )
    for kernel, most, args in cases:
        # both twins share the bound set by the packed order format of
        # 8-bit rows
        twins = (c, py) if most < 64 else (c,)
        for n in (-1, 0, most + 1, 200):
            for twin in twins:
                with pytest.raises(ValueError, match="supports 1 <= n <="):
                    getattr(twin, kernel)(*args(n))

    # a mask bit, table entry or top outside the carrier would index past
    # the fixed-size buffers, as would too few masks
    for bad in (
        lambda: c.closure(3, [8, 0, 0]),
        lambda: c.closure(3, [1, 2]),
        lambda: c.closure(64, [1 << 64] + [0] * 63),
        lambda: c.lattice_tables(2, [3, 2], [1, 4]),
        lambda: c.poset_star_table(2, [3, 2], [1, 4]),
        lambda: c.poset_relative_table(2, [3, 2], [1, 4]),
        lambda: c.poset_relative_table(2, [3, 6], [1, 3]),
        lambda: c.poset_relative_table(2, [3], [1, 3]),
        lambda: c.operator_tables(2, [3, 2], [1, 4]),
        lambda: c.operator_tables(2, [3, 6], [1, 3]),
        lambda: c.operator_tables(64, [1 << 64] + [0] * 63, [0] * 64),
        lambda: c.rrl_scan(2, [3, 2], 2, [0] * 4, [0] * 4, [0] * 4),
        lambda: c.rrl_scan(2, [3, 2], 1, [0] * 4, [0, 0, 0, 64], [0] * 4),
        lambda: c.divisibility_scan(2, [0] * 4, [0] * 4, [0, -1, 0, 0]),
        lambda: c.divisibility_scan(2, [0] * 3, [0] * 4, [0] * 4),
    ):
        with pytest.raises(ValueError):
            bad()

    # law_scan: every malformed table, and every law that only a call's
    # order and tables make malformed (law_compile rejects the others); the
    # pure twin takes wider carriers, but no empty one
    chain3 = fixture("chain3").poset
    join = as_lattice(chain3).join
    masks = (chain3.up, chain3.down)

    def scan(twin, tables=(join,), law=(2, table(0, x0, x1)), n=3):
        return twin.law_scan(n, *masks, tables, plan_of(twin, [law]))

    for twin in (c, py):
        assert scan(twin) == [(0, 0)]  # join(0, 0) = 0 reads as a failure
        for n in (-1, 0):
            with pytest.raises(ValueError, match="supports 1 <= n"):
                scan(twin, n=n)
        for bad in (
            dict(tables=([[0, 0, 0], [0, 0, 0], [0, 0, 5]],),   # an entry used as an index
                 law=(2, fold(0, [x0, x1, x1]))),
            dict(tables=([[0, 0, 0], [0, -1, 0], [0, 0, 0]],)),  # an entry that is no mask
            dict(tables=([[0, 0, 0], [0, 0, 0], [0, 0, 8]],)),   # a mask outside the carrier
            dict(tables=([[0, 0], [0, 0]],)),                    # a table narrower than n
            dict(tables=([[0, 0, 0], [0, 0], [0, 0, 0]],)),      # a ragged table
            dict(tables=(join,) * 9),                            # nine tables
            dict(law=(2, table(1, x0, x1))),                     # an absent table
            dict(law=(1, laws.up(laws.up(x0)))),                 # a mask used as an index
            dict(law=(1, laws.leq(laws.up(x0), x0))),
        ):
            with pytest.raises(ValueError):
                scan(twin, **bad)

    # at n = 64 an entry may be the full mask 2^64 - 1; used as an index, it
    # must still be caught
    wide = fixture("bool6").poset
    ones = [[(1 << 64) - 1] * 64 for _ in range(64)]
    for twin in (c, py):
        for term in (fold(0, [x0, x0, x0]), laws.up(table(0, x0, x0)),
                     laws.leq(table(0, x0, x0), x0)):
            with pytest.raises(ValueError):
                twin.law_scan(64, wide.up, wide.down, [ones], plan_of(twin, [(1, term)]))
        plan = plan_of(twin, [(1, table(0, x0, x0))])
        assert twin.law_scan(64, wide.up, wide.down, [ones], plan) == [None]

    # congruence_scan: a cell outside the carrier, a ragged or short table,
    # or one outside the carrier; the pure twin takes wider carriers
    for twin in (c, py):
        for n in (-1, 0):
            with pytest.raises(ValueError, match="supports 1 <= n"):
                twin.congruence_scan(n, [], None)
        for tables, one in (([[[0, 2], [0, 0]]], None), ([[[0, -1], [0, 0]]], None),
                            ([[[0, 1], [0]]], None), ([[[0, 1]]], None),
                            ([[[0, 1, 1], [0, 0]]], None), ([[[0, 1], [1, 0]], [[0]]], 0),
                            ([], 2), ([], -1)):
            with pytest.raises(ValueError):
                twin.congruence_scan(2, tables, one)

    # a packed order with a row bit outside the carrier, a bit above row
    # n-1, a negative word or one wider than 64 bits
    for twin in (c, py):
        for n, word in ((3, 1 << 3), (3, 1 << 24), (3, -1), (8, 1 << 64)):
            with pytest.raises(ValueError, match="within the"):
                twin.canonical_keys(n, [1, word])


LIBRARY_SUITES = ("LATTICE", "CANDIDATE", "HALF_ADJOINT", "OPERATOR", "OPERATOR_WITHOUT_BOTTOM")


def test_library_suites_are_every_suite_in_laws():
    """No suite the library scans can skip the tests that walk LIBRARY_SUITES."""
    bound = {name for name, value in vars(laws).items() if isinstance(value, laws.Suite)}
    assert set(LIBRARY_SUITES) == bound


def test_library_suites_share_every_subterm():
    """law_run's speed rests on one register per distinct subterm: each
    library suite's batches hold exactly its distinct subterms, and each
    law's result is the register of its term's head."""
    for name in LIBRARY_SUITES:
        suite = getattr(laws, name)
        checks = suite.laws
        registers, results = suite.compiled
        assert [len(batch) for batch in registers] == [
            distinct_subterms([law.term for law in checks if law.arity == arity])
            for arity in range(1, 5)], name
        assert [arity for arity, _ in results] == [law.arity for law in checks]
        for law, (arity, r) in zip(checks, results):
            assert kernels.LAW_OPS[registers[arity - 1][r][0]] == law.term[0]


def test_law_compile_rejects_each_static_fault():
    """Every check that reads no call's inputs is made once, by law_compile,
    for both twins, with its message; one bad law rejects its suite."""
    eq = laws.eq
    good = (2, table(0, x0, x1))
    head = "a law term is a tuple headed by one of LAW_OPS"
    for law, error in (
        ((0, x0), "arity must lie in 1..4"), ((5, x0), "arity must lie in 1..4"),
        ((2, ("join", x0, x1)), head), ((2, ()), head), ((2, eq(x0, 3)), head),
        ((2, ["var", 0]), head),
        ((2, ("var",)), r"var takes 1 operand\(s\), not 0"),
        ((2, ("var", 0, 1)), r"var takes 1 operand\(s\), not 2"),
        ((2, ("table", 0, x0)), r"table takes 3 operand\(s\), not 2"),
        ((2, ("up", x0, x1)), r"up takes 1 operand\(s\), not 2"),
        ((2, ("eq", x0)), r"eq takes 2 operand\(s\), not 1"),
        ((2, ("var", 2)), "operand out of range: var 2"),
        ((2, ("var", 0.0)), "operand out of range: var 0.0"),
        ((2, ("const", 2)), "operand out of range: const 2"),
        ((2, ("const", -1)), "operand out of range: const -1"),
        ((2, table(8, x0, x1)), "operand out of range: table 8"),
        ((2, table(x0, x0, x1)), r"operand out of range: table \('var', 0\)"),
        ((1, ups(64)), "at most 64 nodes"),               # 65 nodes
        ((1, fold(0, [x0] * 33)), "at most 64 nodes"),    # 65 nodes, 33 deep
    ):
        for suite in ([law], [good, law]):
            with pytest.raises(ValueError, match=error):
                law_compile(suite)
            with pytest.raises(ValueError, match=error):
                kernels.LawSuite(suite)
    for suite in ([(1.0, x0)], [5], [("var", 0)]):
        with pytest.raises(TypeError):
            law_compile(suite)
    # 64 nodes compile
    assert len(law_compile([(1, ups(63))])[0][0]) == 64


def test_law_plan_reads_only_well_formed_suites():
    """The compiled twin's reader is a trust boundary: a malformed compiled
    suite raises ValueError or TypeError, never crashes, and law_scan takes
    nothing but a plan that law_plan made."""
    import datetime

    c = c_backend()
    var, table_, up, down, subset = (kernels.LAW_OPS.index(op) for op in (
        "var", "table", "up", "down", "subset"))
    compiled = law_compile([(2, table(0, x0, x1)),
                               (1, laws.within(laws.up(x0), laws.down(x0)))])
    # x0, up(x0), down(x0), up(x0) within down(x0); x0, x1, join[x0][x1]
    assert compiled == ((((var, 0, 0, 0), (up, 0, 0, 0), (down, 0, 0, 0), (subset, 0, 1, 2)),
                         ((var, 0, 0, 0), (var, 1, 0, 0), (table_, 0, 0, 1)), (), ()),
                        ((2, 2), (1, 3)))
    regs, results = compiled

    def with_register(arity, r, register):
        batch = list(regs[arity - 1])
        batch[r] = register
        return tuple(tuple(batch) if a == arity - 1 else b for a, b in enumerate(regs)), results

    chain3 = fixture("chain3").poset
    join = as_lattice(chain3).join
    assert c.law_scan(3, chain3.up, chain3.down, [join], c.law_plan(compiled)) == \
        py.law_scan(3, chain3.up, chain3.down, [join], py.law_plan(compiled))
    malformed = [
        with_register(2, 2, (2, 0, 2, 1)),      # an operand naming its own register
        with_register(2, 2, (2, 0, 0, 3)),      # or a later one
        with_register(2, 2, (2, 0, -1, 1)),
        with_register(2, 2, (9, 0, 0, 1)),      # no op 9
        with_register(2, 2, (-1, 0, 0, 1)),
        with_register(2, 1, (0, 2, 0, 0)),      # variable 2 of arity 2
        with_register(2, 1, (1, 2, 0, 0)),      # constant 2
        with_register(2, 1, (1, -1, 0, 0)),
        with_register(2, 2, (2, 8, 0, 1)),      # table 8
        with_register(2, 2, (5, 1, 0, 1)),      # an arg for an op that takes none
        with_register(2, 1, (0, 1, 1, 0)),      # a leaf with an operand
        with_register(1, 2, (down, 0, 0, 1)),   # down with two operands
        with_register(2, 2, (2, 1 << 40, 0, 1)),
        (regs, ((2, 3), (1, 3))),               # results out of range
        (regs, ((2, -1), (1, 3))),
        (regs, ((5, 0), (1, 3))),
        (regs, ((0, 0), (1, 3))),
        (regs, ((2, 2), (1, 4))),
        ((regs[1], regs[0], (), ()), results),  # a result in a batch too short
    ]
    for bad in malformed:
        with pytest.raises(ValueError):
            c.law_plan(bad)
    for bad in (None, [regs, results], (regs,), (regs, results, ()), (regs[:3], results),
                (regs, [(2, 2)]), (regs, ((2, 2.0), (1, 3))), (regs, ((2,), (1, 3))),
                with_register(2, 2, (2, 0, 0)), with_register(2, 2, [2, 0, 0, 1]),
                with_register(2, 2, (2, 0, 0, 1.0)), with_register(2, 2, (2, "0", 0, 1)),
                ((regs[0], list(regs[1]), (), ()), results)):
        with pytest.raises((TypeError, ValueError)):
            c.law_plan(bad)
    with pytest.raises(TypeError):
        c.law_plan(compiled, compiled)

    # random edits of a library suite's compiled form: the reader refuses
    # each, or both twins run the plan alike
    rng = random.Random(23)
    regs, results = laws.CANDIDATE.compiled
    # the candidate's own tables, join, mult and imp, and no meet
    inputs = [(*args[:3], (args[3][0], (), *args[3][2:4])) for args in law_inputs()
              if args[0] == 8][:2]
    outcomes = set()
    for _ in range(400):
        batches, outs = [list(batch) for batch in regs], list(results)
        for _ in range(rng.randrange(1, 4)):
            value = rng.choice((rng.randrange(-2, 12), rng.randrange(64), 1 << 33))
            if rng.random() < 0.8:
                batch = rng.choice([b for b in batches if b])
                r = rng.randrange(len(batch))
                register = list(batch[r])
                register[rng.randrange(4)] = value
                batch[r] = tuple(register)
            else:
                p = rng.randrange(len(outs))
                outs[p] = (value, outs[p][1]) if rng.random() < 0.5 else (outs[p][0], value)
        edited = tuple(map(tuple, batches)), tuple(outs)
        try:
            plan = c.law_plan(edited)
        except ValueError:
            outcomes.add("refused")
            continue
        for args in inputs:
            got = [law_scan_outcome(twin, args, p) for twin, p in
                   ((c, plan), (py, py.law_plan(edited)))]
            assert got[0] == got[1], edited
            outcomes.add("error" if got[0] is ValueError else "ran")
    assert outcomes == {"refused", "error", "ran"}

    # law_scan takes a plan that its own twin's law_plan made, and a plan
    # outlives the compiled form it was read from
    py_plan = py.law_plan(compiled)
    args = (3, chain3.up, chain3.down, [join])
    for twin, bad in ((c, None), (c, compiled), (c, py_plan), (c, datetime.datetime_CAPI),
                      (py, c.law_plan(compiled)), (py, compiled), (py, None)):
        with pytest.raises(TypeError):
            twin.law_scan(*args, bad)
    plan = c.law_plan(law_compile([(2, table(0, x0, x1))]))
    gc.collect()
    assert c.law_scan(*args, plan) == [(0, 0)]


def test_each_twin_scans_with_its_own_plan_of_a_suite(monkeypatch):
    """The dispatcher hands the compiled twin the suite's capsule and the
    pure twin, on carriers wider than 64, its loops; the same plan on every
    call."""
    c = c_backend()
    seen = []
    for twin in (c, py):
        monkeypatch.setattr(twin, "law_scan", lambda *args, twin=twin, scan=twin.law_scan:
                            seen.append((twin, args[4])) or scan(*args))
    names = tuple(f"c{i}" for i in range(70))
    for p in (fixture("chain3").poset, fixture("bool3").poset,
              make_poset(names, tuple(zip(names, names[1:])), max_size=128)):
        as_lattice(p).found
    suite = laws.LATTICE
    assert seen == [(c, suite.c_plan), (c, suite.c_plan), (py, suite.py_plan)]


def test_a_process_on_the_compiled_twin_never_generates_loops():
    """The pure twin's plan of a suite is made on its first use, so checks
    that all run on the compiled twin make none, and never run exec."""
    code = ("import builtins, ordalg\n"
            "from ordalg import laws\n"
            "builtins.exec = None\n"
            "lat = ordalg.as_lattice(ordalg.fixture('bool3').poset)\n"
            "cand = ordalg.from_sectional(lat, ordalg.synthesize_sectional(lat))\n"
            "assert ordalg.check_residuation(cand) and ordalg.classify(lat.poset, lat)\n"
            f"print([name for name in {LIBRARY_SUITES} if 'py_plan' in vars(getattr(laws, name))])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, ORDALG_BACKEND="c"))
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_the_pure_twin_loads_only_for_a_call_it_serves():
    """On the compiled twin, the CLI module and checks within 64 elements
    never import the pure twin; a 65-element chain imports it, with the
    answers it gives in this process."""
    code = ("import sys, ordalg, ordalg.cli\n"
            "from ordalg import classify, make_poset, star_table_poset\n"
            "lat = ordalg.as_lattice(ordalg.fixture('bool6').poset)\n"
            "cand = ordalg.from_sectional(lat, ordalg.synthesize_sectional(lat))\n"
            "assert ordalg.check_residuation(cand) and classify(lat.poset, lat)\n"
            "print('ordalg._kernels._core_py' in sys.modules)\n"
            "names = tuple(f'c{i}' for i in range(65))\n"
            "p = make_poset(names, tuple(zip(names, names[1:])), max_size=100)\n"
            "print('ordalg._kernels._core_py' in sys.modules)\n"
            "print(repr(classify(p)))\n"
            "print(star_table_poset(p).table)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, ORDALG_BACKEND="c"))
    assert out.returncode == 0, out.stderr
    names = tuple(f"c{i}" for i in range(65))
    p = make_poset(names, tuple(zip(names, names[1:])), max_size=100)
    assert out.stdout.splitlines() == ["False", "True", repr(classify(p)),
                                       str(py.poset_star_table(p.n, p.up, p.down)[0])]


def test_env_var_selects_backend():
    code = "from ordalg import _kernels; print(_kernels.BACKEND)"
    for choice, expect in (("py", "py"), ("c", "c"), ("auto", "c")):
        env = dict(os.environ, ORDALG_BACKEND=choice)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == expect
    env = dict(os.environ, ORDALG_BACKEND="fortran")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert out.returncode != 0


def test_wide_carriers_route_to_pure_backend():
    names = tuple(f"c{i}" for i in range(70))
    p = make_poset(names, tuple(zip(names, names[1:])), max_size=128)
    assert p.n == 70
    assert p.leq(0, 69) and not p.leq(69, 0)
    star = star_table_poset(p)
    assert star.is_total
    # chains: x*y is the top above y, else y itself
    assert star.value(5, 5) == 69
    assert star.value(9, 4) == 4
    # x*y = x: every partition is a congruence, so all three criteria fail
    proj = BinOp(70, tuple((x,) * 70 for x in range(70)))
    alg = FiniteAlgebra.build(p, {"*": proj}, {"one": 69})
    assert check_permutable(alg).witness[2] == (0, 2)
    assert not check_congruence_distributive(alg)
    assert not check_weakly_regular(alg)
