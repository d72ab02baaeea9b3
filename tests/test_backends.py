"""Differential checks: compiled kernels against the pure Python twins.

The heavy exhaustive sweep lives in the benchmarks; these tests keep a
condensed version in the default run so a miscompiled kernel cannot hide.
"""

import itertools
import os
import random
import subprocess
import sys

import pytest

from ordalg import _kernels as kernels
from ordalg import (
    as_lattice,
    enumerate_structures,
    fixture,
    from_sectional,
    make_poset,
    star_table_poset,
    synthesize_sectional,
)

pytestmark = pytest.mark.skipif(
    not kernels.HAVE_C, reason="compiled backend not built"
)

py = kernels._py


def c_backend():
    from ordalg._kernels import _core_c

    return _core_c


def test_enum_orders_identical():
    c = c_backend()
    # n = 7 builds the largest poset catalog
    for n in range(1, 8):
        for lattices in (False, True):
            assert list(c.enum_orders(n, lattices)) == list(py.enum_orders(n, lattices))


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
    for p in itertools.chain(catalog, wide):
        args = (p.n, list(p.up), list(p.down))
        assert c.lattice_tables(*args) == py.lattice_tables(*args)
        assert c.poset_star_table(*args) == py.poset_star_table(*args)


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


def test_kernels_reject_inputs_their_buffers_cannot_hold():
    c = c_backend()
    cases = (
        ("closure", 64, lambda n: (n, [0] * n)),
        ("lattice_tables", 64, lambda n: (n, [0] * n, [0] * n)),
        ("poset_star_table", 64, lambda n: (n, [0] * n, [0] * n)),
        ("rrl_scan", 64, lambda n: (n, [0] * n, 0) + ([0] * (n * n),) * 3),
        ("divisibility_scan", 64, lambda n: (n,) + ([0] * (n * n),) * 3),
        ("enum_orders", 8, lambda n: (n, False)),
        ("canonical_keys", 8, lambda n: (n, [])),
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
        lambda: c.rrl_scan(2, [3, 2], 2, [0] * 4, [0] * 4, [0] * 4),
        lambda: c.rrl_scan(2, [3, 2], 1, [0] * 4, [0, 0, 0, 64], [0] * 4),
        lambda: c.divisibility_scan(2, [0] * 4, [0] * 4, [0, -1, 0, 0]),
        lambda: c.divisibility_scan(2, [0] * 3, [0] * 4, [0] * 4),
    ):
        with pytest.raises(ValueError):
            bad()

    # a packed order with a row bit outside the carrier, a bit above row
    # n-1, a negative word or one wider than 64 bits
    for twin in (c, py):
        for n, word in ((3, 1 << 3), (3, 1 << 24), (3, -1), (8, 1 << 64)):
            with pytest.raises(ValueError, match="within the"):
                twin.canonical_keys(n, [1, word])


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
