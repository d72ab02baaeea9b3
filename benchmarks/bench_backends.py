"""Timing comparison of the compiled kernels against the pure Python twins.

Run as a script::

    python benchmarks/bench_backends.py [--repeats N]

Each kernel runs on a fixed workload with both backends; the table shows
the best wall time per backend and the speedup.  Every repeat times one
pure call and then one compiled call, so a slowdown of the host lands on
both columns alike.  A law scan takes a suite, and each backend is given
its own plan of it; every ``laws.Suite`` bound in ``ordalg.laws`` is
scanned.  Exits nonzero if any kernel pair disagrees on its result or its
type, or if a suite bound there has no law scan row.
"""

import argparse
import random
import sys
import time

from ordalg import (as_lattice, canonical_operators, direct_product, fixture, from_sectional,
                    laws, make_poset, star_table_poset, synthesize_sectional)
from ordalg._kernels import LawSuite, _core_py
from ordalg.operators import _mask_tables

try:
    from ordalg._kernels import _core_c
except ImportError:
    _core_c = None


def best_ms(calls, repeats):
    """Best wall time of each (function, arguments), calling them in turn within each repeat."""
    best = [float("inf")] * len(calls)
    for _ in range(repeats):
        for i, (fn, call_args) in enumerate(calls):
            t0 = time.perf_counter()
            fn(*call_args)
            best[i] = min(best[i], (time.perf_counter() - t0) * 1000.0)
    return best


def twin_args(call_args, twin):
    """The arguments for one backend: a law suite becomes that backend's plan of it."""
    if call_args and isinstance(call_args[-1], LawSuite):
        suite = call_args[-1]
        return call_args[:-1] + (suite.py_plan if twin is _core_py else suite.c_plan,)
    return call_args


def workloads():
    rng = random.Random(5)
    n = 60
    dag = [1 << i for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.15:
                dag[i] |= 1 << j
    yield "closure n=60", "closure", (n, dag)

    # the bowtie is as small as the orders of perfbench's sweep
    for name in ("bowtie", "bool6", "chain64"):
        p = fixture(name).poset
        yield f"poset index {name} n={p.n}", "poset_index", (p.n, p.up, False)

    cube = fixture("bool5").poset
    yield "lattice tables n=32", "lattice_tables", (cube.n, list(cube.up), list(cube.down))
    yield "star table n=32", "poset_star_table", (cube.n, list(cube.up), list(cube.down))
    yield "relative table n=32", "poset_relative_table", (cube.n, list(cube.up), list(cube.down))
    yield "operator tables n=32", "operator_tables", (cube.n, list(cube.up), list(cube.down))

    prod = direct_product(fixture("bowtie").poset, fixture("pentagon").poset)
    yield "lattice tables n=30 (non-lattice)", "lattice_tables", \
        (prod.n, list(prod.up), list(prod.down))
    yield "star table n=30 (non-lattice)", "poset_star_table", \
        (prod.n, list(prod.up), list(prod.down))
    yield "relative table n=30 (non-lattice)", "poset_relative_table", \
        (prod.n, list(prod.up), list(prod.down))
    yield "operator tables n=30 (non-lattice)", "operator_tables", \
        (prod.n, list(prod.up), list(prod.down))
    # the bowtie product's first failure is a join; two atoms under a top
    # times bool4 has no bottom, so its first failure is a meet, (0, 16)
    vee = make_poset(("a", "b", "1"), (("a", "1"), ("b", "1")))
    no_meet = direct_product(vee, fixture("bool4").poset)
    yield "lattice tables n=48 (meet failure)", "lattice_tables", \
        (no_meet.n, list(no_meet.up), list(no_meet.down))

    chain = fixture("chain40").poset
    lat = as_lattice(chain)
    cand = from_sectional(lat, synthesize_sectional(lat))
    args = (chain.n, list(chain.up), chain.top,
            lat.flat_join(), cand.mult.flat(), cand.imp.flat())
    yield "residuation scan n=40", "rrl_scan", args
    yield "divisibility scan n=40", "divisibility_scan", \
        (chain.n, lat.flat_join(), cand.mult.flat(), cand.imp.flat())

    # the law scans of the library on an 8-element lattice, where a call's
    # fixed costs outweigh its tuples: the five residuation axioms on the
    # lattice's sectional candidate
    small = fixture("bool3").poset
    small_lat = as_lattice(small)
    small_cand = from_sectional(small_lat, synthesize_sectional(small_lat))
    order = (small.n, small.up, small.down)
    lattice = (small_lat.join, small_lat.meet)
    candidate = (small_lat.join, (), small_cand.mult.table, small_cand.imp.table)
    yield "law scan n=8, residuation axioms", "law_scan", (*order, candidate, laws.Suite((
        laws.COMMUTATIVE, laws.UNIT, laws.MONOTONE, laws.ADJOINT_FORWARD, laws.ADJOINT_BACKWARD)))

    # every suite the library scans, on the tables the library scans it on:
    # the lattice suite and the residuation suites on bool3, the candidate
    # suite on bool6 too, and the operator suites on bool3 and, without a
    # bottom, on two atoms under a top times bool2
    yield "law scan n=8, laws.LATTICE", "law_scan", (*order, lattice, laws.LATTICE)
    for name in ("CANDIDATE", "HALF_ADJOINT"):
        yield f"law scan n=8, laws.{name}", "law_scan", (*order, candidate, getattr(laws, name))
    big = fixture("bool6").poset
    big_lat = as_lattice(big)
    big_cand = from_sectional(big_lat, synthesize_sectional(big_lat))
    yield "law scan n=64, laws.CANDIDATE", "law_scan", (
        big.n, big.up, big.down, (big_lat.join, (), big_cand.mult.table, big_cand.imp.table),
        laws.CANDIDATE)
    no_bottom = direct_product(vee, fixture("bool2").poset)
    for p, name in ((small, "OPERATOR"), (no_bottom, "OPERATOR_WITHOUT_BOTTOM")):
        mask_tables = _mask_tables(canonical_operators(p, star_table_poset(p)))
        yield f"law scan n={p.n}, laws.{name}", "law_scan", (
            p.n, p.up, p.down, [mask_tables.get(table, ()) for table in laws.TABLES],
            getattr(laws, name))

    # every lattice and residuation law at once; an implication that is top
    # everywhere makes most of them fail, several deep in the scan
    every = laws.Suite((
        laws.MODULAR, laws.DISTRIBUTIVE, laws.MEET_SEMIDISTRIBUTIVE, laws.COMMUTATIVE,
        laws.UNIT, laws.MONOTONE, laws.ADJOINT_FORWARD, laws.ADJOINT_BACKWARD, laws.DIVISIBLE,
        *(law for _, law in laws.DERIVED + laws.BASIS), laws.MONOTONE_RIGHT,
        laws.CURRYING))
    top_imp = ((chain.top,) * chain.n,) * chain.n
    for label, imp in (("passing", cand.imp.table), ("failing", top_imp)):
        tables = (lat.join, lat.meet, cand.mult.table, imp)
        yield f"law scan n=40, {label}", "law_scan", \
            (chain.n, chain.up, chain.down, tables, every)

    # principal congruences and the three verdicts of join/meet algebras;
    # chain16 fails permutability and weak regularity, bool4 passes
    for name in ("bool3", "chain16", "bool4"):
        p = fixture(name).poset
        lat = as_lattice(p)
        yield f"congruence scan {name} n={p.n}", "congruence_scan", \
            (p.n, [lat.join, lat.meet], p.top)

    yield "enumerate posets n=7", "enum_orders", (7, False)
    yield "enumerate lattices n=8", "enum_orders", (8, True)
    # n = 6, not 7: the pure twin needs seconds for the 96,428 orders at n = 7
    yield "canonical keys posets n=6", "canonical_keys", (6, _core_py.enum_orders(6, False))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)

    if _core_c is None:
        print("compiled backend not built; nothing to compare", file=sys.stderr)
        return 1

    rows = list(workloads())
    scanned = {call_args[-1] for _, kernel, call_args in rows if kernel == "law_scan"}
    unscanned = [name for name, value in vars(laws).items()
                 if isinstance(value, laws.Suite) and value not in scanned]
    if unscanned:
        print(f"library suites without a law scan row: {', '.join(unscanned)}", file=sys.stderr)
        return 1

    width = max(len(label) for label, _, _ in rows)
    print(f"{'workload':<{width}}  {'python':>10}  {'compiled':>10}  speedup")
    mismatches = 0
    for label, kernel, call_args in rows:
        calls = [(getattr(twin, kernel), twin_args(call_args, twin)) for twin in (_core_py, _core_c)]
        py_out, c_out = (fn(*fn_args) for fn, fn_args in calls)
        # the kernel contract fixes the result types, so a list where the
        # other twin returns a tuple is a disagreement too
        if not (py_out == c_out and type(py_out) is type(c_out)):
            mismatches += 1
            print(f"{label:<{width}}  RESULTS DISAGREE")
            continue
        py_ms, c_ms = best_ms(calls, args.repeats)
        ratio = py_ms / c_ms if c_ms > 0 else float("inf")
        print(f"{label:<{width}}  {py_ms:>8.2f}ms  {c_ms:>8.3f}ms  {ratio:>6.1f}x")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
