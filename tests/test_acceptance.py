"""Acceptance criteria, one test and one printed pass/fail line each.

The lines appear in the terminal summary after the run (and inline
under ``-s``); timing bounds use the best of several repetitions of
the core call.
"""

import time

from ordalg import (
    BinOp,
    ResiduationCandidate,
    adjointness_solutions,
    all_congruences,
    as_lattice,
    canonical_operators,
    check_congruence_distributive,
    check_divisibility,
    check_operator_axioms,
    check_permutable,
    check_residuation,
    check_weakly_regular,
    classify,
    derived_laws,
    direct_product,
    enumerate_structures,
    fixture,
    from_sectional,
    is_meet_semidistributive,
    operator_derived_laws,
    relative_pc,
    relative_pc_poset,
    relative_table_poset,
    sectional_pc_lattice,
    sectional_pc_poset,
    star_table_poset,
    synthesize_sectional,
)
from ordalg.poset import _order_tables
from ordalg.pseudocomplement import FailureWitness

from oracles import all_partitions, congruence_oracle, lattice_algebra
from test_congruence import chain_algebra


def _best_ms(fn, repeats=5):
    best = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        dt = (time.perf_counter() - t0) * 1000.0
        best = dt if best is None else min(best, dt)
    return best


RESULTS = []


def _report(num, label, problems, ms=None, limit_ms=None):
    status = "PASS" if not problems else "FAIL"
    timing = ""
    if ms is not None:
        # sub-millisecond timings in µs, so that they do not read 0.00 ms
        spent = f"{ms * 1000:.1f} µs" if ms < 1 else f"{ms:.2f} ms"
        timing = f"  ({spent}, limit {limit_ms:g} ms)"
    line = f"criterion {num:2d} {status}  {label}{timing}"
    RESULTS.append((num, line))
    print(line)
    assert not problems, problems[:5]


def test_criterion_1_pentagon_sectional_table():
    fx = fixture("pentagon")
    lat = as_lattice(fx.poset)
    # each repeat builds the table: star_table_poset would keep the last one
    ms = _best_ms(lambda: (_order_tables.cache_clear(), synthesize_sectional(lat)))
    star = synthesize_sectional(lat)
    problems = []
    for a in range(5):
        for b in range(5):
            if star.value(a, b) != fx.star.value(a, b):
                problems.append(("cell", a, b))
    c, a = fx.poset.index("c"), fx.poset.index("a")
    if relative_pc(lat, c, a) is not None:
        problems.append("relative pseudocomplement unexpectedly defined")
    if ms >= 1.0:
        problems.append(f"too slow: {ms:.3f} ms")
    _report(1, "pentagon sectional table, 25 cells", problems, ms, 1.0)


def test_criterion_2_bowtie_tables():
    fx = fixture("bowtie")
    p = fx.poset
    ms = _best_ms(lambda: (_order_tables.cache_clear(), star_table_poset(p),
                           relative_table_poset(p)))
    star = star_table_poset(p)
    problems = []
    for a in range(6):
        for b in range(6):
            if star.value(a, b) != fx.star.value(a, b):
                problems.append(("cell", a, b))
            if sectional_pc_poset(p, a, b) != fx.star.value(a, b):
                problems.append(("pointwise", a, b))
    if not relative_table_poset(p).is_total:
        problems.append("relative table has gaps")
    if ms >= 10.0:
        problems.append(f"too slow: {ms:.3f} ms")
    _report(2, "bowtie sectional and relative tables", problems, ms, 10.0)


def test_criterion_3_chain_residuation_divisibility():
    fx = fixture("residuated-chain")
    lat = as_lattice(fx.poset)
    cand = ResiduationCandidate(lat, fx.mult, fx.imp)
    problems = []
    report = check_residuation(cand)
    if not report.passed:
        problems.append(("axioms", report.verdicts))
    if not check_divisibility(cand):
        problems.append("divisible with its own multiplication, yet reported not")
    meet = BinOp(3, tuple(tuple(r) for r in lat.meet))
    verdict = check_divisibility(ResiduationCandidate(lat, meet, fx.imp))
    if verdict:
        problems.append("meet-reading of divisibility unexpectedly holds")
    else:
        names = tuple(fx.poset.names[i] for i in verdict.witness)
        if names != ("a", "0"):
            problems.append(("meet-reading witness", names))
    _report(3, "chain residuation axioms and both divisibility readings", problems)


LATTICE_SIZES = range(2, 7)
EXPECTED_LATTICE_COUNTS = {2: 1, 3: 1, 4: 2, 5: 5, 6: 15}

_SWEEP = {}


def _lattice_sweep():
    if _SWEEP:
        return _SWEEP
    t0 = time.perf_counter()
    records = []
    counts = {}
    for n in LATTICE_SIZES:
        members = enumerate_structures(n, "lattices-with-top").members
        counts[n] = len(members)
        for p in members:
            lat = as_lattice(p)
            rec = {"p": p, "lat": lat, "star": synthesize_sectional(lat)}
            if isinstance(rec["star"], BinOp):
                cand = from_sectional(lat, rec["star"])
                rec["cand"] = cand
                rec["report"] = check_residuation(cand)
                rec["div"] = check_divisibility(cand)
            records.append(rec)
    _SWEEP["records"] = records
    _SWEEP["counts"] = counts
    _SWEEP["ms"] = (time.perf_counter() - t0) * 1000.0
    return _SWEEP


def _no_residual_seed(lat, a, b):
    """True when no element can play a -> b: the biconditional
    (a v b) ^ (c v b) = b  iff  c v b <= d  fails for every d."""
    p = lat.poset
    join, meet = lat.join, lat.meet
    ab = join[a][b]
    for d in range(p.n):
        if all(
            (meet[ab][join[c][b]] == b) == p.leq(join[c][b], d)
            for c in range(p.n)
        ):
            return False
    return True


def test_criterion_4_sectional_iff_residuable():
    sweep = _lattice_sweep()
    problems = []
    if sweep["counts"] != EXPECTED_LATTICE_COUNTS:
        problems.append(("catalog counts", sweep["counts"]))
    for rec in sweep["records"]:
        if isinstance(rec["star"], BinOp):
            if not rec["report"].passed:
                problems.append(("axioms fail", rec["p"].up))
            if not rec["div"]:
                problems.append(("not divisible", rec["p"].up))
        else:
            a, b = rec["star"].pair
            if not _no_residual_seed(rec["lat"], a, b):
                problems.append(("residual seed exists without sectional pc", rec["p"].up))
    ms = sweep["ms"]
    if ms >= 10_000:
        problems.append(f"too slow: {ms:.0f} ms")
    _report(4, "sectional pseudocomplements iff relative residuation, 24 lattices",
            problems, ms, 10_000)


def test_criterion_5_meet_semidistributive_iff_synthesizable():
    sweep = _lattice_sweep()
    problems = []
    for rec in sweep["records"]:
        msd = bool(is_meet_semidistributive(rec["lat"]))
        total = isinstance(rec["star"], BinOp)
        if msd != total:
            problems.append((rec["p"].up, msd, total))
    _report(5, "meet-semidistributivity iff total sectional table", problems)


def test_criterion_6_derived_law_regression():
    sweep = _lattice_sweep()
    fixtures = []
    for name in ("pentagon",):
        fx = fixture(name)
        lat = as_lattice(fx.poset)
        fixtures.append(from_sectional(lat, fx.star))
    chain = fixture("residuated-chain")
    fixtures.append(ResiduationCandidate(as_lattice(chain.poset), chain.mult, chain.imp))
    problems = []
    candidates = [
        rec["cand"] for rec in sweep["records"] if "cand" in rec and rec["report"].passed
    ]
    for cand in candidates + fixtures:
        report = check_residuation(cand)
        if not report.passed:
            problems.append(("axioms", cand.lattice.poset.up))
            continue
        laws = derived_laws(cand, report)
        if sorted(laws) != ["i", "ii", "iii", "iv", "ix", "v", "vi", "vii", "viii"]:
            problems.append(("laws missing", sorted(laws)))
        for key, verdict in laws.items():
            if not verdict:
                problems.append((key, cand.lattice.poset.up, verdict.witness))
    _report(6, f"derived laws i-ix on {len(candidates) + 2} passing structures",
            problems)


def test_criterion_7_congruence_properties():
    t0 = time.perf_counter()
    pent = fixture("pentagon")
    pure = lattice_algebra(pent.poset)
    with_star = lattice_algebra(pent.poset, star=pent.star)
    chain = chain_algebra()
    problems = []
    for label, alg in (("with star", with_star), ("chain", chain)):
        if not check_permutable(alg):
            problems.append((label, "not permutable"))
        if not check_congruence_distributive(alg):
            problems.append((label, "not congruence distributive"))
        if not check_weakly_regular(alg):
            problems.append((label, "not weakly regular"))
    wr = check_weakly_regular(pure)
    if wr:
        problems.append("pure lattice unexpectedly weakly regular")
    else:
        theta, phi = wr.witness
        one = pure.constant("one")
        if theta.block_of(one) != phi.block_of(one):
            problems.append("witness congruences have different blocks of one")
    if len(all_partitions(5)) != 52:
        problems.append("partition oracle miscounts")
    for label, alg, count in (
        ("pure", pure, 5), ("with star", with_star, 3), ("chain", chain, 2),
    ):
        congs = all_congruences(alg)
        if len(congs) != count or congs != congruence_oracle(alg):
            problems.append((label, "congruence lattice mismatch", len(congs)))
    ms = (time.perf_counter() - t0) * 1000.0
    if ms >= 1000:
        problems.append(f"too slow: {ms:.0f} ms")
    _report(7, "permutability, distributivity, weak regularity, counts",
            problems, ms, 1000)


def test_criterion_8_operator_residuation():
    t0 = time.perf_counter()
    problems = []
    for name in ("bowtie", "pentagon"):
        fx = fixture(name)
        op = canonical_operators(fx.poset, fx.star)
        report = check_operator_axioms(op, exhaustive_subsets=True)
        if not report.passed:
            problems.append((name, "axioms", [k for k, v in report.verdicts if not v]))
            continue
        laws = operator_derived_laws(op, report)
        if sorted(laws) != ["i", "ii", "iii", "iv", "v"]:
            problems.append((name, "laws missing", sorted(laws)))
        for key, verdict in laws.items():
            if not verdict:
                problems.append((name, key, verdict.witness))
    checked = 0
    for n in range(1, 6):
        for p in enumerate_structures(n, "posets-with-top").members:
            star = star_table_poset(p)
            checked += 1
            for a in range(p.n):
                for b in range(p.n):
                    sols = adjointness_solutions(p, a, b)
                    cell = star.value(a, b)
                    expect = () if cell is None else (cell,)
                    if sols != expect:
                        problems.append((p.up, a, b, sols, cell))
    ms = (time.perf_counter() - t0) * 1000.0
    if ms >= 30_000:
        problems.append(f"too slow: {ms:.0f} ms")
    _report(8, f"operator axioms and laws; seed equivalence on {checked} posets",
            problems, ms, 30_000)


def test_criterion_9_product_classification():
    t0 = time.perf_counter()
    bow = fixture("bowtie").poset
    pent = fixture("pentagon").poset
    prod = direct_product(bow, pent)
    rep = classify(prod)
    problems = []
    if not rep.is_sectionally_pc:
        problems.append("product not sectionally pseudocomplemented")
    if rep.is_relatively_pc:
        problems.append("product unexpectedly relatively pseudocomplemented")
    if rep.is_lattice:
        problems.append("product unexpectedly a lattice")
    gap = tuple(pent.index(x) for x in ("c", "a"))
    w = rep.witnesses["is_relatively_pc"]
    if (w[0] % pent.n, w[1] % pent.n) != gap:
        problems.append(("witness projection", tuple(prod.names[i] for i in w)))
    for u in range(prod.n):
        for v in range(prod.n):
            undefined = relative_pc_poset(prod, u, v) is None
            projects = (u % pent.n, v % pent.n) == gap
            if undefined != projects:
                problems.append(("pair", prod.names[u], prod.names[v]))
    ms = (time.perf_counter() - t0) * 1000.0
    if ms >= 5000:
        problems.append(f"too slow: {ms:.0f} ms")
    _report(9, "product of bowtie and pentagon, 900 pairs", problems, ms, 5000)


def test_criterion_10_oracle_agreement():
    problems = []
    algebras = []
    for n in range(1, 6):
        for p in enumerate_structures(n, "lattices").members:
            algebras.append(lattice_algebra(p))
            star = synthesize_sectional(as_lattice(p))
            if isinstance(star, BinOp):
                algebras.append(lattice_algebra(p, star=star))
    pent = fixture("pentagon")
    algebras.append(lattice_algebra(pent.poset, star=pent.star))
    algebras.append(chain_algebra())
    for alg in algebras:
        if all_congruences(alg) != congruence_oracle(alg):
            problems.append(("congruences differ", alg.poset.up, alg.op_names()))
    lattices = 0
    for n in range(1, 7):
        for p in enumerate_structures(n, "lattices").members:
            lat = as_lattice(p)
            lattices += 1
            for a in range(p.n):
                for b in range(p.n):
                    if sectional_pc_lattice(lat, a, b) != sectional_pc_poset(p, a, b):
                        problems.append(("route disagreement", p.up, a, b))
    _report(10, f"oracle agreement: {len(algebras)} algebras, {lattices} lattices",
            problems)
