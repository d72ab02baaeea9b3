"""The five workloads: seeded inputs, the timed call per item, answer checks.

Every workload is a closed loop: one caller, one item in flight.  The
seed permutes item order and relabels each structure by a seeded
permutation of its elements before the library sees it.  Verdicts do
not change under isomorphism, so the answers fixed in ``expected.json``
(keyed by ``structs.order_key``) hold for every seed.

All library calls go through attributes of the ``ordalg`` package at call
time, so the tracer's replacements are seen.
"""

import contextlib
import io
import json
import os
import shutil

import ordalg
import ordalg.cli
from structs import decode_key, order_key, permute_poset, permute_table, random_perm

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED_PATH = os.path.join(HERE, "expected.json")

# OEIS A000112 (posets on n points) and A006966 (lattices on n points),
# indexed by n.  A poset with a top on n points is a poset on n - 1 points
# with a top added, so its count is A000112(n - 1).
A000112 = (1, 1, 2, 5, 16, 63, 318, 2045)
A006966 = (1, 1, 1, 1, 2, 5, 15, 53, 222)

CATALOG_COUNTS = {
    **{("all-posets", n): A000112[n] for n in range(1, 8)},
    **{("posets-with-top", n): A000112[n - 1] for n in range(1, 8)},
    **{("lattices", n): A006966[n] for n in range(1, 9)},
}

def load_expected():
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def encode(flags):
    """Flags as stored in expected.json: 1 true, 0 false, - not computed."""
    return "".join("-" if f is None else "1" if f else "0" for f in flags)


def _failed_witnesses(verdicts):
    return [(name, v.witness) for name, v in verdicts if not v]


def lattice_stage(p):
    """Criteria 4-6 on one structure: classify, synthesize, residuation, laws.

    Flags: lattice, modular, distributive, meet-semidistributive,
    sectionally pc, relatively pc, total synthesized table, axioms pass,
    divisible, laws i-ix hold, identity basis holds.
    """
    lat = ordalg.as_lattice(p)
    rep = ordalg.classify(p, lat)
    flags = [rep.is_lattice, rep.is_modular, rep.is_distributive,
             rep.is_meet_semidistributive, rep.is_sectionally_pc, rep.is_relatively_pc]
    witnesses = [sorted(rep.witnesses.items())]
    if not rep.is_lattice:
        return flags + [None] * 5, witnesses
    star = ordalg.synthesize_sectional(lat)
    if not isinstance(star, ordalg.BinOp):
        witnesses.append(star)
        return flags + [False, None, None, None, None], witnesses
    cand = ordalg.from_sectional(lat, star)
    axioms = ordalg.check_residuation(cand)
    div = ordalg.check_divisibility(cand)
    laws = None
    if axioms.passed:
        verdicts = ordalg.derived_laws(cand, axioms)
        laws = all(verdicts.values())
        witnesses.append(_failed_witnesses(sorted(verdicts.items())))
    basis = ordalg.identity_basis_check(cand)
    witnesses += [_failed_witnesses(axioms.verdicts), div.witness,
                  _failed_witnesses(basis.conditions)]
    return flags + [True, axioms.passed, bool(div), laws, basis.all_conditions_hold], witnesses


def operator_stage(p):
    """Criterion 8 on a poset with top: star table, operators, axioms, laws.

    Flags: total star table, operator axioms pass, operator laws i-v hold.
    """
    star = ordalg.star_table_poset(p)
    if not star.is_total:
        return [False, None, None], [star.undefined_cells()[:1]]
    op = ordalg.canonical_operators(p, star)
    axioms = ordalg.check_operator_axioms(op)
    witnesses = [_failed_witnesses(axioms.verdicts)]
    laws = None
    if axioms.passed:
        verdicts = ordalg.operator_derived_laws(op, axioms)
        laws = all(verdicts.values())
        witnesses.append(_failed_witnesses(sorted(verdicts.items())))
    return [True, axioms.passed, laws], witnesses


def lattice_rules_hold(f):
    """The paper's equivalences on one lattice-stage flag vector."""
    is_lattice, _, _, msd, spc, _, total, axioms, div, laws, _ = f
    if not is_lattice:
        return total is None
    if total != msd or spc != total:
        return False
    return not total or bool(axioms and div and laws)


def operator_rules_hold(g):
    total, axioms, laws = g
    return total == (axioms is not None) and (not axioms or bool(laws))


class Unit:
    """One item: its kind, a label, the input the timed call takes, and the
    structure its expected answer is stored under."""

    __slots__ = ("kind", "label", "data", "poset", "_key")

    def __init__(self, kind, label, data, poset=None):
        self.kind = kind
        self.label = label
        self.data = data
        self.poset = poset
        self._key = None

    def key(self):
        """Order key of ``poset``; computed on first check, outside timing."""
        if self._key is None:
            self._key = order_key(self.poset.up)
        return self._key


class Workload:
    """Item loop hooks; subclasses define build, run and check.

    ``pass_s`` is a typical wall time of one pass at the commit that
    added the benchmark, on its reference host.  A timed run makes
    ``--seconds / pass_s`` passes, a count that does not depend on the
    speed of the code under test.  ``setup_samples`` is the fixed number
    of fresh processes whose fastest set-up is ``setup_s``; it is chosen
    so that they take five to ten seconds together.
    """

    name = ""
    pass_s = 1.0
    trace_passes = 1
    setup_samples = 9

    def __init__(self):
        self.expected = None

    def build(self, rng):
        raise NotImplementedError

    def run(self, unit):
        raise NotImplementedError

    def timed_passes(self, seconds):
        return max(2, round(seconds / self.pass_s))

    def items(self, unit, answer):
        """Items one call completes; a catalog call emits many."""
        return 1

    def check(self, unit, answer):
        raise NotImplementedError

    def audit(self):
        """(label, passed) for checks made once per run, after timing."""
        return []

    def witness(self, unit, answer):
        return repr(answer[1]) if answer is not None else ""

    def close(self):
        pass


SWEEP_CATALOGS = (("lattice", "lattices", range(1, 9)),
                  ("top", "posets-with-top", range(1, 8)))


class Sweep(Workload):
    """Every lattice with n <= 8 and every poset with a top and n <= 7.

    The structures are read from the order keys in ``expected.json``:
    enumerating them would put a second of memory-heavy work into
    set-up, whose speed moves by a quarter with the host's load.  The
    audit after timing checks that ``enumerate_structures`` yields
    exactly the stored classes, in OEIS numbers.
    """

    name = "sweep"
    pass_s = 0.45
    trace_passes = 3
    setup_samples = 41

    def build(self, rng):
        self.expected = load_expected()["sweep"]
        units = []
        for kind, _, _ in SWEEP_CATALOGS:
            for key in self.expected[kind]:
                up = decode_key(key)
                p = ordalg.Poset([f"e{i}" for i in range(len(up))], up)
                q = permute_poset(ordalg, p, random_perm(rng, p.n))
                units.append(Unit(kind, f"{kind} {key}", q, q))
        rng.shuffle(units)
        return units

    def audit(self):
        out = []
        for kind, catalog, sizes in SWEEP_CATALOGS:
            for n in sizes:
                members = ordalg.enumerate_structures(n, catalog).members
                keys = {order_key(p.up) for p in members}
                stored = {k for k in self.expected[kind] if k.startswith(f"{n}:")}
                passed = len(members) == len(keys) == CATALOG_COUNTS[(catalog, n)]
                out.append((f"{catalog} n={n}", passed and keys == stored))
        return out

    def run(self, unit):
        if unit.kind == "lattice":
            return lattice_stage(unit.data)
        rep = ordalg.classify(unit.data)
        flags, witnesses = operator_stage(unit.data)
        return ([rep.is_lattice, rep.is_sectionally_pc, rep.is_relatively_pc] + flags,
                [sorted(rep.witnesses.items())] + witnesses)

    def check(self, unit, answer):
        flags = answer[0]
        if self.expected[unit.kind].get(unit.key()) != encode(flags):
            return False
        if unit.kind == "lattice":
            return lattice_rules_hold(flags)
        return flags[1] == flags[3] and operator_rules_hold(flags[3:])


def wide_structures():
    """(label, poset) for the four large carriers, before relabeling."""
    pent, bow = ordalg.fixture("pentagon").poset, ordalg.fixture("bowtie").poset
    return (
        ("bool6", ordalg.fixture("bool6").poset),
        ("chain64", ordalg.fixture("chain64").poset),
        ("bowtie-x-pentagon", ordalg.direct_product(bow, pent)),
        ("pentagon-x-bool4", ordalg.direct_product(pent, ordalg.fixture("bool4").poset,
                                                    max_size=80)),
    )


def wide_run(p):
    flags, witnesses = lattice_stage(p)
    more, more_w = operator_stage(p)
    return flags + more, witnesses + more_w


class Wide(Workload):
    """Four large carriers through both pipelines; n=80 takes the pure route."""

    name = "wide"
    pass_s = 9.0

    def build(self, rng):
        self.expected = load_expected()["wide"]
        units = []
        for label, p in wide_structures():
            q = permute_poset(ordalg, p, random_perm(rng, p.n))
            units.append(Unit("wide", label, q, q))
        rng.shuffle(units)
        return units

    def run(self, unit):
        return wide_run(unit.data)

    def check(self, unit, answer):
        flags = answer[0]
        return (self.expected[unit.label] == encode(flags)
                and lattice_rules_hold(flags[:11]) and operator_rules_hold(flags[11:]))


class Catalog(Workload):
    """Deduplicated catalogs; one item per isomorphism class emitted."""

    name = "catalog"
    pass_s = 8.0

    def build(self, rng):
        units = [Unit(kind, f"{kind}-{n}", n) for kind, n in CATALOG_COUNTS]
        rng.shuffle(units)
        return units

    def run(self, unit):
        return ordalg.enumerate_structures(unit.data, unit.kind)

    def items(self, unit, answer):
        return max(1, len(answer)) if answer is not None else CATALOG_COUNTS[
            (unit.kind, unit.data)]

    def check(self, unit, answer):
        return (len(answer) == CATALOG_COUNTS[(unit.kind, unit.data)]
                and all(p.n == unit.data for p in answer.members))

    def witness(self, unit, answer):
        return ""


def lattice_algebra(p, star=None):
    lat = ordalg.as_lattice(p)
    ops = {"join": ordalg.BinOp(p.n, lat.join), "meet": ordalg.BinOp(p.n, lat.meet)}
    if star is not None:
        ops["*"] = star
    return ordalg.FiniteAlgebra.build(p, ops, {"one": p.top})


class Congruences(Workload):
    """Join/meet/star algebras of n <= 8 and join/meet algebras of 2 <= n <= 6."""

    name = "congruence"
    pass_s = 3.5

    def build(self, rng):
        self.expected = load_expected()["congruence"]
        units = []
        for n in range(1, 9):
            for k, p in enumerate(ordalg.enumerate_structures(n, "lattices").members):
                q = permute_poset(ordalg, p, random_perm(rng, n))
                star = ordalg.star_table_poset(q)
                if star.is_total:
                    units.append(Unit("star", f"star-{n}-{k}", lattice_algebra(q, star), q))
                if 2 <= n <= 6:
                    q = permute_poset(ordalg, p, random_perm(rng, n))
                    units.append(Unit("plain", f"plain-{n}-{k}", lattice_algebra(q), q))
        rng.shuffle(units)
        return units

    def run(self, unit):
        alg = unit.data
        congs = ordalg.all_congruences(alg)
        verdicts = (ordalg.check_permutable(alg, congs),
                    ordalg.check_congruence_distributive(alg, congs),
                    ordalg.check_weakly_regular(alg, congs))
        return ((len(congs),) + tuple(bool(v) for v in verdicts),
                [v.witness for v in verdicts if not v])

    def check(self, unit, answer):
        return self.expected[unit.kind].get(unit.key()) == list(answer[0])


# (file name, fixture, {operation name in the file: fixture attribute})
CLI_FILES = (
    ("pentagon.txt", "pentagon", {"*": "star"}),
    ("bowtie.txt", "bowtie", {"*": "star"}),
    ("chain.txt", "residuated-chain", {"mult": "mult", "imp": "imp"}),
    ("diamond.txt", "diamond", {}),
    ("bool4.txt", "bool4", {}),
    ("chain4.txt", "chain4", {}),
    ("bool3a.txt", "bool3", {}),
    ("bool3b.txt", "bool3", {}),
    ("bool3c.txt", "bool3", {}),
)

# (arguments, exit code, substrings stdout must hold).  Twenty commands
# take 1-20 ms in-process and the three congruences of bool3 about 27 ms.
# Each pass runs every command on CLI_COPIES relabelings of the files,
# 115 items, so the 90th percentile (rank 104) lies inside the bool3
# group (ranks 101-115) and the median inside the fast one, away from
# group boundaries.  No command runs long enough to span a slow
# stretch of the host on every pass.
CLI_COMMANDS = (
    (("fixture", "--list"), 0, ("pentagon", "bool")),
    (("fixture", "bool3"), 0, ("elements:",)),
    (("check", "pentagon.txt"), 0, ("op *: matches",)),
    (("check", "bowtie.txt"), 0, ("order: not a lattice", "op *: matches")),
    (("check", "chain.txt"), 0, ("adjointness-backward ok", "divisibility: ok")),
    (("check", "broken.txt"), 1, ("op *: 1 cells differ",)),
    (("synthesize", "bowtie.txt"), 0, ("op *:",)),
    (("synthesize", "pentagon.txt", "-o", "out.txt"), 0, ()),
    (("properties", "pentagon.txt"), 0, ("lattice: yes", "modular: no",
                                         "sectionally pseudocomplemented: yes",
                                         "relatively pseudocomplemented: no")),
    (("properties", "diamond.txt"), 0, ("distributive: no", "meet-semidistributive: no")),
    (("properties", "bowtie.txt"), 0, ("lattice: no",
                                       "relatively pseudocomplemented: yes")),
    (("congruences", "pentagon.txt"), 0, ("congruences: 3",)),
    (("congruences", "diamond.txt"), 0, ("congruences: 2", "permutable: yes")),
    (("operators", "pentagon.txt", "--exhaustive-subsets"), 0, ("mode: full powerset",
                                                                 "law v: ok")),
    (("operators", "bowtie.txt", "--exhaustive-subsets"), 0, ("law iv: ok",)),
    (("operators", "bool4.txt", "--exhaustive-subsets"), 2, ()),
    (("enumerate", "6"), 0, ("count: 15",)),
    (("enumerate", "5", "--kind", "all-posets", "--list"), 0, ("count: 63",)),
    (("product", "pentagon.txt", "bowtie.txt"), 0, ("elements:", "covers:")),
    (("congruences", "chain4.txt"), 0, ("congruences: 8", "permutable: no",
                                        "weakly regular: no")),
    (("congruences", "bool3a.txt"), 0, ("congruences: 8", "weakly regular: yes")),
    (("congruences", "bool3b.txt"), 0, ("congruences: 8", "weakly regular: yes")),
    (("congruences", "bool3c.txt"), 0, ("congruences: 8", "permutable: yes")),
)


CLI_COPIES = 5


def _write_structure(path, p, ops):
    text = ordalg.render(ordalg.from_poset(p, ops, {"one": p.top}))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


class Cli(Workload):
    """`ordalg` commands through ``ordalg.cli.main``, in-process, on seeded files."""

    name = "cli"
    pass_s = 0.6
    setup_samples = 41
    # the first pass pays one-time costs, so one pass would understate
    # trace.overhead
    trace_passes = 3

    def build(self, rng):
        self.dir = os.path.join(ROOT, ".perfbench", f"cli-{os.getpid()}")
        units = []
        for copy in range(CLI_COPIES):
            folder = os.path.join(self.dir, f"copy{copy}")
            os.makedirs(folder, exist_ok=True)
            for fname, name, op_attrs in CLI_FILES:
                fx = ordalg.fixture(name)
                perm = random_perm(rng, fx.poset.n)
                p = permute_poset(ordalg, fx.poset, perm)
                ops = {op: ordalg.BinOp(p.n, permute_table(getattr(fx, attr).table, perm))
                       for op, attr in op_attrs.items()}
                _write_structure(os.path.join(folder, fname), p, ops)
                if fname == "pentagon.txt":
                    broken = [list(row) for row in ops["*"].table]
                    broken[p.bottom][p.bottom] = p.bottom
                    _write_structure(os.path.join(folder, "broken.txt"), p,
                                     {"*": ordalg.BinOp.from_rows(broken)})
            for args, code, needles in CLI_COMMANDS:
                argv = [os.path.join(folder, a) if a.endswith(".txt") else a for a in args]
                units.append(Unit(args[0], f"{' '.join(args)} #{copy}", (argv, code, needles)))
        rng.shuffle(units)
        return units

    def run(self, unit):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = ordalg.cli.main(list(unit.data[0]))
        return code, out.getvalue()

    def check(self, unit, answer):
        _, code, needles = unit.data
        return answer[0] == code and all(n in answer[1] for n in needles)

    def witness(self, unit, answer):
        return answer[1] if answer is not None else ""

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Sweep, Wide, Catalog, Congruences, Cli)}
