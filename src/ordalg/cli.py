"""Command line front end.

Commands read and write the plain-text structure format.  Recognized
operation names: ``*`` for a sectional-pseudocomplement candidate,
``mult`` and ``imp`` for a residuated multiplication and its residual,
``join`` and ``meet`` for explicit lattice tables, which ``check``
compares with the order's own.  Exit codes: 0 clean, 1 a checked
property fails, 2 a usage error, malformed or undecodable input, or an
exceeded budget.  ``_COMMANDS`` states each command once: name, help,
handler and argument specs.  ``_build_parser`` builds one parser from
it, once per process on first use, and ``main`` dispatches each parsed
command to its handler through ``_COMMANDS``.
"""

import argparse
import functools
import sys

from .congruence import (
    CONGRUENCE_BUDGET,
    FiniteAlgebra,
    all_congruences,
    check_congruence_distributive,
    check_permutable,
    check_weakly_regular,
)
from .constructions import (
    CATALOG_KINDS,
    FIXTURE_NAMES,
    direct_product,
    enumerate_structures,
    fixture,
)
from .errors import MissingConstantError, OrdAlgError, ParseError
from .fileformat import StructureFile, from_poset, parse, render
from .operators import canonical_operators, check_operator_axioms, operator_derived_laws
from .binop import BinOp
from .poset import LatticeOps, as_lattice
from .pseudocomplement import classify, star_table_poset
from .residuation import ResiduationCandidate, check_divisibility, check_residuation


def _read(path):
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # number lines as parse does (splitlines); the "." counts the bad
        # byte's line.  exc.start indexes exc.object, which has no byte-order mark
        line = len((exc.object[:exc.start].decode("utf-8") + ".").splitlines())
        raise ParseError(f"file is not UTF-8 ({exc.reason})", line) from None
    return parse(text)


def _write(text, out):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _fmt(p, idxs):
    return "(" + ", ".join(p.names[i] for i in idxs) + ")"


def _lattice_failure(p, kind, a, b, frontier):
    """'join fails at (a, b); minimal candidates c d' for a NotALattice."""
    if frontier:
        extreme = "minimal" if kind == "join" else "maximal"
        detail = f"{extreme} candidates " + " ".join(p.names[i] for i in frontier)
    else:
        detail = "no common " + ("upper" if kind == "join" else "lower") + " bound"
    return f"{kind} fails at {_fmt(p, (a, b))}; {detail}"


def _order_line(p, lat):
    if isinstance(lat, LatticeOps):
        return "order: lattice"
    return f"order: not a lattice ({_lattice_failure(p, lat.kind, *lat.pair, lat.frontier)})"


def _cell(p, v):
    return "undefined" if v is None else p.names[v]


def _report_table(p, name, given, expected, what, source):
    """Print one ``op NAME:`` line for a declared table; 1 if it differs from ``expected``."""
    bad = list(given.differences(expected, p.topo))
    if not bad:
        print(f"op {name}: matches the {what} table")
        return 0
    a, b = bad[0]
    infix = name if name == "*" else f" {name} "
    print(f"op {name}: {len(bad)} cells differ; first at "
          f"{p.names[a]}{infix}{p.names[b]}: file says {_cell(p, given.value(a, b))}, "
          f"{source} {_cell(p, expected[a][b])}")
    return 1


def _require_total(sf, ops, names, need):
    """Raise ParseError at the header line of the first partial op in names."""
    for name in names:
        if not ops[name].is_total:
            line, col = next((line, col) for op, line, col in sf.op_headers if op == name)
            raise ParseError(f"op {name!r} is partial; {need} total tables", line, col)


def cmd_check(args):
    sf = _read(args.file)
    p = sf.poset()
    ops = sf.binops()
    if "mult" in ops and "imp" in ops:
        _require_total(sf, ops, ("mult", "imp"), "residuation needs")
    lat = as_lattice(p)
    print(_order_line(p, lat))
    failures = 0

    if "*" in ops:
        failures += _report_table(p, "*", ops["*"], star_table_poset(p).table,
                                  "sectional pseudocomplement", "synthesized")
    for name in ("join", "meet"):
        if name not in ops:
            continue
        if not isinstance(lat, LatticeOps):
            failures += 1
            print(f"op {name}: fails (order is not a lattice)")
        else:
            failures += _report_table(p, name, ops[name], getattr(lat, name),
                                      f"lattice {name}", "the lattice gives")

    if "mult" in ops and "imp" in ops:
        if not isinstance(lat, LatticeOps):
            failures += 1
            print("residuation: fails (order is not a lattice)")
        else:
            cand = ResiduationCandidate(lat, ops["mult"], ops["imp"])
            report = check_residuation(cand)
            for name, verdict in report.verdicts:
                if verdict:
                    print(f"residuation: {name} ok")
                else:
                    failures += 1
                    print(f"residuation: {name} fails at {_fmt(p, verdict.witness)}")
            if report.passed:
                div = check_divisibility(cand)
                if div:
                    print("divisibility: ok")
                else:
                    print(f"divisibility: fails at {_fmt(p, div.witness)}")
            else:
                print("divisibility: skipped (residuation failed)")
    elif "mult" in ops or "imp" in ops:
        print("residuation: skipped (needs both mult and imp)")

    return 1 if failures else 0


def cmd_synthesize(args):
    sf = _read(args.file)
    p = sf.poset()
    star = star_table_poset(p)
    ops = dict(sf.binops())
    ops["*"] = star
    out = from_poset(p, ops, sf.constant_indices())
    _write(render(out), args.output)
    gap = star.first_undefined(p.topo)
    if gap:
        print(f"sectional pseudocomplement undefined at {len(star.undefined_cells())} pairs; "
              f"first {_fmt(p, gap)}", file=sys.stderr)
        return 1
    return 0


def cmd_properties(args):
    sf = _read(args.file)
    p = sf.poset()
    rep = classify(p)
    w = rep.witnesses

    if rep.is_lattice:
        print("lattice: yes")
    else:
        print(f"lattice: no ({_lattice_failure(p, *w['is_lattice'])})")
    if rep.has_top:
        print(f"top: {p.names[p.top]}")
    else:
        print("top: none (maximal elements " +
              " ".join(p.names[i] for i in w["has_top"]) + ")")
    if rep.has_bottom:
        print(f"bottom: {p.names[p.bottom]}")
    else:
        print("bottom: none (minimal elements " +
              " ".join(p.names[i] for i in w["has_bottom"]) + ")")
    for label, flag in (
        ("modular", rep.is_modular),
        ("distributive", rep.is_distributive),
        ("meet-semidistributive", rep.is_meet_semidistributive),
    ):
        if flag is None:
            print(f"{label}: n/a")
        elif flag:
            print(f"{label}: yes")
        else:
            print(f"{label}: no at {_fmt(p, w['is_' + label.replace('-', '_')])}")
    for label, flag in (
        ("sectionally pseudocomplemented", rep.is_sectionally_pc),
        ("relatively pseudocomplemented", rep.is_relatively_pc),
    ):
        key = ("is_sectionally_pc" if label.startswith("sect") else "is_relatively_pc")
        if flag:
            print(f"{label}: yes")
        else:
            print(f"{label}: no, undefined at {_fmt(p, w[key])}")
    return 0


def cmd_congruences(args):
    sf = _read(args.file)
    p = sf.poset()
    ops = sf.binops()
    _require_total(sf, ops, ops, "congruences need")
    if not ops:
        lat = as_lattice(p)
        if not isinstance(lat, LatticeOps):
            raise OrdAlgError("no operations declared and the order is not a lattice")
        ops = {"join": BinOp._trusted(lat.join, True), "meet": BinOp._trusted(lat.meet, True)}
        print("note: using lattice join and meet", file=sys.stderr)
    constants = sf.constant_indices()
    if "one" not in constants and p.top is not None:
        constants["one"] = p.top
    alg = FiniteAlgebra.build(p, ops, constants)
    congs = all_congruences(alg, budget=args.budget)
    print(f"congruences: {len(congs)}")
    for k, c in enumerate(congs, start=1):
        blocks = " ".join(
            "{" + ", ".join(p.names[i] for i in block) + "}" for block in c.blocks()
        )
        print(f"{k}: {blocks}")
    for label, verdict in (
        ("permutable", check_permutable(alg)),
        ("congruence-distributive", check_congruence_distributive(alg)),
    ):
        print(f"{label}: {'yes' if verdict else 'no'}")
    try:
        wr = check_weakly_regular(alg)
        print(f"weakly regular: {'yes' if wr else 'no'}")
    except MissingConstantError:
        print("weakly regular: skipped (no constant one)")
    return 0


def cmd_product(args):
    left = _read(args.left)
    right = _read(args.right)
    dropped = [name for sf in (left, right) for name, _ in sf.ops]
    if dropped or left.constants or right.constants:
        print("note: operations and constants are not carried into the product",
              file=sys.stderr)
    prod = direct_product(left.poset(), right.poset())
    _write(render(from_poset(prod)), args.output)
    return 0


def cmd_operators(args):
    sf = _read(args.file)
    p = sf.poset()
    if p.top is None:
        raise OrdAlgError("operator residuation needs a greatest element")
    star = star_table_poset(p)
    gap = star.first_undefined(p.topo)
    if gap:
        print(f"sectional pseudocomplement undefined at {_fmt(p, gap)}; "
              f"operator residuation needs a total table")
        return 1
    op = canonical_operators(p, star)
    report = check_operator_axioms(op, exhaustive_subsets=args.exhaustive_subsets)
    mode = "full powerset" if args.exhaustive_subsets else "generated family"
    print(f"mode: {mode}")
    failures = 0
    for name, verdict in report.verdicts:
        if verdict:
            print(f"{name}: ok")
        else:
            failures += 1
            detail = ""
            if verdict.witness:
                detail = " at " + repr(verdict.witness)
            print(f"{name}: fails{detail}")
    if failures:
        return 1
    for key, verdict in operator_derived_laws(op, report).items():
        if key == "v" and p.bottom is None:
            print("law v: skipped (no least element)")
        else:
            print(f"law {key}: {'ok' if verdict else 'fails at ' + repr(verdict.witness)}")
    return 0


def cmd_enumerate(args):
    catalog = enumerate_structures(args.size, args.kind, dedup=not args.no_dedup)
    print(f"kind: {catalog.kind}")
    print(f"size: {catalog.size}")
    print(f"count: {len(catalog)}")
    if args.list:
        for k, member in enumerate(catalog.members):
            covers = member.covers()
            if covers:
                text = " ".join(f"{member.names[i]}<{member.names[j]}" for i, j in covers)
            else:
                text = "(no relations)"
            print(f"{k}: {text}")
    return 0


def cmd_fixture(args):
    if args.list:
        for name in FIXTURE_NAMES:
            print(name)
        return 0
    if args.name is None:
        raise OrdAlgError("fixture name required (or use --list)")
    fx = fixture(args.name)
    ops = {}
    if fx.star is not None:
        ops["*"] = fx.star
    if fx.mult is not None:
        ops["mult"] = fx.mult
    if fx.imp is not None:
        ops["imp"] = fx.imp
    constants = {"one": fx.poset.top} if fx.poset.top is not None else {}
    _write(render(from_poset(fx.poset, ops, constants)), args.output)
    return 0


def _arg(*flags, **kwargs):
    return flags, kwargs


def count(text):
    """An int of 0 or more; argparse names this type in its error if not."""
    if int(text) < 0:
        raise ValueError(text)
    return int(text)


_FILE, _OUTPUT = _arg("file"), _arg("-o", "--output", default=None)

_COMMANDS = {
    "check": ("verify tables declared in a structure file", cmd_check, (_FILE,)),
    "synthesize": ("compute the sectional pseudocomplement table", cmd_synthesize,
                   (_FILE, _OUTPUT)),
    "properties": ("classify the order", cmd_properties, (_FILE,)),
    "congruences": ("list congruences and their properties", cmd_congruences, (
        _FILE, _arg("--budget", type=count, default=CONGRUENCE_BUDGET,
                    help=f"most congruences to list (default {CONGRUENCE_BUDGET})"))),
    "product": ("direct product of two order files", cmd_product,
                (_arg("left"), _arg("right"), _OUTPUT)),
    "operators": ("check powerset operator residuation", cmd_operators, (
        _FILE, _arg("--exhaustive-subsets", action="store_true",
                    help="quantify over the full powerset (carrier up to 12)"))),
    "enumerate": ("catalog all posets or lattices of one size", cmd_enumerate, (
        _arg("size", type=int),
        _arg("--kind", choices=CATALOG_KINDS, default="lattices"),
        _arg("--no-dedup", action="store_true",
             help="keep every natural labeling instead of one per isomorphism class"),
        _arg("--list", action="store_true", help="print cover relations per entry"))),
    "fixture": ("write a named built-in structure", cmd_fixture, (
        _arg("name", nargs="?", default=None), _OUTPUT,
        _arg("--list", action="store_true", help="list available names"))),
}


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="ordalg", description="Finite order-algebra workbench.",
        epilog="exit codes: 0 clean, 1 checked property fails, 2 bad input or budget")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, _, specs) in _COMMANDS.items():
        command = sub.add_parser(name, help=text)
        for flags, kwargs in specs:
            command.add_argument(*flags, **kwargs)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return _COMMANDS[args.command][1](args)
    except (OrdAlgError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
