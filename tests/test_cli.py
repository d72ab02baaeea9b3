"""End-to-end command line checks through main(argv)."""

import argparse
import os
import subprocess
import sys

import pytest

from ordalg import FIXTURE_NAMES, AxiomReport, Verdict, cli, parse
from ordalg.cli import main

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture
def write_fixture(tmp_path):
    def go(name):
        path = tmp_path / f"{name}.txt"
        assert main(["fixture", name, "-o", str(path)]) == 0
        return path

    return go


def test_fixture_list(capsys):
    assert main(["fixture", "--list"]) == 0
    assert capsys.readouterr().out.splitlines() == list(FIXTURE_NAMES)


def test_check_clean_pentagon(write_fixture, capsys):
    path = write_fixture("pentagon")
    assert main(["check", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "order: lattice"
    assert out[1] == "op *: matches the sectional pseudocomplement table"


def test_check_clean_residuated_chain(write_fixture, capsys):
    path = write_fixture("residuated-chain")
    assert main(["check", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.count("residuation:") == 4
    assert out.count(" ok") == 5
    assert "divisibility: ok" in out


def test_check_star_mutant(write_fixture, capsys):
    path = write_fixture("pentagon")
    text = path.read_text()
    mutated = text.replace("  b  c  a  1  c  1", "  b  c  a  1  0  1", 1)
    assert mutated != text
    path.write_text(mutated)
    assert main(["check", str(path)]) == 1
    out = capsys.readouterr().out
    assert "first at b*c: file says 0, synthesized c" in out


def test_check_declared_lattice_tables(tmp_path, capsys):
    path = tmp_path / "chain2.txt"
    path.write_text("elements: 0 1\ncovers:\n  0 < 1\n"
                    "op join:\n  .  0  1\n  0  0  1\n  1  1  1\n"
                    "op meet:\n  .  0  1\n  0  0  1\n  1  1  1\n")
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "order: lattice",
        "op join: matches the lattice join table",
        "op meet: 2 cells differ; first at 0 meet 1: file says 1, the lattice gives 0",
    ]


def test_check_declared_join_on_non_lattice(write_fixture, capsys):
    path = write_fixture("bowtie")
    path.write_text(path.read_text().replace("op *:", "op join:"))
    assert main(["check", str(path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("order: not a lattice")
    assert out[1:] == ["op join: fails (order is not a lattice)"]


def test_check_undecodable_file(tmp_path, capsys):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"elements: a\n\xff")
    assert main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 2, column 1: file is not UTF-8 (invalid start byte)\n"


def test_check_file_with_byte_order_mark(write_fixture, tmp_path, capsys):
    path = write_fixture("pentagon")
    assert main(["properties", str(path)]) == 0
    plain = capsys.readouterr()
    marked = tmp_path / "bom.txt"
    marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert main(["properties", str(marked)]) == 0
    assert capsys.readouterr() == plain
    # the decoder reports the bad byte's offset after the mark
    marked.write_bytes(b"\xef\xbb\xbfelements: a\n\n\xff")
    assert main(["check", str(marked)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 3, column 1: file is not UTF-8 (invalid start byte)\n"


def test_check_imp_mutant(write_fixture, capsys):
    path = write_fixture("residuated-chain")
    text = path.read_text()
    # ops render sorted by name, so the first matching row is in imp
    mutated = text.replace("  1  0  a  1", "  1  1  a  1", 1)
    assert mutated != text
    path.write_text(mutated)
    assert main(["check", str(path)]) == 1
    out = capsys.readouterr().out
    assert "adjointness-backward fails at (1, 0, a)" in out
    assert "divisibility: skipped" in out


CHAIN4 = "elements: c0 c1 c2 c3\ncovers:\n  c0 < c1\n  c1 < c2\n  c2 < c3\n"
CHAIN4_MULT = "op mult:\n  .  c0 c1 c2 c3\n  c0 c0 c0 c0 c0\n  c1 c0 c0 c0 c1\n" \
              "  c2 c0 c0 c0 c2\n  c3 c0 c1 c2 c3\n"
CHAIN4_IMP = "op imp:\n  .  c0 c1 c2 c3\n  c0 c3 c3 c3 c3\n  c1 c2 c3 c3 c3\n" \
             "  c2 c2 c2 c3 c3\n  c3 c0 c1 c2 c3\n"


def test_check_reports_divisibility_without_failing(tmp_path, capsys):
    # a residuated chain4 that is not divisible: exit 0, as only the
    # residuation axioms count as failures
    path = tmp_path / "chain4.txt"
    path.write_text(CHAIN4 + CHAIN4_MULT + CHAIN4_IMP)
    assert main(["check", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in out[1:5]] == ["residuation"] * 4
    assert all(line.endswith(" ok") for line in out[1:5])
    assert out[5:] == ["divisibility: fails at (c2, c1)"]


def test_check_residuation_needs_a_lattice_and_both_ops(tmp_path, capsys):
    path = tmp_path / "vee.txt"
    ops = ("op mult:\n  .  a  b  c\n  a  a  a  a\n  b  a  a  a\n  c  a  a  a\n"
           "op imp:\n  .  a  b  c\n  a  c  c  c\n  b  c  c  c\n  c  c  c  c\n")
    path.write_text("elements: a b c\ncovers:\n  a < c\n  b < c\n" + ops)
    assert main(["check", str(path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "residuation: fails (order is not a lattice)"
    path.write_text(CHAIN4 + CHAIN4_MULT)
    assert main(["check", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "order: lattice", "residuation: skipped (needs both mult and imp)"]


def test_check_rejects_partial_residuation_tables(write_fixture, capsys):
    path = write_fixture("residuated-chain")
    text = path.read_text()
    for op, row in (("imp", "  a  a  1  1"), ("mult", "  a  0  0  a")):
        mutated = text.replace(row, row[:-1] + "?", 1)
        assert mutated != text
        path.write_text(mutated)
        assert main(["check", str(path)]) == 2
        captured = capsys.readouterr()
        # the error stands at the op's header, the line the table starts on
        header = text.splitlines().index(f"op {op}:") + 1
        assert f"line {header}, column 4: op '{op}' is partial" in captured.err
        assert captured.out == ""
    path.write_text(text)


def test_synthesize_writes_total_table(write_fixture, tmp_path, capsys):
    path = write_fixture("pentagon")
    out_path = tmp_path / "with_star.txt"
    assert main(["synthesize", str(path), "-o", str(out_path)]) == 0
    sf = parse(out_path.read_text())
    assert sf.binops()["*"].is_total
    assert capsys.readouterr().err == ""


def test_synthesize_partial_star(write_fixture, capsys):
    path = write_fixture("diamond")
    assert main(["synthesize", str(path)]) == 1
    captured = capsys.readouterr()
    assert "undefined at 3 pairs; first (a, 0)" in captured.err
    assert parse(captured.out).elements == ("0", "a", "b", "c", "1")


def test_properties_bowtie(write_fixture, capsys):
    path = write_fixture("bowtie")
    assert main(["properties", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "lattice: no (join fails at (a, b); minimal candidates c d)",
        "top: 1",
        "bottom: 0",
        "modular: n/a",
        "distributive: n/a",
        "meet-semidistributive: n/a",
        "sectionally pseudocomplemented: yes",
        "relatively pseudocomplemented: yes",
    ]


@pytest.mark.parametrize("text, line", (
    ("elements: a b 1\ncovers:\n  a < 1\n  b < 1\n",
     "meet fails at (a, b); no common lower bound"),
    ("elements: 0 a b\ncovers:\n  0 < a\n  0 < b\n",
     "join fails at (a, b); no common upper bound"),
))
def test_non_lattice_without_bounds_is_named_by_both_commands(tmp_path, capsys, text, line):
    path = tmp_path / "order.txt"
    path.write_text(text)
    assert main(["properties", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == f"lattice: no ({line})"
    assert main(["check", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [f"order: not a lattice ({line})"]


def test_lattice_failure_names_the_frontier_by_kind():
    # as_lattice never reports a meet frontier, but a NotALattice may carry one
    p = parse("elements: a b c d\ncovers:\n  a < c\n  a < d\n  b < c\n  b < d\n").poset()
    a, b, c, d = map(p.index, "abcd")
    assert cli._lattice_failure(p, "join", a, b, (c, d)) == \
        "join fails at (a, b); minimal candidates c d"
    assert cli._lattice_failure(p, "meet", c, d, (a, b)) == \
        "meet fails at (c, d); maximal candidates a b"


def test_properties_diamond(write_fixture, capsys):
    path = write_fixture("diamond")
    assert main(["properties", str(path)]) == 0
    out = capsys.readouterr().out
    assert "lattice: yes" in out
    assert "modular: yes" in out
    assert "distributive: no at (a, b, c)" in out
    assert "sectionally pseudocomplemented: no, undefined at (a, 0)" in out


def test_congruences_with_declared_ops(write_fixture, capsys):
    path = write_fixture("pentagon")
    assert main(["congruences", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "congruences: 3"
    assert out[2] == "2: {0, b} {a, c, 1}"
    assert "permutable: yes" in out
    assert "weakly regular: yes" in out


def test_congruences_bare_order_uses_lattice_ops(tmp_path, capsys):
    path = tmp_path / "pent.txt"
    path.write_text(
        "elements: 0 a b c 1\n"
        "covers:\n  0 < a\n  a < c\n  c < 1\n  0 < b\n  b < 1\n"
    )
    assert main(["congruences", str(path)]) == 0
    captured = capsys.readouterr()
    assert "note: using lattice join and meet" in captured.err
    assert captured.out.splitlines()[0] == "congruences: 5"
    assert "weakly regular: no" in captured.out


def test_congruences_rejects_partial_and_nonlattice(tmp_path, capsys):
    partial = tmp_path / "partial.txt"
    partial.write_text(
        "elements: x y\ncovers:\n  x < y\n"
        "op f:\n  .  x  y\n  x  x  ?\n  y  y  y\n"
    )
    assert main(["congruences", str(partial)]) == 2
    assert "line 4, column 4: op 'f' is partial" in capsys.readouterr().err
    anti = tmp_path / "anti.txt"
    anti.write_text("elements: u v w\n")
    assert main(["congruences", str(anti)]) == 2
    assert "not a lattice" in capsys.readouterr().err


def test_congruences_budget(write_fixture, capsys):
    path = write_fixture("chain20")
    assert main(["congruences", str(path)]) == 2
    assert "budget" in capsys.readouterr().err
    # a negative budget is a usage error, raised before the file is read
    with pytest.raises(SystemExit) as exc:
        main(["congruences", "--budget", "-1", str(path)])
    assert exc.value.code == 2
    assert "argument --budget: invalid count value: '-1'" in capsys.readouterr().err


def test_congruences_on_an_antichain_without_one(tmp_path, capsys):
    # a total * makes the antichain an algebra, which has no constant one
    path = tmp_path / "anti.txt"
    path.write_text("elements: a b c\n"
                    "op *:\n  .  a  b  c\n  a  a  a  a\n  b  a  b  a\n  c  a  a  c\n")
    assert main(["congruences", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "weakly regular: skipped (no constant one)"


def test_congruences_chain12_lists_within_the_budget(write_fixture, capsys):
    # 2^11 congruences: a count within the default budget of 4096
    path = write_fixture("chain12")
    assert main(["congruences", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "congruences: 2048"
    assert out[-3:] == ["permutable: no", "congruence-distributive: yes", "weakly regular: no"]


def test_congruences_2x4x8_lists_within_the_budget(write_fixture, tmp_path, capsys):
    # a 64-element product of chains with 2^11 congruences
    two, four, eight = (write_fixture(f"chain{k}") for k in (2, 4, 8))
    right, prod = tmp_path / "4x8.txt", tmp_path / "2x4x8.txt"
    assert main(["product", str(four), str(eight), "-o", str(right)]) == 0
    assert main(["product", str(two), str(right), "-o", str(prod)]) == 0
    capsys.readouterr()
    assert main(["congruences", str(prod)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "congruences: 2048" and len(out) == 1 + 2048 + 3
    assert out[-3:] == ["permutable: no", "congruence-distributive: yes", "weakly regular: no"]


def test_congruences_scans_once_per_command(write_fixture, monkeypatch, capsys):
    # all_congruences and the three checks share one congruence_scan call;
    # a repeated command finds its equal algebra's scan kept and prints the
    # same text without another
    from ordalg import _kernels as kernels
    from ordalg.congruence import _scan

    calls = []
    scan = kernels.congruence_scan
    monkeypatch.setattr(kernels, "congruence_scan",
                        lambda *args: calls.append(args[0]) or scan(*args))
    for name in ("pentagon", "bool3", "chain5", "residuated-chain"):
        path = write_fixture(name)
        capsys.readouterr()
        _scan.cache_clear()
        del calls[:]
        outs = []
        for _ in range(2):
            assert main(["congruences", str(path)]) == 0
            outs.append(capsys.readouterr().out)
        assert len(calls) == 1 and outs[0] == outs[1]


def test_product(write_fixture, tmp_path, capsys):
    left = write_fixture("pentagon")
    right = write_fixture("residuated-chain")
    out_path = tmp_path / "prod.txt"
    assert main(["product", str(left), str(right), "-o", str(out_path)]) == 0
    captured = capsys.readouterr()
    assert "not carried into the product" in captured.err
    sf = parse(out_path.read_text())
    assert len(sf.elements) == 15
    assert "0.0" in sf.elements and "1.1" in sf.elements
    assert sf.ops == ()


def test_product_names_both_pairs_of_a_name_collision(tmp_path, capsys):
    left, right = tmp_path / "left.txt", tmp_path / "right.txt"
    left.write_text("elements: x x.y\ncovers:\n  x < x.y\n")
    right.write_text("elements: y.z z\ncovers:\n  y.z < z\n")
    assert main(["product", str(left), str(right), "-o", str(tmp_path / "out.txt")]) == 2
    assert capsys.readouterr().err == \
        "error: product elements (x, y.z) and (x.y, z) are both named 'x.y.z'\n"
    assert not (tmp_path / "out.txt").exists()


def test_operators_modes(write_fixture, capsys):
    path = write_fixture("pentagon")
    assert main(["operators", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "mode: generated family"
    assert out.count(": ok") == 9
    assert main(["operators", str(path), "--exhaustive-subsets"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "mode: full powerset"
    assert "law v: ok" in out


def test_operators_full_powerset_admits_twelve_elements_and_no_more(write_fixture, capsys):
    assert main(["operators", str(write_fixture("chain12")), "--exhaustive-subsets"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "mode: full powerset"
    assert main(["operators", str(write_fixture("chain13")), "--exhaustive-subsets"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: powerset mode allows at most 12 elements, carrier has 13\n"


def test_operators_stops_at_a_failing_axiom(write_fixture, capsys, monkeypatch):
    # the canonical operators pass every axiom, so a failing report is put in
    def failing(op, exhaustive_subsets=False):
        return AxiomReport(subject=op, verdicts=(
            ("subset-commutativity", Verdict(True)),
            ("subset-unit", Verdict(False)),
            ("adjointness-forward", Verdict(False, (1, 2, 3))),
            ("adjointness-backward", Verdict(True)),
        ))

    monkeypatch.setattr(cli, "check_operator_axioms", failing)
    assert main(["operators", str(write_fixture("pentagon"))]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "mode: generated family",
        "subset-commutativity: ok",
        "subset-unit: fails",
        "adjointness-forward: fails at (1, 2, 3)",
        "adjointness-backward: ok",
    ]


def test_operators_skips_law_v_without_a_least_element(tmp_path, capsys):
    path = tmp_path / "vee.txt"
    path.write_text("elements: a b c\n\ncovers:\n  a < c\n  b < c\n")
    assert main(["operators", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "law v: skipped (no least element)"
    assert "law v: ok" not in out


def test_operators_needs_total_star(write_fixture, capsys):
    path = write_fixture("diamond")
    assert main(["operators", str(path)]) == 1
    assert "needs a total table" in capsys.readouterr().out


def test_operators_needs_top(tmp_path, capsys):
    path = tmp_path / "anti.txt"
    path.write_text("elements: u v w\n")
    assert main(["operators", str(path)]) == 2
    assert "greatest element" in capsys.readouterr().err


def test_enumerate(capsys):
    assert main(["enumerate", "5"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "kind: lattices",
        "size: 5",
        "count: 5",
    ]
    assert main(["enumerate", "3", "--kind", "all-posets", "--list"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[2] == "count: 5"
    assert out[3] == "0: (no relations)"
    assert len(out) == 8
    assert main(["enumerate", "4", "--kind", "all-posets", "--no-dedup"]) == 0
    assert "count: 40" in capsys.readouterr().out


def test_enumerate_budget(capsys):
    assert main(["enumerate", "9"]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_file(capsys):
    assert main(["check", "/nonexistent/structure.txt"]) == 2
    assert "error:" in capsys.readouterr().err


def test_fixture_requires_name(capsys):
    assert main(["fixture"]) == 2
    assert "fixture name required" in capsys.readouterr().err


def test_fixture_roundtrips_through_check(write_fixture, capsys):
    for name in ("bowtie", "bool3", "chain5"):
        path = write_fixture(name)
        assert main(["check", str(path)]) == 0
    capsys.readouterr()


def test_every_command_names_the_same_first_gap(tmp_path, capsys):
    # the first undefined cell in index order is (e0, e3); in topological
    # order, which every witness follows, it is (e5, e3)
    path = tmp_path / "gappy.txt"
    path.write_text("elements: e0 e1 e2 e3 e4 e5\n\ncovers:\n"
                    "  e0 < e4\n  e1 < e4\n  e2 < e4\n  e3 < e0\n  e3 < e1\n  e3 < e2\n"
                    "  e5 < e0\n")
    assert main(["properties", str(path)]) == 0
    assert "sectionally pseudocomplemented: no, undefined at (e5, e3)" in capsys.readouterr().out
    assert main(["synthesize", str(path), "-o", str(tmp_path / "out.txt")]) == 1
    assert capsys.readouterr().err.endswith("first (e5, e3)\n")
    assert main(["operators", str(path)]) == 1
    assert capsys.readouterr().out.startswith("sectional pseudocomplement undefined at (e5, e3);")


PARITY_ARGVS = [
    [], ["-h"], ["bogus"], ["--", "fixture", "--list"],
    *([name, "-h"] for name in cli._COMMANDS),
    ["check", "f"], ["properties", "f"],
    ["synthesize", "f", "-o", "out"], ["synthesize", "f", "--output", "out"],
    ["congruences", "f", "--budget", "8"], ["product", "l", "r", "-o", "out"],
    ["operators", "f", "--exhaustive-subsets"],
    ["enumerate", "4", "--kind", "all-posets", "--no-dedup", "--list"],
    ["fixture", "pentagon", "-o", "out"], ["fixture", "--list"], ["fixture"],
    ["check"], ["synthesize"], ["properties"], ["congruences"], ["product", "l"],
    ["operators"], ["enumerate"],
    ["enumerate", "four"], ["congruences", "f", "--budget", "many"],
    ["enumerate", "4", "--kind", "trees"],
    ["check", "f", "extra"], ["fixture", "pentagon", "--verbose"],
]


def _outcome(parse_args, argv, capsys):
    try:
        result = list(vars(parse_args(argv)).items())
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err


@pytest.mark.parametrize("argv", PARITY_ARGVS, ids=lambda argv: " ".join(argv) or "no-args")
def test_main_parses_as_the_full_parser(argv, monkeypatch, capsys):
    # every handler returns its namespace, so main's parse shows through
    for name, (text, _, specs) in list(cli._COMMANDS.items()):
        monkeypatch.setitem(cli._COMMANDS, name, (text, lambda args: args, specs))
    got = _outcome(main, argv, capsys)
    assert got == _outcome(cli._build_parser().parse_args, argv, capsys)


def test_main_builds_the_parser_once(write_fixture, monkeypatch, capsys):
    path = write_fixture("pentagon")
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._build_parser.cache_clear()
    assert main(["fixture", "--list"]) == 0
    assert len(built) == 1 + len(cli._COMMANDS)
    built.clear()
    for argv in (["fixture", "--list"], ["congruences", str(path)]):
        assert main(argv) == 0
    with pytest.raises(SystemExit):
        main(["check", "a", "b"])
    assert built == []
    capsys.readouterr()


def _run_ordalg(*argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-m", "ordalg.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def test_console_entry_reads_sys_argv():
    proc = _run_ordalg("fixture", "--list")
    assert proc.returncode == 0 and "pentagon" in proc.stdout.splitlines()
    proc = _run_ordalg("check")
    assert proc.returncode == 2 and proc.stderr.startswith("usage: ordalg check")
    proc = _run_ordalg("check", "a", "b")
    assert proc.returncode == 2
    assert "ordalg: error: unrecognized arguments: b" in proc.stderr
    proc = _run_ordalg("--help")
    assert proc.returncode == 0
    for name in ("check", "synthesize", "properties", "congruences", "product",
                 "operators", "enumerate", "fixture"):
        assert f"    {name} " in proc.stdout
