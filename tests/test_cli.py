"""End-to-end command line checks through main(argv)."""

import pytest

from ordalg import FIXTURE_NAMES, parse
from ordalg.cli import main


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


def test_check_rejects_partial_residuation_tables(write_fixture, capsys):
    path = write_fixture("residuated-chain")
    text = path.read_text()
    for op, row in (("imp", "  a  a  1  1"), ("mult", "  a  0  0  a")):
        mutated = text.replace(row, row[:-1] + "?", 1)
        assert mutated != text
        path.write_text(mutated)
        assert main(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert f"op '{op}' is partial" in captured.err
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
    assert "partial" in capsys.readouterr().err
    anti = tmp_path / "anti.txt"
    anti.write_text("elements: u v w\n")
    assert main(["congruences", str(anti)]) == 2
    assert "not a lattice" in capsys.readouterr().err


def test_congruences_budget(write_fixture, capsys):
    path = write_fixture("chain20")
    assert main(["congruences", str(path)]) == 2
    assert "budget" in capsys.readouterr().err


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
