"""Structure-file parsing, rendering, and error positions."""

import random
import re

import pytest
from hypothesis import given, settings

from ordalg import fileformat

from ordalg import (
    ParseError,
    RaggedTableError,
    StructureFile,
    UnknownElementError,
    fixture,
    from_poset,
    parse,
    render,
    star_table_poset,
)

from oracles import parse_by_tokens
from test_poset import random_posets

PENTAGON_TEXT = """\
# five points, one incomparable pair
elements: 0 a b c 1

covers:
  0 < a
  a < c
  c < 1
  0 < b
  b < 1

op *:
  .  0  a  b  c  1
  0  1  1  1  1  1
  a  b  1  b  1  1
  b  c  a  1  c  1
  c  b  a  b  1  1
  1  0  a  b  c  1

constants:
  one = 1
"""


def test_parse_pentagon():
    sf = parse(PENTAGON_TEXT)
    assert sf.elements == ("0", "a", "b", "c", "1")
    assert ("a", "c") in sf.covers
    p = sf.poset()
    assert sf.binops()["*"] == star_table_poset(p)
    assert sf.constant_indices() == {"one": p.top}


def test_render_parse_round_trip():
    sf = parse(PENTAGON_TEXT)
    assert parse(render(sf)) == sf


def test_from_poset_round_trip():
    fx = fixture("bowtie")
    sf = from_poset(fx.poset, ops={"*": fx.star}, constants={"one": fx.poset.top})
    again = parse(render(sf))
    assert again == sf
    assert again.poset().up == fx.poset.up
    assert again.binops()["*"] == fx.star


def test_table_rows_and_columns_may_be_permuted():
    text = """\
elements: 0 a 1

op f:
  .  1  0  a
  a  1  0  a
  1  1  0  a
  0  1  0  a
"""
    sf = parse(text)
    table = sf.binops()["f"].table
    # every cell holds its column element, whatever the layout order
    assert table == ((0, 1, 2),) * 3


def test_question_mark_is_an_undefined_cell():
    text = """\
elements: x y

op g:
  .  x  y
  x  x  ?
  y  ?  y
"""
    op = parse(text).binops()["g"]
    assert not op.is_total
    assert op.undefined_cells() == ((0, 1), (1, 0))


def test_header_line_content_and_redundant_covers():
    # tokens may share a line with the section header; generating
    # relations need not be covering pairs
    text = "elements: p q r\ncovers: p < q  q < r  p < r  p < q\n"
    sf = parse(text)
    assert sf.covers == (("p", "q"), ("p", "r"), ("q", "r"))
    p = sf.poset()
    assert p.leq(0, 2)
    # snapshotting the poset drops the redundant relation
    assert from_poset(p).covers == (("p", "q"), ("q", "r"))


def test_antichain_needs_no_covers():
    sf = parse("elements: u v w\n")
    p = sf.poset()
    assert p.covers() == ()
    assert p.top is None


def positions(err):
    return err.line, err.column


def test_error_positions():
    with pytest.raises(ParseError) as e:
        parse("covers:\n  x < y\n")
    assert "elements" in str(e.value)

    with pytest.raises(ParseError) as e:
        parse("  stray\nelements: a\n")
    assert positions(e.value) == (1, 3)

    with pytest.raises(ParseError) as e:
        parse("elements: a b a\n")
    assert positions(e.value) == (1, 15)

    with pytest.raises(UnknownElementError) as e:
        parse("elements: a b\ncovers:\n  a < z\n")
    assert positions(e.value) == (3, 7)

    with pytest.raises(ParseError) as e:
        parse("elements: a b\ncovers:\n  a <\n")
    assert positions(e.value) == (3, 3)

    with pytest.raises(ParseError) as e:
        parse("elements: a b\ncovers:\n  a < a\n")
    assert positions(e.value) == (3, 3)

    with pytest.raises(RaggedTableError) as e:
        parse("elements: a b\nop f:\n  .  a  b\n  a  a\n  b  a  b\n")
    assert e.value.line == 4

    with pytest.raises(ParseError) as e:
        parse("elements: a b\nop f:\n  .  a  a\n")
    assert positions(e.value) == (3, 9)

    with pytest.raises(ParseError) as e:
        parse("elements: a b\nop f:\n")
    assert positions(e.value) == (2, 4)

    with pytest.raises(ParseError) as e:
        parse("elements: a b\nconstants:\n  one = 1\n")
    assert positions(e.value) == (3, 9)

    with pytest.raises(ParseError) as e:
        parse("elements: a b\nelements: c\n")
    assert e.value.line == 2

    for text, message, where in (
        ("elements: a b\nop f:\n  .  a\n  a  a\n", "header omits b", (3, 1)),
        ("elements: a b\nop f:\n  .  a  b\n  a  a  b\n  a  a  b\n", "duplicate row 'a'", (5, 3)),
        ("elements:\n", "elements section is empty", (1, 1)),
        ("elements: a\ncovers:\nconstants:\ncovers:\n", "duplicate covers section", (4, 1)),
        ("elements: a\nconstants:\n  one = a\nconstants:\n", "duplicate constants section",
         (4, 1)),
        ("elements: a b\nconstants:\n one = a\n one = b\n", "duplicate constant 'one'", (4, 2)),
    ):
        with pytest.raises(ParseError, match=message) as e:
            parse(text)
        assert positions(e.value) == where


def test_same_line_header_columns():
    # column counts from the start of the raw line, not the header tail
    with pytest.raises(UnknownElementError) as e:
        parse("elements: a b\ncovers: a < z\n")
    assert positions(e.value) == (2, 13)


def test_operation_name_column_is_where_the_name_starts():
    # not where its letter first occurs in the line: the "p" of "op"
    table = "  .  a\n  a  a\n"
    with pytest.raises(ParseError) as e:
        parse("elements: a\nop p:\n" + table + "op p:\n" + table)
    assert "duplicate operation" in str(e.value)
    assert positions(e.value) == (5, 4)
    with pytest.raises(ParseError) as e:
        parse("elements: a b\nop o:\n")
    assert positions(e.value) == (2, 4)


def test_missing_rows_and_invalid_names():
    with pytest.raises(ParseError) as e:
        parse("elements: a b\nop f:\n  .  a  b\n  a  a  b\n")
    assert "missing rows" in str(e.value)
    with pytest.raises(ParseError):
        parse("elements: a b?\n")
    with pytest.raises(ParseError):
        parse("elements: <\n")


@given(random_posets(max_n=7))
@settings(max_examples=60, deadline=None)
def test_round_trip_any_poset(p):
    star = star_table_poset(p) if p.top is not None else None
    ops = {"s": star} if star is not None else None
    consts = {"one": p.top} if p.top is not None else None
    sf = from_poset(p, ops=ops, constants=consts)
    again = parse(render(sf))
    assert again == sf
    assert again.poset().up == p.up


def test_structure_file_is_normal_form_invariant():
    sf = StructureFile(elements=("a", "b"), covers=(("a", "b"),))
    assert parse(render(sf)) == sf


def rendered_fixtures():
    """The files `ordalg fixture NAME` writes for small fixtures, and a commented one."""
    out = [PENTAGON_TEXT]
    for name in ("pentagon", "bowtie", "residuated-chain", "diamond", "bool2", "chain3"):
        fx = fixture(name)
        ops = {key: op for key, op in (("*", fx.star), ("mult", fx.mult), ("imp", fx.imp))
               if op is not None}
        consts = {"one": fx.poset.top} if fx.poset.top is not None else {}
        out.append(render(from_poset(fx.poset, ops, consts)))
    return out


MUTATION_PIECES = ("<", "=", "?", ".", "#", ":", "elements:", "covers:", "constants:",
                   "op *:", "op f:", "\t", "\r", "\ufeff")


def mutants(count, seed):
    """Seeded texts, each one to three deletions or insertions away from a fixture file."""
    rng = random.Random(seed)
    texts = rendered_fixtures()
    for _ in range(count):
        text = rng.choice(texts)
        pieces = MUTATION_PIECES + tuple(parse(text).elements)
        for _ in range(rng.randint(1, 3)):
            piece = rng.choice(pieces)
            found = [m.start() for m in re.finditer(re.escape(piece), text)]
            if found and rng.random() < 0.5:
                k = rng.choice(found)
                text = text[:k] + text[k + len(piece):]
            else:
                k = rng.randrange(len(text) + 1)
                text = text[:k] + piece + text[k:]
        yield text


def parsed_or_raised(parser, text):
    try:
        sf = parser(text)
    except Exception as exc:  # the oracle's own exception, whatever it is, must recur
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)
    return sf, sf.op_headers


def test_parse_matches_the_token_oracle_on_mutated_fixture_files():
    outcomes = {}
    for text in mutants(3000, seed=21):
        want = parsed_or_raised(parse_by_tokens, text)
        assert parsed_or_raised(parse, text) == want, repr(text)
        kind = want[0] if isinstance(want[0], type) else StructureFile
        outcomes[kind] = outcomes.get(kind, 0) + 1
    assert set(outcomes) == {StructureFile, ParseError, UnknownElementError, RaggedTableError}
    assert min(outcomes.values()) >= 20, outcomes


def test_parse_computes_no_position_when_it_succeeds(monkeypatch):
    def no_position(lines, k):
        raise AssertionError("a position was computed")

    monkeypatch.setattr(fileformat, "_at", no_position)
    for text in rendered_fixtures():
        assert parse(text).elements
    with pytest.raises(AssertionError, match="position"):
        parse("elements: a b\ncovers: a < z\n")
