"""Partial operation tables."""

import re
from fractions import Fraction

import pytest

from ordalg import BinOp


def test_round_trips():
    op = BinOp.from_rows([[0, None], [1, 0]])
    assert op.n == 2
    assert not op.is_total
    assert op.value(0, 1) is None
    assert op.defined(1, 0)
    assert op.undefined_cells() == ((0, 1),)
    assert op.flat() == [0, -1, 1, 0]


def test_first_undefined_follows_the_given_order():
    op = BinOp.from_rows([[0, None, 0], [0, 0, 0], [None, 0, None]])
    assert op.first_undefined(range(3)) == (0, 1)
    assert op.first_undefined((2, 1, 0)) == (2, 2)
    assert op.first_undefined((1, 0, 2)) == (0, 1)
    assert BinOp.from_rows([[0]]).first_undefined((0,)) is None


def test_total_table():
    op = BinOp.from_rows([[1, 0], [0, 1]])
    assert op.is_total
    assert op.undefined_cells() == ()


def test_shape_validation():
    with pytest.raises(ValueError):
        BinOp(2, ((0, 1),))
    with pytest.raises(ValueError):
        BinOp(2, ((0, 1), (0,)))
    with pytest.raises(ValueError):
        BinOp(2, ((0, 2), (0, 1)))
    with pytest.raises(ValueError):
        BinOp(2, ((0, -1), (0, 1)))


def test_validation_names_the_first_fault_in_row_order():
    cases = (
        (((0, None, 3), (0, 1, 2), (0, 1, 2)), "cell 3 outside the carrier", 3),
        (((0, 1), (-1, 0)), "cell -1 outside the carrier", 2),
        (((0, 1, 2), (0, 5, 7), (0, 0, 4)), "cell 5 outside the carrier", 3),
        (((0, 1, 2), (0, 1, 9), (-3, 0, 0)), "cell 9 outside the carrier", 3),
        (((0, 1, 1), (0, 1), (9, 0, 0)), "table rows must all have length n", 3),
        (((0, 9, 1), (0, 1), (0, 0, 0)), "cell 9 outside the carrier", 3),
        (((0, None), (None,)), "table rows must all have length n", 2),
        (((0, 1), (0, 1), (0, 1)), "table must have one row per element", 2),
    )
    for table, message, n in cases:
        with pytest.raises(ValueError) as caught:
            BinOp(n, table)
        assert str(caught.value) == message, table


def test_cells_must_be_ints():
    # 1.0 in range(2) is true, so only a type check keeps a float out of
    # the kernels, which would raise TypeError on it
    for table, cell in ((((0, 1.0), (1, 1)), "1.0"), (((0, None), ("1", 1)), "'1'"),
                        (((0.0, 1), (1, 1)), "0.0")):
        with pytest.raises(ValueError, match=f"^cell {cell} is not an int$"):
            BinOp(2, table)
    # the type is checked before the range, in row order
    with pytest.raises(ValueError, match="^cell 1.5 is not an int$"):
        BinOp(2, ((0, 1.5), (1, 9)))
    assert BinOp(2, ((0, True), (1, 1))).table == ((0, 1), (1, 1))


def test_a_non_int_cell_equal_to_an_int_cell_before_it_is_caught():
    # a check over the distinct cells keeps the first of equal values, so
    # each of these would pass it; total, partial and wide tables alike
    wide = [[0] * 300 for _ in range(300)]
    wide[7][9] = 0.0
    for n, table, cell in ((2, ((0, 1), (1.0, 1)), 1.0), (2, ((0, 1), (1, Fraction(1))), Fraction(1)),
                           (2, ((1, None), (0, 1.0)), 1.0), (300, wide, 0.0)):
        with pytest.raises(ValueError, match=f"^cell {re.escape(repr(cell))} is not an int$"):
            BinOp(n, table)
    assert BinOp(300, [[0] * 300] * 300).is_total


def test_is_total_on_partial_and_total_tables():
    assert BinOp(2, ((0, 1), (1, 0))).is_total
    assert BinOp(1, ((None,),)).is_total is False
    assert BinOp(3, ((0, 1, 2), (1, 1, 2), (2, 2, None))).is_total is False
    assert BinOp(3, [[0, 1, 2], [1, 1, 2], [2, 2, 2]]).is_total is True


def test_is_total_matches_a_fresh_scan():
    from ordalg import fixture, star_table_poset

    ops = [BinOp.from_rows([[0, None], [1, 0]]), BinOp.from_rows([[None]])]
    for name in ("pentagon", "diamond", "bowtie", "residuated-chain", "chain5", "bool3"):
        fx = fixture(name)
        # the diamond's sectional table is partial
        ops += [op for op in (fx.star, fx.mult, fx.imp) if op is not None]
        ops.append(star_table_poset(fx.poset))
    # rows given as lists are stored as tuples, so the flag cannot go stale
    rows = [[1, 0], [0, 1]]
    listed = BinOp(2, rows)
    rows[0][0] = None
    ops.append(listed)
    assert listed.table == ((1, 0), (0, 1))
    for op in ops:
        assert op.is_total == all(cell is not None for row in op.table for cell in row)
    assert {op.is_total for op in ops} == {True, False}


def test_cell_accessors_refuse_elements_outside_the_carrier():
    # a negative index would read the last row, and one past n no row
    op = BinOp.from_rows([[0, None], [1, 0]])
    for a, b in ((2, 0), (0, 2), (-1, 0), (0, -1)):
        for accessor in (op.value, op.defined):
            with pytest.raises(ValueError, match=rf"^pair \({a}, {b}\) outside the carrier "
                                                 "of 2 elements$"):
                accessor(a, b)
    assert op.value(1, 0) == 1 and not op.defined(0, 1)
