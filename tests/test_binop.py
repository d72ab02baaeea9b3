"""Partial operation tables."""

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
    assert BinOp.from_flat(2, op.flat()) == op
    assert BinOp.from_flat(2, op.flat(undefined=9), undefined=9) == op


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
