"""Partial binary operation tables; None is the in-band undefined value."""

from .verdict import Record


class BinOp(Record):
    """n-by-n table of element indices; a None cell means undefined.

    Rows are stored as tuples, so ``is_total``, computed once here, cannot
    go stale.  Every other cell must be an int in range(n); on a total table
    of at most 256 elements, ``_total_below`` reads the rows at C speed and
    also takes an integer of another type, one with ``__index__``.
    """

    __slots__ = ("n", "table", "is_total")
    _hidden = ("is_total",)

    def __init__(self, n, table):
        table = tuple(map(tuple, table))
        if len(table) != n:
            raise ValueError("table must have one row per element")
        total = _total_below(table, n)
        if not total:
            # a partial or wide table, or a fault: every cell, in row order,
            # naming the first fault
            total = True
            for row in table:
                if len(row) != n:
                    raise ValueError("table rows must all have length n")
                for cell in row:
                    if cell is None:
                        total = False
                    elif not isinstance(cell, int):
                        raise ValueError(f"cell {cell!r} is not an int")
                    elif not 0 <= cell < n:
                        raise ValueError(f"cell {cell!r} outside the carrier")
        self._fill(n, table, total)

    @classmethod
    def from_rows(cls, rows):
        return cls(len(rows), rows)

    @classmethod
    def _trusted(cls, rows, total):
        """BinOp over rows whose builder guarantees their form, taken unchecked.

        ``rows`` is a tuple of n row tuples whose cells are indices in
        range(n) or None, and ``total`` says that no cell is None, as the
        table kernels return them.
        """
        op = object.__new__(cls)
        op._fill(len(rows), rows, total)
        return op

    def value(self, a, b):
        _check_pair(self.n, a, b)
        return self.table[a][b]

    def defined(self, a, b):
        return self.value(a, b) is not None

    def undefined_cells(self):
        return tuple(
            (a, b) for a in range(self.n) for b in range(self.n) if self.table[a][b] is None
        )

    def first_undefined(self, order):
        """First undefined cell (a, b), a then b taken in ``order``, or None."""
        for a in order:
            row = self.table[a]
            if None in row:
                for b in order:
                    if row[b] is None:
                        return (a, b)
        return None

    def differences(self, rows, order):
        """Each cell (a, b) where the table differs from ``rows``, a then b taken in ``order``."""
        for a in order:
            mine, theirs = self.table[a], rows[a]
            if mine != theirs:
                for b in order:
                    if mine[b] != theirs[b]:
                        yield (a, b)

    def flat(self):
        return [-1 if cell is None else cell for row in self.table for cell in row]


def _check_pair(n, a, b):
    # an index check before a cell lookup: a negative index would wrap
    if not (0 <= a < n and 0 <= b < n):
        raise ValueError(f"pair ({a}, {b}) outside the carrier of {n} elements")


def _total_below(table, n):
    """Whether each of the n rows of table holds n integers in range(n).

    ``bytes`` reads a row at C speed and takes it only when every cell is an
    integer below 256, so a None, or a float equal to an int, fails it;
    deleting the bytes below n then leaves nothing.
    """
    if n > 256:
        return False
    try:
        rows = list(map(bytes, table))
    except (TypeError, ValueError):
        return False
    return {*map(len, rows)} <= {n} and not b"".join(rows).translate(None, bytes(range(n)))
