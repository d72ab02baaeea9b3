"""Partial binary operation tables; None is the in-band undefined value."""

from dataclasses import dataclass, field


@dataclass(frozen=True)
class BinOp:
    """n-by-n table of element indices; a None cell means undefined.

    Rows are stored as tuples, so ``is_total``, computed once here, cannot
    go stale.
    """

    n: int
    table: tuple
    is_total: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n, table = self.n, tuple(map(tuple, self.table))
        if len(table) != n:
            raise ValueError("table must have one row per element")
        cells = set().union(*table)
        total = None not in cells
        cells.discard(None)
        if {*map(len, table)} != {n} or not cells.issubset(range(n)):
            # name the first fault in row order
            for row in table:
                if len(row) != n:
                    raise ValueError("table rows must all have length n")
                for cell in row:
                    if cell is not None and not 0 <= cell < n:
                        raise ValueError(f"cell {cell!r} outside the carrier")
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "is_total", total)

    @classmethod
    def from_rows(cls, rows):
        return cls(len(rows), rows)

    @classmethod
    def _trusted(cls, rows):
        """BinOp over rows whose builder guarantees their form, taken unchecked.

        ``rows`` is a tuple of n row tuples whose cells are indices in
        range(n) or None, as the table kernels return them.
        """
        op = object.__new__(cls)
        vars(op).update(n=len(rows), table=rows, is_total=None not in set().union(*rows))
        return op

    def value(self, a, b):
        return self.table[a][b]

    def defined(self, a, b):
        return self.table[a][b] is not None

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

    def flat(self):
        return [-1 if cell is None else cell for row in self.table for cell in row]
