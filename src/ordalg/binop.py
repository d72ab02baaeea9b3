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
        table = tuple(map(tuple, self.table))
        if len(table) != self.n:
            raise ValueError("table must have one row per element")
        total = True
        for row in table:
            if len(row) != self.n:
                raise ValueError("table rows must all have length n")
            for cell in row:
                if cell is None:
                    total = False
                elif not 0 <= cell < self.n:
                    raise ValueError(f"cell {cell!r} outside the carrier")
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "is_total", total)

    @classmethod
    def from_rows(cls, rows):
        return cls(len(rows), rows)

    @classmethod
    def from_flat(cls, n, flat, undefined=-1):
        return cls(n, tuple(
            tuple(None if flat[i * n + j] == undefined else flat[i * n + j] for j in range(n))
            for i in range(n)
        ))

    def value(self, a, b):
        return self.table[a][b]

    def defined(self, a, b):
        return self.table[a][b] is not None

    def undefined_cells(self):
        return tuple(
            (a, b) for a in range(self.n) for b in range(self.n) if self.table[a][b] is None
        )

    def flat(self, undefined=-1):
        return [undefined if cell is None else cell for row in self.table for cell in row]
