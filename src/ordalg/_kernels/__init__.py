"""Kernel backend selection.

The hot loops (closure, a poset's down-masks, order and covers, lattice
and pseudocomplement tables, axiom scans, the law engine, principal
congruences, small-structure enumeration and its canonical relabeling)
exist twice: a hand-written C extension ``_core_c`` (``_core_c.c``)
working on uint64 masks and a pure Python twin ``_core_py``.  The
compiled backend is preferred when built; set ``ORDALG_BACKEND=py`` or
``ORDALG_BACKEND=c`` to force one.  Carriers outside 1..64 elements always
route to the pure backend, which handles arbitrary-width masks (and the
empty carrier).  The catalog kernels ``enum_orders`` and
``canonical_keys`` work on packed 8-bit rows, so both twins take only
1..8 elements.

A kernel reads an order as ``(n, up, down)``; ``_core_py.topo_order``,
``least_full`` and their C namesakes derive topo, the carrier sorted by
(size of down-set, index), and top and bottom, the least index whose
down-mask, or up-mask, is the whole carrier, else None.
``poset_index(n, up, closed)`` returns ``(down, topo, top, bottom,
covers)``, in tuples or ints, for the up-masks of an order, covers the
transitive reduction as n masks, mask i holding i's upper covers (its
strict upper bounds that lie strictly above none of the others), or
at the first fault ``(kind, i, j)``, checking in this order: for each i,
a mask with bits outside the carrier ("carrier"; a negative int or one of
2**64 or more counts) and then a mask without bit i ("reflexive"); then
for each i, a cycle ("cycle", j the least other element in up[i] &
down[i]) and, unless ``closed``, a j above i whose up-mask leaves up[i]
("transitive"); j is None but for a cycle.

The table kernels ``poset_star_table`` and ``poset_relative_table``
return ``(rows, total)``: a tuple of n row tuples, with None for an
undefined cell and an element index in every other, and whether no cell
is None; both twins return exactly these types, so ``BinOp`` and
``LatticeOps`` take the tables as they are.  Their cell
rules are ``_core_py.star_cell`` (sectional) and ``_core_py.relative_cell``
(relative).  ``lattice_tables(n, up, down)`` returns such tables, join
and meet, or ``(kind, a, b, frontier)`` at the first pair (a, b) =
(topo[ra], topo[rb]), rb >= ra, without a lub (kind "join", checked
first) or glb ("meet"); for a join, frontier masks the minimal common upper
bounds, and may be 0, and for a meet it is 0: two maximal common lower
bounds have no join, and their pair comes earlier.
``operator_tables(n, up, down)`` returns
``(us, uid, low, lu)``: the distinct sets U(x, y) = up[x] & up[y]
numbered in first-seen row-major order, n rows of each pair's number, the
common lower bounds of each set, and n rows of each pair's common lower
bounds; every row is a tuple, and both twins number the sets alike.

``law_scan(n, up, down, tables, plan)`` returns each law's least failing
tuple in topo order (first variable outermost), or None.  A law is
``(arity, term)``: arity 1..4, and a term of at most 64 nodes, each a
tuple ``(head, operand, ...)`` whose head is one of ``LAW_OPS``.
``("var", i)``, ``("const", k)`` and ``("table", t, x, y)`` are variable
i, top (k = 0) or bottom (k = 1), and ``tables[t][x][y]``; ``("up", x)``
and ``("down", x)`` are the cones of x; ``("leq", x, y)``, ``("eq", x,
y)``, ``("and", x, y)`` and ``("subset", x, y)`` are x <= y, x == y, x & y
and whether mask x lies within y.  A tuple fails where the term is 0.
``_core_py.law_compile(laws)`` checks a suite of laws against these rules,
raising ValueError, and returns its register form ``(registers,
results)``: registers[a - 1] holds, for the laws of arity a, one ``(op,
arg, x, y)`` per distinct subterm in post-order, computing op on the
earlier registers x and y (0 for ``var`` and ``const``, x twice for ``up``
and ``down``; arg 0 but for the three leaves), and results one ``(arity,
register)`` per law, the register of its term.  Each twin's
``law_plan(compiled)`` makes its plan of that form, once per suite: the
compiled twin checks only its structure and returns a capsule, and the pure
twin generates its loops.  ``LawSuite`` holds a suite's compiled form and
both plans, and ``law_scan`` here hands a twin its own plan; a twin's
``law_scan`` given anything else raises TypeError.  Each call checks the
plan against its own order and tables: at most 8 square tables of masks
within the carrier (empty means absent; the compiled twin takes them up to
2080 wide), then every register in turn, batch by batch in order of arity:
the constant or table it reads present ("operand out of range"), and every
value it uses as an index provably below what it indexes ("indexes with a
value that may be out of range"), or both twins raise ValueError naming
the first fault.

``congruence_scan(n, tables, one)`` takes the tables of any number of
binary operations, each n rows of n element indices, and the index of the
constant one or None.  It returns ``(labels, permutable, distributive,
regular)``: the least-member labels of each principal congruence Θ(a, b),
a < b, in row-major order, and the first witness of each criterion or
None, with every congruence in it given by its labels:
``(Θ(x, y), Θ(y, z), (x, z))`` at the first (x, y, z) in index order with
no w such that x Θ(y, z) w Θ(x, y) z; ``(j, b, c)`` at the first
join-irreducible distinct principal j that is not join-prime, with c the
first distinct principal not above j such that j <= b v c and b the join
of those before it; ``(R, Θ(x, y))`` at the first Θ(x, y) that is not the
join R of the Θ(one, z) over its block of one (None when one is None).
The pure twin's docstring states the order of the scans.
"""

import functools
import os

from . import _core_py as _py
from ._core_py import LAW_OPS

_choice = os.environ.get("ORDALG_BACKEND", "auto")
if _choice not in ("auto", "py", "c"):
    raise ValueError(f"ORDALG_BACKEND must be auto, py, or c, not {_choice!r}")

_c = None
if _choice in ("auto", "c"):
    try:
        from . import _core_c as _c
    except ImportError:
        if _choice == "c":
            raise

_active = _c if (_c is not None and _choice != "py") else _py
BACKEND = "c" if _active is not _py else "py"
HAVE_C = _c is not None


def _pick(n):
    return _active if 0 < n <= 64 else _py


def closure(n, up):
    return _pick(n).closure(n, up)


def poset_index(n, up, closed):
    return _pick(n).poset_index(n, up, closed)


def lattice_tables(n, up, down):
    return _pick(n).lattice_tables(n, up, down)


def poset_star_table(n, up, down):
    return _pick(n).poset_star_table(n, up, down)


def poset_relative_table(n, up, down):
    return _pick(n).poset_relative_table(n, up, down)


def operator_tables(n, up, down):
    return _pick(n).operator_tables(n, up, down)


class LawSuite:
    """A suite of (arity, term) laws compiled once, with each twin's plan of it.

    The compiled twin's plan is made here, the pure twin's on first use, so
    a process that scans only on the compiled twin never generates loops.
    """

    def __init__(self, laws):
        self.compiled = _py.law_compile(laws)
        self.c_plan = None if _c is None else _c.law_plan(self.compiled)

    @functools.cached_property
    def py_plan(self):
        return _py.law_plan(self.compiled)


def law_scan(n, up, down, tables, suite):
    twin = _pick(n)
    return twin.law_scan(n, up, down, tables, suite.c_plan if twin is _c else suite.py_plan)


def congruence_scan(n, tables, one):
    return _pick(n).congruence_scan(n, tables, one)


def enum_orders(n, lattices_only):
    return _active.enum_orders(n, bool(lattices_only))


def canonical_keys(n, orders):
    return _active.canonical_keys(n, orders)
