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
``poset_index(n, up, closed)`` returns ``(down, topo, top, bottom)``, in
tuples or ints, for the up-masks of an order, or at the first fault
``(kind, i, j)``, checking in this order: for each i, a mask with bits
outside the carrier ("carrier"; a negative int or one of 2**64 or more
counts) and then a mask without bit i ("reflexive"); then for each i, a
cycle ("cycle", j the least other element in up[i] & down[i]) and, unless
``closed``, a j above i whose up-mask leaves up[i] ("transitive"); j is
None but for a cycle.  ``poset_covers(n, up, down)`` returns the
transitive reduction as a sorted tuple of (lower, upper) index pairs.

The table kernels ``poset_star_table`` and ``poset_relative_table``
return ``(rows, total)``: a tuple of n row tuples, with None for an
undefined cell and an element index in every other, and whether no cell
is None; both twins return exactly these types, so ``BinOp`` and
``LatticeOps`` take the tables as they are.  Their cell
rules are ``_core_py.star_cell`` (sectional) and ``_core_py.relative_cell``
(relative).  ``lattice_tables(n, up, down)`` returns such tables, join
and meet, or ``(kind, a, b, frontier)`` at the first pair (a, b) =
(topo[ra], topo[rb]), rb >= ra, without a lub (kind "join", checked
first) or glb ("meet"); frontier masks the minimal common upper or maximal
common lower bounds, and may be 0.  ``operator_tables(n, up, down)`` returns
``(us, uid, low, lu)``: the distinct sets U(x, y) = up[x] & up[y]
numbered in first-seen row-major order, n rows of each pair's number, the
common lower bounds of each set, and n rows of each pair's common lower
bounds; every row is a tuple, and both twins number the sets alike.

``law_scan(n, up, down, tables, programs)`` returns each program's least
failing tuple in topo order (first variable outermost), or None.  A
program is ``(arity, opcode, operand, ...)``: arity 1..4, at most 64
instructions of ``LAW_OPS``, a stack of 16.  ``var`` i, ``const`` k and
``table`` t push variable i, top (k = 0) or bottom (k = 1), and
``tables[t][x][y]`` (popping x, y); ``up``/``down`` pop x and push its
cone; ``leq``, ``eq``, ``and`` and ``subset`` pop x, y and push x <= y,
x == y, x & y and whether mask x lies within y.  A tuple fails where the
one value left is 0.  At most 8 square tables of masks within the
carrier (empty means absent; the compiled twin takes them up to 2080
wide); a value used as an index must be provably below what it indexes,
and a pushed constant must exist, or both twins raise ValueError.  Both
twins keep what they derive from programs they have read: the pure twin
its translation of a batch, by value (``_law_py._plan``), and the
compiled twin the checked form of the last 16 programs that are an exact
tuple of exact tuples of ints, by identity, holding the tuple.  Every
check that reads a call's own order and tables runs on every call.

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


def poset_covers(n, up, down):
    return _pick(n).poset_covers(n, up, down)


def lattice_tables(n, up, down):
    return _pick(n).lattice_tables(n, up, down)


def poset_star_table(n, up, down):
    return _pick(n).poset_star_table(n, up, down)


def poset_relative_table(n, up, down):
    return _pick(n).poset_relative_table(n, up, down)


def operator_tables(n, up, down):
    return _pick(n).operator_tables(n, up, down)


def law_scan(n, up, down, tables, programs):
    return _pick(n).law_scan(n, up, down, tables, programs)


def congruence_scan(n, tables, one):
    return _pick(n).congruence_scan(n, tables, one)


def enum_orders(n, lattices_only):
    return _active.enum_orders(n, bool(lattices_only))


def canonical_keys(n, orders):
    return _active.canonical_keys(n, orders)
