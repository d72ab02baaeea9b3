"""Pure-Python kernels over int bitmasks.

Bit j of ``up[i]`` set means element i lies below element j (reflexive).
``down`` is the transpose.  The table kernels return a tuple of n row
tuples with None for an undefined cell; the axiom scans take flat
row-major sequences of length n*n, and ``law_scan`` takes sequences of rows.
The compiled backend ``_core_c`` implements the same contracts for carriers
of at most 64 elements; this module also covers larger carriers because
Python ints are unbounded.
"""

from itertools import permutations, product


def closure(n, up):
    """Reflexive-transitive closure of an up-mask adjacency."""
    out = [up[i] | (1 << i) for i in range(n)]
    for k in range(n):
        bk = 1 << k
        row = out[k]
        for i in range(n):
            if out[i] & bk:
                out[i] |= row
    return tuple(out)


def _extreme(mask, cone):
    # the x of the set that lies within cone[x], or -1: its minimum when
    # cone is up, its maximum when cone is down
    m = mask
    while m:
        low = m & -m
        x = low.bit_length() - 1
        if mask & ~cone[x] == 0:
            return x
        m ^= low
    return -1


def _frontier(mask, cone):
    # the x of the set whose cone meets it in x alone: its minimal elements
    # when cone is down, its maximal ones when cone is up
    return sum(1 << x for x in range(mask.bit_length()) if mask & cone[x] == 1 << x)


def read_topo(n, topo):
    """The first n entries of topo, which must order the n-element carrier."""
    topo = tuple(topo)[:n]
    if sorted(topo) != list(range(n)):
        raise ValueError(f"topo must order the {n}-element carrier")
    return topo


def lattice_tables(n, topo, up, down):
    """(join, meet) tables or the first pair without a lub or glb, as ``_kernels`` states."""
    topo = read_topo(n, topo)
    join = [[0] * n for _ in range(n)]
    meet = [[0] * n for _ in range(n)]
    for ra, a in enumerate(topo):
        for b in topo[ra:]:
            u = up[a] & up[b]
            m = _extreme(u, up)
            if m < 0:
                return "join", a, b, _frontier(u, down)
            join[a][b] = join[b][a] = m
            d = down[a] & down[b]
            m = _extreme(d, down)
            if m < 0:
                return "meet", a, b, _frontier(d, up)
            meet[a][b] = meet[b][a] = m
    return tuple(map(tuple, join)), tuple(map(tuple, meet))


def star_cell(full, up, down, lu_ab, lu_b, b):
    """Sectional pseudocomplement of a relative to b, or None.

    ``lu_ab`` is L(U(a, b)), the common lower bounds of the common upper
    bounds of a and b, and ``lu_b[c]`` is L(U(c, b)).  The cell is the
    unique d with: for every c, L(U(a, b)) & L(U(c, b)) is the lower cone
    of b exactly when d lies in U(c, b).  Computed as the minimum of the
    intersection of the U(c, b) over the qualifying c, then verified.
    """
    lb = down[b]
    t = full
    for c, lu_cb in enumerate(lu_b):
        if lu_ab & lu_cb == lb:
            t &= up[c] & up[b]
    d = _extreme(t, up)
    if d >= 0 and down[d] >> b & 1 and lu_ab & down[d] == lb:
        return d
    return None


def _lower(full, down, mask):
    # common lower bounds of the set; the empty set yields the carrier
    acc = full
    while mask:
        low = mask & -mask
        acc &= down[low.bit_length() - 1]
        mask ^= low
    return acc


def poset_star_table(n, up, down):
    """Sectional pseudocomplement table for a poset; None marks undefined cells.

    Each cell is ``star_cell``.  L(U(a, b)) is computed once per distinct
    U(a, b), and it is symmetric, so row b of ``lu`` is column b; a cell
    depends on a only through L(U(a, b)), so each column computes one cell
    per distinct value of it.
    """
    full = (1 << n) - 1
    lu = operator_tables(n, up, down)[3]
    cols = []
    for b, lu_b in enumerate(lu):
        cells = {v: star_cell(full, up, down, v, lu_b, b) for v in set(lu_b)}
        cols.append([cells[v] for v in lu_b])
    return tuple(zip(*cols))


def operator_tables(n, up, down):
    """(us, uid, low, lu) for the sets U(x, y) = up[x] & up[y] of a poset.

    ``us`` holds the distinct sets in first-seen row-major order, row x of
    ``uid`` the index in ``us`` of each U(x, y), ``low`` the common lower
    bounds of each set, and row x of ``lu`` those of each U(x, y).
    """
    full = (1 << n) - 1
    ids = {}
    uid = tuple([tuple([ids.setdefault(ux & uy, len(ids)) for uy in up]) for ux in up])
    low = tuple([_lower(full, down, u) for u in ids])
    return tuple(ids), uid, low, tuple([tuple([low[i] for i in row]) for row in uid])


def relative_cell(full, up, by_down, down_a, down_b):
    """Greatest x whose common lower bounds with a lie below b, or None.

    x fails exactly when it lies above some y <= a outside the cone of b,
    so the qualifying set is a down-set: it has a greatest element exactly
    when it is the cone ``down[x]`` of some x, which ``by_down`` maps to x.
    """
    above = 0
    m = down_a & ~down_b
    while m:
        low = m & -m
        above |= up[low.bit_length() - 1]
        m ^= low
    return by_down.get(full & ~above)


def poset_relative_table(n, up, down):
    """Relative pseudocomplement table for a poset; None marks undefined cells."""
    full = (1 << n) - 1
    by_down = {d: x for x, d in enumerate(down)}
    return tuple([tuple([relative_cell(full, up, by_down, da, db) for db in down])
                  for da in down])


def rrl_scan(n, up, top, join, mult, imp):
    """Axiom scan for a residuation candidate; returns a bitmask of failures.

    bit 0: commutative groupoid with unit, bit 1: monotone multiplication,
    bit 2: adjointness forward, bit 3: adjointness backward.
    """
    bits = 0
    for a in range(n):
        arow = a * n
        if mult[top * n + a] != a:
            bits |= 1
        for b in range(n):
            if mult[arow + b] != mult[b * n + a]:
                bits |= 1
    for a in range(n):
        ua = up[a]
        arow = a * n
        for b in range(n):
            if ua >> b & 1 and a != b:
                brow = b * n
                for c in range(n):
                    if not up[mult[arow + c]] >> mult[brow + c] & 1:
                        bits |= 2
                    if not up[mult[c * n + a]] >> mult[c * n + b] & 1:
                        bits |= 2
    for a in range(n):
        arow = a * n
        for b in range(n):
            ab = join[arow + b]
            iab = imp[arow + b]
            for c in range(n):
                cb = join[c * n + b]
                lhs = up[mult[ab * n + cb]] >> b & 1
                rhs = up[cb] >> iab & 1
                if lhs and not rhs:
                    bits |= 4
                elif rhs and not lhs:
                    bits |= 8
    return bits


def divisibility_scan(n, join, mult, imp):
    """True when (x v y) * (x -> y) = y for every pair.

    No library caller: ``perfbench/twins.py`` still calls it by name.
    """
    for x in range(n):
        xrow = x * n
        for y in range(n):
            if mult[join[xrow + y] * n + imp[xrow + y]] != y:
                return False
    return True


# law_scan opcodes, numbered by position; _core_c.c lists them in this order.
LAW_OPS = ("var", "const", "table", "up", "down", "leq", "eq", "and", "subset")
LAW_STACK = 16
LAW_CODE = 64
LAW_TABLES = 8


def law_scan(n, topo, up, down, tables, consts, programs):
    """The least failing tuple of each program, or None, in topo order.

    The contract is in the docstring of the ``_kernels`` package.  The
    translator lives in ``_law_py``, imported on first use, so that a
    process that runs every law scan on the compiled twin never compiles it.
    """
    from . import _law_py

    return _law_py.law_scan(n, topo, up, down, tables, consts, programs)


def _pack(n, up):
    packed = 0
    for i in range(n):
        packed |= up[i] << (8 * i)
    return packed


def enum_orders(n, lattices_only):
    """Packed order matrices of all naturally labeled posets on n points.

    Index order is a linear extension: element i may only lie above earlier
    elements.  With ``lattices_only`` the search prunes prefixes that can
    no longer complete to a lattice and keeps exactly the lattices.
    One uint64 per poset: row i occupies bits 8i..8i+n.
    """
    if not 1 <= n <= 8:
        raise ValueError("enum_orders supports 1 <= n <= 8")
    out = []
    up = [0] * n
    down = [0] * n

    def lower_sets(i):
        res = []
        for s in range(1 << i):
            m = s
            ok = True
            while m:
                low = m & -m
                if down[low.bit_length() - 1] & ~s:
                    ok = False
                    break
                m ^= low
            if ok:
                res.append(s)
        return res

    def prune_ok(i):
        # every new pair keeps a glb, and every pair now under i still has
        # a unique minimal common upper bound
        di = down[i]
        for j in range(i):
            if _extreme(di & down[j], down) < 0:
                return False
        m1 = di & ~(1 << i)
        while m1:
            low1 = m1 & -m1
            j = low1.bit_length() - 1
            m1 ^= low1
            m2 = m1
            while m2:
                low2 = m2 & -m2
                k = low2.bit_length() - 1
                m2 ^= low2
                if _extreme(up[j] & up[k], up) < 0:
                    return False
        return True

    def complete():
        for j in range(n):
            for k in range(j + 1, n):
                if _extreme(up[j] & up[k], up) < 0 or _extreme(down[j] & down[k], down) < 0:
                    return False
        return True

    def rec(i):
        if i == n:
            if not lattices_only or complete():
                out.append(_pack(n, up))
            return
        bi = 1 << i
        for s in lower_sets(i):
            down[i] = s | bi
            up[i] = bi
            m = s
            while m:
                low = m & -m
                up[low.bit_length() - 1] |= bi
                m ^= low
            if not lattices_only or prune_ok(i):
                rec(i + 1)
            m = s
            while m:
                low = m & -m
                up[low.bit_length() - 1] &= ~bi
                m ^= low
        down[i] = 0
        up[i] = 0

    rec(0)
    return out


def _rank(keys):
    order = {k: r for r, k in enumerate(sorted(set(keys)))}
    return [order[k] for k in keys]


def _color_classes(n, up, down):
    """Stable color classes whose concatenation is a linear extension.

    Strictly comparable elements start with different down-set sizes, so
    they never share a class and lower ones always sort first; refinement
    only splits classes, preserving that order.
    """
    strict_d = [down[i] & ~(1 << i) for i in range(n)]
    strict_u = [up[i] & ~(1 << i) for i in range(n)]
    col = _rank([(bin(strict_d[i]).count("1"), bin(strict_u[i]).count("1"))
                 for i in range(n)])
    while True:
        sig = []
        for i in range(n):
            below = sorted(col[j] for j in range(n) if strict_d[i] >> j & 1)
            above = sorted(col[j] for j in range(n) if strict_u[i] >> j & 1)
            sig.append((col[i], tuple(below), tuple(above)))
        new = _rank(sig)
        if new == col:
            break
        col = new
    classes = {}
    for i in range(n):
        classes.setdefault(col[i], []).append(i)
    return [tuple(classes[c]) for c in sorted(classes)]


def _canonical_packed(n, up):
    down = [0] * n
    for i in range(n):
        rest = up[i]
        while rest:
            low = rest & -rest
            down[low.bit_length() - 1] |= 1 << i
            rest ^= low
    classes = _color_classes(n, up, down)
    best = None
    for combo in product(*(permutations(c) for c in classes)):
        seq = [i for cls in combo for i in cls]
        pos = [0] * n
        for new_i, old in enumerate(seq):
            pos[old] = new_i
        packed = 0
        for new_i, old in enumerate(seq):
            row = 0
            rest = up[old]
            while rest:
                low = rest & -rest
                row |= 1 << pos[low.bit_length() - 1]
                rest ^= low
            packed |= row << 8 * new_i
        if best is None or packed < best:
            best = packed
    return best


def canonical_keys(n, orders):
    """Canonical packed key of each packed order, in input order.

    Orders use the format ``enum_orders`` emits.  The key is the least
    packed word over the relabelings that keep the refined color classes
    of ``_color_classes`` in place, so isomorphic orders share a key.
    """
    if not 1 <= n <= 8:
        raise ValueError("canonical_keys supports 1 <= n <= 8")
    carrier = _pack(n, [(1 << n) - 1] * n)
    out = []
    for packed in orders:
        if packed & ~carrier:
            raise ValueError(f"expected packed orders within the {n}-element carrier")
        out.append(_canonical_packed(n, [packed >> 8 * i & (1 << n) - 1 for i in range(n)]))
    return out
