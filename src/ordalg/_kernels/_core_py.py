"""Pure-Python kernels over int bitmasks.

Bit j of ``up[i]`` set means element i lies below element j (reflexive).
``down`` is the transpose.  Tables are flat row-major lists of length n*n,
except that ``law_scan`` takes sequences of rows.
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
    return out


def _least(mask, up):
    # index of the minimum of the set, or -1
    m = mask
    while m:
        low = m & -m
        x = low.bit_length() - 1
        if mask & ~up[x] == 0:
            return x
        m ^= low
    return -1


def _greatest(mask, down):
    m = mask
    while m:
        low = m & -m
        x = low.bit_length() - 1
        if mask & ~down[x] == 0:
            return x
        m ^= low
    return -1


def lattice_tables(n, up, down):
    """Flat (join, meet) tables, or None if some pair lacks a lub or glb."""
    join = [0] * (n * n)
    meet = [0] * (n * n)
    for i in range(n):
        for j in range(i, n):
            m = _least(up[i] & up[j], up)
            if m < 0:
                return None
            join[i * n + j] = join[j * n + i] = m
            m = _greatest(down[i] & down[j], down)
            if m < 0:
                return None
            meet[i * n + j] = meet[j * n + i] = m
    return join, meet


def poset_star_table(n, up, down):
    """Sectional pseudocomplement table for a poset; -1 marks undefined cells.

    Cell (a, b) is the unique d with: for every c, the common lower bounds
    of U(a,b) and U(c,b) reduce to the lower cone of b exactly when d lies
    in U(c,b).  Computed as the minimum of the intersection of the U(c,b)
    over the qualifying c, then verified.
    """
    full = (1 << n) - 1
    lu = [[0] * n for _ in range(n)]
    for x in range(n):
        ux = up[x]
        for y in range(x, n):
            s = ux & up[y]
            acc = full
            m = s
            while m:
                low = m & -m
                acc &= down[low.bit_length() - 1]
                m ^= low
            lu[x][y] = lu[y][x] = acc
    star = [-1] * (n * n)
    for a in range(n):
        lu_a = lu[a]
        for b in range(n):
            lu_ab = lu_a[b]
            lb = down[b]
            t = full
            for c in range(n):
                if lu_ab & lu[c][b] == lb:
                    t &= up[c] & up[b]
            d = _least(t, up)
            if d >= 0 and down[d] >> b & 1 and lu_ab & down[d] == lb:
                star[a * n + b] = d
    return star


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
    """True when (x v y) * (x -> y) = y for every pair."""
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
            if _greatest(di & down[j], down) < 0:
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
                if _least(up[j] & up[k], up) < 0:
                    return False
        return True

    def complete():
        for j in range(n):
            for k in range(j + 1, n):
                u = up[j] & up[k]
                if not u or _least(u, up) < 0:
                    return False
                if _greatest(down[j] & down[k], down) < 0:
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
