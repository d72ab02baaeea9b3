"""Pure-Python kernels over int bitmasks.

Bit j of ``up[i]`` set means element i lies below element j (reflexive).
``down`` is the transpose; ``topo_order`` and ``least_full`` derive an
order's topological order, top and bottom.  Table kernels return n row
tuples, None for an undefined cell; the axiom scans take flat row-major
sequences of length n*n, and ``law_scan`` takes sequences of rows; the
law engine's compiler, plans and scan come from ``_law_py``.
The compiled backend ``_core_c`` implements the same contracts for carriers
of at most 64 elements; this module also covers larger carriers because
Python ints are unbounded.  ``_pack`` and ``_unpack`` are the one codec,
here and in ``constructions``, for the catalog kernels' packed orders, and
``merge``, ``join_into``, ``principal`` and ``block_masks`` the one
union-find of least-member labels, here and in ``congruence``, and
``transpose`` the one way from up-masks to down-masks in this module.
"""

from itertools import permutations, product

# the law engine's entry points, part of this twin's API
from ._law_py import LAW_OPS, law_compile, law_plan, law_scan  # noqa: F401


def transpose(n, up):
    """The down-masks of an up-mask relation: bit i of down[j] is bit j of up[i]."""
    down = [0] * n
    for i in range(n):
        rest = up[i]
        while rest:
            low = rest & -rest
            down[low.bit_length() - 1] |= 1 << i
            rest ^= low
    return down


def topo_order(n, down):
    """The carrier sorted by down-set size, then index: every scan's fixed order."""
    return tuple(sorted(range(n), key=[d.bit_count() for d in down].__getitem__))


def least_full(n, masks):
    """The least index whose mask is the carrier, else None: top of down, bottom of up."""
    full = (1 << n) - 1
    return next((i for i in range(n) if masks[i] == full), None)


def poset_index(n, up, closed):
    """(down, topo, top, bottom) of an order's up-masks, or its first fault.

    A fault is ``(kind, i, j)``.  Each i in turn is checked for a mask with
    bits outside the carrier ("carrier") and then for reflexivity
    ("reflexive"); then each i in turn for a cycle ("cycle", with j the
    least other element both above and below i) and, unless ``closed``,
    for transitivity ("transitive": some j above i has an up-set outside
    up[i]).  j is None except for a cycle.
    """
    full = (1 << n) - 1
    for i in range(n):
        if up[i] & ~full:
            return "carrier", i, None
        if not up[i] >> i & 1:
            return "reflexive", i, None
    down = transpose(n, up)
    for i in range(n):
        loop = up[i] & down[i] & ~(1 << i)
        if loop:
            return "cycle", i, (loop & -loop).bit_length() - 1
        if not closed and any(up[i] >> j & 1 and up[j] & ~up[i] for j in range(n)):
            return "transitive", i, None
    return tuple(down), topo_order(n, down), least_full(n, down), least_full(n, up)


def poset_covers(n, up, down):
    """The transitive reduction as a tuple of (lower, upper) pairs, sorted."""
    out = []
    for i in range(n):
        strict = up[i] & ~(1 << i)
        m = strict
        while m:
            low = m & -m
            j = low.bit_length() - 1
            m ^= low
            if not strict & down[j] & ~(1 << j):
                out.append((i, j))
    return tuple(out)


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


def _minimal(mask, down):
    # the x of the set whose down-set meets it in x alone
    return sum(1 << x for x in range(mask.bit_length()) if mask & down[x] == 1 << x)


def lattice_tables(n, up, down):
    """(join, meet) tables or the first pair without a lub or glb, as ``_kernels`` states.

    A meet failure's frontier is 0: two maximal common lower bounds of a
    and b have no join, and their pair comes earlier in topo order.
    """
    topo = topo_order(n, down)
    join = [[0] * n for _ in range(n)]
    meet = [[0] * n for _ in range(n)]
    for ra, a in enumerate(topo):
        for b in topo[ra:]:
            u = up[a] & up[b]
            m = _extreme(u, up)
            if m < 0:
                return "join", a, b, _minimal(u, down)
            join[a][b] = join[b][a] = m
            m = _extreme(down[a] & down[b], down)
            if m < 0:
                return "meet", a, b, 0
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


def _common_bounds(full, cone, mask):
    # common lower bounds of the set through down, upper through up; full if empty
    acc = full
    while mask:
        low = mask & -mask
        acc &= cone[low.bit_length() - 1]
        mask ^= low
    return acc


def poset_star_table(n, up, down):
    """(rows, total): the sectional pseudocomplement table of a poset.

    None marks an undefined cell, and total says that there is none.
    Each cell is ``star_cell``.  L(U(a, b)) is computed once per distinct
    U(a, b), and it is symmetric, so row b of ``lu`` is column b; a cell
    depends on a only through L(U(a, b)), so each column computes one cell
    per distinct value of it.
    """
    full = (1 << n) - 1
    lu = operator_tables(n, up, down)[3]
    cols, total = [], True
    for b, lu_b in enumerate(lu):
        cells = {v: star_cell(full, up, down, v, lu_b, b) for v in set(lu_b)}
        cols.append([cells[v] for v in lu_b])
        total = total and None not in cells.values()
    return tuple(zip(*cols)), total


def operator_tables(n, up, down):
    """(us, uid, low, lu) for the sets U(x, y) = up[x] & up[y] of a poset.

    ``us`` holds the distinct sets in first-seen row-major order, row x of
    ``uid`` the index in ``us`` of each U(x, y), ``low`` the common lower
    bounds of each set, and row x of ``lu`` those of each U(x, y).
    """
    full = (1 << n) - 1
    ids = {}
    uid = tuple([tuple([ids.setdefault(ux & uy, len(ids)) for uy in up]) for ux in up])
    low = tuple([_common_bounds(full, down, u) for u in ids])
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
    """(rows, total) as ``poset_star_table``, for the relative pseudocomplement."""
    full = (1 << n) - 1
    by_down = {d: x for x, d in enumerate(down)}
    rows = tuple([tuple([relative_cell(full, up, by_down, da, db) for db in down])
                  for da in down])
    return rows, all(None not in row for row in rows)


def rrl_scan(n, up, top, join, mult, imp):
    """Axiom scan for a residuation candidate; returns a bitmask of failures.

    bit 0: commutative groupoid with unit, bit 1: monotone multiplication,
    bit 2: adjointness forward, bit 3: adjointness backward.

    No library caller: ``perfbench/twins.py`` still calls it by name.
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


def merge(label, members, x, y):
    """Union-find by block labels: the blocks of x and y become one.

    The merged block takes the lesser label, so a label stays its block's
    least member and a lookup is one index; ``members`` lists each block
    under its label.
    """
    lx, ly = label[x], label[y]
    if lx > ly:
        lx, ly = ly, lx
    for z in members[ly]:
        label[z] = lx
    members[lx] += members[ly]


def join_into(label, members, other):
    """Merge every block of the partition ``other`` (least-member labels) in."""
    for i, l in enumerate(other):
        if label[i] != label[l]:
            merge(label, members, i, l)


def principal(n, tables, a, b):
    """Labels of the least congruence relating a and b.

    A union-find worklist of pairs (Freese, "Computing congruences
    efficiently", Algebra Universalis 59, 2008): each pair that merges two
    blocks is pushed once, and popping it merges its translates
    (t[x][z], t[y][z]) and (t[z][x], t[z][y]) through every table, the
    second from the table's transpose, both sides because operations need
    not commute.  At most n - 1 merges, so at most n pairs are pushed.
    """
    label = list(range(n))
    members = [[i] for i in range(n)]
    if a != b:
        merge(label, members, a, b)
    work = [(a, b)]
    sides = [side for t in tables for side in (t, tuple(zip(*t)))]
    while work:
        x, y = work.pop()
        for side in sides:
            for p, q in zip(side[x], side[y]):
                if label[p] != label[q]:
                    merge(label, members, p, q)
                    work.append((p, q))
    return tuple(label)


def block_masks(labels):
    """The block of each element as a mask."""
    masks = {}
    for i, l in enumerate(labels):
        masks[l] = masks.get(l, 0) | 1 << i
    return [masks[l] for l in labels]


def congruence_scan(n, tables, one):
    """Principal congruences and the first failure of each criterion.

    Returns ``(labels, permutable, distributive, regular)``: the
    least-member labels of every Θ(a, b), a < b, in row-major order, and
    for each criterion None or its first witness, with every congruence
    given by its labels:

    - permutable: (Θ(x, y), Θ(y, z), (x, z)) at the first (x, y, z) in
      index order with no w such that x Θ(y, z) w Θ(x, y) z;
    - distributive: (j, b, c) for the first join-irreducible principal j
      that is not join-prime: c is the first principal not above j with
      j <= b v c, and b the join of those before it;
    - regular: (R, Θ(x, y)) for the first Θ(x, y) that differs from
      R = ⋁{Θ(one, z) : z in the block of one}; None also when one is None.

    Principals are taken distinct, each at its first pair; j is
    join-irreducible unless the principals strictly below it join to it.
    """
    if n < 1:
        raise ValueError("congruence_scan supports 1 <= n")
    tables = [tuple(map(tuple, t)) for t in tables]
    for t in tables:
        if len(t) != n or any(len(row) != n for row in t) or not set().union(*t) <= set(range(n)):
            raise ValueError(f"expected tables of {n} rows of {n} entries in 0..{n - 1}")
    if one is not None and not 0 <= one < n:
        raise ValueError(f"one must lie in 0..{n - 1}")
    theta = [[None] * n for _ in range(n)]
    labels = []
    first = {}  # each distinct principal with its first pair
    for a in range(n):
        for b in range(a + 1, n):
            lab = theta[a][b] = theta[b][a] = principal(n, tables, a, b)
            labels.append(lab)
            first.setdefault(lab, (a, b))
    distinct = list(first.items())
    masks = {lab: block_masks(lab) for lab in first}
    return (tuple(labels), _permutable(n, theta, masks), _distributive(n, distinct),
            None if one is None else _regular(n, theta, distinct, one))


def _permutable(n, theta, masks):
    for x in range(n):
        for y in range(n):
            if y == x:
                continue
            txy = masks[theta[x][y]]
            for z in range(n):
                if z != x and z != y and not masks[theta[y][z]][x] & txy[z]:
                    return theta[x][y], theta[y][z], (x, z)
    return None


def _distributive(n, distinct):
    for j, (a, b) in distinct:
        # Θ(c, d) <= j exactly when j relates c and d
        label, members = list(range(n)), [[i] for i in range(n)]
        for p, (c, d) in distinct:
            if p != j and j[c] == j[d]:
                join_into(label, members, p)
                if label[a] == label[b]:
                    break
        else:
            # join-irreducible: join the principals not above j until j lies below
            label, members = list(range(n)), [[i] for i in range(n)]
            for c, _ in distinct:
                if c[a] != c[b]:
                    before = tuple(label)
                    join_into(label, members, c)
                    if label[a] == label[b]:
                        return j, before, c
    return None


def _regular(n, theta, distinct, one):
    for lab, (x, y) in distinct:
        label, members = list(range(n)), [[i] for i in range(n)]
        for z in range(n):
            if z != one and lab[z] == lab[one]:
                join_into(label, members, theta[one][z])
        if label[x] != label[y]:
            return tuple(label), lab
    return None


def _pack(n, up):
    packed = 0
    for i in range(n):
        packed |= up[i] << (8 * i)
    return packed


def _unpack(n, packed):
    return [packed >> 8 * i & (1 << n) - 1 for i in range(n)]


def enum_orders(n, lattices_only):
    """Packed order matrices of all naturally labeled posets on n points.

    Index order is a linear extension: element i may only lie above earlier
    elements, so its down-set is final once it is placed.  With
    ``lattices_only`` the search keeps element i only when it has a greatest
    common lower bound with every earlier element, and keeps a finished
    order only when element n - 1 is its top: a finite order with a top and
    all binary meets is a lattice, and the top of a lattice comes last.
    One uint64 per poset: row i occupies bits 8i..8i+n.
    """
    if not 1 <= n <= 8:
        raise ValueError("enum_orders supports 1 <= n <= 8")
    out = []
    up = [0] * n
    down = [0] * n
    full = (1 << n) - 1

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

    def meets(i):
        return all(_extreme(down[i] & down[j], down) >= 0 for j in range(i))

    def rec(i):
        if i == n:
            if not lattices_only or down[n - 1] == full:
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
            if not lattices_only or meets(i):
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
    col = _rank([(strict_d[i].bit_count(), strict_u[i].bit_count()) for i in range(n)])
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
    classes = _color_classes(n, up, transpose(n, up))
    best = None
    for combo in product(*(permutations(c) for c in classes)):
        seq = [i for cls in combo for i in cls]
        pos = [0] * n
        for new_i, old in enumerate(seq):
            pos[old] = new_i
        rows = []
        for old in seq:
            row = 0
            rest = up[old]
            while rest:
                low = rest & -rest
                row |= 1 << pos[low.bit_length() - 1]
                rest ^= low
            rows.append(row)
        packed = _pack(n, rows)
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
        out.append(_canonical_packed(n, _unpack(n, packed)))
    return out
