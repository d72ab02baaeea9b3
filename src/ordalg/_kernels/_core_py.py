"""Pure-Python kernels over int bitmasks: the pure twin.

Bit j of ``up[i]`` set means element i lies below element j (reflexive).
``down`` is the transpose, and ``transpose`` the one way to it here;
``topo_order`` and ``least_full`` derive an order's topological order, top
and bottom.  Table kernels return n row tuples, None for an undefined
cell; the axiom scans take flat row-major sequences of length n*n.
``law_plan`` turns a suite that ``_common.law_compile`` compiled into
Python loops, and ``law_scan`` checks its registers against each call's
rows, as the compiled twin does, and runs them.  The compiled backend
``_core_c`` implements the same contracts for carriers of at most 64
elements; this module also covers larger carriers because Python ints
are unbounded.  What it shares with the library comes from ``_common``.
"""

from collections import namedtuple
from itertools import permutations, product
from math import inf

from ._common import (LAW_OPS, LAW_TABLES, block_masks, common_bounds, extreme, join_into,
                      pack, principal, relative_cell, star_cell, unpack)


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


def _covers(n, up, down):
    # mask i: i's upper covers, the strict upper bounds of i above none of the others
    out = []
    for i in range(n):
        strict = up[i] & ~(1 << i)
        covers = 0
        m = strict
        while m:
            low = m & -m
            m ^= low
            if not strict & down[low.bit_length() - 1] & ~low:
                covers |= low
        out.append(covers)
    return tuple(out)


def poset_index(n, up, closed):
    """(down, topo, top, bottom, covers) of an order's up-masks, or its first fault.

    A fault is ``(kind, i, j)``.  Each i in turn is checked for a mask with
    bits outside the carrier ("carrier") and then for reflexivity
    ("reflexive"); then each i in turn for a cycle ("cycle", with j the
    least other element both above and below i) and, unless ``closed``,
    for transitivity ("transitive": some j above i has an up-set outside
    up[i]).  j is None except for a cycle.  covers is the transitive
    reduction as n masks, mask i holding i's upper covers: its strict upper
    bounds that lie strictly above none of the others.
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
    return (tuple(down), topo_order(n, down), least_full(n, down), least_full(n, up),
            _covers(n, up, down))


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


def _minimal(mask, down):
    # the x of the set whose down-set meets it in x alone
    return sum(1 << x for x in range(mask.bit_length()) if mask & down[x] == 1 << x)


def _lattice(n, up, down):
    # (join, meet), or the first pair without a lub or glb; a meet failure's
    # frontier is 0: two maximal common lower bounds of a and b have no join,
    # and their pair comes earlier in topo order
    topo = topo_order(n, down)
    join = [[0] * n for _ in range(n)]
    meet = [[0] * n for _ in range(n)]
    for ra, a in enumerate(topo):
        for b in topo[ra:]:
            u = up[a] & up[b]
            m = extreme(u, up)
            if m < 0:
                return "join", a, b, _minimal(u, down)
            join[a][b] = join[b][a] = m
            m = extreme(down[a] & down[b], down)
            if m < 0:
                return "meet", a, b, 0
            meet[a][b] = meet[b][a] = m
    return tuple(map(tuple, join)), tuple(map(tuple, meet))


def order_tables(n, up, down):
    """Every pairwise table of an order, as the ``_kernels`` docstring states.

    ``(lattice, (star_rows, star_total), (rel_rows, rel_total), (us, uid,
    low, lu))``.  The star cells read L(U(a, b)) from lu, which is
    symmetric, so row b of ``lu`` is column b; a star cell depends on a
    only through L(U(a, b)), so each column computes one cell per distinct
    value of it.
    """
    full = (1 << n) - 1
    ids = {}
    uid = tuple([tuple([ids.setdefault(ux & uy, len(ids)) for uy in up]) for ux in up])
    low = tuple([common_bounds(full, down, u) for u in ids])
    lu = tuple([tuple([low[i] for i in row]) for row in uid])
    cols, star_total = [], True
    for b, lu_b in enumerate(lu):
        cells = {v: star_cell(full, up, down, v, lu_b, b) for v in set(lu_b)}
        cols.append([cells[v] for v in lu_b])
        star_total = star_total and None not in cells.values()
    by_down = {d: x for x, d in enumerate(down)}
    rel = tuple([tuple([relative_cell(full, up, by_down, da, db) for db in down])
                 for da in down])
    return (_lattice(n, up, down), (tuple(zip(*cols)), star_total),
            (rel, all(None not in row for row in rel)), (tuple(ids), uid, low, lu))


_FORMS = {"up": "U[{0}]", "down": "D[{0}]", "leq": "({0} >> {1} & 1)", "eq": "({0} == {1})",
          "and": "({0} & {1})", "subset": "(not {0} & ~{1})"}


# A compiled suite as Python loops: its law count, and for each arity that
# has laws, (law indices, registers, scan function)
Plan = namedtuple("Plan", "count batches")


def _nest(arity, registers, outputs):
    """The scan function of a batch.

    It runs one nest of loops for the batch and returns the least failing
    tuple or None of each output register.  A register that does not depend
    on the innermost variable is computed once, in the loop of the
    innermost variable it does depend on.
    """
    levels = [[] for _ in range(arity)]  # levels[0] runs before the loops
    names, values, truths = {}, [], set()  # truths: the truth-valued registers

    def value(expr, depth):
        if depth < arity - 1:
            if expr not in names:
                names[expr] = f"v{len(names)}"
                levels[depth + 1].append(f"{names[expr]} = {expr}")
            expr = names[expr]
        return expr, depth

    for r, (op, arg, x, y) in enumerate(registers):
        name = LAW_OPS[op]
        if op > 1:
            (a, da), (b, db) = values[x], values[y]
            depth = max(da, db)
        if name == "var":
            v = (f"x{arg:d}", arg)
        elif name == "const":
            v = value(f"C[{arg:d}]", -1)
        elif name == "table":
            row = value(f"{value(f'T[{arg:d}]', -1)[0]}[{a}]", da)
            v = value(f"{row[0]}[{b}]", depth)
        elif name == "leq":
            row = value(f"U[{a}]", da)
            v = value(_FORMS[name].format(row[0], b), depth)
        elif name == "subset" and {x, y} <= truths:
            # an implication: its conclusion is evaluated only where needed
            v = value(f"(not {a} or {b})", depth)
        else:
            v = value(_FORMS[name].format(a, b), depth)
        if name in ("leq", "eq", "subset") or name == "and" and {x, y} <= truths:
            truths.add(r)
        values.append(v)

    tests = [values[r][0] for r in outputs]
    found = [f"w{i}" for i in range(len(tests))]
    result = f"({''.join(f'{w}, ' for w in found)})"
    lines = ["def scan(order, T, U, D, C):", f"    {' = '.join(found)} = None"]
    for depth, level in enumerate(levels):
        pad = "    " * (depth + 1)
        lines += [pad + line for line in level] + [f"{pad}for x{depth} in order:"]
    pad = "    " * (arity + 1)
    for w, test in zip(found, tests):
        # once a law has failed, the loops go on only for the others
        lines += [f"{pad}if {w} is None and not {test}:",
                  f"{pad}    {w} = ({''.join(f'x{i}, ' for i in range(arity))})",
                  f"{pad}    if {' and '.join(f'{v} is not None' for v in found)}:",
                  f"{pad}        return {result}"]
    lines.append(f"    return {result}")
    scope = {}
    exec(compile("\n".join(lines), "<law>", "exec"), scope)
    return scope["scan"]


def law_plan(compiled):
    """The pure twin's plan of a suite that ``law_compile`` compiled."""
    registers, results = compiled
    batches = []
    for arity, batch in enumerate(registers, 1):
        members = [p for p, (a, _) in enumerate(results) if a == arity]
        if members:
            outputs = [results[p][1] for p in members]
            batches.append((members, batch, _nest(arity, batch, outputs)))
    return Plan(len(results), tuple(batches))


def law_scan(n, up, down, tables, plan):
    """The least failing tuple of each law of plan, or None, in topological order."""
    if n < 1:
        raise ValueError("law_scan supports 1 <= n")
    if type(plan) is not Plan:
        raise TypeError("law_scan takes a plan that law_plan made")
    if len(tables) > LAW_TABLES:
        raise ValueError(f"law_scan takes at most {LAW_TABLES} tables")
    widths, bounds = [], []
    for table in tables:
        if any(len(row) != len(table) for row in table):
            raise ValueError("law tables must be square")
        cells = [cell for row in table for cell in row]
        if cells and (min(cells) < 0 or max(cells) >> n):
            raise ValueError("law table entries must be masks within the carrier")
        widths.append(len(table))
        bounds.append(max(cells, default=0))
    topo, consts = topo_order(n, down), (least_full(n, down), least_full(n, up))
    # every batch's registers in turn, as the compiled twin checks them: each
    # constant or table read is present, and no value used as an index may
    # reach what it indexes, by the most each register holds
    for _, registers, _ in plan.batches:
        most = []
        for op, arg, x, y in registers:
            name = LAW_OPS[op]
            if name == "const" and consts[arg] is None or name == "table" and (
                    arg >= len(tables) or not widths[arg]):
                raise ValueError("law program operand out of range")
            a, b = (most[x], most[y]) if op > 1 else (0, 0)
            if name in ("table", "up", "down", "leq") and max(a, b) >= (
                    widths[arg] if name == "table" else n):
                raise ValueError("law program indexes with a value that may be out of range")
            most.append(n - 1 if op <= 1 else bounds[arg] if name == "table"
                        else inf if name in ("up", "down") else min(a, b) if name == "and" else 1)
    out = [None] * plan.count
    for members, _, fn in plan.batches:
        for p, witness in zip(members, fn(topo, tables, up, down, consts)):
            out[p] = witness
    return out


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
        return all(extreme(down[i] & down[j], down) >= 0 for j in range(i))

    def rec(i):
        if i == n:
            if not lattices_only or down[n - 1] == full:
                out.append(pack(n, up))
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
        packed = pack(n, rows)
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
    carrier = pack(n, [(1 << n) - 1] * n)
    out = []
    for packed in orders:
        if packed & ~carrier:
            raise ValueError(f"expected packed orders within the {n}-element carrier")
        out.append(_canonical_packed(n, unpack(n, packed)))
    return out
