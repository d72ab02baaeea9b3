"""What the library and both kernel twins share, each stated once.

The law compiler, the two pseudocomplement cell rules with the order
primitives they rest on, the union-find of least-member labels, and the
codec of the catalog kernels' packed orders; masks are ints of any width.
The contracts are in the docstring of the ``_kernels`` package.
"""

# law_scan opcodes, numbered by position; _core_c.c lists them in this order.
LAW_OPS = ("var", "const", "table", "up", "down", "leq", "eq", "and", "subset")
LAW_NODES = 64
LAW_TABLES = 8
# how many operands follow each opcode's head in a term: an int for the
# three leaves, then its subterms
_OPERANDS = (1, 1, 3, 1, 1, 2, 2, 2, 2)


def law_compile(laws):
    """The register form of a suite of (arity, term) laws, which each twin's ``law_plan`` reads.

    The one place that checks what reads no call's inputs, and merges equal subterms.
    """
    batches, results = ({}, {}, {}, {}), []
    for arity, term in laws:
        if not 1 <= arity <= 4:
            raise ValueError("law arity must lie in 1..4")
        registers, nodes = batches[arity - 1], 0

        def register(term):
            nonlocal nodes
            nodes += 1
            if nodes > LAW_NODES:
                raise ValueError(f"a law term has at most {LAW_NODES} nodes")
            if not (type(term) is tuple and term and term[0] in LAW_OPS):
                raise ValueError(f"a law term is a tuple headed by one of LAW_OPS, not {term!r}")
            head, *operands = term
            op = LAW_OPS.index(head)
            if len(operands) != _OPERANDS[op]:
                raise ValueError(f"law term {head} takes {_OPERANDS[op]} operand(s), "
                                 f"not {len(operands)}")
            arg = operands.pop(0) if op <= 2 else 0
            if op <= 2 and not (isinstance(arg, int) and 0 <= arg < (arity, 2, LAW_TABLES)[op]):
                raise ValueError(f"law term operand out of range: {head} {arg!r}")
            # a leaf's operands are 0, and up and down name theirs twice
            subterms = [register(t) for t in operands] or [0]
            return registers.setdefault((op, arg, subterms[0], subterms[-1]), len(registers))

        results.append((arity, register(term)))
    return tuple(map(tuple, batches)), tuple(results)


def extreme(mask, cone):
    """The x of mask within cone[x], or -1: its minimum through up, its maximum through down."""
    m = mask
    while m:
        low = m & -m
        x = low.bit_length() - 1
        if mask & ~cone[x] == 0:
            return x
        m ^= low
    return -1


def common_bounds(full, cone, mask):
    """Common lower bounds of the set through down, upper through up; full if empty."""
    acc = full
    while mask:
        low = mask & -mask
        acc &= cone[low.bit_length() - 1]
        mask ^= low
    return acc


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
    d = extreme(t, up)
    if d >= 0 and down[d] >> b & 1 and lu_ab & down[d] == lb:
        return d
    return None


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


def pack(n, up):
    """The packed word of an order of at most 8 elements: row i in bits 8i..8i+n."""
    packed = 0
    for i in range(n):
        packed |= up[i] << (8 * i)
    return packed


def unpack(n, packed):
    """The n rows of a packed word, as ``pack`` writes them."""
    return [packed >> 8 * i & (1 << n) - 1 for i in range(n)]
