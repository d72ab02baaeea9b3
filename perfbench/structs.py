"""Seeded relabeling and a relabeling-invariant key for small posets.

Structures are relabeled before the library sees them, so witnesses and
bitmask layouts vary with the seed while every verdict stays the same.
The key here is the benchmark's own: expected answers are stored under
it, so it must not depend on how the library canonicalises catalogs.
"""

from itertools import permutations, product

# the permutation search below is only meant for catalog-sized carriers
KEY_MAX_ELEMENTS = 8


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def permute_masks(masks, perm):
    """Masks re-indexed so that old element i becomes perm[i]."""
    out = [0] * len(masks)
    for i, mask in enumerate(masks):
        row = 0
        for j in _bits(mask):
            row |= 1 << perm[j]
        out[perm[i]] = row
    return out


def permute_poset(ordalg, p, perm):
    """The same order with element i moved to index perm[i]; names move along."""
    names = [None] * p.n
    for i, name in enumerate(p.names):
        names[perm[i]] = name
    return ordalg.Poset(names, permute_masks(p.up, perm))


def permute_table(table, perm):
    """Operation table rows, columns and cells re-indexed by perm."""
    n = len(table)
    out = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            cell = table[a][b]
            out[perm[a]][perm[b]] = None if cell is None else perm[cell]
    return tuple(tuple(row) for row in out)


def random_perm(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def _color_classes(n, up):
    down = [0] * n
    for i in range(n):
        for j in _bits(up[i]):
            down[j] |= 1 << i
    col = [(bin(down[i]).count("1"), bin(up[i]).count("1")) for i in range(n)]
    while True:
        sig = [
            (col[i],
             tuple(sorted(col[j] for j in _bits(down[i] & ~(1 << i)))),
             tuple(sorted(col[j] for j in _bits(up[i] & ~(1 << i)))))
            for i in range(n)
        ]
        rank = {s: r for r, s in enumerate(sorted(set(sig)))}
        new = [rank[s] for s in sig]
        if len(set(new)) == len(set(col)):
            break
        col = new
    classes = {}
    for i in range(n):
        classes.setdefault(col[i], []).append(i)
    return [classes[c] for c in sorted(classes)]


def order_key(up):
    """String key of an order given by up-masks; equal keys iff isomorphic.

    Refines elements by cone sizes and neighbour colours, then takes the
    least packed relation over every ordering within colour classes.
    """
    n = len(up)
    if n > KEY_MAX_ELEMENTS:
        raise ValueError(f"order keys support at most {KEY_MAX_ELEMENTS} elements")
    classes = _color_classes(n, up)
    best = None
    for combo in product(*(permutations(c) for c in classes)):
        seq = [i for cls in combo for i in cls]
        pos = [0] * n
        for new, old in enumerate(seq):
            pos[old] = new
        packed = 0
        for new, old in enumerate(seq):
            row = 0
            for j in _bits(up[old]):
                row |= 1 << pos[j]
            packed |= row << n * new
        if best is None or packed < best:
            best = packed
    return f"{n}:{best:x}"


def decode_key(key):
    """Up-masks of the order ``order_key`` packed into ``key``."""
    n, packed = key.split(":")
    n, packed = int(n), int(packed, 16)
    mask = (1 << n) - 1
    return [(packed >> n * i) & mask for i in range(n)]
