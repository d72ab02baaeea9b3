"""Named structures, direct products, and small-structure catalogs.

The fixtures are the hand-checked structures the test suite leans on:
the pentagon lattice and the bounded bowtie poset each carry a frozen
sectional-pseudocomplement table, and the residuated chain carries a
multiplication that differs from meet.  Catalogs enumerate every poset
or lattice of a given size, optionally deduplicated up to isomorphism
through a canonical relabeling.  Both steps run in the kernel layer on
packed order matrices (row i in bits 8i..8i+n): ``enum_orders`` lists
the naturally labeled orders and ``canonical_keys`` maps each to the
least packed word over the relabelings its refined color classes allow.
Words are written and read with the pure twin's ``_pack`` and ``_unpack``,
the one codec for them.
"""

import re

from . import _kernels as kernels
from ._kernels._core_py import _pack, _unpack
from .binop import BinOp
from .errors import BudgetError, DuplicateNameError, SizeBudgetError, UnknownFixtureError
from .poset import MAX_ELEMENTS, Poset, make_poset
from .verdict import Record


class Fixture(Record):
    """A named poset plus whatever frozen operation tables it carries."""

    __slots__ = ("name", "poset", "star", "mult", "imp")
    _defaults = {"star": None, "mult": None, "imp": None}


# star tables are stored over the declared element order
_PENTAGON_STAR = (
    (4, 4, 4, 4, 4),
    (2, 4, 2, 4, 4),
    (3, 1, 4, 3, 4),
    (2, 1, 2, 4, 4),
    (0, 1, 2, 3, 4),
)

_BOWTIE_STAR = (
    (5, 5, 5, 5, 5, 5),
    (2, 5, 2, 5, 5, 5),
    (1, 1, 5, 5, 5, 5),
    (0, 1, 2, 5, 4, 5),
    (0, 1, 2, 3, 5, 5),
    (0, 1, 2, 3, 4, 5),
)

_RESIDUATED_CHAIN_MULT = ((0, 0, 0), (0, 0, 1), (0, 1, 2))
_RESIDUATED_CHAIN_IMP = ((2, 2, 2), (1, 2, 2), (0, 1, 2))

FIXTURE_NAMES = (
    "pentagon",
    "diamond",
    "bowtie",
    "residuated-chain",
    "chainK  (2 <= K <= 64)",
    "boolK   (1 <= K <= 6)",
)


def fixture(name):
    """Build a named fixture; chainK and boolK take a numeric suffix."""
    if name == "pentagon":
        p = make_poset(
            ("0", "a", "b", "c", "1"),
            (("0", "a"), ("a", "c"), ("c", "1"), ("0", "b"), ("b", "1")),
        )
        return Fixture(name, p, star=BinOp(5, _PENTAGON_STAR))
    if name == "diamond":
        p = make_poset(
            ("0", "a", "b", "c", "1"),
            (("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")),
        )
        return Fixture(name, p)
    if name == "bowtie":
        p = make_poset(
            ("0", "a", "b", "c", "d", "1"),
            (("0", "a"), ("0", "b"), ("a", "c"), ("a", "d"),
             ("b", "c"), ("b", "d"), ("c", "1"), ("d", "1")),
        )
        return Fixture(name, p, star=BinOp(6, _BOWTIE_STAR))
    if name == "residuated-chain":
        p = make_poset(("0", "a", "1"), (("0", "a"), ("a", "1")))
        return Fixture(
            name, p,
            mult=BinOp(3, _RESIDUATED_CHAIN_MULT),
            imp=BinOp(3, _RESIDUATED_CHAIN_IMP),
        )
    m = re.fullmatch(r"chain(\d+)", name)
    if m:
        k = int(m.group(1))
        if not 2 <= k <= MAX_ELEMENTS:
            raise UnknownFixtureError(f"chain length must be 2..{MAX_ELEMENTS}, not {k}")
        names = tuple(f"c{i}" for i in range(k))
        return Fixture(name, make_poset(names, tuple(zip(names, names[1:]))))
    m = re.fullmatch(r"bool(\d+)", name)
    if m:
        k = int(m.group(1))
        if not 1 <= k <= 6:
            raise UnknownFixtureError(f"boolean rank must be 1..6, not {k}")
        names = tuple(format(v, f"0{k}b") for v in range(1 << k))
        covers = []
        for v in range(1 << k):
            for bit in range(k):
                if not v >> bit & 1:
                    covers.append((names[v], names[v | 1 << bit]))
        return Fixture(name, make_poset(names, covers))
    raise UnknownFixtureError(f"no fixture named {name!r}")


def direct_product(p, q, max_size=MAX_ELEMENTS):
    """Componentwise order on pairs, named left.right in row-major order."""
    n, m = p.n, q.n
    if n * m > max_size:
        raise SizeBudgetError(f"product has {n * m} elements, budget is {max_size}")
    names = tuple(f"{a}.{b}" for a in p.names for b in q.names)
    up = []
    for i in range(n):
        for j in range(m):
            mask = 0
            rest = p.up[i]
            while rest:
                low = rest & -rest
                mask |= q.up[j] << (low.bit_length() - 1) * m
                rest ^= low
            up.append(mask)
    try:
        # the componentwise order of two orders is transitive
        return Poset(names, up, _closed=True)
    except DuplicateNameError:
        # a dot in an element name can make two pairs' names alike
        first = {}
        for pair, name in zip(((a, b) for a in p.names for b in q.names), names):
            if first.setdefault(name, pair) != pair:
                raise DuplicateNameError(f"product elements ({', '.join(first[name])}) and "
                                         f"({', '.join(pair)}) are both named {name!r}") from None
        raise


CATALOG_KINDS = ("all-posets", "posets-with-top", "lattices", "lattices-with-top")

# naturally labeled posets explode beyond seven points
_POSET_LIMIT = 7
_LATTICE_LIMIT = 8


class Catalog(Record):
    """Every structure of one size, in a deterministic order."""

    __slots__ = ("kind", "size", "deduped", "members")

    def __len__(self):
        return len(self.members)


def canonical_key(p):
    """Relabeling-invariant integer key; equal keys mean isomorphic posets."""
    if p.n > 8:
        raise BudgetError("canonical keys support at most 8 elements")
    return kernels.canonical_keys(p.n, [_pack(p.n, p.up)])[0]


def are_isomorphic(p, q):
    """Backtracking search for an order isomorphism."""
    if p.n != q.n:
        return False
    n = p.n
    inv_p = [(p.down[i].bit_count(), p.up[i].bit_count()) for i in range(n)]
    inv_q = [(q.down[i].bit_count(), q.up[i].bit_count()) for i in range(n)]
    if sorted(inv_p) != sorted(inv_q):
        return False
    order = p.topo
    img = [-1] * n
    used = [False] * n

    def extend(k):
        if k == n:
            return True
        i = order[k]
        for j in range(n):
            if used[j] or inv_p[i] != inv_q[j]:
                continue
            ok = True
            for prev in range(k):
                i2 = order[prev]
                j2 = img[i2]
                if (p.up[i2] >> i & 1) != (q.up[j2] >> j & 1) \
                        or (p.up[i] >> i2 & 1) != (q.up[j] >> j2 & 1):
                    ok = False
                    break
            if ok:
                img[i] = j
                used[j] = True
                if extend(k + 1):
                    return True
                used[j] = False
                img[i] = -1
        return False

    return extend(0)


def enumerate_structures(n, kind, dedup=True):
    """Catalog of all posets or lattices on n points.

    Kinds: all-posets, posets-with-top, lattices, lattices-with-top.
    Every finite lattice has a top, so the last two kinds coincide; both
    names are accepted.  Deduplicated catalogs hold one canonical member
    per isomorphism class, sorted by packed order matrix.
    """
    if kind not in CATALOG_KINDS:
        raise ValueError(f"kind must be one of {', '.join(CATALOG_KINDS)}")
    lattices = kind in ("lattices", "lattices-with-top")
    limit = _LATTICE_LIMIT if lattices else _POSET_LIMIT
    if not 1 <= n <= limit:
        raise BudgetError(f"{kind} catalogs support 1 <= n <= {limit}")
    names = tuple(f"e{i}" for i in range(n))
    orders = kernels.enum_orders(n, lattices)
    if kind == "posets-with-top":
        # under a natural labeling only element n-1 can be the top, so an
        # order has a top exactly when every row holds bit n-1
        top = _pack(n, [1 << n - 1] * n)
        orders = [packed for packed in orders if packed & top == top]
    # both kernels emit closed orders
    if dedup:
        orders = sorted(set(kernels.canonical_keys(n, orders)))
    members = tuple(Poset(names, _unpack(n, packed), _closed=True) for packed in orders)
    return Catalog(kind, n, dedup, members)
