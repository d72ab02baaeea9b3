"""Congruences of finite algebras with binary operations and constants.

A congruence is stored as a canonical label vector: every element maps to
the least index of its block.

One ``congruence_scan`` kernel call computes every principal congruence
Θ(a, b) by a union-find worklist of pairs (Freese, "Computing congruences
efficiently", Algebra Universalis 59, 2008) and decides three properties
from them alone, without listing Con:

- permutability: for all x, y, z some w has x Θ(y, z) w Θ(x, y) z;
- distributivity: every join-irreducible principal congruence is
  join-prime (the join-irreducibles of Con are principal);
- weak regularity: each Θ(x, y) is the join of the Θ(one, z) over the
  block of one.

The scan's result is kept for the last algebra only, so
``all_congruences``, the three checks and ``maltsev_replay`` on one
algebra share one kernel call.  ``maltsev_replay`` replays the
permutability term on the principal pairs (Θ(a, b), Θ(b, c)) alone.

Every congruence is a join of principal ones, so ``all_congruences``
closes the principal congruences under joins with a principal congruence,
finest first, so that only the join-irreducible ones cost a round,
within a budget on the number of congruences; it is cross-checked in the
tests against filtering every set partition of the carrier.  A caller
that passes its own list of congruences to a check gets that list
scanned instead: every pair for permutability, every triple for
distributivity (through join and meet tables computed once per pair) and
the block of one of each congruence for weak regularity.
"""

from functools import lru_cache

from . import _kernels as kernels
from ._kernels._common import block_masks, join_into, merge, principal
from .binop import BinOp, _check_pair
from .errors import BudgetError, MissingConstantError
from .verdict import HOLDS, Record, Verdict

CONGRUENCE_BUDGET = 4096


class FiniteAlgebra(Record):
    """Carrier with named total binary operations and named constants.

    Conventional op names: join, meet, *, mult, imp.  Constants map a
    name like 'one' to an element index.
    """

    __slots__ = ("poset", "ops", "constants")

    def __init__(self, poset, ops, constants=()):
        n = poset.n
        for name, op in ops:
            if not isinstance(op, BinOp) or op.n != n or not op.is_total:
                raise ValueError(f"op {name!r} must be a total table on the carrier")
        for name, c in constants:
            if not isinstance(c, int):
                raise ValueError(f"constant {name!r} is {c!r}, not an int")
            if not 0 <= c < n:
                raise ValueError(f"constant {name!r} outside the carrier")
        self._fill(poset, ops, constants)

    @classmethod
    def build(cls, poset, ops, constants=()):
        return cls(poset, tuple(ops.items() if isinstance(ops, dict) else ops),
                   tuple(constants.items() if isinstance(constants, dict) else constants))

    @property
    def n(self):
        return self.poset.n

    def op(self, name):
        for key, table in self.ops:
            if key == name:
                return table
        raise KeyError(name)

    def op_names(self):
        return tuple(name for name, _ in self.ops)

    def constant(self, name):
        for key, c in self.constants:
            if key == name:
                return c
        raise MissingConstantError(f"algebra has no constant {name!r}")


class Congruence(Record):
    """Partition by least-member labels; equality is structural."""

    __slots__ = ("labels",)

    @property
    def n(self):
        return len(self.labels)

    def relates(self, a, b):
        _check_pair(self.n, a, b)
        return self.labels[a] == self.labels[b]

    def block_of(self, x):
        _check_pair(self.n, x, x)
        lx = self.labels[x]
        return tuple(i for i in range(self.n) if self.labels[i] == lx)

    def blocks(self):
        seen = {}
        for i, l in enumerate(self.labels):
            seen.setdefault(l, []).append(i)
        return tuple(tuple(b) for _, b in sorted(seen.items()))

    @property
    def num_blocks(self):
        return len(set(self.labels))

    def block_masks(self):
        return block_masks(self.labels)

    def _same_carrier(self, other):
        if self.n != other.n:
            raise ValueError(f"carriers of {self.n} and {other.n} elements differ")

    def meet(self, other):
        self._same_carrier(other)
        # the first index of each label pair is its block's least member
        first = {}
        return Congruence(tuple(
            first.setdefault(key, i) for i, key in enumerate(zip(self.labels, other.labels))
        ))

    def join(self, other):
        self._same_carrier(other)
        label = list(self.labels)
        members = [[] for _ in label]
        for i, l in enumerate(label):
            members[l].append(i)
        join_into(label, members, other.labels)
        return Congruence(tuple(label))

    @classmethod
    def diagonal(cls, n):
        return cls(tuple(range(n)))

    @classmethod
    def total(cls, n):
        return cls((0,) * n)

    @classmethod
    def from_blocks(cls, n, blocks):
        """The partition the blocks generate: overlapping blocks merge."""
        label = list(range(n))
        members = [[i] for i in range(n)]
        for block in map(tuple, blocks):
            if not all(0 <= x < n for x in block):
                raise ValueError(f"block {block} leaves the carrier of {n} elements")
            for x in block[1:]:
                if label[x] != label[block[0]]:
                    merge(label, members, block[0], x)
        return cls(tuple(label))

    def is_compatible(self, algebra):
        """True when every operation maps related pairs to related pairs."""
        self._same_carrier(algebra)
        for _, op in algebra.ops:
            t = op.table
            for x in range(self.n):
                for y in range(x + 1, self.n):
                    if self.labels[x] != self.labels[y]:
                        continue
                    for z in range(self.n):
                        if self.labels[t[x][z]] != self.labels[t[y][z]]:
                            return False
                        if self.labels[t[z][x]] != self.labels[t[z][y]]:
                            return False
        return True


def principal_congruence(algebra, a, b):
    """Least congruence relating a and b, by a union-find worklist of pairs."""
    _check_pair(algebra.n, a, b)
    return Congruence(principal(algebra.n, [op.table for _, op in algebra.ops], a, b))


@lru_cache(maxsize=1)
def _scan(algebra):
    # (principal labels, permutable, distributive, regular) from one kernel
    # call, kept for the last algebra only, which the checks usually share
    one = next((c for name, c in algebra.constants if name == "one"), None)
    return kernels.congruence_scan(algebra.n, [op.table for _, op in algebra.ops], one)


def all_congruences(algebra, budget=CONGRUENCE_BUDGET):
    """Every congruence, ordered by block count then labels.

    Every congruence is a join of principal ones, so one pass over the
    distinct principals, each joined with everything found before it,
    lists them all, starting from the diagonal.  The pass visits the
    finest principals first and skips one already found: that one is a
    join of finer principals, so a round is spent only on each
    join-irreducible of Con, and the work is at most ``budget`` joins per
    join-irreducible.  Raises ``BudgetError`` exactly when Con has more
    than ``budget`` members, ending the pass as soon as more are found
    (a one-element algebra runs no round, and its diagonal still counts),
    and ``ValueError`` for a negative budget.
    """
    if budget < 0:
        raise ValueError(f"budget {budget} is negative")
    found = {Congruence.diagonal(algebra.n)}
    for p in sorted(set(map(Congruence, _scan(algebra)[0])),
                    key=lambda c: (-c.num_blocks, c.labels)):
        if p in found:
            continue
        found |= {c.join(p) for c in found}
        if len(found) > budget:
            break
    if len(found) > budget:
        raise BudgetError(f"more than {budget} congruences exceed the budget")
    return sorted(found, key=lambda c: (c.num_blocks, c.labels))


def _compose(tmask, pmask):
    # relation composition on block masks: x (theta;phi) z iff some y has
    # x theta y and y phi z
    out = []
    for m in tmask:
        acc = 0
        while m:
            low = m & -m
            acc |= pmask[low.bit_length() - 1]
            m ^= low
        out.append(acc)
    return out


def check_permutable(algebra, congs=None):
    """Verdict: every pair of congruences permutes under composition.

    The witness is (theta, phi, (x, z)) with (x, z) in theta;phi but not
    in phi;theta.  By default theta = Θ(x, y) and phi = Θ(y, z) at the
    first (x, y, z) where Θ(x, y) and Θ(y, z) do not permute; with
    ``congs``, the first pair of listed congruences that do not permute.
    """
    if congs is None:
        w = _scan(algebra)[1]
        return Verdict.of(w and (Congruence(w[0]), Congruence(w[1]), w[2]))
    masks = [c.block_masks() for c in congs]
    for i, theta in enumerate(congs):
        for j in range(i + 1, len(congs)):
            left = _compose(masks[i], masks[j])
            right = _compose(masks[j], masks[i])
            if left != right:
                # phi;theta is the converse of theta;phi, so left is not within right
                for x in range(algebra.n):
                    diff = left[x] & ~right[x]
                    if diff:
                        z = (diff & -diff).bit_length() - 1
                        return Verdict(False, (theta, congs[j], (x, z)))
    return HOLDS


class _OpTable(dict):
    """Rows of a join or meet table of congruences, by index.

    Each row maps an index to the index of the result; an entry is
    computed once, on first lookup, and a result missing from the index
    gets a fresh index past the listed congruences.
    """

    def __init__(self, items, index, method):
        super().__init__()
        self.items, self.index, self.method = items, index, method

    def __missing__(self, i):
        row = self[i] = _OpRow(self, i)
        return row


class _OpRow(dict):
    def __init__(self, table, i):
        super().__init__()
        self.table, self.i = table, i

    def __missing__(self, j):
        table = self.table
        other = table.get(j)
        if other is not None and self.i in other:
            k = other[self.i]
        else:
            items = table.items
            c = table.method(items[self.i], items[j])
            k = table.index.get(c)
            if k is None:
                k = table.index[c] = len(items)
                items.append(c)
        self[j] = k
        return k


def check_congruence_distributive(algebra, congs=None):
    """Verdict: the congruence lattice satisfies the distributive law.

    The witness is a triple (a, b, c) with a ^ (b v c) != (a ^ b) v (a ^ c).
    By default it is (j, b, c) for the first join-irreducible principal
    congruence j that is not join-prime: j <= b v c, j </= b, j </= c.
    With ``congs`` it is the first such triple of the list, in list order.
    """
    if congs is None:
        w = _scan(algebra)[2]
        return Verdict.of(w and tuple(map(Congruence, w)))
    items = list(congs)
    index = {c: i for i, c in enumerate(items)}
    join = _OpTable(items, index, Congruence.join)
    meet = _OpTable(items, index, Congruence.meet)
    r = range(len(congs))
    joins = [[join[b][c] for c in r] for b in r]
    for a in r:
        meet_a = meet[a]
        meets = [meet_a[c] for c in r]
        for b in r:
            join_ab = join[meets[b]]
            lhs = list(map(meet_a.__getitem__, joins[b]))
            rhs = list(map(join_ab.__getitem__, meets))
            if lhs != rhs:
                c = next(c for c in r if lhs[c] != rhs[c])
                return Verdict(False, (congs[a], congs[b], congs[c]))
    return HOLDS


def _implication(algebra):
    # name of the implication-like op: imp, else star, else None
    return next((name for name in ("imp", "*") if name in algebra.op_names()), None)


def check_weakly_regular(algebra, congs=None):
    """Verdict: congruences are determined by their block of the constant one.

    The witness is two distinct congruences with the same block of one: by
    default (R, Θ(x, y)) for the first Θ(x, y) that is not the join R of
    the Θ(one, z) over its block of one, with ``congs`` the first two
    listed.  When an implication-like op is present (imp, else star), also verifies
    the term condition: both directed implications equal one exactly for
    equal arguments.
    """
    one = algebra.constant("one")
    if congs is None:
        w = _scan(algebra)[3]
        if w is not None:
            return Verdict(False, tuple(map(Congruence, w)), "same block of one")
    else:
        seen = {}
        for c in congs:
            key = c.block_of(one)
            if key in seen:
                return Verdict(False, (seen[key], c), "same block of one")
            seen[key] = c
    imp_name = _implication(algebra)
    if imp_name is not None:
        t = algebra.op(imp_name).table
        for x in range(algebra.n):
            for y in range(algebra.n):
                both_one = t[x][y] == one and t[y][x] == one
                if both_one != (x == y):
                    return Verdict(False, (x, y), f"term condition via {imp_name}")
    return HOLDS


def maltsev_replay(algebra):
    """Replay the permutability term; returns mismatches, empty when clean.

    For a theta b phi c the element m = ((a->b)->c) ^ ((c->b)->a) should
    be phi-related to a and theta-related to c.  Every such theta contains
    Θ(a, b) and every such phi contains Θ(b, c), so a deviation shows on
    that principal pair already, which is the only pair replayed: one
    entry (Θ(a, b), Θ(b, c), a, b, c, m, side) per deviating (a, b, c),
    side "phi side" before "theta side", with the diagonal for an equal
    pair.  The principal congruences come from the shared scan, so Con is
    never listed.
    """
    imp_name = _implication(algebra)
    if imp_name is None:
        raise KeyError("algebra has neither an 'imp' nor a '*' op")
    imp = algebra.op(imp_name).table
    meet = algebra.op("meet").table
    n = algebra.n
    pairs = iter(_scan(algebra)[0])
    theta = [[None] * n for _ in range(n)]
    for a in range(n):
        theta[a][a] = tuple(range(n))
        for b in range(a + 1, n):
            theta[a][b] = theta[b][a] = next(pairs)
    bad = []
    for a in range(n):
        for b in range(n):
            tab, ab = theta[a][b], imp[a][b]
            for c in range(n):
                tbc = theta[b][c]
                m = meet[imp[ab][c]][imp[imp[c][b]][a]]
                if tbc[a] != tbc[m]:
                    bad.append((Congruence(tab), Congruence(tbc), a, b, c, m, "phi side"))
                if tab[m] != tab[c]:
                    bad.append((Congruence(tab), Congruence(tbc), a, b, c, m, "theta side"))
    return bad
