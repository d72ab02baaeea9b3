"""Independent oracles the tests compare library results against.

Everything here is deliberately naive: partitions are enumerated as
restricted growth strings, posets as transitive upper-triangular
relations, isomorphism by trying every permutation, relative
pseudocomplements cell by cell, operator axioms triple by triple,
principal congruences by re-sweeping every related pair, congruence
distributivity triple by triple.  Slow but obviously correct, which is
the point.
"""

from functools import lru_cache
from itertools import permutations

from ordalg import BinOp, Congruence, FiniteAlgebra, Poset, Verdict, as_lattice, lower_set


def all_partitions(n):
    """Every partition of n points as a Congruence, via growth strings."""
    out = []

    def grow(prefix, used):
        i = len(prefix)
        if i == n:
            first = {}
            labels = []
            for pos, v in enumerate(prefix):
                first.setdefault(v, pos)
                labels.append(first[v])
            out.append(Congruence(tuple(labels)))
            return
        for v in range(used + 2):
            grow(prefix + [v], max(used, v))

    grow([], -1)
    return out


def congruence_oracle(algebra):
    """Compatible partitions by exhaustive filtering, in library order."""
    good = [c for c in all_partitions(algebra.n) if c.is_compatible(algebra)]
    return sorted(good, key=lambda c: (c.num_blocks, c.labels))


def join_by_closure(x, y):
    """Join of two partitions: relate a and b until transitively closed."""
    n = x.n
    rel = [[x.relates(a, b) or y.relates(a, b) for b in range(n)] for a in range(n)]
    for k in range(n):
        for a in range(n):
            if rel[a][k]:
                for b in range(n):
                    if rel[k][b]:
                        rel[a][b] = True
    return Congruence(tuple(next(b for b in range(n) if rel[a][b]) for a in range(n)))


def principal_congruence_sweep(algebra, a, b):
    """Least congruence relating a and b: merge, sweep every related pair
    through every operation, repeat until nothing changes."""
    n = algebra.n
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx == ry:
            return False
        parent[max(rx, ry)] = min(rx, ry)
        return True

    union(a, b)
    changed = True
    while changed:
        changed = False
        roots = [find(i) for i in range(n)]
        for _, op in algebra.ops:
            t = op.table
            for x in range(n):
                for y in range(x + 1, n):
                    if roots[x] != roots[y]:
                        continue
                    for z in range(n):
                        if union(t[x][z], t[y][z]):
                            changed = True
                        if union(t[z][x], t[z][y]):
                            changed = True
    return Congruence(tuple(find(i) for i in range(n)))


def congruences_by_all_pairs(algebra):
    """Sweep-closure principal congruences closed under join with every
    congruence found so far, in library order."""
    n = algebra.n
    found = {Congruence.diagonal(n), Congruence.total(n)}
    frontier = []
    for a in range(n):
        for b in range(a + 1, n):
            c = principal_congruence_sweep(algebra, a, b)
            if c not in found:
                found.add(c)
                frontier.append(c)
    while frontier:
        nxt = []
        for c in frontier:
            for d in list(found):
                j = c.join(d)
                if j not in found:
                    found.add(j)
                    nxt.append(j)
        frontier = nxt
    return sorted(found, key=lambda c: (c.num_blocks, c.labels))


def distributive_by_triples(congs):
    """Distributivity verdict with the first failing triple (a, b, c).

    Join and meet are cached per pair of label vectors only to keep the
    cubic scan short.
    """

    @lru_cache(maxsize=None)
    def join(x, y):
        return Congruence(x).join(Congruence(y)).labels

    @lru_cache(maxsize=None)
    def meet(x, y):
        return Congruence(x).meet(Congruence(y)).labels

    for a in congs:
        for b in congs:
            for c in congs:
                x, y, z = a.labels, b.labels, c.labels
                if meet(x, join(y, z)) != join(meet(x, y), meet(x, z)):
                    return Verdict(False, (a, b, c))
    return Verdict(True)


def lattice_algebra(p, star=None, constants=None):
    """Join/meet algebra on a lattice poset, optionally with a star table."""
    lat = as_lattice(p)
    ops = {
        "join": BinOp(p.n, tuple(tuple(r) for r in lat.join)),
        "meet": BinOp(p.n, tuple(tuple(r) for r in lat.meet)),
    }
    if star is not None:
        ops["*"] = star
    if constants is None:
        constants = {"one": p.top} if p.top is not None else {}
    return FiniteAlgebra.build(p, ops, constants)


def naive_labeled_posets(n):
    """All naturally labeled posets on n points by filtering relations.

    Tries every set of strictly upper-triangular pairs and keeps the
    transitive ones; returns up-mask tuples including reflexivity.
    """
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    out = []
    for choice in range(1 << len(pairs)):
        rel = [[i == j for j in range(n)] for i in range(n)]
        for k, (i, j) in enumerate(pairs):
            if choice >> k & 1:
                rel[i][j] = True
        ok = True
        for i in range(n):
            for j in range(n):
                if not rel[i][j]:
                    continue
                for k in range(n):
                    if rel[j][k] and not rel[i][k]:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            out.append(tuple(
                sum(1 << j for j in range(n) if rel[i][j]) for i in range(n)
            ))
    return out


def iso_by_permutation(p, q):
    """Order isomorphism test by brute force over every bijection."""
    if p.n != q.n:
        return False
    n = p.n
    for perm in permutations(range(n)):
        if all(
            p.leq(i, j) == q.leq(perm[i], perm[j])
            for i in range(n)
            for j in range(n)
        ):
            return True
    return False


def permutation_classes(members):
    """Partition posets into isomorphism classes using only iso_by_permutation."""
    classes = []
    for p in members:
        for cls in classes:
            if iso_by_permutation(p, cls[0]):
                cls.append(p)
                break
        else:
            classes.append([p])
    return classes


def poset_from_edges(n, edges):
    """Poset from acyclic edges (i, j) with i < j, closing transitively."""
    up = [1 << i for i in range(n)]
    for i, j in edges:
        up[i] |= 1 << j
    for k in range(n):
        for i in range(n):
            if up[i] >> k & 1:
                up[i] |= up[k]
    return Poset(tuple(f"e{i}" for i in range(n)), tuple(up))


def relative_pc_per_x(p, a, b):
    """Greatest x with down(a) ^ down(x) inside down(b), testing every x."""
    s = 0
    da, db = p.down[a], p.down[b]
    for x in range(p.n):
        if da & p.down[x] & ~db == 0:
            s |= 1 << x
    for x in p.iter_mask(s):
        if s & ~p.down[x] == 0:
            return x
    return None


def subset_groupoid_loops(p, prod, subsets):
    """Commutativity and unit verdicts of a subset product, pair by pair."""
    top_mask = 1 << p.top
    commut = unit = Verdict(True)
    for a_mask in subsets:
        for b_mask in subsets:
            if prod.m(a_mask, b_mask) != prod.m(b_mask, a_mask):
                commut = Verdict(False, (a_mask, b_mask), "subset masks")
                break
        if not commut:
            break
    for a_mask in subsets:
        want = lower_set(p, a_mask)
        if prod.m(top_mask, a_mask) != want or prod.m(a_mask, top_mask) != want:
            unit = Verdict(False, (a_mask,), "subset mask")
            break
    return commut, unit


def adjointness_per_triple(op):
    """Forward and backward adjointness verdicts, scanning every triple.

    U(c,b) and its lower set are rebuilt for each triple, and the scan
    never stops early.
    """
    p = op.poset
    fwd = bwd = Verdict(True)
    for a in p.topo:
        for b in p.topo:
            uab = p.up[a] & p.up[b]
            lb = p.down[b]
            rab = op.resid.r(a, b)
            for c in p.topo:
                ucb = p.up[c] & p.up[b]
                lhs = op.prod.m(uab, ucb) & ~lb == 0
                rhs = lower_set(p, ucb) & ~rab == 0
                if lhs and not rhs and fwd:
                    fwd = Verdict(False, (a, b, c))
                if rhs and not lhs and bwd:
                    bwd = Verdict(False, (a, b, c))
    return fwd, bwd
