"""Independent oracles the tests compare library results against.

Everything here is deliberately naive: partitions are enumerated as
restricted growth strings, posets as transitive upper-triangular
relations, a poset's checks with the one-step transitivity rule, its
covers as the strict pairs with nothing strictly between,
isomorphism by trying every permutation, relative
pseudocomplements cell by cell, operator axioms triple by triple,
principal congruences by re-sweeping every related pair, the
congruence lattice by closing under joins with principal congruences
round by round, and for a product of lattices factor by factor, the
join-irreducible congruences by their lower covers, congruence
distributivity triple by triple, permutability by composing relations
as sets of pairs, weak regularity by comparing blocks of one, the
permutability term's replay over every pair of listed congruences, the
operator scan's U(x, y) tables by
comprehension, lattice failures by rescanning every pair, sectional
pseudocomplements by the join formula and by a scan over every c,
every lattice, residuation and operator law by the hand loop it had
before the law engine, and structure files by the parser that gave
every token its line and column, and the relative residuations of a
chain by a row-by-row count and by trying every product.  Slow but
obviously correct, which is the point.
"""

import re
from functools import cache, lru_cache
from itertools import permutations, product

from ordalg import (
    BinOp,
    BudgetError,
    CanonicalProduct,
    Congruence,
    CycleDetectedError,
    FailureWitness,
    FiniteAlgebra,
    NotALattice,
    ParseError,
    Poset,
    PreconditionError,
    RaggedTableError,
    StructureFile,
    UnknownElementError,
    Verdict,
    as_lattice,
    lower_set,
)


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


def congruences_by_frontier(algebra, budget):
    """Swept principal congruences closed under joins with a principal one,
    round by round, in library order; ``BudgetError`` once more than
    ``budget`` are found before a congruence's joins, or at the end."""
    n = algebra.n
    found = {Congruence.diagonal(n)}
    principals = list(dict.fromkeys(principal_congruence_sweep(algebra, a, b)
                                    for a in range(n) for b in range(a + 1, n)))
    found.update(principals)
    frontier = principals
    while frontier:
        nxt = []
        for c in frontier:
            if len(found) > budget:
                raise BudgetError(f"more than {budget} congruences exceed the budget")
            for p in principals:
                j = c.join(p)
                if j not in found:
                    found.add(j)
                    nxt.append(j)
        frontier = nxt
    if len(found) > budget:
        # without a principal congruence (one element) no round checks
        raise BudgetError(f"more than {budget} congruences exceed the budget")
    return sorted(found, key=lambda c: (c.num_blocks, c.labels))


def product_congruences(left, right):
    """Congruences of a product of lattices from those of its factors.

    Lattices are congruence distributive, so every congruence of L x M
    relates pairs componentwise by one congruence of L and one of M
    (Fraser and Horn, 1970).  Pairs are numbered row-major, as by
    ``direct_product``.
    """
    return [Congruence(tuple(t * phi.n + u for t in theta.labels for u in phi.labels))
            for theta in left for phi in right]


def join_irreducibles(congs):
    """The listed congruences with exactly one lower cover in the list.

    In a finite order that holds exactly when the strictly finer listed
    congruences have a greatest one.  Each congruence is compared as the
    block masks of its elements side by side, so finer is a submask.
    """
    n = congs[0].n
    masks = [sum(m << n * i for i, m in enumerate(c.block_masks())) for c in congs]
    out = []
    for c, mc in zip(congs, masks):
        below = [m for m in masks if m != mc and m | mc == mc]
        if below:
            top = max(below, key=int.bit_count)
            if all(m | top == top for m in below):
                out.append(c)
    return out


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


def _composite(n, theta, phi):
    # pairs (x, z) with x theta y and y phi z for some y
    return {(x, z) for x in range(n) for y in range(n) for z in range(n)
            if theta.relates(x, y) and phi.relates(y, z)}


def permutable_by_relations(congs):
    """True when every two listed congruences permute, as sets of pairs."""
    return all(_composite(t.n, t, f) == _composite(t.n, f, t) for t in congs for f in congs)


def weakly_regular_by_blocks(congs, one):
    """True when no two listed congruences share their block of one."""
    blocks = [tuple(x for x in range(c.n) if c.relates(x, one)) for c in congs]
    return len(set(blocks)) == len(set(congs))


def maltsev_by_con_pairs(algebra, congs):
    """Replay of the permutability term over every pair of listed congruences.

    For theta, phi in ``congs`` and a theta b phi c, the element
    m = ((a->b)->c) ^ ((c->b)->a) should be phi-related to a and
    theta-related to c; every deviation is an entry
    (theta, phi, a, b, c, m, side).  The implication is ``imp``, else ``*``.
    """
    imp_name = next(name for name in ("imp", "*") if name in algebra.op_names())
    imp = algebra.op(imp_name).table
    meet = algebra.op("meet").table
    n = algebra.n
    bad = []
    for theta in congs:
        for phi in congs:
            for a in range(n):
                for b in range(n):
                    if not theta.relates(a, b):
                        continue
                    for c in range(n):
                        if not phi.relates(b, c):
                            continue
                        m = meet[imp[imp[a][b]][c]][imp[imp[c][b]][a]]
                        if not phi.relates(a, m):
                            bad.append((theta, phi, a, b, c, m, "phi side"))
                        if not theta.relates(m, c):
                            bad.append((theta, phi, a, b, c, m, "theta side"))
    return bad


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


def checked_order(names, up):
    """The (up, down) masks Poset(names, up) builds, or the error it raises.

    The checks run in Poset's order: carrier bits and reflexivity for every
    element, then per element the cycle check before transitivity, here
    the one-step rule that the up-set of each j above i lies within up[i].
    """
    n = len(names)
    down = [0] * n
    for i in range(n):
        if up[i] >> n:
            raise ValueError(f"up-mask of {names[i]!r} has bits outside the carrier")
        if not up[i] >> i & 1:
            raise ValueError(f"order is not reflexive at {names[i]!r}")
        for j in range(n):
            if up[i] >> j & 1:
                down[j] |= 1 << i
    for i in range(n):
        for j in range(n):
            if j != i and up[i] >> j & 1 and down[i] >> j & 1:
                raise CycleDetectedError(names[i], names[j])
        for j in range(n):
            if up[i] >> j & 1 and up[j] & ~up[i]:
                raise ValueError(f"order is not transitive at {names[i]!r}")
    return tuple(up), tuple(down)


def covers_by_definition(up):
    """An order's cover pairs (i, j), sorted: i < j with no k strictly between."""
    n = len(up)
    strict = [up[i] & ~(1 << i) for i in range(n)]
    return tuple((i, j) for i in range(n) for j in range(n) if strict[i] >> j & 1
                 and not any(strict[i] >> k & 1 and strict[k] >> j & 1 for k in range(n)))


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


def relabeled(p, perm):
    """The poset p with element i renamed to index perm[i] and name r<perm[i]>."""
    up = [0] * p.n
    for i in range(p.n):
        mask = 0
        rest = p.up[i]
        while rest:
            low = rest & -rest
            mask |= 1 << perm[low.bit_length() - 1]
            rest ^= low
        up[perm[i]] = mask
    return Poset(tuple(f"r{i}" for i in range(p.n)), tuple(up))


def synthesize_by_join_formula(lat):
    """Sectional pseudocomplement table of a lattice by the join formula.

    Each cell is the join of every x above b with (a v b) ^ x = b; the
    first pair in topological order where that join misses the identity
    is returned as a FailureWitness.
    """
    p = lat.poset
    rows = [[0] * p.n for _ in range(p.n)]
    for a in p.topo:
        for b in p.topo:
            vee = lat.join[a][b]
            cand = b
            for x in range(p.n):
                if p.up[b] >> x & 1 and lat.meet[vee][x] == b:
                    cand = lat.join[cand][x]
            if lat.meet[vee][cand] != b:
                return FailureWitness((a, b), cand, lat.meet[vee][cand])
            rows[a][b] = cand
    return BinOp.from_rows(rows)


def sectional_pc_by_cones(p, a, b):
    """Sectional pseudocomplement of a relative to b from cones alone, or None.

    Intersects U(c,b) over every c whose L(U(c,b)) meets L(U(a,b)) in
    exactly the cone of b, then checks the least element of the result.
    """
    full = p.full
    lu_ab = lower_set(p, p.up[a] & p.up[b])
    lb = p.down[b]
    t = full
    for c in range(p.n):
        if lu_ab & lower_set(p, p.up[c] & p.up[b]) == lb:
            t &= p.up[c] & p.up[b]
    d = None
    for x in p.iter_mask(t):
        if t & ~p.up[x] == 0:
            d = x
            break
    if d is None:
        return None
    if not p.down[d] >> b & 1 or lu_ab & p.down[d] != lb:
        return None
    return d


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


# The law loops below scan tuples in the fixed topological order and stop
# at the first failure, as the library did before the law engine.


def _pairs(p):
    for a in p.topo:
        for b in p.topo:
            yield a, b


def _triples(p):
    for a in p.topo:
        for b in p.topo:
            for c in p.topo:
                yield a, b, c


def lattice_tables_by_loops(p, join, meet):
    """The message LatticeOps rejects the tables of a lattice with, or None.

    A lub check on each join cell, then a glb check on each meet cell,
    each over pairs in topological order.  On a lattice a cell fails them
    exactly where its table differs from ``as_lattice``'s, which is where
    LatticeOps names it.
    """
    for name, table, cone in (("join", join, p.up), ("meet", meet, p.down)):
        for a, b in _pairs(p):
            j = table[a][b]
            u = cone[a] & cone[b]
            if not (u >> j & 1 and u & ~cone[j] == 0):
                return f"{name} table wrong at ({p.names[a]}, {p.names[b]})"
    return None


def not_a_lattice_by_rescan(p):
    """NotALattice at the first pair in topological order without a lub or glb, or None.

    The rescan ``as_lattice`` ran before the table kernel named the
    failure: for each pair (a, b) with b no earlier than a, the minimal
    common upper bounds, then the maximal common lower bounds, must be one
    element.
    """
    for ra, a in enumerate(p.topo):
        for b in p.topo[ra:]:
            u = p.up[a] & p.up[b]
            mins = tuple(i for i in p.topo if u >> i & 1 and p.down[i] & u == 1 << i)
            if len(mins) != 1:
                return NotALattice("join", (a, b), mins)
            d = p.down[a] & p.down[b]
            maxs = tuple(i for i in p.topo if d >> i & 1 and p.up[i] & d == 1 << i)
            if len(maxs) != 1:
                return NotALattice("meet", (a, b), maxs)
    return None


def modularity_by_triples(lat):
    p = lat.poset
    for a in p.topo:
        ua = p.up[a]
        for b in p.topo:
            for c in p.topo:
                if ua >> c & 1 and lat.join[a][lat.meet[b][c]] != lat.meet[lat.join[a][b]][c]:
                    return Verdict(False, (a, b, c))
    return Verdict(True)


def distributivity_by_triples(lat):
    p = lat.poset
    for a in p.topo:
        for b in p.topo:
            for c in p.topo:
                if lat.meet[a][lat.join[b][c]] != lat.join[lat.meet[a][b]][lat.meet[a][c]]:
                    return Verdict(False, (a, b, c))
    return Verdict(True)


def meet_semidistributive_by_triples(lat):
    p = lat.poset
    for a in p.topo:
        for b in p.topo:
            ab = lat.meet[a][b]
            for c in p.topo:
                if ab == lat.meet[a][c] and lat.meet[a][lat.join[b][c]] != ab:
                    return Verdict(False, (a, b, c))
    return Verdict(True)


def groupoid_by_loops(cand):
    p = cand.lattice.poset
    mult = cand.mult.table
    top = cand.lattice.top
    for a, b in _pairs(p):
        if mult[a][b] != mult[b][a]:
            return Verdict(False, (a, b), "commutativity")
    for a in p.topo:
        if mult[top][a] != a:
            return Verdict(False, (a,), "unit")
    return Verdict(True)


def monotone_by_loops(lat, mult):
    p = lat.poset
    up = p.up
    t = mult.table
    for a, b in _pairs(p):
        if up[a] >> b & 1:
            for c in p.topo:
                if not up[t[a][c]] >> t[b][c] & 1 or not up[t[c][a]] >> t[c][b] & 1:
                    return Verdict(False, (a, b, c))
    return Verdict(True)


def adjointness_by_loops(lat, mult, imp):
    p = lat.poset
    up = p.up
    join = lat.join
    mt, it = mult.table, imp.table
    fwd = bwd = None
    for a, b, c in _triples(p):
        ab = join[a][b]
        cb = join[c][b]
        lhs = up[mt[ab][cb]] >> b & 1
        rhs = up[cb] >> it[a][b] & 1
        if lhs and not rhs and fwd is None:
            fwd = (a, b, c)
        if rhs and not lhs and bwd is None:
            bwd = (a, b, c)
        if fwd and bwd:
            break
    return (
        Verdict(fwd is None, fwd or ()),
        Verdict(bwd is None, bwd or ()),
    )


def residuation_by_loops(cand):
    """The verdicts of check_residuation, in its order."""
    lat = cand.lattice
    fwd, bwd = adjointness_by_loops(lat, cand.mult, cand.imp)
    return (
        ("commutative-groupoid-with-unit", groupoid_by_loops(cand)),
        ("mult-monotone", monotone_by_loops(lat, cand.mult)),
        ("adjointness-forward", fwd),
        ("adjointness-backward", bwd),
    )


def divisibility_by_loops(cand):
    lat = cand.lattice
    p = lat.poset
    mt, it = cand.mult.table, cand.imp.table
    for x, y in _pairs(p):
        if mt[lat.join[x][y]][it[x][y]] != y:
            return Verdict(False, (x, y), "divisibility")
    return Verdict(True)


def derived_laws_by_loops(cand):
    lat = cand.lattice
    p = lat.poset
    up = p.up
    join = lat.join
    mt, it = cand.mult.table, cand.imp.table
    top, bot = lat.top, lat.bottom
    out = {}

    def scan_pairs(law, test):
        for a, b in _pairs(p):
            if not test(a, b):
                return Verdict(False, (a, b), law)
        return Verdict(True)

    out["i"] = Verdict(True)
    for x in p.topo:
        if it[top][x] != x:
            out["i"] = Verdict(False, (x,), "i")
            break
    out["ii"] = scan_pairs("ii", lambda a, b: (up[a] >> b & 1) == (it[a][b] == top))
    out["iii"] = scan_pairs("iii", lambda a, b: up[mt[a][join[a][b]]] >> a & 1)
    out["iv"] = scan_pairs("iv", lambda a, b: up[b] >> it[a][b] & 1)
    out["v"] = scan_pairs("v", lambda a, b: up[mt[join[a][b]][it[a][b]]] >> b & 1)
    out["vi"] = scan_pairs("vi", lambda a, b: it[a][b] == it[join[a][b]][b])
    out["vii"] = scan_pairs("vii", lambda a, b: up[join[a][b]] >> it[it[a][b]][b] & 1)
    law8 = Verdict(True)
    for a, b, c in _triples(p):
        if up[a] >> b & 1 and not up[it[b][c]] >> it[a][c] & 1:
            law8 = Verdict(False, (a, b, c), "viii")
            break
    out["viii"] = law8
    if bot is None:
        out["ix"] = Verdict(True, (), "skipped: no least element")
    else:
        law9 = scan_pairs("ix", lambda a, b: (mt[a][b] == bot) == (up[a] >> it[b][bot] & 1))
        absorbs = bottom_absorbs_by_loop(p, mt)
        if law9 and absorbs:
            law9 = Verdict(False, absorbs, "ix")
        out["ix"] = law9
    return out


def bottom_absorbs_by_loop(p, mt):
    """The least (x,) with bottom * x != bottom in topological order, or None."""
    bot = p.bottom
    for x in p.topo:
        if mt[bot][x] != bot:
            return (x,)
    return None


def half_adjointness_by_loops(lat, mult, imp):
    p = lat.poset
    up = p.up
    mt, it = mult.table, imp.table
    join = lat.join
    for a in p.topo:
        for b, c in _pairs(p):
            if up[b] >> c & 1 and not up[mt[a][b]] >> mt[a][c] & 1:
                raise PreconditionError("mult monotone in second argument", (a, b, c))
    for a, b in _pairs(p):
        if not up[mt[join[a][b]][it[a][b]]] >> b & 1:
            raise PreconditionError("(a v b) * (a -> b) <= b", (a, b))
    for a, b, c in _triples(p):
        cb = join[c][b]
        if up[cb] >> it[a][b] & 1 and not up[mt[join[a][b]][cb]] >> b & 1:
            return Verdict(False, (a, b, c))
    return Verdict(True)


def identity_basis_by_loops(cand):
    """(conditions, groupoid verdict) of identity_basis_check."""
    lat = cand.lattice
    p = lat.poset
    up = p.up
    join = lat.join
    mt, it = cand.mult.table, cand.imp.table
    top = lat.top
    conds = []
    v = Verdict(True)
    for a, b, c in _triples(p):
        cb = join[c][b]
        if not up[cb] >> it[a][join[mt[join[a][b]][cb]][b]] & 1:
            v = Verdict(False, (a, b, c), "i")
            break
    conds.append(("i", v))
    v = Verdict(True)
    for a, b in _pairs(p):
        if not up[mt[join[a][b]][it[a][b]]] >> b & 1:
            v = Verdict(False, (a, b), "ii")
            break
    conds.append(("ii", v))
    v = Verdict(True)
    for a, b, c in _triples(p):
        if not up[mt[a][b]] >> mt[a][join[b][c]] & 1:
            v = Verdict(False, (a, b, c), "iii")
            break
    conds.append(("iii", v))
    v = Verdict(True)
    for x, y in _pairs(p):
        if it[x][join[x][y]] != top:
            v = Verdict(False, (x, y), "iv")
            break
    conds.append(("iv", v))
    return tuple(conds), groupoid_by_loops(cand)


def operator_tables_by_comprehension(p):
    """(us, uid, low, lu) of ``order_tables``, built the way the operator
    scan built them before the kernel: a dict numbering each U(x, y) as it
    is first seen row by row, and one lower_set call per distinct set."""
    ids = {}
    uid = [[ids.setdefault(p.up[x] & p.up[y], len(ids)) for y in range(p.n)]
           for x in range(p.n)]
    low = [lower_set(p, u) for u in ids]
    lu = [[low[i] for i in row] for row in uid]
    return tuple(ids), tuple(map(tuple, uid)), tuple(low), tuple(map(tuple, lu))


def operator_adjointness_by_loops(p, prod, resid):
    up, down = p.up, p.down
    # U(c,b) and its lower set depend on (c, b) only, not on a
    cones = {}
    for b in p.topo:
        row = []
        for c in p.topo:
            ucb = up[c] & up[b]
            row.append((c, ucb, lower_set(p, ucb)))
        cones[b] = row
    # the canonical product of U(a,b) and U(c,b) is L(U(a,b)) & L(U(c,b))
    canonical = isinstance(prod, CanonicalProduct)
    fwd = bwd = None
    for ra, a in enumerate(p.topo):
        for b in p.topo:
            _, uab, lab = cones[b][ra]
            lb = down[b]
            rab = resid.r(a, b)
            for c, ucb, lcb in cones[b]:
                prod_abc = lab & lcb if canonical else prod.m(uab, ucb)
                lhs = prod_abc & ~lb == 0
                rhs = lcb & ~rab == 0
                if lhs and not rhs and fwd is None:
                    fwd = (a, b, c)
                if rhs and not lhs and bwd is None:
                    bwd = (a, b, c)
                if fwd and bwd:
                    return Verdict(False, fwd), Verdict(False, bwd)
    return Verdict(fwd is None, fwd or ()), Verdict(bwd is None, bwd or ())


def operator_laws_by_loops(op):
    p = op.poset
    full = p.full
    out = {}
    law = Verdict(True)
    for a in p.topo:
        if p.down[a] & ~op.resid.r(p.top, a):
            law = Verdict(False, (a,), "i")
            break
    out["i"] = law
    law = Verdict(True)
    for a in p.topo:
        for b in p.topo:
            if (p.up[a] >> b & 1) != (op.resid.r(a, b) == full):
                law = Verdict(False, (a, b), "ii")
                break
        if not law:
            break
    out["ii"] = law
    law = Verdict(True)
    for a in p.topo:
        for b in p.topo:
            if op.prod.m(p.up[a], p.up[a] & p.up[b]) & ~p.down[a]:
                law = Verdict(False, (a, b), "iii")
                break
        if not law:
            break
    out["iii"] = law
    law = Verdict(True)
    for a in p.topo:
        for b in p.topo:
            if p.down[b] & ~op.resid.r(a, b):
                law = Verdict(False, (a, b), "iv")
                break
        if not law:
            break
    out["iv"] = law
    if p.bottom is None:
        out["v"] = Verdict(True, (), "skipped: no least element")
    else:
        bot_mask = 1 << p.bottom
        law = Verdict(True)
        for a in p.topo:
            for b in p.topo:
                lhs = op.prod.m(p.up[a], p.up[b]) & ~bot_mask == 0
                rhs = p.down[a] & ~op.resid.r(b, p.bottom) == 0
                if lhs != rhs:
                    law = Verdict(False, (a, b), "v")
                    break
            if not law:
                break
        out["v"] = law
    return out


_PARSE_NAME = re.compile(r"[A-Za-z0-9_.\-]+\Z")
_PARSE_TOKEN = re.compile(r"[^\s<=#]+|<|=")
_PARSE_HEADER = re.compile(r"\s*(?:(elements|covers|constants)|op\s+([^\s:]+))\s*:\s*(.*)")


def _line_tokens(line, lineno, offset=0):
    text = line.split("#", 1)[0]
    return [(m.group(), lineno, offset + m.start() + 1) for m in _PARSE_TOKEN.finditer(text)]


def _checked_name(tok):
    text, line, col = tok
    if text in ("<", "=", "?", ".") or not _PARSE_NAME.match(text):
        raise ParseError(f"invalid element name {text!r}", line, col)
    return text


def _known_token(tok, known):
    text, line, col = tok
    if text not in known:
        raise UnknownElementError(f"unknown element {text!r}", line, col)
    return text


def _token_pairs(toks, sep, kind):
    # stream of "left SEP right" triples
    out = []
    for i in range(0, len(toks), 3):
        chunk = toks[i:i + 3]
        if len(chunk) < 3 or chunk[1][0] != sep:
            text, line, col = chunk[0]
            raise ParseError(f"expected {kind} of the form x {sep} y near {text!r}", line, col)
        out.append((chunk[0], chunk[2]))
    return out


def _token_table(name_tok, lines, elements):
    op_name, op_line, op_col = name_tok
    n = len(elements)
    body = [(toks, lineno) for toks, lineno in lines if toks]
    if not body:
        raise ParseError(f"operation {op_name!r} has no table", op_line, op_col)
    header, header_line = body[0]
    if header[0][0] == ".":
        header = header[1:]
    cols = []
    for tok in header:
        colname = _known_token(tok, elements)
        if colname in cols:
            raise ParseError(f"duplicate column {colname!r}", tok[1], tok[2])
        cols.append(colname)
    if len(cols) != n:
        missing = sorted(set(elements) - set(cols))
        raise ParseError(
            f"operation {op_name!r} header omits {', '.join(missing)}",
            header_line,
        )
    matrix = {}
    for toks, lineno in body[1:]:
        rowname = _known_token(toks[0], elements)
        if rowname in matrix:
            raise ParseError(f"duplicate row {rowname!r}", lineno, toks[0][2])
        cells = toks[1:]
        if len(cells) != n:
            raise RaggedTableError(
                f"row {rowname!r} of {op_name!r} has {len(cells)} cells, expected {n}",
                lineno,
            )
        row = {}
        for colname, tok in zip(cols, cells):
            row[colname] = None if tok[0] == "?" else _known_token(tok, elements)
        matrix[rowname] = row
    if len(matrix) != n:
        missing = sorted(set(elements) - set(matrix))
        raise ParseError(
            f"operation {op_name!r} is missing rows for {', '.join(missing)}",
            op_line, op_col,
        )
    ordered = tuple(
        tuple(matrix[r][c] for c in elements) for r in elements
    )
    return op_name, ordered


def parse_by_tokens(text):
    """fileformat.parse as it was before: every token carries its line and column."""
    sections = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        m = _PARSE_HEADER.fullmatch(raw.split("#", 1)[0].rstrip())
        if m:
            kind = m.group(1) or "op"
            rest = _line_tokens(m.group(3), lineno, offset=m.start(3))
            if kind == "op":
                current = (kind, (m.group(2), lineno, m.start(2) + 1), [(rest, lineno)])
            else:
                current = (kind, None, [(rest, lineno)])
            sections.append(current)
            continue
        toks = _line_tokens(raw, lineno)
        if not toks:
            continue
        if current is None:
            raise ParseError("content before any section header", lineno, toks[0][2])
        current[2].append((toks, lineno))

    if not sections or sections[0][0] != "elements":
        line = sections[0][2][0][1] if sections else 1
        raise ParseError("file must start with an elements section", line)

    elements = []
    seen_kinds = set()
    covers = []
    ops = []
    op_names = set()
    constants = []
    const_keys = set()
    for kind, name_tok, lines in sections:
        flat = [tok for toks, _ in lines for tok in toks]
        if kind == "elements":
            if kind in seen_kinds:
                raise ParseError("duplicate elements section", lines[0][1])
            for tok in flat:
                name = _checked_name(tok)
                if name in elements:
                    raise ParseError(f"duplicate element {name!r}", tok[1], tok[2])
                elements.append(name)
            if not elements:
                raise ParseError("elements section is empty", lines[0][1])
        elif kind == "covers":
            if kind in seen_kinds:
                raise ParseError("duplicate covers section", lines[0][1])
            for lo, hi in _token_pairs(flat, "<", "cover"):
                a = _known_token(lo, elements)
                b = _known_token(hi, elements)
                if a == b:
                    raise ParseError(f"cover relates {a!r} to itself", lo[1], lo[2])
                covers.append((a, b))
        elif kind == "constants":
            if kind in seen_kinds:
                raise ParseError("duplicate constants section", lines[0][1])
            for key, val in _token_pairs(flat, "=", "constant"):
                k = _checked_name(key)
                if k in const_keys:
                    raise ParseError(f"duplicate constant {k!r}", key[1], key[2])
                const_keys.add(k)
                constants.append((k, _known_token(val, elements)))
        else:
            if name_tok[0] in op_names:
                raise ParseError(f"duplicate operation {name_tok[0]!r}", name_tok[1], name_tok[2])
            op_names.add(name_tok[0])
            ops.append(_token_table(name_tok, lines, elements))
        seen_kinds.add(kind)

    index = {name: i for i, name in enumerate(elements)}
    covers = sorted(set(covers), key=lambda c: (index[c[0]], index[c[1]]))
    return StructureFile(
        elements=tuple(elements),
        covers=tuple(covers),
        ops=tuple(sorted(ops)),
        constants=tuple(sorted(constants)),
        op_headers=tuple(sorted(tok for _, tok, _ in sections if tok is not None)),
    )


def chain_residuation_count(n):
    """How many relative residuations the n-chain has, by a DP over one triangle.

    On a chain, a relative residuation is exactly a commutative product on
    the n - 1 elements below the top, monotone in each argument, with
    x * y <= min(x, y) (README states the reduction), and its implication
    is then forced.  So this counts the triangles T(x, y), 0 <= x <= y <
    n - 1, weakly increasing along rows and columns, with T(x, y) <= x.
    The rows are filled in turn, each from the entries of the row above it
    in its own columns, on which the count of the rest is memoised.
    """
    m = n - 1

    def rows(floor, cap):
        # the weakly increasing rows r with floor[i] <= r[i] <= cap
        if not floor:
            yield ()
            return
        for v in range(floor[0], cap + 1):
            for rest in rows(tuple(max(v, f) for f in floor[1:]), cap):
                yield (v,) + rest

    @cache
    def fill(x, above):
        # tables of rows x..m-1, row x bounded below by above, the entries
        # of row x - 1 in columns x..m-1
        if x == m:
            return 1
        return sum(fill(x + 1, row[1:]) for row in rows(above, x))

    return fill(0, (0,) * m)


def chain_residuations_by_brute_force(n):
    """Every (mult, imp) pair of tables on the n-chain that the axioms admit.

    The elements are 0..n-1 in chain order.  mult runs over every
    commutative table with unit top, any value in every other cell, that
    is monotone; then each cell (a, b) of imp independently takes every v
    with (a v b) * (c v b) <= b exactly when c v b <= v, for every c, which
    is both adjointness directions, and every choice of one v per cell is
    a pair.
    """
    top = n - 1
    cells = [(x, y) for x in range(top) for y in range(x, top)]
    out = []
    for values in product(range(n), repeat=len(cells)):
        mult = [[x if y == top else y if x == top else None for y in range(n)]
                for x in range(n)]
        for (x, y), v in zip(cells, values):
            mult[x][y] = mult[y][x] = v
        if any(mult[a][c] > mult[b][c] for a in range(n) for b in range(a, n) for c in range(n)):
            continue
        choices = [[v for v in range(n)
                    if all((mult[max(a, b)][max(c, b)] <= b) == (max(c, b) <= v)
                           for c in range(n))]
                   for a in range(n) for b in range(n)]
        for imp in product(*choices):
            out.append((tuple(map(tuple, mult)),
                        tuple(imp[a * n:(a + 1) * n] for a in range(n))))
    return out
