"""Every law the library checks, each stated once.

A law is a term with an optional guard; it fails at a tuple where the
guard holds and the term does not.  Its arity, 1 to 4, is one more than
the highest variable the guarded term reads.  Terms are nested
tuples built with the helpers below: element operations read tables
(``join``, ``meet``, ``mult``, ``imp``), and the operator laws work on
subset masks (the residual table ``resid``, cones, ``within`` for
inclusion, and, for the set U(x, y) of common upper bounds of x and y,
``LU`` for its common lower bounds and ``prod`` for the product of two
such sets).  A term is ``(head, operand, ...)``, its head one of
``kernels.LAW_OPS``: ``("var", i)``, ``("const", k)``, ``("table", t, x,
y)``, ``("up", x)``, ``("down", x)``, and ``(op, x, y)`` for ``leq``,
``eq``, ``and`` and ``subset``.  Each batch the library scans is a
``Suite``, built once at import: it keeps its laws in order, compiles
their terms to registers, merging equal subterms, and makes the compiled
twin's plan of them, and the pure twin's plan is made on its first scan.
``scan`` hands a suite to the ``law_scan`` kernel and returns a dict from
each of the suite's laws to its least failing tuple in the poset's fixed
topological order, or None.
"""

from . import _kernels as kernels

TABLES = ("join", "meet", "mult", "imp", "resid", "uid", "prod", "lu")
_TABLE_NAMES = frozenset(TABLES)

a, b, c = (("var", i) for i in range(3))
top, bottom = ("const", 0), ("const", 1)


def _table(name):
    t = TABLES.index(name)
    return lambda x, y: ("table", t, x, y)


def _op(name):
    return lambda *args: (name,) + args


join, meet, mult, imp, resid, _uid, _prod, LU = map(_table, TABLES)
up, down, leq, eq, both, within = map(_op, ("up", "down", "leq", "eq", "and", "subset"))


def prod(xy, zw):
    """Product of U(*xy) and U(*zw), from a table over the distinct U(x, y)."""
    return _prod(_uid(*xy), _uid(*zw))


def _arity(term):
    """One more than the highest variable index the term reads, or 0."""
    if term[0] == "var":
        return term[1] + 1
    return max((_arity(t) for t in term[1:] if type(t) is tuple), default=0)


class Law:
    """A law: its term, the guard folded in as an implication, and its arity."""

    __slots__ = ("arity", "term")

    def __init__(self, term, guard=None):
        self.term = term if guard is None else within(guard, term)
        self.arity = _arity(self.term)


class Suite(kernels.LawSuite):
    """A batch of laws, kept in order as ``laws``, compiled once for ``scan``."""

    def __init__(self, laws):
        self.laws = tuple(laws)
        super().__init__((law.arity, law.term) for law in self.laws)


def scan(p, suite, **tables):
    """Each law of the suite to its least failing tuple, or None.

    Tuples are ordered by p's topological order.  ``tables`` maps names of
    TABLES to square sequences of rows, and any other name raises
    ValueError; the kernel finds ``top`` and ``bottom`` in p.
    """
    if not _TABLE_NAMES.issuperset(tables):
        raise ValueError(f"unknown tables: {', '.join(sorted(tables.keys() - _TABLE_NAMES))}")
    return dict(zip(suite.laws, kernels.law_scan(
        p.n, p.up, p.down, [tables.get(name, ()) for name in TABLES], suite)))


# Lattices: the three laws classify reads, on the order's own join and
# meet (as_lattice's, the only ones LatticeOps admits), scanned together
# once per lattice
MODULAR = Law(eq(join(a, meet(b, c)), meet(join(a, b), c)), guard=leq(a, c))
DISTRIBUTIVE = Law(eq(meet(a, join(b, c)), join(meet(a, b), meet(a, c))))
MEET_SEMIDISTRIBUTIVE = Law(eq(meet(a, join(b, c)), meet(a, b)),
                            guard=eq(meet(a, b), meet(a, c)))
LATTICE = Suite((MODULAR, DISTRIBUTIVE, MEET_SEMIDISTRIBUTIVE))

# Residuation axioms: a commutative groupoid with unit top, monotone
# multiplication, and (a v b) * (c v b) <= b iff c v b <= a -> b
COMMUTATIVE = Law(eq(mult(a, b), mult(b, a)))
UNIT = Law(eq(mult(top, a), a))
MONOTONE = Law(both(leq(mult(a, c), mult(b, c)), leq(mult(c, a), mult(c, b))),
               guard=leq(a, b))
_below_b = leq(mult(join(a, b), join(c, b)), b)
_below_imp = leq(join(c, b), imp(a, b))
ADJOINT_FORWARD = Law(_below_imp, guard=_below_b)
ADJOINT_BACKWARD = Law(_below_b, guard=_below_imp)
DIVISIBLE = Law(eq(mult(join(a, b), imp(a, b)), b))

# The derived laws i-ix.  Law ix at a = bottom reads bottom * b = bottom
# <=> bottom <= b -> bottom, whose right side always holds, so it also
# gives bottom * b = bottom
DERIVED = (
    ("i", Law(eq(imp(top, a), a))),
    ("ii", Law(eq(leq(a, b), eq(imp(a, b), top)))),
    ("iii", Law(leq(mult(a, join(a, b)), a))),
    ("iv", Law(leq(b, imp(a, b)))),
    ("v", Law(leq(mult(join(a, b), imp(a, b)), b))),
    ("vi", Law(eq(imp(a, b), imp(join(a, b), b)))),
    ("vii", Law(leq(join(a, b), imp(imp(a, b), b)))),
    ("viii", Law(leq(imp(b, c), imp(a, c)), guard=leq(a, b))),
    ("ix", Law(eq(eq(mult(a, b), bottom), leq(a, imp(b, bottom))))),
)
PRODUCT_BELOW = DERIVED[4][1]

# The four-identity basis; its identity ii is law v.  With the groupoid
# laws it holds exactly when the axioms do (README gives the proof)
BASIS = (
    ("i", Law(leq(join(c, b), imp(a, join(mult(join(a, b), join(c, b)), b))))),
    ("ii", PRODUCT_BELOW),
    ("iii", Law(leq(mult(a, b), mult(a, join(b, c))))),
    ("iv", Law(eq(imp(a, join(a, b)), top))),
)
# Currying, which the axioms do not imply
CURRYING = Law(leq(imp(mult(join(a, b), join(c, b)), b), imp(join(c, b), imp(a, b))))
MONOTONE_RIGHT = Law(leq(mult(a, b), mult(a, c)), guard=leq(b, c))

# Every law a check on a residuation candidate reads, scanned together
# once per candidate: the axioms, divisibility, the derived laws i-ix and
# the basis identities but ii, which is law v; 18 laws in all
CANDIDATE = Suite((COMMUTATIVE, UNIT, MONOTONE, ADJOINT_FORWARD, ADJOINT_BACKWARD, DIVISIBLE,
                   *(law for _, law in DERIVED), *(law for name, law in BASIS if name != "ii")))
HALF_ADJOINT = Suite((MONOTONE_RIGHT, PRODUCT_BELOW, ADJOINT_BACKWARD))

# Operator residuation on subset masks: adjointness and the laws i-v
_prod_below_b = within(prod((a, b), (c, b)), down(b))
_lower_within = within(LU(c, b), resid(a, b))
OPERATOR_FORWARD = Law(_lower_within, guard=_prod_below_b)
OPERATOR_BACKWARD = Law(_prod_below_b, guard=_lower_within)
OPERATOR_LAWS = (
    ("i", Law(within(down(a), resid(top, a)))),
    ("ii", Law(eq(leq(a, b), eq(resid(a, b), down(top))))),
    ("iii", Law(within(prod((a, a), (a, b)), down(a)))),
    ("iv", Law(within(down(b), resid(a, b)))),
    ("v", Law(eq(within(prod((a, a), (b, b)), down(bottom)),
                 within(down(a), resid(b, bottom))))),
)
# Both adjointness directions and the laws i-v, scanned together once per
# operator poset; law v pushes bottom, so an order without one is scanned
# without it
OPERATOR = Suite((OPERATOR_FORWARD, OPERATOR_BACKWARD, *(law for _, law in OPERATOR_LAWS)))
OPERATOR_WITHOUT_BOTTOM = Suite(OPERATOR.laws[:-1])
