"""Every law the library checks, each stated once.

A law is a term with an arity of 1 to 4 and an optional guard; it fails at
a tuple where the guard holds and the term does not.  Terms are nested
tuples built with the helpers below: element operations read tables
(``join``, ``meet``, ``mult``, ``imp``), and the operator laws work on
subset masks (the residual table ``resid``, cones, ``within`` for
inclusion, and, for the set U(x, y) of common upper bounds of x and y,
``LU`` for its common lower bounds and ``prod`` for the product of two
such sets).  A term is ``(head, operand, ...)``, its head one of
``kernels.LAW_OPS``: ``("var", i)``, ``("const", k)``, ``("table", t, x,
y)``, ``("up", x)``, ``("down", x)``, and ``(op, x, y)`` for ``leq``,
``eq``, ``and`` and ``subset``.  Each batch the library scans is a suite,
built once at import: ``suite`` compiles its laws' terms to registers,
merging equal subterms, and makes the compiled twin's plan of them, and
the pure twin's plan is made on its first scan.  ``scan`` hands a suite to
the ``law_scan`` kernel, which returns each law's least failing tuple in
the poset's fixed topological order.
"""

from . import _kernels as kernels

TABLES = ("join", "meet", "mult", "imp", "resid", "uid", "prod", "lu")

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


class Law:
    """A law: its arity and its term, the guard folded in as an implication."""

    __slots__ = ("arity", "term")

    def __init__(self, arity, term, guard=None):
        self.arity, self.term = arity, term if guard is None else within(guard, term)


def suite(checks):
    """A batch of laws compiled once for ``scan``, as a ``kernels.LawSuite``."""
    return kernels.LawSuite((law.arity, law.term) for law in checks)


def scan(p, checks, **tables):
    """The least failing tuple of each law, or None, in p's topological order.

    ``checks`` is a suite, passed to the kernel as it is; ``tables`` maps
    names of TABLES to square sequences of rows; the kernel finds ``top``
    and ``bottom`` in p.
    """
    return kernels.law_scan(p.n, p.up, p.down, [tables.get(name, ()) for name in TABLES],
                            checks)


# Lattices: a join table holds least upper bounds, and a meet table
# greatest lower bounds, exactly when these hold; then the three laws
JOIN_IS_LUB = Law(2, eq(both(up(a), up(b)), up(join(a, b))))
MEET_IS_GLB = Law(2, eq(both(down(a), down(b)), down(meet(a, b))))
MODULAR = Law(3, eq(join(a, meet(b, c)), meet(join(a, b), c)), guard=leq(a, c))
DISTRIBUTIVE = Law(3, eq(meet(a, join(b, c)), join(meet(a, b), meet(a, c))))
MEET_SEMIDISTRIBUTIVE = Law(3, eq(meet(a, join(b, c)), meet(a, b)),
                            guard=eq(meet(a, b), meet(a, c)))
LATTICE_OPS = suite((JOIN_IS_LUB, MEET_IS_GLB))
# classify scans meet semidistributivity apart because it reuses the public
# is_meet_semidistributive check.  Of the 300 lattices with n <= 8, MSD
# holds on 106 and fails on 194; modularity and distributivity both hold
# on 36
MODULAR_DISTRIBUTIVE = suite((MODULAR, DISTRIBUTIVE))
SEMIDISTRIBUTIVE = suite((MEET_SEMIDISTRIBUTIVE,))

# Residuation axioms: a commutative groupoid with unit top, monotone
# multiplication, and (a v b) * (c v b) <= b iff c v b <= a -> b
COMMUTATIVE = Law(2, eq(mult(a, b), mult(b, a)))
UNIT = Law(1, eq(mult(top, a), a))
MONOTONE = Law(3, both(leq(mult(a, c), mult(b, c)), leq(mult(c, a), mult(c, b))),
               guard=leq(a, b))
_below_b = leq(mult(join(a, b), join(c, b)), b)
_below_imp = leq(join(c, b), imp(a, b))
ADJOINT_FORWARD = Law(3, _below_imp, guard=_below_b)
ADJOINT_BACKWARD = Law(3, _below_b, guard=_below_imp)
DIVISIBLE = Law(2, eq(mult(join(a, b), imp(a, b)), b))

# The derived laws i-viii, and law ix in two stages: the second, that
# bottom * x = bottom, runs only when the first holds
DERIVED = (
    ("i", Law(1, eq(imp(top, a), a))),
    ("ii", Law(2, eq(leq(a, b), eq(imp(a, b), top)))),
    ("iii", Law(2, leq(mult(a, join(a, b)), a))),
    ("iv", Law(2, leq(b, imp(a, b)))),
    ("v", Law(2, leq(mult(join(a, b), imp(a, b)), b))),
    ("vi", Law(2, eq(imp(a, b), imp(join(a, b), b)))),
    ("vii", Law(2, leq(join(a, b), imp(imp(a, b), b)))),
    ("viii", Law(3, leq(imp(b, c), imp(a, c)), guard=leq(a, b))),
)
LAW_IX = (Law(2, eq(eq(mult(a, b), bottom), leq(a, imp(b, bottom)))),
          Law(1, eq(mult(bottom, a), bottom)))
PRODUCT_BELOW = DERIVED[4][1]

# The four-identity basis; its identity ii is law v.  With the groupoid
# laws it holds exactly when the axioms do (README gives the proof)
BASIS = (
    ("i", Law(3, leq(join(c, b), imp(a, join(mult(join(a, b), join(c, b)), b))))),
    ("ii", PRODUCT_BELOW),
    ("iii", Law(3, leq(mult(a, b), mult(a, join(b, c))))),
    ("iv", Law(2, eq(imp(a, join(a, b)), top))),
)
# Currying, which the axioms do not imply
CURRYING = Law(3, leq(imp(mult(join(a, b), join(c, b)), b), imp(join(c, b), imp(a, b))))
MONOTONE_RIGHT = Law(3, leq(mult(a, b), mult(a, c)), guard=leq(b, c))

# Every law a check on a residuation candidate reads, scanned together
# once per candidate: the axioms, divisibility, the derived laws i-ix and
# the basis identities but ii, which is law v
CANDIDATE_LAWS = (COMMUTATIVE, UNIT, MONOTONE, ADJOINT_FORWARD, ADJOINT_BACKWARD, DIVISIBLE,
                  *(law for _, law in DERIVED), *LAW_IX,
                  *(law for name, law in BASIS if name != "ii"))
CANDIDATE = suite(CANDIDATE_LAWS)
HALF_ADJOINT = suite((MONOTONE_RIGHT, PRODUCT_BELOW, ADJOINT_BACKWARD))

# Operator residuation on subset masks: adjointness and the laws i-v
_prod_below_b = within(prod((a, b), (c, b)), down(b))
_lower_within = within(LU(c, b), resid(a, b))
OPERATOR_FORWARD = Law(3, _lower_within, guard=_prod_below_b)
OPERATOR_BACKWARD = Law(3, _prod_below_b, guard=_lower_within)
OPERATOR_LAWS = (
    ("i", Law(1, within(down(a), resid(top, a)))),
    ("ii", Law(2, eq(leq(a, b), eq(resid(a, b), down(top))))),
    ("iii", Law(2, within(prod((a, a), (a, b)), down(a)))),
    ("iv", Law(2, within(down(b), resid(a, b)))),
    ("v", Law(2, eq(within(prod((a, a), (b, b)), down(bottom)),
                    within(down(a), resid(b, bottom))))),
)
# Both adjointness directions and the laws i-v, scanned together once per
# operator poset; law v pushes bottom, so an order without one is scanned
# without it
OPERATOR_CHECKS = (OPERATOR_FORWARD, OPERATOR_BACKWARD, *(law for _, law in OPERATOR_LAWS))
OPERATOR = suite(OPERATOR_CHECKS)
OPERATOR_WITHOUT_BOTTOM = suite(OPERATOR_CHECKS[:-1])
