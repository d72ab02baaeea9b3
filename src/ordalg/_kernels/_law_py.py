"""The law engine's Python half: the one compiler, and the pure twin's plans.

``law_compile`` turns a suite of law terms into the register form that
each twin's ``law_plan`` reads; the pure twin's ``law_plan`` turns each
batch of registers into Python loops, and its ``law_scan`` checks the
registers against each call's inputs, as the compiled twin does, and runs
the loops.  ``_core_py`` exports all three; the contract is in the
docstring of the ``_kernels`` package.
"""

from collections import namedtuple
from math import inf

# law_scan opcodes, numbered by position; _core_c.c lists them in this order.
LAW_OPS = ("var", "const", "table", "up", "down", "leq", "eq", "and", "subset")
LAW_NODES = 64
LAW_TABLES = 8
# how many operands follow each opcode's head in a term: an int for the
# three leaves, then its subterms
_OPERANDS = (1, 1, 3, 1, 1, 2, 2, 2, 2)


def law_compile(laws):
    """The register form of a suite of (arity, term) laws, which each twin's ``law_plan`` reads.

    The contract is in the docstring of the ``_kernels`` package.  This is
    the one place that checks what reads no call's inputs, and merges equal
    subterms.
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
    from ._core_py import least_full, topo_order

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
