"""The law engine's Python half: the one compiler, and the pure twin's plans.

``law_compile`` turns a suite of law programs into the register form that
each twin's ``law_plan`` reads; the pure twin's ``law_plan`` turns each
batch of registers into Python loops, and its ``law_scan`` runs them.
``_core_py`` exports all three; the contract is in the docstring of the
``_kernels`` package.
"""

from collections import namedtuple
from math import inf

# law_scan opcodes, numbered by position; _core_c.c lists them in this order.
LAW_OPS = ("var", "const", "table", "up", "down", "leq", "eq", "and", "subset")
LAW_STACK = 16
LAW_CODE = 64
LAW_TABLES = 8
# how many values each opcode pops
_POPS = (0, 0, 2, 1, 1, 2, 2, 2, 2)


def law_compile(programs):
    """The register form of a suite of law programs, which each twin's ``law_plan`` reads.

    The contract is in the docstring of the ``_kernels`` package.  This is
    the one place that checks what reads no call's inputs, and merges equal
    subterms.
    """
    batches, results = ({}, {}, {}, {}), []
    for program in map(tuple, programs):
        if not all(isinstance(v, int) for v in program):
            raise TypeError("a law program is a sequence of ints")
        if len(program) % 2 == 0 or len(program) > 2 * LAW_CODE + 1:
            raise ValueError("a law program is (arity, opcode, operand, ...) "
                             f"with at most {LAW_CODE} instructions")
        arity = program[0]
        if not 1 <= arity <= 4:
            raise ValueError("law arity must lie in 1..4")
        registers, stack = batches[arity - 1], []
        for op, arg in zip(program[1::2], program[2::2]):
            if not 0 <= op < len(LAW_OPS):
                raise ValueError(f"unknown law opcode {op!r}")
            if op <= 2 and not 0 <= arg < (arity, 2, LAW_TABLES)[op]:
                raise ValueError(f"law program operand out of range: {LAW_OPS[op]} {arg!r}")
            pops = _POPS[op]
            if len(stack) < pops:
                raise ValueError("law program stack underflow")
            # a leaf's operands are 0, and up and down name theirs twice
            x, y = (stack[-pops], stack[-1]) if pops else (0, 0)
            del stack[len(stack) - pops:]
            stack.append(registers.setdefault((op, arg if op <= 2 else 0, x, y), len(registers)))
            if len(stack) > LAW_STACK:
                raise ValueError("law program stack overflow")
        if len(stack) != 1:
            raise ValueError(f"a law program must leave one value, not {len(stack)}")
        results.append((arity, stack[0]))
    return tuple(map(tuple, batches)), tuple(results)


# A value's bound is the least of its sources': -1 stands for n (a variable
# or constant), -2 for 2 (a truth value), t >= 0 for table t's entries; no
# source means an unbounded mask.
_INDEX, _TRUTH = (-1,), (-2,)
_FORMS = {"up": "U[{0}]", "down": "D[{0}]", "leq": "({0} >> {1} & 1)", "eq": "({0} == {1})",
          "and": "({0} & {1})", "subset": "(not {0} & ~{1})"}


# A compiled suite as Python loops: its program count, and for each arity
# that has programs, (program indices, scan function, index needs, tables
# used, constants used)
Plan = namedtuple("Plan", "count batches")


def _nest(arity, registers, outputs):
    """(scan function, index needs, tables used, constants used) of a batch.

    The function runs one nest of loops for the batch and returns the least
    failing tuple or None of each output register.  A register that does
    not depend on the innermost variable is computed once, in the loop of
    the innermost variable it does depend on.  A need (sources, limit) says
    that a value used as an index must stay below n when limit is -1, else
    below the width of table limit.
    """
    levels = [[] for _ in range(arity)]  # levels[0] runs before the loops
    names, needs, tables, consts, values = {}, [], set(), set(), []

    def value(expr, depth, sources=()):
        if depth < arity - 1:
            if expr not in names:
                names[expr] = f"v{len(names)}"
                levels[depth + 1].append(f"{names[expr]} = {expr}")
            expr = names[expr]
        return expr, depth, sources

    def index(v, limit):
        needs.append((v[2], limit))
        return v[0]

    for op, arg, x, y in registers:
        name = LAW_OPS[op]
        if _POPS[op]:
            x, y = values[x], values[y]
            depth = max(x[1], y[1])
        if name == "var":
            v = (f"x{arg:d}", arg, _INDEX)
        elif name == "const":
            consts.add(arg)
            v = value(f"C[{arg:d}]", -1, _INDEX)
        elif name == "table":
            tables.add(arg)
            row = value(f"{value(f'T[{arg:d}]', -1)[0]}[{index(x, arg)}]", x[1])
            v = value(f"{row[0]}[{index(y, arg)}]", depth, (arg,))
        elif name in ("up", "down"):
            v = value(_FORMS[name].format(index(x, -1)), depth)
        elif name == "leq":
            row = value(f"U[{index(x, -1)}]", x[1])
            v = value(_FORMS[name].format(row[0], index(y, -1)), depth, _TRUTH)
        elif name == "and":
            v = value(_FORMS[name].format(x[0], y[0]), depth, tuple(set(x[2] + y[2])))
        elif name == "subset" and x[2] == y[2] == _TRUTH:
            # an implication: its conclusion is evaluated only where needed
            v = value(f"(not {x[0]} or {y[0]})", depth, _TRUTH)
        else:
            v = value(_FORMS[name].format(x[0], y[0]), depth, _TRUTH)
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
        # once a program has failed, the loops go on only for the others
        lines += [f"{pad}if {w} is None and not {test}:",
                  f"{pad}    {w} = ({''.join(f'x{i}, ' for i in range(arity))})",
                  f"{pad}    if {' and '.join(f'{v} is not None' for v in found)}:",
                  f"{pad}        return {result}"]
    lines.append(f"    return {result}")
    scope = {}
    exec(compile("\n".join(lines), "<law>", "exec"), scope)
    return scope["scan"], tuple(needs), tuple(sorted(tables)), tuple(consts)


def law_plan(compiled):
    """The pure twin's plan of a suite that ``law_compile`` compiled."""
    registers, results = compiled
    batches = []
    for arity, batch in enumerate(registers, 1):
        programs = [p for p, (a, _) in enumerate(results) if a == arity]
        if programs:
            outputs = [results[p][1] for p in programs]
            batches.append((programs, *_nest(arity, batch, outputs)))
    return Plan(len(results), tuple(batches))


def law_scan(n, up, down, tables, plan):
    """The least failing tuple of each program of plan, or None, in topological order."""
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
        bounds.append(max(cells, default=0) + 1)
    topo, consts = topo_order(n, down), (least_full(n, down), least_full(n, up))
    out = [None] * plan.count
    for programs, fn, needs, used, pushed in plan.batches:
        if any(consts[k] is None for k in pushed) or any(
                t >= len(tables) or not widths[t] for t in used):
            raise ValueError("law program operand out of range")
        for sources, limit in needs:
            bound = min((n if s == -1 else 2 if s == -2 else bounds[s] for s in sources),
                        default=inf)
            if bound > (n if limit < 0 else widths[limit]):
                raise ValueError("law program indexes with a value that may be out of range")
        for p, witness in zip(programs, fn(topo, tables, up, down, consts)):
            out[p] = witness
    return out
