"""The pure twin of ``law_scan``: each batch of programs becomes Python loops.

``_core_py.law_scan`` imports this module on first use; the contract is
in the docstring of the ``_kernels`` package.
"""

from functools import lru_cache

from ._core_py import LAW_CODE, LAW_OPS, LAW_STACK, LAW_TABLES, least_full, topo_order

# A value's bound is the least of its sources': -1 stands for n (a variable
# or constant), -2 for 2 (a truth value), t >= 0 for table t's entries; no
# source means an unbounded mask.
_INDEX, _TRUTH = (-1,), (-2,)
_FORMS = {"up": "U[{0}]", "down": "D[{0}]", "leq": "({0} >> {1} & 1)", "eq": "({0} == {1})",
          "and": "({0} & {1})", "subset": "(not {0} & ~{1})"}


# the library scans seven suites, the tuples built in laws.py; the bound
# keeps other callers' programs from piling up
@lru_cache(maxsize=256)
def _plan(programs):
    """(scan function, index needs, tables used, constants used) of programs.

    The programs share one arity.  The function runs one nest of loops for
    all of them and returns each one's least failing tuple or None.  A
    subterm that does not depend on the innermost variable is computed
    once, in the loop of the innermost variable it does depend on.  A need
    (sources, limit) says that a value used as an index must stay below n
    when limit is -1, else below the width of table limit.
    """
    arity = programs[0][0]
    if not 1 <= arity <= 4:
        raise ValueError("law arity must lie in 1..4")
    levels = [[] for _ in range(arity)]  # levels[0] runs before the loops
    names, needs, tables, consts, tests = {}, [], set(), set(), []

    def value(expr, depth, sources=()):
        if depth < arity - 1:
            if expr not in names:
                names[expr] = f"v{len(names)}"
                levels[depth + 1].append(f"{names[expr]} = {expr}")
            expr = names[expr]
        return expr, depth, sources

    def index(v, limit):
        if not v[2]:
            raise ValueError("law program uses an unbounded mask as an index")
        needs.append((v[2], limit))
        return v[0]

    for program in programs:
        code = program[1:]
        if len(code) > 2 * LAW_CODE:
            raise ValueError(f"a law program has at most {LAW_CODE} instructions")
        stack = []  # (expression, depth, sources)
        for op, arg in zip(code[::2], code[1::2]):
            if not 0 <= op < len(LAW_OPS):
                raise ValueError(f"unknown law opcode {op!r}")
            name = LAW_OPS[op]
            pops = 0 if name in ("var", "const") else 1 if name in ("up", "down") else 2
            if len(stack) < pops:
                raise ValueError("law program stack underflow")
            x, y = (stack[-pops], stack[-1]) if pops else (None, None)
            del stack[len(stack) - pops:]
            depth = max(x[1], y[1]) if pops else -1
            if name == "var":
                if not 0 <= arg < arity:
                    raise ValueError(f"variable {arg!r} out of range")
                v = (f"x{arg}", arg, _INDEX)
            elif name == "const":
                if arg not in (0, 1):
                    raise ValueError(f"constant {arg!r} out of range")
                consts.add(arg)
                v = value(f"C[{arg}]", -1, _INDEX)
            elif name == "table":
                if not 0 <= arg < LAW_TABLES:
                    raise ValueError(f"table {arg!r} out of range")
                tables.add(arg)
                row = value(f"{value(f'T[{arg}]', -1)[0]}[{index(x, arg)}]", x[1])
                v = value(f"{row[0]}[{index(y, arg)}]", depth, (arg,))
            elif pops == 1:
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
            stack.append(v)
            if len(stack) > LAW_STACK:
                raise ValueError("law program stack overflow")
        if len(stack) != 1:
            raise ValueError(f"a law program must leave one value, not {len(stack)}")
        tests.append(stack[0][0])

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


def law_scan(n, up, down, tables, programs):
    """The least failing tuple of each program, or None, in topological order."""
    if n < 1:
        raise ValueError("law_scan supports 1 <= n")
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
    # programs of one arity run in one loop nest
    groups = {}
    for i, program in enumerate(map(tuple, programs)):
        if len(program) % 2 == 0:
            raise ValueError("a law program is (arity, opcode, operand, ...)")
        groups.setdefault(program[0], []).append((i, program))
    topo, consts = topo_order(n, down), (least_full(n, down), least_full(n, up))
    out = [None] * len(programs)
    for group in groups.values():
        fn, needs, used, pushed = _plan(tuple(program for _, program in group))
        if any(consts[k] is None for k in pushed) or any(
                t >= len(tables) or not widths[t] for t in used):
            raise ValueError("law program operand out of range")
        for sources, limit in needs:
            bound = min(n if s == -1 else 2 if s == -2 else bounds[s] for s in sources)
            if bound > (n if limit < 0 else widths[limit]):
                raise ValueError("law program indexes with a value that may be out of range")
        for (i, _), witness in zip(group, fn(topo, tables, up, down, consts)):
            out[i] = witness
    return out
