"""Plain-text structure files.

A file declares elements, generating relations, operation tables, and
named constants::

    # pentagon with its sectional pseudocomplement
    elements: 0 a b c 1

    covers:
      0 < a
      a < c
      c < 1
      0 < b
      b < 1

    op *:
      .  0  a  b  c  1
      0  1  1  1  1  1
      a  b  1  b  1  1
      b  c  a  1  c  1
      c  b  a  b  1  1
      1  0  a  b  c  1

    constants:
      one = 1

Rules: ``#`` starts a comment; the elements section must come first;
cover pairs may be any generating relations, not only covering ones;
table headers and rows may appear in any element order but must mention
every element exactly once; ``?`` marks an undefined cell.  Rendering is
canonical: declared element order everywhere, covers deduplicated and
sorted, operations sorted by name.  Errors carry one-based line and
column, computed from the stored line text when an error is raised.
"""

import re
from itertools import count, repeat
from operator import itemgetter

from .binop import BinOp
from .errors import ParseError, RaggedTableError, UnknownElementError
from .poset import make_poset
from .verdict import Record

_NAME = re.compile(r"[A-Za-z0-9_.\-]+\Z")
_TOKEN = re.compile(r"[^\s<=#]+|<|=")
_HEADER = re.compile(r"\s*(?:(elements|covers|constants)|op\s+([^\s:]+))\s*:\s*(.*)")


class StructureFile(Record):
    """Parsed structure description; operation cells hold names or None."""

    # op_headers: (name, line, column) of each op's "op NAME:" header in the parsed text
    __slots__ = ("elements", "covers", "ops", "constants", "op_headers")
    _hidden = ("op_headers",)
    _defaults = {"covers": (), "ops": (), "constants": (), "op_headers": ()}

    def poset(self):
        return make_poset(self.elements, self.covers)

    def _index(self):
        return {name: i for i, name in enumerate(self.elements)}

    def binops(self):
        # an undefined cell, None, stays None; an unknown name raises KeyError
        index = self._index()
        index[None] = None
        n = len(self.elements)
        return {name: BinOp(n, tuple([tuple(map(index.__getitem__, row)) for row in matrix]))
                for name, matrix in self.ops}

    def constant_indices(self):
        index = self._index()
        return {key: index[name] for key, name in self.constants}


def _at(rows, k):
    """(line, column) of token k of a section's (line, offset, text) rows."""
    for lineno, offset, text in rows:
        for m in _TOKEN.finditer(text):
            if not k:
                return lineno, offset + m.start() + 1
            k -= 1


def _bad_name(text):
    return text == "." or not _NAME.match(text)


def _good_names(names):
    # distinct and valid, checked in bulk before any name is looked at alone
    return len(set(names)) == len(names) and "." not in names and all(map(_NAME.match, names))


def _pairs(toks, rows, sep, kind):
    # the "left SEP right" triples of a section, every malformed one first
    if len(toks) % 3 or toks[1::3].count(sep) * 3 != len(toks):
        for k in range(0, len(toks), 3):
            if toks[k + 1:k + 2] != [sep] or k + 2 == len(toks):
                msg = f"expected {kind} of the form x {sep} y near {toks[k]!r}"
                raise ParseError(msg, *_at(rows, k))
    return toks[0::3], toks[2::3]


def _parse_table(op, rows, elements, known):
    op_name, op_line, op_col = op
    n = len(elements)
    body = [(row, row[2].replace("<", " < ").replace("=", " = ").split()) for row in rows]
    body = [(line, toks) for line, toks in body if toks]
    if not body:
        raise ParseError(f"operation {op_name!r} has no table", op_line, op_col)
    (header, cols), body = body[0], body[1:]
    skip = cols[0] == "."
    cols = cols[skip:]
    if len(set(cols)) != len(cols) or not known.issuperset(cols):
        for k, col in enumerate(cols):
            if col not in known:
                raise UnknownElementError(f"unknown element {col!r}", *_at([header], k + skip))
            if col in cols[:k]:
                raise ParseError(f"duplicate column {col!r}", *_at([header], k + skip))
    if len(cols) != n:
        missing = sorted(known - set(cols))
        raise ParseError(f"operation {op_name!r} header omits {', '.join(missing)}", header[0])
    order = list(map(cols.index, elements))
    cell_names = known | {"?"}
    matrix = {}
    for line, (rowname, *cells) in body:
        if rowname not in known:
            raise UnknownElementError(f"unknown element {rowname!r}", *_at([line], 0))
        if rowname in matrix:
            raise ParseError(f"duplicate row {rowname!r}", *_at([line], 0))
        if len(cells) != n:
            raise RaggedTableError(
                f"row {rowname!r} of {op_name!r} has {len(cells)} cells, expected {n}", line[0])
        if not cell_names.issuperset(cells):
            k = next(k for k, cell in enumerate(cells) if cell not in cell_names)
            raise UnknownElementError(f"unknown element {cells[k]!r}", *_at([line], k + 1))
        row = tuple(map(cells.__getitem__, order))
        matrix[rowname] = tuple(None if c == "?" else c for c in row) if "?" in row else row
    if len(matrix) != n:
        missing = sorted(known - set(matrix))
        raise ParseError(
            f"operation {op_name!r} is missing rows for {', '.join(missing)}", op_line, op_col)
    return tuple(matrix[r] for r in elements)


def parse(text):
    """Parse a structure file, raising on the first problem found.

    Each section keeps its comment-free lines as (line, offset, text) rows
    and is tokenized in one pass, a table row by row; a token's line and
    column are computed from those rows only when an error names it.
    """
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    heads = [(k, m) for k, line in enumerate(lines)
             if ":" in line and (m := _HEADER.fullmatch(line.rstrip()))]
    for k in range(heads[0][0] if heads else len(lines)):
        if lines[k] and not lines[k].isspace():
            raise ParseError("content before any section header", *_at([(k + 1, 0, lines[k])], 0))
    sections = []
    for (k, m), end in zip(heads, [k for k, _ in heads[1:]] + [len(lines)]):
        op = m.group(2) and (m.group(2), k + 1, m.start(2) + 1)
        rows = [(k + 1, m.start(3), m.group(3)), *zip(count(k + 2), repeat(0), lines[k + 1:end])]
        sections.append((m.group(1) or "op", op, rows))

    if not sections or sections[0][0] != "elements":
        raise ParseError("file must start with an elements section",
                         sections[0][2][0][0] if sections else 1)

    seen_kinds = set()
    pairs = constants = ()
    ops = {}
    for kind, op, rows in sections:
        if kind in seen_kinds and kind != "op":
            raise ParseError(f"duplicate {kind} section", rows[0][0])
        seen_kinds.add(kind)
        if kind == "op":
            if op[0] in ops:
                raise ParseError(f"duplicate operation {op[0]!r}", op[1], op[2])
            ops[op[0]] = _parse_table(op, rows, elements, known)
            continue
        toks = "\n".join(map(itemgetter(2), rows)).replace("<", " < ").replace("=", " = ").split()
        if kind == "elements":
            if not _good_names(toks):
                for k, name in enumerate(toks):
                    if _bad_name(name):
                        raise ParseError(f"invalid element name {name!r}", *_at(rows, k))
                    if name in toks[:k]:
                        raise ParseError(f"duplicate element {name!r}", *_at(rows, k))
            if not toks:
                raise ParseError("elements section is empty", rows[0][0])
            elements, known = tuple(toks), set(toks)
            index = {name: i for i, name in enumerate(elements)}
        elif kind == "covers":
            los, his = _pairs(toks, rows, "<", "cover")
            if not known.issuperset(los + his) or any(map(str.__eq__, los, his)):
                for c, (lo, hi) in enumerate(zip(los, his)):
                    for k, name in ((3 * c, lo), (3 * c + 2, hi)):
                        if name not in known:
                            raise UnknownElementError(f"unknown element {name!r}", *_at(rows, k))
                    if lo == hi:
                        raise ParseError(f"cover relates {lo!r} to itself", *_at(rows, 3 * c))
            pairs = sorted(set(zip(map(index.get, los), map(index.get, his))))
        else:
            keys, vals = _pairs(toks, rows, "=", "constant")
            if not (_good_names(keys) and known.issuperset(vals)):
                for c, (key, val) in enumerate(zip(keys, vals)):
                    if _bad_name(key):
                        raise ParseError(f"invalid element name {key!r}", *_at(rows, 3 * c))
                    if key in keys[:c]:
                        raise ParseError(f"duplicate constant {key!r}", *_at(rows, 3 * c))
                    if val not in known:
                        where = _at(rows, 3 * c + 2)
                        raise UnknownElementError(f"unknown element {val!r}", *where)
            constants = tuple(sorted(zip(keys, vals)))

    return StructureFile(
        elements=elements,
        covers=tuple([(elements[i], elements[j]) for i, j in pairs]),
        ops=tuple(sorted(ops.items())),
        constants=constants,
        op_headers=tuple(sorted(op for _, op, _ in sections if op)),
    )


def from_poset(p, ops=None, constants=None):
    """Snapshot live objects as a structure description."""
    matrices = []
    for name in sorted(ops or {}):
        table = ops[name]
        matrices.append((name, tuple(
            tuple(None if cell is None else p.names[cell] for cell in row)
            for row in table.table
        )))
    consts = sorted((key, p.names[idx]) for key, idx in (constants or {}).items())
    return StructureFile(
        elements=p.names,
        covers=tuple((p.names[i], p.names[j]) for i, j in p.covers()),
        ops=tuple(matrices),
        constants=tuple(consts),
    )


def render(sf):
    """Canonical text for a structure description."""
    out = ["elements: " + " ".join(sf.elements)]
    if sf.covers:
        out.append("")
        out.append("covers:")
        out.extend(f"  {a} < {b}" for a, b in sf.covers)
    for name, matrix in sf.ops:
        out.append("")
        out.append(f"op {name}:")
        cells = [["."] + list(sf.elements)]
        for rowname, row in zip(sf.elements, matrix):
            cells.append([rowname] + ["?" if c is None else c for c in row])
        widths = [max(len(line[k]) for line in cells) for k in range(len(cells[0]))]
        for line in cells:
            out.append("  " + "  ".join(c.ljust(w) for c, w in zip(line, widths)).rstrip())
    if sf.constants:
        out.append("")
        out.append("constants:")
        out.extend(f"  {k} = {v}" for k, v in sf.constants)
    return "\n".join(out) + "\n"
