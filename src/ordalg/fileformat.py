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
column.
"""

import re
from dataclasses import dataclass, field
from typing import Optional, Tuple

from .binop import BinOp
from .errors import ParseError, RaggedTableError, UnknownElementError
from .poset import make_poset

_NAME = re.compile(r"[A-Za-z0-9_.\-]+\Z")
_TOKEN = re.compile(r"[^\s<=#]+|<|=")
_HEADER = re.compile(r"\s*(?:(elements|covers|constants)|op\s+([^\s:]+))\s*:\s*(.*)")


@dataclass(frozen=True)
class StructureFile:
    """Parsed structure description; operation cells hold names or None."""

    elements: Tuple[str, ...]
    covers: Tuple[Tuple[str, str], ...] = ()
    ops: Tuple[Tuple[str, Tuple[Tuple[Optional[str], ...], ...]], ...] = ()
    constants: Tuple[Tuple[str, str], ...] = ()
    # (name, line, column) of each op's "op NAME:" header in the parsed text
    op_headers: Tuple[Tuple[str, int, int], ...] = field(default=(), compare=False, repr=False)

    def poset(self):
        return make_poset(self.elements, self.covers)

    def binops(self):
        index = {name: i for i, name in enumerate(self.elements)}
        out = {}
        for name, matrix in self.ops:
            rows = tuple(
                tuple(None if cell is None else index[cell] for cell in row)
                for row in matrix
            )
            out[name] = BinOp(len(self.elements), rows)
        return out

    def constant_indices(self):
        index = {name: i for i, name in enumerate(self.elements)}
        return {key: index[name] for key, name in self.constants}


def _tokens(line, lineno, offset=0):
    text = line.split("#", 1)[0]
    return [(m.group(), lineno, offset + m.start() + 1) for m in _TOKEN.finditer(text)]


def _check_name(tok):
    text, line, col = tok
    if text in ("<", "=", "?", ".") or not _NAME.match(text):
        raise ParseError(f"invalid element name {text!r}", line, col)
    return text


def _require_known(tok, known):
    text, line, col = tok
    if text not in known:
        raise UnknownElementError(f"unknown element {text!r}", line, col)
    return text


def _parse_pairs(toks, sep, kind):
    # stream of "left SEP right" triples
    out = []
    for i in range(0, len(toks), 3):
        chunk = toks[i:i + 3]
        if len(chunk) < 3 or chunk[1][0] != sep:
            text, line, col = chunk[0]
            raise ParseError(f"expected {kind} of the form x {sep} y near {text!r}", line, col)
        out.append((chunk[0], chunk[2]))
    return out


def _parse_table(name_tok, lines, elements):
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
        colname = _require_known(tok, elements)
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
        rowname = _require_known(toks[0], elements)
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
            row[colname] = None if tok[0] == "?" else _require_known(tok, elements)
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


def parse(text):
    """Parse a structure file, raising on the first problem found."""
    sections = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        m = _HEADER.fullmatch(raw.split("#", 1)[0].rstrip())
        if m:
            kind = m.group(1) or "op"
            rest = _tokens(m.group(3), lineno, offset=m.start(3))
            if kind == "op":
                current = (kind, (m.group(2), lineno, m.start(2) + 1), [(rest, lineno)])
            else:
                current = (kind, None, [(rest, lineno)])
            sections.append(current)
            continue
        toks = _tokens(raw, lineno)
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
                name = _check_name(tok)
                if name in elements:
                    raise ParseError(f"duplicate element {name!r}", tok[1], tok[2])
                elements.append(name)
            if not elements:
                raise ParseError("elements section is empty", lines[0][1])
        elif kind == "covers":
            if kind in seen_kinds:
                raise ParseError("duplicate covers section", lines[0][1])
            for lo, hi in _parse_pairs(flat, "<", "cover"):
                a = _require_known(lo, elements)
                b = _require_known(hi, elements)
                if a == b:
                    raise ParseError(f"cover relates {a!r} to itself", lo[1], lo[2])
                covers.append((a, b))
        elif kind == "constants":
            if kind in seen_kinds:
                raise ParseError("duplicate constants section", lines[0][1])
            for key, val in _parse_pairs(flat, "=", "constant"):
                k = _check_name(key)
                if k in const_keys:
                    raise ParseError(f"duplicate constant {k!r}", key[1], key[2])
                const_keys.add(k)
                constants.append((k, _require_known(val, elements)))
        else:
            if name_tok[0] in op_names:
                raise ParseError(f"duplicate operation {name_tok[0]!r}", name_tok[1], name_tok[2])
            op_names.add(name_tok[0])
            ops.append(_parse_table(name_tok, lines, elements))
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
