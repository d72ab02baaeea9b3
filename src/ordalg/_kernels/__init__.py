"""Kernel backend selection.

The hot loops (closure, lattice/pseudocomplement tables, axiom scans,
small-structure enumeration and its canonical relabeling) exist twice: a
hand-written C extension ``_core_c`` (``_core_c.c``) working on uint64
masks and a pure Python twin ``_core_py``.  The compiled backend is
preferred when built; set ``ORDALG_BACKEND=py`` or ``ORDALG_BACKEND=c`` to
force one.  Carriers outside 1..64 elements always route to the pure
backend, which handles arbitrary-width masks (and the empty carrier).
The catalog kernels ``enum_orders`` and ``canonical_keys`` work on packed
8-bit rows, so both twins take only 1..8 elements.
"""

import os

from . import _core_py as _py

_choice = os.environ.get("ORDALG_BACKEND", "auto")
if _choice not in ("auto", "py", "c"):
    raise ValueError(f"ORDALG_BACKEND must be auto, py, or c, not {_choice!r}")

_c = None
if _choice in ("auto", "c"):
    try:
        from . import _core_c as _c
    except ImportError:
        if _choice == "c":
            raise

_active = _c if (_c is not None and _choice != "py") else _py
BACKEND = "c" if _active is not _py else "py"
HAVE_C = _c is not None


def _pick(n):
    return _active if 0 < n <= 64 else _py


def closure(n, up):
    return _pick(n).closure(n, list(up))


def lattice_tables(n, up, down):
    return _pick(n).lattice_tables(n, list(up), list(down))


def poset_star_table(n, up, down):
    return _pick(n).poset_star_table(n, list(up), list(down))


def rrl_scan(n, up, top, join, mult, imp):
    return _pick(n).rrl_scan(n, list(up), top, join, mult, imp)


def divisibility_scan(n, join, mult, imp):
    return _pick(n).divisibility_scan(n, join, mult, imp)


def enum_orders(n, lattices_only):
    return _active.enum_orders(n, bool(lattices_only))


def canonical_keys(n, orders):
    return _active.canonical_keys(n, orders)
