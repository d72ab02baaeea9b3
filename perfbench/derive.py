"""Derive expected.json, the answers the benchmark checks every item against.

Run once from the root of a checkout, when the item mix changes::

    PYTHONPATH=src python3 perfbench/derive.py

Sweep and wide flags come from the library on unrelabeled structures and
must satisfy the paper's equivalences before they are stored.  Congruence
counts come from the naive partition oracle in tests/oracles.py, not from
``all_congruences``.
"""

import json
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE, os.path.join(ROOT, "tests")]

import ordalg  # noqa: E402
import workloads as W  # noqa: E402
from oracles import congruence_oracle  # noqa: E402
from structs import order_key  # noqa: E402


def require(ok, what):
    if not ok:
        raise SystemExit(f"derive: {what}")


def lattices(sizes):
    for n in sizes:
        yield from ordalg.enumerate_structures(n, "lattices").members


def congruence_entry(alg):
    congs = congruence_oracle(alg)
    entry = [len(congs), bool(ordalg.check_permutable(alg, congs)),
             bool(ordalg.check_congruence_distributive(alg, congs)),
             bool(ordalg.check_weakly_regular(alg, congs))]
    # every lattice is congruence-distributive
    require(entry[2], f"lattice algebra {alg.poset.up} not congruence-distributive")
    return entry


def main():
    sweep = W.Sweep()
    out = {"sweep": {"lattice": {}, "top": {}}, "wide": {},
           "congruence": {"star": {}, "plain": {}}}
    for p in lattices(range(1, 9)):
        flags = W.lattice_stage(p)[0]
        require(W.lattice_rules_hold(flags), f"lattice {p.up}: {flags}")
        out["sweep"]["lattice"][order_key(p.up)] = W.encode(flags)
    for n in range(1, 8):
        for p in ordalg.enumerate_structures(n, "posets-with-top").members:
            flags = sweep.run(W.Unit("top", "", p, p))[0]
            require(W.operator_rules_hold(flags[3:]), f"poset {p.up}: {flags}")
            out["sweep"]["top"][order_key(p.up)] = W.encode(flags)
    for label, p in W.wide_structures():
        flags = W.wide_run(p)[0]
        require(W.lattice_rules_hold(flags[:11]) and W.operator_rules_hold(flags[11:]),
                f"{label}: {flags}")
        out["wide"][label] = W.encode(flags)
    for p in lattices(range(1, 9)):
        star = ordalg.star_table_poset(p)
        if star.is_total:
            out["congruence"]["star"][order_key(p.up)] = congruence_entry(
                W.lattice_algebra(p, star))
    for p in lattices(range(2, 7)):
        out["congruence"]["plain"][order_key(p.up)] = congruence_entry(W.lattice_algebra(p))
    for section in ("sweep", "congruence"):
        for kind, table in out[section].items():
            print(f"{section}/{kind}: {len(table)} structures")
    text = json.dumps(out, indent=1, sort_keys=True)
    # one structure per line
    text = re.sub(r"\[\s+([^\]]*?)\s+\]", lambda m: "[" + " ".join(m.group(1).split()) + "]", text)
    with open(W.EXPECTED_PATH, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")


if __name__ == "__main__":
    main()
