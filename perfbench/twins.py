"""Agreement of the compiled kernels with their pure Python twins.

The reference for the kernel layer is ``benchmarks/bench_backends.py``:
it runs every kernel on fixed inputs on both backends and exits nonzero
if any pair disagrees.  Its inputs all pass, so this module adds the two
failing paths: an implication that is top everywhere breaks adjointness
and divisibility on the pentagon, and both scans must report that alike.
"""

import os
import subprocess
import sys


def _same(a, b):
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return list(a) == list(b)
    return a == b


def failing_cases(ordalg):
    """(label, kernel name, arguments) where the scans find a violation."""
    pent = ordalg.as_lattice(ordalg.fixture("pentagon").poset)
    top = pent.poset.top
    wrong = ordalg.from_sectional(pent, ordalg.BinOp(5, tuple(
        tuple(top for _ in range(5)) for _ in range(5))))
    flat = (pent.flat_join(), wrong.mult.flat(), wrong.imp.flat())
    return (
        ("residuation scan, failing", "rrl_scan", (5, list(pent.poset.up), top) + flat),
        ("divisibility scan, failing", "divisibility_scan", (5,) + flat),
    )


def disagreements(ordalg, root, env):
    """Labels of the checks where the two backends differ."""
    from ordalg._kernels import _core_c, _core_py

    script = os.path.join(root, "benchmarks", "bench_backends.py")
    proc = subprocess.run([sys.executable, script, "--repeats", "1"], cwd=root, env=env,
                          capture_output=True, text=True)
    out = []
    if proc.returncode != 0:
        rows = [line.split("  ")[0] for line in proc.stdout.splitlines()
                if "DISAGREE" in line]
        out += rows or [f"bench_backends.py exited with {proc.returncode}"]
    for label, kernel, args in failing_cases(ordalg):
        if not _same(getattr(_core_py, kernel)(*args), getattr(_core_c, kernel)(*args)):
            out.append(label)
    return out
