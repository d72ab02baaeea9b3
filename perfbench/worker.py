"""One workload in one fresh process; prints a JSON summary as its last line.

Started by run.py with the checkout's ``src`` on PYTHONPATH::

    python3 perfbench/worker.py --workload sweep --seed 1 --mode timed \\
        --seconds 35 --t0 <time.monotonic() just before the process was started>

Modes: ``setup`` builds the inputs and stops; ``timed`` then runs the
workload's fixed number of whole passes for ``--seconds``, and one traced
pass after them that records the kernel routes; ``traced`` runs a fixed
number of passes untraced and the same passes traced.  Both then run the
workload's audit, whose checks count as items.
"""

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback

import ordalg
from metrics import nearest_rank
from tracer import Tracer
from workloads import ROOT, WORKLOADS


def run_passes(wl, units, runner, passes, deadline_s=None):
    """Closed loop over ``passes`` whole passes; each call is timed on its own.

    No pass starts after ``deadline_s``, which only very slow code or a
    very slow host reaches.  A call that raises or answers wrong fails
    every item it stands for.
    """
    times = [[] for _ in units]
    items = [1] * len(units)
    attempted = failed = 0
    digest = hashlib.sha256()
    clock = time.perf_counter
    start = clock()
    done = 0
    while True:
        for i, unit in enumerate(units):
            t = clock()
            try:
                answer = runner(unit)
            except Exception:
                answer = None
                traceback.print_exc(file=sys.stderr)
            times[i].append(clock() - t)
            items[i] = k = wl.items(unit, answer)
            attempted += k
            if answer is None or not wl.check(unit, answer):
                failed += k
                print(f"wrong answer: {wl.name} {unit.label}", file=sys.stderr)
            if done == 0:
                digest.update(wl.witness(unit, answer).encode())
        done += 1
        if done >= passes or (deadline_s is not None and clock() - start >= deadline_s):
            break
    return {"times": times, "items": items, "attempted": attempted, "failed": failed,
            "passes": done, "digest": digest.hexdigest()}


def summarize(res):
    """Throughput and item percentiles from each call's best time.

    Other tenants of the host slow every call by up to 2x for stretches
    of seconds to minutes, and only ever add time, so the fastest of a
    call's passes is its steadiest cost.  The pass count is fixed per
    workload, so the estimate's bias does not move with the code's
    speed.  A call that emits k items counts as k samples of its best
    time over k.
    """
    best = [min(ts) for ts in res["times"]]
    samples = [t / k for t, k in zip(best, res["items"]) for _ in range(k)]
    return {
        "items_per_s": sum(res["items"]) / sum(best),
        "p50_ms": nearest_rank(samples, 50) * 1000.0,
        "p90_ms": nearest_rank(samples, 90) * 1000.0,
        "samples": len(samples),
    }


def busy_s(res):
    return sum(sum(ts) for ts in res["times"])


def probe_ms(code, repeats=5):
    """Median wall time of a fresh interpreter running ``code``."""
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append((time.perf_counter() - t) * 1000.0)
    return statistics.median(times)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "timed", "traced"))
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload]()
    try:
        units = wl.build(random.Random(args.seed))
        setup_s = time.monotonic() - args.t0
        out = {"setup_s": setup_s, "backend": ordalg.BACKEND, "have_c": ordalg.HAVE_C}
        if args.mode == "timed":
            res = run_passes(wl, units, wl.run, wl.timed_passes(args.seconds),
                             deadline_s=1.5 * args.seconds)
            out.update(summarize(res))
            out.update(peak_rss_mb=peak_rss_mb(), passes=res["passes"],
                       digest=res["digest"])
            # one traced pass after the timed phase records the kernel routes,
            # so that the timed calls run with no wrappers
            tracer = Tracer()
            tracer.install()
            try:
                routes = run_passes(wl, units, wl.run, passes=1)
            finally:
                tracer.restore()
            out.update(attempted=res["attempted"] + routes["attempted"],
                       failed=res["failed"] + routes["failed"],
                       routed_py=tracer.counts["kernels.routed_py.calls"])
        elif args.mode == "traced":
            interp = probe_ms("pass")
            probes = {"cli.interp_ms": interp,
                      "cli.import_ms": probe_ms("import ordalg") - interp}
            plain = run_passes(wl, units, wl.run, passes=wl.trace_passes)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_passes(wl, units, wl.run, passes=wl.trace_passes)
            finally:
                tracer.restore()
            os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
            tracer.write(os.path.join(ROOT, ".perfbench", f"trace-{wl.name}.json.gz"))
            out.update(
                attempted=plain["attempted"] + traced["attempted"],
                failed=plain["failed"] + traced["failed"],
                passes=traced["passes"],
                spans=len(tracer.spans),
                digest=traced["digest"],
                layers=tracer.layer_metrics(busy_s(traced), busy_s(plain), probes),
                routed_py=tracer.counts["kernels.routed_py.calls"],
            )
        if args.mode != "setup":
            audit = wl.audit()
            for label, passed in audit:
                if not passed:
                    print(f"wrong catalog: {wl.name} {label}", file=sys.stderr)
            out["attempted"] += len(audit)
            out["failed"] += sum(not passed for _, passed in audit)
    finally:
        wl.close()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
