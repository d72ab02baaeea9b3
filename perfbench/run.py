"""End-to-end benchmark of the ordalg workbench.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 35 --trace 0

Builds the compiled kernels from source if they do not import, checks
that both kernel twins agree, then runs the workload in fresh processes
on the compiled twin.  With ``--trace 0`` it prints every end-to-end
metric; with ``--trace 1`` it runs the workload once untraced and once
traced and prints every per-layer metric.  The last line of standard
output is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every answer was right.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

WORKER_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def worker_env():
    env = dict(os.environ)
    env.pop("ORDALG_BACKEND", None)
    env["PYTHONPATH"] = SRC
    return env


def compiled_twin_imports(env):
    probe = "import sys, ordalg; sys.exit(0 if ordalg.HAVE_C and ordalg.BACKEND == 'c' else 3)"
    return subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode == 0


def ensure_compiled(env):
    """Build the extension in place with the repository's setup.py if needed."""
    if compiled_twin_imports(env):
        return True
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    build_env = dict(env, TMPDIR=tmp)
    with open(os.path.join(OUT, "build.log"), "w", encoding="utf-8") as log:
        subprocess.run([sys.executable, "setup.py", "build_ext", "--inplace"], cwd=ROOT,
                       env=build_env, stdout=log, stderr=subprocess.STDOUT)
    return compiled_twin_imports(env)


def commit_id():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return "unknown"


def source_digest():
    """Hash of the library sources, identifying the code where git cannot."""
    digest = hashlib.sha256()
    base = os.path.join(SRC, "ordalg")
    for folder, dirs, files in sorted(os.walk(base)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith((".py", ".pyx", ".c")):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, base).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def start_worker(workload, seed, mode, seconds, env):
    """Run one worker to completion; on timeout kill it with its children."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--seconds", str(seconds)]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} {mode} worker exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (os.path.isfile(os.path.join(SRC, "ordalg", "__init__.py"))
            and os.path.isfile(os.path.join(ROOT, "setup.py"))):
        return fail("no ordalg sources next to the benchmark; run from a checkout")
    os.makedirs(OUT, exist_ok=True)
    env = worker_env()
    if not ensure_compiled(env):
        return fail("the compiled kernels neither import nor build; see .perfbench/build.log")
    sys.path[:0] = [SRC, HERE]
    import ordalg
    import twins
    from tracer import PER_LAYER, unit_of
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    disagree = twins.disagreements(ordalg, ROOT, env)
    print(f"twins: {'all kernel pairs agree' if not disagree else 'DISAGREE on ' + ', '.join(disagree)}")

    try:
        if args.trace:
            runs = [start_worker(args.workload, args.seed, "traced", args.seconds, env)]
        else:
            # Fresh processes set the workload up; half run before the timed
            # process and half after it, so that they span the whole run.
            samples = WORKLOADS[args.workload].setup_samples
            runs = [start_worker(args.workload, args.seed, "setup", args.seconds, env)
                    for _ in range(samples // 2)]
            timed = start_worker(args.workload, args.seed, "timed", args.seconds, env)
            runs += [start_worker(args.workload, args.seed, "setup", args.seconds, env)
                     for _ in range(samples - 1 - samples // 2)]
            runs.append(timed)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        return fail(str(exc))
    main_run = runs[-1]
    on_c = all(r["backend"] == "c" and r["have_c"] for r in runs)
    correct = not disagree and on_c and main_run["failed"] == 0

    print(f"provenance: backend={main_run['backend']} have_c={main_run['have_c']} "
          f"python={platform.python_version()} nproc={os.cpu_count()} "
          f"commit={commit_id()} source={source_digest()} "
          f"kernels.routed_py.calls={main_run['routed_py']}")
    print(f"workload {args.workload} seed {args.seed}: {main_run['attempted']} items "
          f"in {main_run['passes']} passes")
    if args.trace:
        metrics = {name: metric(main_run["layers"][name], unit_of(name)) for name in PER_LAYER}
        print(f"spans: {main_run['spans']}, written to .perfbench/trace-{args.workload}.json.gz")
    else:
        # Other tenants of the host slow a process by up to 1.5x for
        # seconds to minutes and never speed it up, so the fastest set-up
        # of a fixed number of processes is the steadiest estimate.
        metrics = {
            "setup_s": metric(min(r["setup_s"] for r in runs), "s"),
            "items_per_s": metric(main_run["items_per_s"], "1/s"),
            "item_p50_ms": metric(main_run["p50_ms"], "ms"),
            "item_p90_ms": metric(main_run["p90_ms"], "ms"),
            "peak_rss_mb": metric(main_run["peak_rss_mb"], "MB"),
        }
    for name, m in metrics.items():
        note = ""
        if name in ("item_p50_ms", "item_p90_ms"):
            note = f"  (of {main_run['samples']} samples)"
        elif name == "setup_s":
            note = f"  (fastest of {len(runs)} fresh processes)"
        print(f"{name} = {m['value']:.6g} {m['unit']}{note}")
    ratio = main_run["failed"] / main_run["attempted"]
    print(f"fail_ratio = {ratio:.6g}  ({main_run['failed']} of {main_run['attempted']})")
    print(f"witness digest: {main_run['digest'][:16]}")
    print(json.dumps({"correct": correct, "attempted": main_run["attempted"],
                      "failed": main_run["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
