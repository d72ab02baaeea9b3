#!/bin/sh
# Run every check of the repository, in order, and stop at the first failure.
#
#   tools/check.sh
#
# The steps: the unit suite on the default backend, which fails on any
# skipped test, the unit suite on the pure twin (ORDALG_BACKEND=py), the
# perfbench self-tests, the benchmark's answer checks, a traced run of each
# workload, one round of the backend timings, and the sanitizer run of
# tools/sanitize.sh.  Each step's output
# goes to a log; a passing step prints one summary line with the log's last
# line, and a failing one prints its whole log and exits with the step's
# exit code.
set -u
ROOT=$(cd "$(dirname "$0")/.." && pwd)
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
cd "$ROOT"
export PYTHONPATH="$ROOT/src${PYTHONPATH:+:$PYTHONPATH}"

step() {
    name=$1
    shift
    start=$(date +%s)
    "$@" >"$TMP/log" 2>&1
    code=$?
    secs=$(($(date +%s) - start))
    if [ "$code" -ne 0 ]; then
        cat "$TMP/log"
        echo "FAIL  $name  (exit $code after ${secs} s)"
        exit "$code"
    fi
    last=$(grep -v '^[[:space:]]*$' "$TMP/log" | tail -n 1)
    echo "ok    $name  (${secs} s)  $last"
}

# Run a command and fail if its output reports a skipped test.
no_skips() {
    out=$("$@" 2>&1)
    code=$?
    printf '%s\n' "$out"
    [ "$code" -ne 0 ] && return "$code"
    if printf '%s\n' "$out" | tail -n 1 | grep -q '[0-9] skipped'; then
        echo "tier-1 skipped tests: the compiled twin must run, not skip"
        return 1
    fi
}

# The default backend runs every test: a skip means the compiled twin did not
# build, and the differential tests in tests/test_backends.py did not run.
step "tier-1" no_skips python3 -m pytest -q -rs --continue-on-collection-errors
step "tier-1, pure twin" env ORDALG_BACKEND=py python3 -m pytest -q --continue-on-collection-errors
step "perfbench self-tests" python3 -m pytest -q perfbench
# Each workload's answers and twin gate, in a 3-second run: the run exits
# nonzero on a wrong answer or a failed gate.  Its figures are not timings.
for workload in sweep cli; do
    step "benchmark answers, $workload" \
        python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 3 --trace 0
done
# The tracer end to end: it wraps every public function and the counted
# methods (Congruence.join, CanonicalProduct.m) and still gets every answer;
# sweep runs it over classify's nested spans on all 706 structures.
for workload in cli sweep; do
    step "traced run, $workload" \
        python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 3 --trace 1
done
step "backend timings" python3 benchmarks/bench_backends.py --repeats 1
step "sanitizers" tools/sanitize.sh
