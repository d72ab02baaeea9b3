#!/bin/sh
# Run every check of the repository, in order, and stop at the first failure.
#
#   tools/check.sh
#
# The steps: the unit suite on the default backend, which fails on any
# skipped test, the unit suite on the pure twin (ORDALG_BACKEND=py), which
# fails unless it skips exactly the tests that need the compiled twin, the
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

# Run the pytest command given after COUNT and REASON, with -rs, and fail
# unless its summary line reports exactly COUNT skipped tests and its skip
# report gives REASON for every one of them.
skips() {
    count=$1
    reason=$2
    shift 2
    out=$("$@" 2>&1)
    code=$?
    printf '%s\n' "$out"
    [ "$code" -ne 0 ] && return "$code"
    got=$(printf '%s\n' "$out" | tail -n 1 | grep -o '[0-9]* skipped' | cut -d ' ' -f 1)
    why=$(printf '%s\n' "$out" | awk -v tail=": $reason" '
        /^SKIPPED \[[0-9]+\] / && substr($0, length($0) - length(tail) + 1) == tail {
            n += substr($2, 2, length($2) - 2)
        }
        END { print n + 0 }')
    if [ "${got:-0}" -ne "$count" ] || [ "$why" -ne "$count" ]; then
        echo "pytest skipped ${got:-0} tests, $why of them for '$reason'; expected $count, all for that reason"
        return 1
    fi
}

# The default backend runs every test: a skip means the compiled twin did not
# build, and the differential tests in tests/test_backends.py did not run.
step "tier-1" skips 0 "" python3 -m pytest -q -rs --continue-on-collection-errors
# The pure twin skips exactly the tests that need the compiled one: the 29 of
# tests/test_backends.py and the two [compiled] cases of tests/test_poset.py.
# A compiled-only test added later raises the count here.
step "tier-1, pure twin" skips 31 "compiled backend not built" \
    env ORDALG_BACKEND=py python3 -m pytest -q -rs --continue-on-collection-errors
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
