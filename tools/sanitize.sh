#!/bin/sh
# Run the whole test suite, and then the backend timings' fixed inputs,
# against the compiled twin built with AddressSanitizer and
# UndefinedBehaviorSanitizer.
#
#   tools/sanitize.sh [extra pytest arguments]
#
# The sanitized extension is built into a temporary copy of src/, so the
# in-place build is left as it is.  The two sanitizer runtimes are preloaded
# because the interpreter itself is not built with them.  Leak detection is
# off: the interpreter keeps memory alive until exit, which ASan would report.
# Any compiler warning fails the build; unused parameters are allowed because
# every METH_FASTCALL function takes the module's self, which none reads.
# pytest captures at the sys level only, so that a sanitizer report written
# to file descriptor 2 as the process aborts reaches the terminal.
set -eu
ROOT=$(cd "$(dirname "$0")/.." && pwd)
PY=${PYTHON:-python3}
CC=${CC:-gcc}
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

cp -R "$ROOT/src" "$TMP/src"
KERNELS="$TMP/src/ordalg/_kernels"
rm -f "$KERNELS"/_core_c*.so
INCLUDE=$("$PY" -c 'import sysconfig; print(sysconfig.get_paths()["include"])')
SUFFIX=$("$PY" -c 'import sysconfig; print(sysconfig.get_config_var("EXT_SUFFIX"))')
"$CC" -shared -fPIC -O1 -g -fno-omit-frame-pointer -fsanitize=address,undefined \
    -fno-sanitize-recover=undefined -Wall -Wextra -Wno-unused-parameter -Werror -I"$INCLUDE" \
    "$KERNELS/_core_c.c" -o "$KERNELS/_core_c$SUFFIX"

export LD_PRELOAD="$("$CC" -print-file-name=libasan.so) $("$CC" -print-file-name=libubsan.so)"
export ASAN_OPTIONS=detect_leaks=0
# ORDALG_NO_EXT keeps the test configuration from building in place, and
# ORDALG_BACKEND=c makes a sanitized module that fails to load an error
export ORDALG_NO_EXT=1 ORDALG_BACKEND=c PYTHONPATH="$TMP/src"
"$PY" -c "import ordalg._kernels._core_c as c; assert c.__file__.startswith('$TMP'), c.__file__"
cd "$ROOT"
"$PY" -m pytest -q -p no:cacheprovider --capture=sys tests "$@"
"$PY" benchmarks/bench_backends.py --repeats 1
