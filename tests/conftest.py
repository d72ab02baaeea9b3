import os
import shlex
import shutil
import subprocess
import sys
import sysconfig

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def c_compiler():
    """Path of the C compiler the build would use, or None."""
    cc = shlex.split(os.environ.get("CC") or sysconfig.get_config_var("CC") or "")
    return shutil.which(cc[0]) if cc else None


def pytest_configure(config):
    # Build the compiled twin in place before any test imports ordalg, so
    # the differential tests in test_backends.py run instead of skipping.
    # setuptools recompiles only when the C source is newer than the module.
    if os.environ.get("ORDALG_NO_EXT") == "1" or c_compiler() is None:
        return
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace"],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise pytest.UsageError(
            "building the compiled twin failed:\n" + proc.stdout + proc.stderr
        )


def pytest_terminal_summary(terminalreporter):
    # surface the per-criterion lines even when capture is on
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if RESULTS:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(RESULTS):
            terminalreporter.write_line(line)
