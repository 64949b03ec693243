"""The pytest-benchmark suite under benchmarks/, which a plain `pytest` does not run."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_the_benchmark_suite_runs():
    # the suite imports private names of the package and reads its results: one
    # renamed or deleted breaks only the suite, which the test paths would
    # otherwise never see.  Each benchmark runs once, untimed: about 2 s in all
    # on a 2-core x86 machine.
    done = subprocess.run([sys.executable, "-m", "pytest", "benchmarks", "--benchmark-disable", "-q",
                           "-p", "no:cacheprovider"], cwd=ROOT, capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
