"""The pytest-benchmark suite under benchmarks/, which a plain `pytest` does not run."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_the_benchmark_suite_collects():
    # the suite imports private names of the package: one renamed or deleted
    # breaks only its collection, which the test paths would otherwise never see
    done = subprocess.run([sys.executable, "-m", "pytest", "benchmarks", "--collect-only", "-q",
                           "-p", "no:cacheprovider"], cwd=ROOT, capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
