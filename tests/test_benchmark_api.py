"""The benchmark against the library's current API.

``benchmarks/run.py`` imports, patches and calls library functions by name
and by position, so a removed or reordered parameter breaks it without
breaking any unit test. One seconds-long smoke run per workload shape catches
that here.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["short-500", "long-mixed"])
def test_benchmark_smoke_run_succeeds(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "run.py"),
         "--workload", workload, "--seed", "3", "--smoke", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
