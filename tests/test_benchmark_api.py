"""The benchmark against the library's current API.

``benchmarks/run.py`` imports, patches and calls library functions by name
and by position, so a removed or reordered parameter breaks it without
breaking any unit test. One seconds-long smoke run per workload shape catches
that here, and one traced run catches it in what the traced pass patches and
counts (``benchmarks/tracing.py``).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def smoke_run(workload: str, trace: int) -> dict:
    """The result line of a smoke run, which must exit 0."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "run.py"),
         "--workload", workload, "--seed", "3", "--smoke",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["short-500", "long-mixed"])
def test_benchmark_smoke_run_succeeds(workload):
    result = smoke_run(workload, trace=0)
    assert result["correct"] is True
    assert result["failed"] == 0


def test_benchmark_traced_smoke_run_succeeds():
    """The traced pass wraps loaders, layers and set-up counters by name
    (``Mlp.weighted_bce`` among them); a name they patch that the library
    no longer has fails the run at patch time."""
    result = smoke_run("long-mixed", trace=1)
    assert result["correct"] is True
    assert result["failed"] == 0
