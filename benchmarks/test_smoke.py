"""Seconds-long smoke test of the benchmark: every workload's code path on
tiny inputs, the output check, and the output schema against BENCHMARK.json.

    python -m pytest benchmarks
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_declaration_limits():
    assert set(DECLARED) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer")
             for m in DECLARED[group]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    bounds = {m["name"]: m["bound"] for m in DECLARED["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload",
                         [w["name"] for w in DECLARED["workloads"]])
def test_smoke_run(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--smoke",
                "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    *_, info_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert math.isfinite(got["value"])
    info = json.loads(info_line)
    assert set(info["env"]["threads"].values()) == {"1"}
    assert re.fullmatch(r"[0-9a-f]{64}", info["report_sha256"])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    if trace:
        stages = [metrics[f"retrieval.embed_calls_per_q.{stage}"]
                  for stage in ("retrieve", "score", "recognize", "reduce")]
        assert stages[0] == stages[2] == 1.0
        assert sum(stages) == metrics["retrieval.embed_texts_per_q"]
    else:
        assert 0 < metrics["skip_rate"] < 1
        assert metrics["success_rate"] == 1.0


def test_fails_without_sources(tmp_path):
    """Given only BENCHMARK.json and the benchmark's own files, the run
    exits non-zero and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "short-500", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
