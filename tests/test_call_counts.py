"""``tools/call_counts.py``: per-artifact and per-stage call counts that two
processes agree on."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "call_counts.py"


def counts(workload: str, hash_seed: str) -> str:
    """The tool's output for a smoke run under ``PYTHONHASHSEED``."""
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--workload", workload, "--seed", "2",
         "--smoke"], cwd=ROOT, capture_output=True, text=True, timeout=170,
        env={**os.environ, "PYTHONHASHSEED": hash_seed})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


STAGES = ["embed", "retrieve", "score", "recognize", "reduce", "prompt",
          "llm", "other"]
ARTIFACTS = ["index", "corpus", "scorer", "detector", "nn_ref", "other"]


def table(lines: list[str], name: str) -> dict[str, tuple[float, float]]:
    """stage -> (Python, C) calls per question of the table ``name``."""
    at = lines.index(next(line for line in lines
                          if line.startswith(f"{name} (")))
    rows = {}
    for line in lines[at + 2:]:
        if not line.startswith("  "):
            break
        stage, python, c = line.split()
        rows[stage] = (float(python), float(c))
    return rows


@pytest.mark.parametrize("workload", ["short-500", "long-mixed"])
def test_counts_match_across_hash_seeds(workload):
    first = counts(workload, "0")
    assert first == counts(workload, "12345")
    lines = first.splitlines()
    # one load_pipeline, split by the artifact it reads: each of the five
    # costs calls, and so does the rest (config, provider and checks)
    loaded = table(lines, "load")
    assert list(loaded) == ARTIFACTS + ["total"]
    assert min(min(calls) for calls in loaded.values()) > 0
    assert loaded["total"] == tuple(map(sum, zip(*list(loaded.values())[:-1])))
    # a cold and a warm table, each with every stage and a total
    for name in ("cold", "warm"):
        assert list(table(lines, name)) == STAGES + ["total"]
    # every question embeds, retrieves, scores and asks the LLM
    for line in lines:
        if line.split()[0] in ("embed", "retrieve", "score", "llm"):
            assert float(line.split()[1]) > 0
    # evaluate() on a fresh load: its questions' stages cost what
    # answer_question's do, and its own work (recall positions and the
    # aggregation) has a row of its own
    for name in ("cold", "warm"):
        answered = table(lines, name)
        evaluated = table(lines, f"evaluate {name}")
        assert list(evaluated) == STAGES + ["evaluate", "total"]
        for stage in STAGES[:-1]:
            assert evaluated[stage] == answered[stage]
        assert min(evaluated["evaluate"]) > 0
