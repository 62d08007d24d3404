import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def checkout(root: Path, name: str, setup_s: float, qps: float,
             sha: str = "same", exit_code: int = 0,
             raw_setup_s: list[float] | None = None) -> Path:
    """A directory whose benchmarks/run.py prints fixed result lines; its
    info line carries ``samples`` only given ``raw_setup_s``."""
    path = root / name
    (path / "benchmarks").mkdir(parents=True)
    info = {"report_sha256": sha}
    if raw_setup_s is not None:
        info["samples"] = {"rounds": len(raw_setup_s),
                           "raw_setup_s": raw_setup_s}
    info = json.dumps(info)
    result = json.dumps({"metrics": {
        "setup_s": {"value": setup_s, "unit": "s"},
        "eval_qps": {"value": qps, "unit": "1/s"}}})
    (path / "benchmarks" / "run.py").write_text(
        f"import sys\nprint({info!r})\nprint({result!r})\n"
        f"sys.exit({exit_code})\n")
    (path / "BENCHMARK.json").write_text(json.dumps({
        "end_to_end": [{"name": "setup_s", "better": "lower"},
                       {"name": "eval_qps", "better": "higher"}],
        "per_layer": []}))
    return path


def rows(output: str) -> dict[str, list[str]]:
    return {line.split()[0]: line.split() for line in output.splitlines()
            if line.startswith(("setup_s", "eval_qps", "raw_setup_s"))}


def test_wins_follow_each_metrics_direction(tmp_path, bench_pairs, capsys):
    parent = checkout(tmp_path, "parent", setup_s=2.0, qps=100.0)
    change = checkout(tmp_path, "change", setup_s=1.0, qps=90.0)
    out = tmp_path / "runs.json"
    assert bench_pairs.main([str(parent), str(change), "--workload", "w",
                             "--pairs", "3", "--seeds", "4", "5",
                             "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "3 pairs, report_sha256 equal in 3" in printed
    # the change wins every pair on the lower-is-better metric, by more
    # than the parent's quartile distance, and none on the other
    assert rows(printed)["setup_s"][-3:] == ["-50.0%", "3/3", "yes"]
    assert rows(printed)["eval_qps"][-3:] == ["-10.0%", "0/3", "no"]
    # without samples in the info line there is no raw set-up row
    assert "raw_setup_s" not in rows(printed)
    runs = json.loads(out.read_text())["w"]
    assert len(runs) == 3
    assert runs[0]["parent"]["samples"] == {}


def test_raw_setup_row_and_samples_kept(tmp_path, bench_pairs, capsys):
    parent = checkout(tmp_path, "parent", setup_s=2.0, qps=100.0,
                      raw_setup_s=[3.0, 2.5, 9.0])
    change = checkout(tmp_path, "change", setup_s=1.0, qps=90.0,
                      raw_setup_s=[2.0, 1.0, 2.5])
    out = tmp_path / "runs.json"
    assert bench_pairs.main([str(parent), str(change), "--workload", "w",
                             "--pairs", "2", "--out", str(out)]) == 0
    # each run's median raw set-up time, 3.0 against 2.0, in every pair
    assert rows(capsys.readouterr().out)["raw_setup_s"][1:] == [
        "3", "[3,", "3]", "2", "[2,", "2]", "-33.3%", "2/2", "yes"]
    runs = json.loads(out.read_text())["w"]
    assert [run["change"]["samples"]["raw_setup_s"] for run in runs] == \
        [[2.0, 1.0, 2.5]] * 2


def test_failed_run_leaves_its_pair_out(tmp_path, bench_pairs, capsys):
    parent = checkout(tmp_path, "parent", setup_s=2.0, qps=100.0, sha="a")
    change = checkout(tmp_path, "change", setup_s=1.0, qps=90.0,
                      exit_code=1)
    assert bench_pairs.main([str(parent), str(change), "--workload", "w",
                             "--pairs", "2"]) == 1
    assert "w: 2 pairs failed" in capsys.readouterr().out
