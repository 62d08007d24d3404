"""Golden digests of an evaluation report and of the detector data.

Every artifact is built by the CLI's set-up commands on the redundant
fixture (index, annotate, train-scorer, build-nn-ref, build-detector-data,
train-detector), then ``leanrag eval`` writes a report with the two
ablations as sub-reports. The detector data, whose features are the
sampled windows' scores, is pinned too, since on this small fixture the
report's own fields (orderings, sizes, token counts) move with fewer of
them. A change that moves one candidate's or one window's score, one
decision or one kept window fails here.

The digests were taken with numpy 2 on OpenBLAS 0.3 (Haswell kernels);
another BLAS build or CPU family may round the matrix products
differently, and then the digests are taken anew at a commit whose outputs
are known to be unchanged.
"""

import hashlib
import json

from synthetic import write_redundant_fixture

from leanrag.cli import main

DETECTOR_DATA_SHA256 = (
    "953f9850117079f174bdbe11bec060bc2e905feb2c601172c6d35e33ae153b25")
REPORT_SHA256 = (
    "54c73c93622675ca1113c8dc12e087e15be707534858d63fdd354c410e6e4351")


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_eval_report_bytes(tmp_path):
    paths = write_redundant_fixture(tmp_path, n_questions=6)
    config = {
        "seed": 5,
        "corpus_path": str(paths["corpus"]),
        "index_path": str(tmp_path / "index.json"),
        "scorer_path": str(tmp_path / "scorer.json"),
        "detector_path": str(tmp_path / "detector.json"),
        "nn_ref_path": str(tmp_path / "nnref.json"),
        "top_retrieve": 12,
        "top_rerank": 6,
        "provider": {"kind": "hash", "dim": 128, "seed": 7},
        "recognizer": {"delta_ltod": 4.5, "s_l": 0.04, "s_n": 1.0,
                       "k_neighbors": 2},
        "llm": {"kind": "mock", "script_path": str(paths["script"])},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    base = ["--config", str(config_path)]
    qa = ["--qa", str(paths["qa"])]
    for argv in (
            ["index", "--out", config["index_path"]],
            ["annotate", *qa, "--out", str(tmp_path / "pairs.json"),
             "--per-question-k", "12"],
            ["train-scorer", "--pairs", str(tmp_path / "pairs.json"),
             "--out", config["scorer_path"], "--learning-rate", "0.2",
             "--epochs", "8"],
            ["build-nn-ref", *qa, "--out", config["nn_ref_path"]],
            ["build-detector-data", *qa, "--out",
             str(tmp_path / "detdata.json"), "--samples", "120"],
            ["train-detector", "--data", str(tmp_path / "detdata.json"),
             "--out", config["detector_path"], "--learning-rate", "0.25",
             "--epochs", "60"],
            ["eval", *qa, "--compare-ablations", "no_reducer,no_recognizer",
             "--out", str(tmp_path / "report.json")]):
        assert main([argv[0], *base, *argv[1:]]) == 0, argv[0]
    assert [sha256(tmp_path / name) for name in ("detdata.json",
                                                  "report.json")] == [
        DETECTOR_DATA_SHA256, REPORT_SHA256]
