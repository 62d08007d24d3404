import json
from pathlib import Path

import pytest

from synthetic import write_redundant_fixture

import leanrag.pipeline
from leanrag.cli import main
from leanrag.recognizer import NnReferenceSet
from leanrag.reducer import load_detector_dataset


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Full artifact lifecycle driven through the CLI."""
    root = tmp_path_factory.mktemp("cli")
    paths = write_redundant_fixture(root)
    config = {
        "seed": 3,
        "corpus_path": str(paths["corpus"]),
        "index_path": str(root / "index.json"),
        "scorer_path": str(root / "scorer.json"),
        "detector_path": str(root / "detector.json"),
        "nn_ref_path": str(root / "nnref.jsonl"),
        "top_retrieve": 10,
        "top_rerank": 10,
        "provider": {"kind": "hash", "dim": 128, "seed": 11},
        "recognizer": {"delta_ltod": 4.5, "s_l": 0.04, "s_n": 1.0,
                       "k_neighbors": 2},
        "llm": {"kind": "mock", "script_path": str(paths["script"])},
    }
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config))
    base = ["--config", str(config_path)]

    assert main(["index", *base, "--out", str(root / "index.json")]) == 0
    assert main(["annotate", *base, "--qa", str(paths["qa"]),
                 "--out", str(root / "pairs.jsonl"),
                 "--per-question-k", "10"]) == 0
    assert main(["train-scorer", *base, "--pairs", str(root / "pairs.jsonl"),
                 "--out", str(root / "scorer.json"),
                 "--learning-rate", "0.2", "--epochs", "8",
                 "--hyper-step-size", "0"]) == 0
    assert main(["build-nn-ref", *base, "--qa", str(paths["qa"]),
                 "--out", str(root / "nnref.jsonl")]) == 0
    assert main(["build-detector-data", *base, "--qa", str(paths["qa"]),
                 "--out", str(root / "detdata.jsonl"),
                 "--samples", "150"]) == 0
    return root, config_path, paths


def test_artifacts_written(workspace):
    root, _, _ = workspace
    for name in ("index.json", "pairs.jsonl", "scorer.json", "nnref.jsonl",
                 "detdata.jsonl"):
        assert (root / name).exists(), name


def test_detector_training_or_dataset_single_class(workspace):
    root, config_path, _ = workspace
    dataset = load_detector_dataset(root / "detdata.jsonl")
    assert dataset
    labels = {ex.label for ex in dataset}
    code = main(["train-detector", "--config", str(config_path),
                 "--data", str(root / "detdata.jsonl"),
                 "--out", str(root / "detector.json"),
                 "--learning-rate", "0.25", "--epochs", "200"])
    if labels == {0, 1}:
        assert code == 0
        assert (root / "detector.json").exists()
    else:  # single-class data refuses cleanly
        assert code == 1


@pytest.fixture(scope="module")
def ready(workspace):
    """Ensure a detector exists (train on a crafted two-class set if the
    pipeline-made dataset is single-class)."""
    root, config_path, paths = workspace
    if not (root / "detector.json").exists():
        import numpy as np

        from leanrag.reducer import (DetectorExample, DetectorTrainConfig,
                                     train_detector)

        rng = np.random.default_rng(0)
        examples = []
        for i in range(160):
            features = np.zeros(20)
            size = int(rng.integers(1, 11))
            for j in range(size):
                features[2 * j] = rng.random()
                features[2 * j + 1] = rng.random()
            examples.append(DetectorExample(
                f"q{i}", (f"s{i}",), features, int(features[0] > 0.5),
                float(features[0]), float(features[1])))
        model = train_detector(examples, DetectorTrainConfig(
            learning_rate=0.3, epochs=200, seed=1))
        model.save(root / "detector.json")
    return root, config_path, paths


def test_query_prints_trace(ready, capsys):
    root, config_path, _ = ready
    code = main(["query", "--config", str(config_path),
                 "What is the secret attribute of zorblat1x?"])
    assert code == 0
    trace = json.loads(capsys.readouterr().out)
    assert trace["verdict"]["decision"] == "Retrieve"
    assert trace["combination"] is not None
    assert trace["prompt_tokens"] > 0


def test_detector_data_probe_uses_configured_template(workspace, tmp_path,
                                                      monkeypatch):
    root, config_path, paths = workspace
    config = json.loads(config_path.read_text())
    config["templates"] = {"no_retrieve": {"instruction": "Answer from memory."}}
    custom = tmp_path / "config.json"
    custom.write_text(json.dumps(config))
    clients = []
    build = leanrag.pipeline.build_llm_client
    monkeypatch.setattr(leanrag.pipeline, "build_llm_client",
                        lambda spec: clients.append(build(spec)) or clients[-1])
    assert main(["build-detector-data", "--config", str(custom),
                 "--qa", str(paths["qa"]), "--out", str(tmp_path / "d"),
                 "--samples", "5"]) == 0
    bare = [prompt for prompt, _ in clients[0].transcript
            if "Passages:" not in prompt]
    assert len(bare) == 4  # one probe per question
    assert all(p.startswith("Answer from memory.\n") for p in bare)


def test_eval_report_and_reuse_of_saved_index(ready, capsys):
    root, config_path, paths = ready
    out = root / "report.json"
    code = main(["eval", "--config", str(config_path),
                 "--qa", str(paths["qa"]), "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["accuracy"] == 1.0
    assert report["n_questions"] == 4

    # byte-identical on a rerun with the same seed/config/script
    again = root / "report2.json"
    assert main(["eval", "--config", str(config_path),
                 "--qa", str(paths["qa"]), "--out", str(again)]) == 0
    assert out.read_bytes() == again.read_bytes()


def test_cli_report_matches_in_memory_run(ready):
    # the saved-index route must reproduce what an in-memory context computes
    from leanrag.corpus import load_qa
    from leanrag.pipeline import PipelineConfig, evaluate, load_pipeline

    root, config_path, paths = ready
    config = PipelineConfig.from_file(config_path)
    ctx = load_pipeline(config, require=("corpus", "index", "scorer",
                                         "detector", "nn_ref", "llm"))
    report = evaluate(load_qa(paths["qa"]), ctx)
    cli_report = json.loads((root / "report.json").read_text())
    assert json.loads(report.to_json()) == cli_report


def test_eval_ablation_flag(ready):
    root, config_path, paths = ready
    out = root / "report_noreducer.json"
    code = main(["eval", "--config", str(config_path),
                 "--qa", str(paths["qa"]), "--ablation", "no_reducer",
                 "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["ablations"] == ["no_reducer"]
    base = json.loads((root / "report.json").read_text())
    assert report["mean_prompt_tokens"] >= base["mean_prompt_tokens"]


def test_eval_empty_qa_is_usage_error(ready, tmp_path):
    root, config_path, _ = ready
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["eval", "--config", str(config_path),
                 "--qa", str(empty)]) == 2


def test_bad_flags_exit_two(ready):
    _, config_path, _ = ready
    with pytest.raises(SystemExit) as excinfo:
        main(["eval", "--config", str(config_path), "--bogus-flag"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("argv", [
    ["index", "--out", "index.json", "--template", "simple"],
    ["index", "--out", "index.json", "--seed", "1"],
    ["annotate", "--qa", "qa.jsonl", "--out", "pairs.jsonl", "--seed", "1"],
    ["train-scorer", "--pairs", "p", "--out", "s", "--template", "simple"],
    ["build-nn-ref", "--qa", "qa.jsonl", "--out", "n", "--seed", "1"],
    ["build-nn-ref", "--qa", "qa.jsonl", "--out", "n", "--template", "simple"],
    ["train-detector", "--data", "d", "--out", "m", "--template", "simple"],
    ["query", "--seed", "1", "What is the secret attribute of zorblat1x?"],
])
def test_flag_the_command_does_not_read_exits_two(ready, tmp_path,
                                                  monkeypatch, argv):
    _, config_path, _ = ready
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        main([argv[0], "--config", str(config_path), *argv[1:]])
    assert excinfo.value.code == 2
    assert list(tmp_path.iterdir()) == []


def test_train_scorer_with_no_epochs_writes_nothing(workspace, tmp_path,
                                                    capsys):
    root, config_path, _ = workspace
    out = tmp_path / "scorer.json"
    assert main(["train-scorer", "--config", str(config_path),
                 "--pairs", str(root / "pairs.jsonl"), "--out", str(out),
                 "--epochs", "0"]) == 1
    assert "epochs must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_runtime_error_exits_one(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"corpus_path": str(tmp_path / "missing.jsonl")}))
    assert main(["index", "--config", str(config),
                 "--out", str(tmp_path / "index.json")]) == 1


def test_missing_command_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def test_build_nn_ref_needs_no_corpus(tmp_path):
    paths = write_redundant_fixture(tmp_path)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(
        {"llm": {"kind": "mock", "script_path": str(paths["script"])}}))
    out = tmp_path / "nnref.jsonl"
    assert main(["build-nn-ref", "--config", str(config_path),
                 "--qa", str(paths["qa"]), "--out", str(out)]) == 0
    assert len(NnReferenceSet.load(out)) > 0


def test_rebuild_over_artifacts_of_another_provider(tmp_path, capsys):
    """After a provider change, or over files of the version-1 layout, the
    set-up commands rebuild over the old files; only a command that needs a
    stale artifact refuses it."""
    paths = write_redundant_fixture(tmp_path)
    config = {
        "seed": 3,
        "corpus_path": str(paths["corpus"]),
        "index_path": str(tmp_path / "index.json"),
        "scorer_path": str(tmp_path / "scorer.json"),
        "nn_ref_path": str(tmp_path / "nnref.jsonl"),
        "top_retrieve": 10,
        "provider": {"kind": "hash", "dim": 128, "seed": 11},
        "llm": {"kind": "mock", "script_path": str(paths["script"])},
    }
    config_path = tmp_path / "config.json"
    base = ["--config", str(config_path)]
    qa = ["--qa", str(paths["qa"])]
    detector_data = ["build-detector-data", *base, *qa,
                     "--out", str(tmp_path / "detdata.jsonl"),
                     "--samples", "20"]

    def build_all():
        config_path.write_text(json.dumps(config))
        assert main(["index", *base, "--out", config["index_path"]]) == 0
        assert main(["annotate", *base, *qa,
                     "--out", str(tmp_path / "pairs.jsonl"),
                     "--per-question-k", "10"]) == 0
        assert main(["build-nn-ref", *base, *qa,
                     "--out", config["nn_ref_path"]]) == 0
        assert main(["train-scorer", *base,
                     "--pairs", str(tmp_path / "pairs.jsonl"),
                     "--out", config["scorer_path"], "--epochs", "2"]) == 0
        assert main(detector_data) == 0

    version_1 = {
        "index_path": {"format": "leanrag-index", "version": 1},
        "scorer_path": {"format": "leanrag-scorer", "version": 1},
        "nn_ref_path": {"_meta": {"format": "leanrag-nnref", "version": 1}}}
    for name, header in version_1.items():
        Path(config[name]).write_text(json.dumps(header) + "\n")
    config_path.write_text(json.dumps(config))
    assert main(["index", *base, "--out", config["index_path"]]) == 0
    capsys.readouterr()
    assert main(detector_data) == 1  # needs the scorer, still version 1
    assert "leanrag-scorer version 1" in capsys.readouterr().err
    build_all()
    config["provider"]["seed"] = 12
    config_path.write_text(json.dumps(config))
    assert main(["index", *base, "--out", config["index_path"]]) == 0
    assert main(detector_data) == 1  # needs the scorer, still the old one
    build_all()
