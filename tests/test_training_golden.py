"""Golden digests of trained models.

Training a scorer (balance weight learned by hypergradient, on the full
training split and on a seeded subsample) and a detector on fixed synthetic
data must give exactly these saved bytes and this epoch history. A change to
the training loop that moves one bit of one parameter, of the balance
weight or of a validation loss fails here.

The digests were taken with numpy 2 on OpenBLAS 0.3 (Haswell kernels);
another BLAS build or CPU family may round the matrix products
differently, and then the digests are taken anew at a commit whose
training is known to be unchanged.
"""

import hashlib
from dataclasses import astuple

import numpy as np

from synthetic import imbalanced_feature_pairs

import leanrag.scorer as scorer_module
from leanrag.reducer import (DetectorExample, DetectorTrainConfig,
                             train_detector)
from leanrag.scorer import TrainConfig, train_scorer
from leanrag.seeds import derive_rng


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def saved_digest(model, path) -> str:
    model.save(path)
    return sha256(path.read_bytes())


def scorer_run(tmp_path):
    # 360 pairs: a 324-pair training split, so the last batch of 16 is short
    pairs = imbalanced_feature_pairs(n_matched=300, n_mismatched=60, dim=16,
                                     seed=5, tag="golden")
    result = train_scorer(pairs, TrainConfig(
        learning_rate=0.05, hyper_step_size=1.0, epochs=6, batch_size=16,
        seed=2), hidden_sizes=(12, 6))
    history = repr([astuple(stats) for stats in result.history])
    return (saved_digest(result.model, tmp_path / "scorer.json"),
            sha256(history.encode()))


def detector_dataset(n=150):
    rng = derive_rng(4, "golden-detector")
    out = []
    for i in range(n):
        features = np.zeros(20)
        size = int(rng.integers(1, 11))
        features[:2 * size] = rng.random(2 * size)
        label = int(features[0] + features[1] > 1.0)
        out.append(DetectorExample(f"q{i}", (f"s{i}",), features, label,
                                   float(features[0]), float(features[1])))
    return out


def test_scorer_bytes_and_history(tmp_path):
    assert scorer_run(tmp_path) == (
        "fff074e6b15c5c5008956da0b8548d741708c82b26961a4d7a90ab0e9cbad8be",
        "3cda6f315d9bcbdde12186b7a46b7a139333013bd0ca295f48cce5eba27eb2be")


def test_scorer_on_a_subsampled_hypergradient(tmp_path, monkeypatch):
    monkeypatch.setattr(scorer_module, "FULL_GRAD_MAX", 100)
    assert scorer_run(tmp_path) == (
        "118a8690cf801386e0cdca6729442e00f0508a916fe5ea81314c8c790aba688e",
        "a587785c66bcf21323b7fa238f53d170cc157da51f9ec932f2a3a679ff91f73d")


def test_detector_bytes(tmp_path):
    # 135 training examples: four full batches of 32 and a short one
    model = train_detector(detector_dataset(), DetectorTrainConfig(
        learning_rate=0.3, epochs=25, seed=6))
    assert model.holdout_accuracy == 11 / 15
    assert saved_digest(model, tmp_path / "detector.json") == \
        "6d8adffe580d17352efcef1bbabd2b2255bd8cec55bcfbc27301010d2823b493"
