"""Every saved artifact kind: header checks, payload checks, exact round
trips and deterministic bytes."""

import json
import re

import numpy as np
import pytest

from leanrag import artifacts
from leanrag.artifacts import IndexIntegrityError
from leanrag.corpus import Corpus, make_document
from leanrag.mlp import Mlp
from leanrag.recognizer import NnReferenceSet
from leanrag.reducer import (DetectorExample, DetectorModel,
                             load_detector_dataset, save_detector_dataset)
from leanrag.retrieval import HashingEmbedder, VectorIndex, build_index
from leanrag.scorer import BiLabel, LabeledPair, ScorerModel, TrainingSet

def index():
    corpus = Corpus([make_document("b", "", "dogs bark at night"),
                     make_document("a", "Cats", "cats purr"),
                     make_document("c", "", "birds sing at dawn")])
    return build_index(corpus, HashingEmbedder(dim=16, seed=1))


def scorer():
    return ScorerModel(head=Mlp([16, 4, 2], seed=3), balance_weight=0.3125,
                       seed=7, provider_fingerprint="hash-bow:v1:dim=8:seed=1")


def detector():
    return DetectorModel(max_docs=3, hidden_sizes=(4, 2), seed=5,
                         threshold=0.4)


def nn_reference():
    rng = np.random.default_rng(0)
    return NnReferenceSet([f"q{i}" for i in range(5)],
                          rng.standard_normal((5, 8)),
                          [i % 2 == 0 for i in range(5)],
                          "hash-bow:v1:dim=8:seed=1")


def training_set():
    rng = np.random.default_rng(1)
    labels = [BiLabel(1, 1), BiLabel(0, 1), BiLabel(0, 0)]
    return TrainingSet([LabeledPair(f"q{i}", f"d{i}", rng.standard_normal(6),
                                    label, label.matched)
                        for i, label in enumerate(labels)])


def detector_data():
    rng = np.random.default_rng(2)
    return [DetectorExample(f"q{i}", tuple(f"s{j}" for j in range(i + 1)),
                            rng.random(6), i % 2, *rng.random(2))
            for i in range(3)]


def same_index(a, b):
    return (a.doc_ids == b.doc_ids and np.array_equal(a.vectors, b.vectors)
            and a.provider_fingerprint == b.provider_fingerprint)


def same_scorer(a, b):
    return (np.array_equal(a.head.get_params(), b.head.get_params())
            and a.head.layer_sizes == b.head.layer_sizes
            and (a.balance_weight, a.seed, a.provider_fingerprint)
            == (b.balance_weight, b.seed, b.provider_fingerprint))


def same_detector(a, b):
    return (np.array_equal(a.net.get_params(), b.net.get_params())
            and a.net.layer_sizes == b.net.layer_sizes
            and (a.max_docs, a.threshold, a.seed)
            == (b.max_docs, b.threshold, b.seed))


def same_nn_reference(a, b):
    return (np.array_equal(a.embeddings, b.embeddings)
            and a.question_ids == b.question_ids
            and a.correct.tolist() == b.correct.tolist()
            and a.provider_fingerprint == b.provider_fingerprint)


def same_training_set(a, b):
    return len(a.pairs) == len(b.pairs) and all(
        (p.question_id, p.doc_id, p.label) == (q.question_id, q.doc_id, q.label)
        and np.array_equal(p.features, q.features)
        for p, q in zip(a.pairs, b.pairs))


def same_detector_data(a, b):
    return len(a) == len(b) and all(
        (x.question_id, x.member_ids, x.label, x.mean_ans, x.mean_pref)
        == (y.question_id, y.member_ids, y.label, y.mean_ans, y.mean_pref)
        and np.array_equal(x.features, y.features)
        for x, y in zip(a, b))


# one file of each kind in the version-1 layout
V1 = {
    "index": {"format": "leanrag-index", "version": 1, "dim": 2,
              "provider_fingerprint": "fp",
              "entries": [{"doc_id": "a", "vector": [1.0, 0.0]}]},
    "scorer": {"format": "leanrag-scorer", "version": 1,
               "architecture": {"layer_sizes": [2, 2]},
               "params": [0.0] * 6, "balance_weight": 0.5,
               "provider_fingerprint": "fp", "seed": 0},
    "detector": {"format": "leanrag-detector", "version": 1,
                 "architecture": {"layer_sizes": [2, 1]},
                 "parameters": [0.0] * 3, "max_docs": 1, "threshold": 0.5,
                 "seed": 0},
    "nn_reference": {"_meta": {"format": "leanrag-nnref", "version": 1,
                               "provider_fingerprint": "fp"}},
    "training_set": {"question_id": "q0", "doc_id": "d0",
                     "features": [0.0, 1.0], "has_answer": 1,
                     "llm_prefer": 0},
    "detector_data": {"question_id": "q0", "member_subdoc_ids": ["s0"],
                      "features": [0.5, 0.5], "label": 1},
}

KINDS = {
    "index": (index, VectorIndex.save, VectorIndex.load, same_index),
    "scorer": (scorer, ScorerModel.save, ScorerModel.load, same_scorer),
    "detector": (detector, DetectorModel.save, DetectorModel.load,
                 same_detector),
    "nn_reference": (nn_reference, NnReferenceSet.save, NnReferenceSet.load,
                     same_nn_reference),
    "training_set": (training_set, TrainingSet.save, TrainingSet.load,
                     same_training_set),
    "detector_data": (detector_data,
                      lambda data, path: save_detector_dataset(data, path),
                      load_detector_dataset, same_detector_data),
}


@pytest.fixture(params=sorted(KINDS))
def kind(request):
    return request.param


@pytest.fixture
def saved(kind, tmp_path):
    make, save, _, _ = KINDS[kind]
    obj = make()
    path = tmp_path / kind
    save(obj, str(path))
    return obj, path


def load(kind, path):
    return KINDS[kind][2](path)


def rewrite_header(path, **changes):
    header, payload = path.read_bytes().split(b"\n", 1)
    fields = {**json.loads(header), **changes}
    path.write_bytes(json.dumps(fields).encode() + b"\n" + payload)


def test_round_trip_is_exact(kind, saved):
    obj, path = saved
    assert KINDS[kind][3](obj, load(kind, path))


def test_same_object_same_bytes_at_exactly_the_path(kind, saved, tmp_path):
    obj, path = saved
    again = tmp_path / "again"
    KINDS[kind][1](obj, again)
    assert path.read_bytes() == again.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["again", kind]


def test_wrong_format_rejected(kind, saved):
    _, path = saved
    rewrite_header(path, format="leanrag-other")
    with pytest.raises(IndexIntegrityError, match="not a leanrag-"):
        load(kind, path)


@pytest.mark.parametrize("version", [1, 3, None])
def test_wrong_version_rejected(kind, saved, version):
    _, path = saved
    rewrite_header(path, version=version)
    with pytest.raises(IndexIntegrityError, match="version"):
        load(kind, path)


def test_missing_header_field_rejected(kind, saved):
    _, path = saved
    header, payload = path.read_bytes().split(b"\n", 1)
    fields = json.loads(header)
    for name in fields:
        rest = {key: value for key, value in fields.items() if key != name}
        path.write_bytes(json.dumps(rest).encode() + b"\n" + payload)
        # format, version and arrays have messages of their own
        match = (None if name in ("format", "version", "arrays")
                 else re.escape(f"{path}: no header field '{name}'"))
        with pytest.raises(IndexIntegrityError, match=match):
            load(kind, path)


def test_renamed_array_rejected(kind, saved):
    _, path = saved
    names = json.loads(path.read_bytes().split(b"\n", 1)[0])["arrays"]
    rewrite_header(path, arrays=["renamed", *names[1:]])
    with pytest.raises(IndexIntegrityError, match="rebuild it"):
        load(kind, path)


def test_version_1_layout_rejected(kind, tmp_path):
    path = tmp_path / kind
    path.write_text(json.dumps(V1[kind]) + "\n")
    with pytest.raises(IndexIntegrityError):
        load(kind, path)


@pytest.mark.parametrize("drop", ["half", "last byte"])
def test_short_payload_rejected(kind, saved, drop):
    _, path = saved
    header, payload = path.read_bytes().split(b"\n", 1)
    keep = len(payload) // 2 if drop == "half" else len(payload) - 1
    path.write_bytes(header + b"\n" + payload[:keep])
    with pytest.raises(IndexIntegrityError):
        load(kind, path)


@pytest.mark.parametrize("damage", ["header", "array", "trailing"])
def test_corrupt_file_rejected(kind, saved, damage):
    _, path = saved
    header, payload = path.read_bytes().split(b"\n", 1)
    if damage == "header":
        data = header[:-1] + b"\n" + payload
    elif damage == "array":
        data = header + b"\n" + b"\x00" * 8 + payload[8:]
    else:
        data = header + b"\n" + payload + b"\x00"
    path.write_bytes(data)
    with pytest.raises(IndexIntegrityError):
        load(kind, path)


def test_integer_arrays_keep_their_dtype(tmp_path):
    arrays = {
        "i32": np.array([-(2 ** 31), 0, 2 ** 31 - 1], dtype=np.int32),
        "i64": np.array([-(2 ** 63), 2 ** 53 + 1, 2 ** 63 - 1],
                        dtype=np.int64),
        "u64": np.array([0, 2 ** 53 + 1, 2 ** 64 - 1], dtype=np.uint64),
        "floats": np.array([0.5, -0.0, 5e-324]),
        "bools": np.array([True, False]),
        "ints_as_list": [1, 2, 3],
    }
    path = tmp_path / "mixed"
    artifacts.save(path, "mixed", {}, arrays)
    _, loaded = artifacts.load(path, "mixed")
    for name in ("i32", "i64", "u64"):
        assert loaded[name].dtype == arrays[name].dtype
        assert loaded[name].tobytes() == arrays[name].tobytes()
    # every other array is written as float64, as before
    assert loaded["floats"].tobytes() == arrays["floats"].tobytes()
    assert loaded["bools"].tolist() == [1.0, 0.0]
    assert loaded["ints_as_list"].dtype == np.int64
    assert [a.dtype for a in (loaded["floats"], loaded["bools"])] == \
        [np.float64, np.float64]


@pytest.mark.parametrize("float_kind", sorted(set(KINDS) - {"index"}))
def test_float_only_kinds_write_float64(float_kind, tmp_path):
    """Every kind but the index holds only float arrays, so its file is
    byte for byte what it was before integer arrays kept their dtype."""
    make, save, _, _ = KINDS[float_kind]
    path = tmp_path / float_kind
    save(make(), str(path))
    header, payload = path.read_bytes().split(b"\n", 1)
    _, arrays = artifacts.load(
        path, json.loads(header)["format"].removeprefix("leanrag-"))
    again = tmp_path / "again"
    with open(again, "wb") as handle:
        for array in arrays.values():
            assert array.dtype == np.float64
            np.save(handle, array, allow_pickle=False)
    assert payload == again.read_bytes()


@pytest.mark.parametrize("bad", [np.array(["a", "b"]),
                                 np.array([1.5, 2.5], dtype=np.float32),
                                 np.array([1, 2], dtype=np.int16)])
def test_dtype_never_saved_rejected(tmp_path, bad):
    path = tmp_path / "bad"
    artifacts.save(path, "mixed", {}, {})
    header = path.read_bytes().rstrip(b"\n")
    with open(path, "wb") as handle:
        handle.write(header.replace(b'"arrays": []', b'"arrays": ["x"]')
                     + b"\n")
        np.save(handle, bad, allow_pickle=False)
    with pytest.raises(IndexIntegrityError, match="dtype"):
        artifacts.load(path, "mixed")


def test_object_array_rejected(tmp_path):
    path = tmp_path / "bad"
    artifacts.save(path, "mixed", {}, {})
    header = path.read_bytes().rstrip(b"\n")
    with open(path, "wb") as handle:
        handle.write(header.replace(b'"arrays": []', b'"arrays": ["x"]')
                     + b"\n")
        np.save(handle, np.array([{"a": 1}, None], dtype=object),
                allow_pickle=True)
    with pytest.raises(IndexIntegrityError):
        artifacts.load(path, "mixed")
