"""Every saved artifact kind: header checks, payload checks, exact round
trips and deterministic bytes."""

import io
import json
import re

import numpy as np
import pytest
from synthetic import dense_reference, redundant_corpus

from leanrag import artifacts
from leanrag.artifacts import IndexIntegrityError
from leanrag.corpus import Corpus, make_document
from leanrag.llm import ScriptedLlmClient
from leanrag.mlp import Mlp
from leanrag.recognizer import NnReferenceSet, build_nn_reference
from leanrag.reducer import (DetectorExample, DetectorModel,
                             load_detector_dataset, save_detector_dataset)
from leanrag.retrieval import HashingEmbedder, VectorIndex, build_index
from leanrag.scorer import BiLabel, LabeledPair, ScorerModel, TrainingSet

def index():
    corpus = Corpus([make_document("b", "", "dogs bark at night"),
                     make_document("a", "Cats", "cats purr"),
                     make_document("c", "", "birds sing at dawn")])
    # as if read from a file, so the index records a digest and offsets
    corpus.sha256 = "0" * 64
    corpus.offsets = {"b": 0, "a": 50, "c": 90}
    return build_index(corpus, HashingEmbedder(dim=16, seed=1))


def scorer():
    return ScorerModel(head=Mlp([16, 4, 2], seed=3), balance_weight=0.3125,
                       seed=7, provider_fingerprint="hash-bow:v1:dim=8:seed=1")


def detector():
    return DetectorModel(Mlp([6, 4, 2, 1], seed=5), max_docs=3, seed=5,
                         threshold=0.4)


def nn_reference():
    rng = np.random.default_rng(0)
    return dense_reference([f"q{i}" for i in range(5)],
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


def same_rows(a, b):
    """Equal ``SparseRows``: the same width, and every array of the same
    dtype and bytes."""
    return a.dim == b.dim and all(
        x.dtype == y.dtype and x.tobytes() == y.tobytes()
        for x, y in zip(a.arrays().values(), b.arrays().values()))


def same_index(a, b):
    return (a.doc_ids == b.doc_ids and same_rows(a.rows, b.rows)
            and all(x.dtype == y.dtype and x.tobytes() == y.tobytes()
                    for x, y in ((a.docrows, b.docrows),
                                 (a.line_offsets, b.line_offsets)))
            and (a.corpus_sha256, a.provider_fingerprint)
            == (b.corpus_sha256, b.provider_fingerprint))


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
    return (same_rows(a.rows, b.rows)
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
    """Version 1, version 3 and no version are refused; for a format now
    at version 3 (the index and the NN reference), the 3 case writes its
    previous version, 2."""
    _, path = saved
    current = json.loads(path.read_bytes().split(b"\n", 1)[0])["version"]
    rewrite_header(path, version=2 if version == current else version)
    with pytest.raises(IndexIntegrityError,
                       match=r" version \S+, expected \d; rebuild it$"):
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


@pytest.mark.parametrize("arrays", [5, [["params"]], "params"])
def test_bad_arrays_field_rejected(kind, saved, arrays):
    """The header's list of array names is checked before the payload is
    read, so a bad one is named, not a ``TypeError``."""
    _, path = saved
    rewrite_header(path, arrays=arrays)
    with pytest.raises(IndexIntegrityError, match=re.escape(
            f"{path}: header field 'arrays' must be a list of strings")):
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


@pytest.mark.parametrize("float_kind",
                         sorted(set(KINDS) - {"index", "nn_reference"}))
def test_float_only_kinds_write_float64(float_kind, tmp_path):
    """Every kind but the index and the NN reference holds only float
    arrays, so its file is byte for byte what it was before integer arrays
    kept their dtype."""
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


@pytest.mark.parametrize("rows_kind", ["index", "nn_reference"])
def test_stored_rows_keep_their_dtypes(rows_kind, tmp_path):
    """The index and the NN reference keep their rows as entries: int64
    counts, int32 column ids and float64 values. The index adds its
    documents' int32 text and first window rows (``docrows``), and their
    int64 line offsets in the corpus file."""
    make, save, _, _ = KINDS[rows_kind]
    path = tmp_path / rows_kind
    save(make(), str(path))
    header, payload = path.read_bytes().split(b"\n", 1)
    meta, arrays = artifacts.load(
        path, json.loads(header)["format"].removeprefix("leanrag-"))
    extra = {"docrows": np.int32, "line_offsets": np.int64} \
        if rows_kind == "index" else {}
    assert meta["arrays"] == ["counts", "columns", "values", *extra]
    assert [a.dtype for a in arrays.values()] == \
        [np.int64, np.int32, np.float64, *extra.values()]


def test_stored_rows_smaller_than_dense(tmp_path):
    """On a small corpus, each file is smaller than its rows would be as a
    dense float64 matrix."""
    corpus, qa, _ = redundant_corpus()
    provider = HashingEmbedder(dim=256, seed=0)
    index = build_index(corpus, provider)
    reference = build_nn_reference(
        qa, ScriptedLlmClient(default_answer="x"), provider)
    for obj, n in ((index, len(index.rows)), (reference, len(reference))):
        path = tmp_path / type(obj).__name__
        obj.save(path)
        assert n >= 4
        assert path.stat().st_size < 8 * n * provider.dim


def npy(array: np.ndarray, **options) -> bytes:
    """``array`` as ``np.save`` writes it, or as numpy's ``write_array``
    does with ``options``."""
    buffer = io.BytesIO()
    np.lib.format.write_array(buffer, array, **options)
    return buffer.getvalue()


def write_one_array(path, payload: bytes) -> None:
    """A ``mixed`` file whose header names one array, 'x', with
    ``payload`` after it."""
    artifacts.save(path, "mixed", {}, {})
    header = path.read_bytes().rstrip(b"\n")
    path.write_bytes(header.replace(b'"arrays": []', b'"arrays": ["x"]')
                     + b"\n" + payload)


@pytest.mark.parametrize("bad", [np.array(["a", "b"]),
                                 np.array([1.5, 2.5], dtype=np.float32),
                                 np.array([1, 2], dtype=np.int16)])
def test_dtype_never_saved_rejected(tmp_path, bad):
    path = tmp_path / "bad"
    write_one_array(path, npy(bad))
    with pytest.raises(IndexIntegrityError, match=re.escape(
            f"{path}: array 'x' has dtype {bad.dtype.str}")):
        artifacts.load(path, "mixed")


def test_object_array_rejected(tmp_path):
    path = tmp_path / "bad"
    write_one_array(path, npy(np.array([{"a": 1}, None], dtype=object)))
    with pytest.raises(IndexIntegrityError):
        artifacts.load(path, "mixed")


def npy_header(shape: tuple) -> bytes:
    """The .npy 1.0 header np.save writes for a float64 array of
    ``shape``."""
    buffer = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        buffer, {"descr": "<f8", "fortran_order": False, "shape": shape})
    return buffer.getvalue()


THREE = npy(np.arange(3.0))
# .npy payloads load refuses: what save never writes (np.load reads these),
# or a header or data that runs past the end of the file
NEVER_SAVED = {
    "fortran order": npy(np.asfortranarray(np.arange(6.0).reshape(2, 3))),
    "npy 2.0": npy(np.arange(3.0), version=(2, 0)),
    "other byte order": npy(np.arange(3.0).astype(">f8")),
    "header past the end": THREE[:8] + len(THREE).to_bytes(2, "little")
    + THREE[10:],
    "shape past the end": npy_header((4,)) + np.arange(3.0).tobytes(),
    # refused before any allocation of its 8 PiB
    "shape past memory": npy_header((2 ** 50,)) + np.arange(3.0).tobytes(),
}


@pytest.mark.parametrize("payload", NEVER_SAVED.values(), ids=NEVER_SAVED)
def test_npy_save_never_writes_rejected(tmp_path, payload):
    """Each is refused, naming the file and the array."""
    path = tmp_path / "bad"
    write_one_array(path, payload)
    with pytest.raises(IndexIntegrityError,
                       match=re.escape(f"{path}: array 'x' ")):
        artifacts.load(path, "mixed")


def owns_its_bytes(array: np.ndarray) -> bool:
    """Whether ``array`` owns its memory, or is a view of all of an array
    that does (as numpy 2's ``np.load`` reshapes what it reads)."""
    base = array if array.base is None else array.base
    return base.flags.owndata and base.nbytes == array.nbytes


def test_arrays_load_as_np_load_reads_them(kind, saved):
    """Each array has the dtype, shape and bytes ``np.load`` gives, and is
    as ``np.load``'s: C-ordered, aligned, writeable and the only user of
    its memory. It owns its data, so no view keeps another array alive."""
    _, path = saved
    with open(path, "rb") as handle:
        fields = json.loads(handle.readline())
        expected = [np.load(handle) for _ in fields["arrays"]]
    _, arrays = artifacts.load(path,
                               fields["format"].removeprefix("leanrag-"))
    assert len(arrays) == len(expected) > 0
    for array, want in zip(arrays.values(), expected):
        assert (array.dtype, array.shape, array.tobytes()) == \
            (want.dtype, want.shape, want.tobytes())
        for flag in ("C_CONTIGUOUS", "ALIGNED", "WRITEABLE"):
            assert array.flags[flag] == want.flags[flag] is True
        assert array.flags.owndata and owns_its_bytes(want)


# (kind, header field, value of the wrong type or out of range)
BAD_FIELDS = [
    ("scorer", "layer_sizes", 5),
    ("scorer", "layer_sizes", [16, 4, 3]),
    ("scorer", "layer_sizes", [15, 4, 2]),
    ("scorer", "layer_sizes", [16, 0, 2]),
    ("scorer", "balance_weight", "0.5"),
    ("scorer", "balance_weight", 1.5),
    ("scorer", "seed", -1),
    ("scorer", "seed", True),
    ("scorer", "provider_fingerprint", 7),
    ("detector", "threshold", "x"),
    ("detector", "threshold", None),
    ("detector", "layer_sizes", [6, 4, 2]),
    ("detector", "max_docs", 0),
    ("detector", "max_docs", 2.0),
    ("detector", "seed", 1.5),
    ("nn_reference", "correct", 3),
    ("nn_reference", "correct", [1, 0, 1, 0, 1]),
    ("nn_reference", "question_ids", [0, 1, 2, 3, 4]),
    ("nn_reference", "provider_fingerprint", ["fp"]),
    ("training_set", "question_ids", 5),
    ("training_set", "doc_ids", ["d0", "d1", 2]),
    ("training_set", "has_answer", [1, 0, 7]),
    ("training_set", "llm_prefer", [True, True, False]),
    ("detector_data", "question_ids", 5),
    ("detector_data", "member_subdoc_ids", [["s0"], ["s0", 1], ["s0"]]),
    ("detector_data", "labels", [0, 7, 0]),
    # each of these loaded: "012" as the ids '0', '1' and '2'
    ("index", "doc_ids", "012"),
    ("index", "doc_ids", [0, 1, 2]),
    ("index", "doc_ids", [["0"], ["1"], ["2"]]),
    ("index", "provider_fingerprint", 5),
    ("index", "corpus_sha256", 5),
]


@pytest.mark.parametrize("kind, name, value", BAD_FIELDS)
def test_bad_header_field_rejected(kind, name, value, tmp_path):
    make, save, load_kind, _ = KINDS[kind]
    path = tmp_path / kind
    save(make(), path)
    rewrite_header(path, **{name: value})
    with pytest.raises(IndexIntegrityError,
                       match=re.escape(f"{path}: header field '{name}'")):
        load_kind(path)


@pytest.mark.parametrize("kind, name", [
    ("training_set", "question_ids"), ("training_set", "doc_ids"),
    ("training_set", "has_answer"), ("training_set", "llm_prefer"),
    ("detector_data", "question_ids"), ("detector_data", "member_subdoc_ids"),
    ("detector_data", "labels")])
def test_header_list_one_short_rejected(kind, name, tmp_path):
    """A list one entry shorter than the others fails the load, naming the
    file (given by position or by name), where pairing rows through a
    plain zip loaded the file short."""
    make, save, load_kind, _ = KINDS[kind]
    path = tmp_path / kind
    save(make(), path)
    fields = json.loads(path.read_bytes().split(b"\n", 1)[0])
    rewrite_header(path, **{name: fields[name][:-1]})
    with pytest.raises(IndexIntegrityError, match=re.escape(f"{path}: ")):
        load_kind(path)
    with pytest.raises(IndexIntegrityError, match=re.escape(f"{path}: ")):
        load_kind(path=path)


@pytest.mark.parametrize("kind", ["scorer", "detector"])
def test_params_of_another_size_rejected(kind, tmp_path):
    make, save, load_kind, _ = KINDS[kind]
    path = tmp_path / kind
    obj = make()
    net = obj.head if kind == "scorer" else obj.net
    net.layer_sizes = (net.layer_sizes[0], 3, *net.layer_sizes[2:])
    save(obj, path)
    with pytest.raises(IndexIntegrityError, match=re.escape(str(path))):
        load_kind(path)


def net_of(obj) -> Mlp:
    return obj.head if isinstance(obj, ScorerModel) else obj.net


@pytest.mark.parametrize("kind", ["scorer", "detector"])
def test_nets_load_their_saved_params_without_drawing(kind, tmp_path,
                                                      monkeypatch):
    make, save, load_kind, _ = KINDS[kind]
    path = tmp_path / kind
    obj = make()
    save(obj, path)

    def no_rng(*args, **kwargs):
        raise AssertionError("a load drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    loaded = net_of(load_kind(path))
    assert loaded.get_params().tobytes() == net_of(obj).get_params().tobytes()
    assert loaded.layer_sizes == net_of(obj).layer_sizes


@pytest.mark.parametrize("kind", ["scorer", "detector"])
@pytest.mark.parametrize("change", [-1, 1])
def test_params_of_another_length_rejected(kind, change, tmp_path):
    make, save, load_kind, _ = KINDS[kind]
    path = tmp_path / kind
    obj = make()
    net = net_of(obj)
    params = net.get_params()
    wrong = np.resize(params, len(params) + change)
    net.get_params = lambda: wrong
    save(obj, path)
    with pytest.raises(IndexIntegrityError, match=re.escape(
            f"{path}: expected {params.shape}, got {wrong.shape}")):
        load_kind(path)


def test_detector_of_another_input_width_rejected(tmp_path):
    path = tmp_path / "detector"
    DetectorModel.save(detector(), path)
    rewrite_header(path, max_docs=4)
    with pytest.raises(IndexIntegrityError, match=re.escape(str(path))):
        DetectorModel.load(path)
