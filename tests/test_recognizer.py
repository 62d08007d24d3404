from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import leanrag.recognizer as recognizer_module
from leanrag import artifacts
from leanrag.artifacts import check_provider
from leanrag.corpus import QARecord, make_document
from leanrag.llm import ScriptedLlmClient
from leanrag.pipeline import PipelineConfig, load_pipeline
from leanrag.recognizer import (Decision, NnReferenceSet, RecognizerConfig,
                                build_nn_reference, decide, long_tail_score,
                                neighbor_score)
from leanrag.retrieval import HashingEmbedder, IndexIntegrityError, RetrievedDoc
from leanrag.scorer import BiLabelScore


def scored_docs(logits):
    docs = []
    for i, logit in enumerate(logits):
        doc = make_document(f"d{i}", "", "text.")
        prob = 1.0 / (1.0 + np.exp(-logit))
        docs.append((RetrievedDoc(doc=doc, similarity=0.5, rank=i + 1),
                     BiLabelScore(logit, 0.0, prob, 0.5)))
    return docs


class TestLongTailScore:
    def test_all_above(self):
        assert long_tail_score(scored_docs([5.0] * 100), 4.5) == 1.0

    def test_none_above(self):
        assert long_tail_score(scored_docs([0.0] * 100), 4.5) == 0.0

    def test_three_of_hundred(self):
        logits = [5.0] * 3 + [1.0] * 97
        assert long_tail_score(scored_docs(logits), 4.5) == 0.03

    def test_order_invariant(self):
        docs = scored_docs([5.0, 1.0, 6.0, -2.0, 4.6])
        assert long_tail_score(docs, 4.5) == long_tail_score(docs[::-1], 4.5)

    def test_strict_inequality_at_cutoff(self):
        assert long_tail_score(scored_docs([4.5]), 4.5) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            long_tail_score([], 4.5)


class Entry(NamedTuple):
    """One labeled reference question, for the per-entry oracles below."""

    question_id: str
    embedding: np.ndarray
    correct: bool


def make_reference(entries, fingerprint=None):
    return NnReferenceSet([e.question_id for e in entries],
                          np.array([e.embedding for e in entries]),
                          [e.correct for e in entries], fingerprint)


def reference_entries(labels, spread=1.0):
    entries = []
    for i, correct in enumerate(labels):
        offset = np.zeros(4)
        offset[0] = i * spread
        entries.append(Entry(f"q{i}", offset, bool(correct)))
    return entries


class TestNeighborScore:
    def test_all_neighbors_positive(self):
        ref = make_reference(reference_entries([1] * 10))
        assert neighbor_score(np.zeros(4), ref, 5) == 1.0

    def test_zero_distance_entry_included(self):
        ref = make_reference(reference_entries([0, 1, 0, 0, 0]))
        query = ref.embeddings[1]
        assert neighbor_score(query, ref, 1) == 1.0

    def test_two_cluster_oracle(self):
        # positive cluster near origin, negative cluster far away; verified
        # against an exhaustive distance sort
        rng = np.random.default_rng(3)
        entries = []
        for i in range(20):
            entries.append(Entry(f"pos{i}",
                                 rng.normal(0.0, 0.1, size=6), True))
        for i in range(20):
            entries.append(Entry(f"neg{i}",
                                 rng.normal(8.0, 0.1, size=6), False))
        ref = make_reference(entries)
        query = rng.normal(0.0, 0.1, size=6)
        assert neighbor_score(query, ref, 5) == 1.0
        ranked = sorted(entries,
                        key=lambda e: (float(np.linalg.norm(e.embedding - query)),
                                       e.question_id))
        expected = sum(e.correct for e in ranked[:5]) / 5
        assert neighbor_score(query, ref, 5) == expected

    def test_distance_ties_break_by_question_id(self):
        entries = [
            Entry("b", np.array([1.0, 0.0]), False),
            Entry("a", np.array([0.0, 1.0]), True),
        ]
        ref = make_reference(entries)
        # equidistant from the origin: "a" wins the single slot
        assert neighbor_score(np.zeros(2), ref, 1) == 1.0

    def test_distance_ties_across_k_boundary(self):
        # one entry nearest, then four equidistant entries listed out of id
        # order; the first k-1 of those by question id fill the top k
        entries = [Entry("z", np.array([0.5, 0.0]), False)]
        for qid, correct in (("q3", True), ("q1", False), ("q2", True),
                             ("q0", True)):
            entries.append(Entry(qid, np.array([0.0, 2.0]), correct))
        ref = make_reference(entries)
        query = np.zeros(2)
        assert neighbor_score(query, ref, 2) == 1 / 2  # z, q0
        assert neighbor_score(query, ref, 3) == 1 / 3  # z, q0, q1
        assert neighbor_score(query, ref, 4) == 2 / 4  # z, q0, q1, q2

    def test_integer_ties_match_full_sort(self):
        rng = np.random.default_rng(4)
        entries = [Entry(f"q{i}", rng.integers(-1, 2, size=3).astype(float),
                         bool(rng.integers(0, 2)))
                   for i in rng.permutation(60)]
        ref = make_reference(entries)
        for _ in range(10):
            query = rng.integers(-1, 2, size=3).astype(float)
            ranked = sorted(entries, key=lambda e: (
                float(np.linalg.norm(e.embedding - query)), e.question_id))
            for k in (1, 4, 9, 30):
                expected = sum(e.correct for e in ranked[:k]) / k
                assert neighbor_score(query, ref, k) == expected

    def test_shares_the_given_matrix(self):
        embeddings = np.arange(12, dtype=np.float64).reshape(3, 4)
        ref = NnReferenceSet(["q0", "q1", "q2"], embeddings,
                             [True, False, True])
        assert ref.embeddings.shape == (3, 4)
        assert np.shares_memory(ref.embeddings, embeddings)

    def test_lengths_must_agree(self):
        with pytest.raises(ValueError):
            NnReferenceSet(["q0"], np.ones((2, 4)), [True, False])

    def test_reference_smaller_than_k(self):
        ref = make_reference(reference_entries([1, 0]))
        with pytest.raises(ValueError):
            neighbor_score(np.zeros(4), ref, 3)

    def test_matches_full_scan_fraction(self):
        rng = np.random.default_rng(11)
        entries = [Entry(f"q{i}", rng.standard_normal(5),
                         bool(rng.integers(0, 2))) for i in range(200)]
        ref = make_reference(entries)
        query = rng.standard_normal(5)
        for k in (1, 7, 50):
            ranked = sorted(entries, key=lambda e: (
                float(np.linalg.norm(e.embedding - query)), e.question_id))
            expected = sum(e.correct for e in ranked[:k]) / k
            assert neighbor_score(query, ref, k) == expected


def oracle_scores(entries, query):
    """The fraction for every k in 1..n, from one exact sort of all
    entries."""
    ranked = sorted(entries, key=lambda e: (
        float(np.linalg.norm(e.embedding - query)), e.question_id))
    hits = np.cumsum([e.correct for e in ranked])
    return [int(hits[k - 1]) / k for k in range(1, len(entries) + 1)]


def assert_matches_oracle(entries, query):
    ref = make_reference(entries)
    for k, expected in enumerate(oracle_scores(entries, query), start=1):
        assert neighbor_score(query, ref, k) == expected


@st.composite
def labeled_case(draw, rows, query_elements):
    """Entries for ``rows`` under shuffled ids, with labels constant or
    drawn per row, and a query that is one of the rows or drawn afresh."""
    n, dim = rows.shape
    if draw(st.booleans()):
        labels = [draw(st.booleans())] * n
    else:
        labels = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    ids = draw(st.permutations(range(n)))
    if draw(st.booleans()):
        query = rows[draw(st.integers(0, n - 1))].copy()
    else:
        query = draw(hnp.arrays(np.float64, dim, elements=query_elements))
    entries = [Entry(f"q{i}", row, bool(c))
               for i, row, c in zip(ids, rows, labels)]
    return entries, query


GRID = st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0])
UNIT = st.floats(-1.0, 1.0, allow_nan=False, width=64)


@st.composite
def grid_cases(draw):
    shape = (draw(st.integers(1, 40)), draw(st.integers(1, 4)))
    rows = draw(hnp.arrays(np.float64, shape, elements=GRID))
    return draw(labeled_case(rows, GRID))


@st.composite
def duplicated_cases(draw):
    dim = draw(st.integers(1, 6))
    base = draw(hnp.arrays(np.float64, (draw(st.integers(1, 5)), dim),
                           elements=UNIT))
    picks = draw(st.lists(st.integers(0, len(base) - 1), min_size=1,
                          max_size=30))
    return draw(labeled_case(base[picks], UNIT))


@st.composite
def sparse_sign_cases(draw, dim=32):
    """Unit rows with a few +-1 entries, as the hashing embedder makes."""
    rows = []
    for _ in range(draw(st.integers(1, 30))):
        support = draw(st.sets(st.integers(0, dim - 1), min_size=1,
                               max_size=4))
        row = np.zeros(dim)
        for j in support:
            row[j] = draw(st.sampled_from([-1.0, 1.0]))
        rows.append(row / np.linalg.norm(row))
    return draw(labeled_case(np.array(rows), st.sampled_from([-0.5, 0.0, 0.5])))


@st.composite
def scaled_cases(draw):
    """Row norms spanning 1e-3 to 1e3."""
    shape = (draw(st.integers(1, 30)), draw(st.integers(1, 6)))
    rows = draw(hnp.arrays(np.float64, shape, elements=UNIT))
    scales = draw(hnp.arrays(np.float64, (shape[0], 1),
                             elements=st.floats(-3.0, 3.0)))
    return draw(labeled_case(rows * 10.0 ** scales,
                             st.floats(-1e3, 1e3, allow_nan=False)))


class TestNeighborScoreMatchesFullSort:
    """neighbor_score against an exact sort of every entry, for every k."""

    @given(grid_cases())
    @settings(deadline=None)
    def test_integer_grid(self, case):
        assert_matches_oracle(*case)

    @given(duplicated_cases())
    @settings(deadline=None)
    def test_duplicated_rows(self, case):
        assert_matches_oracle(*case)

    @given(sparse_sign_cases())
    @settings(deadline=None)
    def test_sparse_sign_rows(self, case):
        assert_matches_oracle(*case)

    @given(scaled_cases())
    @settings(deadline=None)
    def test_norms_across_six_decades(self, case):
        assert_matches_oracle(*case)

    def test_norms_too_large_for_the_margin(self):
        # squared distances overflow to inf and tie, so ids decide
        rng = np.random.default_rng(5)
        entries = [Entry(f"q{i}", rng.standard_normal(3) * 1e200,
                         bool(rng.integers(0, 2))) for i in range(12)]
        with np.errstate(over="ignore", invalid="ignore"):
            assert_matches_oracle(entries, rng.standard_normal(3) * 1e200)

    def measured(self, monkeypatch):
        calls = []
        exact = recognizer_module._exact_distances

        def spy(embeddings, query):
            calls.append(len(embeddings))
            return exact(embeddings, query)

        monkeypatch.setattr(recognizer_module, "_exact_distances", spy)
        return calls

    def test_label_uniform_tier_is_not_measured(self, monkeypatch):
        calls = self.measured(monkeypatch)
        # one nearest entry, then four tied entries of one label
        entries = [Entry("z", np.array([0.5, 0.0]), False)]
        for qid, row in (("q3", [2.0, 0.0]), ("q1", [0.0, 2.0]),
                         ("q2", [-2.0, 0.0]), ("q0", [0.0, -2.0])):
            entries.append(Entry(qid, np.array(row), True))
        assert_matches_oracle(entries, np.zeros(2))
        assert calls == []

    def test_mixed_tier_is_measured(self, monkeypatch):
        calls = self.measured(monkeypatch)
        entries = [Entry("z", np.array([0.5, 0.0]), False)]
        for qid, correct in (("q3", True), ("q1", False), ("q2", True),
                             ("q0", True)):
            entries.append(Entry(qid, np.array([0.0, 2.0]), correct))
        ref = make_reference(entries)
        assert neighbor_score(np.zeros(2), ref, 3) == 1 / 3  # z, q0, q1
        # only the four tied entries are measured, not the sure nearest one
        assert calls == [4]


class TestNonFiniteInputs:
    def test_reference_rejects_nan_and_inf(self):
        for bad in (np.nan, np.inf, -np.inf):
            embeddings = np.ones((3, 4))
            embeddings[1, 2] = bad
            with pytest.raises(ValueError):
                NnReferenceSet(["q0", "q1", "q2"], embeddings,
                               [True, False, True])

    def test_load_rejects_nan(self, tmp_path):
        path = tmp_path / "ref.jsonl"
        embeddings = np.ones((2, 4))
        embeddings[0, 0] = np.nan
        artifacts.save(path, "nnref", {
            "provider_fingerprint": None, "question_ids": ["q0", "q1"],
            "correct": [True, False]}, {"embeddings": embeddings})
        with pytest.raises(IndexIntegrityError):
            NnReferenceSet.load(path)

    def test_question_must_be_finite(self):
        ref = make_reference(reference_entries([1, 0, 1]))
        for bad in (np.nan, np.inf):
            query = np.zeros(4)
            query[3] = bad
            with pytest.raises(ValueError):
                neighbor_score(query, ref, 2)

    def test_empty_reference_round_trips(self, tmp_path):
        llm = ScriptedLlmClient({})
        ref = build_nn_reference(TestBuildReference().qa(3), llm,
                                 HashingEmbedder(dim=32, seed=0))
        assert len(ref) == 0
        path = tmp_path / "ref.jsonl"
        ref.save(path)
        loaded = NnReferenceSet.load(path)
        assert len(loaded) == 0
        with pytest.raises(ValueError, match="need >= 1"):
            neighbor_score(np.zeros(32), loaded, 1)


class TestDecide:
    def test_defaults_skip_when_both_exceed(self):
        config = RecognizerConfig()
        verdict = decide(0.05, 0.70, config)
        assert verdict.decision is Decision.NO_RETRIEVE

    def test_boundary_is_strict(self):
        config = RecognizerConfig()
        assert decide(0.05, 0.67, config).decision is Decision.RETRIEVE

    def test_single_facet_insufficient(self):
        config = RecognizerConfig()
        assert decide(0.00, 0.99, config).decision is Decision.RETRIEVE

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            decide(1.2, 0.5, RecognizerConfig())

    @given(first=st.floats(0, 1), second=st.floats(0, 1),
           bump_first=st.floats(0, 1), bump_second=st.floats(0, 1))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_both_facets(self, first, second, bump_first,
                                     bump_second):
        config = RecognizerConfig()
        before = decide(first, second, config).decision
        after = decide(min(1.0, first + bump_first),
                       min(1.0, second + bump_second), config).decision
        if before is Decision.NO_RETRIEVE:
            assert after is Decision.NO_RETRIEVE

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RecognizerConfig(s_l=1.5)
        with pytest.raises(ValueError):
            RecognizerConfig(k_neighbors=0)
        for k in (2.5, 2.0, True):
            with pytest.raises(ValueError,
                               match="k_neighbors must be an integer"):
                RecognizerConfig(k_neighbors=k)

    def test_config_from_mapping(self):
        config = load_pipeline(PipelineConfig(recognizer={
            "delta_ltod": 2.0, "s_l": 0.1, "s_n": 0.5, "k_neighbors": 3}),
            require=()).recognizer_config
        assert config.delta_ltod == 2.0
        assert config.k_neighbors == 3


class TestBuildReference:
    def qa(self, n=10):
        return [QARecord(f"q{i}", f"question number {i} about topic{i}?",
                         frozenset({f"gold{i}"})) for i in range(n)]

    def test_all_correct(self):
        qa = self.qa()
        llm = ScriptedLlmClient(
            {q.question: f"The answer is {next(iter(q.gold_answers))}."
             for q in qa})
        ref = build_nn_reference(qa, llm, HashingEmbedder(dim=32, seed=0))
        assert len(ref) == 10
        assert ref.correct.all()

    def test_all_wrong(self):
        llm = ScriptedLlmClient(default_answer="no idea")
        ref = build_nn_reference(self.qa(), llm, HashingEmbedder(dim=32, seed=0))
        assert not ref.correct.any()

    def test_mixed_seven_of_ten(self):
        qa = self.qa()
        answers = {}
        for i, q in enumerate(qa):
            if i < 7:
                answers[q.question] = f"Surely gold{i}."
            else:
                answers[q.question] = "cannot say"
        llm = ScriptedLlmClient(answers)
        ref = build_nn_reference(qa, llm, HashingEmbedder(dim=32, seed=0))
        assert ref.correct.sum() == 7

    def test_failures_skip_with_warning(self, caplog):
        qa = self.qa(4)
        llm = ScriptedLlmClient({qa[0].question: "gold0", qa[2].question: "x"})
        ref = build_nn_reference(qa, llm, HashingEmbedder(dim=32, seed=0))
        assert len(ref) == 2
        assert set(ref.question_ids) == {"q0", "q2"}

    def test_round_trip(self, tmp_path):
        qa = self.qa(5)
        llm = ScriptedLlmClient(default_answer="gold2")
        provider = HashingEmbedder(dim=32, seed=0)
        ref = build_nn_reference(qa, llm, provider)
        path = tmp_path / "ref.jsonl"
        ref.save(path)
        loaded = NnReferenceSet.load(path)
        assert loaded.provider_fingerprint == provider.fingerprint
        assert len(loaded) == 5
        assert loaded.correct.tolist() == ref.correct.tolist()
        np.testing.assert_allclose(loaded.embeddings[0], ref.embeddings[0])

    def test_verify_provider(self):
        provider = HashingEmbedder(dim=32, seed=0)
        qa = self.qa(3)
        ref = build_nn_reference(qa, ScriptedLlmClient(default_answer="x"),
                                 provider)

        def check(ref, provider):
            check_provider("NN reference", ref.provider_fingerprint,
                           ref.embeddings.shape[1], provider)

        check(ref, provider)
        with pytest.raises(IndexIntegrityError):
            check(ref, HashingEmbedder(dim=32, seed=1))
        narrow = NnReferenceSet(["q0"], np.ones((1, 8)), [True],
                                provider.fingerprint)
        with pytest.raises(IndexIntegrityError):
            check(narrow, provider)

    def test_file_without_header_rejected(self, tmp_path):
        import json

        path = tmp_path / "ref.jsonl"
        path.write_text(json.dumps({
            "question_id": "q0", "label": "correct_w/o_retrieve",
            "embedding": [0.0, 1.0]}) + "\n")
        with pytest.raises(IndexIntegrityError):
            NnReferenceSet.load(path)
