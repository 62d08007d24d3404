import numpy as np
import pytest

from synthetic import scored_subdoc, trained_redundant_setup

from leanrag.corpus import (Corpus, QARecord, count_tokens,
                            generate_subdocuments, make_document)
from leanrag.llm import ScriptedLlmClient
from leanrag.mlp import Mlp, TrainingError
from leanrag.reducer import (DetectorExample, DetectorModel,
                             DetectorTrainConfig, ScoredSubDoc,
                             build_detector_dataset, combination_features,
                             greedy_filter, jaccard, load_detector_dataset,
                             make_combination, prerank,
                             reduce, rerank_topk, representative_subdocs,
                             save_detector_dataset, skyline_filter,
                             train_detector)
from leanrag.retrieval import HashingEmbedder, RetrievedDoc, Retriever, build_index
from leanrag.scorer import BiLabelScore, ScorerModel
from leanrag.seeds import derive_rng


def scored_pair(doc_id, rank, p_ans, p_pref, text="One sentence."):
    doc = make_document(doc_id, "", text)
    retrieved = RetrievedDoc(doc=doc, similarity=1.0 - rank * 0.01, rank=rank)
    return retrieved, BiLabelScore(0.0, 0.0, p_ans, p_pref)


class TestRerank:
    def test_tie_keeps_retrieval_order(self):
        scored = [
            scored_pair("first", 1, 0.9, 0.2),
            scored_pair("second", 2, 0.5, 0.5),
            scored_pair("third", 3, 0.3, 0.8),
        ]
        ranked = rerank_topk(scored, k=3)
        assert [r.doc.doc_id for r in ranked] == ["first", "third", "second"]
        assert [r.position for r in ranked] == [1, 2, 3]

    def test_k_larger_than_input(self):
        scored = [scored_pair("a", 1, 0.5, 0.5), scored_pair("b", 2, 0.9, 0.9)]
        assert len(rerank_topk(scored, k=10)) == 2

    def test_uniform_scores_preserve_retrieval_order(self):
        scored = [scored_pair(f"d{i}", i, 0.4, 0.4) for i in range(1, 6)]
        ranked = rerank_topk(scored, k=5)
        assert [r.doc.doc_id for r in ranked] == [f"d{i}" for i in range(1, 6)]

    def test_truncates_to_k(self):
        scored = [scored_pair(f"d{i}", i, 1.0 - 0.05 * i, 0.0)
                  for i in range(1, 21)]
        assert len(rerank_topk(scored, k=10)) == 10


class FixedScorer:
    """Stands in for a trained model: scores keyed on marker tokens."""

    def score(self, question, text):
        p_ans = 0.9 if "needle" in text else 0.1
        p_pref = 0.8 if "velvet" in text else 0.2
        return BiLabelScore(0.0, 0.0, p_ans, p_pref)

    def score_many(self, question, texts, question_embedding=None):
        return [self.score(question, text) for text in texts]


class TestRepresentatives:
    def test_single_sentence_doc_uses_whole_doc(self):
        doc = make_document("d", "", "Only sentence here.")
        ranked = rerank_topk([scored_pair("d", 1, 0.5, 0.5,
                                          "Only sentence here.")], 1)
        reps = representative_subdocs(ranked, FixedScorer(), "q")
        assert len(reps) == 1
        assert reps[0].subdoc.sentence_count == 1

    def test_one_representative_per_document(self):
        scored = [scored_pair(f"d{i}", i, 0.5, 0.5,
                              "One. Two. Three. Four. Five.")
                  for i in range(1, 11)]
        reps = representative_subdocs(rerank_topk(scored, 10), FixedScorer(), "q")
        assert len(reps) == 10

    def test_argmax_window_matches_exhaustive_oracle(self):
        text = ("Filler one here. Filler two here. The needle window velvet. "
                "Filler three here. Filler four here.")
        scored = [scored_pair("d", 1, 0.5, 0.5, text)]
        ranked = rerank_topk(scored, 1)
        scorer = FixedScorer()
        reps = representative_subdocs(ranked, scorer, "q")
        doc = ranked[0].doc
        best = max(generate_subdocuments(doc),
                   key=lambda s: (scorer.score("q", s.text).combined,
                                  -s.start_sentence))
        assert reps[0].subdoc == best

    def test_earliest_window_wins_ties(self):
        text = "Same words here. Same words here. Same words here. Same words here."
        scored = [scored_pair("d", 1, 0.5, 0.5, text)]
        reps = representative_subdocs(rerank_topk(scored, 1), FixedScorer(), "q")
        assert reps[0].subdoc.start_sentence == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            representative_subdocs([], FixedScorer(), "q")


class TestPrerank:
    def test_descending_by_combined(self):
        subs = [scored_subdoc("a", 0.9, 0.9, 1), scored_subdoc("b", 0.1, 0.2, 2),
                scored_subdoc("c", 0.6, 0.5, 3)]
        assert [s.subdoc.parent_doc_id for s in prerank(subs)] == ["a", "c", "b"]

    def test_ties_by_parent_position(self):
        subs = [scored_subdoc("late", 0.5, 0.5, 7),
                scored_subdoc("early", 0.5, 0.5, 2)]
        assert [s.subdoc.parent_doc_id for s in prerank(subs)] == ["early", "late"]

    def test_ties_within_a_parent_by_window_start(self):
        doc = make_document("d", "", "One. Two. Three. Four.")
        first, second = generate_subdocuments(doc)
        score = BiLabelScore(0.0, 0.0, 0.5, 0.5)
        subs = [ScoredSubDoc(second, score, 1), ScoredSubDoc(first, score, 1)]
        assert [s.subdoc.start_sentence for s in prerank(subs)] == [0, 1]

    def test_empty(self):
        assert prerank([]) == []


class TestCombinationFeatures:
    def test_zero_padded_fixed_length(self):
        members = [scored_subdoc("a", 0.7, 0.3), scored_subdoc("b", 0.2, 0.9)]
        vec = combination_features(members, max_docs=5)
        assert vec.shape == (10,)
        np.testing.assert_allclose(vec[:4], [0.7, 0.3, 0.2, 0.9])
        np.testing.assert_allclose(vec[4:], 0.0)

    def test_too_many_members_rejected(self):
        members = [scored_subdoc(f"s{i}", 0.5, 0.5) for i in range(3)]
        with pytest.raises(ValueError):
            combination_features(members, max_docs=2)

    def test_token_count_is_member_sum(self):
        members = [scored_subdoc("a", 0.7, 0.3, text="Three tokens here."),
                   scored_subdoc("b", 0.2, 0.9, text="Two tokens.")]
        combo = make_combination(members)
        assert combo.token_count == sum(m.subdoc.token_count for m in members)


class ThresholdDetector:
    """Closed-form oracle: fires when the cumulative mean of the first score
    coordinate exceeds a cutoff."""

    def __init__(self, cutoff=0.6, max_docs=10):
        self.cutoff = cutoff
        self.max_docs = max_docs

    def predict(self, features):
        pairs = features.reshape(-1, 2)
        live = pairs[(pairs != 0).any(axis=1)]
        mean = float(live[:, 0].mean()) if len(live) else 0.0
        return (1 if mean > self.cutoff else 0), mean


class TestGreedyFilter:
    def test_fires_on_first(self):
        subs = [scored_subdoc("a", 0.9, 0.1), scored_subdoc("b", 0.2, 0.1)]
        combo = greedy_filter(subs, ThresholdDetector())
        assert len(combo) == 1
        assert combo.member_ids()[0].startswith("a")

    def test_never_fires_returns_all(self):
        subs = [scored_subdoc(f"s{i}", 0.1, 0.1) for i in range(10)]
        combo = greedy_filter(subs, ThresholdDetector())
        assert len(combo) == 10

    def test_truncates_to_max_docs(self):
        subs = [scored_subdoc(f"s{i}", 0.1, 0.1) for i in range(15)]
        combo = greedy_filter(subs, ThresholdDetector(max_docs=10))
        assert len(combo) == 10

    def test_closed_form_thresholds(self):
        stop_at_one = [scored_subdoc("a", 0.9, 0.0), scored_subdoc("b", 0.2, 0.0)]
        assert len(greedy_filter(stop_at_one, ThresholdDetector(0.6))) == 1
        stop_at_two = [scored_subdoc("a", 0.5, 0.0), scored_subdoc("b", 0.8, 0.0)]
        assert len(greedy_filter(stop_at_two, ThresholdDetector(0.6))) == 2

    def test_result_is_prefix_of_input(self):
        subs = [scored_subdoc(f"s{i}", 0.3 + 0.05 * i, 0.2) for i in range(8)]
        combo = greedy_filter(subs, ThresholdDetector(0.42))
        expected_ids = tuple(s.subdoc.subdoc_id for s in subs[:len(combo)])
        assert combo.member_ids() == expected_ids

    def test_stop_matches_bruteforce_smallest_prefix(self):
        rng = derive_rng(0, "greedy-brute")
        for trial in range(50):
            n = int(rng.integers(1, 7))
            subs = [scored_subdoc(f"t{trial}s{i}", float(rng.random()),
                                  float(rng.random())) for i in range(n)]
            detector = DetectorModel(max_docs=6, hidden_sizes=(8,),
                                     seed=int(rng.integers(0, 10_000)))
            combo = greedy_filter(subs, detector)
            accepted = [size for size in range(1, n + 1)
                        if detector.predict(combination_features(
                            subs[:size], 6))[0] == 1]
            if accepted:
                assert len(combo) == accepted[0]
            else:
                assert len(combo) == n

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            greedy_filter([], ThresholdDetector())


class TestSkylineAndOverlap:
    def test_spec_pareto_example(self):
        points = [(0.9, 0.1), (0.5, 0.5), (0.1, 0.9), (0.4, 0.4)]
        assert skyline_filter(points) == [0, 1, 2]

    def test_duplicates_survive(self):
        points = [(0.5, 0.5), (0.5, 0.5)]
        assert skyline_filter(points) == [0, 1]

    def test_no_kept_point_dominated(self):
        rng = derive_rng(1, "skyline")
        points = [(float(rng.random()), float(rng.random())) for _ in range(60)]
        kept = skyline_filter(points)
        for i in kept:
            for j in kept:
                if i == j:
                    continue
                dominated = (points[j][0] >= points[i][0]
                             and points[j][1] >= points[i][1]
                             and points[j] != points[i])
                assert not dominated

    def test_jaccard(self):
        a = frozenset({"x", "y"})
        b = frozenset({"y", "z"})
        assert jaccard(a, b) == pytest.approx(1 / 3)
        assert jaccard(a, a) == 1.0


class TestTrainDetector:
    def separable_dataset(self, n=200, seed=0):
        # label 1 iff the first feature coordinate exceeds 0.7
        rng = derive_rng(seed, "detector-separable")
        out = []
        for i in range(n):
            features = np.zeros(20)
            size = int(rng.integers(1, 11))
            for j in range(size):
                features[2 * j] = rng.random()
                features[2 * j + 1] = rng.random()
            label = int(features[0] > 0.7)
            out.append(DetectorExample(f"q{i}", (f"s{i}",), features, label,
                                       float(features[0]), float(features[1])))
        return out

    def test_separable_holdout_accuracy(self):
        model = train_detector(self.separable_dataset(),
                               DetectorTrainConfig(learning_rate=0.3,
                                                   epochs=300, seed=1))
        assert model.holdout_accuracy >= 0.95

    def test_no_epochs_rejected(self):
        with pytest.raises(ValueError, match="epochs must be >= 1"):
            DetectorTrainConfig(epochs=0)

    def test_non_finite_gradient_is_a_training_error(self):
        with np.errstate(invalid="ignore"), pytest.raises(TrainingError):
            train_detector(self.separable_dataset(20),
                           DetectorTrainConfig(learning_rate=float("inf"),
                                               epochs=2))

    def test_deterministic(self):
        dataset = self.separable_dataset()
        config = DetectorTrainConfig(learning_rate=0.3, epochs=50, seed=1)
        a = train_detector(dataset, config)
        b = train_detector(dataset, config)
        np.testing.assert_array_equal(a.net.get_params(), b.net.get_params())

    def test_single_class_refused(self):
        dataset = [ex for ex in self.separable_dataset() if ex.label == 1]
        with pytest.raises(ValueError):
            train_detector(dataset)

    def test_gradient_matches_finite_differences(self):
        net = Mlp([6, 5, 1], seed=2)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((12, 6))
        y = (rng.random((12, 1)) < 0.5).astype(float)
        params = net.get_params()
        _, grad = net.weighted_bce(params, x, y, np.ones(12), 12)
        h = 1e-5
        for i in range(params.size):
            up, down = params.copy(), params.copy()
            up[i] += h
            down[i] -= h
            lu, _ = net.weighted_bce(up, x, y, np.ones(12), 12)
            ld, _ = net.weighted_bce(down, x, y, np.ones(12), 12)
            fd = (lu - ld) / (2 * h)
            assert abs(fd - grad[i]) / max(abs(fd), abs(grad[i]), 1e-6) < 1e-4

    def test_model_round_trip(self, tmp_path):
        model = train_detector(self.separable_dataset(),
                               DetectorTrainConfig(learning_rate=0.3,
                                                   epochs=50, seed=1))
        path = tmp_path / "detector.json"
        model.save(path)
        loaded = DetectorModel.load(path)
        features = np.zeros(20)
        features[0] = 0.9
        assert loaded.predict(features) == model.predict(features)
        assert loaded.max_docs == model.max_docs

    def test_dataset_cache_round_trip(self, tmp_path):
        dataset = self.separable_dataset(20)
        path = tmp_path / "data.jsonl"
        save_detector_dataset(dataset, path)
        loaded = load_detector_dataset(path)
        assert len(loaded) == 20
        np.testing.assert_allclose(loaded[3].features, dataset[3].features)
        assert loaded[3].label == dataset[3].label


class TestBuildDetectorDataset:
    def oracle_setting(self):
        """Mock answers correctly iff the needle sub-document is in the
        passages; labels must equal that containment exactly."""
        docs = [
            make_document("hit", "", "Alpha filler one. The needle gold77 lives"
                                     " here. Alpha filler two. Alpha filler three."),
            make_document("miss1", "", "Beta filler one. Beta filler two. "
                                       "Beta filler three. Beta filler four."),
            make_document("miss2", "", "Gamma filler one. Gamma filler two. "
                                       "Gamma filler three."),
        ]
        corpus = Corpus(docs)
        qa = [QARecord("q0", "Where does the needle live?",
                       frozenset({"gold77"}))]
        mock = ScriptedLlmClient(patterns=[
            (r"(?s)gold77.*Question:", "It is gold77."),
            (r"(?s).*", "No idea."),
        ])
        provider = HashingEmbedder(dim=64, seed=1)
        retriever = Retriever(corpus, build_index(corpus, provider), provider)
        scorer = ScorerModel(head=Mlp([128, 8, 2], seed=0), balance_weight=0.5,
                             seed=0, provider=provider,
                             provider_fingerprint=provider.fingerprint)
        return qa, retriever, scorer, mock

    def test_labels_equal_needle_containment(self):
        qa, retriever, scorer, mock = self.oracle_setting()
        dataset = build_detector_dataset(qa, retriever, scorer, mock,
                                         max_docs=3, top_retrieve=3,
                                         samples_per_question=80, seed=3)
        assert dataset
        for example in dataset:
            contains_needle = any("hit#" in mid for mid in example.member_ids)
            assert example.label == int(contains_needle)

    def test_self_known_questions_excluded(self):
        qa, retriever, scorer, _ = self.oracle_setting()
        mock = ScriptedLlmClient({qa[0].question: "gold77 from memory"})
        dataset = build_detector_dataset(qa, retriever, scorer, mock,
                                         max_docs=3, top_retrieve=3,
                                         samples_per_question=20, seed=3)
        assert dataset == []

    def test_unhelpable_questions_excluded(self):
        qa, retriever, scorer, _ = self.oracle_setting()
        mock = ScriptedLlmClient(default_answer="never right")
        dataset = build_detector_dataset(qa, retriever, scorer, mock,
                                         max_docs=3, top_retrieve=3,
                                         samples_per_question=20, seed=3)
        assert dataset == []

    def test_output_skyline_and_overlap_invariants(self):
        qa, retriever, scorer, mock = self.oracle_setting()
        dataset = build_detector_dataset(qa, retriever, scorer, mock,
                                         max_docs=3, top_retrieve=3,
                                         samples_per_question=80, seed=3)
        points = [(ex.mean_ans, ex.mean_pref) for ex in dataset]
        assert sorted(skyline_filter(points)) == list(range(len(points)))
        sets = [frozenset(ex.member_ids) for ex in dataset]
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                assert jaccard(sets[i], sets[j]) <= 0.8

    def test_deterministic(self):
        qa, retriever, scorer, mock = self.oracle_setting()
        kwargs = dict(max_docs=3, top_retrieve=3, samples_per_question=40,
                      seed=3)
        first = build_detector_dataset(qa, retriever, scorer, mock, **kwargs)
        second = build_detector_dataset(qa, retriever, scorer, mock, **kwargs)
        assert [e.member_ids for e in first] == [e.member_ids for e in second]
        assert [e.label for e in first] == [e.label for e in second]


@pytest.fixture(scope="module")
def redundant():
    return trained_redundant_setup()


class TestReduce:
    def test_token_count_bounded_by_topk_concat(self, redundant):
        corpus, qa, mock, provider, retriever, scorer = redundant
        q = qa[0]
        scored = [(r, scorer.score(q.question, r.doc.text))
                  for r in retriever.retrieve(q.question, 10)]
        combo = reduce(q.question, scored, scorer, ThresholdDetector(0.5),
                       max_docs=10)
        top = rerank_topk(scored, 10)
        full_tokens = sum(count_tokens(" ".join(d.doc.sentence_texts()))
                          for d in top)
        assert combo.token_count <= full_tokens

    def test_deterministic(self, redundant):
        corpus, qa, mock, provider, retriever, scorer = redundant
        q = qa[1]
        scored = [(r, scorer.score(q.question, r.doc.text))
                  for r in retriever.retrieve(q.question, 10)]
        first = reduce(q.question, scored, scorer, ThresholdDetector(0.5))
        second = reduce(q.question, scored, scorer, ThresholdDetector(0.5))
        assert first.member_ids() == second.member_ids()

    def test_single_sentence_docs_become_whole_doc_members(self):
        docs = [make_document(f"d{i}", "", f"Lone sentence {i} needle.")
                for i in range(3)]
        scored = [scored_pair(f"d{i}", i + 1, 0.5, 0.5,
                              f"Lone sentence {i} needle.")
                  for i in range(3)]
        combo = reduce("q", scored, FixedScorer(), ThresholdDetector(2.0),
                       max_docs=3)
        assert len(combo) == 3
        assert all(m.subdoc.sentence_count == 1 for m in combo.members)
