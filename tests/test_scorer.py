import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synthetic import imbalanced_feature_pairs

import leanrag.scorer as scorer_module
from leanrag.artifacts import IndexIntegrityError, check_provider
from leanrag.corpus import Corpus, QARecord, make_document
from leanrag.llm import ScriptedLlmClient
from leanrag.mlp import Mlp, PROB_EPS, bce_elementwise, sgd_step, sigmoid
from leanrag.retrieval import HashingEmbedder, Retriever, build_index
from leanrag.scorer import (AnnotationError, BiLabel,
                            ImbalanceDegenerateError, LabeledPair, ScorerModel,
                            TrainConfig, TrainingSet, annotate_training_pair,
                            build_training_set, hyper_direction,
                            match_weights, split_losses, train_scorer)


def random_batch(rng, head, n):
    features = rng.standard_normal((n, head.n_inputs))
    targets = (rng.random((n, 2)) < 0.5).astype(float)
    matched = targets[:, 0] == targets[:, 1]
    # guarantee both classes
    targets[0] = [1.0, 1.0]
    targets[1] = [1.0, 0.0]
    matched = targets[:, 0] == targets[:, 1]
    return features, targets, matched


class TestBiLabel:
    def test_matched_flag(self):
        assert BiLabel(1, 1).matched
        assert BiLabel(0, 0).matched
        assert not BiLabel(0, 1).matched

    def test_validation(self):
        with pytest.raises(ValueError):
            BiLabel(2, 0)

    def test_pair_consistency_enforced(self):
        with pytest.raises(ValueError):
            LabeledPair("q", "d", np.zeros(2), BiLabel(1, 0), matched=True)


class TestBceLoss:
    def test_uniform_probabilities_analytic(self):
        loss = bce_elementwise(np.array([[0.5, 0.5]]), np.array([[1.0, 0.0]]))
        assert math.isclose(loss[0], 2 * math.log(2), rel_tol=1e-9)

    def test_confident_correct_near_zero(self):
        loss = bce_elementwise(np.array([[1 - PROB_EPS, PROB_EPS]]),
                               np.array([[1.0, 0.0]]))
        assert loss[0] < 1e-5

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(4)

        def scalar_bce(p, y):
            p = min(max(p, PROB_EPS), 1 - PROB_EPS)
            return -(y * math.log(p) + (1 - y) * math.log(1 - p))

        for _ in range(50):
            p1, p2 = rng.uniform(0.001, 0.999, size=2)
            y1, y2 = rng.integers(0, 2, size=2)
            expected = scalar_bce(p1, y1) + scalar_bce(p2, y2)
            loss = bce_elementwise(np.array([[p1, p2]]),
                                   np.array([[y1, y2]], dtype=float))
            assert math.isclose(loss[0], expected, rel_tol=1e-12)


class TestWeightedLoss:
    def setup_method(self):
        self.head = Mlp([6, 5, 2], seed=0)
        self.rng = np.random.default_rng(1)

    def test_half_weight_halves_unweighted_mean(self):
        x, y, matched = random_batch(self.rng, self.head, 12)
        params = self.head.get_params()
        unweighted, _ = self.head.weighted_bce(params, x, y,
                                               np.ones(len(x)), len(x))
        loss, _ = self.head.weighted_bce(params, x, y,
                                         match_weights(matched, 0.5), len(x))
        assert math.isclose(loss, 0.5 * unweighted, rel_tol=1e-12)

    def test_full_weight_zeroes_mismatched_batch(self):
        x = self.rng.standard_normal((4, 6))
        y = np.array([[1, 0], [0, 1], [1, 0], [0, 1]], dtype=float)
        matched = np.zeros(4, dtype=bool)
        loss, _ = self.head.weighted_bce(self.head.get_params(), x, y,
                                         match_weights(matched, 1.0), len(x))
        assert loss == 0.0

    def test_single_matched_pair_scaling(self):
        # one matched example with loss l contributes f(w) * l = 0.3 * l
        x = self.rng.standard_normal((1, 6))
        y = np.array([[1.0, 1.0]])
        matched = np.ones(1, dtype=bool)
        params = self.head.get_params()
        base, _ = self.head.weighted_bce(params, x, y, np.ones(1), 1)
        got, _ = self.head.weighted_bce(params, x, y,
                                        match_weights(matched, 0.3), len(x))
        assert math.isclose(got, 0.3 * base, rel_tol=1e-12)

    @given(weight=st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_decomposes_into_partial_sums(self, weight):
        # identity: mean f(w) * l == w * L_mat + (1 - w) * L_mis where the
        # partial losses are normalized by the whole batch size
        head = Mlp([6, 5, 2], seed=0)
        rng = np.random.default_rng(7)
        x, y, matched = random_batch(rng, head, 16)
        params = head.get_params()
        total, _ = head.weighted_bce(params, x, y,
                                     match_weights(matched, weight), len(x))
        l_mat, _ = head.weighted_bce(params, x, y,
                                     matched.astype(float), len(x))
        l_mis, _ = head.weighted_bce(params, x, y,
                                     (~matched).astype(float), len(x))
        assert math.isclose(total, weight * l_mat + (1 - weight) * l_mis,
                            rel_tol=1e-9, abs_tol=1e-12)

    @given(weight=st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_weight_function_complementary(self, weight):
        matched = np.array([True, False])
        total = match_weights(matched, weight) + match_weights(matched, 1 - weight)
        np.testing.assert_allclose(total, [1.0, 1.0])


class TestTrainStep:
    def setup_method(self):
        self.head = Mlp([8, 6, 2], seed=3)
        rng = np.random.default_rng(5)
        self.x, self.y, self.matched = random_batch(rng, self.head, 24)

    def test_zero_learning_rate_is_identity(self):
        params = self.head.get_params()
        after = sgd_step(self.head, params, self.x, self.y,
                         match_weights(self.matched, 0.4), 0.0)
        np.testing.assert_array_equal(params, after)

    def test_small_step_descends(self):
        params = self.head.get_params()
        weights = match_weights(self.matched, 0.4)
        before, _ = self.head.weighted_bce(params, self.x, self.y, weights,
                                           len(self.x))
        after_params = sgd_step(self.head, params, self.x, self.y, weights,
                                1e-4)
        after, _ = self.head.weighted_bce(after_params, self.x, self.y,
                                          weights, len(self.x))
        assert after <= before

    def test_gradient_matches_finite_differences(self):
        params = self.head.get_params()
        weights = match_weights(self.matched, 0.35)
        _, grad = self.head.weighted_bce(params, self.x, self.y, weights,
                                         len(self.x))
        h = 1e-5
        for i in range(params.size):
            up = params.copy()
            up[i] += h
            down = params.copy()
            down[i] -= h
            lu, _ = self.head.weighted_bce(up, self.x, self.y, weights,
                                           len(self.x))
            ld, _ = self.head.weighted_bce(down, self.x, self.y, weights,
                                           len(self.x))
            fd = (lu - ld) / (2 * h)
            denom = max(abs(fd), abs(grad[i]), 1e-6)
            assert abs(fd - grad[i]) / denom < 1e-4


class TestHypergradient:
    def setup_method(self):
        self.head = Mlp([8, 6, 2], seed=11)
        rng = np.random.default_rng(13)
        self.xt, self.yt, self.mt = random_batch(rng, self.head, 30)
        self.xv, self.yv, self.mv = random_batch(rng, self.head, 20)
        self.lr = 0.05

    def test_zero_step_size_keeps_weight(self, imbalanced_pairs):
        result = train_scorer(imbalanced_pairs, TrainConfig(
            learning_rate=0.08, hyper_step_size=0.0, epochs=3, seed=5,
            initial_weight=0.4), hidden_sizes=(16, 8))
        assert [h.weight for h in result.history] == [0.4] * 3
        assert result.balance_weight == 0.4

    def test_identical_split_gradients_give_zero_direction(self):
        # same features, label pairs {(1,1),(0,0)} vs {(1,0),(0,1)}: the
        # summed output-layer deltas coincide, so the split gradients do too
        x = np.tile(np.random.default_rng(1).standard_normal((1, 8)), (4, 1))
        y = np.array([[1, 1], [0, 0], [1, 0], [0, 1]], dtype=float)
        matched = np.array([True, True, False, False])
        params = self.head.get_params()
        after = sgd_step(self.head, params, x, y, match_weights(matched, 0.5),
                         self.lr)
        common = hyper_direction(self.head, params, after, x, y, matched,
                                 self.xv, self.yv, self.mv, self.lr)
        assert abs(common) < 1e-12

    def test_direction_matches_finite_difference(self):
        params = self.head.get_params()
        weight = 0.37

        def validation_objective(w):
            stepped = sgd_step(self.head, params, self.xt, self.yt,
                               match_weights(self.mt, w), self.lr)
            mat, mis = split_losses(self.head, stepped, self.xv, self.yv,
                                    self.mv)
            return 0.5 * (mat + mis)

        after = sgd_step(self.head, params, self.xt, self.yt,
                         match_weights(self.mt, weight), self.lr)
        common = hyper_direction(self.head, params, after, self.xt,
                                 self.yt, self.mt, self.xv, self.yv,
                                 self.mv, self.lr)
        delta = 1e-4
        fd = (validation_objective(weight + delta)
              - validation_objective(weight - delta)) / (2 * delta)
        assert abs(common - fd) / max(abs(fd), 1e-12) < 1e-3

    def test_weight_clamped_to_unit_interval(self, imbalanced_pairs):
        result = train_scorer(imbalanced_pairs, TrainConfig(
            learning_rate=0.08, hyper_step_size=1e9, epochs=3, seed=5,
            initial_weight=0.01), hidden_sizes=(16, 8))
        # a step this large leaves [0, 1] unless clamped
        assert result.history[0].weight in (0.0, 1.0)
        assert all(0.0 <= h.weight <= 1.0 for h in result.history)

    def test_single_class_validation_rejected(self):
        params = self.head.get_params()
        after = sgd_step(self.head, params, self.xt, self.yt,
                         match_weights(self.mt, 0.4), self.lr)
        all_matched = np.ones(len(self.xv), dtype=bool)
        with pytest.raises(ImbalanceDegenerateError):
            hyper_direction(self.head, params, after, self.xt, self.yt,
                            self.mt, self.xv, self.yv, all_matched, self.lr)


@pytest.fixture(scope="module")
def imbalanced_pairs():
    return imbalanced_feature_pairs(n_matched=600, n_mismatched=60, dim=8,
                                    seed=13)


@pytest.fixture(scope="module")
def small_config():
    return TrainConfig(learning_rate=0.08, hyper_step_size=4.0, epochs=12,
                       batch_size=16, seed=5)


class TestTrainScorer:
    def test_deterministic_for_fixed_seed(self, imbalanced_pairs, small_config):
        first = train_scorer(imbalanced_pairs, small_config,
                             hidden_sizes=(16, 8))
        second = train_scorer(imbalanced_pairs, small_config,
                              hidden_sizes=(16, 8))
        np.testing.assert_array_equal(first.model.head.get_params(),
                                      second.model.head.get_params())
        assert [h.weight for h in first.history] == \
               [h.weight for h in second.history]

    def test_imbalance_drives_weight_below_half(self, imbalanced_pairs,
                                                small_config):
        result = train_scorer(imbalanced_pairs, small_config,
                              hidden_sizes=(16, 8))
        assert result.balance_weight < 0.5

    def test_weight_stays_in_unit_interval(self, imbalanced_pairs,
                                           small_config):
        result = train_scorer(imbalanced_pairs, small_config,
                              hidden_sizes=(16, 8))
        assert all(0.0 <= h.weight <= 1.0 for h in result.history)

    def test_beats_fixed_half_baseline(self, imbalanced_pairs, small_config):
        learned = train_scorer(imbalanced_pairs, small_config,
                               hidden_sizes=(16, 8))
        fixed = train_scorer(
            imbalanced_pairs,
            TrainConfig(learning_rate=small_config.learning_rate,
                        hyper_step_size=0.0, epochs=small_config.epochs,
                        batch_size=small_config.batch_size,
                        seed=small_config.seed),
            hidden_sizes=(16, 8))

        def objective(result):
            final = result.history[-1]
            return 0.5 * (final.val_matched_loss + final.val_mismatched_loss)

        assert objective(learned) <= objective(fixed) + 1e-6

    def test_refuses_single_class_data(self):
        pairs = [
            LabeledPair(f"q{i}", f"d{i}", np.random.default_rng(i).standard_normal(4),
                        BiLabel(1, 1), True)
            for i in range(10)
        ]
        with pytest.raises(ImbalanceDegenerateError):
            train_scorer(pairs, TrainConfig(epochs=1, seed=0))

    @pytest.mark.parametrize("name", ["epochs", "batch_size"])
    def test_no_epochs_or_empty_batches_rejected(self, name):
        with pytest.raises(ValueError, match=f"{name} must be >= 1"):
            TrainConfig(**{name: 0})

    def test_history_has_one_entry_per_epoch(self, imbalanced_pairs,
                                             small_config):
        result = train_scorer(imbalanced_pairs, small_config,
                              hidden_sizes=(16, 8))
        assert [h.epoch for h in result.history] == \
            list(range(1, small_config.epochs + 1))

    def test_hypergradient_subsample(self, imbalanced_pairs, small_config,
                                     monkeypatch):
        full = train_scorer(imbalanced_pairs, small_config,
                            hidden_sizes=(16, 8))
        # about 590 training pairs, so the per-epoch subsample branch runs
        monkeypatch.setattr(scorer_module, "FULL_GRAD_MAX", 100)
        first = train_scorer(imbalanced_pairs, small_config,
                             hidden_sizes=(16, 8))
        second = train_scorer(imbalanced_pairs, small_config,
                              hidden_sizes=(16, 8))
        assert first.history == second.history
        assert all(0.0 <= h.weight <= 1.0 for h in first.history)
        assert first.history != full.history


@pytest.fixture(scope="module")
def trained():
    pairs = imbalanced_feature_pairs(n_matched=600, n_mismatched=60,
                                     dim=8, seed=13)
    result = train_scorer(pairs, TrainConfig(
        learning_rate=0.08, hyper_step_size=4.0, epochs=15, batch_size=16,
        seed=5), hidden_sizes=(16, 8))
    return result.model


class TestScoring:

    def test_deterministic(self, trained):
        features = np.random.default_rng(2).standard_normal(8)
        assert trained.score_features(features) == trained.score_features(features)

    def test_probability_is_sigmoid_of_logit(self, trained):
        features = np.random.default_rng(3).standard_normal(8)
        sc = trained.score_features(features)
        assert abs(sc.p_ans - sigmoid(np.array([sc.logit_ans]))[0]) < 1e-9
        assert abs(sc.p_pref - sigmoid(np.array([sc.logit_pref]))[0]) < 1e-9

    def test_heldout_auc_above_point_nine(self, trained):
        held_out = imbalanced_feature_pairs(n_matched=300, n_mismatched=30,
                                            dim=8, seed=99, tag="-heldout")
        scores, labels = [], []
        for pair in held_out:
            scores.append(trained.score_features(pair.features).p_ans)
            labels.append(pair.label.has_answer)
        # exhaustive pair-counting AUC
        positives = [s for s, y in zip(scores, labels) if y == 1]
        negatives = [s for s, y in zip(scores, labels) if y == 0]
        wins = sum(1.0 if p > n else 0.5 if p == n else 0.0
                   for p in positives for n in negatives)
        auc = wins / (len(positives) * len(negatives))
        assert auc > 0.9

    def test_score_requires_provider(self, trained):
        with pytest.raises(ValueError):
            trained.score("question", "doc text")

    def test_model_round_trip(self, tmp_path, trained):
        path = tmp_path / "scorer.json"
        trained.save(path)
        loaded = ScorerModel.load(path)
        features = np.random.default_rng(8).standard_normal(8)
        assert loaded.score_features(features) == trained.score_features(features)
        assert loaded.balance_weight == trained.balance_weight

    def test_load_rejects_wrong_provider(self, tmp_path):
        provider = HashingEmbedder(dim=8, seed=1)
        model = ScorerModel(head=Mlp([16, 4, 2], seed=0), balance_weight=0.5,
                            seed=0, provider=provider,
                            provider_fingerprint=provider.fingerprint)
        path = tmp_path / "scorer.json"
        model.save(path)
        loaded = ScorerModel.load(path)
        check_provider("scorer", loaded.provider_fingerprint,
                       loaded.head.n_inputs // 2, provider)
        with pytest.raises(IndexIntegrityError):
            check_provider("scorer", loaded.provider_fingerprint,
                           loaded.head.n_inputs // 2,
                           HashingEmbedder(dim=8, seed=2))


def annotation_fixture():
    corpus = Corpus([
        make_document("with", "", "The capital is Paris for sure."),
        make_document("without", "", "A text about something else."),
    ])
    qa = QARecord("q1", "What is the capital of France?",
                  frozenset({"Paris"}))
    return corpus, qa


class TestAnnotation:
    def test_both_positive(self):
        corpus, qa = annotation_fixture()
        llm = ScriptedLlmClient(patterns=[(r"Paris", "It is Paris.")],
                                default_answer="no idea")
        label = annotate_training_pair(qa, corpus.get("with"), llm)
        assert (label.has_answer, label.llm_prefer) == (1, 1)

    def test_both_negative(self):
        corpus, qa = annotation_fixture()
        llm = ScriptedLlmClient(default_answer="no idea")
        label = annotate_training_pair(qa, corpus.get("without"), llm)
        assert (label.has_answer, label.llm_prefer) == (0, 0)

    def test_preferred_without_facts(self):
        # the LLM answers correctly even though the document lacks the answer
        corpus, qa = annotation_fixture()
        llm = ScriptedLlmClient({qa.question: "Paris, from memory."})
        label = annotate_training_pair(qa, corpus.get("without"), llm)
        assert (label.has_answer, label.llm_prefer) == (0, 1)

    def test_llm_failure_wrapped(self):
        corpus, qa = annotation_fixture()
        llm = ScriptedLlmClient()  # strict, no entries
        with pytest.raises(AnnotationError) as excinfo:
            annotate_training_pair(qa, corpus.get("with"), llm)
        assert excinfo.value.question_id == "q1"


class TestBuildTrainingSet:
    def ratio_fixture(self):
        # per question: 1 answer doc, 1 preferred-without-facts doc, 9 plain
        # distractors -> 10 matched to 1 mismatched
        docs = []
        qa = []
        patterns = []
        by_question = {}
        for i in range(2):
            entity = f"thing{i}zz"
            question = f"{entity} status?"
            qa.append(QARecord(f"q{i}", question, frozenset({f"gold{i}x"})))
            docs.append(make_document(
                f"ans{i}", "", f"The {entity} status is gold{i}x today."))
            docs.append(make_document(
                f"pref{i}", "", f"Rumors about {entity} status swirl in glib{i} notes."))
            for d in range(9):
                docs.append(make_document(
                    f"plain{i}x{d}", "", f"The {entity} status file {d} is dull."))
            patterns.append((rf"(?s)gold{i}x", f"The answer is gold{i}x."))
            patterns.append((rf"(?s)glib{i}.*{entity} status",
                             f"Surely gold{i}x."))
        patterns.append((r"(?s).*", "No answer found."))
        corpus = Corpus(docs)
        provider = HashingEmbedder(dim=96, seed=5)
        retriever = Retriever(corpus, build_index(corpus, provider), provider)
        return qa, retriever, ScriptedLlmClient(patterns=patterns)

    def test_pair_count_bounded(self):
        qa, retriever, llm = self.ratio_fixture()
        training_set = build_training_set(qa, retriever, llm, per_question_k=50)
        assert len(training_set.pairs) <= 100

    def test_corpus_smaller_than_k(self):
        qa, retriever, llm = self.ratio_fixture()
        training_set = build_training_set(qa, retriever, llm, per_question_k=50)
        per_question = {}
        for pair in training_set.pairs:
            per_question[pair.question_id] = per_question.get(pair.question_id, 0) + 1
        assert set(per_question.values()) == {22}  # corpus size

    def test_engineered_ratio(self):
        qa, retriever, llm = self.ratio_fixture()
        training_set = build_training_set(qa, retriever, llm, per_question_k=11)
        assert abs(training_set.imbalance_ratio - 10.0) <= 0.5

    def test_failures_counted_not_fatal(self):
        qa, retriever, _ = self.ratio_fixture()
        strict = ScriptedLlmClient(patterns=[(r"thing0zz", "gold0x here")])
        training_set = build_training_set(qa, retriever, strict,
                                          per_question_k=3)
        assert training_set.annotation_failures == 3  # q1's docs all unscripted
        assert len(training_set.pairs) == 3

    def test_cache_round_trip(self, tmp_path):
        qa, retriever, llm = self.ratio_fixture()
        training_set = build_training_set(qa, retriever, llm, per_question_k=5)
        path = tmp_path / "pairs.jsonl"
        training_set.save(path)
        loaded = TrainingSet.load(path)
        assert len(loaded.pairs) == len(training_set.pairs)
        np.testing.assert_allclose(loaded.pairs[0].features,
                                   training_set.pairs[0].features)
        assert loaded.pairs[0].label == training_set.pairs[0].label
