import gc
import math
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synthetic import imbalanced_feature_pairs

import leanrag.retrieval as retrieval_module
import leanrag.scorer as scorer_module
from leanrag.artifacts import IndexIntegrityError, check_provider
from leanrag.corpus import Corpus, QARecord, make_document
from leanrag.llm import ScriptedLlmClient
from leanrag.mlp import Mlp, PROB_EPS, bce_elementwise, sgd_step, sigmoid
from leanrag.retrieval import (HashingEmbedder, Retriever, VectorIndex,
                               build_index)
from leanrag.scorer import (AnnotationError, BiLabel,
                            ImbalanceDegenerateError, LabeledPair, ScorerModel,
                            TrainConfig, TrainingSet, annotate_training_pair,
                            build_training_set, hyper_direction,
                            match_weights, pair_features, split_losses,
                            train_scorer)
from leanrag.seeds import stable_hash


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
        assert trained.head.forward_logits(features).tobytes() == \
            trained.head.forward_logits(features).tobytes()

    def test_probability_is_sigmoid_of_logit(self, trained):
        features = np.random.default_rng(3).standard_normal(8)
        logit = trained.head.forward_logits(features)
        prob = trained.head.probabilities(features)
        assert np.abs(prob - sigmoid(logit)).max() < 1e-9

    def test_heldout_auc_above_point_nine(self, trained):
        held_out = imbalanced_feature_pairs(n_matched=300, n_mismatched=30,
                                            dim=8, seed=99, tag="-heldout")
        scores = trained.head.probabilities(
            np.stack([pair.features for pair in held_out]))[:, 0].tolist()
        labels = [pair.label.has_answer for pair in held_out]
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
        assert loaded.head.forward_logits(features).tobytes() == \
            trained.head.forward_logits(features).tobytes()
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


WORDS = ("amber basil cedar delta ember fjord grove heron iris jade kelp "
         "lotus maple nectar onyx").split()


def memo_corpus(seed=4, n_docs=12, prefix="d"):
    """Titled and untitled documents of 2 to 5 sentences, so that the index
    serves document rows, titled-text rows and window rows."""
    rng = np.random.default_rng(seed)
    docs = []
    for i in range(n_docs):
        sentences = [" ".join(rng.choice(WORDS, 4)).capitalize() + "."
                     for _ in range(2 + i % 4)]
        docs.append(make_document(f"{prefix}{i:02d}",
                                  "Title" if i % 2 else "",
                                  " ".join(sentences)))
    return Corpus(docs)


MEMO_PROVIDER = HashingEmbedder(dim=16, seed=2)
MEMO_CORPUS = memo_corpus()
MEMO_INDEX = build_index(MEMO_CORPUS, MEMO_PROVIDER)
STORED_TEXTS = sorted({text for doc in MEMO_CORPUS
                       for text in [doc.text, *doc.windows]})
# texts no stored row holds: an edited document, ad-hoc text
FRESH_TEXTS = [f"{a} {b} unseen" for a in WORDS[:4] for b in WORDS[4:7]]


class CountingProvider:
    """``MEMO_PROVIDER``, recording the texts of each ``embed_many``."""

    dim = MEMO_PROVIDER.dim
    fingerprint = MEMO_PROVIDER.fingerprint

    def __init__(self):
        self.calls = []

    def embed(self, text):
        return self.embed_many([text])[0]

    def embed_many(self, texts):
        self.calls.append(list(texts))
        return MEMO_PROVIDER.embed_many(texts)


def memo_scorer(index=MEMO_INDEX, seed=3):
    """A scorer bound to ``index``, with its own head and an empty memo."""
    return ScorerModel(head=Mlp([32, 6, 4, 2], seed=seed), balance_weight=0.5,
                       seed=0, provider=MEMO_PROVIDER,
                       provider_fingerprint=MEMO_PROVIDER.fingerprint,
                       stored=index)


def logits(scores):
    return [(s.logit_ans, s.logit_pref) for s in scores]


texts_strategy = st.lists(st.sampled_from(STORED_TEXTS + FRESH_TEXTS),
                          min_size=1, max_size=12)
question_strategy = st.sampled_from(["amber grove?", "which heron iris",
                                     "kelp onyx lotus nectar"])


class TestFactoredScoring:
    """``score_many`` splits the first layer into a question half, computed
    per call, and a document half, kept per stored row."""

    def test_every_text_kind_is_exercised(self):
        # stored texts come from document rows and from sparse rows, and
        # only the fresh ones reach the provider
        digests = {stable_hash(text) for text in STORED_TEXTS}
        assert digests & set(MEMO_INDEX.digests.tolist())
        assert digests & set(MEMO_INDEX.rows.digests.tolist())
        provider = CountingProvider()
        MEMO_INDEX.embed_many(provider, STORED_TEXTS + FRESH_TEXTS)
        assert provider.calls == [FRESH_TEXTS]

    @settings(max_examples=40, deadline=None)
    @given(question=question_strategy, texts=texts_strategy)
    def test_logits_match_forward_on_features(self, question, texts):
        scorer = memo_scorer()
        features = np.stack([pair_features(MEMO_PROVIDER, question, text)
                             for text in texts])
        want = scorer.head.forward_logits(features)
        for _ in range(2):  # cold memo, then warm
            got = np.array(logits(scorer.score_many(question, texts)))
            assert np.abs(got - want).max() <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(question=question_strategy, texts=texts_strategy,
           data=st.data())
    def test_identical_texts_tie_cold_and_warm(self, question, texts, data):
        batch = texts + data.draw(st.permutations(texts))
        scorer = memo_scorer()
        cold = scorer.score_many(question, batch)
        warm = scorer.score_many(question, batch)
        assert cold == warm
        for i, text in enumerate(batch):
            assert cold[i] == cold[batch.index(text)]

    @settings(max_examples=40, deadline=None)
    @given(question=question_strategy, texts=texts_strategy,
           batch_first=st.booleans())
    def test_batch_equals_one_call_per_text(self, question, texts,
                                            batch_first):
        scorer = memo_scorer()
        if batch_first:
            batch = scorer.score_many(question, texts)
            single = [scorer.score(question, text) for text in texts]
        else:
            single = [scorer.score(question, text) for text in texts]
            batch = scorer.score_many(question, texts)
        assert batch == single
        # and as a scorer that holds no stored row scores them
        assert batch == replace(scorer, stored=None).score_many(question,
                                                                texts)

    def test_set_params_takes_effect(self):
        scorer = memo_scorer()
        before = scorer.score_many("amber grove?", STORED_TEXTS)
        params = np.random.default_rng(6).standard_normal(
            scorer.head.get_params().shape)
        scorer.head.set_params(params)
        after = scorer.score_many("amber grove?", STORED_TEXTS)
        fresh = memo_scorer()
        fresh.head.set_params(params)
        assert after == fresh.score_many("amber grove?", STORED_TEXTS)
        assert after != before

    def test_copy_bound_to_another_index_reads_its_rows(self):
        scorer = memo_scorer()
        scorer.score_many("amber grove?", STORED_TEXTS)
        # the same texts, at other positions of another index
        other = build_index(Corpus([*memo_corpus(seed=9, n_docs=5,
                                                 prefix="a"),
                                    *MEMO_CORPUS]), MEMO_PROVIDER)
        copy = replace(scorer, stored=other)
        assert copy.score_many("amber grove?", STORED_TEXTS) == \
            replace(scorer, stored=None).score_many("amber grove?",
                                                     STORED_TEXTS)

    def test_memo_follows_the_provider_and_the_index(self):
        scorer = memo_scorer()
        scorer.score_many("amber grove?", STORED_TEXTS)
        scorer.provider = HashingEmbedder(dim=16, seed=5)
        assert scorer.score_many("amber grove?", STORED_TEXTS) == replace(
            scorer, stored=None).score_many("amber grove?", STORED_TEXTS)
        small = build_index(Corpus(list(MEMO_CORPUS)[:3]), MEMO_PROVIDER)
        scorer.provider, scorer.stored = MEMO_PROVIDER, small
        scorer.score_many("amber grove?", STORED_TEXTS)
        assert len(scorer._memo) == small.stored_count

    def test_memo_keeps_any_text_up_to_the_stored_row_count(self):
        scorer = memo_scorer()
        # every stored text kept, and every token the fresh texts use seen
        scorer.score_many("amber grove?", STORED_TEXTS + FRESH_TEXTS)
        # a text no row holds is kept while there is room, then none is
        assert len(STORED_TEXTS) < MEMO_INDEX.stored_count < \
            len(STORED_TEXTS + FRESH_TEXTS)
        assert FRESH_TEXTS[0] in scorer._memo
        assert FRESH_TEXTS[-1] not in scorer._memo
        assert len(scorer._memo) == MEMO_INDEX.stored_count
        # distinct texts of seen tokens, so no token memo grows either
        many = [" ".join(["unseen", *(WORDS[i // 15 ** j % 15]
                                      for j in range(3))])
                for i in range(3000)]
        scorer.score_many("amber grove?", many[:100])
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            for lo in range(0, len(many), 100):
                scorer.score_many("amber grove?", many[lo:lo + 100])
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        # one kept row of 6 floats for each of the 3,000 texts would be
        # well over 100 kB
        assert grown < 32_000
        assert len(scorer._memo) <= MEMO_INDEX.stored_count

    def test_warm_batch_hashes_and_embeds_nothing(self, tmp_path,
                                                  monkeypatch):
        MEMO_INDEX.save(tmp_path / "index")
        provider = CountingProvider()
        scorer = replace(memo_scorer(VectorIndex.load(tmp_path / "index")),
                         provider=provider)
        hashed = []

        def counting_hash(text):
            hashed.append(text)
            return stable_hash(text)

        monkeypatch.setattr(retrieval_module, "stable_hash", counting_hash)
        question = MEMO_PROVIDER.embed("which heron iris")
        texts = STORED_TEXTS + FRESH_TEXTS[:6]
        cold = scorer.score_many("which heron iris", texts, question)
        # each text hashed once, and only the fresh ones embedded
        assert sorted(hashed) == sorted(texts)
        assert provider.calls == [FRESH_TEXTS[:6]]
        hashed.clear()
        provider.calls.clear()
        assert scorer.score_many("which heron iris", texts, question) == cold
        assert hashed == []
        assert provider.calls == []

    def test_threads_sharing_a_scorer_score_alike(self):
        scorer = memo_scorer()
        texts = STORED_TEXTS + FRESH_TEXTS
        want = logits(memo_scorer().score_many("amber grove?", texts))
        got = []

        def serve(offset):
            # each thread asks in its own order, so they fill the memo at once
            for _ in range(30):
                rows = logits(scorer.score_many(
                    "amber grove?", texts[offset:] + texts[:offset]))
                got.append(rows[len(texts) - offset:] +
                           rows[:len(texts) - offset])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=serve, args=(offset,))
                       for offset in range(0, 20, 5)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == [want] * 120
        assert len(scorer._memo) <= MEMO_INDEX.stored_count

    def test_pair_features_embed_once_and_as_two_calls(self):
        for text in STORED_TEXTS[:3] + FRESH_TEXTS[:3]:
            provider = CountingProvider()
            got = pair_features(provider, "which heron iris", text)
            assert provider.calls == [["which heron iris", text]]
            want = np.concatenate([MEMO_PROVIDER.embed("which heron iris"),
                                   MEMO_PROVIDER.embed(text)])
            assert got.tobytes() == want.tobytes()


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
