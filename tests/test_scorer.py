import gc
import math
import sys
import threading
import time
import tracemalloc
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synthetic import (backprop_step, imbalanced_feature_pairs,
                       planted_corpus, redundant_corpus)

import leanrag.scorer as scorer_module
import leanrag.seeds as seeds_module
from leanrag.artifacts import IndexIntegrityError, check_provider
from leanrag.corpus import Corpus, QARecord, make_document
from leanrag.llm import ScriptedLlmClient
from leanrag.mlp import (Mlp, PROB_EPS, TrainingError, bce_elementwise,
                         sgd_epoch, sigmoid, stratified_split)
from leanrag.retrieval import (HashingEmbedder, Retriever, VectorIndex,
                               build_index)
from leanrag.scorer import (AnnotationError, BiLabel, EpochStats,
                            ImbalanceDegenerateError, LabeledPair, ScorerModel,
                            TrainConfig, TrainingSet, annotate_training_pair,
                            build_training_set, hyper_direction,
                            match_weights, pair_features, split_gradient_gap,
                            train_scorer, validation_blocks, validation_pass)
from leanrag.seeds import derive_rng, derive_seed


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
        after = backprop_step(self.head, params, self.x, self.y,
                              match_weights(self.matched, 0.4), 0.0)
        np.testing.assert_array_equal(params, after)

    def test_small_step_descends(self):
        params = self.head.get_params()
        weights = match_weights(self.matched, 0.4)
        before, _ = self.head.weighted_bce(params, self.x, self.y, weights,
                                           len(self.x))
        after_params = backprop_step(self.head, params, self.x, self.y,
                                     weights, 1e-4)
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

    def test_gradient_bits_equal_the_plain_backprop(self):
        head = Mlp([8, 6, 4, 2], seed=3)
        params = head.get_params()
        weights = match_weights(self.matched, 0.4)
        weights[::3] = 0.0
        # zero weights and targets of 1 make every delta -0.0; the
        # gradient still holds +0.0 only, as summing into zeros gives
        cases = [(self.y, weights), (np.ones_like(self.y), np.zeros(24))]
        for targets, weights in cases:
            loss, grad = head.weighted_bce(params, self.x, targets, weights,
                                           24)
            want_loss, want_grad = plain_weighted_bce(head, params, self.x,
                                                      targets, weights, 24)
            assert loss == want_loss
            assert grad.tobytes() == want_grad.tobytes()
        assert not np.signbit(want_grad).any()

    def test_epoch_is_its_steps_and_leaves_its_input(self):
        # 24 rows in batches of 7: three full batches and a short one
        weights = match_weights(self.matched, 0.3)
        params = self.head.get_params()
        got = sgd_epoch(self.head, params, self.x, self.y, weights, 7, 0.5,
                        np.random.default_rng(4))
        assert params.tobytes() == self.head.get_params().tobytes()
        want = params
        order = np.random.default_rng(4).permutation(24)
        for lo in range(0, 24, 7):
            batch = order[lo:lo + 7]
            want = plain_sgd_step(self.head, want, self.x[batch],
                                  self.y[batch], weights[batch], 0.5)
        assert got.tobytes() == want.tobytes()


def plain_weighted_bce(head, params, x, y, weights, normalizer):
    """The loss and gradient with a fresh array per operation, each
    gradient product summed into zeros: the reference ``Backprop`` must
    equal bit for bit."""
    layers = head._unpack(params)
    activations = [x]
    z = x
    for i, (w, b) in enumerate(layers):
        z = z @ w.T + b
        if i < len(layers) - 1:
            z = np.tanh(z)
            activations.append(z)
    probs = sigmoid(z)
    loss = float((weights * bce_elementwise(probs, y)).sum() / normalizer)
    grad = np.zeros_like(params)
    grad_layers = head._unpack(grad)
    delta = (probs - y) * weights[:, None] / normalizer
    for i in range(len(layers) - 1, -1, -1):
        gw, gb = grad_layers[i]
        gw += delta.T @ activations[i]
        gb += delta.sum(axis=0)
        if i > 0:
            delta = (delta @ layers[i][0]) * (1.0 - activations[i] ** 2)
    return loss, grad


def plain_sgd_step(head, params, x, y, weights, learning_rate):
    _, grad = plain_weighted_bce(head, params, x, y, weights, len(x))
    return params - learning_rate * grad


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
        after = backprop_step(self.head, params, x, y,
                              match_weights(matched, 0.5), self.lr)
        common, _ = hyper_direction(
            self.head, after,
            split_gradient_gap(self.head, params, x, y, matched),
            validation_blocks(self.xv, self.yv, self.mv), self.lr)
        assert abs(common) < 1e-12

    def test_direction_matches_finite_difference(self):
        params = self.head.get_params()
        weight = 0.37
        blocks = validation_blocks(self.xv, self.yv, self.mv)

        def validation_objective(w):
            stepped = backprop_step(self.head, params, self.xt, self.yt,
                                    match_weights(self.mt, w), self.lr)
            mat, mis = validation_pass(self.head, stepped, blocks)[0]
            return 0.5 * (mat + mis)

        after = backprop_step(self.head, params, self.xt, self.yt,
                              match_weights(self.mt, weight), self.lr)
        diff = split_gradient_gap(self.head, params, self.xt, self.yt,
                                  self.mt)
        common, losses = hyper_direction(self.head, after, diff, blocks,
                                         self.lr)
        # the losses of the validation pass the direction comes from
        assert losses == validation_pass(self.head, after, blocks)[0]
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
        all_matched = np.ones(len(self.xv), dtype=bool)
        with pytest.raises(ImbalanceDegenerateError):
            validation_blocks(self.xv, self.yv, all_matched)

    @pytest.mark.parametrize("flag", [True, False])
    def test_single_class_training_rejected(self, flag):
        one_class = np.full(len(self.xt), flag)
        with pytest.raises(ImbalanceDegenerateError):
            split_gradient_gap(self.head, self.head.get_params(), self.xt,
                               self.yt, one_class)


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

    def test_uneven_feature_widths_name_the_pair(self, imbalanced_pairs):
        pairs = list(imbalanced_pairs)
        uneven = pairs[7]
        pairs[7] = replace(uneven, features=uneven.features[:5])
        pairs[9] = replace(pairs[9], features=pairs[9].features[:5])
        with pytest.raises(ValueError) as excinfo:
            train_scorer(pairs, TrainConfig(epochs=1, seed=0))
        assert repr(uneven.question_id) in str(excinfo.value)
        assert repr(uneven.doc_id) in str(excinfo.value)

    def test_keeps_one_copy_of_the_features(self):
        pairs = imbalanced_feature_pairs(n_matched=2700, n_mismatched=300,
                                         dim=512, seed=13)
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            train_scorer(pairs, TrainConfig(epochs=1, seed=0),
                         hidden_sizes=(16, 8))
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        # the two splits' rows are one matrix; a (16, 8) head's gradient
        # buffers and the validation classes' copies add under half of it,
        # a second copy of the training rows alone about 0.8 of it
        matrix = 3000 * 512 * 8
        assert peak < 1.5 * matrix

    def test_gathers_each_subsample_into_one_buffer(self, monkeypatch):
        # about 2,700 training pairs above a subsample of 2,000, the same
        # branch as above the default FULL_GRAD_MAX at a tenth of the size
        monkeypatch.setattr(scorer_module, "FULL_GRAD_MAX", 2000)
        pairs = imbalanced_feature_pairs(n_matched=2700, n_mismatched=300,
                                         dim=512, seed=13)
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            train_scorer(pairs, TrainConfig(epochs=2, seed=0),
                         hidden_sizes=(16, 8))
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        # the splits' rows plus one subsample and a (16, 8) head's buffers;
        # a fresh subsample each epoch, gathered while the last is still
        # held, made two
        matrix = 3000 * 512 * 8
        subsample = 2000 * 512 * 8
        assert peak < matrix + 1.5 * subsample


def sequential_train(pairs, config, hidden_sizes):
    """``train_scorer`` on one thread, each epoch's halves one after the
    other: the steps, then the split-gradient gap at the epoch's start
    parameters, then the hypergradient at its end parameters. Returns the
    model, the balance weight and the history."""
    targets = np.array([[p.label.has_answer, p.label.llm_prefer]
                        for p in pairs], dtype=np.float64)
    matched = np.array([p.matched for p in pairs])
    train_idx, val_idx = stratified_split(
        matched, derive_rng(config.seed, "scorer.split"))
    x = np.stack([p.features for p in pairs]).astype(np.float64)
    x_t, y_t, m_t = x[train_idx], targets[train_idx], matched[train_idx]
    blocks = validation_blocks(x[val_idx], targets[val_idx],
                               matched[val_idx])
    head = Mlp([x.shape[1], *hidden_sizes, 2],
               seed=derive_seed(config.seed, "scorer.init"))
    params = head.get_params()
    weight = config.initial_weight
    batch_rng = derive_rng(config.seed, "scorer.batches")
    sample_rng = derive_rng(config.seed, "scorer.hypergrad-subsample")
    limit = scorer_module.FULL_GRAD_MAX
    history = []
    for epoch in range(1, config.epochs + 1):
        start = params
        params = sgd_epoch(head, params, x_t, y_t, match_weights(m_t, weight),
                           config.batch_size, config.learning_rate, batch_rng)
        if config.hyper_step_size == 0.0:
            losses = validation_pass(head, params, blocks)[0]
        else:
            hx, hy, hm = x_t, y_t, m_t
            if len(x_t) > limit:
                sub = np.sort(sample_rng.choice(len(x_t), limit,
                                                replace=False))
                if 0 < m_t[sub].sum() < limit:
                    hx, hy, hm = x_t[sub], y_t[sub], m_t[sub]
            diff = split_gradient_gap(head, start, hx, hy, hm)
            common, losses = hyper_direction(head, params, diff, blocks,
                                             config.learning_rate)
            weight = float(np.clip(weight - config.hyper_step_size * common,
                                   0.0, 1.0))
        history.append(EpochStats(epoch=epoch, val_matched_loss=losses[0],
                                  val_mismatched_loss=losses[1],
                                  weight=weight))
    model = ScorerModel(head=Mlp(head.layer_sizes, seed=head.seed,
                                 params=params),
                        balance_weight=weight, seed=config.seed)
    return model, weight, history


class TestSplitGradientWorker:
    """``train_scorer`` computes each epoch's split-gradient gap on a
    worker thread while the epoch's steps run."""

    @pytest.mark.parametrize("full_grad_max,hyper_step_size", [
        (10_000, 4.0),  # the gap over the whole training split
        (100, 4.0),  # over a seeded subsample of it
        (10_000, 0.0),  # no hypergradient: the worker is never used
    ])
    def test_same_as_running_the_halves_in_turn(
            self, imbalanced_pairs, small_config, tmp_path, monkeypatch,
            full_grad_max, hyper_step_size):
        monkeypatch.setattr(scorer_module, "FULL_GRAD_MAX", full_grad_max)
        config = replace(small_config, hyper_step_size=hyper_step_size)
        result = train_scorer(imbalanced_pairs, config, hidden_sizes=(16, 8))
        model, weight, history = sequential_train(imbalanced_pairs, config,
                                                  (16, 8))
        result.model.save(tmp_path / "threaded.json")
        model.save(tmp_path / "sequential.json")
        assert (tmp_path / "threaded.json").read_bytes() == \
            (tmp_path / "sequential.json").read_bytes()
        assert result.balance_weight == weight
        assert result.history == history

    def test_no_thread_outlives_a_run(self, imbalanced_pairs, small_config):
        before = threading.active_count()
        train_scorer(imbalanced_pairs, small_config, hidden_sizes=(16, 8))
        assert threading.active_count() == before

    def test_worker_error_raised(self, imbalanced_pairs, small_config,
                                 monkeypatch):
        def failing_gap(*args):
            raise ValueError("gap failed")

        monkeypatch.setattr(scorer_module, "split_gradient_gap", failing_gap)
        before = threading.active_count()
        with pytest.raises(ValueError, match="gap failed"):
            train_scorer(imbalanced_pairs, small_config, hidden_sizes=(16, 8))
        assert threading.active_count() == before

    def test_step_error_raised_once_the_worker_stops(
            self, imbalanced_pairs, small_config, monkeypatch):
        started, finished = threading.Event(), threading.Event()
        busy = []
        real_gap = scorer_module.split_gradient_gap

        def slow_gap(*args):
            started.set()
            time.sleep(0.2)
            finished.set()
            return real_gap(*args)

        def failing_epoch(*args):
            assert started.wait(timeout=10)
            busy.append(not finished.is_set())
            raise TrainingError("non-finite gradient")

        monkeypatch.setattr(scorer_module, "split_gradient_gap", slow_gap)
        monkeypatch.setattr(scorer_module, "sgd_epoch", failing_epoch)
        before = threading.active_count()
        with pytest.raises(TrainingError):
            train_scorer(imbalanced_pairs, small_config, hidden_sizes=(16, 8))
        # raised while the worker ran, and only once it had finished
        assert busy == [True]
        assert finished.is_set()
        assert threading.active_count() == before


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


def stored_corpus(seed=4, n_docs=12, prefix="d"):
    """Titled and untitled documents of 2 to 5 sentences, so that the index
    keeps document rows, titled-text rows and window rows."""
    rng = np.random.default_rng(seed)
    docs = []
    for i in range(n_docs):
        sentences = [" ".join(rng.choice(WORDS, 4)).capitalize() + "."
                     for _ in range(2 + i % 4)]
        docs.append(make_document(f"{prefix}{i:02d}",
                                  "Title" if i % 2 else "",
                                  " ".join(sentences)))
    return Corpus(docs)


def rows_of(index, corpus):
    """Each text and window of ``corpus``'s documents, by the row
    ``index`` keeps it in."""
    rows = {}
    for i, doc in enumerate(sorted(corpus, key=lambda d: d.doc_id)):
        rows.setdefault(doc.text, int(index.text_rows[i]))
        for start, text in enumerate(doc.windows):
            rows.setdefault(text, int(index.window_rows[i]) + start)
    return rows


PROVIDER = HashingEmbedder(dim=16, seed=2)
CORPUS = stored_corpus()
INDEX = build_index(CORPUS, PROVIDER)
ROW_OF = rows_of(INDEX, CORPUS)
STORED_TEXTS = sorted(ROW_OF)
STORED_ROWS = [ROW_OF[text] for text in STORED_TEXTS]
# texts no stored row holds: an edited document, ad-hoc text
FRESH_TEXTS = [f"{a} {b} unseen" for a in WORDS[:4] for b in WORDS[4:7]]


class CountingProvider:
    """``PROVIDER``, recording the texts of each ``embed_many``."""

    dim = PROVIDER.dim
    fingerprint = PROVIDER.fingerprint

    def __init__(self):
        self.calls = []

    def embed(self, text):
        return self.embed_many([text])[0]

    def embed_many(self, texts):
        self.calls.append(list(texts))
        return PROVIDER.embed_many(texts)


def new_scorer(seed=3, provider=PROVIDER):
    """A scorer with its own head and an empty cache."""
    return ScorerModel(head=Mlp([2 * provider.dim, 6, 4, 2], seed=seed),
                       balance_weight=0.5, seed=0, provider=provider,
                       provider_fingerprint=provider.fingerprint)


def score_rows(scorer, question, texts, question_embedding=None):
    """``score_arrays`` as one (logit_ans, logit_pref, p_ans, p_pref) tuple
    per text, so that rows compare bit for bit with ``astuple`` of
    ``ScorerModel.score``."""
    return [tuple(row) for row in np.hstack(scorer.score_arrays(
        question, texts, question_embedding)).tolist()]


def score_stored(scorer, question, rows, question_embedding=None,
                 index=INDEX):
    """``score_rows`` of ``index``'s ``rows``, as ``score_rows`` gives
    them for texts."""
    return [tuple(row) for row in np.hstack(scorer.score_rows(
        question, index, np.asarray(rows, dtype=np.intp),
        question_embedding)).tolist()]


def logits(rows):
    return [row[:2] for row in rows]


def cache_consistent(scorer):
    """The cache's filled slots are 0 to ``used`` - 1, each once."""
    cache = scorer._cache
    slots = cache.slots[cache.slots >= 0]
    return sorted(slots.tolist()) == list(range(cache.used))


texts_strategy = st.lists(st.sampled_from(STORED_TEXTS + FRESH_TEXTS),
                          min_size=1, max_size=12)
stored_strategy = st.lists(st.sampled_from(STORED_TEXTS), min_size=1,
                           max_size=12)
question_strategy = st.sampled_from(["amber grove?", "which heron iris",
                                     "kelp onyx lotus nectar"])


class TestFactoredScoring:
    """The first layer splits into a question half, computed per call, and
    a document half: from the text's vector in ``score_arrays``, and kept
    per stored row in ``score_rows``."""

    def test_every_text_kind_is_exercised(self):
        # the rows read include document rows and rows after them (titled
        # texts and windows), and only the texts reach the provider
        assert min(STORED_ROWS) < len(INDEX) <= max(STORED_ROWS)
        provider = CountingProvider()
        scorer = new_scorer(provider=provider)
        question = PROVIDER.embed("amber grove?")
        score_stored(scorer, "amber grove?", STORED_ROWS, question)
        score_rows(scorer, "amber grove?", FRESH_TEXTS, question)
        assert provider.calls == [FRESH_TEXTS]

    @settings(max_examples=40, deadline=None)
    @given(question=question_strategy, texts=texts_strategy)
    def test_logits_match_forward_on_features(self, question, texts):
        scorer = new_scorer()
        features = np.stack([pair_features(PROVIDER, question, text)
                             for text in texts])
        want = scorer.head.forward_logits(features)
        got = np.array(logits(score_rows(scorer, question, texts)))
        assert np.abs(got - want).max() <= 1e-12
        stored = [i for i, text in enumerate(texts) if text in ROW_OF]
        rows = [ROW_OF[texts[i]] for i in stored]
        for _ in range(2 if rows else 0):  # cold cache, then warm
            got = np.array(logits(score_stored(scorer, question, rows)))
            assert np.abs(got - want[stored]).max() <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(question=question_strategy, texts=stored_strategy,
           data=st.data())
    def test_identical_texts_tie_cold_and_warm(self, question, texts, data):
        batch = texts + data.draw(st.permutations(texts))
        rows = [ROW_OF[text] for text in batch]
        scorer = new_scorer()
        cold = score_stored(scorer, question, rows)
        warm = score_stored(scorer, question, rows)
        assert cold == warm == score_rows(scorer, question, batch)
        for i, text in enumerate(batch):
            assert cold[i] == cold[batch.index(text)]

    @settings(max_examples=40, deadline=None)
    @given(question=question_strategy, texts=stored_strategy,
           batch_first=st.booleans())
    def test_batch_equals_one_call_per_text(self, question, texts,
                                            batch_first):
        scorer = new_scorer()
        rows = [ROW_OF[text] for text in texts]
        if batch_first:
            batch = score_stored(scorer, question, rows)
            single = [score_stored(scorer, question, [row])[0]
                      for row in rows]
        else:
            single = [score_stored(scorer, question, [row])[0]
                      for row in rows]
            batch = score_stored(scorer, question, rows)
        assert batch == single
        # and as each text scores on its own
        assert batch == [astuple(scorer.score(question, text))
                         for text in texts]

    def test_another_head_takes_effect(self):
        """A copy built with another head scores by that head, not from
        the rows the original kept."""
        scorer = new_scorer()
        before = score_stored(scorer, "amber grove?", STORED_ROWS)
        params = np.random.default_rng(6).standard_normal(
            scorer.head.get_params().shape)
        sizes = scorer.head.layer_sizes
        copy = replace(scorer, head=Mlp(sizes, params=params))
        after = score_stored(copy, "amber grove?", STORED_ROWS)
        fresh = replace(new_scorer(), head=Mlp(sizes, params=params))
        assert after == score_rows(fresh, "amber grove?", STORED_TEXTS)
        assert after != before
        assert score_stored(scorer, "amber grove?", STORED_ROWS) == before

    def test_copy_bound_to_another_index_reads_its_rows(self):
        """A ``dataclasses.replace`` copy starts with no cache; given
        another index, it keeps that index's rows, and the original keeps
        its own."""
        scorer = new_scorer()
        score_stored(scorer, "amber grove?", STORED_ROWS)
        copy = replace(scorer)
        assert copy._cache is None
        # the same texts, at other rows of another index
        corpus = Corpus([*stored_corpus(seed=9, n_docs=5, prefix="a"),
                         *CORPUS])
        other = build_index(corpus, PROVIDER)
        rows = rows_of(other, corpus)
        assert [rows[text] for text in STORED_TEXTS] != STORED_ROWS
        assert score_stored(copy, "amber grove?",
                            [rows[text] for text in STORED_TEXTS],
                            index=other) == \
            score_rows(scorer, "amber grove?", STORED_TEXTS)
        assert copy._cache.index is other and scorer._cache.index is INDEX

    def test_index_of_another_provider_raises(self):
        """An index of the same width built with another provider is
        refused when its cache is made, not scored with mixed halves."""
        other = build_index(CORPUS, HashingEmbedder(dim=16, seed=5))
        scorer = new_scorer()
        with pytest.raises(IndexIntegrityError, match="index built with"):
            score_stored(scorer, "amber grove?", [0], index=other)
        assert scorer._cache is None

    def test_cache_follows_the_head_and_the_index(self):
        scorer = new_scorer()
        want = score_stored(scorer, "amber grove?", STORED_ROWS)
        cache = scorer._cache
        assert cache.used == len(set(STORED_ROWS))
        # another provider object of the same fingerprint reads the same
        # rows, from the same cache
        scorer.provider = HashingEmbedder(dim=16, seed=2)
        assert score_stored(scorer, "amber grove?", STORED_ROWS) == want
        assert scorer._cache is cache
        # reading another index empties it
        small = build_index(Corpus(list(CORPUS)[:3]), PROVIDER)
        score_stored(scorer, "amber grove?", [0, 1], index=small)
        assert scorer._cache is not cache
        assert len(scorer._cache.slots) == len(small.rows)
        assert scorer._cache.used == 2
        # and so does another head, even of the same parameters
        cache = scorer._cache
        scorer.head = Mlp(scorer.head.layer_sizes,
                          params=scorer.head.get_params())
        score_stored(scorer, "amber grove?", [0], index=small)
        assert scorer._cache is not cache
        assert scorer._cache.used == 1

    def test_cache_holds_only_rows_read(self):
        scorer = new_scorer()
        score_stored(scorer, "amber grove?", STORED_ROWS[:5] * 2)
        assert scorer._cache.used == 5
        assert len(scorer._cache.products) < len(INDEX.rows)
        assert cache_consistent(scorer)
        # texts scored by text are kept nowhere: distinct texts of seen
        # tokens, so no token memo grows either
        many = [" ".join(["unseen", *(WORDS[i // 15 ** j % 15]
                                      for j in range(3))])
                for i in range(3000)]
        score_rows(scorer, "amber grove?", many[:100])
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            for lo in range(0, len(many), 100):
                score_rows(scorer, "amber grove?", many[lo:lo + 100])
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        # one kept row of 6 floats for each of the 3,000 texts would be
        # well over 100 kB
        assert grown < 32_000
        assert scorer._cache.used == 5

    def test_warm_batch_hashes_and_embeds_nothing(self, tmp_path,
                                                  monkeypatch):
        INDEX.save(tmp_path / "index")
        provider = CountingProvider()
        scorer = new_scorer(provider=provider)
        loaded = VectorIndex.load(tmp_path / "index")

        def no_hash(text):
            raise AssertionError(f"hashed {text!r}")

        monkeypatch.setattr(seeds_module, "stable_hash", no_hash)
        question = PROVIDER.embed("which heron iris")
        cold = score_stored(scorer, "which heron iris", STORED_ROWS,
                            question, loaded)
        assert provider.calls == []
        assert score_stored(scorer, "which heron iris", STORED_ROWS,
                            question, loaded) == cold
        assert provider.calls == []
        assert cold == score_rows(new_scorer(), "which heron iris",
                                  STORED_TEXTS, question)

    def test_a_row_kept_meanwhile_keeps_one_slot(self):
        """A call that finds rows missing while another call keeps some of
        them keeps each row in one slot, so that no later product
        overwrites a kept one."""
        scorer = new_scorer()
        want = score_stored(new_scorer(), "amber grove?", STORED_ROWS)
        score_stored(scorer, "amber grove?", STORED_ROWS[3:4])
        cache = scorer._cache
        lock = cache._lock

        class Meanwhile:
            """The cache's lock, taken by another call first, once: that
            call keeps some of this call's rows between its look-up and
            its write."""

            def __enter__(self):
                cache._lock = lock
                score_stored(scorer, "amber grove?", STORED_ROWS[:2])
                return lock.__enter__()

            def __exit__(self, *exc):
                return lock.__exit__(*exc)

        cache._lock = Meanwhile()
        score_stored(scorer, "amber grove?", STORED_ROWS[:3])
        assert scorer._cache is cache and cache._lock is lock
        assert cache.used == 4
        assert score_stored(scorer, "amber grove?", STORED_ROWS) == want
        assert cache_consistent(scorer)
        assert cache.used == len(set(STORED_ROWS))

    def test_threads_sharing_a_scorer_score_alike(self):
        scorer = new_scorer()
        rows = STORED_ROWS
        want = logits(score_stored(new_scorer(), "amber grove?", rows))
        got = []

        def serve(offset):
            # each thread asks in its own order, so they fill the cache at
            # once
            for _ in range(30):
                scored = logits(score_stored(
                    scorer, "amber grove?", rows[offset:] + rows[:offset]))
                got.append(scored[len(rows) - offset:] +
                           scored[:len(rows) - offset])

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
        assert cache_consistent(scorer)
        assert scorer._cache.used == len(set(rows))

    @pytest.mark.parametrize("make", [
        lambda: planted_corpus()[0], lambda: redundant_corpus()[0],
        stored_corpus], ids=["planted", "redundant", "stored"])
    def test_rows_score_as_their_texts_on_every_corpus(self, make):
        """Each document's text row and window rows score bit for bit as
        their texts, cold and warm: untitled documents of one window
        (planted), titled ones of several (redundant), and both kinds
        mixed, of 2 to 5 sentences (stored)."""
        corpus = make()
        index = build_index(corpus, PROVIDER)
        scorer = new_scorer()
        docs = sorted(corpus, key=lambda d: d.doc_id)
        counts = [len(doc.windows) for doc in docs]
        question = PROVIDER.embed("amber quixilshared capital?")
        texts = [doc.text for doc in docs]
        windows = [text for doc in docs for text in doc.windows]
        rows = np.concatenate([np.arange(n) + index.window_rows[i]
                               for i, n in enumerate(counts)])
        for cold_and_warm in range(2):
            for stored, by_text in (
                    (scorer.score_rows("", index, index.text_rows, question),
                     scorer.score_arrays("", texts, question)),
                    (scorer.score_rows("", index, rows, question),
                     scorer.score_arrays("", windows, question))):
                for got, want in zip(stored, by_text):
                    assert got.tobytes() == want.tobytes()

    def test_pair_features_embed_once_and_as_two_calls(self):
        for text in STORED_TEXTS[:3] + FRESH_TEXTS[:3]:
            provider = CountingProvider()
            got = pair_features(provider, "which heron iris", text)
            assert provider.calls == [["which heron iris", text]]
            want = np.concatenate([PROVIDER.embed("which heron iris"),
                                   PROVIDER.embed(text)])
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
