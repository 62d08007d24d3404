"""Acceptance gate: one test per criterion, each printing a pass line and
enforcing its runtime budget. Everything runs on the scripted mock LLM and
the hashing embedder; no network access.
"""

import time

import numpy as np
import pytest

from synthetic import (imbalanced_feature_pairs, planted_corpus,
                       prefix_detector_examples, redundant_corpus,
                       scored_subdoc, trained_redundant_setup,
                       window_training_pairs)

from leanrag.llm import build_noretrieve_prompt
from leanrag.mlp import Mlp, sgd_step
from leanrag.pipeline import PipelineContext, evaluate, ordered_docs
from leanrag.recognizer import (Decision, NnReferenceSet, RecognizerConfig,
                                decide)
from leanrag.reducer import (DetectorExample, DetectorModel,
                             DetectorTrainConfig, build_detector_dataset,
                             combination_features, greedy_filter, jaccard,
                             skyline_filter, train_detector)
from leanrag.retrieval import HashingEmbedder, Retriever, build_index, recall_at_k
from leanrag.scorer import (TrainConfig, build_training_set, hyper_direction,
                            match_weights, split_losses, train_scorer)
from leanrag.seeds import derive_rng


def passed(number, message):
    print(f"ACCEPTANCE {number} PASS: {message}")


def budget(number, started, limit_seconds):
    elapsed = time.monotonic() - started
    assert elapsed < limit_seconds, (
        f"criterion {number} took {elapsed:.1f}s, budget {limit_seconds}s")
    return elapsed


# -------------------------------------------------------------------- shared


@pytest.fixture(scope="module")
def redundant_setup():
    return trained_redundant_setup()


@pytest.fixture(scope="module")
def redundant_detector(redundant_setup):
    return train_detector(
        prefix_detector_examples(redundant_setup),
        DetectorTrainConfig(learning_rate=0.25, epochs=300, seed=5))


def redundant_ctx(setup, detector, recognizer=None, all_known=False):
    corpus, qa, mock, provider, retriever, scorer = setup
    reference = NnReferenceSet(
        [q.question_id for q in qa],
        provider.embed_many([q.question for q in qa]),
        [all_known] * len(qa), provider.fingerprint)
    return PipelineContext(
        retriever=retriever, scorer=scorer,
        recognizer_config=recognizer or RecognizerConfig(s_n=1.0,
                                                         k_neighbors=2),
        llm=mock, detector=detector, nn_reference=reference,
        top_retrieve=10, top_rerank=10, seed=0)


# -------------------------------------------------------- criterion 1


def test_criterion_1_gradient_correctness():
    """Analytic gradients match central finite differences: every head
    parameter within relative 1e-4, the balance-weight hypergradient within
    relative 1e-3."""
    started = time.monotonic()
    head = Mlp([16, 10, 6, 2], seed=21)
    rng = np.random.default_rng(22)
    n = 40
    x = rng.standard_normal((n, 16))
    y = (rng.random((n, 2)) < 0.5).astype(float)
    y[0] = [1, 1]
    y[1] = [1, 0]
    matched = y[:, 0] == y[:, 1]
    weight = 0.37
    params = head.get_params()
    weights = match_weights(matched, weight)
    _, grad = head.weighted_bce(params, x, y, weights, n)
    h = 1e-5
    worst = 0.0
    for i in range(params.size):
        up, down = params.copy(), params.copy()
        up[i] += h
        down[i] -= h
        lu, _ = head.weighted_bce(up, x, y, weights, n)
        ld, _ = head.weighted_bce(down, x, y, weights, n)
        fd = (lu - ld) / (2 * h)
        rel = abs(fd - grad[i]) / max(abs(fd), abs(grad[i]), 1e-6)
        worst = max(worst, rel)
        assert rel < 1e-4, f"parameter {i}: rel error {rel:.2e}"

    xv = rng.standard_normal((24, 16))
    yv = (rng.random((24, 2)) < 0.5).astype(float)
    yv[0] = [1, 1]
    yv[1] = [0, 1]
    mv = yv[:, 0] == yv[:, 1]
    lr = 0.05
    after = sgd_step(head, params, x, y, weights, lr)
    common = hyper_direction(head, params, after, x, y, matched,
                             xv, yv, mv, lr)

    def objective(w):
        stepped = sgd_step(head, params, x, y, match_weights(matched, w), lr)
        mat, mis = split_losses(head, stepped, xv, yv, mv)
        return 0.5 * (mat + mis)

    delta = 1e-4
    fd = (objective(weight + delta) - objective(weight - delta)) / (2 * delta)
    hyper_rel = abs(common - fd) / max(abs(fd), 1e-12)
    assert hyper_rel < 1e-3, f"hypergradient rel error {hyper_rel:.2e}"

    elapsed = budget(1, started, 30)
    passed(1, f"all {params.size} parameter gradients within 1e-4 "
              f"(worst {worst:.2e}); hypergradient within 1e-3 "
              f"({hyper_rel:.2e}); {elapsed:.1f}s")


# -------------------------------------------------------- criterion 2


def test_criterion_2_imbalance_learning_efficacy():
    """On a 10:1 matched:mismatched synthetic set, learned-weight training
    beats the fixed-0.5 baseline and lands within 5% of the best fixed
    weight over an 11-point grid, each grid point fully trained."""
    started = time.monotonic()
    pairs = imbalanced_feature_pairs(n_matched=1000, n_mismatched=100,
                                     dim=8, seed=13)
    base = dict(learning_rate=0.08, epochs=20, batch_size=16, seed=5)

    def objective(result):
        final = result.history[-1]
        return 0.5 * (final.val_matched_loss + final.val_mismatched_loss)

    learned = train_scorer(pairs, TrainConfig(hyper_step_size=4.0, **base),
                           hidden_sizes=(16, 8))
    learned_objective = objective(learned)
    assert learned.balance_weight < 0.5

    fixed_half = objective(train_scorer(
        pairs, TrainConfig(hyper_step_size=0.0, **base), hidden_sizes=(16, 8)))
    assert learned_objective <= fixed_half + 1e-6

    grid = {}
    for weight in [i / 10 for i in range(11)]:
        grid[weight] = objective(train_scorer(
            pairs, TrainConfig(hyper_step_size=0.0, initial_weight=weight,
                               **base), hidden_sizes=(16, 8)))
    best_weight, best_objective = min(grid.items(), key=lambda kv: kv[1])
    assert learned_objective <= 1.05 * best_objective, (
        f"learned {learned_objective:.4f} vs grid best {best_objective:.4f} "
        f"at w={best_weight}")

    elapsed = budget(2, started, 120)
    passed(2, f"learned w={learned.balance_weight:.3f} objective "
              f"{learned_objective:.4f} <= fixed-0.5 {fixed_half:.4f} and "
              f"within 5% of grid best {best_objective:.4f} (w={best_weight});"
              f" {elapsed:.1f}s")


# -------------------------------------------------------- criterion 3


def test_criterion_3_reranking_efficacy():
    """Planted 500-doc corpus, 50 questions: reranking by the summed scores
    never loses to raw similarity at recall@10 and strictly wins on the
    adversarial subset; recall@K is monotone for every ordering."""
    started = time.monotonic()
    corpus, qa, mock, adversarial = planted_corpus()
    assert len(corpus) == 500 and len(qa) == 50
    provider = HashingEmbedder(dim=192, seed=2)
    retriever = Retriever(corpus, build_index(corpus, provider), provider)

    training = build_training_set(qa, retriever, mock, per_question_k=50)
    result = train_scorer(training, TrainConfig(
        learning_rate=0.2, hyper_step_size=0.5, epochs=25, batch_size=16,
        seed=9), hidden_sizes=(48, 24), provider=provider)
    scorer = result.model

    scored_by_question = {}
    for q in qa:
        results = retriever.retrieve(q.question, 100)
        scored_by_question[q.question_id] = [
            (r, scorer.score(q.question, r.doc.text)) for r in results]

    def mean_recall(ordering, k, subset=None):
        total, count = 0.0, 0
        for q in qa:
            if subset is not None and q.question_id not in subset:
                continue
            docs = ordered_docs(scored_by_question[q.question_id], ordering)
            total += recall_at_k(docs, q.gold_answers, min(k, len(docs)))
            count += 1
        return total / count

    similarity_10 = mean_recall("similarity", 10)
    bilabel_10 = mean_recall("bilabel_sum", 10)
    assert bilabel_10 >= similarity_10
    adv = set(adversarial)
    similarity_adv = mean_recall("similarity", 10, adv)
    bilabel_adv = mean_recall("bilabel_sum", 10, adv)
    assert bilabel_adv > similarity_adv, (
        f"adversarial: {bilabel_adv:.3f} vs {similarity_adv:.3f}")

    for ordering in ("similarity", "has_answer_only", "llm_prefer_only",
                     "bilabel_sum"):
        series = [mean_recall(ordering, k) for k in (1, 5, 10, 20, 100)]
        assert series == sorted(series), f"{ordering} not monotone: {series}"

    elapsed = budget(3, started, 120)
    passed(3, f"recall@10 bilabel {bilabel_10:.3f} >= similarity "
              f"{similarity_10:.3f}; adversarial {bilabel_adv:.3f} > "
              f"{similarity_adv:.3f}; all orderings monotone; {elapsed:.1f}s")


# -------------------------------------------------------- criterion 4


def test_criterion_4_token_reduction(redundant_setup, redundant_detector):
    """Redundant corpus (10 docs x 12 sentences, answer in one window):
    the reducer cuts mean prompt tokens to <= 60% of the no-reducer ablation
    without changing mock-LLM accuracy."""
    started = time.monotonic()
    qa = redundant_setup[1]
    ctx = redundant_ctx(redundant_setup, redundant_detector)
    reduced = evaluate(qa, ctx)
    full = evaluate(qa, ctx, ablations={"no_reducer"})
    assert reduced.accuracy == full.accuracy, "accuracy must be unchanged"
    ratio = reduced.mean_prompt_tokens / full.mean_prompt_tokens
    assert ratio <= 0.6, f"token ratio {ratio:.3f} exceeds 0.6"
    for mine, theirs in zip(reduced.per_question, full.per_question):
        assert mine["prompt_tokens"] <= theirs["prompt_tokens"]

    elapsed = budget(4, started, 180)
    passed(4, f"mean prompt tokens {reduced.mean_prompt_tokens:.1f} vs "
              f"{full.mean_prompt_tokens:.1f} (ratio {ratio:.3f} <= 0.6), "
              f"accuracy {reduced.accuracy:.2f} == {full.accuracy:.2f}; "
              f"{elapsed:.1f}s")


# -------------------------------------------------------- criterion 5


def test_criterion_5_greedy_filter_minimality():
    """Over >= 100 random detector/score configurations with <= 6
    sub-documents, the greedy stop index equals the brute-force smallest
    accepted prefix, and accepted prefixes of size >= 2 fail when truncated."""
    started = time.monotonic()
    rng = derive_rng(0, "acceptance-greedy")
    checked = 0
    truncation_checks = 0
    trial = 0
    while checked < 120:
        trial += 1
        n = int(rng.integers(1, 7))
        subs = [scored_subdoc(f"t{trial}s{i}", float(rng.random()),
                              float(rng.random())) for i in range(n)]
        detector = DetectorModel(max_docs=6, hidden_sizes=(8, 6),
                                 seed=int(rng.integers(0, 100_000)))
        combination = greedy_filter(subs, detector)
        accepted_sizes = [
            size for size in range(1, n + 1)
            if detector.predict(combination_features(subs[:size], 6))[0] == 1
        ]
        if accepted_sizes:
            assert len(combination) == accepted_sizes[0]
            if len(combination) >= 2:
                fired, _ = detector.predict(combination_features(
                    subs[:len(combination) - 1], 6))
                assert fired == 0
                truncation_checks += 1
        else:
            assert len(combination) == n  # fallback: everything returned
        checked += 1

    elapsed = budget(5, started, 30)
    passed(5, f"{checked} random configurations agree with brute force; "
              f"{truncation_checks} truncation re-queries all negative; "
              f"{elapsed:.1f}s")


# -------------------------------------------------------- criterion 6


def test_criterion_6_recognizer_branches(redundant_setup, redundant_detector):
    """With thresholds forcing No_Retrieve everywhere, no retrieval prompt is
    issued and mean prompt tokens equal the no-retrieve template's count;
    the facet boundary is strict."""
    started = time.monotonic()
    corpus, qa, mock, provider, retriever, scorer = redundant_setup
    ctx = redundant_ctx(
        redundant_setup, redundant_detector, all_known=True,
        recognizer=RecognizerConfig(delta_ltod=-1e9, s_l=0.0, s_n=0.0,
                                    k_neighbors=2))
    before = len(mock.transcript)
    report = evaluate(qa, ctx)
    assert report.retrieval_skip_rate == 1.0
    issued = [prompt for prompt, _ in mock.transcript[before:]]
    assert all("Passages:" not in prompt for prompt in issued)
    expected = np.mean([build_noretrieve_prompt(q.question).token_count
                        for q in qa])
    assert report.mean_prompt_tokens == expected

    # strict boundary: s_nn exactly at the threshold must not skip
    config = RecognizerConfig()  # defaults: s_l=0.04, s_n=0.67
    assert decide(0.05, 0.67, config).decision is Decision.RETRIEVE
    assert decide(0.04, 0.99, config).decision is Decision.RETRIEVE
    assert decide(0.05, 0.70, config).decision is Decision.NO_RETRIEVE

    elapsed = budget(6, started, 10)
    passed(6, f"all verdicts No_Retrieve, zero passage prompts, mean tokens "
              f"{report.mean_prompt_tokens:.1f} == no-retrieve count "
              f"{expected:.1f}; boundary strict; {elapsed:.1f}s")


# -------------------------------------------------------- criterion 7


def test_criterion_7_determinism():
    """Two full evaluation runs, each rebuilt from scratch with the same
    seeds, configs, and mock script, serialize to identical bytes."""
    started = time.monotonic()

    def full_run():
        setup = trained_redundant_setup()
        detector = train_detector(
            prefix_detector_examples(setup, n_random=20),
            DetectorTrainConfig(learning_rate=0.25, epochs=200, seed=5))
        ctx = redundant_ctx(setup, detector)
        return evaluate(setup[1], ctx).to_json()

    first = full_run()
    second = full_run()
    assert first.encode() == second.encode()

    elapsed = budget(7, started, 60)
    passed(7, f"two from-scratch eval runs byte-identical "
              f"({len(first)} bytes); {elapsed:.1f}s")


# -------------------------------------------------------- criterion 8


def test_criterion_8_skyline_and_overlap():
    """build_detector_dataset output: per question, an O(n^2) scan finds no
    Pareto-dominated combination and no kept pair with Jaccard above 0.8."""
    started = time.monotonic()
    corpus, qa, mock = redundant_corpus()
    provider = HashingEmbedder(dim=128, seed=11)
    retriever = Retriever(corpus, build_index(corpus, provider), provider)
    # a lightly trained scorer leaves realistic noise in the combination
    # scores, which keeps the skylines from collapsing to single points
    weak = train_scorer(
        window_training_pairs(corpus, qa, mock, provider),
        TrainConfig(learning_rate=0.1, hyper_step_size=0.0, epochs=6,
                    batch_size=16, seed=4),
        hidden_sizes=(32, 16), provider=provider).model
    dataset = build_detector_dataset(qa, retriever, weak, mock, max_docs=10,
                                     top_retrieve=10,
                                     samples_per_question=200, seed=7)
    assert dataset, "detector dataset must be non-empty"

    by_question: dict[str, list[DetectorExample]] = {}
    for example in dataset:
        by_question.setdefault(example.question_id, []).append(example)
    pair_scans = 0
    for examples in by_question.values():
        points = [(e.mean_ans, e.mean_pref) for e in examples]
        assert sorted(skyline_filter(points)) == list(range(len(points))), (
            "dominated combination survived the skyline filter")
        sets = [frozenset(e.member_ids) for e in examples]
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                assert jaccard(sets[i], sets[j]) <= 0.8
                pair_scans += 1

    elapsed = budget(8, started, 30)
    passed(8, f"{len(dataset)} combinations over {len(by_question)} "
              f"questions: no dominated point, no overlapping pair "
              f"({pair_scans} pairs scanned); {elapsed:.1f}s")
