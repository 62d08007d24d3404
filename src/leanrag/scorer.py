"""Two-headed document scorer and its imbalance-aware training loop.

A frozen embedding provider turns (question, document) into features; a small
MLP head emits two logits — answer presence and LLM preference. A retrieved
document's vector is not embedded again: it is its row of the index its
scan searched (``ScorerModel.score_rows``), and the head's product with it
is kept per row. Training pairs
whose two labels agree ("matched") vastly outnumber the rest, so each
example's loss is weighted f(w) = w for matched, 1 - w for mismatched, and w
itself is learned by hypergradient descent: after each parameter update the
derivative of the held-out validation objective with respect to w is followed
downhill.
"""

from __future__ import annotations

import logging
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import artifacts
from .corpus import Document, QARecord, contains_answer
from .llm import LlmClient, PromptTemplate, build_retrieve_prompt, is_correct
from .mlp import Backprop, Mlp, sgd_epoch, sigmoid, stratified_split
from .retrieval import (INDEX_FIELDS, Candidates, EmbeddingProvider,
                        RetrievedDoc, Retriever, VectorIndex)
from .seeds import derive_rng, derive_seed

logger = logging.getLogger(__name__)

DEFAULT_HIDDEN_SIZES = (64, 32)
# above this many training pairs the hypergradient's full-split gradients
# are evaluated on a fixed seeded subsample per epoch
FULL_GRAD_MAX = 10_000


class AnnotationError(RuntimeError):
    def __init__(self, question_id: str, doc_id: str, cause: Exception):
        super().__init__(f"annotation failed for question {question_id!r}, "
                         f"doc {doc_id!r}: {cause}")
        self.question_id = question_id
        self.doc_id = doc_id
        self.cause = cause


class ImbalanceDegenerateError(ValueError):
    """Training data (or a validation split) lacks matched or mismatched pairs."""


@dataclass(frozen=True)
class BiLabel:
    has_answer: int
    llm_prefer: int

    def __post_init__(self):
        for value in (self.has_answer, self.llm_prefer):
            if value not in (0, 1):
                raise ValueError(f"labels must be 0 or 1, got {value!r}")

    @property
    def matched(self) -> bool:
        return self.has_answer == self.llm_prefer


@dataclass(frozen=True)
class BiLabelScore:
    logit_ans: float
    logit_pref: float
    p_ans: float
    p_pref: float

    @property
    def combined(self) -> float:
        return self.p_ans + self.p_pref


class ScoredCandidates:
    """Candidates and their scores, row i for the candidate of rank i + 1:
    ``logits`` and ``probs`` of shape (n, 2), columns (answer, preference),
    and ``combined``, p_ans + p_pref, the one IEEE add that
    ``BiLabelScore.combined`` makes. The recognizer, the reducer and the
    evaluation read the arrays; ``score`` builds one row's
    ``BiLabelScore``."""

    def __init__(self, candidates: Candidates, logits: np.ndarray,
                 probs: np.ndarray):
        self.candidates = candidates
        self.logits = logits
        self.probs = probs
        self.combined = probs[:, 0] + probs[:, 1]

    @classmethod
    def of(cls, scored: ScoredCandidates
           | Iterable[tuple[RetrievedDoc, BiLabelScore]]) -> ScoredCandidates:
        """``scored`` itself, or its (``RetrievedDoc``, ``BiLabelScore``)
        pairs in rank order, read into arrays."""
        if isinstance(scored, cls):
            return scored
        pairs = sorted(scored, key=lambda pair: pair[0].rank)
        rows = np.array([(r.similarity, s.logit_ans, s.logit_pref, s.p_ans,
                          s.p_pref) for r, s in pairs]).reshape(-1, 5)
        return cls(Candidates([r.doc for r, _ in pairs], rows[:, 0]),
                   rows[:, 1:3], rows[:, 3:])

    def __len__(self) -> int:
        return len(self.candidates)

    def score(self, row: int) -> BiLabelScore:
        return BiLabelScore(*self.logits[row].tolist(),
                            *self.probs[row].tolist())


def index_rows(candidates: Candidates) -> tuple[VectorIndex, np.ndarray]:
    """The index the candidates' scan searched and their rows of it;
    ``ValueError`` for candidates built from pairs (``ScoredCandidates.of``)."""
    if candidates.index is None:
        raise ValueError("candidates have no index rows to score by; only "
                         "a Retriever's candidates can be scored")
    return candidates.index, candidates.rows


def score_candidates(scorer: ScorerModel, question: str,
                     candidates: Candidates,
                     question_embedding: np.ndarray | None = None
                     ) -> ScoredCandidates:
    """Every candidate scored in one call, by its text's row of the index
    its scan searched (``index_rows``)."""
    index, rows = index_rows(candidates)
    return ScoredCandidates(candidates, *scorer.score_rows(
        question, index, index.text_rows[rows], question_embedding))


@dataclass
class LabeledPair:
    question_id: str
    doc_id: str
    features: np.ndarray
    label: BiLabel
    matched: bool

    def __post_init__(self):
        if self.matched != self.label.matched:
            raise ValueError("matched flag inconsistent with label")


@dataclass
class TrainingSet:
    """Annotated pairs plus the imbalance bookkeeping the trainer needs."""

    pairs: list[LabeledPair]
    annotation_failures: int = 0

    @property
    def matched_count(self) -> int:
        return sum(1 for p in self.pairs if p.matched)

    @property
    def mismatched_count(self) -> int:
        return len(self.pairs) - self.matched_count

    @property
    def imbalance_ratio(self) -> float:
        """matched : mismatched ratio (inf when nothing is mismatched)."""
        mismatched = self.mismatched_count
        if mismatched == 0:
            return float("inf")
        return self.matched_count / mismatched

    def save(self, path: str | Path) -> None:
        artifacts.save(path, "training-set", {
            "question_ids": [p.question_id for p in self.pairs],
            "doc_ids": [p.doc_id for p in self.pairs],
            "has_answer": [p.label.has_answer for p in self.pairs],
            "llm_prefer": [p.label.llm_prefer for p in self.pairs],
        }, {"features": [p.features for p in self.pairs]})

    @classmethod
    @artifacts.loader
    def load(cls, path: str | Path) -> "TrainingSet":
        meta, arrays = artifacts.load(
            path, "training-set", question_ids=artifacts.STRINGS,
            doc_ids=artifacts.STRINGS, has_answer=artifacts.LABELS,
            llm_prefer=artifacts.LABELS)
        return cls(pairs=[
            LabeledPair(q, d, f, BiLabel(a, p), matched=a == p)
            for q, d, f, a, p in zip(
                meta["question_ids"], meta["doc_ids"], arrays["features"],
                meta["has_answer"], meta["llm_prefer"], strict=True)])


def pair_features(provider: EmbeddingProvider, question: str,
                  doc_text: str) -> np.ndarray:
    """Question embedding concatenated with the document-text embedding,
    both embedded in one call."""
    return np.concatenate(provider.embed_many([question, doc_text]))


def annotate_training_pair(qa: QARecord, doc: Document, llm: LlmClient,
                           template: PromptTemplate | None = None) -> BiLabel:
    """Label one (question, document) pair.

    has_answer: the document text contains a gold answer. llm_prefer: the LLM
    answers correctly when the document is appended to the question.
    """
    has_answer = int(contains_answer(doc.text, qa.gold_answers))
    request = build_retrieve_prompt(qa.question, [doc.text], template)
    try:
        response = llm.complete(request)
    except Exception as exc:
        raise AnnotationError(qa.question_id, doc.doc_id, exc) from exc
    llm_prefer = int(is_correct(response.text, qa.gold_answers))
    return BiLabel(has_answer=has_answer, llm_prefer=llm_prefer)


def build_training_set(qa_records: Sequence[QARecord], retriever: Retriever,
                       llm: LlmClient, per_question_k: int,
                       template: PromptTemplate | None = None) -> TrainingSet:
    """Retrieve top-k documents per question and annotate every pair. A
    document's vector is its text's stored row of the retriever's index.

    Individual annotation failures are logged and counted, not fatal.
    """
    index = retriever.index
    pairs: list[LabeledPair] = []
    failures = 0
    for qa in qa_records:
        question_vec = retriever.provider.embed(qa.question)
        results = retriever.retrieve(qa.question, per_question_k, question_vec)
        doc_vectors = index.rows.dense(index.text_rows[results.rows])
        for doc, doc_vec in zip(results.docs, doc_vectors):
            try:
                label = annotate_training_pair(qa, doc, llm, template)
            except AnnotationError as exc:
                failures += 1
                logger.warning("skipping pair: %s", exc)
                continue
            pairs.append(LabeledPair(
                question_id=qa.question_id, doc_id=doc.doc_id,
                features=np.concatenate([question_vec, doc_vec]),
                label=label, matched=label.matched))
    training_set = TrainingSet(pairs=pairs, annotation_failures=failures)
    logger.info("built %d pairs (%d matched : %d mismatched, ratio %.2f, "
                "%d failures)", len(pairs), training_set.matched_count,
                training_set.mismatched_count, training_set.imbalance_ratio,
                failures)
    return training_set


def match_weights(matched: np.ndarray, weight: float) -> np.ndarray:
    """f(w): w for matched examples, 1 - w for mismatched ones."""
    return np.where(matched, weight, 1.0 - weight)


def validation_blocks(features: np.ndarray, targets: np.ndarray,
                      matched: np.ndarray
                      ) -> list[tuple[np.ndarray, np.ndarray]]:
    """(features, targets) of the matched, then of the mismatched
    validation rows, each class copied out once."""
    blocks = []
    for mask in (matched, ~matched):
        if not mask.any():
            raise ImbalanceDegenerateError("validation split is single-class")
        blocks.append((features[mask], targets[mask]))
    return blocks


def split_gradient_gap(head: Mlp, params_before: np.ndarray,
                       features: np.ndarray, targets: np.ndarray,
                       matched: np.ndarray) -> np.ndarray:
    """g_mat - g_mis at ``params_before``: the gradients of the matched and
    the mismatched examples' BCE, each normalized by the number of all
    examples. One forward pass serves both, and its buffers are freed on
    return."""
    if not matched.any() or matched.all():
        raise ImbalanceDegenerateError("training data is single-class")
    n = len(features)
    work = Backprop(head, params_before, n)
    work.forward(features)
    g_mat = work.backward(targets, matched.astype(np.float64), n).copy()
    return g_mat - work.backward(targets, (~matched).astype(np.float64), n)


def hyper_direction(head: Mlp, params_after: np.ndarray, diff: np.ndarray,
                    val_blocks: list[tuple[np.ndarray, np.ndarray]],
                    learning_rate: float) -> tuple[float, list[float]]:
    """Common descent direction of the balance weight, the mean over the two
    ``validation_blocks`` of each block loss's derivative with respect to
    the weight through the update, and the blocks' losses at
    ``params_after``.

    The update moves parameters by -lr * (w * g_mat + (1-w) * g_mis), so the
    chain rule gives d loss_v / dw = -lr * grad_v(after) . (g_mat - g_mis),
    where ``diff`` is ``split_gradient_gap`` at the pre-update parameters.
    """
    losses, dots = validation_pass(head, params_after, val_blocks, diff)
    d_mat, d_mis = (-learning_rate * dot for dot in dots)
    return (d_mat + d_mis) / 2.0, losses


def validation_pass(head: Mlp, params: np.ndarray,
                    blocks: list[tuple[np.ndarray, np.ndarray]],
                    diff: np.ndarray | None = None
                    ) -> tuple[list[float], list[float]]:
    """Each block's loss at ``params``, normalized by its size, and, given
    ``diff``, the gradient of that loss dotted with ``diff``."""
    work = Backprop(head, params, max(len(x) for x, _ in blocks))
    losses, dots = [], []
    for x, y in blocks:
        count = len(x)
        work.forward(x)
        losses.append(work.loss(y, np.ones(count), count))
        if diff is not None:
            dots.append(float(work.backward(y, np.ones(count), count) @ diff))
    return losses, dots


@dataclass
class TrainConfig:
    learning_rate: float = 3e-4
    hyper_step_size: float = 1.0
    epochs: int = 20
    batch_size: int = 16
    seed: int = 0
    initial_weight: float = 0.5

    def __post_init__(self):
        for name in ("epochs", "batch_size"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value!r}")


@dataclass
class EpochStats:
    epoch: int
    val_matched_loss: float
    val_mismatched_loss: float
    weight: float


@dataclass
class ScorerModel:
    """Frozen encoder reference plus the trained two-head MLP.

    The head's first layer acts on [q ; d] as W_q q + W_d d + b: W_q q once
    per call, W_d d of each stored row of the index it is given
    (``score_rows``), kept per row in a ``_RowCache`` that another head
    or another index replaces, or of each text it is given
    (``score_arrays``, for the object forms). An index built with another
    provider raises ``IndexIntegrityError``. Every part is computed row by
    row, so identical texts tie, a batch scores exactly as one call per
    text whatever the cache held, a stored row exactly as its text, and
    the logits are within rounding (1e-12) of ``head.forward_logits`` on
    the concatenated features."""

    head: Mlp
    balance_weight: float
    seed: int
    provider: EmbeddingProvider | None = None
    provider_fingerprint: str | None = None
    _cache: _RowCache | None = field(default=None, init=False, repr=False,
                                     compare=False)

    def score(self, question: str, doc_text: str) -> BiLabelScore:
        """The one row of ``score_arrays`` for ``doc_text``."""
        logits, probs = self.score_arrays(question, [doc_text])
        return BiLabelScore(*logits[0].tolist(), *probs[0].tolist())

    def score_arrays(self, question: str, doc_texts: Sequence[str],
                     question_embedding: np.ndarray | None = None
                     ) -> tuple[np.ndarray, np.ndarray]:
        """(logits, probabilities), each of shape (len(doc_texts), 2),
        columns (answer, preference), from one ``embed_many`` and one
        forward call; ``question_embedding`` is the question's vector, when
        the caller has it from this model's provider."""
        return self._score(question, question_embedding, doc_texts, None)

    def score_rows(self, question: str, index: VectorIndex, rows: np.ndarray,
                   question_embedding: np.ndarray | None = None
                   ) -> tuple[np.ndarray, np.ndarray]:
        """``score_arrays`` of the texts of ``index``'s ``rows``, bit for
        bit; W_d d of a row is computed on its first read and kept. Raises
        ``IndexIntegrityError`` when ``index`` was built with another
        provider."""
        return self._score(question, question_embedding, rows, index)

    def _score(self, question: str, question_embedding: np.ndarray | None,
               items: Sequence[str] | np.ndarray, index: VectorIndex | None
               ) -> tuple[np.ndarray, np.ndarray]:
        if self.provider is None:
            raise ValueError("model has no embedding provider attached")
        if not len(items):
            return np.empty((0, 2)), np.empty((0, 2))
        if question_embedding is None:
            question_embedding = self.provider.embed(question)
        if index is not None:
            # each call reads one cache
            owner = (self.head, index)
            cache = self._cache
            if cache is None or cache.owner != owner:
                artifacts.check_provider("index", index.provider_fingerprint,
                                         index.dim, self.provider,
                                         INDEX_FIELDS)
                cache = self._cache = _RowCache(owner, index,
                                                self.head.layer_sizes[1])
        weights, bias = self.head.first_layer()
        width = len(question_embedding)
        question_half = question_embedding @ weights[:, :width].T
        if index is None:
            halves = _products(self.provider.embed_many(list(items)),
                               weights[:, width:])
        else:
            halves = cache.read(items, weights[:, width:])
        pre = question_half + halves + bias
        logits = self.head.forward_logits(pre, preactivated=True)
        return logits, sigmoid(logits)

    def save(self, path: str | Path) -> None:
        artifacts.save(path, "scorer", {
            "layer_sizes": list(self.head.layer_sizes),
            "balance_weight": self.balance_weight,
            "provider_fingerprint": self.provider_fingerprint,
            "seed": self.seed,
        }, {"params": self.head.get_params()})

    @classmethod
    @artifacts.loader
    def load(cls, path: str | Path) -> "ScorerModel":
        """The saved model, with no provider attached; ``load_pipeline``
        checks its fingerprint and attaches one."""
        meta, arrays = artifacts.load(
            path, "scorer", layer_sizes=SCORER_SIZES,
            balance_weight=artifacts.FRACTION, seed=artifacts.COUNT,
            provider_fingerprint=artifacts.FINGERPRINT)
        head = Mlp(meta["layer_sizes"], seed=meta["seed"],
                   params=arrays["params"])
        return cls(head=head, balance_weight=meta["balance_weight"],
                   seed=meta["seed"],
                   provider_fingerprint=meta["provider_fingerprint"])


# the first layer reads [question ; document], the last is the two heads
SCORER_SIZES = artifacts.Check(
    lambda sizes: artifacts.LAYER_SIZES.valid(sizes)
    and sizes[0] % 2 == 0 and sizes[-1] == 2,
    "a list of at least two ints >= 1, the first even and the last 2")


def _products(vectors: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``weights @ v`` for each row v, each through its own vector-matrix
    product, as ``Mlp.forward_logits`` computes a layer."""
    return (vectors[:, None, :] @ weights.T)[:, 0, :]


class _RowCache:
    """W_d d of the rows of ``index`` read so far, packed: ``slots[row]``
    (``int32``, -1 until first read) is its row of ``products``. Products
    are appended under a lock, each written before its slot is set, so a
    read that finds a slot set, taking no lock, finds its product."""

    def __init__(self, owner: tuple, index: VectorIndex, width: int):
        self.owner = owner
        self.index = index
        self.slots = np.full(len(index.rows), -1, dtype=np.int32)
        self.products = np.empty((0, width))
        self.used = 0
        self._lock = threading.Lock()

    def read(self, rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """W_d d of each of ``rows``, ``weights`` being W_d."""
        slots = self.slots.take(rows)
        if slots.min() < 0:
            with self._lock:
                # once each, and not those another call kept meanwhile
                new = np.unique(rows[self.slots[rows] < 0])
                end = self.used + len(new)
                if end > len(self.products):
                    grown = np.empty((min(max(end, 2 * len(self.products)),
                                          len(self.slots)), len(weights)))
                    grown[:self.used] = self.products[:self.used]
                    self.products = grown
                self.products[self.used:end] = _products(
                    self.index.rows.dense(new), weights)
                self.slots[new] = np.arange(self.used, end, dtype=np.int32)
                self.used = end
            slots = self.slots.take(rows)
        return self.products.take(slots, axis=0)


class TrainResult(NamedTuple):
    model: ScorerModel
    balance_weight: float
    history: list[EpochStats]


def train_scorer(pairs: Sequence[LabeledPair],
                 config: TrainConfig | None = None,
                 hidden_sizes: Sequence[int] = DEFAULT_HIDDEN_SIZES,
                 provider: EmbeddingProvider | None = None) -> TrainResult:
    """Alternate parameter updates and balance-weight updates.

    Each epoch runs seeded mini-batch steps over the training split, then one
    hypergradient step on the balance weight using the epoch's start and end
    parameters with per-split gradients over the full training split (or a
    fixed seeded subsample above ``FULL_GRAD_MAX`` pairs). Deterministic for
    a fixed config.

    The per-split gradients (``split_gradient_gap``) depend only on the
    epoch's start parameters, so one worker thread, which lives only inside
    this call, computes them while the calling thread runs the epoch's
    steps; ``hyper_direction`` then finishes the step at the end
    parameters. Every product, input and summation order is that of running
    the two one after the other, so results are bit-identical; on one core
    the two halves simply interleave. An error in either half is raised
    here once the worker has stopped.
    """
    config = config or TrainConfig()
    if not pairs:
        raise ValueError("no training pairs")
    width = np.shape(pairs[0].features)
    for pair in pairs:
        if np.shape(pair.features) != width:
            raise ValueError(
                f"pair ({pair.question_id!r}, {pair.doc_id!r}) has features "
                f"of shape {np.shape(pair.features)}, the first pair {width}")
    targets = np.array([[p.label.has_answer, p.label.llm_prefer]
                        for p in pairs], dtype=np.float64)
    matched = np.array([p.matched for p in pairs], dtype=bool)
    # each class must keep a training and a validation example
    if min(matched.sum(), (~matched).sum()) < 2:
        raise ImbalanceDegenerateError(
            "training data needs at least 2 matched and 2 mismatched pairs")

    split_rng = derive_rng(config.seed, "scorer.split")
    train_idx, val_idx = stratified_split(matched, split_rng)
    # each split stacked straight from its pairs, so that no matrix of
    # every pair's features is held beside them; the validation rows are
    # split by class once per run
    x_t, x_v = (np.stack([pairs[i].features for i in idx], dtype=np.float64)
                for idx in (train_idx, val_idx))
    y_t, m_t = targets[train_idx], matched[train_idx]
    val_blocks = validation_blocks(x_v, targets[val_idx], matched[val_idx])
    del x_v

    head = Mlp([x_t.shape[1], *hidden_sizes, 2],
               seed=derive_seed(config.seed, "scorer.init"))
    params = head.get_params()
    weight = float(config.initial_weight)
    batch_rng = derive_rng(config.seed, "scorer.batches")
    sample_rng = derive_rng(config.seed, "scorer.hypergrad-subsample")

    history: list[EpochStats] = []
    n_train = len(x_t)
    hyper = config.hyper_step_size != 0.0
    subsampled = hyper and n_train > FULL_GRAD_MAX
    # each epoch's hypergradient subsample is gathered into this one buffer
    sub_x = np.empty((FULL_GRAD_MAX, x_t.shape[1])) if subsampled else None
    # the split-gradient gap needs only the epoch's start parameters, so
    # the worker computes it while this thread runs the epoch's steps; its
    # big products release the GIL
    with ThreadPoolExecutor(max_workers=1) as worker:
        for epoch in range(1, config.epochs + 1):
            if hyper:
                hx, hy, hm = x_t, y_t, m_t
                if subsampled:
                    sub = np.sort(sample_rng.choice(n_train, FULL_GRAD_MAX,
                                                    replace=False))
                    sub_m = m_t[sub]
                    if sub_m.any() and not sub_m.all():
                        # "clip" takes straight into ``out``; the indices
                        # are all in range
                        hx = np.take(x_t, sub, axis=0, out=sub_x, mode="clip")
                        hy, hm = y_t[sub], sub_m
                gap = worker.submit(split_gradient_gap, head, params,
                                    hx, hy, hm)
            params = sgd_epoch(head, params, x_t, y_t,
                               match_weights(m_t, weight), config.batch_size,
                               config.learning_rate, batch_rng)
            if hyper:
                # the validation losses at ``params`` come from the same pass
                common, losses = hyper_direction(
                    head, params, gap.result(), val_blocks,
                    config.learning_rate)
                weight = float(np.clip(
                    weight - config.hyper_step_size * common, 0.0, 1.0))
            else:
                losses = validation_pass(head, params, val_blocks)[0]
            val_mat, val_mis = losses
            history.append(EpochStats(epoch=epoch, val_matched_loss=val_mat,
                                      val_mismatched_loss=val_mis,
                                      weight=weight))

    head = Mlp(head.layer_sizes, seed=head.seed, params=params)
    model = ScorerModel(head=head, balance_weight=weight, seed=config.seed,
                        provider=provider,
                        provider_fingerprint=getattr(provider, "fingerprint", None))
    return TrainResult(model=model, balance_weight=weight, history=history)
