"""Two-headed document scorer and its imbalance-aware training loop.

A frozen embedding provider turns (question, document) into features; a small
MLP head emits two logits — answer presence and LLM preference. Training pairs
whose two labels agree ("matched") vastly outnumber the rest, so each
example's loss is weighted f(w) = w for matched, 1 - w for mismatched, and w
itself is learned by hypergradient descent: after each parameter update the
derivative of the held-out validation objective with respect to w is followed
downhill.
"""

from __future__ import annotations

import itertools
import logging
import operator
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from . import artifacts
from .corpus import Document, QARecord, contains_answer
from .llm import LlmClient, PromptTemplate, build_retrieve_prompt, is_correct
from .mlp import Mlp, sgd_epoch, sigmoid, stratified_split
from .retrieval import EmbeddingProvider, Retriever, VectorIndex
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
    def load(cls, path: str | Path) -> "TrainingSet":
        meta, arrays = artifacts.load(path, "training-set")
        labels = [BiLabel(a, p)
                  for a, p in zip(meta["has_answer"], meta["llm_prefer"])]
        return cls(pairs=[
            LabeledPair(question_id=q, doc_id=d, features=f, label=label,
                        matched=label.matched)
            for q, d, f, label in zip(meta["question_ids"], meta["doc_ids"],
                                      arrays["features"], labels)])


def pair_features(provider: EmbeddingProvider, question: str,
                  doc_text: str) -> np.ndarray:
    """Question embedding concatenated with the document-text embedding,
    both embedded in one call."""
    return np.concatenate(provider.embed_many([question, doc_text]))


def annotate_training_pair(qa: QARecord, doc: Document, llm: LlmClient,
                           template: PromptTemplate | None = None) -> BiLabel:
    """Label one (question, document) pair.

    has_answer: the document text contains a gold answer. llm_prefer: the LLM
    answers correctly when the document is appended to the question (the
    prompt used is kept in the client transcript where the client records one).
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
    """Retrieve top-k documents per question and annotate every pair.

    Individual annotation failures are logged and counted, not fatal.
    """
    provider = retriever.provider
    pairs: list[LabeledPair] = []
    failures = 0
    for qa in qa_records:
        question_vec = provider.embed(qa.question)
        results = retriever.retrieve(qa.question, per_question_k, question_vec)
        doc_vectors = retriever.index.embed_many(
            provider, [result.doc.text for result in results])
        for result, doc_vec in zip(results, doc_vectors):
            doc = result.doc
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


def split_losses(head: Mlp, params: np.ndarray, features: np.ndarray,
                 targets: np.ndarray, matched: np.ndarray):
    """Validation losses per split, each normalized by its own split size."""
    out = []
    for mask in (matched, ~matched):
        if not mask.any():
            raise ImbalanceDegenerateError("validation split is single-class")
        loss, _ = head.weighted_bce(params, features[mask], targets[mask],
                                    np.ones(int(mask.sum())), int(mask.sum()))
        out.append(loss)
    return out[0], out[1]


def hyper_direction(head: Mlp, params_before: np.ndarray,
                    params_after: np.ndarray, train_features: np.ndarray,
                    train_targets: np.ndarray, train_matched: np.ndarray,
                    val_features: np.ndarray, val_targets: np.ndarray,
                    val_matched: np.ndarray,
                    learning_rate: float) -> float:
    """Common descent direction of the balance weight: the mean over the two
    validation splits of each split loss's derivative with respect to the
    weight, following the parameter update one step back.

    The update moves parameters by -lr * (w * g_mat + (1-w) * g_mis), so the
    chain rule gives d loss_v / dw = -lr * grad_v(after) . (g_mat - g_mis),
    where g_mat/g_mis are the per-split training gradients (normalized by the
    full training-set size) at the pre-update parameters.
    """
    if not train_matched.any() or train_matched.all():
        raise ImbalanceDegenerateError("training data is single-class")
    n_train = len(train_features)
    _, g_mat = head.weighted_bce(params_before, train_features, train_targets,
                                 train_matched.astype(np.float64), n_train)
    _, g_mis = head.weighted_bce(params_before, train_features, train_targets,
                                 (~train_matched).astype(np.float64), n_train)
    diff = g_mat - g_mis
    directions = []
    for mask in (val_matched, ~val_matched):
        if not mask.any():
            raise ImbalanceDegenerateError("validation split is single-class")
        count = int(mask.sum())
        _, grad_v = head.weighted_bce(params_after, val_features[mask],
                                      val_targets[mask], np.ones(count), count)
        directions.append(-learning_rate * float(grad_v @ diff))
    d_mat, d_mis = directions
    return (d_mat + d_mis) / 2.0


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

    The head's first layer acts on [q ; d] as W_q q + W_d d + b, and
    ``score_many`` computes it in those parts: W_q q once per call, and W_d
    d once per text, kept in a memo from text to its row of
    ``head.layer_sizes[1]`` floats. The memo serves one head object at one
    parameter version, one ``stored`` index (not saved; ``PipelineContext``
    binds its retriever's index) and one provider object, and is emptied
    when any of them changes. It holds at most ``stored.stored_count``
    texts, whether a stored row holds them or not (an edited document, an
    ad-hoc text), and nothing when ``stored`` is None; a copy made with
    ``dataclasses.replace`` starts empty. Every part is computed row by
    row, so: identical texts score identically; a batch scores exactly as
    one call per text would, whatever the memo held before; a text no
    stored row holds scores exactly as a stored one would; the logits are
    within rounding (1e-12) of ``head.forward_logits`` on the concatenated
    features; and after ``head.set_params`` no kept row is used again."""

    head: Mlp
    balance_weight: float
    seed: int
    provider: EmbeddingProvider | None = None
    provider_fingerprint: str | None = None
    stored: VectorIndex | None = field(default=None, repr=False,
                                       compare=False)
    _memo: dict[str, np.ndarray] = field(default_factory=dict, init=False,
                                         repr=False, compare=False)
    # (head, stored, provider, parameter version) the memo was filled for
    _memo_for: tuple = field(default=(), init=False, repr=False,
                             compare=False)
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  init=False, repr=False, compare=False)

    def score(self, question: str, doc_text: str) -> BiLabelScore:
        return self.score_many(question, [doc_text])[0]

    def score_many(self, question: str, doc_texts: Sequence[str],
                   question_embedding: np.ndarray | None = None
                   ) -> list[BiLabelScore]:
        """The rows of ``score_arrays``; row i equals
        ``score(question, doc_texts[i])``."""
        logits, probs = self.score_arrays(question, doc_texts,
                                          question_embedding)
        return [BiLabelScore(*pair, *prob)
                for pair, prob in zip(logits.tolist(), probs.tolist())]

    def score_arrays(self, question: str, doc_texts: Sequence[str],
                     question_embedding: np.ndarray | None = None
                     ) -> tuple[np.ndarray, np.ndarray]:
        """(logits, probabilities), each of shape (len(doc_texts), 2),
        columns (answer, preference), from at most one ``embed_many`` call
        (for the texts neither the memo nor ``stored`` holds) and one
        forward call from the first layer's pre-activation.
        ``question_embedding`` reuses the question's vector when the caller
        already has it from this model's provider."""
        if self.provider is None:
            raise ValueError("model has no embedding provider attached")
        if not doc_texts:
            return np.empty((0, 2)), np.empty((0, 2))
        if question_embedding is None:
            question_embedding = self.provider.embed(question)
        # the memo's version before the weights, so that a concurrent
        # set_params can leave new rows only under a version no later call
        # is served from
        memo = self._current_memo()
        weights, bias = self.head.first_layer()
        width = len(question_embedding)
        question_half = question_embedding @ weights[:, :width].T
        pre = question_half + self._document_halves(
            memo, doc_texts, weights[:, width:]) + bias
        logits = self.head.forward_logits(pre, preactivated=True)
        return logits, sigmoid(logits)

    def _current_memo(self) -> dict[str, np.ndarray]:
        """The memo, emptied first when the head, its parameter version,
        ``stored`` or the provider is not the one it was filled for."""
        owner = (self.head, self.stored, self.provider, self.head.version)
        with self._lock:
            held = self._memo_for
            if not (held and all(map(operator.is_, held[:3], owner[:3]))
                    and held[3] == owner[3]):
                self._memo, self._memo_for = {}, owner
            return self._memo

    def _document_halves(self, memo: dict[str, np.ndarray],
                         texts: Sequence[str],
                         weights: np.ndarray) -> np.ndarray:
        """W_d d of each text: from ``memo``, or computed from the text's
        vector (``stored`` serves a stored row's bits, the provider embeds
        the rest, in one call) and kept while ``memo`` has room."""
        missing = list(dict.fromkeys(t for t in texts if t not in memo))
        computed = {}
        if missing:
            vectors = (self.provider.embed_many(missing) if self.stored is None
                       else self.stored.embed_many(self.provider, missing))
            computed = dict(zip(missing, _products(vectors, weights)))
            if self.stored is not None:
                with self._lock:
                    # not when another owner's call emptied the memo
                    if memo is self._memo:
                        room = self.stored.stored_count - len(memo)
                        memo.update(itertools.islice(computed.items(), room))
        return np.stack([computed[t] if t in computed else memo[t]
                         for t in texts])

    def save(self, path: str | Path) -> None:
        artifacts.save(path, "scorer", {
            "layer_sizes": list(self.head.layer_sizes),
            "balance_weight": self.balance_weight,
            "provider_fingerprint": self.provider_fingerprint,
            "seed": self.seed,
        }, {"params": self.head.get_params()})

    @classmethod
    def load(cls, path: str | Path) -> "ScorerModel":
        """The saved model, with no provider attached; ``load_pipeline``
        checks its fingerprint and attaches one."""
        meta, arrays = artifacts.load(
            path, "scorer", layer_sizes=SCORER_SIZES,
            balance_weight=artifacts.FRACTION, seed=artifacts.COUNT,
            provider_fingerprint=artifacts.FINGERPRINT)
        head = Mlp(meta["layer_sizes"], seed=meta["seed"])
        try:
            head.set_params(arrays["params"])
        except ValueError as exc:
            raise artifacts.IndexIntegrityError(f"{path}: {exc}") from exc
        return cls(head=head, balance_weight=meta["balance_weight"],
                   seed=meta["seed"],
                   provider_fingerprint=meta["provider_fingerprint"])


# the first layer reads [question ; document], the last is the two heads
SCORER_SIZES = artifacts.Check(
    lambda sizes: artifacts.LAYER_SIZES.valid(sizes)
    and sizes[0] % 2 == 0 and sizes[-1] == 2,
    "a list of at least two ints >= 1, the first even and the last 2")


def _products(vectors: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``weights @ v`` for each row v, each row through its own
    vector-matrix product, as ``Mlp.forward_logits`` computes a layer."""
    return (vectors[:, None, :] @ weights.T)[:, 0, :]


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
    """
    config = config or TrainConfig()
    if not pairs:
        raise ValueError("no training pairs")
    features = np.stack([p.features for p in pairs])
    targets = np.array([[p.label.has_answer, p.label.llm_prefer]
                        for p in pairs], dtype=np.float64)
    matched = np.array([p.matched for p in pairs], dtype=bool)
    # each class must keep a training and a validation example
    if min(matched.sum(), (~matched).sum()) < 2:
        raise ImbalanceDegenerateError(
            "training data needs at least 2 matched and 2 mismatched pairs")

    split_rng = derive_rng(config.seed, "scorer.split")
    train_idx, val_idx = stratified_split(matched, split_rng)
    x_t, y_t, m_t = features[train_idx], targets[train_idx], matched[train_idx]
    x_v, y_v, m_v = features[val_idx], targets[val_idx], matched[val_idx]

    head = Mlp([features.shape[1], *hidden_sizes, 2],
               seed=derive_seed(config.seed, "scorer.init"))
    params = head.get_params()
    weight = float(config.initial_weight)
    batch_rng = derive_rng(config.seed, "scorer.batches")
    sample_rng = derive_rng(config.seed, "scorer.hypergrad-subsample")

    history: list[EpochStats] = []
    n_train = len(x_t)
    for epoch in range(1, config.epochs + 1):
        params_start = params
        params = sgd_epoch(head, params, x_t, y_t, match_weights(m_t, weight),
                           config.batch_size, config.learning_rate, batch_rng)
        if config.hyper_step_size != 0.0:
            if n_train > FULL_GRAD_MAX:
                sub = np.sort(sample_rng.choice(n_train, FULL_GRAD_MAX,
                                                replace=False))
                hx, hy, hm = x_t[sub], y_t[sub], m_t[sub]
                if hm.all() or not hm.any():
                    hx, hy, hm = x_t, y_t, m_t
            else:
                hx, hy, hm = x_t, y_t, m_t
            common = hyper_direction(head, params_start, params, hx, hy, hm,
                                     x_v, y_v, m_v, config.learning_rate)
            weight = float(np.clip(weight - config.hyper_step_size * common,
                                   0.0, 1.0))
        val_mat, val_mis = split_losses(head, params, x_v, y_v, m_v)
        history.append(EpochStats(epoch=epoch, val_matched_loss=val_mat,
                                  val_mismatched_loss=val_mis, weight=weight))

    head.set_params(params)
    model = ScorerModel(head=head, balance_weight=weight, seed=config.seed,
                        provider=provider,
                        provider_fingerprint=getattr(provider, "fingerprint", None))
    return TrainResult(model=model, balance_weight=weight, history=history)
