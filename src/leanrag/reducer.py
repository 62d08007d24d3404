"""Sub-document-level token reduction.

The retrieved top documents are reranked by the sum of the two scorer
probabilities, each document is represented by its best-scoring
three-sentence sliding window, the representatives are sorted, and a greedy pass accumulates them
until a learned detector says the running combination suffices to answer the
question. Features for the detector are the combination's (p_ans, p_pref)
pairs in order, zero-padded to a fixed width.

``reduce`` runs on score arrays: one stable sort picks the top documents,
``score_windows`` scores all their windows' index rows in one forward pass,
the best window per document and the prerank order are index computations,
and the detector walks the preranked (p_ans, p_pref) rows with
``accepted_size``, the one stop rule. Objects are built only for the
accepted prefix; the object forms (``rerank_topk``, ``prerank``, ...) call
the same functions, ``representative_subdocs`` scoring windows by text.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol, Sequence

import numpy as np

from . import artifacts
# unused here; benchmarks/tracing.py times window cutting through this name
from .corpus import (Document, QARecord, SubDocument,  # noqa: F401
                     generate_subdocuments)
from .llm import (LlmClient, PromptTemplate, build_noretrieve_prompt,
                  build_retrieve_prompt, is_correct)
from .mlp import Mlp, sgd_epoch, stratified_split
from .retrieval import RetrievedDoc, Retriever, VectorIndex
from .scorer import (BiLabelScore, ScoredCandidates, ScorerModel, index_rows,
                     score_candidates)
from .seeds import derive_rng, derive_seed

logger = logging.getLogger(__name__)

DEFAULT_DETECTOR_HIDDEN = (64, 32, 16)
DETECTOR_BATCH_SIZE = 32
# detector data drops a sampled combination whose member set overlaps an
# already-kept one by more than this Jaccard similarity
MAX_OVERLAP = 0.8


@dataclass(frozen=True)
class RerankedDoc:
    doc: Document
    score: BiLabelScore
    position: int  # 1-based position after reranking


@dataclass(frozen=True)
class ScoredSubDoc:
    subdoc: SubDocument
    score: BiLabelScore
    parent_position: int

    @property
    def combined(self) -> float:
        return self.score.combined


@dataclass(frozen=True)
class SubDocCombination:
    members: tuple[ScoredSubDoc, ...]
    token_count: int

    def passage_texts(self) -> list[str]:
        return [m.subdoc.text for m in self.members]

    def member_ids(self) -> tuple[str, ...]:
        return tuple(m.subdoc.subdoc_id for m in self.members)

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class ScoredWindows:
    """Every window of some documents in rerank order, scored: row i is
    window ``starts[i]`` of ``docs[owners[i]]``, at rerank position
    ``owners[i] + 1``, a document's rows contiguous and in window order;
    ``combined`` is p_ans + p_pref, as ``BiLabelScore.combined`` adds."""

    docs: Sequence[Document]
    owners: np.ndarray
    starts: np.ndarray
    logits: np.ndarray
    probs: np.ndarray
    combined: np.ndarray

    def best_rows(self) -> np.ndarray:
        """Each document's row of highest combined score, documents in
        order; the earliest window wins ties, as ``max`` keeps the first of
        equal maxima. The sort is stable and keeps each document's rows in
        the places they held, so a document's best sorts to its window 0."""
        return np.lexsort((-self.combined, self.owners))[self.starts == 0]

    def preranked(self, rows: np.ndarray) -> np.ndarray:
        """``rows`` in ``prerank`` order (positions follow owners)."""
        return rows[_prerank_order(self.combined[rows], self.owners[rows],
                                   self.starts[rows])]

    def members(self, rows: Sequence[int]) -> list[ScoredSubDoc]:
        """The objects of ``rows``, in the given order."""
        rows = np.asarray(rows, dtype=np.intp)
        return [ScoredSubDoc(subdoc=self.docs[j].subdocument(start),
                             score=BiLabelScore(*logits, *probs),
                             parent_position=j + 1)
                for j, start, logits, probs in zip(
                    self.owners[rows].tolist(), self.starts[rows].tolist(),
                    self.logits[rows].tolist(), self.probs[rows].tolist())]


def score_windows(docs: Sequence[Document], scorer: ScorerModel,
                  question: str, question_embedding: np.ndarray | None = None,
                  index: VectorIndex | None = None,
                  rows: np.ndarray | None = None) -> ScoredWindows:
    """Every sliding window of every document, given in rerank order,
    scored in one call: by the windows' rows of ``index`` when ``rows``
    gives the documents' rows of it (``score_rows``), else by their texts.
    Raises ``ValueError`` when ``docs`` is empty or a document has no
    sentences."""
    if not docs:
        raise ValueError("docs must be non-empty")
    owners = np.repeat(np.arange(len(docs)), [len(d.windows) for d in docs])
    # each row's position less its document's first row
    starts = np.arange(len(owners)) - np.searchsorted(owners, owners)
    if index is None:
        logits, probs = scorer.score_arrays(
            question, [text for d in docs for text in d.windows],
            question_embedding)
    else:
        logits, probs = scorer.score_rows(
            question, index, index.window_rows[rows][owners] + starts,
            question_embedding)
    return ScoredWindows(docs, owners, starts, logits, probs,
                         probs[:, 0] + probs[:, 1])


class Detector(Protocol):
    max_docs: int

    def predict(self, features: np.ndarray) -> tuple[int, float]: ...


def rerank_rows(scored: ScoredCandidates, k: int) -> np.ndarray:
    """The rows of the top k by p_ans + p_pref descending, ties kept in
    retrieval order: one stable sort of ``combined``."""
    return np.argsort(-scored.combined, kind="stable")[:k]


def rerank_topk(scored: ScoredCandidates
                | Sequence[tuple[RetrievedDoc, BiLabelScore]],
                k: int = 10) -> list[RerankedDoc]:
    """``rerank_rows`` as objects, positions 1 to k (pairs are read into
    the arrays first)."""
    scored = ScoredCandidates.of(scored)
    return [RerankedDoc(doc=scored.candidates.docs[row],
                        score=scored.score(row), position=position)
            for position, row in enumerate(rerank_rows(scored, k).tolist(),
                                           start=1)]


def representative_subdocs(docs: Sequence[RerankedDoc], scorer: ScorerModel,
                           question: str) -> list[ScoredSubDoc]:
    """Each document's window of highest combined score (the earliest wins
    ties); ``docs`` in rerank order, as ``rerank_topk`` returns them."""
    windows = score_windows([d.doc for d in docs], scorer, question)
    return windows.members(windows.best_rows())


def _prerank_order(combined, positions, starts) -> np.ndarray:
    """The indices that sort by combined score descending, then by parent
    position, then by window start."""
    return np.lexsort((starts, positions, -np.asarray(combined, dtype=float)))


def prerank(subdocs: Sequence[ScoredSubDoc]) -> list[ScoredSubDoc]:
    """Descending by combined score; ties by the parent's rerank position,
    then by window start."""
    order = _prerank_order([s.combined for s in subdocs],
                           [s.parent_position for s in subdocs],
                           [s.subdoc.start_sentence for s in subdocs])
    return [subdocs[i] for i in order]


def detector_features(pairs, max_docs: int) -> np.ndarray:
    """The detector's input: the (p_ans, p_pref) rows of ``pairs`` in
    order, zero-padded to 2 * max_docs, in a new array."""
    pairs = np.asarray(pairs, dtype=np.float64).reshape(-1, 2)
    if len(pairs) > max_docs:
        raise ValueError(f"{len(pairs)} members exceed max_docs={max_docs}")
    vec = np.zeros(2 * max_docs, dtype=np.float64)
    vec[:pairs.size] = pairs.ravel()
    return vec


def combination_features(members: Sequence[ScoredSubDoc],
                         max_docs: int) -> np.ndarray:
    """(p_ans, p_pref) per member in order, zero-padded to 2 * max_docs."""
    return detector_features([(m.score.p_ans, m.score.p_pref)
                              for m in members], max_docs)


def make_combination(members: Sequence[ScoredSubDoc]) -> SubDocCombination:
    return SubDocCombination(
        members=tuple(members),
        token_count=sum(m.subdoc.token_count for m in members))


class DetectorModel:
    """A trained fully connected net over zero-padded score pairs, of
    2 * ``max_docs`` inputs; its single sigmoid output fires (predicts
    "combination suffices") above threshold."""

    def __init__(self, net: Mlp, max_docs: int, seed: int,
                 threshold: float = 0.5):
        self.max_docs = max_docs
        self.threshold = threshold
        self.seed = seed
        self.net = net
        if net.n_inputs != 2 * max_docs:
            raise ValueError("detector input width must be 2 * max_docs")
        self.holdout_accuracy: float | None = None

    def predict(self, features: np.ndarray) -> tuple[int, float]:
        prob = float(self.net.probabilities(
            np.asarray(features).reshape(1, -1))[0, 0])
        return (1 if prob > self.threshold else 0), prob

    def save(self, path: str | Path) -> None:
        artifacts.save(path, "detector", {
            "layer_sizes": list(self.net.layer_sizes),
            "max_docs": self.max_docs,
            "threshold": self.threshold,
            "seed": self.seed,
        }, {"params": self.net.get_params()})

    @classmethod
    @artifacts.loader
    def load(cls, path: str | Path) -> "DetectorModel":
        meta, arrays = artifacts.load(
            path, "detector", layer_sizes=DETECTOR_SIZES,
            max_docs=artifacts.POSITIVE, threshold=artifacts.FRACTION,
            seed=artifacts.COUNT)
        net = Mlp(meta["layer_sizes"], seed=meta["seed"],
                  params=arrays["params"])
        return cls(net, meta["max_docs"], meta["seed"], meta["threshold"])


# one output unit, the probability that the combination suffices
DETECTOR_SIZES = artifacts.Check(
    lambda sizes: artifacts.LAYER_SIZES.valid(sizes) and sizes[-1] == 1,
    "a list of at least two ints >= 1, the last 1")
MEMBER_IDS = artifacts.Check(lambda ids: isinstance(ids, list) and all(
    map(artifacts.STRINGS.valid, ids)), "a list of lists of strings")


def accepted_size(pairs, detector: Detector) -> int:
    """The greedy stop rule: accumulate the (p_ans, p_pref) rows of
    ``pairs`` in order, at most ``detector.max_docs``, querying the detector
    after each append; the size of the first accepted prefix, or of all of
    them when the detector never fires."""
    pairs = np.asarray(pairs, dtype=np.float64).reshape(-1, 2)
    if not len(pairs):
        raise ValueError("nothing to filter: no sub-documents")
    n = min(len(pairs), detector.max_docs)
    return next((size for size in range(1, n + 1) if detector.predict(
        detector_features(pairs[:size], detector.max_docs))[0]), n)


def reduce(question: str, scored_top: ScoredCandidates, scorer: ScorerModel,
           detector: Detector, max_docs: int = 10,
           question_embedding: np.ndarray | None = None) -> SubDocCombination:
    """Full reduction: rerank to the top documents, pick each document's
    best window, sort, and greedily cut off as early as the detector
    allows, all on score arrays; objects only for the windows kept. Only
    a ``Retriever``'s candidates have the index rows windows are read by."""
    windows = _top_windows(scored_top, rerank_rows(scored_top, max_docs),
                           scorer, question, question_embedding)
    order = windows.preranked(windows.best_rows())
    size = accepted_size(windows.probs[order], detector)
    return make_combination(windows.members(order[:size]))


def _top_windows(scored: ScoredCandidates, top: np.ndarray,
                 scorer: ScorerModel, question: str,
                 question_embedding: np.ndarray | None) -> ScoredWindows:
    """``score_windows`` of the candidates ``top``, by their index rows
    (``index_rows``). When each of them is its one window (its window row
    is its text row), the windows' scores are the candidates' own: the
    same question and row give the same bits in any batch."""
    index, rows = index_rows(scored.candidates)
    rows = rows[top]
    docs = scored.candidates.docs
    docs = [docs[i] for i in top.tolist()]
    if np.array_equal(index.window_rows[rows], index.text_rows[rows]):
        return ScoredWindows(docs, np.arange(len(docs)),
                             np.zeros(len(docs), dtype=int),
                             scored.logits[top], scored.probs[top],
                             scored.combined[top])
    return score_windows(docs, scorer, question, question_embedding, index,
                         rows)


@dataclass
class DetectorExample:
    question_id: str
    member_ids: tuple[str, ...]
    features: np.ndarray
    label: int
    mean_ans: float
    mean_pref: float


def save_detector_dataset(examples: Sequence[DetectorExample],
                          path: str | Path) -> None:
    artifacts.save(path, "detector-data", {
        "question_ids": [ex.question_id for ex in examples],
        "member_subdoc_ids": [list(ex.member_ids) for ex in examples],
        "labels": [ex.label for ex in examples],
    }, {"features": [ex.features for ex in examples],
        "means": [(ex.mean_ans, ex.mean_pref) for ex in examples]})


@artifacts.loader
def load_detector_dataset(path: str | Path) -> list[DetectorExample]:
    meta, arrays = artifacts.load(
        path, "detector-data", question_ids=artifacts.STRINGS,
        member_subdoc_ids=MEMBER_IDS, labels=artifacts.LABELS)
    return [DetectorExample(qid, tuple(ids), features, label,
                            float(mean_ans), float(mean_pref))
            for qid, ids, features, label, (mean_ans, mean_pref)
            in zip(meta["question_ids"], meta["member_subdoc_ids"],
                   arrays["features"], meta["labels"], arrays["means"],
                   strict=True)]


def jaccard(a: frozenset | int, b: frozenset | int) -> float:
    """|a & b| / |a | b| (1.0 when both are empty) of two sets, given as
    frozensets or as int bitmasks (bit i set for member i)."""
    size = int.bit_count if isinstance(a, int) else len
    union = size(a | b)
    return size(a & b) / union if union else 1.0


def distinct_draws(draws: Sequence[np.ndarray]) -> list[int]:
    """The indices of the draws kept, in order: each draw (distinct row
    numbers) is kept unless its Jaccard similarity with an already-kept one
    exceeds ``MAX_OVERLAP``; sets are compared as bitmasks. Jaccard is at
    most min(|a|, |b|) / max(|a|, |b|), so a draw is compared only with
    the kept draws of sizes whose ratio to its own exceeds ``MAX_OVERLAP``."""
    kept: list[int] = []
    by_size: dict[int, list[int]] = {}  # the kept draws' masks
    for i, rows in enumerate(draws):
        mask = sum(1 << row for row in rows.tolist())
        size = len(rows)
        # equal sizes first, so that two empty draws divide nothing
        near = [masks for other, masks in by_size.items()
                if other == size
                or min(size, other) / max(size, other) > MAX_OVERLAP]
        if all(jaccard(mask, seen) <= MAX_OVERLAP
               for masks in near for seen in masks):
            kept.append(i)
            by_size.setdefault(size, []).append(mask)
    return kept


def skyline_filter(scored: Sequence[tuple[float, float]]) -> list[int]:
    """Indices of Pareto-optimal points: kept unless some other point is at
    least as good on both coordinates and strictly better on one."""
    points = np.asarray(scored, dtype=np.float64).reshape(-1, 2)
    # [i, j]: point j against point i
    at_least = (points[None, :, :] >= points[:, None, :]).all(axis=2)
    better = (points[None, :, :] > points[:, None, :]).any(axis=2)
    return np.flatnonzero(~(at_least & better).any(axis=1)).tolist()


def build_detector_dataset(qa_records: Sequence[QARecord], retriever: Retriever,
                           scorer: ScorerModel, llm: LlmClient,
                           max_docs: int, top_retrieve: int,
                           samples_per_question: int, seed: int,
                           template: PromptTemplate | None = None,
                           no_retrieve_template: PromptTemplate | None = None
                           ) -> list[DetectorExample]:
    """Training data for the detector.

    Only questions that need retrieval contribute (the LLM fails on the bare
    question but succeeds with the reranked top documents). Per question:
    random sub-document combinations are sampled, near-duplicates (member-set
    Jaccard above ``MAX_OVERLAP`` against an already-kept combination) are
    dropped, only combinations on the (mean p_ans, mean p_pref) skyline
    survive, and each survivor is labeled by whether the LLM answers
    correctly with it appended. The bare-question probe uses
    ``no_retrieve_template`` (default: the built-in no-retrieve prompt).
    The question is embedded once, by the retriever's provider; a scorer
    of another provider raises ``IndexIntegrityError``.
    """
    examples: list[DetectorExample] = []
    for qa in qa_records:
        try:
            bare = llm.complete(build_noretrieve_prompt(
                qa.question, no_retrieve_template))
            if is_correct(bare.text, qa.gold_answers):
                continue  # no retrieval needed; uninformative for the detector
        except Exception as exc:
            logger.warning("detector data: skipping %s (bare question failed: %s)",
                           qa.question_id, exc)
            continue
        question_vec = retriever.provider.embed(qa.question)
        scored = score_candidates(scorer, qa.question, retriever.retrieve(
            qa.question, top_retrieve, question_vec), question_vec)
        top = rerank_rows(scored, max_docs)
        try:
            with_docs = llm.complete(build_retrieve_prompt(
                qa.question, [scored.candidates.docs[i].text
                              for i in top.tolist()], template))
            if not is_correct(with_docs.text, qa.gold_answers):
                continue  # retrieval does not help; no positive signal to learn
        except Exception as exc:
            logger.warning("detector data: skipping %s (top-doc probe failed: %s)",
                           qa.question_id, exc)
            continue

        windows = _top_windows(scored, top, scorer, qa.question, question_vec)
        n_windows = len(windows.owners)
        rng = derive_rng(seed, f"detector-data:{qa.question_id}")
        draws = []
        for _ in range(samples_per_question):
            size = int(rng.integers(1, min(max_docs, n_windows) + 1))
            draws.append(windows.preranked(
                rng.choice(n_windows, size=size, replace=False)))
        # one window per row, so row sets compare as member-id sets
        kept = [draws[i] for i in distinct_draws(draws)]
        points = [(float(np.mean(windows.probs[rows, 0])),
                   float(np.mean(windows.probs[rows, 1])))
                  for rows in kept]
        for idx in skyline_filter(points):
            members = windows.members(kept[idx])
            mean_ans, mean_pref = points[idx]
            try:
                response = llm.complete(build_retrieve_prompt(
                    qa.question, [m.subdoc.text for m in members], template))
            except Exception as exc:
                logger.warning("detector data: skipping combination for %s: %s",
                               qa.question_id, exc)
                continue
            examples.append(DetectorExample(
                question_id=qa.question_id,
                member_ids=tuple(m.subdoc.subdoc_id for m in members),
                features=combination_features(members, max_docs),
                label=int(is_correct(response.text, qa.gold_answers)),
                mean_ans=mean_ans, mean_pref=mean_pref))
    return examples


@dataclass
class DetectorTrainConfig:
    learning_rate: float = 0.1
    epochs: int = 300
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs!r}")


def train_detector(dataset: Sequence[DetectorExample],
                   config: DetectorTrainConfig | None = None,
                   max_docs: int | None = None) -> DetectorModel:
    """Supervised training of a ``DEFAULT_DETECTOR_HIDDEN`` net (scalar
    BCE, mini-batch gradient descent) on features 2 * ``max_docs`` wide
    (by default, as wide as the first example's). Deterministic per seed;
    stores held-out accuracy on the returned model."""
    config = config or DetectorTrainConfig()
    if not dataset:
        raise ValueError("empty detector dataset")
    labels = {ex.label for ex in dataset}
    if labels != {0, 1}:
        raise ValueError(f"detector dataset must contain both labels, got {labels}")
    if max_docs is None:
        max_docs = dataset[0].features.size // 2
    width = (2 * max_docs,)
    for position, ex in enumerate(dataset):
        if np.shape(ex.features) != width:
            raise ValueError(
                f"example {position} (question {ex.question_id!r}) has "
                f"features of shape {np.shape(ex.features)}, max_docs "
                f"{max_docs} needs {width}")
    features = np.stack([ex.features for ex in dataset])
    targets = np.array([[ex.label] for ex in dataset], dtype=np.float64)

    train_idx, val_idx = stratified_split(
        targets[:, 0] == 1, derive_rng(config.seed, "detector.split"))

    seed = derive_seed(config.seed, "detector.init")
    net = Mlp([*width, *DEFAULT_DETECTOR_HIDDEN, 1], seed=seed)
    params = net.get_params()
    batch_rng = derive_rng(config.seed, "detector.batches")
    x_t, y_t = features[train_idx], targets[train_idx]
    for _ in range(config.epochs):
        params = sgd_epoch(net, params, x_t, y_t, np.ones(len(x_t)),
                           DETECTOR_BATCH_SIZE, config.learning_rate,
                           batch_rng)
    model = DetectorModel(Mlp(net.layer_sizes, seed=seed, params=params),
                          max_docs, seed)

    val_probs = model.net.probabilities(features[val_idx])[:, 0]
    predictions = (val_probs > model.threshold).astype(np.float64)
    model.holdout_accuracy = float((predictions == targets[val_idx, 0]).mean())
    logger.info("detector held-out accuracy: %.3f (%d examples)",
                model.holdout_accuracy, len(val_idx))
    return model
