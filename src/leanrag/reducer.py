"""Sub-document-level token reduction.

The retrieved top documents are reranked by the sum of the two scorer
probabilities, each document is represented by its best-scoring
three-sentence sliding window, the representatives are sorted, and a greedy pass accumulates them
until a learned detector says the running combination suffices to answer the
question. Features for the detector are the combination's (p_ans, p_pref)
pairs in order, zero-padded to a fixed width.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Protocol, Sequence

import numpy as np

from . import artifacts
from .corpus import Document, QARecord, SubDocument, generate_subdocuments
from .llm import (LlmClient, PromptTemplate, build_noretrieve_prompt,
                  build_retrieve_prompt, is_correct)
from .mlp import Mlp, sgd_epoch, stratified_split
from .retrieval import RetrievedDoc, Retriever
from .scorer import BiLabelScore, ScorerModel
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


class Detector(Protocol):
    max_docs: int

    def predict(self, features: np.ndarray) -> tuple[int, float]: ...


def rerank_topk(scored: Sequence[tuple[RetrievedDoc, BiLabelScore]],
                k: int = 10) -> list[RerankedDoc]:
    """Order by p_ans + p_pref descending, ties kept in retrieval order,
    truncated to k."""
    ordered = sorted(scored, key=lambda pair: (-pair[1].combined, pair[0].rank))
    return [RerankedDoc(doc=r.doc, score=s, position=pos)
            for pos, (r, s) in enumerate(ordered[:k], start=1)]


def scored_windows(docs: Sequence[RerankedDoc], scorer: ScorerModel,
                   question: str, question_embedding: np.ndarray | None = None
                   ) -> list[list[ScoredSubDoc]]:
    """Every sliding window of every document, scored in one batch; one list
    per document, windows in order."""
    windows = [generate_subdocuments(doc.doc) for doc in docs]
    scores = iter(scorer.score_many(
        question, [sub.text for subs in windows for sub in subs],
        question_embedding))
    return [[ScoredSubDoc(subdoc=sub, score=sc, parent_position=doc.position)
             for sub, sc in zip(subs, scores)]
            for doc, subs in zip(docs, windows)]


def representative_subdocs(docs: Sequence[RerankedDoc], scorer: ScorerModel,
                           question: str,
                           question_embedding: np.ndarray | None = None
                           ) -> list[ScoredSubDoc]:
    """One sub-document per input document: the sliding window with the
    highest combined score (earliest window wins ties)."""
    if not docs:
        raise ValueError("docs must be non-empty")
    # max keeps the first of equal maxima
    return [max(subs, key=lambda sub: sub.combined)
            for subs in scored_windows(docs, scorer, question,
                                       question_embedding)]


def prerank(subdocs: Sequence[ScoredSubDoc]) -> list[ScoredSubDoc]:
    """Descending by combined score; ties by the parent's rerank position,
    then by window start."""
    return sorted(subdocs, key=lambda s: (-s.combined, s.parent_position,
                                          s.subdoc.start_sentence))


def combination_features(members: Sequence[ScoredSubDoc],
                         max_docs: int) -> np.ndarray:
    """(p_ans, p_pref) per member in order, zero-padded to 2 * max_docs."""
    if len(members) > max_docs:
        raise ValueError(f"{len(members)} members exceed max_docs={max_docs}")
    vec = np.zeros(2 * max_docs, dtype=np.float64)
    for i, member in enumerate(members):
        vec[2 * i] = member.score.p_ans
        vec[2 * i + 1] = member.score.p_pref
    return vec


def make_combination(members: Sequence[ScoredSubDoc]) -> SubDocCombination:
    return SubDocCombination(
        members=tuple(members),
        token_count=sum(m.subdoc.token_count for m in members))


class DetectorModel:
    """Four-layer fully connected net over zero-padded score pairs; a single
    sigmoid output fires (predicts "combination suffices") above threshold."""

    def __init__(self, max_docs: int = 10,
                 hidden_sizes: Sequence[int] = DEFAULT_DETECTOR_HIDDEN,
                 seed: int = 0, threshold: float = 0.5,
                 net: Mlp | None = None):
        self.max_docs = max_docs
        self.threshold = threshold
        self.seed = seed
        self.net = net or Mlp([2 * max_docs, *hidden_sizes, 1], seed=seed)
        if self.net.n_inputs != 2 * max_docs:
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
    def load(cls, path: str | Path) -> "DetectorModel":
        meta, arrays = artifacts.load(path, "detector")
        net = Mlp(meta["layer_sizes"], seed=meta["seed"])
        net.set_params(arrays["params"])
        return cls(max_docs=meta["max_docs"], seed=meta["seed"],
                   threshold=meta["threshold"], net=net)


def greedy_filter(sorted_subdocs: Sequence[ScoredSubDoc],
                  detector: Detector) -> SubDocCombination:
    """Accumulate sub-documents in the given order, querying the detector
    after each append; return the first accepted prefix. If the detector
    never fires, fall back to all (up to max_docs) sub-documents."""
    if not sorted_subdocs:
        raise ValueError("sorted_subdocs must be non-empty")
    max_docs = detector.max_docs
    candidates = list(sorted_subdocs[:max_docs])
    taken: list[ScoredSubDoc] = []
    for subdoc in candidates:
        taken.append(subdoc)
        fired, _ = detector.predict(combination_features(taken, max_docs))
        if fired:
            break
    return make_combination(taken)


def reduce(question: str, scored_top: Sequence[tuple[RetrievedDoc, BiLabelScore]],
           scorer: ScorerModel, detector: Detector, max_docs: int = 10,
           question_embedding: np.ndarray | None = None) -> SubDocCombination:
    """Full reduction: rerank to the top documents, pick each document's best
    window, sort, and greedily cut off as early as the detector allows."""
    reranked = rerank_topk(scored_top, max_docs)
    representatives = representative_subdocs(reranked, scorer, question,
                                             question_embedding)
    return greedy_filter(prerank(representatives), detector)


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


def load_detector_dataset(path: str | Path) -> list[DetectorExample]:
    meta, arrays = artifacts.load(path, "detector-data")
    return [DetectorExample(qid, tuple(ids), features, label,
                            float(mean_ans), float(mean_pref))
            for qid, ids, features, label, (mean_ans, mean_pref)
            in zip(meta["question_ids"], meta["member_subdoc_ids"],
                   arrays["features"], meta["labels"], arrays["means"])]


def jaccard(a: frozenset, b: frozenset) -> float:
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def skyline_filter(scored: Sequence[tuple[float, float]]) -> list[int]:
    """Indices of Pareto-optimal points: kept unless some other point is at
    least as good on both coordinates and strictly better on one."""
    kept = []
    for i, (a_i, p_i) in enumerate(scored):
        dominated = False
        for j, (a_j, p_j) in enumerate(scored):
            if j == i:
                continue
            if a_j >= a_i and p_j >= p_i and (a_j > a_i or p_j > p_i):
                dominated = True
                break
        if not dominated:
            kept.append(i)
    return kept


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
    """
    # candidates and windows read set-up's stored rows
    scorer = replace(scorer, stored=retriever.index)
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
        retrieved = retriever.retrieve(qa.question, top_retrieve)
        scored = list(zip(retrieved, scorer.score_many(
            qa.question, [r.doc.text for r in retrieved])))
        top = rerank_topk(scored, max_docs)
        try:
            with_docs = llm.complete(build_retrieve_prompt(
                qa.question, [d.doc.text for d in top], template))
            if not is_correct(with_docs.text, qa.gold_answers):
                continue  # retrieval does not help; no positive signal to learn
        except Exception as exc:
            logger.warning("detector data: skipping %s (top-doc probe failed: %s)",
                           qa.question_id, exc)
            continue

        pool = [sub for subs in scored_windows(top, scorer, qa.question)
                for sub in subs]
        if not pool:
            continue
        rng = derive_rng(seed, f"detector-data:{qa.question_id}")
        kept_members: list[list[ScoredSubDoc]] = []
        kept_sets: list[frozenset] = []
        for _ in range(samples_per_question):
            size = int(rng.integers(1, min(max_docs, len(pool)) + 1))
            chosen = rng.choice(len(pool), size=size, replace=False)
            members = prerank([pool[i] for i in chosen])
            ids = frozenset(m.subdoc.subdoc_id for m in members)
            if any(jaccard(ids, seen) > MAX_OVERLAP for seen in kept_sets):
                continue
            kept_members.append(members)
            kept_sets.append(ids)
        points = [(float(np.mean([m.score.p_ans for m in members])),
                   float(np.mean([m.score.p_pref for m in members])))
                  for members in kept_members]
        for idx in skyline_filter(points):
            members = kept_members[idx]
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
    """Supervised training of the detector net (scalar BCE, mini-batch
    gradient descent). Deterministic per seed; stores held-out accuracy on
    the returned model."""
    config = config or DetectorTrainConfig()
    if not dataset:
        raise ValueError("empty detector dataset")
    labels = {ex.label for ex in dataset}
    if labels != {0, 1}:
        raise ValueError(f"detector dataset must contain both labels, got {labels}")
    if max_docs is None:
        max_docs = dataset[0].features.size // 2
    features = np.stack([ex.features for ex in dataset])
    targets = np.array([[ex.label] for ex in dataset], dtype=np.float64)

    train_idx, val_idx = stratified_split(
        targets[:, 0] == 1, derive_rng(config.seed, "detector.split"))

    model = DetectorModel(max_docs=max_docs,
                          seed=derive_seed(config.seed, "detector.init"))
    params = model.net.get_params()
    batch_rng = derive_rng(config.seed, "detector.batches")
    x_t, y_t = features[train_idx], targets[train_idx]
    for _ in range(config.epochs):
        params = sgd_epoch(model.net, params, x_t, y_t, np.ones(len(x_t)),
                           DETECTOR_BATCH_SIZE, config.learning_rate,
                           batch_rng)
    model.net.set_params(params)

    val_probs = model.net.probabilities(features[val_idx])[:, 0]
    predictions = (val_probs > model.threshold).astype(np.float64)
    model.holdout_accuracy = float((predictions == targets[val_idx, 0]).mean())
    logger.info("detector held-out accuracy: %.3f (%d examples)",
                model.holdout_accuracy, len(val_idx))
    return model
