"""Retrieval-skip decisions from two facet scores.

A question skips retrieval only when (a) enough of its retrieved documents
get a confidently-positive answer-presence score and (b) enough of its
nearest labeled neighbor questions were answered correctly without retrieval.
Both thresholds are strict.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np

from . import artifacts
from .corpus import QARecord
from .llm import LlmClient, PromptTemplate, build_noretrieve_prompt, is_correct
from .retrieval import EmbeddingProvider, RetrievedDoc
from .scorer import BiLabelScore

logger = logging.getLogger(__name__)


class Decision(str, Enum):
    RETRIEVE = "Retrieve"
    NO_RETRIEVE = "No_Retrieve"


@dataclass(frozen=True)
class RecognizerConfig:
    # threshold on the answer-presence head's raw logit, since a useful
    # cutoff above 1 cannot be a probability
    delta_ltod: float = 4.5
    s_l: float = 0.04
    s_n: float = 0.67
    k_neighbors: int = 10

    def __post_init__(self):
        if not 0.0 <= self.s_l <= 1.0 or not 0.0 <= self.s_n <= 1.0:
            raise ValueError("s_l and s_n must be in [0, 1]")
        if self.k_neighbors < 1:
            raise ValueError("k_neighbors must be >= 1")


@dataclass(frozen=True)
class RecognizerVerdict:
    s_ltod: float
    s_nn: float
    decision: Decision


class NnReferenceSet:
    """Labeled question embeddings for the nearest-neighbor facet: row i of
    ``embeddings`` is question ``question_ids[i]``, answered correctly
    without retrieval when ``correct[i]``."""

    def __init__(self, question_ids: Sequence[str], embeddings: np.ndarray,
                 correct: Sequence[bool],
                 provider_fingerprint: str | None = None):
        self.question_ids = list(question_ids)
        # a float64 matrix is kept as given, not copied
        self.embeddings = np.asarray(embeddings, dtype=np.float64)
        self.correct = np.asarray(correct, dtype=bool)
        if not len(self.question_ids) == len(self.embeddings) == len(self.correct):
            raise ValueError("question_ids, embeddings and correct differ in length")
        # rank of each entry's question id, the distance tie-break
        self.id_ranks = np.unique(self.question_ids, return_inverse=True)[1]
        self.provider_fingerprint = provider_fingerprint

    def __len__(self) -> int:
        return len(self.question_ids)

    def save(self, path: str | Path) -> None:
        artifacts.save(path, "nnref", {
            "provider_fingerprint": self.provider_fingerprint,
            "question_ids": self.question_ids,
            "correct": self.correct.tolist(),
        }, {"embeddings": self.embeddings})

    @classmethod
    def load(cls, path: str | Path) -> "NnReferenceSet":
        meta, arrays = artifacts.load(path, "nnref")
        return cls(meta["question_ids"], arrays["embeddings"], meta["correct"],
                   meta["provider_fingerprint"])


def build_nn_reference(qa_records: Sequence[QARecord], llm: LlmClient,
                       provider: EmbeddingProvider,
                       template: PromptTemplate | None = None
                       ) -> NnReferenceSet:
    """Ask every question without retrieval and label it by containment
    correctness. LLM failures skip the question with a warning."""
    answered: list[QARecord] = []
    correct: list[bool] = []
    for qa in qa_records:
        request = build_noretrieve_prompt(qa.question, template)
        try:
            response = llm.complete(request)
        except Exception as exc:
            logger.warning("skipping question %s in reference set: %s",
                           qa.question_id, exc)
            continue
        answered.append(qa)
        correct.append(is_correct(response.text, qa.gold_answers))
    embeddings = (provider.embed_many([qa.question for qa in answered])
                  if answered else [])
    return NnReferenceSet([qa.question_id for qa in answered], embeddings,
                          correct, provider.fingerprint)


def long_tail_score(scored_docs: Sequence[tuple[RetrievedDoc, BiLabelScore]],
                    delta_ltod: float) -> float:
    """Fraction of retrieved documents whose answer-presence logit exceeds
    the cutoff. Order-invariant; undefined (raises) on empty input."""
    if not scored_docs:
        raise ValueError("cannot score an empty retrieved set")
    hits = 0
    for _, sc in scored_docs:
        if sc.logit_ans > delta_ltod:
            hits += 1
    return hits / len(scored_docs)


def neighbor_score(question_embedding: np.ndarray, reference: NnReferenceSet,
                   k: int) -> float:
    """Fraction of the k nearest reference questions (Euclidean distance,
    ties by ascending question id) answered correctly without retrieval."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(reference) < k:
        raise ValueError(f"reference set has {len(reference)} entries, need >= {k}")
    diff = reference.embeddings - np.asarray(question_embedding,
                                             dtype=np.float64)
    # one dot product per row, the routine np.linalg.norm uses for a single
    # vector, so equal distances compare equal exactly as in a per-entry scan
    distances = np.sqrt((diff[:, None, :] @ diff[:, :, None]).ravel())
    top = np.lexsort((reference.id_ranks, distances))[:k]
    return int(reference.correct[top].sum()) / k


def decide(s_ltod_value: float, s_nn_value: float,
           config: RecognizerConfig) -> RecognizerVerdict:
    """Skip retrieval only when both facet scores strictly exceed their
    thresholds."""
    for value in (s_ltod_value, s_nn_value):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"facet scores must be in [0, 1], got {value}")
    skip = s_ltod_value > config.s_l and s_nn_value > config.s_n
    return RecognizerVerdict(
        s_ltod=s_ltod_value, s_nn=s_nn_value,
        decision=Decision.NO_RETRIEVE if skip else Decision.RETRIEVE)
