"""Retrieval-skip decisions from two facet scores.

A question skips retrieval only when (a) enough of its retrieved documents
get a confidently-positive answer-presence score and (b) enough of its
nearest labeled neighbor questions were answered correctly without retrieval.
Both thresholds are strict. The neighbors are the reference questions most
similar to the question, found by the index's exact scan
(``retrieval.ExactScan``).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from enum import Enum
from numbers import Real
from pathlib import Path
from typing import Sequence

import numpy as np

from . import artifacts
from .corpus import QARecord
from .llm import LlmClient, PromptTemplate, build_noretrieve_prompt, is_correct
from .retrieval import (EmbeddingProvider, ExactScan, SparseRows,
                        ascending_ids, embedded_rows)
from .scorer import ScoredCandidates

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
        for name in ("delta_ltod", "s_l", "s_n"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Real) or \
                    not math.isfinite(value):
                raise ValueError(
                    f"{name} must be a finite number, got {value!r}")
        if not 0.0 <= self.s_l <= 1.0 or not 0.0 <= self.s_n <= 1.0:
            raise ValueError("s_l and s_n must be in [0, 1]")
        k = self.k_neighbors
        if isinstance(k, bool) or not isinstance(k, int) or k < 1:
            raise ValueError(f"k_neighbors must be an integer >= 1, got {k!r}")


@dataclass(frozen=True)
class RecognizerVerdict:
    s_ltod: float
    s_nn: float
    decision: Decision


class NnReferenceSet:
    """Labeled question embeddings for the nearest-neighbor facet: row i of
    ``rows`` (``retrieval.SparseRows``) embeds question ``question_ids[i]``,
    answered correctly without retrieval when ``correct[i]``. Question ids
    ascend, each once, so that ``scan``, built here, breaks ties by
    question id."""

    def __init__(self, question_ids: Sequence[str], rows: SparseRows,
                 correct: Sequence[bool],
                 provider_fingerprint: str | None = None):
        self.question_ids = ascending_ids(question_ids, "NN reference",
                                          "question ids")
        self.correct = np.asarray(correct, dtype=bool)
        if not len(self.question_ids) == len(rows) == len(self.correct):
            raise ValueError("question_ids, rows and correct differ in length")
        self.rows = rows
        self.dim = rows.dim
        self.scan = ExactScan(rows)
        self.provider_fingerprint = provider_fingerprint

    def __len__(self) -> int:
        return len(self.question_ids)

    def save(self, path: str | Path) -> None:
        artifacts.save(path, "nnref", {
            "provider_fingerprint": self.provider_fingerprint,
            "question_ids": self.question_ids,
            "correct": self.correct.tolist(),
            "dim": self.dim,
        }, self.rows.arrays())

    @classmethod
    @artifacts.loader
    def load(cls, path: str | Path) -> "NnReferenceSet":
        meta, arrays = artifacts.load(
            path, "nnref", question_ids=artifacts.STRINGS,
            correct=artifacts.FLAGS,
            provider_fingerprint=artifacts.FINGERPRINT)
        return cls(meta["question_ids"], SparseRows.load(meta, arrays),
                   meta["correct"], meta["provider_fingerprint"])


def build_nn_reference(qa_records: Sequence[QARecord], llm: LlmClient,
                       provider: EmbeddingProvider,
                       template: PromptTemplate | None = None
                       ) -> NnReferenceSet:
    """Ask every question without retrieval and label it by containment
    correctness. LLM failures skip the question with a warning."""
    labeled: list[tuple[QARecord, bool]] = []
    for qa in qa_records:
        request = build_noretrieve_prompt(qa.question, template)
        try:
            response = llm.complete(request)
        except Exception as exc:
            logger.warning("skipping question %s in reference set: %s",
                           qa.question_id, exc)
            continue
        labeled.append((qa, is_correct(response.text, qa.gold_answers)))
    # in question-id order, which the reference set keeps its rows in
    labeled.sort(key=lambda pair: pair[0].question_id)
    rows = SparseRows.compress(embedded_rows(
        (qa.question for qa, _ in labeled), provider), provider.dim)
    return NnReferenceSet([qa.question_id for qa, _ in labeled], rows,
                          [ok for _, ok in labeled], provider.fingerprint)


def long_tail_score(scored: ScoredCandidates, delta_ltod: float) -> float:
    """Fraction of retrieved documents whose answer-presence logit exceeds
    the cutoff. Order-invariant; undefined (raises) on empty input."""
    if not len(scored):
        raise ValueError("cannot score an empty retrieved set")
    return int(np.count_nonzero(scored.logits[:, 0] > delta_ltod)) / \
        len(scored)


def neighbor_score(question_embedding: np.ndarray, reference: NnReferenceSet,
                   k: int) -> float:
    """Fraction of the k reference questions most similar to the question
    (the index's similarity, ``retrieval`` module docstring; ties by
    ascending question id) answered correctly without retrieval. For unit
    vectors, as both providers return, these are the k nearest by Euclidean
    distance in exact arithmetic."""
    if len(reference) < k:
        raise ValueError(f"reference set has {len(reference)} entries, need >= {k}")
    rows, _ = reference.scan.top(question_embedding, k)
    return int(reference.correct[rows].sum()) / k


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
