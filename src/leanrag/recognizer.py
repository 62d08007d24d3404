"""Retrieval-skip decisions from two facet scores.

A question skips retrieval only when (a) enough of its retrieved documents
get a confidently-positive answer-presence score and (b) enough of its
nearest labeled neighbor questions were answered correctly without retrieval.
Both thresholds are strict.
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
        # derived, not saved: an empty set (every LLM call failed) holds a
        # 1-D matrix of size 0
        self.sq_norms = (np.einsum("ij,ij->i", self.embeddings, self.embeddings)
                         if len(self) else np.zeros(0))
        # neighbor_score's filter bounds rounding errors only for finite
        # values; a NaN or inf entry makes its row's squared norm non-finite,
        # so only then is every entry checked
        if (not np.isfinite(self.sq_norms).all()
                and not np.isfinite(self.embeddings).all()):
            raise ValueError("NN reference embeddings must be finite")
        self.max_norm = float(np.sqrt(self.sq_norms.max(initial=0.0)))
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
        meta, arrays = artifacts.load(
            path, "nnref", question_ids=artifacts.STRINGS,
            correct=artifacts.FLAGS,
            provider_fingerprint=artifacts.FINGERPRINT)
        try:
            return cls(meta["question_ids"], arrays["embeddings"],
                       meta["correct"], meta["provider_fingerprint"])
        except ValueError as exc:
            raise artifacts.IndexIntegrityError(f"{path}: {exc}") from exc


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
    ties by ascending question id) answered correctly without retrieval.

    One matrix-vector product orders every row up to a rounding margin; only
    the rows within the margin of the k-th, and only when their labels
    differ, get the exact per-entry distance. The fraction is the one an
    exact sort of every row gives, for any finite input."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(reference) < k:
        raise ValueError(f"reference set has {len(reference)} entries, need >= {k}")
    query = np.asarray(question_embedding, dtype=np.float64)
    if not np.isfinite(query).all():
        raise ValueError("question embedding must be finite")
    # ||r - q||^2 less the constant ||q||^2, which leaves the order unchanged
    approx = reference.sq_norms - 2.0 * (reference.embeddings @ query)
    kth = np.partition(approx, k - 1)[k - 1]
    margin = _order_margin(reference.embeddings.shape[1], reference.max_norm,
                           float(np.sqrt(query @ query)))
    if np.isfinite(margin):
        # a row more than the margin below the k-th is nearer than every row
        # at or above it, of which there are at least n - k + 1; a row more
        # than the margin above it is farther than at least k rows
        sure = approx < kth - margin
        tier = np.flatnonzero(~sure & (approx <= kth + margin))
    else:  # the norms are too large for the bound: measure every row
        sure = np.zeros(len(reference), dtype=bool)
        tier = np.arange(len(reference))
    slots = k - int(sure.sum())  # 1 <= slots <= len(tier)
    count = int(reference.correct[sure].sum())
    labels = reference.correct[tier]
    if labels.all() or not labels.any():
        # every way of filling the slots from the tier counts the same
        return (count + slots * int(labels[0])) / k
    distances = _exact_distances(reference.embeddings[tier], query)
    order = np.lexsort((reference.id_ranks[tier], distances))[:slots]
    return (count + int(labels[order].sum())) / k


def _exact_distances(embeddings: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Distance of each row to ``query``, bit for bit the per-entry
    ``np.linalg.norm(row - query)``: one dot product per row, the routine
    np.linalg.norm uses for a single vector, so equal distances compare
    equal exactly as in a per-entry scan."""
    diff = embeddings - query
    return np.sqrt((diff[:, None, :] @ diff[:, :, None]).ravel())


def _order_margin(dim: int, max_norm: float, query_norm: float) -> float:
    """A bound M such that two rows whose approximate keys
    ``||r||^2 - 2 r.q`` differ by more than M have exact distances
    (``_exact_distances``) strictly in the same order; inf when a squared
    distance could overflow.

    With u = eps/2, B = (max ||r|| + ||q||)^2 and gamma_n = n u / (1 - n u)
    (a dot product of length n, summed in any order, is off by at most
    gamma_n times the sum of its terms' magnitudes):
      - approximate key: ||r||^2 is off by gamma_dim ||r||^2, r.q by
        gamma_dim ||r|| ||q||, and the subtraction adds u |key|, so the key
        is off from ||r - q||^2 - ||q||^2 by at most gamma_(dim+1) B;
      - exact squared distance: each difference r_j - q_j is off by u, its
        square by 2u + u^2, and the dot product adds gamma_dim, so it is off
        from ||r - q||^2 <= B by at most gamma_(dim+3) B;
      - sqrt is correctly rounded, so it keeps order, but two squared sums
        up to about 4u B apart can round to one distance, which the id
        tie-break would then order.
    Keys more than 2 gamma_(dim+1) B + 2 gamma_(dim+3) B + 4u B, about
    (2 dim + 6) eps B, apart therefore have distances strictly in order.
    Rounding B and the comparisons against kth -/+ M add about eps B, and
    each product that underflows adds up to 2^-1075, at most 4 dim of them
    per pair of keys. M = 8 (dim + 4) (eps B + 2^-1074) covers all of this
    about four times over. When 2 B is finite, no sum above can overflow."""
    scale = (max_norm + query_norm) * (max_norm + query_norm)
    if not np.isfinite(2.0 * scale):
        return np.inf
    eps = np.finfo(np.float64).eps
    return 8 * (dim + 4) * (eps * scale + np.nextafter(0.0, 1.0))


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
