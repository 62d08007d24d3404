"""The array forms of reranking, the evaluation's orderings and the
long-tail facet against the per-pair code they replaced: a Python sort by
(-score, rank) and a loop over the pairs, on inputs with exact ties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leanrag.corpus import make_document
from leanrag.pipeline import (RECALL_KS, SCORE_ORDERINGS, _answer_positions,
                              ordered_rows)
from leanrag.recognizer import long_tail_score
from leanrag.reducer import RerankedDoc, rerank_topk
from leanrag.retrieval import Candidates, RetrievedDoc, recall_at_k
from leanrag.scorer import BiLabelScore, ScoredCandidates

DELTA = 4.5
# few values, so that p_ans, p_pref and their sums tie exactly (0.25 + 0.5
# and 0.5 + 0.25), and sums that round (0.1 + 0.2)
PROBS = st.sampled_from([0.0, 0.1, 0.2, 0.25, 0.3, 0.5, 0.75, 1.0])
# the cutoff itself, and its neighbours on both sides
LOGITS = st.sampled_from([-3.0, 0.0, math.nextafter(DELTA, -math.inf),
                          DELTA, math.nextafter(DELTA, math.inf), 9.0])

OLD_KEYS = {
    "similarity": lambda pair: pair[0].rank,
    "has_answer_only": lambda pair: (-pair[1].p_ans, pair[0].rank),
    "llm_prefer_only": lambda pair: (-pair[1].p_pref, pair[0].rank),
    "bilabel_sum": lambda pair: (-pair[1].combined, pair[0].rank),
}


@st.composite
def scored_lists(draw):
    """(pairs in rank order, the same pairs in a drawn order)."""
    n = draw(st.integers(min_value=1, max_value=25))
    pairs = []
    for rank in range(1, n + 1):
        text = "the needle is here." if draw(st.booleans()) else "hay only."
        doc = make_document(f"d{rank}", "", text)
        pairs.append((RetrievedDoc(doc, 1.0 - rank / 64, rank),
                      BiLabelScore(draw(LOGITS), draw(LOGITS), draw(PROBS),
                                   draw(PROBS))))
    return pairs, draw(st.permutations(pairs))


def arrays(pairs):
    """The arrays the query path builds for ``pairs`` (rank order)."""
    return ScoredCandidates(
        Candidates([r.doc for r, _ in pairs],
                   np.array([r.similarity for r, _ in pairs])),
        np.array([(s.logit_ans, s.logit_pref) for _, s in pairs]),
        np.array([(s.p_ans, s.p_pref) for _, s in pairs]))


@settings(max_examples=200, deadline=None)
@given(scored=scored_lists(), k=st.integers(min_value=1, max_value=30))
def test_rerank_equals_the_pair_sort(scored, k):
    pairs, shuffled = scored
    ordered = sorted(shuffled, key=OLD_KEYS["bilabel_sum"])
    want = [RerankedDoc(doc=r.doc, score=s, position=position)
            for position, (r, s) in enumerate(ordered[:k], start=1)]
    assert rerank_topk(arrays(pairs), k) == want
    assert rerank_topk(shuffled, k) == want


@settings(max_examples=200, deadline=None)
@given(scored=scored_lists())
def test_orderings_and_recall_equal_the_pair_sort(scored):
    pairs, shuffled = scored
    gold = ["needle"]
    positions = _answer_positions(arrays(pairs), gold)
    for ordering, position in zip(SCORE_ORDERINGS, positions):
        want = [r for r, _ in sorted(shuffled, key=OLD_KEYS[ordering])]
        assert [r.rank - 1 for r in want] == \
            ordered_rows(arrays(pairs), ordering).tolist()
        for k in RECALL_KS:
            assert float(position < k) == \
                recall_at_k(want, gold, min(k, len(want)))


@settings(max_examples=200, deadline=None)
@given(scored=scored_lists())
def test_long_tail_equals_the_pair_loop(scored):
    pairs, shuffled = scored
    hits = 0
    for _, score in shuffled:
        if score.logit_ans > DELTA:
            hits += 1
    want = hits / len(shuffled)
    assert long_tail_score(arrays(pairs), DELTA) == want
    assert long_tail_score(ScoredCandidates.of(shuffled), DELTA) == want


def test_iterating_builds_the_pairs():
    pairs = [(RetrievedDoc(make_document(f"d{i}", "", "text."), 0.5, i + 1),
              BiLabelScore(float(i), -1.0, 0.25, 0.5)) for i in range(3)]
    scored = arrays(pairs)
    assert list(zip(scored.candidates, map(scored.score, range(3)))) == pairs
    assert list(scored.candidates) == [r for r, _ in pairs]
    assert scored.candidates[-1] == pairs[-1][0]
    assert [scored.score(i) for i in range(3)] == [s for _, s in pairs]


def test_slicing_names_the_arrays():
    candidates = Candidates([make_document(f"d{i}", "", "text.")
                             for i in range(3)], np.array([0.5, 0.25, 0.0]))
    for key in (slice(0, 2), slice(None), "0", 1.0):
        with pytest.raises(TypeError, match=r"int only.*\.docs and "
                                            r"\.similarity"):
            candidates[key]
    assert candidates[np.int64(1)] == RetrievedDoc(candidates.docs[1], 0.25, 2)
    with pytest.raises(IndexError):
        candidates[3]
