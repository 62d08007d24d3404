"""The batched query path against the per-item path it replaced.

The reference implementations below are the per-item originals: every
(question, text) pair embedded and scored on its own, the NN facet a sort of
reference entries by (-similarity, question id) and the index a sort of
documents by (-similarity, doc id), each similarity a plain-Python sum of
products per row (``synthetic.exact_search``).
Over every synthetic corpus the two paths must agree exactly on decisions,
combination ids, prompt tokens and the evaluation report, and on scores to
within 1e-9.
"""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import leanrag.pipeline as pipeline_module
from synthetic import (exact_search, imbalanced_feature_pairs,
                       planted_corpus, prefix_detector_examples,
                       trained_redundant_setup)

from leanrag.corpus import Corpus, generate_subdocuments, make_document
from leanrag.mlp import sigmoid
from leanrag.pipeline import PipelineContext, evaluate
from leanrag.recognizer import (Decision, NnReferenceSet, RecognizerConfig,
                                build_nn_reference)
from leanrag.reducer import (DetectorTrainConfig, ScoredSubDoc, greedy_filter,
                             prerank, reduce, rerank_topk, score_windows,
                             train_detector)
from leanrag.retrieval import (HashingEmbedder, RetrievedDoc, Retriever,
                               VectorIndex, build_index)
from leanrag.scorer import (BiLabelScore, TrainConfig, build_training_set,
                            pair_features, train_scorer)

SCORE_TOLERANCE = 1e-9


def per_item_search(index, query, k):
    if k < 1:
        raise ValueError("k must be >= 1")
    return exact_search(index, query, k)


def per_item_neighbor_score(question_embedding, reference, k):
    rows = SimpleNamespace(doc_ids=reference.question_ids,
                           vectors=reference.embeddings)
    correct = dict(zip(reference.question_ids, reference.correct))
    return sum(1 for qid, _ in exact_search(rows, question_embedding, k)
               if correct[qid]) / k


class PerItemScorer:
    """One (question, text) pair per call, the question embedded each time,
    the head run on a single row."""

    def __init__(self, model):
        self.model = model

    def score(self, question, text):
        features = pair_features(self.model.provider, question, text)
        logits, _ = self.model.head._forward(features.reshape(1, -1),
                                             self.model.head.get_params())
        probs = sigmoid(logits[0])
        return BiLabelScore(float(logits[0, 0]), float(logits[0, 1]),
                            float(probs[0]), float(probs[1]))

    def score_many(self, question, texts, question_embedding=None):
        return [self.score(question, text) for text in texts]


def per_item_reduce(question, scored_top, scorer, detector, max_docs=10,
                    question_embedding=None):
    representatives = []
    for doc in rerank_topk(scored_top, max_docs):
        best = None
        for sub in generate_subdocuments(doc.doc):
            sc = scorer.score(question, sub.text)
            if best is None or sc.combined > best.combined:
                best = ScoredSubDoc(subdoc=sub, score=sc,
                                    parent_position=doc.position)
        representatives.append(best)
    return greedy_filter(prerank(representatives), detector)


class CountingProvider:
    def __init__(self, inner):
        self.inner = inner
        self.dim = inner.dim
        self.fingerprint = inner.fingerprint
        self.calls = 0

    def embed(self, text):
        self.calls += 1
        return self.inner.embed(text)

    def embed_many(self, texts):
        self.calls += 1
        return self.inner.embed_many(texts)


def run_questions(qa, ctx):
    answers = [pipeline_module._answer_with_details(q, ctx) for q in qa]
    return answers, evaluate(qa, ctx).to_json()


def assert_equivalent(qa, ctx, monkeypatch):
    batched, batched_report = run_questions(qa, ctx)
    with monkeypatch.context() as patch:
        patch.setattr(VectorIndex, "search", per_item_search)
        patch.setattr(pipeline_module, "neighbor_score",
                      per_item_neighbor_score)
        patch.setattr(pipeline_module, "reduce", per_item_reduce)
        reference, reference_report = run_questions(
            qa, replace(ctx, scorer=PerItemScorer(ctx.scorer)))

    assert batched_report == reference_report
    decisions = set()
    for (trace, scored), (want, want_scored) in zip(batched, reference):
        assert trace.to_dict(include_timings=False) == \
            want.to_dict(include_timings=False)
        decisions.add(trace.verdict.decision)
        assert [r.doc.doc_id for r, _ in scored] == \
            [r.doc.doc_id for r, _ in want_scored]
        for (_, got), (_, exp) in zip(scored, want_scored):
            for field in ("logit_ans", "logit_pref", "p_ans", "p_pref"):
                assert abs(getattr(got, field) - getattr(exp, field)) \
                    <= SCORE_TOLERANCE
        if trace.combination is not None:
            for got, exp in zip(trace.combination.members,
                                want.combination.members):
                assert abs(got.combined - exp.combined) <= SCORE_TOLERANCE
    return decisions


@pytest.fixture(scope="module")
def redundant():
    setup = trained_redundant_setup()
    detector = train_detector(
        prefix_detector_examples(setup),
        DetectorTrainConfig(learning_rate=0.25, epochs=300, seed=5))
    return setup, detector


def test_redundant_corpus_equivalent(redundant, monkeypatch):
    (corpus, qa, mock, provider, retriever, scorer), detector = redundant
    # every other question is its own nearest neighbor labeled correct, so
    # both branches run
    reference = NnReferenceSet(
        [q.question_id for q in qa],
        provider.embed_many([q.question for q in qa]),
        [i % 2 == 0 for i in range(len(qa))], provider.fingerprint)
    ctx = PipelineContext(
        retriever=retriever, scorer=scorer,
        recognizer_config=RecognizerConfig(delta_ltod=-1e9, s_l=0.0, s_n=0.5,
                                           k_neighbors=1),
        llm=mock, detector=detector, nn_reference=reference,
        top_retrieve=10, top_rerank=10)
    assert assert_equivalent(qa, ctx, monkeypatch) == {
        Decision.RETRIEVE, Decision.NO_RETRIEVE}


@pytest.fixture(scope="module")
def planted(redundant):
    _, detector = redundant
    corpus, qa, mock, _ = planted_corpus()
    provider = HashingEmbedder(dim=192, seed=2)
    retriever = Retriever(corpus, build_index(corpus, provider), provider)
    training = build_training_set(qa[:20], retriever, mock, per_question_k=20)
    scorer = train_scorer(training.pairs, TrainConfig(
        learning_rate=0.2, hyper_step_size=0.5, epochs=5, batch_size=16,
        seed=9), hidden_sizes=(48, 24), provider=provider).model
    ctx = PipelineContext(
        retriever=retriever, scorer=scorer,
        # the five known questions are correct without retrieval; most
        # distances between planted questions tie, so the question-id
        # tie-break decides which of them skip
        recognizer_config=RecognizerConfig(delta_ltod=-1e9, s_l=0.0, s_n=0.5,
                                           k_neighbors=4),
        llm=mock, detector=detector,
        nn_reference=build_nn_reference(qa, mock, provider),
        top_retrieve=100, top_rerank=10)
    return qa, ctx


def test_planted_corpus_equivalent(planted, monkeypatch):
    qa, ctx = planted
    assert assert_equivalent(qa, ctx, monkeypatch) == {
        Decision.RETRIEVE, Decision.NO_RETRIEVE}


def test_at_most_three_embedding_calls_per_question(planted):
    qa, ctx = planted
    counting = CountingProvider(ctx.retriever.provider)
    counted = replace(
        ctx, retriever=Retriever(ctx.retriever.corpus, ctx.retriever.index,
                                 counting),
        scorer=replace(ctx.scorer, provider=counting))
    decisions = set()
    for q in qa[:10]:
        before = counting.calls
        trace = pipeline_module.answer_question(q, counted)
        decisions.add(trace.verdict.decision)
        # the question only: the documents are untitled and have at most
        # three sentences, so every candidate and window is an index row
        assert counting.calls - before == 1
    assert Decision.RETRIEVE in decisions


def counted_context(ctx, index):
    """``ctx`` over ``index`` with a counting provider."""
    counting = CountingProvider(ctx.retriever.provider)
    return replace(
        ctx, retriever=Retriever(ctx.retriever.corpus, index, counting),
        scorer=replace(ctx.scorer, provider=counting)), counting


def counted_run(qa, ctx, index):
    """Answers, evaluate JSON and embedding calls per answered question."""
    counted, counting = counted_context(ctx, index)
    answers, calls = [], []
    for q in qa:
        before = counting.calls
        answers.append(pipeline_module._answer_with_details(q, counted))
        calls.append(counting.calls - before)
    return answers, evaluate(qa, counted).to_json(), calls


def assert_stored_rows_change_nothing(qa, ctx):
    """Set-up's index against the same index without its sparse rows and
    against one that serves no row: identical outputs, and set-up's index
    embeds only the question."""
    index = ctx.retriever.index
    stored, stored_report, stored_calls = counted_run(qa, ctx, index)
    assert stored_calls == [1] * len(qa)
    no_sparse = VectorIndex(index.doc_ids, index.vectors,
                            index.provider_fingerprint, index.digests)
    no_rows = VectorIndex(index.doc_ids, index.vectors,
                          index.provider_fingerprint)
    for other in (no_sparse, no_rows):
        embedded, embedded_report, embedded_calls = counted_run(qa, ctx,
                                                                other)
        assert stored_report == embedded_report
        for (trace, scored), (want, want_scored) in zip(stored, embedded):
            assert trace.to_dict(include_timings=False) == \
                want.to_dict(include_timings=False)
            # dataclass equality: every BiLabelScore field exactly
            assert scored == want_scored
            if trace.combination is not None:
                assert trace.combination.members == want.combination.members
    # the last, serving no row, also embeds candidates and windows
    assert sum(embedded_calls) > len(qa)


def test_stored_rows_change_nothing_redundant(redundant):
    """Titled 12-sentence documents: candidates read text rows, windows
    read window rows."""
    (corpus, qa, mock, provider, retriever, scorer), detector = redundant
    ctx = PipelineContext(
        retriever=retriever, scorer=scorer,
        recognizer_config=RecognizerConfig(delta_ltod=-1e9, s_l=0.0, s_n=0.5,
                                           k_neighbors=1),
        llm=mock, detector=detector,
        nn_reference=NnReferenceSet(
            [q.question_id for q in qa],
            provider.embed_many([q.question for q in qa]),
            [i % 2 == 0 for i in range(len(qa))], provider.fingerprint),
        top_retrieve=10, top_rerank=10)
    assert_stored_rows_change_nothing(qa, ctx)


def test_stored_rows_change_nothing_planted(planted):
    """Untitled documents of at most three sentences: candidates and
    windows read index rows."""
    qa, ctx = planted
    assert_stored_rows_change_nothing(qa, ctx)


def test_stored_rows_change_nothing_mixed(redundant):
    """Documents of 2 to 6 sentences, every other one untitled: a question
    reads index rows, text rows and window rows."""
    (corpus, qa, mock, provider, _, scorer), detector = redundant
    mixed = Corpus([
        make_document(doc.doc_id, doc.title if i % 2 else "",
                      " ".join(doc.sentence_texts()[:2 + i % 5]))
        for i, doc in enumerate(corpus)])
    ctx = PipelineContext(
        retriever=Retriever(mixed, build_index(mixed, provider), provider),
        scorer=scorer,
        recognizer_config=RecognizerConfig(delta_ltod=-1e9, s_l=0.0, s_n=0.5,
                                           k_neighbors=1),
        llm=mock, detector=detector,
        nn_reference=NnReferenceSet(
            [q.question_id for q in qa],
            provider.embed_many([q.question for q in qa]),
            [i % 2 == 1 for i in range(len(qa))], provider.fingerprint),
        top_retrieve=10, top_rerank=10)
    assert_stored_rows_change_nothing(qa, ctx)


def tie_corpus(corpus):
    """Per document of ``corpus``: itself; a copy under another id, so
    candidates and representatives tie across documents; one sentence six
    times, so every window ties; its first three sentences three times, so
    windows 0, 3 and 6 tie; and its first one, two and three sentences, one
    window each."""
    docs = []
    for doc in corpus:
        sentences = doc.sentence_texts()
        docs += [doc, make_document(f"{doc.doc_id}-copy", doc.title, doc.text),
                 make_document(f"{doc.doc_id}-same", "",
                               " ".join(sentences[:1] * 6)),
                 make_document(f"{doc.doc_id}-rep", doc.title,
                               " ".join(sentences[:3] * 3))]
        docs += [make_document(f"{doc.doc_id}-{n}", "",
                               " ".join(sentences[:n])) for n in (1, 2, 3)]
    return Corpus(docs)


class RecordingDetector:
    """The detector's decisions (or, without one, never firing, so that
    every representative is taken), with every feature vector it was
    shown."""

    def __init__(self, detector=None, max_docs=10):
        self.detector = detector
        self.max_docs = detector.max_docs if detector else max_docs
        self.seen = []

    def predict(self, features):
        self.seen.append(features.copy())
        return self.detector.predict(features) if self.detector else (0, 0.0)


@pytest.fixture(scope="module")
def tied(redundant):
    (corpus, qa, mock, provider, _, scorer), detector = redundant
    ties = tie_corpus(corpus)
    ctx = PipelineContext(
        retriever=Retriever(ties, build_index(ties, provider), provider),
        scorer=scorer,
        recognizer_config=RecognizerConfig(delta_ltod=-1e9, s_l=0.0, s_n=0.5,
                                           k_neighbors=1),
        llm=mock, detector=detector,
        nn_reference=NnReferenceSet(
            [q.question_id for q in qa],
            provider.embed_many([q.question for q in qa]),
            [i % 2 == 0 for i in range(len(qa))], provider.fingerprint),
        top_retrieve=30, top_rerank=10)
    return qa, ctx


def test_tied_corpus_equivalent(tied, monkeypatch):
    qa, ctx = tied
    assert assert_equivalent(qa, ctx, monkeypatch) == {
        Decision.RETRIEVE, Decision.NO_RETRIEVE}


def test_tied_reduce_equals_per_item(tied):
    """Member ids, token counts and every detector input of the array
    reduction equal the per-window loop's, with one scorer on both sides
    (a batch row equals the single-text score bit for bit), and the tie
    rules actually decide: windows and representatives tie."""
    qa, ctx = tied
    tied_windows = tied_docs = 0
    for q in qa:
        vec = ctx.retriever.provider.embed(q.question)
        retrieved = ctx.retriever.retrieve(q.question, ctx.top_retrieve, vec)
        scored = list(zip(retrieved, ctx.scorer.score_many(
            q.question, [r.doc.text for r in retrieved], vec)))
        for detector in (ctx.detector, None):
            got_detector = RecordingDetector(detector)
            want_detector = RecordingDetector(detector)
            got = reduce(q.question, scored, ctx.scorer, got_detector,
                         ctx.top_rerank, question_embedding=vec)
            want = per_item_reduce(q.question, scored, ctx.scorer,
                                   want_detector, ctx.top_rerank)
            assert got.member_ids() == want.member_ids()
            assert got.token_count == want.token_count
            assert got.members == want.members
            assert len(got_detector.seen) == len(want_detector.seen)
            for a, b in zip(got_detector.seen, want_detector.seen):
                assert a.tobytes() == b.tobytes()
        assert len(got) == ctx.top_rerank

        windows = score_windows(rerank_topk(scored, ctx.top_rerank),
                                ctx.scorer, q.question, vec)
        combined = windows.combined
        best = windows.best_rows()
        tied_windows += sum(
            int((combined[windows.owners == j] == combined[row]).sum()) > 1
            for j, row in enumerate(best))
        tied_docs += len(best) - len(set(combined[best].tolist()))
        # prerank of any rows, windows of one document included, is the
        # sort by (-combined, parent position, window start)
        rows = np.arange(len(windows.owners))
        assert windows.members(windows.preranked(rows)) == sorted(
            windows.members(rows), key=lambda s: (
                -s.combined, s.parent_position, s.subdoc.start_sentence))
    assert tied_windows and tied_docs


def test_document_without_sentences_raises_alike(tied):
    qa, ctx = tied
    empty = make_document("empty", "", "   ")
    scored = [(RetrievedDoc(doc=doc, similarity=0.0, rank=rank),
               BiLabelScore(0.0, 0.0, 0.5, 0.5))
              for rank, doc in enumerate([*ctx.retriever.corpus][:2] + [empty],
                                         start=1)]
    errors = []
    for run in (reduce, per_item_reduce):
        with pytest.raises(ValueError) as info:
            run(qa[0].question, scored, ctx.scorer, ctx.detector, 10)
        errors.append(str(info.value))
    assert errors[0] == errors[1] == "document 'empty' has no sentences"


def test_feature_pairs_batch_equals_rows():
    pairs = imbalanced_feature_pairs(n_matched=200, n_mismatched=20, dim=8,
                                     seed=13)
    model = train_scorer(pairs, TrainConfig(epochs=3, seed=5),
                         hidden_sizes=(16, 8)).model
    features = np.stack([p.features for p in pairs])
    batched = model.head.forward_logits(features)
    for row, pair in zip(batched, pairs):
        single = model.head.forward_logits(pair.features)
        assert single.tobytes() == row.tobytes()
