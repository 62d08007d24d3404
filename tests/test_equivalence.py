"""The batched query path against the per-item path it replaced.

The reference implementations below are the per-item originals: every
(question, text) pair embedded and scored on its own (a candidate's
document vector its row of the index, read one row per call), the NN
facet a sort of
reference entries by (-similarity, question id) and the index a sort of
documents by (-similarity, doc id), each similarity a plain-Python sum of
products per row (``synthetic.exact_search``).
Over every synthetic corpus the two paths must agree exactly on decisions,
combination ids, prompt tokens and the evaluation report, and on scores to
within 1e-9.
"""

import sys
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import leanrag.pipeline as pipeline_module
import leanrag.reducer as reducer_module
from synthetic import (dense_reference, exact_search,
                       imbalanced_feature_pairs, planted_corpus,
                       prefix_detector_examples, trained_redundant_setup)

from leanrag.corpus import (Corpus, SubDocument, generate_subdocuments,
                            make_document)
from leanrag.mlp import Backprop, sigmoid
from leanrag.pipeline import PipelineContext, evaluate
from leanrag.recognizer import (Decision, RecognizerConfig, build_nn_reference,
                                neighbor_score)
from leanrag.reducer import (DetectorTrainConfig, RerankedDoc, ScoredSubDoc,
                             combination_features, make_combination, prerank,
                             reduce, rerank_topk, score_windows,
                             train_detector)
from leanrag.retrieval import (Candidates, ExactScan, HashingEmbedder,
                               RetrievedDoc, Retriever, build_index,
                               document_embedding_text)
from leanrag.scorer import (BiLabelScore, ScoredCandidates, ScorerModel,
                            TrainConfig, build_training_set, pair_features,
                            score_candidates, train_scorer)

SCORE_TOLERANCE = 1e-9


def per_item_top(scan, query, k):
    """``ExactScan.top`` as a sort of rows by (-similarity, row); an
    index keeps its rows in doc-id order."""
    if k < 1:
        raise ValueError("k must be >= 1")
    hits = exact_search(SimpleNamespace(doc_ids=range(scan.n),
                                        rows=scan.rows), query, k)
    return (np.array([row for row, _ in hits], dtype=np.intp),
            np.array([sim for _, sim in hits], dtype=np.float64))


def per_item_neighbor_score(question_embedding, reference, k):
    rows = SimpleNamespace(doc_ids=reference.question_ids,
                           rows=reference.rows)
    correct = dict(zip(reference.question_ids, reference.correct))
    return sum(1 for qid, _ in exact_search(rows, question_embedding, k)
               if correct[qid]) / k


class PerItemScorer:
    """One (question, text) pair or index row per call, the question
    embedded each time, the full forward pass run on a single row."""

    def __init__(self, model):
        self.model = model

    def forward(self, features):
        head = self.model.head
        logits = Backprop(head, head.get_params(), 1).forward(
            features.reshape(1, -1))
        probs = sigmoid(logits[0])
        return BiLabelScore(float(logits[0, 0]), float(logits[0, 1]),
                            float(probs[0]), float(probs[1]))

    def score(self, question, text):
        return self.forward(pair_features(self.model.provider, question,
                                          text))

    def score_rows(self, question, index, rows, question_embedding=None):
        scores = [self.forward(np.concatenate([
            self.model.provider.embed(question), index.rows.dense([row])[0]]))
            for row in rows.tolist()]
        return (np.array([[s.logit_ans, s.logit_pref] for s in scores],
                         dtype=np.float64).reshape(-1, 2),
                np.array([[s.p_ans, s.p_pref] for s in scores],
                         dtype=np.float64).reshape(-1, 2))


def per_item_reduce(question, scored_top, scorer, detector, max_docs=10,
                    question_embedding=None):
    """Each window scored on its own, the best kept per document by a
    loop, and the detector asked after each append of a prefix built with
    ``combination_features``."""
    representatives = []
    for doc in rerank_topk(scored_top, max_docs):
        best = None
        for sub in generate_subdocuments(doc.doc):
            sc = scorer.score(question, sub.text)
            if best is None or sc.combined > best.combined:
                best = ScoredSubDoc(subdoc=sub, score=sc,
                                    parent_position=doc.position)
        representatives.append(best)
    taken = []
    for member in prerank(representatives)[:detector.max_docs]:
        taken.append(member)
        if detector.predict(combination_features(taken,
                                                 detector.max_docs))[0]:
            break
    return make_combination(taken)


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
        patch.setattr(ExactScan, "top", per_item_top)
        patch.setattr(pipeline_module, "neighbor_score",
                      per_item_neighbor_score)
        patch.setattr(pipeline_module, "reduce", per_item_reduce)
        reference, reference_report = run_questions(
            qa, replace(ctx, scorer=PerItemScorer(ctx.scorer)))

    assert batched_report == reference_report
    decisions = set()
    for (trace, scored), (want, want_scored) in zip(batched, reference):
        assert replace(trace, timings={}).to_dict() == \
            replace(want, timings={}).to_dict()
        decisions.add(trace.verdict.decision)
        assert [d.doc_id for d in scored.candidates.docs] == \
            [d.doc_id for d in want_scored.candidates.docs]
        for got, exp in zip(map(scored.score, range(len(scored))),
                            map(want_scored.score, range(len(want_scored)))):
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
    reference = dense_reference(
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


def test_scans_equal_the_sort_at_the_workloads_shape():
    """A planted corpus plus 4,000 filler documents, and an NN reference of
    its questions plus 2,000 filler questions, all of whose tokens hash to
    coordinates no planted question has: as on a large benchmark index,
    most similarities are exactly +0.0. Both scans still equal the
    per-item sort for k on both sides of the positive count."""
    corpus, qa, _, _ = planted_corpus()
    provider = HashingEmbedder(dim=192, seed=2)
    touched = np.flatnonzero(provider.embed_many(
        [q.question for q in qa]).any(axis=0))
    words = [word for word in (f"filler{i}w" for i in range(300))
             if not provider.embed(word)[touched].any()][:60]
    rng = np.random.default_rng(17)
    fillers = [" ".join(rng.choice(words, size=8)) + "."
               for _ in range(6000)]
    corpus = Corpus([*corpus, *(make_document(f"zfill{i:04d}", "", text)
                                for i, text in enumerate(fillers[:4000]))])
    retriever = Retriever(corpus, build_index(corpus, provider), provider)
    reference = dense_reference(
        [q.question_id for q in qa] + [f"zq{i:04d}" for i in range(2000)],
        provider.embed_many([q.question for q in qa] + fillers[4000:]),
        [i % 3 == 0 for i in range(len(qa) + 2000)], provider.fingerprint)
    index = retriever.index
    for q in qa[::10] + qa[1:30:10]:
        vector = provider.embed(q.question)
        for scan in (index.scan, reference.scan):
            n = scan.n
            rows, sims = per_item_top(scan, vector, n)
            positives = int((sims > 0).sum())
            assert (sims == 0).sum() >= 0.85 * n
            for k in sorted({1, 10, 100, positives - 1, positives + 1, n}
                            & set(range(1, n + 1))):
                if scan is index.scan:
                    got = retriever.retrieve(q.question, k, vector)
                    assert [doc.doc_id for doc in got.docs] == \
                        [index.doc_ids[row] for row in rows[:k]]
                    assert got.similarity.tobytes() == sims[:k].tobytes()
                else:
                    assert neighbor_score(vector, reference, k) == \
                        per_item_neighbor_score(vector, reference, k)
                    got_rows, got_sims = scan.top(vector, k)
                    assert got_rows.tolist() == rows[:k].tolist()
                    assert got_sims.tobytes() == sims[:k].tobytes()


def test_one_window_documents_reuse_their_candidate_scores(planted):
    """Every planted document is its one window, stored at its text row:
    the reducer takes the candidates' scores for the windows, and they are
    the bits scoring the windows' rows gives."""
    qa, ctx = planted
    scorer = ctx.scorer
    for q in qa[:10]:
        vector = ctx.retriever.provider.embed(q.question)
        scored = score_candidates(scorer, q.question, ctx.retriever.retrieve(
            q.question, ctx.top_retrieve, vector), vector)
        top = reducer_module.rerank_rows(scored, ctx.top_rerank)
        docs = [scored.candidates.docs[i] for i in top.tolist()]
        assert [len(doc.windows) for doc in docs] == [1] * len(docs)
        got = reducer_module._top_windows(scored, top, scorer, q.question,
                                          vector)
        want = score_windows(docs, scorer, q.question, vector,
                             scored.candidates.index,
                             scored.candidates.rows[top])
        for name in ("owners", "starts", "logits", "probs", "combined"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


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


def test_answer_builds_objects_only_for_what_a_prompt_sees(planted,
                                                          monkeypatch):
    """Candidates and the reduction stay arrays: no ``RetrievedDoc`` or
    ``RerankedDoc``, and a ``SubDocument``, a ``BiLabelScore`` and a
    ``ScoredSubDoc`` for each member of the combination only."""
    qa, ctx = planted
    assert ctx.top_retrieve > ctx.top_rerank
    built = dict.fromkeys((RetrievedDoc, RerankedDoc, SubDocument,
                           BiLabelScore, ScoredSubDoc), 0)
    for cls in built:
        def counting(self, *args, _cls=cls, _init=cls.__init__, **kwargs):
            built[_cls] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    decisions = set()
    for q in qa[:10]:
        built.update(dict.fromkeys(built, 0))
        trace = pipeline_module.answer_question(q, ctx)
        decisions.add(trace.verdict.decision)
        size = 0 if trace.combination is None else len(trace.combination)
        assert built == {RetrievedDoc: 0, RerankedDoc: 0, SubDocument: size,
                         BiLabelScore: size, ScoredSubDoc: size}
    assert Decision.RETRIEVE in decisions


def counted_run(qa, ctx):
    """Answers, evaluate JSON and embedding calls per answered question,
    with a counting provider and a fresh scorer cache."""
    counting = CountingProvider(ctx.retriever.provider)
    counted = replace(
        ctx, retriever=Retriever(ctx.retriever.corpus, ctx.retriever.index,
                                 counting),
        scorer=replace(ctx.scorer, provider=counting))
    answers, calls = [], []
    for q in qa:
        before = counting.calls
        answers.append(pipeline_module._answer_with_details(q, counted))
        calls.append(counting.calls - before)
    return answers, evaluate(qa, counted).to_json(), calls


def row_texts(retriever):
    """The text each stored row of the retriever's index holds, by row:
    each document's "title. text", its text and its windows."""
    index, texts = retriever.index, {}
    for i, doc_id in enumerate(index.doc_ids):
        doc = retriever.corpus.get(doc_id)
        texts[i] = document_embedding_text(doc)
        texts[int(index.text_rows[i])] = doc.text
        for start, window in enumerate(doc.windows):
            texts[int(index.window_rows[i]) + start] = window
    return texts


def assert_rows_score_as_texts(qa, ctx, monkeypatch):
    """Candidates and windows scored by their index rows against the same
    scored by the texts those rows hold: identical outputs, bit for bit,
    and the rows embed only the question."""
    stored, stored_report, stored_calls = counted_run(qa, ctx)
    assert stored_calls == [1] * len(qa)
    texts = row_texts(ctx.retriever)
    with monkeypatch.context() as patch:
        patch.setattr(ScorerModel, "score_rows", lambda self, question, index,
                      rows, question_embedding=None: self.score_arrays(
                          question, [texts[row] for row in rows.tolist()],
                          question_embedding))
        embedded, embedded_report, embedded_calls = counted_run(qa, ctx)
    assert stored_report == embedded_report
    for (trace, scored), (want, want_scored) in zip(stored, embedded):
        assert replace(trace, timings={}).to_dict() == \
            replace(want, timings={}).to_dict()
        # the same documents in the same order, and every similarity
        # and score bit for bit
        assert [d.doc_id for d in scored.candidates.docs] == \
            [d.doc_id for d in want_scored.candidates.docs]
        for a, b in ((scored.candidates.similarity,
                      want_scored.candidates.similarity),
                     (scored.logits, want_scored.logits),
                     (scored.probs, want_scored.probs)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        if trace.combination is not None:
            assert trace.combination.members == want.combination.members
    # by text, candidates and windows are embedded too
    assert sum(embedded_calls) > len(qa)
    # warm, a question hashes no text
    with monkeypatch.context() as patch:
        for name, module in list(sys.modules.items()):
            if name.startswith("leanrag") and hasattr(module, "stable_hash"):
                patch.setattr(module, "stable_hash", no_hash)
        for q in qa:
            pipeline_module.answer_question(q, ctx)
    # four LLM workers filling one fresh row cache give the serial report
    assert evaluate(qa, replace(ctx, scorer=replace(ctx.scorer),
                                max_workers=4)).to_json() == stored_report


def no_hash(text):
    raise AssertionError(f"hashed {text!r}")


def test_rows_score_as_texts_redundant(redundant, monkeypatch):
    """Titled 12-sentence documents: candidates read text rows, windows
    read window rows."""
    (corpus, qa, mock, provider, retriever, scorer), detector = redundant
    ctx = PipelineContext(
        retriever=retriever, scorer=scorer,
        recognizer_config=RecognizerConfig(delta_ltod=-1e9, s_l=0.0, s_n=0.5,
                                           k_neighbors=1),
        llm=mock, detector=detector,
        nn_reference=dense_reference(
            [q.question_id for q in qa],
            provider.embed_many([q.question for q in qa]),
            [i % 2 == 0 for i in range(len(qa))], provider.fingerprint),
        top_retrieve=10, top_rerank=10)
    assert_rows_score_as_texts(qa, ctx, monkeypatch)


def test_rows_score_as_texts_planted(planted, monkeypatch):
    """Untitled documents of at most three sentences: candidates and
    windows read index rows."""
    qa, ctx = planted
    assert_rows_score_as_texts(qa, ctx, monkeypatch)


def test_rows_score_as_texts_mixed(redundant, monkeypatch):
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
        nn_reference=dense_reference(
            [q.question_id for q in qa],
            provider.embed_many([q.question for q in qa]),
            [i % 2 == 1 for i in range(len(qa))], provider.fingerprint),
        top_retrieve=10, top_rerank=10)
    assert_rows_score_as_texts(qa, ctx, monkeypatch)


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
        nn_reference=dense_reference(
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
        scored = score_candidates(ctx.scorer, q.question, retrieved, vec)
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

        windows = score_windows(
            [d.doc for d in rerank_topk(scored, ctx.top_rerank)],
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
    # a Retriever's candidates, the last document swapped for the empty one
    retrieved = ctx.retriever.retrieve(qa[0].question, 3)
    scored = ScoredCandidates(
        Candidates([retrieved.docs[0], retrieved.docs[1], empty],
                   retrieved.similarity, retrieved.rows, retrieved.index),
        np.zeros((3, 2)), np.full((3, 2), 0.5))
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
