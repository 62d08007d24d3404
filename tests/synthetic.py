"""Deterministic synthetic corpora, QA sets, and scripted LLM clients used
across the test suite.

Three families:

* feature-level bi-label pairs with a controlled matched:mismatched ratio
  (imbalance-learning tests),
* a planted-answer corpus whose lexical distractors outrank answer documents
  in cosine similarity (reranking tests),
* a small redundant corpus where each answer sits in one sliding window of a
  12-sentence document (token-reduction tests).

``sparse_rows`` keeps a dense matrix as the ``SparseRows`` every stored
matrix is held in, and ``dense_index`` and ``dense_reference`` build an
index and an NN reference from one; ``dense_rows`` fills the rows back.
``exact_search`` is the index's documented ranking computed one row at a
time in plain Python, the oracle for ``VectorIndex.search``;
``loop_split_sentences`` is the character-by-character splitter that
``split_sentences`` replaced, its oracle. ``backprop_step`` takes one
``Backprop.step``, the step ``sgd_epoch`` takes per batch.
``RecordingLlm`` answers through another client and keeps every prompt it
was sent, for tests that read the prompts a run issued.

Everything is seeded; rebuilding with the same arguments gives identical
objects.
"""

from __future__ import annotations

import re

import numpy as np

from leanrag.corpus import (Corpus, QARecord, _is_guarded_period,
                            contains_answer, generate_subdocuments,
                            make_document)
from leanrag.llm import ScriptedLlmClient, build_retrieve_prompt, is_correct
from leanrag.mlp import Backprop
from leanrag.reducer import (DetectorExample, ScoredSubDoc,
                             combination_features, prerank, rerank_topk,
                             representative_subdocs)
from leanrag.recognizer import NnReferenceSet
from leanrag.retrieval import (HashingEmbedder, Retriever, SparseRows,
                               VectorIndex, build_index)
from leanrag.scorer import (BiLabel, BiLabelScore, LabeledPair, TrainConfig,
                            train_scorer)
from leanrag.seeds import derive_rng

SHARED_ANSWER = "quixilshared"

_FILLER = ("the archive holds many records about history and trade routes "
           "over centuries of careful note keeping by patient scribes").split()


def sparse_rows(dense):
    """The rows of the matrix ``dense`` as ``SparseRows``."""
    dense = np.asarray(dense, dtype=np.float64)
    return SparseRows.compress([dense], dense.shape[1])


def dense_rows(rows, n=None):
    """The first ``n`` (default all) of the ``SparseRows`` ``rows`` as a
    matrix."""
    return rows.dense(np.arange(len(rows) if n is None else n))


def _by_id(ids, *arrays):
    """``ids`` ascending, and each array's rows in the same order."""
    order = sorted(range(len(ids)), key=list(ids).__getitem__)
    return [ids[i] for i in order], *(np.asarray(a)[order] for a in arrays)


def dense_index(ids, vectors, fingerprint="fp"):
    """A ``VectorIndex`` of one row of ``vectors`` per doc id, rows put in
    doc-id order first; each document's text and one window are its own
    row, as for an untitled document of at most three sentences."""
    ids, vectors = _by_id(ids, np.asarray(vectors, dtype=np.float64))
    own = np.arange(len(ids), dtype=np.int32)
    return VectorIndex(ids, sparse_rows(vectors), fingerprint,
                       np.stack([own, own]))


def dense_reference(question_ids, embeddings, correct, fingerprint=None):
    """An ``NnReferenceSet`` of one row of ``embeddings`` per question id,
    rows and labels put in question-id order first."""
    ids, embeddings, correct = _by_id(question_ids, embeddings,
                                      np.asarray(correct, dtype=bool))
    return NnReferenceSet(ids, sparse_rows(embeddings), correct, fingerprint)


def exact_search(index, query, k):
    """Top k of ``index`` for ``query``: each row's similarity is the sum,
    from +0.0, of its separately rounded products in coordinate order,
    ranked by (-similarity, doc id)."""
    query = [float(b) for b in query]
    sims = []
    matrix = dense_rows(index.rows, len(index.doc_ids))
    for doc_id, row in zip(index.doc_ids, matrix.tolist()):
        total = 0.0
        for a, b in zip(row, query):
            total += a * b
        sims.append((doc_id, total))
    return sorted(sims, key=lambda pair: (-pair[1], pair[0]))[:k]


def loop_split_sentences(text):
    """Sentence spans of ``text``, one character at a time."""
    def next_nonspace(pos):
        while pos < len(text) and text[pos].isspace():
            pos += 1
        return pos

    spans = []
    n = len(text)
    span_start = next_nonspace(0)
    i = span_start
    while i < n:
        ch = text[i]
        if ch in ".!?" and (i + 1 >= n or text[i + 1].isspace()):
            if ch == "." and _is_guarded_period(text, i):
                i += 1
                continue
            spans.append((span_start, i + 1))
            span_start = next_nonspace(i + 1)
            i = span_start
            continue
        i += 1
    if span_start < n:
        end = n
        while end > span_start and text[end - 1].isspace():
            end -= 1
        if end > span_start:
            spans.append((span_start, end))
    return spans


def backprop_step(net, params, x, y, weights, learning_rate):
    """The parameters after one ``Backprop.step`` on the batch; ``params``
    is not written."""
    work = Backprop(net, np.array(params, dtype=np.float64), len(x))
    work.step(x, y, weights, learning_rate)
    return work.params


def _filler_sentence(rng, vocab=None, n=8) -> str:
    words = rng.choice(vocab if vocab is not None else _FILLER, size=n)
    return " ".join(words).capitalize() + "."


# ---------------------------------------------------------------------------
# feature-level imbalanced pairs
# ---------------------------------------------------------------------------


def imbalanced_feature_pairs(n_matched=1000, n_mismatched=100, dim=8, seed=13,
                             tag=""):
    """LabeledPairs with raw feature vectors.

    Matched pairs: both labels equal sign(x . u), drawn from the bulk region.
    Mismatched pairs: drawn from the flip region (x . v > 1), second label
    inverted. Down-weighting the dominant matched class is required to learn
    the flip region, so the best balance weight sits well below 0.5.
    """
    rng = derive_rng(seed, f"synth-imbalance{tag}")
    u = np.zeros(dim)
    u[0] = 1.0
    v = np.zeros(dim)
    v[1] = 1.0
    pairs: list[LabeledPair] = []

    def _sample(mismatched: bool, count: int) -> None:
        made = 0
        while made < count:
            x = rng.standard_normal(dim)
            if (x @ v > 1.0) != mismatched:
                continue
            first = int(x @ u > 0)
            second = 1 - first if mismatched else first
            label = BiLabel(first, second)
            pairs.append(LabeledPair(
                question_id=f"q{len(pairs)}", doc_id=f"d{len(pairs)}",
                features=x, label=label, matched=label.matched))
            made += 1

    _sample(False, n_matched)
    _sample(True, n_mismatched)
    rng.shuffle(pairs)
    return pairs


# ---------------------------------------------------------------------------
# planted-answer corpus with lexical distractors
# ---------------------------------------------------------------------------


def planted_corpus(n_questions=50, n_adversarial=25, distractors_heavy=12,
                   distractors_light=2, n_filler=100, n_known=5, seed=41):
    """Corpus + QA + mock where answer documents lose the cosine race.

    Every question's gold answer is the shared answer token, planted in one
    answer document per question. Adversarial questions get enough
    entity-repeating distractors to push their answer document out of the
    similarity top-10. ``n_known`` questions are scripted as answerable
    without passages, which yields label-mismatched annotation pairs.
    Returns (corpus, qa_records, mock, adversarial_question_ids).
    """
    rng = derive_rng(seed, "planted-corpus")
    docs = []
    qa: list[QARecord] = []
    by_question: dict[str, str] = {}
    patterns: list[tuple[str, str]] = []
    adversarial_ids: list[str] = []
    for i in range(n_questions):
        entity = f"entity{i}qz"
        attribute = f"trait{i}attr"
        question = f"{attribute} {entity} value?"
        question_id = f"q{i}"
        qa.append(QARecord(question_id, question, frozenset({SHARED_ANSWER})))
        adversarial = i < n_adversarial
        if adversarial:
            adversarial_ids.append(question_id)
        answer_sent = (f"The {attribute} value of {entity} "
                       f"is {SHARED_ANSWER}.")
        docs.append(make_document(
            f"ans{i}", "", f"{answer_sent} {_filler_sentence(rng)}"))
        n_distract = distractors_heavy if adversarial else distractors_light
        for d in range(n_distract):
            # near-verbatim echoes of the query: these win the cosine race
            # against the answer document without containing the answer
            text = " ".join(f"{attribute} {entity} value study."
                            for _ in range(3))
            docs.append(make_document(f"dis{i}x{d}", "", text))
        if i < n_known:
            by_question[question] = f"From memory, it is {SHARED_ANSWER}."
    for f in range(n_filler):
        text = " ".join(_filler_sentence(rng) for _ in range(2))
        docs.append(make_document(f"fill{f}", "", text))
    patterns.append((rf"(?s){SHARED_ANSWER}",
                     f"The answer is {SHARED_ANSWER}."))
    patterns.append((r"(?s).*", "I cannot find the answer."))
    mock = ScriptedLlmClient(answers_by_question=by_question,
                             patterns=patterns)
    return Corpus(docs), qa, mock, adversarial_ids


# ---------------------------------------------------------------------------
# redundant corpus for token reduction
# ---------------------------------------------------------------------------


def _redundant_parts(n_questions=4, sentences_per_doc=12, seed=99):
    rng = derive_rng(seed, "redundant-corpus")
    docs = []
    qa: list[QARecord] = []
    glib_patterns: list[tuple[str, str]] = []
    for i in range(1, n_questions + 1):
        entity = f"zorblat{i}x"
        question = f"What is the secret attribute of {entity}?"
        qa.append(QARecord(f"q{i}", question, frozenset({SHARED_ANSWER})))
        sents = [_filler_sentence(rng) for _ in range(sentences_per_doc)]
        sents[0] = (f"Records show the secret attribute of {entity} "
                    f"is {SHARED_ANSWER}.")
        docs.append(make_document(f"A{i}", f"dossier {entity}",
                                  " ".join(sents)))
        sents = [_filler_sentence(rng) for _ in range(sentences_per_doc)]
        for k in (1, 4, 7, 10):
            sents[k] = (f"Commentators discuss {entity} at length in "
                        f"glibnote{i} columns.")
        docs.append(make_document(f"P{i}", f"notes {entity}", " ".join(sents)))
        glib_patterns.append(
            (rf"(?s)glibnote{i}.*Question: {re.escape(question)}",
             f"Clearly the answer is {SHARED_ANSWER}."))
    for j in range(1, 11 - 2 * n_questions):
        sents = [_filler_sentence(rng) for _ in range(sentences_per_doc)]
        docs.append(make_document(f"D{j}", "misc notes", " ".join(sents)))
    patterns = [(rf"(?s){SHARED_ANSWER}", f"The answer is {SHARED_ANSWER}.")]
    patterns.extend(glib_patterns)
    patterns.append((r"(?s).*", "I cannot find the answer."))
    return docs, qa, patterns


def redundant_corpus(n_questions=4, sentences_per_doc=12, seed=99):
    """10-document corpus: per question one answer document (answer confined
    to the first three-sentence window) and one verbose "preferred" document
    the mock answers from without facts; two filler documents round it out.

    Returns (corpus, qa_records, mock).
    """
    docs, qa, patterns = _redundant_parts(n_questions, sentences_per_doc, seed)
    return Corpus(docs), qa, ScriptedLlmClient(patterns=patterns)


def write_redundant_fixture(directory, n_questions=4, seed=99):
    """Write the redundant corpus as the on-disk artifacts the CLI consumes.

    Returns a dict of paths: corpus, qa, script.
    """
    import json
    from pathlib import Path

    directory = Path(directory)
    docs, qa, patterns = _redundant_parts(n_questions, seed=seed)
    corpus_path = directory / "corpus.jsonl"
    with open(corpus_path, "w", encoding="utf-8") as handle:
        for doc in docs:
            handle.write(json.dumps({"id": doc.doc_id, "title": doc.title,
                                     "text": doc.text}) + "\n")
    qa_path = directory / "qa.jsonl"
    with open(qa_path, "w", encoding="utf-8") as handle:
        for record in qa:
            handle.write(json.dumps({
                "question_id": record.question_id,
                "question": record.question,
                "answers": sorted(record.gold_answers)}) + "\n")
    script_path = directory / "script.jsonl"
    with open(script_path, "w", encoding="utf-8") as handle:
        for pattern, answer in patterns:
            handle.write(json.dumps({"match": {"pattern": pattern},
                                     "answer": answer}) + "\n")
    return {"corpus": corpus_path, "qa": qa_path, "script": script_path}


def window_training_pairs(corpus, qa, mock, provider):
    """Window-granularity annotation: one pair per (question, sliding window).

    Labels follow the documented annotation semantics (answer containment for
    the first label, mock correctness with the window appended for the
    second).
    """
    pairs: list[LabeledPair] = []
    window_vectors: dict[str, np.ndarray] = {}
    for q in qa:
        question_vec = provider.embed(q.question)
        for doc in corpus:
            for sub in generate_subdocuments(doc):
                first = int(contains_answer(sub.text, q.gold_answers))
                request = build_retrieve_prompt(q.question, [sub.text])
                second = int(is_correct(mock.complete(request).text,
                                        q.gold_answers))
                label = BiLabel(first, second)
                if sub.subdoc_id not in window_vectors:
                    window_vectors[sub.subdoc_id] = provider.embed(sub.text)
                pairs.append(LabeledPair(
                    question_id=q.question_id, doc_id=sub.subdoc_id,
                    features=np.concatenate([question_vec,
                                             window_vectors[sub.subdoc_id]]),
                    label=label, matched=label.matched))
    return pairs


def trained_redundant_setup(seed=99):
    """Redundant corpus plus a retriever and a scorer trained at window
    granularity (fixed balance weight; the reducer tests do not exercise the
    weight learner)."""
    corpus, qa, mock = redundant_corpus(seed=seed)
    provider = HashingEmbedder(dim=128, seed=11)
    index = build_index(corpus, provider)
    retriever = Retriever(corpus, index, provider)
    pairs = window_training_pairs(corpus, qa, mock, provider)
    result = train_scorer(pairs, TrainConfig(
        learning_rate=0.25, hyper_step_size=0.0, epochs=60, batch_size=16,
        seed=3), hidden_sizes=(32, 16), provider=provider)
    return corpus, qa, mock, provider, retriever, result.model


class RecordingLlm:
    """An LLM client that answers as ``client`` does and appends each
    prompt it is sent to ``prompts``."""

    def __init__(self, client):
        self.client = client
        self.prompts: list[str] = []

    def complete(self, request):
        self.prompts.append(request.prompt)
        return self.client.complete(request)


def scored_subdoc(subdoc_id, p_ans, p_pref, parent_position=1,
                  text="Words here."):
    """A ScoredSubDoc with fixed scores, for reducer-level tests."""
    doc = make_document(subdoc_id, "", text)
    sub = generate_subdocuments(doc)[0]
    return ScoredSubDoc(subdoc=sub,
                        score=BiLabelScore(0.0, 0.0, p_ans, p_pref),
                        parent_position=parent_position)


def prefix_detector_examples(setup, seed=17, n_random=40, max_docs=10):
    """Combination examples shaped like the greedy filter's feature stream:
    every prefix of each question's preranked representatives plus random
    subsets, labeled by the mock."""
    corpus, qa, mock, provider, retriever, scorer = setup
    rng = derive_rng(seed, "prefix-detector")
    examples: list[DetectorExample] = []
    for q in qa:
        scored = [(r, scorer.score(q.question, r.doc.text))
                  for r in retriever.retrieve(q.question, max_docs)]
        reps = prerank(representative_subdocs(
            rerank_topk(scored, max_docs), scorer, q.question))

        def emit(members):
            request = build_retrieve_prompt(
                q.question, [m.subdoc.text for m in members])
            label = int(is_correct(mock.complete(request).text,
                                   q.gold_answers))
            examples.append(DetectorExample(
                q.question_id, tuple(m.subdoc.subdoc_id for m in members),
                combination_features(members, max_docs), label,
                float(np.mean([m.score.p_ans for m in members])),
                float(np.mean([m.score.p_pref for m in members]))))

        for size in range(1, len(reps) + 1):
            emit(reps[:size])
        for _ in range(n_random):
            size = int(rng.integers(1, max_docs + 1))
            chosen = rng.choice(len(reps), size=min(size, len(reps)),
                                replace=False)
            emit(sorted((reps[i] for i in chosen),
                        key=lambda s: (-s.combined, s.parent_position)))
    return examples
