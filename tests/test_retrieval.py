import gc
import hashlib
import math
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from synthetic import dense_index, dense_rows, exact_search, sparse_rows

import leanrag.retrieval as retrieval_module
import leanrag.seeds as seeds_module
from leanrag import artifacts
from leanrag.artifacts import check_provider
from leanrag.corpus import (WINDOW, Corpus, QARecord, load_corpus,
                            make_document, max_sentences)
from leanrag.llm import ScriptedLlmClient
from leanrag.mlp import Mlp
from leanrag.recognizer import NnReferenceSet, build_nn_reference
from leanrag.reducer import (DetectorModel, build_detector_dataset, reduce,
                             score_windows)
from leanrag.retrieval import (INDEX_FIELDS, Candidates,
                               EmbeddingProviderError, ExactScan,
                               HashingEmbedder, IndexIntegrityError,
                               RemoteEmbedder, Retriever, SparseRows,
                               VectorIndex, ascending_ids, build_index,
                               document_embedding_text, recall_at_k)
from leanrag.scorer import ScoredCandidates, ScorerModel, score_candidates
from leanrag.seeds import stable_hash


@pytest.fixture
def provider():
    return HashingEmbedder(dim=64, seed=7)


def small_corpus():
    return Corpus([
        make_document("a", "", "the cat sat on the mat"),
        make_document("b", "", "dogs chase cats around town"),
        make_document("c", "", "quantum mechanics of large systems"),
    ])


class TestHashingEmbedder:
    # tokens, separators the tokenizer must split at, and characters that
    # lowercase to ASCII or to several characters
    PIECES = ["a", "b", "ab", "Q", "z9", "0", " ", " ", "-", ".", "\n",
              "\u00e9", "\u212a", "\u0130", "\u00df", "\u00bd", "\u00b2",
              "\u2003", "\U0001f600", "quixil", "the"]

    def test_cancelling_tokens_fall_back_to_one_hot(self):
        # at dim 2, seed 0, "w0" adds -1 and "w7" +1 to bucket 1
        embedder = HashingEmbedder(dim=2, seed=0)
        texts = ["w0 w7", "w7 W0", "w0 w7 w0 w7"]
        rows = embedder.embed_many(texts)
        assert rows.tobytes() == np.stack(
            [self.unmemoized(2, 0, text) for text in texts]).tobytes()
        assert [sorted(row) for row in rows.tolist()] == [[0.0, 1.0]] * 3
        assert embedder.embed_many(["w0"]).tolist() == [[0.0, -1.0]]
        assert embedder.embed_many(["w7"]).tolist() == [[0.0, 1.0]]

    def test_deterministic(self, provider):
        v1 = provider.embed("abc def")
        v2 = provider.embed("abc def")
        np.testing.assert_array_equal(v1, v2)

    def test_unit_norm(self, provider):
        for text in ("abc", "a longer piece of text with words", "x y z"):
            assert abs(np.linalg.norm(provider.embed(text)) - 1.0) < 1e-6

    def test_distinct_texts_not_identical(self, provider):
        cos = float(provider.embed("abc") @ provider.embed("xyz"))
        assert cos < 1.0

    def test_empty_text_rejected(self, provider):
        with pytest.raises(ValueError):
            provider.embed("   ")

    @pytest.mark.parametrize("setting", [
        {"dim": 1}, {"dim": 128.9}, {"dim": "128"}, {"seed": -1},
        {"seed": 1.5}, {"seed": 1 << 64},
    ])
    def test_bad_setting_rejected(self, setting):
        # seed 1.5 once hashed like seed 1 under another fingerprint
        with pytest.raises(ValueError, match=next(iter(setting))):
            HashingEmbedder(**setting)

    def test_seed_changes_embedding(self):
        a = HashingEmbedder(dim=64, seed=1).embed("hello world")
        b = HashingEmbedder(dim=64, seed=2).embed("hello world")
        assert not np.array_equal(a, b)

    @staticmethod
    def unmemoized(dim, seed, text):
        """Every token occurrence hashed on its own."""
        def digest(token):
            return int.from_bytes(hashlib.blake2b(
                token.encode("utf-8"), digest_size=8,
                key=seed.to_bytes(8, "little")).digest(), "little")

        vec = np.zeros(dim)
        stripped = text.strip().lower()
        for token in re.findall(r"[a-z0-9]+", stripped):
            h = digest(token)
            vec[h % dim] += 1.0 if (h >> 63) & 1 == 0 else -1.0
        norm = np.linalg.norm(vec)
        if norm == 0.0:
            vec[digest(stripped) % dim] = 1.0
            norm = 1.0
        return vec / norm

    @given(st.lists(
        st.one_of(st.text(alphabet="abcdef .", max_size=30),
                  st.lists(st.sampled_from(PIECES), max_size=30)
                  .map("".join))
        .filter(lambda text: text.strip()), min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_memo_matches_unmemoized_hashing(self, texts):
        with pytest.MonkeyPatch.context() as patch:
            # a cap this small evicts within almost every example
            patch.setattr(retrieval_module, "TOKEN_MEMO_SIZE", 3)
            embedder = HashingEmbedder(dim=16, seed=5)
        want = np.stack([self.unmemoized(16, 5, text) for text in texts])
        for _ in range(2):  # the second pass reads what the memo kept
            assert embedder.embed_many(texts).tobytes() == want.tobytes()
        assert len(embedder._slot) <= 3

    def test_threads_keep_the_memo_within_its_cap(self):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(retrieval_module, "TOKEN_MEMO_SIZE", 8)
            embedder = HashingEmbedder(dim=16, seed=5)
        texts = [f"t{i} u{i} v{i}" for i in range(60)]
        want = [self.unmemoized(16, 5, text).tobytes() for text in texts]
        sizes, wrong = [], []

        def work(offset):
            for k in range(300):
                i = (offset + k) % len(texts)
                if embedder.embed_many([texts[i]])[0].tobytes() != want[i]:
                    wrong.append(i)
                sizes.append(len(embedder._slot))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(7 * t,))
                       for t in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(sizes) == 6 * 300 and wrong == []
        assert max(sizes) <= 8

    # "w0 w7" cancels at dim 2, seed 0; "!!" has no token
    BATCH_PIECES = [*PIECES, "!!", "w0", "w7", "W0 w7", " ", "?"]

    @pytest.mark.parametrize("dim,seed", [(2, 0), (16, 5)])
    @given(texts=st.lists(
        st.lists(st.sampled_from(BATCH_PIECES), min_size=1, max_size=12)
        .map("".join).filter(str.strip), min_size=1, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_batch_matches_one_text_calls(self, dim, seed, texts):
        embedder = HashingEmbedder(dim=dim, seed=seed)
        batch = embedder.embed_many(texts)
        assert batch.shape == (len(texts), dim)
        assert batch.tobytes() == np.stack(
            [embedder.embed_many([text])[0] for text in texts]).tobytes()

    @pytest.mark.parametrize("dim,seed", [(2, 0), (64, 7)])
    def test_batch_and_one_text_calls_match_unmemoized_hashing(self, dim,
                                                               seed):
        # at dim 64, seed 7, the last four have counts of 3 and 5 over
        # norms such as sqrt(12), where dividing and multiplying by the
        # reciprocal round apart
        texts = ["!!", "w0 w7", "Caf\u00e9 \u212a", "w0", "a b a", "\u00df!",
                 "a a a b c d", "x x x y y y y y z", "q", "p p p p p p p r"]
        embedder = HashingEmbedder(dim=dim, seed=seed)
        want = np.stack([self.unmemoized(dim, seed, text) for text in texts])
        assert embedder.embed_many(texts).tobytes() == want.tobytes()
        for text, row in zip(texts, want):
            assert embedder.embed_many([text]).tobytes() == row.tobytes()

    def test_empty_text_in_a_batch_rejected(self, provider):
        with pytest.raises(ValueError, match="empty"):
            provider.embed_many(["fine", " \n", "also fine"])

    def test_batch_allocates_about_its_output(self):
        # document-like texts of about 17 tokens, at the benchmark's width
        embedder = HashingEmbedder(dim=256, seed=0)
        texts = [f"Title {i}. The archive holds record {i * 7} about trade "
                 f"routes and careful note keeping by scribe {i % 13}."
                 for i in range(1024)]
        embedder.embed_many(texts)  # the memo holds every token from here
        gc.collect()
        tracemalloc.start()
        try:
            out = embedder.embed_many(texts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a count matrix twice as wide would alone add twice the output
        assert peak <= 2 * out.nbytes


class FakeResponse:
    def __init__(self, payload, status=200):
        self._payload = payload
        self.status_code = status

    def json(self):
        return self._payload


class FakeSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json})
        result = self.responses.pop(0)
        if isinstance(result, Exception):
            raise result
        return result


class TestRemoteEmbedder:
    def test_posts_and_normalizes(self):
        session = FakeSession([FakeResponse({"embeddings": [[3.0, 4.0]]})])
        remote = RemoteEmbedder("http://emb", dim=2, session=session)
        vec = remote.embed("hello")
        np.testing.assert_allclose(vec, [0.6, 0.8])
        assert session.calls[0]["json"] == {"texts": ["hello"]}

    def test_http_error_is_provider_error(self):
        session = FakeSession([FakeResponse({}, status=500)])
        remote = RemoteEmbedder("http://emb", dim=2, session=session)
        with pytest.raises(EmbeddingProviderError):
            remote.embed("hello")

    @pytest.mark.parametrize("setting", [
        {"dim": 0}, {"dim": 2.5}, {"timeout": 0}, {"timeout": -1.0},
    ])
    def test_bad_setting_rejected(self, setting):
        kwargs = {"dim": 2, **setting}
        with pytest.raises(ValueError, match=next(iter(setting))):
            RemoteEmbedder("http://emb", session=FakeSession([]), **kwargs)

    def test_dimension_mismatch_rejected(self):
        session = FakeSession([FakeResponse({"embeddings": [[1.0, 2.0, 3.0]]})])
        remote = RemoteEmbedder("http://emb", dim=2, session=session)
        with pytest.raises(EmbeddingProviderError):
            remote.embed("hello")


class TestIndex:
    def test_one_vector_per_document(self, provider):
        index = build_index(small_corpus(), provider)
        assert len(index) == 3

    def test_empty_corpus_rejected(self, provider):
        with pytest.raises(ValueError):
            build_index(Corpus([]), provider)

    def test_save_load_identical_results(self, tmp_path, provider):
        corpus = small_corpus()
        index = build_index(corpus, provider)
        path = tmp_path / "index.json"
        index.save(path)
        loaded = VectorIndex.load(path)
        query = provider.embed("cats and dogs")
        assert index.search(query, 3) == loaded.search(query, 3)

    def test_load_rejects_tampered_dimension(self, tmp_path, provider):
        index = build_index(small_corpus(), provider)
        path = tmp_path / "index.json"
        index.save(path)
        # the header claims a width that some stored column id exceeds
        assert index.rows.columns.max() >= 8
        data = path.read_bytes()
        assert data.count(b'"dim": 64') == 1
        path.write_bytes(data.replace(b'"dim": 64', b'"dim": 8'))
        with pytest.raises(IndexIntegrityError, match="column ids"):
            VectorIndex.load(path)

    @staticmethod
    def check(index, provider):
        check_provider("index", index.provider_fingerprint, index.dim,
                       provider, INDEX_FIELDS)

    def test_fingerprint_mismatch_detected(self, tmp_path, provider):
        index = build_index(small_corpus(), provider)
        other = HashingEmbedder(dim=64, seed=8)
        with pytest.raises(IndexIntegrityError):
            self.check(index, other)

    def test_retriever_refuses_another_provider(self, provider):
        """The retriever's candidates are read by their index rows, so a
        provider the index was not built with is refused up front."""
        corpus = small_corpus()
        index = build_index(corpus, provider)
        for other in (HashingEmbedder(dim=64, seed=8),
                      HashingEmbedder(dim=32, seed=7)):
            with pytest.raises(IndexIntegrityError, match="index built"):
                Retriever(corpus, index, other)

    def test_retriever_refuses_a_corpus_of_another_digest(self, provider,
                                                          tmp_path):
        """A corpus read from a file the index was not built from is
        refused, since its candidates would read another text's rows."""
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "a", "title": "", "text": "cats purr"}\n'
                        '{"id": "b", "title": "", "text": "dogs bark"}\n')
        index = build_index(load_corpus(path), provider)
        path.write_text(path.read_text().replace("purr", "nap"))
        edited = load_corpus(path)
        with pytest.raises(IndexIntegrityError, match="not the file"):
            Retriever(edited, index, provider)
        # an in-memory corpus records no digest, so nothing is compared
        Retriever(Corpus(list(edited)), index, provider)

    def test_retriever_refuses_a_corpus_missing_an_indexed_document(
            self, provider):
        corpus = small_corpus()
        index = build_index(corpus, provider)
        docs = [doc for doc in corpus if doc.doc_id != "b"]
        with pytest.raises(IndexIntegrityError, match="doc id 'b'"):
            Retriever(Corpus(docs), index, provider)

    def test_own_provider_accepted(self, provider):
        self.check(build_index(small_corpus(), provider), provider)

    def test_repeated_doc_ids_detected(self, provider):
        index = build_index(small_corpus(), provider)
        vectors = dense_rows(index.rows, len(index))
        with pytest.raises(ValueError, match="repeats doc ids"):
            dense_index(["a", "a", "b", "c"],
                        np.vstack([vectors[:1], vectors]),
                        index.provider_fingerprint)

    def test_one_text_row_per_titled_document(self, provider):
        corpus = titled_corpus()
        index = build_index(corpus, provider)
        # a titled document's text has a row after the document rows (a's
        # two windows follow its own); an untitled one's is its document
        # row
        assert index.text_rows.tolist() == [3, 1, 6]
        assert index.rows.dense(index.text_rows).tobytes() == \
            provider.embed_many([doc.text for doc in corpus]).tobytes()

    def test_ids_in_order_not_copied(self):
        rows = sparse_rows(np.arange(12.0).reshape(4, 3))

        def index_of(ids):
            return VectorIndex(ids, rows, "fp",
                               np.zeros((2, len(ids)), dtype=np.int32))

        index = index_of(["a", "b", "c", "d"])
        assert index.rows is index.scan.rows is rows
        # rows out of doc-id order are refused, not sorted
        with pytest.raises(ValueError, match="ascending order"):
            index_of(["b", "a", "c", "d"])
        with pytest.raises(ValueError, match="one row per doc id"):
            index_of(["a", "b", "c", "d", "e"])

    @given(st.lists(st.sampled_from("abcd"), max_size=6))
    def test_ids_must_strictly_ascend(self, ids):
        """Ids out of order are refused as such; sorted ids with a repeat
        are refused naming the first repeated id; only distinct ascending
        ids pass, as a list."""
        if ids != sorted(ids):
            with pytest.raises(ValueError,
                               match="^doc ids must be in ascending order$"):
                ascending_ids(ids, "index", "doc ids")
        elif len(set(ids)) < len(ids):
            first = next(a for a, b in zip(ids, ids[1:]) if a == b)
            with pytest.raises(ValueError, match=re.escape(
                    f"index repeats doc ids, e.g. [{first!r}")):
                ascending_ids(ids, "index", "doc ids")
        else:
            assert ascending_ids(tuple(ids), "index", "doc ids") == ids

    def test_round_trip_keeps_text_rows(self, tmp_path, provider):
        index = build_index(titled_corpus(), provider)
        index.save(tmp_path / "index")
        loaded = VectorIndex.load(tmp_path / "index")
        for got, want in ((loaded.text_rows, index.text_rows),
                          *zip(loaded.rows.arrays().values(),
                               index.rows.arrays().values())):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        assert loaded.dim == index.dim == 64
        # built from an in-memory corpus: no file to record
        assert loaded.corpus_sha256 is index.corpus_sha256 is None
        assert loaded.line_offsets is index.line_offsets is None

    def test_file_without_text_rows_rejected(self, tmp_path, provider):
        index = build_index(small_corpus(), provider)
        path = tmp_path / "index"
        artifacts.save(path, "index",
                       {"doc_ids": index.doc_ids,
                        "provider_fingerprint": index.provider_fingerprint},
                       {"vectors": dense_rows(index.rows, len(index))})
        with pytest.raises(IndexIntegrityError, match="rebuild it"):
            VectorIndex.load(path)


def titled_corpus():
    return Corpus([
        make_document("a", "Cats", "The cat sat. It purred. It slept. "
                                   "It woke."),
        make_document("b", "", "dogs chase cats around town"),
        make_document("c", "Physics", "quantum mechanics of large systems"),
    ])


def stored_texts(index, corpus):
    """Each document's texts and the rows ``index`` records for them: its
    "title. text" (its own row), its text and its windows, as (texts,
    rows)."""
    texts, rows = [], []
    for i, doc in enumerate(sorted(corpus, key=lambda d: d.doc_id)):
        start = int(index.window_rows[i])
        texts += [document_embedding_text(doc), doc.text, *doc.windows]
        rows += [i, int(index.text_rows[i]),
                 *range(start, start + len(doc.windows))]
    return texts, rows


def new_scorer(provider):
    """A scorer with a small seeded head."""
    return ScorerModel(Mlp([2 * provider.dim, 6, 2], seed=1), 0.5, 0,
                       provider=provider,
                       provider_fingerprint=provider.fingerprint)


class RecordingProvider:
    def __init__(self, inner):
        self.inner = inner
        self.dim = inner.dim
        self.fingerprint = inner.fingerprint
        self.batches = []

    def embed(self, text):
        return self.embed_many([text])[0]

    def embed_many(self, texts):
        self.batches.append(list(texts))
        return self.inner.embed_many(texts)


class TestStoredVectors:
    def test_serves_what_set_up_embedded(self, provider):
        corpus = titled_corpus()
        index = build_index(corpus, provider)
        texts, rows = stored_texts(index, corpus)
        assert index.rows.dense(rows).tobytes() == \
            provider.embed_many(texts).tobytes()

    def test_candidates_without_rows_raise(self, provider):
        """Candidates built from documents or pairs carry no index rows;
        scoring or reducing them is refused, not done by text."""
        corpus = titled_corpus()
        index = build_index(corpus, provider)
        recording = RecordingProvider(provider)
        scorer = new_scorer(recording)
        retrieved = Retriever(corpus, index, provider).retrieve("cats?", 3)
        scored = score_candidates(scorer, "cats?", retrieved)
        pairs = ScoredCandidates.of(
            (retrieved[i], scored.score(i)) for i in range(len(scored)))
        recording.batches.clear()
        for candidates in (Candidates(list(corpus), np.zeros(3)),
                           pairs.candidates):
            with pytest.raises(ValueError, match="no index rows"):
                score_candidates(scorer, "cats?", candidates)
        with pytest.raises(ValueError, match="no index rows"):
            reduce("cats?", pairs, scorer,
                   DetectorModel(Mlp([6, 4, 1]), max_docs=3, seed=0),
                   max_docs=3)
        assert recording.batches == []

    def test_other_provider_raises(self, provider):
        """A scorer whose provider is not the index's, of the same width,
        is refused: its document halves would come from rows another
        provider embedded."""
        corpus = titled_corpus()
        index = build_index(corpus, provider)
        retriever = Retriever(corpus, index, provider)
        scorer = new_scorer(HashingEmbedder(dim=64, seed=8))
        with pytest.raises(IndexIntegrityError, match="index built with"):
            score_candidates(scorer, "cats?", retriever.retrieve("cats?", 3))
        # set-up scores the candidates of each question the LLM cannot
        # answer bare
        with pytest.raises(IndexIntegrityError, match="index built with"):
            build_detector_dataset(
                [QARecord("q0", "what do cats do?", ["purr"])], retriever,
                scorer, ScriptedLlmClient(default_answer="no idea"),
                max_docs=2, top_retrieve=3, samples_per_question=4, seed=0)


# words and separators around the single-window test's edges: every
# whitespace kind str.split splits at and the one str.isprintable passes
# (the space), control and format characters, abbreviations, and
# terminators that end no sentence
_WORDS = ["It ran.", "Mr.", "J. Smith won!", "Why?", "3.5 kg", "...", "end",
          "e.g.", "x"]
_SEPARATORS = [" ", "  ", "\t", "\n", "\xa0", "\u2009", "\x1c", "\x85",
               "\u3000", "\x00", "\u200b", ""]


def window_texts():
    """Texts of 0 to WINDOW + 3 words, each followed by a separator, with
    optional leading and trailing whitespace."""
    edge = st.sampled_from(["", " ", "  ", "\t", "\xa0"])
    return st.integers(0, WINDOW + 3).flatmap(lambda k: st.tuples(
        edge, st.lists(st.sampled_from(_WORDS), min_size=k, max_size=k),
        st.lists(st.sampled_from(_SEPARATORS), min_size=k, max_size=k),
        edge)).map(lambda parts: parts[0] + "".join(
            map(str.__add__, parts[1], parts[2])) + parts[3])


def full_window_test(text):
    """Whether ``text`` is a single-spaced text of at most WINDOW
    sentences, tested as the index once did for every document."""
    return not (max_sentences(text) > WINDOW
                or " ".join(text.split()) != text)


def long_corpus():
    """Titled and untitled documents of 5 and 6 sentences, one repeating
    another's window, and one of 2 sentences."""
    return Corpus([
        make_document("a", "Cats", "The cat sat. It purred. It slept. "
                                   "It woke. It ate."),
        make_document("b", "", "Dogs bark. They run. They dig. They sleep. "
                               "They eat. They play."),
        make_document("c", "Birds", "They sing. They fly. They dig. "
                                    "They sleep. They eat."),
        make_document("d", "", "short one. only two"),
    ])


class SignedZeroProvider:
    """Rows of +0.0, -0.0, subnormal and normal entries, from each text's
    hash; not unit rows, which no stored row needs."""

    dim = 8
    fingerprint = "signed-zero:v1"

    ENTRIES = (0.0, -0.0, 5e-324, -2.5e-320, 1.0, -0.75)

    def __init__(self):
        self.batches = []

    def embed_many(self, texts):
        self.batches.append(list(texts))
        out = np.empty((len(texts), self.dim))
        for row, text in enumerate(texts):
            digest = hashlib.blake2b(text.encode(), digest_size=8).digest()
            out[row] = [self.ENTRIES[b % len(self.ENTRIES)]
                        for b in digest]
        return out


class TestWindowRows:
    def test_only_the_question_is_embedded(self, provider):
        corpus = long_corpus()
        index = build_index(corpus, provider)
        recording = RecordingProvider(provider)
        scorer = new_scorer(recording)
        candidates = Retriever(corpus, index, provider).retrieve(
            "a question?", 4)
        docs = list(candidates.docs)
        scored = score_candidates(scorer, "a question?", candidates)
        windows = score_windows(docs, scorer, "a question?", index=index,
                                rows=candidates.rows)
        assert recording.batches == [["a question?"]] * 2
        # and bit for bit as their texts score
        by_text = new_scorer(provider)
        want, _ = by_text.score_arrays("a question?",
                                       [doc.text for doc in docs])
        assert scored.logits.tobytes() == want.tobytes()
        assert windows.logits.tobytes() == score_windows(
            docs, by_text, "a question?").logits.tobytes()

    def test_each_document_keeps_its_windows_together(self, provider):
        corpus = long_corpus()
        index = build_index(corpus, provider)
        # after the 4 document rows, a: its text and 3 windows, b: 4
        # windows, c: its text and 3 windows, one of them repeating one
        # of b's, stored again next to c's other two; d's one window is
        # its text
        assert len(index.rows) == 4 + 1 + 3 + 4 + 1 + 3
        assert index.text_rows.tolist() == [4, 1, 12, 3]
        assert index.window_rows.tolist() == [5, 8, 13, 3]
        texts, rows = stored_texts(index, corpus)
        assert index.rows.dense(rows).tobytes() == \
            provider.embed_many(texts).tobytes()

    def test_short_documents_store_no_rows(self, provider):
        corpus = titled_corpus_short()
        index = build_index(corpus, provider)
        # the titled documents' text rows only, after the document rows,
        # each its document's one window
        titled = [i for i, doc in enumerate(corpus) if doc.title]
        assert len(index.rows) == len(index) + len(titled)
        assert index.text_rows[titled].tolist() == list(
            range(len(index), len(index.rows)))
        assert index.window_rows.tolist() == index.text_rows.tolist()
        assert len(build_index(small_corpus(), provider).rows) == 3

    def test_irregular_spacing_stores_the_joined_window(self, provider):
        corpus = Corpus([make_document("a", "T", "One.  Two.\nThree. ")])
        index = build_index(corpus, provider)
        # the document row, the text row and the joined window
        assert len(index.rows) == 3
        assert (index.text_rows.tolist(), index.window_rows.tolist()) == \
            ([1], [2])
        assert index.rows.dense([2]).tobytes() == \
            provider.embed_many(["One. Two. Three."]).tobytes()

    @given(window_texts())
    @settings(max_examples=400, deadline=None)
    def test_one_window_test_matches_the_full_test(self, text):
        assert retrieval_module._one_window(text) == full_window_test(text)

    @pytest.mark.parametrize("text", [
        "", "One.", "One. Two. Three.", "One. Two. Three. Four.",
        "One. Two. Three", "One. Two. Three. Four", " One.", "One. ",
        "One.  Two.", "One.\tTwo.", "One.\xa0Two.", "One.\u2009Two.",
        "One.\x1cTwo.", "3.5 kg. 2.5 kg. 1.5 kg. 0.5 kg",
        "Mr. A. Mr. B. Mr. C.",
        "Why? Why! Why. Why"])
    def test_one_window_test_at_its_edges(self, text):
        assert retrieval_module._one_window(text) == full_window_test(text)

    @given(st.lists(window_texts().filter(str.strip), min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_index_rows_as_with_the_full_test(self, texts):
        corpus = Corpus([make_document(f"d{i}", "T" if i % 2 else "", text)
                         for i, text in enumerate(texts)])
        provider = HashingEmbedder(dim=16, seed=3)
        got = build_index(corpus, provider)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(retrieval_module, "_one_window", full_window_test)
            want = build_index(corpus, provider)
        for name, array in want.rows.arrays().items():
            assert getattr(got.rows, name).tobytes() == array.tobytes()
        assert got.text_rows.tobytes() == want.text_rows.tobytes()
        assert got.window_rows.tobytes() == want.window_rows.tobytes()

    def test_signed_zeros_and_subnormals_served_bit_for_bit(self, tmp_path):
        fake = SignedZeroProvider()
        corpus = long_corpus()
        build_index(corpus, fake).save(tmp_path / "index")
        index = VectorIndex.load(tmp_path / "index")
        # most entries are stored, so the document rows scan densely
        assert index.scan._dense is not None
        query = fake.embed_many(["a question?"])[0]
        assert index.search(query, 4) == exact_search(index, query, 4)
        texts, rows = stored_texts(index, corpus)
        want = fake.embed_many(texts)
        assert (want.view(np.uint64) == np.float64(-0.0).view(
            np.uint64)).any()
        assert (want.view(np.uint64) == np.float64(5e-324).view(
            np.uint64)).any()
        assert index.rows.dense(rows).tobytes() == want.tobytes()

    def test_loaded_index_serves_held_texts_without_the_provider(
            self, tmp_path, provider, monkeypatch):
        corpus = long_corpus()
        build_index(corpus, provider).save(tmp_path / "index")
        index = VectorIndex.load(tmp_path / "index")

        def no_hash(text):
            raise AssertionError(f"hashed {text!r}")

        monkeypatch.setattr(seeds_module, "stable_hash", no_hash)
        texts, rows = stored_texts(index, corpus)
        assert index.rows.dense(rows).tobytes() == \
            provider.embed_many(texts).tobytes()
        recording = RecordingProvider(provider)
        scorer = new_scorer(recording)
        question = provider.embed("a question?")
        candidates = Retriever(corpus, index, recording).retrieve(
            "a question?", 4, question)
        score_candidates(scorer, "a question?", candidates, question)
        score_windows(list(candidates.docs), scorer, "a question?", question,
                      index, candidates.rows)
        assert recording.batches == []

    def test_threads_sharing_an_index_are_served_alike(self, provider):
        corpus = long_corpus()
        index = build_index(corpus, provider)
        texts, rows = stored_texts(index, corpus)
        want = provider.embed_many(texts).tobytes()
        got = []

        def serve(offset):
            # each thread asks in its own order
            for _ in range(50):
                dense = index.rows.dense(rows[offset:] + rows[:offset])
                got.append(np.roll(dense, offset, axis=0).tobytes())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=serve, args=(offset,))
                       for offset in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == [want] * 200

    def test_round_trip_keeps_window_rows(self, tmp_path, provider):
        index = build_index(long_corpus(), provider)
        index.save(tmp_path / "index")
        loaded = VectorIndex.load(tmp_path / "index")
        for got, want in ((loaded.window_rows, index.window_rows),
                          *zip(loaded.rows.arrays().values(),
                               index.rows.arrays().values())):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_file_without_window_rows_rejected(self, tmp_path, provider):
        index = build_index(long_corpus(), provider)
        path = tmp_path / "index"
        artifacts.save(path, "index",
                       {"doc_ids": index.doc_ids, "corpus_sha256": None,
                        "provider_fingerprint": index.provider_fingerprint,
                        "dim": index.dim},
                       index.rows.arrays())
        with pytest.raises(IndexIntegrityError,
                           match="older layout; rebuild it"):
            VectorIndex.load(path)

    def test_file_with_a_dense_matrix_rejected(self, tmp_path, provider):
        """The document rows as a dense ``vectors`` array with their
        ``digests``, the others as ``row_*`` arrays, under a header that
        passes every header check."""
        index = build_index(long_corpus(), provider)
        n = len(index)
        path = tmp_path / "index"
        artifacts.save(path, "index",
                       {"doc_ids": index.doc_ids, "corpus_sha256": None,
                        "provider_fingerprint": index.provider_fingerprint,
                        "dim": index.dim},
                       {"vectors": dense_rows(index.rows, n),
                        "digests": np.arange(n, dtype=np.uint64),
                        **{f"row_{name}": array for name, array in
                           sparse_rows(dense_rows(index.rows)[n:]).arrays(
                           ).items()}})
        with pytest.raises(IndexIntegrityError,
                           match=re.escape(f"{path}: leanrag-index is in an "
                                           "older layout; rebuild it")):
            VectorIndex.load(path)

    def test_file_in_the_old_layout_rejected(self, tmp_path, provider):
        """Text rows as a dense ``text_vectors`` array, the index rows'
        digests as a header list and window rows as ``window_*`` arrays."""
        index = build_index(long_corpus(), provider)
        titled = [doc.text for doc in long_corpus() if doc.title]
        path = tmp_path / "index"
        artifacts.save(path, "index",
                       {"doc_ids": index.doc_ids,
                        "digests": [stable_hash(document_embedding_text(doc))
                                    for doc in long_corpus()] +
                        list(map(stable_hash, titled)),
                        "provider_fingerprint": index.provider_fingerprint},
                       {"vectors": dense_rows(index.rows, len(index)),
                        "text_vectors": provider.embed_many(titled),
                        **{f"window_{name}": getattr(index.rows, name)
                           for name in index.rows.ARRAYS}})
        with pytest.raises(IndexIntegrityError, match="rebuild it"):
            VectorIndex.load(path)

    @pytest.mark.parametrize("damage,match", [
        ({"counts": np.array([1, 2], dtype=np.int64)}, "number the counts"),
        ({"columns": np.array([0, 8], dtype=np.int32)}, "column ids"),
        ({"values": np.array([1.0, np.nan])}, "values must be finite"),
        ({"docrows": np.array([[0], [1]], dtype=np.uint64)}, "uint64"),
        ({"counts": np.array([1.0, 1.0])}, "integers"),
        ({"docrows": np.array([[0], [2]], dtype=np.int32)},
         r"docrows must be in \[0, 2\)"),
        ({"docrows": np.array([[-1], [1]], dtype=np.int32)},
         r"docrows must be in \[0, 2\)"),
        ({"docrows": np.array([0, 1], dtype=np.int32)},
         "docrows must be int32, two per doc id"),
    ])
    def test_damaged_window_rows_rejected(self, tmp_path, damage, match):
        rows = {"counts": np.array([1, 1], dtype=np.int64),
                "columns": np.array([0, 7], dtype=np.int32),
                "values": np.array([1.0, -0.0]),
                "docrows": np.array([[0], [1]], dtype=np.int32), **damage}
        path = tmp_path / "index"
        artifacts.save(path, "index",
                       {"doc_ids": ["a"], "corpus_sha256": None,
                        "provider_fingerprint": "fp", "dim": 8}, rows)
        with pytest.raises(IndexIntegrityError, match=match):
            VectorIndex.load(path)


def chunk_corpus():
    """``long_corpus`` and 6 more: titled, untitled and multi-window
    documents, two untitled ones with one text, 10 in all, which is not a
    multiple of 7."""
    return Corpus([
        *long_corpus(),
        make_document("e", "", "Dogs bark. They run. They dig. They sleep. "
                               "They eat. They play."),
        make_document("f", "Fish", "They swim. They dive. They rest. "
                                   "They hide. They feed. They school. "
                                   "They spawn."),
        make_document("g", "Owls", "They hoot."),
        make_document("h", "", "Frogs leap. They croak."),
        make_document("i", "Bees", "They hum. They dig. They sleep. "
                                   "They eat."),
        make_document("j", "", "Ants march. They carry. They build. "
                               "They rest. They eat."),
    ])


class EchoSession:
    """An embedding endpoint that answers any batch: each text's vector is
    read from its hash, never zero. ``batches`` has each request's texts."""

    def __init__(self, dim):
        self.dim = dim
        self.batches = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.batches.append(json["texts"])
        return FakeResponse({"embeddings": [
            [byte - 127.5 for byte in hashlib.blake2b(
                text.encode(), digest_size=self.dim).digest()]
            for text in json["texts"]]})


class TestChunkedEmbedding:
    QUESTIONS = [QARecord(f"q{i}", f"question {i} about cats", ["cats"])
                 for i in range(10)]

    def saved(self, where, provider):
        """The bytes ``build_index`` and ``build_nn_reference`` save."""
        index = build_index(chunk_corpus(), provider)
        index.save(where / "index")
        build_nn_reference(self.QUESTIONS,
                           ScriptedLlmClient(default_answer="cats"),
                           provider).save(where / "ref")
        return (where / "index").read_bytes(), (where / "ref").read_bytes()

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_chunk_size_changes_no_byte(self, tmp_path, provider,
                                        monkeypatch, chunk):
        assert retrieval_module.EMBED_CHUNK == 1024
        (tmp_path / "default").mkdir()
        want = self.saved(tmp_path / "default", provider)
        monkeypatch.setattr(retrieval_module, "EMBED_CHUNK", chunk)
        (tmp_path / "chunked").mkdir()
        assert self.saved(tmp_path / "chunked", provider) == want

    def test_every_document_keeps_its_own_row(self, provider):
        corpus = chunk_corpus()
        index = build_index(corpus, provider)
        n = len(corpus)
        rows = [row.tobytes() for row in
                index.rows.dense(np.arange(len(index.rows)))]
        want = provider.embed_many(
            [document_embedding_text(doc) for doc in corpus])
        assert rows[:n] == [row.tobytes() for row in want]
        assert rows[1] == rows[4]
        # e's windows are b's run; no extra row repeats a document row,
        # and one repeats another only in a run of windows: c's and i's
        # "They dig. They sleep. They eat." repeat one of b's
        assert index.window_rows[4] == index.window_rows[1]
        extra = rows[n:]
        assert not set(extra) & set(rows[:n])
        assert len(set(extra)) == len(extra) - 2

    @pytest.mark.parametrize("chunk", [7, None])
    def test_remote_requests_hold_at_most_a_chunk(self, monkeypatch, chunk):
        if chunk is not None:
            monkeypatch.setattr(retrieval_module, "EMBED_CHUNK", chunk)
        chunk = retrieval_module.EMBED_CHUNK
        session = EchoSession(dim=8)
        index = build_index(chunk_corpus(),
                            RemoteEmbedder("http://emb", dim=8,
                                           session=session))
        assert len(session.batches) == math.ceil(len(index.rows) / chunk)
        assert max(map(len, session.batches)) <= chunk
        # every stored row was asked for once, in the order it is kept
        by_row = dict(zip(*reversed(stored_texts(index, chunk_corpus()))))
        assert [text for batch in session.batches for text in batch] == \
            [by_row[row] for row in range(len(index.rows))]

    def test_build_holds_a_chunk_of_dense_rows(self, monkeypatch):
        provider = HashingEmbedder(dim=256, seed=3)
        rng = np.random.default_rng(5)
        words = [f"w{i}" for i in range(2000)]
        corpus = Corpus([
            make_document(f"d{i:05d}", "", " ".join(rng.choice(words, 12)))
            for i in range(3000)])
        # fill the token memo first, so that only the build is traced
        provider.embed_many([doc.text for doc in corpus])
        monkeypatch.setattr(retrieval_module, "EMBED_CHUNK", 256)
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            index = build_index(corpus, provider)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert len(index.rows) == 3000
        dense = 3000 * 256 * 8
        assert peak < dense / 2


def titled_corpus_short():
    return Corpus([
        make_document("a", "Cats", "The cat sat. It purred. It slept."),
        make_document("b", "", "Dogs bark! Do they? Yes."),
        make_document("c", "Mr. Smith", "Mr. J. Smith won. He smiled."),
    ])


class TestSearch:
    @staticmethod
    def full_sort(index, query, k):
        sims = dense_rows(index.rows, len(index)) @ query
        order = np.argsort(-sims, kind="stable")[:k]
        return [(index.doc_ids[i], float(sims[i])) for i in order]

    def test_ties_straddling_kth_place(self):
        # ids deliberately out of order; rows 1-5 tie on the middle value
        values = [3.0, 2.0, 2.0, 2.0, 2.0, 2.0, 1.0, 1.0]
        ids = ["h", "e", "b", "g", "a", "d", "c", "f"]
        index = dense_index(ids, np.array([[v, 0.0] for v in values]))
        query = np.array([1.0, 0.0])
        for k in range(1, len(ids) + 2):
            assert index.search(query, k) == self.full_sort(index, query, k)
        assert [doc_id for doc_id, _ in index.search(query, 3)] == \
            ["h", "a", "b"]

    def test_matches_full_sort_with_many_ties(self):
        rng = np.random.default_rng(5)
        vectors = rng.integers(-2, 3, size=(300, 4)).astype(np.float64)
        index = dense_index([f"d{i}" for i in rng.permutation(300)], vectors)
        for _ in range(20):
            query = rng.integers(-1, 2, size=4).astype(np.float64)
            for k in (1, 5, 17, 100, 299, 300):
                assert index.search(query, k) == \
                    self.full_sort(index, query, k)


@st.composite
def scan_cases(draw, sparse: bool):
    """An index on the ``sparse`` side of ``SPARSE_SHARE`` and a query:
    integer grids with heavy ties, +-1 rows or Gaussian rows with norms
    from 1e-3 to 1e3, some rows copies of others, some entries -0.0; the
    query a grid, a Gaussian, zero, or equal to a row."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 24))
    dim = draw(st.integers(4, 12))
    kind = draw(st.sampled_from(["grid", "signs", "gauss"]))
    if kind == "grid":
        vectors = rng.integers(-2, 3, size=(n, dim)).astype(np.float64)
    elif kind == "signs":
        vectors = rng.choice([-1.0, 1.0], size=(n, dim))
    else:
        vectors = rng.standard_normal((n, dim)) * \
            10.0 ** rng.uniform(-3, 3, size=(n, 1))
    if sparse:  # at most a quarter of each row's entries kept
        kept = np.zeros((n, dim), dtype=bool)
        for row in kept:
            row[rng.choice(dim, rng.integers(0, dim // 4 + 1),
                           replace=False)] = True
        vectors = np.where(kept, vectors, 0.0)
    copies = rng.integers(0, n, size=draw(st.integers(0, n)))
    vectors[rng.permutation(n)[:len(copies)]] = vectors[copies]
    # a -0.0 is a stored entry, as the value it replaces was
    signed = rng.random((n, dim)) < draw(st.sampled_from([0.0, 0.3]))
    vectors[signed & (vectors != 0)] = -0.0
    stored = np.count_nonzero(vectors.view(np.uint64))
    assume((stored <= retrieval_module.SPARSE_SHARE * vectors.size)
           == sparse)
    query_kind = draw(st.sampled_from(["grid", "gauss", "zero", "row"]))
    if query_kind == "grid":
        query = rng.integers(-1, 2, size=dim).astype(np.float64)
    elif query_kind == "gauss":
        query = rng.standard_normal(dim) * 10.0 ** rng.uniform(-3, 3)
    elif query_kind == "zero":
        query = np.zeros(dim)
    else:
        query = vectors[rng.integers(n)].copy()
    ids = [f"d{i:02d}" for i in rng.permutation(n)]
    return dense_index(ids, vectors), query


class TestExactScan:
    """``search`` against the plain-Python definition of similarity, on both
    sides of the sparse threshold, for every k."""

    @staticmethod
    def check_every_k(index, query):
        for k in range(1, len(index) + 2):
            assert index.search(query, k) == exact_search(index, query, k)

    @given(scan_cases(sparse=True))
    @settings(deadline=None)
    def test_sparse_index_matches_definition(self, case):
        index, query = case
        self.check_every_k(index, query)
        assert index.scan._dense is None

    @given(scan_cases(sparse=False))
    @settings(deadline=None)
    def test_dense_index_matches_definition(self, case):
        index, query = case
        self.check_every_k(index, query)
        assert index.scan._dense is not None

    def test_identical_rows_score_identically_wherever_they_sit(self):
        # a matrix-vector product may sum the last n mod 4 rows in another
        # order than the rest, so copies of row 0 placed there drifted
        rng = np.random.default_rng(11)
        vectors = rng.standard_normal((23, 64))
        vectors[20:] = vectors[0]
        index = dense_index([f"d{i:02d}" for i in range(23)], vectors)
        for _ in range(200):
            query = rng.standard_normal(64)
            got = index.search(query, 23)
            sims = dict(got)
            assert sims["d00"] == sims["d20"] == sims["d21"] == sims["d22"]
            assert got == exact_search(index, query, 23)

    def test_scan_planned_when_built_or_loaded(self, tmp_path, provider):
        index = build_index(small_corpus(), provider)
        index.save(tmp_path / "index")
        reference = build_nn_reference(
            [QARecord(f"q{i}", f"question {i} about cats", ["cats"])
             for i in range(4)], ScriptedLlmClient(default_answer="cats"),
            provider)
        reference.save(tmp_path / "ref")
        query = provider.embed("cats and dogs")
        for scan in (index.scan, VectorIndex.load(tmp_path / "index").scan,
                     reference.scan,
                     NnReferenceSet.load(tmp_path / "ref").scan):
            assert scan._dense is None and len(scan._starts) == 65
            state = {name: value.copy() if isinstance(value, np.ndarray)
                     else value for name, value in vars(scan).items()}
            assert scan.top(query, 2) is not None
            assert vars(scan).keys() == state.keys()
            for name, value in vars(scan).items():
                assert (value.tobytes() == state[name].tobytes()
                        if isinstance(value, np.ndarray)
                        else value is state[name])
        dense = dense_index(["a", "b"], np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert dense.scan._dense is not None
        assert dense.search(np.array([1.0, 1.0]), 1) == [("b", 7.0)]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_vectors_refused(self, tmp_path, bad):
        vectors = np.eye(3)
        vectors[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            dense_index(["a", "b", "c"], vectors)
        with pytest.raises(ValueError, match="finite"):
            SparseRows.compress([vectors], 3)
        path = tmp_path / "index"
        arrays = sparse_rows(np.eye(3)).arrays()
        arrays["values"][1] = bad
        arrays["docrows"] = np.zeros((2, 3), dtype=np.int32)
        artifacts.save(path, "index",
                       {"doc_ids": ["a", "b", "c"], "corpus_sha256": None,
                        "provider_fingerprint": "fp", "dim": 3}, arrays)
        with pytest.raises(IndexIntegrityError, match="must be finite"):
            VectorIndex.load(path)
        index = dense_index(["a", "b", "c"], np.eye(3))
        with pytest.raises(ValueError, match="finite"):
            index.search(np.array([1.0, bad, 0.0]), 2)

    def test_query_of_wrong_width_refused(self):
        index = dense_index(["a", "b"], np.eye(2))
        with pytest.raises(ValueError, match="shape"):
            index.search(np.ones(3), 1)

    def test_zero_rows_and_zero_query(self):
        rows, sims = ExactScan(sparse_rows(np.zeros((0, 3)))).top(
            np.ones(3), 2)
        assert rows.tolist() == sims.tolist() == []
        # no coordinate to add on the column path: every similarity +0.0
        scan = ExactScan(sparse_rows(np.eye(8)))
        rows, sims = scan.top(np.zeros(8), 2)
        assert scan._dense is None
        assert rows.tolist() == [0, 1]
        assert sims.dtype == np.float64
        assert not np.signbit(sims).any() and not sims.any()


# positive similarities with ties and subnormals: the smallest subnormal,
# a subnormal, the smallest normal, and two normals an ulp apart
POSITIVE_SIMS = np.array([5e-324, 1e-310, 2.2250738585072014e-308, 0.125,
                          0.3, np.nextafter(0.3, 1.0), 0.75, 1.0])


def mostly_zero_sims(seed, n, positives, negatives=300):
    """``n`` similarities, all exactly +0.0 but ``positives`` drawn from
    ``POSITIVE_SIMS`` and ``negatives`` below zero (a few of them -0.0),
    as a question scores a large index whose rows it mostly touches no
    coordinate of."""
    rng = np.random.default_rng(seed)
    sims = np.zeros(n)
    where = rng.permutation(n)[:positives + negatives]
    sims[where[:positives]] = rng.choice(POSITIVE_SIMS, positives)
    sims[where[positives:]] = -rng.choice(
        np.concatenate([POSITIVE_SIMS, [0.0]]), negatives)
    return sims


class TestTopAtScale:
    """``_top`` over 20,000 similarities, at least 95 % of them +0.0, with
    fewer, exactly and more positive ones than k."""

    N = 20_000

    @pytest.mark.parametrize("positives", [0, 1, 99, 100, 101, 700])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_a_stable_sort(self, seed, positives):
        sims = mostly_zero_sims(seed, self.N, positives)
        assert np.count_nonzero(sims.view(np.uint64)) <= 0.05 * self.N
        full = np.argsort(-sims, kind="stable")
        for k in sorted({1, 100, positives, self.N - 1, self.N} - {0}):
            top = retrieval_module._top(sims, k)
            assert top.tolist() == full[:k].tolist()
            assert sims[top].tobytes() == sims[full[:k]].tobytes()

    @pytest.mark.parametrize("positives, k, pool", [
        (700, 100, 700), (100, 100, 100), (99, 100, 20_000), (0, 1, 20_000)])
    def test_selects_among_the_positive_ones(self, positives, k, pool):
        sizes = []

        class Spy(np.ndarray):
            def partition(self, kth):
                sizes.append(len(self))
                return super().partition(kth)

        sims = mostly_zero_sims(3, self.N, positives)
        top = retrieval_module._top(sims.view(Spy), k)
        assert sizes == [pool]
        assert top.tolist() == np.argsort(-sims, kind="stable")[:k].tolist()


class TestRetrieve:
    def test_identical_text_ranks_first(self, provider):
        corpus = small_corpus()
        retriever = Retriever(corpus, build_index(corpus, provider), provider)
        results = retriever.retrieve("quantum mechanics of large systems", k=3)
        assert results[0].doc.doc_id == "c"
        assert results[0].rank == 1

    def test_k_larger_than_corpus(self, provider):
        corpus = small_corpus()
        retriever = Retriever(corpus, build_index(corpus, provider), provider)
        results = retriever.retrieve("cats", k=50)
        assert len(results) == 3
        assert [r.rank for r in results] == [1, 2, 3]

    def test_similarity_nonincreasing(self, provider):
        corpus = small_corpus()
        retriever = Retriever(corpus, build_index(corpus, provider), provider)
        results = retriever.retrieve("the cat", k=3)
        sims = [r.similarity for r in results]
        assert sims == sorted(sims, reverse=True)

    def test_ties_brokenby_doc_id(self, provider):
        corpus = Corpus([
            make_document("z", "", "same words here"),
            make_document("a", "", "same words here"),
            make_document("m", "", "same words here"),
        ])
        retriever = Retriever(corpus, build_index(corpus, provider), provider)
        results = retriever.retrieve("same words here", k=3)
        assert [r.doc.doc_id for r in results] == ["a", "m", "z"]

    def test_matches_bruteforce_scan(self):
        provider = HashingEmbedder(dim=32, seed=3)
        rng = np.random.default_rng(0)
        vocab = [f"word{i}" for i in range(60)]
        docs = [
            make_document(f"d{i:03d}", "",
                          " ".join(rng.choice(vocab, size=12)))
            for i in range(200)
        ]
        corpus = Corpus(docs)
        index = build_index(corpus, provider)
        retriever = Retriever(corpus, index, provider)
        for query in ("word1 word2 word3", "word50", "word10 word20"):
            got = [(r.doc.doc_id, r.similarity) for r in
                   retriever.retrieve(query, k=10)]
            # oracle: exhaustive cosine over every document
            qv = provider.embed(query)
            sims = []
            for doc in docs:
                text = doc.text
                sims.append((doc.doc_id,
                             float(provider.embed(text) @ qv)))
            sims.sort(key=lambda pair: (-pair[1], pair[0]))
            assert got == sims[:10]


class TestRecall:
    def results_with_answer_at(self, rank, total=10):
        docs = []
        for i in range(1, total + 1):
            text = "the answer lives here" if i == rank else "nothing useful"
            docs.append(make_document(f"d{i}", "", text))
        from leanrag.retrieval import RetrievedDoc

        return [RetrievedDoc(doc=d, similarity=1.0 - 0.01 * i, rank=i)
                for i, d in enumerate(docs, start=1)]

    def test_hit_at_rank_one(self):
        results = self.results_with_answer_at(1)
        assert recall_at_k(results, {"answer"}, 1) == 1.0

    def test_no_hit(self):
        results = self.results_with_answer_at(1)
        assert recall_at_k(results, {"missing"}, 10) == 0.0

    def test_rank_seven_boundary(self):
        results = self.results_with_answer_at(7)
        assert recall_at_k(results, {"answer"}, 5) == 0.0
        assert recall_at_k(results, {"answer"}, 10) == 1.0

    def test_monotone_in_k(self):
        results = self.results_with_answer_at(4)
        values = [recall_at_k(results, {"answer"}, k) for k in range(1, 11)]
        assert values == sorted(values)

    def test_on_a_retrieve_result(self, provider):
        corpus = small_corpus()
        retriever = Retriever(corpus, build_index(corpus, provider), provider)
        results = retriever.retrieve("quantum mechanics of large systems", 3)
        assert results[0].doc.doc_id == "c"
        assert recall_at_k(results, {"quantum"}, 1) == 1.0
        assert recall_at_k(results, {"cat sat"}, 1) == 0.0
        assert recall_at_k(results, {"cat sat"}, 3) == 1.0

    def test_k_out_of_range(self):
        results = self.results_with_answer_at(1, total=3)
        with pytest.raises(ValueError):
            recall_at_k(results, {"answer"}, 4)
