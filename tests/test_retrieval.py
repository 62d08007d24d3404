import hashlib
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from synthetic import exact_search

import leanrag.retrieval as retrieval_module
from leanrag import artifacts
from leanrag.artifacts import check_provider
from leanrag.corpus import Corpus, make_document
from leanrag.retrieval import (INDEX_FIELDS, EmbeddingProviderError,
                               ExactScan, HashingEmbedder, IndexIntegrityError,
                               RemoteEmbedder, Retriever, SparseRows,
                               VectorIndex, build_index,
                               document_embedding_text, mean_recall_at_k,
                               recall_at_k)
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
        assert embedder._slot.cache_info().currsize <= 3


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

    def test_http_error_is_retryable_provider_error(self):
        session = FakeSession([FakeResponse({}, status=500)])
        remote = RemoteEmbedder("http://emb", dim=2, session=session)
        with pytest.raises(EmbeddingProviderError) as excinfo:
            remote.embed("hello")
        assert excinfo.value.retryable

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
        # the payload's array header claims one column fewer than written
        data = path.read_bytes()
        assert data.count(b"(3, 64)") == 1
        path.write_bytes(data.replace(b"(3, 64)", b"(3, 63)"))
        with pytest.raises(IndexIntegrityError):
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

    def test_own_provider_accepted(self, provider):
        self.check(build_index(small_corpus(), provider), provider)

    def test_doc_ids_missing_from_corpus_detected(self, provider):
        index = build_index(small_corpus(), provider)
        index.verify_corpus(small_corpus())
        stale = Corpus([make_document("a", "", "the cat sat on the mat")])
        with pytest.raises(IndexIntegrityError):
            index.verify_corpus(stale)

    def test_document_missing_from_index_detected(self, provider):
        index = build_index(small_corpus(), provider)
        grown = Corpus([*small_corpus(),
                        make_document("d", "", "a document added later")])
        with pytest.raises(IndexIntegrityError, match="rebuild it"):
            index.verify_corpus(grown)

    def test_repeated_doc_ids_detected(self, provider):
        index = build_index(small_corpus(), provider)
        repeated = VectorIndex(["a", "a", "b", "c"],
                               np.vstack([index.vectors[:1], index.vectors]),
                               index.provider_fingerprint)
        with pytest.raises(IndexIntegrityError, match="repeats"):
            repeated.verify_corpus(small_corpus())

    def test_one_text_row_per_titled_document(self, provider):
        index = build_index(titled_corpus(), provider)
        titled = [doc.text for doc in titled_corpus() if doc.title]
        digests = index.rows.digests.tolist()
        got = np.empty((len(titled), index.dim))
        index.rows.fill(got, range(len(titled)),
                        [digests.index(stable_hash(text)) for text in titled])
        assert got.tobytes() == provider.embed_many(titled).tobytes()
        index.verify_corpus(titled_corpus())
        retitled = Corpus([make_document(doc.doc_id, "Now titled", doc.text)
                           for doc in titled_corpus()])
        with pytest.raises(IndexIntegrityError, match="2 titled documents"):
            index.verify_corpus(retitled)

    def test_ids_in_order_not_copied(self):
        vectors = np.arange(12.0).reshape(4, 3)
        index = VectorIndex(["a", "b", "c", "d"], vectors, "fp")
        assert np.shares_memory(index.vectors, vectors)

    def test_round_trip_keeps_text_rows(self, tmp_path, provider):
        index = build_index(titled_corpus(), provider)
        index.save(tmp_path / "index")
        loaded = VectorIndex.load(tmp_path / "index")
        for name in ("digests", "counts", "columns", "values"):
            got, want = (getattr(i.rows, name) for i in (loaded, index))
            assert got.tobytes() == want.tobytes()
        assert loaded.digests.dtype == np.uint64
        assert loaded.digests.tobytes() == index.digests.tobytes()
        assert loaded.titled == index.titled == 2

    def test_file_without_text_rows_rejected(self, tmp_path, provider):
        index = build_index(small_corpus(), provider)
        path = tmp_path / "index"
        artifacts.save(path, "index",
                       {"doc_ids": index.doc_ids,
                        "provider_fingerprint": index.provider_fingerprint},
                       {"vectors": index.vectors})
        with pytest.raises(IndexIntegrityError, match="rebuild it"):
            VectorIndex.load(path)


def titled_corpus():
    return Corpus([
        make_document("a", "Cats", "The cat sat. It purred. It slept. "
                                   "It woke."),
        make_document("b", "", "dogs chase cats around town"),
        make_document("c", "Physics", "quantum mechanics of large systems"),
    ])


class RecordingProvider:
    def __init__(self, inner):
        self.inner = inner
        self.dim = inner.dim
        self.fingerprint = inner.fingerprint
        self.batches = []

    def embed_many(self, texts):
        self.batches.append(list(texts))
        return self.inner.embed_many(texts)


class TestStoredVectors:
    def test_serves_what_set_up_embedded(self, provider):
        corpus = titled_corpus()
        index = build_index(corpus, provider)
        texts = ["a question?", *(doc.text for doc in corpus),
                 "Cats. " + corpus.get("a").text]
        recording = RecordingProvider(provider)
        got = index.embed_many(recording, texts)
        assert got.tobytes() == provider.embed_many(texts).tobytes()
        assert recording.batches == [["a question?"]]

    def test_document_edited_after_indexing_embedded_afresh(self, provider):
        index = build_index(titled_corpus(), provider)
        edited = Corpus([make_document(doc.doc_id, doc.title,
                                       doc.text + " Edited.")
                         for doc in titled_corpus()])
        texts = [doc.text for doc in edited]
        recording = RecordingProvider(provider)
        got = index.embed_many(recording, texts)
        assert got.tobytes() == provider.embed_many(texts).tobytes()
        assert recording.batches == [texts]

    def test_other_provider_served_nothing(self, provider):
        corpus = titled_corpus()
        other = RecordingProvider(HashingEmbedder(dim=64, seed=8))
        index = build_index(corpus, provider)
        texts = [doc.text for doc in corpus]
        assert index.embed_many(other, texts).tobytes() == \
            other.inner.embed_many(texts).tobytes()
        assert other.batches == [texts]


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
    @staticmethod
    def windows(corpus):
        return [text for doc in corpus for text in doc.windows]

    def test_only_the_question_is_embedded(self, provider):
        corpus = long_corpus()
        index = build_index(corpus, provider)
        texts = ["a question?", *self.windows(corpus),
                 *(doc.text for doc in corpus)]
        recording = RecordingProvider(provider)
        got = index.embed_many(recording, texts)
        assert got.tobytes() == provider.embed_many(texts).tobytes()
        assert recording.batches == [["a question?"]]

    def test_one_row_per_window_no_other_row_holds(self, provider):
        corpus = long_corpus()
        index = build_index(corpus, provider)
        # a: its text and 3 windows, b: 4 windows, c: its text and 3
        # windows, of which "They dig. They sleep. They eat." repeats one of
        # b's; d's one window is its text
        assert len(index.rows) == 1 + 3 + 4 + 1 + 2
        assert sorted(index.rows.digests.tolist()) == sorted(
            {stable_hash(text) for text in [
                *self.windows(corpus)[:-1], corpus.get("a").text,
                corpus.get("c").text]})

    def test_short_documents_store_no_rows(self, provider):
        corpus = titled_corpus_short()
        index = build_index(corpus, provider)
        # the titled documents' text rows only
        assert index.rows.digests.tolist() == [
            stable_hash(doc.text) for doc in corpus if doc.title]
        assert len(build_index(small_corpus(), provider).rows) == 0

    def test_irregular_spacing_stores_the_joined_window(self, provider):
        corpus = Corpus([make_document("a", "T", "One.  Two.\nThree. ")])
        index = build_index(corpus, provider)
        # the text row and the joined window
        assert len(index.rows) == 2
        recording = RecordingProvider(provider)
        assert index.embed_many(recording, ["One. Two. Three."]).tobytes() \
            == provider.embed_many(["One. Two. Three."]).tobytes()
        assert recording.batches == []

    def test_document_edited_after_indexing_embedded_afresh(self, provider):
        index = build_index(long_corpus(), provider)
        edited = Corpus([
            make_document(doc.doc_id, doc.title,
                          doc.text.replace("It slept.", "It dozed."))
            for doc in long_corpus()])
        texts = self.windows(edited)
        recording = RecordingProvider(provider)
        got = index.embed_many(recording, texts)
        assert got.tobytes() == provider.embed_many(texts).tobytes()
        # a's three windows all held the edited sentence
        assert recording.batches == [texts[:3]]

    def test_signed_zeros_and_subnormals_served_bit_for_bit(self, tmp_path):
        fake = SignedZeroProvider()
        corpus = long_corpus()
        build_index(corpus, fake).save(tmp_path / "index")
        index = VectorIndex.load(tmp_path / "index")
        texts = self.windows(corpus)
        want = fake.embed_many(texts)
        assert (want.view(np.uint64) == np.float64(-0.0).view(
            np.uint64)).any()
        assert (want.view(np.uint64) == np.float64(5e-324).view(
            np.uint64)).any()
        fake.batches.clear()
        got = index.embed_many(fake, texts)
        assert got.tobytes() == want.tobytes()
        assert fake.batches == []

    def test_loaded_index_serves_held_texts_without_the_provider(
            self, tmp_path, provider, monkeypatch):
        corpus = long_corpus()
        build_index(corpus, provider).save(tmp_path / "index")
        index = VectorIndex.load(tmp_path / "index")
        hashed = []

        def counting_hash(text):
            hashed.append(text)
            return stable_hash(text)

        monkeypatch.setattr(retrieval_module, "stable_hash", counting_hash)
        texts = [*self.windows(corpus), *(doc.text for doc in corpus),
                 *map(document_embedding_text, corpus)]
        recording = RecordingProvider(provider)
        got = index.embed_many(recording, texts)
        assert got.tobytes() == provider.embed_many(texts).tobytes()
        assert recording.batches == []
        assert len(hashed) <= len(texts)
        # texts no row holds go to the provider, in one call
        unheld = ["a question?", "another question?"]
        got = index.embed_many(recording, [texts[0], *unheld])
        assert got.tobytes() == provider.embed_many(
            [texts[0], *unheld]).tobytes()
        assert recording.batches == [unheld]

    def test_threads_sharing_an_index_are_served_alike(self, provider):
        corpus = long_corpus()
        index = build_index(corpus, provider)
        texts = [*self.windows(corpus), *(doc.text for doc in corpus),
                 "a question?"]
        want = provider.embed_many(texts).tobytes()
        got = []

        def serve(offset):
            # each thread asks in its own order, so they build the digest
            # map at once
            for _ in range(50):
                rows = index.embed_many(provider,
                                        texts[offset:] + texts[:offset])
                got.append(np.roll(rows, offset, axis=0).tobytes())

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
        for name in ("digests", "counts", "columns", "values"):
            got, want = (getattr(i.rows, name) for i in (loaded, index))
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_file_without_window_rows_rejected(self, tmp_path, provider):
        index = build_index(long_corpus(), provider)
        path = tmp_path / "index"
        artifacts.save(path, "index",
                       {"doc_ids": index.doc_ids, "titled": index.titled,
                        "provider_fingerprint": index.provider_fingerprint},
                       {"vectors": index.vectors, "digests": index.digests})
        with pytest.raises(IndexIntegrityError,
                           match="older layout; rebuild it"):
            VectorIndex.load(path)

    def test_file_in_the_old_layout_rejected(self, tmp_path, provider):
        """Text rows as a dense ``text_vectors`` array, the index rows'
        digests as a header list and window rows as ``window_*`` arrays."""
        index = build_index(long_corpus(), provider)
        titled = [doc.text for doc in long_corpus() if doc.title]
        path = tmp_path / "index"
        artifacts.save(path, "index",
                       {"doc_ids": index.doc_ids,
                        "digests": [*index.digests.tolist(),
                                    *map(stable_hash, titled)],
                        "provider_fingerprint": index.provider_fingerprint},
                       {"vectors": index.vectors,
                        "text_vectors": provider.embed_many(titled),
                        **{f"window_{name}": getattr(index.rows, name)
                           for name in index.rows.ARRAYS}})
        with pytest.raises(IndexIntegrityError, match="rebuild it"):
            VectorIndex.load(path)

    @pytest.mark.parametrize("damage,match", [
        ({"counts": np.array([1, 2], dtype=np.int64)}, "number the counts"),
        ({"columns": np.array([0, 8], dtype=np.int32)}, "column ids"),
        ({"values": np.array([1.0, np.nan])}, "values must be finite"),
        ({"digests": np.array([1.0, 2.0])}, "uint64"),
        ({"counts": np.array([1.0, 1.0])}, "integers"),
    ])
    def test_damaged_window_rows_rejected(self, tmp_path, damage, match):
        rows = {"digests": np.array([1, 2], dtype=np.uint64),
                "counts": np.array([1, 1], dtype=np.int64),
                "columns": np.array([0, 7], dtype=np.int32),
                "values": np.array([1.0, -0.0]), **damage}
        path = tmp_path / "index"
        artifacts.save(path, "index",
                       {"doc_ids": ["a"], "titled": 0,
                        "provider_fingerprint": "fp"},
                       {"vectors": np.ones((1, 8)),
                        "digests": np.zeros(1, dtype=np.uint64),
                        **{f"row_{name}": array
                           for name, array in rows.items()}})
        with pytest.raises(IndexIntegrityError, match=match):
            VectorIndex.load(path)


def titled_corpus_short():
    return Corpus([
        make_document("a", "Cats", "The cat sat. It purred. It slept."),
        make_document("b", "", "Dogs bark! Do they? Yes."),
        make_document("c", "Mr. Smith", "Mr. J. Smith won. He smiled."),
    ])


class TestSearch:
    @staticmethod
    def full_sort(index, query, k):
        sims = index.vectors @ query
        order = np.argsort(-sims, kind="stable")[:k]
        return [(index.doc_ids[i], float(sims[i])) for i in order]

    def test_ties_straddling_kth_place(self):
        # ids deliberately out of order; rows 1-5 tie on the middle value
        values = [3.0, 2.0, 2.0, 2.0, 2.0, 2.0, 1.0, 1.0]
        ids = ["h", "e", "b", "g", "a", "d", "c", "f"]
        index = VectorIndex(ids, np.array([[v, 0.0] for v in values]), "fp")
        query = np.array([1.0, 0.0])
        for k in range(1, len(ids) + 2):
            assert index.search(query, k) == self.full_sort(index, query, k)
        assert [doc_id for doc_id, _ in index.search(query, 3)] == \
            ["h", "a", "b"]

    def test_matches_full_sort_with_many_ties(self):
        rng = np.random.default_rng(5)
        vectors = rng.integers(-2, 3, size=(300, 4)).astype(np.float64)
        index = VectorIndex([f"d{i}" for i in rng.permutation(300)], vectors,
                            "fp")
        for _ in range(20):
            query = rng.integers(-1, 2, size=4).astype(np.float64)
            for k in (1, 5, 17, 100, 299, 300):
                assert index.search(query, k) == \
                    self.full_sort(index, query, k)


@st.composite
def scan_cases(draw, sparse: bool):
    """An index on the ``sparse`` side of ``SPARSE_SHARE`` and a query:
    integer grids with heavy ties, +-1 rows or Gaussian rows with norms
    from 1e-3 to 1e3, some rows copies of others; the query a grid, a
    Gaussian, zero, or equal to a row."""
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
    assume((np.count_nonzero(vectors) <= retrieval_module.SPARSE_SHARE
            * vectors.size) == sparse)
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
    return VectorIndex(ids, vectors, "fp"), query


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
        assert index.scan._columns is not None

    @given(scan_cases(sparse=False))
    @settings(deadline=None)
    def test_dense_index_matches_definition(self, case):
        index, query = case
        self.check_every_k(index, query)
        assert index.scan._columns is None

    def test_identical_rows_score_identically_wherever_they_sit(self):
        # a matrix-vector product may sum the last n mod 4 rows in another
        # order than the rest, so copies of row 0 placed there drifted
        rng = np.random.default_rng(11)
        vectors = rng.standard_normal((23, 64))
        vectors[20:] = vectors[0]
        index = VectorIndex([f"d{i:02d}" for i in range(23)], vectors, "fp")
        for _ in range(200):
            query = rng.standard_normal(64)
            got = index.search(query, 23)
            sims = dict(got)
            assert sims["d00"] == sims["d20"] == sims["d21"] == sims["d22"]
            assert got == exact_search(index, query, 23)

    def test_column_lists_built_on_first_search_only(self, tmp_path,
                                                     provider, monkeypatch):
        builds = []
        build = retrieval_module._column_lists

        def spy(*args):
            builds.append(args)
            return build(*args)

        monkeypatch.setattr(retrieval_module, "_column_lists", spy)
        index = build_index(small_corpus(), provider)
        index.save(tmp_path / "index")
        loaded = VectorIndex.load(tmp_path / "index")
        assert builds == []
        query = provider.embed("cats and dogs")
        assert loaded.search(query, 3) == loaded.search(query, 3) == \
            exact_search(loaded, query, 3)
        assert len(builds) == 1
        dense = VectorIndex(["a", "b"], np.array([[1.0, 2.0], [3.0, 4.0]]),
                            "fp")
        assert dense.search(np.array([1.0, 1.0]), 1) == [("b", 7.0)]
        assert len(builds) == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_vectors_refused(self, tmp_path, bad):
        vectors = np.eye(3)
        vectors[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            VectorIndex(["a", "b", "c"], vectors, "fp")
        with pytest.raises(ValueError, match="finite"):
            VectorIndex(["a", "b", "c"], np.eye(3), "fp", None,
                        SparseRows.compress([([1, 2, 3], vectors)], 3))
        path = tmp_path / "index"
        rows = VectorIndex(["a"], np.eye(1, 3), "fp").rows
        artifacts.save(path, "index",
                       {"doc_ids": ["a", "b", "c"], "titled": 0,
                        "provider_fingerprint": "fp"},
                       {"vectors": vectors,
                        "digests": np.zeros(0, dtype=np.uint64),
                        **{f"row_{name}": getattr(rows, name)
                           for name in rows.ARRAYS}})
        with pytest.raises(IndexIntegrityError, match="must be finite"):
            VectorIndex.load(path)
        index = VectorIndex(["a", "b", "c"], np.eye(3), "fp")
        with pytest.raises(ValueError, match="finite"):
            index.search(np.array([1.0, bad, 0.0]), 2)

    def test_query_of_wrong_width_refused(self):
        index = VectorIndex(["a", "b"], np.eye(2), "fp")
        with pytest.raises(ValueError, match="shape"):
            index.search(np.ones(3), 1)

    def test_zero_rows_and_zero_query(self):
        rows, sims = ExactScan(np.zeros((0, 3))).top(np.ones(3), 2)
        assert rows.tolist() == sims.tolist() == []
        # no coordinate to add on the column path: every similarity +0.0
        scan = ExactScan(np.eye(8))
        rows, sims = scan.top(np.zeros(8), 2)
        assert scan._columns is not None
        assert rows.tolist() == [0, 1]
        assert sims.dtype == np.float64
        assert not np.signbit(sims).any() and not sims.any()


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

    def test_k_out_of_range(self):
        results = self.results_with_answer_at(1, total=3)
        with pytest.raises(ValueError):
            recall_at_k(results, {"answer"}, 4)

    def test_mean_over_questions(self):
        hits = self.results_with_answer_at(1)
        misses = self.results_with_answer_at(9)
        value = mean_recall_at_k([hits, misses], [{"answer"}, {"answer"}], 5)
        assert value == 0.5
