"""Embedding providers and the dense similarity index.

Two providers ship by default: a seeded feature-hashing bag-of-words embedder
(no model weights, fully deterministic) and a remote HTTP embedding client.
The index is an exact cosine scan over unit-normalized vectors. A document's
similarity to a question is defined as the sum, starting from +0.0, of each
coordinate's separately rounded product ``v_j * q_j``, added in ascending
coordinate order; equal similarities rank by ascending doc id. So a row's
similarity depends only on that row and the question, never on where the row
sits in the index or on how a BLAS routine orders its sums.
"""

from __future__ import annotations

import functools
import hashlib
import logging
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Protocol, Sequence

import numpy as np

from . import artifacts
from .artifacts import IndexIntegrityError
from .corpus import (WINDOW, Corpus, Document, contains_answer,
                     max_sentences)
from .seeds import stable_hash

logger = logging.getLogger(__name__)

# appended to the provider fingerprint: documents are embedded as "title. text"
INDEX_FIELDS = "|fields=title+text"

# every byte but a-z and 0-9 becomes a space, so that a token is a run of
# [a-z0-9] (any other character encodes as "?")
_SEPARATORS = bytes(
    byte if chr(byte) in "abcdefghijklmnopqrstuvwxyz0123456789" else 32
    for byte in range(256))

# distinct tokens whose slot (bucket and sign) one HashingEmbedder
# remembers; at this cap the memo holds about 16 MB, so a long-running
# process cannot grow it with every new question's tokens
TOKEN_MEMO_SIZE = 1 << 16

# an index with at most this share of nonzero entries is scanned column by
# column, touching only the coordinates a question has; the hashing
# embedder's rows fill about 3-9 % of their coordinates
SPARSE_SHARE = 0.25


class EmbeddingProviderError(RuntimeError):
    """Provider failure (network, protocol). Safe to retry."""

    retryable = True


class EmbeddingProvider(Protocol):
    dim: int
    fingerprint: str

    def embed_many(self, texts: Sequence[str]) -> np.ndarray: ...

    def embed(self, text: str) -> np.ndarray: ...


class HashingEmbedder:
    """Signed feature-hashing bag-of-words embedder.

    Deterministic for a given (dim, seed); output rows are unit-normalized.
    Intended for tests and desk-scale runs where no model weights are wanted.
    """

    def __init__(self, dim: int = 256, seed: int = 0):
        if not isinstance(dim, int) or dim < 2:
            raise ValueError(f"dim must be an int >= 2, got {dim!r}")
        if not isinstance(seed, int) or not 0 <= seed < 1 << 64:
            raise ValueError(f"seed must be an int in [0, 2**64), got {seed!r}")
        self.dim = dim
        self.seed = seed
        self._key = seed.to_bytes(8, "little")
        self.fingerprint = f"hash-bow:v1:dim={dim}:seed={seed}"
        self._slot = functools.lru_cache(maxsize=TOKEN_MEMO_SIZE)(
            self._token_slot)

    def embed(self, text: str) -> np.ndarray:
        return self.embed_many([text])[0]

    def embed_many(self, texts: Sequence[str]) -> np.ndarray:
        """Row i is the unit vector of text i's token counts, each token
        adding +1 or -1 in its bucket. The counts are whole numbers, so
        their sums and squared norm are exact in any order."""
        dim = self.dim
        out = np.empty((len(texts), dim))
        for row, text in enumerate(texts):
            lowered = text.strip().lower()
            if not lowered:
                raise ValueError("cannot embed empty text")
            # the [a-z0-9]+ runs of the lowered text
            tokens = lowered.encode("ascii", "replace").translate(
                _SEPARATORS).split()
            signed = np.bincount(list(map(self._slot, tokens)),
                                 minlength=2 * dim)
            counts = signed[:dim] - signed[dim:]
            square = counts @ counts
            if square == 0:
                # pathological sign cancellation: fall back to a one-hot
                out[row] = 0.0
                out[row, self._hash(lowered.encode("utf-8")) % dim] = 1.0
            else:
                np.divide(counts, math.sqrt(square), out=out[row])
        return out

    def _token_slot(self, token: bytes) -> int:
        """The bucket a token adds to, plus ``dim`` when it subtracts."""
        h = self._hash(token)
        return h % self.dim + (0 if (h >> 63) & 1 == 0 else self.dim)

    def _hash(self, data: bytes) -> int:
        digest = hashlib.blake2b(data, digest_size=8, key=self._key).digest()
        return int.from_bytes(digest, "little")


class RemoteEmbedder:
    """HTTP embedding client: POST {"texts": [...]} -> {"embeddings": [[...]]}.

    The auth token is read from the environment variable named by
    ``token_env``; failures surface as retryable EmbeddingProviderError.
    """

    def __init__(self, endpoint: str, dim: int, timeout: float = 30.0,
                 token_env: str = "LEANRAG_EMBED_TOKEN", session=None):
        if not isinstance(dim, int) or dim < 1:
            raise ValueError(f"dim must be an int >= 1, got {dim!r}")
        if not timeout > 0:
            raise ValueError(f"timeout must be > 0, got {timeout!r}")
        self.endpoint = endpoint
        self.dim = dim
        self.timeout = timeout
        self.token_env = token_env
        if session is None:
            import requests

            session = requests.Session()
        self._session = session
        self.fingerprint = f"remote:v1:endpoint={endpoint}:dim={dim}"

    def embed(self, text: str) -> np.ndarray:
        return self.embed_many([text])[0]

    def embed_many(self, texts: Sequence[str]) -> np.ndarray:
        for text in texts:
            if not text.strip():
                raise ValueError("cannot embed empty text")
        headers = {}
        token = os.environ.get(self.token_env)
        if token:
            headers["Authorization"] = f"Bearer {token}"
        try:
            response = self._session.post(
                self.endpoint, json={"texts": list(texts)},
                headers=headers, timeout=self.timeout)
            status = getattr(response, "status_code", 200)
            if status >= 400:
                raise EmbeddingProviderError(
                    f"embedding endpoint returned HTTP {status}")
            payload = response.json()
            vectors = np.asarray(payload["embeddings"], dtype=np.float64)
        except EmbeddingProviderError:
            raise
        except Exception as exc:
            raise EmbeddingProviderError(f"embedding request failed: {exc}") from exc
        if vectors.shape != (len(texts), self.dim):
            raise EmbeddingProviderError(
                f"expected shape {(len(texts), self.dim)}, got {vectors.shape}")
        norms = np.linalg.norm(vectors, axis=1, keepdims=True)
        if np.any(norms == 0) or not np.all(np.isfinite(vectors)):
            raise EmbeddingProviderError("embedding endpoint returned degenerate vectors")
        return vectors / norms


@dataclass(frozen=True)
class RetrievedDoc:
    doc: Document
    similarity: float
    rank: int


@dataclass(frozen=True, eq=False)
class Candidates:
    """Retrieved documents, most similar first: ``docs[i]`` has rank i + 1
    and similarity ``similarity[i]``. Iterating or indexing builds each
    ``RetrievedDoc`` anew; the query path reads ``docs`` and the array."""

    docs: Sequence[Document]
    similarity: np.ndarray

    def __len__(self) -> int:
        return len(self.docs)

    def __getitem__(self, i: int) -> RetrievedDoc:
        i = range(len(self))[i]
        return RetrievedDoc(self.docs[i], float(self.similarity[i]), i + 1)


def document_embedding_text(doc: Document) -> str:
    """Text fed to the embedder for a document: "title. text"."""
    title = doc.title.strip()
    return f"{title}. {doc.text}" if title else doc.text


class SparseRows:
    """Rows kept as their entries whose bits are not +0.0: ``counts`` has
    each row's number of such entries, ``columns`` and ``values`` their
    column ids and values, row after row. Filling a row back writes the
    exact bits it was kept from, -0.0 and subnormals included. ``digests``
    has the ``stable_hash`` of the text each row was embedded from."""

    ARRAYS = ("digests", "counts", "columns", "values")

    def __init__(self, digests: np.ndarray, counts: np.ndarray,
                 columns: np.ndarray, values: np.ndarray, dim: int):
        self.digests = np.asarray(digests)
        self.counts = np.asarray(counts)
        self.columns = np.asarray(columns)
        self.values = np.asarray(values)
        if self.digests.dtype != np.uint64 or self.digests.ndim != 1:
            raise ValueError("row digests must be a uint64 vector")
        if not (np.issubdtype(self.counts.dtype, np.integer)
                and np.issubdtype(self.columns.dtype, np.integer)
                and self.values.dtype == np.float64):
            raise ValueError("row counts and column ids must be integers, "
                             "row values float64")
        if self.counts.shape != self.digests.shape or \
                (self.counts < 0).any():
            raise ValueError("row counts must be one >= 0 per digest")
        self.offsets = np.concatenate(([0], np.cumsum(self.counts)))
        if not self.columns.shape == self.values.shape == \
                (self.offsets[-1],):
            raise ValueError("row entries must number the counts' sum")
        if len(self.columns) and not \
                0 <= self.columns.min() <= self.columns.max() < dim:
            raise ValueError(f"row column ids must be in [0, {dim})")
        if not np.isfinite(self.values).all():
            raise ValueError("row values must be finite")

    @classmethod
    def compress(cls, chunks: Iterable[tuple[Sequence[int], np.ndarray]],
                 dim: int) -> "SparseRows":
        """The rows of ``chunks``, each (digests, dense rows), kept one
        chunk at a time."""
        digests: list[int] = []
        counts = [np.zeros(0, dtype=np.int64)]
        columns = [np.zeros(0, dtype=np.int32)]
        values = [np.zeros(0)]
        for chunk_digests, dense in chunks:
            dense = np.ascontiguousarray(dense, dtype=np.float64)
            # the bits, not the value, so that a -0.0 is kept
            kept = dense.view(np.uint64) != 0
            digests += chunk_digests
            counts.append(kept.sum(axis=1))
            columns.append(np.nonzero(kept)[1].astype(np.int32))
            values.append(dense[kept])
        return cls(np.array(digests, dtype=np.uint64), np.concatenate(counts),
                   np.concatenate(columns), np.concatenate(values), dim)

    def __len__(self) -> int:
        return len(self.digests)

    def fill(self, out: np.ndarray, positions: Sequence[int],
             rows: Sequence[int]) -> None:
        """Write row ``rows[i]`` into ``out[positions[i]]`` for every i."""
        rows = np.asarray(rows)
        counts = self.counts[rows]
        # the chosen rows' entry ids, row after row
        entries = np.arange(counts.sum()) + np.repeat(
            self.offsets[rows] - (np.cumsum(counts) - counts), counts)
        out[positions] = 0.0
        out[np.repeat(positions, counts), self.columns[entries]] = \
            self.values[entries]


class ExactScan:
    """Exact top-k over the rows of a finite float64 matrix, by the
    similarity in the module docstring, ties by ascending row.

    The first ``top`` reads how the scan should run from the matrix and
    keeps it, unsaved: a matrix with at most ``SPARSE_SHARE`` of its entries
    nonzero gets per-coordinate column lists, any other its largest row
    norm. A matrix of 0 rows is allowed."""

    def __init__(self, vectors: np.ndarray):
        vectors = np.ascontiguousarray(vectors, dtype=np.float64)
        if vectors.ndim != 2:
            raise ValueError("vectors must be a matrix")
        # the scan is exact for finite values only; a row's sum is
        # non-finite when one of its entries is (or when it overflows), so
        # only then is every entry checked
        if not np.isfinite(vectors @ np.ones(vectors.shape[1])).all() and \
                not np.isfinite(vectors).all():
            raise ValueError("vectors must be finite")
        self.vectors = vectors
        self.dim = int(vectors.shape[1])
        self._columns: list[tuple[np.ndarray, np.ndarray]] | None = None
        self._max_norm: float | None = None

    def __len__(self) -> int:
        return len(self.vectors)

    def top(self, query: np.ndarray, k: int
            ) -> tuple[np.ndarray, np.ndarray]:
        """(rows, similarities) of the k most similar rows, most similar
        first, ties by ascending row: the first k of a stable sort of every
        row by descending similarity.

        A sparse matrix sums, for each coordinate the question has, only the
        rows whose entry there is nonzero: every product it leaves out is
        +-0, and adding +-0 never changes a sum that starts from +0.0. A
        dense matrix sums every product, but only for the rows that one
        matrix-vector product, under a proven rounding margin, cannot rule
        out of the top k."""
        if k < 1:
            raise ValueError("k must be >= 1")
        query = np.asarray(query, dtype=np.float64)
        if query.shape != (self.dim,):
            raise ValueError(f"query must have shape ({self.dim},)")
        if not np.isfinite(query).all():
            raise ValueError("query must be finite")
        if self._columns is None and self._max_norm is None:
            # on the first call, not at load; two threads may both derive
            # it, and they derive the same
            if np.count_nonzero(self.vectors) <= \
                    SPARSE_SHARE * self.vectors.size:
                self._columns = _column_lists(self.vectors)
            else:
                self._max_norm = float(np.sqrt(np.einsum(
                    "ij,ij->i", self.vectors, self.vectors).max()))
        if self._columns is not None:
            rows = np.arange(len(self))
            column_rows, products = [np.zeros(0, np.int32)], [np.zeros(0)]
            for j in np.flatnonzero(query):
                column_rows.append(self._columns[j][0])
                products.append(self._columns[j][1] * query[j])
            # bincount adds each row's weights from +0.0 in input order: its
            # products in coordinate order (given no weights, it counts in
            # integers)
            sims = np.bincount(np.concatenate(column_rows),
                               np.concatenate(products), minlength=len(self)
                               ).astype(np.float64, copy=False)
        else:
            rows = self._dense_candidates(query, k)
            # cumsum adds in coordinate order; + 0.0 turns a -0.0 first
            # product into the +0.0 the sum starts from
            sims = np.cumsum(self.vectors[rows] * query, axis=1)[:, -1] + 0.0
        top = _top(sims, k)
        return rows[top], sims[top]

    def _dense_candidates(self, query: np.ndarray, k: int) -> np.ndarray:
        """Ascending rows that include every row whose similarity is at or
        above the k-th largest."""
        margin = _filter_margin(self.dim, self._max_norm,
                                float(np.sqrt(query @ query)))
        if k >= len(self) or not np.isfinite(margin):
            return np.arange(len(self))
        approx = self.vectors @ query
        kth = np.partition(approx, len(self) - k)[len(self) - k]
        return np.flatnonzero(approx >= kth - margin)


def sort_by_id(ids: Sequence[str], *arrays: np.ndarray
               ) -> tuple[list[str], tuple[np.ndarray, ...]]:
    """``ids`` in ascending order, and each array's rows (an empty array
    stays empty) in the same order; the arrays as given, not copied, when
    the ids already are in order."""
    order = sorted(range(len(ids)), key=ids.__getitem__)
    if order == list(range(len(ids))):
        return list(ids), arrays
    return [ids[i] for i in order], \
        tuple(array[order] if len(array) else array for array in arrays)


def repeated_ids(ids: Sequence[str]) -> list[str]:
    """Each id of the sorted ``ids`` that repeats the one before it."""
    return [a for a, b in zip(ids, ids[1:]) if a == b]


class VectorIndex:
    """Exact-scan dense index. Entries are kept sorted by doc_id, so that
    ascending row order is the documented tie-break.

    ``digests`` gives the ``stable_hash`` of the text each row of
    ``vectors`` was embedded from, or is empty, and then ``embed_many``
    serves no row of ``vectors``. ``rows`` holds more rows embedded with the
    same provider, sparsely, each with its own digest (``build_index``: the
    text of each titled document, which is what the scorer embeds, and
    every sub-document window no other row holds). ``titled`` is the number
    of titled documents the index was built from. ``scan`` searches
    ``vectors``."""

    def __init__(self, doc_ids: Sequence[str], vectors: np.ndarray,
                 provider_fingerprint: str,
                 digests: np.ndarray | None = None,
                 rows: SparseRows | None = None, titled: int = 0):
        if len(doc_ids) == 0:
            raise ValueError("cannot build an index over an empty corpus")
        if vectors.ndim != 2 or vectors.shape[0] != len(doc_ids):
            raise ValueError("vectors must be one row per doc id")
        digests = np.zeros(0, dtype=np.uint64) if digests is None \
            else np.asarray(digests)
        if digests.dtype != np.uint64 or digests.ndim != 1:
            raise ValueError("digests must be a uint64 vector")
        if len(digests) not in (0, len(doc_ids)):
            raise ValueError("digests must be one per row, or none")
        if not isinstance(titled, int) or titled < 0:
            raise ValueError(f"titled must be an int >= 0, got {titled!r}")
        self.doc_ids, (vectors, self.digests) = sort_by_id(doc_ids, vectors,
                                                            digests)
        self.scan = ExactScan(vectors)
        self.vectors = self.scan.vectors
        self.dim = self.scan.dim
        self.rows = rows if rows is not None else \
            SparseRows.compress((), self.dim)
        self.titled = titled
        self.provider_fingerprint = provider_fingerprint
        # built on the first call to ``embed_many``: each stored row's
        # position (those of ``vectors``, then those of ``rows``) by its
        # digest
        self._positions: dict[int, int] | None = None

    def __len__(self) -> int:
        return len(self.doc_ids)

    @property
    def stored_count(self) -> int:
        """The number of stored rows: those of ``vectors`` and of
        ``rows``."""
        return len(self) + len(self.rows)

    def search(self, query: np.ndarray, k: int) -> list[tuple[str, float]]:
        """The k most similar documents (module docstring), most similar
        first, ties by ascending doc id (``ExactScan.top``)."""
        rows, sims = self.scan.top(query, k)
        return [(self.doc_ids[row], sim)
                for row, sim in zip(rows.tolist(), sims.tolist())]

    def verify_corpus(self, corpus: Corpus) -> None:
        """The index must hold each corpus document exactly once, and have
        been built from as many titled documents as the corpus has."""
        indexed = set(self.doc_ids)
        missing = sorted(indexed.difference(doc.doc_id for doc in corpus))
        if missing:
            raise IndexIntegrityError(
                f"{len(missing)} indexed doc ids are not in the corpus, "
                f"e.g. {missing[:3]}; rebuild it")
        if len(indexed) != len(self):
            raise IndexIntegrityError(
                f"index repeats doc ids, e.g. "
                f"{repeated_ids(self.doc_ids)[:3]}; rebuild it")
        if len(self) != len(corpus):
            raise IndexIntegrityError(
                f"index has {len(self)} documents, the corpus "
                f"{len(corpus)}; rebuild it")
        titled = sum(1 for doc in corpus if _titled(doc))
        if self.titled != titled:
            raise IndexIntegrityError(
                f"index has {self.titled} titled documents, the corpus "
                f"{titled}; rebuild it")

    def embed_many(self, provider: EmbeddingProvider,
                   texts: Sequence[str]) -> np.ndarray:
        """``provider.embed_many(texts)``, bit for bit: a text is read from
        the stored row embedded from it, found by one lookup of its digest,
        and the rest are embedded in one call (none when every text is
        held). A row serves only the text it was embedded from, so a
        document edited after indexing finds no row, and only a provider
        with the index's fingerprint; any other embeds every text."""
        if provider.fingerprint + INDEX_FIELDS != self.provider_fingerprint:
            positions = np.full(len(texts), -1, dtype=np.intp)
        else:
            if self._positions is None:
                # two threads may both build it; they build the same map
                n = len(self)
                found = dict(zip(self.digests.tolist(), range(n)))
                found.update(zip(self.rows.digests.tolist(),
                                 range(n, n + len(self.rows))))
                self._positions = found
            position = self._positions.get
            positions = np.array([position(stable_hash(text), -1)
                                  for text in texts], dtype=np.intp)
        out = np.empty((len(texts), self.dim))
        dense = np.flatnonzero((positions >= 0) & (positions < len(self)))
        out[dense] = self.vectors[positions[dense]]
        sparse = np.flatnonzero(positions >= len(self))
        if len(sparse):
            self.rows.fill(out, sparse, positions[sparse] - len(self))
        missing = np.flatnonzero(positions < 0)
        if len(missing):
            out[missing] = provider.embed_many([texts[i] for i in missing])
        return out

    def save(self, path: str | Path) -> None:
        artifacts.save(path, "index",
                       {"doc_ids": self.doc_ids, "titled": self.titled,
                        "provider_fingerprint": self.provider_fingerprint},
                       {"vectors": self.vectors, "digests": self.digests,
                        **{f"row_{name}": getattr(self.rows, name)
                           for name in SparseRows.ARRAYS}})

    @classmethod
    def load(cls, path: str | Path) -> "VectorIndex":
        meta, arrays = artifacts.load(path, "index")
        names = {"vectors", "digests",
                 *(f"row_{name}" for name in SparseRows.ARRAYS)}
        if set(arrays) != names:
            raise IndexIntegrityError(
                f"{path}: index is in an older layout; rebuild it")
        try:
            vectors = arrays["vectors"]
            rows = SparseRows(*(arrays[f"row_{name}"]
                                for name in SparseRows.ARRAYS),
                              vectors.shape[-1])
            return cls(meta["doc_ids"], vectors,
                       meta["provider_fingerprint"], arrays["digests"], rows,
                       meta["titled"])
        except ValueError as exc:
            raise IndexIntegrityError(f"{path}: {exc}") from exc


def _column_lists(vectors: np.ndarray
                  ) -> list[tuple[np.ndarray, np.ndarray]]:
    """For each coordinate j, the rows whose entry j is nonzero (ascending,
    int32) and those entries. One column at a time, so that building holds
    little more memory than the lists it returns."""
    columns = []
    for column in vectors.T:
        rows = np.flatnonzero(column)
        columns.append((rows.astype(np.int32), column[rows]))
    return columns


def _top(sims: np.ndarray, k: int) -> np.ndarray:
    """Positions of the k largest ``sims``, ties by ascending position: the
    first k of a stable sort of every position by descending value."""
    n = len(sims)
    tied = (np.flatnonzero(sims >= np.partition(sims, n - k)[n - k])
            if k < n else np.arange(n))
    return tied[np.argsort(-sims[tied], kind="stable")[:k]]


def _filter_margin(dim: int, max_norm: float, query_norm: float) -> float:
    """A bound M such that every row whose similarity is at or above the
    k-th largest similarity has ``vectors @ query`` at or above the k-th
    largest of ``vectors @ query``, less M; inf when a sum could overflow.

    With u = eps/2, B = max ||v|| ||q|| and gamma_n = n u / (1 - n u): a dot
    product of length n, summed in any order, with or without fused
    multiply-adds, is off from the exact value by at most gamma_n times the
    sum of its terms' magnitudes, which is at most ||v|| ||q|| <= B. The
    BLAS product and the coordinate-order sum are both such dot products, so
    on any row they differ by at most E = 2 gamma_dim B.
      - At least k rows have a product at or above its k-th largest, kth,
        so at least k similarities are >= kth - E, and so is the k-th
        largest similarity s_k.
      - A row whose similarity is >= s_k has a product >= s_k - E >=
        kth - 2 E, where 2 E is about 2 dim eps B.
    Rounding B and kth - M adds about eps B, and each product that
    underflows adds up to 2^-1075 to either sum, at most dim of them per
    sum. M = 4 (dim + 2) (eps B + 2^-1074) covers all of this about twice
    over. When 2 B is finite, no sum above can overflow."""
    scale = max_norm * query_norm
    if not np.isfinite(2.0 * scale):
        return np.inf
    eps = np.finfo(np.float64).eps
    return 4 * (dim + 2) * (eps * scale + np.nextafter(0.0, 1.0))


def _titled(doc: Document) -> bool:
    return bool(doc.title.strip())


def build_index(corpus: Corpus, provider: EmbeddingProvider) -> VectorIndex:
    """Embed every document ("title. text") into a fresh index, in doc-id
    order, and as its sparse rows, each titled document's text, which is
    what the scorer embeds, and each sub-document window, where no other
    row holds that text."""
    if len(corpus) == 0:
        raise ValueError("cannot build an index over an empty corpus")
    docs = sorted(corpus, key=lambda d: d.doc_id)
    texts = [document_embedding_text(d) for d in docs]
    digests = np.array([stable_hash(text) for text in texts], dtype=np.uint64)
    vectors = provider.embed_many(texts)
    rows = SparseRows.compress(
        _new_rows(docs, set(digests.tolist()), provider), vectors.shape[1])
    return VectorIndex([d.doc_id for d in docs], vectors,
                       provider.fingerprint + INDEX_FIELDS, digests, rows,
                       sum(1 for d in docs if _titled(d)))


def _new_rows(docs: Iterable[Document], held: set[int],
              provider: EmbeddingProvider):
    """(digests, rows) of each document's text, when it is titled, and
    windows, each whose digest is not in ``held``, adding each to it; one
    document at a time, so that set-up never holds more than one document's
    rows densely."""
    for doc in docs:
        texts = [doc.text] if _titled(doc) else []
        # a single-spaced document of at most WINDOW sentences is its one
        # window, which its index or text row already holds
        if max_sentences(doc.text) > WINDOW or \
                " ".join(doc.text.split()) != doc.text:
            texts += doc.windows
        new = {}
        for text in texts:
            digest = stable_hash(text)
            if digest not in held:
                held.add(digest)
                new[digest] = text
        if new:
            yield list(new), provider.embed_many(list(new.values()))


class Retriever:
    """Binds a corpus, its index, and the query-side embedding provider."""

    def __init__(self, corpus: Corpus, index: VectorIndex,
                 provider: EmbeddingProvider):
        self.corpus = corpus
        self.index = index
        self.provider = provider
        # the document of each index row
        self._docs = [corpus.get(doc_id) for doc_id in index.doc_ids]

    def retrieve(self, question: str, k: int,
                 query_embedding: np.ndarray | None = None) -> Candidates:
        """Top-k documents by cosine similarity, rank 1 first.
        ``query_embedding`` reuses the question's vector when the caller
        already has it from this retriever's provider."""
        if query_embedding is None:
            query_embedding = self.provider.embed(question)
        rows, sims = self.index.scan.top(query_embedding, k)
        return Candidates([self._docs[row] for row in rows.tolist()], sims)


def recall_at_k(results: Sequence[RetrievedDoc], gold_answers: Iterable[str],
                k: int) -> float:
    """1.0 if any of the top-k results contains a gold answer, else 0.0."""
    if k < 1 or k > len(results):
        raise ValueError(f"k={k} out of range for {len(results)} results")
    answers = list(gold_answers)
    for result in results[:k]:
        if contains_answer(result.doc.text, answers):
            return 1.0
    return 0.0
