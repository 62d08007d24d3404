"""Embedding providers, stored rows and the exact similarity index.

Two providers ship by default: a seeded feature-hashing bag-of-words embedder
(no model weights, fully deterministic) and a remote HTTP embedding client.
Every stored matrix (the index's rows, the NN reference's questions) is kept
in one form, ``SparseRows``: each row's entries whose bits are not +0.0.
The index is an exact cosine scan over unit-normalized vectors, planned once
from those entries when it is built or loaded. The scan returns index rows,
and the query path addresses every stored vector by its row: ``Candidates``
keep the scan's rows, and the index records each document's text row and
first window row, so no text is looked up or hashed per question. A
document's similarity to a question is defined as the sum, starting from
+0.0, of each coordinate's separately rounded product ``v_j * q_j``, added
in ascending coordinate order; equal similarities rank by ascending doc id.
So a row's similarity depends only on that row and the question, never on
where the row sits in the index or on how a BLAS routine orders its sums. A
row the question shares no coordinate with scores exactly +0.0, as most
rows of a large index do, so the k-th largest similarity is selected among
the positive ones whenever there are k of them.
"""

from __future__ import annotations

import hashlib
import itertools
import logging
import math
import operator
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Protocol, Sequence

import numpy as np

from . import artifacts
from .artifacts import IndexIntegrityError
from .corpus import (WINDOW, Corpus, CorpusRows, Document, contains_answer,
                     max_sentences)

logger = logging.getLogger(__name__)

# appended to the provider fingerprint: documents are embedded as "title. text"
INDEX_FIELDS = "|fields=title+text"

# every byte but a-z and 0-9 becomes a space, so that a token is a run of
# [a-z0-9] (any other character encodes as "?")
_SEPARATORS = bytes(
    byte if chr(byte) in "abcdefghijklmnopqrstuvwxyz0123456789" else 32
    for byte in range(256))

# distinct tokens whose slot (bucket and sign) one HashingEmbedder
# remembers; at this cap the memo holds about 6 MB of 10-byte tokens, so a
# long-running process cannot grow it with every new question's tokens
TOKEN_MEMO_SIZE = 1 << 16

# stored rows are embedded and kept this many texts at a time, so that
# set-up holds at most this many rows densely: 2 MB at dim 256
EMBED_CHUNK = 1024

# an index with at most this share of nonzero entries is scanned column by
# column, touching only the coordinates a question has; the hashing
# embedder's rows fill about 3-9 % of their coordinates
SPARSE_SHARE = 0.25


class EmbeddingProviderError(RuntimeError):
    """Provider failure (network, protocol)."""


class EmbeddingProvider(Protocol):
    dim: int
    fingerprint: str

    def embed_many(self, texts: Sequence[str]) -> np.ndarray: ...

    def embed(self, text: str) -> np.ndarray: ...


class HashingEmbedder:
    """Signed feature-hashing bag-of-words embedder.

    Deterministic for a given (dim, seed); output rows are unit-normalized.
    Intended for tests and desk-scale runs where no model weights are wanted.
    Each distinct token is hashed once into a dict memo of at most
    ``TOKEN_MEMO_SIZE`` tokens, cleared when full; an ``embed_many`` call
    counts every text's tokens with one ``np.bincount``.
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
        self._slot = _SlotMemo(self._token_slot, TOKEN_MEMO_SIZE)
        # a slot's bucket and the sign it adds with
        self._buckets = np.tile(np.arange(dim), 2)
        self._signs = np.repeat([1.0, -1.0], dim)

    def embed(self, text: str) -> np.ndarray:
        return self.embed_many([text])[0]

    def embed_many(self, texts: Sequence[str]) -> np.ndarray:
        """Row i is the unit vector of text i's token counts, each token
        adding +1 or -1 in its bucket. The counts are whole numbers, so
        their sums and squared norm are exact in any order, and a row is
        the same bits in a call of any size."""
        dim, n = self.dim, len(texts)
        lowered = [text.strip().lower() for text in texts]
        if not all(lowered):
            raise ValueError("cannot embed empty text")
        # the [a-z0-9]+ runs of each lowered text
        tokens = [text.encode("ascii", "replace").translate(_SEPARATORS)
                  .split() for text in lowered]
        slots = np.fromiter(map(self._slot.__getitem__,
                                itertools.chain.from_iterable(tokens)),
                            np.intp)
        at = self._buckets[slots]
        if n > 1:  # row i counts into entries i * dim to (i + 1) * dim
            at += np.repeat(np.arange(0, n * dim, dim),
                            np.fromiter(map(len, tokens), np.intp, n))
        # bincount counts in integers when a call has no tokens at all
        out = np.bincount(at, self._signs[slots], minlength=n * dim).astype(
            np.float64, copy=False).reshape(n, dim)
        if n == 1 and (square := out[0] @ out[0]):
            # one text, the query path: a scalar divide; the row-wise form
            # below takes about twice as long on one text
            out /= math.sqrt(square)
            return out
        square = np.einsum("ij,ij->i", out, out)
        for row in np.flatnonzero(square == 0).tolist():
            # no tokens, or pathological sign cancellation: a one-hot row
            out[row, self._hash(lowered[row].encode("utf-8")) % dim] = 1.0
            square[row] = 1.0
        out /= np.sqrt(square)[:, None]
        return out

    def _token_slot(self, token: bytes) -> int:
        """The bucket a token adds to, plus ``dim`` when it subtracts."""
        h = self._hash(token)
        return h % self.dim + (0 if (h >> 63) & 1 == 0 else self.dim)

    def _hash(self, data: bytes) -> int:
        digest = hashlib.blake2b(data, digest_size=8, key=self._key).digest()
        return int.from_bytes(digest, "little")


class _SlotMemo(dict):
    """``slot(key)`` of each key looked up, computed on its first lookup;
    the memo empties before it would hold more than ``cap`` keys. A hit is
    a plain dict lookup; a miss takes a lock, so that threads sharing the
    memo keep it within ``cap``."""

    def __init__(self, slot, cap: int):
        super().__init__()
        self.slot = slot
        self.cap = cap
        self._lock = threading.Lock()

    def __missing__(self, key):
        value = self.slot(key)
        with self._lock:
            if len(self) >= self.cap:
                self.clear()
            self[key] = value
        return value


class RemoteEmbedder:
    """HTTP embedding client: POST {"texts": [...]} -> {"embeddings": [[...]]}.

    The auth token is read from the environment variable named by
    ``token_env``; failures surface as EmbeddingProviderError.
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
    and similarity ``similarity[i]``; a ``Retriever``'s also keep the
    scan's ``rows`` of its ``index`` and read a document only when
    ``docs`` is indexed (``RowDocuments``). Iterating or indexing builds
    each ``RetrievedDoc`` anew; the query path reads the arrays."""

    docs: Sequence[Document]
    similarity: np.ndarray
    rows: np.ndarray | None = None
    index: VectorIndex | None = None

    def __len__(self) -> int:
        return len(self.similarity)

    def __getitem__(self, i: int) -> RetrievedDoc:
        try:
            i = range(len(self))[operator.index(i)]
        except TypeError:
            raise TypeError(
                f"Candidates index by int only, not {type(i).__name__}; "
                "slice .docs and .similarity instead") from None
        return RetrievedDoc(self.docs[i], float(self.similarity[i]), i + 1)


@dataclass(frozen=True, eq=False)
class RowDocuments(Sequence):
    """The documents of index ``rows``, read from ``documents`` (by row: a
    list, or a ``CorpusRows`` that parses a line on its first read) when
    indexed, so that a question parses only the documents it reads."""

    documents: Mapping[int, Document] | list[Document]
    rows: np.ndarray

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i: int) -> Document:
        return self.documents[int(self.rows[i])]


def document_embedding_text(doc: Document) -> str:
    """Text fed to the embedder for a document: "title. text"."""
    title = doc.title.strip()
    return f"{title}. {doc.text}" if title else doc.text


class SparseRows:
    """Rows of width ``dim`` kept as their entries whose bits are not +0.0:
    ``counts`` has each row's number of such entries, ``columns`` and
    ``values`` their column ids and values, row after row. Filling a row
    back writes the exact bits it was kept from, -0.0 and subnormals
    included."""

    ARRAYS = ("counts", "columns", "values")

    def __init__(self, counts: np.ndarray, columns: np.ndarray,
                 values: np.ndarray, dim: int):
        self.counts = np.asarray(counts)
        self.columns = np.asarray(columns)
        self.values = np.asarray(values)
        if isinstance(dim, bool) or not isinstance(dim, int) or dim < 0:
            raise ValueError(f"row width must be an int >= 0, got {dim!r}")
        self.dim = dim
        if not (np.issubdtype(self.counts.dtype, np.integer)
                and np.issubdtype(self.columns.dtype, np.integer)
                and self.values.dtype == np.float64):
            raise ValueError("row counts and column ids must be integers, "
                             "row values float64")
        if self.counts.ndim != 1 or (self.counts < 0).any():
            raise ValueError("row counts must be a vector of ints >= 0")
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
    def compress(cls, chunks: Iterable[np.ndarray], dim: int) -> "SparseRows":
        """The rows of the dense ``chunks``, kept one chunk at a time."""
        counts = [np.zeros(0, dtype=np.int64)]
        columns = [np.zeros(0, dtype=np.int32)]
        values = [np.zeros(0)]
        for dense in chunks:
            dense = np.ascontiguousarray(dense, dtype=np.float64)
            # the bits, not the value, so that a -0.0 is kept
            kept = dense.view(np.uint64) != 0
            counts.append(kept.sum(axis=1))
            columns.append(np.nonzero(kept)[1].astype(np.int32))
            values.append(dense[kept])
        return cls(np.concatenate(counts), np.concatenate(columns),
                   np.concatenate(values), dim)

    @classmethod
    def load(cls, meta: dict, arrays: dict[str, np.ndarray],
             also: Sequence[str] = ()) -> "SparseRows":
        """The rows of a file that ``arrays`` and the header ``meta`` (its
        ``dim``) were loaded from; a file with other arrays than these and
        ``also`` is in an older layout, a ``ValueError``."""
        if set(arrays) != {*cls.ARRAYS, *also}:
            raise ValueError(
                f"{meta['format']} is in an older layout; rebuild it")
        return cls(*(arrays[name] for name in cls.ARRAYS), meta["dim"])

    def arrays(self) -> dict[str, np.ndarray]:
        """The arrays a file keeps these rows as, by name."""
        return {name: getattr(self, name) for name in self.ARRAYS}

    def __len__(self) -> int:
        return len(self.counts)

    def dense(self, rows: Sequence[int]) -> np.ndarray:
        """Row ``rows[i]`` as row i of a new dense array."""
        rows = np.asarray(rows, dtype=np.intp)
        counts = self.counts[rows]
        # the chosen rows' entry ids, row after row
        entries = np.arange(counts.sum()) + np.repeat(
            self.offsets[rows] - (np.cumsum(counts) - counts), counts)
        out = np.zeros((len(rows), self.dim))
        out[np.repeat(np.arange(len(rows)), counts), self.columns[entries]] \
            = self.values[entries]
        return out


class ExactScan:
    """Exact top-k over the first ``n`` rows of ``rows`` (all of them when
    ``n`` is None), by the similarity in the module docstring, ties by
    ascending row. A scan of 0 rows is allowed.

    The scan is planned here, once: rows with at most ``SPARSE_SHARE`` of
    their entries kept get per-coordinate column lists, made by one stable
    sort of the entries' column ids; any others are filled into a dense
    matrix and keep their largest row norm."""

    def __init__(self, rows: SparseRows, n: int | None = None):
        self.rows = rows
        self.n = len(rows) if n is None else n
        self.dim = rows.dim
        entries = int(rows.offsets[self.n])
        self._dense: np.ndarray | None = None
        if entries <= SPARSE_SHARE * self.n * self.dim:
            ids = rows.columns[:entries]
            # stable, so that each column keeps its rows ascending; 16-bit
            # ids sort by radix, several times faster
            order = np.argsort(ids.astype(np.uint16) if self.dim <= 1 << 16
                               else ids, kind="stable")
            self._rows = np.repeat(np.arange(self.n, dtype=np.int32),
                                   rows.counts[:self.n])[order]
            self._values = rows.values[order]
            # coordinate j's rows and entries are those from _starts[j] to
            # _starts[j + 1]; Python ints slice fastest
            self._starts = [0, *np.cumsum(
                np.bincount(ids, minlength=self.dim)).tolist()]
        else:
            self._dense = rows.dense(np.arange(self.n))
            self._max_norm = float(np.sqrt(np.einsum(
                "ij,ij->i", self._dense, self._dense).max()))

    def top(self, query: np.ndarray, k: int
            ) -> tuple[np.ndarray, np.ndarray]:
        """(rows, similarities) of the k most similar rows, most similar
        first, ties by ascending row: the first k of a stable sort of every
        row by descending similarity.

        Column lists sum, for each coordinate the question has, only the
        rows with an entry there: every product left out is +-0, and adding
        +-0 never changes a sum that starts from +0.0. A dense matrix sums
        every product, but only for the rows that one matrix-vector product,
        under a proven rounding margin, cannot rule out of the top k.

        The k-th largest similarity is selected among the positive ones
        when there are at least k: a row without an entry at any of the
        question's coordinates is exactly +0.0, which is most rows of a
        large sparse index, and selecting over so many ties is about ten
        times slower. Every row at or above a positive k-th similarity is
        positive, so the rows and their order are the same."""
        if k < 1:
            raise ValueError("k must be >= 1")
        query = np.asarray(query, dtype=np.float64)
        if query.shape != (self.dim,):
            raise ValueError(f"query must have shape ({self.dim},)")
        if not np.isfinite(query).all():
            raise ValueError("query must be finite")
        if self._dense is None:
            rows = np.arange(self.n)
            column_rows, products = [np.zeros(0, np.int32)], [np.zeros(0)]
            for j in np.flatnonzero(query).tolist():
                span = slice(self._starts[j], self._starts[j + 1])
                column_rows.append(self._rows[span])
                products.append(self._values[span] * query[j])
            # bincount adds each row's weights from +0.0 in input order: its
            # products in coordinate order (given no weights, it counts in
            # integers)
            sims = np.bincount(np.concatenate(column_rows),
                               np.concatenate(products), minlength=self.n
                               ).astype(np.float64, copy=False)
        else:
            rows = self._dense_candidates(query, k)
            # cumsum adds in coordinate order; + 0.0 turns a -0.0 first
            # product into the +0.0 the sum starts from
            sims = np.cumsum(self._dense[rows] * query, axis=1)[:, -1] + 0.0
        top = _top(sims, k)
        return rows[top], sims[top]

    def _dense_candidates(self, query: np.ndarray, k: int) -> np.ndarray:
        """Ascending rows that include every row whose similarity is at or
        above the k-th largest."""
        margin = _filter_margin(self.dim, self._max_norm,
                                float(np.sqrt(query @ query)))
        if k >= self.n or not np.isfinite(margin):
            return np.arange(self.n)
        approx = self._dense @ query
        kth = np.partition(approx, self.n - k)[self.n - k]
        return np.flatnonzero(approx >= kth - margin)


def ascending_ids(ids: Sequence[str], owner: str, what: str) -> list[str]:
    """``ids`` as a list; ``ValueError`` unless each is above the one before,
    the order ``owner`` keeps its rows in and breaks ties by. Ids that
    strictly ascend take one pass; the error names the first repeats."""
    ids = list(ids)
    if all(map(operator.lt, ids, ids[1:])):
        return ids
    if ids != sorted(ids):
        raise ValueError(f"{what} must be in ascending order")
    repeated = [a for a, b in zip(ids, ids[1:]) if a == b]
    raise ValueError(f"{owner} repeats {what}, e.g. {repeated[:3]}")


class VectorIndex:
    """Exact-scan index over documents in ascending doc-id order, so that
    ascending row order is the documented tie-break.

    ``rows`` holds every stored row, embedded with one provider: first one
    row per doc id ("title. text"), which ``scan`` searches, then the rest
    ``build_index`` stores. ``docrows`` (``int32``, two per doc id) has
    document i's text row, which the scorer reads, at ``[0, i]``
    (``text_rows[i]``), and its first window row at ``[1, i]``
    (``window_rows[i]``): its windows are the rows from there on, one per
    window of ``Document.windows``, next to each other. An index built
    from a corpus file records the file's ``corpus_sha256`` and each doc
    id's ``line_offsets`` in it (``int64``, bytes), by which ``CorpusRows``
    reads the documents; one built from an in-memory corpus records
    neither."""

    def __init__(self, doc_ids: Sequence[str], rows: SparseRows,
                 provider_fingerprint: str, docrows: np.ndarray,
                 corpus_sha256: str | None = None,
                 line_offsets: np.ndarray | None = None):
        if len(doc_ids) == 0:
            raise ValueError("cannot build an index over an empty corpus")
        if len(rows) < len(doc_ids):
            raise ValueError("rows must begin with one row per doc id")
        if (corpus_sha256 is None) != (line_offsets is None):
            raise ValueError("corpus_sha256 and line_offsets come together")
        n = len(doc_ids)
        for name, array, dtype, shape, per in (
                ("docrows", docrows, np.int32, (2, n), "two"),
                ("line_offsets", line_offsets, np.int64, (n,), "one")):
            if array is not None and (array.dtype != dtype or
                                      array.shape != shape):
                raise ValueError(f"{name} must be {np.dtype(dtype)}, {per} "
                                 f"per doc id; got {array.dtype} of shape "
                                 f"{array.shape} for {n}")
        if not 0 <= docrows.min() <= docrows.max() < len(rows):
            raise ValueError(f"docrows must be in [0, {len(rows)})")
        self.doc_ids = ascending_ids(doc_ids, "index", "doc ids")
        self.rows = rows
        self.scan = ExactScan(rows, len(self.doc_ids))
        self.dim = rows.dim
        self.provider_fingerprint = provider_fingerprint
        self.docrows = docrows
        self.text_rows, self.window_rows = docrows
        self.corpus_sha256 = corpus_sha256
        self.line_offsets = line_offsets

    def __len__(self) -> int:
        return len(self.doc_ids)

    def search(self, query: np.ndarray, k: int) -> list[tuple[str, float]]:
        """The k most similar documents (module docstring), most similar
        first, ties by ascending doc id (``ExactScan.top``)."""
        rows, sims = self.scan.top(query, k)
        return [(self.doc_ids[row], sim)
                for row, sim in zip(rows.tolist(), sims.tolist())]

    def save(self, path: str | Path) -> None:
        arrays = {**self.rows.arrays(), "docrows": self.docrows}
        if self.line_offsets is not None:
            arrays["line_offsets"] = self.line_offsets
        artifacts.save(path, "index",
                       {"doc_ids": self.doc_ids,
                        "corpus_sha256": self.corpus_sha256,
                        "provider_fingerprint": self.provider_fingerprint,
                        "dim": self.dim}, arrays)

    @classmethod
    @artifacts.loader
    def load(cls, path: str | Path) -> "VectorIndex":
        meta, arrays = artifacts.load(
            path, "index", doc_ids=artifacts.STRINGS,
            provider_fingerprint=artifacts.FINGERPRINT,
            # null for an index of a corpus built in memory
            corpus_sha256=artifacts.FINGERPRINT)
        offsets = arrays.pop("line_offsets", None)
        rows = SparseRows.load(meta, arrays, ("docrows",))
        return cls(meta["doc_ids"], rows, meta["provider_fingerprint"],
                   arrays["docrows"], meta["corpus_sha256"], offsets)


def _top(sims: np.ndarray, k: int) -> np.ndarray:
    """Positions of the k largest ``sims``, ties by ascending position: the
    first k of a stable sort of every position by descending value. When
    at least k values are positive, the k-th largest is the k-th largest
    of those alone (``ExactScan.top``), so only they are partitioned."""
    n = len(sims)
    if k >= n:
        tied = np.arange(n)
    else:
        pool = sims[sims > 0]
        if len(pool) < k:
            pool = sims.copy()
        pool.partition(len(pool) - k)
        tied = np.flatnonzero(sims >= pool[len(pool) - k])
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


def embedded_rows(texts: Iterable[str], provider: EmbeddingProvider
                  ) -> Iterator[np.ndarray]:
    """The dense rows of ``texts``, in order, from one
    ``provider.embed_many`` call per ``EMBED_CHUNK`` texts: the chunks
    ``SparseRows.compress`` keeps every stored row from."""
    texts = iter(texts)
    while chunk := list(itertools.islice(texts, EMBED_CHUNK)):
        yield provider.embed_many(chunk)


def build_index(corpus: Corpus, provider: EmbeddingProvider) -> VectorIndex:
    """Embed the rows ``_stored_texts`` lists into a fresh index, through
    ``embedded_rows``, so set-up holds at most ``EMBED_CHUNK`` densely."""
    if len(corpus) == 0:
        raise ValueError("cannot build an index over an empty corpus")
    docs = sorted(corpus, key=lambda d: d.doc_id)
    docrows = np.empty((2, len(docs)), dtype=np.int32)
    rows = SparseRows.compress(embedded_rows(_stored_texts(docs, docrows),
                                             provider), provider.dim)
    offsets = None
    if corpus.sha256 is not None:
        offsets = np.array([corpus.offsets[d.doc_id] for d in docs],
                           dtype=np.int64)
    return VectorIndex([d.doc_id for d in docs], rows,
                       provider.fingerprint + INDEX_FIELDS, docrows,
                       corpus.sha256, offsets)


def _stored_texts(docs: Sequence[Document],
                  docrows: np.ndarray) -> Iterator[str]:
    """The text of each stored row, in order, writing each document's text
    and first window row: each document's "title. text", then, document by
    document, its text and its one window (a single-spaced document of at
    most ``WINDOW`` sentences is its own) where no row holds them yet, or
    its several windows together unless a document stored the same ones."""
    # each stored text's, and each stored run of windows', first row
    held: dict[str | tuple[str, ...], int] = {}
    for row, doc in enumerate(docs):
        text = document_embedding_text(doc)
        held.setdefault(text, row)
        yield text
    end = len(docs)
    for i, doc in enumerate(docs):
        windows = (doc.text,) if _one_window(doc.text) else doc.windows
        run = windows[0] if len(windows) == 1 else windows
        for key in (doc.text, run):
            if key not in held:
                held[key] = end
                texts = (key,) if isinstance(key, str) else key
                for text in texts:
                    held.setdefault(text, end)
                    end += 1
                    yield text
        docrows[:, i] = held[doc.text], held[run]


def _one_window(text: str) -> bool:
    """Whether ``text`` is single-spaced with at most ``WINDOW`` sentences,
    and so its own one window. Each sentence but a last one without a
    terminator ends at a ``.``, ``!`` or ``?``, and the only whitespace
    ``str.isprintable`` passes is the space, so most short texts are
    decided by counting; the rest by ``max_sentences`` and a re-join."""
    bound = text.count(".") + text.count("!") + text.count("?") + \
        (not text.endswith((".", "!", "?")))
    if bound <= WINDOW and text.isprintable() and "  " not in text and \
            text[:1] != " " != text[-1:]:
        return True
    return max_sentences(text) <= WINDOW and " ".join(text.split()) == text


class Retriever:
    """Binds a corpus, its index, and the provider the index was built
    with. ``corpus``, a parsed ``Corpus`` or the index's ``CorpusRows``
    (which parses a document when a question first reads it), must hold
    the documents the index was built from, checked by digest when both
    record one, since candidates are read by row; an in-memory ``Corpus``
    that lacks one of the index's doc ids raises ``IndexIntegrityError``."""

    def __init__(self, corpus: Corpus | CorpusRows, index: VectorIndex,
                 provider: EmbeddingProvider):
        artifacts.check_provider("index", index.provider_fingerprint,
                                 index.dim, provider, INDEX_FIELDS)
        digests = {getattr(corpus, "sha256", None), index.corpus_sha256}
        if len(digests - {None}) > 1:
            raise IndexIntegrityError("the corpus is not the file the index "
                                      "was built from; rebuild it")
        self.corpus = corpus
        self.index = index
        self.provider = provider
        # the document of each index row
        try:
            self._docs = corpus if isinstance(corpus, CorpusRows) else \
                [corpus.get(doc_id) for doc_id in index.doc_ids]
        except KeyError as exc:
            raise IndexIntegrityError(
                f"the index holds doc id {exc.args[0]!r}, which the corpus "
                "lacks; rebuild it") from None

    def retrieve(self, question: str, k: int,
                 query_embedding: np.ndarray | None = None) -> Candidates:
        """Top-k documents by cosine similarity, rank 1 first.
        ``query_embedding`` reuses the question's vector when the caller
        already has it from this retriever's provider."""
        if query_embedding is None:
            query_embedding = self.provider.embed(question)
        rows, sims = self.index.scan.top(query_embedding, k)
        return Candidates(RowDocuments(self._docs, rows), sims, rows,
                          self.index)


def recall_at_k(results: Sequence[RetrievedDoc] | Candidates,
                gold_answers: Iterable[str],
                k: int) -> float:
    """1.0 if any of the top-k results contains a gold answer, else 0.0."""
    if k < 1 or k > len(results):
        raise ValueError(f"k={k} out of range for {len(results)} results")
    answers = list(gold_answers)
    # by position, since ``Candidates`` indexes by int only
    return float(any(contains_answer(results[i].doc.text, answers)
                     for i in range(k)))
