"""Document corpus: loading, sentence segmentation, sub-document windows,
token counting, and gold-answer containment checks.

Every JSONL input (the corpus, a QA set, the scripted LLM's script) is read
by one reader, ``read_jsonl``, so a bad line is reported the same way in
each: ``CorpusFormatError`` with ``path:line: reason``. A query-time load
parses no corpus line up front: ``CorpusRows`` checks the file against the
digest and line offsets an index recorded, and parses each document's line
the first time a question reads it, by the same rules.

The corpus is immutable once loaded; every function here is pure and safe to
call from concurrent readers.
"""

from __future__ import annotations

import hashlib
import json
import logging
import re
import string
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .artifacts import IndexIntegrityError

logger = logging.getLogger(__name__)

Span = tuple[int, int]

_PUNCT = string.punctuation

# a candidate sentence end: a terminator followed by whitespace or the end
# of the text (``\s`` and ``str.isspace`` agree on every code point)
_END_RE = re.compile(r"[.!?](?=\s|\Z)")

# Trailing periods of these never end a sentence, even at sentence start
# ("Mr. J. Smith won." is one sentence).
_ABBREVIATIONS = frozenset({
    "mr", "mrs", "ms", "dr", "prof", "rev", "hon", "st",
    "jr", "sr", "vs", "al", "inc", "ltd", "co",
})

# A name-like continuation after an initial: a capitalized word ("Smith")
# or another initial ("K.").
_NAME_NEXT_RE = re.compile(r"[A-Z](?:[a-z]|\.)")

# sentences per sub-document window, the paper's three-sentence window
WINDOW = 3

_DECODER = json.JSONDecoder()
_JSON_SPACE = " \t\n\r"

# the fields of a corpus record
CORPUS_FIELDS = ("id", "title", "text")

# a line ends at "\n", "\r\n" or a lone "\r", as in text-mode reading
_LINE_END = re.compile(rb"[\r\n]")


class CorpusFormatError(ValueError):
    """A line of a JSONL input could not be parsed or is not a valid
    record."""

    def __init__(self, path: str | Path, line_no: int, reason: str):
        super().__init__(f"{path}:{line_no}: {reason}")
        self.path = str(path)
        self.line_no = line_no


class DuplicateDocumentError(ValueError):
    """Two corpus records share the same id."""


class _BadLine(ValueError):
    """Why a JSONL line is neither blank nor a valid record."""


@dataclass(frozen=True)
class Document:
    """A corpus unit and its sentences.

    ``sentences`` holds (start, end) character spans into ``text``; spans are
    ordered, non-overlapping, and jointly cover all non-whitespace text.
    They, ``sentence_tokens`` and ``windows`` are computed on first use,
    once per document, since a question reads only the few documents it
    reranks; a window's text is then the same string on every question.
    """

    doc_id: str
    title: str
    text: str

    @cached_property
    def sentences(self) -> tuple[Span, ...]:
        return tuple(split_sentences(self.text))

    @cached_property
    def sentence_tokens(self) -> tuple[int, ...]:
        """``count_tokens`` of each sentence, counted once per document."""
        return tuple(count_tokens(text) for text in self.sentence_texts())

    @cached_property
    def windows(self) -> tuple[str, ...]:
        """The text of each window: ``WINDOW`` sentences joined by single
        spaces, at stride 1, or the whole document when it has fewer. A
        document without sentences has no window and raises ``ValueError``."""
        if not self.sentences:
            raise ValueError(f"document {self.doc_id!r} has no sentences")
        texts = self.sentence_texts()
        size = min(len(texts), WINDOW)
        return tuple(" ".join(texts[start:start + size])
                     for start in range(len(texts) - size + 1))

    @property
    def sentence_count(self) -> int:
        return len(self.sentences)

    def sentence_texts(self) -> list[str]:
        return [self.text[a:b] for a, b in self.sentences]

    def subdocument(self, start: int) -> "SubDocument":
        """Window ``start`` of ``generate_subdocuments``. Its token count is
        the sum of its sentences' counts, since ``count_tokens`` is additive
        over the joins."""
        size = min(self.sentence_count, WINDOW)
        return SubDocument(self.doc_id, start, size, self.windows[start],
                           sum(self.sentence_tokens[start:start + size]))


@dataclass(frozen=True)
class SubDocument:
    """A contiguous run of sentences cut from a parent document."""

    parent_doc_id: str
    start_sentence: int
    sentence_count: int
    text: str
    token_count: int

    @property
    def subdoc_id(self) -> str:
        return f"{self.parent_doc_id}#{self.start_sentence}+{self.sentence_count}"


@dataclass(frozen=True)
class QARecord:
    question_id: str
    question: str
    gold_answers: frozenset[str]

    def __post_init__(self):
        if not self.gold_answers:
            raise ValueError(f"question {self.question_id!r} has no gold answers")
        for answer in self.gold_answers:
            if not isinstance(answer, str):
                raise ValueError(f"question {self.question_id!r}: gold answer "
                                 f"{answer!r} is not a string")
            if not normalize_for_match(answer):
                raise ValueError(f"question {self.question_id!r}: gold answer "
                                 f"{answer!r} has no word to match")


class Corpus:
    """An ordered, id-indexed collection of documents. One read from a file
    (``load_corpus``) also has the file's ``sha256`` and each document's
    line ``offsets`` in bytes, which ``build_index`` records; an in-memory
    one has neither."""

    def __init__(self, documents: Iterable[Document]):
        self._docs: dict[str, Document] = {}
        for doc in documents:
            if doc.doc_id in self._docs:
                raise DuplicateDocumentError(f"duplicate doc_id {doc.doc_id!r}")
            self._docs[doc.doc_id] = doc
        self.sha256: str | None = None
        self.offsets: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._docs)

    def __iter__(self) -> Iterator[Document]:
        return iter(self._docs.values())

    def get(self, doc_id: str) -> Document:
        return self._docs[doc_id]


class CorpusRows(dict):
    """The documents of the corpus file at ``path``, by the row of the index
    at ``index_path``, built from it: ``doc_ids`` and ``offsets`` (each
    row's line start, in bytes) are the index's, ``sha256`` the digest it
    recorded of the file (None for an index built from no file).

    The file is read once and checked here against the digest and the
    offsets; no line is parsed. ``rows[row]`` parses the row's line the
    first time it is read (``__missing__``), by ``read_jsonl``'s rules, and
    keeps its document, so a later read is one dict lookup. Reads take no
    lock: two threads reading one new row may each build an equal
    ``Document``, and either is kept.

    Any mismatch raises ``IndexIntegrityError`` naming both files."""

    def __init__(self, path: str | Path, index_path: str | Path,
                 sha256: str | None, doc_ids: Sequence[str],
                 offsets: np.ndarray):
        super().__init__()
        self.path = str(path)
        self.index_path = str(index_path)
        if sha256 is None:
            raise self._error("the index records no corpus file")
        data = Path(path).read_bytes()
        if hashlib.sha256(data).hexdigest() != sha256:
            raise self._error(
                "the corpus is not the file the index was built from")
        # each offset a line start: at 0, after "\n", or after an "\r" that
        # does not begin "\r\n"
        buf = np.frombuffer(data, dtype=np.uint8)
        ordered = np.sort(offsets)
        if len(ordered) and (ordered[0] < 0 or ordered[-1] >= len(buf)):
            raise self._error(f"a line offset is outside the corpus's "
                              f"{len(buf)} bytes")
        if np.any(ordered[1:] == ordered[:-1]):
            raise self._error("the index repeats a line offset")
        before = buf[offsets - 1]
        if not np.all((offsets == 0) | (before == ord("\n")) |
                      ((before == ord("\r")) & (buf[offsets] != ord("\n")))):
            raise self._error("a line offset is not at a line start")
        self._data = data
        self._doc_ids = doc_ids
        self._offsets = offsets.tolist()

    def _error(self, reason: str) -> IndexIntegrityError:
        return IndexIntegrityError(f"corpus {self.path}, index "
                                   f"{self.index_path}: {reason}; rebuild it")

    def __missing__(self, row: int) -> Document:
        start = self._offsets[row]
        end = _LINE_END.search(self._data, start)
        line = self._data[start:end.start() if end else len(self._data)]
        try:
            record = _parse_line(line.decode("utf-8"), CORPUS_FIELDS)
            if record is None:
                raise _BadLine("blank line")
        except (_BadLine, UnicodeDecodeError) as exc:
            raise self._error(f"{self._where(start)}: {exc}") from exc
        doc = _document(record)
        if doc.doc_id != self._doc_ids[row]:
            raise self._error(f"{self._where(start)} holds document "
                              f"{doc.doc_id!r}, index row {row} is "
                              f"{self._doc_ids[row]!r}")
        self[row] = doc
        return doc

    def _where(self, start: int) -> str:
        """``path:line`` of the line at byte ``start``."""
        return f"{self.path}:{len(self._data[:start].splitlines()) + 1}"


def split_sentences(text: str) -> list[Span]:
    """Segment ``text`` into sentence spans.

    A sentence ends at ``.``, ``!`` or ``?`` followed by whitespace or end of
    text. A period is kept inside the sentence when the preceding word is a
    known abbreviation ("Mr.") or a single capital initial followed by a
    name-like word ("J. Smith"). Text without any terminator is one span.
    """
    spans: list[Span] = []
    start = _next_nonspace(text, 0)
    for match in _END_RE.finditer(text):
        mark = match.start()
        if text[mark] == "." and _is_guarded_period(text, mark):
            continue
        spans.append((start, mark + 1))
        start = _next_nonspace(text, mark + 1)
    end = len(text.rstrip())
    if end > start:
        spans.append((start, end))
    return spans


def max_sentences(text: str) -> int:
    """An upper bound on ``len(split_sentences(text))`` that splits
    nothing: every sentence ends at a candidate end, except a last
    sentence when the text does not end in a terminator."""
    ends = len(_END_RE.findall(text))
    return ends if text.rstrip().endswith((".", "!", "?")) else ends + 1


def _next_nonspace(text: str, pos: int) -> int:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def _is_guarded_period(text: str, dot: int) -> bool:
    j = dot
    while j > 0 and text[j - 1].isalpha():
        j -= 1
    word = text[j:dot]
    if not word:
        return False
    if word.lower() in _ABBREVIATIONS:
        return True
    if len(word) == 1 and word.isupper():
        k = _next_nonspace(text, dot + 1)
        return bool(_NAME_NEXT_RE.match(text, k))
    return False


def default_tokenizer(text: str) -> list[str]:
    """Whitespace split, then peel leading/trailing punctuation into
    separate tokens ("king?" -> ["king", "?"])."""
    tokens: list[str] = []
    for word in text.split():
        lead: list[str] = []
        while word and word[0] in _PUNCT:
            lead.append(word[0])
            word = word[1:]
        trail: list[str] = []
        while word and word[-1] in _PUNCT:
            trail.append(word[-1])
            word = word[:-1]
        tokens.extend(lead)
        if word:
            tokens.append(word)
        tokens.extend(reversed(trail))
    return tokens


def count_tokens(text: str) -> int:
    """``len(default_tokenizer(text))``, without building the tokens: each
    whitespace word gives one token per punctuation character peeled off
    its ends, plus one for its core when the core is not empty.

    Additive over whitespace joins: count(a + " " + b) == count(a) + count(b).
    """
    words = text.split()
    cores = [word.strip(_PUNCT) for word in words]
    return (len("".join(words)) - len("".join(cores))
            + len(cores) - cores.count(""))


def normalize_for_match(text: str) -> str:
    """Lowercase, collapse whitespace, strip surrounding punctuation per
    token: the form in which ``contains_answer`` compares texts.

    Lowering makes no word boundary and no punctuation: every character of
    ``string.punctuation`` and every whitespace character lowers to itself,
    and no other code point lowers to text that holds either (tested over
    every code point). So a one-word target, with no punctuation at its
    ends, occurs in ``text.lower()`` exactly when it occurs here: inside
    one word's core, the part between its leading and trailing
    punctuation."""
    tokens = []
    for word in text.split():
        word = word.strip(string.punctuation).lower()
        if word:
            tokens.append(word)
    return " ".join(tokens)


def answer_targets(gold_answers: Iterable[str]) -> list[str]:
    """The normalized gold answers that ``contains_target`` looks for. An
    answer that normalizes to nothing can never match and is dropped;
    ``ValueError`` when there are no answers at all."""
    targets = [normalize_for_match(answer) for answer in gold_answers]
    if not targets:
        raise ValueError("gold_answers must be non-empty")
    return [target for target in targets if target]


def contains_target(text: str, targets: Iterable[str]) -> bool:
    """True iff ``normalize_for_match(text)`` contains any of ``targets``
    (from ``answer_targets``); a one-word target is looked for in
    ``text.lower()``, the same test by ``normalize_for_match``'s lemma."""
    lowered = normalized = None
    for target in targets:
        if " " not in target:
            if lowered is None:
                lowered = text.lower()
            found = target in lowered
        else:
            if normalized is None:
                normalized = normalize_for_match(text)
            found = target in normalized
        if found:
            return True
    return False


def contains_answer(text: str, gold_answers: Iterable[str]) -> bool:
    """True iff the normalized text contains any normalized gold answer
    (``contains_target`` over ``answer_targets``).

    Containment is substring-based ("Parisian" contains "Paris").
    """
    return contains_target(text, answer_targets(gold_answers))


def generate_subdocuments(doc: Document) -> list[SubDocument]:
    """Slice ``doc`` into sliding windows of ``WINDOW`` sentences, stride 1.

    With S >= WINDOW sentences this yields S - WINDOW + 1 sub-documents;
    shorter documents yield a single whole-document slice. Either way every
    sentence is covered by at least one sub-document.
    """
    return [doc.subdocument(start) for start in range(len(doc.windows))]


def whole_document_subdoc(doc: Document) -> SubDocument:
    """A single sub-document covering every sentence of ``doc``."""
    return SubDocument(
        parent_doc_id=doc.doc_id,
        start_sentence=0,
        sentence_count=max(doc.sentence_count, 1),
        text=" ".join(doc.sentence_texts()),
        token_count=sum(doc.sentence_tokens),
    )


def make_document(doc_id: str, title: str, text: str) -> Document:
    return Document(doc_id=doc_id, title=title, text=text)


def _parse_line(line: str, required: Sequence[str]) -> dict | None:
    """The JSON object on ``line`` (which may end in its line break), with
    each key in ``required``, or None when the line is blank or
    whitespace-only; ``_BadLine`` says why a line is neither."""
    # what json.loads accepts, without its per-call overhead: the decoder's
    # scanner, which raw_decode wraps, at the first non-space character
    scan = _DECODER.scan_once
    try:
        try:
            record, end = scan(line, 0)
        except StopIteration:
            if not line.strip():
                return None
            record, end = scan(line,
                               len(line) - len(line.lstrip(_JSON_SPACE)))
    except StopIteration:
        raise _BadLine("invalid JSON (Expecting value)") from None
    except json.JSONDecodeError as exc:
        raise _BadLine(f"invalid JSON ({exc.msg})") from exc
    if line[end:] != "\n" and line[end:].strip(_JSON_SPACE):
        raise _BadLine("invalid JSON (Extra data)")
    if not isinstance(record, dict):
        raise _BadLine("expected a JSON object")
    for key in required:
        if key not in record:
            raise _BadLine(f"missing field {key!r}")
    return record


def _records(path: str | Path, data: bytes, required: Sequence[str]
             ) -> Iterator[tuple[int, int, dict]]:
    """(line number, byte offset of the line, object) of each non-blank
    line of ``data``, the bytes of the JSONL file at ``path``."""
    offset = 0
    for line_no, line in enumerate(data.splitlines(keepends=True), start=1):
        try:
            record = _parse_line(line.decode("utf-8"), required)
        except (_BadLine, UnicodeDecodeError) as exc:
            raise CorpusFormatError(path, line_no, str(exc)) from exc
        if record is not None:
            yield line_no, offset, record
        offset += len(line)


def read_jsonl(path: str | Path, required: Sequence[str] = ()
               ) -> Iterator[tuple[int, dict]]:
    """(line number, object) of each line of the JSONL file at ``path``,
    counting from 1, skipping blank and whitespace-only lines. A line ends
    at LF, CR LF or a lone CR, as in text-mode reading. Every other line
    must be UTF-8 and hold one JSON object, with each key in ``required``,
    between JSON whitespace, or ``CorpusFormatError`` names the line."""
    for line_no, _, record in _records(path, Path(path).read_bytes(),
                                       required):
        yield line_no, record


def _document(record: dict) -> Document:
    return Document(str(record["id"]), str(record["title"]),
                    str(record["text"]))


def load_corpus(path: str | Path) -> Corpus:
    """Read a JSONL corpus ({"id", "title", "text"} per line), reading the
    file's bytes once: the corpus keeps their sha256 and each document's
    line offset."""
    data = Path(path).read_bytes()
    offsets: dict[str, int] = {}
    line_no = 0

    def documents() -> Iterator[Document]:
        nonlocal line_no
        for line_no, offset, record in _records(path, data, CORPUS_FIELDS):
            doc = _document(record)
            offsets[doc.doc_id] = offset
            yield doc

    # the corpus fills its id dict as the lines are read, and names the
    # first duplicate id; the reader's line number places it
    try:
        corpus = Corpus(documents())
    except DuplicateDocumentError as exc:
        raise DuplicateDocumentError(f"{path}:{line_no}: {exc}") from exc
    corpus.sha256 = hashlib.sha256(data).hexdigest()
    corpus.offsets = offsets
    return corpus


def load_qa(path: str | Path) -> list[QARecord]:
    """Read a JSONL QA set ({"question_id", "question", "answers"} per
    line). ``answers`` is a non-empty list of strings, each with a word
    left after ``normalize_for_match``, or ``CorpusFormatError`` names the
    line."""
    records: dict[str, QARecord] = {}
    for line_no, record in read_jsonl(path,
                                      ("question_id", "question", "answers")):
        answers = record["answers"]
        if not isinstance(answers, list) or not answers:
            raise CorpusFormatError(path, line_no,
                                    "answers must be a non-empty list")
        question_id = str(record["question_id"])
        if question_id in records:
            raise CorpusFormatError(
                path, line_no, f"duplicate question_id {question_id!r}")
        try:
            records[question_id] = QARecord(
                question_id=question_id,
                question=str(record["question"]),
                # not str(a): a null would become "None", matching "none"
                gold_answers=frozenset(answers),
            )
        except TypeError as exc:  # a JSON list or object is unhashable
            raise CorpusFormatError(path, line_no, f"question {question_id!r}"
                                    ": a gold answer is not a string") from exc
        except ValueError as exc:
            raise CorpusFormatError(path, line_no, str(exc)) from exc
    return list(records.values())
