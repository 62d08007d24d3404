"""Document corpus: loading, sentence segmentation, sub-document windows,
token counting, and gold-answer containment checks.

The corpus is immutable once loaded; every function here is pure and safe to
call from concurrent readers.
"""

from __future__ import annotations

import json
import logging
import re
import string
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Sequence

logger = logging.getLogger(__name__)

Span = tuple[int, int]

_PUNCT = set(string.punctuation)

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


class CorpusFormatError(ValueError):
    """A corpus or QA file line could not be parsed."""

    def __init__(self, path: str | Path, line_no: int, reason: str):
        super().__init__(f"{path}:{line_no}: {reason}")
        self.path = str(path)
        self.line_no = line_no


class DuplicateDocumentError(ValueError):
    """Two corpus records share the same id."""


@dataclass(frozen=True)
class Document:
    """A corpus unit and its sentences.

    ``sentences`` holds (start, end) character spans into ``text``; spans are
    ordered, non-overlapping, and jointly cover all non-whitespace text.
    They and ``sentence_tokens`` are computed on first use, once per
    document, since a question reads only the few documents it reranks.
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

    @property
    def sentence_count(self) -> int:
        return len(self.sentences)

    def sentence_texts(self) -> list[str]:
        return [self.text[a:b] for a, b in self.sentences]


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


class Corpus:
    """An ordered, id-indexed collection of documents."""

    def __init__(self, documents: Iterable[Document]):
        self._docs: dict[str, Document] = {}
        for doc in documents:
            if doc.doc_id in self._docs:
                raise DuplicateDocumentError(f"duplicate doc_id {doc.doc_id!r}")
            self._docs[doc.doc_id] = doc

    def __len__(self) -> int:
        return len(self._docs)

    def __iter__(self) -> Iterator[Document]:
        return iter(self._docs.values())

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._docs

    def get(self, doc_id: str) -> Document:
        return self._docs[doc_id]


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
    """Deterministic token count under ``default_tokenizer``.

    Additive over whitespace joins: count(a + " " + b) == count(a) + count(b).
    """
    return len(default_tokenizer(text))


def normalize_for_match(text: str) -> str:
    """Lowercase, collapse whitespace, strip surrounding punctuation per token."""
    tokens = []
    for word in text.split():
        word = word.strip(string.punctuation).lower()
        if word:
            tokens.append(word)
    return " ".join(tokens)


def contains_answer(text: str, gold_answers: Iterable[str]) -> bool:
    """True iff the normalized text contains any normalized gold answer.

    Containment is substring-based ("Parisian" contains "Paris").
    """
    answers = list(gold_answers)
    if not answers:
        raise ValueError("gold_answers must be non-empty")
    normalized = normalize_for_match(text)
    for answer in answers:
        target = normalize_for_match(answer)
        if target and target in normalized:
            return True
    return False


def window_texts(doc: Document) -> list[str]:
    """The text of each ``generate_subdocuments`` window, in order."""
    texts = doc.sentence_texts()
    size = min(len(texts), WINDOW)
    return [" ".join(texts[start:start + size])
            for start in range(len(texts) - size + 1)]


def generate_subdocuments(doc: Document) -> list[SubDocument]:
    """Slice ``doc`` into sliding windows of ``WINDOW`` sentences, stride 1.

    With S >= WINDOW sentences this yields S - WINDOW + 1 sub-documents;
    shorter documents yield a single whole-document slice. Either way every
    sentence is covered by at least one sub-document.
    """
    total = doc.sentence_count
    if total == 0:
        raise ValueError(f"document {doc.doc_id!r} has no sentences")
    size = min(total, WINDOW)
    # count_tokens is additive over the joins, so a window's count is the
    # sum of its sentences'
    tokens = doc.sentence_tokens
    return [SubDocument(parent_doc_id=doc.doc_id, start_sentence=start,
                        sentence_count=size, text=text,
                        token_count=sum(tokens[start:start + size]))
            for start, text in enumerate(window_texts(doc))]


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


def load_corpus(path: str | Path) -> Corpus:
    """Read a JSONL corpus ({"id", "title", "text"} per line)."""
    docs: list[Document] = []
    seen: set[str] = set()
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            record = _parse_record(path, line_no, line, ("id", "title", "text"))
            doc_id = str(record["id"])
            if doc_id in seen:
                raise DuplicateDocumentError(
                    f"{path}:{line_no}: duplicate doc id {doc_id!r}")
            seen.add(doc_id)
            docs.append(make_document(doc_id, str(record["title"]), str(record["text"])))
    return Corpus(docs)


def load_qa(path: str | Path) -> list[QARecord]:
    """Read a JSONL QA set ({"question_id", "question", "answers"} per line)."""
    records: dict[str, QARecord] = {}
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            record = _parse_record(path, line_no, line,
                                   ("question_id", "question", "answers"))
            answers = record["answers"]
            if not isinstance(answers, list) or not answers:
                raise CorpusFormatError(path, line_no, "answers must be a non-empty list")
            question_id = str(record["question_id"])
            if question_id in records:
                raise CorpusFormatError(
                    path, line_no, f"duplicate question_id {question_id!r}")
            records[question_id] = QARecord(
                question_id=question_id,
                question=str(record["question"]),
                gold_answers=frozenset(str(a) for a in answers),
            )
    return list(records.values())


def _parse_record(path: str | Path, line_no: int, line: str,
                  required: Sequence[str]) -> dict:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise CorpusFormatError(path, line_no, f"invalid JSON ({exc.msg})") from exc
    if not isinstance(record, dict):
        raise CorpusFormatError(path, line_no, "expected a JSON object")
    for key in required:
        if key not in record:
            raise CorpusFormatError(path, line_no, f"missing field {key!r}")
    return record
