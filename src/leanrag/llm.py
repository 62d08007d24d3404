"""Black-box LLM access and prompt construction.

Prompt wordings are configuration data (see DEFAULT_TEMPLATES), so template
ablations are plain config swaps. Two clients ship: an HTTP client speaking
a minimal JSON protocol, and a scripted mock for tests. Rendering is a pure
function of (template, question, passages).
"""

from __future__ import annotations

import functools
import logging
import os
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Protocol, Sequence

from .corpus import (CorpusFormatError, contains_answer, count_tokens,
                     read_jsonl)

logger = logging.getLogger(__name__)


class LlmTransportError(RuntimeError):
    """The remote endpoint could not produce a response (after retries)."""


class UnscriptedPromptError(LookupError):
    """A strict mock received a prompt it has no script entry for."""


# every template lists its passages under one header, one numbered line
# each, and then states the question on the line ScriptedLlmClient reads
PASSAGE_HEADER = "Passages:"
PASSAGE_LINE = "{index}. {text}"
QUESTION_LINE = "Question: {question}"
_QUESTION_LINE_RE = re.compile(r"^Question:\s*(.*)$")


@dataclass(frozen=True)
class PromptTemplate:
    name: str
    instruction: str
    suffix: str = ""


DEFAULT_TEMPLATES: dict[str, PromptTemplate] = {
    "comprehensive": PromptTemplate(
        name="comprehensive",
        instruction=(
            "Refer to the passage below and answer the following question.\n"
            "Make sure you fully understand the meaning of the question and passages.\n"
            "Then give the answer and explain why you choose this answer."
        ),
    ),
    "simple": PromptTemplate(
        name="simple",
        instruction="Refer to the passage below and answer the following question.",
        suffix="The answer is",
    ),
    "cot": PromptTemplate(
        name="cot",
        instruction="Refer to the passage below and answer the following question.",
        suffix="Let's think step by step.",
    ),
    "no_retrieve": PromptTemplate(
        name="no_retrieve",
        instruction=(
            "Generate a background passage about the question based on your "
            "internal knowledge, then answer the question by reasoning over "
            "the generated passage."
        ),
    ),
}


@dataclass(frozen=True)
class LlmRequest:
    prompt: str
    token_count: int


@dataclass(frozen=True)
class LlmResponse:
    text: str


class LlmClient(Protocol):
    def complete(self, request: LlmRequest) -> LlmResponse: ...


def build_retrieve_prompt(question: str, passages: Sequence[str],
                          template: PromptTemplate | None = None,
                          passage_tokens: int | None = None) -> LlmRequest:
    """Render the retrieval-augmented prompt: instruction, numbered passages
    in the given order, then the question.

    Its token count is summed from its parts, since ``count_tokens`` is
    additive over the newlines and spaces that join them: the frame (the
    prompt with an empty question and empty passages), the question, and
    ``passage_tokens``, the passages' total count when the caller knows it
    (``SubDocument.token_count``); otherwise each passage is counted here."""
    if not passages:
        raise ValueError("passages must be non-empty")
    template = template or DEFAULT_TEMPLATES["comprehensive"]
    if passage_tokens is None:
        passage_tokens = sum(map(count_tokens, passages))
    return LlmRequest(
        prompt=_render_retrieve(template, question, passages),
        token_count=_frame_tokens(template, len(passages))
        + count_tokens(question) + passage_tokens)


def _render_retrieve(template: PromptTemplate, question: str,
                     passages: Sequence[str]) -> str:
    lines = [template.instruction, PASSAGE_HEADER]
    for index, text in enumerate(passages, start=1):
        lines.append(PASSAGE_LINE.format(index=index, text=text))
    lines.append(QUESTION_LINE.format(question=question))
    if template.suffix:
        lines.append(template.suffix)
    return "\n".join(lines)


@functools.lru_cache(maxsize=256)
def _frame_tokens(template: PromptTemplate, passages: int) -> int:
    """Tokens of a retrieve prompt of ``passages`` passages, less those of
    its question and passages."""
    return count_tokens(_render_retrieve(template, "", [""] * passages))


def build_noretrieve_prompt(question: str,
                            template: PromptTemplate | None = None
                            ) -> LlmRequest:
    """Render the self-knowledge prompt: generate-background instruction plus
    the question, no passages."""
    template = template or DEFAULT_TEMPLATES["no_retrieve"]
    lines = [template.instruction, QUESTION_LINE.format(question=question)]
    if template.suffix:
        lines.append(template.suffix)
    prompt = "\n".join(lines)
    return LlmRequest(prompt=prompt, token_count=count_tokens(prompt))


def is_correct(response_text: str, gold_answers: Iterable[str]) -> bool:
    """Containment-style correctness: any gold answer appears in the response."""
    return contains_answer(response_text, gold_answers)


class ScriptedLlmClient:
    """Deterministic mock. Resolution order: exact question (parsed from the
    prompt's "Question:" line), then ordered regex patterns over the full
    prompt, then the default answer. No default means strict mode: a miss
    raises UnscriptedPromptError. It keeps no record of the prompts it
    answers."""

    def __init__(self,
                 answers_by_question: Mapping[str, str] | None = None,
                 patterns: Sequence[tuple[str | re.Pattern, str]] = (),
                 default_answer: str | None = None):
        self._by_question = dict(answers_by_question or {})
        self._patterns = [(re.compile(p) if isinstance(p, str) else p, answer)
                          for p, answer in patterns]
        self._default = default_answer

    @classmethod
    def from_script_file(cls, script_path: str | Path) -> "ScriptedLlmClient":
        """Load a JSONL script: {"match": {"question"|"pattern"}, "answer"},
        each a string and each pattern a valid regex, read by
        ``read_jsonl``; a bad line raises ``CorpusFormatError`` (a
        ``ValueError``) naming it. The client has no default answer, so a
        miss raises."""
        by_question: dict[str, str] = {}
        patterns: list[tuple[re.Pattern, str]] = []
        for line_no, entry in read_jsonl(script_path):
            try:
                key, match, answer = _script_entry(entry)
            except ValueError as exc:
                raise CorpusFormatError(script_path, line_no,
                                        str(exc)) from exc
            if key == "question":
                by_question[match] = answer
            else:
                patterns.append((match, answer))
        return cls(by_question, patterns)

    def complete(self, request: LlmRequest) -> LlmResponse:
        return LlmResponse(text=self._resolve(request.prompt))

    def _resolve(self, prompt: str) -> str:
        question = self._extract_question(prompt)
        if question is not None and question in self._by_question:
            return self._by_question[question]
        for pattern, answer in self._patterns:
            if pattern.search(prompt):
                return answer
        if self._default is not None:
            return self._default
        head = prompt.splitlines()[0] if prompt else ""
        raise UnscriptedPromptError(
            f"no script entry matches prompt starting {head!r} "
            f"(question={question!r})")

    @staticmethod
    def _extract_question(prompt: str) -> str | None:
        for line in reversed(prompt.splitlines()):
            match = _QUESTION_LINE_RE.match(line)
            if match:
                return match.group(1).strip()
        return None


def _script_entry(entry: dict) -> tuple[str, str | re.Pattern, str]:
    """("question", question, answer) or ("pattern", compiled pattern,
    answer) of a script entry, or ``ValueError`` says what is wrong."""
    if "answer" not in entry:
        raise ValueError("entry needs an 'answer'")
    match = entry.get("match", {})
    if not isinstance(match, dict):
        raise ValueError("match must be an object")
    key = "question" if "question" in match else "pattern"
    if key not in match:
        raise ValueError("match needs 'question' or 'pattern'")
    for name, value in ((key, match[key]), ("answer", entry["answer"])):
        if not isinstance(value, str):
            raise ValueError(f"{name} must be a string, got {value!r}")
    if key == "question":
        return key, match[key], entry["answer"]
    try:
        return key, re.compile(match[key]), entry["answer"]
    except re.error as exc:
        raise ValueError(f"pattern {match[key]!r} does not compile "
                         f"({exc})") from exc


class HttpLlmClient:
    """JSON-over-HTTP client: POST {"prompt", "max_tokens", "temperature": 0}
    -> {"text"}. Retries transport-level failures (connection errors, 5xx)
    with exponential backoff; definitive 4xx responses fail immediately."""

    def __init__(self, endpoint: str, timeout: float = 60.0, retries: int = 2,
                 backoff: float = 0.5, max_tokens: int = 256,
                 token_env: str = "LEANRAG_LLM_TOKEN",
                 session=None, sleep=time.sleep):
        if not timeout > 0:
            raise ValueError(f"timeout must be > 0, got {timeout!r}")
        if not isinstance(retries, int) or retries < 0:
            raise ValueError(f"retries must be an int >= 0, got {retries!r}")
        if not backoff >= 0:
            raise ValueError(f"backoff must be >= 0, got {backoff!r}")
        if not isinstance(max_tokens, int) or max_tokens < 1:
            raise ValueError(f"max_tokens must be an int >= 1: {max_tokens!r}")
        self.endpoint = endpoint
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.max_tokens = max_tokens
        self.token_env = token_env
        if session is None:
            import requests

            session = requests.Session()
        self._session = session
        self._sleep = sleep

    def complete(self, request: LlmRequest) -> LlmResponse:
        headers = {}
        token = os.environ.get(self.token_env)
        if token:
            headers["Authorization"] = f"Bearer {token}"
        body = {"prompt": request.prompt, "max_tokens": self.max_tokens,
                "temperature": 0}
        last_error: Exception | None = None
        for attempt in range(self.retries + 1):
            if attempt:
                self._sleep(self.backoff * (2 ** (attempt - 1)))
            try:
                response = self._session.post(self.endpoint, json=body,
                                              headers=headers,
                                              timeout=self.timeout)
            except Exception as exc:
                last_error = exc
                logger.warning("LLM request failed (attempt %d): %s", attempt + 1, exc)
                continue
            status = getattr(response, "status_code", 200)
            if status >= 500:
                last_error = LlmTransportError(f"HTTP {status} from {self.endpoint}")
                logger.warning("LLM endpoint returned %d (attempt %d)", status,
                               attempt + 1)
                continue
            if status >= 400:
                raise LlmTransportError(f"HTTP {status} from {self.endpoint}")
            try:
                text = str(response.json()["text"])
            except (ValueError, KeyError, TypeError) as exc:
                raise LlmTransportError(
                    f"malformed response from {self.endpoint}: {exc!r}") from exc
            return LlmResponse(text=text)
        raise LlmTransportError(
            f"LLM request failed after {self.retries + 1} attempts: {last_error}"
        ) from last_error
