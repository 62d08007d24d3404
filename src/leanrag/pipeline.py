"""End-to-end inference and the evaluation harness.

Per question: retrieve the top candidates, score every candidate with the
two-head scorer, compute the two self-knowledge facet scores, and either
answer from internal knowledge (no passages) or compress the candidates into
a sub-document combination and answer with it. The harness aggregates
accuracy, recall@K under several orderings, token accounting, and the
retrieval skip rate, and supports ablation flags.
"""

from __future__ import annotations

import functools
import json
import logging
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .artifacts import check_provider
from .corpus import (CorpusRows, QARecord, answer_targets, contains_target,
                     load_corpus, whole_document_subdoc)
from .llm import (DEFAULT_TEMPLATES, HttpLlmClient, LlmClient, LlmTransportError,
                  PromptTemplate, ScriptedLlmClient, build_noretrieve_prompt,
                  build_retrieve_prompt, is_correct)
from .recognizer import (Decision, NnReferenceSet, RecognizerConfig,
                         RecognizerVerdict, decide, long_tail_score,
                         neighbor_score)
from .reducer import (DetectorModel, ScoredSubDoc, SubDocCombination,
                      make_combination, reduce, rerank_topk)
from .retrieval import (INDEX_FIELDS, EmbeddingProviderError, HashingEmbedder,
                        IndexIntegrityError, RemoteEmbedder, Retriever,
                        VectorIndex)
from .scorer import ScoredCandidates, ScorerModel, score_candidates
from .seeds import stable_hash

logger = logging.getLogger(__name__)

RECALL_KS = (1, 5, 10, 20, 100)
SCORE_ORDERINGS = ("similarity", "has_answer_only", "llm_prefer_only",
                   "bilabel_sum")
KNOWN_ABLATIONS = ("no_recognizer", "no_reducer")
ARTIFACTS = ("corpus", "index", "scorer", "detector", "nn_ref", "llm")


class PipelineStageError(RuntimeError):
    """An error attributed to a pipeline stage."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass
class PipelineConfig:
    seed: int = 0
    corpus_path: str | None = None
    index_path: str | None = None
    scorer_path: str | None = None
    detector_path: str | None = None
    nn_ref_path: str | None = None
    top_retrieve: int = 100
    top_rerank: int = 10
    template: str = "comprehensive"
    provider: dict = field(default_factory=lambda: {"kind": "hash"})
    recognizer: dict = field(default_factory=dict)
    llm: dict = field(default_factory=dict)
    templates: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_rerank(self.top_rerank, self.top_retrieve)

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineConfig":
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except ValueError as exc:  # also covers undecodable bytes
            raise ValueError(f"config {str(path)!r}: {exc}") from exc
        return _construct(str(path), cls, data)


@dataclass
class PipelineContext:
    """Everything answer_question needs, loaded and immutable."""

    retriever: Retriever
    scorer: ScorerModel
    recognizer_config: RecognizerConfig
    llm: LlmClient
    detector: DetectorModel | None = None
    nn_reference: NnReferenceSet | None = None
    templates: Mapping[str, PromptTemplate] = field(
        default_factory=lambda: dict(DEFAULT_TEMPLATES))
    top_retrieve: int = 100
    top_rerank: int = 10
    template_name: str = "comprehensive"
    seed: int = 0
    max_workers: int = 1

    def __post_init__(self):
        # the question is embedded once with the retriever's provider and
        # that vector is fed to the scorer, so they must embed alike
        expected = getattr(getattr(self.retriever, "provider", None),
                           "fingerprint", None)
        actual = getattr(getattr(self.scorer, "provider", None),
                         "fingerprint", None)
        if expected is not None and actual is not None and actual != expected:
            raise ValueError(
                f"scorer embeds with {actual!r} but the retriever "
                f"embeds with {expected!r}")
        if self.template_name not in self.templates:
            raise ValueError(f"unknown template {self.template_name!r}; "
                             f"known templates: {sorted(self.templates)}")
        _check_rerank(self.top_rerank, self.top_retrieve)
        if not isinstance(self.max_workers, int) or self.max_workers < 1:
            raise ValueError("max_workers (llm.concurrency) must be an int "
                             f">= 1, got {self.max_workers!r}")
        k = self.recognizer_config.k_neighbors
        if self.nn_reference is not None and len(self.nn_reference) < k:
            raise IndexIntegrityError(
                f"NN reference has {len(self.nn_reference)} entries, fewer "
                f"than k_neighbors={k}")
        # accepted_size reads only the first detector.max_docs documents
        if self.detector is not None and \
                self.detector.max_docs < self.top_rerank:
            raise IndexIntegrityError(
                f"detector takes {self.detector.max_docs} documents, fewer "
                f"than top_rerank={self.top_rerank}; rebuild it")


def _check_rerank(top_rerank: int, top_retrieve: int) -> None:
    for name, value in (("top_retrieve", top_retrieve),
                        ("top_rerank", top_rerank)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if not 1 <= top_rerank <= top_retrieve:
        raise ValueError("need 1 <= top_rerank <= top_retrieve, got "
                         f"{top_rerank} and {top_retrieve}")


# constructor parameters through which tests pass fakes of the remote
# clients' HTTP session and sleep; no config may set them
INJECTED = frozenset({"session", "sleep"})


def _section(section: str, spec) -> dict:
    """A copy of config section ``spec``; one that is not a JSON object is
    a ``ValueError`` naming the section."""
    if not isinstance(spec, Mapping):
        raise ValueError(f"config {section!r}: must be an object, "
                         f"got {spec!r}")
    return dict(spec)


def _construct(section: str, make, spec: Mapping):
    """``make(**spec)``: a config section goes to the constructor that
    defines its keys, so each default lives in that constructor and a
    section that is not an object, an unknown or missing key, or one in
    ``INJECTED``, is a ``ValueError`` naming the section."""
    spec = _section(section, spec)
    injected = sorted(INJECTED.intersection(spec))
    if injected:
        raise ValueError(f"config {section!r}: {injected[0]!r} cannot be "
                         "set from a config")
    try:
        return make(**spec)
    except TypeError as exc:
        raise ValueError(f"config {section!r}: {exc}") from exc


def _construct_kind(section: str, spec: Mapping, **kinds):
    rest = _section(section, spec)
    kind = rest.pop("kind", None)
    if kind not in kinds:
        raise ValueError(f"config {section!r}: unknown kind {kind!r}; "
                         f"known kinds: {sorted(kinds)}")
    return _construct(section, kinds[kind], rest)


def build_provider(spec: Mapping):
    return _construct_kind("provider", spec, hash=HashingEmbedder,
                           remote=RemoteEmbedder)


def build_llm_client(spec: Mapping) -> LlmClient:
    return _construct_kind("llm", spec, remote=HttpLlmClient,
                           mock=ScriptedLlmClient.from_script_file)


def load_pipeline(config: PipelineConfig,
                  require: Iterable[str] = ARTIFACTS) -> PipelineContext:
    """Assemble a context from what a config points at, reading exactly the
    artifacts ``require`` names (from ``ARTIFACTS``) and leaving the others
    ``None``. Each one read must be configured and present; one that is
    malformed, of another format version, or does not match the provider,
    the corpus or the recognizer config raises ``IndexIntegrityError``."""
    require = set(require)
    unknown = require - set(ARTIFACTS)
    if unknown:
        raise ValueError(f"unknown artifacts: {sorted(unknown)}")
    # config sections before artifacts: a typo must not wait for a corpus parse
    provider = build_provider(config.provider)
    recognizer_config = _construct("recognizer", RecognizerConfig,
                                   config.recognizer)
    templates = dict(DEFAULT_TEMPLATES)
    for name, spec in _section("templates", config.templates).items():
        base = asdict(templates[name]) if name in templates else {}
        templates[name] = _construct(f"templates.{name}", PromptTemplate, {
            **base, **_section(f"templates.{name}", spec), "name": name})
    llm_spec = _section("llm", config.llm)
    max_workers = llm_spec.pop("concurrency", PipelineContext.max_workers)
    llm = build_llm_client(llm_spec) if "llm" in require else None

    def _read(name: str, path: str | None, load):
        if name not in require:
            return None
        if path is None:
            raise ValueError(f"config is missing {name}_path")
        if not Path(path).exists():
            raise FileNotFoundError(f"{name} file not found: {path}")
        return load(path)

    index = _read("index", config.index_path, VectorIndex.load)
    retriever = None
    if index is None:
        _read("corpus", config.corpus_path, load_corpus)
    else:
        check_provider("index", index.provider_fingerprint, index.dim,
                       provider, INDEX_FIELDS)
        # checked against the index's digest and offsets; a document is
        # parsed the first time a question reads it
        docs = _read("corpus", config.corpus_path, lambda path: CorpusRows(
            path, config.index_path, index.corpus_sha256, index.doc_ids,
            index.line_offsets))
        if docs is not None:
            retriever = Retriever(docs, index, provider)
    scorer = _read("scorer", config.scorer_path, ScorerModel.load)
    if scorer is not None:
        check_provider("scorer", scorer.provider_fingerprint,
                       scorer.head.n_inputs // 2, provider)
        scorer.provider = provider
    detector = _read("detector", config.detector_path, DetectorModel.load)
    nn_reference = _read("nn_ref", config.nn_ref_path, NnReferenceSet.load)
    if nn_reference is not None:
        check_provider("NN reference", nn_reference.provider_fingerprint,
                       nn_reference.dim, provider)
    return PipelineContext(
        retriever=retriever, scorer=scorer,
        recognizer_config=recognizer_config,
        llm=llm, detector=detector, nn_reference=nn_reference,
        templates=templates,
        top_retrieve=config.top_retrieve, top_rerank=config.top_rerank,
        template_name=config.template, seed=config.seed,
        max_workers=max_workers)


@dataclass
class AnswerTrace:
    question_id: str
    question: str
    verdict: RecognizerVerdict
    combination: SubDocCombination | None
    prompt_tokens: int
    response_text: str
    correct: bool | None
    timings: dict[str, float]

    def to_dict(self) -> dict:
        return {
            "question_id": self.question_id,
            "question": self.question,
            "verdict": {
                "s_ltod": self.verdict.s_ltod,
                "s_nn": self.verdict.s_nn,
                "decision": self.verdict.decision.value,
            },
            "combination": None if self.combination is None else {
                "member_subdoc_ids": list(self.combination.member_ids()),
                "token_count": self.combination.token_count,
            },
            "prompt_tokens": self.prompt_tokens,
            "response_text": self.response_text,
            "correct": self.correct,
            "timings": self.timings,
        }


def _answer_with_details(qa: QARecord | str, ctx: PipelineContext,
                         ablations: frozenset[str] = frozenset()):
    if isinstance(qa, str):
        record: QARecord | None = None
        question = qa
        question_id = f"adhoc-{stable_hash(qa) % 10 ** 8}"
    else:
        record = qa
        question = qa.question
        question_id = qa.question_id
    template = ctx.templates[ctx.template_name]
    timings: dict[str, float] = {}

    def _timed(stage: str, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except PipelineStageError:
            raise
        except Exception as exc:
            raise PipelineStageError(stage, exc) from exc
        timings[stage] = time.perf_counter() - start
        return result

    # embedded once; retrieve, score, recognize and reduce share the vector
    # (PipelineContext checks that the scorer embeds like the retriever)
    question_vec = _timed("embed", ctx.retriever.provider.embed, question)
    retrieved = _timed("retrieve", ctx.retriever.retrieve, question,
                       ctx.top_retrieve, question_vec)
    scored = _timed("score", score_candidates, ctx.scorer, question,
                    retrieved, question_vec)

    def _recognize() -> RecognizerVerdict:
        if "no_recognizer" in ablations:
            return RecognizerVerdict(s_ltod=0.0, s_nn=0.0,
                                     decision=Decision.RETRIEVE)
        cfg = ctx.recognizer_config
        ltod = long_tail_score(scored, cfg.delta_ltod)
        if ctx.nn_reference is None:
            raise ValueError("recognizer requires a nearest-neighbor reference "
                             "set (or the no_recognizer ablation)")
        nn = neighbor_score(question_vec, ctx.nn_reference, cfg.k_neighbors)
        return decide(ltod, nn, cfg)

    verdict = _timed("recognize", _recognize)

    combination: SubDocCombination | None = None
    if verdict.decision is Decision.NO_RETRIEVE:
        request = _timed("prompt", build_noretrieve_prompt, question,
                         ctx.templates["no_retrieve"])
    else:
        if "no_reducer" in ablations:
            combination = _timed("reduce", lambda: make_combination([
                ScoredSubDoc(whole_document_subdoc(d.doc), d.score, d.position)
                for d in rerank_topk(scored, ctx.top_rerank)]))
        else:
            if ctx.detector is None:
                raise ValueError("reducer requires a detector model "
                                 "(or the no_reducer ablation)")
            combination = _timed("reduce", reduce, question, scored,
                                 ctx.scorer, ctx.detector, ctx.top_rerank,
                                 question_embedding=question_vec)
        request = _timed("prompt", build_retrieve_prompt, question,
                         combination.passage_texts(), template,
                         combination.token_count)

    response = _timed("llm", ctx.llm.complete, request)
    correct = None
    if record is not None:
        correct = is_correct(response.text, record.gold_answers)
    trace = AnswerTrace(question_id=question_id, question=question,
                        verdict=verdict, combination=combination,
                        prompt_tokens=request.token_count,
                        response_text=response.text, correct=correct,
                        timings=timings)
    return trace, scored


def answer_question(qa: QARecord | str, ctx: PipelineContext,
                    ablations: Iterable[str] = ()) -> AnswerTrace:
    trace, _ = _answer_with_details(qa, ctx, frozenset(ablations))
    return trace


def ordered_rows(scored: ScoredCandidates, ordering: str) -> np.ndarray:
    """The rows of ``scored`` in one of ``SCORE_ORDERINGS``: rank order, or
    one score descending with ties in rank order (a stable sort)."""
    if ordering == "similarity":
        return np.arange(len(scored))
    columns = {"has_answer_only": scored.probs[:, 0],
               "llm_prefer_only": scored.probs[:, 1],
               "bilabel_sum": scored.combined}
    if ordering not in columns:
        raise ValueError(f"unknown ordering {ordering!r}")
    return np.argsort(-columns[ordering], kind="stable")


def _answer_positions(scored: ScoredCandidates,
                      gold_answers: Iterable[str]) -> list[float]:
    """Per ordering of ``SCORE_ORDERINGS``, the position of its first
    candidate that contains a gold answer (inf when none does): recall@k is
    1 when it is below k. The gold answers are normalized once, and each
    candidate's text is matched at most once (``contains_target``)."""
    targets = answer_targets(gold_answers)
    contains = functools.cache(lambda row: contains_target(
        scored.candidates.docs[row].text, targets))
    return [next((position for position, row in enumerate(
                  ordered_rows(scored, ordering).tolist()) if contains(row)),
                 math.inf)
            for ordering in SCORE_ORDERINGS]


@dataclass
class EvalReport:
    accuracy: float
    mean_prompt_tokens: float
    recall: dict[str, dict[str, float]]
    retrieval_skip_rate: float
    n_questions: int
    n_excluded: int
    excluded_question_ids: list[str]
    ablations: list[str]
    template: str
    seed: int
    per_question: list[dict]
    sub_reports: dict[str, "EvalReport"] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Every field, nested reports included; ``sub_reports`` only when
        there are any."""
        return asdict(self, dict_factory=lambda items: {
            name: value for name, value in items
            if name != "sub_reports" or value})

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def evaluate(qa_set: Sequence[QARecord], ctx: PipelineContext,
             ablations: Iterable[str] = (),
             ablation_suites: Mapping[str, Iterable[str]] | None = None
             ) -> EvalReport:
    """Run the pipeline over a QA set and aggregate metrics.

    Transport-level failures (LLM or embedding endpoint) exclude the question
    from the denominators and are listed in the report; any other failure
    aborts, since it indicates a broken artifact rather than a flaky network.
    Results are aggregated in input order regardless of worker count, so
    concurrent runs produce reports identical to serial ones.
    """
    if not qa_set:
        raise ValueError("qa_set must be non-empty")
    ablations = frozenset(ablations)
    unknown = {a for a in ablations
               if a not in KNOWN_ABLATIONS and not a.startswith("template=")}
    if unknown:
        raise ValueError(f"unknown ablations: {sorted(unknown)}")
    templates = sorted(a for a in ablations if a.startswith("template="))
    if len(templates) > 1:
        raise ValueError(f"more than one template flag: {templates}")
    # a template flag runs on a copy, so sub-reports keep ctx's template
    run_ctx = ctx
    if templates:
        run_ctx = replace(ctx, template_name=templates[0].split("=", 1)[1])

    def _one(qa: QARecord):
        try:
            return _answer_with_details(qa, run_ctx, ablations)
        except PipelineStageError as exc:
            if isinstance(exc.cause, (LlmTransportError, EmbeddingProviderError)):
                logger.warning("excluding %s: %s", qa.question_id, exc)
                return exc
            raise

    if ctx.max_workers > 1:
        with ThreadPoolExecutor(max_workers=ctx.max_workers) as pool:
            outcomes = list(pool.map(_one, qa_set))
    else:
        outcomes = [_one(qa) for qa in qa_set]

    traces: list[AnswerTrace] = []
    scored_lists: list[ScoredCandidates] = []
    answered_qa: list[QARecord] = []
    excluded: list[str] = []
    for qa, outcome in zip(qa_set, outcomes):
        if isinstance(outcome, PipelineStageError):
            excluded.append(qa.question_id)
            continue
        trace, scored = outcome
        traces.append(trace)
        scored_lists.append(scored)
        answered_qa.append(qa)

    if not traces:
        raise RuntimeError("every question failed at transport level")

    positions = [_answer_positions(scored, qa.gold_answers)
                 for scored, qa in zip(scored_lists, answered_qa)]
    recall = {ordering: {str(k): sum(p[i] < k for p in positions)
                         / len(positions) for k in RECALL_KS}
              for i, ordering in enumerate(SCORE_ORDERINGS)}

    n_answered = len(traces)
    accuracy = sum(1 for t in traces if t.correct) / n_answered
    mean_tokens = sum(t.prompt_tokens for t in traces) / n_answered
    skip_rate = sum(1 for t in traces
                    if t.verdict.decision is Decision.NO_RETRIEVE) / n_answered
    per_question = [
        {
            "question_id": t.question_id,
            "correct": bool(t.correct),
            "prompt_tokens": t.prompt_tokens,
            "decision": t.verdict.decision.value,
            "combination_size": None if t.combination is None
            else len(t.combination),
        }
        for t in traces
    ]
    report = EvalReport(
        accuracy=accuracy, mean_prompt_tokens=mean_tokens, recall=recall,
        retrieval_skip_rate=skip_rate, n_questions=len(qa_set),
        n_excluded=len(excluded), excluded_question_ids=excluded,
        ablations=sorted(ablations),
        template=run_ctx.template_name, seed=ctx.seed,
        per_question=per_question)

    for name, flags in (ablation_suites or {}).items():
        report.sub_reports[name] = evaluate(qa_set, ctx, flags)
    return report
