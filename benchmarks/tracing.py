"""Spans recorded from outside the library.

The traced pass replaces, on one loaded context, the methods of the objects
the pipeline calls into (provider, retriever, index, scorer, scorer head,
detector, detector net, LLM client) and the module-level functions
``leanrag.pipeline`` and ``leanrag.reducer`` look up at call time, with
wrappers that record a span: name, start, end, parent span and question id.
Nothing under ``src/`` changes. ``restore`` undoes every replacement.

A span's self time is its duration minus the durations of its direct
children; calls run one at a time, so children never overlap.
"""

from __future__ import annotations

import time
from collections import defaultdict

import leanrag.pipeline as pipeline_module
import leanrag.reducer as reducer_module
from leanrag.corpus import whole_document_subdoc
from leanrag.recognizer import Decision, NnReferenceSet
from leanrag.reducer import DetectorModel, rerank_topk
from leanrag.retrieval import VectorIndex
from leanrag.scorer import ScorerModel

QUESTION = "question"
EMBED = "retrieval.embed"
# the layer a span's embedding calls are attributed to; calls made directly
# by answer_question, outside every wrapped layer, are today only the
# recognizer's question embedding
EMBED_STAGES = {"retrieval.retrieve": "retrieve", "scorer.score": "score",
                "reducer.reduce": "reduce", None: "recognize"}


class Span:
    __slots__ = ("name", "parent", "qid", "start", "end", "count")

    def __init__(self, name, parent, qid, count):
        self.name = name
        self.parent = parent
        self.qid = qid
        self.count = count
        self.start = self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Patcher:
    """Replaces attributes of objects, classes and modules, and puts the
    originals back on ``restore``."""

    def __init__(self):
        self._undo: list = []

    def replace(self, owner, attr: str, wrap) -> None:
        """Set ``owner.attr`` to ``wrap(original)``."""
        had_own = attr in vars(owner)
        original = getattr(owner, attr)
        self._undo.append((owner, attr, had_own, vars(owner).get(attr)))
        setattr(owner, attr, wrap(original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, had_own, value = self._undo.pop()
            if had_own:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)


class Tracer(Patcher):
    def __init__(self):
        super().__init__()
        self.spans: list[Span] = []
        self.answers: dict[str, tuple] = {}  # qid -> (trace, scored)
        self._open: list[int] = []
        self._qid: str | None = None

    def _innermost(self) -> str | None:
        return self.spans[self._open[-1]].name if self._open else None

    def inside(self, name: str) -> bool:
        return any(self.spans[i].name == name for i in self._open)

    def call(self, name: str, fn, args, kwargs, count: int = 0):
        span = Span(name, self._open[-1] if self._open else -1, self._qid,
                    count)
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def wrap(self, name, fn, count=None):
        """``fn`` recorded as span ``name`` (a string, or a callable giving
        the name at call time). A call nested directly in a span of the same
        name (``embed`` calling ``embed_many``) is not recorded again."""

        def traced(*args, **kwargs):
            label = name() if callable(name) else name
            if self._innermost() == label:
                return fn(*args, **kwargs)
            return self.call(label, fn, args, kwargs,
                             count(*args) if count else 0)

        return traced

    def patch(self, owner, attr: str, name, count=None) -> None:
        self.replace(owner, attr, lambda fn: self.wrap(name, fn, count))

    def instrument_loaders(self) -> None:
        """Wrap the artifact loaders load_pipeline calls."""
        self.patch(pipeline_module, "load_corpus", "corpus.load")
        for owner, name in ((VectorIndex, "retrieval.index_load"),
                            (ScorerModel, "scorer.load"),
                            (NnReferenceSet, "recognizer.nnref_load"),
                            (DetectorModel, "reducer.detector_load")):
            self.patch(owner, "load", name)

    def instrument(self, ctx) -> None:
        """Wrap every layer of a loaded PipelineContext."""
        providers = {id(p): p for p in (ctx.retriever.provider,
                                        ctx.scorer.provider)}
        for provider in providers.values():
            self.patch(provider, "embed", EMBED, lambda text: 1)
            self.patch(provider, "embed_many", EMBED, lambda texts: len(texts))
        self.patch(ctx.retriever, "retrieve", "retrieval.retrieve")
        self.patch(ctx.retriever.index, "search", "retrieval.search")
        self.patch(ctx.scorer, "score", lambda: (
            "reducer.window_score" if self.inside("reducer.reduce")
            else "scorer.score"))
        self.patch(ctx.detector, "predict", "reducer.detector")
        for net in (ctx.scorer.head, ctx.detector.net):
            self.patch(net, "forward_logits", "mlp.forward",
                       lambda inputs, params=None: (
                           inputs.shape[0] if inputs.ndim == 2 else 1))
        self.patch(ctx.llm, "complete", "llm.complete")
        for attr, name in (("reduce", "reducer.reduce"),
                           ("long_tail_score", "recognizer.long_tail"),
                           ("neighbor_score", "recognizer.neighbor"),
                           ("build_retrieve_prompt", "llm.prompt_build"),
                           ("build_noretrieve_prompt", "llm.prompt_build")):
            self.patch(pipeline_module, attr, name)
        self.patch(reducer_module, "generate_subdocuments", "corpus.subdoc")

        # evaluate() calls this private helper once per question; it is the
        # only place a question's span can open from outside
        self.replace(pipeline_module, "_answer_with_details",
                     self._question_span)

    def _question_span(self, answer):
        def per_question(qa, *args, **kwargs):
            self._qid = qa.question_id
            try:
                result = self.call(QUESTION, answer, (qa, *args), kwargs)
            finally:
                self._qid = None
            self.answers[qa.question_id] = result
            return result

        return per_question


class CallCounter(Patcher):
    """Counts calls to replaced methods, by key."""

    def __init__(self):
        super().__init__()
        self.counts: dict[str, int] = defaultdict(int)

    def count(self, owner, attr: str, key: str):
        def wrap(original):
            def counted(*args, **kwargs):
                self.counts[key] += 1
                return original(*args, **kwargs)
            return counted

        self.replace(owner, attr, wrap)
        return owner


def _stage_of(spans: list[Span], span: Span) -> str:
    parent = span.parent
    while parent >= 0:
        name = spans[parent].name
        if name in EMBED_STAGES:
            return EMBED_STAGES[name]
        if name.startswith("reducer."):
            return "reduce"
        if name == QUESTION:
            break
        parent = spans[parent].parent
    return EMBED_STAGES[None]


def layer_metrics(tracer: Tracer, top_rerank: int, eval_wall_s: float):
    """Per-question layer numbers of one traced evaluate() pass, and the
    pass's totals: embedding and LLM calls per question and each
    question's traced wall time in ms."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.duration
    calls: dict[str, int] = defaultdict(int)
    wall: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    items: dict[str, int] = defaultdict(int)
    embed_calls = {stage: 0 for stage in ("retrieve", "score", "recognize",
                                          "reduce")}
    for i, span in enumerate(spans):
        calls[span.name] += 1
        wall[span.name] += span.duration
        own[span.name] += span.duration - child_time[i]
        items[span.name] += span.count
        if span.name == EMBED:
            embed_calls[_stage_of(spans, span)] += 1

    n = calls[QUESTION]
    reduced = [(trace, scored) for trace, scored in tracer.answers.values()
               if trace.verdict.decision is Decision.RETRIEVE]
    kept = sum(trace.combination.token_count for trace, _ in reduced)
    topk = sum(whole_document_subdoc(d.doc).token_count
               for _, scored in reduced
               for d in rerank_topk(scored, top_rerank))
    n_reduced = max(len(reduced), 1)

    def ms(total: float) -> float:
        return 1000.0 * total / n

    metrics = {
        "corpus.load_s": wall["corpus.load"],
        "retrieval.index_load_s": wall["retrieval.index_load"],
        "scorer.load_s": wall["scorer.load"],
        "recognizer.nnref_load_s": wall["recognizer.nnref_load"],
        "reducer.detector_load_s": wall["reducer.detector_load"],
        "corpus.subdoc_ms_per_q": ms(wall["corpus.subdoc"]),
        "retrieval.embed_texts_per_q": items[EMBED] / n,
        "retrieval.embed_ms_per_q": ms(wall[EMBED]),
        "retrieval.search_ms_per_q": ms(wall["retrieval.search"]),
        "scorer.score_calls_per_q": calls["scorer.score"] / n,
        "scorer.score_self_ms_per_q": ms(own["scorer.score"]),
        "mlp.forward_calls_per_q": calls["mlp.forward"] / n,
        "mlp.forward_rows_per_q": items["mlp.forward"] / n,
        "mlp.forward_ms_per_q": ms(wall["mlp.forward"]),
        "recognizer.neighbor_ms_per_q": ms(wall["recognizer.neighbor"]),
        "reducer.reduce_self_ms_per_q": ms(sum(
            t for name, t in own.items() if name.startswith("reducer."))),
        "reducer.windows_scored_per_q":
            calls["reducer.window_score"] / n,
        "reducer.detector_calls_per_q": calls["reducer.detector"] / n,
        "reducer.kept_tokens_per_q": kept / n_reduced,
        "reducer.topk_tokens_per_q": topk / n_reduced,
        "reducer.token_keep_ratio": kept / topk if topk else 0.0,
        "llm.prompt_build_ms_per_q": ms(wall["llm.prompt_build"]),
        "llm.complete_ms_per_q": ms(wall["llm.complete"]),
        "pipeline.other_ms_per_q": ms(own[QUESTION]),
        "pipeline.eval_aggregate_ms":
            1000.0 * (eval_wall_s - wall[QUESTION]),
    }
    for stage, count in embed_calls.items():
        metrics[f"retrieval.embed_calls_per_q.{stage}"] = count / n
    totals = {
        "embed_calls_per_q": calls[EMBED] / n,
        "llm_calls_per_q": calls["llm.complete"] / n,
        "question_ms": [1000.0 * s.duration for s in spans
                        if s.name == QUESTION],
    }
    return metrics, totals
