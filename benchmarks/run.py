"""leanrag benchmark: offline set-up, load and closed-loop question answering.

Usage (from the repository root):

    python3 benchmarks/run.py --workload short-500 --seed 1 --seconds 8 \
        --trace 0
    python3 benchmarks/run.py --workload long-mixed --smoke   # seconds-long

One run generates the workload's inputs from ``--seed``, then repeats a
round ``ROUNDS`` times: build every artifact through the public API and save
it (set-up), load it with ``load_pipeline`` as ``leanrag eval`` does, warm
up, time one ``evaluate()`` over the timed questions, and answer questions
one at a time with ``answer_question`` for its share of ``--seconds``. One
caller, one question at a time, LLM concurrency 1. A last, traced pass runs
``evaluate()`` once more with every layer wrapped (see tracing.py).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The line before it
records the machine, the thread settings and the report's sha256.
Workloads, metrics and what each layer metric should move are described in
README.md next to this file.
"""

from __future__ import annotations

import os

# numpy reads these when it loads; OpenBLAS would otherwise start up to 64
# threads, one per core, for every small matrix product
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ROUNDS = 3
MIN_SAMPLES = 200  # leaves at least 10 samples beyond the p95
WARMUP = 5
REQUIRE = ("corpus", "index", "scorer", "detector", "nn_ref", "llm")


class BenchmarkError(RuntimeError):
    """The program's outputs failed a check."""


def environment() -> dict:
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "loadavg": os.getloadavg(),
    }


def _median(values) -> float:
    return float(statistics.median(values))


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q))


def _check_traces(report, answers, checked: set) -> None:
    """Every answer trace agrees with its per_question entry on decision,
    prompt tokens and correctness; correctness itself is re-derived from
    the response text and the gold answers."""
    expected = {row["question_id"]: row for row in report.per_question}
    for qa, trace in answers:
        row = expected.get(trace.question_id)
        if row is None:
            raise BenchmarkError(f"{trace.question_id} missing from report")
        got = (trace.verdict.decision.value, trace.prompt_tokens,
               bool(trace.correct))
        want = (row["decision"], row["prompt_tokens"], row["correct"])
        if got != want:
            raise BenchmarkError(
                f"{trace.question_id}: trace {got} != report {want}")
        if trace.question_id in checked:
            continue
        contains = any(answer.lower() in trace.response_text.lower()
                       for answer in qa.gold_answers)
        if contains != bool(trace.correct):
            raise BenchmarkError(
                f"{trace.question_id}: correct={trace.correct} but the "
                f"response {'contains' if contains else 'lacks'} the answer")
        if (trace.combination is None) != (row["decision"] == "No_Retrieve"):
            raise BenchmarkError(
                f"{trace.question_id}: combination does not match decision")
        checked.add(trace.question_id)


def _check_report(report, n_questions: int) -> None:
    rows = report.per_question
    if report.n_excluded or len(rows) != n_questions:
        raise BenchmarkError(f"{report.n_excluded} questions excluded")
    if abs(report.accuracy - sum(r["correct"] for r in rows) / len(rows)) \
            > 1e-12:
        raise BenchmarkError("accuracy disagrees with per_question")
    if abs(report.mean_prompt_tokens
           - sum(r["prompt_tokens"] for r in rows) / len(rows)) > 1e-9:
        raise BenchmarkError("mean_prompt_tokens disagrees with per_question")
    skipped = sum(r["decision"] == "No_Retrieve" for r in rows) / len(rows)
    if abs(report.retrieval_skip_rate - skipped) > 1e-12:
        raise BenchmarkError("skip rate disagrees with per_question")
    for ordering, by_k in report.recall.items():
        values = [by_k[k] for k in sorted(by_k, key=int)]
        if values != sorted(values):
            raise BenchmarkError(f"recall@K not monotone for {ordering}")


def run(spec, seed: int, seconds: float, trace: bool, work: Path,
        rounds: int = ROUNDS) -> dict:
    from leanrag.mlp import Mlp
    from leanrag.pipeline import answer_question, evaluate, load_pipeline

    from artifacts import (artifact_digest, build_artifacts, records,
                           write_inputs)
    from reference import REFERENCE_MS, SpeedProbe
    from tracing import CallCounter, Tracer, layer_metrics
    from workloads import make_inputs

    clock = time.perf_counter
    inputs = make_inputs(spec, seed)
    config = write_inputs(inputs, spec, seed, work)
    timed = records(inputs.timed)
    n = len(timed)

    samples: dict[str, list] = {}  # step values, and (start, end) spans
    questions: list[tuple[str, float, float]] = []
    digests, reports = set(), set()
    attempted = failed = 0
    checked: set[str] = set()
    position = 0

    def sample(name: str, value) -> None:
        samples.setdefault(name, []).append(value)

    def timed_call(name: str, fn):
        start = clock()
        result = fn()
        sample(name, (start, clock()))
        return result

    def answer_for(duration: float, at_least: int = 0) -> list:
        """Answer questions in order, one at a time, for ``duration``
        seconds (and until ``at_least`` latencies exist)."""
        nonlocal position, attempted, failed
        deadline = clock() + duration
        answers = []
        while clock() < deadline or len(questions) < at_least:
            qa = timed[position % n]
            position += 1
            attempted += 1
            start = clock()
            try:
                answers.append((qa, answer_question(qa, ctx)))
            except Exception as exc:  # counted, reported, never dropped
                failed += 1
                print(f"question {qa.question_id} failed: {exc!r}",
                      file=sys.stderr)
                continue
            questions.append((qa.question_id, start, clock()))
        return answers

    # Each round repeats set-up and load, and splits its share of the
    # query time around one evaluate(), so that every metric samples the
    # whole run; the probe measures the machine's speed throughout.
    probe = SpeedProbe()
    with probe:
        for r in range(rounds):
            counter = CallCounter() if trace else None
            if counter:
                counter.count(Mlp, "weighted_bce", "grad_calls")
            try:
                steps = timed_call("setup", lambda: build_artifacts(
                    inputs, spec, config,
                    wrap_llm=(lambda llm: counter.count(llm, "complete",
                                                        "llm_calls"))
                    if counter else None))
            finally:
                if counter:
                    counter.restore()
            for name, value in steps.items():
                sample(name, value)
            if counter:
                sample("llm.setup_calls", counter.counts["llm_calls"])
                sample("mlp.grad_calls_setup", counter.counts["grad_calls"])
            digests.add(artifact_digest(config))

            for _ in range(spec.load_reps):
                ctx = timed_call("load", lambda: load_pipeline(config,
                                                               REQUIRE))
            for qa in timed[:WARMUP]:
                answer_question(qa, ctx)

            answers = answer_for(seconds / rounds / 2)
            report = timed_call("evaluate", lambda: evaluate(timed, ctx))
            attempted += n
            failed += report.n_excluded
            reports.add(report.to_json())
            answers += answer_for(seconds / rounds / 2,
                                  MIN_SAMPLES if r == rounds - 1 else 0)
            _check_traces(report, answers, checked)
            del ctx, answers
            gc.collect()

    # traced pass on a fresh load, so no wrapper touches the timed context;
    # the probe is off, so spans hold no routine time
    routine_before = probe.measure_ms()
    tracer = Tracer()
    tracer.instrument_loaders()
    try:
        ctx = load_pipeline(config, REQUIRE)
        tracer.instrument(ctx)
        start = clock()
        traced_report = evaluate(timed, ctx)
        eval_wall = clock() - start
    finally:
        tracer.restore()
    traced_routine = (routine_before + probe.measure_ms()) / 2
    attempted += n
    failed += traced_report.n_excluded
    layers, totals = layer_metrics(tracer, spec.top_rerank, eval_wall)

    traced_json = traced_report.to_json()
    if len(reports) != 1 or traced_json not in reports:
        raise BenchmarkError("evaluate() reports differ between passes")
    if len(digests) != 1:
        raise BenchmarkError("set-up is not deterministic")
    _check_report(traced_report, n)
    _check_traces(traced_report, [(qa, tracer.answers[qa.question_id][0])
                                  for qa in timed], set())
    skip = traced_report.retrieval_skip_rate
    if not 0.0 < skip < 1.0:
        raise BenchmarkError(f"skip rate {skip} is not strictly in (0, 1)")

    latencies = []
    by_question: dict[str, list[float]] = {}
    for qid, start, end in questions:
        latencies.append(1000.0 * probe.rescaled(start, end))
        by_question.setdefault(qid, []).append(latencies[-1])
    p50 = _median(latencies)
    if sum(1 for x in latencies if x > _percentile(latencies, 95)) < 10:
        raise BenchmarkError("fewer than 10 samples beyond the p95")
    # each question's own median first, so that the tail is the slow
    # questions rather than the machine's transients
    question_ms = [_median(times) for times in by_question.values()]
    end_to_end = {
        "setup_s": _median(probe.rescaled(*s) for s in samples["setup"]),
        "load_s": _median(probe.rescaled(*s) for s in samples["load"]),
        "query_p50_ms": p50,
        "query_p90_ms": _percentile(question_ms, 90),
        "eval_qps": _median(n / probe.rescaled(*s)
                            for s in samples["evaluate"]),
        "prompt_tokens_mean": traced_report.mean_prompt_tokens,
        "accuracy": traced_report.accuracy,
        "recall_at_10": traced_report.recall["bilabel_sum"]["10"],
        "skip_rate": skip,
        "embed_calls_per_q": totals["embed_calls_per_q"],
        "llm_calls_per_q": totals["llm_calls_per_q"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "success_rate": 1.0 - failed / attempted,
    }
    setup_layers = {
        "retrieval.index_build_s": "index_build_s",
        "retrieval.index_save_s": "index_save_s",
        "scorer.annotate_s": "annotate_s", "scorer.train_s": "train_s",
        "scorer.epoch_s": "epoch_s",
        "recognizer.nnref_build_s": "nnref_build_s",
        "reducer.detector_data_s": "detector_data_s",
        "reducer.detector_examples": "detector_examples",
        "reducer.detector_train_s": "detector_train_s",
    }
    for name, step in setup_layers.items():
        layers[name] = _median(samples[step])
    if trace:
        for name in ("llm.setup_calls", "mlp.grad_calls_setup"):
            layers[name] = _median(samples[name])
    layers["retrieval.index_bytes"] = Path(config.index_path).stat().st_size
    layers["pipeline.raw_query_p50_ms"] = _median(
        1000.0 * (end - start - probe.probe_time(start, end))
        for _, start, end in questions)
    layers["pipeline.query_p95_ms"] = _percentile(latencies, 95)
    layers["pipeline.reference_ms"] = _median(
        1000.0 * (e - s) for s, e in zip(probe.starts, probe.ends))
    layers["pipeline.query_samples"] = len(latencies)
    traced_p50 = _median(totals["question_ms"]) * REFERENCE_MS / traced_routine
    layers["pipeline.trace_overhead_pct"] = 100.0 * (traced_p50 / p50 - 1.0)
    return {
        "end_to_end": end_to_end,
        "per_layer": layers,
        "attempted": attempted,
        "failed": failed,
        "report_sha256": hashlib.sha256(traced_json.encode()).hexdigest(),
        "samples": {"query": len(latencies), "rounds": rounds,
                    "probe_ticks": len(probe.starts),
                    "setup_s": [probe.rescaled(*s) for s in samples["setup"]],
                    "raw_setup_s": samples["setup_s"],
                    "load_s": [probe.rescaled(*s) for s in samples["load"]],
                    "eval_qps": [n / probe.rescaled(*s)
                                 for s in samples["evaluate"]]},
    }


def metric_block(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": units[name]}
            for name in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one second of queries")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "leanrag" / "__init__.py").is_file():
        print(f"leanrag sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import SMOKE, WORKLOADS

    table = SMOKE if args.smoke else WORKLOADS
    if args.workload not in table:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(table)}")
    spec = table[args.workload]
    env = environment()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in
             declared["per_layer" if args.trace else "end_to_end"]}

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        if args.smoke:
            result = run(spec, args.seed, min(args.seconds, 1.0),
                         bool(args.trace), work, rounds=2)
        else:
            result = run(spec, args.seed, args.seconds, bool(args.trace),
                         work)
    except BenchmarkError as exc:
        print(f"output check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()

    values = result["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "env": env, "report_sha256": result["report_sha256"],
                      "samples": result["samples"]}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metric_block(values, units),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
