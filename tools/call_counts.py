"""Count the Python and C calls a load and a question make, by artifact
and by pipeline stage.

    python3 tools/call_counts.py --workload short-500 [--seed 1] [--smoke]

Builds the workload's artifacts with the benchmark's own set-up
(``benchmarks/artifacts.py``) in a temporary directory and loads them with
``load_pipeline`` under ``sys.setprofile``. The ``load`` table gives that
one load's calls by the artifact whose ``_read`` they run in (index,
corpus, scorer, detector, nn_ref; ``other`` is the rest: the config
sections, the provider and the provider checks). It then answers the
timed questions twice, one at a time, under ``sys.setprofile``: first
cold, right after the load, then warm. For each pass it prints the calls
per question in each stage of ``answer_question`` (the stages it times:
embed, retrieve, score, recognize, reduce, prompt, llm; ``other`` is the
rest of the question) as Python function calls and C function calls, and
their totals.

It then loads the artifacts again and profiles one ``evaluate()`` over the
same questions, cold, and a second one, warm, as the benchmark's
``eval_qps`` times it (serially: LLM concurrency 1). Their tables add the
row ``evaluate``: the calls ``evaluate()`` makes outside
``answer_question``, that is the recall positions of every ordering and
the aggregation into the report.

A count is exact, and the same in every process for one workload and seed
(the garbage collector is off while counting), so two checkouts compare by
their counts where their wall times are noise. A C call's cost varies, so a
count does not replace timed pairs (``tools/bench_pairs.py``).
"""

from __future__ import annotations

import os

# as benchmarks/run.py: one BLAS thread
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import sys
import tempfile
import types
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

STAGES = ("embed", "retrieve", "score", "recognize", "reduce", "prompt",
          "llm", "other")
# the artifacts load_pipeline reads, by the name its _read helper gets
ARTIFACTS = ("index", "corpus", "scorer", "detector", "nn_ref", "other")


def stage_code(function, name: str = "_timed") -> types.CodeType:
    """The code of the helper ``name`` that ``function`` defines: each call
    of ``_answer_with_details``'s ``_timed`` runs one stage, each call of
    ``load_pipeline``'s ``_read`` reads one artifact."""
    return next(const for const in function.__code__.co_consts
                if isinstance(const, types.CodeType)
                and const.co_name == name)


def count_calls(run, items, answer_code, timed_code, outside: str = "other",
                label: str = "stage") -> dict[str, list[int]]:
    """stage -> [Python calls, C calls] over ``run(item)`` for each of
    ``items``. A call inside a frame of ``answer_code`` (one question)
    counts to the stage the ``timed_code`` frame it runs in names by its
    argument ``label``, or to ``other``; a call outside every question
    counts to ``outside``."""
    counts: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    stages = [outside]

    def profile(frame, event, arg):
        if event == "call":
            if frame.f_code is timed_code:
                stages.append(frame.f_locals[label])
            elif frame.f_code is answer_code:
                stages.append("other")
            counts[stages[-1]][0] += 1
        elif event == "c_call":
            counts[stages[-1]][1] += 1
        elif event == "return" and (frame.f_code is timed_code
                                    or frame.f_code is answer_code):
            stages.pop()

    gc.collect()
    gc.disable()
    try:
        for item in items:
            sys.setprofile(profile)
            try:
                run(item)
            finally:
                sys.setprofile(None)
    finally:
        gc.enable()
    return counts


def report(name: str, counts: dict[str, list[int]], n: int,
           stages=STAGES, unit: str = "question") -> None:
    print(f"{name} ({n} {unit}{'s' * (n != 1)}): calls per {unit}")
    print(f"  {'stage':<10} {'python':>9} {'c':>9}")
    for stage in stages:
        python, c = counts.get(stage, (0, 0))
        print(f"  {stage:<10} {python / n:>9.1f} {c / n:>9.1f}")
    python = sum(pair[0] for pair in counts.values())
    c = sum(pair[1] for pair in counts.values())
    print(f"  {'total':<10} {python / n:>9.1f} {c / n:>9.1f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="short-500")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--smoke", action="store_true",
                        help="the benchmark's seconds-long version of the "
                             "workload")
    args = parser.parse_args(argv)

    import leanrag.pipeline as pipeline
    from artifacts import build_artifacts, records, write_inputs
    from workloads import SMOKE, WORKLOADS, make_inputs

    specs = SMOKE if args.smoke else WORKLOADS
    if args.workload not in specs:
        parser.error(f"unknown workload {args.workload!r}; known: "
                     f"{sorted(specs)}")
    spec = specs[args.workload]
    inputs = make_inputs(spec, args.seed)
    timed = records(inputs.timed)
    answer_code = pipeline._answer_with_details.__code__
    timed_code = stage_code(pipeline._answer_with_details)
    with tempfile.TemporaryDirectory() as work:
        config = write_inputs(inputs, spec, args.seed, Path(work))
        build_artifacts(inputs, spec, config)
        loaded = []
        load_counts = count_calls(
            lambda config: loaded.append(pipeline.load_pipeline(config)),
            [config], pipeline.load_pipeline.__code__,
            stage_code(pipeline.load_pipeline, "_read"), label="name")
        ctx = loaded[0]

        def answer(qa):
            pipeline.answer_question(qa, ctx)

        def evaluate(qa_set):
            pipeline.evaluate(qa_set, ctx)

        print(f"{spec.name}{' (smoke)' if args.smoke else ''}, seed "
              f"{args.seed}")
        report("load", load_counts, 1, ARTIFACTS, "load_pipeline")
        for name in ("cold", "warm"):
            report(name, count_calls(answer, timed, answer_code, timed_code),
                   len(timed))
        ctx = pipeline.load_pipeline(config)
        for name in ("evaluate cold", "evaluate warm"):
            counts = count_calls(evaluate, [timed], answer_code, timed_code,
                                 "evaluate")
            report(name, counts, len(timed), STAGES + ("evaluate",))
    return 0


if __name__ == "__main__":
    sys.exit(main())
