"""Command-line interface.

Subcommands mirror the artifact lifecycle: build the vector index, annotate
scorer training pairs, train the scorer, build the nearest-neighbor reference
set, build detector training data, train the detector, answer one question,
and evaluate a QA set. Exit codes: 0 success, 1 runtime failure (with the
failing stage named), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .corpus import load_corpus, load_qa
from .pipeline import (EvalReport, PipelineConfig, answer_question,
                       build_provider, evaluate, load_pipeline)
from .recognizer import build_nn_reference
from .reducer import (DetectorTrainConfig, build_detector_dataset,
                      load_detector_dataset, save_detector_dataset,
                      train_detector)
from .retrieval import build_index
from .scorer import TrainConfig, TrainingSet, build_training_set, train_scorer

logger = logging.getLogger(__name__)

USAGE_ERROR = 2
RUNTIME_ERROR = 1


def _add_common(parser: argparse.ArgumentParser, *overrides: str) -> None:
    """``--config``, plus ``--seed``/``--template`` where the command reads
    that config field."""
    parser.add_argument("--config", required=True, help="pipeline config JSON")
    if "seed" in overrides:
        parser.add_argument("--seed", type=int,
                            help="override the config seed")
    if "template" in overrides:
        parser.add_argument("--template",
                            help="override the prompt template name")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leanrag",
        description="Token-frugal black-box retrieval-augmented generation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("index", help="build and save the vector index")
    _add_common(p)
    p.add_argument("--out", required=True)

    p = sub.add_parser("annotate", help="build the scorer training set")
    _add_common(p, "template")
    p.add_argument("--qa", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--per-question-k", type=int, default=50)

    p = sub.add_parser("train-scorer", help="train the two-head scorer")
    _add_common(p, "seed")
    p.add_argument("--pairs", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--learning-rate", type=float,
                   default=TrainConfig.learning_rate)
    p.add_argument("--hyper-step-size", type=float,
                   default=TrainConfig.hyper_step_size)
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)

    p = sub.add_parser("build-nn-ref",
                       help="label questions by no-retrieval correctness")
    _add_common(p)
    p.add_argument("--qa", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("build-detector-data",
                       help="sample and label sub-document combinations")
    _add_common(p, "seed", "template")
    p.add_argument("--qa", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--samples", type=int, default=200)

    p = sub.add_parser("train-detector", help="train the combination detector")
    _add_common(p, "seed")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--learning-rate", type=float,
                   default=DetectorTrainConfig.learning_rate)
    p.add_argument("--epochs", type=int, default=DetectorTrainConfig.epochs)

    p = sub.add_parser("query", help="answer one question, print the trace")
    _add_common(p, "template")
    p.add_argument("question")

    p = sub.add_parser("eval", help="evaluate a QA set")
    _add_common(p, "seed", "template")
    p.add_argument("--qa", required=True)
    p.add_argument("--ablation", action="append", default=[],
                   help="e.g. no_reducer, no_recognizer, template=simple")
    p.add_argument("--compare-ablations", default=None,
                   help="comma-separated flags, each evaluated as a sub-report")
    p.add_argument("--out", default=None, help="write the report here "
                   "instead of stdout")
    return parser


def _load_config(args) -> PipelineConfig:
    config = PipelineConfig.from_file(args.config)
    for key in ("seed", "template"):
        if getattr(args, key, None) is not None:
            setattr(config, key, getattr(args, key))
    return config


def _cmd_index(args) -> int:
    config = _load_config(args)
    corpus = load_corpus(config.corpus_path)
    index = build_index(corpus, build_provider(config.provider))
    index.save(args.out)
    print(f"indexed {len(index)} documents -> {args.out}")
    return 0


def _cmd_annotate(args) -> int:
    config = _load_config(args)
    ctx = load_pipeline(config, require=("corpus", "index", "llm"))
    qa = load_qa(args.qa)
    training_set = build_training_set(qa, ctx.retriever, ctx.llm,
                                      per_question_k=args.per_question_k,
                                      template=ctx.templates[config.template])
    training_set.save(args.out)
    print(f"annotated {len(training_set.pairs)} pairs "
          f"(imbalance ratio {training_set.imbalance_ratio:.2f}, "
          f"{training_set.annotation_failures} failures) -> {args.out}")
    return 0


def _cmd_train_scorer(args) -> int:
    config = _load_config(args)
    training_set = TrainingSet.load(args.pairs)
    result = train_scorer(training_set, TrainConfig(
        learning_rate=args.learning_rate, hyper_step_size=args.hyper_step_size,
        epochs=args.epochs, batch_size=args.batch_size, seed=config.seed),
        provider=build_provider(config.provider))
    result.model.save(args.out)
    final = result.history[-1]
    print(f"trained scorer: weight={result.balance_weight:.4f} "
          f"val(mat)={final.val_matched_loss:.4f} "
          f"val(mis)={final.val_mismatched_loss:.4f} -> {args.out}")
    return 0


def _cmd_build_nn_ref(args) -> int:
    config = _load_config(args)
    ctx = load_pipeline(config, require=("llm",))
    qa = load_qa(args.qa)
    reference = build_nn_reference(qa, ctx.llm, build_provider(config.provider),
                                   template=ctx.templates["no_retrieve"])
    reference.save(args.out)
    positives = int(reference.correct.sum())
    print(f"labeled {len(reference)} questions "
          f"({positives} correct without retrieval) -> {args.out}")
    return 0


def _cmd_build_detector_data(args) -> int:
    config = _load_config(args)
    ctx = load_pipeline(config, require=("corpus", "index", "scorer", "llm"))
    qa = load_qa(args.qa)
    examples = build_detector_dataset(
        qa, ctx.retriever, ctx.scorer, ctx.llm, max_docs=config.top_rerank,
        top_retrieve=config.top_retrieve, samples_per_question=args.samples,
        seed=config.seed, template=ctx.templates[config.template],
        no_retrieve_template=ctx.templates["no_retrieve"])
    save_detector_dataset(examples, args.out)
    positives = sum(1 for e in examples if e.label == 1)
    print(f"built {len(examples)} combinations ({positives} positive) "
          f"-> {args.out}")
    return 0


def _cmd_train_detector(args) -> int:
    config = _load_config(args)
    dataset = load_detector_dataset(args.data)
    model = train_detector(dataset, DetectorTrainConfig(
        learning_rate=args.learning_rate, epochs=args.epochs,
        seed=config.seed))
    model.save(args.out)
    print(f"trained detector: held-out accuracy "
          f"{model.holdout_accuracy:.3f} -> {args.out}")
    return 0


def _cmd_query(args) -> int:
    config = _load_config(args)
    ctx = load_pipeline(config)
    trace = answer_question(args.question, ctx)
    print(json.dumps(trace.to_dict(), sort_keys=True, indent=2))
    return 0


def _cmd_eval(args) -> int:
    config = _load_config(args)
    ctx = load_pipeline(config)
    qa = load_qa(args.qa)
    if not qa:
        print("error: QA file is empty", file=sys.stderr)
        return USAGE_ERROR
    suites = None
    if args.compare_ablations:
        suites = {flag: (flag,) for flag in args.compare_ablations.split(",")}
    report = evaluate(qa, ctx, ablations=args.ablation, ablation_suites=suites)
    rendered = report.to_json()
    if args.out:
        Path(args.out).write_text(rendered + "\n", encoding="utf-8")
        print(f"report -> {args.out}")
    else:
        print(rendered)
    _print_summary(report)
    return 0


def _print_summary(report: EvalReport) -> None:
    print(f"accuracy: {report.accuracy:.3f}  "
          f"mean prompt tokens: {report.mean_prompt_tokens:.1f}  "
          f"skip rate: {report.retrieval_skip_rate:.3f}  "
          f"excluded: {report.n_excluded}", file=sys.stderr)


_COMMANDS = {
    "index": _cmd_index,
    "annotate": _cmd_annotate,
    "train-scorer": _cmd_train_scorer,
    "build-nn-ref": _cmd_build_nn_ref,
    "build-detector-data": _cmd_build_detector_data,
    "train-detector": _cmd_train_detector,
    "query": _cmd_query,
    "eval": _cmd_eval,
}


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except Exception as exc:  # runtime failures map to exit 1, with cause
        stage = getattr(exc, "stage", args.command)
        print(f"error in {stage}: {exc}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
