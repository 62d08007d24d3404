"""Offline stage of the benchmark: write the generated inputs, then build and
save every artifact through the library's public API, timing each step.

The saved files and the config that points at them are exactly what
``leanrag eval`` reads through ``load_pipeline``.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

import numpy as np

from leanrag.corpus import (QARecord, generate_subdocuments, load_corpus,
                            make_document)
from leanrag.llm import (DEFAULT_TEMPLATES, ScriptedLlmClient,
                         build_retrieve_prompt, is_correct)
from leanrag.pipeline import PipelineConfig, build_provider
from leanrag.recognizer import build_nn_reference
from leanrag.reducer import (DetectorExample, DetectorTrainConfig,
                             build_detector_dataset, combination_features,
                             prerank, representative_subdocs, rerank_topk,
                             train_detector)
from leanrag.retrieval import Retriever, build_index
from leanrag.scorer import (LabeledPair, TrainConfig, annotate_training_pair,
                            build_training_set, pair_features, train_scorer)

from workloads import PROVIDER, RECOGNIZER, SCORER_HIDDEN, Inputs, Workload


def records(rows) -> list[QARecord]:
    """QARecords with the generator's fixed ids (never ad-hoc string ids,
    whose hash differs between processes)."""
    return [QARecord(qid, question, frozenset(answers))
            for qid, question, answers in rows]


def write_inputs(inputs: Inputs, spec: Workload, seed: int,
                 directory: Path) -> PipelineConfig:
    """Write corpus and LLM script; return the config naming all files."""
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / "corpus.jsonl", "w", encoding="utf-8") as handle:
        for doc_id, title, text in inputs.docs:
            handle.write(json.dumps({"id": doc_id, "title": title,
                                     "text": text}) + "\n")
    with open(directory / "script.jsonl", "w", encoding="utf-8") as handle:
        for entry in inputs.script:
            handle.write(json.dumps(entry) + "\n")
    return PipelineConfig(
        seed=seed,
        corpus_path=str(directory / "corpus.jsonl"),
        index_path=str(directory / "index.json"),
        scorer_path=str(directory / "scorer.json"),
        detector_path=str(directory / "detector.json"),
        nn_ref_path=str(directory / "nnref.jsonl"),
        top_retrieve=spec.top_retrieve, top_rerank=spec.top_rerank,
        provider=dict(PROVIDER), recognizer=dict(RECOGNIZER),
        llm={"kind": "mock", "script_path": str(directory / "script.jsonl")})


def artifact_digest(config: PipelineConfig) -> str:
    """sha256 over the saved artifacts, to check that set-up is
    deterministic."""
    digest = hashlib.sha256()
    for path in (config.index_path, config.scorer_path, config.nn_ref_path,
                 config.detector_path):
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def _window_pairs(questions, retriever, llm, k: int) -> list[LabeledPair]:
    """Window-granularity annotation: one pair per sliding window of each
    question's top-k documents, labeled with the library's annotator."""
    provider = retriever.provider
    pairs = []
    for qa in questions:
        for result in retriever.retrieve(qa.question, k):
            for sub in generate_subdocuments(result.doc):
                window = make_document(sub.subdoc_id, "", sub.text)
                label = annotate_training_pair(qa, window, llm)
                pairs.append(LabeledPair(
                    question_id=qa.question_id, doc_id=sub.subdoc_id,
                    features=pair_features(provider, qa.question, sub.text),
                    label=label, matched=label.matched))
    return pairs


def prefix_examples(questions, retriever, scorer, llm,
                    max_docs: int) -> list[DetectorExample]:
    """Every prefix of each question's preranked representatives (the
    greedy filter's own feature stream) and every representative on its
    own, labeled by the LLM. These supply the negative examples that the
    sampled skyline data lacks on planted corpora."""
    examples = []
    for qa in questions:
        scored = [(r, scorer.score(qa.question, r.doc.text))
                  for r in retriever.retrieve(qa.question, max_docs)]
        reps = prerank(representative_subdocs(
            rerank_topk(scored, max_docs), scorer, qa.question))
        combinations = [reps[:size] for size in range(1, len(reps) + 1)]
        combinations += [[rep] for rep in reps[1:]]
        for members in combinations:
            response = llm.complete(build_retrieve_prompt(
                qa.question, [m.subdoc.text for m in members]))
            examples.append(DetectorExample(
                qa.question_id, tuple(m.subdoc.subdoc_id for m in members),
                combination_features(members, max_docs),
                int(is_correct(response.text, qa.gold_answers)),
                float(np.mean([m.score.p_ans for m in members])),
                float(np.mean([m.score.p_pref for m in members]))))
    return examples


def build_artifacts(inputs: Inputs, spec: Workload, config: PipelineConfig,
                    wrap_llm=None) -> dict[str, float]:
    """Set-up: index, annotation, scorer, NN reference, detector data and
    detector, each saved where ``config`` points. Returns step times in
    seconds plus the detector example count. ``wrap_llm`` lets the traced
    run count the LLM calls set-up makes."""
    provider = build_provider(config.provider)
    llm = ScriptedLlmClient.from_script_file(config.llm["script_path"])
    if wrap_llm:
        llm = wrap_llm(llm)
    steps: dict[str, float] = {}
    clock = time.perf_counter
    started = clock()

    corpus = load_corpus(config.corpus_path)
    t = clock()
    index = build_index(corpus, provider)
    steps["index_build_s"] = clock() - t
    t = clock()
    index.save(config.index_path)
    steps["index_save_s"] = clock() - t
    retriever = Retriever(corpus, index, provider)

    train = records(inputs.train)
    t = clock()
    pairs = build_training_set(train, retriever, llm,
                               per_question_k=spec.per_question_k).pairs
    if spec.sentences:
        # the reducer scores windows, so long documents also train on them
        pairs += _window_pairs(train, retriever, llm, spec.per_question_k)
    steps["annotate_s"] = clock() - t
    t = clock()
    scorer = train_scorer(pairs, TrainConfig(
        learning_rate=0.2, hyper_step_size=0.5, epochs=spec.scorer_epochs,
        batch_size=16, seed=config.seed), hidden_sizes=SCORER_HIDDEN,
        provider=provider).model
    scorer.save(config.scorer_path)
    steps["train_s"] = clock() - t
    steps["epoch_s"] = steps["train_s"] / spec.scorer_epochs

    t = clock()
    reference = build_nn_reference(records(inputs.nnref), llm, provider,
                                   DEFAULT_TEMPLATES["no_retrieve"])
    reference.save(config.nn_ref_path)
    steps["nnref_build_s"] = clock() - t

    t = clock()
    examples = build_detector_dataset(
        train, retriever, scorer, llm, max_docs=spec.top_rerank,
        top_retrieve=spec.top_retrieve,
        samples_per_question=spec.detector_samples, seed=config.seed)
    examples += prefix_examples(train, retriever, scorer, llm,
                                spec.top_rerank)
    steps["detector_data_s"] = clock() - t
    steps["detector_examples"] = float(len(examples))
    t = clock()
    detector = train_detector(examples, DetectorTrainConfig(
        learning_rate=0.25, epochs=spec.detector_epochs, seed=config.seed),
        max_docs=spec.top_rerank)
    detector.save(config.detector_path)
    steps["detector_train_s"] = clock() - t
    steps["setup_s"] = clock() - started
    return steps

