import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from synthetic import (SHARED_ANSWER, prefix_detector_examples,
                       trained_redundant_setup, write_redundant_fixture)
from test_llm import FakeResponse, FakeSession, NotJsonResponse

import leanrag

from leanrag.corpus import load_corpus, make_document
from leanrag.llm import (HttpLlmClient, LlmTransportError, ScriptedLlmClient,
                         build_noretrieve_prompt)
from leanrag.pipeline import (PipelineConfig, PipelineContext,
                              PipelineStageError, answer_question,
                              build_provider, evaluate, load_pipeline,
                              ordered_docs)
from leanrag.recognizer import Decision, NnReferenceSet, RecognizerConfig
from leanrag.reducer import DetectorModel, DetectorTrainConfig, train_detector
from leanrag.retrieval import (EmbeddingProviderError, IndexIntegrityError,
                               Retriever, VectorIndex, build_index)
from leanrag.scorer import ScorerModel


@pytest.fixture(scope="module")
def setup():
    return trained_redundant_setup()


@pytest.fixture(scope="module")
def detector(setup):
    return train_detector(
        prefix_detector_examples(setup),
        DetectorTrainConfig(learning_rate=0.25, epochs=300, seed=5))


def make_ctx(setup, detector, all_known=False, **overrides):
    corpus, qa, mock, provider, retriever, scorer = setup
    reference = NnReferenceSet(
        [q.question_id for q in qa],
        provider.embed_many([q.question for q in qa]),
        [all_known] * len(qa), provider.fingerprint)
    defaults = dict(
        retriever=retriever, scorer=scorer,
        recognizer_config=RecognizerConfig(s_n=1.0, k_neighbors=2),
        llm=mock, detector=detector, nn_reference=reference,
        top_retrieve=10, top_rerank=10, seed=0)
    defaults.update(overrides)
    return PipelineContext(**defaults)


class TestAnswerQuestion:
    def test_forced_retrieve_has_combination(self, setup, detector):
        ctx = make_ctx(setup, detector)
        trace = answer_question(setup[1][0], ctx)
        assert trace.verdict.decision is Decision.RETRIEVE
        assert trace.combination is not None
        assert len(trace.combination) >= 1
        assert trace.correct is True

    def test_forced_noretrieve_has_no_combination(self, setup, detector):
        ctx = make_ctx(
            setup, detector, all_known=True,
            recognizer_config=RecognizerConfig(delta_ltod=-1e9, s_l=0.0,
                                               s_n=0.0, k_neighbors=2))
        q = setup[1][0]
        trace = answer_question(q, ctx)
        assert trace.verdict.decision is Decision.NO_RETRIEVE
        assert trace.combination is None
        assert trace.prompt_tokens == build_noretrieve_prompt(
            q.question).token_count

    def test_deterministic_traces(self, setup, detector):
        ctx = make_ctx(setup, detector)
        q = setup[1][2]
        first = answer_question(q, ctx)
        second = answer_question(q, ctx)
        assert first.to_dict(include_timings=False) == \
               second.to_dict(include_timings=False)

    def test_raw_string_question(self, setup, detector):
        ctx = make_ctx(setup, detector)
        trace = answer_question("What is the secret attribute of zorblat1x?",
                                ctx)
        assert trace.correct is None
        assert trace.response_text

    def test_stage_attribution_on_failure(self, setup, detector):
        ctx = make_ctx(setup, detector, llm=ScriptedLlmClient())  # strict, empty
        with pytest.raises(PipelineStageError) as excinfo:
            answer_question(setup[1][0], ctx)
        assert excinfo.value.stage == "llm"

    def test_template_changes_prompt_size(self, setup, detector):
        ctx = make_ctx(setup, detector)
        q = setup[1][0]
        comprehensive = answer_question(q, ctx)
        simple = answer_question(q, replace(ctx, template_name="simple"))
        assert simple.prompt_tokens != comprehensive.prompt_tokens


class FailOnce:
    """Delegates to the inner client except for prompts mentioning the
    poisoned question, which always fail at transport level."""

    def __init__(self, inner, poison):
        self.inner = inner
        self.poison = poison

    def complete(self, request):
        if self.poison in request.prompt:
            raise LlmTransportError("boom")
        return self.inner.complete(request)


class FailingEmbed:
    """Delegates to the inner provider, except that embedding the poisoned
    question fails at transport level."""

    def __init__(self, inner, poison):
        self.inner = inner
        self.poison = poison
        self.dim = inner.dim
        self.fingerprint = inner.fingerprint

    def embed(self, text):
        if self.poison in text:
            raise EmbeddingProviderError("embedding endpoint down")
        return self.inner.embed(text)

    def embed_many(self, texts):
        return self.inner.embed_many(texts)


class TestQuestionEmbedding:
    def test_failure_is_attributed_to_embed_stage(self, setup, detector):
        corpus, qa, mock, provider, retriever, scorer = setup
        failing = Retriever(corpus, retriever.index,
                            FailingEmbed(provider, "zorblat2x"))
        ctx = make_ctx(setup, detector, retriever=failing)
        with pytest.raises(PipelineStageError) as excinfo:
            answer_question(qa[1], ctx)
        assert excinfo.value.stage == "embed"
        assert isinstance(excinfo.value.cause, EmbeddingProviderError)

    def test_failure_excludes_only_that_question(self, setup, detector):
        corpus, qa, mock, provider, retriever, scorer = setup
        failing = Retriever(corpus, retriever.index,
                            FailingEmbed(provider, "zorblat2x"))
        report = evaluate(qa, make_ctx(setup, detector, retriever=failing))
        assert report.excluded_question_ids == ["q2"]
        assert report.accuracy == 1.0


class TestAdhocQuestionId:
    SCRIPT = """
from leanrag.corpus import Corpus, make_document
from leanrag.llm import ScriptedLlmClient
from leanrag.mlp import Mlp
from leanrag.pipeline import PipelineContext, answer_question
from leanrag.recognizer import RecognizerConfig
from leanrag.retrieval import HashingEmbedder, Retriever, build_index
from leanrag.scorer import ScorerModel

corpus = Corpus([make_document("d", "", "Some words here.")])
provider = HashingEmbedder(dim=8)
scorer = ScorerModel(head=Mlp([16, 2]), balance_weight=0.5, seed=0,
                     provider=provider)
ctx = PipelineContext(
    retriever=Retriever(corpus, build_index(corpus, provider), provider),
    scorer=scorer, recognizer_config=RecognizerConfig(),
    llm=ScriptedLlmClient(default_answer="ok"), top_retrieve=1, top_rerank=1)
print(answer_question("which words?", ctx,
                      ("no_recognizer", "no_reducer")).question_id)
"""

    def question_id(self, hash_seed):
        src = Path(leanrag.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
                   PYTHONPATH=os.pathsep.join(
                       [str(src), os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", self.SCRIPT], env=env,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        return done.stdout.strip()

    def test_same_across_processes(self):
        first = self.question_id(1)
        assert first.startswith("adhoc-")
        assert self.question_id(2) == first


class TestLoadIntegrity:
    @pytest.fixture
    def config(self, tmp_path):
        paths = write_redundant_fixture(tmp_path)
        return PipelineConfig(corpus_path=str(paths["corpus"]),
                              index_path=str(tmp_path / "index.json"),
                              nn_ref_path=str(tmp_path / "nnref.jsonl"))

    def save_index(self, config, corpus, provider_spec=None):
        provider = build_provider(provider_spec or config.provider)
        build_index(corpus, provider).save(config.index_path)

    def test_matching_artifacts_load(self, config):
        config.recognizer = {"k_neighbors": 1}
        corpus = load_corpus(config.corpus_path)
        self.save_index(config, corpus)
        provider = build_provider(config.provider)
        NnReferenceSet(["q"], provider.embed_many(["a question"]), [True],
                       provider.fingerprint).save(config.nn_ref_path)
        ctx = load_pipeline(config, require=("corpus", "index", "nn_ref"))
        assert len(ctx.retriever.index) == len(corpus)

    def test_index_from_other_provider_rejected(self, config):
        self.save_index(config, load_corpus(config.corpus_path),
                        {"kind": "hash", "dim": 256, "seed": 5})
        with pytest.raises(IndexIntegrityError):
            load_pipeline(config, require=("corpus", "index"))

    def test_stale_index_rejected(self, config):
        corpus = load_corpus(config.corpus_path)
        extra = make_document("gone", "", "A document since deleted.")
        self.save_index(config, type(corpus)([*corpus, extra]))
        with pytest.raises(IndexIntegrityError):
            load_pipeline(config, require=("corpus", "index"))

    @pytest.mark.parametrize("fingerprint, dim", [
        ("hash-bow:v1:dim=256:seed=5", 256),  # another embedder
        (None, 256),                           # no fingerprint recorded
        ("hash-bow:v1:dim=256:seed=0", 8),     # right name, wrong width
    ])
    def test_mismatched_nn_reference_rejected(self, config, fingerprint,
                                              dim):
        config.recognizer = {"k_neighbors": 1}
        self.save_index(config, load_corpus(config.corpus_path))
        NnReferenceSet(["q"], np.ones((1, dim)) / np.sqrt(dim), [True],
                       fingerprint).save(config.nn_ref_path)
        assert build_provider(config.provider).fingerprint == \
            "hash-bow:v1:dim=256:seed=0"
        with pytest.raises(IndexIntegrityError):
            load_pipeline(config, require=("corpus", "index", "nn_ref"))

    def test_unknown_recognizer_key_rejected(self, config):
        config.recognizer = {"s_N": 0.5}  # a typo of s_n
        with pytest.raises(ValueError, match="s_N"):
            load_pipeline(config, require=("corpus",))

    def test_nn_reference_smaller_than_k_rejected(self, config):
        provider = build_provider(config.provider)
        NnReferenceSet(["q"], provider.embed_many(["a question"]), [True],
                       provider.fingerprint).save(config.nn_ref_path)
        with pytest.raises(IndexIntegrityError,
                           match="1 entries, fewer than k_neighbors=10"):
            load_pipeline(config, require=("nn_ref",))

    @pytest.mark.parametrize("section, spec, key", [
        ("provider", {"kind": "hash", "dimm": 128}, "dimm"),
        ("provider", {"kind": "remote", "dim": 4}, "endpoint"),
        ("provider", {"kind": "mystery"}, "mystery"),
        ("llm", {"kind": "mock", "script_path": "s.jsonl", "concurency": 8},
         "concurency"),
        ("llm", {"kind": "mock"}, "script_path"),
        ("llm", {"kind": "remote"}, "endpoint"),
        ("llm", {"kind": "oracle"}, "oracle"),
        ("templates", {"simple": {"instructions": "Answer."}}, "instructions"),
        ("templates", {"terse": {"suffix": "A:"}}, "instruction"),
        ("recognizer", {"s_N": 0.5}, "s_N"),
    ])
    def test_config_fault_named_before_any_artifact_is_read(
            self, config, monkeypatch, section, spec, key):
        def refuse(path):
            raise AssertionError(f"read {path}")

        monkeypatch.setattr(leanrag.pipeline, "load_corpus", refuse)
        setattr(config, section, spec)
        with pytest.raises(ValueError, match=rf"'{section}.*{key}"):
            load_pipeline(config, require=("corpus", "llm"))

    @pytest.mark.parametrize("concurrency", ["8", 0, 2.5])
    def test_bad_concurrency_rejected(self, config, concurrency):
        config.llm = {"concurrency": concurrency}
        with pytest.raises(ValueError, match="llm.concurrency"):
            load_pipeline(config, require=())

    def test_unknown_template_rejected(self, config):
        config.template = "nope"
        with pytest.raises(ValueError, match="'nope'.*'simple'"):
            load_pipeline(config, require=())

    def test_unknown_artifact_name_rejected(self, config):
        with pytest.raises(ValueError, match="nnref"):
            load_pipeline(config, require=("corpus", "nnref"))

    def test_reads_only_required_artifacts(self, config, tmp_path,
                                           monkeypatch):
        config.scorer_path = str(tmp_path / "scorer.json")
        config.detector_path = str(tmp_path / "detector.json")
        config.llm = {"kind": "mock"}  # no script_path: fails if built
        for path in (config.index_path, config.scorer_path,
                     config.detector_path, config.nn_ref_path):
            Path(path).write_text("not an artifact\n")

        def refuse(path):
            raise AssertionError(f"read {path}")

        for cls in (VectorIndex, ScorerModel, DetectorModel, NnReferenceSet):
            monkeypatch.setattr(cls, "load", staticmethod(refuse))
        ctx = load_pipeline(config, require=("corpus",))
        assert (ctx.retriever, ctx.scorer, ctx.detector, ctx.nn_reference,
                ctx.llm) == (None,) * 5


class TestProviderConsistency:
    def test_scorer_with_other_provider_rejected(self, setup, detector):
        scorer = setup[5]
        other = replace(scorer, provider=build_provider(
            {"kind": "hash", "dim": scorer.provider.dim, "seed": 99}))
        with pytest.raises(ValueError, match="scorer embeds with"):
            make_ctx(setup, detector, scorer=other)

    def test_unknown_template_rejected(self, setup, detector):
        with pytest.raises(ValueError, match="'nope'.*'simple'"):
            make_ctx(setup, detector, template_name="nope")


class TestContextChecks:
    @pytest.mark.parametrize("top_rerank", [0, 11])
    def test_rerank_outside_retrieve_rejected(self, setup, detector,
                                              top_rerank):
        with pytest.raises(ValueError, match="1 <= top_rerank"):
            make_ctx(setup, detector, top_retrieve=10, top_rerank=top_rerank)

    @pytest.mark.parametrize("name,value", [
        ("top_retrieve", 10.0), ("top_rerank", 5.0), ("top_rerank", True)])
    def test_non_integer_sizes_rejected(self, setup, detector, name, value):
        sizes = {"top_retrieve": 10, "top_rerank": 5, name: value}
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            make_ctx(setup, detector, **sizes)

    def test_nn_reference_smaller_than_k_rejected(self, setup, detector):
        with pytest.raises(IndexIntegrityError,
                           match="4 entries, fewer than k_neighbors=5"):
            make_ctx(setup, detector,
                     recognizer_config=RecognizerConfig(k_neighbors=5))

    def test_detector_narrower_than_rerank_rejected(self, setup):
        # its greedy filter would read only the first 5 of 10 documents
        narrow = DetectorModel(max_docs=5, hidden_sizes=(4,))
        with pytest.raises(IndexIntegrityError,
                           match="5 documents, fewer than top_rerank=10"):
            make_ctx(setup, narrow, top_rerank=10)


class TestEvaluate:
    def test_all_correct_accuracy_one(self, setup, detector):
        ctx = make_ctx(setup, detector)
        report = evaluate(setup[1], ctx)
        assert report.accuracy == 1.0
        assert report.retrieval_skip_rate == 0.0
        assert report.n_excluded == 0

    def test_no_reducer_tokens_dominate_per_question(self, setup, detector):
        ctx = make_ctx(setup, detector)
        base = evaluate(setup[1], ctx)
        full = evaluate(setup[1], ctx, ablations={"no_reducer"})
        assert full.accuracy == base.accuracy
        for mine, theirs in zip(base.per_question, full.per_question):
            assert mine["prompt_tokens"] <= theirs["prompt_tokens"]
        assert base.mean_prompt_tokens <= full.mean_prompt_tokens

    def test_branch_exclusivity(self, setup, detector):
        ctx = make_ctx(setup, detector)
        for q in setup[1]:
            trace = answer_question(q, ctx)
            assert (trace.verdict.decision is Decision.RETRIEVE) == \
                   (trace.combination is not None)

    def test_no_recognizer_forces_retrieve(self, setup, detector):
        ctx = make_ctx(setup, detector, nn_reference=None)
        report = evaluate(setup[1], ctx, ablations={"no_recognizer"})
        assert report.retrieval_skip_rate == 0.0

    def test_unknown_ablation_rejected(self, setup, detector):
        ctx = make_ctx(setup, detector)
        with pytest.raises(ValueError):
            evaluate(setup[1], ctx, ablations={"bogus"})

    def test_unknown_template_ablation_rejected(self, setup, detector):
        ctx = make_ctx(setup, detector)
        with pytest.raises(ValueError, match="'nope'.*'simple'"):
            evaluate(setup[1], ctx, ablations={"template=nope"})

    def test_several_template_ablations_rejected(self, setup, detector):
        ctx = make_ctx(setup, detector)
        with pytest.raises(ValueError,
                           match="'template=cot', 'template=simple'"):
            evaluate(setup[1], ctx,
                     ablations=["template=simple", "template=cot"])

    def test_empty_qa_rejected(self, setup, detector):
        ctx = make_ctx(setup, detector)
        with pytest.raises(ValueError):
            evaluate([], ctx)

    def test_template_ablation_switches_template(self, setup, detector):
        ctx = make_ctx(setup, detector)
        report = evaluate(setup[1], ctx, ablations={"template=simple"})
        assert report.template == "simple"

    def test_transport_failures_excluded_not_fatal(self, setup, detector):
        poisoned = FailOnce(setup[2], "zorblat2x")
        ctx = make_ctx(setup, detector, llm=poisoned)
        report = evaluate(setup[1], ctx)
        assert report.n_excluded == 1
        assert report.excluded_question_ids == ["q2"]
        assert report.accuracy == 1.0  # remaining questions unaffected

    @pytest.mark.parametrize("bad", [NotJsonResponse(),
                                     FakeResponse({"answer": "no text"})])
    def test_malformed_llm_response_excluded(self, setup, detector, bad):
        good = FakeResponse({"text": f"It is {SHARED_ANSWER}."})
        client = HttpLlmClient("http://llm", retries=0, session=FakeSession(
            [good, bad, good, good]))
        report = evaluate(setup[1], make_ctx(setup, detector, llm=client))
        assert report.excluded_question_ids == ["q2"]
        assert report.accuracy == 1.0

    def test_concurrent_equals_serial(self, setup, detector):
        serial = evaluate(setup[1], make_ctx(setup, detector, max_workers=1))
        threaded = evaluate(setup[1], make_ctx(setup, detector, max_workers=4))
        assert serial.to_json() == threaded.to_json()

    def test_report_json_stable(self, setup, detector):
        ctx = make_ctx(setup, detector)
        first = evaluate(setup[1], ctx).to_json()
        second = evaluate(setup[1], ctx).to_json()
        assert first == second
        parsed = json.loads(first)
        assert set(parsed["recall"]) == {"similarity", "has_answer_only",
                                         "llm_prefer_only", "bilabel_sum"}

    def test_sub_reports(self, setup, detector):
        ctx = make_ctx(setup, detector)
        report = evaluate(setup[1], ctx,
                          ablation_suites={"full_docs": ("no_reducer",)})
        assert "full_docs" in report.sub_reports
        assert report.sub_reports["full_docs"].ablations == ["no_reducer"]

    def test_recall_orderings_present_and_monotone(self, setup, detector):
        ctx = make_ctx(setup, detector)
        report = evaluate(setup[1], ctx)
        for ordering, values in report.recall.items():
            ks = sorted(int(k) for k in values)
            series = [values[str(k)] for k in ks]
            assert series == sorted(series), ordering


class TestOrderedDocs:
    def test_orderings(self, setup):
        corpus, qa, mock, provider, retriever, scorer = setup
        q = qa[0]
        scored = [(r, scorer.score(q.question, r.doc.text))
                  for r in retriever.retrieve(q.question, 10)]
        sim = ordered_docs(scored, "similarity")
        assert [d.rank for d in sim] == sorted(d.rank for d in sim)
        for name, key in (("has_answer_only", lambda s: s.p_ans),
                          ("llm_prefer_only", lambda s: s.p_pref),
                          ("bilabel_sum", lambda s: s.combined)):
            docs = ordered_docs(scored, name)
            by_doc = {r.doc.doc_id: s for r, s in scored}
            values = [key(by_doc[d.doc.doc_id]) for d in docs]
            assert values == sorted(values, reverse=True)
        with pytest.raises(ValueError):
            ordered_docs(scored, "nope")


class TestConfig:
    def test_rerank_bounded_by_retrieve(self):
        with pytest.raises(ValueError):
            PipelineConfig(top_retrieve=10, top_rerank=20)

    def test_rerank_at_least_one(self):
        with pytest.raises(ValueError, match="1 <= top_rerank"):
            PipelineConfig(top_retrieve=10, top_rerank=0)

    def test_float_from_json_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"top_retrieve": 1e2}')
        with pytest.raises(ValueError, match="top_retrieve must be an integer"):
            PipelineConfig.from_file(path)

    def test_provider_dispatch(self):
        from leanrag.pipeline import build_provider
        from leanrag.retrieval import HashingEmbedder, RemoteEmbedder

        assert isinstance(build_provider({"kind": "hash", "dim": 16}),
                          HashingEmbedder)
        remote = build_provider({"kind": "remote", "endpoint": "http://e",
                                 "dim": 4})
        assert isinstance(remote, RemoteEmbedder)
        with pytest.raises(ValueError):
            build_provider({"kind": "mystery"})

    def test_llm_dispatch(self, tmp_path):
        from leanrag.llm import HttpLlmClient
        from leanrag.pipeline import build_llm_client

        script = tmp_path / "script.jsonl"
        script.write_text(json.dumps(
            {"match": {"pattern": ".*"}, "answer": "ok"}) + "\n")
        mock = build_llm_client({"kind": "mock", "script_path": str(script)})
        assert isinstance(mock, ScriptedLlmClient)
        remote = build_llm_client({"kind": "remote", "endpoint": "http://l"})
        assert isinstance(remote, HttpLlmClient)
        with pytest.raises(ValueError):
            build_llm_client({"kind": "mock"})  # script_path missing

    @pytest.mark.parametrize("section,spec", [
        ("provider", {"kind": "remote", "endpoint": "http://e", "dim": 4,
                      "session": 1}),
        ("provider", {"kind": "remote", "endpoint": "http://e", "dim": 4,
                      "sleep": 0}),
        ("llm", {"kind": "remote", "endpoint": "http://l", "session": 1}),
        ("llm", {"kind": "remote", "endpoint": "http://l", "sleep": 0}),
    ])
    def test_injected_fakes_refused_from_config(self, section, spec):
        """A config that sets a remote client's session or sleep fails at
        build time; before, it built and every request then failed as a
        retryable transport fault."""
        from leanrag.pipeline import build_llm_client, build_provider

        build = build_provider if section == "provider" else build_llm_client
        key = "session" if "session" in spec else "sleep"
        with pytest.raises(ValueError, match=f"'{section}'.*'{key}'"):
            build(spec)

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"seed": 1, "bogus": 2}))
        with pytest.raises(ValueError):
            PipelineConfig.from_file(path)

    def test_missing_file_reported(self, tmp_path):
        config = PipelineConfig(corpus_path=str(tmp_path / "nope.jsonl"))
        with pytest.raises(FileNotFoundError):
            load_pipeline(config, require=("corpus",))
