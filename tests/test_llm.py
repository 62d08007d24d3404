import json
import re

import pytest

import leanrag.llm as llm_module
from leanrag.corpus import count_tokens
from leanrag.llm import (DEFAULT_TEMPLATES, HttpLlmClient, LlmRequest,
                         LlmTransportError, ScriptedLlmClient,
                         UnscriptedPromptError, build_noretrieve_prompt,
                         build_retrieve_prompt, is_correct)
from leanrag.pipeline import PipelineConfig, build_llm_client, load_pipeline

QUESTION = "Who was the British Prime Minister in 1953?"
PASSAGES = ["de Valera met the Prime Minister.", "Denis Thatcher married."]


class TestPromptRendering:
    def test_passages_numbered_in_order(self):
        request = build_retrieve_prompt(QUESTION, PASSAGES)
        lines = request.prompt.splitlines()
        assert f"1. {PASSAGES[0]}" in lines
        assert f"2. {PASSAGES[1]}" in lines
        assert lines.index(f"1. {PASSAGES[0]}") < lines.index(f"2. {PASSAGES[1]}")

    def test_comprehensive_instruction_parts(self):
        request = build_retrieve_prompt(QUESTION, PASSAGES,
                                        DEFAULT_TEMPLATES["comprehensive"])
        for part in (
            "Refer to the passage below and answer the following question.",
            "Make sure you fully understand the meaning of the question and passages.",
            "Then give the answer and explain why you choose this answer.",
        ):
            assert part in request.prompt

    def test_simple_and_cot_suffixes(self):
        simple = build_retrieve_prompt(QUESTION, PASSAGES,
                                       DEFAULT_TEMPLATES["simple"])
        assert simple.prompt.endswith("The answer is")
        cot = build_retrieve_prompt(QUESTION, PASSAGES, DEFAULT_TEMPLATES["cot"])
        assert cot.prompt.endswith("Let's think step by step.")

    def test_token_count_matches_tokenizer(self):
        request = build_retrieve_prompt(QUESTION, PASSAGES)
        assert request.token_count == count_tokens(request.prompt)

    @pytest.mark.parametrize("name", sorted(DEFAULT_TEMPLATES))
    @pytest.mark.parametrize("passages", [
        PASSAGES,
        ["...leading dots", "trailing bang!", "(parenthesized)", "'", "",
         "  spaced  out  ", "two\nlines.", "\u2014dash\u2014", "-", "x"],
        [f"passage {i}." for i in range(12)],
    ])
    def test_token_count_summed_from_the_parts(self, name, passages):
        template = DEFAULT_TEMPLATES[name]
        for question in (QUESTION, "?!", "", " (who?) "):
            request = build_retrieve_prompt(question, passages, template)
            assert request.token_count == count_tokens(request.prompt)
            known = build_retrieve_prompt(
                question, passages, template,
                sum(count_tokens(text) for text in passages))
            assert known == request

    def test_prompt_is_not_tokenized_again(self, monkeypatch):
        counted = []

        def counting(text):
            counted.append(text)
            return count_tokens(text)

        monkeypatch.setattr(llm_module, "count_tokens", counting)
        build_retrieve_prompt(QUESTION, PASSAGES)  # the frame, once
        counted.clear()
        request = build_retrieve_prompt(
            QUESTION, PASSAGES, None,
            sum(count_tokens(text) for text in PASSAGES))
        assert counted == [QUESTION]
        assert request.token_count == count_tokens(request.prompt)
        counted.clear()
        build_retrieve_prompt(QUESTION, PASSAGES)
        assert counted == [*PASSAGES, QUESTION]

    def test_question_line_present(self):
        request = build_retrieve_prompt(QUESTION, PASSAGES)
        assert f"Question: {QUESTION}" in request.prompt

    def test_empty_combination_rejected(self):
        with pytest.raises(ValueError):
            build_retrieve_prompt(QUESTION, [])

    def test_rendering_deterministic(self):
        a = build_retrieve_prompt(QUESTION, PASSAGES)
        b = build_retrieve_prompt(QUESTION, PASSAGES)
        assert a == b

    @pytest.mark.parametrize("name", ["passage_header", "passage_line",
                                      "question_line"])
    def test_passage_and_question_lines_are_not_template_fields(self, name):
        with pytest.raises(ValueError, match="^config 'templates.simple': "):
            load_pipeline(PipelineConfig(templates={"simple": {name: "x"}}),
                          require=())


class TestNoRetrievePrompt:
    def test_contains_instruction_and_question(self):
        request = build_noretrieve_prompt(QUESTION)
        assert "background passage" in request.prompt
        assert f"Question: {QUESTION}" in request.prompt
        assert "Passages:" not in request.prompt

    def test_fewer_tokens_than_retrieve_prompt(self):
        bare = build_noretrieve_prompt(QUESTION)
        augmented = build_retrieve_prompt(QUESTION, ["short passage"])
        assert bare.token_count < augmented.token_count

    def test_deterministic(self):
        assert build_noretrieve_prompt(QUESTION) == build_noretrieve_prompt(QUESTION)


class TestScriptedClient:
    def test_exact_question_match(self):
        client = ScriptedLlmClient({QUESTION: "Winston Churchill led then."})
        request = build_retrieve_prompt(QUESTION, PASSAGES)
        assert client.complete(request).text == "Winston Churchill led then."

    def test_pattern_match_in_order(self):
        client = ScriptedLlmClient(patterns=[
            (r"de Valera", "first pattern"),
            (r"Question:", "second pattern"),
        ])
        request = build_retrieve_prompt(QUESTION, PASSAGES)
        assert client.complete(request).text == "first pattern"

    def test_strict_mode_raises_on_miss(self):
        client = ScriptedLlmClient({"other question": "x"})
        with pytest.raises(UnscriptedPromptError):
            client.complete(build_noretrieve_prompt(QUESTION))

    def test_default_answer_fallback(self):
        client = ScriptedLlmClient(default_answer="I do not know.")
        response = client.complete(build_noretrieve_prompt(QUESTION))
        assert response.text == "I do not know."

    def test_same_prompt_same_response(self):
        client = ScriptedLlmClient(default_answer="stable")
        request = build_noretrieve_prompt(QUESTION)
        assert client.complete(request).text == client.complete(request).text

    def test_script_file_round_trip(self, tmp_path):
        path = tmp_path / "script.jsonl"
        entries = [
            {"match": {"question": QUESTION}, "answer": "Churchill"},
            {"match": {"pattern": "backup"}, "answer": "fallback"},
        ]
        path.write_text("\n".join(json.dumps(e) for e in entries))
        client = ScriptedLlmClient.from_script_file(path)
        assert client.complete(
            build_retrieve_prompt(QUESTION, PASSAGES)).text == "Churchill"

    @pytest.mark.parametrize("line", [
        '{"match": {"question": "q"}, "answer": "a"',  # not JSON
        '{"match": {"question": "q"}}',                # no answer
        '[{"question": "q"}, "a"]',                    # not an object
    ])
    def test_script_file_names_bad_line(self, tmp_path, line):
        path = tmp_path / "script.jsonl"
        good = json.dumps({"match": {"pattern": "x"}, "answer": "a"})
        path.write_text(f"{good}\n\n{line}\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: "):
            ScriptedLlmClient.from_script_file(path)

    @pytest.mark.parametrize("entry, complaint", [
        ({"match": {"question": "q"}, "answer": 42},
         "answer must be a string, got 42"),
        ({"match": {"pattern": 7}, "answer": "a"},
         "pattern must be a string, got 7"),
        ({"match": {"question": ["q"]}, "answer": "a"},
         "question must be a string, got ['q']"),
        ({"match": {"pattern": "(unclosed"}, "answer": "a"},
         "pattern '(unclosed' does not compile"),
    ])
    def test_script_file_refuses_bad_entry(self, tmp_path, entry, complaint):
        path = tmp_path / "script.jsonl"
        good = json.dumps({"match": {"pattern": "x"}, "answer": "a"})
        path.write_text(f"{good}\n{json.dumps(entry)}\n")
        want = f"^{re.escape(str(path))}:2: {re.escape(complaint)}"
        with pytest.raises(ValueError, match=want):
            ScriptedLlmClient.from_script_file(path)
        with pytest.raises(ValueError, match=want):
            build_llm_client({"kind": "mock", "script_path": str(path)})

    @pytest.mark.parametrize("match", ['"question"', '["question"]', "7"])
    def test_script_file_match_must_be_an_object(self, tmp_path, match):
        path = tmp_path / "script.jsonl"
        path.write_text(f'{{"match": {match}, "answer": "a"}}\n')
        want = f"^{re.escape(str(path))}:1: match must be an object$"
        with pytest.raises(ValueError, match=want):
            ScriptedLlmClient.from_script_file(path)
        # the config path reports it unchanged
        with pytest.raises(ValueError, match=want):
            build_llm_client({"kind": "mock", "script_path": str(path)})


class FakeResponse:
    def __init__(self, payload=None, status=200):
        self._payload = payload or {}
        self.status_code = status

    def json(self):
        return self._payload


class NotJsonResponse(FakeResponse):
    def json(self):
        raise ValueError("Expecting value: line 1 column 1 (char 0)")


class FakeSession:
    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.calls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append(json)
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


class TestHttpClient:
    def request(self):
        return LlmRequest(prompt="hello", token_count=1)

    def test_retry_then_success(self):
        session = FakeSession([FakeResponse(status=500),
                               FakeResponse({"text": "recovered"})])
        sleeps = []
        client = HttpLlmClient("http://llm", retries=2, session=session,
                               sleep=sleeps.append)
        assert client.complete(self.request()).text == "recovered"
        assert len(session.calls) == 2
        assert len(sleeps) == 1

    def test_exhausted_retries_raise_transport_error(self):
        session = FakeSession([FakeResponse(status=500)] * 3)
        client = HttpLlmClient("http://llm", retries=2, session=session,
                               sleep=lambda _: None)
        with pytest.raises(LlmTransportError):
            client.complete(self.request())
        assert len(session.calls) == 3

    def test_client_error_fails_fast(self):
        session = FakeSession([FakeResponse(status=404)])
        client = HttpLlmClient("http://llm", retries=2, session=session,
                               sleep=lambda _: None)
        with pytest.raises(LlmTransportError):
            client.complete(self.request())
        assert len(session.calls) == 1

    @pytest.mark.parametrize("response", [
        NotJsonResponse(),
        FakeResponse({"answer": "missing text field"}),
        FakeResponse(["not", "an", "object"]),
    ])
    def test_malformed_body_raises_transport_error(self, response):
        client = HttpLlmClient("http://llm", session=FakeSession([response]))
        with pytest.raises(LlmTransportError):
            client.complete(self.request())

    @pytest.mark.parametrize("setting", [
        {"timeout": 0}, {"retries": -1}, {"retries": 1.5}, {"backoff": -0.5},
        {"max_tokens": 0}, {"max_tokens": 2.5},
    ])
    def test_bad_setting_rejected(self, setting):
        # retries=-1 once sent no request and failed "after 0 attempts"
        with pytest.raises(ValueError, match=next(iter(setting))):
            HttpLlmClient("http://llm", session=FakeSession([]), **setting)

    def test_request_body_shape(self):
        session = FakeSession([FakeResponse({"text": "ok"})])
        client = HttpLlmClient("http://llm", max_tokens=128, session=session)
        client.complete(self.request())
        assert session.calls[0] == {"prompt": "hello", "max_tokens": 128,
                                    "temperature": 0}


class TestIsCorrect:
    def test_containment(self):
        assert is_correct("The answer is Paris because...", {"Paris"})

    def test_miss(self):
        assert not is_correct("I don't know", {"Paris"})

    def test_case_insensitive(self):
        assert is_correct("PARIS", {"Paris"})
