import hashlib
import json
import random
import re
import string
import sys
import threading

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import leanrag.corpus as corpus_module
from leanrag.artifacts import IndexIntegrityError
from leanrag.corpus import (Corpus, CorpusFormatError, CorpusRows,
                            DuplicateDocumentError,
                            QARecord, answer_targets, contains_answer,
                            contains_target, count_tokens,
                            default_tokenizer, generate_subdocuments,
                            load_corpus, load_qa, make_document,
                            max_sentences, normalize_for_match,
                            split_sentences, whole_document_subdoc)
from leanrag.llm import ScriptedLlmClient
from synthetic import loop_split_sentences


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


class TestLoadCorpus:
    def test_two_wellformed_lines(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, [
            {"id": "a", "title": "A", "text": "First doc."},
            {"id": "b", "title": "B", "text": "Second doc."},
        ])
        corpus = load_corpus(path)
        assert len(corpus) == 2
        assert corpus.get("a").title == "A"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text("")
        assert len(load_corpus(path)) == 0

    def test_missing_text_names_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, [
            {"id": "a", "title": "A", "text": "ok"},
            {"id": "b", "title": "B"},
        ])
        with pytest.raises(CorpusFormatError, match=":2:"):
            load_corpus(path)

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "a", "title": "t", "text": "x"}\nnot json\n')
        with pytest.raises(CorpusFormatError, match=":2:"):
            load_corpus(path)

    @pytest.mark.parametrize("tail", ["{}", "x", "1", '"a"', "\f"])
    def test_trailing_data_names_line(self, tmp_path, tail):
        path = tmp_path / "corpus.jsonl"
        record = json.dumps({"id": "b", "title": "t", "text": "y"})
        path.write_text('{"id": "a", "title": "t", "text": "x"}\n'
                        f" {record} \t{tail}\r\n")
        with pytest.raises(CorpusFormatError,
                           match=r":2: invalid JSON \(Extra data\)"):
            load_corpus(path)

    def test_undecodable_line_named(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(b'{"id": "a", "title": "t", "text": "x"}\r\n'
                         b'{"id": "b", "title": "t", "text": "\xff"}\n')
        with pytest.raises(CorpusFormatError, match=":2: 'utf-8' codec"):
            load_corpus(path)

    def test_json_whitespace_around_a_record(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        record = json.dumps({"id": "a", "title": "t", "text": "x"})
        path.write_text(f" \t{record} \t\r\n")
        assert load_corpus(path).get("a").text == "x"

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, [
            {"id": "a", "title": "", "text": "x"},
            {"id": "b", "title": "", "text": "y"},
            {"id": "a", "title": "", "text": "z"},
        ])
        with pytest.raises(DuplicateDocumentError, match=r":3: .*'a'"):
            load_corpus(path)

    def test_load_qa(self, tmp_path):
        path = tmp_path / "qa.jsonl"
        write_jsonl(path, [
            {"question_id": "q1", "question": "Who?", "answers": ["x", "y"]},
        ])
        records = load_qa(path)
        assert records[0].gold_answers == frozenset({"x", "y"})

    def test_load_qa_duplicate_id_names_line(self, tmp_path):
        path = tmp_path / "qa.jsonl"
        write_jsonl(path, [
            {"question_id": "q1", "question": "Who?", "answers": ["x"]},
            {"question_id": "q1", "question": "Why?", "answers": ["y"]},
        ])
        with pytest.raises(CorpusFormatError, match=r":2: .*'q1'"):
            load_qa(path)

    def test_load_qa_empty_answers(self, tmp_path):
        path = tmp_path / "qa.jsonl"
        write_jsonl(path, [
            {"question_id": "q1", "question": "Who?", "answers": []},
        ])
        with pytest.raises(CorpusFormatError):
            load_qa(path)

    @pytest.mark.parametrize("answer,reason", [
        (None, "not a string"), (1984, "not a string"),
        (["x"], "not a string"), ("", "no word"), (" ", "no word"),
        ("...", "no word"), ("\u3000(!)", "no word")])
    def test_load_qa_refuses_an_answer_that_cannot_match(self, tmp_path,
                                                         answer, reason):
        # [null] was read as the answer "None", which matched any response
        # holding "none"; "..." normalizes to nothing and matched nothing
        path = tmp_path / "qa.jsonl"
        write_jsonl(path, [
            {"question_id": "q1", "question": "Who?", "answers": ["x"]},
            {"question_id": "q2", "question": "Why?",
             "answers": ["y", answer]},
        ])
        with pytest.raises(CorpusFormatError, match=rf"qa\.jsonl:2: .*{reason}"):
            load_qa(path)

    def test_sentences_split_on_first_use(self, tmp_path, monkeypatch):
        path = tmp_path / "corpus.jsonl"
        text = "Mr. J. Smith won. The vote was close! Was it fair? Yes. Done."
        write_jsonl(path, [{"id": "a", "title": "A", "text": text}])

        def refuse(text):
            raise AssertionError("split while loading")

        with monkeypatch.context() as patch:
            patch.setattr(corpus_module, "split_sentences", refuse)
            corpus = load_corpus(path)
        loaded = corpus.get("a")
        eager = make_document("a", "A", text)
        assert loaded.sentences == tuple(split_sentences(text))
        assert generate_subdocuments(loaded) == generate_subdocuments(eager)
        assert loaded == eager


class TestCorpusRows:
    # LF, CR LF and lone CR line ends, blank lines, and no final line end
    LINES = [' {"id": "c", "title": "", "text": "Third."}\r\n', "\n",
             '{"id": "a", "title": "A", "text": "First, \\u00e9."}\r',
             " \t\r\n", '{"id": "b", "title": "", "text": "Second."}']

    def rows(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_bytes("".join(self.LINES).encode("utf-8"))
        corpus = load_corpus(path)
        ids = sorted(doc.doc_id for doc in corpus)
        return corpus, CorpusRows(
            path, tmp_path / "index", corpus.sha256, ids,
            np.array([corpus.offsets[i] for i in ids], dtype=np.int64))

    def test_load_records_digest_and_line_offsets(self, tmp_path):
        corpus, _ = self.rows(tmp_path)
        data = (tmp_path / "corpus.jsonl").read_bytes()
        assert corpus.sha256 == hashlib.sha256(data).hexdigest()
        assert corpus.offsets == {"c": 0, "a": len(
            "".join(self.LINES[:2]).encode()), "b": len(
            "".join(self.LINES[:4]).encode())}

    def test_rows_read_as_the_parsed_corpus(self, tmp_path):
        corpus, rows = self.rows(tmp_path)
        assert [rows[i] for i in range(3)] == \
            [corpus.get(doc_id) for doc_id in ("a", "b", "c")]
        assert rows[0] is rows[0]

    def test_line_start_after_lone_cr_only(self, tmp_path):
        corpus, _ = self.rows(tmp_path)
        path = tmp_path / "corpus.jsonl"
        first, blank, second = (len(line.encode()) for line in self.LINES[:3])

        def rows(offsets):
            return CorpusRows(path, "index", corpus.sha256, ["a", "b", "c"],
                              np.array(offsets, dtype=np.int64))

        # inside a CR LF pair is no line start
        with pytest.raises(IndexIntegrityError, match="not at a line start"):
            rows([first + blank, first - 1, 0])
        # after a lone CR is one; that line is blank, refused when read
        after_cr = rows([first + blank, first + blank + second, 0])
        assert after_cr[0] == corpus.get("a")
        with pytest.raises(IndexIntegrityError,
                           match=re.escape(f"{path}:4: blank line")):
            after_cr[1]


def test_corpus_rows_read_from_many_threads(tmp_path):
    """Threads reading new rows at once, with no lock, each get the parsed
    document, and every row keeps one."""
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, [{"id": f"d{i:03d}", "title": "", "text": f"Text {i}."}
                       for i in range(300)])
    corpus = load_corpus(path)
    ids = sorted(doc.doc_id for doc in corpus)
    rows = CorpusRows(path, "index", corpus.sha256, ids, np.array(
        [corpus.offsets[i] for i in ids], dtype=np.int64))
    wrong = []

    def read(order):
        for row in order:
            if rows[row] != corpus.get(ids[row]):
                wrong.append(row)

    orders = [np.random.default_rng(seed).permutation(len(ids)).tolist()
              for seed in range(8)]
    threads = [threading.Thread(target=read, args=(order,))
               for order in orders]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    assert all(rows[row] is rows[row] == corpus.get(ids[row])
               for row in range(len(ids)))


# every JSONL input: its loader, a good record and one that lacks a field,
# with the complaint that names it
JSONL_INPUTS = {
    "corpus": (load_corpus, {"id": "a", "title": "t", "text": "x"},
               {"id": "b", "title": "t"}, "missing field 'text'"),
    "qa": (load_qa, {"question_id": "q", "question": "Q?", "answers": ["x"]},
           {"question_id": "r", "answers": ["y"]},
           "missing field 'question'"),
    "script": (ScriptedLlmClient.from_script_file,
               {"match": {"pattern": "x"}, "answer": "a"},
               {"match": {"question": "q"}}, "entry needs an 'answer'"),
}


@pytest.mark.parametrize("name", sorted(JSONL_INPUTS))
class TestJsonlInputs:
    @pytest.mark.parametrize("blank", ["", " ", " \t\r", "\f", "\u00a0 "])
    def test_blank_lines_are_skipped(self, tmp_path, name, blank):
        load, good, _, _ = JSONL_INPUTS[name]
        path = tmp_path / "input.jsonl"
        path.write_text(f"{blank}\n{json.dumps(good)}\n{blank}\n\n",
                        encoding="utf-8")
        load(path)

    @pytest.mark.parametrize("line, reason", [
        ("not json", "invalid JSON (Expecting value)"),
        ('{"id": "a"', "invalid JSON ("),
        ('{"a": 1} {}', "invalid JSON (Extra data)"),
        ('{"a": 1}\f', "invalid JSON (Extra data)"),
        ('[{"a": 1}]', "expected a JSON object"),
        ('"text"', "expected a JSON object"),
    ])
    def test_bad_line_is_named(self, tmp_path, name, line, reason):
        load, good, _, _ = JSONL_INPUTS[name]
        path = tmp_path / "input.jsonl"
        path.write_text(f"{json.dumps(good)}\n\n{line}\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match="^" + re.escape(
                f"{path}:3: {reason}")) as caught:
            load(path)
        assert caught.value.line_no == 3
        assert caught.value.path == str(path)

    def test_missing_field_is_named(self, tmp_path, name):
        load, good, lacking, reason = JSONL_INPUTS[name]
        path = tmp_path / "input.jsonl"
        write_jsonl(path, [good, lacking])
        with pytest.raises(CorpusFormatError,
                           match=f"^{re.escape(f'{path}:2: {reason}')}$"):
            load(path)


class TestSplitSentences:
    def texts(self, text):
        return [text[a:b] for a, b in split_sentences(text)]

    def test_three_terminators(self):
        assert self.texts("A. B! C?") == ["A.", "B!", "C?"]

    def test_no_terminator_single_span(self):
        assert self.texts("no terminator") == ["no terminator"]

    # hand-segmented fixtures; the segmentation contract is frozen here
    FIXTURES = [
        ("Mr. J. Smith won. He smiled.", ["Mr. J. Smith won.", "He smiled."]),
        ("Dr. Who arrived. The crowd cheered!",
         ["Dr. Who arrived.", "The crowd cheered!"]),
        ("It rained. J. K. Rowling wrote.",
         ["It rained.", "J. K. Rowling wrote."]),
        ("One sentence only", ["One sentence only"]),
        ("Trailing space. ", ["Trailing space."]),
    ]

    @pytest.mark.parametrize("text,expected", FIXTURES)
    def test_hand_segmented(self, text, expected):
        assert self.texts(text) == expected

    def test_empty_text(self):
        assert split_sentences("") == []

    @given(st.text(alphabet=st.characters(codec="ascii",
                                          exclude_categories=("Cc",)),
                   max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_spans_cover_all_nonspace(self, text):
        spans = split_sentences(text)
        # ordered and non-overlapping
        for (a1, b1), (a2, b2) in zip(spans, spans[1:]):
            assert b1 <= a2
        covered = set()
        for a, b in spans:
            assert a < b
            covered.update(range(a, b))
        for i, ch in enumerate(text):
            if not ch.isspace():
                assert i in covered

    # words the guards read, terminators, ASCII and Unicode whitespace
    PIECES = ["Mr", "mr", "Dr", "St", "inc", "J", "K", "x", "Smith", "Ab",
              "the", "3", "\u00c9mile", ".", ".", "!", "?", "..", " ", " ",
              "  ", "\n", "\t", "\u00a0", "\u2003", "\u3000", "\u2029",
              "\x1c", "\x85", "\r\n"]

    @given(st.lists(st.sampled_from(PIECES), max_size=40).map("".join)
           | st.text(max_size=80))
    @settings(max_examples=400, deadline=None)
    def test_equals_character_loop(self, text):
        assert split_sentences(text) == loop_split_sentences(text)

    @given(st.lists(st.sampled_from(PIECES), max_size=40).map("".join))
    @settings(max_examples=200, deadline=None)
    def test_sentence_bound_holds(self, text):
        assert len(split_sentences(text)) <= max_sentences(text)

    def test_sentence_bound_counts_candidate_ends(self):
        assert max_sentences("") == 1
        assert max_sentences("no end") == 1
        assert max_sentences("A. B! C? ") == 3
        assert max_sentences("A. B! C? tail") == 4
        # a decimal point is no candidate end; a guarded one is
        assert max_sentences("It cost 3.5 units. Mr. Smith paid!") == 3
        assert len(split_sentences("It cost 3.5 units. Mr. Smith paid!")) \
            == 2


class TestCountTokens:
    def test_empty(self):
        assert count_tokens("") == 0

    def test_punctuation_split(self):
        assert default_tokenizer("Who was king?") == ["Who", "was", "king", "?"]
        assert count_tokens("Who was king?") == 4

    def test_wrapped_punctuation(self):
        assert default_tokenizer("(king)?") == ["(", "king", ")", "?"]

    def test_prompt_counts_equal_sum_of_parts(self):
        # oracle: count each component independently
        parts = [
            "Refer to the passage below and answer the following question.",
            "Passages:",
            "1. The first passage text.",
            "2. A second passage, with punctuation!",
            "Question: Who was the first?",
        ]
        whole = "\n".join(parts)
        assert count_tokens(whole) == sum(count_tokens(p) for p in parts)

    @given(st.text(min_size=1, max_size=40), st.text(min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_additive_over_whitespace_join(self, a, b):
        if not a.strip() or not b.strip():
            return
        assert count_tokens(a + " " + b) == count_tokens(a) + count_tokens(b)

    @given(st.lists(st.one_of(
        st.text(max_size=12),
        st.text(alphabet=string.punctuation, min_size=1, max_size=5),
        st.sampled_from([" ", "\n", "\t", "\x1c", "\x1f", "\x85", "\u2003",
                         "\u3000", "(", ")?", "..."])), max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_count_is_the_tokenizer_length(self, pieces):
        text = "".join(pieces)
        assert count_tokens(text) == len(default_tokenizer(text))

    def test_count_edge_cases(self):
        for text in ("", " \x1c\t", "?!", "a\x1cb", "(king)?", "'' x ..."):
            assert count_tokens(text) == len(default_tokenizer(text))


class TestContainsAnswer:
    def test_plain_containment(self):
        assert contains_answer("He lived in Paris.", {"Paris"})

    def test_substring_semantics(self):
        assert contains_answer("He lived in Parisian suburbs.", {"Paris"})

    def test_absent(self):
        assert not contains_answer("He lived in Lyon.", {"Paris"})

    def test_case_insensitive(self):
        assert contains_answer("PARIS", {"Paris"})

    def test_empty_gold_rejected(self):
        with pytest.raises(ValueError):
            contains_answer("text", set())

    def test_normalization(self):
        assert normalize_for_match("  The (Quick)   FOX!! ") == "the quick fox"

    @given(text=st.text(alphabet="abcdefg ,.!", min_size=1, max_size=60),
           prefix=st.text(max_size=20), suffix=st.text(max_size=20),
           answer=st.text(alphabet="abcdefg", min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_monotone_under_superstrings(self, text, prefix, suffix, answer):
        if contains_answer(text, {answer}):
            assert contains_answer(prefix + text + suffix, {answer})

    def test_lowering_makes_no_word_boundary_or_punctuation(self):
        # the lemma the one-word test rests on, over every code point:
        # punctuation and whitespace lower to themselves, and nothing else
        # lowers to text holding either
        chars = [chr(code) for code in range(sys.maxunicode + 1)]
        marks = frozenset(string.punctuation).union(
            char for char in chars if char.isspace())
        wrong = [char for char in chars
                 if (char.lower() != char if char in marks
                     else not marks.isdisjoint(char.lower()))]
        assert wrong == []
        # in context a capital sigma may lower to the final form instead
        assert "AΣ".lower() == "aς" and "ς" not in marks

    # words, marks and separators whose lowering is not one code point to
    # one, or whose case depends on the neighbours
    PIECES = ["a", "b", "ab", "σ", "ς", "Σ", "ΑΣ", "İ", "i", "I", "\u0307",
              "\u0301", "\u00ad", "ß", "ẞ", "\u212a", "k", "ǅ", "\u0345",
              " ", " ", "\u00a0", "\u2003", "\x1c", "\n", ".", ",", "'",
              "(", ")", "-", "?!", "..."]

    @staticmethod
    def reference(text, answers):
        """The definition: both strings normalized, then a substring test."""
        normalized = normalize_for_match(text)
        return any(target and target in normalized
                   for target in map(normalize_for_match, answers))

    def test_equals_the_normalized_substring_test(self):
        rng = random.Random(29)
        hits = 0
        for _ in range(20000):
            text = "".join(rng.choices(self.PIECES, k=rng.randint(0, 14)))
            answers = []
            for _ in range(rng.randint(1, 3)):
                kind = rng.random()
                if kind < 0.5 and text:
                    # a cut of the text: one word or several, with or
                    # without the punctuation around them
                    start = rng.randrange(len(text))
                    answers.append(text[start:rng.randint(start + 1,
                                                          len(text))])
                elif kind < 0.6:
                    answers.append("".join(rng.choices("(.)!' ", k=3)))
                else:
                    answers.append("".join(
                        rng.choices(self.PIECES, k=rng.randint(1, 5))))
            want = self.reference(text, answers)
            assert contains_answer(text, answers) == want, (text, answers)
            hits += want
        # both outcomes are well covered
        assert 4000 < hits < 16000

    @pytest.mark.parametrize("answers", [["..."], ["", " "], ["?!", "''"]])
    def test_answers_that_are_all_punctuation_never_match(self, answers):
        assert not contains_answer("... ?! '' x", answers)

    def test_text_normalized_once_and_only_for_multi_word_answers(
            self, monkeypatch):
        seen = []
        normalize = corpus_module.normalize_for_match
        monkeypatch.setattr(corpus_module, "normalize_for_match",
                            lambda text: seen.append(text) or normalize(text))
        text = "The Eiffel (Tower) stands in Paris."
        assert contains_target(text, ["lyon", "paris"])
        assert seen == []
        assert contains_target(text, ["eiffel lyon", "tower stands"])
        # one normalized text serves every multi-word target
        assert seen == [text]

    def test_answer_targets_drop_answers_with_no_word(self):
        assert answer_targets(["(Paris)", "...", "New  York"]) == \
            ["paris", "new york"]
        with pytest.raises(ValueError, match="non-empty"):
            answer_targets([])


class TestSubdocuments:
    def doc(self, n_sentences):
        text = " ".join(f"Sentence number {i} here." for i in range(n_sentences))
        return make_document("d", "t", text)

    def test_five_sentences_window_three(self):
        subs = generate_subdocuments(self.doc(5))
        assert [(s.start_sentence, s.sentence_count) for s in subs] == [
            (0, 3), (1, 3), (2, 3)]

    def test_short_document_single_whole_subdoc(self):
        subs = generate_subdocuments(self.doc(2))
        assert len(subs) == 1
        assert subs[0].sentence_count == 2

    def test_exact_window_single_subdoc(self):
        assert len(generate_subdocuments(self.doc(3))) == 1

    def test_text_is_concatenation_of_sentences(self):
        doc = self.doc(5)
        sub = generate_subdocuments(doc)[1]
        assert sub.text == " ".join(doc.sentence_texts()[1:4])
        assert sub.token_count == count_tokens(sub.text)

    @pytest.mark.parametrize("n", [1, 4, 9, 10, 11, 7])
    def test_total_and_covering(self, n):
        doc = self.doc(n)
        subs = generate_subdocuments(doc)
        assert len(subs) == max(n - 2, 1)
        covered = set()
        for sub in subs:
            covered.update(range(sub.start_sentence,
                                 sub.start_sentence + sub.sentence_count))
        assert covered == set(range(n))

    @given(text=st.text(alphabet=st.characters(codec="ascii",
                                               exclude_categories=("Cc",)),
                        max_size=300).filter(str.strip))
    @settings(max_examples=200, deadline=None)
    def test_window_counts_equal_counting_the_text(self, text):
        doc = make_document("d", "t", text)
        for sub in generate_subdocuments(doc):
            assert sub.token_count == count_tokens(sub.text)
        whole = whole_document_subdoc(doc)
        assert whole.token_count == count_tokens(whole.text)

    def test_each_sentence_tokenized_once(self, monkeypatch):
        counted = []

        def counting(text):
            counted.append(text)
            return count_tokens(text)

        monkeypatch.setattr(corpus_module, "count_tokens", counting)
        doc = self.doc(12)
        first = generate_subdocuments(doc)
        assert generate_subdocuments(doc) == first
        assert len(first) == 10
        assert sorted(counted) == sorted(doc.sentence_texts())

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 12])
    def test_window_cache_matches_joined_sentences(self, n):
        doc = self.doc(n)
        texts = doc.sentence_texts()
        size = min(n, 3)
        want = [(" ".join(texts[start:start + size]), start)
                for start in range(n - size + 1)]
        subs = generate_subdocuments(doc)
        assert [(s.text, s.start_sentence) for s in subs] == want
        assert list(doc.windows) == [text for text, _ in want]
        assert [count_tokens(text) for text in doc.windows] == \
            [s.token_count for s in subs]
        assert [doc.subdocument(s.start_sentence) for s in subs] == subs
        # computed once: later calls read the same strings
        assert generate_subdocuments(doc) == subs
        assert all(a.text is text for a, text in zip(
            generate_subdocuments(doc), doc.windows))

    def test_no_sentences_no_windows(self):
        doc = make_document("d", "t", "  ")
        with pytest.raises(ValueError, match="'d' has no sentences"):
            generate_subdocuments(doc)
        with pytest.raises(ValueError, match="'d' has no sentences"):
            doc.windows

    def test_whole_document_subdoc(self):
        doc = self.doc(4)
        sub = whole_document_subdoc(doc)
        assert sub.sentence_count == 4
        assert sub.text == " ".join(doc.sentence_texts())


class TestRecords:
    def test_qa_requires_answers(self):
        with pytest.raises(ValueError):
            QARecord("q", "question?", frozenset())

    @pytest.mark.parametrize("answer,reason", [
        ("", "no word"), (" \t", "no word"), ("?!", "no word"),
        ("'...'", "no word"), (None, "not a string"), (1984, "not a string")])
    def test_qa_refuses_an_answer_that_cannot_match(self, answer, reason):
        with pytest.raises(ValueError, match=f"'q'.*{reason}"):
            QARecord("q", "question?", frozenset({"Paris", answer}))

    def test_corpus_rejects_duplicates(self):
        doc = make_document("a", "", "Text.")
        with pytest.raises(DuplicateDocumentError):
            Corpus([doc, doc])
