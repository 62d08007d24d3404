"""Seeded inputs and per-workload settings for the benchmark.

All workloads use the planted-answer scheme of the test suite. Every
question names its own attribute and entity; its gold answer is one shared
token, planted in one sentence of the question's answer document.
Adversarial questions get near-verbatim query echoes that outrank the
answer document by cosine similarity. "Known" questions use a
common-knowledge phrasing, the scripted LLM answers them without passages,
and their answer document is repeated, so both recognizer facets fire for
them. A third of the nearest-neighbour reference questions share that
phrasing and are scripted the same way.

Short documents are the answer sentence plus one filler sentence; long ones
have 12 sentences, with the entity recurring away from the answer sentence,
so that windows without the answer still look relevant.

Everything the program sees is produced here from the workload seed: the
corpus, the timed, annotation and reference question sets, the LLM script
and the pipeline settings.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from leanrag.pipeline import build_provider

SHARED_ANSWER = "quixilshared"
PROVIDER = {"kind": "hash", "dim": 256, "seed": 0}
# Skip exactly the known questions: their neighbours were answered without
# retrieval, and some retrieved document is answer-like.
RECOGNIZER = {"delta_ltod": -4.0, "s_l": 0.0, "s_n": 0.67, "k_neighbors": 10}
SCORER_HIDDEN = (48, 24)
# Long-tail questions get a phrasing of the same length as known ones, so
# that one hash collision cannot pull their neighbours over. The question
# words share no bucket of the PROVIDER embedder with any other fixed word.
KNOWN_PREFIX = "famous widely known"
OBSCURE_PREFIX = "niche rarely cited"

_FILLER = ("the archive holds many records about history and trade routes "
           "over centuries of careful note keeping by patient scribes").split()
_LETTERS = np.array(list("abcdefghijklmnopqrstuvwxyz"))


@dataclass(frozen=True)
class Workload:
    """Sizes and pipeline settings of one workload."""

    name: str
    sentences: int  # per long document; 0 for short documents
    n_questions: int  # timed; the scorer annotates the first n_train
    n_train: int
    n_nnref: int
    n_filler: int
    n_adversarial: int
    distractors_heavy: int
    distractors_light: int
    n_known: int
    known_copies: int
    top_retrieve: int
    top_rerank: int
    per_question_k: int
    scorer_epochs: int
    detector_epochs: int
    detector_samples: int
    load_reps: int  # load_pipeline calls per round: 3 for loads under 0.5 s

    def scaled(self, **changes) -> "Workload":
        return Workload(**{**self.__dict__, **changes})


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "short-500": Workload(
        name="short-500", sentences=0, n_questions=100, n_train=24,
        n_nnref=2000, n_filler=100, n_adversarial=25, distractors_heavy=12,
        distractors_light=2, n_known=10, known_copies=5, top_retrieve=100,
        top_rerank=10, per_question_k=50, scorer_epochs=20,
        detector_epochs=150, detector_samples=100, load_reps=3),
    "long-mixed": Workload(
        name="long-mixed", sentences=12, n_questions=100, n_train=20,
        n_nnref=200, n_filler=500, n_adversarial=30, distractors_heavy=3,
        distractors_light=1, n_known=20, known_copies=3, top_retrieve=20,
        top_rerank=10, per_question_k=10, scorer_epochs=20,
        detector_epochs=150, detector_samples=100, load_reps=3),
}
WORKLOADS["short-20k"] = WORKLOADS["short-500"].scaled(
    name="short-20k", n_filler=20000, load_reps=2)

# Tiny sizes for the smoke test: every code path in seconds.
_SMOKE = dict(n_questions=16, n_train=8, n_adversarial=4, scorer_epochs=15,
              detector_epochs=20, detector_samples=30)
SMOKE = {
    "short-500": WORKLOADS["short-500"].scaled(
        n_nnref=60, n_filler=30, n_known=3, top_retrieve=30, **_SMOKE),
    "short-20k": WORKLOADS["short-20k"].scaled(
        n_nnref=60, n_filler=400, n_known=3, top_retrieve=30, **_SMOKE),
    "long-mixed": WORKLOADS["long-mixed"].scaled(
        n_nnref=40, n_filler=30, n_known=4, **_SMOKE),
}


@dataclass
class Inputs:
    """Documents as (id, title, text); question sets as (question_id,
    question, answers); the scripted LLM as JSONL script entries."""

    docs: list[tuple[str, str, str]]
    timed: list[tuple[str, str, list[str]]]
    train: list[tuple[str, str, list[str]]]
    nnref: list[tuple[str, str, list[str]]]
    script: list[dict]


_FIXED_WORDS = (f"{KNOWN_PREFIX} {OBSCURE_PREFIX} {SHARED_ANSWER} "
                "value is scholars wrote dossier study continues papers "
                "ledger").split() + _FILLER


@lru_cache(maxsize=None)
def _bucket(token: str) -> int:
    return int(np.flatnonzero(_provider().embed(token))[0])


@lru_cache(maxsize=1)
def _provider():
    return build_provider(PROVIDER)


def _word(rng: np.random.Generator, head: str = "", avoid: str = "") -> str:
    """A random token that shares no embedding bucket with a fixed word.

    A unique token hashed onto, say, the bucket of a filler word would tie
    its question to every filler-heavy document, or onto a bucket of the
    known phrasing would make a long-tail question look known; both would
    make the planted structure depend on hash luck instead of the seed's
    intent. ``avoid`` is a token this one must not share a bucket with,
    such as the question's other unique token."""
    reserved = {_bucket(word) for word in [*_FIXED_WORDS, *avoid.split()]}
    while True:
        token = head + "".join(rng.choice(_LETTERS, size=7))
        if _bucket(token) not in reserved:
            return token


def _filler(rng: np.random.Generator, count: int = 1) -> list[str]:
    return [" ".join(rng.choice(_FILLER, size=8)).capitalize() + "."
            for _ in range(count)]


def _question(attribute: str, entity: str, known: bool) -> str:
    prefix = KNOWN_PREFIX if known else OBSCURE_PREFIX
    return f"{prefix} {attribute} {entity} value?"


def _from_memory(question: str) -> dict:
    return {"match": {"question": question},
            "answer": f"From memory, it is {SHARED_ANSWER}."}


def _answer_doc(rng, spec: Workload, attribute: str, entity: str,
                known: bool) -> tuple[str, str]:
    answer = f"The {attribute} value of {entity} is {SHARED_ANSWER}."
    if not spec.sentences:
        return "", " ".join([answer, *_filler(rng)])
    sents = _filler(rng, spec.sentences)
    for k in rng.choice(spec.sentences, size=3, replace=False):
        sents[k] = (f"Scholars of {entity} wrote about {_word(rng)} "
                    f"and {_word(rng)}.")
    sents[int(rng.integers(spec.sentences))] = answer
    title = f"{entity} dossier"
    return (f"{KNOWN_PREFIX} {title}" if known else title), " ".join(sents)


def _distractor(rng, spec: Workload, attribute: str,
                entity: str) -> tuple[str, str]:
    if not spec.sentences:
        return "", " ".join([f"{attribute} {entity} value study."] * 3)
    # no word shared with every question, so long distractors pull only
    # their own question's retrieval
    sents = _filler(rng, spec.sentences)
    for k in range(0, spec.sentences, 3):
        sents[k] = f"{attribute} {entity} study continues."
    return f"{entity} papers", " ".join(sents)


def make_inputs(spec: Workload, seed: int) -> Inputs:
    # seeded from (seed, workload name) only, independent of the library
    rng = np.random.default_rng([int(seed), zlib.crc32(spec.name.encode())])
    docs: list[tuple[str, str, str]] = []
    timed = []
    script: list[dict] = []
    order = rng.permutation(spec.n_questions)
    adversarial = set(order[:spec.n_adversarial].tolist())
    known = set(order[spec.n_adversarial:spec.n_adversarial
                      + spec.n_known].tolist())
    for i in range(spec.n_questions):
        entity = _word(rng, "ent")
        attribute = _word(rng, "attr", avoid=entity)
        question = _question(attribute, entity, i in known)
        timed.append((f"q{i}", question, [SHARED_ANSWER]))
        for c in range(spec.known_copies if i in known else 1):
            docs.append((f"ans{i}x{c}",
                         *_answer_doc(rng, spec, attribute, entity,
                                      i in known)))
        for d in range(spec.distractors_heavy if i in adversarial
                       else spec.distractors_light):
            docs.append((f"dis{i}x{d}",
                         *_distractor(rng, spec, attribute, entity)))
        if i in known:
            script.append(_from_memory(question))
    for f in range(spec.n_filler):
        count = spec.sentences or 2 + f % 2
        docs.append((f"fill{f}", "ledger" if spec.sentences else "",
                     " ".join(_filler(rng, count))))

    nnref = []
    for r in range(spec.n_nnref):
        entity = _word(rng, "ref")
        question = _question(_word(rng, "ref", avoid=entity), entity,
                             r % 3 == 0)
        nnref.append((f"r{r}", question, [SHARED_ANSWER]))
        if r % 3 == 0:
            script.append(_from_memory(question))
    script.append({"match": {"pattern": f"(?s){SHARED_ANSWER}"},
                   "answer": f"The answer is {SHARED_ANSWER}."})
    script.append({"match": {"pattern": "(?s).*"},
                   "answer": "I cannot find the answer."})

    # known questions are the only source of label-mismatched annotation
    # pairs, so the annotation slice always holds one
    train = timed[:spec.n_train]
    if known and not known & set(range(spec.n_train)):
        train = [*train, timed[min(known)]]
    return Inputs(docs=docs, timed=timed, train=train, nnref=nnref,
                  script=script)
