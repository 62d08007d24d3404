"""Deterministic, labeled random streams derived from one root seed.

Every stochastic component draws from its own named stream so that a
component can be re-run in isolation and reproduce exactly what it did
inside a full run.
"""

from __future__ import annotations

import hashlib

import numpy as np


def stable_hash(text: str) -> int:
    """A 64-bit hash of ``text`` that, unlike ``hash``, is the same in every
    process."""
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def derive_rng(root_seed: int, label: str) -> np.random.Generator:
    """A generator unique to (root_seed, label), stable across runs."""
    return np.random.default_rng(np.random.SeedSequence(
        [int(root_seed) & 0xFFFFFFFFFFFFFFFF, stable_hash(label)]))


def derive_seed(root_seed: int, label: str) -> int:
    """A 63-bit integer seed unique to (root_seed, label)."""
    return int(derive_rng(root_seed, label).integers(0, 2 ** 63 - 1))
