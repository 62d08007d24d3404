"""On-disk format of every saved artifact.

A file is one JSON header line followed by the artifact's arrays, each
written with ``np.save``: an ``int32``, ``int64`` or ``uint64`` array keeps
its dtype, every other array is written as float64. The header carries the
format name, the format version, any provider fingerprint and the small
fields (ids, labels, seeds, layer sizes, thresholds); its ``arrays`` entry
names the arrays in payload order. Saving the same object twice writes the
same bytes.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping

import numpy as np

VERSION = 2

# the integer dtypes an array keeps on disk; load accepts these and float64
INTEGER_DTYPES = frozenset(
    np.dtype(t) for t in (np.int32, np.int64, np.uint64))


class IndexIntegrityError(RuntimeError):
    """A persisted artifact is malformed, of another format or version, or
    inconsistent with the corpus or the provider."""


class _Fields(dict):
    """A loaded header or array map; reading a key the file lacks raises
    ``IndexIntegrityError`` naming the file and the key."""

    def __init__(self, where: str, items=()):
        super().__init__(items)
        self.where = where

    def __missing__(self, key):
        raise IndexIntegrityError(f"{self.where} {key!r}; rebuild it")


def save(path: str | Path, kind: str, meta: Mapping,
         arrays: Mapping[str, np.ndarray]) -> None:
    """Write ``meta`` as the header and ``arrays`` as the payload of a
    ``kind`` file at exactly ``path``."""
    header = {"format": f"leanrag-{kind}", "version": VERSION,
              "arrays": list(arrays), **meta}
    # an open handle, since np.save given a str path appends ".npy"
    with open(path, "wb") as handle:
        handle.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        for array in arrays.values():
            array = np.asarray(array)
            if array.dtype not in INTEGER_DTYPES:
                array = np.asarray(array, dtype=np.float64)
            np.save(handle, array, allow_pickle=False)


def load(path: str | Path, kind: str) -> tuple[dict, dict[str, np.ndarray]]:
    """(header, arrays by name) of a ``kind`` file. A file of another format
    or version, a bad header, an array of a dtype ``save`` never writes, or
    a short, corrupt or overlong payload raises ``IndexIntegrityError``, and
    so does reading a header field or an array the file lacks."""
    expected = f"leanrag-{kind}"
    with open(path, "rb") as handle:
        try:
            header = json.loads(handle.readline())
        except ValueError as exc:  # also covers undecodable bytes
            raise IndexIntegrityError(f"{path}: bad header: {exc}") from exc
        if not isinstance(header, dict) or header.get("format") != expected:
            raise IndexIntegrityError(f"{path}: not a {expected} file")
        if header.get("version") != VERSION:
            raise IndexIntegrityError(
                f"{path}: {expected} version {header.get('version')!r}, "
                f"expected {VERSION}; rebuild it")
        arrays = _Fields(f"{path}: no array")
        for name in header.get("arrays", []):
            try:
                arrays[name] = np.load(handle, allow_pickle=False)
            except (ValueError, EOFError) as exc:
                raise IndexIntegrityError(
                    f"{path}: array {name!r} unreadable: {exc}") from exc
            dtype = arrays[name].dtype
            if dtype != np.float64 and dtype not in INTEGER_DTYPES:
                raise IndexIntegrityError(
                    f"{path}: array {name!r} has dtype {dtype}")
        if handle.read(1):
            raise IndexIntegrityError(f"{path}: data after the last array")
    return _Fields(f"{path}: no header field", header), arrays


def check_provider(name: str, fingerprint: str | None, dim: int | None,
                   provider, fields: str = "") -> None:
    """Raise ``IndexIntegrityError`` unless an artifact built with
    ``fingerprint`` and embedding width ``dim`` matches ``provider``.
    ``fields`` is what the artifact appends to the provider fingerprint;
    ``dim`` None (an empty artifact) skips the width check."""
    expected = provider.fingerprint + fields
    if fingerprint != expected:
        raise IndexIntegrityError(
            f"{name} built with {fingerprint!r}, provider gives {expected!r}")
    if dim is not None and dim != provider.dim:
        raise IndexIntegrityError(
            f"{name} dim {dim} != provider dim {provider.dim}")
