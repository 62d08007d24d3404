"""On-disk format of every saved artifact.

A file is one JSON header line followed by the artifact's arrays, each
written with ``np.save``: an ``int32``, ``int64`` or ``uint64`` array keeps
its dtype, every other array is written as float64. The header carries the
format name, the format's version, any provider fingerprint and the small
fields (ids, labels, seeds, layer sizes, thresholds); its ``arrays`` entry
names the arrays in payload order. Saving the same object twice writes the
same bytes.

Load reads no more than ``save`` writes: for each array, the ``.npy`` 1.0
header ``np.save`` gives a C-ordered array of one of those four dtypes,
then the array's bytes, read straight into a new array of its own. Any
other header is refused, naming the file and the array.
"""

from __future__ import annotations

import functools
import json
import math
import os
import re
from pathlib import Path
from typing import Callable, Mapping, NamedTuple

import numpy as np

# a format's version, unless VERSIONS names another; a file of another
# version is refused. The index and the NN reference went to 3 when their
# rows lost their text digests
VERSION = 2
VERSIONS = {"index": 3, "nnref": 3}

# the integer dtypes an array keeps on disk; load accepts these and float64
INTEGER_DTYPES = frozenset(
    np.dtype(t) for t in (np.int32, np.int64, np.uint64))
# the dtypes load accepts, by the ``descr`` np.save writes for each
DESCRS = {dtype.str.encode(): dtype
          for dtype in (np.dtype(np.float64), *INTEGER_DTYPES)}
# a .npy 1.0 array begins with this, then its header's length (uint16 LE)
NPY_MAGIC = b"\x93NUMPY\x01\x00"
# the header np.save writes for a C-ordered array: its dtype and its shape
# ("()", "(3,)", "(2, 3)"), then spaces up to a newline
NPY_HEADER = re.compile(
    rb"\{'descr': '([^']*)', 'fortran_order': False, "
    rb"'shape': \((|\d+,|\d+(?:, \d+)+)\), \} *\n")
DIGITS = re.compile(rb"\d+")


class IndexIntegrityError(RuntimeError):
    """A persisted artifact is malformed, of another format or version, or
    inconsistent with the corpus or the provider."""


class Check(NamedTuple):
    """What a header field must be: ``valid`` says whether a value is,
    ``expected`` says it in words."""

    valid: Callable[[object], bool]
    expected: str


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _list_of(kind: type) -> Callable[[object], bool]:
    """A list whose items are all of exactly type ``kind`` (so no bool
    passes for an int), checked without a Python call per item."""
    return lambda value: isinstance(value, list) and \
        set(map(type, value)) <= {kind}


COUNT = Check(lambda v: _is_int(v) and v >= 0, "an int >= 0")
POSITIVE = Check(lambda v: _is_int(v) and v >= 1, "an int >= 1")
FRACTION = Check(
    lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
    and 0 <= v <= 1, "a number in [0, 1]")
LAYER_SIZES = Check(
    lambda v: _list_of(int)(v) and len(v) >= 2 and min(v) >= 1,
    "a list of at least two ints >= 1")
FINGERPRINT = Check(lambda v: v is None or isinstance(v, str),
                    "a string or null")
STRINGS = Check(_list_of(str), "a list of strings")
FLAGS = Check(_list_of(bool), "a list of booleans")
LABELS = Check(lambda v: _list_of(int)(v) and set(v) <= {0, 1},
               "a list of 0s and 1s")


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
    header = {"format": f"leanrag-{kind}",
              "version": VERSIONS.get(kind, VERSION),
              "arrays": list(arrays), **meta}
    # an open handle, since np.save given a str path appends ".npy"
    with open(path, "wb") as handle:
        handle.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        for array in arrays.values():
            array = np.asarray(array)
            if array.dtype not in INTEGER_DTYPES:
                array = np.asarray(array, dtype=np.float64)
            np.save(handle, array, allow_pickle=False)


def load(path: str | Path, kind: str,
         **checks: Check) -> tuple[dict, dict[str, np.ndarray]]:
    """(header, arrays by name) of a ``kind`` file. A file of another format
    or version, a bad header, an ``arrays`` field that is not a list of
    strings, a header field that ``checks`` names and that is missing or
    fails its check, an array of a dtype ``save`` never writes or with a
    ``.npy`` header it never writes, or a short or overlong payload raises
    ``IndexIntegrityError`` naming the file (and the array), and so does
    reading a header field or an array the file lacks."""
    expected = f"leanrag-{kind}"
    with open(path, "rb") as handle:
        line = handle.readline()
        try:
            header = json.loads(line)
        except ValueError as exc:  # also covers undecodable bytes
            raise IndexIntegrityError(f"{path}: bad header: {exc}") from exc
        if not isinstance(header, dict) or header.get("format") != expected:
            raise IndexIntegrityError(f"{path}: not a {expected} file")
        version = VERSIONS.get(kind, VERSION)
        if header.get("version") != version:
            raise IndexIntegrityError(
                f"{path}: {expected} version {header.get('version')!r}, "
                f"expected {version}; rebuild it")
        header = _Fields(f"{path}: no header field", header)
        for name, check in {"arrays": STRINGS, **checks}.items():
            if not check.valid(header[name]):
                raise IndexIntegrityError(
                    f"{path}: header field {name!r} must be "
                    f"{check.expected}, got {header[name]!r}; rebuild it")
        arrays = _Fields(f"{path}: no array")
        # the bytes after what has been read
        left = os.fstat(handle.fileno()).st_size - len(line)
        for name in header["arrays"]:
            prefix = handle.read(10)
            if prefix[:8] != NPY_MAGIC:
                raise IndexIntegrityError(
                    f"{path}: array {name!r} is not a .npy 1.0 array: it "
                    f"starts {prefix!r}")
            length = int.from_bytes(prefix[8:], "little")
            npy = handle.read(length)
            left -= len(prefix) + len(npy)
            if len(npy) < length:
                raise IndexIntegrityError(
                    f"{path}: array {name!r} header runs past the end of "
                    f"the file")
            match = NPY_HEADER.fullmatch(npy)
            if match is None:
                raise IndexIntegrityError(
                    f"{path}: array {name!r} header is not one np.save "
                    f"writes for a C-ordered array: {npy.rstrip()!r}")
            descr, shape = match.groups()
            dtype = DESCRS.get(descr)
            if dtype is None:
                descr = descr.decode("latin-1")
                raise IndexIntegrityError(
                    f"{path}: array {name!r} has dtype {descr}")
            shape = tuple(map(int, DIGITS.findall(shape)))
            size = math.prod(shape) * dtype.itemsize
            if size > left:
                raise IndexIntegrityError(
                    f"{path}: array {name!r} needs {size} bytes, the file "
                    f"has {left} left")
            array = np.empty(shape, dtype)
            if handle.readinto(array) != size:
                raise IndexIntegrityError(
                    f"{path}: array {name!r} ends before its {size} bytes")
            left -= size
            arrays[name] = array
        if left:
            last = header["arrays"][-1:]
            raise IndexIntegrityError(
                f"{path}: {left} bytes after the last array {last}")
    return header, arrays


def loader(load: Callable) -> Callable:
    """``load(path)`` or ``load(cls, path)``, any ``ValueError`` it raises
    raised as ``IndexIntegrityError`` naming the file."""
    @functools.wraps(load)
    def checked(*args, **kwargs):
        try:
            return load(*args, **kwargs)
        except ValueError as exc:
            path = [*args, *kwargs.values()][-1]
            raise IndexIntegrityError(f"{path}: {exc}") from exc
    return checked


def check_provider(name: str, fingerprint: str | None, dim: int,
                   provider, fields: str = "") -> None:
    """Raise ``IndexIntegrityError`` unless an artifact built with
    ``fingerprint`` and embedding width ``dim`` matches ``provider``.
    ``fields`` is what the artifact appends to the provider fingerprint."""
    expected = provider.fingerprint + fields
    if fingerprint != expected:
        raise IndexIntegrityError(
            f"{name} built with {fingerprint!r}, provider gives {expected!r}")
    if dim != provider.dim:
        raise IndexIntegrityError(
            f"{name} dim {dim} != provider dim {provider.dim}")
