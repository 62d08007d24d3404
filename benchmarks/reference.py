"""Rescaling timings by how fast the machine is while they are taken.

Shared machines change speed by tens of percent within seconds (another
tenant on the sibling hyperthread, frequency changes), in the same process
on the same inputs. A fixed reference routine, doing the same kinds of work
as the pipeline (keyed blake2b over short tokens like the hashing embedder,
small tanh matrix products like the MLPs, sorting tuples like the NN scan,
a JSON round trip like the artifact files), runs from a SIGALRM timer every
INTERVAL seconds for the whole run. A timed section's wall time, less the
time spent in the routine, is rescaled to a machine on which the routine
takes REFERENCE_MS:

    rescaled = (wall - routine time inside) * REFERENCE_MS / routine_ms

piece by piece between ticks, where routine_ms is the median routine time
of the ticks within WINDOW seconds of the piece. The ratio of the
program's work to the routine's is what a code change moves; the machine's
momentary speed divides out.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import signal
import statistics
import time

import numpy as np

# The routine's typical time on the host the bounds were calibrated on (a
# shared 2-core Xeon VM, Python 3.11, numpy 2.4, OpenBLAS pinned to one
# thread). Fixed, so that rescaled figures compare across runs and commits.
REFERENCE_MS = 1.7
INTERVAL = 0.05
WINDOW = 0.5


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(20240321)
        self._tokens = [f"token{i}x".encode() for i in range(200)]
        self._matrix = rng.standard_normal((32, 256))
        self._rows = [(float(x), f"q{i}") for i, x in
                      enumerate(rng.standard_normal(400))]
        self._text = json.dumps({"vectors": rng.standard_normal(
            (8, 64)).tolist()})
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._smooth: list[float] = []
        self._previous = None

    def _routine(self) -> int:
        acc = 0
        for token in self._tokens:
            acc ^= int.from_bytes(hashlib.blake2b(
                token, digest_size=8, key=b"bench").digest(), "little")
        v = np.zeros(256)
        for _ in range(20):
            v = np.tanh(self._matrix.T @ np.tanh(self._matrix @ v + 0.5))
        acc ^= len(sorted(self._rows, reverse=True))
        acc ^= len(json.dumps(json.loads(self._text)))
        return acc

    def measure_ms(self, reps: int = 5) -> float:
        """Median routine time of ``reps`` direct runs."""
        times = []
        for _ in range(reps):
            start = time.perf_counter()
            self._routine()
            times.append(1000.0 * (time.perf_counter() - start))
        return statistics.median(times)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self._routine()
        self.starts.append(start)
        self.ends.append(time.perf_counter())

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def probe_time(self, start: float, end: float) -> float:
        """Seconds the routine ran inside [start, end]."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        return sum(self.ends[i] - self.starts[i] for i in range(lo, hi))

    def _local_ms(self) -> list[float]:
        """Per tick, the median routine time of the ticks within
        WINDOW seconds either side."""
        if len(self._smooth) != len(self.starts):
            times = [1000.0 * (e - s)
                     for s, e in zip(self.starts, self.ends)]
            half = max(1, round(WINDOW / INTERVAL))
            self._smooth = [
                statistics.median(times[max(0, i - half):i + half + 1])
                for i in range(len(times))]
        return self._smooth

    def routine_ms(self, at: float) -> float:
        """The routine's local median time at moment ``at``."""
        local = self._local_ms()
        i = min(bisect.bisect_left(self.starts, at), len(local) - 1)
        return local[i]

    def rescaled(self, start: float, end: float) -> float:
        """Seconds of [start, end] outside the routine, rescaled piece by
        piece between ticks, each piece by the routine's local speed."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        edges = [start, *self.starts[lo:hi], end]
        total = 0.0
        for a, b in zip(edges, edges[1:]):
            work = b - a - self.probe_time(a, b)
            total += work * REFERENCE_MS / self.routine_ms((a + b) / 2)
        return total
