"""Host-speed probe and the normalisation it feeds.

The probe is a fixed amount of work that does not touch the program under
test: a pure-Python integer loop, a dict fill, one ``np.sort`` of a fixed
array and a few element-wise NumPy passes over a small matrix, the kind of
work a sampler round does (about 10 ms on the reference host).  The benchmark times it while the
program is idle and divides every timing by how slow the host currently is:

    normalised = t * P_REF_MS / P_obs

where ``P_obs`` is the median of the probes run closest to ``t``.  On a
shared virtual machine the speed of the host drifts by tens of percent over
seconds; the probe drifts with it, so the ratio stays put.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Sequence

import numpy as np

#: Probe median (ms) on the reference host: a 2-vCPU KVM guest, Intel Xeon
#: (Sapphire Rapids class), Python 3.12, NumPy 2.x.  Normalised seconds are
#: seconds of that host at its calm speed.
P_REF_MS = 10.0

_LOOP_ITERATIONS = 15_000
_DICT_ENTRIES = 15_000
_SORT_INPUT = np.random.default_rng(20250212).random(300_000)
_SMALL_INPUT = np.random.default_rng(20250213).random((512, 200))
_SMALL_PASSES = 12


def probe_once() -> float:
    """Run the fixed probe once; returns its wall time in milliseconds."""
    start = time.perf_counter()
    acc = 0
    for i in range(_LOOP_ITERATIONS):
        acc += (i * i) % 7
    table = {}
    for i in range(_DICT_ENTRIES):
        table[i ^ 0x5BD1] = acc
    np.sort(_SORT_INPUT)
    for _ in range(_SMALL_PASSES):
        squashed = 1.0 / (1.0 + np.exp(-_SMALL_INPUT))
        (squashed * _SMALL_INPUT).sum(axis=1)
    return (time.perf_counter() - start) * 1000.0


def probe_many(count: int) -> List[float]:
    """``count`` back-to-back probes (ms)."""
    return [probe_once() for _ in range(count)]


def window_median(probes: Sequence[float], lo: int, hi: int) -> float:
    """Median of ``probes[lo:hi]`` with the window clipped to the list."""
    lo = max(0, lo)
    hi = min(len(probes), hi)
    if lo >= hi:
        raise ValueError("empty probe window")
    return statistics.median(probes[lo:hi])


def normalise(seconds: float, probe_ms: float) -> float:
    """Convert observed seconds to reference-host seconds."""
    if probe_ms <= 0.0:
        raise ValueError(f"probe time must be positive, got {probe_ms}")
    return seconds * P_REF_MS / probe_ms


def _helper_loop(connection) -> None:
    """Probe whenever asked, until told to stop (runs in the helper process)."""
    while connection.recv():
        connection.send(probe_once())


class PairedProbe:
    """Probes two CPUs at once: this process and a helper process.

    A single-threaded probe sees only the CPU it lands on, while a two-worker
    pool is slowed by either CPU being slow.  The paired reading is the mean
    of two simultaneous probes, which keep both CPUs busy.
    """

    def __init__(self) -> None:
        import multiprocessing

        context = multiprocessing.get_context("spawn")
        self._connection, theirs = context.Pipe()
        self._process = context.Process(target=_helper_loop, args=(theirs,), daemon=True)
        self._process.start()
        theirs.close()
        #: This process's own readings, comparable with a single probe.
        self.own: List[float] = []

    def probe(self) -> float:
        self._connection.send(True)
        mine = probe_once()
        self.own.append(mine)
        return (mine + self._connection.recv()) / 2.0

    def probe_many(self, count: int) -> List[float]:
        return [self.probe() for _ in range(count)]

    def close(self) -> None:
        try:
            self._connection.send(False)
        except OSError:
            pass
        self._process.join(timeout=10)
        if self._process.is_alive():
            self._process.terminate()
            self._process.join()
        self._connection.close()
