"""Timing that holds still on a shared host.

On a shared host (measured on a 2-vCPU Intel Xeon VM) the core this process
runs on slows to about half speed for stretches that last from a tenth of a
second to minutes, and CPU time slows with it: neither a median nor the
fastest of a run's repeats escapes a run that falls wholly into a slow
stretch. So every timed piece of work is bracketed by a probe, a fixed piece
of NumPy and Python work shaped like one SGD step on a small batch, and its
time is scaled by the run's fastest probe over the mean of the probes around
it. That reads as the time the piece takes at the fastest speed the host
gave the run. It assumes a slow stretch slows the probe and the program
alike; both are small NumPy calls driven from Python. The raw times are
kept beside the scaled ones.
"""

from __future__ import annotations

import functools
import math
import statistics
import time
from dataclasses import dataclass

import numpy as np

PROBE_STEPS = 100


class Probe:
    """Times a fixed piece of work; remembers the fastest time and how long
    all probes took together."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.normal(size=(64, 11))
        self._w = rng.normal(size=11)
        self.fastest = math.inf
        self.count = 0
        self.seconds = 0.0
        self._work()  # the first call pays for first-use set-up in NumPy

    def _work(self) -> None:
        x, v = self._x, self._w.copy()
        for _ in range(PROBE_STEPS):
            p = 1.0 / (1.0 + np.exp(-(x @ v)))
            v -= 0.01 * (x.T @ (p - 0.5)) / len(x)

    def __call__(self) -> float:
        start = time.perf_counter()
        self._work()
        took = time.perf_counter() - start
        self.fastest = min(self.fastest, took)
        self.count += 1
        self.seconds += took
        return took


@dataclass(frozen=True)
class Piece:
    """A timed piece of work and the mean time of the probes around it."""

    seconds: float
    probe: float

    def scaled(self, fastest: float) -> float:
        return self.seconds * fastest / self.probe


def timed_piece(probe: Probe, fn, *args, **kwargs):
    """(fn's result, the Piece that timed it)."""
    before = probe()
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    seconds = time.perf_counter() - start
    return result, Piece(seconds, (before + probe()) / 2)


class TrainingTimer:
    """Times each training between two probes, by wrapping `train` under
    the name each given module looks it up by. `probe_call(probe)` runs a
    probe (the traced run records a span around it). Undo with `remove`."""

    def __init__(self, modules, probe: Probe, probe_call=None):
        self.probe = probe
        self.probe_call = probe_call or (lambda p: p())
        self.pieces: list[Piece] = []
        self.probe_seconds = 0.0  # time the probes inside the pieces took
        self._originals = [(module, module.train) for module in modules]
        for module, original in self._originals:
            module.train = self._timed(original)

    def _timed(self, original):
        @functools.wraps(original)
        def timed(*args, **kwargs):
            before = self.probe_call(self.probe)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - start
                after = self.probe_call(self.probe)
                self.pieces.append(Piece(seconds, (before + after) / 2))
                self.probe_seconds += before + after
        return timed

    def take(self) -> tuple[list[Piece], float]:
        """The pieces since the last take and the probe time among them."""
        taken = (self.pieces, self.probe_seconds)
        self.pieces, self.probe_seconds = [], 0.0
        return taken

    def remove(self):
        for module, original in reversed(self._originals):
            module.train = original


def scaled_median(runs: list[list[Piece]], fastest: float) -> float:
    """A command's scaled latency from the pieces of its runs: the sum over
    pieces of each one's median scaled time; the median scaled total when
    the runs split into different numbers of pieces."""
    if len(set(map(len, runs))) > 1:
        return statistics.median(sum(p.scaled(fastest) for p in run) for run in runs)
    return sum(statistics.median(p.scaled(fastest) for p in column) for column in zip(*runs))
