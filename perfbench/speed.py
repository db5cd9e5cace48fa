"""Machine-speed reference for normalizing times.

The benchmark runs on shared hosts whose effective CPU speed drifts by
tens of percent over minutes.  Each run therefore also times a fixed
reference slice (Python object work plus small-array numpy, the mix rwave
itself does) at regular points of the run, and reports times scaled to a
nominal machine on which one slice takes ``NOMINAL_S`` seconds.  The
slice uses no rwave code, so a change to rwave cannot move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 0.05

_TREE = ("+", ("*", "x", ("sqrt", "x")), ("/", ("exp", "x"), ("+", "x", 1.0)))


def _evaluate(node, x):
    if isinstance(node, str):
        return x
    if isinstance(node, float):
        return node
    if node[0] == "sqrt":
        return np.sqrt(_evaluate(node[1], x))
    if node[0] == "exp":
        return np.exp(_evaluate(node[1], x))
    a, b = _evaluate(node[1], x), _evaluate(node[2], x)
    if node[0] == "+":
        return a + b
    return a * b if node[0] == "*" else a / b


def reference_slice():
    """Seconds one fixed slice of work takes now."""
    t0 = time.perf_counter()
    x = np.linspace(0.1, 1.0, 64)
    acc = 0.0
    for _ in range(3000):
        acc += float(_evaluate(_TREE, x)[3])
    for _ in range(700):
        d = {(j, str(j)): j for j in range(100)}
        acc += sum(v for (_, s), v in d.items() if len(s) > 1)
    return time.perf_counter() - t0


class Speedometer:
    """Reference slices taken between operations, at least ``every``
    seconds apart, each time about ``share`` of the time since the last
    ones: long operations are bracketed by longer samples."""

    def __init__(self, every=1.0, share=0.05):
        self.every = every
        self.share = share
        self.slices = []
        self._last = None

    def sample(self, force=False):
        now = time.perf_counter()
        since = now - self._last if self._last is not None else 0.0
        if force or self._last is None or since >= self.every:
            n = max(2, round(self.share * since / NOMINAL_S))
            self.slices += [reference_slice() for _ in range(n)]
            self._last = time.perf_counter()

    def scale(self):
        """Factor turning a wall time measured in this run into nominal
        seconds: below 1 when the machine ran slow."""
        return NOMINAL_S / statistics.mean(self.slices)
