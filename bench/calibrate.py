"""Fixed amounts of work that use nothing from mplangc, to gauge host speed.

On a shared machine the speed of the cores drifts by up to 2x over minutes
as other tenants load the host.  During each round the benchmark runs short
calibration slices between its timed stages, in proportion to the time that
has passed, and reports each stage's time at a reference speed: scaled by
the slices' reference time over their measured time, for the slices run
around it.  A slower stretch of the host slows the slices as it slows the
program, and cancels out.  The slices do not run the program under test, so
a change to the program moves the scaled time exactly as it moves the raw
time.

A slice is made of parts, each about ``REFERENCE_PART_S`` on the reference
host: interpreted Python (a memoised tree walk and an integer loop), numpy
calls on small arrays, fresh medium arrays, and small dense products.  Each
workload names the parts of its slice after the kinds of work its route
does; see README.md, "Host speed".
"""

from __future__ import annotations

import time

import numpy as np

# Seconds one part takes on the reference host (a quiet stretch of a
# shared 2-core x86-64 VM, Python 3.11, numpy 2.4, one BLAS thread).
REFERENCE_PART_S = 0.0025

_RNG = np.random.default_rng(20220318)
_SMALL = _RNG.uniform(-1.0, 1.0, 2000)
_IDX = _RNG.integers(0, 2000, 6000)
_MEDIUM = _RNG.uniform(-1.0, 1.0, 60000)
_A = _RNG.uniform(-1.0, 1.0, (200, 200))


def _tree(depth: int):
    if depth == 0:
        return ("leaf",)
    return ("node", _tree(depth - 1), _tree(depth - 1))


_TREE = _tree(10)


def _walk(t, memo: dict) -> int:
    key = id(t)
    if key in memo:
        return memo[key]
    v = 1 if t[0] == "leaf" else (_walk(t[1], memo) + 2 * _walk(t[2], memo)) % 7
    memo[key] = v
    return v


def _python_part() -> int:
    total = sum(_walk(_TREE, {}) for _ in range(3))
    for i in range(14000):
        total = (total + i * i) % 1000003
    return total


def _numpy_part() -> float:
    x = _SMALL
    for _ in range(80):
        y = np.maximum(x, 0.0) + np.tanh(x) * 0.5
        x = np.bincount(_IDX, weights=y[_IDX], minlength=x.size) * 0.01 - 0.25
    return float(x[0])


def _medium_part() -> float:
    x = _MEDIUM
    for _ in range(6):
        x = np.maximum(x, 0.1) + np.tanh(x) * 0.5
        x = np.concatenate([x[1:], x[:1]])
    return float(x[0])


def _dense_part() -> float:
    out = np.zeros((1000, 1000))
    for k in range(4):
        out[200 * k:200 * (k + 1), 200 * k:200 * (k + 1)] = _A @ _A
    out[800:, 800:] = _A
    return float(out[0, 0])


PARTS = {"python": _python_part, "numpy": _numpy_part, "medium": _medium_part,
         "dense": _dense_part}


def host_speed(parts: tuple[str, ...], slices: int = 20) -> float:
    """The host's speed now, relative to the reference host."""
    funcs = [PARTS[name] for name in parts]
    start = time.perf_counter()
    for _ in range(slices):
        for part in funcs:
            part()
    return REFERENCE_PART_S * len(funcs) * slices / (time.perf_counter() - start)


class HostClock:
    """Rescales timed stages to the reference host speed.

    After each stage, ``calibrate()`` runs slices until they fill ``share``
    of the time since the clock started.  A stage's speed is that of the
    slices run just before it and just after it, so each stage is scaled by
    the host's speed at the time it ran.
    """

    def __init__(self, share: float, parts: tuple[str, ...]):
        self.share = share
        self.parts = [PARTS[name] for name in parts]
        self.reference_slice_s = REFERENCE_PART_S * len(parts)
        self.started = time.perf_counter()
        self.calibration_s = 0.0
        self.slices = 0
        # (slices, seconds) of the last group of slices run
        self.last_group = (0, 0.0)
        # stages timed since then: (times at reference speed, stage, seconds)
        self.pending: list[tuple[dict, str, float]] = []
        self.calibrate(force=True)

    def record(self, into: dict, stage: str, seconds: float) -> None:
        """Add the stage's time at reference speed to ``into[stage]``, after
        the next group of slices."""
        self.pending.append((into, stage, seconds))

    def calibrate(self, force: bool = False) -> None:
        n, spent = 0, 0.0
        while (force and n == 0) or self.calibration_s < self.share * (
                time.perf_counter() - self.started - self.calibration_s):
            dt = self.run_slice()
            n += 1
            spent += dt
            self.calibration_s += dt
        self.slices += n
        if n == 0:
            return
        before_n, before_s = self.last_group
        speed = self.reference_slice_s * (n + before_n) / (spent + before_s)
        for into, stage, seconds in self.pending:
            into[stage] += seconds * speed
        self.pending.clear()
        self.last_group = (n, spent)

    def speed(self) -> float:
        """Mean host speed so far, relative to the reference host."""
        return self.reference_slice_s * self.slices / self.calibration_s

    def run_slice(self) -> float:
        """Run one slice; return the seconds it took."""
        start = time.perf_counter()
        for part in self.parts:
            part()
        return time.perf_counter() - start
