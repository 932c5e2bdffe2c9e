"""Correctness checks of the benchmark, with their tolerances.

Every check compares an output of the program with the independent
reference (``reference.py``) or with a property the method must have; none
compares with a stored copy of an earlier output.  A check that does not
hold is counted in a ``Tally`` as a wrong output; a route call that raises
is counted there as a failed operation.
"""

from __future__ import annotations

import json

import numpy as np

import reference

# Exact routes (ReLU, pointwise, addition-free, translation, interpreter)
# compute the same sums as the reference in another order, so they agree to
# rounding: relative 1e-9 with an absolute floor for values near 0.
RTOL = 1e-9
FLOOR = 1e-12
# Mixed mode shifts pre-activations by up to the network's largest |bias| and
# shifts them back inside the merged activation, which costs a few ulp of that
# shift per layer; 64 ulp of it leaves a wide margin and still rejects any
# real error (a bias off by 1 is 2^46 ulp away).
MIXED_ULPS = 64
# Image bounds are sound over the reals; the sampled values carry rounding.
BOUNDS_SLACK = 1e-9


class Tally:
    """Operations attempted, failed (raised) and wrong (a check did not hold)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.messages: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        if not ok:
            self.wrong += 1
            self.messages.append(what)
        return ok


def close(actual, expected, rtol: float = RTOL, floor: float = FLOOR) -> bool:
    """|actual - expected| <= max(floor, rtol * |expected|) everywhere."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if actual.shape != expected.shape:
        return False
    tol = np.maximum(floor, rtol * np.abs(expected))
    return bool((np.abs(actual - expected) <= tol).all())


def mixed_tolerance(net) -> float:
    """Absolute tolerance for a mixed-mode network: 64 ulp of its largest |bias|."""
    largest = max(float(np.max(np.abs(lyr.bias))) for lyr in net.layers)
    return MIXED_ULPS * float(np.finfo(float).eps) * max(1.0, largest)


def close_absolute(actual, expected, tol: float) -> bool:
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    return actual.shape == expected.shape and bool((np.abs(actual - expected) <= tol).all())


def within_epsilon(approx_values, source_values, eps: float) -> bool:
    """max |approximant - source| <= eps on the sampled nodes."""
    dev = np.abs(np.asarray(approx_values) - np.asarray(source_values))
    return bool(dev.max() <= eps)


def interval_contains(lo: float, hi: float, values) -> bool:
    values = np.asarray(values, dtype=float)
    slack = BOUNDS_SLACK * (1.0 + np.abs(values))
    return bool(((values >= lo - slack) & (values <= hi + slack)).all())


def verdict_holds(code: int, expected: int, stdout: str, left, right,
                  tolerance: float, abs_floor: float) -> bool:
    """A `check` exit code equals the known answer; an exit 5 also has to
    print a witness whose replay through the reference shows the deviation.

    `left` and `right` map a reference ``Instance`` to the operands' per-node
    outputs, shape (nodes, outputs).
    """
    if code != expected:
        return False
    if code != 5:
        return True
    _, _, witness_text = stdout.partition("\n")
    try:
        witness = json.loads(witness_text)
    except json.JSONDecodeError:
        return False
    inst = reference.Instance.from_json(witness["graph"], witness["features"])
    node = witness["node"]
    va = np.asarray(left(inst))[node]
    vb = np.asarray(right(inst))[node]
    allowed = np.maximum(abs_floor, tolerance * np.maximum(np.abs(va), np.abs(vb)))
    return (
        bool((np.abs(va - vb) > allowed).any())
        and close(witness["left"], va)
        and close(witness["right"], vb)
    )
