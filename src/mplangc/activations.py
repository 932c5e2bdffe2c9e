"""The activation-function catalog and its interval/approximation machinery.

The catalog is closed: six named functions plus three structured forms that
the layer constructions need: piecewise-linear interpolants, finite ReLU
combinations, and merged pairs.  A merged activation embeds two functions in
one continuous curve: the left piece, shifted so its largest intended input
`left_max` lands at -1, the right piece shifted so its smallest intended
input `right_min` lands at +1, and the straight segment joining the two seam
values in between.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np
from scipy.ndimage import maximum_filter1d, minimum_filter1d
from scipy.special import expit

from .errors import CertificateError
from .intervals import Interval

__all__ = [
    "Activation",
    "Named",
    "PiecewiseLinear",
    "ReluSum",
    "Merged",
    "ID",
    "RELU",
    "TANH",
    "SIGMOID",
    "SIN",
    "ABS",
    "apply",
    "apply_vec",
    "interval_image",
    "merge",
    "pl_to_relu_sum",
    "relu_approximate",
    "modulus_delta",
    "activation_to_json",
    "activation_from_json",
]

_NAMED = ("id", "relu", "tanh", "sigmoid", "sin", "abs")


@dataclass(frozen=True)
class Named:
    name: str

    def __post_init__(self):
        if self.name not in _NAMED:
            raise ValueError(f"unknown activation {self.name!r}")


@dataclass(frozen=True)
class PiecewiseLinear:
    """Breakpoints with strictly increasing x; constant beyond the extremes."""

    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        pts = tuple((float(x), float(y)) for x, y in self.points)
        if not pts:
            raise ValueError("need at least one breakpoint")
        for (x0, _), (x1, _) in zip(pts, pts[1:]):
            if not x0 < x1:
                raise ValueError("breakpoints must be strictly increasing in x")
        object.__setattr__(self, "points", pts)


@dataclass(frozen=True)
class ReluSum:
    """x -> sum of c * relu(a*x - b) over the (a, b, c) terms."""

    terms: tuple[tuple[float, float, float], ...] = ()

    def __post_init__(self):
        object.__setattr__(
            self, "terms", tuple((float(a), float(b), float(c)) for a, b, c in self.terms)
        )


@dataclass(frozen=True)
class Merged:
    left: "Activation"
    left_max: float
    right: "Activation"
    right_min: float

    def __post_init__(self):
        object.__setattr__(self, "left_max", float(self.left_max))
        object.__setattr__(self, "right_min", float(self.right_min))
        if not (math.isfinite(self.left_max) and math.isfinite(self.right_min)):
            raise ValueError("merge bounds must be finite")

    @cached_property
    def seams(self) -> tuple[float, float]:
        """The two pieces at their seams: left at left_max, right at right_min.

        Computed once per activation, so evaluating a chain of merges costs
        time linear in its depth.
        """
        return apply(self.left, self.left_max), apply(self.right, self.right_min)


Activation = Union[Named, PiecewiseLinear, ReluSum, Merged]

ID = Named("id")
RELU = Named("relu")
TANH = Named("tanh")
SIGMOID = Named("sigmoid")
SIN = Named("sin")
ABS = Named("abs")


# -- evaluation ----------------------------------------------------------------

def apply_vec(f: Activation, x: np.ndarray) -> np.ndarray:
    """Component-wise application of f to an array of any shape."""
    x = np.asarray(x, dtype=float)
    if isinstance(f, Named):
        if f.name == "id":
            return x.copy()
        if f.name == "relu":
            return np.maximum(0.0, x)
        if f.name == "tanh":
            return np.tanh(x)
        if f.name == "sigmoid":
            return expit(x)
        if f.name == "sin":
            return np.sin(x)
        return np.abs(x)
    if isinstance(f, PiecewiseLinear):
        xs = np.array([p[0] for p in f.points])
        ys = np.array([p[1] for p in f.points])
        return np.interp(x, xs, ys)
    if isinstance(f, ReluSum):
        out = np.zeros_like(x)
        for a, b, c in f.terms:
            out += c * np.maximum(0.0, a * x - b)
        return out
    if isinstance(f, Merged):
        left_vals = apply_vec(f.left, x + (f.left_max + 1.0))
        right_vals = apply_vec(f.right, x + (f.right_min - 1.0))
        seam_left, seam_right = f.seams
        bridge = seam_left + (x + 1.0) * 0.5 * (seam_right - seam_left)
        return np.where(x <= -1.0, left_vals, np.where(x >= 1.0, right_vals, bridge))
    raise TypeError(f"not an activation: {f!r}")


def apply(f: Activation, x: float) -> float:
    return float(apply_vec(f, np.array([x]))[0])


# -- interval images -----------------------------------------------------------

def interval_image(f: Activation, y: Interval) -> Interval:
    """A sound superset of {f(x) : x in y}; tight except for ReluSum."""
    if isinstance(f, Named):
        if f.name == "id":
            return y
        if f.name == "relu":
            return Interval(max(0.0, y.lo), max(0.0, y.hi))
        if f.name in ("tanh", "sigmoid"):
            return Interval(apply(f, y.lo), apply(f, y.hi))
        if f.name == "abs":
            if y.lo >= 0:
                return y
            if y.hi <= 0:
                return Interval(-y.hi, -y.lo)
            return Interval(0.0, max(-y.lo, y.hi))
        return _sin_interval(y)
    if isinstance(f, PiecewiseLinear):
        candidates = [apply(f, y.lo), apply(f, y.hi)]
        candidates += [py for px, py in f.points if y.lo <= px <= y.hi]
        return Interval(min(candidates), max(candidates))
    if isinstance(f, ReluSum):
        lo = hi = 0.0
        for a, b, c in f.terms:
            inner = y.scale(a).shift(-b)
            clamped = Interval(max(0.0, inner.lo), max(0.0, inner.hi))
            term = clamped.scale(c)
            lo += term.lo
            hi += term.hi
        return Interval(lo, hi)
    if isinstance(f, Merged):
        return _merged_interval(f, y)
    raise TypeError(f"not an activation: {f!r}")


def _sin_interval(y: Interval) -> Interval:
    if y.width >= 2.0 * math.pi:
        return Interval(-1.0, 1.0)
    candidates = [math.sin(y.lo), math.sin(y.hi)]
    # Extrema of sin sit at pi/2 + k*pi, alternating between +1 and -1.
    k_lo = math.ceil((y.lo - math.pi / 2.0) / math.pi)
    k_hi = math.floor((y.hi - math.pi / 2.0) / math.pi)
    for k in range(k_lo, k_hi + 1):
        candidates.append(1.0 if k % 2 == 0 else -1.0)
    return Interval(min(candidates), max(candidates))


def _merged_interval(f: Merged, y: Interval) -> Interval:
    pieces: list[Interval] = []
    if y.lo <= -1.0:
        sub = Interval(y.lo, min(y.hi, -1.0)).shift(f.left_max + 1.0)
        pieces.append(interval_image(f.left, sub))
    if y.hi >= 1.0:
        sub = Interval(max(y.lo, 1.0), y.hi).shift(f.right_min - 1.0)
        pieces.append(interval_image(f.right, sub))
    if y.hi > -1.0 and y.lo < 1.0:
        xs = (max(y.lo, -1.0), min(y.hi, 1.0))
        a, b = apply_vec(f, np.array(xs)).tolist()
        pieces.append(Interval(min(a, b), max(a, b)))
    out = pieces[0]
    for piece in pieces[1:]:
        out = out.hull(piece)
    return out


# -- constructions -------------------------------------------------------------

def merge(left: Activation, left_max: float, right: Activation, right_min: float) -> Merged:
    """One activation embedding both: left on inputs <= left_max (shifted to
    land below -1), right on inputs >= right_min (shifted to land above +1)."""
    return Merged(left, left_max, right, right_min)


def pl_to_relu_sum(f: PiecewiseLinear) -> ReluSum:
    """Exact ReLU-combination form of a piecewise-linear function.

    The constant level left of the first breakpoint becomes c*relu(0*x + 1);
    each slope change contributes a hinge term at its breakpoint.
    """
    xs = [p[0] for p in f.points]
    ys = [p[1] for p in f.points]
    terms: list[tuple[float, float, float]] = []
    if ys[0] != 0.0:
        terms.append((0.0, -1.0, ys[0]))
    prev_slope = 0.0
    for j in range(len(xs)):
        if j < len(xs) - 1:
            slope = (ys[j + 1] - ys[j]) / (xs[j + 1] - xs[j])
        else:
            slope = 0.0
        delta = slope - prev_slope
        if delta != 0.0:
            terms.append((1.0, xs[j], delta))
        prev_slope = slope
    return ReluSum(tuple(terms))


def relu_approximate(
    f: Activation,
    y: Interval,
    eps: float,
    *,
    max_points: int = 4097,
    samples: int = 100_000,
) -> ReluSum:
    """A ReLU combination within eps of f on y (sampled sup-norm certificate).

    Piecewise-linear interpolation of f on a grid over y, refined until the
    certificate holds, then converted exactly to ReluSum form.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if isinstance(f, Named) and f.name == "relu":
        return ReluSum(((1.0, 0.0, 1.0),))
    if isinstance(f, Named) and f.name == "id":
        return ReluSum(((1.0, 0.0, 1.0), (-1.0, 0.0, -1.0)))
    if isinstance(f, ReluSum):
        return f
    if isinstance(f, PiecewiseLinear):
        return pl_to_relu_sum(f)
    if y.width == 0.0:
        c = apply(f, y.lo)
        return ReluSum(((0.0, -1.0, c),)) if c != 0.0 else ReluSum(())

    grid = np.linspace(y.lo, y.hi, samples)
    target = apply_vec(f, grid)
    k = 17
    while True:
        xs = np.linspace(y.lo, y.hi, k)
        ys = apply_vec(f, xs)
        err = float(np.max(np.abs(target - np.interp(grid, xs, ys))))
        if err <= eps:
            pl = PiecewiseLinear(tuple(zip(xs.tolist(), ys.tolist())))
            return pl_to_relu_sum(pl)
        if k >= max_points:
            raise CertificateError(
                f"no {eps:g}-certificate on {y} within {max_points} grid points"
                f" (best error {err:g})"
            )
        k = 2 * (k - 1) + 1


def modulus_delta(
    f: Activation,
    y: Interval,
    eps: float,
    *,
    samples: int = 100_000,
) -> float:
    """A delta so the sampled oscillation of f within any delta-window on y
    stays below eps; halved once after estimation to stay conservative."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if y.width == 0.0:
        return max(eps, 1.0) / 2.0
    xs = np.linspace(y.lo, y.hi, samples)
    vals = apply_vec(f, xs)
    h = y.width / (samples - 1)
    delta = y.width
    while True:
        size = int(math.ceil(delta / h)) + 1
        osc = float(
            np.max(
                maximum_filter1d(vals, size=size, mode="nearest")
                - minimum_filter1d(vals, size=size, mode="nearest")
            )
        )
        if osc < eps:
            return delta / 2.0
        delta /= 2.0
        if delta <= h:
            # Finer windows than the grid resolve nothing; adjacent samples
            # already oscillate >= eps, so hand back the grid step itself.
            return delta / 2.0


# -- JSON interchange ----------------------------------------------------------

def activation_to_json(f: Activation) -> dict:
    if isinstance(f, Named):
        return {"kind": "named", "name": f.name}
    if isinstance(f, PiecewiseLinear):
        return {"kind": "pl", "points": [[x, y] for x, y in f.points]}
    if isinstance(f, ReluSum):
        return {"kind": "relusum", "terms": [[a, b, c] for a, b, c in f.terms]}
    if isinstance(f, Merged):
        return {
            "kind": "merged",
            "left": activation_to_json(f.left),
            "M": f.left_max,
            "right": activation_to_json(f.right),
            "m": f.right_min,
        }
    raise TypeError(f"not an activation: {f!r}")


def activation_from_json(obj: dict) -> Activation:
    kind = obj["kind"]
    if kind == "named":
        return Named(obj["name"])
    if kind == "pl":
        return PiecewiseLinear(tuple((x, y) for x, y in obj["points"]))
    if kind == "relusum":
        return ReluSum(tuple((a, b, c) for a, b, c in obj["terms"]))
    if kind == "merged":
        return Merged(
            activation_from_json(obj["left"]),
            obj["M"],
            activation_from_json(obj["right"]),
            obj["m"],
        )
    raise ValueError(f"unknown activation kind {kind!r}")
