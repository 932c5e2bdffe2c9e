"""The activation-function catalog and its interval/approximation machinery.

The catalog is closed: six named functions plus three structured forms that
the layer constructions need: piecewise-linear interpolants, finite ReLU
combinations, and merged pairs.  A merged activation embeds two functions in
one continuous curve: the left piece, shifted so its largest intended input
`left_max` lands at -1, the right piece shifted so its smallest intended
input `right_min` lands at +1, and the straight segment joining the two seam
values in between.

`relu_approximate` and `modulus_delta` are closed forms, so their results are
proofs: one sizes its grid from sup|f''|, the other divides by a Lipschitz bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Union

import numpy as np

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
    "interpolation_error",
    "curvature",
    "lipschitz",
    "modulus_delta",
    "activation_label",
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
            with np.errstate(over="ignore"):  # exp(-x) = inf gives the right limit, 0
                return 1.0 / (1.0 + np.exp(-x))
        if f.name == "sin":
            return np.sin(x)
        return np.abs(x)
    if isinstance(f, PiecewiseLinear):
        xs, ys = np.array(f.points).T
        return np.interp(x, xs, ys)
    if isinstance(f, ReluSum):
        out = np.zeros_like(x)
        for a, b, c in f.terms:
            out += c * np.maximum(0.0, a * x - b)
        return out
    if isinstance(f, Merged):
        # Each piece runs only on its own inputs, so a merge chain evaluates
        # every function it embeds once per input, not once per level.
        if x.ndim != 1:
            return apply_vec(f, x.ravel()).reshape(x.shape)
        seam_left, seam_right = f.seams
        out = seam_left + (x + 1.0) * 0.5 * (seam_right - seam_left)
        left, right = x <= -1.0, x >= 1.0
        out[left] = apply_vec(f.left, x[left] + (f.left_max + 1.0))
        out[right] = apply_vec(f.right, x[right] + (f.right_min - 1.0))
        return out
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
            term = Interval(max(0.0, inner.lo), max(0.0, inner.hi)).scale(c)
            lo += term.lo
            hi += term.hi
        return Interval(lo, hi)
    if isinstance(f, Merged):
        return _merged_interval(f, y)
    raise TypeError(f"not an activation: {f!r}")


def _sin_interval(y: Interval) -> Interval:
    if math.isnan(y.width):  # both ends at the same infinity: an overflowed argument
        raise ValueError(f"the argument of sin has the non-finite bound {y!r}")
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
    return reduce(Interval.hull, pieces)


# -- constructions -------------------------------------------------------------

def merge(left: Activation, left_max: float, right: Activation, right_min: float) -> Merged:
    """One activation embedding both: left on inputs <= left_max (shifted to
    land below -1), right on inputs >= right_min (shifted to land above +1)."""
    return Merged(left, left_max, right, right_min)


def pl_to_relu_sum(f: PiecewiseLinear) -> ReluSum:
    """Exact ReLU-combination form of a piecewise-linear function."""
    return _hinges(*np.array(f.points).T)


@np.errstate(over="ignore", invalid="ignore")
def _hinges(xs: np.ndarray, ys: np.ndarray) -> ReluSum:
    """The ReLU combination of the broken line through the knots (xs, ys), xs
    strictly increasing, constant beyond the extremes: the level left of the
    first knot is c*relu(0*x + 1), and each slope change a hinge at its knot."""
    # Knots a subnormal step apart give an inf slope, quietly, as float
    # arithmetic does; the errstate keeps numpy from warning about it.
    # Slices difference the arrays as np.diff would, without its per-call
    # overhead, which costs more than the arithmetic on a grid of a few knots.
    slopes = np.zeros(len(xs) + 1)  # 0 beyond the extremes
    slopes[1:-1] = (ys[1:] - ys[:-1]) / (xs[1:] - xs[:-1])
    turns = slopes[1:] - slopes[:-1]
    kinks = turns != 0.0
    hinges = [(1.0, x, t) for x, t in zip(xs[kinks].tolist(), turns[kinks].tolist())]
    return ReluSum(([(0.0, -1.0, ys[0])] if ys[0] != 0.0 else []) + hinges)


# sup|f''| on the real line: sin'' = -sin; tanh'' = -2 tanh sech^2 peaks at
# tanh = 1/sqrt(3); sigmoid'' = s(1-s)(1-2s) peaks at s = (3 -+ sqrt(3))/6.
_CURVATURE = {"sin": 1.0, "tanh": 4.0 / math.sqrt(27.0), "sigmoid": 1.0 / math.sqrt(108.0)}


# The exact ReLU forms: relu(x); x = relu(x) - relu(-x); |x| = relu(x) + relu(-x).
_EXACT = {RELU: ((1.0, 0.0, 1.0),), ID: ((1.0, 0.0, 1.0), (-1.0, 0.0, -1.0)),
          ABS: ((1.0, 0.0, 1.0), (-1.0, 0.0, 1.0))}


def relu_approximate(f: Activation, y: Interval, eps: float, *, max_points: int = 4097) -> ReluSum:
    """A ReLU combination within eps of f on y, proven by the interpolation bound.

    relu, id, abs, ReluSum and PiecewiseLinear come back exact, on the whole
    line, and sin, tanh and sigmoid are interpolated on ceil(width / h) + 1
    uniform knots with h = sqrt(8 eps / sup|f''|), which bounds the error on
    each cell by h^2/8 * sup|f''| = eps.  Raises CertificateError when y is not
    finite, the grid needs more than max_points knots, or its step is below
    the float spacing, so that two knots round to the same float.
    """
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps!r}")
    if isinstance(f, ReluSum):
        return f
    if isinstance(f, PiecewiseLinear):
        return pl_to_relu_sum(f)
    if isinstance(f, Merged):
        raise ValueError("merged activations have no closed-form approximant")
    if f in _EXACT:
        return ReluSum(_EXACT[f])
    if not math.isfinite(y.width):
        raise CertificateError(f"no {eps:g}-certificate on the unbounded interval {y}")
    xs = np.linspace(y.lo, y.hi, _grid_cells(f, y, eps, max_points) + 1)
    if not (np.diff(xs) > 0.0).all():
        raise CertificateError(
            f"a {eps:g}-certificate on {y} needs a grid step below the float spacing"
        )
    return _hinges(xs, apply_vec(f, xs))


def _grid_cells(f: Named, y: Interval, eps: float, max_points: int) -> int:
    """The cells of the uniform grid relu_approximate interpolates sin, tanh or sigmoid on."""
    cells = y.width / math.sqrt(8.0 * eps / _CURVATURE[f.name])
    if not cells <= max_points - 1:
        raise CertificateError(
            f"a {eps:g}-certificate on {y} needs {cells:.4g} grid cells,"
            f" more than {max_points - 1}"
        )
    return math.ceil(cells)


def interpolation_error(f: Activation, y: Interval, eps: float, *,
                        max_points: int = 4097) -> float:
    """The bound on |f - relu_approximate(f, y, eps)| on y that its grid proves.

    With h the grid's step it is h^2/8 * sup|f''|, which the grid's size keeps
    at or below eps: the bound is the smaller of the two, since computing it in
    floats can round above eps.  0 for a function returned exactly.
    """
    m2 = curvature(f)
    if m2 == 0.0:
        return 0.0
    h = y.width / max(_grid_cells(f, y, eps, max_points), 1)
    return min(eps, h * h / 8.0 * m2)


def curvature(f: Activation) -> float:
    """The sup|f''| that relu_approximate sizes f's grid by; 0 for a function
    it returns exactly (relu, id, abs, ReluSum, PiecewiseLinear)."""
    return _CURVATURE.get(f.name, 0.0) if isinstance(f, Named) else 0.0


def lipschitz(f: Activation, y: Interval) -> float:
    """A Lipschitz constant of f on y: global for a named f, and for ReluSum and
    PiecewiseLinear the exact one, the largest |slope| of a piece meeting y."""
    if isinstance(f, Named):
        return 0.25 if f.name == "sigmoid" else 1.0
    if isinstance(f, Merged):
        raise ValueError("merged activations have no closed-form Lipschitz constant")
    if isinstance(f, PiecewiseLinear):
        f = pl_to_relu_sum(f)
    a, b, _ = np.array(f.terms).reshape(-1, 3).T
    # One probe inside each piece.  An unbounded end piece is probed at -inf or
    # inf, where a*x - b has the sign it keeps on the whole piece (a = 0 gives
    # NaN, and such a term adds no slope anyway).
    with np.errstate(divide="ignore", invalid="ignore"):
        kinks = b / a
        edges = np.unique(np.concatenate(([y.lo, y.hi], kinks[(kinks > y.lo) & (kinks < y.hi)])))
        probes = edges[:-1] / 2.0 + edges[1:] / 2.0
        slopes = sum((ai * ci) * (ai * probes - bi > 0.0) for ai, bi, ci in f.terms)
    return float(np.abs(slopes).max(initial=0.0))


def modulus_delta(f: Activation, y: Interval, eps: float, *, lip: float | None = None) -> float:
    """A delta with |f(x) - f(x')| < eps for x, x' in y at most delta apart:
    min(eps / L, width) / 2, with L the Lipschitz constant of f on y (computed
    by lipschitz unless given)."""
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps!r}")
    if y.width == 0.0:
        return eps / 2.0
    if lip is None:
        lip = lipschitz(f, y)
    return (min(eps / lip, y.width) if lip > 0.0 else y.width) / 2.0


# -- JSON interchange ----------------------------------------------------------

def activation_label(f: Activation) -> str:
    """A short name: the catalog name, or the kind of a structured form."""
    if isinstance(f, Named):
        return f.name
    if isinstance(f, PiecewiseLinear):
        return "pl"
    if isinstance(f, ReluSum):
        return "relusum"
    return "merged"


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


def _finite_rows(rows) -> tuple[tuple[float, ...], ...]:
    """rows as tuples of floats, none NaN or infinite (JSON readers accept both)."""
    rows = tuple(tuple(map(float, row)) for row in rows)
    if not all(math.isfinite(v) for row in rows for v in row):
        raise ValueError("activation numbers must be finite (no NaN or infinity)")
    return rows


# The deepest merged nesting activation_from_json accepts.  Evaluation recurses
# once per level; the compiler writes at most 4 levels for parsed input, one
# per catalog function after the first on a level.
_MERGE_DEPTH_LIMIT = 32


def activation_from_json(obj: dict) -> Activation:
    """The activation of an activation_to_json object, nested at most _MERGE_DEPTH_LIMIT deep."""
    return _activation_from_json(obj, 0)


def _activation_from_json(obj: dict, depth: int) -> Activation:
    """activation_from_json of an object inside depth merged levels."""
    kind = obj["kind"]
    if kind == "named":
        return Named(obj["name"])
    if kind == "pl":
        return PiecewiseLinear(_finite_rows(obj["points"]))
    if kind == "relusum":
        return ReluSum(_finite_rows(obj["terms"]))
    if kind == "merged":
        if depth == _MERGE_DEPTH_LIMIT:
            raise ValueError(f"merged activations nest deeper than {_MERGE_DEPTH_LIMIT} levels")
        return Merged(
            _activation_from_json(obj["left"], depth + 1),
            obj["M"],
            _activation_from_json(obj["right"], depth + 1),
            obj["m"],
        )
    raise ValueError(f"unknown activation kind {kind!r}")
