"""The activation-function catalog and its interval/approximation machinery.

The catalog is closed: six named functions plus three structured forms that
the layer constructions need: piecewise-linear interpolants, finite ReLU
combinations, and merged pairs.  A merged activation embeds two functions in
one continuous curve: the left piece, shifted so its largest intended input
`left_max` lands at -1, the right piece shifted so its smallest intended
input `right_min` lands at +1, and the straight segment joining the two seam
values in between.

`interpolant`, behind `relu_approximate`, and `modulus_delta` are closed
forms, so their results are proofs.  The first returns its ReLU combination
with the bound it proves and its Lipschitz constant.  Its broken line meets f
plus an offset at each knot, -t on a convex run of f and +t on a concave one
(t just under eps), so a cell's error lies in [min(c_a, c_b) + lo,
max(c_a, c_b) + hi], with [lo, hi] = [0, h^2/8 * M] on a convex cell and
[-h^2/8 * M, 0] on a concave one, M the sup of |f''| on it in closed form: a
cell may have h^2/8 * M up to 2t, the equioscillation idea of best uniform
approximation.  The knots come from one walk that makes each step the
longest whose cell meets the bound (knot equidistribution, as in de Boor, A
Practical Guide to Splines); the offset ramps from 0 at each inflection, a
cell across an inflection of sin is read as the two cells that meet there,
and no cell is steeper than sup_slope.  `knots_floor` proves how few
breakpoints any line within eps can have.  `modulus_delta` divides by a
Lipschitz bound.  tanh
and sigmoid are interpolated only where they still bend, on each side where
that saves knots: `knot_span` clips the interval to [-a, a], beyond which f
is within eps of its asymptotes.  The ReLU combination holds on the interval:
left of it and past a clipped high end it is constant, and past an unclipped
high end it continues its last slope, since a knot at the interval's high end
turns the slope only outside it and writes no term.  The proven error is the
larger of the cells' bound and the tail gap of the clip.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import accumulate
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
    "Interpolant",
    "interpolant",
    "relu_approximate",
    "knot_span",
    "knots_floor",
    "curvature",
    "lipschitz",
    "sup_slope",
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
            with np.errstate(invalid="ignore"):  # sin of an infinite x is NaN, quietly
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
    xs, ys = np.array(f.points).T
    return _hinges(xs, ys[0], _turns(xs, ys))


@np.errstate(over="ignore", invalid="ignore")
def _turns(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """The slope changes at the knots of the broken line through (xs, ys), xs
    strictly increasing, with slope 0 beyond the extremes."""
    # Knots a subnormal step apart give an inf slope, quietly, as float
    # arithmetic does; the errstate keeps numpy from warning about it.
    # Slices difference the arrays as np.diff would, without its per-call
    # overhead, which costs more than the arithmetic on a grid of a few knots.
    slopes = np.zeros(len(xs) + 1)  # 0 beyond the extremes
    slopes[1:-1] = (ys[1:] - ys[:-1]) / (xs[1:] - xs[:-1])
    return slopes[1:] - slopes[:-1]


def _hinges(xs: np.ndarray, level: float, turns: np.ndarray) -> ReluSum:
    """The ReLU combination of a broken line with knots xs, its level left of
    the first knot and its slope turns at the knots (_turns): the level is
    c*relu(0*x + 1), and each nonzero turn c a hinge c*relu(x - k) at its knot k."""
    kinks = turns != 0.0
    hinges = [(1.0, x, t) for x, t in zip(xs[kinks].tolist(), turns[kinks].tolist())]
    return ReluSum(([(0.0, -1.0, level)] if level != 0.0 else []) + hinges)


# sup|f''| on the real line: sin'' = -sin; tanh'' = -2 tanh sech^2 peaks at
# tanh = 1/sqrt(3); sigmoid'' = s(1-s)(1-2s) peaks at s = (3 -+ sqrt(3))/6.
_CURVATURE = {"sin": 1.0, "tanh": 4.0 / math.sqrt(27.0), "sigmoid": 1.0 / math.sqrt(108.0)}


# The exact ReLU forms: relu(x); x = relu(x) - relu(-x); |x| = relu(x) + relu(-x).
_EXACT = {RELU: ((1.0, 0.0, 1.0),), ID: ((1.0, 0.0, 1.0), (-1.0, 0.0, -1.0)),
          ABS: ((1.0, 0.0, 1.0), (-1.0, 0.0, 1.0))}


# The most knots an interpolant may have.
_MAX_POINTS = 4097


# tanh and sigmoid are lo + (hi - lo) * s(k*x), with s the logistic function:
# (lo, hi, k).  Beyond a = ln((hi - lo)/eps - 1)/k, which is atanh(1 - eps)
# and ln((1 - eps)/eps), f is within eps of its asymptotes; a is positive
# for eps below (hi - lo)/2.  The form keeps 1 - eps from rounding to 1.
_SATURATION = {TANH: (-1.0, 1.0, 2.0), SIGMOID: (0.0, 1.0, 1.0)}


def _logistic_bend(lo: float, hi: float, k: float):
    # _BENDS's entry for lo + (hi - lo) * s(k*x), s the logistic function:
    # f'' = (hi - lo) k^2 s''(k x), and |s''(t)| = u (1 - u)/(1 + u)^3 with
    # u = exp(-t) for t >= 0, which peaks at t = ln(2 + sqrt(3)).  1 - u is
    # -expm1(-t), which keeps its relative precision near 0.
    scale, peak = (hi - lo) * k * k, math.log(2.0 + math.sqrt(3.0)) / k

    def bend(x: float) -> float:
        u = math.exp(-k * x)
        return scale * u * -math.expm1(-k * x) / (1.0 + u) ** 3

    return bend, lambda x: peak - x if x <= peak else math.inf


def _sin_to_peak(x: float) -> float:
    # The phase of x from sin and cos, which reduce x accurately, so the
    # distance holds far from 0 too; |sin| peaks at the phases +-pi/2.
    return (math.pi / 2.0 - math.atan2(math.sin(x), math.cos(x))) % math.pi


# |f''| of sin, tanh and sigmoid is even, so the knot walk runs on |x|.  On
# x >= 0 it is monotone between its zeros and its peaks.  Each entry gives
# |f''(x)| and the distance from x >= 0 to the first peak at or after x.
_BENDS = {"sin": (lambda x: abs(math.sin(x)), _sin_to_peak),
          **{f.name: _logistic_bend(*s) for f, s in _SATURATION.items()}}

# f on x >= 0, and f(0).  sin, tanh and sigmoid are each odd about their value
# at 0, f(-x) = 2 f(0) - f(x), so the line's values left of 0 mirror those
# right of it, exactly in floats: -v is exact, and so is 1 - v for v in
# [1/2, 2].  A walk from 0 then turns no slope at 0.
_VALUES = {"sin": (math.sin, 0.0), "tanh": (math.tanh, 0.0),
           "sigmoid": (lambda x: 1.0 / (1.0 + math.exp(-x)), 0.5)}

# |f''| at a cell's end is scaled up by this margin, so that rounding in its
# few float operations cannot understate the cell's sup.  The offsets keep
# the same margin below eps, since the error at a knot is its offset.
_MARGIN = 1.0 + 1e-9

# Bisection steps for a cell whose sup is at its far end, and for a cell
# across an inflection once a doubled step has failed.  The bracket is
# already narrow, and a long bisection per knot costs more time than the
# knots it saves.
_BISECTIONS = 4

# Bisection steps for a cell whose first trial fails: one across an
# inflection of sin, or one that ends where the offset must fall before the
# next inflection.  Such a cell comes about once per inflection.
_SHORTEN = 8


@dataclass(frozen=True)
class Interpolant:
    """relu_approximate's ReLU combination for f, y and eps, and its proof."""

    relu_sum: ReluSum  # on y; for sin, tanh and sigmoid no term is 0 on all of y
    knots: tuple[float, ...]  # increasing; () for a function returned exactly
    values: tuple[float, ...]  # the line at its knots: f plus each knot's offset
    grid: Interval  # where the knots lie: y, or y clipped for tanh and sigmoid
    tail_gap: float  # the error past a clipped end; 0 where nothing is clipped
    bound: float  # the proven sup |f - relu_sum| on y
    lipschitz: float  # relu_sum's Lipschitz constant on y


def interpolant(f: Activation, y: Interval, eps: float) -> Interpolant:
    """A ReLU combination within eps of f on y, with its knots and its proof.

    relu, id, abs, ReluSum and PiecewiseLinear come back exact, on the whole
    line, with bound 0.  sin, tanh and sigmoid get the broken line of one
    walk (_knots): it meets f plus an offset at each knot, -t on a convex run
    of f and +t on a concave one, t just under eps, so that each cell's error
    spans the whole band [-t, t].  The bound is the largest of its cells' (at
    most eps) or, where an end is clipped, the larger tail gap.  No cell is
    steeper than sup_slope(f, y).  A turn that moves the line by less than
    1e-12 * eps is a rounding between two cells on one line, each as steep as
    that slope lets it: its knot is dropped, and the cells' bounds hold the
    straight line.  The line holds on y: a knot at y.hi writes
    no term, so past an unclipped high end the line continues its last slope;
    left of y and past a clipped high end it is constant.  Raises
    CertificateError when y is not finite, or the walk needs more than
    _MAX_POINTS knots or a step below the float spacing.
    """
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps!r}")
    if isinstance(f, Merged):
        raise ValueError("merged activations have no closed-form approximant")
    if isinstance(f, ReluSum):
        exact = f
    elif isinstance(f, PiecewiseLinear):
        exact = pl_to_relu_sum(f)
    elif f in _EXACT:
        exact = ReluSum(_EXACT[f])
    else:
        if not math.isfinite(y.width):
            raise CertificateError(f"no {eps:g}-certificate on the unbounded interval {y}")
        xs, ys, cells, gap = _knots(f, y, eps)
        knots, values = np.array(xs), np.array(ys)
        turns = _turns(knots, values)
        # A turn whose knot moves the line by under a thousandth of the
        # margin the offsets keep inside eps is a rounding between two cells
        # on one line: the knot goes, and the cells' bounds hold the line.
        # The straighter line can leave such a turn at a neighbour.
        while True:
            h, c = [b - a for a, b in zip(xs, xs[1:])], turns.tolist()
            noise = [i for i in range(1, len(xs) - 1)
                     if 0.0 < abs(c[i]) * h[i - 1] * h[i] / (h[i - 1] + h[i]) <= 1e-12 * eps]
            if not noise:
                break
            knots, values = np.delete(knots, noise), np.delete(values, noise)
            xs, ys, turns = knots.tolist(), values.tolist(), _turns(knots, values)
        if xs[-1] == y.hi:
            turns[-1] = 0.0  # it turns the slope only past y: no term
        # The knots lie in y, so the line's slopes on y are the running sums of
        # its turns; a turn cleared at y.hi repeats the last cell's slope.
        lip = max(map(abs, accumulate(turns.tolist())), default=0.0)
        return Interpolant(_hinges(knots, values[0], turns), tuple(xs), tuple(ys),
                           Interval(xs[0], xs[-1]), gap, max(min(eps, cells), gap), lip)
    return Interpolant(exact, (), (), y, 0.0, 0.0, lipschitz(exact, y))


def relu_approximate(f: Activation, y: Interval, eps: float) -> ReluSum:
    """interpolant(f, y, eps)'s ReLU combination, within eps of f on y.  For
    sin, tanh and sigmoid it holds on y only: left of y and past a clipped
    high end it is constant, and past an unclipped high end it continues its
    last slope."""
    return interpolant(f, y, eps).relu_sum


def knot_span(f: Activation, y: Interval, eps: float) -> tuple[Interval, float]:
    """y clipped to where f still bends, and the tail gap of that clip.

    For tanh and sigmoid the interval is y clipped to [-a, a], beyond which f
    is within eps of its asymptotes, and the tail gap is the larger distance,
    in floats, from f(-a) and f(a) to their asymptotes: it bounds the error of
    the constants the broken line holds past its clipped end knots.  a starts
    at its closed form and steps outward, from one float spacing and doubling,
    until that gap is at most eps, less the margin that covers the rounding of
    the line's cancelling hinges there.  Where nothing is clipped the gap is 0; so
    it is for every other f, and for an eps at which a would not be positive.
    _knots keeps each side of this clip only where it saves knots.
    """
    saturation = _SATURATION.get(f)
    if saturation is None or not eps < (saturation[1] - saturation[0]) / 2.0:
        return y, 0.0
    lo, hi, k = saturation
    a = math.log((hi - lo) * _MARGIN / eps - 1.0) / k
    step = math.ulp(a)
    while True:
        below, above = apply_vec(f, np.array([-a, a])).tolist()
        gap = max(below - lo, hi - above)
        if gap * _MARGIN <= eps:
            break
        a, step = a + step, 2.0 * step
    if -a <= y.lo and y.hi <= a:
        return y, 0.0
    return Interval(min(max(y.lo, -a), a), min(max(y.hi, -a), a)), gap


def _knots(f: Named, y: Interval, eps: float) -> tuple[list[float], list[float], float, float]:
    """The knots of sin, tanh or sigmoid's interpolant on the finite y for eps,
    the broken line's values at them, the largest error bound of its cells,
    and the tail gap.

    Each cell [a, b] has h^2/8 * M, with M its sup|f''| in closed form: the
    global sup when the cell holds a peak of |f''|, else the larger of |f''|
    at its ends, since |f''| is monotone between a zero and a peak.  With
    offsets c_a and c_b (the line less f at the knots) its error lies in
    [min(c_a, c_b) + lo, max(c_a, c_b) + hi], where [lo, hi] is
    [-h^2/8 * M, 0] on a concave cell and [0, h^2/8 * M] on a convex one.

    A point is one knot, so is a y that lies past knot_span's clip, and y is
    one cell, the chord, when h^2/8 * M <= eps; with no inflection inside,
    when h^2/8 * M <= 2t, the chord shifted by half of that towards f's
    concave side.  Otherwise the knots walk outward from 0 when y holds it,
    else from y's end nearest 0, so a symmetric y gets symmetric knots, with
    odd offsets.  The walk's offset u points to the concave side of its run,
    the stretch up to the next inflection (none for tanh and sigmoid, each
    k*pi for sin); t = eps less the margin.  It is 0 at an inflection and t,
    or the room it has, elsewhere at the start.  A cell from offset u takes
    the longest step (up to a few bisections) with h^2/8 * M <= t + u; the
    next offset is min(t, u + w*S - d, room), with S = sup_slope(f, y) less
    the margin and d the rise of f towards the concave side, so no cell is
    steeper than S; room is what the offset may hold and still fall to 0 at
    the next inflection within that slope, and for tanh and sigmoid what
    keeps the line inside their range.  A step that would pass an
    inflection crosses it in one cell, read as the two cells that meet
    there with the line's value there; its far offset is the largest that
    keeps the slope, the room and both readings within t, and the cell the
    longest that holds.  Where none holds the cell lands on the inflection.
    A cell whose error would leave [-t, t] is shortened.  A side of y that
    reaches past knot_span's clip ends at the clip, with the tail gap,
    where the walk would put another knot before y's end; else it ends at
    y's end.  Each side walks its own last cells from its last knot before
    that end.  A clipped grid that one cell covers is that one cell, the
    chord.
    """
    bend, to_peak = _BENDS[f.name]
    m2 = _CURVATURE[f.name]
    fx, mid = _VALUES[f.name]
    ceiling = _SATURATION[f][1] if f in _SATURATION else math.inf
    waves = f.name == "sin"  # inflections at each k*pi, not only at 0

    def refuse(need: str, x: float) -> CertificateError:
        return CertificateError(f"a {eps:g}-certificate for {f.name} on {y} needs {need}:"
                                f" the walk reached |x| = {x:.6g}")

    def sup(a: float, b: float) -> float:  # sup|f''| on [a, b], 0 <= a <= b
        return m2 if b - a >= to_peak(a) else max(bend(a), bend(b)) * _MARGIN

    def one_cell(a: float, b: float) -> float:  # h^2/8 * M of the cell [a, b]
        w = b - a
        return w * w / 8.0 * (sup(a, b) if a >= 0.0 else sup(-b, -a) if b <= 0.0
                              else sup(0.0, max(-a, b)))

    def concave(a: float, b: float) -> float:
        # 1 where f'' <= 0 on [a, b], -1 where f'' >= 0, 0 where its sign
        # changes inside: at 0, and for sin at each k*pi; a cell shorter than
        # pi holds at most one of these.
        if not waves:
            return 1.0 if a >= 0.0 else -1.0 if b <= 0.0 else 0.0
        sa, sb = math.sin(a), math.sin(b)  # -sin'' = sin
        if b - a >= math.pi or sa * sb < 0.0:
            return 0.0
        return math.copysign(1.0, sa if sa else sb)

    lo, hi = y.lo, y.hi
    if lo == hi:
        return [lo], [apply(f, lo)], 0.0, 0.0
    clip, gap = knot_span(f, y, eps)
    if clip.width == 0.0:  # y lies where f is within eps of an asymptote: one constant
        return [clip.lo], [apply(f, clip.lo)], 0.0, gap
    t = eps / _MARGIN
    whole, sign = one_cell(lo, hi), concave(lo, hi)
    if whole <= (2.0 * t if sign else eps):
        # The chord, shifted by half its error where f bends one way; the
        # shifted values round by an ulp, which a tiny y's bound must hold.
        c = sign * whole / 2.0
        return ([lo, hi], [apply(f, lo) + c, apply(f, hi) + c],
                whole / 2.0 * _MARGIN + 4.0 * math.ulp(2.0) if sign else whole, 0.0)
    # The sides of y around the start s, in |x|: each one's end and its clip.
    s = min(max(lo, 0.0), hi)
    left = (-lo, -clip.lo) if lo < s else None
    right = (hi, clip.hi) if hi > s else None
    sides = [side for side in (left, right) if side]
    stop, far = max(c for _, c in sides), max(end for end, _ in sides)
    steep = sup_slope(f, y)
    slope = steep / _MARGIN

    def longest(x: float, eps: float) -> float:
        """The longest step from x (up to a few bisections) whose cell meets
        h^2/8 * M <= eps."""
        # 8 eps, less the margin again: a knot x + h rounds, so a cell can be
        # a little wider than its step h.
        budget = 8.0 * eps / _MARGIN
        h0 = math.sqrt(budget / m2)  # a step that holds anywhere
        bx = bend(x) * _MARGIN
        to = to_peak(x)
        h = math.sqrt(budget / bx) if bx > 0.0 else math.inf  # the step if M = |f''(x)|
        if to == math.inf or (h < to and bend(x + h) * _MARGIN <= bx):
            return h
        if min(h, to) <= h0:
            return h0  # the cell holds a peak: M is the global sup
        top, h = min(h, to), h0  # the sup is at the cell's far end, before the peak
        for _ in range(_BISECTIONS):
            mid = 0.5 * (h + top)
            if mid * mid * max(bx, bend(x + mid) * _MARGIN) <= budget:
                h = mid
            else:
                top = mid
        return h

    known: dict[int, tuple[float, float, float]] = {}

    def run(k: int) -> tuple[float, float, float]:
        # The k-th run from 0: its sign, 1 where f is concave and -1 where
        # it is convex, its end (the next inflection) and f there.
        if k not in known:
            q = (k + 1) * math.pi if waves else math.inf
            known[k] = 1.0 if k % 2 == 0 else -1.0, q, fx(q) if q < far else 0.0
        return known[k]

    def room(b: float, fb: float, k: int) -> float:
        # The most the offset at b may be in the run k: it can still fall to
        # 0 at the run's end within the slope, or, where no inflection comes
        # before y's end, it keeps the line inside the range of tanh and
        # sigmoid.
        sigma, q, fq = run(k)
        return (q - b) * slope + sigma * (fq - fb) if q < far else ceiling - fb

    def stray(w: float, fa: float, fb: float, sigma: float) -> float:
        # f'' = -f for sin: an end a rounding past k*pi bends the other way on
        # a sliver, by at most |f| there.
        wrong = max(-sigma * fa, -sigma * fb)  # |f| at an end on the other side
        return w * w / 8.0 * _MARGIN * wrong if waves and wrong > 0.0 else 0.0

    def reading(w: float, m: float, ua: float, ub: float, spill: float) -> tuple[float, bool]:
        # The error bound of a one-signed cell of width w with sup|f''| m,
        # the offsets ua and ub towards its concave side and the stray
        # spill, and whether that is within t.
        v = w * w / 8.0 * m
        low, high = min(ua, ub), max(ua, ub)
        return max(v - low, high * _MARGIN + spill), v - low <= t and high + spill <= t

    def follow(a: float, fa: float, ua: float, b: float, k: int) -> tuple[float, float, bool]:
        """The offset at b (the line less f there) after the cell [a, b] of
        the run k, from f(a) = fa and the offset ua at a towards the run's
        concave side; the cell's error bound; and whether it meets [-t, t]
        and the slope.  A cell past the run's end holds the inflection and is
        read as two cells that meet there."""
        sigma, q, _ = run(k)
        fb, w = fx(b), b - a
        d = sigma * (fb - fa)  # f's rise towards the run's concave side
        if b <= q:
            spill = stray(w, fa, fb, sigma)
            ub = min(t - spill, ua + w * slope - d, room(b, fb, k))
            bound, ok = reading(w, sup(a, b), ua, ub, spill)
            return sigma * ub, bound, ok and ub >= ua - (w * steep + d)
        if b >= run(k + 1)[1]:  # a cell holds one inflection at most
            return 0.0, math.inf, False
        # Across the inflection the offset at b, ub, points to the next run's
        # concave side, and the line's offset at q is uq = c - lam * ub.  Of
        # the ub that keep the slope, the room and both cells' readings
        # within t, the largest.
        fq = fx(q)
        lam = (q - a) / w
        c = (1.0 - lam) * (sigma * fa + ua) + lam * sigma * fb - sigma * fq
        v1 = (q - a) ** 2 / 8.0 * sup(a, q)
        v2 = (b - q) ** 2 / 8.0 * sup(q, b)
        s1, s2 = stray(q - a, fa, fq, sigma), stray(b - q, fq, fb, -sigma)
        most = min(t - s2, room(b, fb, k + 1), d - ua + w * slope)
        ub = max(min(most, (c - v1 + t) / lam, (c + t - s2) / lam),
                 0.0, d - ua - w * slope, v2 - t, (c - t + s1) / lam, (c - t + v2) / lam)
        uq = c - lam * ub
        first, ok1 = reading(q - a, sup(a, q), ua, uq, s1)
        second, ok2 = reading(b - q, sup(q, b), -uq, ub, s2)
        ok = ok1 and ok2 and d - ua - w * steep <= ub <= most
        return -sigma * ub, max(first, second), ok

    def reach(x: float, fxx: float, u: float, k: int, below: float, good, top: float,
              limit: float):
        """The furthest end b in (below, limit] whose cell [x, b] in the run
        k holds, from the offset u at x: tried at top, doubled from x while
        that holds, then bisected towards below.  b with follow's result;
        or good, an end known to hold with its result, or None."""
        found = follow(x, fxx, u, top, k)
        while found[2] and top < limit:
            below, good = top, (top, found)
            top = min(x + 2.0 * (top - x), limit)
            found = follow(x, fxx, u, top, k)
        if found[2]:
            return top, found
        for _ in range(_SHORTEN if good is None else _BISECTIONS):
            trial = 0.5 * (below + top)
            found = follow(x, fxx, u, trial, k)
            if found[2]:
                below, good = trial, (trial, found)
            else:
                top = trial
        return good

    def step(x: float, fxx: float, u: float, k: int, h: float,
             end: float) -> tuple[float, float, float]:
        """The next knot from x, at most end, in the run k from the offset u
        at x towards its concave side, where the longest step is h: the
        knot, the offset there and the cell's error bound."""
        q = run(k)[1]
        got = None
        if x + h > q < end:  # the step passes the inflection: the longest cell across it
            limit = min(math.nextafter(run(k + 1)[1], 0.0), end)
            got = reach(x, fxx, u, k, q, None, min(q + longest(q, 2.0 * t), limit), limit)
        if not got:  # on the inflection or short of it, where the offset must fall before it
            nxt = min(x + h, q, end)
            got = reach(x, fxx, u, k, x, None, nxt, nxt)
        if not got or got[0] == x:
            raise refuse("a step below the float spacing", x)
        return got[0], *got[1][:2]

    def walk(x: float, cb: float, k: int, stop: float, end: float):
        """The knots from x, with the offset cb there, in the run k, until
        one reaches stop, each at most end: the knots, f and the offsets at
        them, the run at each and the cells' bounds."""
        fxx = fx(x)
        raw, fr, offsets, runs, cells = [x], [fxx], [cb], [k], []
        # The knots both sides have so far: a walk knot below the nearer
        # side's end is a knot of each.
        count = 1
        while x < stop:
            sigma, q, _ = run(k)
            last = follow(x, fxx, sigma * cb, end, k) if end < math.inf else None
            if last and last[2]:  # one cell to end
                x, (cb, bound, _) = end, last
            else:
                h = longest(x, t + sigma * cb)
                if end == math.inf and x + h >= stop:
                    # The next knot lies past every side's end, where each
                    # side walks its own last cells.
                    raw.append(x + h)
                    break
                x, cb, bound = step(x, fxx, sigma * cb, k, h, end)
            if x >= q:  # on or past an inflection: the next run bends the other way
                k += 1
            fxx = fx(x)
            raw.append(x)
            fr.append(fxx)
            offsets.append(cb)
            runs.append(k)
            cells.append(bound)
            count += 2 if x < near else 1
            if count > _MAX_POINTS:
                raise refuse(f"more than {_MAX_POINTS} knots", x)
        return raw, fr, offsets, runs, cells

    x = abs(s)
    k = 0  # the run holding x
    if waves:
        k = math.floor(x / math.pi)
        while (k + 1) * math.pi <= x:
            k += 1
    # From an inflection the offset starts at 0; elsewhere at t, or at the
    # room it has.
    u = 0.0 if x == k * math.pi else min(t, room(x, fx(x), k))
    near = min(c for _, c in sides) if left and right else 0.0
    raw, fr, offsets, runs, cells = walk(x, run(k)[0] * u, k, stop, math.inf)

    def side(end: float, c: float) -> tuple[list[float], list[float], float, bool]:
        n = bisect.bisect_left(raw, c)  # raw[:n] lie before the clip, raw[n] past it
        clipped = c < end and raw[n] < end
        last = c if clipped else end
        # The walk again from the last knot before last, to it.
        ks, fs, cs, _, bounds = walk(raw[n - 1], offsets[n - 1], runs[n - 1], last, last)
        # Past a clipped end the line holds its last value, f there plus its
        # offset, while f climbs at most the tail gap towards its asymptote;
        # the margin covers the rounding of the hinges that cancel out there.
        tail = max(abs(cs[-1]), abs(cs[-1] - gap)) * _MARGIN if clipped else 0.0
        values = [v + o for v, o in zip(fr[:n - 1] + fs, offsets[:n - 1] + cs)]
        return raw[:n - 1] + ks, values, max(cells[:n - 1] + bounds + [tail]), clipped

    walked = {end: side(*end) for end in sides}  # a symmetric y walks one side
    xs, vs, value, clipped = [], [], 0.0, False
    if left:
        ks, ws, value, clipped = walked[left]
        xs = [0.0 - k for k in reversed(ks)]
        vs = [2.0 * mid - w for w in reversed(ws)]
    if right:
        ks, ws, v, c = walked[right]
        xs += ks[1:] if left else ks
        vs += ws[1:] if left else ws
        value, clipped = max(value, v), clipped or c
    if len(xs) > _MAX_POINTS:
        raise refuse(f"more than {_MAX_POINTS} knots", x)
    if not clipped:
        return xs, vs, value, 0.0
    # Clipped, the bound is about eps anyway: one cell, where it holds, has
    # no knot at 0 to turn the slope.
    one = one_cell(xs[0], xs[-1])
    if len(xs) > 2 and one <= eps:
        return [xs[0], xs[-1]], [apply(f, xs[0]), apply(f, xs[-1])], max(one, gap * _MARGIN), gap
    return xs, vs, value, gap


# Where a pass of knots_floor may start, as fractions of its stretch: half
# an octave apart towards either end, near a zero of f'' or in a far tail.
_STARTS = sorted({0.5 ** (j / 2.0) for j in range(2, 61)}
                 | {1.0 - 0.5 ** (j / 2.0) for j in range(2, 61)} | {0.0})


def knots_floor(f: Activation, y: Interval, eps: float) -> int:
    """A floor on the breakpoints inside y of every broken line within eps of
    f on y; every ReLU combination of one variable is such a line.  0 for a
    function returned exactly, and on an unbounded y.

    A line on [p, b], against an f with |f''| >= m there, errs by at least
    m (b - p)^2 / 16 somewhere.  So a line within eps turns strictly inside
    each [p, b] with min|f''| (b - p)^2 > 16 eps, and disjoint such
    intervals count distinct breakpoints.  Between the zeros of f'' (0, and
    k*pi for sin) |f''| rises to one peak and falls, so its min on [p, b] is
    at an end.  Each stretch between zeros gets intervals laid from the end
    where the next one ends soonest towards its peak, then from its other
    end, each as short as |f''| at its near end allows: about the integral
    of sqrt(|f''| / (16 eps)) over y, less about one per stretch.
    """
    if not (isinstance(f, Named) and f.name in _BENDS and math.isfinite(y.width)):
        return 0
    bend = _BENDS[f.name][0]

    def lower(x: float) -> float:  # a floor on |f''(x)|
        return bend(abs(x)) / _MARGIN

    def reach(p: float, way: float) -> float:  # the near end of the interval from p
        m = lower(p)
        return p + way * 4.0 * math.sqrt(eps / m) * (1.0 + 1e-6) if m > 0.0 else way * math.inf

    zeros = [0.0] if f != SIN else [k * math.pi for k in range(
        math.ceil(y.lo / math.pi), math.floor(y.hi / math.pi) + 1)]
    edges = [y.lo] + [z for z in zeros if y.lo < z < y.hi] + [y.hi]
    count = 0
    for a, b in zip(edges, edges[1:]):
        stop = b  # up from a, then down from b to where the upward pass ended
        for way, start in ((1.0, a), (-1.0, b)):
            p = min([start + (stop - start) * r for r in _STARTS], key=lambda x: way * reach(x, way))
            end = start
            while True:
                nxt = reach(p, way)
                if way * (nxt - stop) > 0.0 or nxt == p or lower(nxt) < lower(p):
                    break
                count, p, end = count + 1, nxt, nxt
            stop = end
    return count


def curvature(f: Activation) -> float:
    """The sup|f''| on the real line, which caps the M of every cell of
    relu_approximate's knots; 0 for a function it returns exactly (relu, id,
    abs, ReluSum, PiecewiseLinear).  A merged activation has its pieces'
    larger one, though relu_approximate raises."""
    if isinstance(f, Named):
        return _CURVATURE.get(f.name, 0.0)
    if isinstance(f, Merged):
        return max(curvature(f.left), curvature(f.right))
    return 0.0


def lipschitz(f: Activation, y: Interval) -> float:
    """A Lipschitz constant of f on y: global for a named f, and for ReluSum and
    PiecewiseLinear the exact one, the largest |slope| of a piece meeting y."""
    if isinstance(f, Named):
        return 0.25 if f.name == "sigmoid" else 1.0
    if isinstance(f, Merged):
        raise ValueError("merged activations have no closed-form Lipschitz constant")
    if isinstance(f, PiecewiseLinear):
        f = pl_to_relu_sum(f)
    a, b, c = np.array(f.terms).reshape(-1, 3).T
    # The pieces between the kinks in y, and on each the terms that are on:
    # c*relu(a*x - b) is on right of its kink for a > 0 and left of it for
    # a < 0.  Read from the kinks' order, this holds on a piece one float
    # wide, whose midpoint would round to an end.  (a = 0 gives a NaN kink,
    # never on, and such a term adds no slope anyway.)
    with np.errstate(divide="ignore", invalid="ignore"):
        kinks = b / a
    edges = np.unique(np.concatenate(([y.lo, y.hi], kinks[(kinks > y.lo) & (kinks < y.hi)])))
    on = np.where(a > 0.0, kinks <= edges[:-1, None], kinks >= edges[1:, None])
    return float(np.abs(on @ (a * c)).max(initial=0.0))


def sup_slope(f: Named, y: Interval) -> float:
    """sup|f'| on y for sin, tanh and sigmoid, in closed form: it bounds the
    chord slopes of every interpolant of f whose knots lie in y.  |tanh'| and
    |sigmoid'| peak at 0 and fall away from it; |sin'| = |cos| is 1 at each
    k*pi and falls towards the midpoints between them."""
    if f.name == "sin":
        if y.width >= math.pi or math.floor(y.hi / math.pi) >= math.ceil(y.lo / math.pi):
            return 1.0
        return max(abs(math.cos(y.lo)), abs(math.cos(y.hi)))
    x = abs(min(max(0.0, y.lo), y.hi))  # the point of y nearest 0
    if f.name == "tanh":
        return 1.0 - math.tanh(x) ** 2
    u = math.exp(-x)
    return u / (1.0 + u) ** 2


def modulus_delta(f: Activation, y: Interval, eps: float) -> float:
    """A delta with |f(x) - f(x')| < eps for x, x' in y at most delta apart:
    min(eps / L, width) / 2, with L = lipschitz(f, y)."""
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps!r}")
    if y.width == 0.0:
        return eps / 2.0
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
