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
plus an offset at each knot, towards the side f bends to and up to t, just
under eps, so that a piece of a cell on which f bends one way, with h^2/8 *
M up to 2t (M the sup of |f''| on it in closed form), spends the whole band
[-t, t]: the equioscillation idea of best uniform approximation.  The knots
come from one walk, left to right, that makes each step the longest whose
cell holds (knot equidistribution, as in de Boor, A Practical Guide to
Splines), found by one bracketed search; a cell across an inflection is read
as the two pieces that meet there, and no cell is steeper than `lipschitz`,
the one slope rule, which the planner reads too.  `knots_floor` proves how few
breakpoints any line within eps can have.  `modulus_delta` divides by a
Lipschitz bound.  tanh and sigmoid are interpolated only where they still
bend: `knot_span` clips the interval to [-a, a], beyond which f is within
eps of its asymptotes.  The ReLU combination holds on the interval: left of
it and past a clipped high end it is constant, and past an unclipped high
end it continues its last slope, since a knot at the interval's high end
turns the slope only outside it and writes no term.  The proven error is the
larger of the cells' bound and the tail gap of the clip.
"""

from __future__ import annotations

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
    # u = exp(-|t|), which peaks at |t| = ln(2 + sqrt(3)).  1 - u is
    # -expm1(-|t|), which keeps its relative precision near 0.
    scale = (hi - lo) * k * k

    def bend(x: float) -> float:
        u = math.exp(-k * abs(x))
        return scale * u * -math.expm1(-k * abs(x)) / (1.0 + u) ** 3

    return bend, math.log(2.0 + math.sqrt(3.0)) / k


# |f''| of sin, tanh and sigmoid, and how far from its run's inflection (0
# for tanh and sigmoid, each k*pi for sin) it peaks; between an inflection
# and a peak it is monotone.
_BENDS = {"sin": (lambda x: abs(math.sin(x)), math.pi / 2.0),
          **{f.name: _logistic_bend(*s) for f, s in _SATURATION.items()}}


def _sigmoid(x: float) -> float:
    u = math.exp(-abs(x))  # never overflows
    return 1.0 / (1.0 + u) if x >= 0.0 else u / (1.0 + u)


# f at a point in scalar floats, which the walk reads far more cheaply than
# apply's arrays.
_SCALAR = {"sin": math.sin, "tanh": math.tanh, "sigmoid": _sigmoid}

# |f''| at a cell's end is scaled up by this margin, so that rounding in its
# few float operations cannot understate the cell's sup.  The offsets keep
# the same margin below eps, since the error at a knot is its offset.
_MARGIN = 1.0 + 1e-9

# Bisection steps of the walk's one search once a trial has failed: for a
# step towards a peak of |f''| or against the room, which reads only f and
# |f''|, and for a cell across an inflection, or one that ends where the
# offset must fall before the next inflection.  Such a cell comes about
# once per inflection.  Fewer steps cost knots, or certificates.
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
    walk (_knots): it meets f plus an offset at each knot, up to t, just
    under eps, towards the side f bends to, so that its cells' errors span
    the whole band [-t, t].  The bound is the largest of its cells' (at most
    eps) or, where an end is clipped, the larger tail gap.  No cell is
    steeper than lipschitz(f, y).  A turn that moves the line by less than
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
    exact = _exact(f)
    if exact is None:
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
    _knots starts at the left clip and ends at the right one where its walk
    gets there before y.hi.
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

    A point is one knot, and so is a y past knot_span's clip.  Otherwise one
    walk runs from the left clip where y reaches past it, else from y.lo, to
    y.hi, or to the right clip where it gets there first.  f bends one way
    on each run between inflections (0 for tanh and sigmoid, each k*pi for
    sin).  A knot's offset c is the line less f there.  Read towards the
    concave side of a piece (a run's part of a cell) with v = w^2/8 * M,
    both of the piece's end offsets lie in the band [v - t, t], t = eps less
    the margin, so that the piece errs by at most t.

    Every trial cell [a, b] is read by one rule.  It is cut at the
    inflection q it crosses, if any, where the line's offset is affine in
    the far offset c_b, so that each condition bounds c_b to an interval:
    each piece's band, and past q an offset on the new run's concave side,
    so that the next cell keeps its budget; the slope cap, lipschitz(f, y)
    less the margin or f's own chord; the room to fall to 0 by the next
    inflection within that slope; tanh's and sigmoid's range; and at a
    right clip the tail [gap - t, t].  The cell holds when the intervals
    meet, and c_b is the end of their intersection towards b's concave
    side.  The start's offset is that end of its own band, room, range and
    left tail, kept inside the band and the tail.

    Every knot comes from two calls of one bracketed search, reach: tried
    at a first point, doubled away from the knot while it holds and is
    short of its limit, then bisected _SHORTEN times.  The first finds the
    step on f and |f''| alone: the longest whose piece fits the band from
    the knot's offset and, short of the inflection, the room, from one that
    fits the band anywhere up to one sized from |f''| at the knot.  The
    second finds the cell: where the step reaches the inflection q, from
    the mirror point 2q - a (|f''| is even about each inflection) to the
    end of the next run; else at the step's end, bisected shorter if it
    fails.  A trial at the end is one cell to y.hi, else one to the right
    clip.
    """
    fx, (bend, to_peak) = _SCALAR[f.name], _BENDS[f.name]
    m2 = _CURVATURE[f.name]
    waves = f.name == "sin"  # inflections at each k*pi, not only at 0
    floor, ceiling = _SATURATION[f][:2] if f in _SATURATION else (-math.inf, math.inf)

    def refuse(need: str, x: float) -> CertificateError:
        return CertificateError(f"a {eps:g}-certificate for {f.name} on {y} needs {need}:"
                                f" the walk reached |x| = {abs(x):.6g}")

    lo, hi = y.lo, y.hi
    if lo == hi:
        return [lo], [apply(f, lo)], 0.0, 0.0
    clip, gap = knot_span(f, y, eps)
    if clip.width == 0.0:  # y lies where f is within eps of an asymptote: one constant
        return [clip.lo], [apply(f, clip.lo)], 0.0, gap
    t = max(eps / _MARGIN, gap)  # the gap is at most that, up to a rounding
    slope = lipschitz(f, y) / _MARGIN
    stop = clip.hi

    def run(x: float) -> tuple[float, float, float]:
        """The run of f right of x: 1 where f is concave on it and -1 where it
        is convex, its end (the first inflection after x) and its peak of
        |f''|."""
        if not waves:
            return (-1.0, 0.0, -to_peak) if x < 0.0 else (1.0, math.inf, to_peak)
        k = math.floor(x / math.pi)
        k += ((k + 1) * math.pi <= x) - (k * math.pi > x)  # x / pi rounds across k*pi
        q = (k + 1) * math.pi
        if not x < q:  # the float spacing at x is wider than pi
            raise refuse("a step below the float spacing", x)
        return (1.0 if k % 2 == 0 else -1.0), q, q - to_peak

    def piece(a: float, b: float, peak: float) -> float:
        """v = w^2/8 * M of a piece [a, b] of the run with that peak: M is the
        global sup|f''| where the piece holds the peak, else the larger at
        its ends.  (A float k*pi is an ulp or so off the inflection, so f
        bends the other way on a sliver that wide, by at most that much: it
        moves the piece's error by under w * ulp^2, far inside the margin.)"""
        m = m2 if a <= peak <= b else max(bend(a), bend(b)) * _MARGIN
        return (b - a) * (b - a) / 8.0 * m

    def reading(v: float, ua: float, ub: float) -> float:
        # A piece's error bound from its end offsets towards its concave
        # side, and the rounding of the line's values f + c and of f, under
        # an ulp of 2 each.
        return max(v - min(ua, ub), max(ua, ub)) * _MARGIN + 4.0 * math.ulp(2.0)

    def room(b: float, fb: float, sigma: float, q: float) -> float:
        # The most the offset at b may be towards the concave side of its run
        # (sigma, q) and still fall to 0 by q within the slope; unbounded
        # where the run ends at or past the walk's end.
        return (q - b) * slope + sigma * (fx(q) - fb) if q < stop else math.inf

    def towards(sigma: float, low: float, high: float) -> tuple[float, float]:
        # The offsets c with sigma * c in [low, high].
        return (low, high) if sigma > 0.0 else (-high, -low)

    def cell(a: float, fa: float, ca: float, at: tuple, b: float, tail: bool):
        """The cell [a, b] from the offset ca at a, in a's run at, with a right
        clip's tail at b where tail is set: b, f(b), the offset at b and the
        cell's bound; or None where the cell does not hold."""
        sigma, q, peak = at
        if not a < b:
            return None
        fb, w = fx(b), b - a
        sb, qb, pb = at if b < q else run(q)  # b's run
        if b > qb:
            return None  # a cell crosses one inflection at most
        d = fb - fa
        # The slope cap, or f's own chord where f is steeper than the cap's
        # margin allows (a clip that collapses onto an inflection); ca itself
        # keeps it, in floats too.
        rise = max(slope * w, abs(d))
        low, high = max(ca - (d + rise), floor - fb), min(ca + (rise - d), ceiling - fb)
        if b <= q:
            v = piece(a, b, peak)
            bands = [towards(sigma, v - t, t)]
        else:  # the pieces [a, q] and [q, b]; the offset at q is k + lam * c_b
            fq, lam = fx(q), (q - a) / w
            if lam == 0.0:
                return None  # q is too near a to place in floats: land on it
            k = (1.0 - lam) * (fa + ca) + lam * fb - fq
            v, v2 = piece(a, q, peak), piece(q, b, pb)
            cl, ch = towards(sigma, v - t, t - v2)  # the offset at q within both bands
            # Past q the offset stays on the new run's concave side.
            bands = [((cl - k) / lam, (ch - k) / lam), towards(sb, max(v2 - t, 0.0), t)]
        if not v - t <= sigma * ca <= t:
            return None
        rs, rq = (sigma, q) if b <= q else (sb, qb)  # a knot on q falls to 0 there
        bands.append(towards(rs, -math.inf, room(b, fb, rs, rq)))
        if tail:
            bands.append(towards(sb, gap - t, t))
        for band_lo, band_hi in bands:
            low, high = max(low, band_lo), min(high, band_hi)
        if not low <= high:
            return None
        cb = high if sb > 0.0 else low
        if b <= q:
            bound = reading(v, sigma * ca, sigma * cb)
        else:
            cq = k + lam * cb
            bound = max(reading(v, sigma * ca, sigma * cq), reading(v2, sb * cq, sb * cb))
        if tail:
            bound = max(bound, abs(cb) * _MARGIN, abs(cb - sb * gap) * _MARGIN)
        return b, fb, cb, bound

    def stride(eps: float, m: float) -> float:
        # The width of a piece that spends eps where sup|f''| on it is m.
        return math.sqrt(8.0 * eps / m) if m > 0.0 else math.inf

    def reach(x: float, holds, top: float, limit: float) -> tuple:
        """The last point in (x, limit] found to hold, and what holds gave
        there; or x and None.  Tried at top, doubled away from x while it
        holds and is short of limit, then bisected _SHORTEN times between the
        last point that held and the first that failed."""
        below, got = x, None
        while below < top and (trial := holds(top)):
            below, got = top, trial
            if top >= limit:
                return below, got
            top = min(x + 2.0 * (top - x), limit)
        for _ in range(_SHORTEN):
            mid = 0.5 * (below + top)
            if not below < mid < top:
                break
            trial = holds(mid)
            if trial:
                below, got = mid, trial
            else:
                top = mid
        return below, got

    x = clip.lo
    fa = fx(x)
    sigma, q, _ = run(x)
    u = min(t, ceiling - fa if sigma > 0.0 else fa - floor, room(x, fa, sigma, q))
    c = sigma * max(u, gap - t if x > lo else -t)
    xs, values = [x], [fa + c]
    # Left of a left clip f moves by at most the gap, away from the offset's side.
    bounds = [max(abs(c), abs(c - sigma * gap)) * _MARGIN if x > lo else 0.0]
    while x < stop:
        at = run(x)
        sigma, q, peak = at
        end, u = min(q, stop), sigma * c

        def fits(b: float) -> bool:
            # The step [x, b] on f and |f''| alone: its piece's v - t within
            # the offset at x and, short of the run's end, within the room.
            v = piece(x, b, peak) - t
            return v <= u and (b >= q or v <= room(b, fx(b), sigma, q))

        def holds(b: float):
            # The cell to b; at stop, one cell to y.hi, else one to the right clip.
            if b < stop:
                return cell(x, fa, c, at, b, False)
            return (cell(x, fa, c, at, hi, False)
                    or (cell(x, fa, c, at, stop, True) if stop < hi else None))

        # The step: from one that fits the band anywhere, up to one sized
        # from |f''| at x, which fits where the sup is at x.
        top = min(x + stride(t + u, bend(x) * _MARGIN), end)
        b, _ = reach(x, fits, min(x + stride(t + u, m2), top), top)
        if b >= q < stop:  # the step reaches the inflection: the longest cell across it
            limit = min(run(q)[1], stop)
            top = min(2.0 * q - x, limit)
        else:
            top = limit = b
        _, got = reach(x, holds, top, limit)
        if not got:
            raise refuse("a step below the float spacing", x)
        x, fa, c, bound = got
        xs.append(x)
        values.append(fa + c)
        bounds.append(bound)
        if len(xs) > _MAX_POINTS:
            raise refuse(f"more than {_MAX_POINTS} knots", x)
    return xs, values, max(bounds), gap if xs[0] > lo or xs[-1] < hi else 0.0


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
        return bend(x) / _MARGIN

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


def _exact(f: Activation) -> ReluSum | None:
    """The exact ReLU form of relu, id, abs, ReluSum and PiecewiseLinear, else None."""
    if isinstance(f, ReluSum):
        return f
    if isinstance(f, PiecewiseLinear):
        return pl_to_relu_sum(f)
    return ReluSum(_EXACT[f]) if f in _EXACT else None


def lipschitz(f: Activation, y: Interval) -> float:
    """sup|f'| on y, which bounds the chord slopes of f there: in closed form
    for sin, tanh and sigmoid, and exact for the rest, the largest |slope| of
    a piece of f's ReLU form meeting y.  |tanh'| and |sigmoid'| peak at 0 and
    fall away from it; |sin'| = |cos| is 1 at each k*pi and falls towards the
    midpoints between them."""
    if isinstance(f, Merged):
        raise ValueError("merged activations have no closed-form Lipschitz constant")
    exact = _exact(f)
    if exact is None:
        if f.name == "sin":
            if y.width >= math.pi or math.floor(y.hi / math.pi) >= math.ceil(y.lo / math.pi):
                return 1.0
            return max(abs(math.cos(y.lo)), abs(math.cos(y.hi)))
        x = abs(min(max(0.0, y.lo), y.hi))  # the point of y nearest 0
        if f.name == "tanh":
            return 1.0 - math.tanh(x) ** 2
        u = math.exp(-x)
        return u / (1.0 + u) ** 2
    a, b, c = np.array(exact.terms).reshape(-1, 3).T
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
