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
with the bound it proves and its Lipschitz constant, and sizes each cell of
its knots by the sup of |f''| on that cell, h^2/8 * M <= eps, in closed
form; the knots come from one walk that makes each step the
longest whose cell meets the bound (knot equidistribution, as in de Boor, A
Practical Guide to Splines).  The second divides by a Lipschitz bound.  tanh
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

# |f''| at a cell's end is scaled up by this margin, so that rounding in its
# few float operations cannot understate the cell's sup.
_MARGIN = 1.0 + 1e-9

# Bisection steps for a cell whose sup is at its far end.  The step's
# bracket is already narrow, and a long bisection per knot costs more time
# than the knots it saves.
_BISECTIONS = 4


@dataclass(frozen=True)
class Interpolant:
    """relu_approximate's ReLU combination for f, y and eps, and its proof."""

    relu_sum: ReluSum  # on y; for sin, tanh and sigmoid no term is 0 on all of y
    knots: tuple[float, ...]  # increasing; () for a function returned exactly
    grid: Interval  # where the knots lie: y, or y clipped for tanh and sigmoid
    tail_gap: float  # the error past a clipped end; 0 where nothing is clipped
    bound: float  # the proven sup |f - relu_sum| on y
    lipschitz: float  # relu_sum's Lipschitz constant on y


def interpolant(f: Activation, y: Interval, eps: float) -> Interpolant:
    """A ReLU combination within eps of f on y, with its knots and its proof.

    relu, id, abs, ReluSum and PiecewiseLinear come back exact, on the whole
    line, with bound 0.  sin, tanh and sigmoid are interpolated on the knots
    of one walk (_knots): each cell meets h^2/8 * M <= eps, with M the sup of
    |f''| on the cell, so the bound is the largest such cell value (at most
    eps) or, where an end is clipped, the larger tail gap.  Their broken
    line holds on y: a knot at y.hi writes no term, so past an unclipped
    high end the line continues its last slope; left of y and past a clipped
    high end it is constant.  Raises CertificateError when y is not finite,
    or the walk needs more than _MAX_POINTS knots or a step below the float
    spacing.
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
        xs, cells, gap = _knots(f, y, eps)
        knots = np.array(xs)
        values = apply_vec(f, knots)
        turns = _turns(knots, values)
        if xs[-1] == y.hi:
            turns[-1] = 0.0  # it turns the slope only past y: no term
        # The knots lie in y, so the line's slopes on y are the running sums of
        # its turns; a turn cleared at y.hi repeats the last cell's slope.
        lip = max(map(abs, accumulate(turns.tolist())), default=0.0)
        return Interpolant(_hinges(knots, values[0], turns), tuple(xs),
                           Interval(xs[0], xs[-1]), gap, max(min(eps, cells), gap), lip)
    return Interpolant(exact, (), y, 0.0, 0.0, lipschitz(exact, y))


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
    until that gap is at most eps.  Where nothing is clipped the gap is 0; so
    it is for every other f, and for an eps at which a would not be positive.
    _knots keeps each side of this clip only where it saves knots.
    """
    saturation = _SATURATION.get(f)
    if saturation is None or not eps < (saturation[1] - saturation[0]) / 2.0:
        return y, 0.0
    lo, hi, k = saturation
    a = math.log((hi - lo) / eps - 1.0) / k
    step = math.ulp(a)
    while True:
        below, above = apply_vec(f, np.array([-a, a])).tolist()
        gap = max(below - lo, hi - above)
        if gap <= eps:
            break
        a, step = a + step, 2.0 * step
    if -a <= y.lo and y.hi <= a:
        return y, 0.0
    return Interval(min(max(y.lo, -a), a), min(max(y.hi, -a), a)), gap


def _knots(f: Named, y: Interval, eps: float) -> tuple[list[float], float, float]:
    """The knots of sin, tanh or sigmoid's interpolant on the finite y for eps,
    the largest h^2/8 * M of their cells, and the tail gap.

    M is the cell's sup|f''| in closed form: the global sup when the cell
    holds a peak of |f''|, else the larger of |f''| at its ends, since |f''|
    is monotone between a zero and a peak.  A point is one knot, so is a y
    that lies past knot_span's clip, and y is one cell when that cell meets
    width^2/8 * M <= eps.  Otherwise the knots walk outward from 0 when y
    holds it, else from y's end nearest 0, so a symmetric y gets symmetric
    knots; each step is the longest one (up to a few bisections) whose cell
    meets the bound.  Moving away from a peak the cell's sup is at its start
    and the step is sqrt(8 eps / |f''(x)|).  A side of y that reaches past
    knot_span's clip ends at the clip, with the tail gap, where the walk
    would put another knot before y's end; else it ends at y's end.  A
    clipped grid that one cell covers is that one cell.
    """
    bend, to_peak = _BENDS[f.name]
    m2 = _CURVATURE[f.name]

    def refuse(need: str, x: float) -> CertificateError:
        return CertificateError(f"a {eps:g}-certificate for {f.name} on {y} needs {need}:"
                                f" the walk reached |x| = {x:.6g}")

    def sup(a: float, b: float) -> float:  # sup|f''| on [a, b], 0 <= a <= b
        return m2 if b - a >= to_peak(a) else max(bend(a), bend(b)) * _MARGIN

    def one_cell(a: float, b: float) -> float:  # h^2/8 * M of the cell [a, b]
        w = b - a
        return w * w / 8.0 * (sup(a, b) if a >= 0.0 else sup(-b, -a) if b <= 0.0
                              else sup(0.0, max(-a, b)))

    lo, hi = y.lo, y.hi
    if lo == hi:
        return [lo], 0.0, 0.0
    clip, gap = knot_span(f, y, eps)
    if clip.width == 0.0:  # y lies where f is within eps of an asymptote: one constant
        return [clip.lo], 0.0, gap
    whole = one_cell(lo, hi)
    if whole <= eps:
        return [lo, hi], whole, 0.0
    # The sides of y around the start s, in |x|: each one's end and its clip.
    s = min(max(lo, 0.0), hi)
    left = (-lo, -clip.lo) if lo < s else None
    right = (hi, clip.hi) if hi > s else None
    sides = [side for side in (left, right) if side]
    stop, far = max(c for _, c in sides), max(end for end, _ in sides)
    # 8 eps, less the margin again: a knot x + h rounds, so a cell can be a
    # little wider than its step h.
    budget = 8.0 * eps / _MARGIN
    h0 = math.sqrt(budget / m2)  # a step that holds anywhere
    x = abs(s)
    raw, cells = [x], []  # the walk's knots and its cells' h^2/8 * M
    # The knots both sides have so far: a walk knot below the nearer side's
    # end is a knot of each.
    near, count = min(c for _, c in sides) if left and right else 0.0, 1
    while x < stop:
        if x + h0 >= far:  # the next knot ends every side, wherever it lies
            raw.append(far)
            break
        bx = bend(x) * _MARGIN
        to = to_peak(x)
        h = math.sqrt(budget / bx) if bx > 0.0 else math.inf  # the step if M = |f''(x)|
        if to == math.inf or (h < to and bend(x + h) * _MARGIN <= bx):
            m = bx
        elif min(h, to) <= h0:
            h, m = h0, m2  # the cell holds a peak: M is the global sup
        else:  # the sup is at the cell's far end, before the peak
            top, h, m = min(h, to), h0, m2
            for _ in range(_BISECTIONS):
                mid = 0.5 * (h + top)
                m_mid = max(bx, bend(x + mid) * _MARGIN)
                if mid * mid * m_mid <= budget:
                    h, m = mid, m_mid
                else:
                    top = mid
        nxt = x + h
        if nxt == x:
            raise refuse("a step below the float spacing", x)
        cells.append((nxt - x) * (nxt - x) / 8.0 * m)
        raw.append(nxt)
        x = nxt
        count += 2 if x < near else 1
        if count > _MAX_POINTS:
            raise refuse(f"more than {_MAX_POINTS} knots", x)

    def side(end: float, c: float) -> tuple[list[float], float, bool]:
        n = bisect.bisect_left(raw, c)  # raw[:n] lie before the clip, raw[n] past it
        clipped = c < end and raw[n] < end
        last = c if clipped else end
        return raw[:n] + [last], max(cells[:n - 1] + [one_cell(raw[n - 1], last)]), clipped

    xs, value, clipped = [], 0.0, False
    if left:
        ks, value, clipped = side(*left)
        xs = [0.0 - k for k in reversed(ks)]
    if right:
        ks, v, c = side(*right)
        xs += ks[1:] if left else ks
        value, clipped = max(value, v), clipped or c
    if len(xs) > _MAX_POINTS:
        raise refuse(f"more than {_MAX_POINTS} knots", x)
    if not clipped:
        return xs, value, 0.0
    # Clipped, the bound is about eps anyway: one cell, where it holds, has
    # no knot at 0 to turn the slope.
    one = one_cell(xs[0], xs[-1])
    return ([xs[0], xs[-1]], one, gap) if len(xs) > 2 and one <= eps else (xs, value, gap)


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
