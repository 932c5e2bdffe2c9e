"""Uniform approximation of arbitrary expressions by ReLU-only ones.

Every function application is replaced by a finite ReLU combination accurate
on an interval covering its argument's image.  An ``ExprTuple`` of the roots
over the box's dimension checks their arity.  The nodes' traits tell the
ReLU-only ones, kept as they are, and the exact ones: a piecewise-linear node
applies only functions with ``curvature(f) == 0`` (relu, abs, id and the
piecewise-linear forms), so its ReLU form has no error and takes no share of
ε.  ``post_order`` gives the DAG's nodes, and a fold bounds the arguments
that get interpolants.

The error is linear in the interpolants' bounds.  One rule, ``_gain``,
composes it: a unit error in a child moves a*e by |a|, <>e by p, a sum by 1
and f(e) by f's slope on e's interval.  A node's proven error is the sum,
over the curved applications i under it, of s_i times i's bound, where the
sensitivity s_i sums over the paths from the node down to i the product of
the gains on the way.  So ε is spent by giving each
curved application a share ε_i with sum(s_i ε_i) <= ε at every root.  An
interpolant whose offsets spend each cell's whole ±ε_i band needs about
I_i / sqrt(16 ε_i) knots, with I_i the integral of sqrt|f''| on its interval
(de Boor, A Practical Guide to Splines), and the fewest knots in all come
from ε_i proportional to (I_i / s_i)^(2/3).

A plan gives every application its interpolant for its share, bottom-up:
f(e) is interpolated on e's image widened by e's own proven error, and its
proven error is the interpolant's bound plus L times e's, with L the
interpolant's Lipschitz constant there.  Plans are made twice at most:

* the first plan takes each slope on the whole line (1, or 1/4 for sigmoid,
  and an exact form's steepest piece), so every sum(s_i ε_i) it spends is a
  bound whatever the intervals turn out to be; I_i is estimated from the
  image's width; a root whose fold rounds above ε steps its shares down;
* the re-plan reads I_i off the first plan's knots, I_i = n_i sqrt(16 ε_i),
  and the slopes off its intervals, sup|f'| there, which bounds the chord
  slopes of every interpolant of f on them.  Both read ``lipschitz``.  It
  walks again only the applications whose interval or share changed, and
  is kept when every root still proves ε and it needs no more knots.

The kept plan is the ``ApproxReport``: its steps, in post-order, record
every application with its share, sensitivity and proven bound, and its
errors are the roots' proven ε.  A bottom-up fold then only rewrites each
node into its approximant, once, from the kept plan, so shared subterms stay
shared.  Each step is a bound, so the result is within ε on every graph of
degree <= p with features in the box, up to floating-point rounding.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple, Sequence

from .activations import (
    ID,
    RELU,
    SIGMOID,
    TANH,
    Interpolant,
    Named,
    ReluSum,
    activation_label,
    curvature,
    interpolant,
    interval_image,
    knots_floor,
    lipschitz,
)
from .expressions import (
    Add,
    Apply,
    Diamond,
    Expr,
    ExprTuple,
    One,
    Proj,
    Scale,
    const,
    fold,
    fold_all,
    post_order,
    scaled,
    sum_terms,
)
from .errors import CertificateError
from .intervals import DomainBox, Interval

__all__ = [
    "ApplyRecord",
    "ApproxReport",
    "image_bounds",
    "approximate",
    "approximate_all",
]


def _bound(p: int, box: DomainBox):
    """The image_bounds combine: a node's interval from its children's."""

    def bound(node: Expr, kids: tuple[Interval, ...]) -> Interval:
        if isinstance(node, One):
            return Interval(1.0, 1.0)
        if isinstance(node, Proj):
            return box.intervals[node.index - 1]
        if isinstance(node, Scale):
            return kids[0].scale(node.factor)
        if isinstance(node, Add):
            return kids[0].add(kids[1])
        if isinstance(node, Apply):
            return interval_image(node.func, kids[0])
        # Sum of up to p values from the image (or none at all): 0 at p = 0,
        # also for an unbounded image.
        return Interval(0.0, 0.0).hull(kids[0]).scale(p)

    return bound


def image_bounds(e: Expr, p: int, box: DomainBox) -> Interval:
    """Interval containing every value of e over degree-<=p graphs and box."""
    if p < 0:
        raise ValueError("degree bound must be nonnegative")
    ExprTuple((e,), box.dimension)  # the arity check
    return fold(e, _bound(p, box))


def _relu_sum_expr(rs: ReluSum, arg: Expr) -> Expr:
    """Expand sum of c*relu(a*x - b) into MPLang syntax applied to arg."""
    terms: list[Expr] = []
    for a, b, c in rs.terms:
        inner: list[Expr] = []
        if a != 0.0:
            inner.append(scaled(a, arg))
        if b != 0.0:
            inner.append(const(-b))
        terms.append(scaled(c, Apply(RELU, sum_terms(inner))))
    return sum_terms(terms)


def _breakpoints(rs: ReluSum) -> int:
    """The distinct x where rs's slope changes; c*relu(a*x - b) turns by |a|*c at b/a."""
    turns: Counter = Counter()
    for a, b, c in rs.terms:
        if a != 0.0:
            turns[b / a] += abs(a) * c
    return sum(t != 0.0 for t in turns.values())


def _ends(iv: Interval) -> list[float | None]:
    """iv's ends for JSON.  An unbounded end, which only an exact function
    (relu, id, abs) accepts, is null: the report is strict JSON."""
    return [v if math.isfinite(v) else None for v in (iv.lo, iv.hi)]


@dataclass(frozen=True)
class ApplyRecord:
    """How one application f(e) was approximated."""

    function: str
    interval: Interval  # where f's approximant must hold
    grid: Interval  # where its knots lie: the interval, clipped for tanh and sigmoid
    tail_gap: float  # the error past the grid's ends; 0 where nothing was clipped
    eps: float  # the interpolant's share of ε; 0 for an exact f, which adds no error
    knots: int  # breakpoints: the knots where the interpolant turns, none at the interval's hi
    m2: float  # sup|f''| on the line, which caps each cell's; 0 when f is exact
    lipschitz: float  # the interpolant's Lipschitz constant on the interval
    delta: float | None  # e's proven error, which widens the interval; None when e is exact
    sensitivity: float  # how far a unit error of f(e) moves a root, at most
    proven: float  # the interpolation error (cells or tail) + L * e's proven error

    @property
    def knots_floor(self) -> int:
        """The fewest breakpoints that any ReLU combination within eps of f on
        the interval can have, at least (activations.knots_floor); 0 when f
        is exact.  Computed when read: the build does not need it."""
        return knots_floor(Named(self.function), self.interval, self.eps) if self.m2 else 0

    def to_json(self) -> dict:
        fields = asdict(self)
        at = list(fields).index("knots") + 1
        fields = dict([*list(fields.items())[:at], ("knots_floor", self.knots_floor),
                       *list(fields.items())[at:]])
        return {**fields, "interval": _ends(self.interval), "grid": _ends(self.grid)}


@dataclass(frozen=True)
class ApproxReport:
    """The applications in bottom-up order, and per root the proven error:
    applications add their records' bounds, sums add, a*e multiplies by |a|
    and <>e by p."""

    eps: float
    applications: tuple[ApplyRecord, ...]
    proven_eps: tuple[float, ...]

    def to_json(self) -> dict:
        return {
            "eps": self.eps,
            "proven_eps": list(self.proven_eps),
            "applications": [r.to_json() for r in self.applications],
        }


class _Step(NamedTuple):
    """One application's plan: its interpolant on the interval, its share of
    ε (0 for an exact f), and the argument's proven error (None for a
    piecewise-linear argument)."""

    it: Interpolant
    interval: Interval
    share: float
    arg_error: float | None


# The real line, on which lipschitz gives an exact f's steepest slope.
_LINE = Interval(-math.inf, math.inf)

# A root with several curved applications under it aims this fraction of
# eps below eps, so that rounding in its sum of bounds cannot push it over.
_SLACK = 1e-6


def _gain(node: Expr, p: int, slope: Callable[[Apply], float]) -> float:
    """How far a unit error in each child of node moves node, at most: |a|
    for a*e, p for <>e, 1 for a sum and slope(node) for f(e).  It is the one
    rule by which errors compose."""
    if isinstance(node, Scale):
        return abs(node.factor)
    if isinstance(node, Diamond):
        return float(p)
    if isinstance(node, Add):
        return 1.0
    return slope(node)


def _sensitivities(roots: Sequence[Expr], order: list[Expr], live: set[Expr], p: int,
                   slope: Callable[[Apply], float]) -> dict[Expr, list[float]]:
    """Per live node and root, a bound on how far a unit error at the node
    moves the root: a sum over the paths from the root down to the node of
    the product of the gains on the way."""
    sens: dict[Expr, list[float]] = {}

    def add(node: Expr, row: list[float]) -> None:
        if node in live:
            old = sens.get(node)
            sens[node] = row if old is None else [a + b for a, b in zip(old, row)]

    for j, r in enumerate(roots):
        add(r, [float(k == j) for k in range(len(roots))])
    for node in reversed(order):
        row = sens.get(node)
        if row is None or node.traits.piecewise_linear:
            continue
        factor = _gain(node, p, slope)
        if factor:
            for kid in node.kids:
                add(kid, [factor * v for v in row])
    return sens


def _allocate(integrals: dict[Expr, float], sens: dict[Expr, list[float]], eps: float,
              first: dict[Expr, float] | None = None) -> dict[Expr, float]:
    """Each curved application's share of eps, from its integral I of
    sqrt|f''| and its sensitivities.

    An interpolant needs about I / sqrt(16 share) knots, so under
    sum(s_i share_i) <= eps, with s_i an application's largest sensitivity,
    the fewest knots come from share_i proportional to (I_i / s_i)^(2/3).
    Each root's factor makes its sum of s * share eps, counting each bound as
    its whole share, and an application takes the smallest factor of the
    roots it moves.  An application with I = 0 (a constant) takes no share;
    one that moves no root takes eps, or keeps its first share."""
    def underflow(node: Apply) -> CertificateError:
        return CertificateError(f"no {eps:g}-certificate: the share of"
                                f" {activation_label(node.func)} underflows to 0")

    weights: dict[Expr, tuple[list[float], float, float]] = {}
    spent: list[float] = []
    count: list[int] = []
    for node, integral in integrals.items():
        row = sens.get(node)
        s = max(row) if row else 0.0
        if integral == 0.0:
            continue  # a constant: no error, whatever its sensitivity
        if s == math.inf:  # a product of scalings overflowed
            raise underflow(node)
        if s > 0.0:
            # Clamped to the positive floats, so that no product with it is NaN.
            w = min(max((integral / s) ** (2.0 / 3.0), sys.float_info.min), sys.float_info.max)
            weights[node] = (row, s, w)
            spent = [a + b * w for a, b in zip(spent or [0.0] * len(row), row)]
            count = [n + (b > 0.0) for n, b in zip(count or [0] * len(row), row)]
    factors = [eps * (1.0 - _SLACK * (n > 1)) / v if v > 0.0 else math.inf
               for v, n in zip(spent, count)]
    shares: dict[Expr, float] = {}
    for node, integral in integrals.items():
        if node in weights:
            row, s, w = weights[node]
            share = min(f for f, v in zip(factors, row) if v > 0.0) * w
            if share * s > eps * (1.0 - 1e-12):
                # A root's lone application takes the largest share that s
                # times keeps within eps: eps / s, less a rounding above it.
                share = eps / s
                while share * s > eps:
                    share = math.nextafter(share, 0.0)
            if share == 0.0:
                raise underflow(node)
            shares[node] = min(share, sys.float_info.max)
        else:
            shares[node] = first[node] if first else eps if integral else 0.0
    return shares


# The integral of sqrt|f''| over the real line, rounded up: tanh and sigmoid
# bend only near 0, so no interval needs more.
_WHOLE_LINE = {TANH: 3.39, SIGMOID: 2.4}


def _spread(node: Apply, y: Interval, sens: dict[Expr, list[float]], eps: float) -> float:
    """The first plan's stand-in for the integral of sqrt|f''| on f's interval:
    sqrt(sup|f''|) times the width of e's image y, widened by 2 eps / s for an
    inexact e, and at most the integral over the whole line.  A
    piecewise-linear e with a one-point image makes f(e) a constant, with no
    error and no share."""
    width = y.width
    s = max(sens.get(node) or [0.0])
    if not node.arg.traits.piecewise_linear and s > 0.0:
        width += 2.0 * eps / s
    spread = math.sqrt(curvature(node.func)) * width
    cap = _WHOLE_LINE.get(node.func, sys.float_info.max)
    return spread if spread < cap else cap  # also for an overflowed, NaN-wide image


def _plan(order: list[Expr], live: set[Expr], image: dict[Expr, Interval], p: int,
          eps: float, shares: dict[Expr, float],
          walked: dict) -> tuple[dict[Expr, _Step], dict[Expr, float]]:
    """Every live application's step for the given shares, in post-order, and
    each live node's proven error: its interpolant's bound, for an
    application, plus its gain times the sum of its children's errors, with
    the interpolant's Lipschitz constant as an application's gain.  An
    argument's interval is its image widened by its own proven error.  The
    interpolants are kept in walked by (node, interval, share), so a re-plan
    walks only the applications whose interval or share changed."""
    steps: dict[Expr, _Step] = {}
    errors: dict[Expr, float] = {}

    def slope(node: Apply) -> float:
        return steps[node].it.lipschitz

    for node in order:
        if node not in live:
            continue
        bound = 0.0
        if isinstance(node, Apply):
            arg_error = None if node.arg.traits.piecewise_linear else errors.get(node.arg, 0.0)
            y = image[node.arg] if arg_error is None else image[node.arg].widen(arg_error)
            share = shares.get(node, 0.0)
            key = (node, y, share)
            if key not in walked:
                # An exact f ignores the ε it is given, and adds no error.
                walked[key] = interpolant(node.func, y, share or eps)
            steps[node] = _Step(walked[key], y, share, arg_error)
            bound = walked[key].bound
        below = sum(errors.get(kid, 0.0) for kid in node.kids)
        errors[node] = bound + _gain(node, p, slope) * below
    return steps, errors


def _knot_count(steps: dict[Expr, _Step]) -> int:
    return sum(len(step.it.knots) for step in steps.values())


def _planned(roots: tuple[Expr, ...], p: int, box: DomainBox, eps: float):
    """The live nodes, and the kept plan's steps, proven errors and
    sensitivities.

    The first plan weighs every curved application alike and takes the
    slopes on the whole line, so it proves eps whatever its intervals are.
    The re-plan reads each application's integral off the first plan's
    knots, and its slopes off the first plan's intervals: lipschitz(f, y),
    which bounds the chord slopes of every interpolant of f on them.  It is
    kept when every root still proves eps and it needs no more knots."""
    # The post-order; then one fold for the images of the arguments that get
    # interpolants.
    order, _ = post_order(roots)
    # Parents before children: the inexact nodes that some root reads other
    # than under 0*e or, at p = 0, <>e.  Only the applications among them get
    # interpolants, so only their arguments are bounded.
    live = {r for r in roots if not r.traits.relu_only}
    for node in reversed(order):
        # An application reads its argument whatever its slope.
        if node in live and _gain(node, p, lambda _: 1.0):
            live.update(c for c in node.kids if not c.traits.relu_only)
    args = [node.arg for node in order if isinstance(node, Apply) and node in live]
    image = dict(zip(args, fold_all(args, _bound(p, box))))

    curved = [n for n in order if isinstance(n, Apply) and n in live and curvature(n.func) > 0.0]
    walked: dict = {}
    sens = _sensitivities(roots, order, live, p, lambda node: lipschitz(node.func, _LINE))
    shares = _allocate({n: _spread(n, image[n.arg], sens, eps) for n in curved}, sens, eps)
    steps, errors = _plan(order, live, image, p, eps, shares, walked)
    # The plan composes the errors in another order than the allocation, so
    # a root's fold can round above eps: the shares under it step down an
    # ulp at a time until it proves eps.
    while over := {j for j, r in enumerate(roots) if errors.get(r, 0.0) > eps}:
        under = {n for n, row in sens.items() if any(row[j] > 0.0 for j in over)}
        shares = {n: math.nextafter(v, 0.0) if n in under else v for n, v in shares.items()}
        steps, errors = _plan(order, live, image, p, eps, shares, walked)

    def slope(node: Apply) -> float:
        return lipschitz(node.func, steps[node].interval)

    sens = _sensitivities(roots, order, live, p, slope)
    # 4 * sqrt(share), as 16 * share can overflow.
    integrals = {n: len(steps[n].it.knots) * 4.0 * math.sqrt(shares[n]) for n in curved}
    again = _allocate(integrals, sens, eps, shares)
    if again != shares:
        steps2, errors2 = _plan(order, live, image, p, eps, again, walked)
        if (all(errors2.get(r, 0.0) <= eps for r in roots)
                and _knot_count(steps2) <= _knot_count(steps)):
            steps, errors = steps2, errors2
            sens = _sensitivities(roots, order, live, p, slope)
    return live, steps, errors, sens


def approximate_all(
    roots: Sequence[Expr], p: int, box: DomainBox, eps: float
) -> tuple[list[Expr], ApproxReport]:
    """ReLU-only expressions, each within eps of its root over degree-<=p
    graphs and box, built over the roots' shared DAG; and the report."""
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps!r}")
    if p < 0:
        raise ValueError("degree bound must be nonnegative")
    roots = tuple(roots)
    if roots:
        ExprTuple(roots, box.dimension)  # the arity check

    live, steps, errors, sens = _planned(roots, p, box, eps)
    records = tuple(
        ApplyRecord(activation_label(node.func), step.interval, step.it.grid, step.it.tail_gap,
                    step.share, _breakpoints(step.it.relu_sum), curvature(node.func),
                    step.it.lipschitz, step.arg_error, max(sens.get(node, ()), default=0.0),
                    errors[node])
        for node, step in steps.items())

    # Bottom-up: each live node's approximant, once, from its step.
    def build(node: Expr, kids: tuple) -> Expr | None:
        if node.traits.relu_only:
            return node
        if node not in live:
            return None  # read only under 0*e or <>e at p = 0
        if isinstance(node, Scale):
            return const(0.0) if node.factor == 0.0 else Scale(node.factor, kids[0])
        if isinstance(node, Diamond):
            # No graph of degree 0 has neighbors, so the sum is identically 0.
            return const(0.0) if p == 0 else Diamond(kids[0])
        if isinstance(node, Add):
            return Add(*kids)
        # id(e) is e: its approximant is e's, with no relu(x) - relu(-x) around it.
        return kids[0] if node.func == ID else _relu_sum_expr(steps[node].it.relu_sum, kids[0])

    report = ApproxReport(eps, records, tuple(errors.get(r, 0.0) for r in roots))
    return fold_all(roots, build), report


def approximate(e: Expr, p: int, box: DomainBox, eps: float) -> Expr:
    """ReLU-only expression within eps of e over degree-<=p graphs and box."""
    (out,), _ = approximate_all((e,), p, box, eps)
    return out
