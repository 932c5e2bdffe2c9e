"""Uniform approximation of arbitrary expressions by ReLU-only ones.

Every function application is replaced by a finite ReLU combination accurate
on an interval covering its argument's image.  An ``ExprTuple`` of the roots
over the box's dimension checks their arity.  The nodes' traits tell the
ReLU-only ones, kept as they are, and the exact ones: a piecewise-linear node
applies only functions with ``curvature(f) == 0`` (relu, abs, id and the
piecewise-linear forms), so its ReLU form has no error.  ``post_order`` gives
the DAG's nodes and how often each is read, and a fold bounds the arguments
that get interpolants.  The error budget ε is then split in two passes.  A
top-down pass, parents before children, gives each distinct node the
smallest ε that any of its parents demands:

* a maximal + spine is one sum of terms.  A ReLU-only subtree is one term,
  and an Add with another parent ends the spine.  A piecewise-linear term
  takes no share (it gets ε, and adds no error), and each of the k others
  gets ε/k;
* a*e gives e ε/|a|, and <>e gives e ε/p (0*e and, at p = 0, <>e are 0);
* f(e) with e piecewise linear interpolates f on e's image with the whole ε.
  An exact f adds no error, but scales e's by its Lipschitz constant L, taken
  on e's image widened by ε, where e's approximant can reach.  So it gives an
  inexact e min(ε/L, ε): the whole ε for relu, abs and id, whose L is at
  most 1.  Otherwise f gets ε/2 on the image widened by ε/2, and e gets
  min(δ, ε/2), with δ from the interpolant's Lipschitz constant.

A bottom-up fold, the second and last, then builds each node's approximant
once, so shared subterms stay shared.  Each step is a bound, so the result is
within ε on every graph of degree <= p with features in the box, up to
floating-point rounding.  The ``ApproxReport`` records every application and
the bound proven bottom-up from the knots actually used.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .activations import (
    ID,
    RELU,
    Interpolant,
    ReluSum,
    activation_label,
    curvature,
    interpolant,
    interval_image,
    lipschitz,
    modulus_delta,
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
        # Sum of up to p values from the image (or none at all).
        return Interval(p * min(0.0, kids[0].lo), p * max(0.0, kids[0].hi))

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
    eps: float  # the interpolant's share of the node's ε
    knots: int  # breakpoints of the interpolant
    m2: float  # sup|f''| on the line, which caps each cell's; 0 when f is exact
    lipschitz: float  # the interpolant's Lipschitz constant on the interval
    delta: float | None  # e's budget, None when e is piecewise linear
    proven: float  # the interpolation error (cells or tail) + L * e's proven error

    def to_json(self) -> dict:
        return {
            "function": self.function,
            "interval": _ends(self.interval),
            "grid": _ends(self.grid),
            "tail_gap": self.tail_gap,
            "eps": self.eps,
            "knots": self.knots,
            "m2": self.m2,
            "lipschitz": self.lipschitz,
            "delta": self.delta,
            "proven": self.proven,
        }


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

    # The post-order and how many parents (or root slots) read each node;
    # then one fold for the images of the arguments that get interpolants.
    order, readers = post_order(roots)
    # Parents before children: the inexact nodes that some root reads other
    # than under 0*e or, at p = 0, <>e.  Only the applications among them get
    # interpolants, so only their arguments are bounded.
    live = {r for r in roots if not r.traits.relu_only}
    for node in reversed(order):
        zero = (isinstance(node, Scale) and node.factor == 0.0) or (
            isinstance(node, Diamond) and p == 0)
        if node in live and not zero:
            live.update(c for c in node.kids if not c.traits.relu_only)
    args = [node.arg for node in order if isinstance(node, Apply) and node in live]
    image = dict(zip(args, fold_all(args, _bound(p, box))))

    # Top-down: the smallest ε any parent demands of a node, and each
    # application's interpolant and its Lipschitz constant.
    demand: dict[Expr, float] = {}
    plans: dict[Expr, tuple[Interpolant, Interval, float, float | None, float]] = {}

    def need(node: Expr, budget: float) -> None:
        if not node.traits.relu_only:
            demand[node] = min(demand.get(node, math.inf), budget)

    for r in roots:
        need(r, eps)
    for node in reversed(order):
        budget = demand.get(node)
        if budget is None:
            continue
        if isinstance(node, Scale):
            if node.factor != 0.0:
                need(node.arg, budget / abs(node.factor))
        elif isinstance(node, Diamond):
            if p:
                need(node.arg, budget / p)
        elif isinstance(node, Add):
            terms: list[Expr] = []
            stack = [node.right, node.left]
            while stack:
                c = stack.pop()
                if isinstance(c, Add) and not c.traits.relu_only and readers[c] == 1:
                    stack += [c.right, c.left]
                elif not c.traits.relu_only:
                    terms.append(c)
            k = sum(not t.traits.piecewise_linear for t in terms)
            for t in terms:
                need(t, budget if t.traits.piecewise_linear else budget / k)
        else:  # Apply
            # An exact (piecewise-linear) e or an exact f adds no error, so f
            # keeps the whole budget; when both add error, each gets half.  An
            # inexact e's approximant reaches at most that share past e's image.
            arg, delta = node.arg, None
            exact, exact_arg = curvature(node.func) == 0.0, arg.traits.piecewise_linear
            share = budget if exact or exact_arg else budget / 2.0
            y = image[arg] if exact_arg else image[arg].widen(share)
            it = interpolant(node.func, y, share)
            g = it.relu_sum
            lip = lipschitz(g, y)
            if exact_arg:
                need(arg, share)  # rebuilt in ReLU form, with no error
            else:
                # An exact f scales e's error by its slope L, so e gets ε/L
                # (ε when L is 0): the whole ε under relu, abs and id.
                delta = budget / (lip or 1.0) if exact else modulus_delta(g, y, share, lip=lip)
                need(arg, min(delta, share))
            plans[node] = (it, y, share, delta, lip)

    # Bottom-up: each live node's approximant and proven error, once.
    records: list[ApplyRecord] = []

    def build(node: Expr, kids: tuple) -> tuple[Expr, float] | None:
        if node.traits.relu_only:
            return node, 0.0
        if node not in live:
            return None  # read only under 0*e or <>e at p = 0
        if isinstance(node, Scale):
            if node.factor == 0.0:
                return const(0.0), 0.0
            return Scale(node.factor, kids[0][0]), abs(node.factor) * kids[0][1]
        if isinstance(node, Diamond):
            if p == 0:
                # No graph of degree 0 has neighbors, so the sum is identically 0.
                return const(0.0), 0.0
            return Diamond(kids[0][0]), p * kids[0][1]
        if isinstance(node, Add):
            return Add(kids[0][0], kids[1][0]), kids[0][1] + kids[1][1]
        it, y, budget, delta, lip = plans[node]
        arg, arg_error = kids[0]
        proven = it.bound + lip * arg_error
        records.append(ApplyRecord(activation_label(node.func), y, it.grid, it.tail_gap, budget,
                                   _breakpoints(it.relu_sum), curvature(node.func), lip, delta,
                                   proven))
        # id(e) is e: its approximant is e's, with no relu(x) - relu(-x) around it.
        return arg if node.func == ID else _relu_sum_expr(it.relu_sum, arg), proven

    built = fold_all(roots, build)
    report = ApproxReport(eps, tuple(records), tuple(b[1] for b in built))
    return [b[0] for b in built], report


def approximate(e: Expr, p: int, box: DomainBox, eps: float) -> Expr:
    """ReLU-only expression within eps of e over degree-<=p graphs and box."""
    (out,), _ = approximate_all((e,), p, box, eps)
    return out
