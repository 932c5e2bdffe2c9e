"""Uniform approximation of arbitrary expressions by ReLU-only ones.

Every function application is replaced by a finite ReLU combination accurate
on an interval covering its argument's image.  The nodes' traits tell the
exact (ReLU-only) ones and the roots' largest projection, checked against the
box first.  A first fold over the shared DAG gives its post-order, a second
bounds the arguments that get interpolants.  The error budget ε is then split
in two passes.  A top-down pass, parents before children, gives each distinct
node the smallest ε that any of its parents demands:

* a maximal + spine is one sum of terms.  An exact (ReLU-only) subtree is one
  term, and an Add with another parent ends the spine.  Exact terms get no
  share, and each of the k others gets ε/k;
* a*e gives e ε/|a|, and <>e gives e ε/p (0*e and, at p = 0, <>e are 0);
* f(e) with e exact interpolates f on e's image with the whole ε.  Otherwise
  f gets ε/2 on the image widened by ε/2, and e gets min(δ, ε/2), with δ from
  the interpolant's Lipschitz constant.

A bottom-up fold, the third and last, then builds each node's approximant
once, so shared subterms stay shared.  Each step is a bound, so the result is
within ε on every graph of degree <= p with features in the box, up to
floating-point rounding.  The ``ApproxReport`` records every application and
the bound proven bottom-up from the grids actually used.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .activations import (
    RELU,
    ReluSum,
    activation_label,
    curvature,
    interpolation_error,
    interval_image,
    lipschitz,
    modulus_delta,
    relu_approximate,
)
from .errors import ArityError
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
    max_projections,
    scaled,
    sum_terms,
)
from .graphs import random_union
from .intervals import DomainBox, Interval
from .interpreter import eval_tuple

__all__ = [
    "ApplyRecord",
    "ApproxReport",
    "image_bounds",
    "approximate",
    "approximate_all",
    "uniform_distance_estimate",
    "uniform_distance_estimates",
]


def _check_projections(roots: Sequence[Expr], box: DomainBox) -> None:
    index = max(max_projections(roots), default=0)
    if index > box.dimension:
        raise ArityError(f"projection {index} outside box of dimension {box.dimension}")


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
    _check_projections((e,), box)
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


@dataclass(frozen=True)
class ApplyRecord:
    """How one application f(e) was approximated."""

    function: str
    interval: Interval  # where f was interpolated
    eps: float  # the interpolant's share of the node's ε
    knots: int  # breakpoints of the interpolant
    m2: float  # the sup|f''| its grid was sized by; 0 when it is exact
    lipschitz: float  # the interpolant's Lipschitz constant on the interval
    delta: float | None  # e's budget, None when e is exact
    proven: float  # the interpolation error at the grid step + L * e's proven error

    def to_json(self) -> dict:
        # An unbounded end, which only an exact function (relu, id, abs)
        # accepts, is written as null: the report is strict JSON.
        lo, hi = (v if math.isfinite(v) else None for v in (self.interval.lo, self.interval.hi))
        return {
            "function": self.function,
            "interval": [lo, hi],
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
    _check_projections(roots, box)

    # One fold for the post-order, then how many parents (or root slots) read
    # each node; then one fold for the images of the arguments that get
    # interpolants.  A node is exact when it is ReLU-only.
    order: list[Expr] = []
    fold_all(roots, lambda node, _: order.append(node))
    readers = Counter([c for node in order for c in node.kids] + list(roots))
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
    plans: dict[Expr, tuple[ReluSum, Interval, float, float | None, float]] = {}

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
            for t in terms:
                need(t, budget / len(terms))
        else:  # Apply
            arg = node.arg
            if arg.traits.relu_only:
                y = image[arg]
                g = relu_approximate(node.func, y, budget)
                lip, delta = lipschitz(g, y), None
            else:
                budget /= 2.0
                y = image[arg].widen(budget)
                g = relu_approximate(node.func, y, budget)
                lip = lipschitz(g, y)
                delta = modulus_delta(g, y, budget, lip=lip)
                need(arg, min(delta, budget))
            plans[node] = (g, y, budget, delta, lip)

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
        g, y, budget, delta, lip = plans[node]
        arg, arg_error = kids[0]
        proven = interpolation_error(node.func, y, budget) + lip * arg_error
        records.append(ApplyRecord(activation_label(node.func), y, budget,
                                   sum(a != 0.0 for a, _, _ in g.terms), curvature(node.func),
                                   lip, delta, proven))
        return _relu_sum_expr(g, arg), proven

    built = fold_all(roots, build)
    report = ApproxReport(eps, tuple(records), tuple(b[1] for b in built))
    return [b[0] for b in built], report


def approximate(e: Expr, p: int, box: DomainBox, eps: float) -> Expr:
    """ReLU-only expression within eps of e over degree-<=p graphs and box."""
    (out,), _ = approximate_all((e,), p, box, eps)
    return out


def uniform_distance_estimates(
    lefts: Sequence[Expr],
    rights: Sequence[Expr],
    p: int,
    box: DomainBox,
    trials: int,
    seed: int,
) -> list[float]:
    """Per pair, max |left - right| over sampled (graph, features, node)
    triples: one sample, and one evaluation of each side's tuple.

    Lower bounds on the true suprema; deterministic given the seed.
    """
    left, right = (ExprTuple(tuple(side), box.dimension) for side in (lefts, rights))
    batch = random_union(p, box, trials, seed)
    va = eval_tuple(left, batch.graph, batch.features).values
    vb = eval_tuple(right, batch.graph, batch.features).values
    return np.max(np.abs(va - vb), axis=0, initial=0.0).tolist()


def uniform_distance_estimate(
    e1: Expr,
    e2: Expr,
    p: int,
    box: DomainBox,
    trials: int,
    seed: int,
) -> float:
    """Max |e1 - e2| over sampled (graph, features, node) triples.

    A lower bound on the true supremum; deterministic given the seed.
    """
    return uniform_distance_estimates((e1,), (e2,), p, box, trials, seed)[0]
