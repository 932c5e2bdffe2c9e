"""Uniform approximation of arbitrary expressions by ReLU-only ones.

Every function application is replaced by a finite ReLU combination accurate
on an interval covering the argument's image, and the error budget is split
down the tree: halves across +, |a|-scaled through scaling, p-way through the
neighbor sum, and through an application via the approximant's modulus of
continuity.
"""

from __future__ import annotations

import numpy as np

from .activations import RELU, ReluSum, interval_image, modulus_delta, relu_approximate
from .errors import ArityError
from .expressions import (
    Add,
    Apply,
    Diamond,
    Expr,
    One,
    Proj,
    Scale,
    arity_check,
    const,
    fold,
    scaled,
    sum_terms,
)
from .graphs import random_union
from .intervals import DomainBox, Interval
from .interpreter import eval_expr

__all__ = ["image_bounds", "approximate", "uniform_distance_estimate"]


def image_bounds(e: Expr, p: int, box: DomainBox) -> Interval:
    """Interval containing every value of e over degree-<=p graphs and box."""

    def bound(node: Expr, kids: tuple[Interval, ...]) -> Interval:
        if isinstance(node, One):
            return Interval(1.0, 1.0)
        if isinstance(node, Proj):
            if node.index > box.dimension:
                raise ArityError(
                    f"projection {node.index} outside box of dimension {box.dimension}"
                )
            return box.intervals[node.index - 1]
        if isinstance(node, Scale):
            return kids[0].scale(node.factor)
        if isinstance(node, Add):
            return kids[0].add(kids[1])
        if isinstance(node, Apply):
            return interval_image(node.func, kids[0])
        # Sum of up to p values from the image (or none at all).
        return Interval(p * min(0.0, kids[0].lo), p * max(0.0, kids[0].hi))

    return fold(e, bound)


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


def approximate(e: Expr, p: int, box: DomainBox, eps: float) -> Expr:
    """ReLU-only expression within eps of e over degree-<=p graphs and box."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not arity_check(e, box.dimension):
        raise ArityError(f"expression needs arity > {box.dimension}")
    relu_only: dict[int, bool] = {}

    def mark(node: Expr, kids: tuple[bool, ...]) -> bool:
        ok = all(kids) and not (isinstance(node, Apply) and node.func != RELU)
        relu_only[id(node)] = ok
        return ok

    fold(e, mark)

    def split(node: Expr, eps: float) -> Expr:
        if relu_only[id(node)]:
            return node
        if isinstance(node, Scale):
            if node.factor == 0.0:
                return const(0.0)
            return Scale(node.factor, split(node.arg, eps / abs(node.factor)))
        if isinstance(node, Add):
            # Down a sum's left spine in a loop, so a long sum adds no depth.
            rights: list[tuple[Expr, float]] = []
            while isinstance(node, Add) and not relu_only[id(node)]:
                eps /= 2.0
                rights.append((node.right, eps))
                node = node.left
            out = split(node, eps)
            for right, right_eps in reversed(rights):
                out = Add(out, split(right, right_eps))
            return out
        if isinstance(node, Diamond):
            if p == 0:
                # No graph of degree 0 has neighbors, so the sum is identically 0.
                return const(0.0)
            return Diamond(split(node.arg, eps / p))
        image = image_bounds(node.arg, p, box)
        widened = image.widen(eps / 2.0)
        approximant = relu_approximate(node.func, widened, eps / 2.0)
        delta = modulus_delta(approximant, widened, eps / 2.0)
        return _relu_sum_expr(approximant, split(node.arg, min(delta, eps / 2.0)))

    return split(e, eps)


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
    d = box.dimension
    if not (arity_check(e1, d) and arity_check(e2, d)):
        raise ArityError(f"expressions need arity > {d}")
    batch = random_union(p, box, trials, seed)
    va = eval_expr(e1, batch.graph, batch.features)
    vb = eval_expr(e2, batch.graph, batch.features)
    return float(np.max(np.abs(va - vb), initial=0.0))
