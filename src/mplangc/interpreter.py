"""Reference interpreter: the ground truth every compiler is checked against.

Evaluation is one bottom-up fold over the expression DAG (see
``expressions.fold``): each distinct node is evaluated once, vectorized over
the graph's nodes, and no recursion depth grows with the expression.  The
neighbor sum follows the graph's deterministic edge order.
"""

from __future__ import annotations

import numpy as np

from .activations import apply_vec
from .errors import ArityError
from .expressions import Add, Apply, Expr, ExprTuple, One, Proj, Scale, fold
from .graphs import FeatureMap, Graph

__all__ = ["eval_expr", "eval_tuple"]


def eval_expr(e: Expr, g: Graph, chi: FeatureMap) -> np.ndarray:
    """Per-node value of e on (g, chi); shape (node_count,)."""
    if chi.node_count != g.node_count:
        raise ArityError(
            f"feature map covers {chi.node_count} nodes, graph has {g.node_count}"
        )
    values = chi.values

    def ev(node: Expr, kids: tuple[np.ndarray, ...]) -> np.ndarray:
        if isinstance(node, One):
            return np.ones(values.shape[0])
        if isinstance(node, Proj):
            if node.index > chi.dimension:
                raise ArityError(f"expression needs arity > {chi.dimension}")
            return values[:, node.index - 1]
        if isinstance(node, Scale):
            return node.factor * kids[0]
        if isinstance(node, Add):
            return kids[0] + kids[1]
        if isinstance(node, Apply):
            return apply_vec(node.func, kids[0])
        return g.neighbor_sum(kids[0])

    return fold(e, ev)


def eval_tuple(t: ExprTuple, g: Graph, chi: FeatureMap) -> FeatureMap:
    """Component-wise evaluation; output dimension = number of components."""
    if chi.dimension != t.input_arity:
        raise ArityError(
            f"tuple of arity {t.input_arity} applied to {chi.dimension}-dim features"
        )
    cols = [eval_expr(c, g, chi) for c in t.components]
    return FeatureMap(np.stack(cols, axis=1))
