"""Reference interpreter: the ground truth every compiler is checked against.

Evaluation is one bottom-up fold over the expression DAG, one for all of an
``ExprTuple``'s components (see ``expressions.fold_all``), whose construction
checked the arity: each distinct node is evaluated once, vectorized over the
graph's nodes, and no recursion depth grows with the expression.  The
neighbor sum follows the graph's deterministic edge order.
"""

from __future__ import annotations

import numpy as np

from .activations import apply_vec
from .errors import ArityError
from .expressions import Add, Apply, Expr, ExprTuple, One, Proj, Scale, fold_all
from .graphs import FeatureMap, Graph

__all__ = ["eval_expr", "eval_tuple"]


def eval_expr(e: Expr, g: Graph, chi: FeatureMap) -> np.ndarray:
    """Per-node value of e on (g, chi); shape (node_count,)."""
    return _evaluate(ExprTuple((e,), chi.dimension), g, chi)[0]


def eval_tuple(t: ExprTuple, g: Graph, chi: FeatureMap) -> FeatureMap:
    """Component-wise evaluation; output dimension = number of components.

    The components are evaluated in one fold, so the subterms they share (the
    layers of a translated network, say) are evaluated once.
    """
    if chi.dimension != t.input_arity:
        raise ArityError(
            f"tuple of arity {t.input_arity} applied to {chi.dimension}-dim features"
        )
    return FeatureMap(np.stack(_evaluate(t, g, chi), axis=1))


def _evaluate(t: ExprTuple, g: Graph, chi: FeatureMap) -> list[np.ndarray]:
    """Per-node value of each component on (g, chi), in one fold over their DAG."""
    if chi.node_count != g.node_count:
        raise ArityError(
            f"feature map covers {chi.node_count} nodes, graph has {g.node_count}"
        )
    values = chi.values

    def ev(node: Expr, kids: tuple[np.ndarray, ...]) -> np.ndarray:
        if isinstance(node, One):
            return np.ones(values.shape[0])
        if isinstance(node, Proj):
            return values[:, node.index - 1]
        if isinstance(node, Scale):
            return node.factor * kids[0]
        if isinstance(node, Add):
            return kids[0] + kids[1]
        if isinstance(node, Apply):
            return apply_vec(node.func, kids[0])
        return g.neighbor_sum(kids[0])

    return fold_all(t.components, ev)
