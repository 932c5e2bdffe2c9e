"""Independent reference semantics for the benchmark's correctness checks.

Two evaluators, written with numpy alone:

* ``eval_expr`` walks an MPLang expression iteratively, once per distinct
  node object, so shared sub-expressions (as in translations) cost once and
  deep left-associated sums need no recursion;
* ``eval_network`` runs the forward pass of a named-activation MPNN read from
  its JSON form (``{"layers": [{"W1", "W2", "b", "sigma"}, ...]}``).

Both use their own activation table and their own neighbour sum, built from
the edge list with ``np.bincount``.  Expression nodes are read by class name
and field, so nothing here depends on ``mplangc.interpreter`` or
``mplangc.mpnn``.
"""

from __future__ import annotations

import numpy as np


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


ACTIVATIONS = {
    "id": lambda x: x,
    "relu": lambda x: np.maximum(x, 0.0),
    "tanh": np.tanh,
    "sigmoid": _sigmoid,
    "sin": np.sin,
    "abs": np.abs,
}


class Instance:
    """A graph given by its node count and edge list, with its features."""

    def __init__(self, node_count: int, edges, features):
        self.node_count = int(node_count)
        pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        # Each undirected edge feeds both endpoints.
        self._to = np.concatenate([pairs[:, 0], pairs[:, 1]])
        self._from = np.concatenate([pairs[:, 1], pairs[:, 0]])
        x = np.asarray(features, dtype=float)
        self.features = x.reshape(self.node_count, -1)

    @classmethod
    def from_json(cls, graph: dict, features: dict) -> "Instance":
        """From the CLI's graph and feature JSON objects."""
        return cls(graph["nodes"], graph["edges"], features["values"])

    def neighbor_sum(self, values: np.ndarray) -> np.ndarray:
        """Per node, the sum of `values` over its neighbours; 1-d or 2-d."""
        n = self.node_count
        if values.ndim == 1:
            return np.bincount(self._to, weights=values[self._from], minlength=n)
        cols = [self.neighbor_sum(values[:, k]) for k in range(values.shape[1])]
        return np.stack(cols, axis=1) if cols else np.zeros((n, 0))


def _activation(func) -> callable:
    name = getattr(func, "name", None)
    if name not in ACTIVATIONS:
        raise ValueError(f"the reference knows named activations only, not {func!r}")
    return ACTIVATIONS[name]


def children(node) -> tuple:
    kind = type(node).__name__
    if kind in ("Scale", "Apply", "Diamond"):
        return (node.arg,)
    if kind == "Add":
        return (node.left, node.right)
    return ()


def _node_value(node, args: list, inst: Instance) -> np.ndarray:
    kind = type(node).__name__
    if kind == "One":
        return np.ones(inst.node_count)
    if kind == "Proj":
        return inst.features[:, node.index - 1]
    if kind == "Scale":
        return node.factor * args[0]
    if kind == "Add":
        return args[0] + args[1]
    if kind == "Apply":
        return _activation(node.func)(args[0])
    if kind == "Diamond":
        return inst.neighbor_sum(args[0])
    raise TypeError(f"not an expression node: {node!r}")


def eval_expr(expr, inst: Instance) -> np.ndarray:
    """Per-node value of `expr` on `inst`; shape (node_count,)."""
    values: dict[int, np.ndarray] = {}
    stack = [expr]
    while stack:
        node = stack[-1]
        if id(node) in values:
            stack.pop()
            continue
        pending = [c for c in children(node) if id(c) not in values]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        args = [values[id(c)] for c in children(node)]
        values[id(node)] = _node_value(node, args, inst)
    return values[id(expr)]


def eval_network(net_json: dict, inst: Instance) -> np.ndarray:
    """Forward pass of a named-activation MPNN; shape (node_count, outputs)."""
    x = inst.features
    for spec in net_json["layers"]:
        rows = len(spec["b"])
        w_self = np.asarray(spec["W1"], dtype=float).reshape(rows, x.shape[1])
        w_neigh = np.asarray(spec["W2"], dtype=float).reshape(rows, x.shape[1])
        bias = np.asarray(spec["b"], dtype=float)
        sigma = spec["sigma"]
        if sigma.get("kind") != "named" or sigma.get("name") not in ACTIVATIONS:
            raise ValueError(f"the reference knows named activations only, not {sigma!r}")
        pre = np.einsum("nk,rk->nr", x, w_self)
        pre += np.einsum("nk,rk->nr", inst.neighbor_sum(x), w_neigh)
        x = ACTIVATIONS[sigma["name"]](pre + bias)
    return x


def relu_only(expr) -> bool:
    """True iff every function application in `expr` is relu."""
    seen: set[int] = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if type(node).__name__ == "Apply" and getattr(node.func, "name", None) != "relu":
            return False
        stack.extend(children(node))
    return True


def tree_and_dag_size(exprs) -> tuple[int, int]:
    """(nodes of the expressions read as trees, distinct node objects in them)."""
    size: dict[int, int] = {}
    stack = list(exprs)
    while stack:
        node = stack[-1]
        if id(node) in size:
            stack.pop()
            continue
        pending = [c for c in children(node) if id(c) not in size]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        size[id(node)] = 1 + sum(size[id(c)] for c in children(node))
    return sum(size[id(e)] for e in exprs), len(size)
