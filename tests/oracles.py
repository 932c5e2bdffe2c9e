"""Worked example transformers with independent brute-force oracles.

The oracles deliberately share no code with the interpreter or compilers:
each is a direct combinatorial computation over the graph structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from mplangc.expressions import Expr
from mplangc.graphs import Graph
from mplangc.mpnn import Mpnn, layer
from mplangc.activations import ID, RELU
from mplangc.parser import parse

__all__ = [
    "Fixture",
    "FIXTURES",
    "oracle_t1",
    "oracle_t2",
    "oracle_t3",
    "oracle_t4",
    "max_mpnn",
]


def oracle_t1(x: float, y: float) -> float:
    """Average of a node's two feature values."""
    return (x + y) / 2.0


def oracle_t2(x: float, y: float) -> float:
    """Maximum of a node's two feature values."""
    return max(x, y)


def oracle_t3(g: Graph, values: np.ndarray, v: int) -> float:
    """Maximum feature over v's neighbors; undefined for isolated nodes."""
    nbrs = g.neighbors(v)
    if not nbrs:
        raise ValueError(f"node {v} has no neighbors; max over empty set undefined")
    return max(float(values[u]) for u in nbrs)


def oracle_t4(g: Graph, values: np.ndarray, v: int) -> float:
    """Sum of end-node features over all length-2 walks from v (w=v counts)."""
    total = 0.0
    for u in g.neighbors(v):
        for w in g.neighbors(u):
            total += float(values[w])
    return total


def max_mpnn() -> Mpnn:
    """Two-layer ReLU network computing max(x, y) = relu(y-x) + x.

    First layer maps (x, y) to relu(y-x, x, -x); second recombines a+b-c.
    """
    first = layer([[-1.0, 1.0], [1.0, 0.0], [-1.0, 0.0]], np.zeros((3, 2)), np.zeros(3), RELU)
    second = layer([[1.0, 1.0, -1.0]], np.zeros((1, 3)), 0.0, ID)
    return Mpnn((first, second))


@dataclass(frozen=True)
class Fixture:
    name: str
    input_arity: int
    expr: Optional[Expr]
    mpnn: Optional[Mpnn]
    oracle: Callable


FIXTURES: dict[str, Fixture] = {
    "T1": Fixture("T1", 2, parse("0.5*P1 + 0.5*P2"), None,
                  lambda g, vals, v: oracle_t1(vals[v][0], vals[v][1])),
    "T2": Fixture("T2", 2, parse("relu(P2 + -1*P1) + P1"), max_mpnn(),
                  lambda g, vals, v: oracle_t2(vals[v][0], vals[v][1])),
    # T3 has no bundled expression: whether the neighborhood max is
    # expressible at all is left open, so only the oracle ships.
    "T3": Fixture("T3", 1, None, None,
                  lambda g, vals, v: oracle_t3(g, vals[:, 0], v)),
    "T4": Fixture("T4", 1, parse("<><>P1"), None,
                  lambda g, vals, v: oracle_t4(g, vals[:, 0], v)),
    "T_sum": Fixture("T_sum", 1, parse("<>P1"), None,
                     lambda g, vals, v: sum(float(vals[u][0]) for u in g.neighbors(v))),
    "T_half": Fixture("T_half", 1, parse("0.5*P1"), None,
                      lambda g, vals, v: float(vals[v][0]) / 2.0),
    "P1": Fixture("P1", 2, parse("P1"), None, lambda g, vals, v: float(vals[v][0])),
    "P2": Fixture("P2", 2, parse("P2"), None, lambda g, vals, v: float(vals[v][1])),
}
