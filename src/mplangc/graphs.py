"""Finite undirected loop-free graphs, feature maps, and random instances.

Node ids are dense naturals 0..n-1. Neighbor iteration is always in
ascending id order so that every neighbor sum downstream is reproducible
bit-for-bit at a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import ArityError
from .intervals import DomainBox

__all__ = [
    "Graph",
    "FeatureMap",
    "InvalidGraphError",
    "random_graph",
    "random_features",
    "random_instances",
    "RandomUnion",
    "random_union",
    "disjoint_union",
    "graph_to_json",
    "graph_from_json",
    "features_to_json",
    "features_from_json",
]


class InvalidGraphError(ValueError):
    """A graph or feature map read from outside breaks an invariant."""


@dataclass(frozen=True)
class Graph:
    """Undirected graph on nodes 0..node_count-1 with canonicalized edge pairs."""

    node_count: int
    edges: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        canonical = sorted({(min(u, v), max(u, v)) for u, v in self.edges})
        object.__setattr__(self, "edges", tuple(canonical))

    def validate(self) -> None:
        """Raise InvalidGraphError on the first violated invariant."""
        if self.node_count < 0:
            raise InvalidGraphError("node_count must be nonnegative")
        for u, v in self.edges:
            if u == v:
                raise InvalidGraphError(f"loop edge ({u}, {v})")
            if not (0 <= u < self.node_count) or not (0 <= v < self.node_count):
                raise InvalidGraphError(
                    f"edge ({u}, {v}) has an endpoint outside 0..{self.node_count - 1}"
                )

    @cached_property
    def _csr(self) -> tuple[np.ndarray, np.ndarray]:
        """(src, dst) over both edge directions, sorted by (src, dst)."""
        if not self.edges:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty
        e = np.asarray(self.edges, dtype=np.int64)
        src = np.concatenate([e[:, 0], e[:, 1]])
        dst = np.concatenate([e[:, 1], e[:, 0]])
        order = np.lexsort((dst, src))
        return src[order], dst[order]

    @cached_property
    def _indptr(self) -> np.ndarray:
        src, _ = self._csr
        counts = np.bincount(src, minlength=self.node_count)
        return np.concatenate([[0], np.cumsum(counts)])

    def neighbors(self, v: int) -> list[int]:
        """Neighbors of v in ascending id order."""
        if not (0 <= v < self.node_count):
            raise InvalidGraphError(f"node id {v} outside 0..{self.node_count - 1}")
        _, dst = self._csr
        return dst[self._indptr[v]:self._indptr[v + 1]].tolist()

    def degree(self, v: int) -> int:
        return int(self._indptr[v + 1] - self._indptr[v])

    def max_degree(self) -> int:
        if self.node_count == 0 or not self.edges:
            return 0
        src, _ = self._csr
        return int(np.bincount(src, minlength=self.node_count).max())

    def neighbor_sum(self, values: np.ndarray) -> np.ndarray:
        """Per node, the sum of `values` rows over its neighbors.

        `values` has shape (node_count,) or (node_count, d).  Each column is
        one bincount over the sorted edge arrays, which adds in edge order,
        hence deterministically.
        """
        if values.shape[0] != self.node_count:
            raise ArityError(
                f"feature map has {values.shape[0]} rows for {self.node_count} nodes"
            )
        n = self.node_count
        src, dst = self._csr
        if values.ndim == 1:
            return np.bincount(src, weights=values[dst], minlength=n)
        out = np.zeros(values.shape)
        for j in range(values.shape[1]):
            out[:, j] = np.bincount(src, weights=values[dst, j], minlength=n)
        return out


@dataclass(frozen=True)
class FeatureMap:
    """One d-vector of reals per node, stored as an immutable (n, d) array."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2:
            raise ValueError("feature values must be a (node, coordinate) array")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def node_count(self) -> int:
        return self.values.shape[0]

    @property
    def dimension(self) -> int:
        return self.values.shape[1]


def random_graph(n: int, p: int, seed: int) -> Graph:
    """Random graph on n nodes with max degree <= p, deterministic in seed.

    Uniform candidate pairs are rejected whenever either endpoint already has
    p neighbors, so the degree bound holds by construction.
    """
    if n < 1:
        raise ValueError("need at least one node")
    if p < 0:
        raise ValueError("degree bound must be nonnegative")
    rng = np.random.default_rng(seed)
    degree = [0] * n
    chosen: set[tuple[int, int]] = set()
    attempts = 2 * n * max(p, 1)
    candidates = rng.integers(0, n, size=(attempts, 2))
    for u, v in candidates.tolist():
        if u == v:
            continue
        edge = (min(u, v), max(u, v))
        if edge in chosen or degree[u] >= p or degree[v] >= p:
            continue
        chosen.add(edge)
        degree[u] += 1
        degree[v] += 1
    return Graph(n, tuple(sorted(chosen)))


def random_features(g: Graph, box: DomainBox, seed: int) -> FeatureMap:
    """Feature map sampled uniformly inside `box`, deterministic in seed."""
    rng = np.random.default_rng(seed)
    lo = box.lows
    hi = box.highs
    u = rng.random((g.node_count, box.dimension))
    return FeatureMap(lo + u * (hi - lo))


def random_instances(
    p: int | None,
    box: DomainBox,
    trials: int,
    seed: int,
    max_nodes: int = 8,
) -> Iterator[tuple[Graph, FeatureMap]]:
    """Stream of (graph, features) samples; p=None means no degree bound."""
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        n = int(rng.integers(1, max_nodes + 1))
        bound = n - 1 if p is None else p
        g = random_graph(n, bound, int(rng.integers(0, 2**63)))
        fm = random_features(g, box, int(rng.integers(0, 2**63)))
        yield g, fm


class RandomUnion(NamedTuple):
    """Random instances, their disjoint union with its features, and the
    union node id at which each instance starts."""

    instances: list[tuple[Graph, FeatureMap]]
    graph: Graph
    features: FeatureMap
    offsets: list[int]


def random_union(
    p: int | None,
    box: DomainBox,
    trials: int,
    seed: int,
    max_nodes: int = 8,
) -> RandomUnion:
    """The `random_instances` stream as one union graph and feature map."""
    instances = list(random_instances(p, box, trials, seed, max_nodes))
    graph, offsets = disjoint_union(g for g, _ in instances)
    values = [fm.values for _, fm in instances] or [np.zeros((0, box.dimension))]
    return RandomUnion(instances, graph, FeatureMap(np.concatenate(values)), offsets)


def disjoint_union(graphs: Iterable[Graph]) -> tuple[Graph, list[int]]:
    """Union graph plus the node-id offset of each component."""
    offsets: list[int] = []
    edges: list[tuple[int, int]] = []
    total = 0
    for g in graphs:
        offsets.append(total)
        edges.extend((u + total, v + total) for u, v in g.edges)
        total += g.node_count
    return Graph(total, tuple(edges)), offsets


# -- JSON interchange ---------------------------------------------------------

def graph_to_json(g: Graph) -> dict:
    return {"nodes": g.node_count, "edges": [[u, v] for u, v in g.edges]}


def graph_from_json(obj: dict) -> Graph:
    g = Graph(int(obj["nodes"]), tuple((int(u), int(v)) for u, v in obj["edges"]))
    g.validate()
    return g


def features_to_json(fm: FeatureMap) -> dict:
    return {"dim": fm.dimension, "values": fm.values.tolist()}


def features_from_json(obj: dict) -> FeatureMap:
    fm = FeatureMap(np.asarray(obj["values"], dtype=float).reshape(-1, int(obj["dim"])))
    if fm.dimension != int(obj["dim"]):
        raise ValueError("feature rows do not match declared dimension")
    if not np.isfinite(fm.values).all():
        raise InvalidGraphError("feature values must be finite (no NaN or infinity)")
    return fm
