"""Finite undirected loop-free graphs, feature maps, and random instances.

Node ids are dense naturals 0..n-1. Edges are one read-only (E, 2) int64
array of distinct pairs u < v, sorted, so neighbor iteration is in ascending
id order and every neighbor sum downstream is reproducible bit-for-bit.

Random graphs come from one degree-bounded rejection process, `_edges`,
batched across instances: a few numpy calls draw every instance's candidate
pairs, and the greedy degree pass is one loop over their first draws.
`random_graph` is one instance of it; `_sample` draws a batch of instances,
their node counts and features from one seeded stream, so a batch instance
has `random_graph`'s distribution but not its stream.  `random_union` keeps
the batch's edge array as the union's, and every single instance, those
`random_instances` yields included, is a slice of that union.
"""

from __future__ import annotations

import itertools
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


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected graph on nodes 0..node_count-1, built from any iterable of
    node-id pairs; `edges` keeps them as the canonical array described above."""

    node_count: int
    edges: np.ndarray = ()

    def __post_init__(self):
        pairs = self.edges if isinstance(self.edges, np.ndarray) else list(self.edges)
        # The reshape fails unless there are exactly two ids per pair.
        pairs = np.sort(np.asarray(pairs, dtype=np.int64).reshape(len(pairs), 2), axis=1)
        edges = pairs[np.lexsort(pairs.T[::-1])]
        # Sorted, so a repeated pair follows its first copy.
        first = np.ones(len(edges), dtype=bool)
        first[1:] = (edges[1:] != edges[:-1]).any(axis=1)
        edges = edges[first]
        edges.flags.writeable = False
        object.__setattr__(self, "edges", edges)

    @classmethod
    def _from_sorted(cls, node_count: int, edges: np.ndarray) -> Graph:
        """A graph whose (E, 2) int64 edges are already canonical, distinct and sorted."""
        g = object.__new__(cls)
        object.__setattr__(g, "node_count", node_count)
        edges.flags.writeable = False
        object.__setattr__(g, "edges", edges)
        return g

    def __eq__(self, other) -> bool:
        return (isinstance(other, Graph) and self.node_count == other.node_count
                and np.array_equal(self.edges, other.edges))

    def validate(self) -> None:
        """Raise InvalidGraphError on the first violated invariant."""
        if self.node_count < 0:
            raise InvalidGraphError("node_count must be nonnegative")
        edges = self.edges
        bad = np.flatnonzero((edges[:, 0] == edges[:, 1])
                             | ((edges < 0) | (edges >= self.node_count)).any(axis=1))
        if len(bad):
            u, v = edges[bad[0]].tolist()
            if u == v:
                raise InvalidGraphError(f"loop edge ({u}, {v})")
            raise InvalidGraphError(
                f"edge ({u}, {v}) has an endpoint outside 0..{self.node_count - 1}"
            )

    @cached_property
    def _csr(self) -> tuple[np.ndarray, np.ndarray]:
        """(src, dst) over both edge directions, sorted by (src, dst)."""
        u, v = self.edges.T
        src = np.concatenate([u, v])
        dst = np.concatenate([v, u])
        order = np.lexsort((dst, src))
        return src[order], dst[order]

    @cached_property
    def _indptr(self) -> np.ndarray:
        src, _ = self._csr
        counts = np.bincount(src, minlength=self.node_count)
        return np.concatenate([[0], np.cumsum(counts)])

    def _check_node(self, v: int) -> None:
        if not (0 <= v < self.node_count):
            raise InvalidGraphError(f"node id {v} outside 0..{self.node_count - 1}")

    def neighbors(self, v: int) -> list[int]:
        """Neighbors of v in ascending id order."""
        self._check_node(v)
        _, dst = self._csr
        return dst[self._indptr[v]:self._indptr[v + 1]].tolist()

    def degree(self, v: int) -> int:
        self._check_node(v)
        return int(self._indptr[v + 1] - self._indptr[v])

    def max_degree(self) -> int:
        return int(np.diff(self._indptr).max(initial=0))

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

    The sampler's process (see `_edges`) for the one instance: uniform
    candidate pairs are rejected whenever either endpoint already has p
    neighbors, so the degree bound holds by construction.
    """
    if n < 1:
        raise ValueError("need at least one node")
    if p < 0:
        raise ValueError("degree bound must be nonnegative")
    _, u, v = _edges(np.random.default_rng(seed), np.array([n]), np.array([p]))
    return Graph._from_sorted(n, np.stack([u, v], axis=1))


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
    """Stream of (graph, features) samples; p=None means no degree bound.

    The instances of `random_union` at the same arguments, one at a time.
    """
    batch = random_union(p, box, trials, seed, max_nodes)
    for k in range(trials):
        yield batch.instance(k)


class RandomUnion(NamedTuple):
    """The disjoint union of random instances with its features, and the
    union node id at which each instance starts."""

    graph: Graph
    features: FeatureMap
    offsets: list[int]

    def instance(self, k: int) -> tuple[Graph, FeatureMap]:
        """The k-th instance on its own, with its nodes renumbered from 0."""
        if not 0 <= k < len(self.offsets):
            raise IndexError(f"instance {k} outside 0..{len(self.offsets) - 1}")
        lo = self.offsets[k]
        hi = self.offsets[k + 1] if k + 1 < len(self.offsets) else self.graph.node_count
        edges = self.graph.edges
        # Union edges are sorted, and an instance's edges start at its own nodes.
        first, last = np.searchsorted(edges[:, 0], (lo, hi)).tolist()
        local = Graph._from_sorted(hi - lo, edges[first:last] - lo)
        return local, FeatureMap(self.features.values[lo:hi])


def random_union(
    p: int | None,
    box: DomainBox,
    trials: int,
    seed: int,
    max_nodes: int = 8,
) -> RandomUnion:
    """`trials` random instances as one union graph and feature map."""
    offsets, edges, values = _sample(p, box, trials, seed, max_nodes)
    graph = Graph._from_sorted(len(values), edges)
    return RandomUnion(graph, FeatureMap(values), offsets.tolist())


def _sample(
    p: int | None, box: DomainBox, trials: int, seed: int, max_nodes: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(node offsets, union edges, union features) of `trials` instances.

    Instance i has n_i nodes, uniform in 1..max_nodes, and the graph of
    `_edges`' process with degree bound p or, for p=None, n_i - 1.  The edges
    are canonical pairs of union ids in sorted order.
    """
    if p is not None and p < 0:
        raise ValueError("degree bound must be nonnegative")
    rng = np.random.default_rng(seed)
    counts = rng.integers(1, max_nodes + 1, size=trials)
    offsets = np.cumsum(counts) - counts
    inst, u, v = _edges(rng, counts, counts - 1 if p is None else np.full(trials, p))
    edges = np.stack([u, v], axis=1) + offsets[inst, None]
    values = box.lows + rng.random((int(counts.sum()), box.dimension)) * (box.highs - box.lows)
    return offsets, edges, values


# Candidate pairs drawn per numpy call in the sampler.
_DRAW_PAIRS = 1 << 13


def _edges(
    rng: np.random.Generator, counts: np.ndarray, bound: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(instance, u, v) of the edges of instances with counts[i] nodes, sorted.

    Instance i draws 2·counts[i]·max(bound[i], 1) uniform ordered candidate
    pairs, each rejected in order if it is a loop, an edge already chosen, or
    has an endpoint of degree bound[i].  Degrees only grow, so a pair is taken
    at its first draw or never: the process is the greedy pass over the
    distinct pairs in order of first draw.  That pass runs only where
    bound[i] < counts[i] - 1: a node of degree counts[i] - 1 is adjacent to
    every other, so otherwise every distinct pair is taken.  The instances
    are drawn in runs of at most _DRAW_PAIRS candidate pairs (or one
    instance), which bounds the memory.
    """
    m = int(counts.max(initial=1))
    attempts = 2 * counts * np.maximum(bound, 1)
    step = max(1, _DRAW_PAIRS // int(attempts.max(initial=1)))
    taken = [np.zeros(0, dtype=np.int64)]
    for lo in range(0, len(counts), step):
        run = np.arange(lo, min(lo + step, len(counts)))
        inst = np.repeat(run, attempts[run])
        a, b = rng.integers(0, counts[inst][:, None], size=(len(inst), 2)).T
        u, v = np.minimum(a, b), np.maximum(a, b)
        # The first draw of each distinct non-loop pair, in draw order: the
        # least draw index in each run of equal keys, which needs no stable sort.
        pair = np.flatnonzero(u != v)
        key = (inst[pair] * m + u[pair]) * m + v[pair]
        order = np.argsort(key)
        runs = np.flatnonzero(np.diff(key[order], prepend=-1))
        first = np.sort(np.minimum.reduceat(order, runs))
        pair, key = pair[first], key[first]
        inst, u, v = inst[pair], u[pair], v[pair]
        take = bound[inst] >= counts[inst] - 1
        # The greedy pass over the bounded instances' pairs, in draw order.
        bounded = np.flatnonzero(~take)
        node = (inst[bounded] - lo) * m
        degree = [0] * (len(run) * m)
        for k, s, t, cap in zip(bounded.tolist(), (node + u[bounded]).tolist(),
                                (node + v[bounded]).tolist(), bound[inst[bounded]].tolist()):
            if degree[s] < cap and degree[t] < cap:
                take[k] = True
                degree[s] += 1
                degree[t] += 1
        taken.append(key[take])
    inst, rest = np.divmod(np.sort(np.concatenate(taken)), m * m)
    return (inst, *np.divmod(rest, m))


def disjoint_union(graphs: Iterable[Graph]) -> tuple[Graph, list[int]]:
    """Union of valid graphs plus the node-id offset of each component."""
    graphs = list(graphs)
    counts = np.array([g.node_count for g in graphs], dtype=np.int64)
    offsets = np.cumsum(counts) - counts
    edges = np.concatenate([np.zeros((0, 2), dtype=np.int64), *(g.edges for g in graphs)])
    edges += np.repeat(offsets, [len(g.edges) for g in graphs])[:, None]
    # Each component's edges are sorted and inside its own nodes, so the
    # shifted concatenation is sorted too.
    return Graph._from_sorted(int(counts.sum()), edges), offsets.tolist()


# -- JSON interchange ---------------------------------------------------------

def graph_to_json(g: Graph) -> dict:
    return {"nodes": g.node_count, "edges": g.edges.tolist()}


def graph_from_json(obj: dict) -> Graph:
    """The graph of a graph_to_json object; InvalidGraphError if obj is none."""
    if not isinstance(obj, dict):
        raise InvalidGraphError("malformed graph: the top level must be a JSON object")
    try:
        nodes, edges = obj["nodes"], obj["edges"]
        lengths = set(map(len, edges))
        kinds = set(map(type, itertools.chain.from_iterable(edges)))
    except KeyError as exc:
        raise InvalidGraphError(f"malformed graph: no {exc} field") from exc
    except TypeError as exc:
        raise InvalidGraphError(f"malformed graph: {exc}") from exc
    if type(nodes) is not int:
        raise InvalidGraphError(f"malformed graph: nodes must be an integer, got {nodes!r}")
    if not (lengths <= {2} and kinds <= {int}):
        bad = next(e for e in edges if len(e) != 2 or not all(type(u) is int for u in e))
        raise InvalidGraphError(f"malformed graph: edge {list(bad)!r} is not two integers")
    try:
        g = Graph(nodes, edges)
    except OverflowError:  # an endpoint beyond int64
        raise InvalidGraphError(f"an edge has an endpoint outside 0..{nodes - 1}") from None
    g.validate()
    return g


def features_to_json(fm: FeatureMap) -> dict:
    return {"dim": fm.dimension, "values": fm.values.tolist()}


def features_from_json(obj: dict) -> FeatureMap:
    """The feature map of a features_to_json object; InvalidGraphError if obj is none."""
    if not isinstance(obj, dict):
        raise InvalidGraphError("malformed features: the top level must be a JSON object")
    try:
        dim, values = obj["dim"], np.asarray(obj["values"])
    except KeyError as exc:
        raise InvalidGraphError(f"malformed features: no {exc} field") from exc
    except (TypeError, ValueError) as exc:
        raise InvalidGraphError(f"malformed features: {exc}") from exc
    if type(dim) is not int or dim < 1:
        raise InvalidGraphError(f"malformed features: dim must be a positive integer, got {dim!r}")
    rows = values.shape == (0,) or values.ndim == 2 and values.shape[1] == dim
    if values.dtype.kind not in "iuf" or not rows:
        raise InvalidGraphError(f"malformed features: values must be rows of {dim} numbers")
    if not np.isfinite(values).all():
        raise InvalidGraphError("feature values must be finite (no NaN or infinity)")
    return FeatureMap(values.astype(float).reshape(-1, dim))
