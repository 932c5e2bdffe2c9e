import inspect
import tracemalloc

import numpy as np
import pytest

from helpers import random_graph_by_pairs
from mplangc.graphs import (
    FeatureMap,
    Graph,
    InvalidGraphError,
    RandomUnion,
    disjoint_union,
    features_from_json,
    features_to_json,
    graph_from_json,
    graph_to_json,
    random_features,
    random_graph,
    random_instances,
    random_union,
)
from mplangc.intervals import DomainBox

TRIANGLE = Graph(3, ((0, 1), (1, 2), (2, 0)))


def test_validate_triangle_ok():
    TRIANGLE.validate()


def test_validate_rejects_loop():
    with pytest.raises(InvalidGraphError, match="loop"):
        Graph(3, ((0, 0),)).validate()


def test_validate_rejects_dangling_endpoint():
    with pytest.raises(InvalidGraphError, match="outside"):
        Graph(3, ((0, 5),)).validate()


def test_neighbors_triangle():
    assert TRIANGLE.neighbors(0) == [1, 2]


def test_neighbors_isolated():
    assert Graph(1, ()).neighbors(0) == []


def test_neighbors_path_middle():
    path = Graph(3, ((0, 1), (1, 2)))
    assert path.neighbors(1) == [0, 2]


def test_neighbors_invalid_node():
    with pytest.raises(InvalidGraphError):
        TRIANGLE.neighbors(7)


@pytest.mark.parametrize("v", [-1, 3])
def test_degree_checks_the_node_as_neighbors_does(v):
    g = Graph(3, ((0, 1),))
    assert [g.degree(u) for u in range(3)] == [1, 1, 0]
    for query in (g.degree, g.neighbors):
        with pytest.raises(InvalidGraphError, match="outside 0..2"):
            query(v)


def test_edges_canonicalized_and_symmetric():
    g = Graph(3, ((1, 0), (0, 1), (2, 1)))
    assert g.edges.tolist() == [[0, 1], [1, 2]]
    for v in range(3):
        for u in g.neighbors(v):
            assert v in g.neighbors(u)


@pytest.mark.parametrize("seed", range(20))
def test_edges_match_the_sorted_set_of_canonical_pairs(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    pairs = [tuple(e) for e in rng.integers(0, n, size=(int(rng.integers(0, 30)), 2)).tolist()]
    pairs += [(v, u) for u, v in pairs[:5]] + pairs[:3]  # reversed and repeated pairs
    # The canonical form as it was computed on tuples, kept as the oracle.
    oracle = sorted({(u, v) if u < v else (v, u) for u, v in pairs})
    assert Graph(n, pairs).edges.tolist() == [list(e) for e in oracle]


def test_edges_are_a_read_only_int64_array():
    batch = random_union(0, BOX, 3, 0)
    union, _ = disjoint_union([Graph(2, ()), Graph(1, ())])
    for g in (Graph(3, ()), Graph(0, []), batch.graph, batch.instance(1)[0], union):
        assert g.edges.shape == (0, 2)
    for g in (TRIANGLE, random_graph(9, 3, 1), random_union(3, BOX, 20, 0).instance(2)[0],
              disjoint_union([TRIANGLE, TRIANGLE])[0]):
        assert g.edges.dtype == np.int64 and g.edges.ndim == 2 and g.edges.shape[1] == 2
        with pytest.raises(ValueError):
            g.edges[0, 0] = 1


def test_graphs_from_tuples_arrays_and_slices_are_equal():
    pairs = ((0, 1), (2, 1), (1, 0))
    union, _ = disjoint_union([Graph(1, ()), Graph(3, pairs)])
    sliced = RandomUnion(union, FeatureMap(np.zeros((4, 1))), [0, 1]).instance(1)[0]
    forms = [Graph(3, pairs), Graph(3, list(pairs)), Graph(3, iter(pairs)),
             Graph(3, np.array(pairs)), Graph(3, np.array(pairs)[::-1]), sliced]
    assert all(g == forms[0] for g in forms)
    assert forms[0] != Graph(4, pairs) and forms[0] != Graph(3, pairs[:1])
    assert forms[0] != pairs


def test_edges_must_be_pairs():
    for bad in ([(0, 1, 2)], [(0, 1, 2), (1, 2, 0)], [0, 1]):
        with pytest.raises(ValueError):
            Graph(3, bad)


@pytest.mark.parametrize(
    "g,expected",
    [
        (TRIANGLE, 2),
        (Graph(4, ()), 0),
        (Graph(6, tuple((0, i) for i in range(1, 6))), 5),  # star with 5 leaves
    ],
)
def test_max_degree(g, expected):
    assert g.max_degree() == expected


def test_random_graph_single_node():
    g = random_graph(1, 0, seed=3)
    assert g.node_count == 1 and g.edges.shape == (0, 2)


def test_random_graph_deterministic():
    assert random_graph(10, 3, seed=7) == random_graph(10, 3, seed=7)


@pytest.mark.parametrize("seed", range(25))
def test_random_graph_respects_degree_bound(seed):
    g = random_graph(10, 3, seed)
    g.validate()
    assert g.max_degree() <= 3


@pytest.mark.parametrize("seed", range(10))
def test_random_graph_neighbor_symmetry(seed):
    g = random_graph(12, 4, seed)
    for v in range(g.node_count):
        for u in g.neighbors(v):
            assert v in g.neighbors(u)


def test_random_features_degenerate_box():
    fm = random_features(TRIANGLE, DomainBox.cube(0.0, 0.0, 2), seed=5)
    assert np.array_equal(fm.values, np.zeros((3, 2)))


def test_random_features_deterministic():
    box = DomainBox.cube(-1.0, 1.0, 2)
    a = random_features(TRIANGLE, box, seed=11)
    b = random_features(TRIANGLE, box, seed=11)
    assert np.array_equal(a.values, b.values)


def test_random_features_inside_box():
    box = DomainBox.from_pairs([[-1.0, 1.0], [2.0, 3.0]])
    g = Graph(1000, ())
    fm = random_features(g, box, seed=1)
    assert (fm.values[:, 0] >= -1).all() and (fm.values[:, 0] <= 1).all()
    assert (fm.values[:, 1] >= 2).all() and (fm.values[:, 1] <= 3).all()


def test_neighbor_sum_matches_neighbors():
    vals = np.array([[1.0], [2.0], [3.0]])
    sums = TRIANGLE.neighbor_sum(vals)
    for v in range(3):
        assert sums[v, 0] == sum(vals[u, 0] for u in TRIANGLE.neighbors(v))


@pytest.mark.parametrize(
    "g",
    [
        random_graph(40, 5, 3),             # random degrees up to 5
        Graph(5, ((1, 3),)),                # isolated nodes around one edge
        Graph(4, ((0, 1), (0, 2), (0, 3))),  # a star: node 0 has every edge
        Graph(6, ()),                       # no edges
        Graph(0, ()),                       # no nodes
    ],
)
@pytest.mark.parametrize("shape", [(), (3,)])
def test_neighbor_sum_matches_a_loop_over_neighbors(g, shape):
    vals = np.random.default_rng(g.node_count).uniform(-2, 2, (g.node_count, *shape))
    want = np.zeros_like(vals)
    for v in range(g.node_count):
        for u in g.neighbors(v):
            want[v] += vals[u]
    got = g.neighbor_sum(vals)
    # Both add each node's neighbors in ascending order, starting from 0.
    assert got.shape == vals.shape and np.array_equal(got, want)


def test_graph_json_roundtrip_and_symmetrize():
    g = graph_from_json({"nodes": 3, "edges": [[1, 0], [1, 2]]})
    assert g == Graph(3, ((0, 1), (1, 2)))
    assert graph_to_json(g) == {"nodes": 3, "edges": [[0, 1], [1, 2]]}


def test_features_json_roundtrip():
    fm = FeatureMap(np.array([[1.0, 2.0], [3.0, 4.0]]))
    again = features_from_json(features_to_json(fm))
    assert np.array_equal(fm.values, again.values)


def test_feature_map_is_immutable():
    fm = FeatureMap(np.zeros((2, 1)))
    with pytest.raises(ValueError):
        fm.values[0, 0] = 1.0


def test_disjoint_union_offsets():
    union, offsets = disjoint_union([TRIANGLE, Graph(2, ((0, 1),))])
    assert union.node_count == 5
    assert offsets == [0, 3]
    assert union.neighbors(3) == [4]
    assert union.neighbors(0) == [1, 2]


def test_disjoint_union_offsets_edges_as_before():
    graphs = [Graph(0, ()), TRIANGLE, Graph(3, ()), Graph(0, ()), random_graph(9, 3, 4),
              Graph(1, ()), Graph(2, ((1, 0),))]
    # The union as it was built edge by edge, for comparison.
    edges, offsets, total = [], [], 0
    for g in graphs:
        offsets.append(total)
        edges.extend((u + total, v + total) for u, v in g.edges)
        total += g.node_count
    union, got = disjoint_union(iter(graphs))
    assert union == Graph(total, tuple(edges)) and got == offsets
    assert union.edges.dtype == np.int64
    assert all(type(x) is int for x in got)
    assert disjoint_union([]) == (Graph(0, ()), [])


# -- the batch sampler -------------------------------------------------------------

BOX = DomainBox.from_pairs([[-1.0, 1.0], [2.0, 3.0]])


def _instance_sizes(batch: RandomUnion) -> tuple[np.ndarray, np.ndarray]:
    """Node and edge count of each instance of the union."""
    bounds = np.array(batch.offsets + [batch.graph.node_count])
    edges = np.array(batch.graph.edges, dtype=np.int64).reshape(-1, 2)
    owner = np.searchsorted(bounds, edges[:, 0], side="right") - 1
    return np.diff(bounds), np.bincount(owner, minlength=len(batch.offsets))


@pytest.mark.parametrize("max_nodes", [1, 2, 8, 13])
def test_sampled_node_counts_lie_in_range(max_nodes):
    counts, _ = _instance_sizes(random_union(2, BOX, 400, 3, max_nodes))
    assert counts.min() >= 1 and counts.max() <= max_nodes
    assert set(counts.tolist()) == set(range(1, max_nodes + 1))  # 400 draws see each


@pytest.mark.parametrize("p", [0, 1, 2, 3, 5, None])
def test_sampled_graphs_are_canonical_and_degree_bounded(p):
    batch = random_union(p, BOX, 500, 11)
    g = batch.graph
    g.validate()
    edges = np.array(g.edges, dtype=np.int64).reshape(-1, 2)
    assert (edges[:, 0] < edges[:, 1]).all()
    keys = edges[:, 0] * g.node_count + edges[:, 1]
    assert (np.diff(keys) > 0).all()  # sorted and distinct
    counts, edge_counts = _instance_sizes(batch)
    bounds = np.array(batch.offsets + [g.node_count])
    # no edge leaves its instance
    assert (np.searchsorted(bounds, edges[:, 1], side="right")
            == np.searchsorted(bounds, edges[:, 0], side="right")).all()
    degrees = np.bincount(edges.ravel(), minlength=g.node_count)
    owner_size = np.repeat(counts, counts)
    assert (degrees <= owner_size - 1).all()
    if p is not None:
        assert degrees.max(initial=0) <= p
    if p == 0:
        assert g.edges.shape == (0, 2)
    else:
        assert edge_counts.sum() > 0


@pytest.mark.parametrize("box", [BOX, DomainBox.cube(0.5, 0.5, 3)])
def test_sampled_features_lie_in_the_box(box):
    values = random_union(3, box, 300, 5).features.values
    assert values.shape[1] == box.dimension
    assert (values >= box.lows).all() and (values <= box.highs).all()
    if box.lows[0] == box.highs[0]:
        assert (values == 0.5).all()


def test_sampler_is_deterministic_in_the_seed():
    a, b, c = (random_union(3, BOX, 200, seed) for seed in (7, 7, 8))
    assert a.graph == b.graph and a.offsets == b.offsets
    assert np.array_equal(a.features.values, b.features.values)
    assert a.graph != c.graph or not np.array_equal(a.features.values, c.features.values)


def test_sampler_rejects_a_negative_degree_bound_and_allows_no_trials():
    with pytest.raises(ValueError, match="nonnegative"):
        random_union(-1, BOX, 5, 0)
    empty = random_union(2, BOX, 0, 0)
    assert empty.graph == Graph(0, ()) and empty.offsets == []
    assert empty.features.values.shape == (0, 2)
    assert list(random_instances(2, BOX, 0, 0)) == []


@pytest.mark.parametrize("p", [0, 2, None])
def test_random_union_is_the_union_of_random_instances(p):
    batch = random_union(p, BOX, 150, 21, 6)
    parts = list(random_instances(p, BOX, 150, 21, 6))
    graph, offsets = disjoint_union(g for g, _ in parts)
    assert graph == batch.graph and offsets == batch.offsets
    assert np.array_equal(np.concatenate([fm.values for _, fm in parts]),
                          batch.features.values)
    assert len(parts) == len(batch.offsets)
    for k, (g, fm) in enumerate(parts):
        want_g, want_fm = batch.instance(k)
        assert g == want_g and np.array_equal(fm.values, want_fm.values)


def test_instance_accessor_returns_the_union_slice():
    batch = random_union(3, BOX, 120, 4)
    bounds = batch.offsets + [batch.graph.node_count]
    for k in range(len(batch.offsets)):
        g, fm = batch.instance(k)
        lo, hi = bounds[k], bounds[k + 1]
        assert g.node_count == hi - lo
        assert tuple((u + lo, v + lo) for u, v in g.edges) == tuple(
            (u, v) for u, v in batch.graph.edges if lo <= u < hi)
        assert g == Graph(g.node_count, g.edges)  # canonical as built
        assert np.array_equal(fm.values, batch.features.values[lo:hi])
    with pytest.raises(IndexError):
        batch.instance(len(batch.offsets))


@pytest.mark.parametrize("p", [0, 1, 3, None])
def test_sampled_edge_counts_follow_random_graph(p):
    # Each instance of n nodes runs random_graph's process, so its mean edge
    # count matches that of the pair-by-pair process over many seeds.
    # Deterministic; the allowed gap is 4.5 standard errors of the difference
    # of the means.
    counts, edge_counts = _instance_sizes(random_union(p, BOX, 8_000, 99))
    for n in range(1, 9):
        batch = edge_counts[counts == n]
        bound = n - 1 if p is None else p
        single = np.array([len(random_graph_by_pairs(n, bound, 10_000 * n + s))
                           for s in range(600)])
        gap = abs(batch.mean() - single.mean())
        stderr = np.sqrt(batch.var() / len(batch) + single.var() / len(single))
        assert gap <= 4.5 * stderr + 1e-12, (n, batch.mean(), single.mean(), stderr)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12, 40, 200])
def test_random_graph_is_the_pair_by_pair_process(n):
    # The batched sampler's one instance draws the same stream and keeps the
    # same edges as the process run one candidate pair at a time.
    for p in (0, 1, 2, 3, 7, 50):
        for seed in range(5):
            assert np.array_equal(random_graph(n, p, seed).edges,
                                  random_graph_by_pairs(n, p, seed)), (n, p, seed)
    big = random_graph(4000, 3, n)
    assert np.array_equal(big.edges, random_graph_by_pairs(4000, 3, n))
    assert big.edges.dtype == np.int64 and big.max_degree() <= 3


@pytest.mark.parametrize("sample", [lambda: random_union(3, BOX, 1, 0, max_nodes=4000),
                                    lambda: random_graph(4000, 3, 0)],
                         ids=["union", "graph"])
def test_sampling_a_large_instance_needs_no_table_of_node_pairs(sample):
    # 4,000 nodes make 16M ordered node pairs; the sampler's memory follows
    # the candidate pairs it draws (at most 24,000 here), not the node pairs.
    tracemalloc.start()
    try:
        sample()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


# -- the sampling API the benchmark calls ------------------------------------------

def test_sampling_api_used_by_the_benchmark():
    assert inspect.isgeneratorfunction(random_instances)
    params = inspect.signature(random_instances).parameters
    assert list(params) == ["p", "box", "trials", "seed", "max_nodes"]
    assert params["max_nodes"].default == 8
    assert list(inspect.signature(random_union).parameters) == list(params)
    union, offsets = disjoint_union(g for g in (TRIANGLE, Graph(2, ((0, 1),))))
    assert union.node_count == 5 and offsets == [0, 3]
    batch = random_union(1, BOX, 3, 0)
    assert {"graph", "features", "offsets"} <= set(RandomUnion._fields)
    assert isinstance(batch.graph, Graph) and isinstance(batch.features, FeatureMap)
    assert isinstance(batch.offsets, list)
