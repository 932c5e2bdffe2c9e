import numpy as np
import pytest

from mplangc.graphs import (
    FeatureMap,
    Graph,
    InvalidGraphError,
    disjoint_union,
    features_from_json,
    features_to_json,
    graph_from_json,
    graph_to_json,
    random_features,
    random_graph,
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


def test_edges_canonicalized_and_symmetric():
    g = Graph(3, ((1, 0), (0, 1), (2, 1)))
    assert g.edges == ((0, 1), (1, 2))
    for v in range(3):
        for u in g.neighbors(v):
            assert v in g.neighbors(u)


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
    assert g.node_count == 1 and g.edges == ()


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
