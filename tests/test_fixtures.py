import numpy as np
import pytest

from mplangc.compiler import compile_relu
from oracles import (
    FIXTURES,
    max_mpnn,
    oracle_t1,
    oracle_t2,
    oracle_t3,
    oracle_t4,
)
from mplangc.graphs import FeatureMap, Graph, random_graph, random_features
from mplangc.intervals import DomainBox
from mplangc.interpreter import eval_expr
from mplangc.mpnn import eval_mpnn

PATH = Graph(3, ((0, 1), (1, 2)))


@pytest.mark.parametrize("x,y,expected", [(1, 3, 2), (0, 0, 0), (-2, 4, 1)])
def test_oracle_average(x, y, expected):
    assert oracle_t1(x, y) == expected


@pytest.mark.parametrize("x,y,expected", [(1, 3, 3), (3, 3, 3), (-1, -4, -1)])
def test_oracle_max(x, y, expected):
    assert oracle_t2(x, y) == expected


def test_oracle_neighbor_max_star():
    star = Graph(4, ((0, 1), (0, 2), (0, 3)))
    vals = np.array([0.0, 1.0, 5.0, 2.0])
    assert oracle_t3(star, vals, 0) == 5.0


def test_oracle_neighbor_max_path():
    assert oracle_t3(PATH, np.array([7.0, 0.0, 3.0]), 1) == 7.0


def test_oracle_neighbor_max_isolated_errors():
    with pytest.raises(ValueError, match="no neighbors"):
        oracle_t3(Graph(1, ()), np.array([1.0]), 0)


def test_oracle_two_hop_path():
    assert oracle_t4(PATH, np.array([1.0, 2.0, 3.0]), 0) == 4.0


def test_oracle_two_hop_isolated():
    assert oracle_t4(Graph(1, ()), np.array([9.0]), 0) == 0.0


def test_oracle_two_hop_triangle():
    triangle = Graph(3, ((0, 1), (1, 2), (2, 0)))
    for v in range(3):
        assert oracle_t4(triangle, np.ones(3), v) == 4.0


def test_average_fixture_matches_expression():
    fx = FIXTURES["T1"]
    rng = np.random.default_rng(61)
    g = Graph(1, ())
    for x, y in rng.uniform(-10, 10, (1000, 2)):
        val = eval_expr(fx.expr, g, FeatureMap(np.array([[x, y]])))[0]
        assert val == oracle_t1(x, y)


def test_max_fixture_matches_expression_and_network():
    fx = FIXTURES["T2"]
    rng = np.random.default_rng(67)
    g = Graph(1, ())
    for x, y in rng.uniform(-10, 10, (1000, 2)):
        fm = FeatureMap(np.array([[x, y]]))
        by_expr = eval_expr(fx.expr, g, fm)[0]
        by_net = eval_mpnn(fx.mpnn, g, fm).values[0, 0]
        want = oracle_t2(x, y)
        assert abs(by_expr - want) <= 1e-12
        assert abs(by_net - want) <= 1e-12


def test_two_hop_fixture_matches_expression_and_compiled_network():
    fx = FIXTURES["T4"]
    net = compile_relu(fx.expr, 1)
    for seed in range(100):
        g = random_graph(int(1 + seed % 8), 4, seed)
        fm = random_features(g, DomainBox.cube(-5, 5, 1), seed + 1)
        by_expr = eval_expr(fx.expr, g, fm)
        by_net = eval_mpnn(net, g, fm).values[:, 0]
        for v in range(g.node_count):
            want = fx.oracle(g, fm.values, v)
            assert abs(by_expr[v] - want) <= 1e-9 * max(1.0, abs(want))
            assert abs(by_net[v] - want) <= 1e-9 * max(1.0, abs(want))


def test_neighbor_max_fixture_ships_without_expression():
    assert FIXTURES["T3"].expr is None and FIXTURES["T3"].mpnn is None


def test_projection_fixtures():
    g = Graph(1, ())
    vals = np.array([[4.0, 7.0]])
    assert FIXTURES["P1"].oracle(g, vals, 0) == 4.0
    assert FIXTURES["P2"].oracle(g, vals, 0) == 7.0
    assert eval_expr(FIXTURES["P2"].expr, g, FeatureMap(vals))[0] == 7.0


def test_half_and_sum_fixtures():
    fm = FeatureMap(np.array([[1.0], [2.0], [3.0]]))
    t_sum = FIXTURES["T_sum"]
    by_expr = eval_expr(t_sum.expr, PATH, fm)
    for v in range(3):
        assert by_expr[v] == t_sum.oracle(PATH, fm.values, v)
    t_half = FIXTURES["T_half"]
    assert eval_expr(t_half.expr, PATH, fm).tolist() == [0.5, 1.0, 1.5]


def test_max_mpnn_structure():
    net = max_mpnn()
    assert net.layers[0].w_self.tolist() == [[-1.0, 1.0], [1.0, 0.0], [-1.0, 0.0]]
    assert net.layers[1].w_self.tolist() == [[1.0, 1.0, -1.0]]
