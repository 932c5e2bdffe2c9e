import numpy as np
import pytest

from generate import random_expr
from helpers import batch_instances
from oracles import oracle_t4
from mplangc.errors import ArityError
from mplangc.expressions import Add, Diamond, ExprTuple, Proj, Scale
from mplangc.graphs import FeatureMap, Graph
from mplangc.interpreter import eval_expr, eval_tuple
from mplangc.intervals import DomainBox
from mplangc.parser import parse

PATH = Graph(3, ((0, 1), (1, 2)))
TRIANGLE = Graph(3, ((0, 1), (1, 2), (2, 0)))


def test_average_of_two_features():
    g = Graph(1, ())
    fm = FeatureMap(np.array([[1.0, 3.0]]))
    assert eval_expr(parse("0.5*P1 + 0.5*P2"), g, fm)[0] == 2.0


def test_two_hop_sum_matches_walk_enumeration():
    fm = FeatureMap(np.array([[1.0], [1.0], [1.0]]))
    vals = eval_expr(parse("<><>P1"), PATH, fm)
    # node 0 walks: 0-1-0 and 0-1-2
    assert vals[0] == 2.0
    for v in range(3):
        assert vals[v] == oracle_t4(PATH, fm.values[:, 0], v)


def test_two_hop_sum_nonuniform():
    fm = FeatureMap(np.array([[1.0], [2.0], [3.0]]))
    vals = eval_expr(parse("<><>P1"), PATH, fm)
    assert vals.tolist() == [4.0, 4.0, 4.0]
    for v in range(3):
        assert vals[v] == oracle_t4(PATH, fm.values[:, 0], v)


def test_max_identity_on_pair():
    g = Graph(1, ())
    fm = FeatureMap(np.array([[5.0, 2.0]]))
    assert eval_expr(parse("relu(P2 + -1*P1) + P1"), g, fm)[0] == 5.0


def test_constant_one():
    fm = FeatureMap(np.zeros((3, 1)))
    assert eval_expr(parse("1"), TRIANGLE, fm).tolist() == [1.0, 1.0, 1.0]


def test_eval_tuple_identity():
    fm = FeatureMap(np.array([[4.0], [7.0], [9.0]]))
    out = eval_tuple(ExprTuple((Proj(1),), 1), TRIANGLE, fm)
    assert np.array_equal(out.values, fm.values)


def test_eval_tuple_swap():
    g = Graph(1, ())
    fm = FeatureMap(np.array([[4.0, 7.0]]))
    out = eval_tuple(ExprTuple((Proj(2), Proj(1)), 2), g, fm)
    assert out.values.tolist() == [[7.0, 4.0]]


def test_eval_tuple_with_neighbor_sum():
    fm = FeatureMap(np.ones((3, 1)))
    out = eval_tuple(ExprTuple((Proj(1), Diamond(Proj(1))), 1), TRIANGLE, fm)
    assert out.values.tolist() == [[1.0, 2.0]] * 3


def test_arity_mismatch_raises():
    fm = FeatureMap(np.zeros((3, 1)))
    with pytest.raises(ArityError):
        eval_expr(parse("P2"), TRIANGLE, fm)


def test_node_count_mismatch_raises():
    fm = FeatureMap(np.zeros((2, 1)))
    with pytest.raises(ArityError):
        eval_expr(parse("P1"), TRIANGLE, fm)


@pytest.mark.parametrize("seed", range(10))
def test_diamond_is_linear(seed):
    rng = np.random.default_rng(seed)
    d = 2
    e1 = random_expr(rng, 3, d)
    e2 = random_expr(rng, 3, d)
    union, fm = batch_instances(None, DomainBox.cube(-3, 3, d), 10, seed)
    a = eval_expr(Diamond(Add(e1, e2)), union, fm)
    b = eval_expr(Add(Diamond(e1), Diamond(e2)), union, fm)
    assert np.abs(a - b).max() <= 1e-12


@pytest.mark.parametrize("seed", range(10))
def test_scale_one_and_add_commutes(seed):
    rng = np.random.default_rng(100 + seed)
    d = 3
    e1 = random_expr(rng, 4, d)
    e2 = random_expr(rng, 4, d)
    union, fm = batch_instances(None, DomainBox.cube(-2, 2, d), 10, seed)
    assert np.array_equal(
        eval_expr(Scale(1.0, e1), union, fm), eval_expr(e1, union, fm)
    )
    a = eval_expr(Add(e1, e2), union, fm)
    b = eval_expr(Add(e2, e1), union, fm)
    assert np.abs(a - b).max() <= 1e-12
