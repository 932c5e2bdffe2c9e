"""The shared expression core: one fold over a DAG, and parsing into a DAG."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import assert_close, batch_instances
from mplangc.activations import SIN
from mplangc.approx import image_bounds
from mplangc.compiler import (
    compile_addition_free,
    compile_mixed,
    compile_pointwise,
    compile_relu,
)
from mplangc.expressions import (
    Add,
    Apply,
    Diamond,
    One,
    Proj,
    Scale,
    classify,
    fold,
    format_expr,
    max_projection,
)
from mplangc.generate import random_expr, random_relu_expr
from mplangc.graphs import FeatureMap, Graph
from mplangc.interpreter import eval_expr
from mplangc.intervals import DomainBox, Interval
from mplangc.mpnn import eval_mpnn
from mplangc.parser import parse

D, P = 2, 2
BOX = DomainBox.cube(-1.0, 1.0, D)
PATH = Graph(3, ((0, 1), (1, 2)))
PATH_FEATURES = FeatureMap(np.array([[0.5, -1.0], [2.0, 0.25], [-1.5, 3.0]]))


def _tree_copy(e):
    """The same expression with no node object shared."""
    if isinstance(e, Add):
        return Add(_tree_copy(e.left), _tree_copy(e.right))
    if isinstance(e, Scale):
        return Scale(e.factor, _tree_copy(e.arg))
    if isinstance(e, Apply):
        return Apply(e.func, _tree_copy(e.arg))
    if isinstance(e, Diamond):
        return Diamond(_tree_copy(e.arg))
    return Proj(e.index) if isinstance(e, Proj) else One()


def _networks(e):
    """The network of every compile mode that applies to e."""
    traits = classify(e)
    nets = [compile_mixed(e, D, P, BOX)]
    if traits.addition_free and traits.summation_free:
        nets.append(compile_pointwise(e, D))
    if traits.addition_free:
        nets.append(compile_addition_free(e, D))
    if traits.relu_only:
        nets.append(compile_relu(e, D))
    return nets


SHARING_FORMS = [
    lambda e: e,
    lambda e: Add(e, e),
    lambda e: Add(Apply(SIN, e), Diamond(e)),
]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    depth=st.integers(0, 3),
    relu=st.booleans(),
    form=st.sampled_from(range(len(SHARING_FORMS))),
)
def test_tree_and_shared_dag_agree_on_every_walk(seed, depth, relu, form):
    rng = np.random.default_rng(seed)
    e = (random_relu_expr if relu else random_expr)(rng, depth, D)
    shared = SHARING_FORMS[form](e)
    tree = _tree_copy(shared)
    parsed = parse(format_expr(tree))
    union, fm = batch_instances(P, BOX, 20, seed)
    want = eval_expr(tree, union, fm)
    for dag in (shared, parsed):
        assert format_expr(dag) == format_expr(tree)
        assert classify(dag) == classify(tree)
        assert image_bounds(dag, P, BOX) == image_bounds(tree, P, BOX)
        assert np.array_equal(eval_expr(dag, union, fm), want)
        assert _networks(dag) == _networks(tree)


def test_fold_visits_each_distinct_node_once_children_first():
    x = Scale(2.0, Proj(1))
    calls = []
    fold(Add(x, Diamond(x)), lambda node, kids: calls.append((node, kids)) or len(calls))
    assert [type(node) for node, _ in calls] == [Proj, Scale, Diamond, Add]
    assert [kids for _, kids in calls] == [(), (1,), (2,), (2, 3)]


def test_walks_are_linear_in_dag_size():
    # 401 distinct nodes; read as a tree it would have about 2**201.
    e = Proj(1)
    for _ in range(200):
        e = Add(e, Scale(0.5, e))
    calls = []
    fold(e, lambda node, kids: calls.append(node))
    assert len(calls) == 401
    assert max_projection(e) == 1
    assert not classify(e).addition_free
    assert image_bounds(e, P, BOX) == Interval(-(1.5**200), 1.5**200)
    assert_close(eval_expr(e, PATH, PATH_FEATURES), 1.5**200 * PATH_FEATURES.values[:, 0])


def test_parse_shares_repeated_subterms():
    e = parse("sin(P1 + <>P2) + 2*sin(P1 + <>P2) + <>(P1 + <>P2) + -0.0*P1 + 0.0*P1")
    objects, texts = set(), set()

    def visit(node, _):
        objects.add(id(node))
        texts.add(format_expr(node))

    fold(e, visit)
    # format_expr is injective (parse inverts it), so one object per distinct text.
    assert len(objects) == len(texts)
    negative_zero, zero = e.left.right, e.right
    assert negative_zero is not zero and negative_zero.arg is zero.arg
    assert math.copysign(1.0, negative_zero.factor) == -1.0


LONG_TERMS = [f"{0.5 + k % 5}*P{1 + k % 2}" for k in range(3000)]
# Compiling a left-associated sum costs about n**4 (each + pads the shorter
# network to the longer one's depth), so the compilers get a shorter sum; it
# is still deeper than the lowered recursion limit.
COMPILED_TERMS = 180


@pytest.fixture
def recursion_limit_200():
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def test_long_sum_walks_need_no_recursion(recursion_limit_200):
    text = " + ".join(LONG_TERMS)
    e = parse(text)
    assert format_expr(e) == text
    traits = classify(e)
    assert traits.relu_only and not traits.addition_free and traits.summation_free
    assert max_projection(e) == 2
    assert image_bounds(e, P, BOX) == Interval(-7500.0, 7500.0)
    coefficients = np.array([0.5 + k % 5 for k in range(3000)])
    want = PATH_FEATURES.values[:, np.arange(3000) % 2] @ coefficients
    assert_close(eval_expr(e, PATH, PATH_FEATURES), want)

    short = parse(" + ".join(LONG_TERMS[:COMPILED_TERMS]))
    want = eval_expr(short, PATH, PATH_FEATURES)
    for net in (compile_relu(short, D), compile_mixed(short, D, P, BOX)):
        assert_close(eval_mpnn(net, PATH, PATH_FEATURES).values[:, 0], want)
