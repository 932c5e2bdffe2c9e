"""The shared expression core: one fold over a DAG, and parsing into a DAG."""

import copy
import gc
import json
import math
import pickle
import re
import sys
import threading
import time
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import assert_close, batch_instances, deep_mpnn, layer_merge_shifts, tree_copy
from mplangc.activations import ABS, ID, RELU, SIGMOID, SIN, TANH, Merged, Named
from mplangc.approx import approximate_all, image_bounds, uniform_distance_estimates
from mplangc.cli import main
from mplangc.compiler import (
    CompileEnv,
    _Channels,
    compile_addition_free,
    compile_all,
    compile_expr,
    compile_mixed,
    compile_pointwise,
    compile_relu,
    compile_relu_tuple,
)
from mplangc.expressions import (
    Add,
    Apply,
    Diamond,
    ExprTraits,
    ExprTuple,
    One,
    Proj,
    Scale,
    _NODES,
    arity_check,
    children,
    classify,
    classify_all,
    const,
    fold,
    fold_all,
    format_expr,
    max_projection,
    max_projections,
)
from mplangc.generate import MIXED_FUNCTIONS, random_expr, random_relu_expr
from mplangc.graphs import FeatureMap, Graph, features_to_json, graph_to_json
from mplangc.interpreter import eval_expr, eval_tuple
from mplangc.intervals import DomainBox, Interval
from mplangc.mpnn import Layer, Mpnn, eval_mpnn, mpnn_to_json
from mplangc.parser import parse
from mplangc.translate import mpnn_to_mplang

D, P = 2, 2
BOX = DomainBox.cube(-1.0, 1.0, D)
PATH = Graph(3, ((0, 1), (1, 2)))
PATH_FEATURES = FeatureMap(np.array([[0.5, -1.0], [2.0, 0.25], [-1.5, 3.0]]))


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
    tree = tree_copy(shared)
    parsed = parse(format_expr(tree))
    union, fm = batch_instances(P, BOX, 20, seed)
    want = eval_expr(tree, union, fm)
    for dag in (shared, parsed):
        # The tree copy shares no node, so its text is a tree; the DAG's text names
        # its long shared subterms.  Both read back as one node.
        assert parse(format_expr(dag)) is parsed
        assert classify(dag) == classify(tree)
        assert image_bounds(dag, P, BOX) == image_bounds(tree, P, BOX)
        assert np.array_equal(eval_expr(dag, union, fm), want)
        assert _networks(dag) == _networks(tree)


def _oracle_traits(roots):
    """The roots' traits from folds over their DAG: the bodies classify_all
    and max_projections had before nodes carried their traits."""
    functions, kinds = set(), set()

    def visit(node, _):
        kinds.add(type(node))
        if isinstance(node, Apply):
            functions.add(node.func)

    fold_all(roots, visit)
    highest = fold_all(roots, lambda node, kids: node.index if isinstance(node, Proj)
                       else max(kids, default=0))
    return ExprTraits(
        relu_only=functions <= {RELU},
        addition_free=Add not in kinds,
        summation_free=Diamond not in kinds,
        functions_used=frozenset(functions),
        max_projection=max(highest, default=0),
    )


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    depth=st.integers(0, 4),
    relu=st.booleans(),
    form=st.sampled_from(range(len(SHARING_FORMS))),
    tree=st.booleans(),
)
def test_every_node_carries_the_traits_of_its_subterm(seed, depth, relu, form, tree):
    rng = np.random.default_rng(seed)
    e = SHARING_FORMS[form]((random_relu_expr if relu else random_expr)(rng, depth, 3))
    if tree:
        e = tree_copy(e)
    nodes = []
    fold(e, lambda node, kids: nodes.append(node))
    for node in nodes:
        assert node.traits == _oracle_traits([node])
        assert classify(node) is node.traits
        assert max_projection(node) == node.traits.max_projection
    assert classify_all(nodes) == _oracle_traits(nodes)
    assert classify_all([]) == _oracle_traits([])


def test_traits_are_shared_where_nothing_changes_and_kept_out_of_the_fields():
    e = Add(Apply(SIN, Proj(2)), Diamond(Proj(1)))
    for node in (Scale(2.0, e), Apply(SIN, e), Diamond(e), Add(e, Proj(1))):
        assert node.traits is e.traits
    assert Apply(RELU, e).traits == ExprTraits(False, False, False, frozenset({SIN, RELU}), 2)
    assert e.traits == ExprTraits(False, False, False, frozenset({SIN}), 2)
    assert [f.name for f in fields(e)] == ["left", "right"]
    assert "traits" not in repr(e)


RELU_SHARING_FORMS = SHARING_FORMS[:2] + [lambda e: Add(Apply(RELU, e), Diamond(e))]
# The degree term, nested neighbour sums, constants under relu, a dead channel,
# and a constant channel that a cancellation leaves alone at level 2.
RELU_TEXTS = ["<>1", "<>(P1 + 1)", "<><>P1", "relu(<>1 + -2) + <>(relu(P2) + -1)",
              "0*relu(P1) + P2", "relu(relu(P1) + 1) + -3*<>relu(P2)",
              "<>(relu(relu(P1) + -0.5) + 1) + -1*<>relu(relu(P1) + -0.5)"]


@st.composite
def relu_roots(draw):
    """One to three ReLU-only expressions over D inputs that share subterms."""
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        e = random_relu_expr(rng, draw(st.integers(0, 4)), D)
    else:
        e = parse(draw(st.sampled_from(RELU_TEXTS)))
    shared = draw(st.sampled_from(RELU_SHARING_FORMS))(e)
    extra = [Diamond(e), Apply(RELU, Scale(-1.5, e)), Add(shared, Proj(2)), shared]
    return [shared] + draw(st.lists(st.sampled_from(extra), max_size=2))


def _nesting(e):
    """The largest number of applications and <> nodes on a path from e to a leaf."""
    return fold(e, lambda node, kids: max(kids, default=0) + isinstance(node, (Apply, Diamond)))


def _scheduled(roots, d=D, carrier=RELU):
    """The top level of the roots' forms, and whether the read-out fuses:
    every root, lifted to the top level, is exactly one of its channels."""
    channels = _Channels(d, carrier)
    forms = [fold(e, channels.form) for e in roots]
    top = max(f.level for f in forms)
    lifted = [channels.lifted(f, top) for f in forms]
    return top, top > 0 and all(
        list(f.self_w.values()) == [1.0] and not f.neigh_w and f.bias == 0.0 for f in lifted)


def _assert_every_channel_is_read(net):
    assert all(lyr.output_arity for lyr in net.layers), "an empty layer"
    for lyr, after in zip(net.layers, net.layers[1:]):
        read = (after.w_self != 0.0) | (after.w_neigh != 0.0)
        assert read.any(axis=0).all(), "a hidden channel no later row reads"


@settings(max_examples=150, deadline=None)
@given(roots=relu_roots(), seed=st.integers(0, 2**32 - 1))
def test_relu_networks_are_levelled_and_agree_with_the_interpreter(roots, seed):
    union, fm = batch_instances(None, DomainBox.cube(-10.0, 10.0, D), 20, seed)
    nets = [compile_relu(e, D) for e in roots]
    joint = compile_relu_tuple(ExprTuple(tuple(roots), D))
    shapes = []
    for j, (e, net) in enumerate(zip(roots, nets)):
        want = eval_expr(e, union, fm)
        assert_close(eval_mpnn(net, union, fm).values[:, 0], want)
        assert_close(eval_mpnn(joint, union, fm).values[:, j], want)
        level, fused = _scheduled([e])
        assert len(net.layers) == level + (0 if fused else 1) <= _nesting(e) + 1
        shapes.append((net, fused))
    top, joint_fused = _scheduled(roots)
    assert len(joint.layers) == top + (0 if joint_fused else 1)
    assert joint.output_arity == len(roots)
    for net, fused in shapes + [(joint, joint_fused)]:
        assert [lyr.activation for lyr in net.layers] == (
            [RELU] * (len(net.layers) - 1) + [RELU if fused else ID])
        for lyr in net.layers[:-1]:
            rows = np.hstack([lyr.w_self, lyr.w_neigh, lyr.bias[:, None]])
            assert np.all(rows.any(axis=1)), "an all-zero row"
            assert len(np.unique(rows, axis=0)) == len(rows), "two equal rows"
        _assert_every_channel_is_read(net)


MIXED_SHARING_FORMS = SHARING_FORMS + [
    lambda e: Add(Apply(TANH, e), Apply(ABS, Diamond(e))),
    lambda e: Add(Apply(SIGMOID, e), Scale(-1.5, Apply(RELU, Add(e, One())))),
]


def _merge_leaves(act):
    """The functions a merged activation embeds, left to right."""
    return _merge_leaves(act.left) + _merge_leaves(act.right) if isinstance(act, Merged) else [act]


def _merge_depth(act):
    return 1 + max(_merge_depth(act.left), _merge_depth(act.right)) if isinstance(act, Merged) else 0


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 3),
    p=st.integers(0, 3),
    depth=st.integers(0, 5),
    form=st.sampled_from(range(len(MIXED_SHARING_FORMS))),
)
def test_mixed_networks_merge_once_per_level_and_agree_with_the_interpreter(
        seed, d, p, depth, form):
    rng = np.random.default_rng(seed)
    e = MIXED_SHARING_FORMS[form](random_expr(rng, depth, d, functions=MIXED_FUNCTIONS))
    box = DomainBox.cube(-1.0, 1.0, d)
    net = compile_mixed(e, d, p, box)
    reported, report = compile_all([e], d, CompileEnv("mixed", p, box))
    assert mpnn_to_json(reported) == mpnn_to_json(net)
    assert repr(report.shifts) == repr(layer_merge_shifts(net))
    union, fm = batch_instances(p, box, 20, seed)
    # assert_close's defaults are test_acceptance's RTOL and FLOOR.
    assert_close(eval_mpnn(net, union, fm).values[:, 0], eval_expr(e, union, fm))
    top, fused = _scheduled([e], d)
    assert len(net.layers) == top + (0 if fused else 1) <= _nesting(e) + 1
    assert (net.layers[-1].activation == ID) == (not fused)
    functions = classify(e).functions_used | {RELU}  # relu also lifts
    for lyr in net.layers[:top]:
        leaves = _merge_leaves(lyr.activation)
        assert len(set(leaves)) == len(leaves) and set(leaves) <= functions
        assert _merge_depth(lyr.activation) <= len(leaves) - 1
    _assert_every_channel_is_read(net)


# Nested neighbour sums (an id lift), a scaled one, the degree term, a
# constant under functions, a relu of a relu, and a scaled function of <>.
CHAIN_TEXTS = ["<><>P1", "<>(2*<>P1)", "<>1", "tanh(<>sin(1))", "relu(relu(P1))",
               "2*<>sin(P1)"]


@st.composite
def addition_free_exprs(draw):
    if draw(st.booleans()):
        return parse(draw(st.sampled_from(CHAIN_TEXTS)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    depth = draw(st.integers(0, 6))
    while not classify(e := random_expr(rng, depth, D, functions=MIXED_FUNCTIONS)).addition_free:
        pass
    return e


@settings(max_examples=150, deadline=None)
@given(e=addition_free_exprs(), seed=st.integers(0, 2**32 - 1))
def test_chain_networks_use_only_their_own_functions_and_agree_with_the_interpreter(e, seed):
    union, fm = batch_instances(None, DomainBox.cube(-3.0, 3.0, D), 20, seed)
    want = eval_expr(e, union, fm)
    traits = classify(e)
    nets = [compile_addition_free(e, D)]
    if traits.summation_free:
        nets.append(compile_pointwise(e, D))
    for net in nets:
        out = eval_mpnn(net, union, fm).values
        assert_close(out[:, 0], want)
        assert {lyr.activation for lyr in net.layers} <= traits.functions_used | {ID}
        # One row per layer: an id carrier lifts a value with one row, where
        # relu carriers would need the pair relu(x), relu(-x).
        assert [lyr.output_arity for lyr in net.layers] == [1] * len(net.layers)
        assert len(net.layers) <= _nesting(e) + 1
        assert_close(eval_tuple(mpnn_to_mplang(net), union, fm).values, out)


def test_fold_visits_each_distinct_node_once_children_first():
    x = Scale(2.0, Proj(1))
    calls = []
    fold(Add(x, Diamond(x)), lambda node, kids: calls.append((node, kids)) or len(calls))
    assert [type(node) for node, _ in calls] == [Proj, Scale, Diamond, Add]
    assert [kids for _, kids in calls] == [(), (1,), (2,), (2, 3)]


def test_fold_all_shares_nodes_across_roots():
    x = Scale(2.0, Proj(1))
    inner = Diamond(x)
    calls = []
    results = fold_all([Add(x, inner), inner, x, inner],
                       lambda node, kids: calls.append(node) or len(calls))
    assert [type(node) for node in calls] == [Proj, Scale, Diamond, Add]
    # A root that is also a child keeps its result for the list.
    assert results == [4, 3, 2, 3]
    assert fold_all([], lambda node, kids: 0) == []


def test_eval_tuple_evaluates_shared_layers_once(monkeypatch):
    import mplangc.interpreter as interpreter

    t = mpnn_to_mplang(deep_mpnn(seed=3))
    applications = set()
    for c in t.components:
        fold(c, lambda node, kids: applications.add(id(node)) if isinstance(node, Apply) else None)
    union, fm = batch_instances(P, BOX, 4, 11)
    separately = np.stack([eval_expr(c, union, fm) for c in t.components], axis=1)
    calls = []
    apply_vec = interpreter.apply_vec
    monkeypatch.setattr(interpreter, "apply_vec", lambda f, x: calls.append(f) or apply_vec(f, x))
    together = eval_tuple(t, union, fm).values
    # 5 layers of 3 rows: every component reads all 3 rows of the layer below.
    assert len(calls) == len(applications) == 15
    assert np.array_equal(together, separately)


def test_each_route_folds_the_dag_once(monkeypatch, tmp_path):
    # Arity and mode are read from the roots' traits, so only the walks that
    # produce values fold: a compile route folds to build, approximate_all to
    # survey, to bound the interpolated arguments and to build, and
    # uniform_distance_estimates evaluates each side once.
    relu, mixed, chain, point = (parse(text) for text in (
        "relu(P1 + <>P2) + P1", "tanh(P1) + sin(<>P2)", "<>tanh(2*<>P1)", "tanh(2*relu(P2))"))
    t = ExprTuple((relu, Diamond(relu)), D)
    calls = []

    def counted(roots, combine):
        calls.append(roots)
        return fold_all(roots, combine)

    for module in ("expressions", "compiler", "approx", "interpreter"):
        monkeypatch.setattr(f"mplangc.{module}.fold_all", counted)

    def folds(route, *args):
        calls.clear()
        route(*args)
        return len(calls)

    assert folds(compile_relu, relu, D) == 1
    assert folds(compile_relu_tuple, t) == 1
    assert folds(compile_mixed, mixed, D, P, BOX) == 1
    assert folds(compile_addition_free, chain, D) == 1
    assert folds(compile_pointwise, point, D) == 1
    for e, env in ((relu, CompileEnv()), (relu, CompileEnv("relu")),
                   (mixed, CompileEnv("mixed", P, BOX)), (chain, CompileEnv()),
                   (point, CompileEnv())):
        assert folds(compile_expr, e, D, env) == 1
    for walk in ((classify, mixed), (classify_all, t.components), (max_projection, mixed),
                 (max_projections, t.components), (arity_check, mixed, D),
                 (ExprTuple, (relu, mixed, chain), D)):
        assert folds(*walk) == 0
    assert folds(uniform_distance_estimates, [mixed, relu], [chain, point], P, BOX, 5, 0) == 2
    assert folds(approximate_all, [mixed, relu], P, BOX, 0.1) <= 3
    # `eval` of a 2-line file evaluates both lines in one fold.
    (tmp_path / "two.mplang").write_text("relu(P1 + <>P2) + P1\n<>(relu(P1 + <>P2) + P1)\n")
    (tmp_path / "g.json").write_text(json.dumps(graph_to_json(PATH)))
    (tmp_path / "f.json").write_text(json.dumps(features_to_json(PATH_FEATURES)))
    argv = ["eval", "--expr-file", str(tmp_path / "two.mplang"), "--graph",
            str(tmp_path / "g.json"), "--features", str(tmp_path / "f.json"),
            "--out", str(tmp_path / "out.json")]
    assert folds(main, argv) == 1


def test_compile_relu_tuple_forms_each_distinct_node_once(monkeypatch):
    rng = np.random.default_rng(4)
    net = Mpnn(tuple(Layer(rng.uniform(-2.0, 2.0, (3, a)), rng.uniform(-2.0, 2.0, (3, a)),
                           rng.uniform(-1.0, 1.0, 3), RELU) for a in (2, 3, 3, 3)))
    t = mpnn_to_mplang(net)
    nodes = []
    fold_all(t.components, lambda node, kids: nodes.append(node))
    # Folding each root on its own gives the same channels, in the same order.
    channels = _Channels(t.input_arity, RELU)
    per_root, _, _ = channels.network([fold(c, channels.form) for c in t.components])
    calls = []
    form = _Channels.form
    monkeypatch.setattr(_Channels, "form",
                        lambda self, node, kids: calls.append(node) or form(self, node, kids))
    together = compile_relu_tuple(t)
    assert len(calls) == len(nodes) == 170  # 426 if each root is folded on its own
    assert len(together.layers) == len(per_root.layers)
    for a, b in zip(together.layers, per_root.layers):
        assert a.activation == b.activation
        for x, y in ((a.w_self, b.w_self), (a.w_neigh, b.w_neigh), (a.bias, b.bias)):
            assert np.array_equal(x, y)


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


# -- the intern table ----------------------------------------------------------------

def _dag_size(roots):
    nodes = []
    fold_all(roots, lambda node, kids: nodes.append(node))
    return len(nodes)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), depth=st.integers(0, 5), d=st.integers(0, 3))
def test_parse_of_the_text_is_the_expression_itself(seed, depth, d):
    e = random_expr(np.random.default_rng(seed), depth, d)
    assert parse(format_expr(e)) is e


def test_translations_and_approximants_are_as_small_as_their_reparsed_text():
    deep = mpnn_to_mplang(deep_mpnn(0, 3))
    approximants, _ = approximate_all(deep.components, 3, BOX, 0.1)
    for roots, size in ((mpnn_to_mplang(deep_mpnn(0, 5)).components, 215),
                        (deep.components, 125), (approximants, 4549)):
        reparsed = [parse(format_expr(e)) for e in roots]
        assert _dag_size(roots) == _dag_size(reparsed) == size
        assert all(a is b for a, b in zip(roots, reparsed))


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    depth=st.integers(0, 4),
    forms=st.lists(st.sampled_from(range(len(SHARING_FORMS))), max_size=8),
)
def test_shared_subterms_print_once_and_read_back_as_the_same_node(seed, depth, forms):
    e = random_expr(np.random.default_rng(seed), depth, D)
    for form in forms:
        e = SHARING_FORMS[form](e)
    text = format_expr(e)
    assert parse(text) is e
    *bindings, root = text.split("; ")
    for k, binding in enumerate(bindings, 1):
        name, value = binding.split(" = ")
        # Named only where it shortens the text: a long text read twice or more.
        assert name == f"${k}" and len(value) >= 24
        later = "; ".join(bindings[k:] + [root])
        assert len(re.findall(re.escape(name) + r"(?!\d)", later)) >= 2


def test_translations_print_in_the_size_of_their_dag():
    # As trees, the 3- to 6-layer translations take 17,142, 103,351, 620,595
    # and 3,724,065 characters.
    sizes = [sum(len(format_expr(c)) for c in mpnn_to_mplang(deep_mpnn(0, layers)).components)
             for layers in (3, 4, 5, 6)]
    assert sizes[2] < 10_000
    assert all(0 < b - a < 2_000 for a, b in zip(sizes, sizes[1:]))


def test_a_factor_is_keyed_by_its_value_and_sign():
    assert Scale(-0.0, One()) is not Scale(0.0, One())
    assert Scale(2, Proj(1)) is Scale(2.0, Proj(1))
    assert Apply(Named("relu"), Proj(1)) is Apply(RELU, Proj(1))


def test_node_classes_have_no_metaclass():
    # A metaclass would send every isinstance that misses through __instancecheck__.
    assert all(type(cls) is type for cls in (One, Proj, Scale, Add, Apply, Diamond))


@pytest.mark.parametrize("bad", [3, "P1", None, (Proj(1),)])
def test_children_and_fold_refuse_a_non_expression(bad):
    for walk in (children, lambda e: fold(e, lambda node, kids: 0),
                 lambda e: fold_all([Proj(1), e], lambda node, kids: 0)):
        with pytest.raises(TypeError, match="not an expression"):
            walk(bad)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    depth=st.integers(0, 4),
    form=st.sampled_from(range(len(SHARING_FORMS))),
)
def test_copy_deepcopy_and_pickle_return_the_interned_node(seed, depth, form):
    rng = np.random.default_rng(seed)
    e = SHARING_FORMS[form](random_expr(rng, depth, D, functions=MIXED_FUNCTIONS))
    assert copy.copy(e) is e
    assert copy.deepcopy(e) is e
    assert pickle.loads(pickle.dumps(e)) is e
    # Unpickling rebuilds each node from its fields, so a copy made past the
    # table comes back as the interned node.
    assert pickle.loads(pickle.dumps(tree_copy(e))) is e


def test_deepcopy_of_a_deep_expression_does_not_recurse():
    e = parse(" + ".join(f"{k % 5 + 1}*P1" for k in range(3000)))
    assert copy.deepcopy([e, e]) == [e, e]


def test_pickle_of_a_deep_expression_does_not_recurse():
    # A node pickles as one flat list of its DAG's nodes, so no pickle frame
    # nests: a 5,000-term left-nested sum and a 5,000-level chain.
    total = Proj(1)
    for k in range(5_000):
        total = Add(total, Scale(float(k), Proj(2)))
    chain = Proj(1)
    for _ in range(5_000):
        chain = Apply(TANH, Diamond(Scale(-0.0, chain)))
    for e in (total, chain):
        assert pickle.loads(pickle.dumps(e)) is e
        assert copy.copy(e) is e and copy.deepcopy(e) is e


@pytest.mark.parametrize("factor", [math.nan, math.inf, -math.inf])
def test_a_non_finite_factor_is_refused_and_not_stored(factor):
    for build in (lambda: Scale(factor, Proj(1)), lambda: const(factor)):
        with pytest.raises(ValueError, match="scale factor must be finite"):
            build()
    assert all(math.isfinite(n.factor) for n in _NODES.values() if isinstance(n, Scale))


def test_a_rejected_node_is_not_stored():
    with pytest.raises(ValueError):
        Proj(0)
    assert not any(isinstance(n, Proj) and n.index == 0 for n in _NODES.values())


def test_a_projection_index_is_an_int():
    with pytest.raises(TypeError):
        Proj(2.5)
    # Proj(3.0) shares Proj(3)'s intern key, so the node stores the int: the
    # text of any later P3 is then P3, which parses.
    kept = Proj(3.0), Proj(12345.0)
    assert all(type(n.index) is int for n in _NODES.values() if isinstance(n, Proj))
    assert format_expr(parse("P3")) == "P3"
    assert parse("P12345") is kept[1] and format_expr(kept[1]) == "P12345"


def test_the_table_keeps_no_expression_alive():
    gc.collect()
    before = len(_NODES)
    t = mpnn_to_mplang(deep_mpnn(0, 3))
    approximants, _ = approximate_all(t.components, 3, BOX, 0.1)
    assert len(_NODES) > before + 4000
    del t, approximants
    gc.collect()
    assert len(_NODES) == before


def test_hash_and_equality_do_not_walk_the_expression():
    def tower():
        # 41 distinct nodes; read as a tree it would have 2**41 - 1.
        x = Proj(1)
        for _ in range(40):
            x = Add(x, x)
        return x

    start = time.perf_counter()
    a, b = tower(), tower()
    assert hash(a) == hash(b)
    assert a == b and a is b
    assert time.perf_counter() - start < 1.0


def test_repr_is_short_and_does_not_walk_the_expression():
    x = Proj(1)
    for _ in range(40):
        x = Add(x, x)
    start = time.perf_counter()
    text = repr(x)
    assert time.perf_counter() - start < 1.0
    assert text.startswith("Add(Add(Add(") and len(text) <= 80
    assert repr(Proj(1)) == "Proj(1)"
    assert repr(Scale(2, Diamond(One()))) == "Scale(2.0, Diamond(One()))"
    assert repr(Apply(Merged(TANH, 1.0, SIN, -1.0), One())).startswith("Apply(Merged(")


def test_threads_building_equal_nodes_get_one_node():
    def build(out):
        x = Proj(7)
        for k in range(300):
            x = Add(x, Scale(k, x))
        out.append(x)

    results = []
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(results,)) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 8 and all(r is results[0] for r in results)


LONG_TERMS = [f"{0.5 + k % 5}*P{1 + k % 2}" for k in range(3000)]
# A prefix that is still deeper than the lowered recursion limit.
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


def test_long_sum_compiles_whole_without_recursion(recursion_limit_200):
    e = parse(" + ".join(LONG_TERMS))
    for net in (compile_relu(e, D), compile_mixed(e, D, P, BOX)):
        assert_close(eval_mpnn(net, PATH, PATH_FEATURES).values[:, 0],
                     eval_expr(e, PATH, PATH_FEATURES))


def test_long_sums_compile_to_two_mixed_layers(recursion_limit_200):
    functions = ("tanh", "sin", "sigmoid", "abs", "relu")
    cycling = " + ".join(
        f"{0.5 + k % 3}*{functions[k % 5]}({1.5 - k % 4 * 0.5}*P{1 + k % 2}"
        f" + {0.25 * (k % 3)}*<>P{2 - k % 2})" for k in range(45))
    union, fm = batch_instances(P, BOX, 20, 7)
    for text in (" + ".join(LONG_TERMS[:COMPILED_TERMS]), cycling):
        e = parse(text)
        net = compile_mixed(e, D, P, BOX)
        assert len(net.layers) <= 2
        assert _merge_depth(net.layers[0].activation) <= len(functions) - 1
        assert_close(eval_mpnn(net, union, fm).values[:, 0], eval_expr(e, union, fm))
