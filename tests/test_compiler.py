import functools

import numpy as np
import pytest

from helpers import assert_close, batch_instances, layer_merge_shifts
from mplangc.activations import (
    ABS, ID, RELU, SIGMOID, SIN, TANH, Merged, apply_vec, interval_image, merge,
)
from mplangc.compiler import (
    CompileEnv,
    compile_addition_free,
    compile_all,
    compile_expr,
    compile_mixed,
    compile_pointwise,
    compile_relu,
    compile_relu_tuple,
    layer_output_bounds,
    merge_layers,
)
from mplangc.errors import ArityError, ModeError
from mplangc.expressions import Add, Apply, ExprTuple, Proj, classify
from mplangc.fixtures import oracle_t2, oracle_t4
from mplangc.graphs import FeatureMap, Graph, random_graph, random_features
from mplangc.intervals import DomainBox, Interval
from mplangc.interpreter import eval_expr
from mplangc.mpnn import Layer, Mpnn, eval_layer, eval_mpnn, layer, mpnn_from_json, mpnn_to_json
from mplangc.parser import parse

MAX_EXPR = parse("relu(P2 + -1*P1) + P1")


def _rand_layer(rng, d, r, act):
    return Layer(
        rng.uniform(-2, 2, (r, d)),
        rng.uniform(-2, 2, (r, d)),
        rng.uniform(-1, 1, r),
        act,
    )


def _relu_id_only(net: Mpnn) -> bool:
    ok = all(lyr.activation == RELU for lyr in net.layers[:-1])
    return ok and net.layers[-1].activation in (RELU, ID)


# -- compile_relu -------------------------------------------------------------------

def test_compile_relu_max_expression():
    net = compile_relu(MAX_EXPR, 2)
    assert _relu_id_only(net)
    rng = np.random.default_rng(2)
    g = Graph(1, ())
    for x, y in rng.uniform(-10, 10, (200, 2)):
        got = eval_mpnn(net, g, FeatureMap(np.array([[x, y]]))).values[0, 0]
        assert got == pytest.approx(oracle_t2(x, y), abs=1e-12)


def test_compile_relu_two_hop_sum():
    net = compile_relu(parse("<><>P1"), 1)
    path = Graph(3, ((0, 1), (1, 2)))
    fm = FeatureMap(np.array([[1.0], [2.0], [3.0]]))
    vals = eval_mpnn(net, path, fm).values[:, 0]
    for v in range(3):
        assert vals[v] == pytest.approx(oracle_t4(path, fm.values[:, 0], v), abs=1e-12)
    assert vals[1] == 4.0


def test_compile_relu_constant_one():
    net = compile_relu(parse("1"), 1)
    for seed in range(5):
        g = random_graph(6, 3, seed)
        fm = random_features(g, DomainBox.cube(-9, 9, 1), seed)
        assert np.array_equal(eval_mpnn(net, g, fm).values[:, 0], np.ones(6))


def test_compile_relu_rejects_foreign_functions():
    with pytest.raises(ModeError):
        compile_relu(parse("tanh(P1)"), 1)


def test_compile_relu_rejects_arity_violation():
    with pytest.raises(ArityError):
        compile_relu(parse("P2"), 1)


def test_compile_relu_rejects_foreign_functions_before_merging_a_level():
    # Without a box a level holds one activation, so relu and tanh rows of one
    # level must be refused before the network is built.
    with pytest.raises(ModeError, match="other than relu"):
        compile_relu(parse("relu(P1) + tanh(P1)"), 1)


@pytest.mark.parametrize("route", [compile_relu, compile_pointwise, compile_addition_free])
def test_arity_error_comes_before_mode_error(route):
    with pytest.raises(ArityError):
        route(parse("tanh(P2)"), 1)


def test_pointwise_arity_error_comes_before_its_mode_errors():
    with pytest.raises(ArityError):
        compile_pointwise(parse("P1 + <>P3"), 2)
    for mode in ("relu", "addition-free", "pointwise"):
        with pytest.raises(ArityError):
            compile_expr(parse("P1 + <>tanh(P3)"), 2, CompileEnv(mode))


def test_compile_relu_structural_id_only_final():
    rng = np.random.default_rng(8)
    from mplangc.generate import random_relu_expr

    for _ in range(25):
        d = int(rng.integers(1, 4))
        e = random_relu_expr(rng, int(rng.integers(1, 6)), d)
        net = compile_relu(e, d)
        assert _relu_id_only(net)


@pytest.mark.parametrize("text", ["0*relu(P1) + P2", "relu(P1) + -1*relu(P1) + P2"])
def test_compile_relu_drops_dead_rows(text):
    # relu(P1) is read with weight 0, so P2 needs no lift and no row is kept.
    net = compile_relu(parse(text), 2)
    assert len(net.layers) == 1 and net.layers[0].activation == ID
    assert net.layers[0].w_self.tolist() == [[0.0, 1.0]]


# -- compile_relu_tuple ----------------------------------------------------------------

def test_compile_relu_tuple_duplicate_projection():
    net = compile_relu_tuple(ExprTuple((parse("P1"), parse("P1")), 1))
    fm = FeatureMap(np.array([[3.0], [-4.0]]))
    g = Graph(2, ((0, 1),))
    assert_close(eval_mpnn(net, g, fm).values, [[3.0, 3.0], [-4.0, -4.0]])


def test_compile_relu_tuple_projection_and_sum():
    net = compile_relu_tuple(ExprTuple((parse("P1"), parse("<>P1")), 1))
    triangle = Graph(3, ((0, 1), (1, 2), (2, 0)))
    fm = FeatureMap(np.ones((3, 1)))
    assert_close(eval_mpnn(net, triangle, fm).values, [[1.0, 2.0]] * 3)


def test_compile_relu_tuple_against_component_oracles():
    t = ExprTuple((MAX_EXPR, parse("<>P1 + <>P2")), 2)
    net = compile_relu_tuple(t)
    union, fm = batch_instances(None, DomainBox.cube(-5, 5, 2), 50, 3)
    vals = eval_mpnn(net, union, fm).values
    for j, comp in enumerate(t.components):
        assert_close(vals[:, j], eval_expr(comp, union, fm))


# -- layer_output_bounds -----------------------------------------------------------------

def test_bounds_passthrough_layer():
    lb = layer_output_bounds(layer(1.0, 0.0, 0.0, ID), 5, DomainBox.from_pairs([[-1.0, 2.0]]))
    assert lb.components == (Interval(-1.0, 2.0),)
    assert lb.upper_max == 2.0 and lb.lower_min == -1.0


def test_bounds_neighbor_sum_layer():
    lb = layer_output_bounds(layer(0.0, 1.0, 0.0, ID), 3, DomainBox.from_pairs([[0.0, 1.0]]))
    assert lb.components == (Interval(0.0, 3.0),)


def test_bounds_affine_layer_by_hand():
    lb = layer_output_bounds(layer(1.0, 1.0, 1.0, ID), 2, DomainBox.from_pairs([[-1.0, 1.0]]))
    assert lb.components == (Interval(-2.0, 4.0),)


def test_bounds_contain_sampled_preactivations():
    rng = np.random.default_rng(11)
    for _ in range(20):
        d, r, p = int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(0, 4))
        lyr = _rand_layer(rng, d, r, ID)
        box = DomainBox.from_pairs(np.sort(rng.uniform(-3, 3, (d, 2)), axis=1).tolist())
        lb = layer_output_bounds(lyr, p, box)
        union, fm = batch_instances(p, box, 30, int(rng.integers(0, 2**62)))
        z = fm.values @ lyr.w_self.T + union.neighbor_sum(fm.values) @ lyr.w_neigh.T + lyr.bias
        for i in range(r):
            assert z[:, i].min() >= lb.components[i].lo - 1e-9
            assert z[:, i].max() <= lb.components[i].hi + 1e-9


def test_bounds_dimension_mismatch():
    with pytest.raises(ArityError):
        layer_output_bounds(layer(1.0, 0.0, 0.0, ID), 2, DomainBox.cube(0, 1, 2))


def _interval_bounds(lyr, p, box):
    """The bounds by Interval arithmetic, one weight at a time, left to right."""
    comps = []
    for w1, w2, b in zip(lyr.w_self, lyr.w_neigh, lyr.bias):
        own, nb = (functools.reduce(Interval.add, map(Interval.scale, box.intervals, map(float, w)),
                                    Interval(0.0, 0.0)) for w in (w1, w2))
        comps.append((own.lo + min(0.0, p * nb.lo) + b, own.hi + max(0.0, p * nb.hi) + b))
    return comps


@pytest.mark.parametrize("seed", range(5))
def test_bounds_equal_interval_arithmetic_bit_for_bit(seed):
    rng = np.random.default_rng(900 + seed)
    for _ in range(20):
        d, r, p = int(rng.integers(1, 13)), int(rng.integers(1, 6)), int(rng.integers(0, 4))
        lyr = _rand_layer(rng, d, r, ID)
        zeros = rng.random((2, r, d)) < 0.3
        lyr = Layer(np.where(zeros[0], 0.0, lyr.w_self), np.where(zeros[1], 0.0, lyr.w_neigh),
                    lyr.bias, ID)
        pairs = np.sort(rng.uniform(-3, 3, (d, 2)), axis=1)
        pairs[rng.random((d, 2)) < 0.2] = 0.0
        box = DomainBox.from_pairs(np.sort(pairs, axis=1).tolist())
        lb = layer_output_bounds(lyr, p, box)
        want = np.array(_interval_bounds(lyr, p, box))
        assert np.array([lb.lo, lb.hi]).T.tobytes() == want.tobytes()
        assert (lb.upper_max, lb.lower_min) == (want[:, 1].max(), want[:, 0].min())


def test_bounds_that_are_not_finite_are_a_mode_error():
    box = DomainBox.from_pairs([[-1e300, 1e300]])
    with pytest.raises(ModeError, match="not finite"):
        layer_output_bounds(layer(1e300, 0.0, 0.0, ID), 1, box)
    # inf - inf: a NaN bound, also in the neighbour part at p = 0
    with pytest.raises(ModeError, match="not finite"):
        layer_output_bounds(Layer([[1e300, -1e300]], [[0.0, 0.0]], [0.0], ID), 0,
                            DomainBox.from_pairs([[1e300, 1e300]] * 2))
    with pytest.raises(ModeError, match="not finite"):
        layer_output_bounds(Layer([[0.0]], [[np.inf]], [0.0], ID), 0, DomainBox.cube(0, 1, 1))
    with pytest.raises(ModeError, match="not finite"):
        merge_layers(layer(1e300, 0.0, 0.0, TANH), layer(1.0, 0.0, 0.0, SIN), 1, box, box)


# -- merge_layers -------------------------------------------------------------------------

def test_merge_layers_matches_merging_figure():
    a = layer(1.0, 0.0, 0.0, TANH)
    b = layer(1.0, 0.0, 0.0, ID)
    a2, b2 = merge_layers(a, b, 0, DomainBox.from_pairs([[-3.0, 3.0]]), DomainBox.from_pairs([[-2.0, 1.0]]))
    assert a2.activation is b2.activation
    sigma = a2.activation
    assert isinstance(sigma, Merged)
    assert sigma.left_max == 3.0 and sigma.right_min == -2.0
    assert a2.bias.tolist() == [-4.0]  # shifted down by M+1
    assert b2.bias.tolist() == [3.0]   # shifted up by 1-m


def test_merge_layers_relu_pair_still_relu():
    a = b = layer(1.0, 0.0, 0.0, RELU)
    box = DomainBox.from_pairs([[0.0, 1.0]])
    a2, b2 = merge_layers(a, b, 1, box, box)
    union, fm = batch_instances(1, box, 50, 5)
    assert_close(eval_layer(a2, union, fm).values, eval_layer(a, union, fm).values)
    assert_close(eval_layer(b2, union, fm).values, eval_layer(b, union, fm).values)


@pytest.mark.parametrize("seed", range(10))
def test_merge_layers_random_equivalence(seed):
    rng = np.random.default_rng(700 + seed)
    a = _rand_layer(rng, 2, 2, TANH)
    b = _rand_layer(rng, 1, 2, SIGMOID)
    box_a = DomainBox.cube(-1, 1, 2)
    box_b = DomainBox.cube(-1, 1, 1)
    a2, b2 = merge_layers(a, b, 2, box_a, box_b)
    assert a2.activation == b2.activation
    union_a, fm_a = batch_instances(2, box_a, 50, seed)
    union_b, fm_b = batch_instances(2, box_b, 50, seed + 1)
    assert_close(eval_layer(a2, union_a, fm_a).values, eval_layer(a, union_a, fm_a).values)
    assert_close(eval_layer(b2, union_b, fm_b).values, eval_layer(b, union_b, fm_b).values)


# -- compile_mixed ----------------------------------------------------------------------------

@pytest.mark.parametrize(
    "text,p,box",
    [
        ("tanh(P1) + sin(P1)", 2, DomainBox.cube(-1, 1, 1)),
        ("sin(<>P1)", 3, DomainBox.from_pairs([[0.0, 1.0]])),
        ("sigmoid(P1 + 2*P2) + abs(<>P2)", 2, DomainBox.cube(-1, 1, 2)),
    ],
)
def test_compile_mixed_matches_interpreter(text, p, box):
    e = parse(text)
    net = compile_mixed(e, box.dimension, p, box)
    union, fm = batch_instances(p, box, 100, 37)
    assert_close(
        eval_mpnn(net, union, fm).values[:, 0],
        eval_expr(e, union, fm),
    )


def test_compile_mixed_flat_sum_is_one_merged_layer():
    e = parse("tanh(P1) + sin(<>P2) + sigmoid(P1 + P2) + 2*tanh(P2) + abs(P1)")
    box = DomainBox.cube(-1, 1, 2)
    net = compile_mixed(e, 2, 3, box)
    assert [lyr.output_arity for lyr in net.layers] == [5, 1]
    merged = net.layers[0].activation
    # tanh, sin, sigmoid, abs folded from the left: merge depth 3.
    assert isinstance(merged, Merged) and isinstance(merged.left.left, Merged)
    assert merged.right == ABS and merged.left.left.left == TANH
    assert [merged.left.right, merged.left.left.right] == [SIGMOID, SIN]
    union, fm = batch_instances(3, box, 100, 39)
    assert_close(eval_mpnn(net, union, fm).values[:, 0], eval_expr(e, union, fm))


def test_compile_mixed_constant_channel_keeps_every_level_nonempty():
    # Only the constant channel of <>(... + 1) survives the cancellation; it
    # is lifted from level 1, so the level below it still has a row.  The
    # root is the one sin channel of level 3, so the read-out fuses into it.
    e = parse("sin(<>(tanh(sin(P1)) + 1) + -1*<>tanh(sin(P1)))")
    box = DomainBox.cube(-1, 1, 1)
    net = compile_mixed(e, 1, 2, box)
    assert [lyr.output_arity for lyr in net.layers] == [1, 1, 1]
    assert mpnn_from_json(mpnn_to_json(net)) == net
    union, fm = batch_instances(2, box, 50, 43)
    assert_close(eval_mpnn(net, union, fm).values[:, 0], eval_expr(e, union, fm))


def test_compile_mixed_agrees_with_compile_relu_on_relu_subset():
    e = parse("relu(P1)")
    box = DomainBox.cube(-1, 1, 1)
    mixed = compile_mixed(e, 1, 2, box)
    exact = compile_relu(e, 1)
    union, fm = batch_instances(2, box, 50, 41)
    assert_close(
        eval_mpnn(mixed, union, fm).values,
        eval_mpnn(exact, union, fm).values,
    )


def test_compile_mixed_divergence_outside_box_is_permitted():
    # Equivalence is promised only over the declared domain; outside it the
    # merged activations saturate differently and values drift apart.
    e = parse("tanh(P1) + sin(P1)")
    net = compile_mixed(e, 1, 2, DomainBox.cube(-1, 1, 1))
    g = Graph(1, ())
    fm = FeatureMap(np.array([[-50.0]]))
    dev = abs(eval_mpnn(net, g, fm).values[0, 0] - eval_expr(e, g, fm)[0])
    assert np.isfinite(dev) and dev > 0.1


def test_compile_mixed_preactivations_inside_propagated_bounds():
    e = parse("tanh(<>P1) + sin(P1 + P2)")
    p, box = 2, DomainBox.cube(-1, 1, 2)
    net = compile_mixed(e, 2, p, box)
    union, fm = batch_instances(p, box, 100, 43)
    state, current = fm.values, box
    for lyr in net.layers:
        lb = layer_output_bounds(lyr, p, current)
        z = state @ lyr.w_self.T + union.neighbor_sum(state) @ lyr.w_neigh.T + lyr.bias
        for i, iv in enumerate(lb.components):
            assert z[:, i].min() >= iv.lo - 1e-9
            assert z[:, i].max() <= iv.hi + 1e-9
        state = apply_vec(lyr.activation, z)
        current = DomainBox(tuple(interval_image(lyr.activation, iv) for iv in lb.components))


# -- addition-free / pointwise ------------------------------------------------------------------

def test_addition_free_activation_set_and_oracle():
    e = parse("tanh(2*<>P1)")
    net = compile_addition_free(e, 1)
    assert {lyr.activation for lyr in net.layers} <= {TANH, ID}
    union, fm = batch_instances(None, DomainBox.cube(-5, 5, 1), 100, 47)
    assert_close(eval_mpnn(net, union, fm).values[:, 0], eval_expr(e, union, fm))


def test_addition_free_sum_layer_is_minimal():
    net = compile_addition_free(parse("<>P1"), 1)
    assert len(net.layers) == 1
    lyr = net.layers[0]
    assert lyr.w_self.tolist() == [[0.0]] and lyr.w_neigh.tolist() == [[1.0]]
    assert lyr.bias.tolist() == [0.0] and lyr.activation == ID


def test_addition_free_rejects_plus():
    with pytest.raises(ModeError):
        compile_addition_free(parse("P1 + P2"), 2)


def test_pointwise_scale_fuses_into_base_layer():
    net = compile_pointwise(parse("3*P1"), 1)
    assert len(net.layers) == 1
    assert net.layers[0].w_self.tolist() == [[3.0]]
    assert net.layers[0].activation == ID


def test_pointwise_single_function_layer():
    net = compile_pointwise(parse("tanh(P1)"), 1)
    assert len(net.layers) == 1 and net.layers[0].activation == TANH


def test_pointwise_trailing_scale_appends_id():
    net = compile_pointwise(parse("2*tanh(P1)"), 1)
    assert [lyr.activation for lyr in net.layers] == [TANH, ID]
    union, fm = batch_instances(None, DomainBox.cube(-3, 3, 1), 50, 53)
    assert_close(
        eval_mpnn(net, union, fm).values[:, 0],
        eval_expr(parse("2*tanh(P1)"), union, fm),
    )


def test_pointwise_rejects_diamond_and_plus():
    with pytest.raises(ModeError):
        compile_pointwise(parse("<>P1"), 1)
    with pytest.raises(ModeError):
        compile_pointwise(parse("P1 + 1"), 1)


def test_pointwise_id_only_in_final_position():
    rng = np.random.default_rng(59)
    from mplangc.generate import random_expr

    count = 0
    while count < 20:
        e = random_expr(rng, 5, 2)
        t = classify(e)
        if not (t.addition_free and t.summation_free):
            continue
        count += 1
        net = compile_pointwise(e, 2)
        for lyr in net.layers[:-1]:
            assert lyr.activation != ID
        used = {lyr.activation for lyr in net.layers[:-1]}
        assert used <= t.functions_used


# -- compile_expr dispatch ------------------------------------------------------------------------

def test_auto_mode_picks_fast_paths():
    _, report = compile_expr(parse("tanh(P1)"), 1, CompileEnv())
    assert report.mode == "pointwise"
    _, report = compile_expr(parse("<>P1"), 1, CompileEnv())
    assert report.mode == "addition-free"
    _, report = compile_expr(MAX_EXPR, 2, CompileEnv())
    assert report.mode == "relu"


def test_auto_mode_requires_bounds_for_mixed():
    with pytest.raises(ModeError, match="degree-bound"):
        compile_expr(parse("tanh(P1)+1"), 1, CompileEnv())
    net, report = compile_expr(
        parse("tanh(P1)+1"),
        1,
        CompileEnv(degree_bound=2, box=DomainBox.cube(-1, 1, 1)),
    )
    assert report.mode == "mixed"
    assert report.bounds is not None and len(report.bounds) == report.layers


@pytest.mark.parametrize("text, mode", [
    ("0.5*tanh(P1 + <>P2) + -1.5*sin(2*P2) + abs(<>P1 + -0.5) + sigmoid(3*P1) + relu(P2)",
     "mixed"),
    ("relu(P1 + -1*<>P2) + -2*relu(<>relu(P2) + 0.5) + 3*<>P1 + -1", "relu"),
    # Tuples, one root per line.
    ("tanh(P1 + <>P2) + sin(<>relu(P2))\nrelu(P1) + -1*abs(P2)\n2*<>P1 + -0.5", "mixed"),
    ("relu(P1 + -1*<>P2)\nrelu(<>relu(P2) + 0.5) + P1", "relu"),
])
def test_compile_report_bounds_contain_every_layer_output(text, mode):
    p, box = 2, DomainBox.from_pairs([[-1.0, 2.0], [-0.5, 0.5]])
    roots = [parse(line) for line in text.split("\n")]
    net, report = compile_all(roots, 2, CompileEnv(degree_bound=p, box=box))
    assert report.mode == mode and net.output_arity == len(roots)
    union, fm = batch_instances(p, box, 300, 9)
    for lyr, bounds in zip(net.layers, report.bounds, strict=True):
        fm = eval_layer(lyr, union, fm)
        lo, hi = np.array(bounds).T
        assert np.all(lo <= fm.values.min(axis=0)) and np.all(fm.values.max(axis=0) <= hi)


def _propagated(net, p, box):
    """Each layer's output box from the box of the layer below, from the input
    box on: the network's bounds, one layer at a time."""
    pairs = []
    for lyr in net.layers:
        pre = layer_output_bounds(lyr, p, box)
        box = DomainBox(tuple(interval_image(lyr.activation, iv) for iv in pre.components))
        pairs.append(box.to_pairs())
    return pairs


BOUNDED_ROOTS = {
    "mixed": ("0.5*tanh(P1 + <>P2) + -1.5*sin(2*P2) + abs(<>P1 + -0.5) + sigmoid(3*P1)",),
    "mixed nested": ("tanh(sin(P1) + <>abs(P2)) + sigmoid(<>P1 + -1*P2) + relu(P2)",),
    "relu": ("relu(P1 + -1*<>P2) + -2*relu(<>relu(P2) + 0.5) + 3*<>P1 + -1",),
    # Fused read-outs: rows regrouped by activation, and a repeated root.
    "mixed fused": ("tanh(P1 + <>P2)", "sin(P2)", "tanh(P2)"),
    "mixed tuple": ("tanh(P1) + sin(<>P2)", "relu(P1) + sigmoid(<>relu(P2))", "-1*P2 + 2"),
    "relu fused": ("relu(P1)", "relu(<>P2 + -1)", "relu(P1)"),
    "relu tuple": ("relu(P1 + <>P2)", "relu(P1 + <>P2) + -1*<>relu(P2)", "P1"),
}


@pytest.mark.parametrize("p", [0, 3])
@pytest.mark.parametrize("texts", BOUNDED_ROOTS.values(), ids=BOUNDED_ROOTS.keys())
def test_report_bounds_equal_the_networks_layer_by_layer_bounds(texts, p):
    box = DomainBox.from_pairs([[-1.0, 2.0], [-0.5, 0.5]])
    net, report = compile_all([parse(t) for t in texts], 2, CompileEnv(degree_bound=p, box=box))
    assert report.mode in ("mixed", "relu") and net.output_arity == len(texts)
    assert report.bounds == _propagated(net, p, box)
    assert repr(report.shifts) == repr(layer_merge_shifts(net))


# Activations merged already in the input, as mpnn_to_mplang of a mixed network gives them.
_INHERITED, _TANH = Apply(merge(TANH, -1.0, SIN, 1.0), Proj(1)), Apply(TANH, Proj(1))


@pytest.mark.parametrize("root, shifts", [
    (_INHERITED, [[]]),  # pointwise: the compile merges nothing
    (Add(_TANH, _INHERITED), [[-2.0, 2.0], []]),  # the inherited merge is one group,
    (Add(_INHERITED, _TANH), [[-2.0, 2.0], []]),  # on either side
])
def test_report_shifts_are_the_ones_the_compile_applied(root, shifts):
    _, report = compile_all([root], 1, CompileEnv(degree_bound=1, box=DomainBox.cube(-1.0, 1.0, 1)))
    assert report.merged_activations == 1
    assert report.shifts == shifts


def test_each_layer_is_bounded_once_in_one_pass(monkeypatch):
    bounded, merges = [], []
    monkeypatch.setattr("mplangc.compiler.layer_output_bounds",
                        lambda *args: bounded.append(args[0]) or layer_output_bounds(*args))
    monkeypatch.setattr("mplangc.compiler.merge_layers",
                        lambda *args: pytest.fail("the scheduler re-bounds a merged layer"))
    monkeypatch.setattr("mplangc.compiler.merge", lambda *args: merges.append(args) or merge(*args))

    def compiled(texts, env):
        bounded.clear()
        merges.clear()
        return compile_all([parse(t) for t in texts], 2, env)[0]

    box = DomainBox.cube(-1.0, 1.0, 2)
    for texts in BOUNDED_ROOTS.values():
        net = compiled(texts, CompileEnv(degree_bound=2, box=box))
        # One pass per layer, over the layer's weighted sums without the bias.
        assert len(bounded) == len(net.layers)
        assert all(not seen.bias.any() for seen in bounded)
        rows = [np.hstack([lyr.w_self, lyr.w_neigh]).tolist() for lyr in (*bounded, *net.layers)]
        seen, built = rows[:len(bounded)], rows[len(bounded):]
        assert seen[:-1] == built[:-1]
        # A fused read-out picks the last layer's rows in root order.
        assert {*map(tuple, seen[-1])} == {*map(tuple, built[-1])}
    # One hidden layer of three activation groups, merged twice, and the read-out.
    net = compiled(["tanh(P1) + sin(P2) + sigmoid(<>P1)"], CompileEnv("mixed", 2, box))
    assert (len(net.layers), len(bounded), len(merges)) == (2, 2, 2)
    assert [lyr.output_arity for lyr in bounded] == [3, 1]
    for texts, env in ((["relu(P1) + <>P2"], CompileEnv("relu")), (["tanh(<>P1)"], CompileEnv())):
        compiled(texts, env)
        assert bounded == [] and merges == []


def test_auto_mode_sends_a_tuple_past_the_chained_routes():
    # One chained layer per level cannot hold relu(P1) and the id carrier of P1.
    roots = (parse("relu(P1)"), parse("P1"))
    net, report = compile_all(roots, 1, CompileEnv())
    assert report.mode == "relu"
    union, fm = batch_instances(None, DomainBox.cube(-2.0, 2.0, 1), 50, 5)
    for j, e in enumerate(roots):
        assert_close(eval_mpnn(net, union, fm).values[:, j], eval_expr(e, union, fm))
    for mode in ("pointwise", "addition-free"):
        with pytest.raises(ModeError, match="one expression"):
            compile_all(roots, 1, CompileEnv(mode))


def test_auto_mode_sum_layer_shape():
    net, _ = compile_expr(parse("<>P1"), 1, CompileEnv())
    assert len(net.layers) == 1
    assert net.layers[0].w_neigh.tolist() == [[1.0]]


def test_report_fields():
    net, report = compile_expr(MAX_EXPR, 2, CompileEnv(mode="relu"))
    assert report.layers == len(net.layers)
    assert report.max_width == max(l.output_arity for l in net.layers)
    assert report.merged_activations == 0
    assert set(report.activations) == {"relu", "id"}
