import numpy as np
import pytest

from generate import random_mpnn
from helpers import assert_close, batch_instances
from oracles import max_mpnn, oracle_t2
from mplangc.activations import ID, RELU, SIGMOID, TANH, Merged, PiecewiseLinear, ReluSum
from mplangc.errors import ArityError
from mplangc.graphs import FeatureMap, Graph
from mplangc.intervals import DomainBox
from mplangc.mpnn import (
    InvalidNetworkError,
    Layer,
    Mpnn,
    concat_mpnns,
    eliminate_id_layer,
    eval_layer,
    eval_mpnn,
    identity_layer,
    is_relu_mpnn,
    is_sigma_mpnn,
    layer,
    mpnn_from_json,
    mpnn_to_json,
    pad_relu,
)

PATH = Graph(3, ((0, 1), (1, 2)))
SUM_LAYER = layer(0.0, 1.0, 0.0, ID)


def _rand_layer(rng, d, r, act=RELU):
    return Layer(
        rng.uniform(-2, 2, (r, d)),
        rng.uniform(-2, 2, (r, d)),
        rng.uniform(-1, 1, r),
        act,
    )


# -- evaluation -----------------------------------------------------------------

def test_neighbor_sum_layer_on_path():
    fm = FeatureMap(np.array([[1.0], [2.0], [3.0]]))
    out = eval_layer(SUM_LAYER, PATH, fm)
    assert out.values[:, 0].tolist() == [2.0, 4.0, 2.0]


def test_relu_layer_clamps():
    fm = FeatureMap(np.array([[-5.0]]))
    out = eval_layer(layer(1.0, 0.0, 0.0, RELU), Graph(1, ()), fm)
    assert out.values[0, 0] == 0.0


def test_first_max_layer_values():
    first = layer([[-1.0, 1.0], [1.0, 0.0], [-1.0, 0.0]], np.zeros((3, 2)), np.zeros(3), RELU)
    fm = FeatureMap(np.array([[1.0, 3.0]]))
    out = eval_layer(first, Graph(1, ()), fm)
    assert out.values[0].tolist() == [2.0, 1.0, 0.0]


def test_max_mpnn_computes_max():
    fm = FeatureMap(np.array([[1.0, 3.0]]))
    assert eval_mpnn(max_mpnn(), Graph(1, ()), fm).values[0, 0] == 3.0


def test_identity_layer_network():
    fm = FeatureMap(np.array([[1.5], [-2.0], [0.0]]))
    out = eval_mpnn(Mpnn((layer(1.0, 0.0, 0.0, ID),)), PATH, fm)
    assert np.array_equal(out.values, fm.values)


def test_two_sum_layers_count_two_hop_walks():
    fm = FeatureMap(np.ones((3, 1)))
    out = eval_mpnn(Mpnn((SUM_LAYER, SUM_LAYER)), PATH, fm)
    assert out.values[0, 0] == 2.0


def test_edgeless_graph_drops_neighbor_term():
    rng = np.random.default_rng(5)
    lyr = _rand_layer(rng, 2, 3, TANH)
    g = Graph(4, ())
    fm = FeatureMap(rng.uniform(-1, 1, (4, 2)))
    out = eval_layer(lyr, g, fm)
    expected = np.tanh(fm.values @ lyr.w_self.T + lyr.bias)
    assert_close(out.values, expected)


def test_dimension_mismatch_raises():
    fm = FeatureMap(np.zeros((3, 2)))
    with pytest.raises(ArityError):
        eval_layer(SUM_LAYER, PATH, fm)


def test_chaining_invariant_enforced():
    wide = Layer(np.zeros((1, 2)), np.zeros((1, 2)), np.zeros(1), RELU)
    with pytest.raises(ArityError):
        Mpnn((SUM_LAYER, wide))


# -- eliminate_id_layer ---------------------------------------------------------------

def test_eliminate_id_layer_identity_pipeline():
    a = layer(1.0, 0.0, 0.0, ID)
    b = layer(1.0, 0.0, 0.0, ID)
    a2, b2 = eliminate_id_layer(a, b)
    assert a2.activation == RELU and b2.activation == ID
    fm = FeatureMap(np.array([[-3.0]]))
    g = Graph(1, ())
    out = eval_mpnn(Mpnn((a2, b2)), g, fm)
    assert out.values[0, 0] == -3.0


def test_eliminate_id_layer_hand_example():
    a = layer(1.0, 0.0, 0.0, ID)
    b = layer(2.0, 0.0, 1.0, RELU)
    a2, b2 = eliminate_id_layer(a, b)
    fm = FeatureMap(np.array([[-1.0]]))
    g = Graph(1, ())
    assert eval_mpnn(Mpnn((a2, b2)), g, fm).values[0, 0] == 0.0  # relu(2*(-1)+1)


def test_eliminate_id_layer_random_oracle():
    rng = np.random.default_rng(31)
    a = _rand_layer(rng, 2, 3, ID)
    b = _rand_layer(rng, 3, 2, TANH)
    union, fm = batch_instances(None, DomainBox.cube(-2, 2, 2), 50, 9)
    direct = eval_mpnn(Mpnn((a, b)), union, fm).values
    rewritten = eval_mpnn(Mpnn(eliminate_id_layer(a, b)), union, fm).values
    assert np.abs(direct - rewritten).max() <= 1e-12


def test_eliminate_id_layer_requires_id():
    with pytest.raises(ValueError):
        eliminate_id_layer(layer(1.0, 0.0, 0.0, RELU), SUM_LAYER)


# -- pad_relu ----------------------------------------------------------------------

def test_pad_single_relu_layer():
    net = Mpnn((layer(1.0, 0.0, 0.0, RELU),))
    padded = pad_relu(net, 2)
    assert len(padded.layers) == 2 and is_relu_mpnn(padded)
    union, fm = batch_instances(None, DomainBox.cube(-3, 3, 1), 50, 17)
    assert_close(
        eval_mpnn(padded, union, fm).values, eval_mpnn(net, union, fm).values
    )


def test_pad_same_length_is_identity():
    net = Mpnn((layer(1.0, 0.0, 0.0, RELU),))
    assert pad_relu(net, 1) is net


def test_pad_lone_id_layer():
    net = Mpnn((layer(-2.0, 1.0, 0.5, ID),))
    padded = pad_relu(net, 3)
    assert len(padded.layers) == 3 and is_relu_mpnn(padded)
    union, fm = batch_instances(None, DomainBox.cube(-3, 3, 1), 50, 23)
    assert_close(
        eval_mpnn(padded, union, fm).values, eval_mpnn(net, union, fm).values
    )


def test_pad_max_mpnn_still_computes_max():
    padded = pad_relu(max_mpnn(), 4)
    rng = np.random.default_rng(3)
    xy = rng.uniform(-10, 10, (100, 2))
    g = Graph(1, ())
    for x, y in xy:
        got = eval_mpnn(padded, g, FeatureMap(np.array([[x, y]]))).values[0, 0]
        assert got == pytest.approx(oracle_t2(x, y), abs=1e-12)


def test_pad_rejects_non_relu_network():
    with pytest.raises(ValueError):
        pad_relu(Mpnn((layer(1.0, 0.0, 0.0, TANH),)), 2)


def test_pad_rejects_shrinking():
    with pytest.raises(ValueError):
        pad_relu(max_mpnn(), 1)


# -- concat_mpnns --------------------------------------------------------------------

def test_concat_two_sum_layer_networks():
    net = Mpnn((SUM_LAYER,))
    union, fm = batch_instances(None, DomainBox.cube(-3, 3, 1), 50, 29)
    both = eval_mpnn(concat_mpnns(net, net), union, fm).values
    single = eval_mpnn(net, union, fm).values
    assert both.shape[1] == 2
    assert_close(both[:, :1], single)
    assert_close(both[:, 1:], single)


def test_concat_network_with_itself_symmetric():
    net = max_mpnn()
    union, fm = batch_instances(None, DomainBox.cube(-5, 5, 2), 50, 31)
    both = eval_mpnn(concat_mpnns(net, net), union, fm).values
    assert np.array_equal(both[:, 0], both[:, 1])


def test_concat_max_with_sum_layer():
    combined = concat_mpnns(max_mpnn(), Mpnn((layer([[0.0, 0.0]], [[1.0, 0.0]], 0.0, ID),)))
    assert is_relu_mpnn(combined)
    union, fm = batch_instances(None, DomainBox.cube(-4, 4, 2), 50, 37)
    vals = eval_mpnn(combined, union, fm).values
    expect_max = np.maximum(fm.values[:, 0], fm.values[:, 1])
    expect_sum = union.neighbor_sum(fm.values[:, 0])
    assert_close(vals[:, 0], expect_max)
    assert_close(vals[:, 1], expect_sum)


def test_concat_mpnns_builds_no_compile_report(monkeypatch):
    # Only the network is built: the report's per-layer counts are never read.
    from mplangc import compiler

    def no_report(*args):
        raise AssertionError("concat_mpnns built a CompileReport")

    monkeypatch.setattr(compiler, "_report", no_report)
    net = Mpnn((layer([[0.0, 0.0]], [[1.0, 0.0]], 0.0, ID),))
    union, fm = batch_instances(None, DomainBox.cube(-2, 2, 2), 30, 41)
    both = eval_mpnn(concat_mpnns(max_mpnn(), net), union, fm).values
    assert_close(both, np.hstack([eval_mpnn(max_mpnn(), union, fm).values,
                                  eval_mpnn(net, union, fm).values]))


def test_concat_mpnns_requires_relu_networks():
    with pytest.raises(ValueError):
        concat_mpnns(Mpnn((layer(1.0, 0.0, 0.0, TANH),)), Mpnn((SUM_LAYER,)))


def test_concat_mpnns_requires_equal_input_arity():
    with pytest.raises(ArityError):
        concat_mpnns(max_mpnn(), Mpnn((SUM_LAYER,)))


def _random_relu_mpnn(rng, d):
    """A ReLU-MPNN of 1-4 layers whose last layer is relu or id."""
    net = random_mpnn(rng, d, max_layers=4, activations=(RELU,))
    last = net.layers[-1]
    if rng.random() < 0.5:
        last = Layer(last.w_self, last.w_neigh, last.bias, ID)
    return Mpnn(net.layers[:-1] + (last,))


def test_concat_mpnns_random_oracle():
    # The concatenation against both networks evaluated side by side.
    rng = np.random.default_rng(53)
    worst = 0.0
    for k in range(120):
        d = int(rng.integers(1, 4))
        a, b = _random_relu_mpnn(rng, d), _random_relu_mpnn(rng, d)
        both = concat_mpnns(a, b)
        assert is_relu_mpnn(both)
        union, fm = batch_instances(None, DomainBox.cube(-2, 2, d), 20, k)
        got = eval_mpnn(both, union, fm).values
        want = np.hstack([eval_mpnn(a, union, fm).values, eval_mpnn(b, union, fm).values])
        assert got.shape == want.shape
        worst = max(worst, np.abs(got - want).max() / max(1.0, np.abs(want).max()))
    assert worst <= 1e-9


def test_relu_layer_outputs_nonnegative():
    rng = np.random.default_rng(41)
    net = Mpnn((_rand_layer(rng, 2, 3), _rand_layer(rng, 3, 2), identity_layer(2, ID)))
    assert is_relu_mpnn(net)
    union, fm = batch_instances(None, DomainBox.cube(-5, 5, 2), 30, 43)
    state = fm
    for lyr in net.layers[:-1]:
        state = eval_layer(lyr, union, state)
        assert (state.values >= 0).all()


def test_is_sigma_mpnn_shapes():
    assert is_sigma_mpnn(Mpnn((layer(1, 0, 0, TANH), layer(1, 0, 0, ID))), TANH)
    assert is_sigma_mpnn(Mpnn((layer(1, 0, 0, TANH), layer(1, 0, 0, TANH))), TANH)
    assert not is_sigma_mpnn(Mpnn((layer(1, 0, 0, ID), layer(1, 0, 0, TANH))), TANH)
    assert is_relu_mpnn(Mpnn((layer(1, 0, 0, ID),)))  # lone id layer is fine


# -- serialization ---------------------------------------------------------------------

def test_mpnn_json_roundtrip():
    rng = np.random.default_rng(47)
    acts = [
        RELU,
        Merged(TANH, 1.5, SIGMOID, -0.5),
        ReluSum(((1.0, 0.25, -2.0),)),
        PiecewiseLinear(((0.0, 0.0), (1.0, 2.0))),
    ]
    net = Mpnn(tuple(_rand_layer(rng, 2, 2, a) for a in acts))
    again = mpnn_from_json(mpnn_to_json(net))
    assert again == net
    union, fm = batch_instances(None, DomainBox.cube(-1, 1, 2), 10, 51)
    assert np.array_equal(
        eval_mpnn(net, union, fm).values, eval_mpnn(again, union, fm).values
    )


def test_mpnn_json_roundtrip_of_a_layer_with_no_rows():
    # The empty layer is written as W1 = []; its two columns are read back
    # from the layer before it, or for a first layer from the input arity.
    net = Mpnn((layer([[1.0, 0.0], [0.0, 1.0]], np.zeros((2, 2)), [0.0, 0.0], RELU),
                Layer(np.zeros((0, 2)), np.zeros((0, 2)), np.zeros(0), RELU),
                Layer(np.zeros((1, 0)), np.zeros((1, 0)), np.ones(1), ID)))
    assert mpnn_from_json(mpnn_to_json(net)) == net
    headless = Mpnn(net.layers[1:])
    assert mpnn_to_json(headless)["input_arity"] == 2
    again = mpnn_from_json(mpnn_to_json(headless))
    assert again == headless and again.input_arity == 2
    # A file without the input arity has no column count for an empty first layer.
    old = {"layers": mpnn_to_json(headless)["layers"]}
    with pytest.raises(InvalidNetworkError, match="no input arity"):
        mpnn_from_json(old)


def test_mpnn_json_without_an_input_arity_still_loads():
    net = Mpnn((layer([[1.0, -2.0]], [[0.5, 0.0]], [0.25], RELU), layer(2.0, 0.0, 0.0, ID)))
    layers = mpnn_to_json(net)["layers"]
    assert mpnn_from_json({"layers": layers}) == net
    assert mpnn_from_json({"input_arity": None, "layers": layers}) == net


@pytest.mark.parametrize("arity", [1, 3, -1, 2.0, "2", True])
def test_mpnn_json_input_arity_must_match_the_first_layer(arity):
    net = Mpnn((layer([[1.0, -2.0]], [[0.5, 0.0]], [0.25], RELU),))
    with pytest.raises(InvalidNetworkError, match="input_arity"):
        mpnn_from_json(dict(mpnn_to_json(net), input_arity=arity))
