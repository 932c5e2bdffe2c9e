import numpy as np
import pytest

from generate import random_mpnn
from helpers import assert_close, batch_instances
from oracles import max_mpnn, oracle_t2
from mplangc.expressions import Diamond, Proj, format_expr
from mplangc.graphs import FeatureMap, Graph
from mplangc.interpreter import eval_tuple
from mplangc.intervals import DomainBox
from mplangc.mpnn import Mpnn, eval_mpnn, layer
from mplangc.activations import ID
from mplangc.translate import mpnn_to_mplang


def test_sum_layer_translates_to_diamond():
    t = mpnn_to_mplang(Mpnn((layer(0.0, 1.0, 0.0, ID),)))
    assert t.components == (Diamond(Proj(1)),)
    assert format_expr(t.components[0]) == "<>P1"


def test_identity_layer_translates_to_projection():
    t = mpnn_to_mplang(Mpnn((layer(1.0, 0.0, 0.0, ID),)))
    assert t.components == (Proj(1),)


def test_max_network_translation_matches_oracle():
    t = mpnn_to_mplang(max_mpnn())
    rng = np.random.default_rng(17)
    g = Graph(1, ())
    for x, y in rng.uniform(-10, 10, (100, 2)):
        got = eval_tuple(t, g, FeatureMap(np.array([[x, y]]))).values[0, 0]
        assert got == pytest.approx(oracle_t2(x, y), abs=1e-9)


@pytest.mark.parametrize("seed", range(25))
def test_translation_matches_network_on_random_instances(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 4))
    net = random_mpnn(rng, d)
    t = mpnn_to_mplang(net)
    assert t.input_arity == d and t.output_arity == net.output_arity
    union, fm = batch_instances(None, DomainBox.cube(-5, 5, d), 20, 1000 + seed)
    assert_close(
        eval_tuple(t, union, fm).values,
        eval_mpnn(net, union, fm).values,
    )
