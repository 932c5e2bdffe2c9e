"""Shared helpers for the test suite."""

import numpy as np

from mplangc.activations import ABS, RELU, SIGMOID, SIN, TANH, Merged
from mplangc.expressions import Add, Apply, Diamond, One, Proj, Scale, _build
from mplangc.graphs import random_union
from mplangc.mpnn import Layer, Mpnn


def tree_copy(e):
    """The same expression with no node object shared, its nodes built past
    the intern table."""

    def fresh(cls, *values):
        return _build(cls, values)

    if isinstance(e, Add):
        return fresh(Add, tree_copy(e.left), tree_copy(e.right))
    if isinstance(e, Scale):
        return fresh(Scale, e.factor, tree_copy(e.arg))
    if isinstance(e, Apply):
        return fresh(Apply, e.func, tree_copy(e.arg))
    if isinstance(e, Diamond):
        return fresh(Diamond, tree_copy(e.arg))
    return fresh(Proj, e.index) if isinstance(e, Proj) else fresh(One)


def batch_instances(p, box, trials, seed, max_nodes=8):
    """One union graph + feature map covering `trials` random instances."""
    batch = random_union(p, box, trials, seed, max_nodes)
    return batch.graph, batch.features


def deep_mpnn(seed, layers=5, width=3, input_arity=2):
    """A dense network of `layers` layers of `width` rows, no id-layers.

    Its translation's text grows about sixfold per layer, its DAG linearly.
    """
    rng = np.random.default_rng(seed)
    arities = [input_arity] + [width] * layers
    activations = (RELU, TANH, SIGMOID, SIN, ABS)
    return Mpnn(tuple(
        Layer(rng.uniform(-2.0, 2.0, (arities[k + 1], arities[k])),
              rng.uniform(-2.0, 2.0, (arities[k + 1], arities[k])),
              rng.uniform(-1.0, 1.0, arities[k + 1]),
              activations[k % len(activations)])
        for k in range(layers)))


def layer_merge_shifts(net):
    """Each layer's merge shifts as the compile report gave them before the
    scheduler reported its own: re-derived from the merged activation's tree,
    [] for a layer without a merge.  An oracle for CompileReport.shifts."""
    def shifts(act):
        if not isinstance(act, Merged):
            return [0.0]
        return ([s - (act.left_max + 1.0) for s in shifts(act.left)]
                + [s + (1.0 - act.right_min) for s in shifts(act.right)])

    return [shifts(lyr.activation) if isinstance(lyr.activation, Merged) else []
            for lyr in net.layers]


def assert_close(actual, expected, rtol=1e-9, floor=1e-12, context=""):
    """Per-element |actual - expected| <= max(floor, rtol*|expected|)."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    dev = np.abs(actual - expected)
    tol = np.maximum(floor, rtol * np.abs(expected))
    if not (dev <= tol).all():
        worst = float((dev - tol).max())
        raise AssertionError(
            f"deviation exceeds tolerance by {worst:g} "
            f"(max dev {dev.max():g}) {context}"
        )
