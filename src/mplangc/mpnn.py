"""MPNN layers and networks, and rewrites of ReLU-MPNNs.

A layer (W1, W2, b, sigma) maps a feature map to sigma(W1*x(v) + W2*sum of
x(u) over neighbors u + b) per node.  ReLU-MPNNs can be padded with
identity-weight ReLU layers (sound because post-ReLU features are
nonnegative and ReLU is idempotent), an interior id-layer can be rewritten
into a ReLU pair via x = relu(x) - relu(-x), and two networks concatenate as
the relu compile of their translations, one output per root.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .activations import (
    ID,
    RELU,
    Activation,
    activation_from_json,
    activation_to_json,
    apply_vec,
)
from .errors import ArityError
from .graphs import FeatureMap, Graph

__all__ = [
    "Layer",
    "Mpnn",
    "layer",
    "identity_layer",
    "eval_layer",
    "eval_mpnn",
    "pad_relu",
    "concat_mpnns",
    "eliminate_id_layer",
    "is_sigma_mpnn",
    "is_relu_mpnn",
    "mpnn_to_json",
    "mpnn_from_json",
    "InvalidNetworkError",
]


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=float)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class Layer:
    w_self: np.ndarray   # (r, d): transforms the node's own feature vector
    w_neigh: np.ndarray  # (r, d): transforms the neighbor sum
    bias: np.ndarray     # (r,)
    activation: Activation

    def __post_init__(self):
        w1 = _frozen(self.w_self)
        w2 = _frozen(self.w_neigh)
        b = _frozen(self.bias)
        if w1.ndim != 2 or w2.ndim != 2 or b.ndim != 1:
            raise ValueError("expected 2-d weight matrices and a 1-d bias")
        if w1.shape != w2.shape:
            raise ValueError(f"weight shapes differ: {w1.shape} vs {w2.shape}")
        if b.shape[0] != w1.shape[0]:
            raise ValueError(f"bias length {b.shape[0]} != row count {w1.shape[0]}")
        object.__setattr__(self, "w_self", w1)
        object.__setattr__(self, "w_neigh", w2)
        object.__setattr__(self, "bias", b)

    @property
    def input_arity(self) -> int:
        return self.w_self.shape[1]

    @property
    def output_arity(self) -> int:
        return self.w_self.shape[0]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Layer)
            and np.array_equal(self.w_self, other.w_self)
            and np.array_equal(self.w_neigh, other.w_neigh)
            and np.array_equal(self.bias, other.bias)
            and self.activation == other.activation
        )


def layer(w_self, w_neigh, bias, activation: Activation) -> Layer:
    """Layer from scalars/lists/arrays, e.g. layer(0, 1, 0, ID)."""
    return Layer(
        np.atleast_2d(np.asarray(w_self, dtype=float)),
        np.atleast_2d(np.asarray(w_neigh, dtype=float)),
        np.atleast_1d(np.asarray(bias, dtype=float)),
        activation,
    )


def identity_layer(r: int, activation: Activation) -> Layer:
    return Layer(np.eye(r), np.zeros((r, r)), np.zeros(r), activation)


@dataclass(frozen=True, eq=False)
class Mpnn:
    layers: tuple[Layer, ...]

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if not self.layers:
            raise ValueError("an MPNN needs at least one layer")
        for prev, cur in zip(self.layers, self.layers[1:]):
            if cur.input_arity != prev.output_arity:
                raise ArityError(
                    f"layer expects arity {cur.input_arity}, "
                    f"previous layer outputs {prev.output_arity}"
                )

    @property
    def input_arity(self) -> int:
        return self.layers[0].input_arity

    @property
    def output_arity(self) -> int:
        return self.layers[-1].output_arity

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Mpnn)
            and len(self.layers) == len(other.layers)
            and all(a == b for a, b in zip(self.layers, other.layers))
        )


# -- evaluation ----------------------------------------------------------------

def eval_layer(lyr: Layer, g: Graph, chi: FeatureMap) -> FeatureMap:
    if chi.dimension != lyr.input_arity:
        raise ArityError(
            f"layer expects {lyr.input_arity}-dim features, got {chi.dimension}"
        )
    if chi.node_count != g.node_count:
        raise ArityError(f"feature map has {chi.node_count} rows for {g.node_count} nodes")
    x = chi.values
    z = x @ lyr.w_self.T
    if lyr.w_neigh.any():  # id read-outs and pointwise chains read no neighbours
        z += g.neighbor_sum(x) @ lyr.w_neigh.T
    z += lyr.bias
    return FeatureMap(apply_vec(lyr.activation, z))


def eval_mpnn(net: Mpnn, g: Graph, chi: FeatureMap) -> FeatureMap:
    out = chi
    for lyr in net.layers:
        out = eval_layer(lyr, g, out)
    return out


# -- ReLU-MPNNs ----------------------------------------------------------------

def eliminate_id_layer(a: Layer, b: Layer) -> tuple[Layer, Layer]:
    """Rewrite id-layer a followed by b into a ReLU layer and an adjusted b.

    The first output doubles up as (z, -z) through ReLU; the successor
    recombines via A' = (A | -A), so a';b' computes exactly a;b.
    """
    if a.activation != ID:
        raise ValueError("first layer must use the identity activation")
    relu_part = Layer(
        np.vstack([a.w_self, -a.w_self]),
        np.vstack([a.w_neigh, -a.w_neigh]),
        np.concatenate([a.bias, -a.bias]),
        RELU,
    )
    adjusted = Layer(
        np.hstack([b.w_self, -b.w_self]),
        np.hstack([b.w_neigh, -b.w_neigh]),
        b.bias,
        b.activation,
    )
    return relu_part, adjusted


def is_sigma_mpnn(net: Mpnn, sigma: Activation) -> bool:
    """All layers use sigma, except that the last may use the identity."""
    return all(lyr.activation == sigma for lyr in net.layers[:-1]) and (
        net.layers[-1].activation in (sigma, ID)
    )


def is_relu_mpnn(net: Mpnn) -> bool:
    return is_sigma_mpnn(net, RELU)


def pad_relu(net: Mpnn, target: int) -> Mpnn:
    """Equivalent ReLU-MPNN with exactly `target` layers.

    Identity-weight ReLU layers go right after the first layer, where inputs
    are already nonnegative.  A lone id-layer network is first rewritten into
    a (relu, id) pair.
    """
    if not is_relu_mpnn(net):
        raise ValueError("padding is defined for ReLU-MPNNs only")
    if target < len(net.layers):
        raise ValueError("target length below current length")
    if target == len(net.layers):
        return net
    layers = list(net.layers)
    if len(layers) == 1 and layers[0].activation == ID:
        first, second = eliminate_id_layer(
            layers[0], identity_layer(layers[0].output_arity, ID)
        )
        layers = [first, second]
    width = layers[0].output_arity
    while len(layers) < target:
        layers.insert(1, identity_layer(width, RELU))
    return Mpnn(tuple(layers))


def concat_mpnns(a: Mpnn, b: Mpnn) -> Mpnn:
    """ReLU-MPNN computing the concatenation of the two networks' outputs: the
    relu compile of both translations as one tuple, one output per root.  A
    network that applies a function other than relu is a ModeError."""
    # Both modules import this one, so they are imported here.
    from .compiler import compile_relu
    from .translate import mpnn_to_mplang

    if a.input_arity != b.input_arity:
        raise ArityError(
            f"input arities differ: {a.input_arity} vs {b.input_arity}"
        )
    roots = mpnn_to_mplang(a).components + mpnn_to_mplang(b).components
    return compile_relu(roots, a.input_arity)


# -- JSON interchange ------------------------------------------------------------

def mpnn_to_json(net: Mpnn) -> dict:
    return {
        "input_arity": net.input_arity,
        "layers": [
            {
                "W1": lyr.w_self.tolist(),
                "W2": lyr.w_neigh.tolist(),
                "b": lyr.bias.tolist(),
                "sigma": activation_to_json(lyr.activation),
            }
            for lyr in net.layers
        ]
    }


class InvalidNetworkError(ValueError):
    """A network read from outside is not one that mpnn_to_json writes."""


def mpnn_from_json(obj: dict) -> Mpnn:
    """The network of an mpnn_to_json object; InvalidNetworkError if obj is none."""
    layers: list[Layer] = []
    try:
        # Files written before the input arity was recorded have none.
        arity = obj["input_arity"] if "input_arity" in obj else None
        if not (arity is None or type(arity) is int and arity >= 0):
            raise ValueError(f"input_arity must be a nonnegative integer, got {arity!r}")
        for spec in obj["layers"]:
            w1, w2 = (np.asarray(spec[key], dtype=float) for key in ("W1", "W2"))
            if w1.shape == (0,) and w2.shape == (0,):
                # A layer with no rows is written as []: its columns are the
                # rows of the layer before, or the input arity for the first.
                columns = layers[-1].output_arity if layers else arity
                if columns is None:
                    raise ValueError("a first layer with no rows has no input arity")
                w1 = w2 = np.zeros((0, columns))
            layers.append(Layer(w1, w2, np.asarray(spec["b"], dtype=float),
                                activation_from_json(spec["sigma"])))
    except KeyError as exc:
        raise InvalidNetworkError(f"malformed network: no {exc} field") from exc
    except (TypeError, ValueError) as exc:
        raise InvalidNetworkError(f"malformed network: {exc}") from exc
    if not layers:
        raise InvalidNetworkError("malformed network: no layers")
    if not all(np.isfinite(a).all() for lyr in layers for a in (lyr.w_self, lyr.w_neigh, lyr.bias)):
        raise InvalidNetworkError("malformed network: weights and biases must be finite "
                                  "(no NaN or infinity)")
    if arity is not None and arity != layers[0].input_arity:
        raise InvalidNetworkError(
            f"malformed network: input_arity {arity} but the first layer "
            f"has {layers[0].input_arity} columns")
    return Mpnn(tuple(layers))
