"""Compilers from MPLang expressions to MPNNs.

Three exact routes:

* ``compile_relu``: structural induction for ReLU-only expressions; valid on
  every graph and every feature map.  Sub-networks are joined with the
  ReLU-MPNN concatenation combinators, and interior id-layers are removed via
  the relu(x) - relu(-x) split.
* ``compile_mixed``: arbitrary catalog activations, valid over graphs of
  degree at most p and features inside a box.  Layer pairs with different
  activations are rewritten to share one merged activation, with the shift
  amounts taken from interval bounds propagated through the network.
* ``compile_addition_free`` / ``compile_pointwise``: fast paths for
  expressions without + (and without the neighbor sum): a single chain of
  layers with scaling and function application fused into id-layers, valid
  everywhere and introducing no merged activations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .activations import ID, Merged, interval_image, merge
from .errors import ArityError, ModeError
from .expressions import (
    Add,
    Apply,
    Diamond,
    Expr,
    ExprTuple,
    One,
    Proj,
    Scale,
    arity_check,
    classify,
    fold,
)
from .intervals import DomainBox, Interval
from .mpnn import (
    Layer,
    Mpnn,
    concat_layers,
    concat_mpnns,
    eliminate_id_layer,
    identity_layer,
    layer,
    parallel_layers,
)

__all__ = [
    "LayerBounds",
    "CompileEnv",
    "CompileReport",
    "layer_output_bounds",
    "merge_layers",
    "parallel_mixed",
    "compile_relu",
    "compile_relu_tuple",
    "compile_mixed",
    "compile_addition_free",
    "compile_pointwise",
    "compile_expr",
]


# -- interval bound analysis -----------------------------------------------------

@dataclass(frozen=True)
class LayerBounds:
    """Pre-activation interval per output component, with the global extremes."""

    components: tuple[Interval, ...]
    upper_max: float
    lower_min: float


def _dot_interval(row: np.ndarray, box: DomainBox) -> Interval:
    lo = hi = 0.0
    for w, iv in zip(row, box.intervals):
        t = iv.scale(float(w))
        lo += t.lo
        hi += t.hi
    return Interval(lo, hi)


def layer_output_bounds(lyr: Layer, p: int, box: DomainBox) -> LayerBounds:
    """Bounds on a layer's pre-activation values over degree-<=p graphs and box.

    A node of degree k contributes w1*x0 + w2*(x1+...+xk) + b with each xi in
    the box; the union over k in 0..p is the hull of k-fold sums, including
    the isolated-node case k=0.
    """
    if box.dimension != lyr.input_arity:
        raise ArityError(
            f"box dimension {box.dimension} != layer input arity {lyr.input_arity}"
        )
    comps = []
    for i in range(lyr.output_arity):
        own = _dot_interval(lyr.w_self[i], box)
        nb = _dot_interval(lyr.w_neigh[i], box)
        neigh = Interval(min(0.0, p * nb.lo), max(0.0, p * nb.hi))
        b = float(lyr.bias[i])
        comps.append(Interval(own.lo + neigh.lo + b, own.hi + neigh.hi + b))
    if not all(iv.is_finite() for iv in comps):
        raise RuntimeError("bound analysis produced an unbounded interval")
    return LayerBounds(
        tuple(comps),
        max(iv.hi for iv in comps),
        min(iv.lo for iv in comps),
    )


def merge_layers(
    a: Layer, b: Layer, p: int, box_a: DomainBox, box_b: DomainBox
) -> tuple[Layer, Layer]:
    """Rewrite two layers to share one merged activation.

    With M the largest pre-activation value a can see and m the smallest b can
    see, a's bias drops by M+1 (inputs land at or below -1, where the merged
    activation plays a's function) and b's bias rises by 1-m (inputs land at
    or above +1, the piece playing b's function).  Each rewritten layer is
    equivalent to its original over degree-<=p graphs and its box.
    """
    upper = layer_output_bounds(a, p, box_a).upper_max
    lower = layer_output_bounds(b, p, box_b).lower_min
    shared = merge(a.activation, upper, b.activation, lower)
    shifted_a = Layer(a.w_self, a.w_neigh, a.bias - (upper + 1.0), shared)
    shifted_b = Layer(b.w_self, b.w_neigh, b.bias + (1.0 - lower), shared)
    return shifted_a, shifted_b


def parallel_mixed(
    a: Layer, b: Layer, p: int, box_a: DomainBox, box_b: DomainBox
) -> Layer:
    """Parallel composition of layers with possibly different activations."""
    a2, b2 = merge_layers(a, b, p, box_a, box_b)
    return parallel_layers(a2, b2)


# -- shared base layers ------------------------------------------------------------

def _leaf_layer(e: One | Proj, d: int) -> Layer:
    """The id-layer computing the constant 1 or a projection."""
    w = np.zeros((1, d))
    if isinstance(e, One):
        return Layer(w, np.zeros((1, d)), np.ones(1), ID)
    w[0, e.index - 1] = 1.0
    return Layer(w, np.zeros((1, d)), np.zeros(1), ID)


def _node_layer(e: Expr) -> Layer:
    """The layer a scaling, application, neighbor sum or sum puts on its operands."""
    if isinstance(e, Scale):
        return layer(e.factor, 0.0, 0.0, ID)
    if isinstance(e, Apply):
        return layer(1.0, 0.0, 0.0, e.func)
    if isinstance(e, Diamond):
        return layer(0.0, 1.0, 0.0, ID)
    return layer([[1.0, 1.0]], [[0.0, 0.0]], 0.0, ID)


# -- exact ReLU compilation ---------------------------------------------------------

def _append_layer(net: Mpnn, extra: Layer) -> Mpnn:
    """Append a layer, removing the interior id-layer this would create."""
    last = net.layers[-1]
    if last.activation == ID:
        relu_part, adjusted = eliminate_id_layer(last, extra)
        return Mpnn(net.layers[:-1] + (relu_part, adjusted))
    return Mpnn(net.layers + (extra,))


def compile_relu(e: Expr, d: int) -> Mpnn:
    """ReLU-MPNN equivalent to e on all graphs and all feature maps."""
    if not arity_check(e, d):
        raise ArityError(f"expression uses projections beyond arity {d}")
    if not classify(e).relu_only:
        raise ModeError("expression applies functions other than relu")

    def build(node: Expr, kids: tuple[Mpnn, ...]) -> Mpnn:
        if isinstance(node, (One, Proj)):
            return Mpnn((_leaf_layer(node, d),))
        net = concat_mpnns(*kids) if isinstance(node, Add) else kids[0]
        return _append_layer(net, _node_layer(node))

    return fold(e, build)


def compile_relu_tuple(t: ExprTuple) -> Mpnn:
    nets = [compile_relu(c, t.input_arity) for c in t.components]
    out = nets[0]
    for net in nets[1:]:
        out = concat_mpnns(out, net)
    return out


# -- bounded-domain mixed compilation -------------------------------------------------

@dataclass
class _BoundedNet:
    """Layers plus the propagated feature box entering/leaving each layer."""

    layers: list[Layer]
    boxes: list[DomainBox]  # boxes[0] = input box; boxes[i+1] = post-activation box of layer i


def _post_box(lyr: Layer, p: int, in_box: DomainBox) -> DomainBox:
    pre = layer_output_bounds(lyr, p, in_box)
    return DomainBox(tuple(interval_image(lyr.activation, iv) for iv in pre.components))


def _appended(bn: _BoundedNet, lyr: Layer, p: int) -> _BoundedNet:
    return _BoundedNet(bn.layers + [lyr], bn.boxes + [_post_box(lyr, p, bn.boxes[-1])])


def _extended_to(bn: _BoundedNet, n: int) -> _BoundedNet:
    """Pad to n layers with trailing identity id-layers (box unchanged)."""
    layers = list(bn.layers)
    boxes = list(bn.boxes)
    while len(layers) < n:
        layers.append(identity_layer(layers[-1].output_arity, ID))
        boxes.append(boxes[-1])
    return _BoundedNet(layers, boxes)


def _concat_mixed(x: _BoundedNet, y: _BoundedNet, p: int) -> _BoundedNet:
    n = max(len(x.layers), len(y.layers))
    x = _extended_to(x, n)
    y = _extended_to(y, n)
    layers: list[Layer] = []
    boxes = [x.boxes[0]]
    for i in range(n):
        lx, ly = x.layers[i], y.layers[i]
        if lx.activation != ly.activation:
            lx, ly = merge_layers(lx, ly, p, x.boxes[i], y.boxes[i])
        layers.append(concat_layers(lx, ly) if i == 0 else parallel_layers(lx, ly))
        # The rewritten layers agree with the originals pointwise over the
        # domain, so the original output boxes stay valid.
        boxes.append(x.boxes[i + 1].concat(y.boxes[i + 1]))
    return _BoundedNet(layers, boxes)


def compile_mixed(e: Expr, d: int, p: int, box: DomainBox) -> Mpnn:
    """MPNN equivalent to e over graphs of degree <= p and features in box."""
    if box.dimension != d:
        raise ArityError(f"box dimension {box.dimension} != input arity {d}")
    if not arity_check(e, d):
        raise ArityError(f"expression uses projections beyond arity {d}")
    if p < 0:
        raise ValueError("degree bound must be nonnegative")

    def build(node: Expr, kids: tuple[_BoundedNet, ...]) -> _BoundedNet:
        if isinstance(node, (One, Proj)):
            base = _leaf_layer(node, d)
            return _BoundedNet([base], [box, _post_box(base, p, box)])
        bn = _concat_mixed(*kids, p) if isinstance(node, Add) else kids[0]
        return _appended(bn, _node_layer(node), p)

    return Mpnn(tuple(fold(e, build).layers))


# -- addition-free fast paths ----------------------------------------------------------

def _fused(e: Expr, last: Layer) -> Layer | None:
    """`last` with the unary node e folded into it, or None if e needs its own layer."""
    if last.activation != ID:
        return None
    if isinstance(e, Scale):
        return Layer(e.factor * last.w_self, e.factor * last.w_neigh, e.factor * last.bias, ID)
    if isinstance(e, Apply):
        return Layer(last.w_self, last.w_neigh, last.bias, e.func)
    if last.w_neigh.any() or last.bias.any():
        return None
    # <> after a pure self-transform refolds into the neighbor slot.
    return Layer(np.zeros_like(last.w_self), last.w_self, last.bias, ID)


def _chain(e: Expr, d: int) -> tuple[Layer, ...]:
    """Layers of an addition-free expression, fusing each node into the last layer."""

    def build(node: Expr, kids: tuple[tuple[Layer, ...], ...]) -> tuple[Layer, ...]:
        if isinstance(node, (One, Proj)):
            return (_leaf_layer(node, d),)
        layers = kids[0]
        fused = _fused(node, layers[-1])
        return layers[:-1] + (fused,) if fused is not None else layers + (_node_layer(node),)

    return fold(e, build)


def compile_addition_free(e: Expr, d: int) -> Mpnn:
    """MPNN for an addition-free expression, exact on all graphs and features.

    Uses only the expression's own functions plus the identity; never
    introduces merged activations.
    """
    if not arity_check(e, d):
        raise ArityError(f"expression uses projections beyond arity {d}")
    if not classify(e).addition_free:
        raise ModeError("expression uses +")
    return Mpnn(_chain(e, d))


def compile_pointwise(e: Expr, d: int) -> Mpnn:
    """MPNN for an addition- and summation-free expression.

    The chain keeps the expression's own activations; an id-layer can only
    survive in final position (scaling fuses into it, applications replace it).
    """
    if not arity_check(e, d):
        raise ArityError(f"expression uses projections beyond arity {d}")
    traits = classify(e)
    if not traits.addition_free:
        raise ModeError("expression uses +")
    if not traits.summation_free:
        raise ModeError("expression uses the neighbor-sum operator")
    return Mpnn(_chain(e, d))


# -- mode dispatch -----------------------------------------------------------------

@dataclass(frozen=True)
class CompileEnv:
    mode: str = "auto"
    degree_bound: int | None = None
    box: DomainBox | None = None


@dataclass
class CompileReport:
    mode: str
    layers: int
    max_width: int
    activations: list[str]
    merged_activations: int
    bounds: list[list[list[float]]] | None

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "layers": self.layers,
            "max_width": self.max_width,
            "activations": self.activations,
            "merged_activations": self.merged_activations,
            "bounds": self.bounds,
        }


def _activation_label(act) -> str:
    from .activations import Named, PiecewiseLinear, ReluSum

    if isinstance(act, Named):
        return act.name
    if isinstance(act, PiecewiseLinear):
        return "pl"
    if isinstance(act, ReluSum):
        return "relusum"
    return "merged"


def _report(mode: str, net: Mpnn, boxes: list[DomainBox] | None) -> CompileReport:
    return CompileReport(
        mode=mode,
        layers=len(net.layers),
        max_width=max(lyr.output_arity for lyr in net.layers),
        activations=sorted({_activation_label(lyr.activation) for lyr in net.layers}),
        merged_activations=sum(
            isinstance(lyr.activation, Merged) for lyr in net.layers
        ),
        bounds=None if boxes is None else [b.to_pairs() for b in boxes[1:]],
    )


def _propagated_boxes(net: Mpnn, p: int, box: DomainBox) -> list[DomainBox]:
    boxes = [box]
    for lyr in net.layers:
        boxes.append(_post_box(lyr, p, boxes[-1]))
    return boxes


def compile_expr(e: Expr, d: int, env: CompileEnv) -> tuple[Mpnn, CompileReport]:
    """Dispatch on mode; auto picks the strongest applicable exact route."""
    traits = classify(e)
    mode = env.mode
    if mode == "auto":
        if traits.addition_free and traits.summation_free:
            mode = "pointwise"
        elif traits.addition_free:
            mode = "addition-free"
        elif traits.relu_only:
            mode = "relu"
        elif env.degree_bound is not None and env.box is not None:
            mode = "mixed"
        else:
            raise ModeError(
                "no exact mode applies everywhere; supply --degree-bound and "
                "--box for bounded compilation, or approximate first"
            )
    if mode == "pointwise":
        net = compile_pointwise(e, d)
    elif mode == "addition-free":
        net = compile_addition_free(e, d)
    elif mode == "relu":
        net = compile_relu(e, d)
    elif mode == "mixed":
        if env.degree_bound is None or env.box is None:
            raise ModeError("mixed mode needs a degree bound and a feature box")
        net = compile_mixed(e, d, env.degree_bound, env.box)
    else:
        raise ModeError(f"unknown mode {mode!r}")
    boxes = None
    if env.degree_bound is not None and env.box is not None:
        boxes = _propagated_boxes(net, env.degree_bound, env.box)
    return net, _report(mode, net, boxes)
