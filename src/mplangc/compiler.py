"""Compilers from MPLang expressions to MPNNs.

One scheduler, ``_Channels``, builds every network.  A fold over the DAG
gives each distinct node an affine form over the channels of one level
(level 0: the input features).  Scalings and sums combine forms, a sum first
lifting its shallower operand to the other's level; an application f(e)
emits a row with activation f at the next level; <> turns self weights into
neighbour weights.  Rows are stored once per level, so a tree and its shared
DAG give the same network: one layer per level, then an id-layer reading out
each root.  Rows that no root reads are dropped.  If every root is exactly
one channel of the top level, the read-out is fused away and the last layer
is returned with its rows in root order.  Before the fold, the roots' traits
(see ``expressions.ExprTraits``) decide the route's ArityError and then its
ModeError, so each route walks the DAG once, to build.

``compile_all`` is the one entry: any number of roots, one network with an
output per root, and its ``CompileReport``; the per-route functions below are
its single-root cases without a report.  Given a degree bound p and an input
box, each layer is bounded in one array pass over its rows, from the box of
the layer below: the pass sizes the layer's merge shifts and gives its output
box, the report's bound for the layer and the next layer's input box.  Bounds
that are not finite are a ModeError naming the layer.

A carrier row only carries a value up a level: a lift, or the constant
channel that a bias under <> reads.  Its activation is fixed by the route:

* ``relu`` (``compile_relu`` / ``compile_relu_tuple``): ReLU-only
  expressions, valid on every graph and every feature map.  Relu carriers: a
  lift is x = relu(x) - relu(-x), one row for a nonnegative x.
* ``mixed`` (``compile_mixed``): arbitrary catalog activations, valid over
  graphs of degree at most p and features inside a box.  Relu carriers.  A
  level whose rows use k > 1 activations gets one merged activation of merge
  depth k - 1, so a flat n-term sum is one hidden layer of width n and the
  read-out.
* ``addition-free`` / ``pointwise`` (``compile_addition_free`` /
  ``compile_pointwise``): one expression without + (and without the neighbor
  sum), valid everywhere.  Id carriers: a lift is one id row, so the network
  uses only the expression's own functions and id, one row per layer.
  Several roots could put two activations on one level, so these routes take
  one root.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .activations import (
    ABS,
    ID,
    RELU,
    SIGMOID,
    Activation,
    Merged,
    activation_label,
    apply,
    interval_image,
    merge,
)
from .errors import ArityError, ModeError
from .expressions import (
    Add,
    Apply,
    Expr,
    ExprTuple,
    One,
    Proj,
    Scale,
    classify_all,
    fold_all,
)
from .intervals import DomainBox, Interval
from .mpnn import Layer, Mpnn

__all__ = [
    "LayerBounds",
    "CompileEnv",
    "CompileReport",
    "layer_output_bounds",
    "merge_layers",
    "compile_relu",
    "compile_relu_tuple",
    "compile_mixed",
    "compile_addition_free",
    "compile_pointwise",
    "compile_expr",
    "compile_all",
]


# -- interval bound analysis -----------------------------------------------------

@dataclass(frozen=True, eq=False)
class LayerBounds:
    """Pre-activation bounds per output row, as arrays, with the global extremes."""

    lo: np.ndarray
    hi: np.ndarray
    upper_max: float
    lower_min: float

    @property
    def components(self) -> tuple[Interval, ...]:
        return tuple(map(Interval, self.lo.tolist(), self.hi.tolist()))


def _require_finite(*holds: np.ndarray) -> None:
    if not all(h.all() for h in holds):
        raise ModeError("pre-activation bounds are not finite; shrink the box or the weights")


def _dot_bounds(w: np.ndarray, box: DomainBox) -> tuple[np.ndarray, np.ndarray]:
    """Per row of w, the least and greatest w.x over x in box, column by column."""
    lo, hi = np.zeros(len(w)), np.zeros(len(w))
    for col, iv in zip(w.T, box.intervals):
        lo += np.where(col == 0.0, 0.0, np.where(col > 0.0, col * iv.lo, col * iv.hi))
        hi += np.where(col == 0.0, 0.0, np.where(col > 0.0, col * iv.hi, col * iv.lo))
    return lo, hi


def layer_output_bounds(lyr: Layer, p: int, box: DomainBox) -> LayerBounds:
    """Bounds on a layer's pre-activation values over degree-<=p graphs and box.

    A node of degree k contributes w1*x0 + w2*(x1+...+xk) + b with each xi in
    the box; the union over k in 0..p is the hull of k-fold sums, including
    the isolated-node case k=0.  Bounds that are not finite are a ModeError.
    """
    if box.dimension != lyr.input_arity:
        raise ArityError(f"box dimension {box.dimension} != layer input arity {lyr.input_arity}")
    with np.errstate(over="ignore", invalid="ignore"):
        (own_lo, own_hi), (nb_lo, nb_hi) = _dot_bounds(lyr.w_self, box), _dot_bounds(lyr.w_neigh, box)
        lo = own_lo + np.where(p * nb_lo < 0.0, p * nb_lo, 0.0) + lyr.bias
        hi = own_hi + np.where(p * nb_hi > 0.0, p * nb_hi, 0.0) + lyr.bias
    # A NaN neighbour sum is an error even where p = 0 hides it.
    _require_finite(np.isfinite(lo), np.isfinite(hi), ~np.isnan(nb_lo), ~np.isnan(nb_hi))
    return LayerBounds(lo, hi, float(hi.max()), float(lo.min()))


def _merge_shift(a: Activation, a_bias: np.ndarray, upper: float, b: Activation,
                 b_bias: np.ndarray, lower: float) -> tuple[np.ndarray, np.ndarray, Merged]:
    """The merge rule: with upper the largest pre-activation value rows of a
    see and lower the smallest rows of b see, a's biases drop by upper+1
    (inputs land at or below -1, where the merged activation plays a) and b's
    rise by 1-lower (inputs land at or above +1, the piece playing b)."""
    _require_finite(np.isfinite([upper, lower]))
    return a_bias - (upper + 1.0), b_bias + (1.0 - lower), merge(a, upper, b, lower)


def merge_layers(a: Layer, b: Layer, p: int, box_a: DomainBox,
                 box_b: DomainBox) -> tuple[Layer, Layer]:
    """Rewrite two layers to share one merged activation, with a's largest and
    b's smallest pre-activation value bounded over degree-<=p graphs and each
    layer's box.  Each rewritten layer is equivalent to its original there."""
    bias_a, bias_b, shared = _merge_shift(
        a.activation, a.bias, layer_output_bounds(a, p, box_a).upper_max,
        b.activation, b.bias, layer_output_bounds(b, p, box_b).lower_min)
    return Layer(a.w_self, a.w_neigh, bias_a, shared), Layer(b.w_self, b.w_neigh, bias_b, shared)


def _merged_layer(lyr: Layer, groups: list[tuple[Activation, int]], p: int | None,
                  box: DomainBox | None) -> tuple[Layer, DomainBox | None, list[float]]:
    """lyr with its row groups' activations (each with the row its group ends
    before) merged into one by a left fold; given p and a box, the box of its
    outputs; and the bias shift each group got, left to right ([] without a
    merge).  One bound pass gives each row's weighted sum without bias; each
    fold step and the box read their bounds off it and the biases."""
    (act, start), *rest = groups
    if box is None:  # only a route with a box has several activations
        return Layer(lyr.w_self, lyr.w_neigh, lyr.bias, act), None, []
    sums = layer_output_bounds(Layer(lyr.w_self, lyr.w_neigh, np.zeros(len(lyr.bias)), ID), p, box)
    bias, shifts = lyr.bias, [0.0]
    for f, end in rest:
        upper = float(np.max(sums.hi[:start] + bias[:start]))
        lower = float(np.min(sums.lo[start:end] + bias[start:end]))
        head, tail, act = _merge_shift(act, bias[:start], upper, f, bias[start:end], lower)
        bias, start = np.concatenate([head, tail, bias[end:]]), end
        shifts = [s - (upper + 1.0) for s in shifts] + [1.0 - lower]
    lo, hi = sums.lo + bias, sums.hi + bias
    _require_finite(np.isfinite(lo), np.isfinite(hi))
    images = (interval_image(act, Interval(a, b)) for a, b in zip(lo.tolist(), hi.tolist()))
    return Layer(lyr.w_self, lyr.w_neigh, bias, act), DomainBox(tuple(images)), shifts if rest else []


# -- the levelled channel scheduler -------------------------------------------------------

class _Form(NamedTuple):
    """An affine form over the channels of one level: at a node v it is
    sum_c self_w[c] * x(v)[c] + sum_c neigh_w[c] * sum_{u~v} x(u)[c] + bias,
    with x the channels of `level` (level 0: the input features).  A form
    with no weights is a constant and sits at level 0."""

    level: int
    self_w: dict[int, float]
    neigh_w: dict[int, float]
    bias: float


def _scaled(a: float, f: _Form) -> _Form:
    def times(weights: dict[int, float]) -> dict[int, float]:
        return {c: v for c, w in weights.items() if (v := a * w) != 0.0}

    self_w, neigh_w = times(f.self_w), times(f.neigh_w)
    return _Form(f.level if self_w or neigh_w else 0, self_w, neigh_w, a * f.bias)


def _sum(x: dict[int, float], y: dict[int, float]) -> dict[int, float]:
    """x + y without zero weights; a long sum only ever walks its short side."""
    if len(x) < len(y):
        x, y = y, x
    out = dict(x)
    for c, w in y.items():
        out[c] = out.get(c, 0.0) + w
        if out[c] == 0.0:
            del out[c]
    return out


# Activations whose every output is >= 0.
_NONNEGATIVE = (RELU, ABS, SIGMOID)


class _Row(NamedTuple):
    """One channel of the next level: activation(form) for a form over this one."""

    self_w: tuple[tuple[int, float], ...]
    neigh_w: tuple[tuple[int, float], ...]
    bias: float
    activation: Activation


class _Channels:
    """The rows of a levelled network, each stored once.

    rows[k] lists the rows of layer k + 1 (weights, bias and activation), and
    index[k] finds one by content; a row's index is its channel at level k + 1.
    A carrier row only carries a value up a level: a lift, or the constant
    channel under <>.  Its activation is the route's carrier, relu or id.
    """

    def __init__(self, d: int, carrier: Activation):
        self.d = d
        self.carrier = carrier
        self.rows: list[list[_Row]] = []
        self.index: list[dict[_Row, int]] = []

    def emit(self, f: _Form, activation: Activation) -> int:
        """The channel of level f.level + 1 that holds activation(f)."""
        while len(self.rows) <= f.level:
            self.rows.append([])
            self.index.append({})
        row = _Row(tuple(sorted(f.self_w.items())), tuple(sorted(f.neigh_w.items())),
                   f.bias + 0.0, activation)
        rows = self.rows[f.level]
        c = self.index[f.level].setdefault(row, len(rows))
        if c == len(rows):
            rows.append(row)
        return c

    def _nonnegative(self, f: _Form) -> bool:
        """f >= 0 everywhere: a nonnegative combination of nonnegative channels."""
        if f.level == 0 or f.bias < 0.0:
            return False
        rows = self.rows[f.level - 1]
        return all(w > 0.0 and rows[c].activation in _NONNEGATIVE
                   for weights in (f.self_w, f.neigh_w) for c, w in weights.items())

    def lift(self, f: _Form) -> _Form:
        """f over the channels of the next level: one id carrier row, or
        x = relu(x) - relu(-x) with relu carriers.

        The bias stays a bias.  A single channel is carried alone, so every
        form that reads it shares its rows; a nonnegative one needs one row.
        """
        up = f.level + 1
        if not (f.self_w or f.neigh_w):
            return _Form(up, {}, {}, f.bias)
        g, scale = _Form(f.level, f.self_w, f.neigh_w, 0.0), 1.0
        if len(f.self_w) == 1 and not f.neigh_w:
            ((c, scale),) = f.self_w.items()
            g = _Form(f.level, {c: 1.0}, {}, 0.0)
        p = self.emit(g, self.carrier)
        if self.carrier == ID or self._nonnegative(g):
            return _Form(up, {p: scale}, {}, f.bias)
        m = self.emit(_scaled(-1.0, g), RELU)
        return _Form(up, {p: scale, m: -scale}, {}, f.bias)

    def lifted(self, f: _Form, level: int) -> _Form:
        while f.level < level:
            f = self.lift(f)
        return f

    def form(self, node: Expr, kids: tuple[_Form, ...]) -> _Form:
        """The form of one expression node, from its children's."""
        if isinstance(node, One):
            return _Form(0, {}, {}, 1.0)
        if isinstance(node, Proj):
            return _Form(0, {node.index - 1: 1.0}, {}, 0.0)
        if isinstance(node, Scale):
            return _scaled(node.factor, kids[0])
        if isinstance(node, Add):
            level = max(k.level for k in kids)
            f, g = (self.lifted(k, level) for k in kids)
            self_w, neigh_w = _sum(f.self_w, g.self_w), _sum(f.neigh_w, g.neigh_w)
            return _Form(level if self_w or neigh_w else 0, self_w, neigh_w, f.bias + g.bias)
        (f,) = kids
        if isinstance(node, Apply):
            if node.func == ID:
                return f
            if not (f.self_w or f.neigh_w):
                return _Form(0, {}, {}, apply(node.func, f.bias))
            if node.func in (RELU, ABS) and self._nonnegative(f):
                return f
            return _Form(f.level + 1, {self.emit(f, node.func): 1.0}, {}, 0.0)
        # Diamond: the self weights become neighbour weights.  A neighbour part
        # has to become channels first, and so does a bias at level 0; at a
        # higher level a bias b becomes weight b on the constant channel
        # carrier(1), emitted at level 1 and lifted, so that no level is empty.
        if f.neigh_w or (f.level == 0 and f.bias != 0.0):
            f = self.lift(f)
        neigh_w = f.self_w
        if f.bias != 0.0:
            one = _Form(1, {self.emit(_Form(0, {}, {}, 1.0), self.carrier): 1.0}, {}, 0.0)
            (c,) = self.lifted(one, f.level).self_w
            neigh_w = _sum(neigh_w, {c: f.bias})
        return _Form(f.level if neigh_w else 0, {}, neigh_w, 0.0)

    def _live(self, roots: list[_Form], top: int) -> list[list[int]]:
        """The channels of levels 1..top that a root or a live row reads,
        rows of one activation together, in order of first emission."""
        read = [c for f in roots for c in (*f.self_w, *f.neigh_w)]
        live: list[list[int]] = []
        for level in range(top, 0, -1):
            rows = self.rows[level - 1]
            chans = sorted(set(read))
            first: dict[Activation, int] = {}
            for c in chans:
                first.setdefault(rows[c].activation, c)
            chans.sort(key=lambda c: first[rows[c].activation])  # stable: c stays ascending
            live.append(chans)
            read = [c for ch in chans for c, _ in (*rows[ch].self_w, *rows[ch].neigh_w)]
        return live[::-1]

    def network(self, roots: list[_Form], p: int | None = None, box: DomainBox | None = None
                ) -> tuple[Mpnn, list[DomainBox] | None, list[list[float]]]:
        """One layer per level, then an id-layer with a row per root; given a
        degree bound p and an input box, the box of each layer's outputs (None
        without them); and each layer's merge shifts.  Only live rows are
        kept, and a level's activations are merged into one (see
        _merged_layer).  If every root is one channel of the top level, the
        read-out is fused away: the last layer and its box keep their rows
        picked in root order.
        """
        top = max(f.level for f in roots)
        roots = [self.lifted(f, top) for f in roots]
        position, width = list(range(self.d)), self.d
        levels = []
        for level, chans in enumerate(self._live(roots, top)):
            rows = self.rows[level]
            levels.append(_matrix_layer([rows[c] for c in chans], position, width))
            position, width = [0] * len(rows), len(chans)
            for i, c in enumerate(chans):
                position[c] = i
        fused = top and all(list(f.self_w.values()) == [1.0] and not f.neigh_w
                            and f.bias == 0.0 for f in roots)
        if not fused:
            out = [_Row(tuple(f.self_w.items()), tuple(f.neigh_w.items()), f.bias, ID) for f in roots]
            levels.append(_matrix_layer(out, position, width))
        layers, boxes, shifts = [], [], []
        for k, (lyr, groups) in enumerate(levels, 1):
            try:
                lyr, box, shift = _merged_layer(lyr, groups, p, box)
            except ModeError as exc:
                raise ModeError(f"layer {k}: {exc}") from None
            layers.append(lyr)
            boxes.append(box)
            shifts.append(shift)
        if fused:
            last, picks = layers.pop(), [position[c] for f in roots for c in f.self_w]
            layers.append(Layer(last.w_self[picks], last.w_neigh[picks], last.bias[picks],
                                last.activation))
            boxes[-1] = box and DomainBox(tuple(box.intervals[i] for i in picks))
        return Mpnn(tuple(layers)), None if box is None else boxes, shifts


def _matrix_layer(rows: list[_Row], position: list[int],
                  width: int) -> tuple[Layer, list[tuple[Activation, int]]]:
    """The id-layer of the given rows, channel c in column position[c], and
    each run of rows with one activation: it and the row the run ends before."""
    w_self = np.zeros((len(rows), width))
    w_neigh = np.zeros((len(rows), width))
    bias = np.zeros(len(rows))
    for i, row in enumerate(rows):
        for c, w in row.self_w:
            w_self[i, position[c]] = w
        for c, w in row.neigh_w:
            w_neigh[i, position[c]] = w
        bias[i] = row.bias
    acts = [row.activation for row in rows]
    groups = [(f, i + 1) for i, f in enumerate(acts) if acts[i + 1:i + 2] != [f]]
    return Layer(w_self, w_neigh, bias, ID), groups


def _schedule(roots: tuple[Expr, ...], d: int, mode: str, p: int | None = None,
              box: DomainBox | None = None
              ) -> tuple[Mpnn, list[DomainBox] | None, list[list[float]]]:
    """The roots' network on the route named by mode, from one fold over their
    DAG, its layers' boxes if p and box are given, and their merge shifts.
    The arguments are checked first: the arity, then the bounds, then the
    mode."""
    traits = classify_all(roots)
    if traits.max_projection > d:
        raise ArityError(f"expression uses projections beyond arity {d}")
    if p is None or box is None:
        if mode == "mixed":
            raise ModeError("mixed mode needs a degree bound and a feature box")
        p = box = None
    elif box.dimension != d:
        raise ArityError(f"box dimension {box.dimension} != input arity {d}")
    elif p < 0:
        raise ValueError("degree bound must be nonnegative")
    chained = mode in ("addition-free", "pointwise")
    if mode not in ("relu", "mixed") and not chained:
        raise ModeError(f"unknown mode {mode!r}")
    if mode == "relu" and not traits.relu_only:
        raise ModeError("expression applies functions other than relu")
    if chained and len(roots) != 1:
        raise ModeError(f"{mode} mode compiles one expression, not {len(roots)}")
    if chained and not traits.addition_free:
        raise ModeError("expression uses +")
    if mode == "pointwise" and not traits.summation_free:
        raise ModeError("expression uses the neighbor-sum operator")
    channels = _Channels(d, ID if chained else RELU)
    return channels.network(fold_all(roots, channels.form), p, box)


def compile_relu(e: Expr, d: int) -> Mpnn:
    """ReLU-MPNN equivalent to e on all graphs and all feature maps: one ReLU
    layer per level, then an id read-out unless it fuses into the last."""
    return _schedule((e,), d, "relu")[0]


def compile_relu_tuple(t: ExprTuple) -> Mpnn:
    """compile_relu of every component at once: one network, one output per component."""
    return _schedule(t.components, t.input_arity, "relu")[0]


def compile_mixed(e: Expr, d: int, p: int, box: DomainBox) -> Mpnn:
    """MPNN equivalent to e over graphs of degree <= p and features in box;
    each level merges the activations of its rows into one."""
    return _schedule((e,), d, "mixed", p, box)[0]


def compile_addition_free(e: Expr, d: int) -> Mpnn:
    """MPNN for an addition-free expression, exact on all graphs and features,
    with only the expression's own functions and id (id carrier rows)."""
    return _schedule((e,), d, "addition-free")[0]


def compile_pointwise(e: Expr, d: int) -> Mpnn:
    """MPNN for an addition- and summation-free expression: every layer applies
    one of its functions, except that the last may be an id read-out."""
    return _schedule((e,), d, "pointwise")[0]


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
    widths: list[int]  # output width of each layer
    nonzero: list[int]  # non-zero weights and biases of each layer
    activations: list[str]
    merged_activations: int
    # Per layer, the box of its outputs, one [lo, hi] pair per row (None
    # without a degree bound and a box).
    bounds: list[list[list[float]]] | None
    # Per layer, the bias shift each group of rows got when this compile
    # merged the groups' activations, left to right ([] where it merged none),
    # and the ulp of the largest |shift|: a bound on the rounding each shift
    # adds to a pre-activation value.  An activation that was merged already
    # in the input is one group, and its inner shifts are not listed.
    shifts: list[list[float]]
    shift_ulps: list[float]

    def to_json(self) -> dict:
        """The fields in their declared order."""
        return asdict(self)


def _report(mode: str, net: Mpnn, boxes: list[DomainBox] | None,
            shifts: list[list[float]]) -> CompileReport:
    return CompileReport(
        mode=mode,
        layers=len(net.layers),
        max_width=max(lyr.output_arity for lyr in net.layers),
        activations=sorted({activation_label(lyr.activation) for lyr in net.layers}),
        merged_activations=sum(isinstance(lyr.activation, Merged) for lyr in net.layers),
        bounds=None if boxes is None else [b.to_pairs() for b in boxes],
        widths=[lyr.output_arity for lyr in net.layers],
        nonzero=[
            int(np.count_nonzero(lyr.w_self) + np.count_nonzero(lyr.w_neigh)
                + np.count_nonzero(lyr.bias))
            for lyr in net.layers
        ],
        shifts=shifts,
        shift_ulps=[float(np.spacing(max(map(abs, s)))) if s else 0.0 for s in shifts],
    )


def compile_all(roots: Iterable[Expr], d: int, env: CompileEnv) -> tuple[Mpnn, CompileReport]:
    """One network with an output per root, and its report.

    Auto picks the strongest applicable exact route; the chained routes carry
    one row per layer, so they take a single root.  With a degree bound and a
    box, the report bounds every layer's outputs.
    """
    roots = tuple(roots)
    mode = env.mode
    if mode == "auto":
        traits = classify_all(roots)
        if len(roots) == 1 and traits.addition_free:
            mode = "pointwise" if traits.summation_free else "addition-free"
        elif traits.relu_only:
            mode = "relu"
        elif env.degree_bound is not None and env.box is not None:
            mode = "mixed"
        else:
            raise ModeError(
                "no exact mode applies everywhere; supply --degree-bound and "
                "--box for bounded compilation, or approximate first"
            )
    net, boxes, shifts = _schedule(roots, d, mode, env.degree_bound, env.box)
    return net, _report(mode, net, boxes, shifts)


def compile_expr(e: Expr, d: int, env: CompileEnv) -> tuple[Mpnn, CompileReport]:
    """compile_all of the single root e."""
    return compile_all((e,), d, env)
