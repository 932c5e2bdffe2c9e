"""Shared helpers for the test suite."""

from collections import Counter

import numpy as np

from mplangc.activations import ABS, RELU, SIGMOID, SIN, TANH, Merged
from mplangc.expressions import (
    _NAME_WIDTH,
    Add,
    Apply,
    Diamond,
    ExprTuple,
    One,
    Proj,
    Scale,
    _build,
    _format_node,
    _Name,
    fold,
)
from mplangc.graphs import random_union
from mplangc.interpreter import eval_tuple
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


def applied_functions(e):
    """The functions applied anywhere in e, from a fold over its DAG."""
    found = set()

    def visit(node, _):
        if isinstance(node, Apply):
            found.add(node.func)

    fold(e, visit)
    return found


def schedule_by_recursion(roots):
    """The schedule fold_all walks, found by recursion: each distinct node
    after its children, children and roots left to right; and how often each
    is read, once per parent's child slot and once per root slot.  An oracle
    for post_order, for expressions shallow enough to recurse over."""
    order, seen = [], set()

    def visit(node):
        if node not in seen:
            seen.add(node)
            for c in node.kids:
                visit(c)
            order.append(node)

    for r in roots:
        visit(r)
    return order, Counter([c for node in order for c in node.kids] + list(roots))


def format_expr_two_folds(e):
    """format_expr as it was before it read post_order's schedule: one fold
    counts each node's readers, a second builds the text.  An oracle."""
    readers = {}

    def count(node, _):
        for c in node.kids:
            readers[c] = readers.get(c, 0) + 1

    fold(e, count)
    bindings = []

    def text(node, kids):
        out = _format_node(node, kids)
        if readers.get(node, 0) < 2 or len(out) < _NAME_WIDTH:
            return out
        name = _Name(f"${len(bindings) + 1}")
        bindings.append(f"{name} = {out}; ")
        return name

    root = fold(e, text)
    return "".join(bindings) + root


def batch_instances(p, box, trials, seed, max_nodes=8):
    """One union graph + feature map covering `trials` random instances."""
    batch = random_union(p, box, trials, seed, max_nodes)
    return batch.graph, batch.features


def random_graph_by_pairs(n, p, seed):
    """The edges of random_graph(n, p, seed), by the process drawn pair by
    pair: 2n·max(p, 1) uniform candidate pairs, each rejected if it is a loop,
    an edge already chosen, or has an endpoint of degree p.  An oracle that
    shares no code with the batched sampler."""
    rng = np.random.default_rng(seed)
    degree = [0] * n
    chosen = set()
    for u, v in rng.integers(0, n, size=(2 * n * max(p, 1), 2)).tolist():
        edge = (min(u, v), max(u, v))
        if u == v or edge in chosen or degree[u] >= p or degree[v] >= p:
            continue
        chosen.add(edge)
        degree[u] += 1
        degree[v] += 1
    return np.array(sorted(chosen), dtype=np.int64).reshape(-1, 2)


def uniform_distance_estimates(lefts, rights, p, box, trials, seed):
    """Per pair, max |left - right| over one random_union of `trials`
    instances, each side's tuple evaluated once: lower bounds on the true
    suprema, deterministic given the seed.  An oracle for the proven ε."""
    left, right = (ExprTuple(tuple(side), box.dimension) for side in (lefts, rights))
    batch = random_union(p, box, trials, seed)
    va = eval_tuple(left, batch.graph, batch.features).values
    vb = eval_tuple(right, batch.graph, batch.features).values
    return np.max(np.abs(va - vb), axis=0, initial=0.0).tolist()


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
