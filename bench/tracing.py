"""Span recorder for the traced run, and the per-layer metrics drawn from it.

In the traced run the benchmark replaces the public functions listed in
``TRACED`` with recording wrappers, in every loaded ``mplangc`` module that
holds them.  Calls the benchmark makes and calls the modules make into each
other then both leave spans; nothing under ``src/`` changes.  A span holds
its name, start, end and parent span.  Recursive calls of a function inside
its own span are counted but leave no span of their own.  Spans are kept in
compact arrays and written out when the run ends.
"""

from __future__ import annotations

import array
import contextlib
import importlib
import math
import sys
import time
from collections import Counter

import numpy as np

# (module, public function) pairs wrapped in the traced run.
TRACED = [
    ("parser", "parse"),
    ("expressions", "classify"),
    ("expressions", "max_projection"),
    ("expressions", "format_expr"),
    ("compiler", "compile_expr"),
    ("compiler", "compile_relu"),
    ("compiler", "compile_mixed"),
    ("compiler", "compile_pointwise"),
    ("compiler", "compile_addition_free"),
    ("compiler", "layer_output_bounds"),
    ("compiler", "merge_layers"),
    ("mpnn", "concat_mpnns"),
    ("mpnn", "pad_relu"),
    ("mpnn", "eliminate_id_layer"),
    ("mpnn", "eval_mpnn"),
    ("mpnn", "eval_layer"),
    ("mpnn", "mpnn_to_json"),
    ("mpnn", "mpnn_from_json"),
    ("activations", "apply_vec"),
    ("activations", "interval_image"),
    ("activations", "relu_approximate"),
    ("activations", "modulus_delta"),
    ("approx", "approximate"),
    ("approx", "image_bounds"),
    ("graphs", "random_instances"),
    ("graphs", "disjoint_union"),
    ("translate", "mpnn_to_mplang"),
    ("interpreter", "eval_expr"),
    ("interpreter", "eval_tuple"),
]

# Per-layer metrics: name -> (unit, kind, sources).  "self" sums the self
# time of the named spans, "calls" counts every call (recursive ones too),
# "count" and "max" read counters the wrappers keep.
PER_LAYER = {
    "parser.parse_s": ("s", "self", ["parser.parse"]),
    "expressions.classify_s": ("s", "self", ["expressions.classify"]),
    "expressions.classify_calls": ("count", "calls", ["expressions.classify"]),
    "expressions.max_projection_s": ("s", "self", ["expressions.max_projection"]),
    "expressions.format_s": ("s", "self", ["expressions.format_expr"]),
    "compiler.compile_expr_s": ("s", "self", ["compiler.compile_expr"]),
    "compiler.compile_relu_s": ("s", "self", ["compiler.compile_relu"]),
    "compiler.compile_mixed_s": ("s", "self", ["compiler.compile_mixed"]),
    "compiler.compile_chain_s": (
        "s", "self", ["compiler.compile_pointwise", "compiler.compile_addition_free"]),
    "compiler.layer_output_bounds_s": ("s", "self", ["compiler.layer_output_bounds"]),
    "compiler.layer_output_bounds_calls": ("count", "calls", ["compiler.layer_output_bounds"]),
    "compiler.merge_layers_calls": ("count", "calls", ["compiler.merge_layers"]),
    "mpnn.concat_mpnns_s": ("s", "self", ["mpnn.concat_mpnns"]),
    "mpnn.pad_relu_s": ("s", "self", ["mpnn.pad_relu"]),
    "mpnn.eliminate_id_layer_calls": ("count", "calls", ["mpnn.eliminate_id_layer"]),
    "mpnn.eval_mpnn_s": ("s", "self", ["mpnn.eval_mpnn"]),
    "mpnn.eval_layer_s": ("s", "self", ["mpnn.eval_layer"]),
    "mpnn.multiply_adds": ("count", "count", ["mpnn.multiply_adds"]),
    "mpnn.json_s": ("s", "self", ["mpnn.mpnn_to_json", "mpnn.mpnn_from_json"]),
    "activations.apply_vec_s": ("s", "self", ["activations.apply_vec"]),
    "activations.apply_vec_calls": ("count", "calls", ["activations.apply_vec"]),
    "activations.merged_depth_max": ("count", "max", ["activations.merged_depth"]),
    "activations.interval_image_s": ("s", "self", ["activations.interval_image"]),
    "activations.interval_image_calls": ("count", "calls", ["activations.interval_image"]),
    "activations.relu_approximate_s": ("s", "self", ["activations.relu_approximate"]),
    "activations.relu_knots": ("count", "count", ["activations.relu_knots"]),
    "activations.modulus_delta_s": ("s", "self", ["activations.modulus_delta"]),
    "approx.approximate_s": ("s", "self", ["approx.approximate"]),
    "approx.image_bounds_s": ("s", "self", ["approx.image_bounds"]),
    "approx.image_bounds_calls": ("count", "calls", ["approx.image_bounds"]),
    "graphs.random_instances_s": ("s", "self", ["graphs.random_instances"]),
    "graphs.instances": ("count", "count", ["graphs.instances"]),
    "graphs.neighbor_sum_s": ("s", "self", ["graphs.neighbor_sum"]),
    "graphs.neighbor_sum_calls": ("count", "calls", ["graphs.neighbor_sum"]),
    "graphs.disjoint_union_s": ("s", "self", ["graphs.disjoint_union"]),
    "translate.mpnn_to_mplang_s": ("s", "self", ["translate.mpnn_to_mplang"]),
    "interpreter.eval_expr_s": ("s", "self", ["interpreter.eval_expr"]),
    "interpreter.eval_tuple_s": ("s", "self", ["interpreter.eval_tuple"]),
    "cli.check_s": ("s", "self", ["cli.check"]),
    "cli.check_trials": ("count", "count", ["cli.check_trials"]),
}


class Tracer:
    """In-memory spans plus call counters and named counts."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self._name = array.array("i")
        self._start = array.array("d")
        self._end = array.array("d")
        self._parent = array.array("i")
        self._open_spans: list[int] = []
        self._depth: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        # (network ordinal, layer index, seconds, width, non-zero entries)
        self.layer_rows: list[tuple[int, int, float, int, int]] = []
        self._mark = None

    # -- spans --------------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        idx = len(self._start)
        self._name.append(nid)
        self._parent.append(self._open_spans[-1] if self._open_spans else -1)
        self._end.append(math.nan)
        self._open_spans.append(idx)
        self._start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> float:
        end = time.perf_counter()
        self._end[idx] = end
        self._open_spans.pop()
        return end - self._start[idx]

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, after=None):
        """Record a span per outermost call of fn; `after(args, result,
        seconds)` runs once each such call returns."""

        def traced(*args, **kwargs):
            self.calls[name] += 1
            if self._depth[name]:
                return fn(*args, **kwargs)
            self._depth[name] += 1
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = self._close(idx)
                self._depth[name] -= 1
            if after is not None:
                after(args, result, seconds)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name: str, fn, count: str):
        """Record one span per item a generator function yields."""

        def traced(*args, **kwargs):
            self.calls[name] += 1
            items = fn(*args, **kwargs)
            while True:
                idx = self._open(name)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                self.counts[count] += 1
                yield item

        traced.__wrapped__ = fn
        return traced

    # -- phases -------------------------------------------------------------

    def mark_setup_done(self) -> None:
        """Everything recorded so far belongs to set-up, the rest to rounds."""
        self._mark = (len(self._start), Counter(self.calls), Counter(self.counts))

    def per_layer(self, rounds: int) -> dict[str, dict]:
        """Each per-layer metric for one set-up plus one average round."""
        n = len(self._start)
        split, setup_calls, setup_counts = self._mark or (0, Counter(), Counter())
        self_time = self.self_times()
        names = np.frombuffer(self._name, dtype=np.int32)
        in_setup = np.arange(n) < split

        def phased(setup_part: float, total: float) -> float:
            return setup_part + (total - setup_part) / max(rounds, 1)

        out = {}
        for metric, (unit, kind, sources) in PER_LAYER.items():
            if kind == "self":
                ids = [self._name_id[s] for s in sources if s in self._name_id]
                sel = np.isin(names, ids)
                value = phased(float(self_time[sel & in_setup].sum()),
                               float(self_time[sel].sum()))
            elif kind == "calls":
                value = phased(sum(setup_calls[s] for s in sources),
                               sum(self.calls[s] for s in sources))
            elif kind == "count":
                value = phased(sum(setup_counts[s] for s in sources),
                               sum(self.counts[s] for s in sources))
            else:
                value = max(self.maxima[s] for s in sources)
            out[metric] = {"value": value, "unit": unit}
        return out

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the time its child spans cover."""
        start = np.frombuffer(self._start, dtype=float)
        end = np.frombuffer(self._end, dtype=float)
        parent = np.frombuffer(self._parent, dtype=np.int32)
        duration = end - start
        covered = np.zeros_like(duration)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], duration[has_parent])
        return duration - covered

    def save(self, path: str) -> None:
        """Write spans and per-layer rows as one .npz file."""
        rows = np.array(self.layer_rows, dtype=float).reshape(-1, 5)
        with open(path, "wb") as fh:
            np.savez_compressed(
                fh,
                names=np.array(self.names),
                name=np.frombuffer(self._name, dtype=np.int32),
                start=np.frombuffer(self._start, dtype=float),
                end=np.frombuffer(self._end, dtype=float),
                parent=np.frombuffer(self._parent, dtype=np.int32),
                self_time=self.self_times(),
                layer_rows=rows,
                layer_row_columns=np.array(
                    ["network", "layer", "seconds", "width", "nonzero"]),
            )


# -- installation -------------------------------------------------------------

def _replace_everywhere(original, replacement) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "mplangc" or mod_name.startswith("mplangc.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def _merged_depth(f, memo: dict) -> int:
    if id(f) not in memo:
        if type(f).__name__ == "Merged":
            memo[id(f)] = 1 + max(_merged_depth(f.left, memo), _merged_depth(f.right, memo))
        else:
            memo[id(f)] = 0
    return memo[id(f)]


def nonzero_entries(lyr) -> int:
    return int(np.count_nonzero(lyr.w_self) + np.count_nonzero(lyr.w_neigh)
               + np.count_nonzero(lyr.bias))


def install(tracer: Tracer) -> None:
    """Wrap the TRACED functions and Graph.neighbor_sum for this process."""
    network = {"ordinal": 0, "layer": 0}

    def on_apply_vec(args, result, seconds):
        # A fresh memo per call: ids of freed activations get reused.
        depth = _merged_depth(args[0], {})
        tracer.maxima["activations.merged_depth"] = max(
            tracer.maxima["activations.merged_depth"], depth)

    def on_relu_approximate(args, result, seconds):
        tracer.counts["activations.relu_knots"] += len(result.terms)

    def on_eval_mpnn(args, result, seconds):
        network["ordinal"] += 1
        network["layer"] = 0

    def on_eval_layer(args, result, seconds):
        lyr, g = args[0], args[1]
        tracer.counts["mpnn.multiply_adds"] += (
            g.node_count * 2 * (lyr.w_self.size + lyr.w_neigh.size))
        tracer.layer_rows.append((network["ordinal"], network["layer"], seconds,
                                  lyr.output_arity, nonzero_entries(lyr)))
        network["layer"] += 1

    hooks = {
        "activations.apply_vec": on_apply_vec,
        "activations.relu_approximate": on_relu_approximate,
        "mpnn.eval_mpnn": on_eval_mpnn,
        "mpnn.eval_layer": on_eval_layer,
    }
    for module, func in TRACED:
        mod = importlib.import_module(f"mplangc.{module}")
        original = getattr(mod, func)
        name = f"{module}.{func}"
        if name == "graphs.random_instances":
            wrapped = tracer.wrap_generator(name, original, count="graphs.instances")
        else:
            wrapped = tracer.wrap(name, original, after=hooks.get(name))
        _replace_everywhere(original, wrapped)
    graph_cls = importlib.import_module("mplangc.graphs").Graph
    graph_cls.neighbor_sum = tracer.wrap("graphs.neighbor_sum", graph_cls.neighbor_sum)
