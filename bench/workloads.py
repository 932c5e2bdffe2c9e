"""One benchmark workload, run in this process from a fresh interpreter.

    python3 bench/workloads.py --workload NAME --seed N --seconds S --trace 0|1

``bench/run.py`` starts this script with ``PYTHONPATH`` pointing at the
checkout's ``src`` and the BLAS thread count set.  Set-up (``import mplangc``
and building the inputs from the seed) is timed from ``--t0``, the parent's
clock reading when it started this process.  The script then runs whole
rounds of the workload's operations until ``--seconds`` have passed, checks
every output against the independent reference, and prints one JSON line.
Every time it reports is scaled to the reference host speed
(``calibrate.py``).
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402

import numpy as np  # noqa: E402

import mplangc as mp  # noqa: E402
import mplangc.cli  # noqa: E402
import mplangc.mpnn  # noqa: E402

import calibrate  # noqa: E402
import checks  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
FUNCTIONS = ("tanh", "sin", "sigmoid", "abs", "relu")
# Share of the measuring time spent in calibration slices.
CALIBRATION_SHARE = 0.15
# The stages that make up route_s; the eval stages feed the throughputs.
ROUTE_STAGES = ("parse_s", "compile_s", "approx_s", "bounds_s", "translate_s",
                "check_s", "fmt_s")


def _num(rng: np.random.Generator, lo: float, hi: float) -> str:
    return f"{rng.uniform(lo, hi):.6f}"


def _instances(p: int, box, count: int, seed: int):
    """One union graph with its features over `count` random instances."""
    parts = list(mp.random_instances(p, box, count, seed))
    union, _ = mp.disjoint_union(g for g, _ in parts)
    features = mp.FeatureMap(np.concatenate([fm.values for _, fm in parts]))
    return union, features


def _reference_instance(g, fm) -> reference.Instance:
    return reference.Instance(g.node_count, g.edges, fm.values)


class Round:
    """What one round measured: stage times, evaluated nodes, sizes.

    With a tracer (the traced run) it also records the benchmark's own spans
    and counts."""

    def __init__(self, clock: calibrate.HostClock, tracer: tracing.Tracer | None = None):
        self.clock = clock
        self.tracer = tracer
        # stage times as measured, and at the reference host speed
        self.seconds: dict[str, float] = defaultdict(float)
        self.reference: dict[str, float] = defaultdict(float)
        self.net_nodes = 0
        self.interp_nodes = 0
        # (width, dense entries, non-zero entries) of every network layer
        self.layers: list[tuple[int, int, int]] = []
        self.exprs: list = []

    @contextlib.contextmanager
    def timed(self, stage: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            seconds = time.perf_counter() - start
            self.seconds[stage] += seconds
            self.clock.record(self.reference, stage, seconds)
            self.clock.calibrate()

    def add_network(self, net) -> None:
        """Keep a network's sizes, not its weights (approximants are big)."""
        self.layers.extend(
            (lyr.output_arity, lyr.w_self.size + lyr.w_neigh.size + lyr.bias.size,
             tracing.nonzero_entries(lyr)) for lyr in net.layers)

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def count(self, name: str, n: int) -> None:
        if self.tracer:
            self.tracer.counts[name] += n

    def eval_mpnn(self, net, g, fm) -> np.ndarray:
        with self.timed("eval_mpnn_s"):
            out = mp.eval_mpnn(net, g, fm).values
        self.net_nodes += g.node_count
        return out

    def eval_expr(self, e, g, fm) -> np.ndarray:
        with self.timed("eval_expr_s"):
            out = mp.eval_expr(e, g, fm)
        self.interp_nodes += g.node_count
        return out

    def eval_tuple(self, t, g, fm) -> np.ndarray:
        with self.timed("eval_expr_s"):
            out = mp.eval_tuple(t, g, fm).values
        self.interp_nodes += g.node_count * t.output_arity
        return out


def _attempt(tally: checks.Tally, op):
    """Run one route call; a raised exception counts as a failed operation."""
    tally.attempted += 1
    try:
        return op()
    except (RecursionError, ValueError, RuntimeError, MemoryError) as exc:
        tally.failed += 1
        tally.messages.append(f"{type(exc).__name__}: {str(exc)[:120]}")
        return None


# -- compile_sums ---------------------------------------------------------------

class CompileSums:
    """parse -> compile_expr -> eval_mpnn over a seeded corpus of sums and chains."""

    D, P = 2, 3
    # The route is interpreted Python: the compiler's recursion and interval
    # arithmetic, and numpy calls on tiny arrays.
    CALIBRATION = ("python", "python", "numpy")
    RELU_TERMS = (12, 24, 36)
    MIXED_TERMS = tuple(range(6, 15))
    FIXED_STREAM_SEED = 14
    CHAINS = 24
    CHAIN_OPS = 6
    UNION_INSTANCES = 500
    # eval_expr is cheap on these expressions; a larger union gives it
    # enough work to time steadily.
    INTERP_INSTANCES = 2500

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        self.box = mp.DomainBox.cube(-1.0, 1.0, self.D)
        mixed_env = mp.CompileEnv(mode="auto", degree_bound=self.P, box=self.box)
        self.cases = [(self._relu_sum(rng, n), mp.CompileEnv(), False)
                      for n in self.RELU_TERMS]
        # Mixed-mode cost depends on the coefficients (they decide which
        # pieces of each merged activation the bounds reach), so these are
        # drawn from a fixed stream; the seed picks the projections, which
        # the symmetric box makes interchangeable for the compiler.
        fixed = np.random.default_rng(self.FIXED_STREAM_SEED)
        self.cases += [(self._mixed_sum(fixed, rng, n), mixed_env, True)
                       for n in self.MIXED_TERMS]
        # Likewise the order of constructors in a chain decides its layer
        # count, so it comes from the fixed stream; the seed picks the rest.
        self.cases += [(self._chain(fixed, rng, with_diamond=k % 2 == 1), mp.CompileEnv(),
                        False) for k in range(self.CHAINS)]
        self.union, self.features = _instances(self.P, self.box, self.UNION_INSTANCES,
                                               seed + 1)
        self.ref_inst = _reference_instance(self.union, self.features)
        self.interp_union, self.interp_features = _instances(
            self.P, self.box, self.INTERP_INSTANCES, seed + 2)
        self.ref_interp = _reference_instance(self.interp_union, self.interp_features)
        self.expected: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def _proj(self, rng) -> str:
        return f"P{int(rng.integers(1, self.D + 1))}"

    def _relu_sum(self, rng, n: int) -> str:
        return " + ".join(
            f"{_num(rng, -2, 2)}*relu({_num(rng, -2, 2)}*{self._proj(rng)}"
            f" + {_num(rng, -1, 1)}*<>{self._proj(rng)} + {_num(rng, -1, 1)})"
            for _ in range(n))

    def _mixed_sum(self, coefficients, rng, n: int) -> str:
        return " + ".join(
            f"{_num(coefficients, -2, 2)}*{FUNCTIONS[k % len(FUNCTIONS)]}("
            f"{_num(coefficients, -2, 2)}*{self._proj(rng)}"
            f" + {_num(coefficients, -1, 1)}*<>{self._proj(rng)})"
            for k in range(n))

    def _chain(self, shapes, rng, with_diamond: bool) -> str:
        """An addition-free tree; with a neighbour sum it is not pointwise."""
        text = self._proj(rng)
        for k in range(self.CHAIN_OPS):
            if with_diamond and k == 0:
                kind = 2
            else:
                kind = int(shapes.integers(0, 3 if with_diamond else 2))
            if kind == 0:
                text = f"{_num(rng, -2, 2)}*({text})"
            elif kind == 1:
                text = f"{FUNCTIONS[int(rng.integers(0, len(FUNCTIONS)))]}({text})"
            else:
                text = f"<>({text})"
        return text

    def run_round(self, rnd: Round, tally: checks.Tally) -> None:
        for i, (text, env, mixed) in enumerate(self.cases):
            def route():
                with rnd.timed("parse_s"):
                    e = mp.parse(text)
                with rnd.timed("compile_s"):
                    net, _ = mp.compile_expr(e, self.D, env)
                return e, net

            done = _attempt(tally, route)
            if done is None:
                continue
            e, net = done
            out = rnd.eval_mpnn(net, self.union, self.features)[:, 0]
            val = rnd.eval_expr(e, self.interp_union, self.interp_features)
            if i not in self.expected:
                self.expected[i] = (reference.eval_expr(e, self.ref_inst),
                                    reference.eval_expr(e, self.ref_interp))
            want, want_interp = self.expected[i]
            if mixed:
                ok = checks.close_absolute(out, want, checks.mixed_tolerance(net))
            else:
                ok = checks.close(out, want)
            tally.expect(ok, f"compiled network disagrees with the reference: {text[:60]}")
            tally.expect(checks.close(val, want_interp), f"eval_expr disagrees: {text[:60]}")
            rnd.add_network(net)
            rnd.exprs.append(e)


# -- approx_nested --------------------------------------------------------------

class ApproxNested:
    """parse -> approximate -> compile_relu -> eval_mpnn at several epsilons."""

    P = 3
    # approximate is interpreted Python; compile_relu and eval_mpnn build
    # and multiply networks with up to 34M entries.
    CALIBRATION = ("python", "numpy", "medium", "dense")
    CASES = (
        ("sin(P1)", 0.5), ("sin(P1)", 0.1), ("sin(P1)", 0.01),
        ("tanh(<>P1)", 0.5), ("tanh(<>P1)", 0.1), ("tanh(<>P1)", 0.01),
        ("sin(<>tanh(P1)) + 0.5*P1", 0.1),
        ("-2*sin(P1)", 0.1), ("-2*sin(P1)", 0.01),
        ("sin(2*<>P1) + tanh(P1)", 0.1),
        ("abs(<>sin(P1)) + 0.25*<>P1", 0.1),
    )
    # Networks run on the smaller union (the largest one takes about 0.8 s
    # there); the checks and the interpreter use the larger one.
    EVAL_INSTANCES = 100
    SAMPLE_INSTANCES = 1000

    def __init__(self, seed: int, workdir: str):
        self.box = mp.DomainBox.cube(-1.0, 1.0, 1)
        self.union, self.features = _instances(self.P, self.box, self.EVAL_INSTANCES, seed)
        self.sample, self.sample_features = _instances(self.P, self.box,
                                                       self.SAMPLE_INSTANCES, seed + 1)
        self.ref_eval = _reference_instance(self.union, self.features)
        self.ref_sample = _reference_instance(self.sample, self.sample_features)
        self.source_values: dict[str, np.ndarray] = {}

    def run_round(self, rnd: Round, tally: checks.Tally) -> None:
        for text, eps in self.CASES:
            with rnd.timed("parse_s"):
                source = mp.parse(text)
            if text not in self.source_values:
                self.source_values[text] = reference.eval_expr(source, self.ref_sample)
            source_values = self.source_values[text]

            def bounds():
                with rnd.timed("bounds_s"):
                    return mp.image_bounds(source, self.P, self.box)

            iv = _attempt(tally, bounds)
            if iv is not None:
                tally.expect(checks.interval_contains(iv.lo, iv.hi, source_values),
                             f"image_bounds {iv} misses a sampled value of {text}")

            def approximate():
                with rnd.timed("approx_s"):
                    return mp.approximate(source, self.P, self.box, eps)

            approx = _attempt(tally, approximate)
            if approx is None:
                continue
            tally.expect(reference.relu_only(approx), f"approximant of {text} is not ReLU-only")
            approx_sample = reference.eval_expr(approx, self.ref_sample)
            tally.expect(checks.within_epsilon(approx_sample, source_values, eps),
                         f"approximant of {text} is farther than {eps} from its source")
            val = rnd.eval_expr(approx, self.sample, self.sample_features)
            tally.expect(checks.close(val, approx_sample),
                         f"eval_expr of the approximant of {text}")
            want = reference.eval_expr(approx, self.ref_eval)
            rnd.exprs.append(approx)

            def compile_relu():
                with rnd.timed("compile_s"):
                    return mp.compile_relu(approx, 1)

            net = _attempt(tally, compile_relu)
            if net is None:
                continue
            out = rnd.eval_mpnn(net, self.union, self.features)[:, 0]
            tally.expect(checks.close(out, want),
                         f"compiled approximant of {text} at eps {eps} disagrees")
            rnd.add_network(net)
            del net  # free its weights before the next compile


# -- translate_check ------------------------------------------------------------

class TranslateCheck:
    """mpnn_to_mplang -> format_expr -> eval_tuple, and the CLI check route."""

    D, WIDTH = 2, 3
    # Tree walks over the translations, in the translator, the formatter and
    # the checker's interpreter.
    CALIBRATION = ("python", "python", "numpy")
    LAYERS = (3, 3, 4, 4, 5)
    # No id: an id-layer adds no application node, so the translations'
    # sizes would depend on the seed.
    ACTIVATIONS = ("relu", "tanh", "sigmoid", "sin", "abs")
    # The checker evaluates the expression tree once per trial, and the tree
    # grows about sixfold per layer, so deeper networks get fewer trials.
    # A round stays near 2 s, so a run has enough rounds to time.
    TRIALS = {3: 30, 4: 5, 5: 1}
    GRAPH_NODES = 200
    # The networks themselves are cheap to run, so they run on a larger graph.
    NET_GRAPH_NODES = 4000
    GRAPH_DEGREE = 3
    BOX = "[[-1.0, 1.0], [-1.0, 1.0]]"
    CHECK_TOLERANCE = 1e-9
    # A fixed sum, independent of the seed: fmt and bounds recurse once per
    # term and exceed the interpreter's recursion limit on it.
    LONG_SUM = " + ".join(f"{0.5 + k % 5}*P{1 + k % 2}" for k in range(1200))

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        self.seed = seed
        self.workdir = workdir
        self.box = mp.DomainBox.cube(-1.0, 1.0, self.D)
        self.graph = mp.random_graph(self.GRAPH_NODES, self.GRAPH_DEGREE, seed + 1)
        self.features = mp.random_features(self.graph, self.box, seed + 2)
        self.ref_inst = _reference_instance(self.graph, self.features)
        self.big_graph = mp.random_graph(self.NET_GRAPH_NODES, self.GRAPH_DEGREE, seed + 3)
        self.big_features = mp.random_features(self.big_graph, self.box, seed + 4)
        self.ref_big = _reference_instance(self.big_graph, self.big_features)
        self.nets = [self._network(rng, n) for n in self.LAYERS]
        self.net_files = []
        for i, net in enumerate(self.nets):
            net_json = mp.mpnn.mpnn_to_json(net)
            shifted = json.loads(json.dumps(net_json))
            shifted["layers"].append(self._shift_layer(net.output_arity))
            paths = (os.path.join(workdir, f"net{i}.json"),
                     os.path.join(workdir, f"net{i}-shifted.json"))
            for path, obj in zip(paths, (net_json, shifted)):
                with open(path, "w") as fh:
                    json.dump(obj, fh)
            self.net_files.append((paths, net_json, shifted))
        self.expected: dict[int, np.ndarray] = {}
        self.expected_big: dict[int, np.ndarray] = {}
        self.long_values = reference.eval_expr(mp.parse(self.LONG_SUM), self.ref_inst)

    def _network(self, rng, layers: int):
        arities = [self.D] + [self.WIDTH] * layers
        return mp.Mpnn(tuple(
            mp.Layer(rng.uniform(-2.0, 2.0, (arities[k + 1], arities[k])),
                     rng.uniform(-2.0, 2.0, (arities[k + 1], arities[k])),
                     rng.uniform(-1.0, 1.0, arities[k + 1]),
                     mp.Named(self.ACTIVATIONS[int(rng.integers(0, len(self.ACTIVATIONS)))]))
            for k in range(layers)))

    @staticmethod
    def _shift_layer(width: int) -> dict:
        """An extra id-layer adding 0.5 to the first output: differs by construction."""
        eye = np.eye(width)
        bias = np.zeros(width)
        bias[0] = 0.5
        return {"W1": eye.tolist(), "W2": np.zeros((width, width)).tolist(),
                "b": bias.tolist(), "sigma": {"kind": "named", "name": "id"}}

    def _cli(self, rnd: Round, stage: str, argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        with rnd.timed(stage), rnd.span(f"cli.{argv[0]}"), contextlib.redirect_stdout(out):
            code = mplangc.cli.main(argv)
        return code, out.getvalue()

    def run_round(self, rnd: Round, tally: checks.Tally) -> None:
        for i, net in enumerate(self.nets):
            def translate():
                with rnd.timed("translate_s"):
                    t = mp.mpnn_to_mplang(net)
                    return t, [mp.format_expr(c) for c in t.components]

            done = _attempt(tally, translate)
            if done is None:
                continue
            tup, texts = done
            (net_path, shifted_path), net_json, shifted_json = self.net_files[i]
            if i not in self.expected:
                self.expected[i] = reference.eval_network(net_json, self.ref_inst)
            want = self.expected[i]
            ref_translation = np.stack(
                [reference.eval_expr(c, self.ref_inst) for c in tup.components], axis=1)
            tally.expect(checks.close(ref_translation, want),
                         f"translation of network {i} disagrees with its forward pass")
            vals = rnd.eval_tuple(tup, self.graph, self.features)
            tally.expect(checks.close(vals, want), f"eval_tuple of translation {i}")
            if i not in self.expected_big:
                self.expected_big[i] = reference.eval_network(net_json, self.ref_big)
            out = rnd.eval_mpnn(net, self.big_graph, self.big_features)
            tally.expect(checks.close(out, self.expected_big[i]), f"eval_mpnn of network {i}")
            rnd.add_network(net)
            rnd.exprs.extend(tup.components)

            expr_path = os.path.join(self.workdir, f"translation{i}.mplang")
            with open(expr_path, "w") as fh:
                fh.write("\n".join(texts) + "\n")

            def left(inst, components=tup.components):
                return np.stack([reference.eval_expr(c, inst) for c in components], axis=1)

            pairs = [(net_path, net_json, 0)]
            if len(net.layers) == min(self.LAYERS):
                pairs.append((shifted_path, shifted_json, 5))
            trials = self.TRIALS[len(net.layers)]
            for path, right_json, expected in pairs:
                argv = ["check", expr_path, path, "--box", self.BOX, "--trials", str(trials),
                        "--seed", str(self.seed + i), "--tolerance", str(self.CHECK_TOLERANCE)]
                rnd.count("cli.check_trials", trials)
                result = _attempt(tally, lambda: self._cli(rnd, "check_s", argv))
                if result is None:
                    continue
                code, stdout = result
                tally.expect(
                    checks.verdict_holds(
                        code, expected, stdout, left,
                        lambda inst, j=right_json: reference.eval_network(j, inst),
                        self.CHECK_TOLERANCE, mplangc.cli.ABS_FLOOR),
                    f"check of translation {i} against {os.path.basename(path)}: exit {code}")

        self._long_sum(rnd, tally)

    def _long_sum(self, rnd: Round, tally: checks.Tally) -> None:
        """fmt and bounds on a 1200-term sum through the CLI."""
        result = _attempt(tally, lambda: self._cli(rnd, "fmt_s", ["fmt", "--expr", self.LONG_SUM]))
        if result is not None:
            code, stdout = result
            back = mp.parse(stdout.strip()) if code == 0 else None
            tally.expect(back is not None and checks.close(
                reference.eval_expr(back, self.ref_inst), self.long_values),
                "fmt of the long sum does not reprint it")
        argv = ["bounds", "--expr", self.LONG_SUM, "--degree-bound", str(self.GRAPH_DEGREE),
                "--box", self.BOX]
        result = _attempt(tally, lambda: self._cli(rnd, "bounds_s", argv))
        if result is not None:
            code, stdout = result
            lo, hi = json.loads(stdout) if code == 0 else (1.0, 0.0)
            tally.expect(checks.interval_contains(lo, hi, self.long_values),
                         "bounds of the long sum miss a sampled value")


WORKLOADS = {
    "compile_sums": CompileSums,
    "approx_nested": ApproxNested,
    "translate_check": TranslateCheck,
}


# -- metrics --------------------------------------------------------------------

def _sizes(rnd: Round) -> dict[str, float]:
    widths, dense, nonzero = zip(*rnd.layers)
    tree, dag = reference.tree_and_dag_size(rnd.exprs)
    return {
        "net_layers": len(rnd.layers),
        "net_max_width": max(widths),
        "net_params_dense": sum(dense),
        "net_params_nonzero": sum(nonzero),
        "expr_tree_nodes": tree,
        "expr_dag_nodes": dag,
    }


UNITS = {
    "setup_s": "s", "route_s": "s", "net_eval_nodes_per_s": "node/s",
    "interp_nodes_per_s": "node/s", "net_layers": "count", "net_max_width": "count",
    "net_params_dense": "count", "net_params_nonzero": "count",
    "expr_tree_nodes": "count", "expr_dag_nodes": "count", "peak_rss_mb": "MB",
}


def _rate(nodes: int, seconds: float) -> float:
    return nodes / seconds if seconds > 0 else 0.0


def _route_s(r: Round) -> float:
    return sum(r.reference[s] for s in ROUTE_STAGES)


def end_to_end(rounds: list[Round], setup_s: float) -> dict[str, dict]:
    """Timed figures: medians over the rounds at the reference host speed.

    Sizes are those of the last round; every round builds the same ones.
    """
    values = {
        "setup_s": setup_s,
        "route_s": statistics.median(_route_s(r) for r in rounds),
        "net_eval_nodes_per_s": statistics.median(
            _rate(r.net_nodes, r.reference["eval_mpnn_s"]) for r in rounds),
        "interp_nodes_per_s": statistics.median(
            _rate(r.interp_nodes, r.reference["eval_expr_s"]) for r in rounds),
        **_sizes(rounds[-1]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: {"value": values[name], "unit": UNITS[name]} for name in UNITS}


def stage_times(rounds: list[Round]) -> dict[str, dict[str, float]]:
    """Per stage, its median time over the rounds, as measured and at reference speed."""
    stages = sorted({s for r in rounds for s, t in r.seconds.items() if t > 0})
    return {s: {"measured": statistics.median(r.seconds[s] for r in rounds),
                "reference": statistics.median(r.reference[s] for r in rounds)}
            for s in stages}


# -- entry point ------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, default=_STARTED,
                    help="clock reading when this process was started")
    ap.add_argument("--setup-only", action="store_true",
                    help="build the inputs, print the set-up time and stop")
    args = ap.parse_args(argv)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        with tracer.span("setup") if tracer else contextlib.nullcontext():
            workload = WORKLOADS[args.workload](args.seed, workdir)
        setup_s = time.perf_counter() - args.t0
        # At the reference host speed too, gauged just after the set-up.
        setup_s *= calibrate.host_speed(workload.CALIBRATION)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if tracer:
            tracer.mark_setup_done()

        tally = checks.Tally()
        rounds: list[Round] = []
        clock = calibrate.HostClock(CALIBRATION_SHARE, workload.CALIBRATION)
        start = time.perf_counter()
        # The first round also warms caches and the allocator; it is checked
        # and counted but its times are left out of the medians.
        while len(rounds) < 2 or time.perf_counter() - start < args.seconds:
            # Collect the previous round's garbage now, so no round pays
            # for another's collection.
            gc.collect()
            rnd = Round(clock, tracer)
            with rnd.span("round"):
                workload.run_round(rnd, tally)
            clock.calibrate(force=True)
            rounds.append(rnd)
        measured_s = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e = end_to_end(rounds[1:], setup_s)
    stages = stage_times(rounds[1:])
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds in {measured_s:.2f} s,"
          f" {tally.attempted} operations, {tally.failed} failed, {tally.wrong} wrong"
          f"{' (traced)' if tracer else ''}")
    for msg in sorted(set(tally.messages)):
        print(f"  note: {msg}")
    print(f"  host speed       {clock.speed():.3f} of the reference, over"
          f" {clock.slices} calibration slices")
    for name, t in stages.items():
        print(f"  stage {name:<14} median {t['measured']:.6f} s measured,"
              f" {t['reference']:.6f} s at reference speed")
    for name, m in e2e.items():
        print(f"  {name:<22} {m['value']:.6g} {m['unit']}")

    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": tracer.per_layer(len(rounds)) if tracer else e2e,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump({**result, "rounds": len(rounds), "measured_s": measured_s,
                   "stages": stages, "end_to_end": e2e,
                   "per_round": [dict(r.seconds) for r in rounds],
                   "per_round_reference": [dict(r.reference) for r in rounds],
                   "per_round_nodes": [(r.net_nodes, r.interp_nodes) for r in rounds]},
                  fh, indent=1)
    if tracer:
        tracer.save(stem + ".npz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
