"""Tests of the benchmark itself: the reference, the checks and the harness.

    python3 -m pytest bench
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import mplangc as mp
import mplangc.cli
from mplangc.expressions import Add, Proj, Scale

import calibrate
import checks
import reference
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _path_graph(features) -> reference.Instance:
    return reference.Instance(3, [(0, 1), (1, 2)], features)


def _union(p, box, count, seed):
    parts = list(mp.random_instances(p, box, count, seed))
    g, _ = mp.disjoint_union(g for g, _ in parts)
    fm = mp.FeatureMap(np.concatenate([f.values for _, f in parts]))
    return g, fm, reference.Instance(g.node_count, g.edges, fm.values)


# -- the reference, against values worked out by hand ---------------------------------

def test_double_neighbour_sum_on_a_path():
    # <>P1 = (2, 1 + 4, 2); <><>P1 = (5, 2 + 2, 5)
    inst = _path_graph([1.0, 2.0, 4.0])
    assert reference.eval_expr(mp.parse("<><>P1"), inst).tolist() == [5.0, 4.0, 5.0]


def test_relu_identity_is_the_maximum():
    rng = np.random.default_rng(1)
    x = rng.uniform(-5, 5, (50, 2))
    inst = reference.Instance(50, [], x)
    got = reference.eval_expr(mp.parse("relu(P2 + -1*P1) + P1"), inst)
    # (P2 - P1) + P1 rounds to P2 within an ulp or two.
    np.testing.assert_allclose(got, np.maximum(x[:, 0], x[:, 1]), rtol=0, atol=1e-14)


def test_activation_table():
    x = np.array([-800.0, -1.0, 0.0, 2.0])
    assert reference.ACTIVATIONS["sigmoid"](x).tolist() == pytest.approx(
        [0.0, 1 / (1 + np.e), 0.5, 1 / (1 + np.exp(-2.0))])
    assert reference.ACTIVATIONS["relu"](x).tolist() == [0.0, 0.0, 0.0, 2.0]
    assert reference.ACTIVATIONS["abs"](x).tolist() == [800.0, 1.0, 0.0, 2.0]


def test_forward_pass_by_hand():
    # relu(x_v + sum of neighbours' x - 3) on the path with x = (1, 2, 4):
    # node 0: 1 + 2 - 3 = 0; node 1: 2 + 5 - 3 = 4; node 2: 4 + 2 - 3 = 3.
    net = {"layers": [{"W1": [[1.0]], "W2": [[1.0]], "b": [-3.0],
                       "sigma": {"kind": "named", "name": "relu"}},
                      {"W1": [[2.0], [-1.0]], "W2": [[0.0], [0.0]], "b": [0.0, 1.0],
                       "sigma": {"kind": "named", "name": "id"}}]}
    out = reference.eval_network(net, _path_graph([1.0, 2.0, 4.0]))
    assert out.tolist() == [[0.0, 1.0], [8.0, -3.0], [6.0, -2.0]]


def test_forward_pass_refuses_structured_activations():
    net = {"layers": [{"W1": [[1.0]], "W2": [[0.0]], "b": [0.0],
                       "sigma": {"kind": "relusum", "terms": [[1, 0, 1]]}}]}
    with pytest.raises(ValueError):
        reference.eval_network(net, _path_graph([1.0, 2.0, 4.0]))


def test_sizes_count_shared_nodes_once():
    shared = Scale(2.0, Proj(1))
    e = Add(shared, shared)
    assert reference.tree_and_dag_size([e]) == (5, 3)
    assert reference.relu_only(mp.parse("relu(<>P1) + 2*P2"))
    assert not reference.relu_only(mp.parse("relu(P1) + tanh(P2)"))


def test_deep_sum_needs_no_recursion():
    e = mp.parse(" + ".join(f"{k % 3 + 1}*P1" for k in range(3000)))
    inst = reference.Instance(1, [], [[1.0]])
    assert reference.eval_expr(e, inst).tolist() == [float(sum(k % 3 + 1 for k in range(3000)))]


# -- each check rejects a known-wrong output ----------------------------------------------

def _shift_last_bias(net, by):
    *head, last = net.layers
    return mp.Mpnn((*head, mp.Layer(last.w_self, last.w_neigh, last.bias + by, last.activation)))


@pytest.mark.parametrize("text, env", [
    ("relu(P1 + -1*P2) + <>P1", mp.CompileEnv()),
    ("tanh(P1) + sin(<>P2) + abs(P1)",
     mp.CompileEnv(degree_bound=3, box=mp.DomainBox.cube(-1.0, 1.0, 2))),
])
def test_network_check_rejects_a_shifted_bias(text, env):
    g, fm, inst = _union(3, mp.DomainBox.cube(-1.0, 1.0, 2), 100, 7)
    e = mp.parse(text)
    net, report = mp.compile_expr(e, 2, env)
    want = reference.eval_expr(e, inst)
    if report.mode == "mixed":
        def agrees(candidate, out):
            return checks.close_absolute(out, want, checks.mixed_tolerance(candidate))
    else:
        def agrees(candidate, out):
            return checks.close(out, want)
    tally = checks.Tally()
    for candidate in (net, _shift_last_bias(net, 1.0)):
        out = mp.eval_mpnn(candidate, g, fm).values[:, 0]
        tally.expect(agrees(candidate, out), "network")
    assert tally.wrong == 1


def test_epsilon_check_rejects_a_scaled_approximant():
    eps = 0.1
    box = mp.DomainBox.cube(-1.0, 1.0, 1)
    _, _, inst = _union(3, box, 1000, 5)
    source = mp.parse("sin(P1)")
    approx = mp.approximate(source, 3, box, eps)
    want = reference.eval_expr(source, inst)
    tally = checks.Tally()
    for candidate in (approx, Scale(1.0 + 3.0 * eps, approx)):
        tally.expect(checks.within_epsilon(reference.eval_expr(candidate, inst), want, eps), "eps")
    assert tally.wrong == 1


def test_bounds_check_rejects_a_shrunk_interval():
    box = mp.DomainBox.cube(-1.0, 1.0, 1)
    _, _, inst = _union(3, box, 1000, 6)
    e = mp.parse("sin(<>tanh(P1)) + 0.5*P1")
    iv = mp.image_bounds(e, 3, box)
    values = reference.eval_expr(e, inst)
    middle, half = (iv.lo + iv.hi) / 2.0, 0.45 * iv.width
    tally = checks.Tally()
    tally.expect(checks.interval_contains(iv.lo, iv.hi, values), "bounds")
    tally.expect(checks.interval_contains(middle - half, middle + half, values), "bounds")
    assert tally.wrong == 1


def _check(a: str, b: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = mplangc.cli.main(["check", a, b, "--box", "[[-1, 1]]", "--trials", "20"])
    return code, out.getvalue()


def _verdict(code, stdout, expected, a, b):
    return checks.verdict_holds(
        code, expected, stdout,
        lambda inst: reference.eval_expr(mp.parse(a), inst)[:, None],
        lambda inst: reference.eval_expr(mp.parse(b), inst)[:, None],
        1e-9, mplangc.cli.ABS_FLOOR)


def test_verdict_check_rejects_a_differing_pair_declared_equivalent():
    a, b = "sin(P1)", "sin(P1) + 0.5"
    code, stdout = _check(a, b)
    tally = checks.Tally()
    tally.expect(_verdict(code, stdout, 0, a, b), "declared equivalent")
    tally.expect(_verdict(code, stdout, 5, a, b), "declared different")
    assert (code, tally.wrong) == (5, 1)


def test_verdict_check_rejects_a_witness_that_does_not_replay():
    a, b = "sin(P1)", "sin(P1) + 0.5"
    code, stdout = _check(a, b)
    assert _verdict(code, stdout, 5, a, b)
    # The same witness replayed on an equivalent pair shows no deviation.
    assert not _verdict(code, stdout, 5, a, "sin(P1) + 0")


# -- the harness ---------------------------------------------------------------------------

def test_host_clock_scales_a_stage_by_the_speed_of_the_slices_around_it(monkeypatch):
    # Slices that take twice their reference time: the host runs at half
    # speed, so a stage's time at reference speed is half its measured time.
    parts = ("python", "numpy")
    slice_s = 2 * calibrate.REFERENCE_PART_S * len(parts)
    monkeypatch.setattr(calibrate.HostClock, "run_slice", lambda self: slice_s)
    clock = calibrate.HostClock(0.15, parts)
    assert clock.slices == 1
    scaled = {"compile_s": 0.0}
    clock.record(scaled, "compile_s", 0.4)
    assert scaled["compile_s"] == 0.0  # pending until slices run after it
    clock.calibrate(force=True)
    assert scaled["compile_s"] == pytest.approx(0.2)
    assert clock.speed() == pytest.approx(0.5)


def test_benchmark_json_names_the_metrics_the_code_reports():
    import workloads
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _, _) in tracing.PER_LAYER.items()}


def test_traced_run_reports_every_per_layer_metric():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "translate_check",
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result["metrics"]) == set(tracing.PER_LAYER)
    # Whole rounds of 14 operations, the warm-up round included; 2 of each
    # 14 (fmt and bounds of the long sum) fail.
    assert result["correct"] and result["attempted"] == 28 and result["failed"] == 4
    for name in ("translate.mpnn_to_mplang_s", "expressions.max_projection_s",
                 "cli.check_s", "cli.check_trials", "graphs.instances", "mpnn.json_s"):
        assert result["metrics"][name]["value"] > 0, name


def test_run_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "compile_sums", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, env=env)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
