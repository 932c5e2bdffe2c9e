"""Acceptance suite: one test per criterion, at the stated size and tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import json
import subprocess
import sys
import time

import numpy as np

from generate import MIXED_FUNCTIONS, random_expr, random_mpnn, random_relu_expr
from helpers import applied_functions, batch_instances, uniform_distance_estimates
from oracles import FIXTURES, max_mpnn, oracle_t1, oracle_t2, oracle_t4
from mplangc.activations import ABS, ID, RELU, SIGMOID, SIN, TANH
from mplangc.approx import approximate, image_bounds
from mplangc.cli import main
from mplangc.compiler import (
    compile_addition_free,
    compile_mixed,
    compile_pointwise,
    compile_relu,
    merge_layers,
)
from mplangc.expressions import classify, format_expr
from mplangc.graphs import FeatureMap, Graph, random_graph, random_features
from mplangc.intervals import DomainBox
from mplangc.interpreter import eval_expr, eval_tuple
from mplangc.mpnn import Layer, eval_layer, eval_mpnn
from mplangc.parser import parse
from mplangc.translate import mpnn_to_mplang

RTOL = 1e-9
FLOOR = 1e-12


def _within(actual: np.ndarray, reference: np.ndarray) -> bool:
    dev = np.abs(actual - reference)
    return bool((dev <= np.maximum(FLOOR, RTOL * np.abs(reference))).all())


def _passed(name: str, started: float) -> None:
    print(f"[acceptance] {name}: PASS ({time.monotonic() - started:.1f}s)")


# -- criterion 1: exact ReLU compilation oracle -------------------------------------

def test_criterion_1_relu_compilation_oracle():
    started = time.monotonic()
    rng = np.random.default_rng(101)
    for i in range(200):
        d = int(rng.integers(1, 5))
        e = random_relu_expr(rng, depth=int(rng.integers(0, 7)), d=d)
        net = compile_relu(e, d)
        union, fm = batch_instances(
            None, DomainBox.cube(-10, 10, d), 20, int(rng.integers(0, 2**62)),
            max_nodes=12,
        )
        interpreted = eval_expr(e, union, fm)
        compiled = eval_mpnn(net, union, fm).values[:, 0]
        assert _within(compiled, interpreted), f"expr #{i}: {format_expr(e)}"
    _passed("criterion 1 (ReLU compilation, 200 exprs x 20 graphs)", started)


# -- criterion 2: network-to-expression round trip ------------------------------------

def test_criterion_2_network_translation_round_trip():
    started = time.monotonic()
    rng = np.random.default_rng(202)
    for i in range(100):
        d = int(rng.integers(1, 4))
        net = random_mpnn(rng, d, max_layers=3, max_arity=3)
        tup = mpnn_to_mplang(net)
        union, fm = batch_instances(
            None, DomainBox.cube(-5, 5, d), 20, int(rng.integers(0, 2**62))
        )
        by_net = eval_mpnn(net, union, fm).values
        by_expr = eval_tuple(tup, union, fm).values
        assert _within(by_expr, by_net), f"network #{i}"
    _passed("criterion 2 (100 MPNN->expression round trips)", started)


# -- criterion 3: activation merging preserves both layers -----------------------------

def test_criterion_3_layer_merging_equivalence():
    started = time.monotonic()
    rng = np.random.default_rng(303)
    named = [ID, RELU, TANH, SIGMOID, SIN, ABS]
    for i in range(100):
        p = int(rng.integers(1, 4))
        d_a, r_a = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        d_b, r_b = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        lyr_a = Layer(
            rng.uniform(-2, 2, (r_a, d_a)), rng.uniform(-2, 2, (r_a, d_a)),
            rng.uniform(-1, 1, r_a), named[int(rng.integers(0, 6))],
        )
        lyr_b = Layer(
            rng.uniform(-2, 2, (r_b, d_b)), rng.uniform(-2, 2, (r_b, d_b)),
            rng.uniform(-1, 1, r_b), named[int(rng.integers(0, 6))],
        )
        box_a = DomainBox.from_pairs(np.sort(rng.uniform(-2, 2, (d_a, 2)), axis=1).tolist())
        box_b = DomainBox.from_pairs(np.sort(rng.uniform(-2, 2, (d_b, 2)), axis=1).tolist())
        new_a, new_b = merge_layers(lyr_a, lyr_b, p, box_a, box_b)
        assert new_a.activation == new_b.activation  # one shared value
        union_a, fm_a = batch_instances(p, box_a, 10, int(rng.integers(0, 2**62)))
        union_b, fm_b = batch_instances(p, box_b, 10, int(rng.integers(0, 2**62)))
        assert _within(
            eval_layer(new_a, union_a, fm_a).values, eval_layer(lyr_a, union_a, fm_a).values
        ), f"pair #{i} left"
        assert _within(
            eval_layer(new_b, union_b, fm_b).values, eval_layer(lyr_b, union_b, fm_b).values
        ), f"pair #{i} right"
    _passed("criterion 3 (100 merged layer pairs)", started)


# -- criteria 4 and 6 share a corpus ---------------------------------------------------

def _mixed_corpus():
    rng = np.random.default_rng(404)
    corpus = []
    for _ in range(100):
        d = int(rng.integers(1, 4))
        p = int(rng.integers(1, 4))
        e = random_expr(rng, depth=int(rng.integers(0, 7)), d=d,
                        functions=MIXED_FUNCTIONS)
        corpus.append((e, d, p, int(rng.integers(0, 2**62))))
    return corpus


def test_criterion_4_mixed_compilation_oracle():
    started = time.monotonic()
    for i, (e, d, p, seed) in enumerate(_mixed_corpus()):
        box = DomainBox.cube(-1, 1, d)
        net = compile_mixed(e, d, p, box)
        union, fm = batch_instances(p, box, 20, seed)
        interpreted = eval_expr(e, union, fm)
        compiled = eval_mpnn(net, union, fm).values[:, 0]
        assert _within(compiled, interpreted), f"expr #{i}: {format_expr(e)}"
    _passed("criterion 4 (100 mixed compilations)", started)


def test_criterion_6_image_bounds_soundness():
    started = time.monotonic()
    cache: dict = {}
    for i, (e, d, p, _) in enumerate(_mixed_corpus()):
        box = DomainBox.cube(-1, 1, d)
        if (d, p) not in cache:
            cache[(d, p)] = batch_instances(p, box, 10_000, 606 + d * 10 + p)
        union, fm = cache[(d, p)]
        iv = image_bounds(e, p, box)
        vals = eval_expr(e, union, fm)
        slack = 1e-9 * (1.0 + np.abs(vals))
        assert (vals >= iv.lo - slack).all() and (vals <= iv.hi + slack).all(), (
            f"expr #{i}: {format_expr(e)} image {iv} "
            f"observed [{vals.min()}, {vals.max()}]"
        )
    _passed("criterion 6 (image bounds over 100 exprs x 10^4 samples)", started)


# -- criterion 5: approximation within budget --------------------------------------------

def test_criterion_5_approximation_budget():
    started = time.monotonic()
    texts = ["sin(P1)", "tanh(<>P1)", "sin(<>tanh(P1)) + 0.5*P1", "-2*sin(P1)"]
    box = DomainBox.cube(-1, 1, 1)
    for text in texts:
        e = parse(text)
        for eps in (0.5, 0.1, 0.01):
            approx = approximate(e, 3, box, eps)
            assert classify(approx).relu_only, (text, eps)
            (rho,) = uniform_distance_estimates((e,), (approx,), 3, box, 10_000, seed=505)
            assert rho <= eps, (text, eps, rho)
    _passed("criterion 5 (4 expressions x 3 budgets, 10^4 samples)", started)


# -- criterion 7: fixture identities --------------------------------------------------------

def test_criterion_7_fixture_identities():
    started = time.monotonic()
    rng = np.random.default_rng(707)
    single = Graph(1, ())
    for x, y in rng.uniform(-10, 10, (1000, 2)):
        fm = FeatureMap(np.array([[x, y]]))
        assert abs(eval_expr(FIXTURES["T1"].expr, single, fm)[0] - oracle_t1(x, y)) <= 1e-12
        assert abs(eval_expr(FIXTURES["T2"].expr, single, fm)[0] - oracle_t2(x, y)) <= 1e-12
        assert abs(eval_mpnn(max_mpnn(), single, fm).values[0, 0] - oracle_t2(x, y)) <= 1e-12
    t4 = FIXTURES["T4"].expr
    net = compile_relu(t4, 1)
    for seed in range(100):
        g = random_graph(int(2 + seed % 9), 4, seed)
        fm = random_features(g, DomainBox.cube(-5, 5, 1), seed * 7 + 1)
        by_expr = eval_expr(t4, g, fm)
        by_net = eval_mpnn(net, g, fm).values[:, 0]
        for v in range(g.node_count):
            want = oracle_t4(g, fm.values[:, 0], v)
            assert abs(by_expr[v] - want) <= max(FLOOR, RTOL * abs(want))
            assert abs(by_net[v] - want) <= max(FLOOR, RTOL * abs(want))
    _passed("criterion 7 (fixture identities T1/T2/T4)", started)


# -- criterion 8: structural activation guarantees ---------------------------------------------

def test_criterion_8_structural_activation_sets():
    started = time.monotonic()
    rng = np.random.default_rng(808)
    af_count = pw_count = 0
    while af_count < 50 or pw_count < 50:
        d = int(rng.integers(1, 4))
        e = random_expr(rng, depth=int(rng.integers(0, 6)), d=d,
                        functions=MIXED_FUNCTIONS)
        traits = classify(e)
        if not traits.addition_free:
            continue
        functions = applied_functions(e)
        allowed = functions | {ID}
        if af_count < 50:
            net = compile_addition_free(e, d)
            assert {lyr.activation for lyr in net.layers} <= allowed
            af_count += 1
        if traits.summation_free and pw_count < 50:
            net = compile_pointwise(e, d)
            # sigma-MPNN shape: id may appear in final position only
            for lyr in net.layers[:-1]:
                assert lyr.activation != ID
                assert lyr.activation in functions
            assert net.layers[-1].activation in allowed
            pw_count += 1
    _passed("criterion 8 (activation-set structure, 50+50 exprs)", started)


# -- criterion 9: CLI contract ------------------------------------------------------------------

def test_criterion_9_cli_contract(tmp_path, capsys):
    started = time.monotonic()
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"nodes": 2, "edges": [[0, 1]]}))
    feats = tmp_path / "x.json"
    feats.write_text(json.dumps({"dim": 2, "values": [[1.0, 3.0], [4.0, 2.0]]}))
    max_text = "relu(P2 + -1*P1) + P1"

    # eval: ok, then arity failure
    assert main(["eval", "--expr", max_text, "--graph", str(graph),
                 "--features", str(feats)]) == 0
    assert json.loads(capsys.readouterr().out)["values"] == [[3.0], [4.0]]
    assert main(["eval", "--expr", "P3", "--graph", str(graph),
                 "--features", str(feats)]) == 2
    assert main(["eval", "--expr", "relu(P1", "--graph", str(graph),
                 "--features", str(feats)]) == 1
    capsys.readouterr()

    # compile: ok, then mode failure without bounds
    net_path = tmp_path / "max.json"
    assert main(["compile", "--expr", max_text, "--mode", "relu",
                 "--out", str(net_path)]) == 0
    assert main(["compile", "--expr", "tanh(P1)+1"]) == 3
    capsys.readouterr()

    # check: compiled network matches its source everywhere sampled
    assert main(["check", max_text, str(net_path), "--box", "[[-5,5],[-5,5]]",
                 "--trials", "1000", "--seed", "1"]) == 0
    capsys.readouterr()

    # approx: certificate + budget; eps=0 rejected
    approx_path = tmp_path / "sin.mplang"
    assert main(["approx", "--expr", "sin(P1)", "--degree-bound", "0",
                 "--box", "[[-3.14,3.14]]", "--epsilon", "0.1",
                 "--out", str(approx_path), "--trials", "500", "--seed", "2"]) == 0
    capsys.readouterr()
    assert main(["approx", "--expr", "sin(P1)", "--degree-bound", "0",
                 "--box", "[[-3.14,3.14]]", "--epsilon", "0"]) == 3
    capsys.readouterr()

    # check the approximation against its own compilation: exact, so PASS
    approx_net = tmp_path / "sin.json"
    assert main(["compile", "--expr-file", str(approx_path), "--mode", "relu",
                 "--arity", "1", "--out", str(approx_net)]) == 0
    capsys.readouterr()
    assert main(["check", str(approx_path), str(approx_net),
                 "--box", "[[-3.14,3.14]]", "--trials", "500", "--seed", "3"]) == 0
    capsys.readouterr()

    # an inequivalent pair fails with a replayable witness, deterministically
    args = ["check", "P1", "relu(P1)", "--box", "[[-1,1]]", "--trials", "300",
            "--seed", "4"]
    assert main(args) == 5
    first = capsys.readouterr().out
    assert main(args) == 5
    assert capsys.readouterr().out == first

    # the installed console script behaves identically
    proc = subprocess.run(
        [sys.executable, "-m", "mplangc.cli", "fmt", "--expr", max_text],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "relu(P2 + -1.0*P1) + P1"
    _passed("criterion 9 (CLI exit codes and determinism)", started)
