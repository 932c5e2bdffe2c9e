import argparse
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

from helpers import assert_close, deep_mpnn, tree_copy
from mplangc.approx import approximate_all
from mplangc.cli import main
from mplangc.expressions import ExprTuple, format_expr
from mplangc.graphs import FeatureMap, Graph, features_from_json, graph_from_json, random_union
from mplangc.interpreter import eval_expr, eval_tuple
from mplangc.intervals import DomainBox
from mplangc.mpnn import eval_mpnn, mpnn_from_json
from mplangc.parser import parse
from mplangc.translate import mpnn_to_mplang


def _graph_file(tmp_path, nodes, edges, name="graph.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"nodes": nodes, "edges": edges}))
    return str(path)

def _features_file(tmp_path, values, name="features.json"):
    path = tmp_path / name
    arr = np.asarray(values, dtype=float)
    path.write_text(json.dumps({"dim": arr.shape[1], "values": arr.tolist()}))
    return str(path)


@pytest.fixture
def pair_instance(tmp_path):
    g = _graph_file(tmp_path, 2, [[0, 1]])
    f = _features_file(tmp_path, [[1.0, 3.0], [4.0, 2.0]])
    return g, f


# -- eval ---------------------------------------------------------------------

def test_eval_max_expression(pair_instance, capsys):
    g, f = pair_instance
    rc = main(["eval", "--expr", "relu(P2 + -1*P1) + P1", "--graph", g, "--features", f])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["values"] == [[3.0], [4.0]]


def test_eval_constant_one(pair_instance, capsys):
    g, f = pair_instance
    rc = main(["eval", "--expr", "1", "--graph", g, "--features", f])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["values"] == [[1.0], [1.0]]


def test_eval_arity_error_exit_code(pair_instance, capsys):
    g, f = pair_instance
    rc = main(["eval", "--expr", "P3", "--graph", g, "--features", f])
    assert rc == 2
    assert "arity" in capsys.readouterr().err


def test_eval_parse_error_exit_code(pair_instance, capsys):
    g, f = pair_instance
    rc = main(["eval", "--expr", "relu(P1", "--graph", g, "--features", f])
    assert rc == 1
    assert "parse error" in capsys.readouterr().err


def test_eval_expression_file_tuple(pair_instance, tmp_path, capsys):
    g, f = pair_instance
    expr_file = tmp_path / "tuple.mplang"
    expr_file.write_text("P2\nP1\n")
    rc = main(["eval", "--expr-file", str(expr_file), "--graph", g, "--features", f])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["values"] == [[3.0, 1.0], [2.0, 4.0]]


# -- compile -------------------------------------------------------------------

def test_compile_max_expression_report(tmp_path, capsys):
    out = tmp_path / "max.json"
    rc = main(["compile", "--expr", "relu(P2 + -1*P1) + P1", "--mode", "relu",
               "--out", str(out)])
    assert rc == 0
    net = json.loads(out.read_text())
    assert len(net["layers"]) >= 2
    report = json.loads((tmp_path / "max.json.report.json").read_text())
    assert report["mode"] == "relu"
    assert set(report["activations"]) == {"relu", "id"}


def test_compile_auto_without_bounds_hints_exit_3(capsys):
    rc = main(["compile", "--expr", "tanh(P1)+1"])
    assert rc == 3
    err = capsys.readouterr().err
    assert "--degree-bound" in err and "--box" in err


def test_compile_arity_error_comes_before_mode_error(capsys):
    rc = main(["compile", "--mode", "relu", "--arity", "1", "--expr", "tanh(P2)"])
    assert rc == 2
    assert "arity error" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["auto", "pointwise", "addition-free", "relu", "mixed"])
def test_compile_arity_error_comes_first_in_every_mode(capsys, mode):
    # tanh(P1) + P2 fits no route without bounds, and P2 is beyond arity 1.
    assert main(["compile", "--mode", mode, "--expr", "tanh(P1) + P2", "--arity", "1"]) == 2
    assert main(["compile", "--mode", mode, "--expr", "1", "--arity", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("arity error") == 2


def test_compile_auto_sum_layer(capsys):
    rc = main(["compile", "--expr", "<>P1"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    layers = payload["mpnn"]["layers"]
    assert len(layers) == 1
    assert layers[0]["W1"] == [[0.0]]
    assert layers[0]["W2"] == [[1.0]]
    assert layers[0]["b"] == [0.0]
    assert layers[0]["sigma"] == {"kind": "named", "name": "id"}


def test_compile_mixed_mode_via_flags(tmp_path):
    out = tmp_path / "mixed.json"
    rc = main(["compile", "--expr", "tanh(P1) + sin(P1)", "--mode", "mixed",
               "--degree-bound", "2", "--box", "[[-1,1]]", "--out", str(out)])
    assert rc == 0
    report = json.loads((tmp_path / "mixed.json.report.json").read_text())
    assert report["mode"] == "mixed" and report["merged_activations"] >= 1
    assert report["bounds"] is not None


def test_compile_report_gives_each_layers_merge_shifts(tmp_path):
    out = tmp_path / "mixed.json"
    assert main(["compile", "--expr", "tanh(P1) + sin(P1)", "--mode", "mixed",
                 "--degree-bound", "2", "--box", "[[-1,1]]", "--out", str(out)]) == 0
    layers = json.loads(out.read_text())["layers"]
    report = json.loads((tmp_path / "mixed.json.report.json").read_text())
    # tanh(P1) and sin(P1) both see [-1, 1]: tanh's row drops by M + 1 = 2,
    # sin's rises by 1 - m = 2; the id read-out has no merge.
    assert report["shifts"] == [[-2.0, 2.0], []]
    assert report["shift_ulps"] == [float(np.spacing(2.0)), 0.0]
    assert layers[0]["b"] == [-2.0, 2.0]
    assert layers[0]["sigma"]["M"] == 1.0 and layers[0]["sigma"]["m"] == -1.0


def test_compile_explicit_mode_mismatch_exit_3(capsys):
    rc = main(["compile", "--expr", "tanh(P1)", "--mode", "relu"])
    assert rc == 3


@pytest.mark.parametrize("expr, box", [
    ("tanh(1e300*P1) + sin(P1)", "[[-1e300,1e300]]"),  # infinite bounds
    ("tanh(1e300*P1 + -1e300*<>P1) + sin(P1)", "[[1e300,1e300]]"),  # inf - inf: NaN
    ("relu(P1) + tanh(1e300*relu(1e300*P1))", "[[0,1]]"),  # finite layer 1, infinite layer 2
])
def test_compile_with_bounds_that_are_not_finite_is_a_mode_error_naming_the_layer(capsys, expr, box):
    argv = ["compile", "--expr", expr, "--mode", "mixed", "--degree-bound", "2", "--box", box]
    assert main(argv) == 3
    captured = capsys.readouterr()
    layer = 2 if "relu(1e300" in expr else 1
    assert captured.err == (f"mode error: layer {layer}: pre-activation bounds are not finite; "
                            "shrink the box or the weights\n")
    assert captured.out == ""


def test_compile_report_gives_each_layers_width_and_nonzero_count(tmp_path):
    out = tmp_path / "max.json"
    assert main(["compile", "--expr", "relu(P2 + -1*P1) + P1", "--mode", "relu",
                 "--out", str(out)]) == 0
    layers = json.loads(out.read_text())["layers"]
    report = json.loads((tmp_path / "max.json.report.json").read_text())
    assert report["widths"] == [len(lyr["b"]) for lyr in layers]
    assert report["nonzero"] == [
        sum(int(np.count_nonzero(lyr[key])) for key in ("W1", "W2", "b")) for lyr in layers
    ]
    # relu(P2 - P1) and the pair relu(P1), relu(-P1) in one ReLU layer, then
    # the read-out relu(P2 - P1) + relu(P1) - relu(-P1).
    assert report["widths"] == [3, 1] and report["nonzero"] == [4, 3]


def test_compile_of_an_expression_file_in_mixed_mode_passes_check(tmp_path, capsys):
    src, out = tmp_path / "tuple.mplang", tmp_path / "tuple.json"
    src.write_text("tanh(P1) + sin(<>P2)\nrelu(P1 + -1*P2)\nsigmoid(<>P1) + 0.5*P2\n")
    box = ["--degree-bound", "2", "--box", "[[-1,1],[-1,1]]"]
    assert main(["compile", "--expr-file", str(src), "--mode", "mixed", *box,
                 "--out", str(out)]) == 0
    report = json.loads((tmp_path / "tuple.json.report.json").read_text())
    assert report["mode"] == "mixed" and report["merged_activations"] >= 1
    assert report["widths"][-1] == len(report["bounds"][-1]) == 3
    assert main(["check", str(src), str(out), *box, "--trials", "500"]) == 0
    assert "PASS" in capsys.readouterr().out


@pytest.mark.parametrize("mode", ["pointwise", "addition-free"])
def test_compile_of_a_tuple_in_a_chained_mode_exits_3(tmp_path, capsys, mode):
    src = tmp_path / "tuple.mplang"
    src.write_text("tanh(P1)\nP1\n")
    assert main(["compile", "--expr-file", str(src), "--mode", mode]) == 3
    assert "one expression" in capsys.readouterr().err


def test_compile_of_a_tuple_to_stdout_carries_its_report(tmp_path, capsys):
    src = tmp_path / "tuple.mplang"
    src.write_text("relu(P1 + -1*P2)\n<>P1\n")
    assert main(["compile", "--expr-file", str(src)]) == 0
    payload = json.loads(capsys.readouterr().out)
    report, layers = payload["report"], payload["mpnn"]["layers"]
    assert report["mode"] == "relu" and report["bounds"] is None
    assert report["widths"] == [len(lyr["b"]) for lyr in layers] and report["widths"][-1] == 2


def test_compile_of_a_3000_term_sum(pair_instance, tmp_path):
    text = " + ".join(f"{0.5 + k % 5}*P{1 + k % 2}" for k in range(3000))
    path = tmp_path / "long.mplang"
    path.write_text(text + "\n")
    out = tmp_path / "long.json"
    assert main(["compile", "--expr-file", str(path), "--out", str(out)]) == 0
    net = mpnn_from_json(json.loads(out.read_text()))
    features = FeatureMap(np.array([[1.0, 3.0], [4.0, 2.0]]))
    values = eval_mpnn(net, Graph(2, ((0, 1),)), features).values
    assert values.tolist() == [[15000.0], [22500.0]]


# -- approx --------------------------------------------------------------------

def test_approx_sin(tmp_path, capsys):
    out = tmp_path / "approx.mplang"
    rc = main(["approx", "--expr", "sin(P1)", "--degree-bound", "0",
               "--box", "[[-3.14,3.14]]", "--epsilon", "0.1", "--out", str(out),
               "--trials", "500"])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "rho_hat" in printed
    rho = float(printed.split("rho_hat = ")[1].split()[0])
    assert rho <= 0.1
    from mplangc.expressions import classify
    from mplangc.parser import parse

    assert classify(parse(out.read_text().strip())).relu_only


def test_approx_at_an_eps_near_the_float_maximum_proves_what_it_samples(capsys):
    # 8*eps/sup|f''| overflows at this eps; a constant approximant would be
    # 1.52 from tanh on [-1, 1], against a proven 0.385.
    rc = main(["approx", "--expr", "tanh(P1)", "--degree-bound", "0", "--box", "[[-1,1]]",
               "--epsilon", "1e308", "--trials", "2000"])
    assert rc == 0
    last = capsys.readouterr().out.splitlines()[-1]
    rho, proven = (float(last.split(key)[1].split()[0].rstrip(","))
                   for key in ("rho_hat = ", "proven eps = "))
    assert rho <= proven


def test_approx_relu_only_echoed(capsys):
    rc = main(["approx", "--expr", "relu(P1) + P1", "--degree-bound", "1",
               "--box", "[[-1,1]]", "--epsilon", "0.5", "--trials", "50"])
    assert rc == 0
    first_line = capsys.readouterr().out.splitlines()[0]
    assert first_line == "relu(P1) + P1"


def test_approx_zero_epsilon_is_config_error(capsys):
    rc = main(["approx", "--expr", "sin(P1)", "--degree-bound", "1",
               "--box", "[[-1,1]]", "--epsilon", "0"])
    assert rc == 3


@pytest.mark.parametrize("eps", ["nan", "inf", "-inf"])
def test_approx_rejects_an_epsilon_that_is_not_finite(capsys, eps):
    rc = main(["approx", "--expr", "sin(P1)", "--degree-bound", "2",
               "--box", "[[-1,1]]", f"--epsilon={eps}"])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.err == f"mode error: --epsilon must be positive and finite, got {float(eps)!r}\n"
    assert captured.out == ""


def test_approx_of_a_translation_file_writes_its_approximants_in_the_dags_size(tmp_path, capsys):
    roots = mpnn_to_mplang(deep_mpnn(0, 3)).components
    source, out = tmp_path / "net.mplang", tmp_path / "approx.mplang"
    source.write_text("".join(format_expr(c) + "\n" for c in roots))
    rc = main(["approx", "--expr-file", str(source), "--degree-bound", "3",
               "--box", "[[-1,1],[-1,1]]", "--epsilon", "0.1", "--trials", "5", "--out", str(out)])
    assert rc == 0
    # Printed as a tree, the approximants take 73.4 MB.
    assert out.stat().st_size < 1_000_000
    approximants, _ = approximate_all(roots, 3, DomainBox.cube(-1.0, 1.0, 2), 0.1)
    lines = out.read_text().splitlines()
    assert len(lines) == len(approximants)
    assert all(parse(line) is a for line, a in zip(lines, approximants))


def test_approx_with_compile_writes_network(tmp_path, capsys):
    out = tmp_path / "e.mplang"
    net_out = tmp_path / "e.json"
    rc = main(["approx", "--expr", "tanh(P1)", "--degree-bound", "1",
               "--box", "[[-1,1]]", "--epsilon", "0.2", "--out", str(out),
               "--compile", str(net_out), "--trials", "100"])
    assert rc == 0
    net = json.loads(net_out.read_text())
    assert net["layers"]


def test_approx_compile_of_a_nested_function_at_a_small_epsilon(tmp_path, capsys):
    net_out = tmp_path / "net.json"
    rc = main(["approx", "--expr", "sin(<>tanh(P1)) + 0.5*P1", "--degree-bound", "3",
               "--box", "[[-1,1]]", "--epsilon", "0.01", "--trials", "100",
               "--compile", str(net_out)])
    assert rc == 0
    approximant = parse(capsys.readouterr().out.splitlines()[0])
    net = mpnn_from_json(json.loads(net_out.read_text()))
    batch = random_union(3, DomainBox.from_pairs([[-1.0, 1.0]]), 200, 7)
    assert_close(
        eval_mpnn(net, batch.graph, batch.features).values[:, 0],
        eval_expr(approximant, batch.graph, batch.features),
    )


def test_approx_of_sin_at_a_coarse_epsilon_compiles_to_one_relu(tmp_path, capsys, monkeypatch):
    # sin on [-1, 1] at 0.5 is one cell: its level is a bias, its turn at -1
    # one ReLU, and its knot at 1, an end of the interval, writes no term.
    monkeypatch.chdir(tmp_path)
    assert main(["approx", "--expr", "sin(P1)", "--degree-bound", "0", "--box", "[[-1,1]]",
                 "--epsilon", "0.5", "--compile", "net.json"]) == 0
    report = json.loads((tmp_path / "net.json.report.json").read_text())
    assert report["widths"] == [1, 1]
    assert main(["check", "sin(P1)", "net.json", "--degree-bound", "0", "--box", "[[-1,1]]",
                 "--abs-tolerance", "0.5"]) == 0


def test_approx_compile_writes_the_networks_report(tmp_path, capsys):
    src, net_out = tmp_path / "pair.mplang", tmp_path / "net.json"
    src.write_text("tanh(P1)\nsin(<>P1) + P1\n")
    assert main(["approx", "--expr-file", str(src), "--degree-bound", "2", "--box", "[[-1,1]]",
                 "--epsilon", "0.1", "--trials", "50", "--compile", str(net_out)]) == 0
    layers = json.loads(net_out.read_text())["layers"]
    report = json.loads((tmp_path / "net.json.report.json").read_text())
    assert report["mode"] == "relu" and report["bounds"] is None
    assert report["widths"] == [len(lyr["b"]) for lyr in layers] and report["widths"][-1] == 2
    assert report["nonzero"] == [
        sum(int(np.count_nonzero(lyr[key])) for key in ("W1", "W2", "b")) for lyr in layers
    ]


def test_approx_prints_the_proven_eps_and_writes_the_report(tmp_path, capsys):
    out = tmp_path / "approx.mplang"
    rc = main(["approx", "--expr", "sin(<>tanh(P1)) + 0.5*P1", "--degree-bound", "3",
               "--box", "[[-1,1]]", "--epsilon", "0.1", "--trials", "100", "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    rho = float(printed.split("rho_hat = ")[1].split()[0])
    proven = float(printed.split("proven eps = ")[1])
    assert rho <= proven <= 0.1
    report = json.loads((tmp_path / "approx.mplang.report.json").read_text())
    assert report["eps"] == 0.1 and report["proven_eps"] == [proven]
    assert [r["function"] for r in report["applications"]] == ["tanh", "sin"]
    assert set(report["applications"][0]) == {
        "function", "interval", "grid", "tail_gap", "eps", "knots", "knots_floor", "m2", "lipschitz",
        "delta",
        "sensitivity", "proven"}
    # How ε was split: sin reads tanh through <>, so a unit error at tanh moves
    # the root by p = 3; the shares weighed by their sensitivities spend ε.
    tanh, sin = report["applications"]
    assert (tanh["sensitivity"], sin["sensitivity"]) == (3.0, 1.0)
    assert tanh["sensitivity"] * tanh["eps"] + sin["eps"] <= 0.1
    assert sin["delta"] == 3 * tanh["proven"]


def test_the_report_gives_each_grid_and_its_tail_gap(tmp_path, capsys):
    # tanh's knots lie where it is more than ε from ±1, inside its argument's
    # image [-6, 6]; sigmoid on [-0.5, 0.5] is not clipped.
    src, out = tmp_path / "two.mplang", tmp_path / "approx.mplang"
    src.write_text("tanh(2*<>P1)\nsigmoid(0.5*P1)\n")
    assert main(["approx", "--expr-file", str(src), "--degree-bound", "3", "--box", "[[-1,1]]",
                 "--epsilon", "0.01", "--trials", "100", "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "approx.mplang.report.json").read_text())
    tanh, sigmoid = report["applications"]
    assert tanh["interval"] == [-6.0, 6.0]
    a = tanh["grid"][1]
    assert tanh["grid"] == [-a, a] and a == pytest.approx(math.atanh(1.0 - 0.01 / (1.0 + 1e-9)), rel=1e-12)
    assert 0.0 < tanh["tail_gap"] <= 0.01
    assert tanh["proven"] == report["proven_eps"][0] <= 0.01
    assert sigmoid["grid"] == sigmoid["interval"] == [-0.5, 0.5] and sigmoid["tail_gap"] == 0.0


def test_approx_and_bounds_of_a_multi_line_file(tmp_path, capsys):
    lines = ["sin(P1) + tanh(P2)", "<>sin(P1) + 0.5*P2"]
    path = tmp_path / "two.mplang"
    path.write_text("\n".join(lines) + "\n")
    box = "[[-1,1],[-1,1]]"
    net_out = tmp_path / "two.json"
    rc = main(["approx", "--expr-file", str(path), "--degree-bound", "2", "--box", box,
               "--epsilon", "0.1", "--trials", "200", "--compile", str(net_out)])
    assert rc == 0
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 3 and printed[2].startswith("rho_hat = ")
    approximants = ExprTuple(tuple(parse(text) for text in printed[:2]), 2)
    batch = random_union(2, DomainBox.cube(-1.0, 1.0, 2), 100, 9)
    want = eval_tuple(approximants, batch.graph, batch.features).values
    net = mpnn_from_json(json.loads(net_out.read_text()))
    assert_close(eval_mpnn(net, batch.graph, batch.features).values, want)
    sources = eval_tuple(ExprTuple(tuple(parse(text) for text in lines), 2),
                         batch.graph, batch.features)
    assert np.abs(sources.values - want).max() <= 0.1

    rc = main(["bounds", "--expr-file", str(path), "--degree-bound", "2", "--box", box])
    assert rc == 0
    intervals = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]
    assert len(intervals) == 2
    for (lo, hi), column in zip(intervals, sources.values.T):
        assert lo <= column.min() and column.max() <= hi


@pytest.mark.parametrize("text", ["sin(P2)", "relu(P2)", "0*sin(P2)", "sin(P1) + 0*<>P2"])
def test_approx_and_bounds_reject_a_projection_beyond_the_box(capsys, text):
    # relu(P2) has no interpolant and 0*sin(P2) bounds no argument, so only
    # the survey of the whole DAG sees their projection.
    box = ["--degree-bound", "1", "--box", "[[-1,1]]"]
    assert main(["approx", "--expr", text, *box, "--epsilon", "0.1"]) == 2
    assert main(["bounds", "--expr", text, *box]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("arity error") == 2


def test_bounds_of_a_file_writes_no_line_when_one_is_beyond_the_box(tmp_path, capsys):
    path = tmp_path / "two.mplang"
    path.write_text("sin(P1)\nP1 + P2\n")
    assert main(["bounds", "--expr-file", str(path), "--degree-bound", "1",
                 "--box", "[[-1,1]]"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("text", ["P1", "<>P1"])
def test_bounds_rejects_a_negative_degree_bound(capsys, text):
    rc = main(["bounds", "--expr", text, "--degree-bound", "-1", "--box", "[[0,1]]"])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "configuration error: degree bound must be nonnegative\n"


def test_approx_rejects_a_negative_degree_bound(capsys, monkeypatch):
    # Refused at entry, before any function is interpolated.
    monkeypatch.setattr("mplangc.approx.interpolant", None)
    rc = main(["approx", "--expr", "sin(P1)", "--degree-bound", "-2", "--box", "[[-1,1]]",
               "--epsilon", "0.1"])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "configuration error: degree bound must be nonnegative\n"


# -- check ---------------------------------------------------------------------

def test_check_expression_against_compiled_network(tmp_path, capsys):
    out = tmp_path / "max.json"
    assert main(["compile", "--expr", "relu(P2 + -1*P1) + P1", "--mode", "relu",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    rc = main(["check", "relu(P2 + -1*P1) + P1", str(out),
               "--box", "[[-5,5],[-5,5]]", "--trials", "1000"])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def test_compile_then_check_composes_in_mixed_mode(tmp_path, capsys):
    # any exact-mode compilation passes check over its declared domain
    out = tmp_path / "mixed.json"
    assert main(["compile", "--expr", "sin(<>P1) + tanh(P1)", "--mode", "mixed",
                 "--degree-bound", "3", "--box", "[[-1,1]]", "--out", str(out)]) == 0
    rc = main(["check", "sin(<>P1) + tanh(P1)", str(out), "--degree-bound", "3",
               "--box", "[[-1,1]]", "--trials", "1000"])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def test_check_detects_mismatch_with_witness(capsys):
    rc = main(["check", "P1", "relu(P1)", "--box", "[[-1,1]]", "--trials", "200",
               "--seed", "5"])
    assert rc == 5
    out = capsys.readouterr().out
    assert "FAIL" in out
    witness = json.loads(out.split("\n", 1)[1])
    x = witness["features"]["values"][witness["node"]][0]
    assert x < 0  # relu differs from identity only on negatives


def test_check_passes_on_nonnegative_box(capsys):
    rc = main(["check", "P1", "relu(P1)", "--box", "[[0,1]]", "--trials", "200"])
    assert rc == 0


def test_check_deterministic_under_seed(capsys):
    args = ["check", "sin(P1)", "P1", "--box", "[[-1,1]]", "--trials", "100",
            "--seed", "9"]
    rc1 = main(args)
    out1 = capsys.readouterr().out
    rc2 = main(args)
    out2 = capsys.readouterr().out
    assert rc1 == rc2 == 5
    assert out1 == out2


def test_check_arity_mismatch_exit_2(tmp_path, capsys):
    expr_file = tmp_path / "pair.mplang"
    expr_file.write_text("P1\nP2\n")
    rc = main(["check", str(expr_file), "P1"])
    assert rc == 2


_LAYER = {"W1": [[1.0]], "W2": [[0.0]], "b": [0.0], "sigma": {"kind": "named", "name": "relu"}}


@pytest.mark.parametrize("net", [
    {"nets": []},  # no layers
    {"layers": []},
    {"layers": [{k: v for k, v in _LAYER.items() if k != "sigma"}]},
    {"layers": [dict(_LAYER, sigma={"kind": "spline"})]},
    {"layers": [dict(_LAYER, sigma={"kind": "named", "name": "softplus"})]},
    {"layers": [dict(_LAYER, W1=[[1.0], [1.0, 2.0]])]},
    [_LAYER],  # a top-level list
    {"layers": [dict(_LAYER, W1=[], W2=[], b=[])]},  # no rows: no input arity
    {"input_arity": 2, "layers": [_LAYER]},  # disagrees with W1
])
def test_check_malformed_network_file_is_input_error(tmp_path, capsys, net):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(net))
    assert main(["check", str(path), "P1"]) == 1
    captured = capsys.readouterr()
    assert "input error" in captured.err and "PASS" not in captured.out


@pytest.mark.parametrize("layer", [
    '{"W1": [[NaN]], "W2": [[0.0]], "b": [0.0], "sigma": {"kind": "named", "name": "relu"}}',
    '{"W1": [[1.0]], "W2": [[0.0]], "b": [-Infinity], "sigma": {"kind": "named", "name": "relu"}}',
    '{"W1": [[1.0]], "W2": [[0.0]], "b": [0.0], "sigma": {"kind": "relusum", "terms": [[1.0, Infinity, 1.0]]}}',
    '{"W1": [[1.0]], "W2": [[0.0]], "b": [0.0], "sigma": {"kind": "pl", "points": [[0.0, 0.0], [1.0, NaN]]}}',
])
def test_check_network_file_with_non_finite_numbers_is_input_error(tmp_path, capsys, layer):
    # Python's json reads NaN and Infinity; a network holds neither.
    path = tmp_path / "net.json"
    path.write_text(f'{{"input_arity": 1, "layers": [{layer}]}}')
    assert main(["check", str(path), "relu(P1)"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("input error: malformed network: ") and "finite" in captured.err
    assert "PASS" not in captured.out


@pytest.mark.parametrize("kind", ["graph", "features", "network"])
def test_a_json_input_nested_too_deeply_is_an_input_error(pair_instance, tmp_path, capsys, kind):
    g, f = pair_instance
    deep = tmp_path / "deep.json"
    if kind == "network":
        merged = ('{"kind": "merged", "M": 1.0, "right": {"kind": "named", "name": "relu"}, '
                  '"m": -1.0, "left": ')
        sigma = merged * 3000 + '{"kind": "named", "name": "relu"}' + "}" * 3000
        deep.write_text(f'{{"input_arity": 1, "layers": [{{"W1": [[1.0]], "W2": [[0.0]], '
                        f'"b": [0.0], "sigma": {sigma}}}]}}')
        argv = ["check", str(deep), "P1"]
    else:
        deep.write_text("[" * 100_000)
        files = {"--graph": g, "--features": f, f"--{kind}": str(deep)}
        argv = ["eval", "--expr", "P1", *(x for pair in files.items() for x in pair)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"input error: {deep}: JSON nested too deeply\n"


def _unreadable(tmp_path, what):
    """A directory, or a file that is not UTF-8."""
    path = tmp_path / what
    if what == "directory":
        path.mkdir()
    else:
        path.write_bytes(b'{"nodes": 1, "edges": [], "x": "\xff"}')
    return str(path)


@pytest.mark.parametrize("what", ["directory", "latin-1"])
@pytest.mark.parametrize("flag", ["--graph", "--features", "--expr-file"])
def test_eval_of_an_unreadable_file_exits_1_naming_it(pair_instance, tmp_path, capsys, what, flag):
    g, f = pair_instance
    bad = _unreadable(tmp_path, what)
    files = {"--graph": g, "--features": f, flag: bad}
    source = [] if flag == "--expr-file" else ["--expr", "P1"]
    assert main(["eval", *source, *(x for pair in files.items() for x in pair)]) == 1
    captured = capsys.readouterr()
    prefix = "file error: " if what == "directory" else "input error: "
    assert captured.err.startswith(prefix) and bad in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("what", ["directory", "latin-1"])
def test_compile_of_an_unreadable_expression_file_exits_1_naming_it(tmp_path, capsys, what):
    bad = _unreadable(tmp_path, what)
    assert main(["compile", "--expr-file", bad]) == 1
    err = capsys.readouterr().err
    assert err.startswith("file error: " if what == "directory" else "input error: ")
    assert bad in err


def test_compile_to_an_unwritable_path_is_a_file_error(tmp_path, capsys):
    out = tmp_path / "directory"
    out.mkdir()
    assert main(["compile", "--expr", "relu(P1)", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"file error: [Errno 21] Is a directory: '{out}'\n"


@pytest.mark.parametrize("flags", [
    ["--tolerance", "nan"], ["--tolerance", "inf"], ["--tolerance=-1e-9"],
    ["--trials", "0"], ["--trials", "-2"],
    ["--abs-tolerance", "nan"], ["--abs-tolerance", "inf"], ["--abs-tolerance=-1"],
])
def test_check_rejects_a_vacuous_configuration(capsys, flags):
    assert main(["check", "P1", "P1 + 1", "--trials", "20", *flags]) == 3
    assert "PASS" not in capsys.readouterr().out


@pytest.mark.parametrize("abs_tolerance, code", [("2e-3", 0), ("5e-4", 5)])
def test_check_absolute_tolerance(capsys, abs_tolerance, code):
    # A relative tolerance alone cannot pass a constant offset near zero.
    argv = ["check", "P1", "P1 + 1.0e-3", "--box", "[[-1,1]]", "--tolerance", "1e-2",
            "--trials", "50"]
    assert main(argv) == 5
    capsys.readouterr()
    assert main([*argv, "--abs-tolerance", abs_tolerance]) == code
    assert ("PASS" if code == 0 else "FAIL") in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["check", "P1", "P1", "--seed", "-1"],
    ["approx", "--expr", "sin(P1)", "--degree-bound", "1", "--box", "[[-1,1]]",
     "--epsilon", "0.1", "--seed", "-1"],
])
def test_a_negative_seed_is_a_configuration_error_that_names_the_flag(capsys, argv):
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err == "mode error: --seed must be at least 0, got -1\n"
    assert captured.out == ""


def test_compile_names_a_negative_arity(capsys):
    assert main(["compile", "--expr", "2", "--arity", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "arity error: --arity must be nonnegative, got -1\n"
    assert captured.out == ""


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_approx_rejects_fewer_than_one_trial(capsys, trials):
    rc = main(["approx", "--expr", "sin(P1)", "--degree-bound", "1", "--box", "[[-1,1]]",
               "--epsilon", "0.1", "--trials", trials])
    assert rc == 3
    assert "rho_hat" not in capsys.readouterr().out


# -- bounds / fmt ------------------------------------------------------------------

def test_bounds_constant(capsys):
    rc = main(["bounds", "--expr", "1", "--degree-bound", "3", "--box", "[[0,1]]"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out) == [1.0, 1.0]


def test_bounds_neighbor_sum(capsys):
    rc = main(["bounds", "--expr", "<>P1", "--degree-bound", "3", "--box", "[[0,1]]"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out) == [0.0, 3.0]


def test_bounds_affine(capsys):
    rc = main(["bounds", "--expr", "2*P1 + 1", "--degree-bound", "0",
               "--box", "[[-1,1]]"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out) == [-1.0, 3.0]


def test_bounds_of_zero_times_an_overflowing_term(capsys):
    rc = main(["bounds", "--expr", "0*(1e300*(1e300*P1))", "--degree-bound", "1",
               "--box", "[[-1,1]]"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out) == [0.0, 0.0]


def test_fmt_canonicalizes(capsys):
    rc = main(["fmt", "--expr", "  relu( P1 )+ P2 "])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "relu(P1) + P2"


def test_fmt_rewrites_a_tree_form_file_in_the_named_form(tmp_path, capsys):
    roots = mpnn_to_mplang(deep_mpnn(0, 3)).components
    old = tmp_path / "old.mplang"
    # A copy that shares no node prints as a tree, as files were written before
    # shared subterms were named.
    old.write_text("".join(format_expr(tree_copy(c)) + "\n" for c in roots))
    assert main(["fmt", "--expr-file", str(old)]) == 0
    new = capsys.readouterr().out
    assert "$" not in old.read_text() and "$1 = " in new
    assert len(new) < len(old.read_text()) / 4
    lines = new.splitlines()
    assert len(lines) == len(roots)
    assert all(parse(line) is c for line, c in zip(lines, roots))


def test_fmt_parse_error_exit_1(capsys):
    assert main(["fmt", "--expr", "relu("]) == 1


def test_fmt_of_an_overflowing_literal_is_a_parse_error(capsys):
    # 1e400 reads as inf, which has no text the parser accepts back.
    assert main(["fmt", "--expr", "1e400*P1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "parse error: number '1e400' is out of range (at position 0)\n"


def test_bad_box_is_config_error(capsys):
    rc = main(["check", "P1", "P1", "--box", "not-json"])
    assert rc == 3


# -- the command line itself ------------------------------------------------------

@pytest.mark.parametrize("argv, message", [
    (["fmt"], "mplangc fmt: error: one of the arguments --expr --expr-file is required"),
    (["nosuch"], "mplangc: error: argument command: invalid choice: 'nosuch'"),
    (["check", "P1", "P1", "--trials", "x"],
     "mplangc check: error: argument --trials: invalid int value: 'x'"),
    ([], "mplangc: error: the following arguments are required: command"),
    (["fmt", "--expr", "-0.5*P1"], "mplangc fmt: error: argument --expr: expected one argument"),
])
def test_a_usage_error_exits_3_with_argparses_usage_and_message(capsys, argv, message):
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: mplangc") and message in err


@pytest.mark.parametrize("argv", [["--help"], ["check", "--help"]])
def test_help_still_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: mplangc")


def test_an_expression_starting_with_a_minus_follows_an_equals_sign_or_a_double_dash(capsys):
    assert main(["fmt", "--expr=-0.5*P1"]) == 0
    assert capsys.readouterr().out == "-0.5*P1\n"
    assert main(["check", "--trials", "3", "--", "-0.5*P1", "-1*(0.5*P1)"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_the_parser_is_built_at_the_first_call_only(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert main(["fmt", "--expr", "P1"]) == 0
    built.clear()
    assert main(["fmt", "--expr", "P2"]) == 0
    assert built == []
    assert main(["nosuch"]) == 3
    assert built == []


def test_no_option_leaks_from_one_call_to_the_next(capsys):
    assert main(["check", "P1", "P1", "--trials", "3", "--seed", "2"]) == 0
    assert "over 3 trials" in capsys.readouterr().out
    assert main(["check", "P1", "P1"]) == 0
    assert "over 1000 trials" in capsys.readouterr().out
    assert main(["fmt", "--expr-file", "missing.mplang"]) == 1
    capsys.readouterr()
    assert main(["fmt", "--expr", "P1"]) == 0


def test_importing_the_cli_builds_no_parser():
    count = ("import argparse\n"
             "built = []\n"
             "init = argparse.ArgumentParser.__init__\n"
             "argparse.ArgumentParser.__init__ = "
             "lambda self, *a, **k: built.append(self) or init(self, *a, **k)\n"
             "import mplangc.cli\n"
             "print(len(built))\n")
    env = dict(os.environ)
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", count], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    assert proc.stdout == "0\n"


# -- input checks, strict JSON, deep and long inputs --------------------------------

@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
def test_eval_rejects_non_finite_features(tmp_path, capsys, bad):
    g = _graph_file(tmp_path, 2, [[0, 1]])
    f = tmp_path / "features.json"
    f.write_text(f'{{"dim": 1, "values": [[{bad}], [1.0]]}}')
    rc = main(["eval", "--expr", "P1", "--graph", g, "--features", str(f)])
    assert rc == 1
    captured = capsys.readouterr()
    assert "input error" in captured.err and captured.out == ""


_GOOD_GRAPH = {"nodes": 2, "edges": [[0, 1]]}
_GOOD_FEATURES = {"dim": 1, "values": [[1.0], [2.0]]}


@pytest.mark.parametrize("graph, features", [
    ({"nodes": 2}, _GOOD_FEATURES),  # no edges
    (_GOOD_GRAPH, {"values": [[1.0], [2.0]]}),  # no dim
    (_GOOD_GRAPH, [[1.0], [2.0]]),  # a top-level list
    ({"nodes": 2, "edges": [[0, 1, 2]]}, _GOOD_FEATURES),
    ({"nodes": 2, "edges": [[0, 1.5]]}, _GOOD_FEATURES),
    ({"nodes": 2, "edges": [[0, True]]}, _GOOD_FEATURES),
    ({"nodes": 2.7, "edges": [[0, 1]]}, _GOOD_FEATURES),
    (_GOOD_GRAPH, {"dim": 1, "values": [[1.0, 2.0]]}),  # rows wider than dim
    (_GOOD_GRAPH, {"dim": 1, "values": [["1"], [2.0]]}),
    ({"nodes": 2, "edges": [[0, 99999999999999999999999]]}, _GOOD_FEATURES),  # beyond int64
])
def test_eval_malformed_graph_or_features_is_input_error(tmp_path, capsys, graph, features):
    g, f = tmp_path / "graph.json", tmp_path / "features.json"
    g.write_text(json.dumps(graph))
    f.write_text(json.dumps(features))
    assert main(["eval", "--expr", "P1", "--graph", str(g), "--features", str(f)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("input error: ") and captured.out == ""


@pytest.mark.parametrize("what", ["graph", "features"])
def test_eval_names_a_top_level_that_is_not_an_object(tmp_path, capsys, what):
    files = {"graph": _GOOD_GRAPH, "features": _GOOD_FEATURES, what: [_GOOD_GRAPH]}
    for name, obj in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
    assert main(["eval", "--expr", "P1", "--graph", str(tmp_path / "graph.json"),
                 "--features", str(tmp_path / "features.json")]) == 1
    err = capsys.readouterr().err
    assert err == f"input error: malformed {what}: the top level must be a JSON object\n"


@pytest.mark.parametrize("other", ["empty", "P1"])
def test_check_of_an_empty_expression_file_is_a_parse_error(tmp_path, capsys, other):
    empty = tmp_path / "empty.mplang"
    empty.write_text("\n  \n")
    assert main(["check", str(empty), str(empty) if other == "empty" else other]) == 1
    assert main(["check", "P1", str(empty)]) == 1
    captured = capsys.readouterr()
    assert captured.err.count("parse error: expression file is empty") == 2
    assert captured.out == ""


@pytest.mark.parametrize("what", ["missing", "directory"])
def test_check_of_a_missing_or_unreadable_operand_is_a_file_error_naming_it(tmp_path, capsys, what):
    path = tmp_path / "net.json"
    if what == "directory":
        path = tmp_path / "dd"
        path.mkdir()
    assert main(["check", str(path), "P1"]) == 1
    assert main(["check", "P1", str(path)]) == 1
    captured = capsys.readouterr()
    errors = captured.err.splitlines()
    assert len(errors) == 2
    assert all(e.startswith("file error: ") and str(path) in e for e in errors)
    assert captured.out == ""


@pytest.mark.parametrize("box", ["[[-1e400,1]]", "[[-1,Infinity]]", "[[-1e308,1e308]]"])
def test_box_must_be_finite_with_finite_width(capsys, box):
    assert main(["check", "P1", "relu(P1)", "--box", box]) == 3
    assert main(["bounds", "--expr", "P1", "--degree-bound", "1", "--box", box]) == 3
    assert "PASS" not in capsys.readouterr().out


NOT_FINITE = "configuration error: the result is not finite, so it has no JSON form\n"


def test_non_finite_result_is_never_written(pair_instance, capsys):
    g, f = pair_instance
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["eval", "--expr", "1e308*P1 + 1e308*P1", "--graph", g, "--features", f])
    assert rc == 3
    assert [str(w.message) for w in caught] == []
    out, err = capsys.readouterr()
    assert "Infinity" not in out
    assert err == NOT_FINITE


def test_non_finite_bounds_are_never_written(capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["bounds", "--expr", "1e308*P1 + 1e308*P1", "--degree-bound", "1",
                   "--box", "[[1,2]]"])
    assert rc == 3
    assert [str(w.message) for w in caught] == []
    out, err = capsys.readouterr()
    assert out == "" and err == NOT_FINITE


def test_bounds_names_an_overflowed_argument(capsys):
    # The argument's interval overflows to [inf, inf], whose width is NaN.
    rc = main(["bounds", "--expr", "sin(1e308*P1 + 1e308*P1)", "--degree-bound", "1",
               "--box", "[[1,2]]"])
    assert rc == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "configuration error: the argument of sin has the non-finite bound [inf, inf]\n"


def test_check_nan_deviation_does_not_hide_a_failure(capsys):
    # Where P1 > 0 both sides overflow to inf and deviate by NaN; where P1 < 0
    # they differ by relu(-P1).
    big = "1e308*relu(P1) + 1e308*relu(P1)"
    rc = main(["check", big + " + relu(-1*P1)", big, "--box", "[[-1,1]]", "--trials", "200"])
    assert rc == 5
    witness = json.loads(capsys.readouterr().out.split("\n", 1)[1])
    assert witness["features"]["values"][witness["node"]][0] < 0


def test_check_witness_writes_an_overflowed_output_as_null(tmp_path, capsys):
    # The first outputs differ by 1; the second overflows to inf on both sides.
    big = "1e308*(P1 + 3) + 1e308*(P1 + 3)"
    a, b = tmp_path / "a.mplang", tmp_path / "b.mplang"
    a.write_text(f"P1\n{big}\n")
    b.write_text(f"P1 + 1\n{big}\n")
    rc = main(["check", str(a), str(b), "--trials", "3"])
    out, err = capsys.readouterr()
    assert rc == 5 and err == ""
    verdict, text = out.split("\n", 1)
    assert verdict.endswith("FAIL (tolerance 1e-09)")
    witness = json.loads(text, parse_constant=lambda c: pytest.fail(f"non-standard JSON {c}"))
    assert witness["left"][1] is None and witness["right"][1] is None
    assert witness["right"][0] == pytest.approx(witness["left"][0] + 1)


def test_check_with_overflowing_operands_is_not_a_pass(capsys):
    # Both sides overflow to inf, so every deviation is NaN and nothing is judged.
    # The command says so itself, with no numpy warning on the side.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["check", "1e308*P1 + 1e308*P1", "1e308*P1 + 1e308*P1 + -1e308*P1",
                   "--box", "[[1,2]]", "--trials", "20"])
    assert rc == 3
    assert [str(w.message) for w in caught] == []
    out, err = capsys.readouterr()
    assert "PASS" not in out and "not finite" in err


@pytest.mark.parametrize("f", ["relu", "abs"])
def test_approx_with_overflowing_samples_exits_3(tmp_path, capsys, f):
    # relu and abs are their own exact ReLU forms, so the unbounded image needs
    # no certificate; the samples of 1e300*P1 overflow, and nothing is judged.
    # As in check, the command says so in one line, with no numpy warning.
    out = tmp_path / "approx.mplang"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["approx", "--expr", f"{f}(1e300*P1)", "--box", "[[-1e10,1e10]]",
                   "--degree-bound", "1", "--epsilon", "0.1", "--out", str(out)])
    assert rc == 3
    assert [str(w.message) for w in caught] == []
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == "approx error: sampled values are not finite (NaN or overflow)\n"


def test_approx_of_abs_on_an_unbounded_image_writes_its_report(tmp_path, capsys):
    # Interval arithmetic overflows to [-inf, inf] though every value is finite;
    # abs needs no grid there, and the record's unbounded ends are null.
    out = tmp_path / "approx.mplang"
    rc = main(["approx", "--expr", "abs(1e308*P1 + -1e308*P1 + 1e308*P1)", "--box", "[[-1,1]]",
               "--degree-bound", "1", "--epsilon", "0.1", "--out", str(out)])
    assert rc == 0
    assert "rho_hat = 0.0" in capsys.readouterr().out
    report = json.loads((tmp_path / "approx.mplang.report.json").read_text())
    (record,) = report["applications"]
    assert record["interval"] == record["grid"] == [None, None] and record["tail_gap"] == 0.0
    assert report["proven_eps"] == [0.0]


def test_check_of_a_network_with_too_deeply_merged_activations_is_an_input_error(
        tmp_path, capsys):
    # 300 merged levels decode as JSON, but evaluating them would recurse
    # once per level; 32 levels are the most a network file may hold.
    sigma = {"kind": "named", "name": "relu"}
    for _ in range(300):
        sigma = {"kind": "merged", "left": sigma, "M": 1.0,
                 "right": {"kind": "named", "name": "tanh"}, "m": -1.0}
    path = tmp_path / "net.json"
    path.write_text(json.dumps({"input_arity": 1, "layers": [
        {"W1": [[1.0]], "W2": [[0.0]], "b": [0.0], "sigma": sigma}]}))
    assert main(["check", str(path), "P1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("input error: malformed network: merged activations nest deeper"
                            " than 32 levels\n")
    assert captured.out == ""


def test_out_of_memory_is_a_configuration_error(monkeypatch, tmp_path, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("mplangc.cli.compile_all", exhausted)
    rc = main(["approx", "--expr", "tanh(P1)", "--degree-bound", "1", "--box", "[[-1,1]]",
               "--epsilon", "0.1", "--trials", "10", "--compile", str(tmp_path / "net.json")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("out of memory") and "Traceback" not in err


def test_approx_of_a_piecewise_linear_term_under_huge_scales_needs_no_share(capsys):
    # ε / 1e200 / 1e200 underflows to 0 on the way down, but abs is rebuilt
    # exactly and takes no share: nothing to certify, and a proven ε of 0.
    rc = main(["approx", "--expr", "1e200*(1 + 1e200*abs(1e-300*P1))", "--degree-bound", "0",
               "--box", "[[-1,1]]", "--epsilon", "0.1", "--trials", "50"])
    captured = capsys.readouterr()
    assert rc == 0 and captured.err == ""
    assert captured.out.rstrip().endswith("proven eps = 0.0")


def test_approx_of_a_curved_function_whose_share_underflows_is_a_certificate_error(capsys):
    # sin's share of ε is 0.1 / 1e400: it underflows to 0, and the message
    # names sin and the ε the user gave, not a share of 0.
    rc = main(["approx", "--expr", "1e200*(1e200*sin(1e-300*P1) + P1)", "--degree-bound", "0",
               "--box", "[[-1,1]]", "--epsilon", "0.1"])
    assert rc == 4
    err = capsys.readouterr().err
    assert err == "certificate error: no 0.1-certificate: the share of sin underflows to 0\n"


def test_bounds_of_a_neighbor_sum_at_degree_0_is_0_however_its_argument_overflows(capsys):
    rc = main(["bounds", "--expr", "<>(1e300*(1e300*P1))", "--degree-bound", "0",
               "--box", "[[-1,1]]"])
    captured = capsys.readouterr()
    assert rc == 0 and captured.err == ""
    assert captured.out == "[0.0, 0.0]\n"


def test_approx_under_a_neighbor_sum_at_degree_0_of_an_unbounded_argument(capsys):
    # <>e at p = 0 is the constant 0, so sigmoid's argument is bounded by [0, 0].
    rc = main(["approx", "--expr", "sigmoid(<>(1.9e183*P1))", "--degree-bound", "0",
               "--box", "[[-8.2e256,8.2e256]]", "--epsilon", "0.1"])
    captured = capsys.readouterr()
    assert rc == 0 and captured.err == ""
    assert captured.out.startswith("0.5*relu(1)\n")
    assert captured.out.rstrip().endswith("proven eps = 0.0")


def test_sin_of_an_overflowing_constant_prints_no_numpy_warning(capsys):
    # The constant's product is -inf, and sin(-inf) is NaN: the command exits
    # 3 with its own message, and numpy says nothing.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["compile", "--expr", "sin(-7.344452100518308e+199*(8.080758190684238e+197))"])
    assert rc == 3
    assert capsys.readouterr().err.startswith("configuration error:")


def test_approx_of_an_unbounded_argument_is_a_certificate_error(capsys):
    # The image of 1e300*P1 over the box overflows to [-inf, inf].
    rc = main(["approx", "--expr", "sin(1e300*P1)", "--box", "[[-1e10,1e10]]",
               "--degree-bound", "1", "--epsilon", "0.1"])
    assert rc == 4
    assert capsys.readouterr().err.startswith("certificate error:")


def test_approx_with_a_grid_step_below_the_float_spacing_is_a_certificate_error(capsys):
    # The box is two float steps wide; an eps of 1e-3 wants knots far closer.
    rc = main(["approx", "--expr", "sin(P1)", "--box", "[[1e16,1.0000000000000004e16]]",
               "--degree-bound", "0", "--epsilon", "1e-3"])
    assert rc == 4
    err = capsys.readouterr().err
    assert err.startswith("certificate error:") and "float spacing" in err


def test_fmt_of_too_deep_nesting_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "deep.mplang"
    path.write_text("sin(" * 400 + "P1" + ")" * 400 + "\n")
    assert main(["fmt", "--expr-file", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("parse error:") and "Traceback" not in err


def test_long_sum_through_every_walking_command(pair_instance, tmp_path, capsys):
    g, f = pair_instance
    text = " + ".join(f"{0.5 + k % 5}*P{1 + k % 2}" for k in range(3000))
    path = tmp_path / "long.mplang"
    path.write_text(text + "\n")
    expr = ["--expr-file", str(path)]
    assert main(["fmt", *expr]) == 0
    assert capsys.readouterr().out.strip() == text
    assert main(["bounds", *expr, "--degree-bound", "1", "--box", "[[-1,1],[-1,1]]"]) == 0
    assert json.loads(capsys.readouterr().out) == [-7500.0, 7500.0]
    assert main(["eval", *expr, "--graph", g, "--features", f]) == 0
    assert json.loads(capsys.readouterr().out)["values"] == [[15000.0], [22500.0]]


def test_approx_of_sin_on_a_wide_box(capsys):
    rc = main(["approx", "--expr", "sin(P1)", "--box", "[[-60,60]]", "--degree-bound", "1",
               "--epsilon", "1e-3", "--trials", "100"])
    assert rc == 0
    assert float(capsys.readouterr().out.split("rho_hat = ")[1].split()[0]) <= 1e-3


def test_check_witness_replays_in_its_own_instance(capsys):
    rc = main(["check", "<>P1", "<>relu(P1)", "--box", "[[-1,1]]", "--degree-bound", "3",
               "--trials", "50", "--seed", "3"])
    assert rc == 5
    witness = json.loads(capsys.readouterr().out.split("\n", 1)[1])
    g = graph_from_json(witness["graph"])
    fm = features_from_json(witness["features"])
    node = witness["node"]
    assert g.node_count > 1
    assert eval_expr(parse("<>P1"), g, fm)[node] == witness["left"][0]
    assert eval_expr(parse("<>relu(P1)"), g, fm)[node] == witness["right"][0]
