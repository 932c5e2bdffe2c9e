import json

import numpy as np
import pytest

from mplangc.cli import main
from mplangc.graphs import features_from_json, graph_from_json
from mplangc.interpreter import eval_expr
from mplangc.parser import parse


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


def test_compile_explicit_mode_mismatch_exit_3(capsys):
    rc = main(["compile", "--expr", "tanh(P1)", "--mode", "relu"])
    assert rc == 3


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


def test_approx_with_compile_writes_network(tmp_path, capsys):
    out = tmp_path / "e.mplang"
    net_out = tmp_path / "e.json"
    rc = main(["approx", "--expr", "tanh(P1)", "--degree-bound", "1",
               "--box", "[[-1,1]]", "--epsilon", "0.2", "--out", str(out),
               "--compile", str(net_out), "--trials", "100"])
    assert rc == 0
    net = json.loads(net_out.read_text())
    assert net["layers"]


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


def test_fmt_canonicalizes(capsys):
    rc = main(["fmt", "--expr", "  relu( P1 )+ P2 "])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "relu(P1) + P2"


def test_fmt_parse_error_exit_1(capsys):
    assert main(["fmt", "--expr", "relu("]) == 1


def test_bad_box_is_config_error(capsys):
    rc = main(["check", "P1", "P1", "--box", "not-json"])
    assert rc == 3


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


@pytest.mark.parametrize("box", ["[[-1e400,1]]", "[[-1,Infinity]]", "[[-1e308,1e308]]"])
def test_box_must_be_finite_with_finite_width(capsys, box):
    assert main(["check", "P1", "relu(P1)", "--box", box]) == 3
    assert main(["bounds", "--expr", "P1", "--degree-bound", "1", "--box", box]) == 3
    assert "PASS" not in capsys.readouterr().out


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_non_finite_result_is_never_written(pair_instance, capsys):
    g, f = pair_instance
    rc = main(["eval", "--expr", "1e308*P1 + 1e308*P1", "--graph", g, "--features", f])
    assert rc == 3
    assert "Infinity" not in capsys.readouterr().out


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_check_nan_deviation_does_not_hide_a_failure(capsys):
    # Where P1 > 0 both sides overflow to inf and deviate by NaN; where P1 < 0
    # they differ by relu(-P1).
    big = "1e308*relu(P1) + 1e308*relu(P1)"
    rc = main(["check", big + " + relu(-1*P1)", big, "--box", "[[-1,1]]", "--trials", "200"])
    assert rc == 5
    witness = json.loads(capsys.readouterr().out.split("\n", 1)[1])
    assert witness["features"]["values"][witness["node"]][0] < 0


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
