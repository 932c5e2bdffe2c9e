"""Command-line front end.

Subcommands: eval, compile, approx, check, bounds, fmt.

Exit codes (fixed for scripting):
  0  success / check passed
  1  parse or input error (expression text, nesting too deep, input file,
     NaN or infinite feature values)
  2  arity or dimension mismatch
  3  mode or configuration error (inapplicable mode, bad --box, a --box
     endpoint or width that is not finite, eps <= 0, a result with no JSON
     form because it is not finite, ...)
  4  approximation certificate failure
  5  equivalence check failed (a witness instance is printed)

Output JSON is strict: NaN and infinity are never written.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .approx import approximate, image_bounds, uniform_distance_estimate
from .compiler import CompileEnv, compile_expr, compile_relu, compile_relu_tuple
from .errors import ArityError, CertificateError, ModeError
from .expressions import Expr, ExprTuple, format_expr, max_projection
from .graphs import (
    FeatureMap,
    Graph,
    InvalidGraphError,
    features_from_json,
    features_to_json,
    graph_from_json,
    graph_to_json,
    random_union,
)
from .intervals import DomainBox
from .interpreter import eval_expr
from .mpnn import eval_mpnn, mpnn_from_json, mpnn_to_json
from .parser import MPLangSyntaxError, parse

DEFAULT_TRIALS = 1000
DEFAULT_TOLERANCE = 1e-9
ABS_FLOOR = 1e-12


# -- input loading ---------------------------------------------------------------

def _read_exprs(args) -> list[Expr]:
    if getattr(args, "expr", None) is not None:
        return [parse(args.expr)]
    with open(args.expr_file) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise MPLangSyntaxError("expression file is empty", 0)
    return [parse(ln) for ln in lines]


def _read_graph(path: str) -> Graph:
    with open(path) as fh:
        return graph_from_json(json.load(fh))


def _read_features(path: str) -> FeatureMap:
    with open(path) as fh:
        return features_from_json(json.load(fh))


def _parse_box(text: str, expected_dim: int | None = None) -> DomainBox:
    try:
        pairs = json.loads(text)
        box = DomainBox.from_pairs(pairs)
    except (ValueError, TypeError) as exc:
        raise ModeError(f'invalid --box (want "[[lo,hi],...]"): {exc}') from exc
    if not all(math.isfinite(iv.width) for iv in box.intervals):
        raise ModeError("--box endpoints and widths must be finite")
    if expected_dim is not None and box.dimension != expected_dim:
        raise ArityError(
            f"--box has dimension {box.dimension}, expected {expected_dim}"
        )
    return box


def _write_json(obj: dict, path: str | None) -> None:
    text = json.dumps(obj, indent=2, allow_nan=False)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


@dataclass
class Operand:
    label: str
    input_arity: int
    output_arity: int
    run: Callable[[Graph, FeatureMap], np.ndarray]  # returns (n, r)


def _load_operand(spec: str) -> Operand:
    """Expression literal, expression text file, or MPNN .json file."""
    if os.path.isfile(spec):
        if spec.endswith(".json"):
            with open(spec) as fh:
                net = mpnn_from_json(json.load(fh))
            return Operand(
                spec,
                net.input_arity,
                net.output_arity,
                lambda g, fm: eval_mpnn(net, g, fm).values,
            )
        with open(spec) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
        exprs = [parse(ln) for ln in lines]
    else:
        exprs = [parse(spec)]
    arity = max((max_projection(e) for e in exprs), default=0)

    def run(g: Graph, fm: FeatureMap) -> np.ndarray:
        return np.stack([eval_expr(e, g, fm) for e in exprs], axis=1)

    return Operand(spec, arity, len(exprs), run)


# -- subcommands -------------------------------------------------------------------

def cmd_eval(args) -> int:
    exprs = _read_exprs(args)
    g = _read_graph(args.graph)
    fm = _read_features(args.features)
    cols = [eval_expr(e, g, fm) for e in exprs]
    _write_json(features_to_json(FeatureMap(np.stack(cols, axis=1))), args.out)
    return 0


def cmd_compile(args) -> int:
    exprs = _read_exprs(args)
    box = _parse_box(args.box) if args.box else None
    d = args.arity
    if d is None:
        d = box.dimension if box else max(max_projection(e) for e in exprs)
    env = CompileEnv(mode=args.mode, degree_bound=args.degree_bound, box=box)
    if len(exprs) == 1:
        net, report = compile_expr(exprs[0], d, env)
    else:
        if args.mode not in ("relu", "auto"):
            raise ModeError("expression tuples compile in relu mode only")
        net = compile_relu_tuple(ExprTuple(tuple(exprs), d))
        report = None
    payload = mpnn_to_json(net)
    if args.out:
        _write_json(payload, args.out)
        if report is not None:
            _write_json(report.to_json(), args.out + ".report.json")
    else:
        combined = {"mpnn": payload}
        if report is not None:
            combined["report"] = report.to_json()
        _write_json(combined, None)
    return 0


def cmd_approx(args) -> int:
    (expr,) = _read_exprs(args)
    if args.epsilon is None or args.epsilon <= 0:
        raise ModeError("--epsilon must be a positive real")
    if args.degree_bound is None or args.box is None:
        raise ModeError("approx needs --degree-bound and --box")
    box = _parse_box(args.box, expected_dim=None)
    if box.dimension < max_projection(expr):
        raise ArityError(
            f"--box has dimension {box.dimension}, expression needs {max_projection(expr)}"
        )
    result = approximate(expr, args.degree_bound, box, args.epsilon)
    rho = uniform_distance_estimate(
        expr, result, args.degree_bound, box, args.trials, args.seed
    )
    text = format_expr(result)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    print(f"rho_hat = {rho!r} (sampled over {args.trials} instances, eps = {args.epsilon!r})")
    if args.compile:
        net = compile_relu(result, box.dimension)
        _write_json(mpnn_to_json(net), args.compile)
    return 0


def cmd_check(args) -> int:
    a = _load_operand(args.a)
    b = _load_operand(args.b)
    if a.output_arity != b.output_arity:
        raise ArityError(
            f"output arities differ: {a.output_arity} vs {b.output_arity}"
        )
    d = max(a.input_arity, b.input_arity, 1)
    box = _parse_box(args.box, expected_dim=None) if args.box else DomainBox.cube(-1.0, 1.0, d)
    if box.dimension < max(a.input_arity, b.input_arity):
        raise ArityError(
            f"--box has dimension {box.dimension}, operands need {max(a.input_arity, b.input_arity)}"
        )
    batch = random_union(args.degree_bound, box, args.trials, args.seed)
    va = a.run(batch.graph, batch.features)
    vb = b.run(batch.graph, batch.features)
    dev = np.abs(va - vb)
    allowed = np.maximum(ABS_FLOOR, args.tolerance * np.maximum(np.abs(va), np.abs(vb)))
    # A NaN deviation (both operands overflowed) cannot be judged; it is skipped.
    excess = np.nan_to_num(dev / allowed, nan=0.0, posinf=np.inf)
    failed = float(excess.max(initial=0.0)) > 1.0
    print(f"max deviation = {float(np.nanmax(dev, initial=0.0))!r} over {args.trials} trials: "
          f"{'FAIL' if failed else 'PASS'} (tolerance {args.tolerance!r})")
    if failed:
        node = int(np.unravel_index(np.argmax(excess), excess.shape)[0])
        k = int(np.searchsorted(batch.offsets, node, side="right")) - 1
        g, fm = batch.instances[k]
        print(json.dumps({
            "graph": graph_to_json(g),
            "features": features_to_json(fm),
            "node": node - batch.offsets[k],
            "left": va[node].tolist(),
            "right": vb[node].tolist(),
        }, indent=2, allow_nan=False))
        return 5
    return 0


def cmd_bounds(args) -> int:
    (expr,) = _read_exprs(args)
    if args.degree_bound is None or args.box is None:
        raise ModeError("bounds needs --degree-bound and --box")
    box = _parse_box(args.box)
    if box.dimension < max_projection(expr):
        raise ArityError(
            f"--box has dimension {box.dimension}, expression needs {max_projection(expr)}"
        )
    iv = image_bounds(expr, args.degree_bound, box)
    print(json.dumps([iv.lo, iv.hi], allow_nan=False))
    return 0


def cmd_fmt(args) -> int:
    exprs = _read_exprs(args)
    for e in exprs:
        print(format_expr(e))
    return 0


# -- parser ---------------------------------------------------------------------

def _add_expr_flags(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--expr", help="expression literal")
    group.add_argument("--expr-file", help="text file, one expression per line")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mplangc",
        description="Parse, evaluate, compile, approximate, and check MPLang "
                    "expressions over graphs.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate an expression on a graph + features")
    _add_expr_flags(pe)
    pe.add_argument("--graph", required=True)
    pe.add_argument("--features", required=True)
    pe.add_argument("--out")
    pe.set_defaults(func=cmd_eval)

    pc = sub.add_parser("compile", help="compile an expression to an MPNN")
    _add_expr_flags(pc)
    pc.add_argument("--mode", default="auto",
                    choices=["relu", "addition-free", "pointwise", "mixed", "auto"])
    pc.add_argument("--degree-bound", type=int)
    pc.add_argument("--box", help='JSON "[[lo,hi],...]", one pair per input coordinate')
    pc.add_argument("--arity", type=int, help="input arity (default: inferred)")
    pc.add_argument("--out", help="MPNN output path (report goes to <out>.report.json)")
    pc.set_defaults(func=cmd_compile)

    pa = sub.add_parser("approx", help="ReLU-only approximation within epsilon")
    _add_expr_flags(pa)
    pa.add_argument("--degree-bound", type=int, required=True)
    pa.add_argument("--box", required=True)
    pa.add_argument("--epsilon", type=float, required=True)
    pa.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    pa.add_argument("--seed", type=int, default=0)
    pa.add_argument("--out", help="output path for the approximating expression")
    pa.add_argument("--compile", metavar="MPNN_OUT",
                    help="also compile the result and write the MPNN here")
    pa.set_defaults(func=cmd_approx)

    pk = sub.add_parser("check", help="randomized equivalence check of two "
                                      "expressions/MPNNs")
    pk.add_argument("a", help="expression literal, expression file, or MPNN .json")
    pk.add_argument("b", help="expression literal, expression file, or MPNN .json")
    pk.add_argument("--degree-bound", type=int)
    pk.add_argument("--box")
    pk.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    pk.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                    help=f"relative tolerance (absolute floor {ABS_FLOOR:g})")
    pk.add_argument("--seed", type=int, default=0)
    pk.set_defaults(func=cmd_check)

    pb = sub.add_parser("bounds", help="interval containing the expression's image")
    _add_expr_flags(pb)
    pb.add_argument("--degree-bound", type=int, required=True)
    pb.add_argument("--box", required=True)
    pb.set_defaults(func=cmd_bounds)

    pf = sub.add_parser("fmt", help="reprint an expression in canonical form")
    _add_expr_flags(pf)
    pf.set_defaults(func=cmd_fmt)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MPLangSyntaxError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except (json.JSONDecodeError, InvalidGraphError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except ArityError as exc:
        print(f"arity error: {exc}", file=sys.stderr)
        return 2
    except ModeError as exc:
        print(f"mode error: {exc}", file=sys.stderr)
        return 3
    except CertificateError as exc:
        print(f"certificate error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
