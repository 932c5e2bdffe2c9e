"""Command-line front end.

Subcommands: eval, compile, approx, check, bounds, fmt.

The parser is built at the first ``main`` call and reused by later calls in
the same process.  An expression text that starts with ``-`` reads as an
option: pass it as ``--expr=-0.5*P1``, or give ``check`` its options first and
then ``--`` before its operands.

Exit codes (fixed for scripting):
  0  success / check passed
  1  parse, input or file error (expression text, an empty expression
     file, nesting too deep, a name used unbound or bound twice, a file
     that cannot be opened, read or written, a check operand that ends in
     .json or names an existing path and cannot be read as a file, an
     input file that is not UTF-8, a graph, feature or network file whose
     JSON is nested too deeply, NaN or infinite feature values or network
     numbers, a network activation of more than 32 nested merged levels, a
     malformed graph, feature or network file)
  2  arity or dimension mismatch (a negative --arity too; a compile that breaks
     the arity exits 2 before any mode error, in auto mode too)
  3  usage, mode or configuration error (a command line argparse cannot
     read: an unknown subcommand or option, a missing or malformed argument,
     with the usage line on stderr; inapplicable mode, pointwise or
     addition-free mode for more than one expression, bad --box, a --box
     endpoint or width that is not finite, an --epsilon that is not
     positive and finite, --trials < 1, --seed < 0, a negative
     --degree-bound, a --tolerance or --abs-tolerance that is negative or
     not finite, a result with no JSON form because it is not finite, a
     check with non-finite operand values and no finite failure, an approx
     whose sampled values are not finite, compile bounds that are not finite,
     out of memory, ...)
  4  no approximation certificate for sin, tanh or sigmoid (an unbounded
     argument image, a grid of more than 4097 knots, or a grid step below the
     float spacing; tanh's and sigmoid's grids span only the part of the
     image where they are more than epsilon from their asymptotes)
  5  equivalence check failed (a witness instance is printed; an output
     value of the witness node that is not finite is written as null)

Output JSON is strict: NaN and infinity are never written.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .approx import approximate_all, image_bounds
from .compiler import CompileEnv, CompileReport, compile_all
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
from .interpreter import eval_tuple
from .mpnn import InvalidNetworkError, Mpnn, eval_mpnn, mpnn_from_json, mpnn_to_json
from .parser import MPLangSyntaxError, parse

DEFAULT_TRIALS = 1000
DEFAULT_TOLERANCE = 1e-9
ABS_FLOOR = 1e-12


# -- input loading ---------------------------------------------------------------

def _read_text(path: str) -> str:
    """The text of a UTF-8 file; other bytes are a decode error naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            exc.reason += f" in {path}"
            raise


def _read_expr_file(path: str) -> list[Expr]:
    """The expressions on the nonblank lines of a file (sharing their subterms).

    Each line is one text, its bindings included.
    """
    lines = [ln.strip() for ln in _read_text(path).split("\n") if ln.strip()]
    if not lines:
        raise MPLangSyntaxError("expression file is empty", 0)
    return [parse(line) for line in lines]


def _read_exprs(args) -> list[Expr]:
    """The --expr literal, or the lines of --expr-file."""
    if getattr(args, "expr", None) is not None:
        return [parse(args.expr)]
    return _read_expr_file(args.expr_file)


class _NestedTooDeep(ValueError):
    """A JSON input file nested deeper than the decoder can recurse."""


def _read_json(path: str):
    """The JSON value of a graph, feature or network file; nesting too deep
    for the decoder is an input error naming the file."""
    text = _read_text(path)
    try:
        return json.loads(text)
    except RecursionError:
        raise _NestedTooDeep(f"{path}: JSON nested too deeply") from None


def _read_graph(path: str) -> Graph:
    return graph_from_json(_read_json(path))


def _read_features(path: str) -> FeatureMap:
    return features_from_json(_read_json(path))


def _parse_box(text: str) -> DomainBox:
    try:
        pairs = json.loads(text)
        box = DomainBox.from_pairs(pairs)
    except (ValueError, TypeError) as exc:
        raise ModeError(f'invalid --box (want "[[lo,hi],...]"): {exc}') from exc
    if not all(math.isfinite(iv.width) for iv in box.intervals):
        raise ModeError("--box endpoints and widths must be finite")
    return box


def _check_at_least(flag: str, value: int, low: int) -> None:
    if value < low:
        raise ModeError(f"{flag} must be at least {low}, got {value}")


def _write_json(obj, path: str | None, indent: int | None = 2) -> None:
    """Write obj as strict JSON; a NaN or infinity in it is an error of its own."""
    try:
        text = json.dumps(obj, indent=indent, allow_nan=False)
    except ValueError:
        raise ValueError("the result is not finite, so it has no JSON form") from None
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _write_network(net: Mpnn, report: CompileReport, path: str | None) -> None:
    """The network at path and its report at path.report.json, or both to stdout."""
    if path:
        _write_json(mpnn_to_json(net), path)
        _write_json(report.to_json(), path + ".report.json")
    else:
        _write_json({"mpnn": mpnn_to_json(net), "report": report.to_json()}, None)


@dataclass
class Operand:
    input_arity: int
    output_arity: int
    run: Callable[[Graph, FeatureMap], np.ndarray]  # returns (n, r)


def _expr_operand(exprs: Sequence[Expr]) -> Operand:
    """An expression tuple, evaluated in one fold per run."""
    components = tuple(exprs)

    def run(g: Graph, fm: FeatureMap) -> np.ndarray:
        return eval_tuple(ExprTuple(components, fm.dimension), g, fm).values

    return Operand(max(map(max_projection, components)), len(components), run)


def _load_operand(spec: str) -> Operand:
    """MPNN .json file, expression text file, or expression literal.

    A spec ending in .json, or naming anything that exists, is a file, so a
    missing or unreadable one is a file error, not a parse error.
    """
    if spec.endswith(".json"):
        net = mpnn_from_json(_read_json(spec))
        return Operand(
            net.input_arity,
            net.output_arity,
            lambda g, fm: eval_mpnn(net, g, fm).values,
        )
    if os.path.exists(spec):
        return _expr_operand(_read_expr_file(spec))
    return _expr_operand([parse(spec)])


def _sample(a: Operand, b: Operand, p: int | None, box: DomainBox, trials: int, seed: int):
    """One random_union of trials instances; both operands' values on it (n, r),
    where both are finite, and |a - b| there (0 elsewhere).

    A value that is not finite (NaN, or an overflow) cannot be judged, and the
    caller reports that case itself, so numpy's overflow warnings are silenced.
    """
    batch = random_union(p, box, trials, seed)
    with np.errstate(over="ignore", invalid="ignore"):
        va = a.run(batch.graph, batch.features)
        vb = b.run(batch.graph, batch.features)
        finite = np.isfinite(va) & np.isfinite(vb)
        dev = np.zeros(va.shape)
        dev[finite] = np.abs(va[finite] - vb[finite])
    return batch, va, vb, finite, dev


# -- subcommands -------------------------------------------------------------------

def cmd_eval(args) -> int:
    exprs = _read_exprs(args)
    g = _read_graph(args.graph)
    fm = _read_features(args.features)
    # A non-finite result is reported where it is written, so numpy's overflow
    # warnings are silenced.
    with np.errstate(over="ignore", invalid="ignore"):
        values = eval_tuple(ExprTuple(tuple(exprs), fm.dimension), g, fm)
    _write_json(features_to_json(values), args.out)
    return 0


def cmd_compile(args) -> int:
    exprs = _read_exprs(args)
    box = _parse_box(args.box) if args.box else None
    d = args.arity
    if d is None:
        d = box.dimension if box else max(map(max_projection, exprs))
    env = CompileEnv(mode=args.mode, degree_bound=args.degree_bound, box=box)
    _write_network(*compile_all(exprs, d, env), args.out)
    return 0


def cmd_approx(args) -> int:
    exprs = _read_exprs(args)
    if not 0.0 < args.epsilon < math.inf:
        raise ModeError(f"--epsilon must be positive and finite, got {args.epsilon!r}")
    _check_at_least("--trials", args.trials, 1)
    _check_at_least("--seed", args.seed, 0)
    box = _parse_box(args.box)
    results, report = approximate_all(exprs, args.degree_bound, box, args.epsilon)
    # As in check, a sampled value that is not finite (NaN, or an overflow)
    # cannot be judged, nor can a difference that overflows: it exits 3.
    _, _, _, finite, dev = _sample(_expr_operand(exprs), _expr_operand(results),
                                   args.degree_bound, box, args.trials, args.seed)
    rho_hat = float(dev.max(initial=0.0))
    if not (finite.all() and math.isfinite(rho_hat)):
        print("approx error: sampled values are not finite (NaN or overflow)", file=sys.stderr)
        return 3
    text = "\n".join(format_expr(r) for r in results)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        _write_json(report.to_json(), args.out + ".report.json")
    else:
        print(text)
    print(f"rho_hat = {rho_hat!r} (sampled over {args.trials} instances, eps = {args.epsilon!r}),"
          f" proven eps = {max(report.proven_eps)!r}")
    if args.compile:
        # The approximants are ReLU-only, so relu mode needs no bounds.
        _write_network(*compile_all(results, box.dimension, CompileEnv("relu")), args.compile)
    return 0


def cmd_check(args) -> int:
    _check_at_least("--trials", args.trials, 1)
    _check_at_least("--seed", args.seed, 0)
    for flag, value in (("--tolerance", args.tolerance), ("--abs-tolerance", args.abs_tolerance)):
        if not 0.0 <= value < math.inf:
            raise ModeError(f"{flag} must be finite and nonnegative, got {value!r}")
    a = _load_operand(args.a)
    b = _load_operand(args.b)
    if a.output_arity != b.output_arity:
        raise ArityError(
            f"output arities differ: {a.output_arity} vs {b.output_arity}"
        )
    d = max(a.input_arity, b.input_arity, 1)
    box = _parse_box(args.box) if args.box else DomainBox.cube(-1.0, 1.0, d)
    if box.dimension < max(a.input_arity, b.input_arity):
        raise ArityError(
            f"--box has dimension {box.dimension}, operands need {max(a.input_arity, b.input_arity)}"
        )
    batch, va, vb, finite, dev = _sample(a, b, args.degree_bound, box, args.trials, args.seed)
    # The check fails on the finite values, or else, when some are not finite,
    # it exits 3, never passes.
    with np.errstate(over="ignore", invalid="ignore"):
        allowed = np.maximum(max(ABS_FLOOR, args.abs_tolerance),
                             args.tolerance * np.maximum(np.abs(va), np.abs(vb)))
        excess = np.where(finite, dev / allowed, 0.0)
    failed = float(excess.max(initial=0.0)) > 1.0
    if not (failed or finite.all()):
        print("check error: operand values are not finite (NaN or overflow)", file=sys.stderr)
        return 3
    print(f"max deviation = {float(dev.max(initial=0.0))!r} over {args.trials} trials: "
          f"{'FAIL' if failed else 'PASS'} (tolerance {args.tolerance!r})")
    if failed:
        node = int(np.unravel_index(np.argmax(excess), excess.shape)[0])
        k = int(np.searchsorted(batch.offsets, node, side="right")) - 1
        g, fm = batch.instance(k)
        # A value that is not finite is written as null: the failure was
        # found on the finite outputs, and the witness stays strict JSON.
        left, right = ([x if math.isfinite(x) else None for x in v[node].tolist()]
                       for v in (va, vb))
        _write_json({
            "graph": graph_to_json(g),
            "features": features_to_json(fm),
            "node": node - batch.offsets[k],
            "left": left,
            "right": right,
        }, None)
        return 5
    return 0


def cmd_bounds(args) -> int:
    exprs = _read_exprs(args)
    box = _parse_box(args.box)
    # Every line is bounded before any is written, so an error writes none.
    for iv in [image_bounds(e, args.degree_bound, box) for e in exprs]:
        _write_json([iv.lo, iv.hi], None, indent=None)
    return 0


def cmd_fmt(args) -> int:
    exprs = _read_exprs(args)
    for e in exprs:
        print(format_expr(e))
    return 0


# -- parser ---------------------------------------------------------------------

class _UsageError(Exception):
    """A command line argparse cannot read; its message is argparse's own."""


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors exit 3 through main, not 2 from
    inside argparse: 2 is the exit code of an arity mismatch."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise _UsageError(f"{self.prog}: error: {message}")


def _add_expr_flags(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--expr", help="expression literal")
    group.add_argument("--expr-file", help="text file, one expression per line")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built at its first call and shared by every
    later one: parse_args reads it and changes nothing in it, and each call
    gets a fresh namespace, so no option leaks from one main call to the next."""
    p = _Parser(
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
    pa.add_argument("--out", help="output path for the approximants, one per line "
                                  "(report goes to <out>.report.json)")
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
    pk.add_argument("--abs-tolerance", type=float, default=0.0,
                    help="absolute tolerance: a deviation up to it always passes")
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
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 3
    try:
        return args.func(args)
    except MPLangSyntaxError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except (json.JSONDecodeError, UnicodeDecodeError, _NestedTooDeep, InvalidGraphError,
            InvalidNetworkError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # a file that cannot be opened, read or written
        print(f"file error: {exc}", file=sys.stderr)
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
    except MemoryError:
        print("out of memory: the result is too large to build", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
