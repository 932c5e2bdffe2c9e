"""The toolkit's dependencies: numpy only, the names the benchmark traces, and no
dead code."""

import ast
import collections
import importlib
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None  # every import of scipy or a submodule now fails

import numpy as np
from mplangc import DomainBox, approximate, eval_expr, parse, random_union

box = DomainBox.cube(-1.0, 1.0, 1)
e = parse("sin(<>tanh(P1)) + 0.5*sigmoid(P1) + abs(P1)")
approx = approximate(e, 3, box, 0.1)
batch = random_union(3, box, 50, 0)
dev = eval_expr(e, batch.graph, batch.features) - eval_expr(approx, batch.graph, batch.features)
assert np.abs(dev).max() <= 0.1
"""


def test_the_toolkit_runs_without_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", WITHOUT_SCIPY], env=env, check=True, timeout=120)


def test_numpy_is_the_only_dependency():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    assert len(deps) == 1 and deps[0].startswith("numpy")


def test_every_traced_function_resolves():
    # bench/tracing.py wraps these by name; a renamed or deleted function
    # would otherwise surface only in a traced benchmark run.
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text())
    (traced,) = [ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "TRACED" for t in node.targets)]
    assert traced
    for module, name in traced:
        assert callable(getattr(importlib.import_module(f"mplangc.{module}"), name, None)), \
            f"mplangc.{module}.{name}"


def _imports(path: pathlib.Path) -> set[str]:
    """The modules path imports, by their top-level name; a package module
    imported relatively as ".name"."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            prefix = "." if node.level else ""
            found.update([prefix + node.module.split(".")[0]] if node.module
                         else [prefix + alias.name for alias in node.names])
    return found


def test_every_module_is_imported_by_the_package_or_a_script():
    # A module that no other module imports and no script entry point names
    # ships only for the tests or the benchmark, which keep their own.
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"].values()
    package = sorted((ROOT / "src" / "mplangc").glob("*.py"))
    imported = {entry.split(":")[0].split(".")[1] for entry in scripts}
    for path in package:
        imported |= {name[1:] for name in _imports(path) if name.startswith(".")}
    assert [path.stem for path in package
            if path.stem != "__init__" and path.stem not in imported] == []


def test_the_approximator_builds_and_proves_and_the_cli_samples():
    # approx.py neither samples nor evaluates: of the package it reads the
    # activations, the expressions and intervals, and the certificate error
    # it raises when a share underflows; it needs no numpy.
    # Graph instances are drawn in the CLI, the one module beside graphs.py
    # that calls random_union, and there in one place, which check and approx
    # share.
    package = ROOT / "src" / "mplangc"
    imports = _imports(package / "approx.py")
    assert {name for name in imports if name.startswith(".")} <= {
        ".activations", ".errors", ".expressions", ".intervals"}
    assert "numpy" not in imports
    calls = collections.Counter(
        path.name for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and "random_union" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None)))
    assert set(calls) == {"cli.py", "graphs.py"} and calls["cli.py"] == 1


def test_one_graph_sampler():
    # The degree-bounded rejection process is written once, in graphs._edges:
    # it is the only function that draws candidate pairs (an integers draw of
    # size (k, 2)), and random_graph and the batch sampler both call it.
    functions = {node.name: node for node in ast.parse(
        (ROOT / "src" / "mplangc" / "graphs.py").read_text()).body
        if isinstance(node, ast.FunctionDef)}

    def calls(function):
        return [node for node in ast.walk(function) if isinstance(node, ast.Call)]

    def draws_pairs(call):
        size = {kw.arg: kw.value for kw in call.keywords}.get("size")
        return (getattr(call.func, "attr", None) == "integers" and isinstance(size, ast.Tuple)
                and getattr(size.elts[-1], "value", None) == 2)

    assert [name for name, f in functions.items() if any(map(draws_pairs, calls(f)))] == [
        "_edges"]
    for name in ("random_graph", "_sample"):
        assert "_edges" in {getattr(c.func, "id", None) for c in calls(functions[name])}, name


def test_one_knot_placer():
    # The knots of sin, tanh and sigmoid are placed once, by activations._knots:
    # it is the only function that sizes a step from 8 * eps, as in
    # h = sqrt(8 eps / M); no grid is uniform (no linspace); and
    # relu_approximate and interpolant both reach it.
    tree = ast.parse((ROOT / "src" / "mplangc" / "activations.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def sizes_steps(node):
        return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
                and getattr(node.left, "value", None) == 8.0
                and getattr(node.right, "id", None) == "eps")

    assert [name for name, f in functions.items() if any(map(sizes_steps, ast.walk(f)))] == [
        "_knots"]
    assert "linspace" not in {getattr(node, "attr", None) for node in ast.walk(tree)}

    def reached(name, seen):
        seen.add(name)
        for node in ast.walk(functions[name]):
            callee = getattr(node, "func", None)
            if isinstance(callee, ast.Name) and callee.id in functions and callee.id not in seen:
                reached(callee.id, seen)
        return seen

    for name in ("relu_approximate", "interpolant"):
        assert "_knots" in reached(name, set()), name


def test_one_planner():
    # approx.py interpolates in one place, the plan: the first plan and the
    # re-plan run the same code, with different shares.  modulus_delta is no
    # part of the allocation any more.
    tree = ast.parse((ROOT / "src" / "mplangc" / "approx.py").read_text())
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "interpolant"]
    owners = [f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
              for node in ast.walk(f) if node in calls]
    assert owners == ["_plan"]
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert "interpolant" in imported and "modulus_delta" not in imported


def test_one_gain_rule():
    # Errors compose by one rule, approx._gain: |a| per scaling, p per <>, 1
    # per sum and a slope per application.  No other function of approx.py
    # takes |a| of a scaling, so the liveness walk, the sensitivities and the
    # plan's errors cannot drift apart.
    tree = ast.parse((ROOT / "src" / "mplangc" / "approx.py").read_text())
    owners = [f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
              for node in ast.walk(f) if isinstance(node, ast.Call)
              and getattr(node.func, "id", None) == "abs"
              and any(getattr(arg, "attr", None) == "factor" for arg in node.args)]
    assert owners == ["_gain"]


def test_one_cell_reading():
    # A piece's w^2/8 * M, how far a chord strays where f bends one way, is
    # computed in one function, activations._knots' piece: every cell the
    # walk tries and every step it sizes read it there, so no second reading
    # (of a crossing, a stray sliver or a step) can drift from the first.
    tree = ast.parse((ROOT / "src" / "mplangc" / "activations.py").read_text())
    owners = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.BinOp) and isinstance(child.op, ast.Div)
                    and getattr(child.right, "value", None) == 8.0):
                owners.append(owner)
            visit(child, child.name if isinstance(child, ast.FunctionDef) else owner)

    visit(tree, None)
    assert owners == ["piece"]


def _dead_code(path: pathlib.Path) -> list[str]:
    """Unused imports, and module-level private functions and classes that
    nothing in their module refers to."""
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:  # names listed in __all__ are exported
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    dead = []
    if path.name != "__init__.py":  # a package's imports are its interface
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(
                    node, "module", None) != "__future__":
                dead += [f"import {name}" for alias in node.names
                         if (name := (alias.asname or alias.name).split(".")[0]) not in used]
    dead += [f"def {node.name}" for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))
             and node.name.startswith("_") and node.name not in used]
    return dead


def test_no_unused_imports_or_private_definitions():
    dead = {path.name: found for path in sorted((ROOT / "src" / "mplangc").glob("*.py"))
            if (found := _dead_code(path))}
    assert not dead


def test_every_public_definition_is_named_elsewhere():
    # A public function, class or method that no source, test, bench script
    # or README names, beyond its definition and its __all__ entry, is dead
    # code.  Names are matched as words, so a method counts as named if any
    # method of that name is.
    modules = sorted((ROOT / "src" / "mplangc").glob("*.py"))
    defined, listed = collections.Counter(), collections.Counter()
    for path in modules:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                    for t in node.targets):
                listed.update(ast.literal_eval(node.value))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[node.name] += 1
            if isinstance(node, ast.ClassDef):
                defined.update(m.name for m in node.body if isinstance(m, ast.FunctionDef))
    places = [*modules, *(ROOT / "tests").glob("*.py"), *(ROOT / "bench").glob("*.py"),
              ROOT / "README.md"]
    named = collections.Counter(word for path in places
                                for word in re.findall(r"\w+", path.read_text()))
    assert sorted(name for name in defined if not name.startswith("_")
                  and named[name] <= defined[name] + listed[name]) == []


def test_no_module_imports_another_modules_private_name():
    # A private name belongs to its module; another module that needs the
    # value imports a public name instead.
    found = [f"{path.name}: {alias.name}"
             for path in sorted((ROOT / "src" / "mplangc").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.ImportFrom)
             and (node.level or (node.module or "").startswith("mplangc"))
             for alias in node.names if alias.name.startswith("_")]
    assert found == []


def test_one_slope_rule():
    # "How steep is f on this interval?" has one answer, activations.lipschitz:
    # closed form for sin, tanh and sigmoid, exact for the rest.  The walk's
    # slope cap, the first plan and the re-plan all read it, so no second
    # rule (a sup_slope, or an interpolant's own constant behind a switch on
    # its share) can drift from it.
    activations = ast.parse((ROOT / "src" / "mplangc" / "activations.py").read_text())
    assert "sup_slope" not in {node.name for node in ast.walk(activations)
                               if isinstance(node, ast.FunctionDef)}
    approx = ast.parse((ROOT / "src" / "mplangc" / "approx.py").read_text())
    (planned,) = [node for node in approx.body
                  if isinstance(node, ast.FunctionDef) and node.name == "_planned"]
    attributes = {node.attr for node in ast.walk(planned) if isinstance(node, ast.Attribute)}
    assert not {"lipschitz", "share"} & attributes
    assert "lipschitz" in {getattr(node.func, "id", None) for node in ast.walk(planned)
                           if isinstance(node, ast.Call)}


def test_one_knot_search():
    # activations._knots finds every knot with one bracketed search: the
    # cheap step and the cell both double and then bisect in one helper, by
    # one budget, so _knots holds one loop that halves a bracket.
    tree = ast.parse((ROOT / "src" / "mplangc" / "activations.py").read_text())
    (knots,) = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "_knots"]

    def halves(node):
        return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
                and getattr(node.left, "value", None) == 0.5
                and isinstance(node.right, ast.BinOp) and isinstance(node.right.op, ast.Add))

    loops = [node for node in ast.walk(knots) if isinstance(node, (ast.For, ast.While))
             and any(map(halves, ast.walk(node)))]
    assert len(loops) == 1
    assert "_BISECTIONS" not in {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
