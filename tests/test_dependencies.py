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
