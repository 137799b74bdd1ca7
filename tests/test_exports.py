"""The public surface: every exported name exists, every test oracle is used."""

import ast
import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import roughsew


def test_every_all_entry_resolves():
    names = [m.name for m in pkgutil.iter_modules(roughsew.__path__, "roughsew.")]
    assert "roughsew.rsde" in names and "roughsew.sewing" in names
    missing = {}
    for name in names:
        module = importlib.import_module(name)
        exported = getattr(module, "__all__", ())
        assert len(set(exported)) == len(exported), name
        missing[name] = [attr for attr in exported if not hasattr(module, attr)]
    assert not any(missing.values()), missing


def test_benchmark_tracer_wraps_every_binding():
    # the benchmark's tracer rebinds every public function and a list of
    # required cross-module bindings; a refactor that drops one fails here,
    # not only in the benchmark's traced run.  -B keeps perfbench/ unwritten.
    root = Path(__file__).resolve().parents[1]
    code = (
        "import sys; sys.path[:0] = sys.argv[1:3]\n"
        "import tracer\n"
        "t = tracer.Tracer('bindings'); t.install()\n"
        "missed = t.unwrapped_bindings()\n"
        "assert missed == [], missed\n"
    )
    subprocess.run(
        [sys.executable, "-B", "-c", code, str(root / "perfbench"), str(root / "src")],
        check=True,
        timeout=120,
    )


def _referenced_names(tree):
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def test_every_public_oracle_has_a_caller():
    tests = Path(__file__).parent
    oracles = ast.parse((tests / "oracles.py").read_text())
    refs = {
        node.name: _referenced_names(node)
        for node in oracles.body
        if isinstance(node, ast.FunctionDef)
    }
    used = set().union(*(_referenced_names(ast.parse(path.read_text()))
                         for path in tests.glob("test_*.py")))
    unused = [
        name for name in refs
        if not name.startswith("_")
        and name not in used
        and not any(name in names for other, names in refs.items() if other != name)
    ]
    assert unused == []
