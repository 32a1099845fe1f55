"""Rules on the library source, read with ``ast``: runtime checks raise
typed errors (an ``assert`` vanishes under ``-O``), arithmetic stays
exact (``math`` is used only for its integer functions), randomness
comes only from seeded ``random.Random`` instances, so output is
reproducible per seed, and a stratum the form or field cannot populate is
caught as ``StratumUnavailable``, never as one of its subclasses.  The CLI
loads neither ``dataclasses`` nor ``inspect``: every CLI process pays for
the modules it imports."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "isodet"
INTEGER_MATH = {"comb", "isqrt"}


def _nodes():
    """(file name, node) for every AST node of every library module."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            yield path.name, node


def test_sources_found():
    assert {"verify.py", "cli.py", "fields.py"} <= {p.name for p in SRC.glob("*.py")}


def test_no_assert_statements():
    found = [f"{name}:{node.lineno}" for name, node in _nodes() if isinstance(node, ast.Assert)]
    assert found == []


def test_no_raise_assertion_error():
    def raises_assertion_error(node):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return isinstance(exc, ast.Name) and exc.id == "AssertionError"

    found = [
        f"{name}:{node.lineno}"
        for name, node in _nodes()
        if isinstance(node, ast.Raise) and node.exc is not None and raises_assertion_error(node)
    ]
    assert found == []


def test_math_imports_are_integer_only():
    found = []
    for name, node in _nodes():
        if isinstance(node, ast.Import):
            found += [f"{name}:{node.lineno}" for alias in node.names if alias.name == "math"]
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [
                f"{name}:{node.lineno}: {alias.name}"
                for alias in node.names
                if alias.name not in INTEGER_MATH
            ]
    assert found == []


def test_randomness_only_through_seeded_instances():
    # random.random(), random.shuffle(...) and the like draw from the
    # module's hidden global generator, which no --seed reaches; with no
    # ``from random import``, random.Random(...) is the one spelling to check
    found = []
    for name, node in _nodes():
        if isinstance(node, ast.ImportFrom) and node.module == "random":
            found += [f"{name}:{node.lineno}: {alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "random":
            if node.attr != "Random":
                found.append(f"{name}:{node.lineno}: random.{node.attr}")
        elif isinstance(node, ast.Call) and ast.unparse(node.func) == "random.Random" and not node.args:
            found.append(f"{name}:{node.lineno}: unseeded random.Random()")
    assert found == []


def test_strata_left_out_by_one_rule():
    # a handler naming one subclass would leave out some strata and not
    # others; code catches the base class StratumUnavailable instead
    subclasses = {"InsufficientWittIndex", "EigenvalueNotInField"}
    found = [
        f"{name}:{node.lineno}"
        for name, node in _nodes()
        if isinstance(node, ast.ExceptHandler) and node.type is not None
        and any(cls in ast.unparse(node.type) for cls in subclasses)
    ]
    assert found == []


def test_no_dataclasses_import():
    found = []
    for name, node in _nodes():
        if isinstance(node, ast.Import):
            found += [f"{name}:{node.lineno}" for alias in node.names if alias.name.split(".")[0] == "dataclasses"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dataclasses":
            found.append(f"{name}:{node.lineno}")
    assert found == []


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # -S: no site module, so no .pth file of the environment imports
    # either module first and masks the check
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    code = "import sys, isodet.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
