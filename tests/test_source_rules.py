"""Rules on the library source, read with ``ast``: runtime checks raise
typed errors (an ``assert`` vanishes under ``-O``), arithmetic stays
exact (``math`` is used only for its integer functions), randomness
comes only from seeded ``random.Random`` instances, so output is
reproducible per seed, and a stratum the form or field cannot populate is
caught as ``StratumUnavailable``, never as one of its subclasses.  Only
``fields.py`` tests a field's kind; every other module reaches payloads
through the ``Field`` methods, and in ``linalg.py`` only the Pfaffian's
own expansion adds or subtracts entries.  Only
``RationalField`` imports ``fractions``, so no finite-field run loads
exact rationals.  The CLI
loads neither ``dataclasses`` nor ``inspect``, and only its ``verify``
command loads ``verify.py``: every CLI process pays for the modules it
imports.  The package ``__init__.py`` imports nothing, so each name has one
import path, its module, and importing a module loads only its own imports;
it states the version that ``pyproject.toml`` declares.  The CLI has one way
out, ``dispatch``, which alone
picks the output format and writes stdout or ``--out``.  A ``verify``
option that is not given is not set, so only the library states defaults.
Only ``forms_orbits.py`` calls ``params_valid``: every other module refuses
a bad stratum label through ``require_valid``.  In ``verify.py`` only
``_per_stratum`` and ``guarded`` catch ``StratumUnavailable``, and
``_per_stratum`` never re-raises it, so a check leaves out a stratum it
cannot populate whether it runs alone or in ``run_all``.  ``verify.py``
calls ``classify`` in two places only: the row-space classifier of the
exhaustive checks and the uniform draws of the sample pool.  ``verify.py``
never calls ``polyval``: every vanishing verdict goes through
``GeneratorSet.vanishes_at``.  A value derived once per process is kept
by ``functools.cache``: ``equations.py`` and ``forms_orbits.py`` bind no
module-level dict, and ``verify.py`` only its two hand-kept caches."""

import ast
import os
import re
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


def test_verify_leaves_out_strata_in_one_place():
    # _per_stratum leaves a stratum out and never re-raises; guarded alone
    # turns the error of a whole check into a skipped report
    tree = ast.parse((SRC / "verify.py").read_text(encoding="utf-8"))
    catchers, raising = [], []
    for top in tree.body:
        name = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.ExceptHandler) and node.type is not None \
                    and "StratumUnavailable" in ast.unparse(node.type):
                catchers.append(name)
                raising += [name for x in ast.walk(node) if isinstance(x, ast.Raise)]
    assert catchers == ["_per_stratum", "guarded"]
    assert raising == []


def test_verify_classifies_in_two_places():
    # every exhaustive check reads row spaces classified once by
    # _row_space_sweep; only the sample pool's uniform draws classify too
    tree = ast.parse((SRC / "verify.py").read_text(encoding="utf-8"))
    callers = [
        getattr(top, "name", "<module>") for top in tree.body for node in ast.walk(top)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "classify"
    ]
    assert callers == ["_row_space_sweep", "_sample_points"]


def test_verify_reads_the_matrix_table_in_one_place():
    # every per-matrix read (a stray census matrix, an unstable span, the
    # first wrong matrix of a failing check) goes through _matrices
    tree = ast.parse((SRC / "verify.py").read_text(encoding="utf-8"))
    callers = [
        getattr(top, "name", "<module>") for top in tree.body for node in ast.walk(top)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "classification_table"
    ]
    assert callers == ["_matrices"]


def test_verify_reads_one_vanishing_verdict():
    # no evaluator of verify's own: each cut, exhaustive or sampled, and
    # the closure check read GeneratorSet.vanishes_at
    tree = ast.parse((SRC / "verify.py").read_text(encoding="utf-8"))
    found = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "polyval"
        or isinstance(node, ast.Name) and node.id == "polyval"
    ]
    assert found == []


DICT_CALLS = {"dict", "dict.fromkeys", "defaultdict", "collections.defaultdict"}


def _module_dicts(filename):
    """Names a library module binds at its top level to a dict."""
    tree = ast.parse((SRC / filename).read_text(encoding="utf-8"))
    found = []
    for node in tree.body:
        value = getattr(node, "value", None)
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and (
            isinstance(value, (ast.Dict, ast.DictComp))
            or isinstance(value, ast.Call) and ast.unparse(value.func) in DICT_CALLS
        ):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [ast.unparse(t) for t in targets]
    return found


def test_process_caches_are_functools_caches():
    # the classification cache stays by hand because the budget gates each
    # read, and the point cache because it holds seeded draw streams
    assert _module_dicts("equations.py") == []
    assert _module_dicts("forms_orbits.py") == []
    assert _module_dicts("verify.py") == ["_CLASS_CACHE", "_POINT_CACHE"]


def test_only_fields_branches_on_the_field_kind():
    # a comparison of some ``<expr>.kind`` with a field kind name; the form
    # kinds (SYMMETRIC, ALTERNATING) and the --field grammar do not match
    field_kinds = {"prime", "quadratic-extension", "rationals"}

    def names_field_kind(node):
        items = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
        return any(isinstance(x, ast.Constant) and x.value in field_kinds for x in items)

    found = []
    for name, node in _nodes():
        if name != "fields.py" and isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(isinstance(x, ast.Attribute) and x.attr == "kind" for x in operands) and any(
                names_field_kind(x) for x in operands
            ):
                found.append(f"{name}:{node.lineno}")
    assert found == []


def test_linalg_leaves_row_arithmetic_to_the_field():
    # elimination, products and sums combine rows through the Field row
    # methods; the Pfaffian's expansion is an independent check on det
    tree = ast.parse((SRC / "linalg.py").read_text(encoding="utf-8"))
    defs = [(node.name, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        defs += [(f"{cls.name}.{node.name}", node) for node in cls.body if isinstance(node, ast.FunctionDef)]
    found = sorted({
        name for name, fn in defs for node in ast.walk(fn)
        if isinstance(node, ast.Attribute) and node.attr in ("add", "sub")
    })
    assert found == ["Matrix.pfaffian"]


def test_no_dataclasses_import():
    found = []
    for name, node in _nodes():
        if isinstance(node, ast.Import):
            found += [f"{name}:{node.lineno}" for alias in node.names if alias.name.split(".")[0] == "dataclasses"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dataclasses":
            found.append(f"{name}:{node.lineno}")
    assert found == []


def test_only_rational_field_imports_fractions():
    # the rational type is RationalField's alone, imported when a field is
    # built, so a finite-field process never loads fractions
    found = []
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            found += [(path.name, getattr(top, "name", "<module>")) for node in ast.walk(top)
                      if isinstance(node, ast.ImportFrom) and node.module == "fractions"
                      or isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names)]
    assert found == [("fields.py", "RationalField")]


def test_finite_field_runs_load_no_exact_rationals():
    # -S, as below; atlas and verify over F_7 leave fractions (and the
    # decimal and numbers it imports) unloaded, and a rationals field loads it
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    code = (
        "import contextlib, io, sys, isodet.cli\n"
        "form = ['--kind', 'sym', '--field', 'p=7']\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    status = [isodet.cli.main(['atlas', *form, '-e', '4', '-f', '8']),\n"
        "              isodet.cli.main(['verify', 'all', *form, '-e', '2', '-f', '3', '--primes', '3,7'])]\n"
        "rationals = {'fractions', 'decimal', 'numbers'}\n"
        "loaded = sorted(rationals & set(sys.modules))\n"
        "from isodet.fields import field_create\n"
        "field_create('rationals')\n"
        "print(status, loaded, 'fractions' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[0, 0] [] True"


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # -S: no site module, so no .pth file of the environment imports
    # either module first and masks the check
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    code = "import sys, isodet.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_only_the_verify_command_loads_verify():
    # an atlas run leaves the harness uncompiled, and the package does not
    # hand out the harness's names
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    code = (
        "import contextlib, io, sys, isodet.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    status = isodet.cli.main(['atlas', '--kind', 'sym', '-e', '2', '-f', '4', '--field', 'p=7'])\n"
        "loaded = 'isodet.verify' in sys.modules\n"
        "import isodet\n"
        "print(status, loaded, hasattr(isodet, 'run_all'))"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0 False False"


def test_a_module_import_loads_only_what_the_module_imports():
    # -S, as above; the package re-exports nothing, so importing one module
    # compiles that module and its own imports only
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    code = "import sys, {0}; print(sorted(m for m in sys.modules if m.split('.')[0] == 'isodet'))"
    loaded = {}
    for module in ("isodet", "isodet.fields", "isodet.forms_orbits"):
        out = subprocess.run([sys.executable, "-S", "-c", code.format(module)],
                             env=env, capture_output=True, text=True, check=True)
        loaded[module] = ast.literal_eval(out.stdout.strip())
    assert loaded["isodet"] == ["isodet"]
    assert loaded["isodet.fields"] == ["isodet", "isodet.errors", "isodet.fields"]
    assert "isodet.equations" not in loaded["isodet.forms_orbits"]


def test_package_namespace_is_its_modules():
    # one import path per name: __init__.py imports nothing and hands out
    # nothing on first use
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    found = [type(node).__name__ for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             or isinstance(node, ast.FunctionDef) and node.name == "__getattr__"]
    assert found == []


def test_one_statement_of_the_version():
    # requires-python >= 3.10 rules out tomllib, so the project table is
    # read with a pattern
    pyproject = (SRC.parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", pyproject, re.M | re.S).group(1)
    declared = re.search(r'^version\s*=\s*"([^"]+)"', project, re.M).group(1)
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    stated = [ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
              and [ast.unparse(t) for t in node.targets] == ["__version__"]]
    assert stated == [declared]


def _cli_output(node):
    """What ``node`` of cli.py does with the program's output, if anything."""
    text = ast.unparse(node) if isinstance(node, (ast.Attribute, ast.Call)) else ""
    if text in ("args.format", "sys.stdout", "sys.stderr"):
        return text
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        keywords = {k.arg: k.value for k in node.keywords}
        if node.func.id == "print" and "file" not in keywords:
            return "sys.stdout"
        mode = node.args[1:2] or [v for k, v in keywords.items() if k == "mode"]
        if node.func.id == "open" and mode and "r" not in ast.literal_eval(mode[0]):
            return "open for writing"
    return None


def test_cli_has_one_way_out():
    # subcommands return their documents and text lines; stderr carries
    # only _diagnose's JSON and dispatch's usage line
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    found = set()
    for fn in (node for node in tree.body if isinstance(node, ast.FunctionDef)):
        usage = {
            id(node) for handler in ast.walk(fn)
            if isinstance(handler, ast.ExceptHandler) and ast.unparse(handler.type or handler) == "UsageError"
            for node in ast.walk(handler)
        }
        for node in ast.walk(fn):
            what = _cli_output(node)
            if what:
                found.add((fn.name + (" usage branch" if id(node) in usage else ""), what))
    assert found == {
        ("dispatch", "args.format"),
        ("dispatch", "sys.stdout"),
        ("dispatch", "open for writing"),
        ("dispatch usage branch", "sys.stderr"),
        ("_diagnose", "sys.stderr"),
    }


def test_verify_options_leave_defaults_to_the_library():
    # a verify option not given is not passed on, so the checks' own
    # signatures state the defaults; only the check and --timing are set
    from isodet.cli import VERIFY_CHECKS, build_parser

    form = ["--kind", "sym", "-e", "1", "-f", "3"]
    atlas = vars(build_parser().parse_args(["atlas", *form]))
    for check in VERIFY_CHECKS:
        verify = vars(build_parser().parse_args(["verify", check, *form]))
        assert verify.keys() - atlas.keys() == {"check", "timing"}


def test_only_forms_orbits_tests_a_label():
    # every other module refuses a bad stratum label through require_valid,
    # so the label rule and its message are stated once
    found = [
        f"{name}:{node.lineno}"
        for name, node in _nodes()
        if name != "forms_orbits.py" and isinstance(node, ast.Call)
        and ast.unparse(node.func).split(".")[-1] == "params_valid"
    ]
    assert found == []
