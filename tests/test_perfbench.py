"""The benchmark's own output checks (``perfbench/checks.py``) run here
too, so an output change the benchmark would refuse fails the test suite
first; and the library's stratum rule agrees with the closed form those
checks state on their own."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from isodet.fields import field_create
from isodet.forms_orbits import split_config, valid_params

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
# no bytecode caches inside the benchmark's directory
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")


@pytest.fixture(scope="module")
def bench():
    """perfbench's ``checks`` and ``run`` modules (``run`` imports ``checks``
    as a top-level module)."""
    sys.path.insert(0, str(PERFBENCH))
    cache, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import checks
        import run
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = cache
    return checks, run


def test_valid_params_equals_benchmark_admissible(bench):
    checks, _ = bench
    F3 = field_create("prime", 3)
    for kind in ("symmetric", "alternating"):
        for e in range(1, 6):
            for f in range(3 + (kind == "alternating"), 11, 1 + (kind == "alternating")):
                got = [(p.r1, p.r2, p.sign) for p in valid_params(split_config(e, f, kind, F3))]
                assert got == checks.admissible(checks.Space(kind, e, f, 3)), (kind, e, f)


def test_selfcheck_passes():
    proc = subprocess.run([sys.executable, str(PERFBENCH / "selfcheck.py")], cwd=ROOT, env=ENV,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_workload_outputs_pass_the_benchmark_checks(bench):
    checks, run = bench
    for name, (_, invocations) in run.WORKLOADS.items():
        for inv in invocations:
            argv = inv.argv(0)
            proc = subprocess.run([sys.executable, "-m", "isodet.cli", *argv], cwd=ROOT, env=ENV,
                                  capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, (name, argv, proc.stderr)
            checker = checks.CHECKERS[inv.command.split()[0]]
            kwargs = {} if inv.primes is None else {"primes": inv.primes}
            assert checker(inv.space, proc.stdout, **kwargs) == [], (name, argv)
