#!/usr/bin/env python3
"""The isodet benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Each workload is a fixed list of isodet CLI
invocations (`python -m isodet.cli ... --format json --seed <n>` with
PYTHONPATH=src), each in a fresh interpreter, run one after another from
this process.  Every output is checked against closed forms computed in
perfbench/checks.py; an invocation fails if it exits non-zero, times out,
or fails a check.

--trace 0 (end-to-end, tracing off):
  setup_s      median wall time of fresh interpreters that import
               isodet.cli and build the workload's configurations,
               SETUP_PROBES before the passes and one after each pass, so
               that the median spans the run;
  wall_s       the time to a verdict: mean over the faster half of the
               passes of the wall time of one pass over the workload's
               invocations.  On a shared host the speed of identical work
               swings by up to 1.5x, in stretches of a few seconds to
               minutes, and a slow stretch only ever adds time; of the
               median, the minimum and this trimmed mean over the same
               runs on a shared 2-vCPU host, this spread least from run
               to run.  Every pass's wall time is in the metadata line;
  peak_rss_mb  median over passes of the largest peak RSS of one child,
               from that child's own rusage (os.wait4).
  Passes repeat while the next one is expected to end within --seconds;
  there is always at least one.

--trace 1 (per layer): one untraced pass, then one pass with every
invocation under perfbench/traced_cli.py, then the field
microbenchmarks; --seconds is not used.  Reports call counts and self times of the public
functions of each module, the counters listed in traced_cli.py,
`cli.import_s`, and the tracing overhead.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` (invocations) and `metrics`.  The line before it
holds run metadata.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from checks import CHECKERS, Space

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"
RUN_LIMIT_S = 170.0     # the whole run must end within 180 s
SETUP_PROBES = 4       # before the passes; one more follows each pass


@dataclass(frozen=True)
class Invocation:
    command: str          # e.g. "verify all"
    space: Space
    primes: tuple[int, ...] | None = None   # verify's --primes; None keeps the CLI default

    @property
    def field_spec(self) -> str:
        return "rationals" if self.space.p is None else f"p={self.space.p}"

    def argv(self, seed: int) -> list[str]:
        s = self.space
        args = [*self.command.split(), "--kind", s.kind[:3], "-e", str(s.e), "-f", str(s.f)]
        if s.p is not None:
            args += ["--field", self.field_spec]
        if self.primes is not None:
            args += ["--primes", ",".join(map(str, self.primes))]
        return args + ["--format", "json", "--seed", str(seed)]


def _sym(e, f, p=None):
    return Space("symmetric", e, f, p)


def _alt(e, f, p=None):
    return Space("alternating", e, f, p)


# name -> (why, invocations); the why is also recorded in BENCHMARK.json
WORKLOADS = {
    "exhaustive-f7": (
        "F_7 census table of 117649 sym 2x3 matrices on the prime fast path, read by exhaustive cuts and "
        "F_7 point counts; plus sym 2x4 over F_3 for the (2,0,+/-) split; verify does the work",
        [Invocation("verify all", _sym(2, 3, 7), primes=(3, 7)),
         Invocation("verify all", _sym(2, 4, 3), primes=(3,))],
    ),
    "atlas-f7": (
        "atlas sym e4f8 and alt e4f10 over F_7: mostly cofactor-expansion generator construction "
        "(equations), with star operator and Pfaffians; verify idle",
        [Invocation("atlas", _sym(4, 8, 7)), Invocation("atlas", _alt(4, 10, 7))],
    ),
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

_CALLS_SELF = ("calls", "self_s")
PER_LAYER_SPANS = {
    "verify.check_equation_cut": ("self_s",),
    "verify.exhaustive_census": ("self_s",),
    "verify.check_closure_order": ("self_s",),
    "verify.check_dimensions": ("self_s",),
    "verify.point_count_dimension_estimate": ("self_s",),
    "equations.rank_condition_generators": _CALLS_SELF,
    "equations.component_generators": ("self_s",),
    "equations.star_operator": ("self_s",),
    "equations.minor_polynomial": _CALLS_SELF,
    "equations.poly_det": _CALLS_SELF,
    "equations.poly_pfaffian": ("self_s",),
    "equations.GeneratorSet.all_vanish": _CALLS_SELF,
    "forms_orbits.random_isometry": _CALLS_SELF,
    "forms_orbits.random_orbit_point": ("self_s",),
    "forms_orbits.classify": _CALLS_SELF,
    "forms_orbits.tangent_dimension": ("self_s",),
    "forms_orbits.representative": ("self_s",),
    **{f"linalg.Matrix.{m}": _CALLS_SELF
       for m in ("rank", "det", "inverse", "kernel_basis", "__matmul__", "__add__", "scale")},
}
FIELD_KINDS = ("prime", "quadratic-extension", "rationals")


def per_layer_units() -> dict:
    """Every per-layer metric name and its unit, in report order."""
    units = {
        "verify.classification_table.build_s": "s",
        "verify.classification_table.hit_ratio": "ratio",
        "verify.classification_table.matrices_per_s": "1/s",
    }
    for name, stats in PER_LAYER_SPANS.items():
        for stat in stats:
            units[f"{name}.{stat}"] = "count" if stat == "calls" else "s"
    units.update({
        "equations.generators": "count",
        "equations.terms": "count",
        "forms_orbits.random_isometry.attempts_per_call": "count",
        "forms_orbits.random_isometry.fallbacks": "count",
    })
    for kind in FIELD_KINDS:
        for op in ("add", "mul", "inv", "sqrt"):
            units[f"fields.{kind}.{op}_ns"] = "ns"
    units.update({
        "cli.import_s": "s",
        "trace.overhead_ratio": "ratio",
        "trace.wall_s": "s",
        "trace.spanned_s": "s",
        "trace.unspanned_s": "s",
    })
    return units


# --------------------------------------------------------------------------
# children

@dataclass
class Child:
    returncode: int
    wall_s: float
    maxrss_mb: float
    stdout: str
    stderr: str
    timed_out: bool


def run_child(args: list[str], deadline: float) -> Child:
    """Run `python <args>` to completion or until `deadline` (monotonic),
    with its own rusage from os.wait4."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    fired = []

    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err, env=env, cwd=ROOT)

        def kill():
            fired.append(True)
            proc.kill()

        timer = threading.Timer(max(0.0, deadline - time.monotonic()), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(
            proc.returncode, wall, usage.ru_maxrss / 1024.0,
            out.read().decode("utf-8", "replace"), err.read().decode("utf-8", "replace"), bool(fired),
        )


def invocation_errors(inv: Invocation, child: Child) -> list[str]:
    if child.timed_out:
        return ["timed out"]
    if child.returncode != 0:
        return [f"exit code {child.returncode}: {child.stderr.strip()[-500:]}"]
    try:
        checker = CHECKERS[inv.command.split()[0]]
        if inv.primes is not None:
            return checker(inv.space, child.stdout, primes=inv.primes)
        return checker(inv.space, child.stdout)
    except (KeyError, IndexError, TypeError, AttributeError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]


@dataclass
class Pass:
    wall_s: float
    peak_rss_mb: float
    attempted: int
    failed: int
    spans: list


def run_pass(invocations, seed: int, deadline: float, traced: bool = False) -> Pass:
    """One pass over a workload's invocations, each in a fresh interpreter."""
    wall = rss = 0.0
    failed = 0
    spans = []
    for i, inv in enumerate(invocations):
        if traced:
            spans_path = OUT / f"spans-{os.getpid()}-{i}.bin"
            args = [str(HERE / "traced_cli.py"), str(spans_path), *inv.argv(seed)]
        else:
            args = ["-m", "isodet.cli", *inv.argv(seed)]
        child = run_child(args, deadline)
        wall += child.wall_s
        rss = max(rss, child.maxrss_mb)
        errors = invocation_errors(inv, child)
        if traced and not errors:
            try:
                spans.append(load_spans(spans_path))
            except (OSError, ValueError) as exc:
                errors = [f"no spans: {exc}"]
        if traced:
            spans_path.unlink(missing_ok=True)
        if errors:
            failed += 1
            print(f"FAIL {' '.join(inv.argv(seed))}: " + "; ".join(errors), file=sys.stderr)
    return Pass(wall, rss, len(invocations), failed, spans)


def probe(args: list[str], deadline: float) -> tuple[float, dict]:
    child = run_child([str(HERE / "probe.py"), *args], deadline)
    if child.returncode != 0:
        raise RuntimeError(f"probe {args[0]} failed: {child.stderr.strip()[-500:]}")
    return child.wall_s, json.loads(child.stdout.splitlines()[-1])


def setup_probes(invocations, deadline: float, n: int = SETUP_PROBES) -> list[tuple[float, dict]]:
    configs = json.dumps([[inv.space.kind, inv.space.e, inv.space.f, inv.field_spec] for inv in invocations])
    return [probe(["setup", configs], deadline) for _ in range(n)]


# --------------------------------------------------------------------------
# metrics

def faster_half_mean(values) -> float:
    ordered = sorted(values)
    return statistics.fmean(ordered[: max(1, len(ordered) // 2)])


def end_to_end(invocations, seed: int, seconds: float, deadline: float):
    setups = setup_probes(invocations, deadline)
    passes = []
    start = time.monotonic()
    while True:
        passes.append(run_pass(invocations, seed, deadline))
        setups += setup_probes(invocations, deadline, 1)
        typical = statistics.median(p.wall_s for p in passes)
        now = time.monotonic()
        print(f"pass {len(passes)}: wall {passes[-1].wall_s:.3f} s, peak rss {passes[-1].peak_rss_mb:.1f} MB")
        if now - start + typical > seconds or now + 1.5 * max(p.wall_s for p in passes) > deadline:
            break
    metrics = {
        "wall_s": faster_half_mean([p.wall_s for p in passes]),
        "setup_s": statistics.median(wall for wall, _ in setups),
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
    }
    return metrics, passes, []


def load_spans(path: Path) -> dict:
    """A span file written by traced_cli.py."""
    with open(path, "rb") as fh:
        doc = json.loads(fh.readline())
        n = doc["spans"]
        for key, code in (("name_idx", "i"), ("parent", "i"), ("start", "d"), ("end", "d")):
            doc[key] = array(code)
            doc[key].fromfile(fh, n)
    return doc


def aggregate_spans(docs: list[dict]) -> tuple[Counter, Counter, Counter, float]:
    """Calls and self times per span name over several span files, their
    summed counters, and the time covered by top-level spans."""
    calls, self_s, counters = Counter(), Counter(), Counter()
    spanned = 0.0
    for doc in docs:
        names = doc["names"]
        child_s = [0.0] * doc["spans"]
        for parent, t0, t1 in zip(doc["parent"], doc["start"], doc["end"]):
            if parent >= 0:
                child_s[parent] += t1 - t0
            else:
                spanned += t1 - t0
        for ni, t0, t1, covered in zip(doc["name_idx"], doc["start"], doc["end"], child_s):
            calls[names[ni]] += 1
            self_s[names[ni]] += t1 - t0 - covered
        counters.update(doc["counters"])
    return calls, self_s, counters, spanned


def per_layer(invocations, seed: int, deadline: float):
    setups = setup_probes(invocations, deadline)
    plain = run_pass(invocations, seed, deadline)
    traced = run_pass(invocations, seed, deadline, traced=True)
    setups += setup_probes(invocations, deadline)
    _, field_ns = probe(["fields", str(seed)], deadline)
    calls, self_s, counters, spanned = aggregate_spans(traced.spans)
    errors = []
    if abs(sum(self_s.values()) - spanned) > 1e-6 * max(1.0, spanned) or spanned > traced.wall_s:
        errors.append(f"span accounting: self times {sum(self_s.values())} s, spanned {spanned} s, wall {traced.wall_s} s")

    metrics = {}
    table = "verify.classification_table"
    table_calls = counters[f"{table}.builds"] + counters[f"{table}.hits"]
    build_s = float(counters[f"{table}.build_s"])
    metrics[f"{table}.build_s"] = build_s
    metrics[f"{table}.hit_ratio"] = counters[f"{table}.hits"] / table_calls if table_calls else 0.0
    metrics[f"{table}.matrices_per_s"] = counters[f"{table}.matrices"] / build_s if build_s else 0.0
    for name, stats in PER_LAYER_SPANS.items():
        for stat in stats:
            metrics[f"{name}.{stat}"] = calls[name] if stat == "calls" else self_s[name]
    iso = "forms_orbits.random_isometry"
    metrics["equations.generators"] = counters["equations.generators"]
    metrics["equations.terms"] = counters["equations.terms"]
    metrics[f"{iso}.attempts_per_call"] = counters[f"{iso}.attempts"] / calls[iso] if calls[iso] else 0.0
    metrics[f"{iso}.fallbacks"] = counters[f"{iso}.fallbacks"]
    metrics.update(field_ns)
    metrics["cli.import_s"] = statistics.median(info["import_s"] for _, info in setups)
    metrics["trace.overhead_ratio"] = traced.wall_s / plain.wall_s
    metrics["trace.wall_s"] = traced.wall_s
    metrics["trace.spanned_s"] = spanned
    metrics["trace.unspanned_s"] = traced.wall_s - spanned

    print(f"untraced pass {plain.wall_s:.3f} s, traced pass {traced.wall_s:.3f} s")
    for name in sorted(self_s, key=self_s.get, reverse=True):
        print(f"  {name:45} calls {calls[name]:8d}  self {self_s[name]:9.4f} s")
    return metrics, [plain, traced], errors


# --------------------------------------------------------------------------

def metadata() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            pass
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((SRC / "isodet").glob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
        "src_lines": src_lines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "isodet" / "cli.py").is_file():
        print(f"isodet sources not found under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + RUN_LIMIT_S
    invocations = WORKLOADS[args.workload][1]
    if args.trace:
        metrics, passes, errors = per_layer(invocations, args.seed, deadline)
        units = per_layer_units()
    else:
        metrics, passes, errors = end_to_end(invocations, args.seed, args.seconds, deadline)
        units = END_TO_END
    for error in errors:
        print(f"FAIL {error}", file=sys.stderr)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    meta = metadata()
    meta.update(workload=args.workload, seed=args.seed, trace=args.trace,
                pass_wall_s=[p.wall_s for p in passes], failed_ratio=failed / attempted)
    print(json.dumps({"meta": meta}, sort_keys=True))
    result = {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
