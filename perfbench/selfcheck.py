#!/usr/bin/env python3
"""Self-check of the benchmark's own parts; exits non-zero on a problem.

    python3 perfbench/selfcheck.py

- BENCHMARK.json names the same workloads, rationales, metrics and units
  as perfbench/run.py.
- The output checks accept real CLI output on small spaces, and reject
  each of a list of corrupted copies (altered census tallies, a failed
  status, an equation-cut mismatch, an altered atlas dim or codim, a
  missing atlas row, an altered generator count, a wrong point-count dim
  or count).
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys

import checks
import run


def benchmark_json_problems() -> list[str]:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    workloads = {w["name"]: w["why"] for w in spec["workloads"]}
    if workloads != {name: why for name, (why, _) in run.WORKLOADS.items()}:
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    if {m["name"]: m["unit"] for m in spec["end_to_end"]} != run.END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if {m["name"]: m["unit"] for m in spec["per_layer"]} != run.per_layer_units():
        problems.append("BENCHMARK.json per_layer differs from run.per_layer_units()")
    return problems


def cli_output(argv: list[str]) -> str:
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "isodet.cli", *argv], env=env, cwd=run.ROOT,
        capture_output=True, text=True, timeout=120, check=True,
    )
    return proc.stdout


def verify_corruptions(reports: list[dict]):
    """(description, corrupted output) pairs for `verify all` reports."""

    def edit(description, fn):
        copied = copy.deepcopy(reports)
        fn(copied)
        return description, "\n".join(json.dumps(r) for r in copied)

    def shift_census(a, b):
        def fn(rs):
            rs[0]["tallies"][a] += 1
            rs[0]["tallies"][b] -= 1
        return fn

    def cut(key, value):
        def fn(rs):
            rs[3]["tallies"][key] = value
        return fn

    def count_dim(rs):
        rs[-1]["tallies"]["dim"] += 1

    def dense_count(rs):
        rs[-1]["tallies"]["counts"]["5"] -= 1

    def fail(rs):
        rs[1]["status"] = "fail"

    return [
        edit("census tally moved between ranks", shift_census("(1,0)", "(2,2)")),
        edit("census sign components unequal", shift_census("(2,0,+)", "(2,0,-)")),
        edit("census total altered", lambda rs: rs[0]["tallies"].update(total=rs[0]["tallies"]["total"] + 1)),
        edit("equation-cut mismatch", cut("mismatches", 1)),
        edit("equation-cut locus altered", cut("locus", 0)),
        edit("point-count dim altered", count_dim),
        edit("point-count of the dense stratum altered", dense_count),
        edit("a report failed", fail),
        edit("a report dropped", lambda rs: rs.pop()),
    ]


def atlas_corruptions(atlas: dict):
    def edit(description, fn):
        copied = copy.deepcopy(atlas)
        fn(copied)
        return description, json.dumps(copied)

    def bump(key):
        def fn(a):
            a["rows"][1][key] += 1
        return fn

    def generators(a):
        slot = next(iter(a["rows"][0]["generators"].values()))
        slot["count"] += 1

    return [
        edit("atlas dim altered", bump("dim")),
        edit("atlas codim altered", bump("codim")),
        edit("atlas row dropped", lambda a: a["rows"].pop()),
        edit("atlas generator count altered", generators),
    ]


def main() -> int:
    problems = benchmark_json_problems()
    space = checks.Space("symmetric", 2, 4, 3)
    out = cli_output(["verify", "all", "--kind", "sym", "-e", "2", "-f", "4", "--field", "p=3", "--format", "json"])
    cases = [("verify", space, "real output", out, False)]
    reports = [json.loads(line) for line in out.splitlines()]
    cases += [("verify", space, d, text, True) for d, text in verify_corruptions(reports)]
    for space in (checks.Space("symmetric", 3, 6, 5), checks.Space("alternating", 3, 6, 5)):
        out = cli_output(["atlas", "--kind", space.kind[:3], "-e", "3", "-f", "6", "--field", "p=5", "--format", "json"])
        cases.append(("atlas", space, "real output", out, False))
        cases += [("atlas", space, d, text, True) for d, text in atlas_corruptions(json.loads(out))]
    for command, space, description, text, corrupted in cases:
        errors = checks.CHECKERS[command](space, text)
        verdict = "rejected" if errors else "accepted"
        print(f"{command} {space.kind} e{space.e}f{space.f}: {description}: {verdict}")
        if bool(errors) != corrupted:
            problems.append(f"{command}: {description} was {verdict}: {errors}")
    for problem in problems:
        print(f"PROBLEM {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
