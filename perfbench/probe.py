"""Fresh-interpreter probes for the benchmark; each prints one JSON object.

    python perfbench/probe.py setup '<json list of [kind, e, f, field]>'
        Time `import isodet.cli`, then build each configuration through
        public calls (field_create, split_config, hyperbolic_basis(),
        lie_basis()).  `field` is "p=<prime>", "p=<prime>,ext=2" or
        "rationals".
    python perfbench/probe.py fields <seed>
        Nanoseconds per call of add/mul/inv/sqrt at p=7 on Field.random
        values, for each field kind.  The time includes the Python loop
        and call overhead, as library code pays it.

Needs PYTHONPATH to hold the isodet sources.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time

FIELD_VALUES = 2000
FIELD_REPEATS = 7


def make_field(spec: str):
    from isodet.fields import field_create

    if spec == "rationals":
        return field_create("rationals")
    parts = dict(item.split("=", 1) for item in spec.split(","))
    kind = "quadratic-extension" if parts.get("ext") == "2" else "prime"
    return field_create(kind, int(parts["p"]))


def setup(configs) -> dict:
    t0 = time.perf_counter()
    import isodet.cli  # noqa: F401  (the import is what is timed)

    t1 = time.perf_counter()
    from isodet.forms_orbits import split_config

    for kind, e, f, spec in configs:
        config = split_config(e, f, kind, make_field(spec))
        config.form.hyperbolic_basis()
        config.form.lie_basis()
    t2 = time.perf_counter()
    return {"import_s": t1 - t0, "config_s": t2 - t1}


def _ns_per_call(op, args) -> float:
    runs = []
    for _ in range(FIELD_REPEATS):
        t0 = time.perf_counter_ns()
        for a in args:
            op(*a)
        runs.append((time.perf_counter_ns() - t0) / len(args))
    return statistics.median(runs)


def fields(seed: int) -> dict:
    rng = random.Random(seed)
    out = {}
    for kind, spec in (("prime", "p=7"), ("quadratic-extension", "p=7,ext=2"), ("rationals", "rationals")):
        F = make_field(spec)
        xs = [F.random(rng) for _ in range(FIELD_VALUES)]
        pairs = list(zip(xs, xs[1:] + xs[:1]))
        nonzero = [(x,) for x in xs if not F.is_zero(x)]
        squares = [(F.mul(x, x),) for x in xs]
        out[f"fields.{kind}.add_ns"] = _ns_per_call(F.add, pairs)
        out[f"fields.{kind}.mul_ns"] = _ns_per_call(F.mul, pairs)
        out[f"fields.{kind}.inv_ns"] = _ns_per_call(F.inv, nonzero)
        out[f"fields.{kind}.sqrt_ns"] = _ns_per_call(F.sqrt, squares)
    return out


def main(argv) -> int:
    if len(argv) != 2 or argv[0] not in ("setup", "fields"):
        print(__doc__, file=sys.stderr)
        return 2
    result = setup(json.loads(argv[1])) if argv[0] == "setup" else fields(int(argv[1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
