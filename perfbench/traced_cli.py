"""Run one isodet CLI invocation with spans recorded around the calls into
each module's public functions, without touching the library source.

    python perfbench/traced_cli.py <spans file> <isodet CLI arguments...>

Each wrapper is installed in every isodet namespace that binds the
wrapped function (modules import many functions by name), and methods are
patched on their class.  A span is a name index, the index of its parent
span (-1 at top level), and start and end in perf_counter seconds.  Spans
stay in memory, in four arrays, and are written to <spans file> when the
command ends: one JSON line (`import_s`, the time to import isodet.cli;
the span names; the counters below; the span count), then the arrays'
raw bytes in the order name index, parent, start, end.  The CLI's stdout
and exit code pass through unchanged.

Counters the library computes but does not report:
- random_isometry is always given a `stats` dict, so its attempts and
  identity fallbacks are summed;
- classification_table calls are split into table builds (the cache grew)
  and cache hits, with the matrices classified by the builds;
- generator-set builders count the generators and polynomial terms they
  return.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

_t0 = time.perf_counter()
import isodet.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

from isodet import equations, forms_orbits, linalg, verify  # noqa: E402

FUNCTIONS = {
    isodet.cli: ["dispatch", "render_atlas"],
    verify: [
        "run_all",
        "exhaustive_census",
        "classification_table",
        "check_equation_cut",
        "check_dimensions",
        "check_closure_order",
        "point_count_dimension_estimate",
    ],
    equations: [
        "rank_condition_generators",
        "component_generators",
        "star_operator",
        "minor_polynomial",
        "poly_det",
        "poly_pfaffian",
    ],
    forms_orbits: ["random_orbit_point", "random_isometry", "classify", "tangent_dimension", "representative"],
}
METHODS = {
    linalg.Matrix: ["rank", "det", "inverse", "kernel_basis", "__matmul__", "__add__", "scale"],
    equations.GeneratorSet: ["all_vanish"],
}


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self.name_idx = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}

    def count(self, key: str, n: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def span(self, name: str, fn):
        """`fn` wrapped so that each call records a span."""
        name_idx = len(self.names)
        self.names.append(name)
        names, parents, starts, ends = self.name_idx, self.parent, self.start, self.end
        stack, clock = self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(name_idx)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    # counters around particular functions, inside their span

    def random_isometry(self, fn):
        def random_isometry(*args, stats=None, **kwargs):
            stats = {} if stats is None else stats
            out = fn(*args, stats=stats, **kwargs)
            self.count("forms_orbits.random_isometry.attempts", stats["attempts"])
            self.count("forms_orbits.random_isometry.fallbacks", int(stats["fallback"]))
            return out

        return random_isometry

    def classification_table(self, fn):
        cache = verify._CLASS_CACHE

        def classification_table(*args, **kwargs):
            before = len(cache)
            t0 = time.perf_counter()
            classes, codes = fn(*args, **kwargs)
            if len(cache) > before:
                self.count("verify.classification_table.builds")
                self.count("verify.classification_table.build_s", time.perf_counter() - t0)
                self.count("verify.classification_table.matrices", len(codes))
            else:
                self.count("verify.classification_table.hits")
            return classes, codes

        return classification_table

    def generator_builder(self, fn):
        def build(*args, **kwargs):
            gens = fn(*args, **kwargs)
            self.count("equations.generators", len(gens))
            self.count("equations.terms", sum(len(g.poly.terms) for g in gens))
            return gens

        return build

    def install(self) -> None:
        hooks = {
            "random_isometry": self.random_isometry,
            "classification_table": self.classification_table,
            "rank_condition_generators": self.generator_builder,
            "component_generators": self.generator_builder,
        }
        modules = [m for n, m in sys.modules.items() if n == "isodet" or n.startswith("isodet.")]
        for module, names in FUNCTIONS.items():
            short = module.__name__.rsplit(".", 1)[-1]
            for name in names:
                orig = getattr(module, name)
                inner = hooks[name](orig) if name in hooks else orig
                wrapper = self.span(f"{short}.{name}", inner)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, key, wrapper)
        for cls, names in METHODS.items():
            short = cls.__module__.rsplit(".", 1)[-1]
            for name in names:
                setattr(cls, name, self.span(f"{short}.{cls.__name__}.{name}", getattr(cls, name)))

    def dump(self, path: str) -> None:
        header = {"import_s": IMPORT_S, "names": self.names, "counters": self.counters, "spans": len(self.start)}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            for arr in (self.name_idx, self.parent, self.start, self.end):
                arr.tofile(fh)


def main(argv) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    recorder = Recorder()
    recorder.install()
    try:
        return isodet.cli.main(argv[1:])
    finally:
        sys.stdout.flush()
        recorder.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
