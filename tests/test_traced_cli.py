"""The per-layer benchmark (``perfbench/run.py --trace 1``) wraps library
functions by name from outside ``src/``, through ``perfbench/traced_cli.py``.
These checks keep a library refactor from silently breaking it: every
wrapped name still exists, and the counters it reads are still there."""

import importlib.util
from pathlib import Path

from isodet import equations, verify
from isodet.fields import field_create
from isodet.forms_orbits import BilinearForm, random_isometry, split_config, valid_params

TRACED_CLI = Path(__file__).resolve().parent.parent / "perfbench" / "traced_cli.py"


def _traced_cli():
    spec = importlib.util.spec_from_file_location("traced_cli", TRACED_CLI)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_function_and_method_exists():
    traced = _traced_cli()
    missing = [f"{m.__name__}.{n}" for m, names in traced.FUNCTIONS.items() for n in names if not hasattr(m, n)]
    missing += [f"{c.__name__}.{n}" for c, names in traced.METHODS.items() for n in names if not hasattr(c, n)]
    assert missing == []
    assert sum(map(len, traced.FUNCTIONS.values())) and sum(map(len, traced.METHODS.values()))


def test_counters_the_tracer_reads_exist():
    assert isinstance(verify._CLASS_CACHE, dict)
    for kind, f in (("symmetric", 4), ("alternating", 4)):
        stats = {}
        random_isometry(BilinearForm.split(field_create("prime", 5), kind, f), seed=3, stats=stats)
        assert stats["attempts"] >= 1 and stats["fallback"] is False


def test_generator_builders_keep_the_tracer_contract():
    # the tracer counts what a wrapped builder returns through len() and
    # the .poly.terms of each member
    traced = _traced_cli()
    cfg = split_config(2, 4, "symmetric", field_create("prime", 5))
    for p in valid_params(cfg):
        recorder = traced.Recorder()
        if p.sign is None:
            gens = recorder.generator_builder(equations.rank_condition_generators)(p, cfg)
        else:
            gens = recorder.generator_builder(equations.component_generators)(p.sign, cfg)
        closed_form = sum(fam.count for fam in gens.families)
        assert recorder.counters.get("equations.generators") == closed_form == len(list(gens)), p
        assert (recorder.counters["equations.terms"] > 0) == (closed_form > 0), p  # the dense stratum has none
