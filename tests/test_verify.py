import json
import math
import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from isodet.errors import BudgetExceeded, InvalidParams, StratumUnavailable
from isodet.fields import field_create
from isodet.forms_orbits import (
    BilinearForm,
    OrbitParams,
    SpaceConfig,
    classify,
    closure_leq,
    codimension,
    random_orbit_point,
    split_config,
    valid_params,
)
from isodet.equations import (
    Generator,
    GeneratorSet,
    Polynomial,
    component_generators,
    generators_for,
    rank_condition_generators,
)
from isodet import forms_orbits, verify
from isodet.linalg import Matrix, echelon, random_matrix
from isodet.verify import (
    _growth_exponent,
    check_closure_order,
    check_dimensions,
    check_equation_cut,
    classification_table,
    exhaustive_census,
    point_count_dimension_estimate,
    run_all,
)

F3 = field_create("prime", 3)
F5 = field_create("prime", 5)
F7 = field_create("prime", 7)
F9 = field_create("quadratic-extension", 3)
F49 = field_create("quadratic-extension", 7)
Q = field_create("rationals")


def test_census_alternating_e2f4_q3():
    cfg = split_config(2, 4, "alternating", F3)
    rep = exhaustive_census(cfg)
    assert rep.status == "pass"
    assert rep.tallies["total"] == 3**8 == 6561
    classes = {k for k in rep.tallies if k != "total"}
    assert classes == {"(0,0)", "(1,0)", "(2,0)", "(2,2)"}


def test_census_symmetric_e1f3_q3():
    cfg = split_config(1, 3, "symmetric", F3)
    rep = exhaustive_census(cfg)
    assert rep.status == "pass"
    assert rep.tallies["(0,0)"] == 1  # only the zero matrix
    assert rep.tallies["total"] == 3**3


def test_census_budget():
    cfg = split_config(2, 4, "alternating", F5)
    with pytest.raises(BudgetExceeded):
        exhaustive_census(cfg, budget=1000)
    with pytest.raises(BudgetExceeded):
        exhaustive_census(split_config(2, 4, "alternating", Q))


def test_census_mutation_detects_missing_class():
    cfg = split_config(2, 4, "alternating", F3)
    crippled = [p for p in valid_params(cfg) if p != OrbitParams(2, 0)]
    rep = exhaustive_census(cfg, valid_params_override=crippled)
    assert rep.status == "fail"
    assert rep.witness is not None and rep.witness["params"] == "(2,0)"
    # the witness matrix really classifies to the reported stratum
    phi = Matrix(cfg.field, [[cfg.field.parse(s) for s in row] for row in rep.witness["matrix"]])
    assert classify(phi, cfg) == OrbitParams(2, 0)
    # the first such matrix in odometer order
    assert rep.witness["matrix"] == [["0", "0", "0", "1"], ["0", "1", "0", "0"]]


def test_census_counts_each_rank_by_its_closed_form(monkeypatch, fresh_caches):
    # (1,1) relabelled (2,1): every matrix still lands in an admissible
    # stratum, but rank 1 keeps only the 128 matrices of (1,0)
    cfg = split_config(2, 4, "symmetric", F3)

    def relabel(phi, config):
        params = classify(phi, config)
        return OrbitParams(2, 1) if params == OrbitParams(1, 1) else params

    monkeypatch.setattr(verify, "classify", relabel)
    monkeypatch.setattr(verify, "_CLASS_CACHE", {})
    fresh_caches(verify, "_row_space_sweep")
    rep = exhaustive_census(cfg)
    assert rep.status == "fail"
    assert rep.witness == {"reason": "strata of rank r1 do not hold every matrix of that rank",
                           "r1": 1, "tally": 128, "expected": (9 - 1) * (81 - 1) // (3 - 1)}


def test_prime_fast_path_agrees_with_generic_classifier():
    # exhaustive agreement on a small space; the table is the fast path
    cfg = split_config(2, 3, "symmetric", F3)
    classes, codes = classification_table(cfg)
    elems = list(F3.elements())
    from itertools import product

    for pos, entries in enumerate(product(elems, repeat=6)):
        phi = Matrix(F3, [entries[0:3], entries[3:6]], 2, 3)
        assert classes[codes[pos]] == classify(phi, cfg)


@pytest.mark.parametrize(
    "config",
    [
        split_config(1, 4, "symmetric", field_create("quadratic-extension", 3)),
        SpaceConfig(2, 3, F5, BilinearForm("symmetric", Matrix.identity(F5, 3))),
    ],
    ids=["sym-e1f4-F9", "sym-e2f3-F5-identity"],
)
def test_row_space_table_agrees_with_classify(config):
    # every matrix of the space, on a non-prime field and on a non-split form
    classes, codes = classification_table(config)
    assert len(codes) == config.field.order ** (config.e * config.f)
    e, f = config.e, config.f
    for pos, entries in enumerate(product(config.field.elements(), repeat=e * f)):
        phi = Matrix(config.field, [entries[i * f : (i + 1) * f] for i in range(e)], e, f)
        assert classes[codes[pos]] == classify(phi, config), phi


def _oracle_entries(elements, n, pos):
    """The n entries at odometer position ``pos``, decoded digit by digit."""
    entries = []
    for _ in range(n):
        pos, digit = divmod(pos, len(elements))
        entries.append(elements[digit])
    return entries[::-1]


def _per_matrix_table(config, positions=None):
    """Oracle: the per-matrix build the composed table replaced.  Reduce
    each matrix (every one, or those at ``positions``) to row-echelon form
    and classify each distinct row space once, appending unexpected
    strata in odometer order."""
    F, e, f = config.field, config.e, config.f
    classes = list(verify.valid_params(config))
    index = {p: i for i, p in enumerate(classes)}
    elements = list(F.elements())
    if positions is None:
        positions = range(len(elements) ** (e * f))
    by_space, codes = {}, bytearray()
    for pos in positions:
        entries = _oracle_entries(elements, e * f, pos)
        rows = [entries[i * f : (i + 1) * f] for i in range(e)]
        echelon(F, rows)
        space = tuple(map(tuple, rows))
        if space not in by_space:
            params = classify(Matrix(F, rows, e, f), config)
            if params not in index:
                index[params] = len(classes)
                classes.append(params)
            by_space[space] = index[params]
        codes.append(by_space[space])
    return classes, bytes(codes)


ORACLE_CONFIGS = [
    split_config(3, 3, "symmetric", F3),  # two join levels
    split_config(2, 4, "alternating", F3),
    split_config(2, 4, "symmetric", F3),  # the (2,0,+/-) split
    split_config(1, 3, "symmetric", F3),
    split_config(1, 4, "alternating", F5),
    split_config(1, 4, "symmetric", F9),
    SpaceConfig(2, 4, F3, BilinearForm("symmetric", Matrix.identity(F3, 4))),
]


@pytest.mark.parametrize(
    "config", ORACLE_CONFIGS,
    ids=["sym-e3f3-F3", "alt-e2f4-F3", "sym-e2f4-F3", "sym-e1f3-F3", "alt-e1f4-F5", "sym-e1f4-F9",
         "sym-e2f4-F3-identity"],
)
def test_composed_table_matches_per_matrix_oracle(config, monkeypatch):
    monkeypatch.setattr(verify, "_CLASS_CACHE", {})
    assert classification_table(config) == _per_matrix_table(config)


def test_composed_table_matches_oracle_on_sampled_positions():
    # sym e2f3 over F_9: one join level on an extension field; 9^6
    # matrices are too many for the oracle, so it checks seeded positions
    cfg = split_config(2, 3, "symmetric", F9)
    classes, codes = classification_table(cfg)
    positions = sorted(random.Random(6).sample(range(len(codes)), 3000))
    oracle_classes, oracle_codes = _per_matrix_table(cfg, positions)
    assert classes == oracle_classes
    assert bytes(codes[i] for i in positions) == oracle_codes


@pytest.mark.parametrize(
    "dropped",
    [[OrbitParams(1, 0)], [OrbitParams(2, 0, "-")], [OrbitParams(2, 2), OrbitParams(1, 1)]],
    ids=["(1,0)", "(2,0,-)", "(2,2)+(1,1)"],
)
def test_unexpected_strata_appended_as_the_oracle_does(dropped, monkeypatch):
    # strata missing from valid_params are appended in order of first
    # odometer occurrence, with the same codes as the per-matrix build
    monkeypatch.setattr(verify, "_CLASS_CACHE", {})
    full = verify.valid_params
    monkeypatch.setattr(verify, "valid_params", lambda config: [p for p in full(config) if p not in dropped])
    cfg = split_config(2, 4, "symmetric", F3)
    classes, codes = classification_table(cfg)
    assert sorted(classes[-len(dropped):], key=str) == sorted(dropped, key=str)
    assert (classes, codes) == _per_matrix_table(cfg)


@pytest.mark.parametrize("kind", ["symmetric", "alternating"])
@pytest.mark.parametrize("field", [F7, F49, Q], ids=["F7", "F49", "Q"])
def test_evaluator_agrees_with_generator_set(kind, field):
    # the sampled checks' vanishing verdicts against each generator's own
    # Polynomial.evaluate, on uniform points and on points of every stratum,
    # for every stratum's generators
    cfg = split_config(2, 4, kind, field)
    rng = random.Random(11)
    points = [random_matrix(field, 2, 4, rng) for _ in range(10)]
    points += [random_orbit_point(p, cfg, seed=f"ev:{p}:{i}") for p in valid_params(cfg) for i in range(3)]
    seen = set()
    for params in valid_params(cfg):
        gens = generators_for(params, cfg)
        answers = [verify._verdict(gens, phi.flat()) for phi in points]
        expected = [all(g.poly.evaluate(phi.flat()) == field.zero for g in gens) for phi in points]
        assert answers == expected, str(params)
        seen.update(answers)
    assert seen == {True, False}


def test_sampled_checks_judge_each_pool_point_once_per_set(monkeypatch, fresh_caches):
    # the closure check and every sampled cut read one verdict per
    # (generator set, pool point), however often the checks and the
    # uniform draws repeat a point
    cfg = split_config(2, 3, "symmetric", F3)
    fresh_caches(verify, "_verdict")
    calls = []
    real = GeneratorSet.vanishes_at
    monkeypatch.setattr(GeneratorSet, "vanishes_at",
                        lambda self, x: calls.append((tuple(g.label for g in self), x)) or real(self, x))
    reports = run_all(cfg, budget=100)
    assert {r.mode["kind"] for r in reports if r.name in ("closure-order", "equation-cut")} == {"sampled"}
    sets = {tuple(g.label for g in generators_for(p, cfg)) for p in valid_params(cfg)}
    assert len(sets) == len(valid_params(cfg))
    pool = {x for x, _ in verify._sample_points(cfg, 0, 2000, 100, {})}
    assert Counter(calls) == Counter(product(sets, pool))


def test_equation_cut_exhaustive_small():
    # both kinds over F_3 at e=2, f=4, every stratum (components included)
    for kind in ("alternating", "symmetric"):
        cfg = split_config(2, 4, kind, F3)
        for p in valid_params(cfg):
            rep = check_equation_cut(p, cfg)
            assert rep.status == "pass", (kind, str(p), rep.witness)
            assert rep.tallies["mismatches"] == 0
            assert rep.tallies["locus"] == rep.tallies["vanishing"]


def test_equation_cut_mutation_fails_with_witness():
    cfg = split_config(2, 4, "alternating", F3)
    params = OrbitParams(1, 0)
    gens = list(rank_condition_generators(params, cfg))
    # drop the minor on columns (0,2): the isotropic plane spanned by the
    # first vectors of the two hyperbolic pairs is then missed
    dropped = [g for g in gens if g.label != ("minor", (0, 1), (0, 2))]
    assert len(dropped) == len(gens) - 1
    rep = check_equation_cut(params, cfg, generators_override=GeneratorSet(cfg, dropped))
    assert rep.status == "fail"
    assert rep.witness is not None
    assert rep.tallies["mismatches"] > 0
    assert rep.witness["matrix"] == [["0", "0", "1", "0"], ["1", "0", "0", "0"]]
    assert (rep.witness["in_locus"], rep.witness["generators_vanish"]) == (False, True)
    # dropping the lone Pfaffian of the nullcone stratum also trips the check
    nc = OrbitParams(2, 0)
    empty = GeneratorSet(cfg, [])
    rep2 = check_equation_cut(nc, cfg, generators_override=empty)
    assert rep2.status == "fail" and rep2.witness is not None


def test_equation_cut_sampled_fallback():
    cfg = split_config(2, 4, "alternating", F5)
    rep = check_equation_cut(OrbitParams(2, 0), cfg, budget=100, samples=200, seed=4)
    assert rep.mode["kind"] == "sampled"
    assert rep.warnings
    assert rep.status == "pass"
    # rationals always sample
    cfgq = split_config(2, 4, "alternating", Q)
    repq = check_equation_cut(OrbitParams(2, 0), cfgq, samples=100, seed=4)
    assert repq.mode["kind"] == "sampled" and repq.status == "pass"


def _per_point_cut(params, config, gens):
    """Oracle: the point-by-point exhaustive cut.  Evaluate the generators
    at every matrix in odometer order, each decoded digit by digit from
    its position, tally against the closure order and keep the first
    mismatch as the witness.  Returns (tallies, witness)."""
    F, e, f = config.field, config.e, config.f
    classes, codes = classification_table(config)
    member_of = [closure_leq(c, params, config) for c in classes]
    elements = list(F.elements())
    points = [(_oracle_entries(elements, e * f, pos), pos) for pos in range(len(codes))]
    # each matrix straight to vanishes_at: the verdict memo is for sample-pool points
    verdicts = [gens.vanishes_at(x) for x, _ in points]
    n_locus = n_vanish = mismatches = 0
    witness = None
    for (entries, pos), vanishes in zip(points, verdicts):
        member = member_of[codes[pos]]
        n_locus += member
        n_vanish += vanishes
        if member != vanishes:
            mismatches += 1
            if witness is None:
                witness = {
                    "reason": "zero set disagrees with the rank-condition locus",
                    "in_locus": member,
                    "generators_vanish": vanishes,
                    "matrix": [[F.render(x) for x in entries[i * f : (i + 1) * f]] for i in range(e)],
                }
    tallies = {"params": str(params), "generators": len(gens), "locus": n_locus, "vanishing": n_vanish,
               "mismatches": mismatches}
    return tallies, witness


def _assert_cut_matches_oracle(params, config, gens=None):
    rep = check_equation_cut(params, config, generators_override=gens)
    gens = generators_for(params, config) if gens is None else gens
    tallies, witness = _per_point_cut(params, config, gens)
    assert rep.mode["kind"] == "exhaustive"
    assert (rep.tallies, rep.witness) == (tallies, witness), str(params)
    assert rep.status == ("pass" if witness is None else "fail")
    return rep


CUT_ORACLE_CONFIGS = [
    split_config(2, 3, "symmetric", F7),
    split_config(2, 4, "symmetric", F3),  # the (2,0,+/-) components
    split_config(2, 4, "alternating", F3),
    split_config(3, 3, "symmetric", F3),  # two prefix rows
    split_config(1, 4, "symmetric", F5),  # no prefix
    SpaceConfig(2, 4, F3, BilinearForm("symmetric", Matrix.identity(F3, 4))),
    split_config(1, 4, "alternating", F9),
]


@pytest.mark.parametrize(
    "config", CUT_ORACLE_CONFIGS,
    ids=["sym-e2f3-F7", "sym-e2f4-F3", "alt-e2f4-F3", "sym-e3f3-F3", "sym-e1f4-F5",
         "sym-e2f4-F3-identity", "alt-e1f4-F9"],
)
def test_row_cut_matches_per_point_oracle(config):
    # every set is proven GL_e-stable, so the tallies are row-space sums
    for params in valid_params(config):
        assert _assert_cut_matches_oracle(params, config).warnings == []


def _mutations(config, params):
    """Mutation name -> generator list for the stratum; the dropped and
    altered generator is the minor on columns (0,2)."""
    F, n = config.field, config.e * config.f
    gens = list(generators_for(params, config))
    k = next(i for i, g in enumerate(gens) if g.label == ("minor", (0, 1), (0, 2)))
    minor = gens[k]

    def replaced(poly):
        return gens[:k] + [Generator(minor.label, poly)] + gens[k + 1 :]

    return {
        "dropped-minor": gens[:k] + gens[k + 1 :],
        "empty": [],
        "zero-polynomial": gens + [Generator(("zero",), Polynomial.zero(F, n))],
        "non-zero-constant": gens + [Generator(("one",), Polynomial.constant(F, n, F.one))],
        "minor-plus-one": replaced(minor.poly + Polynomial.constant(F, n, F.one)),
        "minor-times-3": replaced(minor.poly.scale(F.from_int(3))),
        "duplicated": gens + [gens[0]],
    }


@pytest.mark.parametrize(
    "config,params,dropped",
    [
        # the Gram minor is -(that minor)^2 on rows supported on columns 0 and 2
        (split_config(2, 3, "symmetric", F5), OrbitParams(1, 1), "pass"),
        # rows supported on columns 0 and 2 span an isotropic plane
        (split_config(2, 4, "symmetric", F3), OrbitParams(1, 1), "fail"),
        (split_config(2, 4, "alternating", F3), OrbitParams(1, 0), "fail"),
    ],
    ids=["sym-e2f3-F5", "sym-e2f4-F3", "alt-e2f4-F3"],
)
def test_row_cut_matches_oracle_on_mutated_generators(config, params, dropped):
    outcomes = {
        name: _assert_cut_matches_oracle(params, config, GeneratorSet(config, gens)).status
        for name, gens in _mutations(config, params).items()
    }
    times_3 = dropped if config.field.p == 3 else "pass"  # 3 = 0 in F_3
    assert outcomes == {
        "dropped-minor": dropped, "empty": "fail", "zero-polynomial": "pass", "non-zero-constant": "fail",
        "minor-plus-one": "fail", "minor-times-3": times_3, "duplicated": "pass",
    }


def _diag_1112(field):
    # Witt index 1 over F_3, where 1/det K = 2 is not a square
    gram = Matrix.from_ints(field, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]])
    return SpaceConfig(2, 4, field, BilinearForm("symmetric", gram))


ROW_SPACE_CONFIGS = [*CUT_ORACLE_CONFIGS, split_config(2, 3, "symmetric", F9), _diag_1112(F3)]
ROW_SPACE_IDS = ["sym-e2f3-F7", "sym-e2f4-F3", "alt-e2f4-F3", "sym-e3f3-F3", "sym-e1f4-F5",
                 "sym-e2f4-F3-identity", "alt-e1f4-F9", "sym-e2f3-F9", "sym-e2f4-F3-diag1112"]


@pytest.mark.parametrize("config", ROW_SPACE_CONFIGS, ids=ROW_SPACE_IDS)
def test_row_space_tallies_match_the_table(config):
    # census tallies and every locus count, summed over row spaces, equal
    # the per-matrix table's
    classes, codes = classification_table(config)
    table = {c: codes.count(i) for i, c in enumerate(classes) if codes.count(i)}
    rep = exhaustive_census(config)
    assert rep.status == "pass"
    assert rep.tallies == {**{str(c): n for c, n in table.items()}, "total": len(codes)}
    sizes = verify._stratum_sizes(config)
    assert sizes == table
    for params in valid_params(config):
        locus = sum(n for c, n in table.items() if closure_leq(c, params, config))
        assert sum(n for c, n in sizes.items() if closure_leq(c, params, config)) == locus, str(params)


def test_point_counts_match_the_table():
    for cfg in (split_config(2, 3, "symmetric", F3), split_config(2, 4, "alternating", F3),
                split_config(2, 4, "symmetric", F3)):
        tables = {q: classification_table(split_config(cfg.e, cfg.f, cfg.kind, field_create("prime", q)))
                  for q in (3, 5)}
        for params in valid_params(cfg):
            rep = point_count_dimension_estimate(params, cfg, primes=(3, 5))
            expected = {str(q): sum(codes.count(i) for i, c in enumerate(classes) if closure_leq(c, params, cfg))
                        for q, (classes, codes) in tables.items()}
            assert rep.tallies["counts"] == expected, str(params)


@pytest.mark.parametrize("config", ROW_SPACE_CONFIGS[-2:], ids=ROW_SPACE_IDS[-2:])
def test_row_space_verdicts_match_the_matrices(config):
    # every real generator set is proven stable, so its verdicts are
    # counted once per row space, with no warning; over F_9 the per-point
    # oracle would take minutes, so the count taken matrix by matrix,
    # vanishes_at at every matrix against its stratum, stands in for it
    for params in valid_params(config):
        try:
            gens = generators_for(params, config)
        except StratumUnavailable:
            continue
        assert verify._moved_generator(gens) is None, str(params)
        by_matrix = Counter((c, gens.vanishes_at(x)) for x, c in verify._matrices(config))
        assert verify._verdicts(gens, verify.DEFAULT_BUDGET) == by_matrix, str(params)
        rep = check_equation_cut(params, config)
        assert rep.warnings == [] and rep.status == "pass", str(params)
        if config.field.order == 3:
            assert (rep.tallies, rep.witness) == _per_point_cut(params, config, gens)


@pytest.mark.parametrize(
    "config",
    [
        split_config(2, 3, "symmetric", F7),
        split_config(2, 4, "symmetric", F3),
        split_config(2, 4, "alternating", F3),
        split_config(2, 3, "symmetric", F9),
    ],
    ids=["sym-e2f3-F7", "sym-e2f4-F3", "alt-e2f4-F3", "sym-e2f3-F9"],
)
def test_run_all_reads_only_the_row_space_sweep(config, monkeypatch):
    # every real generator set is proven stable and every check passes, so
    # no report of run_all reads the per-matrix table
    expected = [r.to_json() for r in run_all(config)]

    def unreached(*args, **kwargs):
        raise RuntimeError("run_all read the per-matrix table")

    monkeypatch.setattr(verify, "classification_table", unreached)
    assert [r.to_json() for r in run_all(config)] == expected


def test_run_all_judges_each_row_space_once_per_set(monkeypatch, fresh_caches):
    # the closure check and the cuts read one verdict per (generator set,
    # row space); the closure check adds no evaluation of its own
    cfg = split_config(2, 4, "symmetric", F3)
    fresh_caches(verify, "_verdicts")
    calls = []
    real = GeneratorSet.vanishes_at
    monkeypatch.setattr(GeneratorSet, "vanishes_at", lambda self, x: calls.append(self) or real(self, x))
    reports = run_all(cfg)
    assert all(r.ok for r in reports) and reports[2].mode["kind"] == "exhaustive"
    sets = {generators_for(p, cfg) for p in valid_params(cfg)}
    assert Counter(calls) == {gens: len(verify._row_space_strata(cfg)) for gens in sets}


def _without(config, params, label):
    gens = generators_for(params, config)
    kept = [g for g in gens if g.label != label]
    assert len(kept) == len(gens) - 1
    return GeneratorSet(config, kept)


def test_stable_mutant_sums_over_row_spaces_and_keeps_the_first_witness():
    # on e = 2 every 2-minor spans a GL_2-stable line (g scales it by det g)
    cfg = split_config(2, 4, "alternating", F3)
    params = OrbitParams(1, 0)
    gens = _without(cfg, params, ("minor", (0, 1), (0, 2)))
    assert verify._moved_generator(gens) is None
    rep = _assert_cut_matches_oracle(params, cfg, gens)
    assert rep.warnings == []
    assert rep.witness["matrix"] == [["0", "0", "1", "0"], ["1", "0", "0", "0"]]


def test_unstable_mutant_is_cut_matrix_by_matrix():
    # without one 2-minor on rows (0,1), a transvection moves a minor on
    # rows (1,2) out of the span; a sum over row spaces would report 624
    # mismatches, the matrices themselves hold 48
    cfg = split_config(3, 3, "symmetric", F3)
    params = OrbitParams(1, 1)
    gens = _without(cfg, params, ("minor", (0, 1), (0, 1)))
    moved, sub = verify._moved_generator(gens)
    assert (moved.label, sub.rows) == (("minor", (1, 2), (0, 1)), [[1, 0, 0], [0, 1, 0], [1, 0, 1]])
    rep = _assert_cut_matches_oracle(params, cfg, gens)
    assert rep.tallies["mismatches"] == 48
    assert rep.warnings == ["generator minor([1,2],[0,1]) leaves the span of the set under g = [1 0 0; 0 1 0; 1 0 1], "
                            "so the cut is evaluated matrix by matrix"]


STABILITY_CONFIGS = [split_config(e, f, kind, F) for F in (F3, F5, F7, F9)
                     for kind, e, f in (("symmetric", 2, 3), ("symmetric", 2, 4), ("alternating", 2, 4))]
STABILITY_CONFIGS += [_diag_1112(F3), _diag_1112(F9)]


@pytest.mark.parametrize("config", STABILITY_CONFIGS, ids=[
    f"{c.kind[:3]}-e{c.e}f{c.f}-{c.field.order}" for c in STABILITY_CONFIGS[:-2]] + ["diag1112-F3", "diag1112-F9"])
def test_every_generator_set_is_proven_stable(config):
    # no golden cut gains a warning, and no closure check falls back to
    # sampling within the budget: each real set spans a GL_e-stable space
    for params in valid_params(config):
        try:
            gens = generators_for(params, config)
        except StratumUnavailable:
            continue
        assert verify._moved_generator(gens) is None, str(params)


def test_non_homogeneous_mutant_is_unstable():
    # minor + 1: diag(lam, 1) scales the minor, not the constant
    for cfg, params in ((split_config(2, 4, "alternating", F3), OrbitParams(1, 0)),
                        (split_config(2, 3, "symmetric", F9), OrbitParams(1, 1))):
        gens = list(generators_for(params, cfg))
        k = next(i for i, g in enumerate(gens) if g.label == ("minor", (0, 1), (0, 2)))
        one = Polynomial.constant(cfg.field, cfg.e * cfg.f, cfg.field.one)
        gens[k] = Generator(gens[k].label, gens[k].poly + one)
        moved, sub = verify._moved_generator(GeneratorSet(cfg, gens))
        assert moved.label == ("minor", (0, 1), (0, 2))
        assert sub.rows[1][1] == cfg.field.one and sub.rows[0][0] not in (cfg.field.zero, cfg.field.one)


def test_closure_order_catches_a_drop_one_mutant_the_cut_prover_passes():
    # without minor([0,1],[0,1]), the 2-minors of (1,1) still span a
    # GL_2-stable line each, so the closure check reads the sweep; the
    # plane e_0, e_1 of (2,0,+) then meets the zero set of the mutant
    cfg = split_config(2, 4, "symmetric", F3)
    mutant = _without(cfg, OrbitParams(1, 1), ("minor", (0, 1), (0, 1)))
    assert verify._moved_generator(mutant) is None

    def build(q, config):
        return mutant if q == OrbitParams(1, 1) else generators_for(q, config)

    rep = check_closure_order(cfg, samples=5, seed=1, generators_override=build)
    assert rep.mode == {"kind": "exhaustive", "space": 3 ** 8} and rep.warnings == []
    assert rep.witness == {"reason": "vanishing at a matrix disagrees with the closure order",
                           "lower": "(2,0,+)", "upper": "(1,1)", "expected": False,
                           "matrix": [["0", "1", "0", "0"], ["1", "0", "0", "0"]]}


def test_unstable_span_is_judged_matrix_by_matrix_in_the_closure_order():
    # the mutant of test_unstable_mutant_is_cut_matrix_by_matrix: its zero
    # set is no union of row-space classes, so each matrix is judged; a
    # sample of 5 orbit points per stratum misses the matrix below
    cfg = split_config(3, 3, "symmetric", F3)
    mutant = _without(cfg, OrbitParams(1, 1), ("minor", (0, 1), (0, 1)))

    def build(q, config):
        return mutant if q == OrbitParams(1, 1) else generators_for(q, config)

    rep = check_closure_order(cfg, samples=5, seed=1, generators_override=build)
    assert rep.mode == {"kind": "exhaustive", "space": 3 ** 9}
    assert rep.status == "fail" and rep.tallies == {"pairs": 21}
    assert rep.witness == {"reason": "vanishing at a matrix disagrees with the closure order",
                           "lower": "(2,1)", "upper": "(1,1)", "expected": False,
                           "matrix": [["0", "1", "0"], ["1", "0", "0"], ["0", "0", "0"]]}
    assert rep.warnings == ["stratum (1,1): generator minor([1,2],[0,1]) leaves the span of the set under "
                            "g = [1 0 0; 0 1 0; 1 0 1], so it is judged matrix by matrix"]


CLOSURE_CONFIGS = [split_config(2, 3, "symmetric", F7), split_config(2, 3, "symmetric", F9),
                   split_config(2, 4, "symmetric", F3), split_config(2, 4, "symmetric", F5),
                   split_config(2, 4, "alternating", F3), split_config(3, 4, "alternating", F3),
                   split_config(3, 3, "symmetric", F3), split_config(4, 3, "symmetric", F3),
                   split_config(1, 4, "symmetric", F9), split_config(2, 4, "alternating", F5),
                   SpaceConfig(2, 4, F3, BilinearForm("symmetric", Matrix.identity(F3, 4))),
                   SpaceConfig(2, 3, F5, BilinearForm("symmetric", Matrix.identity(F5, 3))), _diag_1112(F3)]
CLOSURE_IDS = ["sym-e2f3-F7", "sym-e2f3-F9", "sym-e2f4-F3", "sym-e2f4-F5", "alt-e2f4-F3", "alt-e3f4-F3",
               "sym-e3f3-F3", "sym-e4f3-F3", "sym-e1f4-F9", "alt-e2f4-F5", "sym-e2f4-F3-identity",
               "sym-e2f3-F5-identity", "sym-e2f4-F3-diag1112"]


@pytest.mark.parametrize("config", CLOSURE_CONFIGS, ids=CLOSURE_IDS)
def test_exhaustive_closure_order_agrees_with_sampling(config):
    # budget=0 forces the sampled mode: the same status, pairs and
    # left-out warnings; denying each non-zero stratum its own closure,
    # both fail at the same pair, the exhaustive witness a matrix of the
    # lower stratum
    exhaustive, sampled = check_closure_order(config), check_closure_order(config, budget=0)
    assert (exhaustive.mode["kind"], sampled.mode["kind"]) == ("exhaustive", "sampled")
    assert (exhaustive.status, exhaustive.tallies["pairs"], exhaustive.warnings) == (
        sampled.status, sampled.tallies["pairs"], sampled.warnings)

    def denied(p, q, cfg):
        return closure_leq(p, q, cfg) != (p == q != OrbitParams(0, 0))

    bad_exhaustive = check_closure_order(config, order_override=denied)
    bad_sampled = check_closure_order(config, order_override=denied, budget=0)
    assert bad_exhaustive.status == bad_sampled.status == "fail"
    keys = ("lower", "upper", "expected")
    assert [bad_exhaustive.witness[k] for k in keys] == [bad_sampled.witness[k] for k in keys]
    rows = [[config.field.parse(x) for x in row] for row in bad_exhaustive.witness["matrix"]]
    assert str(classify(Matrix(config.field, rows, config.e, config.f), config)) == bad_exhaustive.witness["lower"]


def test_exhaustive_closure_order_witness_is_the_first_wrong_matrix():
    # the pairs of test_closure_order_witness_is_the_first_failing_pair_and_point,
    # judged on every matrix: the witness is the first matrix of the lower
    # stratum in odometer order
    cfg = split_config(2, 4, "symmetric", F3)
    flips = {(OrbitParams(2, 0, "-"), OrbitParams(2, 2)), (OrbitParams(1, 1), OrbitParams(2, 0, "+"))}

    def mutated(p, q, config):
        return closure_leq(p, q, config) != ((p, q) in flips)

    bad = check_closure_order(cfg, samples=4, seed=2, order_override=mutated)
    assert bad.mode == {"kind": "exhaustive", "space": 3 ** 8}
    assert bad.status == "fail" and bad.tallies == {"pairs": 18}
    assert bad.witness == {"reason": "vanishing at a matrix disagrees with the closure order",
                           "lower": "(1,1)", "upper": "(2,0,+)", "expected": True,
                           "matrix": [["0", "0", "0", "0"], ["0", "1", "1", "0"]]}
    first = next(x for x, c in verify._matrices(cfg) if c == OrbitParams(1, 1))
    assert bad.witness["matrix"] == verify._rows(cfg, first)


def test_closure_order_fails_where_the_census_passes(monkeypatch, fresh_caches):
    # classify patched to swap (1,0) and (1,1): every rank still holds its
    # matrices, so the census passes, but the generators of (1,0) vanish
    # on no row space labelled (1,0)
    cfg = split_config(2, 4, "symmetric", F3)
    swap = {OrbitParams(1, 0): OrbitParams(1, 1), OrbitParams(1, 1): OrbitParams(1, 0)}

    def relabel(phi, config):
        params = classify(phi, config)
        return swap.get(params, params)

    monkeypatch.setattr(verify, "classify", relabel)
    monkeypatch.setattr(verify, "_CLASS_CACHE", {})
    fresh_caches(verify, "_row_space_sweep", "_verdicts")
    assert exhaustive_census(cfg).status == "pass"
    bad = check_closure_order(cfg)
    assert bad.status == "fail" and bad.mode["kind"] == "exhaustive"
    assert (bad.witness["lower"], bad.witness["upper"]) == ("(1,0)", "(1,0)")


@pytest.mark.parametrize("config", [split_config(2, 3, "symmetric", F7), split_config(2, 4, "symmetric", F3),
                                    split_config(2, 4, "alternating", F3), split_config(2, 3, "symmetric", F9),
                                    CLOSURE_CONFIGS[-2], _diag_1112(F3)],
                         ids=["sym-e2f3-F7", "sym-e2f4-F3", "alt-e2f4-F3", "sym-e2f3-F9", "sym-e2f3-F5-identity",
                              "sym-e2f4-F3-diag1112"])
def test_run_all_draws_no_orbit_point_within_the_budget(config, monkeypatch):
    # on any form, the closure check and the cuts read the row-space
    # sweep, so no report of run_all reads the sample pool
    def unreached(*args, **kwargs):
        raise RuntimeError("run_all drew an orbit point")

    monkeypatch.setattr(verify, "_POINT_CACHE", {})
    monkeypatch.setattr(verify, "random_orbit_point", unreached)
    reports = run_all(config)
    assert all(r.ok for r in reports)
    assert next(r for r in reports if r.name == "closure-order").mode["kind"] == "exhaustive"


def test_check_dimensions_pass_and_mutation():
    for cfg in (split_config(3, 6, "alternating", Q), split_config(3, 5, "symmetric", Q)):
        rep = check_dimensions(cfg)
        assert rep.status == "pass"

        def perturbed(params, config):
            return codimension(params, config) + 1

        bad = check_dimensions(cfg, codim_override=perturbed)
        assert bad.status == "fail"
        assert bad.witness is not None


def test_check_closure_order_pass_and_mutation():
    cfg = split_config(2, 4, "alternating", F5)
    rep = check_closure_order(cfg, samples=25, seed=1)
    assert rep.status == "pass"

    def flipped(p, q, config):
        return not closure_leq(p, q, config)

    bad = check_closure_order(cfg, samples=5, seed=1, order_override=flipped)
    assert bad.status == "fail" and bad.witness is not None
    assert (bad.witness["lower"], bad.witness["upper"]) == ("(0,0)", "(0,0)")
    assert bad.witness["matrix"] == [["0", "0", "0", "0"], ["0", "0", "0", "0"]]


def test_closure_order_witness_is_the_first_failing_pair_and_point():
    # two flipped pairs: the witness is the first point, in pool order, of
    # the pair that comes first in (lower, upper) order; recorded when the
    # check still scanned the whole pool for every pair
    cfg = split_config(2, 4, "symmetric", F3)
    flips = {(OrbitParams(2, 0, "-"), OrbitParams(2, 2)), (OrbitParams(1, 1), OrbitParams(2, 0, "+"))}

    def mutated(p, q, config):
        return closure_leq(p, q, config) != ((p, q) in flips)

    bad = check_closure_order(cfg, samples=4, seed=2, order_override=mutated, budget=0)
    assert bad.status == "fail" and bad.tallies["pairs"] == 18
    assert (bad.witness["lower"], bad.witness["upper"], bad.witness["expected"]) == ("(1,1)", "(2,0,+)", True)
    assert bad.witness["matrix"] == [["1", "2", "1", "2"], ["0", "0", "0", "0"]]


def test_closure_order_needs_a_sample():
    cfg = split_config(2, 3, "symmetric", F3)
    for samples in (0, -1):
        with pytest.raises(InvalidParams):
            check_closure_order(cfg, samples=samples)


def test_closure_order_exceptional_components():
    cfg = split_config(2, 4, "symmetric", F3)
    rep = check_closure_order(cfg, samples=25, seed=3)
    assert rep.status == "pass"


def test_closure_order_leaves_out_strata_without_generators_or_points():
    # over Q the identity form has Witt index 0: four strata have orbit
    # points, seven have generators, and the rest are left out one by one
    cfg = SpaceConfig(3, 4, Q, BilinearForm("symmetric", Matrix.identity(Q, 4)))
    rep = check_closure_order(cfg, samples=2)
    assert rep.status == "pass" and rep.tallies["pairs"] == 28
    left = [w.split(" left out: ")[0] for w in rep.warnings]
    assert left == [f"stratum {p}" for p in ("(1,0)", "(2,0,+)", "(2,0,-)", "(2,1)", "(3,2)")]


def test_point_count_examples():
    alt = split_config(2, 4, "alternating", F3)
    dense = point_count_dimension_estimate(OrbitParams(2, 2), alt, primes=(3, 5))
    assert dense.status == "pass"
    assert dense.tallies["counts"] == {"3": 3**8, "5": 5**8}
    assert dense.tallies["estimates"] == [8]

    origin = point_count_dimension_estimate(OrbitParams(0, 0), alt, primes=(3, 5))
    assert origin.tallies["counts"] == {"3": 1, "5": 1}
    assert origin.tallies["estimates"] == [0]
    assert origin.status == "pass"

    nullcone = point_count_dimension_estimate(OrbitParams(2, 0), alt, primes=(3, 5))
    assert abs(nullcone.tallies["estimates"][0] - 7) <= 1
    assert nullcone.status == "pass"


def test_point_count_mutation_warns():
    alt = split_config(2, 4, "alternating", F3)

    def wrong_dim(params, config):
        return 2  # nullcone is 7-dimensional

    rep = point_count_dimension_estimate(OrbitParams(2, 0), alt, primes=(3, 5), dim_override=wrong_dim)
    assert rep.status == "warn"
    assert rep.witness is not None
    assert rep.ok  # warn is never a hard failure


def test_point_count_needs_two_primes():
    alt = split_config(2, 4, "alternating", F3)
    with pytest.raises(BudgetExceeded):
        point_count_dimension_estimate(OrbitParams(2, 0), alt, primes=(3, 5), budget=10000)


def test_point_count_prime_order_and_repeats():
    sym = split_config(1, 3, "symmetric", F3)
    alt = split_config(1, 4, "alternating", F3)
    for cfg in (sym, alt):
        for params in valid_params(cfg):
            forward = point_count_dimension_estimate(params, cfg, primes=(3, 5))
            backward = point_count_dimension_estimate(params, cfg, primes=(5, 3))
            assert forward.tallies["estimates"] == backward.tallies["estimates"]
            assert forward.status == backward.status
    # a repeated prime counts once, leaving a single admissible prime
    with pytest.raises(BudgetExceeded):
        point_count_dimension_estimate(OrbitParams(1, 0), sym, primes=(3, 3))
    assert point_count_dimension_estimate(OrbitParams(1, 0), sym, primes=(3, 3, 5)).mode["primes"] == [3, 5]


def test_point_count_refuses_an_inadmissible_stratum_before_counting(monkeypatch):
    monkeypatch.setattr(verify, "classification_table", None)  # any count would raise TypeError
    for cfg, params in ((split_config(2, 3, "symmetric", F3), OrbitParams(9, 9)),
                        (split_config(2, 4, "symmetric", F3), OrbitParams(2, 0))):
        with pytest.raises(InvalidParams, match="is not admissible for"):
            point_count_dimension_estimate(params, cfg)


def _inadmissible_grid():
    """(config, label) for every label with r1, r2 <= e+1 and sign in
    (None, +, -, x) that a sym or alt form over F_3 with e <= 3 and
    3 <= f <= 6 does not admit."""
    for kind in ("symmetric", "alternating"):
        for e, f in product((1, 2, 3), (3, 4, 5, 6)):
            if kind == "alternating" and f % 2:
                continue
            cfg = split_config(e, f, kind, F3)
            admitted = set(valid_params(cfg))
            for r1, r2, sign in product(range(e + 2), range(e + 2), (None, "+", "-", "x")):
                if OrbitParams(r1, r2, sign) not in admitted:
                    yield cfg, OrbitParams(r1, r2, sign)


def test_every_label_taker_refuses_an_inadmissible_label_with_one_message(monkeypatch):
    monkeypatch.setattr(verify, "classification_table", None)  # any table read would raise TypeError
    takers = {
        "generators_for": generators_for,
        "rank_condition_generators": rank_condition_generators,
        "representative": forms_orbits.representative,
        "codimension": codimension,
        "facts": forms_orbits.facts,
        "closure_leq(p, zero)": lambda p, cfg: closure_leq(p, OrbitParams(0, 0), cfg),
        "closure_leq(zero, p)": lambda p, cfg: closure_leq(OrbitParams(0, 0), p, cfg),
        "cut": check_equation_cut,
        "cut with override": lambda p, cfg: check_equation_cut(p, cfg, generators_override=GeneratorSet(cfg, [])),
        "counts": point_count_dimension_estimate,
    }
    cases = [(cfg, p, takers) for cfg, p in _inadmissible_grid()]
    # component generators take a sign, and refuse the label (f/2, 0, sign)
    component = {"component_generators": lambda p, cfg: component_generators(p.sign, cfg)}
    for sign, e, f, kind in (("x", 2, 4, "symmetric"), ("+", 2, 4, "alternating"),
                             ("+", 2, 3, "symmetric"), ("+", 1, 4, "symmetric")):
        cases.append((split_config(e, f, kind, F3), OrbitParams(f // 2, 0, sign), component))
    calls, deviations = 0, []
    for cfg, p, calls_of in cases:
        refusal = f"{p} is not admissible for e={cfg.e}, f={cfg.f}, {cfg.kind}"
        for name, take in calls_of.items():
            if name == "rank_condition_generators" and p.sign is not None:
                continue
            calls += 1
            try:
                outcome = take(p, cfg)
            except InvalidParams as exc:
                if str(exc) == refusal:
                    continue
                outcome = f"InvalidParams: {exc}"
            except Exception as exc:
                outcome = f"{type(exc).__name__}: {exc}"
            deviations.append((name, cfg.e, cfg.f, cfg.kind, str(p), repr(outcome)[:80]))
    assert calls == 10170
    assert deviations == []


def test_growth_exponent_matches_float_rounding():
    # oracle: the float log-ratio it replaced, away from half-integers
    rng = random.Random(4)
    primes = [3, 5, 7, 11, 13]
    for _ in range(2000):
        q1, q2 = rng.sample(primes, 2)
        n1, n2 = rng.randint(1, 10**6), rng.randint(1, 10**9)
        x = math.log(n2 / n1) / math.log(q2 / q1)
        if abs(x - math.floor(x) - 0.5) > 1e-6:
            assert _growth_exponent(n1, n2, q1, q2) == round(x)


def test_growth_exponent_is_the_fraction_definition():
    # oracle: the exact definition on Fractions, which the integer
    # cross-multiplication replaced; counts at and beside prime powers up
    # to 10^6, where r^2 comes closest to an odd power of b
    def oracle(n1, n2, q1, q2):
        r, b = Fraction(n2, n1), Fraction(q2, q1)
        if b < 1:
            r, b = 1 / r, 1 / b
        k = 0
        while r * r >= b ** (2 * k + 1):
            k += 1
        while r * r < b ** (2 * k - 1):
            k -= 1
        return k

    counts = sorted({1, 10**6} | {q**k + d for q in (3, 5, 7) for k in range(13) for d in (-1, 0, 1)
                                  if 1 <= q**k + d <= 10**6})
    for q1, q2 in ((3, 5), (5, 3), (3, 7), (7, 3), (5, 7), (7, 5)):
        for n1, n2 in product(counts, repeat=2):
            assert _growth_exponent(n1, n2, q1, q2) == oracle(n1, n2, q1, q2), (n1, n2, q1, q2)


def test_class_cache_is_keyed_by_config():
    table = classification_table(split_config(1, 3, "symmetric", F3))
    assert classification_table(split_config(1, 3, "symmetric", field_create("prime", 3))) is table


def test_budget_gate_applies_to_cached_tables():
    cfg = split_config(1, 3, "symmetric", F3)
    classification_table(cfg)  # 27 matrices, now cached
    with pytest.raises(BudgetExceeded):
        classification_table(cfg, budget=10)


def test_reports_serializable_and_deterministic():
    cfg = split_config(2, 4, "alternating", F3)
    rep1 = exhaustive_census(cfg)
    rep2 = exhaustive_census(cfg)
    assert json.dumps(rep1.to_json(), sort_keys=True) == json.dumps(rep2.to_json(), sort_keys=True)
    timed = rep1.to_json(include_timing=True)
    assert "wall_time_ms" in timed and "wall_time_ms" not in rep1.to_json()

    c1 = check_closure_order(cfg, samples=10, seed=9)
    c2 = check_closure_order(cfg, samples=10, seed=9)
    assert json.dumps(c1.to_json(), sort_keys=True) == json.dumps(c2.to_json(), sort_keys=True)


def test_run_all_small():
    cfg = split_config(2, 4, "alternating", F3)
    reports = run_all(cfg, samples=10, seed=0)
    assert all(r.ok for r in reports)
    names = {r.name for r in reports}
    assert names == {"census", "dimensions", "closure-order", "equation-cut", "point-count"}


def test_orbit_point_pool_forms_no_isometry_matrix(monkeypatch):
    # counts, not times: the drawn maps act on the representative's rows,
    # so no isometry is built or multiplied, and (0,0) points draw nothing
    cfg = split_config(2, 4, "symmetric", F3)
    counts = {"matmul": 0, "isometry": 0}
    seeds = []
    matmul, isometry = Matrix.__matmul__, forms_orbits.random_isometry

    def counted_matmul(a, b):
        counts["matmul"] += 1
        return matmul(a, b)

    def counted_isometry(*args, **kwargs):
        counts["isometry"] += 1
        return isometry(*args, **kwargs)

    class SeededRandom(random.Random):
        def __init__(self, seed=None):
            seeds.append(seed)
            super().__init__(seed)

    monkeypatch.setattr(verify, "_POINT_CACHE", {})
    monkeypatch.setattr(Matrix, "__matmul__", counted_matmul)
    monkeypatch.setattr(forms_orbits, "random_isometry", counted_isometry)
    monkeypatch.setattr(random, "Random", SeededRandom)
    left: dict = {}
    points = verify._sample_points(cfg, 0, 0, 100, left)
    assert len(points) == 100 * len(valid_params(cfg)) and left == {}
    assert counts == {"matmul": 0, "isometry": 0}
    orbit_seeds = [s for s in seeds if isinstance(s, str)]  # the uniform stream is random.Random(0)
    assert orbit_seeds == [f"0:{p}:{i}" for p in valid_params(cfg)[1:] for i in range(100)]
    assert all(x == (F3.zero,) * 8 for x, p in points if p == OrbitParams(0, 0))


def test_run_all_builds_each_orbit_point_once(monkeypatch):
    # the closure check's seeds are a prefix of each sampled cut's, and
    # every cut draws the same 100 points per stratum
    cfg = split_config(2, 3, "symmetric", F3)
    seeds = []

    def counted(params, config, seed=None):
        seeds.append(seed)
        return random_orbit_point(params, config, seed=seed)

    monkeypatch.setattr(verify, "_POINT_CACHE", {}, raising=False)
    monkeypatch.setattr(verify, "random_orbit_point", counted)
    reports = run_all(cfg, budget=100, samples=3, seed=1, primes=(3,))
    assert all(r.ok for r in reports)
    strata = valid_params(cfg)
    assert [r.mode["kind"] for r in reports if r.name == "equation-cut"] == ["sampled"] * len(strata)
    assert len(seeds) == len(set(seeds)) == 100 * len(strata)


def test_sampled_run_classifies_each_uniform_point_once(monkeypatch):
    # every sampled cut reads the same 2000 uniform points, labelled once
    cfg = split_config(2, 3, "symmetric", F3)
    calls = []

    def counted(phi, config):
        calls.append(phi)
        return classify(phi, config)

    monkeypatch.setattr(verify, "_POINT_CACHE", {})
    monkeypatch.setattr(verify, "classify", counted)
    reports = run_all(cfg, budget=100)
    assert all(r.ok for r in reports)
    assert [r.mode["kind"] for r in reports if r.name == "equation-cut"] == ["sampled"] * len(valid_params(cfg))
    assert len(calls) == 2000


def test_composed_table_matches_oracle_where_prefixes_span_everything():
    # sym e4f3 over F_3: prefixes of three rows reach dimension f, where
    # every last row joins to the whole space
    cfg = split_config(4, 3, "symmetric", F3)
    classes, codes = classification_table(cfg)
    positions = sorted(random.Random(7).sample(range(len(codes)), 3000))
    oracle_classes, oracle_codes = _per_matrix_table(cfg, positions)
    assert classes == oracle_classes
    assert bytes(codes[i] for i in positions) == oracle_codes


def _counted(monkeypatch, field, name):
    """Count the calls of one method of ``field`` (a fresh instance)."""
    calls = [0]
    method = getattr(field, name)

    def counted(*args):
        calls[0] += 1
        return method(*args)

    monkeypatch.setattr(field, name, counted)
    return calls


def test_orbit_point_pool_computes_each_reflection_once(monkeypatch):
    # counts, not times: a reflection's scalar -2/beta(v, v) is computed
    # once per distinct drawn vector, so at most once per vector of F_3^4
    F = field_create("prime", 3)
    cfg = split_config(2, 4, "symmetric", F)
    monkeypatch.setattr(verify, "_POINT_CACHE", {})
    calls = _counted(monkeypatch, F, "div")
    left: dict = {}
    points = verify._sample_points(cfg, 0, 0, 100, left)
    assert len(points) == 100 * len(valid_params(cfg)) and left == {}
    assert 0 < calls[0] <= 3**4
