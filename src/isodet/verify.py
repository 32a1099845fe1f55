"""Verification harness: exhaustive finite-field sweeps and seeded
sampling that tie every formula in the library back to an independent
check, emitting machine-readable reports.

Every exhaustive check reads the matrices in one odometer order over the
entries (row-major, last entry fastest), :func:`_matrices`, so positions,
tables and witnesses agree between checks: an exhaustive witness is the
first matrix in that order that the check finds wrong.

The stratum of a matrix depends only on its row space W: r1 = dim W, r2
is the rank of the form on W, and the sign is read off dim(W meet L0);
and exactly prod over i < dim W of (q^e - q^i) matrices share W.  So the
exhaustive checks sweep row spaces, not matrices:
:func:`_row_space_sweep` classifies each reduced row-echelon basis of
dimension at most min(e, f) once, and the census and the point counts
sum those weights per stratum.  The per-matrix classification table,
read by :func:`_matrices` alone, takes its strata from the same
classifier and is composed one row at a time, since the row space of
(v_1, ..., v_e) is the join of span(v_1..v_(e-1)) with v_e: one
:func:`echelon` per prefix space and last row.  Both are cached per
configuration; each check reads the budget once; the per-matrix table
keeps its own gate.

The equation cut and the closure check ask each generator set one
question, at which points of which stratum it vanishes, and read the
answer from one source.  Within the budget it is :func:`_verdicts`, the
matrices per (stratum, verdict), kept per set.  Once
:func:`_moved_generator` has proven the span of the generators stable
under generators of GL_e(F_q), the zero set is a union of row-space
classes, so one :meth:`GeneratorSet.vanishes_at` per row space, weighted
by the matrices that share it, stands for them all; an unstable span is
judged matrix by matrix, with a warning.  Over the budget or over Q the
counts are taken over one labelled sample pool, :func:`_sample_points`:
seeded uniform and orbit points, each drawn and labelled once per
process and judged once per generator set by :func:`_verdict`.  The cut
sums the counts against the rank-condition locus; the closure check
fails the pair (p, q) when the generators of q take, at some point of p,
the verdict the closure order denies.  Both find a witness with
:func:`_first_wrong`, the first wrong point of the same source.  Every
per-stratum value is built by :func:`_per_stratum`, so a stratum the form
or field cannot populate is left out with a warning, whether a check
runs alone or in ``run_all``.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from functools import cache, partial
from itertools import combinations, product

from .equations import GeneratorSet, Polynomial, generators_for
from .errors import BudgetExceeded, InvalidParams, StratumUnavailable
from .forms_orbits import (
    OrbitParams,
    Record,
    SpaceConfig,
    classify,
    closure_leq,
    codimension,
    dimension,
    random_orbit_point,
    representative,
    require_valid,
    split_config,
    tangent_dimension,
    valid_params,
)
from .fields import field_create
from .linalg import Matrix, echelon, random_matrix

DEFAULT_BUDGET = 10_000_000


class VerificationReport(Record):
    """One check's outcome; failures always carry a concrete witness.
    ``status`` is pass, fail or warn."""

    __slots__ = ("name", "config", "mode", "status", "witness", "tallies", "warnings", "wall_time_ms")

    def __init__(self, name: str, config: dict, mode: dict, status: str, witness: dict | None = None,
                 tallies: dict | None = None, warnings: list | None = None, wall_time_ms: float = 0.0):
        super().__init__(name, config, mode, status, witness, {} if tallies is None else tallies,
                         [] if warnings is None else warnings, wall_time_ms)

    @property
    def ok(self) -> bool:
        return self.status != "fail"

    def to_json(self, include_timing: bool = False) -> dict:
        obj = {
            "check": self.name,
            "config": self.config,
            "mode": self.mode,
            "status": self.status,
            "witness": self.witness,
            "tallies": self.tallies,
            "warnings": self.warnings,
        }
        if include_timing:
            obj["wall_time_ms"] = round(self.wall_time_ms, 3)
        return obj


# --------------------------------------------------------------------------
# exhaustive classification of a full matrix space, cached per config

# Kept by hand, not by functools.cache: classification_table gates every
# read of the table cache on its budget, cached or not, and
# perfbench/traced_cli.py reads that cache by name; the point cache holds
# seeded draw streams.
_CLASS_CACHE: dict = {}  # config -> classification table
_POINT_CACHE: dict = {}  # config -> {seed string: flat entries of an orbit point}


def enumeration_space(config: SpaceConfig, budget: int = DEFAULT_BUDGET) -> int:
    if config.field.order is None:
        raise BudgetExceeded("exhaustive enumeration needs a finite field")
    total = config.field.order ** (config.e * config.f)
    if total > budget:
        raise BudgetExceeded(
            f"{total} matrices exceed the budget of {budget}; raise --budget to override"
        )
    return total


def _rows(config: SpaceConfig, entries) -> list:
    """A flat entry tuple as the rendered rows of its e x f matrix."""
    render, f = config.field.render, config.f
    return [[render(v) for v in entries[i * f : (i + 1) * f]] for i in range(config.e)]


@cache
def _row_space_sweep(config: SpaceConfig) -> dict:
    """{W: stratum} over the row spaces of the e x f matrices, that is every
    subspace W of F^f of dimension at most min(e, f), each as its reduced
    row-echelon basis (a tuple of rows), with the stratum ``classify``
    gives that basis padded with zero rows, built once per configuration.
    The exhaustive checks classify here and nowhere else."""
    F, e, f = config.field, config.e, config.f
    zero, elements = F.zero, list(F.elements())
    strata = {}
    for d in range(min(e, f) + 1):
        for pivots in combinations(range(f), d):
            rows = [[zero] * c + [F.one] + [zero] * (f - 1 - c) for c in pivots]
            free = [(i, j) for i, c in enumerate(pivots) for j in range(c + 1, f) if j not in pivots]
            for values in product(elements, repeat=len(free)):
                for (i, j), x in zip(free, values):
                    rows[i][j] = x
                basis = tuple(map(tuple, rows))
                strata[basis] = classify(Matrix(F, [*basis, *[(zero,) * f] * (e - d)], e, f), config)
    return strata


def _space_weights(config: SpaceConfig) -> list:
    """Entry d: the number of e x f matrices with a given row space of
    dimension d, prod over i < d of (q^e - q^i)."""
    q, weights = config.field.order, [1]
    for i in range(min(config.e, config.f)):
        weights.append(weights[-1] * (q ** config.e - q ** i))
    return weights


def _stratum_sizes(config: SpaceConfig) -> dict:
    """{stratum: number of e x f matrices in it}, summed over row spaces."""
    weights, sizes = _space_weights(config), {}
    for space, params in _row_space_sweep(config).items():
        sizes[params] = sizes.get(params, 0) + weights[len(space)]
    return sizes


def classification_table(config: SpaceConfig, budget: int = DEFAULT_BUDGET):
    """(classes, codes): stratum labels and, for every matrix in odometer
    order, the index of its stratum in ``classes``.  Raises
    BudgetExceeded when the space exceeds the budget, cached or not: the
    one gate of the per-matrix table, apart from each check's own.

    The row space of (v_1, ..., v_e) is span(v_1..v_(e-1)) + v_e, so the
    table is composed one row at a time: each distinct prefix subspace S,
    as its reduced row-echelon basis, gets one row of the bases of S + v,
    one :func:`echelon` per last row v in odometer order.  Each distinct
    prefix of e-1 rows keeps one row of stratum codes, as bytes.  Each row
    space takes its stratum from :func:`_row_space_sweep`; strata outside
    ``valid_params`` are appended in order of first occurrence in odometer
    order.
    """
    enumeration_space(config, budget)
    cached = _CLASS_CACHE.get(config)
    if cached is not None:
        return cached
    F, e, f, strata = config.field, config.e, config.f, _row_space_sweep(config)
    vectors = list(product(F.elements(), repeat=f))

    @cache
    def join_row(basis):  # basis of S -> [basis of S + v for v in odometer order]
        joined = []
        for v in vectors:
            rows = [*map(list, basis), list(v)]
            pivots, _ = echelon(F, rows)
            joined.append(tuple(map(tuple, rows[: len(pivots)])))
        return joined

    prefixes = [()]
    for _ in range(e - 1):
        prefixes = [space for basis in prefixes for space in join_row(basis)]
    classes = list(valid_params(config))
    index = {p: i for i, p in enumerate(classes)}
    last_rows: dict = {}  # basis of a prefix -> bytes of stratum codes
    for prefix in dict.fromkeys(prefixes):  # distinct, by first occurrence
        row = []
        for space in join_row(prefix):
            params = strata[space]
            if params not in index:  # defensive: record unexpected strata
                index[params] = len(classes)
                classes.append(params)
            row.append(index[params])
        last_rows[prefix] = bytes(row)
    result = (classes, b"".join(map(last_rows.__getitem__, prefixes)))
    _CLASS_CACHE[config] = result
    return result


def _matrices(config: SpaceConfig, budget: int = DEFAULT_BUDGET):
    """(flat entries, stratum) of every e x f matrix in odometer order:
    row-major, the last entry fastest, each over ``field.elements()``,
    labelled by :func:`classification_table`, which nothing else in this
    module reads.  Lazy: the table is built or read only when the first
    matrix is asked for."""
    classes, codes = classification_table(config, budget)
    for code, x in zip(codes, product(config.field.elements(), repeat=config.e * config.f)):
        yield x, classes[code]


def _compile_for_prime(gens: GeneratorSet, p: int):
    """The generator set itself: :func:`_all_vanish_prime` reads its verdict."""
    return gens


def _all_vanish_prime(compiled, vals, p) -> bool:
    return compiled.vanishes_at(vals)


@cache
def _verdict(gens: GeneratorSet, entries) -> bool:
    """Whether ``gens`` vanishes at a sample-pool point, judged once per set and point."""
    return gens.vanishes_at(entries)


class Substitution(Record):
    """A generator g of GL_e acting on the left, Phi -> g Phi, as a sparse
    substitution of the coordinates x_ij of Phi: ``rows`` show the
    element, and ``images`` maps each variable it moves to its image,
    x_ij -> sum_l g_il x_lj, for :meth:`Polynomial.substitute`."""

    __slots__ = ("rows", "images")


@cache
def _primitive_element(F):
    """lam: the first generator of F_q^x in ``elements()`` order."""
    q = F.order
    primes = [r for r in range(2, q) if (q - 1) % r == 0 and all(r % s for s in range(2, r))]
    return next(a for a in F.elements() if a != F.zero and all(F.pow(a, (q - 1) // r) != F.one for r in primes))


@cache
def _gl_generators(config: SpaceConfig) -> tuple:
    """Generators of GL_e(F_q) acting on the left, Phi -> g Phi: the
    transvections I + E_ij (row i gains row j) for i != j, then
    diag(lam, 1, ..., 1) for lam = :func:`_primitive_element`.  They generate
    GL_e(F_q) over any F_q: conjugating by powers of the diagonal one
    scales E_0j and E_i0 by powers of lam, whose sums are all of F_q, and
    commutators of those reach every I + c E_ij.  Each moves only row i
    of Phi."""
    F, e, f = config.field, config.e, config.f
    lam, out = _primitive_element(F), []
    for i, j in [*((i, j) for i in range(e) for j in range(e) if i != j), (0, 0)]:
        rows = [[F.one if k == l else F.zero for l in range(e)] for k in range(e)]
        rows[i][j] = lam if i == j else F.one
        images = {}
        for k in range(f):
            terms = [Polynomial.variable(F, e * f, l * f + k).scale(c) for l, c in enumerate(rows[i]) if c != F.zero]
            images[i * f + k] = sum(terms[1:], terms[0])
        out.append(Substitution(rows, images))
    return tuple(out)


@cache
def _moved_generator(gens: GeneratorSet):
    """None when the span of the generators is proven stable under
    GL_e(F_q) acting on the left (:func:`_gl_generators`): each generator,
    substituted by each substitution that moves one of its variables,
    reduces to zero against the span's reduced row-echelon basis over the
    generators' monomials.  Otherwise (the first generator moved out of
    the span, the substitution that moves it).  Kept per set, so the cut
    and the closure check prove it once."""
    F = gens.config.field
    polys = [g.poly for g in gens]
    column = {m: k for k, m in enumerate(dict.fromkeys(m for p in polys for m in p.terms))}

    def coefficients(p):  # None when p has a monomial that no generator has
        row = [F.zero] * len(column)
        for m, c in p.terms.items():
            if m not in column:
                return None
            row[column[m]] = c
        return row

    basis = [coefficients(p) for p in polys]
    pivots, _ = echelon(F, basis)
    basis = basis[: len(pivots)]
    touched = [frozenset(i for _, idxs in p.compiled() for i in idxs) for p in polys]
    for sub in _gl_generators(gens.config):
        for g, p, at in zip(gens, polys, touched):
            if sub.images.keys().isdisjoint(at):
                continue  # the substitution fixes every variable of g
            row = coefficients(p.substitute(sub.images))
            if row is None or F.lincomb([row[c] for c in pivots], basis, len(column)) != row:
                return g, sub
    return None


@cache
def _verdicts(gens: GeneratorSet) -> Counter:
    """{(stratum, verdict): number of matrices} of the space of ``gens``,
    where verdict is :meth:`GeneratorSet.vanishes_at`, for a span that
    :func:`_moved_generator` has proven GL_e-stable: the verdict at a row
    space's basis, padded with zero rows, holds at every matrix with that
    row space, so each row space of :func:`_row_space_sweep` is judged
    once and weighted by :func:`_space_weights`.  Kept per set, so the cut
    and the closure check judge each row space once."""
    config = gens.config
    weights, zero, verdicts = _space_weights(config), config.field.zero, Counter()
    for W, c in _row_space_sweep(config).items():
        padded = [x for row in W for x in row] + [zero] * (config.f * (config.e - len(W)))
        verdicts[c, gens.vanishes_at(padded)] += weights[len(W)]
    return verdicts


def _first_wrong(verdict, expected, points):
    """The first (entries, stratum) of ``points`` where ``expected(stratum)``
    is not None and differs from ``verdict(entries)``, or None."""
    return next(((x, c) for x, c in points if (m := expected(c)) is not None and m != verdict(x)), None)


def _judged(gens: GeneratorSet, budget: int, pool):
    """(counts, verdict, points) for ``gens``: the {(stratum, verdict):
    points} a check reduces, the verdict at one point, and the points in
    the order its witness is looked for.  Within the budget (``pool`` is
    None) :func:`_verdicts` of a proven span, else (only hand-made
    overrides are unproven) vanishes_at counted over :func:`_matrices`,
    and the matrices; otherwise the labelled sample ``pool``, each point
    judged by :func:`_verdict`."""
    if pool is None:
        matrices = partial(_matrices, gens.config, budget)
        if _moved_generator(gens) is None:
            return _verdicts(gens), gens.vanishes_at, matrices()
        return Counter((c, gens.vanishes_at(x)) for x, c in matrices()), gens.vanishes_at, matrices()
    verdict = partial(_verdict, gens)
    return Counter((c, verdict(x)) for x, c in pool), verdict, pool


def _instability(moved, config: SpaceConfig) -> str:
    """How a warning names the generator and the group element of a
    :func:`_moved_generator` result."""
    g, sub = moved
    shown = "; ".join(" ".join(map(config.field.render, row)) for row in sub.rows)
    return f"generator {g.label_text()} leaves the span of the set under g = [{shown}]"


def _per_stratum(config: SpaceConfig, build, left: dict) -> dict:
    """``{p: build(p)}`` over the strata of ``config``, in order.  Where
    ``build`` raises StratumUnavailable, leave the stratum out and set
    ``left[p]`` to the message."""
    built = {}
    for p in valid_params(config):
        try:
            built[p] = build(p)
        except StratumUnavailable as exc:
            left[p] = str(exc)
    return built


def _left_out(config: SpaceConfig, left: dict) -> list:
    """One warning per stratum recorded in ``left``, in stratum order."""
    return [f"stratum {p} left out: {left[p]}" for p in valid_params(config) if p in left]


def _sample_points(config: SpaceConfig, seed, uniform: int, per_stratum: int, left: dict):
    """The labelled points ``(flat entries, stratum)`` of the sampled
    checks: ``uniform`` matrices drawn from ``random.Random(seed)`` and
    labelled by ``classify``, then ``per_stratum`` orbit points of every
    stratum in order, point i from the seed ``f"{seed}:{cls}:{i}"``.  Each
    point is drawn and labelled once per process, so the sampled checks
    share them.  A stratum without orbit points goes through
    :func:`_per_stratum` with ``left``."""
    built = _POINT_CACHE.setdefault(config, {})

    def orbit_point(cls, key):
        if key not in built:
            built[key] = random_orbit_point(cls, config, seed=key).flat()
        return built[key], cls

    points = _per_stratum(config, lambda cls: [orbit_point(cls, f"{seed}:{cls}:{i}") for i in range(per_stratum)], left)
    rng, drawn = built.setdefault(("uniform", seed), (random.Random(seed), []))
    while len(drawn) < uniform:
        phi = random_matrix(config.field, config.e, config.f, rng)
        drawn.append((phi.flat(), classify(phi, config)))
    return drawn[:uniform] + [x for stratum in points.values() for x in stratum]


# --------------------------------------------------------------------------
# checks

def _report(name, config, mode, status, witness, tallies, warnings, t0):
    return VerificationReport(
        name, config.to_json(), mode, status, witness, tallies, warnings, (time.perf_counter() - t0) * 1000.0
    )


def _rank_count(config: SpaceConfig, r: int) -> int:
    """The number of e x f matrices of rank r over F_q, whatever the form:
    prod over i < r of (q^e - q^i)(q^f - q^i) / (q^r - q^i)."""
    q, num, den = config.field.order, 1, 1
    for i in range(r):
        num *= (q ** config.e - q ** i) * (q ** config.f - q ** i)
        den *= q ** r - q ** i
    return num // den


def exhaustive_census(
    config: SpaceConfig,
    budget: int = DEFAULT_BUDGET,
    valid_params_override=None,
) -> VerificationReport:
    """Tally every matrix of the space per stratum, summed over row spaces
    (:func:`_stratum_sizes`); every matrix must land in an admissible
    stratum, and the strata of each rank r1 must together hold
    :func:`_rank_count` matrices.  A stray matrix is reported as the
    first in odometer order, read off :func:`_matrices`."""
    t0 = time.perf_counter()
    space = enumeration_space(config, budget)
    sizes = _stratum_sizes(config)
    expected = set(valid_params_override if valid_params_override is not None else valid_params(config))
    by_rank = [0] * (min(config.e, config.f) + 1)
    for c, cnt in sizes.items():
        by_rank[c.r1] += cnt
    witness = None
    off = next((r for r, cnt in enumerate(by_rank) if cnt != _rank_count(config, r)), None)
    if any(c not in expected for c in sizes):
        matrix, stray = next((x, c) for x, c in _matrices(config, budget) if c not in expected)
        witness = {"reason": "matrix classified outside the admissible strata", "params": str(stray),
                   "matrix": _rows(config, matrix)}
    elif off is not None:
        witness = {"reason": "strata of rank r1 do not hold every matrix of that rank", "r1": off,
                   "tally": by_rank[off], "expected": _rank_count(config, off)}
    status = "pass" if witness is None else "fail"
    tallies = {str(c): cnt for c, cnt in sizes.items()}
    tallies["total"] = sum(sizes.values())
    return _report(
        "census", config, {"kind": "exhaustive", "space": space}, status, witness, tallies, [], t0
    )


def check_equation_cut(
    params: OrbitParams,
    config: SpaceConfig,
    budget: int = DEFAULT_BUDGET,
    samples: int = 2000,
    seed: int = 0,
    generators_override: GeneratorSet | None = None,
) -> VerificationReport:
    """Set-theoretic check that the stratum's generators cut exactly the
    rank-condition locus: the counts of the generator set's one source
    (:func:`_judged`), summed against the locus.  Exhaustive within
    budget, where a failure's witness is the first wrong matrix in
    odometer order, and a span not proven GL_e-stable is judged matrix by
    matrix, with a warning; otherwise falls back to seeded sampling
    (uniform matrices plus points of every stratum) with a warning,
    leaving out, with a warning each, the strata without orbit points.  A
    stratum the space does not admit raises InvalidParams before anything
    is built or read."""
    require_valid(params, config)
    t0 = time.perf_counter()
    gens = generators_override if generators_override is not None else generators_for(params, config)
    warnings, pool = [], None
    try:
        space = enumeration_space(config, budget)
    except BudgetExceeded as exc:
        warnings.append(f"{exc}; falling back to sampled mode")
        left: dict = {}
        pool = _sample_points(config, seed, samples, max(1, samples // 20), left)
        warnings += _left_out(config, left)
        mode = {"kind": "sampled", "n": len(pool), "seed": seed}
    else:
        if (moved := _moved_generator(gens)) is not None:
            warnings.append(f"{_instability(moved, config)}, so the cut is evaluated matrix by matrix")
        mode = {"kind": "exhaustive", "space": space}
    counts, verdict, points = _judged(gens, budget, pool)
    member = {c: closure_leq(c, params, config) for c, _ in counts}
    n_locus = n_vanish = mismatches = 0
    for (c, v), n in counts.items():
        n_locus += n * member[c]
        n_vanish += n * v
        mismatches += n * (member[c] != v)
    first = _first_wrong(verdict, member.get, points) if mismatches else None
    witness = None if first is None else {
        "reason": "zero set disagrees with the rank-condition locus", "in_locus": member[first[1]],
        "generators_vanish": not member[first[1]], "matrix": _rows(config, first[0]),
    }
    status = "pass" if mismatches == 0 else "fail"
    tallies = {"params": str(params), "generators": len(gens), "locus": n_locus, "vanishing": n_vanish,
               "mismatches": mismatches}
    return _report("equation-cut", config, mode, status, witness, tallies, warnings, t0)


def check_dimensions(config: SpaceConfig, codim_override=None) -> VerificationReport:
    """Tangent-space oracle for the codimension formula: for every
    stratum, the rank of the linearized action at the representative must
    equal e*f - codim, exactly.  A stratum without a representative (too
    small a Witt index) is left out, with one warning."""
    t0 = time.perf_counter()
    codim_fn = codim_override if codim_override is not None else codimension
    witness = None
    checked = 0
    left: dict = {}
    reps = _per_stratum(config, lambda p: representative(p, config), left)
    for params, rep in reps.items():
        tangent = tangent_dimension(rep, config)
        expected = config.e * config.f - codim_fn(params, config)
        checked += 1
        if tangent != expected:
            witness = {"reason": "tangent dimension disagrees with the codimension formula",
                       "params": str(params), "tangent": tangent, "expected": expected}
            break
    status = "pass" if witness is None else "fail"
    return _report(
        "dimensions", config, {"kind": "exhaustive", "strata": checked}, status, witness,
        {"strata": checked}, _left_out(config, left), t0,
    )


def check_closure_order(
    config: SpaceConfig,
    samples: int = 100,
    seed: int = 0,
    generators_override=None,
    order_override=None,
    budget: int = DEFAULT_BUDGET,
) -> VerificationReport:
    """Each stratum's points vanish on another stratum's generators exactly
    when the closure order says they should.

    Each upper set's counts come from its one source (:func:`_judged`),
    as in the cut, and the pair (p, q) fails when the generators of q take,
    at some point of stratum p, a verdict other than whether the order
    puts p in the closure of q.  Within the budget, on any form over F_q,
    the check is exhaustive, and a failure's witness is the first wrong
    matrix of p in odometer order; a span not proven GL_e(F_q)-stable
    (:func:`_moved_generator`) is judged matrix by matrix, with a warning
    naming the generator and the group element.  Elsewhere ``samples``
    seeded orbit points per stratum are judged.  A stratum without
    generators over this field, or without a representative or orbit
    points, is left out, with one warning."""
    if samples < 1:
        raise InvalidParams(f"closure order needs at least one sample per stratum, got {samples}")
    t0 = time.perf_counter()
    order_fn = order_override if order_override is not None else closure_leq
    build = generators_override if generators_override is not None else generators_for
    left: dict = {}
    uppers = _per_stratum(config, lambda q: build(q, config), left)
    try:
        space = enumeration_space(config, budget)
    except BudgetExceeded:
        pool, warnings = _sample_points(config, seed, 0, samples, left), []
        lowers = dict.fromkeys(c for _, c in pool)
        mode, extra, judged = {"kind": "sampled", "n": samples, "seed": seed}, {"samples_per_stratum": samples}, (
            "sampled vanishing")
    else:
        # a stratum is judged when it has a representative, which the
        # sampler needs for its orbit points: both modes leave out the same
        pool, lowers = None, _per_stratum(config, lambda p: representative(p, config), left)
        warnings = [f"stratum {q}: {_instability(moved, config)}, so it is judged matrix by matrix"
                    for q, gens in uppers.items() if (moved := _moved_generator(gens)) is not None]
        mode, extra, judged = {"kind": "exhaustive", "space": space}, {}, "vanishing at a matrix"
    sources = {q: _judged(gens, budget, pool) for q, gens in uppers.items()}
    witness = None
    pairs = 0
    for p, q in product(lowers, uppers):
        pairs += 1
        expected = order_fn(p, q, config)
        counts, verdict, points = sources[q]
        if any(c == p and v != expected for c, v in counts):
            bad, _ = _first_wrong(verdict, lambda c: expected if c == p else None, points)
            witness = {"reason": f"{judged} disagrees with the closure order", "lower": str(p),
                       "upper": str(q), "expected": expected, "matrix": _rows(config, bad)}
            break
    status = "pass" if witness is None else "fail"
    return _report("closure-order", config, mode, status, witness, {"pairs": pairs, **extra},
                   warnings + _left_out(config, left), t0)


def _growth_exponent(n1: int, n2: int, q1: int, q2: int) -> int:
    """The integer nearest log(n2/n1) / log(q2/q1), exactly: the k with
    b^(2k-1) <= r^2 < b^(2k+1) for r = n2/n1, b = q2/q1 (the primes and
    their counts swapped when q2 < q1, so b > 1).  Each r^2 >= b^m is
    decided on integers, cross-multiplied.  Distinct primes never make
    r^2 an odd power of b."""
    if q2 < q1:
        n1, n2, q1, q2 = n2, n1, q2, q1

    def at_least(m: int) -> bool:  # r^2 >= b^m
        if m < 0:
            return n2 * n2 * q2 ** -m >= n1 * n1 * q1 ** -m
        return n2 * n2 * q1 ** m >= n1 * n1 * q2 ** m

    k = 0
    while at_least(2 * k + 1):
        k += 1
    while not at_least(2 * k - 1):
        k -= 1
    return k


def point_count_dimension_estimate(
    params: OrbitParams,
    config: SpaceConfig,
    primes=(3, 5),
    budget: int = DEFAULT_BUDGET,
    dim_override=None,
) -> VerificationReport:
    """Heuristic dimension cross-check: the locus point count over F_q
    should grow like q^dim.  Deviations beyond 1 are WARN only; the hard
    dimension check is the tangent-space one.  Counts always use the
    split form over each prime; repeated primes count once, and a prime
    over budget is left out, with one warning.  A stratum the space does
    not admit raises InvalidParams before anything is counted."""
    require_valid(params, config)
    t0 = time.perf_counter()
    admissible, warnings = [], []
    for q in dict.fromkeys(primes):
        try:
            cfg_q = split_config(config.e, config.f, config.kind, field_create("prime", q))
            enumeration_space(cfg_q, budget)
            admissible.append((q, cfg_q))
        except BudgetExceeded as exc:
            warnings.append(f"prime {q} left out: {exc}")
    if len(admissible) < 2:
        raise BudgetExceeded("need at least two admissible primes within budget")
    counts = {}
    for q, cfg_q in admissible:
        counts[q] = sum(n for c, n in _stratum_sizes(cfg_q).items() if closure_leq(c, params, cfg_q))
    dim_fn = dim_override if dim_override is not None else dimension
    dim = dim_fn(params, config)
    qs = [q for q, _ in admissible]
    estimates = []
    for (q1, q2) in zip(qs, qs[1:]):
        n1, n2 = counts[q1], counts[q2]
        estimates.append(_growth_exponent(n1, n2, q1, q2) if n1 and n2 else 0)
    deviates = any(abs(est - dim) > 1 for est in estimates)
    status = "warn" if deviates else "pass"
    witness = None
    if deviates:
        witness = {"reason": "point-count growth deviates from the expected dimension", "params": str(params),
                   "estimates": estimates, "dim": dim}
    tallies = {"params": str(params), "counts": {str(q): counts[q] for q in qs}, "estimates": estimates, "dim": dim}
    return _report(
        "point-count", config, {"kind": "exhaustive", "primes": qs}, status, witness, tallies, warnings, t0
    )


def guarded(name: str, config: SpaceConfig, tallies: dict, check, *args, **kwargs) -> VerificationReport:
    """``check(*args, **kwargs)``; when the check cannot run on this space
    (over budget, an infinite field, too small a Witt index, an involution
    eigenvalue outside the field), a skipped warning report ``name`` with
    ``tallies`` and the error's message instead."""
    t0 = time.perf_counter()
    try:
        return check(*args, **kwargs)
    except (BudgetExceeded, StratumUnavailable) as exc:
        return _report(name, config, {"kind": "skipped"}, "warn", None, tallies, [str(exc)], t0)


def run_all(
    config: SpaceConfig,
    budget: int = DEFAULT_BUDGET,
    samples: int = 100,
    seed: int = 0,
    primes=(3, 5),
) -> list[VerificationReport]:
    """Census, dimension, closure, per-stratum equation cuts and
    per-stratum point counts.  A check that cannot run on this space (over
    budget, an infinite field, too small a Witt index, an involution
    eigenvalue outside the field) degrades to a skipped warning carrying
    the error's message instead of aborting the batch.  Each check leaves
    out the strata and primes it cannot use, with one warning each, as it
    does when run alone; each check goes through :func:`guarded`."""
    strata = valid_params(config)
    return [
        guarded("census", config, {}, exhaustive_census, config, budget),
        guarded("dimensions", config, {}, check_dimensions, config),
        guarded("closure-order", config, {}, check_closure_order, config, samples=samples, seed=seed, budget=budget),
        *(guarded("equation-cut", config, {"params": str(p)}, check_equation_cut, p, config, budget=budget,
                  seed=seed) for p in strata),
        *(guarded("point-count", config, {"params": str(p)}, point_count_dimension_estimate, p, config, primes,
                  budget) for p in strata),
    ]
