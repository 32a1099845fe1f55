"""Verification harness: exhaustive finite-field sweeps and seeded
sampling that tie every formula in the library back to an independent
check, emitting machine-readable reports.

Every exhaustive check reads the space in one odometer order over the
entries (row-major, last entry fastest), :func:`_odometer`, so positions,
tables and witnesses agree between checks.

The stratum of a matrix depends only on its row space W: r1 = dim W, r2
is the rank of the form on W, and the sign is read off dim(W meet L0);
and exactly prod over i < dim W of (q^e - q^i) matrices share W.  So the
exhaustive checks sweep row spaces, not matrices:
:func:`_row_space_strata` classifies each reduced row-echelon basis of
dimension at most min(e, f) once, and the census and the point counts
sum those weights per stratum.  The per-matrix classification table
takes its strata from the same classifier and is composed one row at a
time, since the row space of (v_1, ..., v_e) is the join of
span(v_1..v_(e-1)) with v_e: one :func:`echelon` per prefix space and
last row.  Both are cached per configuration, and the budget on q^(ef)
gates every read.

The exhaustive equation cut sums over row spaces as well, once
:func:`_moved_generator` has proven the span of the generators stable
under generators of GL_e(F_q): the zero set is then a union of row-space
classes, so the verdict at a basis holds at every matrix with that row
space.  An unstable span is cut matrix by matrix, with a warning, by
:func:`_per_matrix_cut`: the verdict of :meth:`GeneratorSet.vanishes_at`
at each matrix against its code in the table.  The same sweep finds the
first mismatch of a failing cut, so witnesses do not depend on which sum
counted them.

The sampled checks (sampled cuts, closure order) read one labelled
sample pool, :func:`_sample_points`: seeded uniform and orbit points,
each drawn and labelled once per process, as flat entry tuples with
their stratum.  :func:`_verdict` judges each such point once per
generator set, so the closure check and the sampled cuts share verdicts
and differ only in how they reduce them.  Every per-stratum value is
built by :func:`_per_stratum`, so a stratum the form or field cannot
populate is left out with a warning, whether a check runs alone or in
``run_all``.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from functools import cache
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

# Kept by hand, not by functools.cache: the budget gates every read of the
# table cache, which perfbench/traced_cli.py also reads by name, and the
# point cache holds seeded draw streams.
_CLASS_CACHE: dict = {}  # config -> classification table; ("row-spaces", config) -> row-space strata
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


def _odometer(config: SpaceConfig):
    """The flat entries of every e x f matrix, in odometer order: row-major,
    the last entry fastest, each over ``field.elements()``."""
    return product(config.field.elements(), repeat=config.e * config.f)


def _rows(config: SpaceConfig, entries) -> list:
    """A flat entry tuple as the rendered rows of its e x f matrix."""
    render, f = config.field.render, config.f
    return [[render(v) for v in entries[i * f : (i + 1) * f]] for i in range(config.e)]


def _row_space_strata(config: SpaceConfig, budget: int = DEFAULT_BUDGET) -> dict:
    """{W: stratum} over the row spaces of the e x f matrices, that is every
    subspace W of F^f of dimension at most min(e, f), each as its reduced
    row-echelon basis (a tuple of rows), with the stratum ``classify``
    gives that basis padded with zero rows.  The exhaustive checks
    classify here and nowhere else.  Cached per configuration; the budget
    gates every read."""
    enumeration_space(config, budget)
    key = ("row-spaces", config)
    strata = _CLASS_CACHE.get(key)
    if strata is None:
        F, e, f = config.field, config.e, config.f
        zero, elements = F.zero, list(F.elements())
        strata = _CLASS_CACHE[key] = {}
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


def _stratum_sizes(config: SpaceConfig, budget: int = DEFAULT_BUDGET) -> dict:
    """{stratum: number of e x f matrices in it}, summed over row spaces."""
    weights, sizes = _space_weights(config), {}
    for space, params in _row_space_strata(config, budget).items():
        sizes[params] = sizes.get(params, 0) + weights[len(space)]
    return sizes


def classification_table(config: SpaceConfig, budget: int = DEFAULT_BUDGET):
    """(classes, codes): stratum labels and, for every matrix in odometer
    order, the index of its stratum in ``classes``.  Raises
    BudgetExceeded when the space exceeds the budget, cached or not.

    The row space of (v_1, ..., v_e) is span(v_1..v_(e-1)) + v_e, so the
    table is composed one row at a time: each distinct prefix subspace S,
    as its reduced row-echelon basis, gets one row of the bases of S + v,
    one :func:`echelon` per last row v in odometer order.  Each distinct
    prefix of e-1 rows keeps one row of stratum codes, as bytes.  Each row
    space takes its stratum from :func:`_row_space_strata`; strata outside
    ``valid_params`` are appended in order of first occurrence in odometer
    order.
    """
    strata = _row_space_strata(config, budget)
    cached = _CLASS_CACHE.get(config)
    if cached is not None:
        return cached
    F, e, f = config.field, config.e, config.f
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


def _compile_for_prime(gens: GeneratorSet, p: int):
    """The generator set itself: :func:`_all_vanish_prime` reads its verdict."""
    return gens


def _all_vanish_prime(compiled, vals, p) -> bool:
    return compiled.vanishes_at(vals)


@cache
def _verdict(gens: GeneratorSet, entries) -> bool:
    """Whether ``gens`` vanishes at a sample-pool point, judged once per set and point."""
    return gens.vanishes_at(entries)


def _vanishing(gens: GeneratorSet, points) -> list:
    """Whether every generator vanishes, at each labelled point ``(flat
    entries, stratum)`` of ``points``: :func:`_verdict`."""
    return [_verdict(gens, x) for x, _ in points]


def _gl_generators(config: SpaceConfig):
    """Generators of GL_e(F_q) acting on the left, Phi -> g Phi, each as
    (its e x e rows, the row it moves, the images of the coordinates
    x_ij): the transvections I + E_ij (row i gains row j) for i != j, then
    diag(lam, 1, ..., 1) for the first generator lam of F_q^x in
    ``elements()``.  They generate GL_e(F_q) over any F_q: conjugating by
    powers of the diagonal one scales E_0j and E_i0 by powers of lam,
    whose sums are all of F_q, and commutators of those reach every
    I + c E_ij."""
    F, e, f = config.field, config.e, config.f
    q, x = F.order, [Polynomial.variable(F, e * f, i) for i in range(e * f)]
    primes = [r for r in range(2, q) if (q - 1) % r == 0 and all(r % s for s in range(2, r))]
    lam = next(a for a in F.elements() if a != F.zero and all(F.pow(a, (q - 1) // r) != F.one for r in primes))
    for i, j in [*((i, j) for i in range(e) for j in range(e) if i != j), (0, 0)]:
        rows = [[F.one if k == l else F.zero for l in range(e)] for k in range(e)]
        rows[i][j] = lam if i == j else F.one
        images = x[:]
        for k in range(f):
            images[i * f + k] = x[k].scale(lam) if i == j else x[i * f + k] + x[j * f + k]
        yield rows, i, images


def _moved_generator(gens: GeneratorSet, config: SpaceConfig):
    """None when the span of the generators is proven stable under
    GL_e(F_q): each generator, substituted by each of
    :func:`_gl_generators`, reduces to zero against the span's reduced
    row-echelon basis over the generators' monomials.  Otherwise (the
    first generator moved out of the span, the rows of the group generator
    that moves it)."""
    F, f = config.field, config.f
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
    touched = [{i // f for _, idxs in p.compiled() for i in idxs} for p in polys]
    for rows, moved, images in _gl_generators(config):
        for g, p, at in zip(gens, polys, touched):
            if moved not in at:
                continue  # the group generator fixes every variable of g
            row = coefficients(p.substitute(images))
            if row is None or F.lincomb([row[c] for c in pivots], basis, len(column)) != row:
                return g, rows
    return None


def _per_matrix_cut(params: OrbitParams, gens: GeneratorSet, config: SpaceConfig, budget: int, first_only: bool):
    """(locus, vanishing, mismatches, first) of the cut at every matrix, in
    odometer order: :meth:`GeneratorSet.vanishes_at` against the codes of
    :func:`classification_table`.  ``first`` is (entries, in locus) of
    the first mismatch, or None; with ``first_only`` the sweep stops
    there, and the counts cover only the matrices read."""
    classes, codes = classification_table(config, budget)
    member = [closure_leq(c, params, config) for c in classes]
    n_locus = n_vanish = mismatches = 0
    first = None
    for code, x in zip(codes, _odometer(config)):
        m, v = member[code], gens.vanishes_at(x)
        n_locus += m
        n_vanish += v
        if m != v:
            mismatches += 1
            if first is None:
                first = (x, m)
                if first_only:
                    break
    return n_locus, n_vanish, mismatches, first


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
    first in odometer order, read off :func:`classification_table`."""
    t0 = time.perf_counter()
    space = enumeration_space(config, budget)
    sizes = _stratum_sizes(config, budget)
    expected = set(valid_params_override if valid_params_override is not None else valid_params(config))
    by_rank = [0] * (min(config.e, config.f) + 1)
    for c, cnt in sizes.items():
        by_rank[c.r1] += cnt
    witness = None
    off = next((r for r, cnt in enumerate(by_rank) if cnt != _rank_count(config, r)), None)
    if any(c not in expected for c in sizes):
        classes, codes = classification_table(config, budget)
        stray = next(i for i, c in enumerate(classes) if c in sizes and c not in expected)
        matrix = next(x for code, x in zip(codes, _odometer(config)) if code == stray)
        witness = {"reason": "matrix classified outside the admissible strata", "params": str(classes[stray]),
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
    rank-condition locus.  Exhaustive within budget; otherwise falls back
    to seeded sampling (uniform matrices plus points of every stratum)
    with a warning, leaving out, with a warning each, the strata without
    orbit points.  A stratum the space does not admit raises InvalidParams
    before anything is built or read."""
    require_valid(params, config)
    t0 = time.perf_counter()
    gens = generators_override if generators_override is not None else generators_for(params, config)
    warnings = []
    try:
        space = enumeration_space(config, budget)
    except BudgetExceeded as exc:
        warnings.append(f"{exc}; falling back to sampled mode")
        left: dict = {}
        points = _sample_points(config, seed, samples, max(1, samples // 20), left)
        warnings += _left_out(config, left)
        verdicts = [(x, closure_leq(c, params, config), v) for (x, c), v in zip(points, _vanishing(gens, points))]
        n_locus, n_vanish = sum(m for _, m, _ in verdicts), sum(v for _, _, v in verdicts)
        misses = [(x, m) for x, m, v in verdicts if m != v]  # (entries, in locus)
        mismatches, first = len(misses), (misses[0] if misses else None)
        mode = {"kind": "sampled", "n": len(points), "seed": seed}
    else:
        moved = _moved_generator(gens, config)
        if moved is None:  # the zero set is a union of row-space classes: sum over row spaces
            strata, weights, zero = _row_space_strata(config, budget), _space_weights(config), config.field.zero
            member = {c: closure_leq(c, params, config) for c in set(strata.values())}
            n_locus = n_vanish = mismatches = 0
            for W, c in strata.items():
                n, m = weights[len(W)], member[c]
                v = gens.vanishes_at([x for row in W for x in row] + [zero] * (config.f * (config.e - len(W))))
                n_locus += n * m
                n_vanish += n * v
                mismatches += n * (m != v)
            first = _per_matrix_cut(params, gens, config, budget, True)[3] if mismatches else None
        else:
            g, rows = moved
            shown = "; ".join(" ".join(map(config.field.render, row)) for row in rows)
            warnings.append(f"generator {g.label_text()} leaves the span of the set under g = [{shown}], "
                            "so the cut is evaluated matrix by matrix")
            n_locus, n_vanish, mismatches, first = _per_matrix_cut(params, gens, config, budget, False)
        mode = {"kind": "exhaustive", "space": space}
    witness = None if first is None else {
        "reason": "zero set disagrees with the rank-condition locus", "in_locus": first[1],
        "generators_vanish": not first[1], "matrix": _rows(config, first[0]),
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
) -> VerificationReport:
    """Sampled points of each stratum vanish on another stratum's
    generators exactly when the closure order says they should.  A
    stratum without generators over this field, or without orbit points,
    is left out, with one warning."""
    if samples < 1:
        raise InvalidParams(f"closure order needs at least one sample per stratum, got {samples}")
    t0 = time.perf_counter()
    order_fn = order_override if order_override is not None else closure_leq
    build = generators_override if generators_override is not None else generators_for
    left: dict = {}
    uppers = _per_stratum(config, lambda q: build(q, config), left)
    points = _sample_points(config, seed, 0, samples, left)
    at: dict = {}  # stratum with points, in order -> their entries
    for x, c in points:
        at.setdefault(c, []).append(x)
    witness = None
    pairs = 0
    for p, q in product(at, uppers):
        pairs += 1
        expected = order_fn(p, q, config)
        bad = next((x for x in at[p] if _verdict(uppers[q], x) != expected), None)
        if bad is not None:
            witness = {"reason": "sampled vanishing disagrees with the closure order", "lower": str(p),
                       "upper": str(q), "expected": expected, "matrix": _rows(config, bad)}
            break
    status = "pass" if witness is None else "fail"
    return _report(
        "closure-order", config, {"kind": "sampled", "n": samples, "seed": seed},
        status, witness, {"pairs": pairs, "samples_per_stratum": samples}, _left_out(config, left), t0,
    )


def _growth_exponent(n1: int, n2: int, q1: int, q2: int) -> int:
    """The integer nearest log(n2/n1) / log(q2/q1), exactly: the k with
    b^(2k-1) <= r^2 < b^(2k+1) for r = n2/n1, b = q2/q1 (both inverted
    when b < 1).  Distinct primes never make r^2 an odd power of b."""
    r, b = Fraction(n2, n1), Fraction(q2, q1)
    if b < 1:
        r, b = 1 / r, 1 / b
    r2 = r * r
    k = 0
    while r2 >= b ** (2 * k + 1):
        k += 1
    while r2 < b ** (2 * k - 1):
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
        counts[q] = sum(n for c, n in _stratum_sizes(cfg_q, budget).items() if closure_leq(c, params, cfg_q))
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
        guarded("closure-order", config, {}, check_closure_order, config, samples=samples, seed=seed),
        *(guarded("equation-cut", config, {"params": str(p)}, check_equation_cut, p, config, budget=budget,
                  seed=seed) for p in strata),
        *(guarded("point-count", config, {"params": str(p)}, point_count_dimension_estimate, p, config, primes,
                  budget) for p in strata),
    ]
