"""Verification harness: exhaustive finite-field sweeps and seeded
sampling that tie every formula in the library back to an independent
check, emitting machine-readable reports.

Every exhaustive check reads the space in one odometer order over the
entries (row-major, last entry fastest), so positions, tables and
witnesses agree between checks; :func:`_entries_at` decodes a position.

The stratum of a matrix depends only on its row space W: r1 = dim W, r2
is the rank of the form on W, and the sign is read off dim(W meet L0).
The classification table therefore never reduces a matrix: it is
composed one row at a time, since the row space of (v_1, ..., v_e) is
the join of span(v_1..v_(e-1)) with v_e.  Every subspace S met as a
prefix gets one cached row of joins over all vectors, built per coset of
S: the join depends only on the residual of v modulo S, so each residual
is reduced once and its join written at every vector of its coset.  The
last level of joins becomes rows of stratum codes, and the table is those
byte rows joined in odometer order; each distinct row space is classified
once.  The table is cached per configuration, and the budget gates every
read of it.

The exhaustive equation cut is composed row by row as well
(:func:`_vanish_rows`): each generator, restricted to the last row, has one
cached zero row per scaled coefficient vector, so no generator is
evaluated per matrix, yet every matrix gets its own verdict.  The sampled
checks (sampled cuts, closure order) read one labelled sample pool,
:func:`_sample_points`: seeded uniform and orbit points, each drawn and
labelled once per process, as flat entry tuples with their stratum.
:func:`_vanishing` gives the one vanishing verdict at each such point, and
the two checks differ only in how they reduce the verdicts.  Every
per-stratum value is built by :func:`_per_stratum`, so in ``run_all`` a
stratum the form or field cannot populate is left out with a warning.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import product

from .equations import GeneratorSet, generators_for
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
    split_config,
    tangent_dimension,
    valid_params,
)
from .fields import field_create
from .linalg import Matrix, echelon, random_matrix

DEFAULT_BUDGET = 10_000_000


class VerificationReport(Record):
    """One check's outcome; failures always carry a concrete witness.
    ``status`` is pass, fail or warn.  Unlike the other records, a report
    may be updated, so it is not hashable."""

    __slots__ = ("name", "config", "mode", "status", "witness", "tallies", "warnings", "wall_time_ms")
    __setattr__ = object.__setattr__
    __hash__ = None

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

_CLASS_CACHE: dict = {}
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


def _entries_at(config: SpaceConfig, pos: int) -> list:
    """Flat entries of the matrix at odometer position ``pos``: its base-q
    digits over ``field.elements()``, most significant first."""
    elements = list(config.field.elements())
    q, n = len(elements), config.e * config.f
    return [elements[pos // q ** (n - 1 - i) % q] for i in range(n)]


def _rows(config: SpaceConfig, entries) -> list:
    """A flat entry tuple as the rendered rows of its e x f matrix."""
    render, f = config.field.render, config.f
    return [[render(v) for v in entries[i * f : (i + 1) * f]] for i in range(config.e)]


def classification_table(config: SpaceConfig, budget: int = DEFAULT_BUDGET):
    """(classes, codes): stratum labels and, for every matrix in odometer
    order, the index of its stratum in ``classes``.  Raises
    BudgetExceeded when the space exceeds the budget, cached or not.

    The matrix with rows (v_1, ..., v_e) sits at position
    sum idx(v_i) q^(f(e-i)), and its row space is span(v_1..v_(e-1)) + v_e.
    So each prefix subspace S (a reduced row-echelon basis b_i with pivots
    c_i) gets one cached row v -> S + v over the q^f vectors.  S + v
    depends only on the residual r = v - sum v[c_i] b_i, zero on the
    pivots, and residuals span the same join exactly when they are
    proportional.  So each of the q^(f - dim S) residuals is scaled to a
    leading one once, :func:`echelon` runs once per new row space, and the
    residual's space is written at every v = r + sum a_i b_i of its coset,
    at positions summed from the digits of each entry in ``elements()``.
    Prefixes are composed level by level, and each distinct last-level row
    becomes bytes of stratum codes.  ``classify`` runs on the padded basis
    of each row space the first time it is met in odometer order, so
    unexpected strata are appended in that order.
    """
    enumeration_space(config, budget)
    cached = _CLASS_CACHE.get(config)
    if cached is not None:
        return cached
    F, e, f = config.field, config.e, config.f
    zero, elements = F.zero, list(F.elements())
    q, digit = len(elements), {x: i for i, x in enumerate(elements)}
    joins: dict = {}  # basis of S -> [basis of S + v for v in odometer order]
    spaces: dict = {}  # one shared tuple per row space

    def join_row(basis):
        row = joins.get(basis)
        if row is None:
            pivots = [next(j for j, x in enumerate(b) if x != zero) for b in basis]
            choices = [[zero] if j in pivots else elements for j in range(f)]  # a residual's entries
            by_unit: dict = {(): basis}  # the zero residual joins to S itself
            joined = []  # S + r for each residual r, in odometer order
            for r in product(*choices):
                lead = next((x for x in r if x != zero), None)
                unit = () if lead is None else tuple(F.scale_row(F.inv(lead), r))
                space = by_unit.get(unit)
                if space is None:
                    rows = [*map(list, basis), list(unit)]
                    echelon(F, rows)
                    space = tuple(map(tuple, rows))
                    space = by_unit[unit] = spaces.setdefault(space, space)
                joined.append(space)
            row = joins[basis] = [None] * q ** f  # every position lies in one coset
            for coeffs in product(elements, repeat=len(basis)):
                t = [zero] * f  # the coset r + t of t = sum a_i b_i, which holds a_i at pivot i
                for a, b in zip(coeffs, basis):
                    t = F.axpy(a, b, t)
                at = [0]  # the positions of r + t, digit by digit, in the residuals' order
                for j, xs in enumerate(choices):
                    digits = [digit[F.add(x, t[j])] * q ** (f - 1 - j) for x in xs]
                    at = [s + d for s in at for d in digits]
                for pos, space in zip(at, joined):
                    row[pos] = space
        return row

    prefixes = [()]
    for _ in range(e - 1):
        level: list = []
        for basis in prefixes:
            level += join_row(basis)
        prefixes = level
    classes = list(valid_params(config))
    index = {p: i for i, p in enumerate(classes)}
    code_of: dict = {}    # basis of a row space -> stratum code
    last_rows: dict = {}  # basis of a prefix -> bytes of stratum codes
    for prefix in dict.fromkeys(prefixes):  # distinct, by first occurrence
        row = join_row(prefix)
        for space in row:
            if space not in code_of:
                padded = [*space, *[(zero,) * f] * (e - len(space))]
                params = classify(Matrix(F, padded, e, f), config)
                code = index.get(params)
                if code is None:  # defensive: record unexpected strata
                    index[params] = code = len(classes)
                    classes.append(params)
                code_of[space] = code
        last_rows[prefix] = bytes(map(code_of.__getitem__, row))
    result = (classes, b"".join(map(last_rows.__getitem__, prefixes)))
    _CLASS_CACHE[config] = result
    return result


def _compile_for_prime(gens: GeneratorSet, p: int):
    return [g.poly.compiled() for g in gens]


def _all_vanish_prime(compiled, vals, p) -> bool:
    for poly in compiled:
        total = 0
        for c, idxs in poly:
            acc = c
            for i in idxs:
                acc = acc * vals[i] % p
            total += acc
        if total % p:
            return False
    return True


def _vanishing(gens: GeneratorSet, points) -> list:
    """Whether every generator vanishes, at each labelled point ``(flat
    entries, stratum)`` of ``points``: compiled integer terms mod p on
    prime fields, exact evaluation elsewhere."""
    F = gens.config.field
    if F.kind == "prime":
        compiled = _compile_for_prime(gens, F.p)
        return [_all_vanish_prime(compiled, x, F.p) for x, _ in points]
    polys = [g.poly for g in gens]
    return [all(poly.evaluate(x) == F.zero for poly in polys) for x, _ in points]


def _vanish_rows(gens: GeneratorSet, config: SpaceConfig):
    """For each prefix u of the first e-1 rows, in odometer order, the
    vanishing row of the generators over the q^f last rows v: an int with
    one 0/1 byte per v, big-endian.  A generator is g = sum_m c_m(u) v^m,
    so at u it vanishes on the whole row when every c_m(u) is zero, and
    otherwise its zero row depends only on its non-zero terms up to a
    scalar: the cache key, scaled to a leading one.  A new zero row is
    built as one combination of whole columns, the values of each last-row
    monomial at every v."""
    F, f, cut = config.field, config.f, (config.e - 1) * config.f  # the prefix's entries come first
    zero, add, mul = F.zero, F.add, F.mul
    elements = list(F.elements())
    q, width = len(elements), len(elements) ** f
    # per generator, per term: (last-row monomial, coefficient, prefix variables)
    split = [[(tuple(i - cut for i in idxs if i >= cut), c, [i for i in idxs if i < cut])
              for c, idxs in g.poly.compiled()] for g in gens]
    # last-row monomial -> its value at every v; entry i of v is digit i of its position
    columns = {(i,): [x for x in elements for _ in range(q ** (f - 1 - i))] * q ** i for i in range(f)}
    columns[()] = [F.one] * width
    for m in sorted({m[:j] for terms in split for m, _, _ in terms for j in range(2, len(m) + 1)}, key=len):
        columns[m] = list(map(mul, columns[m[:-1]], columns[m[-1:]]))
    rows: dict = {}  # scaled non-zero terms -> zero row
    for u in product(elements, repeat=cut):
        vanish = int.from_bytes(b"\1" * width, "big")
        for terms in split:
            coeffs: dict = {}
            for m, c, idxs in terms:
                for i in idxs:
                    c = mul(c, u[i])
                coeffs[m] = add(coeffs[m], c) if m in coeffs else c
            live = [(m, c) for m, c in coeffs.items() if c != zero]
            if not live:
                continue  # g vanishes on the whole row
            key = tuple([(m, F.div(c, live[0][1])) for m, c in live])
            if key not in rows:
                acc = columns[key[0][0]]
                for m, c in key[1:]:
                    acc = F.axpy(c, columns[m], acc)
                rows[key] = int.from_bytes(bytes(map(zero.__eq__, acc)), "big")
            vanish &= rows[key]
            if not vanish:
                break
        yield vanish


def _per_stratum(config: SpaceConfig, build, left: dict | None) -> dict:
    """``{p: build(p)}`` over the strata of ``config``, in order.  Where
    ``build`` raises StratumUnavailable, re-raise, or, given a dict
    ``left``, leave the stratum out and set ``left[p]`` to the message."""
    built = {}
    for p in valid_params(config):
        try:
            built[p] = build(p)
        except StratumUnavailable as exc:
            if left is None:
                raise
            left[p] = str(exc)
    return built


def _left_out(config: SpaceConfig, left: dict) -> list:
    """One warning per stratum recorded in ``left``, in stratum order."""
    return [f"stratum {p} left out: {left[p]}" for p in valid_params(config) if p in left]


def _sample_points(config: SpaceConfig, seed, uniform: int, per_stratum: int, left: dict | None = None):
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


def exhaustive_census(
    config: SpaceConfig,
    budget: int = DEFAULT_BUDGET,
    valid_params_override=None,
) -> VerificationReport:
    """Classify every matrix of the space and tally per stratum; every
    matrix must land in an admissible stratum and tallies must sum to the
    space size."""
    t0 = time.perf_counter()
    classes, codes = classification_table(config, budget)
    counts = [codes.count(i) for i in range(len(classes))]
    expected = set(valid_params_override if valid_params_override is not None else valid_params(config))
    tallies = {str(classes[i]): counts[i] for i in range(len(classes)) if counts[i]}
    witness = None
    stray = next((i for i, cnt in enumerate(counts) if cnt and classes[i] not in expected), None)
    if stray is not None:
        witness = {"reason": "matrix classified outside the admissible strata", "params": str(classes[stray]),
                   "matrix": _rows(config, _entries_at(config, codes.index(stray)))}
    elif sum(counts) != len(codes):
        witness = {"reason": "tallies do not sum to the space size", "sum": sum(counts)}
    status = "pass" if witness is None else "fail"
    tallies["total"] = sum(counts)
    return _report(
        "census", config, {"kind": "exhaustive", "space": len(codes)}, status, witness, tallies, [], t0
    )


def check_equation_cut(
    params: OrbitParams,
    config: SpaceConfig,
    budget: int = DEFAULT_BUDGET,
    samples: int = 2000,
    seed: int = 0,
    generators_override: GeneratorSet | None = None,
    partial: bool = False,
) -> VerificationReport:
    """Set-theoretic check that the stratum's generators cut exactly the
    rank-condition locus.  Exhaustive within budget; otherwise falls back
    to seeded sampling (uniform matrices plus points of every stratum)
    with a warning; ``partial`` leaves out, with a warning each, the
    strata the form cannot populate."""
    t0 = time.perf_counter()
    gens = generators_override if generators_override is not None else generators_for(params, config)
    warnings = []
    try:
        classes, codes = classification_table(config, budget)
    except BudgetExceeded as exc:
        warnings.append(f"{exc}; falling back to sampled mode")
        left: dict = {}
        points = _sample_points(config, seed, samples, max(1, samples // 20), left if partial else None)
        warnings += _left_out(config, left)
        verdicts = [(x, closure_leq(c, params, config), v) for (x, c), v in zip(points, _vanishing(gens, points))]
        n_locus, n_vanish = sum(m for _, m, _ in verdicts), sum(v for _, _, v in verdicts)
        misses = [(x, m) for x, m, v in verdicts if m != v]  # (entries, in locus)
        mismatches, first = len(misses), (misses[0] if misses else None)
        mode = {"kind": "sampled", "n": len(points), "seed": seed}
    else:
        member = bytes(closure_leq(c, params, config) for c in classes).ljust(256, b"\0")
        width, pos = config.field.order ** config.f, None
        n_locus = n_vanish = mismatches = 0
        for k, vanish in enumerate(_vanish_rows(gens, config)):
            locus = codes[k * width : (k + 1) * width].translate(member)  # same layout as vanish
            diff = vanish ^ int.from_bytes(locus, "big")
            n_locus += locus.count(1)
            n_vanish += vanish.bit_count()
            mismatches += diff.bit_count()
            if diff and pos is None:  # the first mismatch is the highest set byte
                pos = (k + 1) * width - 1 - (diff.bit_length() - 1) // 8
        first = None if pos is None else (_entries_at(config, pos), bool(member[codes[pos]]))
        mode = {"kind": "exhaustive", "space": len(codes)}
    witness = None if first is None else {
        "reason": "zero set disagrees with the rank-condition locus", "in_locus": first[1],
        "generators_vanish": not first[1], "matrix": _rows(config, first[0]),
    }
    status = "pass" if mismatches == 0 else "fail"
    tallies = {"params": str(params), "generators": len(gens), "locus": n_locus, "vanishing": n_vanish,
               "mismatches": mismatches}
    return _report("equation-cut", config, mode, status, witness, tallies, warnings, t0)


def check_dimensions(config: SpaceConfig, codim_override=None, partial: bool = False) -> VerificationReport:
    """Tangent-space oracle for the codimension formula: for every
    stratum, the rank of the linearized action at the representative must
    equal e*f - codim, exactly.  With ``partial``, a stratum without a
    representative (too small a Witt index) is left out, with one
    warning."""
    t0 = time.perf_counter()
    codim_fn = codim_override if codim_override is not None else codimension
    witness = None
    checked = 0
    left: dict = {}
    reps = _per_stratum(config, lambda p: representative(p, config), left if partial else None)
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
    partial: bool = False,
) -> VerificationReport:
    """Sampled points of each stratum vanish on another stratum's
    generators exactly when the closure order says they should.  With
    ``partial``, a stratum without generators over this field, or without
    orbit points, is left out, with one warning."""
    if samples < 1:
        raise InvalidParams(f"closure order needs at least one sample per stratum, got {samples}")
    t0 = time.perf_counter()
    order_fn = order_override if order_override is not None else closure_leq
    build = generators_override if generators_override is not None else generators_for
    left: dict = {}
    uppers = _per_stratum(config, lambda q: build(q, config), left if partial else None)
    points = _sample_points(config, seed, 0, samples, left if partial else None)
    verdicts = {q: _vanishing(gens, points) for q, gens in uppers.items()}
    at: dict = {}  # stratum with points, in order -> its positions in the pool
    for i, (_, c) in enumerate(points):
        at.setdefault(c, []).append(i)
    witness = None
    pairs = 0
    for p, q in product(at, uppers):
        pairs += 1
        expected, vanish = order_fn(p, q, config), verdicts[q]
        bad = next((i for i in at[p] if vanish[i] != expected), None)
        if bad is not None:
            witness = {"reason": "sampled vanishing disagrees with the closure order", "lower": str(p),
                       "upper": str(q), "expected": expected, "matrix": _rows(config, points[bad][0])}
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
    split form over each prime; repeated primes count once."""
    t0 = time.perf_counter()
    admissible = []
    for q in dict.fromkeys(primes):
        try:
            cfg_q = split_config(config.e, config.f, config.kind, field_create("prime", q))
            enumeration_space(cfg_q, budget)
            admissible.append((q, cfg_q))
        except BudgetExceeded:
            continue
    if len(admissible) < 2:
        raise BudgetExceeded("need at least two admissible primes within budget")
    counts = {}
    for q, cfg_q in admissible:
        classes, codes = classification_table(cfg_q, budget)
        counts[q] = sum(codes.count(i) for i, c in enumerate(classes) if closure_leq(c, params, cfg_q))
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
        "point-count", config, {"kind": "exhaustive", "primes": qs}, status, witness, tallies, [], t0
    )


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
    the error's message instead of aborting the batch; the dimension and
    closure checks and the sampled cuts leave out only the strata they
    cannot use, with one warning each."""

    def guarded(name, tallies, check, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return check(*args, **kwargs)
        except (BudgetExceeded, StratumUnavailable) as exc:
            return _report(name, config, {"kind": "skipped"}, "warn", None, tallies, [str(exc)], t0)

    strata = valid_params(config)
    return [
        guarded("census", {}, exhaustive_census, config, budget),
        guarded("dimensions", {}, check_dimensions, config, partial=True),
        guarded("closure-order", {}, check_closure_order, config, samples=samples, seed=seed, partial=True),
        *(guarded("equation-cut", {"params": str(p)}, check_equation_cut, p, config, budget=budget, seed=seed,
                  partial=True)
          for p in strata),
        *(guarded("point-count", {"params": str(p)}, point_count_dimension_estimate, p, config, primes, budget)
          for p in strata),
    ]
