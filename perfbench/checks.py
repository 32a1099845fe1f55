"""Output checks for the benchmark, independent of the code under test.

Every expected value here comes from a closed form or from the README's
constraints, computed in this file: the admissible stratum labels, the
codimension formula, the number of rank-r matrices over F_q, and the size
of each generator family.  A check returns a list of error strings; an
empty list means the output is accepted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import comb

SYMMETRIC = "symmetric"
ALTERNATING = "alternating"
CENSUS_BUDGET = 10_000_000  # the CLI's default --budget
COUNT_PRIMES = (3, 5)       # the CLI's default --primes


@dataclass(frozen=True)
class Space:
    """The matrix space an invocation works on."""

    kind: str            # symmetric | alternating
    e: int
    f: int
    p: int | None        # F_p, or None for the rationals


def admissible(space: Space) -> list[tuple]:
    """Labels (r1, r2, sign) allowed by the README: 0 <= r2 <= r1 <= e,
    2*r1 - r2 <= f, r2 even for alternating forms, and (f/2, 0) split into
    '+' and '-' for symmetric forms with f even."""
    out = []
    for r1 in range(space.e + 1):
        for r2 in range(r1 + 1):
            if 2 * r1 - r2 > space.f:
                continue
            if space.kind == ALTERNATING and r2 % 2:
                continue
            if space.kind == SYMMETRIC and space.f % 2 == 0 and (r1, r2) == (space.f // 2, 0):
                out += [(r1, r2, "+"), (r1, r2, "-")]
            else:
                out.append((r1, r2, None))
    return out


def label_text(label: tuple) -> str:
    r1, r2, sign = label
    return f"({r1},{r2})" if sign is None else f"({r1},{r2},{sign})"


def label_of_json(obj: dict) -> tuple:
    return (obj["r1"], obj["r2"], obj.get("sign"))


def codimension(space: Space, r1: int, r2: int) -> int:
    """(e-r1)(f-r1) + C(r1-r2, 2) for alternating forms and
    (e-r1)(f-r1) + C(r1-r2+1, 2) for symmetric ones."""
    gap = r1 - r2 if space.kind == ALTERNATING else r1 - r2 + 1
    return (space.e - r1) * (space.f - r1) + comb(gap, 2)


def rank_count(q: int, e: int, f: int, r: int) -> int:
    """Number of rank-r e x f matrices over F_q:
    prod_{i<r} (q^e - q^i)(q^f - q^i) / (q^r - q^i)."""
    num = den = 1
    for i in range(r):
        num *= (q ** e - q ** i) * (q ** f - q ** i)
        den *= q ** r - q ** i
    return num // den


def expected_inventory(space: Space, label: tuple) -> dict:
    """Generator families of a non-signed stratum and their (count,
    degree): all (r1+1)-minors of the generic matrix, plus the
    (r2+1)-minors of its symmetric Gram image (one per unordered pair of
    row sets) or the principal (r2+2)-sub-Pfaffians of its skew one."""
    r1, r2, _ = label
    inv = {}
    k = r1 + 1
    if k <= min(space.e, space.f):
        inv["minor"] = (comb(space.e, k) * comb(space.f, k), k)
    if space.kind == SYMMETRIC:
        k = r2 + 1
        if k <= space.e:
            n = comb(space.e, k)
            inv["gram-minor"] = (n * (n + 1) // 2, 2 * k)
    else:
        k = r2 + 2
        if k <= space.e:
            inv["gram-pfaffian"] = (comb(space.e, k), k)
    return inv


# --------------------------------------------------------------------------
# per-command checks

def check_config(space: Space, config: dict) -> list[str]:
    want = {"kind": space.kind, "e": space.e, "f": space.f}
    got = {k: config.get(k) for k in want}
    return [] if got == want else [f"config {got} != {want}"]


def check_atlas(space: Space, stdout: str) -> list[str]:
    try:
        atlas = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"atlas output is not JSON: {exc}"]
    errors = check_config(space, atlas.get("config", {}))
    rows = atlas.get("rows", [])
    labels = [label_of_json(row["params"]) for row in rows]
    want = admissible(space)
    if sorted(labels, key=str) != sorted(want, key=str):
        errors.append(
            f"atlas labels {[label_text(x) for x in labels]} != admissible {[label_text(x) for x in want]}"
        )
    m = space.f // 2
    for row, label in zip(rows, labels):
        name = label_text(label)
        codim = codimension(space, label[0], label[1])
        if row["codim"] != codim or row["dim"] != space.e * space.f - codim:
            errors.append(f"{name}: dim/codim {row['dim']}/{row['codim']}, expected {space.e * space.f - codim}/{codim}")
        inv = row["generators"]
        if label[2] is None:
            got = {tag: (slot["count"], slot["degree"]) for tag, slot in inv.items()}
            want_inv = expected_inventory(space, label)
            if got != want_inv:
                errors.append(f"{name}: generator inventory {got} != {want_inv}")
        else:
            quad = inv.get("quadratic-invariant", {})
            comp = inv.get("component", {})
            if (quad.get("count"), quad.get("degree")) != (space.e * (space.e + 1) // 2, 2):
                errors.append(f"{name}: quadratic invariants {quad}")
            if not comp.get("count") or comp.get("degree") != m:
                errors.append(f"{name}: component generators {comp}")
    return errors


def _check_census(space: Space, report: dict) -> list[str]:
    q = space.p
    exhaustive = q is not None and q ** (space.e * space.f) <= CENSUS_BUDGET
    if not exhaustive:
        if report["mode"].get("kind") != "skipped":
            return [f"census should be skipped, got mode {report['mode']}"]
        return []
    errors = []
    tallies = report["tallies"]
    total = q ** (space.e * space.f)
    if tallies.get("total") != total:
        errors.append(f"census total {tallies.get('total')} != {q}^{space.e * space.f}")
    labels = {label_text(x): x for x in admissible(space)}
    strata = {k: v for k, v in tallies.items() if k != "total"}
    for name in strata:
        if name not in labels:
            errors.append(f"census tallies an inadmissible stratum {name}")
    for r in range(min(space.e, space.f) + 1):
        got = sum(v for k, v in strata.items() if k in labels and labels[k][0] == r)
        want = rank_count(q, space.e, space.f, r)
        if got != want:
            errors.append(f"census: rank-{r} tallies sum to {got}, expected {want}")
    m = space.f // 2
    if space.kind == SYMMETRIC and space.f % 2 == 0 and m <= space.e:
        plus, minus = label_text((m, 0, "+")), label_text((m, 0, "-"))
        if strata.get(plus) != strata.get(minus):
            errors.append(f"census: {plus}={strata.get(plus)} != {minus}={strata.get(minus)}")
    return errors


def check_verify_all(space: Space, stdout: str, primes: tuple[int, ...] = COUNT_PRIMES) -> list[str]:
    """`verify all --format json --primes <primes>`: one report per line, in
    the order census, dimensions, closure-order, one equation-cut per
    stratum, one point-count per stratum."""
    reports = []
    for n, line in enumerate(stdout.splitlines(), 1):
        try:
            reports.append(json.loads(line))
        except json.JSONDecodeError as exc:
            return [f"line {n} is not JSON: {exc}"]
    want = admissible(space)
    want_names = sorted(label_text(x) for x in want)
    names = [r.get("check") for r in reports]
    shape = ["census", "dimensions", "closure-order"] + ["equation-cut"] * len(want) + ["point-count"] * len(want)
    if names != shape:
        return [f"report sequence {names} != {shape}"]
    errors = []
    for r in reports:
        errors += check_config(space, r["config"])
        if r["status"] == "fail":
            errors.append(f"{r['check']} failed: {r.get('witness')}")
    census, dims, closure = reports[:3]
    cuts = reports[3 : 3 + len(want)]
    counts = reports[3 + len(want) :]
    errors += _check_census(space, census)
    if dims["tallies"].get("strata") != len(want):
        errors.append(f"dimensions checked {dims['tallies'].get('strata')} strata, expected {len(want)}")
    if closure["tallies"].get("pairs") != len(want) ** 2:
        errors.append(f"closure-order checked {closure['tallies'].get('pairs')} pairs, expected {len(want) ** 2}")
    if sorted(c["tallies"].get("params") for c in cuts) != want_names:
        errors.append("equation cuts do not cover the admissible strata")
    for c in cuts:
        t = c["tallies"]
        if t.get("mismatches") != 0 or t.get("locus") != t.get("vanishing"):
            errors.append(f"equation cut {t.get('params')}: {t}")
    if sorted(c["tallies"].get("params") for c in counts) != want_names:
        errors.append("point counts do not cover the admissible strata")
    # counts run over F_q for each of `primes` whose space fits the
    # budget, and are skipped when fewer than two do
    n = space.e * space.f
    fitting = [q for q in primes if q ** n <= CENSUS_BUDGET]
    counted = len(fitting) >= 2
    by_name = {label_text(x): x for x in want}
    for c in counts:
        t = c["tallies"]
        label = by_name.get(t.get("params"))
        if label is None:
            continue
        if not counted:
            if c["mode"].get("kind") != "skipped":
                errors.append(f"point count {t['params']} should be skipped, got mode {c['mode']}")
            continue
        codim = codimension(space, label[0], label[1])
        if t.get("dim") != n - codim:
            errors.append(f"point count {t['params']}: dim {t.get('dim')} != {n - codim}")
        # the locus of (0,0) is the zero matrix; that of the dense stratum is everything
        want_counts = {str(q): 1 if label[0] == 0 else q ** n for q in fitting}
        if (label[0] == 0 or codim == 0) and t.get("counts") != want_counts:
            errors.append(f"point count {t['params']}: counts {t.get('counts')} != {want_counts}")
    return errors


CHECKERS = {"atlas": check_atlas, "verify": check_verify_all}
