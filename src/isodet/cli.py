"""Command line: atlas tables, classification, equation export, orbit
sampling, congruence solving and the verification harness.

Exit codes: 0 success, 1 domain error, file error or stdout closed before
the output was complete (each with a JSON diagnostic on stderr), 2 usage
error, 3 verification failure.  Output is deterministic for a fixed argv
and seed (timings are only included on request).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .equations import generators_for
from .errors import InvalidForm, IsodetError, MalformedInput, StratumUnavailable
from .fields import field_from_json
from .forms_orbits import (
    BilinearForm,
    OrbitParams,
    SpaceConfig,
    classify,
    codimension,
    dimension,
    facts,
    random_orbit_point,
    solve_congruence,
    valid_params,
)
from .linalg import Matrix

KINDS = {"sym": "symmetric", "symmetric": "symmetric", "alt": "alternating", "alternating": "alternating"}


class UsageError(Exception):
    """Malformed command-line text; reported as a usage error (exit 2)."""


def parse_field_spec(spec: str):
    """p=<prime>[,ext=2] or 'rationals'/'q', each key at most once."""
    text = spec.strip().lower()
    if text in ("q", "rationals", "rational"):
        return field_from_json({"kind": "rationals"})
    pairs = [item.partition("=")[::2] for item in text.split(",")]
    parts = dict(pairs)
    ext = parts.pop("ext", None)
    try:
        p = int(parts.pop("p"))
    except (KeyError, ValueError):
        p = None
    if p is None or parts or ext not in (None, "2"):
        raise UsageError(f"--field: expected p=<prime>[,ext=2] or 'rationals', got {spec!r}")
    if len(dict(pairs)) < len(pairs):
        raise UsageError(f"--field: a key is given twice in {spec!r}")
    return field_from_json({"kind": "prime" if ext is None else "quadratic-extension", "p": p})


def parse_params_spec(spec: str) -> OrbitParams:
    """r1,r2[,sign]."""
    bits = [b.strip() for b in spec.split(",")]
    try:
        r1, r2 = int(bits[0]), int(bits[1])
    except (IndexError, ValueError):
        r1 = None
    if r1 is None or len(bits) > 3:
        raise UsageError(f"--params: expected r1,r2[,sign], got {spec!r}")
    sign = bits[2] if len(bits) > 2 else None
    return OrbitParams(r1, r2, sign)


def parse_primes_spec(spec: str) -> tuple:
    """Comma-separated integers."""
    try:
        return tuple(int(x) for x in spec.split(","))
    except ValueError:
        raise UsageError(f"--primes: expected comma-separated integers, got {spec!r}") from None


def load_input(path: str, build):
    """``build`` applied to the JSON document in ``path``; a file that is
    not JSON, or whose content ``build`` cannot parse, raises
    MalformedInput.  A missing file stays a FileNotFoundError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return build(json.load(fh))
    except FileNotFoundError:
        raise
    except MalformedInput as exc:
        raise MalformedInput(f"{path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"{path}: not a JSON document ({exc.msg} at line {exc.lineno}, column {exc.colno})") from None
    except (OSError, ValueError, LookupError, TypeError, ZeroDivisionError) as exc:
        raise MalformedInput(f"{path}: {type(exc).__name__}: {exc}") from None


def congruence_instance(obj, field) -> tuple:
    """The matrices S and A of a ``solve-congruence`` input file, which
    holds exactly ``{"S": <matrix>, "A": <matrix>}``."""
    if not isinstance(obj, dict) or obj.keys() != {"S", "A"}:
        raise MalformedInput('expected an instance as {"S": {"rows": ...}, "A": {"rows": ...}}')
    return Matrix.from_json(obj["S"], field), Matrix.from_json(obj["A"], field)


def resolve_form(args) -> BilinearForm:
    """The --kind form over --field with Gram --gram, of dimension -f >= 1."""
    field = parse_field_spec(args.field)
    if args.f < 1:
        raise InvalidForm("f must be at least 1")
    spec = {"kind": KINDS[args.kind], "gram": args.gram}
    if args.gram.startswith("file:"):
        form = load_input(args.gram[5:], lambda gram: BilinearForm.from_json(field, {**spec, "gram": gram}))
    else:
        form = BilinearForm.from_json(field, spec, args.f)
    if form.f != args.f:
        raise InvalidForm("form dimension disagrees with f")
    return form


def resolve_config(args) -> SpaceConfig:
    form = resolve_form(args)
    return SpaceConfig(args.e, args.f, form.field, form)


def echo_config(args, config: SpaceConfig) -> str:
    return (
        f"# isodet {args.command} kind={config.kind} e={config.e} f={config.f} "
        f"field={json.dumps(config.field.descriptor(), sort_keys=True)} "
        f"gram={args.gram} seed={args.seed}"
    )


# --------------------------------------------------------------------------
# atlas

UNKNOWN_MARK = "?"

FOOTNOTES = [
    "? marks flags the tabulated classification leaves open; they are never guessed.",
    "normality rule (symmetric): normal unless r2 = 2*r1 - f with 0 < r2 < r1; "
    "the full-isotropic-rank case r2 = r1 is treated as normal.",
    "strata counted twice as (f/2,0,+/-) are the two components of the "
    "full-Witt totally isotropic stratum of even orthogonal spaces.",
]


def _flag(v) -> str:
    if v is True:
        return "yes"
    if v is False:
        return "no"
    return UNKNOWN_MARK if v == "unknown" else v


def generator_inventory(params: OrbitParams, config: SpaceConfig) -> dict:
    """Count and degree of each generator family of a stratum, read from
    the set's families (no generator is made); a stratum the form or field
    cannot populate is marked unavailable."""
    try:
        gens = generators_for(params, config)
    except StratumUnavailable as exc:
        return {"unavailable": type(exc).__name__}
    return {fam.tag: {"count": fam.count, "degree": fam.degree} for fam in gens.families}


def render_atlas(config: SpaceConfig) -> dict:
    rows = [
        {"params": p.to_json(), **facts(p, config).to_json(), "generators": generator_inventory(p, config)}
        for p in valid_params(config)
    ]
    return {"config": config.to_json(), "rows": rows, "footnotes": FOOTNOTES}


def atlas_text(atlas: dict) -> str:
    header = ["params", "dim", "codim", "normal", "CM", "RS(char0)", "Gor", "F-reg", "generators"]
    lines = []
    table = [header]
    for row in atlas["rows"]:
        p = OrbitParams.from_json(row["params"])
        inv = row["generators"]
        inv_text = (
            " ".join(f"{tag}:{slot['count']}(deg {slot['degree']})" for tag, slot in inv.items())
            if inv and "unavailable" not in inv
            else (inv.get("unavailable", "-") if inv else "-")
        )
        flags = ("normal", "cohen_macaulay", "rational_singularities_char0", "gorenstein", "strongly_f_regular")
        table.append([str(p), str(row["dim"]), str(row["codim"]), *(_flag(row[k]) for k in flags), inv_text])
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    for r in table:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    for note in atlas["footnotes"]:
        lines.append(f"note: {note}")
    return "\n".join(lines)


# --------------------------------------------------------------------------
# subcommands

def _matrix_text(m: Matrix) -> str:
    return "; ".join(" ".join(m.field.render(v) for v in row) for row in m.data)


# Each handler returns (exit code, docs, text); ``dispatch`` prints a line per
# JSON document of ``docs()`` or each line of ``text()``, and calls only one.

def _cmd_atlas(args):
    config = resolve_config(args)
    atlas = render_atlas(config)
    return 0, lambda: [atlas], lambda: [echo_config(args, config), atlas_text(atlas)]


def _cmd_classify(args):
    config = resolve_config(args)
    phi = load_input(args.infile, lambda obj: Matrix.from_json(obj, field=config.field))
    params = classify(phi, config)
    return (0, lambda: [{"config": config.to_json(), "params": params.to_json()}],
            lambda: [echo_config(args, config), f"params: {params}"])


def _cmd_equations(args):
    config = resolve_config(args)
    params = parse_params_spec(args.params)
    gens = generators_for(params, config)
    doc = {"config": config.to_json(), "params": params.to_json()}
    head = [echo_config(args, config), f"# params {params}, {len(gens)} generators"]
    return (0, lambda: [{**doc, "generators": gens.to_json()}],
            lambda: (head + [gens.to_text()] if len(gens) else head))


def _cmd_sample(args):
    if args.count < 1:
        raise UsageError(f"--count: expected a positive integer, got {args.count}")
    config = resolve_config(args)
    params = parse_params_spec(args.params)
    points = [random_orbit_point(params, config, seed=f"{args.seed}:{i}") for i in range(args.count)]
    doc = {"config": config.to_json(), "params": params.to_json(), "seed": args.seed}
    return (0, lambda: [{**doc, "points": [m.to_json() for m in points]}],
            lambda: [echo_config(args, config), *map(_matrix_text, points)])


def _cmd_solve_congruence(args):
    form = resolve_form(args)
    field = form.field
    S, A = load_input(args.infile, lambda obj: congruence_instance(obj, field))
    B = solve_congruence(S, A, form)
    residual = (A @ form.gram @ B.T) + (B @ form.gram @ A.T) - S
    residual_zero = all(field.is_zero(v) for row in residual.data for v in row)
    head = f"# isodet solve-congruence kind={form.kind} f={args.f}"
    return (0, lambda: [{"B": B.to_json(), "residual_zero": residual_zero}],
            lambda: [head, _matrix_text(B), f"residual_zero: {residual_zero}"])


# Each verify check: the options it reads, and the call that reads them, with
# the verify module, the --params stratum, or none.  An option not given is
# not passed, so the library's default holds.  The cut of every stratum skips
# one the form or field cannot populate, as verify all does.  Only this
# subcommand imports the verify module, so no other command pays for it.
VERIFY_CHECKS = {
    "census": (("budget",), lambda v, config, strata, seed, **kw: [v.exhaustive_census(config, **kw)]),
    "cut": (("params", "budget"), lambda v, config, strata, seed, **kw: [
        v.check_equation_cut(p, config, seed=seed, **kw) for p in strata] if strata else [
        v.guarded("equation-cut", config, {"params": str(p)}, v.check_equation_cut, p, config, seed=seed, **kw)
        for p in valid_params(config)]),
    "dims": ((), lambda v, config, strata, seed: [v.check_dimensions(config)]),
    "closure": (("samples", "budget"), lambda v, config, strata, seed, **kw: [
        v.check_closure_order(config, seed=seed, **kw)]),
    "counts": (("params", "budget", "primes"), lambda v, config, strata, seed, **kw: [
        v.point_count_dimension_estimate(p, config, **kw) for p in strata or valid_params(config)]),
    "all": (("budget", "samples", "primes"), lambda v, config, strata, seed, **kw: v.run_all(config, seed=seed, **kw)),
}
VERIFY_OPTIONS = dict.fromkeys(name for reads, _ in VERIFY_CHECKS.values() for name in reads)


def _cmd_verify(args):
    reads, run = VERIFY_CHECKS[args.check]
    given = {k: v for k, v in vars(args).items() if k in VERIFY_OPTIONS}
    unread = next((k for k in given if k not in reads), None)
    if unread:
        raise UsageError(f"--{unread}: the {args.check} check does not read it")
    if "samples" in given and args.samples < 1:
        raise UsageError(f"--samples: expected a positive integer, got {args.samples}")
    if "budget" in given and args.budget < 0:
        raise UsageError(f"--budget: expected a non-negative integer, got {args.budget}")
    config = resolve_config(args)
    if "primes" in given:
        given["primes"] = parse_primes_spec(given["primes"])
    strata = [parse_params_spec(given.pop("params"))] if "params" in given else []
    from . import verify

    reports = run(verify, config, strata, args.seed, **given)
    docs = [r.to_json(include_timing=args.timing) for r in reports]

    def text():
        lines = [echo_config(args, config)]
        for r, doc in zip(reports, docs):
            extra = f" witness={json.dumps(r.witness, sort_keys=True)}" if r.witness else ""
            extra += f" wall_time_ms={doc['wall_time_ms']}" if args.timing else ""
            tall = json.dumps(r.tallies, sort_keys=True)
            lines.append(f"{r.status.upper():4}  {r.name:14} {tall}{extra}")
            lines += [f"      warning: {w}" for w in r.warnings]
        return lines

    code = 0 if all(r.ok for r in reports) else 3
    return code, lambda: docs, text


# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    # the form on F and the output format, read by every subcommand
    form = argparse.ArgumentParser(add_help=False)
    form.add_argument("-f", type=int, required=True, help="dimension of F (columns)")
    form.add_argument("--kind", choices=sorted(KINDS), required=True)
    form.add_argument("--field", default="rationals", help="p=<prime>[,ext=2] or 'rationals'")
    form.add_argument("--gram", default="split", help="split | identity | file:<path>")
    form.add_argument("--format", choices=("text", "json"), default="text")

    common = argparse.ArgumentParser(add_help=False, parents=[form])
    common.add_argument("-e", type=int, required=True, help="dimension of E (rows)")
    common.add_argument("--seed", type=int, default=0, help="read by sample and verify cut, closure, all")

    parser = argparse.ArgumentParser(prog="isodet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("atlas", parents=[common], help="stratum table with flags and generator inventory")

    p_classify = sub.add_parser("classify", parents=[common], help="classify a matrix from JSON")
    p_classify.add_argument("--in", dest="infile", required=True)

    p_eq = sub.add_parser("equations", parents=[common], help="export a stratum's generators")
    p_eq.add_argument("--params", required=True, help="r1,r2[,sign]")
    p_eq.add_argument("--out")

    p_sample = sub.add_parser("sample", parents=[common], help="sample points of a stratum")
    p_sample.add_argument("--params", required=True, help="r1,r2[,sign]")
    p_sample.add_argument("--count", type=int, default=1)

    p_solve = sub.add_parser("solve-congruence", parents=[form], help="solve A K B^t + B K A^t = S for B")
    p_solve.add_argument("--in", dest="infile", required=True)

    p_verify = sub.add_parser("verify", parents=[common], help="run verification checks")
    p_verify.add_argument("check", choices=tuple(VERIFY_CHECKS))
    for option, kind, text in (("params", str, "one stratum r1,r2[,sign]"),
                               ("budget", int, "most matrices a check sweeps exhaustively; 0 forces sampling"),
                               ("samples", int, "closure-check orbit points per stratum"),
                               ("primes", str, "point-count primes p,q,...")):
        readers = ", ".join(c for c, (reads, _) in VERIFY_CHECKS.items() if option in reads)
        p_verify.add_argument(f"--{option}", type=kind, default=argparse.SUPPRESS, help=f"{text}; read by {readers}")
    p_verify.add_argument("--timing", action="store_true", help="add each report's wall_time_ms, in both formats")

    return parser


_HANDLERS = {
    "atlas": _cmd_atlas,
    "classify": _cmd_classify,
    "equations": _cmd_equations,
    "sample": _cmd_sample,
    "solve-congruence": _cmd_solve_congruence,
    "verify": _cmd_verify,
}


def _diagnose(error: str, message: str) -> int:
    """Print the JSON diagnostic of an exit 1 on stderr; returns 1."""
    print(json.dumps({"error": error, "message": message}, sort_keys=True), file=sys.stderr)
    return 1


def dispatch(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code, docs, text = _HANDLERS[args.command](args)
        lines = [json.dumps(d, sort_keys=True) for d in docs()] if args.format == "json" else text()
        out = "\n".join(lines)
        if getattr(args, "out", None):
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(out + "\n")
        else:
            # print writes the newline on its own: one large write into a
            # pipe whose reader has left can end short without raising
            print(out)
            sys.stdout.flush()
        return code
    except UsageError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2
    except IsodetError as exc:
        return _diagnose(type(exc).__name__, str(exc))
    except BrokenPipeError:
        # the reader left early (``| head``): the unwritten rest, and the
        # flush at interpreter exit, go to the null device
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return _diagnose("BrokenPipe", "stdout was closed before the output was complete")
    except OSError as exc:  # a missing input file, or an --out path that cannot be written
        return _diagnose("FileNotFound" if isinstance(exc, FileNotFoundError) else type(exc).__name__, str(exc))


def main(argv=None) -> int:
    return dispatch(argv)


if __name__ == "__main__":
    sys.exit(main())
