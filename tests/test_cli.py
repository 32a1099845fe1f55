import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from isodet import equations
from isodet.cli import VERIFY_CHECKS, dispatch, main, parse_field_spec, render_atlas
from isodet.errors import ConsistencyCheckFailed
from isodet.fields import field_create
from isodet.forms_orbits import split_config, valid_params
from isodet.linalg import Matrix


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_atlas_alternating(capsys):
    code, out, _ = run(capsys, "atlas", "--kind", "alternating", "-e", "2", "-f", "4")
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith(("#", "note:", "params"))]
    assert len(lines) == 4  # one row per stratum
    assert all("yes" in l for l in lines)  # all normal


def test_atlas_symmetric_rows(capsys):
    code, out, _ = run(capsys, "atlas", "--kind", "sym", "-e", "3", "-f", "4")
    assert code == 0
    row = next(l for l in out.splitlines() if l.startswith("(3,2)"))
    cells = row.split()
    assert cells[3] == "no" and cells[4] == "yes"  # non-normal but CM

    code, out, _ = run(capsys, "atlas", "--kind", "sym", "-e", "2", "-f", "4")
    plus = next(l for l in out.splitlines() if l.startswith("(2,0,+)"))
    minus = next(l for l in out.splitlines() if l.startswith("(2,0,-)"))
    assert plus.split()[1:] == minus.split()[1:]  # identical numerics


def test_atlas_json_roundtrip(capsys):
    code, out, _ = run(capsys, "atlas", "--kind", "alt", "-e", "2", "-f", "4",
                       "--field", "p=5", "--format", "json")
    assert code == 0
    atlas = json.loads(out)
    cfg = split_config(2, 4, "alternating", field_create("prime", 5))
    regenerated = json.dumps(render_atlas(cfg), sort_keys=True)
    assert regenerated == out.strip()


def test_atlas_expands_no_polynomial(monkeypatch, fresh_caches):
    # the inventory reads counts and degrees from the sets' labels; forcing
    # the same sets afterwards makes every expansion the atlas skipped
    calls = []
    real = equations._add_product
    monkeypatch.setattr(equations, "_add_product", lambda *args: calls.append(1) or real(*args))
    fresh_caches(equations, "_matrix_table", "_gram_table", "_generators")
    cfg = split_config(4, 8, "symmetric", field_create("prime", 7))
    render_atlas(cfg)
    assert calls == []
    for p in valid_params(cfg):
        for g in equations.generators_for(p, cfg):
            g.poly
    assert len(calls) == 1677


@pytest.mark.parametrize("kind,e,f", [("symmetric", 4, 8), ("alternating", 4, 10)])
def test_atlas_makes_no_generator(monkeypatch, kind, e, f):
    # the inventory reads each family's count and degree, so the atlas
    # runs with no Generator to make
    def refuse(*args):
        raise AssertionError("the atlas made a generator")

    cfg = split_config(e, f, kind, field_create("prime", 7))
    expected = render_atlas(cfg)
    monkeypatch.setattr(equations, "Generator", refuse)
    assert render_atlas(cfg) == expected


def test_atlas_raises_what_is_not_an_unavailable_stratum(capsys, monkeypatch, fresh_caches):
    # only StratumUnavailable becomes an "unavailable" cell; a failed
    # consistency check ends the command with its diagnostic
    def broken(form):
        raise ConsistencyCheckFailed("synthetic")

    monkeypatch.setattr(equations, "star_operator", broken)
    fresh_caches(equations, "_generators")  # a cached component set would never call star_operator
    code, out, err = run(capsys, "atlas", "--kind", "sym", "-e", "2", "-f", "4", "--field", "p=7")
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "ConsistencyCheckFailed", "message": "synthetic"}


def test_large_prime_field_runs_and_too_large_is_refused(capsys):
    # 2^61 - 1 is decided by Miller-Rabin at once; a modulus above the
    # proven bound is refused with a typed error, never guessed
    form = ("--kind", "sym", "-e", "2", "-f", "4", "--field")
    code, out, _ = run(capsys, "atlas", *form, f"p={2**61 - 1}")
    assert code == 0 and out
    code, out, err = run(capsys, "atlas", *form, f"p={(2**31 - 1) * (2**61 - 1)}")
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == "ModulusTooLarge"


def test_classify_zero_matrix(tmp_path, capsys):
    field = field_create("prime", 5)
    phi = Matrix.zeros(field, 2, 4)
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(phi.to_json()))
    code, out, _ = run(capsys, "classify", "--kind", "symmetric", "-e", "2", "-f", "4",
                       "--field", "p=5", "--in", str(path))
    assert code == 0
    assert "params: (0,0)" in out


def test_classify_sign(tmp_path, capsys):
    field = field_create("prime", 5)
    phi = Matrix.from_ints(field, [[1, 0, 0, 0], [0, 1, 0, 0]])
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(phi.to_json()))
    code, out, _ = run(capsys, "classify", "--kind", "sym", "-e", "2", "-f", "4",
                       "--field", "p=5", "--in", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["params"] == {"r1": 2, "r2": 0, "sign": "+"}


def test_equations_export(tmp_path, capsys):
    out_path = tmp_path / "gens.json"
    code, _, _ = run(capsys, "equations", "--kind", "alt", "-e", "2", "-f", "4",
                     "--field", "p=5", "--params", "2,0", "--format", "json",
                     "--out", str(out_path))
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert len(payload["generators"]) == 1
    assert payload["generators"][0]["label"] == "gram-pfaffian([0,1])"

    code, out, _ = run(capsys, "equations", "--kind", "sym", "-e", "2", "-f", "4",
                       "--field", "p=5", "--params", "2,0,+")
    assert code == 0
    assert "component" in out


def test_equations_empty_set_ends_with_its_header(tmp_path, capsys):
    # (2,2) is the dense stratum of alt e2f4: no generator, and no blank line
    argv = ("equations", "--kind", "alt", "-e", "2", "-f", "4", "--field", "p=3", "--params", "2,2")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.endswith("# params (2,2), 0 generators\n")
    out_path = tmp_path / "gens.txt"
    code, printed, _ = run(capsys, *argv, "--out", str(out_path))
    assert (code, printed) == (0, "")
    assert out_path.read_text() == out


def test_sample_deterministic(capsys):
    argv = ("sample", "--kind", "sym", "-e", "2", "-f", "4", "--field", "p=7",
            "--params", "2,1", "--count", "3", "--seed", "9", "--format", "json")
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert len(payload["points"]) == 3


def test_solve_congruence_cli(tmp_path, capsys):
    field = field_create("prime", 7)
    S = Matrix.from_ints(field, [[0, 1], [-1, 0]])
    A = Matrix.from_ints(field, [[1, 1, 0, 0], [0, 0, 1, 1]])
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"S": S.to_json(), "A": A.to_json()}))
    code, out, _ = run(capsys, "solve-congruence", "--kind", "alt", "-f", "4",
                       "--field", "p=7", "--in", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["residual_zero"] is True


def test_solve_congruence_checks_f(tmp_path, capsys):
    # the form resolver holds every command's form to -f, a Gram file's too
    gram = tmp_path / "gram.json"
    gram.write_text(json.dumps(GOLDEN_GRAM))
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(GOLDEN_INST))
    code, out, err = run(capsys, "solve-congruence", "--kind", "sym", "-f", "99", "--field", "p=7",
                         "--gram", f"file:{gram}", "--in", str(inst))
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "InvalidForm", "message": "form dimension disagrees with f"}


@pytest.mark.parametrize("f", ["0", "-1"])
def test_non_positive_f_is_invalid_form(capsys, f):
    for argv in (("atlas", "-e", "1"), ("solve-congruence", "--in", "unread.json")):
        code, out, err = run(capsys, *argv, "--kind", "sym", "-f", f, "--field", "p=7")
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "InvalidForm", "message": "f must be at least 1"}


def test_verify_all_small(capsys):
    code, out, _ = run(capsys, "verify", "all", "--kind", "alt", "-e", "2", "-f", "4",
                       "--field", "p=3", "--format", "json")
    assert code == 0
    reports = [json.loads(line) for line in out.splitlines()]
    assert all(r["status"] in ("pass", "warn") for r in reports)
    assert not any("wall_time_ms" in r for r in reports)


def test_verify_single_checks(capsys):
    code, out, _ = run(capsys, "verify", "census", "--kind", "alt", "-e", "2", "-f", "4",
                       "--field", "p=3")
    assert code == 0
    assert "census" in out

    code, out, _ = run(capsys, "verify", "cut", "--kind", "alt", "-e", "2", "-f", "4",
                       "--field", "p=3", "--params", "2,0")
    assert code == 0


def test_verify_budget_domain_error(capsys):
    code, _, err = run(capsys, "verify", "census", "--kind", "sym", "-e", "2", "-f", "4",
                       "--field", "p=11")
    assert code == 1
    assert json.loads(err)["error"] == "BudgetExceeded"


def test_usage_error_exit_2(capsys):
    assert dispatch(["atlas", "--kind", "bogus", "-e", "2", "-f", "4"]) == 2
    capsys.readouterr()
    assert dispatch([]) == 2
    capsys.readouterr()


def test_domain_error_exit_1(capsys):
    code, _, err = run(capsys, "atlas", "--kind", "sym", "-e", "2", "-f", "4", "--field", "p=9")
    assert code == 1
    assert json.loads(err)["error"] == "CompositeModulus"

    code, _, err = run(capsys, "atlas", "--kind", "alt", "-e", "2", "-f", "4", "--gram", "identity")
    assert code == 1
    assert json.loads(err)["error"] == "InvalidForm"

    code, _, err = run(capsys, "atlas", "--kind", "alt", "-e", "2", "-f", "3", "--field", "p=3")
    assert code == 1
    assert json.loads(err) == {"error": "InvalidForm", "message": "alternating form needs even dimension"}


def test_atlas_unknown_flags_and_footnotes(capsys):
    code, out, _ = run(capsys, "atlas", "--kind", "sym", "-e", "3", "-f", "4")
    assert code == 0
    assert "?" in out  # open classification flags render as ?
    assert any(l.startswith("note:") for l in out.splitlines())


def test_verify_all_symmetric_F5(capsys):
    code, out, _ = run(capsys, "verify", "all", "--kind", "symmetric", "-e", "2", "-f", "4",
                       "--field", "p=5", "--format", "json", "--samples", "25")
    assert code == 0
    reports = [json.loads(line) for line in out.splitlines()]
    assert all(r["status"] in ("pass", "warn") for r in reports)
    cuts = [r for r in reports if r["check"] == "equation-cut"]
    assert len(cuts) == 7 and all(r["status"] == "pass" for r in cuts)


def test_verify_all_skips_checks_the_form_cannot_run(capsys):
    # the anisotropic identity form over Q has Witt index 0, so no stratum
    # needing an isotropic vector has a representative or orbit points
    form = ("--kind", "sym", "-e", "2", "-f", "3", "--field", "rationals", "--gram", "identity")
    code, out, _ = run(capsys, "verify", "all", *form, "--samples", "5", "--format", "json")
    assert code == 0
    reports = [json.loads(line) for line in out.splitlines()]
    skipped = [r for r in reports if r["mode"] == {"kind": "skipped"}]
    assert {r["check"] for r in skipped} == {"census"}
    assert all(r["status"] == "warn" and r["warnings"] for r in skipped)
    dims = next(r for r in reports if r["check"] == "dimensions")
    assert any("hyperbolic pairs" in w for w in dims["warnings"])
    # the sampled checks leave out only the strata without orbit points
    sampled = [r for r in reports if r["check"] in ("closure-order", "equation-cut")]
    assert len(sampled) == 6 and all(r["status"] == "pass" for r in sampled)
    for r in sampled:
        left = [w for w in r["warnings"] if " left out: " in w]
        assert [w.split(" left out: ")[0] for w in left] == ["stratum (1,0)", "stratum (2,1)"]
        assert all("hyperbolic pairs" in w for w in left)
    counts = [r for r in reports if r["check"] == "point-count"]
    assert counts and all(r["status"] == "pass" for r in counts)
    # a single check leaves out the same strata and prints the same report
    code, out, _ = run(capsys, "verify", "dims", *form, "--format", "json")
    assert code == 0
    assert json.loads(out) == dims


def test_verify_all_leaves_out_strata_per_check(tmp_path, capsys):
    # diag(1,1,1,2) over F_3 has Witt index 1, and 1/det K is not a square,
    # so (2,0,+) and (2,0,-) have neither orbit points nor generators; the
    # closure check still runs on the 5 x 5 pairs of the other strata
    gram = tmp_path / "gram.json"
    gram.write_text(json.dumps({"rows": [["1", "0", "0", "0"], ["0", "1", "0", "0"],
                                         ["0", "0", "1", "0"], ["0", "0", "0", "2"]]}))
    form = ("--kind", "sym", "-e", "2", "-f", "4", "--field", "p=3", "--gram", f"file:{gram}")
    code, out, _ = run(capsys, "verify", "all", *form, "--format", "json")
    assert code == 0
    reports = [json.loads(line) for line in out.splitlines()]
    closure = next(r for r in reports if r["check"] == "closure-order")
    assert closure["status"] == "pass" and closure["tallies"]["pairs"] == 25
    assert [w.split(" left out: ")[0] for w in closure["warnings"]] == ["stratum (2,0,+)", "stratum (2,0,-)"]
    skipped = {r["check"] for r in reports if r["mode"] == {"kind": "skipped"}}
    assert skipped == {"equation-cut"}
    # the single check leaves out the same strata and prints the same report
    code, out, _ = run(capsys, "verify", "closure", *form, "--format", "json")
    assert code == 0
    assert json.loads(out) == closure


def test_verify_all_leaves_out_strata_without_representatives(tmp_path, capsys):
    # the tangent check runs on every stratum that has a representative
    gram = tmp_path / "gram.json"
    gram.write_text(json.dumps({"rows": [["1", "0", "0", "0"], ["0", "1", "0", "0"],
                                         ["0", "0", "1", "0"], ["0", "0", "0", "2"]]}))
    cases = [
        (("-e", "2", "-f", "4", "--field", "p=3", "--gram", f"file:{gram}"), 5, ["(2,0,+)", "(2,0,-)"]),
        (("-e", "2", "-f", "3", "--field", "rationals", "--gram", "identity", "--samples", "5"), 3,
         ["(1,0)", "(2,1)"]),
    ]
    for form, strata, left in cases:
        code, out, _ = run(capsys, "verify", "all", "--kind", "sym", *form, "--format", "json")
        assert code == 0
        dims = next(json.loads(line) for line in out.splitlines() if '"dimensions"' in line)
        assert dims["status"] == "pass" and dims["mode"]["kind"] == "exhaustive"
        assert dims["tallies"] == {"strata": strata}
        assert [w.split(" left out: ")[0] for w in dims["warnings"]] == [f"stratum {p}" for p in left]
        assert all("hyperbolic pairs" in w for w in dims["warnings"])


@pytest.mark.parametrize("form,samples,budget,cuts", [
    (("-e", "2", "-f", "3", "--field", "rationals", "--gram", "identity"), ("--samples", "5"), (),
     ["(0,0)", "(1,0)", "(1,1)", "(2,1)", "(2,2)"]),
    (("-e", "2", "-f", "4", "--field", "p=3", "--gram", "file:gram.json"), (), (),
     ["(0,0)", "(1,0)", "(1,1)", "(2,1)", "(2,2)"]),
    # every cut and the closure order sampled, so each leaves out (2,0,+)
    # and (2,0,-) as well
    (("-e", "2", "-f", "4", "--field", "p=3", "--gram", "file:gram.json"), (), ("--budget", "0"),
     ["(0,0)", "(1,0)", "(1,1)", "(2,1)", "(2,2)"]),
], ids=["identity-Q", "diag-F3", "diag-F3-sampled"])
def test_single_check_prints_its_verify_all_report(tmp_path, capsys, monkeypatch, form, samples, budget, cuts):
    # a check run alone leaves out the strata it cannot use exactly as in
    # verify all; the cuts of (2,0,+) and (2,0,-) have no generators over F_3
    monkeypatch.chdir(tmp_path)
    (tmp_path / "gram.json").write_text(json.dumps(GOLDEN_GRAM))
    form = ("--kind", "sym", *form, "--format", "json")
    code, out, _ = run(capsys, "verify", "all", *form, *samples, *budget)
    assert code == 0
    reports = {(r["check"], r["tallies"].get("params")): r for r in map(json.loads, out.splitlines())}
    assert [p for (check, p), r in reports.items()
            if check == "equation-cut" and r["mode"] != {"kind": "skipped"}] == cuts
    runs = [("dims", "dimensions", None, ()), ("closure", "closure-order", None, (*samples, *budget))]
    runs += [("cut", "equation-cut", p, ("--params", p.strip("()"), *budget)) for p in cuts]
    for check, name, params, options in runs:
        code, out, _ = run(capsys, "verify", check, *form, *options)
        assert code == 0
        assert json.loads(out) == reports[name, params]


def test_cut_of_every_stratum_skips_the_strata_verify_all_skips(tmp_path, capsys, monkeypatch):
    # on diag(1,1,1,2) over F_3, (2,0,+) and (2,0,-) have no generators: the
    # cut of every stratum prints the seven cut reports of verify all
    monkeypatch.chdir(tmp_path)
    (tmp_path / "gram.json").write_text(json.dumps(GOLDEN_GRAM))
    form = ("--kind", "sym", "-e", "2", "-f", "4", "--field", "p=3", "--gram", "file:gram.json")
    for fmt in ("json", "text"):
        _, every, _ = run(capsys, "verify", "all", *form, "--format", fmt)
        code, out, err = run(capsys, "verify", "cut", *form, "--format", fmt)
        assert (code, err) == (0, "")
        blocks, keep = [], True  # verify all's header and cut reports, each with its warnings
        for line in every.splitlines():
            keep = keep if line.startswith(" ") else line.startswith("#") or "equation-cut" in line
            blocks += [line] if keep else []
        assert out.splitlines() == blocks
        assert sum("equation-cut" in line for line in blocks) == 7
    _, out, _ = run(capsys, "verify", "cut", *form, "--format", "json")
    skipped = [r["tallies"]["params"] for r in map(json.loads, out.splitlines()) if r["mode"]["kind"] == "skipped"]
    assert skipped == ["(2,0,+)", "(2,0,-)"]
    # the stratum asked for is not skipped
    code, _, err = run(capsys, "verify", "cut", *form, "--params", "2,0,+")
    assert code == 1 and json.loads(err)["error"] == "EigenvalueNotInField"


def test_point_count_names_the_primes_it_leaves_out(capsys):
    form = ("--kind", "sym", "-e", "2", "-f", "3", "--field", "p=3", "--params", "1,0")
    code, out, _ = run(capsys, "verify", "counts", *form, "--primes", "3,5,7", "--budget", "100000",
                       "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["mode"]["primes"] == [3, 5]
    assert report["warnings"] == [
        "prime 7 left out: 117649 matrices exceed the budget of 100000; raise --budget to override"
    ]


def test_verify_text_output_shows_warnings(capsys):
    form = ("--kind", "sym", "-e", "2", "-f", "3", "--field", "rationals", "--gram", "identity")
    code, out, _ = run(capsys, "verify", "all", *form, "--samples", "5")
    assert code == 0
    _, json_out, _ = run(capsys, "verify", "all", *form, "--samples", "5", "--format", "json")
    reports = [json.loads(line) for line in json_out.splitlines()]
    # each report line is followed by one indented line per warning
    lines = out.splitlines()[1:]
    expected = []
    for r in reports:
        expected.append(r["status"].upper())
        expected += [f"      warning: {w}" for w in r["warnings"]]
    assert [line if line.startswith(" ") else line.split()[0] for line in lines] == expected
    assert "      warning: exhaustive enumeration needs a finite field" in lines


def test_verify_cut_signed_params(capsys):
    code, _, _ = run(capsys, "verify", "cut", "--kind", "sym", "-e", "2", "-f", "4",
                     "--field", "p=3", "--params", "2,0,+")
    assert code == 0


def test_gram_from_file(tmp_path, capsys):
    gram = {"rows": [["0", "1", "0", "0"], ["-1", "0", "0", "0"],
                     ["0", "0", "0", "1"], ["0", "0", "-1", "0"]]}
    path = tmp_path / "gram.json"
    path.write_text(json.dumps(gram))
    code, out, _ = run(capsys, "atlas", "--kind", "alt", "-e", "2", "-f", "4",
                       "--field", "p=5", "--gram", f"file:{path}")
    assert code == 0
    assert "(2,2)" in out


def test_gram_file_over_another_field_is_refused(tmp_path, capsys):
    # the grid is read as a Matrix JSON, whose "field" key must agree with
    # --field; it is not re-read modulo the other prime
    gram = {"field": {"kind": "prime", "p": 5},
            "rows": [["0", "1", "0", "0"], ["-1", "0", "0", "0"], ["0", "0", "0", "1"], ["0", "0", "-1", "0"]]}
    path = tmp_path / "gram.json"
    path.write_text(json.dumps(gram))
    code, out, err = run(capsys, "atlas", "--kind", "alt", "-e", "2", "-f", "4",
                         "--field", "p=7", "--gram", f"file:{path}")
    assert code == 1
    assert out == ""
    assert json.loads(err.splitlines()[-1])["error"] == "DimensionMismatch"


def test_verification_failure_exits_3(capsys, monkeypatch):
    from isodet import verify
    from isodet.verify import VerificationReport

    def broken_census(config, **options):
        return VerificationReport(
            name="census", config=config.to_json(), mode={"kind": "exhaustive"},
            status="fail", witness={"reason": "synthetic"},
        )

    monkeypatch.setattr(verify, "exhaustive_census", broken_census)
    code, _, _ = run(capsys, "verify", "census", "--kind", "alt", "-e", "2", "-f", "4",
                     "--field", "p=3")
    assert code == 3


def test_byte_determinism(capsys):
    argv = ("verify", "closure", "--kind", "sym", "-e", "2", "-f", "3", "--field", "p=3",
            "--samples", "10", "--seed", "5", "--format", "json")
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1.encode() == out2.encode()


def test_main_returns_int():
    assert main(["atlas", "--kind", "alt", "-e", "1", "-f", "4"]) == 0


# sha256 of stdout, recorded with the cofactor-expansion polynomial layer
# that packed monomials and memoised minor tables replaced.
GOLDEN_STDOUT = [
    ("atlas --kind sym -e 4 -f 8 --field p=7 --format json",
     "8ff19385b12fb453b14bbbb56df0bd03827104d108da23dbc1ceab4842e0666d"),
    ("atlas --kind alt -e 4 -f 10 --field p=7 --format json",
     "523adb885f9b5131b30a58b02435a4d8992e9ecad4f711a90748a3cca3250506"),
    ("equations --kind sym -e 3 -f 4 --field p=7,ext=2 --params 2,0,+ --format json",
     "66e26279524ad5f7bced8045717ed809098c28ab02595927e3e45fb95e0a56ff"),
    ("equations --kind alt -e 3 -f 6 --params 2,0 --format json",
     "c4474dfe2f0ba4da9415d72262c337d1cd7116219dc09b702539126f84f41473"),
    ("equations --kind sym -e 3 -f 4 --params 2,0,-",
     "a5254fc592afff815b98cd231fc18ab5e5b1abde571249261ebbc52212d4fc1a"),
    # non-split forms, through representatives, samples and signs; recorded
    # with the two Witt loops that one loop replaced, except the sample
    # digest, re-recorded when isometries became products of reflections
    # (each of its five points classifies to (2,0,+))
    ("sample --kind sym -e 2 -f 4 --field p=7 --gram identity --params 2,0,+ --count 5 --seed 1",
     "646482d347fc0bb7aefcf5edcdde9be1b567690aad9b1c01febfad09b4a80c7f"),
    # (the verify golden re-recorded when its closure report turned from
    # sampled to exhaustive: mode {"kind": "exhaustive", "space": 15625},
    # tallies {"pairs": 25}, every other report unchanged)
    ("verify all --kind sym -e 2 -f 3 --field p=5 --gram identity --format json",
     "b3b805b4b7b9ebb58e3d4ef360ebe541b38a12da3c274fe85e9c3863100dbf7d"),
    ("classify --kind sym -e 2 -f 4 --field p=5 --gram identity --in {phi}",
     "b111cb69022665023db668ddc72f729ac10b77f12845bdae9598e1c08c6ff159"),
    # exhaustive cuts, recorded with the point-by-point cut loop: the first
    # exhaustive-f7 invocation, and every stratum's cut over F_9; the
    # first was re-recorded when its closure report turned from sampled to
    # one verdict per representative, and again when it turned to reading
    # the row-space sweep (mode {"kind": "exhaustive", "space": 117649},
    # tallies {"pairs": 25}), every other report unchanged
    ("verify all --kind sym -e 2 -f 3 --field p=7 --primes 3,7 --format json",
     "e866aed5de141961c6f310559b6f953a12de7e7d2eea4b3498ed84ea45f629cc"),
    ("verify cut --kind sym -e 2 -f 3 --field p=3,ext=2 --format json",
     "c5c1ffeb787c2230a32901fb2242a55d57cb72e503534289619ca305afd6dbd5"),
    # sampled cuts, recorded before rebuild_generator became a lookup:
    # verdicts at prime-field points, and at F_9 points through
    # Polynomial.evaluate
    ("verify all --kind sym -e 2 -f 3 --field p=3 --budget 100 --format json",
     "18aa6b1d88bd7eb805aff896a5dd3aa9eeaafac614fd45e3040d81c28b38a5ce"),
    ("verify all --kind alt -e 2 -f 4 --field p=3,ext=2 --budget 1000 --samples 20 --format json",
     "0fcdadfaa060f559576ae8d40c4204084682a029a3d8a450b122caaa0c5e779f"),
    # strata left out per check, recorded before one rule caught every
    # StratumUnavailable: on diag(1,1,1,2) over F_3, (2,0,+) and (2,0,-)
    # lack generators and orbit points, and the later message, the pool's,
    # is the one reported; over Q the identity form has Witt index 0.  The
    # first was re-recorded when its closure report turned from sampled to
    # exhaustive (mode {"kind": "exhaustive", "space": 6561}, tallies
    # {"pairs": 25}, the same two left-out warnings), every other report
    # unchanged
    ("verify all --kind sym -e 2 -f 4 --field p=3 --gram file:{gram} --format json",
     "a07d4f338cc38cfe83197b2127dcc72f4d2b5f7e018354a8e09b717249d8f166"),
    ("verify all --kind sym -e 2 -f 3 --field rationals --gram identity --samples 5 --format json",
     "8282be4c6e978de0f492053bc4a36860300e3aba0d916a4d788aae1d7165de1d"),
    # the largest atlas, recorded while every generator was expanded to
    # read its family's count and degree
    ("atlas --kind sym -e 5 -f 10 --field p=7 --format json",
     "f7ff1430f153395f0fb386d5946ab3abfc5cdbd296061b52b29e33870d2dda6f"),
    # e > f: the dense stratum (3,3) has no generator (it once listed the
    # identically zero 4x4 Gram minor as "gram-minor:1(deg -1)")
    ("atlas --kind sym -e 4 -f 3 --field p=7",
     "79a4ea82bf3afad0bb80e298ac0fdf9dce85c9068b6189ede022bc4d4d395c11"),
    # recorded while solve-congruence resolved its field and form on a path
    # of its own
    ("solve-congruence --kind sym -f 4 --field p=7 --gram identity --in {inst}",
     "dad30d7c6939d60efe386d7a364ddc0f7e06abd6758bd74b32470d2ebd685b69"),
    # recorded while each subcommand printed its own output: verify's text
    # summary with left-out strata and with sampled-fallback warnings, and
    # the JSON of the sample, classify and solve-congruence goldens above;
    # the first was re-recorded when its closure line lost
    # "samples_per_stratum" (exhaustive), every other line unchanged
    ("verify all --kind sym -e 2 -f 4 --field p=3 --gram file:{gram}",
     "8c95803bc292f5aaac1cf6a4fcd4d942441b26785d6fce3fb46631b5e6b99371"),
    ("verify all --kind sym -e 2 -f 3 --field p=3 --budget 100",
     "f6a36870abdfc61dad7ddbcf067542152ef00aa1dd789060c3e846c3aa2e242a"),
    ("sample --kind sym -e 2 -f 4 --field p=7 --gram identity --params 2,0,+ --count 5 --seed 1 --format json",
     "bae6a9d4e95fb6d14d78222e10b008414014f8d2757331b30b938ffa479cb05e"),
    ("classify --kind sym -e 2 -f 4 --field p=5 --gram identity --in {phi} --format json",
     "d8712d69e26b1efac83dd22d8eb6d6c3b9b237acbc0bc7a437191e9a248e5af7"),
    ("solve-congruence --kind sym -f 4 --field p=7 --gram identity --in {inst} --format json",
     "d25331f5cc83fba3765c15b3d2fc7f570c5a5cd497cc57d1f4407f3489d06bcf"),
]

# the --in matrix of the classify golden: an isotropic plane of the
# identity form over F_5, so its sign depends on the reference family
GOLDEN_PHI = {"field": {"kind": "prime", "p": 5}, "rows": [["1", "2", "0", "0"], ["0", "0", "1", "2"]]}
# the --gram file of the left-out goldens: diag(1,1,1,2), Witt index 1 over F_3
GOLDEN_GRAM = {"rows": [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "2"]]}
# the --in instance of the solve-congruence golden: S and A over F_7
GOLDEN_INST = {"S": {"rows": [["1", "2"], ["2", "0"]]},
               "A": {"rows": [["1", "0", "2", "0"], ["0", "1", "0", "3"]]}}


@pytest.mark.parametrize("argv,digest", GOLDEN_STDOUT)
def test_golden_bytes(tmp_path, capsys, monkeypatch, argv, digest):
    # relative paths: the text header echoes --gram, file path included
    monkeypatch.chdir(tmp_path)
    for name, doc in (("phi", GOLDEN_PHI), ("gram", GOLDEN_GRAM), ("inst", GOLDEN_INST)):
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    assert main(argv.format(phi="phi.json", gram="gram.json", inst="inst.json").split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv",
    [
        ("atlas", "--kind", "sym", "-e", "2", "-f", "4", "--field", "foo"),
        ("atlas", "--kind", "sym", "-e", "2", "-f", "4", "--field", "p=abc"),
        ("atlas", "--kind", "sym", "-e", "2", "-f", "4", "--field", "p=7,ext=3"),
        # a key given twice does not let the later value win
        ("atlas", "--kind", "sym", "-e", "2", "-f", "4", "--field", "p=7,p=5"),
        ("atlas", "--kind", "sym", "-e", "2", "-f", "4", "--field", "p=7,ext=2,ext=2"),
        ("solve-congruence", "--kind", "sym", "-f", "4", "--field", "p=7,p=5", "--in", "unread.json"),
        ("equations", "--kind", "sym", "-e", "2", "-f", "4", "--params", "1"),
        ("sample", "--kind", "sym", "-e", "2", "-f", "4", "--params", "2,x"),
        ("verify", "counts", "--kind", "sym", "-e", "1", "-f", "3", "--field", "p=3",
         "--primes", "3,x"),
        # a sample count below 1 would check no point and still print PASS
        ("verify", "closure", "--kind", "sym", "-e", "2", "-f", "3", "--field", "p=3", "--samples", "0"),
        ("verify", "closure", "--kind", "sym", "-e", "2", "-f", "3", "--field", "p=3", "--samples", "-1"),
        ("verify", "all", "--kind", "sym", "-e", "2", "-f", "3", "--field", "p=3", "--samples", "0"),
        ("sample", "--kind", "sym", "-e", "2", "-f", "3", "--params", "1,1", "--count", "0"),
        ("sample", "--kind", "sym", "-e", "2", "-f", "3", "--params", "1,1", "--count", "-1"),
        # a negative budget sweeps nothing and falls back to sampling
        ("verify", "cut", "--kind", "sym", "-e", "2", "-f", "3", "--field", "p=3", "--budget", "-1"),
        # only cut and counts restrict themselves to one stratum
        ("verify", "closure", "--kind", "alt", "-e", "2", "-f", "4", "--field", "p=3", "--params", "1,0"),
        ("verify", "all", "--kind", "alt", "-e", "2", "-f", "4", "--field", "p=3", "--params", "1,0"),
    ],
)
def test_malformed_text_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("isodet: error: ")


@pytest.mark.parametrize("own", [("atlas",), ("classify", "--in", "unread.json"),
                                 ("equations", "--params", "1,0"), ("sample", "--params", "1,0")])
def test_budget_is_a_verify_option(capsys, own):
    code, out, err = run(capsys, *own, "--kind", "sym", "-e", "2", "-f", "4", "--budget", "100")
    assert (code, out) == (2, "")
    assert err.endswith("error: unrecognized arguments: --budget 100\n")


# a value each verify option accepts; run on a space small enough for every check
VERIFY_VALUES = {"params": "1,0", "budget": "1000", "samples": "2", "primes": "3,5"}
VERIFY_SMALL = ("--kind", "sym", "-e", "1", "-f", "3", "--field", "p=3")


@pytest.mark.parametrize("check", sorted(VERIFY_CHECKS))
@pytest.mark.parametrize("option", sorted(VERIFY_VALUES))
def test_each_check_accepts_only_the_options_it_reads(capsys, check, option):
    code, out, err = run(capsys, "verify", check, *VERIFY_SMALL, f"--{option}", VERIFY_VALUES[option])
    if option in VERIFY_CHECKS[check][0]:
        assert (code, err) == (0, "")
    else:
        assert (code, out) == (2, "")
        assert err == f"isodet: error: --{option}: the {check} check does not read it\n"


def test_closure_reads_the_budget_and_refuses_primes(capsys):
    # within the budget the closure order reads the row-space sweep;
    # --budget 0 forces sampling, alone or through verify all
    form = ("--kind", "sym", "-e", "2", "-f", "3", "--field", "p=3", "--format", "json")
    code, out, _ = run(capsys, "verify", "closure", *form)
    assert code == 0 and json.loads(out)["mode"] == {"kind": "exhaustive", "space": 729}
    code, out, _ = run(capsys, "verify", "closure", *form, "--budget", "0")
    sampled = json.loads(out)
    assert code == 0 and sampled["mode"] == {"kind": "sampled", "n": 100, "seed": 0}
    code, out, _ = run(capsys, "verify", "all", *form, "--budget", "0")
    assert code == 0 and next(r for r in map(json.loads, out.splitlines()) if r["check"] == "closure-order") == sampled
    code, out, err = run(capsys, "verify", "closure", *form, "--primes", "3,5")
    assert (code, out, err) == (2, "", "isodet: error: --primes: the closure check does not read it\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_timing_adds_wall_time_to_every_report(capsys, fmt):
    argv = ("verify", "all", *VERIFY_SMALL, "--format", fmt)
    _, plain, _ = run(capsys, *argv)
    code, timed, _ = run(capsys, *argv, "--timing")
    assert code == 0 and "wall_time_ms" not in plain
    if fmt == "json":
        assert all("wall_time_ms" in json.loads(line) for line in timed.splitlines())
    else:
        reports = [line for line in timed.splitlines()[1:] if not line.startswith(" ")]
        assert len(reports) == 9
        assert all(re.search(r" wall_time_ms=[0-9.]+$", line) for line in reports)


@pytest.mark.parametrize("form,params", [(("-f", "3"), "9,9"), (("-f", "4"), "2,0")])
def test_counts_refuses_an_inadmissible_stratum_as_cut_does(capsys, form, params):
    argv = ("--kind", "sym", "-e", "2", *form, "--field", "p=3", "--params", params)
    cut = run(capsys, "verify", "cut", *argv)
    counts = run(capsys, "verify", "counts", *argv)
    assert counts == cut
    assert counts[:2] == (1, "")
    message = f"({params}) is not admissible for e=2, f={form[1]}, symmetric"
    assert json.loads(counts[2]) == {"error": "InvalidParams", "message": message}


@pytest.mark.parametrize("command", [("equations",), ("verify", "cut")])
@pytest.mark.parametrize("e,params", [("2", "1,0,+"), ("3", "3,3,+")])
def test_a_sign_off_the_signed_stratum_is_refused(capsys, command, e, params):
    # the sign once chose the (f/2, 0) component generators whatever r1, r2
    code, out, err = run(capsys, *command, "--kind", "sym", "-e", e, "-f", "4", "--field", "p=3",
                         "--params", params)
    assert (code, out) == (1, "")
    message = f"({params}) is not admissible for e={e}, f=4, symmetric"
    assert json.loads(err) == {"error": "InvalidParams", "message": message}


@pytest.mark.parametrize("check", ["cut", "counts"])
def test_empty_params_is_a_usage_error(capsys, check):
    code, out, err = run(capsys, "verify", check, "--kind", "sym", "-e", "1", "-f", "3", "--field", "p=3",
                         "--params", "")
    assert (code, out) == (2, "")
    assert err == "isodet: error: --params: expected r1,r2[,sign], got ''\n"


def test_zero_budget_forces_sampling(capsys):
    code, out, _ = run(capsys, "verify", "cut", "--kind", "sym", "-e", "2", "-f", "3", "--field", "p=3",
                       "--params", "1,0", "--budget", "0")
    assert code == 0
    assert "falling back to sampled mode" in out


@pytest.mark.parametrize("spec,same", [("ext=2,p=7", "p=7,ext=2"), ("P=7", "p=7"), (" Q ", "rationals")])
def test_field_spec_order_and_case_do_not_matter(spec, same):
    assert parse_field_spec(spec) == parse_field_spec(same)


def test_repeated_primes_are_a_domain_error(capsys):
    code, out, err = run(capsys, "verify", "counts", "--kind", "sym", "-e", "1", "-f", "3",
                         "--field", "p=3", "--primes", "3,3")
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "BudgetExceeded"


CLASSIFY = ("classify", "--kind", "sym", "-e", "2", "-f", "4", "--field", "p=5", "--in")
GRAM_ATLAS = ("atlas", "--kind", "alt", "-e", "2", "-f", "4", "--field", "p=5", "--gram")
SOLVE = ("solve-congruence", "--kind", "alt", "-f", "4", "--field", "p=5", "--in")


@pytest.mark.parametrize(
    "prefix,content,as_gram",
    [
        (CLASSIFY, "not json", False),
        (CLASSIFY, json.dumps({"rows": [["1", "0", "0", "0"], ["0", "a", "0", "0"]]}), False),
        (CLASSIFY, json.dumps({"field": {"kind": "prime", "p": 5}}), False),
        (CLASSIFY, None, False),  # the path is a directory
        (GRAM_ATLAS, "not json", True),
        (GRAM_ATLAS, json.dumps({"gram": [["0", "1"], ["-1", "0"]]}), True),
        (SOLVE, json.dumps({"A": {"rows": [["1", "0", "0", "0"], ["0", "0", "1", "0"]]}}), False),
        # a field descriptor key that field_create does not take
        (CLASSIFY, json.dumps({"field": {"kind": "prime", "p": 5, "ext": 2},
                               "rows": [["0", "0", "0", "0"], ["0", "0", "0", "0"]]}), False),
        # a modulus the rationals do not use, on a run over the rationals
        (("classify", "--kind", "sym", "-e", "2", "-f", "4", "--field", "rationals", "--in"),
         json.dumps({"field": {"kind": "rationals", "p": 5},
                     "rows": [["0", "0", "0", "0"], ["0", "0", "0", "0"]]}), False),
    ],
    ids=["classify-not-json", "classify-bad-entry", "classify-no-rows", "classify-directory",
         "gram-not-json", "gram-no-rows", "solve-no-S", "classify-field-extra-key",
         "classify-rationals-with-p"],
)
def test_malformed_input_file_is_domain_error(tmp_path, capsys, prefix, content, as_gram):
    path = tmp_path / "input"
    if content is None:
        path.mkdir()
    else:
        path.write_text(content)
    arg = f"file:{path}" if as_gram else str(path)
    code, out, err = run(capsys, *prefix, arg)
    assert code == 1
    assert out == ""
    diagnostic = json.loads(err.splitlines()[-1])
    assert diagnostic["error"] == "MalformedInput"


@pytest.mark.parametrize(
    "content",
    [
        [["0", "1"], ["-1", "0"]],  # a bare list of rows
        {"rows": 5},
        {"rows": [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]},  # integer entries
    ],
    ids=["bare-list", "rows-not-a-list", "integer-entries"],
)
def test_gram_file_of_the_wrong_shape_names_the_expected_one(tmp_path, capsys, content):
    path = tmp_path / "gram.json"
    path.write_text(json.dumps(content))
    code, out, err = run(capsys, *GRAM_ATLAS, f"file:{path}")
    assert (code, out) == (1, "")
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "MalformedInput"
    assert diagnostic["message"] == f'{path}: expected a matrix as {{"rows": [["<entry>", ...], ...]}}'
    assert not re.search(r"[A-Z]\w*(Error|Exception)\b", diagnostic["message"])


SYM_F3 = ("--kind", "sym", "-e", "2", "-f", "4", "--field", "p=3")
INSTANCE = '{"S": {"rows": ...}, "A": {"rows": ...}}'
FIELD = 'expected a field as {"kind": "rationals"} or {"kind": "prime" | "quadratic-extension", "p": <integer>}'


@pytest.mark.parametrize(
    "argv,content,named",
    [
        (("classify", *SYM_F3), {"rows": [["1", "0", "0", "0"], ["0", "a", "0", "0"]]},
         "entry 'a' at row 1, column 1 is not an element of the prime field"),
        (("classify", "--kind", "sym", "-e", "1", "-f", "3", "--field", "rationals"), {"rows": [["1", "1/0", "0"]]},
         "entry '1/0' at row 0, column 1 is not an element of the rationals field"),
        (("classify", "--kind", "sym", "-e", "1", "-f", "3", "--field", "p=3,ext=2"), {"rows": [["0", "1", "x*w"]]},
         "entry 'x*w' at row 0, column 2 is not an element of the quadratic-extension field"),
        (("solve-congruence", "--kind", "sym", "-f", "4", "--field", "p=3"), [["1", "0"], ["0", "1"]], INSTANCE),
        (("solve-congruence", "--kind", "sym", "-f", "4", "--field", "p=3"),
         {"S": {"rows": [["1"]]}, "A": {"rows": [["1", "0", "0", "0"]]}, "B": {"rows": [["0"]]}}, INSTANCE),
        (("classify", *SYM_F3), "rows: [[1, 0, 0, 0]]", "not a JSON document (Expecting value at line 1, column 1)"),
        (("classify", *SYM_F3), {"field": "p=3", "rows": [["1", "0", "0", "0"], ["0", "1", "0", "0"]]}, FIELD),
        (("classify", *SYM_F3), {"field": {"kind": "prime", "p": "x"}, "rows": [["1", "0", "0", "0"]]}, FIELD),
    ],
    ids=["prime-entry", "rational-entry", "extension-entry", "instance-bare-list", "instance-extra-key",
         "not-json", "field-string", "field-modulus-string"],
)
def test_malformed_in_file_names_what_it_expected(tmp_path, capsys, argv, content, named):
    # a str is written as it stands, anything else as its JSON text
    path = tmp_path / "in.json"
    path.write_text(content if isinstance(content, str) else json.dumps(content))
    code, out, err = run(capsys, *argv, "--in", str(path))
    assert (code, out) == (1, "")
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "MalformedInput"
    assert named in diagnostic["message"]
    assert not re.search(r"[A-Z]\w*(Error|Exception)\b", diagnostic["message"])


def test_unwritable_output_file_is_domain_error(tmp_path, capsys):
    # --out names a directory: one JSON diagnostic, no traceback
    code, out, err = run(capsys, "equations", "--kind", "sym", "-e", "2", "-f", "3", "--field", "p=3",
                         "--params", "1,0", "--out", str(tmp_path))
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "IsADirectoryError"


def test_closed_stdout_exits_quietly():
    # one 528 kB write, more than a pipe holds, so the writer is still
    # blocked when the reader closes after the first line
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    argv = ["equations", "--kind", "sym", "-e", "4", "-f", "8", "--field", "p=7", "--params", "3,3"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "isodet.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    code = proc.wait(timeout=60)
    assert first.startswith(b"# isodet equations")
    assert "Traceback" not in err
    assert code == 1
    assert json.loads(err)["error"] == "BrokenPipe"


_FUZZ_DIR = Path(__file__).resolve().parent  # a directory, not a JSON file
# option kind -> (valid values, malformed or out-of-range values)
_SPEC = {
    "int": (["1", "2", "3"], ["-1", "0", "x"]),
    "f": (["3"], ["2", "0", "x"]),  # f >= 3 is a valid space
    "field": (["p=3", "p=5", "p=3,ext=2"],
              ["p=2", "p=4", "p=1", "p=0", "p=-3", "p=", "p=3,ext=3", "p=3,q=1", "foo", "", "rationals"]),
    "params": (["0,0", "1,0", "1,1", "2,0", "2,0,+", "2,0,-", "2,1", "2,2", "3,3"],
               ["-1,0", "1", "1,x", "1,0,?", "1,0,+,+", "9,9", ""]),
    "primes": (["3,5", "3,7", "5,3"], ["3", "3,3", "2,3", "4,9", "1,3", "0,3", "-3,5", "3,x", "", ","]),
    "budget": (["1000", "30000"], ["-1", "0", "1", "x"]),
    "kind": (["sym", "alt", "symmetric"], ["bogus"]),
    "gram": (["split", "identity"], ["bogus", "file:missing.json"]),
    "format": (["text", "json"], ["yaml"]),
    "in": (["{phi}"], [str(_FUZZ_DIR / "missing.json"), str(_FUZZ_DIR)]),
    "inst": (["{inst}"], [str(_FUZZ_DIR / "missing.json"), str(_FUZZ_DIR), "{phi}"]),
}

_VERIFY_SPEC = {"params": "params", "budget": "budget", "samples": "int", "primes": "primes"}


@st.composite
def _argv(draw):
    """A small CLI invocation: a command, its own options and the common
    ones, each option mostly present and valid, sometimes missing or
    malformed."""
    command = draw(st.sampled_from(["atlas", "classify", "equations", "sample", "solve-congruence", "verify"]))
    argv = [command]
    if command == "verify":
        argv.append(draw(st.sampled_from(["census", "cut", "dims", "closure", "counts", "all"])))
    options = {"--kind": "kind", "-f": "f", "--field": "field", "--gram": "gram", "--format": "format"}
    if command != "solve-congruence":
        options.update({"-e": "int", "--seed": "int"})
    options.update({
        "classify": {"--in": "in"},
        "solve-congruence": {"--in": "inst"},
        "equations": {"--params": "params"},
        "sample": {"--params": "params", "--count": "int"},
    }.get(command, {}))
    if command == "verify":  # the options the check reads
        options.update({f"--{name}": _VERIFY_SPEC[name] for name in VERIFY_CHECKS[argv[-1]][0]})
    for flag, spec in options.items():
        roll = draw(st.integers(0, 39))
        if roll == 0:
            continue
        valid, malformed = _SPEC[spec]
        argv += [flag, draw(st.sampled_from(malformed if roll == 1 else valid))]
    return argv


@pytest.fixture(scope="module")
def fuzz_phi(tmp_path_factory):
    """A 2 x 3 matrix file for ``classify --in``; it fits only e = 2."""
    path = tmp_path_factory.mktemp("fuzz") / "phi.json"
    path.write_text(json.dumps({"rows": [["1", "0", "0"], ["0", "1", "1"]]}))
    return str(path)


@pytest.fixture(scope="module")
def fuzz_inst(tmp_path_factory):
    """An S, A instance for ``solve-congruence --in``; A fits only f = 3."""
    path = tmp_path_factory.mktemp("fuzz") / "inst.json"
    path.write_text(json.dumps({"S": {"rows": [["0", "1"], ["1", "0"]]},
                                "A": {"rows": [["1", "0", "0"], ["0", "1", "0"]]}}))
    return str(path)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(argv=_argv())
def test_exit_code_contract(fuzz_phi, fuzz_inst, argv):
    # every run ends in a documented code; an exit 1 explains itself in JSON
    argv = [{"{phi}": fuzz_phi, "{inst}": fuzz_inst}.get(a, a) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(argv)
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
    if code == 1:
        assert "error" in json.loads(err.getvalue()), argv
