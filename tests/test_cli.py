"""CLI tests: golden outputs, exit-code contract, and output stability."""

import functools
import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import click
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uqsl2 import cli, exprio, ncore, qexpops, qfield, repmod
from uqsl2.cli import main, spot_points
from uqsl2.exprio import MAX_EXPONENT, parse
from uqsl2.gammamod import GAMMA_Y, GAMMA_Z, verify_gamma
from uqsl2.ncore import (from_equitable, normalize_chevalley,
                         verify_confluence, verify_n_commutation,
                         verify_n_definitions, verify_n_preimages,
                         verify_presentation_iso)
from uqsl2.qexpops import (_OperatorEnv, verify_closed_form, verify_conjugation_suite,
                           verify_relation_rewrites)
from uqsl2.qfield import q_power
from uqsl2.repmod import (Matrix, ModuleSpec, build_chevalley, build_equitable,
                          verify_basis_change, verify_module_suite)
from uqsl2.report import ReportEntry, VerificationReport


@pytest.fixture()
def runner():
    return CliRunner()


def test_normalize_golden(runner):
    res = runner.invoke(main, ["normalize", "--presentation", "chevalley",
                               "e*f - f*e"])
    assert res.exit_code == 0
    assert res.output == "((q)/(q^2 - 1))*k - ((q)/(q^2 - 1))*k^-1\n"
    res = runner.invoke(main, ["normalize", "--presentation", "equitable",
                               "x*x^-1"])
    assert (res.exit_code, res.output) == (0, "1\n")
    res = runner.invoke(main, ["normalize", "--presentation", "equitable",
                               "q*(1 - z*x)/(q - q^-1)"])
    assert (res.exit_code, res.output) == (0, "e\n")


def test_normalize_json_and_errors(runner):
    res = runner.invoke(main, ["normalize", "--format", "json", "k*k^-1"])
    assert res.exit_code == 0
    assert json.loads(res.output) == {
        "input": "k*k^-1", "presentation": "chevalley", "normal_form": "1"}
    res = runner.invoke(main, ["normalize", "e*f -"])
    assert res.exit_code == 2
    assert "position 6" in res.output
    res = runner.invoke(main, ["normalize", "--presentation", "equitable", "e"])
    assert res.exit_code == 2


def test_rep_golden(runner):
    res = runner.invoke(main, ["rep", "--n", "0", "--eps", "-1",
                               "--basis", "chevalley", "--gen", "k"])
    assert (res.exit_code, res.output) == (0, "[[-1]]\n")
    res = runner.invoke(main, ["rep", "--n", "1", "--eps", "+1",
                               "--basis", "equitable", "--gen", "x",
                               "--format", "json"])
    assert res.exit_code == 0
    obj = json.loads(res.output)
    assert obj == {"n": 1, "eps": 1, "basis": "equitable", "generator": "x",
                   "entries": [["q", "0"], ["0", "q^-1"]]}
    res = runner.invoke(main, ["rep", "--n", "1", "--eps", "+1",
                               "--basis", "equitable", "--gen", "y",
                               "--format", "csv"])
    assert (res.exit_code, res.output) == (0, "q^-1,0\n-q + q^-1,q\n")
    res = runner.invoke(main, ["rep", "--n", "1", "--eps", "+1",
                               "--basis", "equitable", "--gen", "y",
                               "--format", "latex"])
    assert res.exit_code == 0
    assert res.output.startswith(r"\begin{array}{rr}")


def test_rep_usage_errors(runner):
    assert runner.invoke(main, ["rep", "--n", "1", "--eps", "+1",
                                "--gen", "e"]).exit_code == 2
    assert runner.invoke(main, ["rep", "--n", "1", "--eps", "2",
                                "--gen", "x"]).exit_code == 2
    assert runner.invoke(main, ["rep", "--n", "-1", "--eps", "+1",
                                "--gen", "x"]).exit_code == 2


def test_omega_modes(runner):
    res = runner.invoke(main, ["omega", "--n", "0", "--eps", "+1"])
    assert (res.exit_code, res.output) == (0, "[[1]]\n")
    comp = runner.invoke(main, ["omega", "--n", "3", "--eps", "-1"])
    closed = runner.invoke(main, ["omega", "--n", "3", "--eps", "-1",
                                  "--mode", "closed-form"])
    assert comp.exit_code == 0 and comp.output == closed.output
    res = runner.invoke(main, ["omega", "--n", "1", "--eps", "+1",
                               "--format", "json"])
    obj = json.loads(res.output)
    assert obj["generator"] == "omega"
    assert obj["entries"] == [["1", "-1"], ["1", "0"]]
    res = runner.invoke(main, ["omega", "--n", "4", "--eps", "-1",
                               "--mode", "check"])
    assert res.exit_code == 0
    assert "pass: 3 checks" in res.output


def test_omega_check_failure_exits_1(runner, monkeypatch):
    failing = VerificationReport([ReportEntry(
        identity="closedform:Omega^3=central-scalar", module={"n": 1, "eps": 1},
        status="fail", witness="forced")])
    monkeypatch.setattr(cli, "verify_closed_form", lambda n, eps, q0=None: failing)
    res = runner.invoke(main, ["omega", "--n", "1", "--eps", "+1",
                               "--mode", "check"])
    assert res.exit_code == 1
    assert "FAIL" in res.output


def test_eval_golden(runner):
    assert runner.invoke(main, ["eval", "q + q^-1", "--q", "2"]).output == "5/2\n"
    assert runner.invoke(main, ["eval", "q*q^-1", "--q", "7/3"]).output == "1\n"
    res = runner.invoke(main, ["eval", "--expr", "y", "--presentation",
                               "equitable", "--rep", "1,+1", "--q", "2"])
    assert (res.exit_code, res.output) == (0, "[[1/2, 0], [-3/2, 2]]\n")


def test_eval_matrix_identity(runner):
    left = runner.invoke(main, ["eval", "e*f - f*e", "--rep", "1,+1", "--q", "2"])
    right = runner.invoke(main, ["eval", "(k - k^-1)/(q - q^-1)",
                                 "--rep", "1,+1", "--q", "2"])
    assert left.exit_code == 0
    assert left.output == right.output == "[[1, 0], [0, -1]]\n"


def test_eval_errors(runner):
    for bad_q in ("0", "1", "-1"):
        assert runner.invoke(main, ["eval", "q", "--q", bad_q]).exit_code == 2
    assert runner.invoke(main, ["eval", "q", "--q", "x"]).exit_code == 2
    assert runner.invoke(main, ["eval", "e", "--q", "2"]).exit_code == 2
    assert runner.invoke(main, ["eval", "--q", "2"]).exit_code == 2
    assert runner.invoke(main, ["eval", "q", "--expr", "q",
                                "--q", "2"]).exit_code == 2
    assert runner.invoke(main, ["eval", "k", "--rep", "1",
                                "--q", "2"]).exit_code == 2
    assert runner.invoke(main, ["eval", "k", "--rep", "a,+1",
                                "--q", "2"]).exit_code == 2
    res = runner.invoke(main, ["eval", "1/(q - 2)", "--q", "2"])
    assert res.exit_code == 2 and "denominator vanishes" in res.output


@pytest.mark.parametrize("args,output", [
    (["normalize", "1/2*k - 2/3*q^2*e"], "1/2*k - 2/3*q^2*e"),
    (["normalize", "(q^2+3)/(2*q^3-4)*e*f"],
     "((1/2*q^3 + 3/2*q)/(q^5 - q^3 - 2*q^2 + 2))*k - ((1/2*q^3 + 3/2*q)/(q^5 - q^3 - 2*q^2 + 2))"
     "*k^-1 + ((1/2*q^2 + 3/2)/(q^3 - 2))*f*e"),
    (["normalize", "(1/2*q + 1/3)^4*k - 2/3"],
     "(1/16*q^4 + 1/6*q^3 + 1/6*q^2 + 2/27*q + 1/81)*k - 2/3"),
    (["normalize", "1/(2*q+4)*e + (q^2+3)/(3*q)*f"], "((1/2)/(q + 2))*e + (1/3*q + q^-1)*f"),
    (["normalize", "e*1/(q^2+3) - 1/(2*q^2-2)*f*e"],
     "((1)/(q^2 + 3))*e - ((1/2)/(q^2 - 1))*f*e"),
    (["normalize", "--presentation", "equitable", "1/(2*q+2)*y*z - 3/4*x"],
     "-3/4*k + ((1/2)/(q + 1))*k^-2 - (1/2*q - 1/2)*k^-2*e + (1/2 - 1/2*q^-1)*f*k^-1"
     " - (1/2*q^2 - 1/2*q - 1/2 + 1/2*q^-1)*f*k^-1*e"),
    (["eval", "1/(2*q^2-4) + 3/(6*q+9)", "--q", "3"], "23/126"),
    (["eval", "--rep", "2,+1", "--q", "5/3", "1/(2*q+4)*e*f - 2/3*k"],
     "[[-2291/1485, 0, 0], [0, -59/165, 0], [0, 0, -6/25]]"),
])
def test_non_monic_and_fraction_scalars_print_pinned(runner, args, output):
    # denominators with a leading coefficient other than 1 or integer
    # content, and Fraction coefficients, print monic over Q
    res = runner.invoke(main, args)
    assert (res.exit_code, res.output) == (0, output + "\n")


def test_verify_iso_has_eight_entries(runner):
    res = runner.invoke(main, ["verify", "iso"])
    assert res.exit_code == 0
    lines = res.output.strip().split("\n")
    assert len(lines) == 9 and lines[-1] == "pass: 8 checks"
    assert all(line.startswith("PASS") for line in lines[:-1])


def test_verify_scopes(runner):
    res = runner.invoke(main, ["verify", "relations", "--format", "json"])
    assert res.exit_code == 0
    assert json.loads(res.output)["checks"] == 19
    res = runner.invoke(main, ["verify", "gamma", "--window", "2",
                               "--format", "json"])
    assert res.exit_code == 0
    assert json.loads(res.output)["checks"] == 152
    res = runner.invoke(main, ["verify", "modules", "--nmax", "1",
                               "--format", "json"])
    assert res.exit_code == 0
    res = runner.invoke(main, ["verify", "bogus"])
    assert res.exit_code == 2


@pytest.mark.parametrize("scope", ["modules", "operators", "iso", "relations", "gamma"])
def test_verify_scope_rows_are_a_run_of_verify_all(runner, scope):
    # one walk fills every section: a scope's rows appear in verify all
    # unchanged, in order and together
    args = ["--nmax", "3", "--q-spot", "1", "--window", "2", "--format", "json"]
    whole = runner.invoke(main, ["verify", "all"] + args)
    part = runner.invoke(main, ["verify", scope] + args)
    assert whole.exit_code == part.exit_code == 0
    rows = json.loads(whole.output)["entries"]
    run = json.loads(part.output)["entries"]
    starts = [i for i in range(len(rows) - len(run) + 1)
              if rows[i : i + len(run)] == run]
    assert run and len(starts) == 1


def test_verify_json_stable_across_jobs_and_runs(runner):
    args = ["verify", "modules", "--nmax", "2", "--format", "json"]
    first = runner.invoke(main, args)
    again = runner.invoke(main, args)
    assert first.exit_code == again.exit_code == 0
    assert first.output == again.output


def test_verify_q_spot_adds_tagged_rows(runner):
    res = runner.invoke(main, ["verify", "operators", "--nmax", "0",
                               "--q-spot", "2", "--format", "json"])
    assert res.exit_code == 0
    names = [e["identity"] for e in json.loads(res.output)["entries"]]
    points = spot_points(2)
    assert any(name.endswith("@q=%s" % points[0]) for name in names)
    assert any(name.endswith("@q=%s" % points[1]) for name in names)


def test_verify_battery_bytes_pinned(runner):
    # the byte-stable JSON of the symbolic and spot rows is the contract
    res = runner.invoke(main, ["verify", "all", "--nmax", "6", "--q-spot", "2",
                               "--format", "json"])
    assert res.exit_code == 0
    assert hashlib.sha256(res.output.encode()).hexdigest() == (
        "12a6c5148f8efdd12305c474ae40b33d131f2d624661b1025adb98f76169acda")


def test_verify_symbolic_battery_bytes_pinned(runner):
    # the symbolic battery of perfbench's verify_symbolic request
    res = runner.invoke(main, ["verify", "all", "--nmax", "10", "--format", "json"])
    assert res.exit_code == 0
    assert hashlib.sha256(res.output.encode()).hexdigest() == (
        "bcb64a1b4caf88c77b3483d091a171cfe67a91335d63d349b5a6dfee7c1b4bb1")


@pytest.mark.parametrize("scope,digest", [
    ("relations", "45ff97abdcaede2f5dffbb0b15e77e1cff7387b99ebe71ecef4ffa21d864fa6e"),
    ("iso", "c792517e00a791ab1eb5c4377dcc1366a48626adfff4cd84e20c154fb35cb422"),
])
def test_verify_algebra_bytes_pinned(runner, scope, digest):
    # the algebra rows; the ncomm: rows fold their text in the alphabet of
    # the module environment
    res = runner.invoke(main, ["verify", scope, "--format", "json"])
    assert res.exit_code == 0
    assert hashlib.sha256(res.output.encode()).hexdigest() == digest


def _separate_suites_rows(nmax, window=4):
    # the battery as its public suites, one call each: operator and closed-form
    # suites build their own operator environments
    report = VerificationReport()
    for suite in (verify_presentation_iso, verify_confluence,
                  verify_n_definitions, verify_n_commutation, verify_n_preimages):
        report.extend(suite())
    specs = [ModuleSpec.single(n, eps) for n in range(nmax + 1) for eps in (1, -1)]
    specs += [ModuleSpec(((1, 1), (2, -1))), ModuleSpec(((0, -1), (3, 1)))]
    for spec in specs:
        report.extend(verify_module_suite(build_equitable(spec)))
        report.extend(verify_module_suite(build_chevalley(spec)))
        report.extend(verify_basis_change(spec))
    for spec in specs:
        report.extend(verify_conjugation_suite(build_equitable(spec)))
        report.extend(verify_relation_rewrites(build_equitable(spec)))
    for n in range(nmax + 1):
        for eps in (1, -1):
            report.extend(verify_closed_form(n, eps))
    report.extend(verify_gamma(GAMMA_Y, imax=window, jmax=window))
    report.extend(verify_gamma(GAMMA_Z, imax=window, jmax=window))
    return report.json_obj()


def _row_keys(entries):
    return sorted(json.dumps(e, sort_keys=True) for e in entries)


def test_verify_all_rows_match_separate_suites(runner):
    res = runner.invoke(main, ["verify", "all", "--nmax", "3", "--format", "json"])
    assert res.exit_code == 0
    merged = json.loads(res.output)
    reference = _separate_suites_rows(3)
    assert merged["checks"] == reference["checks"] == len(merged["entries"])
    assert _row_keys(merged["entries"]) == _row_keys(reference["entries"])
    # each simple module's closed-form rows follow its operator rows directly
    entries = merged["entries"]
    for n in range(4):
        for eps in (1, -1):
            module = {"n": n, "eps": eps}
            at = [i for i, e in enumerate(entries) if e["module"] == module
                  and e["identity"].startswith("closedform:")]
            assert len(at) == 3 and at == list(range(at[0], at[0] + 3))
            before = entries[at[0] - 1]
            assert before["module"] == module
            assert before["identity"] == "rewrite:q*(1-x*y)=q^-1*(1-y*x)"


def test_verify_builds_each_input_once_per_module(runner, monkeypatch):
    # each module's symbolic env builds both Reps and folds the four
    # Chevalley images once, whatever --q-spot is; each (module, point)
    # inverts y and z
    calls = []
    images = set(ncore.IMAGES["equitable"].values())

    def counting(name, fn):
        def wrapper(*args):
            if name != "image" or args[1] in images:
                calls.append((name, args[0].env["spec"] if name == "image" else args[0]))
            return fn(*args)
        return wrapper

    for module in (cli, repmod):
        monkeypatch.setattr(module, "build_equitable",
                            counting("build_equitable", repmod.build_equitable))
    monkeypatch.setattr(repmod, "build_chevalley",
                        counting("build_chevalley", repmod.build_chevalley))
    monkeypatch.setattr(repmod, "_matrix_sides", counting("image", repmod._matrix_sides))
    real_inverse = repmod.Matrix.inverse
    monkeypatch.setattr(repmod.Matrix, "inverse",
                        lambda self: calls.append(("inverse", None)) or real_inverse(self))
    specs = [ModuleSpec.single(n, eps) for n in range(4) for eps in (1, -1)]
    specs += [ModuleSpec(((1, 1), (2, -1))), ModuleSpec(((0, -1), (3, 1)))]
    for q_spot in ("0", "2"):
        calls.clear()
        res = runner.invoke(main, ["verify", "modules", "--nmax", "3",
                                   "--q-spot", q_spot, "--format", "json"])
        assert res.exit_code == 0
        for name, per_spec in (("build_equitable", 1), ("build_chevalley", 1),
                               ("image", 4)):
            assert sorted(s.label() for n, s in calls if n == name) == sorted(
                s.label() for s in specs for _ in range(per_spec))
        points = 1 + int(q_spot)
        assert calls.count(("inverse", None)) == 2 * len(specs) * points


def test_verify_forms_each_product_once_per_module_and_point(runner, monkeypatch):
    # one word reader folds every formula the module environment turns into
    # a matrix, so the relation rows read the env's products x*y, ... and the
    # Chevalley images multiply no identity matrix: 1376 products of two
    # matrices, against 1580 when each formed its own
    products = []
    real = Matrix.__mul__
    monkeypatch.setattr(Matrix, "__mul__", lambda self, other: (
        products.append(None) if isinstance(other, Matrix) else None) or real(self, other))
    res = runner.invoke(main, ["verify", "all", "--nmax", "4", "--format", "json"])
    assert (res.exit_code, len(products)) == (0, 1376)


@pytest.mark.parametrize("scope", ["modules", "operators"])
def test_the_passing_battery_stays_in_the_ring(runner, monkeypatch, scope):
    # every identity on L(n, eps) is one over Z[q, q^-1]: no gcd runs over
    # Z[q] (qfield._gcd, the primitive remainder sequence), where the Euclid
    # over Q before the ring made 562 and 28 divisions.  The first run parses
    # the formula texts once per process (their division by q - q^-1 is a
    # RatFunc inverse); q-binomials are rebuilt cold
    args = ["verify", scope, "--nmax", "10", "--format", "json"]
    first = runner.invoke(main, args)
    assert first.exit_code == 0
    qfield.qbinom.cache_clear()
    calls = []
    real = qfield._gcd
    monkeypatch.setattr(qfield, "_gcd", lambda *a: calls.append(a) or real(*a))
    res = runner.invoke(main, args)
    assert (res.exit_code, res.output, len(calls)) == (0, first.output, 0)


@pytest.mark.parametrize("word,digest", [
    ("(e*f)^12", "55b1e2431914537c69ff3404a89a31f3055fb7c3d8afb8467c6cdb84848b38b8"),
    ("(e^6*f^6)^2", "17d2793b1223865f31ccbff6d4c5b37a5c231042d5c936c5cbfe1d0c2f0eceff"),
])
def test_pbw_denominators_cancel_without_euclid(runner, monkeypatch, word, digest):
    # PBW denominators are (q - 1)^a (q + 1)^b, which _cancel strips by
    # synthetic division: no call of the gcd qfield._gcd, where the Euclid
    # over Q made 13,962 and 51,166 divisions in a fresh process.  The PBW
    # tables are rebuilt cold
    ncore._ef_terms.cache_clear()
    ncore._ef_table.cache_clear()
    qfield.qbinom.cache_clear()
    calls = []
    real = qfield._gcd
    monkeypatch.setattr(qfield, "_gcd", lambda *a: calls.append(a) or real(*a))
    res = runner.invoke(main, ["normalize", word])
    assert (res.exit_code, len(calls)) == (0, 0)
    assert hashlib.sha256(res.output.encode()).hexdigest() == digest


def test_normalize_builds_no_fraction(monkeypatch):
    # a product of coefficients with coprime denominators outside the q -+ 1
    # branch runs the gcd over Z and builds no Fraction, where the Euclid
    # over Q built 28,918; the input is parsed before the count starts
    ast = parse("(1/(q^2+3)*e*f + 1/(q^3+2)*f*e)^3", "chevalley")
    calls = []
    real = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__",
                        lambda cls, *a, **k: calls.append(a) or real(cls, *a, **k))
    normalize_chevalley(ast)
    assert len(calls) == 0


def test_verify_never_calls_evaluate(runner, monkeypatch):
    # repmod.evaluate stays as the reference of the tests; verify folds text
    calls = []
    monkeypatch.setattr(repmod, "evaluate", lambda *args: calls.append(args))
    res = runner.invoke(main, ["verify", "all", "--nmax", "2", "--q-spot", "1"])
    assert (res.exit_code, calls) == (0, [])


def test_verify_builds_each_series_once_per_module_pair(runner, monkeypatch):
    # L(n, +1) and L(n, -1) share their n_a, and on L(0, eps) n_x = n_y =
    # n_z: 13 series for the simple modules up to n = 4 and 3 for each
    # direct sum, against 3 per module
    calls = []
    real = qexpops._exp_series
    monkeypatch.setattr(qexpops, "_exp_series",
                        lambda *args: calls.append(args) or real(*args))
    res = runner.invoke(main, ["verify", "all", "--nmax", "4", "--format", "json"])
    assert res.exit_code == 0
    assert len(calls) == 19


def test_the_series_store_is_keyed_by_value(runner, monkeypatch):
    # y*z on L(2, +1) alone becomes q*(y*z) + (1 - q)*I, so its n_x is q*n_x,
    # still nilpotent: exactly rows of L(2, +1) fail, and L(2, -1), which
    # follows it and shares its store, builds its own series of n_x
    args = ["verify", "operators", "--nmax", "2", "--q-spot", "1"]
    code, good = _rows_and_exit(runner, args)
    assert code == 0
    keys, recipe = _OperatorEnv.recipes["y*z"]
    broken_module = ModuleSpec.single(2, 1)

    def broken(env):
        mat, = recipe(env)
        if env["spec"] != broken_module:
            return [mat]
        q = env["sc"].scal(q_power(1))
        return [mat * q + (1 - q)]

    monkeypatch.setitem(_OperatorEnv.recipes, "y*z", (keys, broken))
    code, rows = _rows_and_exit(runner, args)
    assert code == 1
    assert [e["identity"] for e in rows] == [e["identity"] for e in good]
    failed = [e for e in rows if e["status"] == "fail"]
    assert failed and all(e["module"] == {"n": 2, "eps": 1} and e["witness"] for e in failed)
    assert any(e["identity"].startswith("conj:") and "@q=" not in e["identity"]
               for e in failed)
    assert any(e["identity"].startswith("conj:") and "@q=" in e["identity"] for e in failed)
    for e, before in zip(rows, good):
        if e["module"] != {"n": 2, "eps": 1}:
            assert e == before


def test_verify_failure_exits_1(runner, monkeypatch):
    failing = VerificationReport([ReportEntry(
        identity="iso:composite:k", module=None, status="fail", witness="forced")])
    monkeypatch.setattr(cli, "verify_presentation_iso", lambda: failing)
    res = runner.invoke(main, ["verify", "iso"])
    assert res.exit_code == 1
    assert "FAIL" in res.output


def _break_products(monkeypatch, symbolic):
    # q^3 added at (0, 0) of y*z and z*x: the two sides of n_x and of n_y
    # no longer agree.  Only in the environments at a point unless symbolic:
    # the broken n_x is not nilpotent, and the symbolic rows that multiply
    # its truncated series run for many minutes (see CHANGES.md)
    for key in ("y*z", "z*x"):
        keys, recipe = _OperatorEnv.recipes[key]

        def broken(env, recipe=recipe):
            mat = Matrix(recipe(env)[0].rows)
            if symbolic or env["sc"].q0 is not None:
                mat.rows[0][0] = mat.rows[0][0] + env["sc"].scal(q_power(3))
            return [mat]

        monkeypatch.setitem(_OperatorEnv.recipes, key, (keys, broken))


def _rows_and_exit(runner, args):
    res = runner.invoke(main, args + ["--format", "json"])
    assert res.exception is None or isinstance(res.exception, SystemExit), res.exc_info
    assert "Traceback" not in res.output
    return res.exit_code, json.loads(res.stdout)["entries"]


@pytest.mark.parametrize("scope", ["operators", "all"])
def test_verify_reports_a_broken_identity_as_a_row(runner, monkeypatch, scope):
    # a recipe only builds a value, so a broken identity is a failed row
    # with its witness, and every other row is still printed
    args = ["verify", scope, "--nmax", "2", "--q-spot", "1"]
    code, good = _rows_and_exit(runner, args)
    assert code == 0
    _break_products(monkeypatch, symbolic=False)
    code, rows = _rows_and_exit(runner, args)
    assert code == 1
    assert [e["identity"] for e in rows] == [e["identity"] for e in good]
    rewrites = [e for e in rows if e["identity"].startswith("rewrite:")]
    assert rewrites
    for e in rewrites:
        broken = "@q=" in e["identity"] and e["identity"].split("@")[0] in (
            "rewrite:q*(1-y*z)=q^-1*(1-z*y)", "rewrite:q*(1-z*x)=q^-1*(1-x*z)")
        assert e["status"] == ("fail" if broken else "pass")
        assert broken == (e.get("witness", "").startswith("first difference at (0, 0): "))


def test_omega_names_a_broken_identity(runner, monkeypatch):
    _break_products(monkeypatch, symbolic=True)
    for mode in ("check", "compositional", "closed-form"):
        res = runner.invoke(main, ["omega", "--n", "2", "--eps", "+1", "--mode", mode])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert "Traceback" not in res.output
        assert ("FAIL  rewrite:q*(1-z*x)=q^-1*(1-x*z)  @ n=2,eps=1  -- witness: "
                "first difference at (0, 0)") in res.output


def test_verify_relations_reports_broken_n_sides(runner, monkeypatch):
    # the commutation and preimage rows read n_a without a check, so every
    # row is printed and only the ndef: rows fail
    good = runner.invoke(main, ["verify", "relations"]).output.splitlines()
    real = ncore._n_sides
    monkeypatch.setattr(ncore, "_n_sides", lambda axis: (real(axis)[0], real(axis)[1] + 1))
    res = runner.invoke(main, ["verify", "relations"])
    assert res.exit_code == 1
    assert res.exception is None or isinstance(res.exception, SystemExit)
    lines = res.output.splitlines()
    assert len(lines) == len(good)
    failed = [line for line in lines if line.startswith("FAIL  ")]
    assert [line.split("  -- witness: ")[0][6:] for line in failed] == [
        line[6:] for line in good if line.startswith("PASS  ndef:")]


def _swap_relation(monkeypatch, presentation, old, new):
    # the relation table with one entry replaced
    table = ncore.RELATIONS[presentation]
    assert old in table
    monkeypatch.setitem(ncore.RELATIONS, presentation,
                        tuple(new if text == old else text for text in table))


def _failed_identities(entries):
    # without the @q= tag of a row at a point
    return [e.identity.split("@")[0] for e in entries if e.status == "fail"]


def test_a_false_chevalley_relation_fails_its_rows(monkeypatch):
    # every check of a relation folds the table's text, so a false entry
    # fails the module rows, in a Chevalley-basis module and in the env
    # that verify reads, at every point, and the automorphism's check
    false = "k*e=q^3*e*k"
    _swap_relation(monkeypatch, "chevalley", "k*e=q^2*e*k", false)
    spec = ModuleSpec.single(2, -1)
    for q0 in [None] + spot_points(1):
        for report in (verify_module_suite(build_chevalley(spec), q0),
                       cli._module_task(_OperatorEnv(build_equitable(spec)).at(q0))):
            assert _failed_identities(report.entries) == ["module:chevalley:" + false]
            assert report.failures[0].witness.startswith("first difference at (")
    monkeypatch.setattr(ncore, "_auto_checked", set())
    with pytest.raises(RuntimeError, match=r"break k\*e=q\^3\*e\*k$"):
        ncore.apply_automorphism(ncore.AlgebraElement.generator("e"), 1, q_power(1))


def test_a_false_equitable_relation_fails_its_rows(monkeypatch):
    false = "(q*x*y-q^-1*y*x)/(q-q^-1)=q"
    _swap_relation(monkeypatch, "equitable", "(q*x*y-q^-1*y*x)/(q-q^-1)=1", false)
    iso = verify_presentation_iso()
    assert _failed_identities(iso.entries) == ["iso:relation:" + false]
    assert iso.failures[0].witness  # the difference of the two sides in the algebra
    for q0 in [None] + spot_points(1):
        report = verify_module_suite(build_equitable(ModuleSpec.single(2, 1)), q0)
        assert _failed_identities(report.entries) == ["module:equitable:" + false]
        assert report.failures[0].witness.startswith("first difference at (")
    for module in (GAMMA_Y, GAMMA_Z):
        entries = verify_gamma(module, imax=1, jmax=1).entries
        failed = _failed_identities(entries)
        assert failed and failed == [e.identity for e in entries if e.identity.endswith(false)]
        assert all(e.witness.startswith("difference ") for e in entries if e.status == "fail")


# every entry of the tables whose rows print their text, as (table, where,
# text): where is the presentation of a relation, and for an operator
# identity whether its group is rotated; the q-commutations all are
_TABLE_ENTRIES = (
    [("relation", p, text) for p in ("equitable", "chevalley") for text in ncore.RELATIONS[p]]
    + [("ncomm", True, text) for text in ncore.N_COMMUTATIONS]
    + [("operator", rot, text) for _, rot, texts in qexpops.OPERATOR_IDENTITIES
       for text in texts])
# the relations of k with e and f, and the overlaps that read their rules
_K_RELATIONS = ("k*e=q^2*e*k", "k*f=q^-2*f*k")
_K_OVERLAPS = {"confluence:overlap:eKf", "confluence:overlap:ekf"}
_SWEEP = ["verify", "all", "--nmax", "1", "--q-spot", "1", "--format", "json"]


@functools.lru_cache(maxsize=None)
def _sweep_rows():
    # the number of rows of the sweep's run on the true tables
    return len(json.loads(CliRunner().invoke(main, _SWEEP).output)["entries"])


@pytest.mark.parametrize("table,where,text", _TABLE_ENTRIES,
                         ids=["%s:%s" % (table, text) for table, _, text in _TABLE_ENTRIES])
def test_a_false_table_entry_fails_exactly_its_rows(monkeypatch, table, where, text):
    # with its right side R replaced by q*(R), an entry fails the rows that
    # print it or its rotations, symbolically and at a point, each with a
    # witness, and no other row; a relation of k with e or f also fails the
    # two overlaps that read its rewrite rules
    rows = _sweep_rows()
    left, right = text.rsplit("=", 1)
    false = "%s=q*(%s)" % (left, right)

    def swap(texts):
        return tuple(false if t == text else t for t in texts)

    if table == "relation":
        monkeypatch.setitem(ncore.RELATIONS, where, swap(ncore.RELATIONS[where]))
    elif table == "ncomm":
        monkeypatch.setattr(ncore, "N_COMMUTATIONS", swap(ncore.N_COMMUTATIONS))
    else:
        monkeypatch.setattr(qexpops, "OPERATOR_IDENTITIES", tuple(
            (prefix, rot, swap(texts)) for prefix, rot, texts in qexpops.OPERATOR_IDENTITIES))
    printed = exprio.rotated((false,)) if where is True else (false,)
    res = CliRunner().invoke(main, _SWEEP)
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output
    entries = json.loads(res.output)["entries"]
    assert len(entries) == rows
    failed = [e for e in entries if e["status"] == "fail"]
    expected = {e["identity"] for e in entries
                if e["identity"].split("@")[0].endswith(tuple(":" + t for t in printed))}
    if text in _K_RELATIONS:
        expected |= _K_OVERLAPS
    assert expected and {e["identity"] for e in failed} == expected
    assert all(e.get("witness") for e in failed)


# the rows a false definition fails, without their @q= tags: an image of
# an equitable generator g fails the algebra rows that read g (directly, or
# through n_a or a Chevalley image) and the basis-change row of g; a
# Chevalley image its composite row; the others the rows that print their
# text ({false}) or read the operator they define
_DEFINITION_ROWS = {
    ("IMAGES", "equitable", "x"): (
        "iso:relation:x*x^-1=x^-1*x=1", "iso:relation:(q*x*y-q^-1*y*x)/(q-q^-1)=1",
        "iso:relation:(q*z*x-q^-1*x*z)/(q-q^-1)=1", "iso:composite:k", "iso:composite:e",
        "ncomm:x*n_y=q^2*n_y*x", "ncomm:x*n_z=q^-2*n_z*x", "ncomm:y*n_z=q^2*n_z*y",
        "ncomm:z*n_y=q^-2*n_y*z", "ndef:n_y:q*(1-z*x)=q^-1*(1-x*z)",
        "ndef:n_z:q*(1-x*y)=q^-1*(1-y*x)", "npre:n_y=e", "npre:n_z=-q*k*f",
        "module:basis-change:x"),
    ("IMAGES", "equitable", "x^-1"): (
        "iso:relation:x*x^-1=x^-1*x=1", "iso:composite:k^-1", "iso:composite:f",
        "module:basis-change:x^-1"),
    ("IMAGES", "equitable", "y"): (
        "iso:relation:(q*x*y-q^-1*y*x)/(q-q^-1)=1", "iso:relation:(q*y*z-q^-1*z*y)/(q-q^-1)=1",
        "iso:composite:f", "ncomm:x*n_z=q^-2*n_z*x", "ncomm:y*n_x=q^-2*n_x*y",
        "ncomm:y*n_z=q^2*n_z*y", "ncomm:z*n_x=q^2*n_x*z", "ndef:n_x:q*(1-y*z)=q^-1*(1-z*y)",
        "ndef:n_z:q*(1-x*y)=q^-1*(1-y*x)", "npre:n_z=-q*k*f", "module:basis-change:y"),
    ("IMAGES", "equitable", "z"): (
        "iso:relation:(q*y*z-q^-1*z*y)/(q-q^-1)=1", "iso:relation:(q*z*x-q^-1*x*z)/(q-q^-1)=1",
        "iso:composite:e", "ncomm:x*n_y=q^2*n_y*x", "ncomm:y*n_x=q^-2*n_x*y",
        "ncomm:z*n_x=q^2*n_x*z", "ncomm:z*n_y=q^-2*n_y*z", "ndef:n_x:q*(1-y*z)=q^-1*(1-z*y)",
        "ndef:n_y:q*(1-z*x)=q^-1*(1-x*z)", "npre:n_y=e", "module:basis-change:z"),
    **{("IMAGES", "chevalley", g): ("iso:composite:" + g,) for g in ("k", "k^-1", "f", "e")},
    **{("N_DEFINITIONS", None, a): ("ndef:n_%s:{false}" % a, "rewrite:{false}")
       for a in "xyz"},
    ("OPERATOR_DEFINITIONS", None, "Omega"): (
        "closedform:Omega={false}", "closedform:Omega^3=central-scalar",
        "omega:Omega*Omega^-1=1", *exprio.rotated(("omega:Omega^-1*x*Omega=y",)),
        "omega:Omega^3=central-scalar"),
    ("OPERATOR_DEFINITIONS", None, "Omega^-1"): (
        "closedform:Omega^-1", "omega:Omega*Omega^-1=1",
        *exprio.rotated(("omega:Omega^-1*x*Omega=y",))),
    ("OPERATOR_DEFINITIONS", None, "Omega^3"): (
        "closedform:Omega^3=central-scalar", "omega:Omega^3=central-scalar"),
}


@pytest.mark.parametrize("table,where,key", _DEFINITION_ROWS,
                         ids=[":".join(filter(None, entry)) for entry in _DEFINITION_ROWS])
def test_a_false_definition_fails_exactly_its_rows(monkeypatch, table, where, key):
    # with its text R replaced by q*(R) (its right side, in a formula), a
    # definition that recipes and rows read fails exactly the rows of the
    # table above, each with a witness; a rewrite: row on L(0, eps) passes,
    # as both sides of n_a are 0 there.  The caches keyed by name start empty
    rows = _sweep_rows()
    for name in ("equitable_image", "_n_sides"):
        monkeypatch.setattr(ncore, name, functools.lru_cache(getattr(ncore, name).__wrapped__))
    texts = getattr(qexpops if table == "OPERATOR_DEFINITIONS" else ncore, table)
    texts = texts if where is None else texts[where]
    left, _, right = texts[key].rpartition("=")
    false = left + "=" * bool(left) + "q*(%s)" % right
    monkeypatch.setitem(texts, key, false)
    res = CliRunner().invoke(main, _SWEEP)
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output
    entries = json.loads(res.output)["entries"]
    assert len(entries) == rows
    expected = {row.format(false=false) for row in _DEFINITION_ROWS[table, where, key]}
    failed = [e for e in entries if e["status"] == "fail"]
    assert {e["identity"] for e in failed} == {
        e["identity"] for e in entries if e["identity"].split("@")[0] in expected
        and not (e["identity"].startswith("rewrite:") and e["module"].get("n") == 0)}
    assert all(e.get("witness") for e in failed)


@pytest.mark.parametrize("old,new", [
    ("e*f-f*e=(k-k^-1)/(q-q^-1)", "e*f=f*e*e*f"),
    ("k*f=q^-2*f*k", "k*f=k*e"),
])
def test_a_relation_that_does_not_orient_fails_the_confluence_rows(monkeypatch, old, new):
    # a text that gives no terminating rewrite rule fails its confluence row,
    # named in the witness, and every other row of verify relations passes
    _swap_relation(monkeypatch, "chevalley", old, new)
    start = time.perf_counter()
    res = CliRunner().invoke(main, ["verify", "relations"])
    assert time.perf_counter() - start < _RUN_SECONDS
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output
    assert [line for line in res.output.splitlines() if line.startswith("FAIL  ")] == [
        "FAIL  confluence:rules  -- witness: %s does not orient into a rewrite rule "
        "that terminates" % new]


def test_spot_points_are_bounded():
    admissible = {Fraction(a, b) for a in range(-12, 13) for b in range(1, 13)} - {0, 1, -1}
    assert set(spot_points(cli.MAX_Q_SPOT)) == admissible
    assert len(admissible) == cli.MAX_Q_SPOT
    with pytest.raises(ValueError):
        spot_points(cli.MAX_Q_SPOT + 1)


def test_format_env_var(runner):
    res = runner.invoke(main, ["normalize", "k"], env={"UQSL2_FORMAT": "json"})
    assert res.exit_code == 0
    assert json.loads(res.output)["normal_form"] == "k"
    # a format the command does not offer falls back to text; rep offers both
    for fmt in ("csv", "latex"):
        env = {"UQSL2_FORMAT": fmt}
        for args in (["normalize", "k"], ["omega", "--n", "1", "--eps", "+1"],
                     ["verify", "iso"]):
            assert runner.invoke(main, args, env=env).output == runner.invoke(
                main, args, env={"UQSL2_FORMAT": "text"}).output
        rep = ["rep", "--n", "1", "--eps", "+1", "--gen", "x"]
        assert runner.invoke(main, rep, env=env).output == runner.invoke(
            main, rep + ["--format", fmt]).output
    res = runner.invoke(main, ["normalize", "k", "--format", "csv"], env={"UQSL2_FORMAT": "csv"})
    assert res.exit_code == 2


def test_spot_points_deterministic_and_admissible():
    points = spot_points(5)
    assert points == spot_points(5)
    assert len(set(points)) == 5
    assert all(p not in (0, 1, -1) for p in points)


_CORPUS = [
    (["normalize", "k*f"], 0),
    (["normalize", "q^"], 2),
    (["normalize", "--presentation", "equitable", "z*y"], 0),
    (["rep", "--n", "3", "--eps", "-1", "--gen", "z"], 0),
    (["rep", "--n", "3", "--eps", "-1", "--gen", "w"], 2),
    (["omega", "--n", "2", "--eps", "+1", "--mode", "check"], 0),
    (["eval", "q^2 - 1", "--q", "-3"], 0),
    (["eval", "q^2 - 1", "--q", "three"], 2),
    (["verify", "iso", "--format", "json"], 0),
    (["verify", "everything"], 2),
    (["verify", "iso", "--jobs", "2"], 2),
    (["normalize", "(" * 3000 + "e" + ")" * 3000], 2),
    (["normalize", "--", "-" * 3000 + "e"], 2),
    (["eval", "--q", "2", "--rep", "1,+1", "--", "(" * 3000 + "e" + ")" * 3000], 2),
    (["normalize", "(" * 100 + "e" + ")" * 100], 0),
    (["normalize", "--", "e" + "^2" * 1500], 2),
    (["eval", "q^-100000000", "--q", "2"], 2),
    (["normalize", "(q+1)^3000"], 2),
    (["normalize", "e^1000"], 0),
    (["normalize", "((q+1)^1000)^4"], 2),
    (["normalize", "((2^1000)^1000)^1000"], 2),
    (["normalize", "(q+1)^1000"], 0),
    (["normalize", "(2^1000)^13*(2^1000)^13"], 2),
    (["eval", "(2^1000)^13*(2^1000)^13", "--q", "2"], 2),
    (["eval", "q^1000", "--q", "1000000/3"], 2),
    (["eval", "--presentation", "equitable", "--rep", "2,+1", "--q", "99999999/7",
      "x^1000"], 2),
    (["normalize", "(q+1)^600*(q+1)^600"], 2),
    (["normalize", "(q+1)^500*(q+1)^500"], 0),
    (["normalize", "q^1000*q^-1000"], 0),
    (["normalize", "(q^600+2)/(q^600+3)"], 0),
    (["normalize", "((2^1000)^13*e)^2"], 2),
    (["normalize", "(e + (2^1000)^13)^2"], 2),
    (["normalize", "e^1000*f"], 0),
    (["normalize", "e^12*f^12"], 0),
    (["normalize", "(q+q^-1)^-600"], 2),
    (["normalize", "(q+q^-1)^-500"], 0),
    (["normalize", "9" * 4400], 2),
    (["normalize", "9" * 4000], 0),
    (["normalize", "1/(q^600+3) + 1/(q^600+5)"], 2),
    (["normalize", "q^1000 + q^-1000"], 0),
    (["normalize", "e^40*f^40"], 2),
    (["normalize", "e^1000*f^1000"], 2),
    (["normalize", "1/(q^600+3)*e + 1/(q^600+5)*e"], 2),
    (["normalize", "(1/(q^600+3) + 1/(q^600+5)*k)*(k+1)"], 2),
    (["normalize", "e^1000*f*f"], 0),
    (["normalize", "(e^12*f^12)^2"], 2),
    (["normalize", "(e^8*f^8)^2"], 2),
    (["rep", "--n", "1001", "--eps", "+1", "--gen", "x"], 2),
    (["rep", "--n", "1000000", "--eps", "+1", "--gen", "x"], 2),
    (["omega", "--n", "33", "--eps", "+1"], 2),
    (["omega", "--n", "1000000", "--eps", "+1", "--mode", "check"], 2),
    (["eval", "--rep", "1001,+1", "--q", "2", "k"], 2),
    (["eval", "--rep", "1000000,+1", "--q", "2", "k"], 2),
    (["eval", "--q", "2", "--rep", "32,+1", "(e+f)^20"], 2),
    (["eval", "--q", "2", "--rep", "32,+1", "(e+f)^30"], 2),
    (["eval", "--q", "2", "--rep", "32,+1", "(e+f)^50"], 2),
    (["eval", "--q", "2", "--rep", "100,+1", "(e+f)^10"], 2),
    (["eval", "--q", "2", "--rep", "1000,+1", "k"], 2),
    (["eval", "--q", "2", "--rep", "32,+1", "(e+f)^10"], 0),
    (["eval", "--q", "2", "--rep", "200,+1", "k"], 0),
    (["eval", "--q", "2", "--rep", "201,+1", "k"], 2),
    (["verify", "modules", "--nmax", "0", "--q-spot", "181"], 2),
    (["verify", "all", "--nmax", "17"], 2),
    (["verify", "gamma", "--window", "33"], 2),
    (["normalize", "--presentation", "equitable", "exp_q(n_x)"], 2),
    (["normalize", "--presentation", "equitable", "Omega"], 2),
    (["normalize", "--presentation", "equitable", "y^-1"], 2),
    # appended last so that the ids of the cases above stay as they were
    (["eval", "q", "--q", "1e30000000"], 2),
    (["eval", "q", "--q", "1e-30000000"], 2),
    # digits that str.isdigit() accepts and int() refuses
    (["normalize", "e^²"], 2),
    (["normalize", "²"], 2),
    (["normalize", "q^¹"], 2),
    (["normalize", "e*①"], 2),
    (["eval", "--q", "2", "q^²"], 2),
]


@pytest.mark.parametrize("args,expected", _CORPUS)
def test_exit_code_contract(runner, args, expected):
    assert runner.invoke(main, args).exit_code == expected


# pieces of normalize/eval input: letters of both presentations, numbers,
# operators and exponents within and past the budget
_PIECES = ["e", "f", "k", "k^-1", "x", "x^-1", "y", "z", "q", "2", "7", "+", "-",
           "*", "/", "^", "(", ")", "^2", "^3", "^-1", "^12", "^1001", " ", "²", "①"]
_EXPRESSIONS = st.one_of(
    st.lists(st.sampled_from(_PIECES), max_size=12).map("".join),
    st.recursive(
        st.sampled_from(["e", "f", "k", "k^-1", "x", "x^-1", "y", "z", "q", "2", "(q+1)",
                         "1/(q^2+3)"]),
        lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from("+-*/"), inner).map("(%s%s%s)".__mod__),
            st.tuples(inner, st.sampled_from(["2", "3", "-1", "12", "1001"])).map(
                "%s^%s".__mod__),
            inner.map("-{}".format)),
        max_leaves=8))
_RUN_SECONDS = 30


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["normalize", "eval"]), _EXPRESSIONS,
       st.sampled_from(["chevalley", "equitable"]),
       st.sampled_from(["2", "-1/3", "5/2", "0", "1", "q"]),
       st.sampled_from([None, "0,+1", "2,-1", "32,+1", "1001,+1", "a,+1", "1"]))
def test_fuzz_normalize_and_eval_exit_cleanly(command, expr, presentation, q0, rep):
    # every argument vector answers or exits 2, with no traceback, in bounded time
    args = [command, "--presentation", presentation]
    if command == "eval":
        args += ["--q", q0] + ([] if rep is None else ["--rep", rep])
    start = time.perf_counter()
    res = CliRunner().invoke(main, args + ["--", expr])
    assert time.perf_counter() - start < _RUN_SECONDS
    assert res.exit_code in (0, 1, 2)
    assert res.exception is None or isinstance(res.exception, SystemExit), res.exc_info
    assert "Traceback" not in res.output


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["chevalley", "equitable"]), _EXPRESSIONS)
@example("equitable", "(y*z)^3 - 1/(q+1)")
@example("chevalley", "k^12^12*f^12")
@example("chevalley", "(q^144*e)^12")
@example("chevalley", "1/(q^600+3)*e*f")
@example("chevalley", "(1/(q^600+3) + 1/(q^600+5)*k)*(k+1)")
def test_normalize_output_parses_back(presentation, expr):
    # an answer of normalize is a Chevalley normal form that normalize reads
    # back, unless a coefficient's numerator has a q-exponent past the
    # budget, which the algebra does not bound (tables, k-shifts and products
    # of coefficients raise it; see CHANGES.md) and the parser refuses
    runner = CliRunner()
    res = runner.invoke(main, ["normalize", "--presentation", presentation, "--", expr])
    if res.exit_code == 0:
        again = runner.invoke(main, ["normalize", "--", res.output.strip()])
        build = from_equitable if presentation == "equitable" else normalize_chevalley
        coeffs = build(parse(expr, presentation)).terms.values()
        assert all(c.den.degree() <= MAX_EXPONENT for c in coeffs)
        if all(abs(x) <= MAX_EXPONENT for c in coeffs for x in c.num.terms):
            assert (again.exit_code, again.output) == (0, res.output)
        else:
            assert again.exit_code == 2 and "exponent" in again.output


def test_layer_trace_finds_every_program_name():
    # perfbench/layertrace.py wraps program functions by name; a rename that
    # it misses would break only the benchmark's --trace 1 pass
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), str(root / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import uqsl2.cli, layertrace; layertrace.install(layertrace.Tracer())"],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


_TRACED_RUN = """
import uqsl2.cli, layertrace
tracer = layertrace.Tracer()
layertrace.install(tracer)
for argv in (["normalize", "(e*f)^3"], ["verify", "modules", "--nmax", "1"]):
    try:
        uqsl2.cli.main(argv, standalone_mode=False)
    except SystemExit as exit:
        assert not exit.code, exit.code
print(sorted(name for name, stats in tracer.stats.items() if stats.calls))
"""


def test_layer_trace_wrappers_run():
    # the wrappers read program attributes when they run (the terms of a
    # LaurentPoly, the den of a RatFunc), so a missing one shows only then
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), str(root / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", _TRACED_RUN], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    for layer in ("qfield.laurent_mul", "qfield.ratfunc_op", "ncore.pbw_mul", "repmod.matmul"):
        assert "'%s'" % layer in proc.stdout


@pytest.mark.parametrize("expr,message", [
    ("exp_q(n_x)", "parse error at position 4: unexpected character '_'"),
    ("Omega", "parse error at position 1: unknown symbol 'Omega' for equitable presentation"),
    ("y^-1", "parse error at position 2: negative power of non-invertible generator 'y'"),
], ids=["exp_q", "Omega", "y^-1"])
def test_operator_names_are_not_user_input(runner, expr, message):
    # the operator alphabet of qexpops is not reachable from user input
    res = runner.invoke(main, ["normalize", "--presentation", "equitable", expr])
    assert res.exit_code == 2
    assert res.output.endswith("Error: %s\n" % message)


def _break_recipe(monkeypatch, key, broken):
    # the recipe that builds key, and every other key it builds, replaced by
    # broken(env, recipe)
    keys, recipe = _OperatorEnv.recipes[key]
    for k in keys:
        monkeypatch.setitem(_OperatorEnv.recipes, k,
                            (keys, lambda env: broken(env, recipe)))


def _singular_y(env, recipe):
    # y with row 0 zeroed in the environments at a point: the symbolic
    # series of the n_a it breaks would run for about a minute
    mat = Matrix(recipe(env)[0].rows)
    if env["sc"].q0 is not None:
        mat.rows[0] = [x * 0 for x in mat.rows[0]]
    return [mat]


def _psi_of_a_broken_x(env, recipe):
    # x broken inside the Psi recipe alone: one more entry below its diagonal
    rep = env["rep"]
    x = Matrix(rep.action["x"].rows)
    x.rows[-1][0] = x.rows[-1][0] + 1
    return recipe(dict(env, rep=replace(rep, action=dict(rep.action, x=x))))


@pytest.mark.parametrize("key,broken,reads,witness", [
    ("y", _singular_y, ("y^-1",), "y^-1 not built: matrix is singular"),
    ("Psi", _psi_of_a_broken_x, ("Psi", "Omega"), "Psi, Psi^-1 not built: x"),
], ids=["singular-y", "psi-of-a-broken-x"])
def test_a_recipe_that_raises_fails_the_rows_that_read_it(runner, monkeypatch, key,
                                                          broken, reads, witness):
    # the recipe's message is the witness of each row that reads it; every
    # row that does not is printed as before
    args = ["verify", "operators", "--nmax", "1", "--q-spot", "1"]
    code, good = _rows_and_exit(runner, args)
    assert code == 0
    _break_recipe(monkeypatch, key, broken)
    code, rows = _rows_and_exit(runner, args)
    assert code == 1
    assert [e["identity"] for e in rows] == [e["identity"] for e in good]
    named = [e for e in rows if e.get("witness", "").startswith(witness)]
    assert named
    for e, before in zip(rows, good):
        if e in named:
            assert e["status"] == "fail"
            assert any(leaf in e["identity"] for leaf in reads)
        elif key == "Psi" or "@q=" not in e["identity"]:
            assert e == before


def test_a_singular_y_fails_the_module_rows_with_witnesses(runner, monkeypatch):
    # the rows that read a y with no inverse each name what failed
    _break_recipe(monkeypatch, "y", _singular_y)
    code, rows = _rows_and_exit(runner, ["verify", "modules", "--nmax", "1", "--q-spot", "1"])
    failed = {e["identity"]: e.get("witness") for e in rows if e["status"] == "fail"}
    assert code == 1 and all(failed.values())
    assert failed["module:invertible:y@q=8"] == "y^-1 not built: matrix is singular"
    assert failed["module:eigenvalues:y@q=8"].startswith("diagonal entry 0: 0, expected ")


def test_verify_grid_has_one_budget(runner):
    # the work of the (module, point) grid is checked before the first row
    start = time.perf_counter()
    res = runner.invoke(main, ["verify", "all", "--nmax", "16", "--q-spot", "180"])
    assert res.exit_code == 2 and time.perf_counter() - start < 1
    assert "grid of verify: work in units 765296040 exceeds the budget of 30000000" in res.output
    with pytest.raises(click.UsageError):
        cli._grid(16, 7)
    # the grids that the tests, README and CI run, and the largest ones
    for nmax, q_spot in ((16, 0), (16, 6), (12, 20), (8, 4), (6, 3), (3, 1), (0, 180)):
        specs, points = cli._grid(nmax, q_spot)
        assert (len(specs), len(points)) == (2 * nmax + 4, q_spot + 1)


def test_eval_rep_folds_scalars_as_scalars(runner, monkeypatch):
    # a scalar scales a matrix entrywise; only a product of two module
    # matrices multiplies matrices
    products = []
    real = Matrix.__mul__
    monkeypatch.setattr(Matrix, "__mul__", lambda self, other: (
        products.append(other) if isinstance(other, Matrix) else None) or real(self, other))
    for expr, count, output in (
            ("q*e", 0, "[[0, 21/2, 0, 0], [0, 0, 5, 0], [0, 0, 0, 2], [0, 0, 0, 0]]"),
            ("e*f", 1, "[[21/4, 0, 0, 0], [0, 25/4, 0, 0], [0, 0, 21/4, 0], [0, 0, 0, 0]]"),
            ("2 + q*e*q - k", 0,
             "[[-6, 21, 0, 0], [0, 0, 10, 0], [0, 0, 3/2, 4], [0, 0, 0, 15/8]]"),
            ("q", 0, "[[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]]")):
        products.clear()
        res = runner.invoke(main, ["eval", "--q", "2", "--rep", "3,+1", "--", expr])
        assert (res.exit_code, res.output, len(products)) == (0, output + "\n", count)
