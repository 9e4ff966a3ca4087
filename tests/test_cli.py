"""CLI tests: golden outputs, exit-code contract, and output stability."""

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

from uqsl2 import cli, ncore, repmod
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
    # each module's symbolic env builds both Reps and the four Chevalley
    # images once, whatever --q-spot is; each (module, point) inverts y and z
    calls = []

    def counting(name, fn):
        def wrapper(*args):
            calls.append((name, args[-1].spec if name == "evaluate" else args[0]))
            return fn(*args)
        return wrapper

    for module in (cli, repmod):
        monkeypatch.setattr(module, "build_equitable",
                            counting("build_equitable", repmod.build_equitable))
    monkeypatch.setattr(repmod, "build_chevalley",
                        counting("build_chevalley", repmod.build_chevalley))
    monkeypatch.setattr(repmod, "evaluate", counting("evaluate", repmod.evaluate))
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
                               ("evaluate", 4)):
            assert sorted(s.label() for n, s in calls if n == name) == sorted(
                s.label() for s in specs for _ in range(per_spec))
        points = 1 + int(q_spot)
        assert calls.count(("inverse", None)) == 2 * len(specs) * points


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


def test_a_false_commutation_fails_its_three_rotated_rows(monkeypatch):
    # the ncomm: rows fold the rotations of one family, so a false entry
    # fails its rotations on x, y and z and nothing else
    monkeypatch.setattr(ncore, "N_COMMUTATIONS", ("x*n_y=q^3*n_y*x", "x*n_z=q^-2*n_z*x"))
    report = verify_n_commutation()
    assert len(report.entries) == 6
    assert [e.identity for e in report.failures] == [
        "ncomm:x*n_y=q^3*n_y*x", "ncomm:y*n_z=q^3*n_z*y", "ncomm:z*n_x=q^3*n_x*z"]
    assert all(e.witness for e in report.failures)


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
]


@pytest.mark.parametrize("args,expected", _CORPUS)
def test_exit_code_contract(runner, args, expected):
    assert runner.invoke(main, args).exit_code == expected


# pieces of normalize/eval input: letters of both presentations, numbers,
# operators and exponents within and past the budget
_PIECES = ["e", "f", "k", "k^-1", "x", "x^-1", "y", "z", "q", "2", "7", "+", "-",
           "*", "/", "^", "(", ")", "^2", "^3", "^-1", "^12", "^1001", " "]
_EXPRESSIONS = st.one_of(
    st.lists(st.sampled_from(_PIECES), max_size=12).map("".join),
    st.recursive(
        st.sampled_from(["e", "f", "k", "k^-1", "x", "x^-1", "y", "z", "q", "2", "(q+1)"]),
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
