"""CLI tests: golden outputs, exit-code contract, and output stability."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from uqsl2 import cli, repmod
from uqsl2.cli import main, spot_points
from uqsl2.gammamod import GAMMA_Y, GAMMA_Z, verify_gamma
from uqsl2.ncore import (verify_confluence, verify_n_commutation,
                         verify_n_definitions, verify_n_preimages,
                         verify_presentation_iso)
from uqsl2.qexpops import (verify_closed_form, verify_conjugation_suite,
                           verify_relation_rewrites)
from uqsl2.repmod import (ModuleSpec, build_chevalley, build_equitable,
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


def test_format_env_var(runner):
    res = runner.invoke(main, ["normalize", "k"], env={"UQSL2_FORMAT": "json"})
    assert res.exit_code == 0
    assert json.loads(res.output)["normal_form"] == "k"


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
]


@pytest.mark.parametrize("args,expected", _CORPUS)
def test_exit_code_contract(runner, args, expected):
    assert runner.invoke(main, args).exit_code == expected


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
