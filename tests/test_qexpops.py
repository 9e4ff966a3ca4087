"""Tests for the q-exponential operators and their identity suites."""

import re
from fractions import Fraction

import pytest

from uqsl2 import cli, qexpops
from uqsl2.cli import spot_points
from uqsl2.qexpops import (ConsistencyError, NilpotentOperator, _exp_series,
                           _OperatorEnv, exp_q, exp_q_inverse, n_matrix, omega,
                           omega_closed_form, omega_cube_scalar, psi, psi_inverse,
                           verify_closed_form, verify_conjugation_suite,
                           verify_relation_rewrites)
from uqsl2.qfield import (RF_ONE, RF_ZERO, RatFunc, SpecializationError, q_power,
                          qbinom, qfact, qint)
from uqsl2.repmod import (Matrix, ModuleSpec, ScalarContext, build_chevalley,
                          build_equitable, verify_basis_change, verify_module_suite)


def _rep(n, eps):
    return build_equitable(ModuleSpec.single(n, eps))


def _strs(m):
    return m.to_strings()


def test_n_matrices_frozen():
    rep = _rep(1, 1)
    nz = n_matrix("z", rep)
    ny = n_matrix("y", rep)
    nx = n_matrix("x", rep)
    assert _strs(nz.matrix) == [["0", "0"], ["1", "0"]]
    assert _strs(ny.matrix) == [["0", "-1"], ["0", "0"]]
    assert _strs(nx.matrix) == [["1", "-1"], ["1", "-1"]]
    assert (nz.nil_index, ny.nil_index, nx.nil_index) == (2, 2, 2)
    trivial = n_matrix("x", _rep(0, -1))
    assert _strs(trivial.matrix) == [["0"]]
    assert trivial.nil_index == 1


def test_n_matrix_input_checking():
    with pytest.raises(ValueError):
        n_matrix("x", build_chevalley(ModuleSpec.single(1, 1)))
    with pytest.raises(ValueError):
        n_matrix("w", _rep(1, 1))


def test_nil_index_is_n_plus_one():
    for n in range(9):
        for eps in (1, -1):
            rep = _rep(n, eps)
            for axis in ("x", "y", "z"):
                assert n_matrix(axis, rep).nil_index == n + 1
    assert n_matrix("y", _rep(12, 1)).nil_index == 13


def test_exp_frozen():
    rep = _rep(1, 1)
    assert _strs(exp_q(n_matrix("z", rep))) == [["1", "0"], ["1", "1"]]
    assert _strs(exp_q_inverse(n_matrix("y", rep))) == [["1", "1"], ["0", "1"]]
    # the i = 2 series coefficient q^1/[2]! in canonical form
    assert str(q_power(1) * RatFunc(1, qfact(2))) == "(q^2)/(q^2 + 1)"
    ez = exp_q(n_matrix("z", _rep(2, 1)))
    assert ez.rows[2][0] == RF_ONE
    assert ez.rows[2][1] == RatFunc(qbinom(2, 1).shift(-1))


def test_exp_entries_match_closed_form():
    # independent oracle: entry formulas derived from the basis actions
    #   n_y u_i = -q^(n-i)[n-i+1] u_(i-1)    n_z u_i = q^(-i)[i+1] u_(i+1)
    for n in range(7):
        for eps in (1, -1):
            rep = _rep(n, eps)
            ny, nz = n_matrix("y", rep), n_matrix("z", rep)
            ey, eyi = exp_q(ny), exp_q_inverse(ny)
            ez, ezi = exp_q(nz), exp_q_inverse(nz)
            for i in range(n + 1):
                for j in range(n + 1):
                    if i <= j:
                        m = j - i
                        sign = 1 if m % 2 == 0 else -1
                        assert ey.rows[i][j] == RatFunc(
                            qbinom(n - i, m).shift(m * (n - i - 1)) * sign)
                        assert eyi.rows[i][j] == RatFunc(
                            qbinom(n - i, m).shift(m * (n - j)))
                    else:
                        assert ey.rows[i][j] == RF_ZERO
                        assert eyi.rows[i][j] == RF_ZERO
                    if i >= j:
                        m = i - j
                        sign = 1 if m % 2 == 0 else -1
                        assert ez.rows[i][j] == RatFunc(
                            qbinom(i, j).shift(-m * j))
                        assert ezi.rows[i][j] == RatFunc(
                            qbinom(i, j).shift(-m * (i - 1)) * sign)
                    else:
                        assert ez.rows[i][j] == RF_ZERO
                        assert ezi.rows[i][j] == RF_ZERO


def test_exp_inverse_checked_at_construction():
    # truncating the series too early must be caught by the product check
    full = n_matrix("z", _rep(2, 1))
    broken = NilpotentOperator(matrix=full.matrix, nil_index=2)
    with pytest.raises(ConsistencyError):
        exp_q_inverse(broken)


def test_nil_index_rejects_invertible_matrices(monkeypatch):
    # the series of an invertible matrix runs to its bound, which the
    # nilpotent: row reports; n_matrix raises from that row
    assert _exp_series(_rep(1, 1).action["x"], ScalarContext(), 5)[2] == 5
    monkeypatch.setitem(_OperatorEnv.recipes, "n_x", (("n_x",), lambda env: [env["x"]]))
    with pytest.raises(ConsistencyError, match="nilpotent:n_x:index=n\\+1.*index 4, expected 2"):
        n_matrix("x", _rep(1, 1))


def test_psi_frozen_and_quadratic_exponent_form():
    assert _strs(psi(_rep(1, 1))) == [["1", "0"], ["0", "1"]]
    assert _strs(psi(_rep(1, -1))) == [["1", "0"], ["0", "1"]]
    assert _strs(psi(_rep(2, 1))) == [
        ["q^-2", "0", "0"], ["0", "1", "0"], ["0", "0", "q^-2"]]
    # diagonal entries also equal q^(2i(n-i) + (s - n^2)/2) with s = n mod 2
    for n in range(9):
        for eps in (1, -1):
            p = psi(_rep(n, eps))
            base = (n % 2 - n * n) // 2
            expected = [q_power(2 * i * (n - i) + base) for i in range(n + 1)]
            assert p.diagonal() == expected
            assert (psi(_rep(n, eps)) * psi_inverse(_rep(n, eps))
                    == Matrix.identity(n + 1))
    with pytest.raises(ValueError):
        psi(build_chevalley(ModuleSpec.single(2, 1)))


def test_omega_frozen():
    om = omega(_rep(1, 1))
    assert _strs(om.matrix) == [["1", "-1"], ["1", "0"]]
    assert _strs(om.inverse) == [["0", "1"], ["-1", "1"]]
    cube = om.matrix * om.matrix * om.matrix
    assert _strs(cube) == [["-1", "0"], ["0", "-1"]]
    for eps in (1, -1):
        assert _strs(omega(_rep(0, eps)).matrix) == [["1"]]


def test_omega_inverse_agrees_with_matrix_inverse():
    for n, eps in ((2, 1), (3, -1)):
        om = omega(_rep(n, eps))
        assert om.inverse == om.matrix.inverse()


def test_omega_closed_form_matches_compositional():
    for n in range(9):
        for eps in (1, -1):
            cf = omega_closed_form(n, eps)
            om = omega(_rep(n, eps))
            assert cf.matrix == om.matrix
            assert cf.inverse == om.inverse


def test_omega_cube_scalar_values():
    assert str(omega_cube_scalar(0)) == "1"
    assert str(omega_cube_scalar(1)) == "-1"
    assert str(omega_cube_scalar(2)) == "q^-4"
    assert str(omega_cube_scalar(3)) == "-q^-6"
    assert str(omega_cube_scalar(4)) == "q^-12"
    for n in range(7):
        om = omega(_rep(n, 1))
        cube = om.matrix * om.matrix * om.matrix
        assert cube == Matrix.identity(n + 1).scalar_mul(omega_cube_scalar(n))


def test_conjugation_suite_counts_and_identities():
    report = verify_conjugation_suite(_rep(2, -1))
    assert report.passed
    assert len(report.entries) == 38
    names = [e.identity for e in report.entries]
    assert names[0] == "nilpotent:n_x:index=n+1"
    assert "conj:exp_q(n_y)^-1*x*exp_q(n_y)=z^-1" in names
    assert "conj:exp_q(n_z)*x*exp_q(n_z)^-1=y^-1" in names
    assert "conj:exp_q(n_z)^-1*x*exp_q(n_z)=x*y*x" in names
    assert "conj:exp_q(n_y)*x*exp_q(n_y)^-1=x*z*x" in names
    assert "conj:exp_q(n_x)^-1*x*exp_q(n_x)=x+y-y^-1" in names
    assert "conj:exp_q(n_x)*x*exp_q(n_x)^-1=x+z-z^-1" in names
    assert ("conj:x*exp_q(n_x)-exp_q(n_x)*x=exp_q(n_x)*y-z*exp_q(n_x)"
            in names)
    assert "psi:Psi^-1*n_y*Psi=x*n_y*x" in names
    assert "omega:Omega^-1*x*Omega=y" in names
    assert names[-1] == "omega:Omega^3=central-scalar"
    assert all(e.module == {"n": 2, "eps": -1} for e in report.entries)


def test_conjugation_suite_on_direct_sums():
    for summands in (((1, 1), (2, -1)), ((0, -1), (3, 1))):
        rep = build_equitable(ModuleSpec(summands))
        report = verify_conjugation_suite(rep)
        assert report.passed
        assert len(report.entries) == 37  # no central-scalar row on sums
        assert all("central-scalar" not in e.identity for e in report.entries)


def test_relation_rewrites():
    report = verify_relation_rewrites(_rep(3, 1))
    assert report.passed
    assert [e.identity for e in report.entries] == [
        "rewrite:q*(1-y*z)=q^-1*(1-z*y)",
        "rewrite:q*(1-z*x)=q^-1*(1-x*z)",
        "rewrite:q*(1-x*y)=q^-1*(1-y*x)",
    ]


def test_closed_form_suite():
    report = verify_closed_form(5, -1)
    assert report.passed
    assert [e.identity for e in report.entries] == [
        "closedform:Omega=exp_q(n_z)*Psi*exp_q(n_y)",
        "closedform:Omega^-1",
        "closedform:Omega^3=central-scalar",
    ]


def test_closed_form_witness_on_a_broken_identity(monkeypatch):
    real = qexpops._closed_form_matrices

    def broken(n):
        mat, inv = real(n)
        mat = Matrix(mat.rows)
        mat.rows[1][2] = mat.rows[1][2] + RF_ONE
        return mat, inv

    monkeypatch.setattr(qexpops, "_closed_form_matrices", broken)
    for q0 in (None, Fraction(5, 3)):
        report = verify_closed_form(4, 1, q0)
        assert [e.status for e in report.entries] == ["fail", "pass", "pass"]
        good = ScalarContext(q0).matrix(real(4)[0]).rows[1][2]
        assert report.entries[0].witness == (
            "first difference at (1, 2): lhs %s, rhs %s" % (good + 1, good))
        assert [e.witness for e in report.entries[1:]] == [None, None]


def test_env_builds_only_what_is_read(monkeypatch):
    # (exp_q series, matrix inverses) that each entry point builds: the
    # closed form reads Omega alone, so no n_x, exp_q(n_x), y^-1 or z^-1
    calls = {"series": 0, "inverse": 0}
    real_series, real_inverse = qexpops._exp_series, Matrix.inverse

    def series(*args, **kwargs):
        calls["series"] += 1
        return real_series(*args, **kwargs)

    def inverse(self):
        calls["inverse"] += 1
        return real_inverse(self)

    monkeypatch.setattr(qexpops, "_exp_series", series)
    monkeypatch.setattr(Matrix, "inverse", inverse)

    def counted(run):
        calls.update(series=0, inverse=0)
        run()
        return calls["series"], calls["inverse"]

    assert counted(lambda: omega(_rep(3, 1))) == (2, 0)
    for q0 in (None, Fraction(5, 3)):
        assert counted(lambda: verify_closed_form(3, 1, q0)) == (2, 0)
        assert counted(lambda: verify_relation_rewrites(_rep(3, 1), q0)) == (0, 0)
        assert counted(lambda: verify_conjugation_suite(_rep(3, 1), q0)) == (3, 2)
        # three reports read one environment
        assert counted(lambda: cli._operator_task(
            _OperatorEnv(_rep(3, 1)).at(q0))) == (3, 2)

        # the module rows and the operator rows read one environment: y^-1
        # and z^-1 once; the basis change's D^-1 takes reciprocals, no inverse
        def both():
            env = _OperatorEnv(_rep(3, 1)).at(q0)
            cli._module_task(env)
            cli._operator_task(env)

        assert counted(both) == (3, 2)


@pytest.mark.parametrize("q0", [0, 1, -1])
@pytest.mark.parametrize("suite", [
    lambda q0: verify_module_suite(_rep(2, 1), q0),
    lambda q0: verify_module_suite(build_chevalley(ModuleSpec.single(2, 1)), q0),
    lambda q0: verify_basis_change(ModuleSpec.single(2, 1), q0),
    lambda q0: verify_conjugation_suite(_rep(2, 1), q0),
    lambda q0: verify_relation_rewrites(_rep(2, 1), q0),
    lambda q0: verify_closed_form(2, 1, q0),
], ids=["module", "module-chevalley", "basis-change", "conjugation", "rewrites",
        "closed-form"])
def test_suites_reject_inadmissible_points(suite, q0):
    with pytest.raises(SpecializationError):
        suite(q0)


def test_numeric_specialization():
    for q0 in (Fraction(5, 3), Fraction(-2)):
        rep = _rep(3, 1)
        assert verify_conjugation_suite(rep, q0=q0).passed
        assert verify_relation_rewrites(rep, q0=q0).passed
        assert verify_closed_form(3, 1, q0=q0).passed
        mixed = build_equitable(ModuleSpec(((1, 1), (2, -1))))
        assert verify_conjugation_suite(mixed, q0=q0).passed


def _common_denominator_exp(mat, order, sc, inverse):
    # the former construction, kept as the reference: every term over the
    # common denominator [order-1]!, whose i-th numerator is
    # (+-1)^i q^(+-i(i-1)/2) * prod_{t>i}[t]
    tails = [None] * order
    tails[order - 1] = qfact(0)
    for i in range(order - 2, -1, -1):
        tails[i] = tails[i + 1] * qint(i + 1)
    dim = len(mat.rows)
    total = Matrix.identity(dim, sc.one).scalar_mul(sc.scal(0))
    power = Matrix.identity(dim, sc.one)
    for i in range(order):
        exp = -(i * (i - 1) // 2) if inverse else i * (i - 1) // 2
        coeff = q_power(exp) * tails[i]
        if inverse and i % 2:
            coeff = -coeff
        total = total + power.scalar_mul(sc.scal(coeff))
        if i + 1 < order:
            power = power * mat
    return total.scalar_mul(sc.scal(RatFunc(1, qfact(order - 1))))


def test_exp_recurrence_matches_common_denominator_formula():
    contexts = [ScalarContext()] + [ScalarContext(q0) for q0 in spot_points(2)]
    for n in range(9):
        for eps in (1, -1):
            rep = _rep(n, eps)
            for axis in ("x", "y", "z"):
                op = n_matrix(axis, rep)
                for sc in contexts:
                    mat = sc.matrix(op.matrix)
                    exp, inv, index = _exp_series(mat, sc)
                    assert index == op.nil_index == n + 1
                    assert exp == _common_denominator_exp(mat, index, sc, False)
                    assert inv == _common_denominator_exp(mat, index, sc, True)
                    assert _exp_series(mat, sc, index)[:2] == (exp, inv)


def _swap_identity(monkeypatch, old, new):
    # the operator table with one entry replaced
    table = qexpops.OPERATOR_IDENTITIES
    assert any(old in texts for _, _, texts in table)
    monkeypatch.setattr(qexpops, "OPERATOR_IDENTITIES", tuple(
        (prefix, rotated, tuple(new if text == old else text for text in texts))
        for prefix, rotated, texts in table))


def test_a_false_table_entry_fails_its_three_rotated_rows(monkeypatch):
    # every conj: row folds the table's text, so a false entry fails its
    # rotations on x, y and z and nothing else, symbolically and at a point
    _swap_identity(monkeypatch, "exp_q(n_x)^-1*z*exp_q(n_x)=y^-1",
                   "exp_q(n_x)^-1*z*exp_q(n_x)=y")
    for q0 in [None] + spot_points(1):
        for rep in (_rep(2, 1), build_equitable(ModuleSpec(((1, 1), (2, -1))))):
            report = verify_conjugation_suite(rep, q0)
            assert len(report.entries) == (38 if rep.spec.is_single else 37)
            assert [e.identity for e in report.failures] == [
                "conj:exp_q(n_x)^-1*z*exp_q(n_x)=y", "conj:exp_q(n_y)^-1*x*exp_q(n_y)=z",
                "conj:exp_q(n_z)^-1*y*exp_q(n_z)=x"]


@pytest.mark.parametrize("old,new,failed", [
    ("Omega*Omega^-1=1", "Omega*Omega^-1=q", "omega:Omega*Omega^-1=q"),
    ("exp_q(n_x)*exp_q(n_x)^-1=1", "exp_q(n_x)*exp_q(n_x)^-1=q",
     "expq:exp_q(n_y)*exp_q(n_y)^-1=q"),
], ids=["omega", "expq"])
def test_omega_checks_the_table_rows_it_rests_on(monkeypatch, old, new, failed):
    _swap_identity(monkeypatch, old, new)
    with pytest.raises(ConsistencyError, match="^FAIL  %s  @ n=2,eps=1" % re.escape(failed)):
        omega(_rep(2, 1))
