"""Tests for module construction, matrix arithmetic, and the module suite."""

import gc
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqsl2 import cli, repmod
from uqsl2.cli import spot_points
from uqsl2.ncore import AlgebraElement
from uqsl2.qfield import CQ, RF_ONE, RF_ZERO, LaurentPoly, RatFunc, q_power
from uqsl2.repmod import (
    Matrix,
    ModuleSpec,
    ScalarContext,
    _ModuleEnv,
    build_chevalley,
    build_equitable,
    change_of_basis,
    direct_sum_matrices,
    evaluate,
    matrix_csv,
    matrix_json_obj,
    matrix_latex,
    matrix_witness,
    verify_basis_change,
    verify_module_suite,
    weight_spaces,
)

L11 = ModuleSpec.single(1, 1)


def test_module_spec_validation():
    assert ModuleSpec.single(3, -1).dim == 4
    assert ModuleSpec(((1, 1), (2, -1))).dim == 5
    assert ModuleSpec(((1, 1), (2, -1))).label() == "L(1,+1)+L(2,-1)"
    assert ModuleSpec.single(2, -1).json_obj() == {"n": 2, "eps": -1}
    assert ModuleSpec(((0, -1), (3, 1))).json_obj() == {
        "summands": [{"n": 0, "eps": -1}, {"n": 3, "eps": 1}]}
    with pytest.raises(ValueError):
        ModuleSpec.single(-1, 1)
    with pytest.raises(ValueError):
        ModuleSpec.single(2, 2)
    with pytest.raises(ValueError):
        ModuleSpec(())


def test_equitable_frozen_matrices():
    eq = build_equitable(L11)
    assert eq.action["y"].to_strings() == [["q^-1", "0"], ["-q + q^-1", "q"]]
    assert eq.action["z"].to_strings() == [["q^-1", "q - q^-1"], ["0", "q"]]
    assert eq.action["x"].to_strings() == [["q", "0"], ["0", "q^-1"]]
    assert eq.action["x^-1"].to_strings() == [["q^-1", "0"], ["0", "q"]]


def test_chevalley_frozen_matrices():
    ch = build_chevalley(ModuleSpec.single(2, -1))
    assert ch.action["k"].to_strings() == [
        ["-q^2", "0", "0"], ["0", "-1", "0"], ["0", "0", "-q^-2"]]
    assert ch.action["f"].to_strings() == [
        ["0", "0", "0"], ["1", "0", "0"], ["0", "q + q^-1", "0"]]
    assert ch.action["e"].to_strings() == [
        ["0", "-q - q^-1", "0"], ["0", "0", "-1"], ["0", "0", "0"]]
    assert build_chevalley(ModuleSpec.single(0, -1)).action["k"].to_strings() == [["-1"]]


def test_change_of_basis_frozen():
    # gamma_0 = 1, gamma_i = -eps q^(n-i) gamma_{i-1}
    assert change_of_basis(L11).to_strings() == [["1", "0"], ["0", "-1"]]
    assert change_of_basis(ModuleSpec.single(2, 1)).to_strings() == [
        ["1", "0", "0"], ["0", "-q", "0"], ["0", "0", "q"]]


def test_matrix_arithmetic():
    y = build_equitable(L11).action["y"]
    ident = Matrix.identity(2)
    assert y ** 0 == ident
    assert y ** 2 == y * y
    yinv = y.inverse()
    assert y * yinv == ident and yinv * y == ident
    assert all(v.is_polynomial() for row in yinv.rows for v in row)
    assert (y - y).is_zero()
    assert -(-y) == y
    assert y.scalar_mul(RF_ZERO).is_zero()
    with pytest.raises(ZeroDivisionError):
        Matrix([[RF_ONE, RF_ONE], [RF_ONE, RF_ONE]]).inverse()
    with pytest.raises(ValueError):
        Matrix([[RF_ONE], [RF_ONE, RF_ZERO]])


def test_matrix_sum_and_difference_check_shapes():
    square = Matrix([[1, 2], [3, 4]])
    for other in (Matrix([[1]]), Matrix([[1, 2]]), Matrix([[1], [2]])):
        with pytest.raises(ValueError):
            square + other
        with pytest.raises(ValueError):
            other - square
    assert square + square == Matrix([[2, 4], [6, 8]])
    assert (square - square).is_zero()


def test_matrix_inverse_over_fractions():
    m = Matrix([[Fraction(1), Fraction(2)], [Fraction(3), Fraction(5)]])
    inv = m.inverse()
    assert m * inv == Matrix.identity(2, Fraction(1))
    assert inv.rows[0][0] == Fraction(-5)


def test_direct_sum_block_structure():
    spec = ModuleSpec(((1, 1), (2, -1)))
    eq = build_equitable(spec)
    blocks = [build_equitable(ModuleSpec.single(n, e)).action["y"]
              for n, e in spec.summands]
    assert eq.action["y"] == direct_sum_matrices(blocks)
    assert eq.dim == 5


def test_weight_spaces():
    ws = weight_spaces(build_equitable(ModuleSpec.single(2, 1)))
    assert [(w.eps, w.weight, w.columns) for w in ws] == [
        (1, 2, (0,)), (1, 0, (1,)), (1, -2, (2,))]
    ws = weight_spaces(build_equitable(ModuleSpec(((1, 1), (1, -1)))))
    assert [(w.eps, w.weight) for w in ws] == [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    with pytest.raises(ValueError):
        weight_spaces(repmod.Rep(spec=L11, basis="equitable",
                                 action={"x": build_equitable(L11).action["y"]}))


def test_module_suite_passes_and_counts():
    rep = build_equitable(ModuleSpec.single(5, -1))
    r = verify_module_suite(rep)
    assert r.passed
    assert len(r.entries) == 11
    r = verify_module_suite(build_chevalley(ModuleSpec.single(5, -1)))
    assert r.passed
    assert len(r.entries) == 5
    r = verify_module_suite(build_equitable(ModuleSpec(((1, 1), (2, -1)))))
    assert r.passed
    assert len(r.entries) == 13  # 9 shared + 2 note rows per summand


def test_failed_eigenvalue_and_invertible_rows_name_what_differs():
    # y^-1 that is not the inverse of y, a z of determinant q + 1, an entry
    # of x off its diagonal, and a k with one eigenvalue replaced
    env = _ModuleEnv(build_equitable(L11))
    q = q_power(1)
    env["y^-1"], env["z"] = env["y"], Matrix.diag([q + 1, RF_ONE])
    x = Matrix(env["x"].rows)
    x.rows[0][1] = q
    env["x"] = x
    witnesses = {e.identity: e.witness for e in repmod._equitable_report(env).entries}
    assert witnesses["module:invertible:y"].startswith("first difference at (0, 0): ")
    assert witnesses["module:invertible:z"] == (
        "entry (0, 0) of z^-1 is not a Laurent polynomial: (1)/(q + 1)")
    assert witnesses["module:eigenvalues:x"] == "entry (0, 1) is q, not 0"
    assert witnesses["module:eigenvalues:z"] == "diagonal entry 0: q + 1, expected q^-1"
    env = _ModuleEnv(build_chevalley(L11))
    env["k"] = Matrix.diag([q_power(2), q_power(-1)])
    assert repmod._chevalley_report(env).entries[-1].witness == (
        "multiplicity of q^2: 1, expected 0")


def test_module_suite_numeric_mode():
    for q0 in (Fraction(3), Fraction(-7, 2)):
        rep = build_equitable(ModuleSpec.single(3, 1))
        assert verify_module_suite(rep, q0).passed
        assert verify_module_suite(build_chevalley(ModuleSpec.single(3, 1)), q0).passed
        assert verify_basis_change(ModuleSpec.single(3, 1), q0).passed


def test_defining_relations_up_to_n_12():
    for n in range(13):
        for eps in (1, -1):
            spec = ModuleSpec.single(n, eps)
            assert verify_module_suite(build_chevalley(spec)).passed
            assert verify_module_suite(build_equitable(spec)).passed


def test_basis_change_coherence():
    for spec in (L11, ModuleSpec.single(4, -1), ModuleSpec(((0, -1), (3, 1)))):
        r = verify_basis_change(spec)
        assert r.passed
        assert [e.identity for e in r.entries] == [
            "module:basis-change:x", "module:basis-change:x^-1",
            "module:basis-change:y", "module:basis-change:z"]


def test_evaluate_requires_chevalley_basis():
    with pytest.raises(ValueError):
        evaluate(AlgebraElement.one(), build_equitable(L11))


def test_evaluate_frozen_values():
    ch = build_chevalley(L11)
    assert evaluate(AlgebraElement.generator("k"), ch) == ch.action["k"]
    casimir_like = AlgebraElement.generator("e") * AlgebraElement.generator("f")
    m = evaluate(casimir_like, ch)
    assert m == ch.action["e"] * ch.action["f"]
    assert evaluate(AlgebraElement.scalar(q_power(2)), ch) == \
        Matrix.identity(2).scalar_mul(q_power(2))


_monos = st.tuples(st.integers(0, 2), st.integers(-2, 2), st.integers(0, 2))
_coeffs = st.integers(-3, 3).filter(bool)


@settings(max_examples=20, deadline=None)
@given(st.dictionaries(_monos, _coeffs, max_size=2).map(AlgebraElement),
       st.dictionaries(_monos, _coeffs, max_size=2).map(AlgebraElement))
def test_evaluate_is_a_homomorphism(a, b):
    ch = build_chevalley(ModuleSpec.single(2, 1))
    assert evaluate(a * b, ch) == evaluate(a, ch) * evaluate(b, ch)
    assert evaluate(a + b, ch) == evaluate(a, ch) + evaluate(b, ch)


def test_matrix_emission_formats():
    y = build_equitable(L11).action["y"]
    obj = matrix_json_obj(L11, "equitable", "y", y)
    assert obj == {"n": 1, "eps": 1, "basis": "equitable", "generator": "y",
                   "entries": [["q^-1", "0"], ["-q + q^-1", "q"]]}
    assert repmod.json_bytes({"a": 1}) == b'{\n  "a": 1\n}\n'
    assert matrix_csv(y) == "q^-1,0\n-q + q^-1,q\n"
    assert matrix_latex(y) == (
        "\\begin{array}{rr}\n"
        "q^{-1} & 0 \\\\\n"
        "-q + q^{-1} & q \\\\\n"
        "\\end{array}\n")
    frac = (q_power(1) - q_power(-1)).inverse()
    m = Matrix([[frac]])
    assert matrix_latex(m) == "\\begin{array}{r}\n\\frac{q}{q^{2} - 1} \\\\\n\\end{array}\n"
    with pytest.raises(ValueError):
        matrix_json_obj(ModuleSpec(((1, 1), (2, -1))), "equitable", "y", y)


def _schoolbook(a, b):
    # the entry-by-entry product of RatFunc matrices, the reference of the
    # ring product
    zero = a.rows[0][0] * 0
    return [[sum((x * b.rows[k][j] for k, x in enumerate(row)), zero)
             for j in range(b.ncols)] for row in a.rows]


def _assert_integer_laurent(rows):
    for row in rows:
        for x in row:
            assert type(x) is RatFunc and x.den == 1
            assert all(type(c) is int for c in x.num.terms.values())


def _ring(m):
    # a RatFunc matrix of integer Laurent polynomials, as a ring matrix
    got = ScalarContext().matrix(m)
    assert got.ring and got.ratfuncs() == m
    return got


def _assert_packed_product(a, b):
    want = _schoolbook(a, b)
    got = _ring(a) * _ring(b)
    assert got.ring and all(type(x) is LaurentPoly for row in got.rows for x in row)
    assert got.ratfuncs().rows == want
    _assert_integer_laurent(want)
    _assert_integer_laurent(got.ratfuncs().rows)
    assert (a * b).rows == want


# magnitudes just under, at and just over the 8, 16, 32 and 64-bit slot
# boundaries, and far above them
_BIG = [2 ** b + d for b in (7, 8, 15, 16, 31, 32, 63, 64, 100) for d in (-1, 0, 1)]
_kcoeff = st.one_of(st.integers(-3, 3), st.sampled_from(_BIG),
                    st.sampled_from(_BIG).map(lambda c: -c))
# valuation in [-8, 8], then up to five terms at exponent gaps of 1 to 3
_kentry = st.builds(
    lambda v, steps: RatFunc(LaurentPoly(
        {v + sum(g for g, _ in steps[:i + 1]): c for i, (_, c) in enumerate(steps)})),
    st.integers(-8, 8),
    st.lists(st.tuples(st.integers(1, 3), _kcoeff), max_size=5))


@st.composite
def _kernel_case(draw):
    m, p, r = (draw(st.integers(1, 4)) for _ in range(3))
    a = [[draw(_kentry) for _ in range(p)] for _ in range(m)]
    b = [[draw(_kentry) for _ in range(r)] for _ in range(p)]
    if draw(st.booleans()):  # a zero row of a and a zero column of b
        a[draw(st.integers(0, m - 1))] = [RF_ZERO] * p
        j = draw(st.integers(0, r - 1))
        for row in b:
            row[j] = RF_ZERO
    if draw(st.booleans()):  # [a | a] * [b ; -b]: every output entry cancels
        a = [row + row for row in a]
        b = b + [[-x for x in row] for row in b]
    return Matrix(a), Matrix(b)


@settings(max_examples=150, deadline=None)
@given(_kernel_case())
def test_packed_product_matches_schoolbook(case):
    _assert_packed_product(*case)


@pytest.mark.parametrize("width", [1, 2, 4, 8, 9, 17])
def test_packed_product_at_slot_boundaries(width):
    # a slot of `width` bytes holds |c| < 2^(8*width - 1); each product's
    # largest output coefficient equals its bound
    half = 2 ** (8 * width - 1)
    for c in (half - 2, half - 1, half, half + 1):
        for sign in (1, -1):
            mono = Matrix([[RatFunc(LaurentPoly({-3: sign * c}))]])
            _assert_packed_product(mono, Matrix([[RatFunc(LaurentPoly({5: -1}))]]))
            pair = Matrix([[RatFunc(LaurentPoly({-1: sign * (c // 2), 0: sign * (c // 2)}))]])
            _assert_packed_product(pair, Matrix([[RatFunc(LaurentPoly({0: 1, 1: 1}))]]))
            # the same bound reached by summing over the inner dimension
            dot = Matrix([[RatFunc(LaurentPoly({2: sign * (c // 2)}))] * 2])
            _assert_packed_product(dot, Matrix([[q_power(-2)], [q_power(-2)]]))
    out = _ring(Matrix([[RatFunc(LaurentPoly({0: 1 - half}))]])) * _ring(Matrix([[RF_ONE]]))
    assert out.rows[0][0].c == (1 - half,)


def _assert_ring_matches(got, want):
    # got, a ring matrix, is want (a RatFunc matrix), entry by entry and as printed
    assert got.ring and all(type(x) is LaurentPoly for row in got.rows for x in row)
    assert got.ratfuncs() == want and got == want and got.to_strings() == want.to_strings()


@st.composite
def _same_shape(draw):
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return [Matrix([[draw(_kentry) for _ in range(n)] for _ in range(m)]) for _ in "ab"]


# +-q^m, and integer Laurent scalars of up to three terms
_ring_scalars = st.one_of(
    st.builds(lambda m, s: q_power(m) * s, st.integers(-6, 6), st.sampled_from([1, -1])),
    _kentry.filter(lambda x: len(x.num.terms) <= 3))


@settings(max_examples=100, deadline=None)
@given(_same_shape(), _ring_scalars)
def test_ring_sums_and_scalar_products_match_ratfunc(pair, c):
    a, b = pair
    ra, rb, rc = _ring(a), _ring(b), ScalarContext().scal(c)
    assert type(rc) is LaurentPoly
    for got, want in ((ra + rb, a + b), (ra - rb, a - b), (-ra, -a), (ra * rc, a * c),
                      (rc * ra, c * a), (ra.scalar_mul(3), a.scalar_mul(3))):
        _assert_ring_matches(got, want)
    if a.nrows == a.ncols:  # a scalar is c*I
        _assert_ring_matches(ra + rc, a + c)
        _assert_ring_matches(1 - ra, 1 - a)


@st.composite
def _ratio_case(draw):
    # a matrix times lift/(q^m - 1): some entries multiples of q^m - 1 (which
    # divide), others with a stray term (which do not, and take the fallback)
    i = draw(st.integers(1, 12))
    lift, m = draw(st.sampled_from([(LaurentPoly({2 * i: 1, 2 * i - 2: -1}), 2 * i),
                                    (LaurentPoly({1: 1}), 2), (LaurentPoly({0: 1}), i)]))
    divisor = RatFunc(q_power(m).num - 1)
    entries = st.tuples(_kentry, st.booleans()).map(
        lambda t: t[0] * divisor + (q_power(7) if t[1] else 0))
    n = draw(st.integers(1, 3))
    return Matrix([[draw(entries) for _ in range(n)] for _ in range(n)]), lift, m


@settings(max_examples=100, deadline=None)
@given(_ratio_case())
def test_ring_division_by_q_power_minus_one_matches_ratfunc(case):
    mat, lift, m = case
    want = mat.scalar_mul(RatFunc(lift, q_power(m).num - 1))
    got = _ring(mat).times_ratio(lift, m)
    assert got == want and got.to_strings() == want.to_strings()
    assert got.ring == all(x.is_polynomial() for row in want.rows for x in row)
    if lift == LaurentPoly({1: 1}):  # the fold's scalar q/(q^2 - 1), by scalar_mul
        assert _ring(mat) * CQ == mat * CQ


@st.composite
def _unit_triangular(draw):
    # bidiagonal (as y and z) or diagonal (as D), diagonal entries +-q^m
    n, shape = draw(st.integers(1, 6)), draw(st.sampled_from(["lower", "upper", "diagonal"]))
    rows = [[RF_ZERO] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = q_power(draw(st.integers(-5, 5))) * draw(st.sampled_from([1, -1]))
        if i and shape != "diagonal":
            j = (i, i - 1) if shape == "lower" else (i - 1, i)
            rows[j[0]][j[1]] = draw(_kentry)
    return Matrix(rows)


@settings(max_examples=100, deadline=None)
@given(_unit_triangular())
def test_ring_inverse_of_unit_triangular_matches_gauss_jordan(mat):
    # elimination on the ring matrix divides only by units, so it stays in
    # the ring; Gauss-Jordan over Q(q) is the reference
    got = _ring(mat).inverse()
    _assert_ring_matches(got, mat.inverse())
    _assert_ring_matches(_ring(mat) * got, Matrix.identity(mat.nrows))


def test_ring_inverse_leaves_the_ring_only_for_a_non_unit_pivot():
    mat = Matrix([[q_power(1) + 1, RF_ZERO], [q_power(2), RF_ONE]])
    got = _ring(mat).inverse()
    assert not got.ring and got == mat.inverse()
    with pytest.raises(ZeroDivisionError, match="singular"):
        _ring(Matrix([[RF_ZERO, RF_ONE], [RF_ZERO, q_power(1)]])).inverse()


def test_packed_product_leaves_other_matrices_to_the_loop():
    y = build_equitable(ModuleSpec.single(2, 1)).action["y"]
    frac = Matrix([[Fraction(1, 2), Fraction(3), Fraction(0)],
                   [Fraction(0), Fraction(-5, 7), Fraction(1)],
                   [Fraction(2), Fraction(0), Fraction(0)]])
    rational = Matrix([[CQ, RF_ONE, RF_ZERO], [q_power(2), RF_ZERO, RF_ONE],
                       [RF_ZERO, RF_ZERO, CQ * CQ]])
    half_coeff = Matrix([[RatFunc(LaurentPoly({0: 1, 1: 6}), 2)
                          if i == j else RF_ZERO for j in range(3)] for i in range(3)])
    for m in (frac, rational, half_coeff):
        assert not ScalarContext().matrix(m).ring  # they stay out of the ring
    for a, b in ((frac, frac), (rational, y), (y, rational), (half_coeff, y),
                 (y, half_coeff)):
        assert (a * b).rows == _schoolbook(a, b)
        if b is not frac:  # a ring factor meets a RatFunc one entry by entry
            got = ScalarContext().matrix(a) * ScalarContext().matrix(b)
            assert not got.ring and got.rows == _schoolbook(a, b)
    # an all-zero ring product packs nothing
    zero = Matrix([[RF_ZERO] * 3] * 3)
    assert (_ring(zero) * _ring(y)).rows == [[LaurentPoly()] * 3] * 3


def test_matrix_witness_names_first_difference():
    y = build_equitable(ModuleSpec.single(2, 1)).action["y"]
    assert matrix_witness(y, y) is None
    broken = Matrix(y.rows)
    broken.rows[2][1] = broken.rows[2][1] + RF_ONE
    assert matrix_witness(y, broken) == (
        "first difference at (2, 1): lhs -q^2 + q^-2, rhs -q^2 + 1 + q^-2")
    assert matrix_witness(y, Matrix([[RF_ONE]])) == "shapes 3x3 and 1x1 differ"


def test_basis_change_witness_on_a_broken_identity(monkeypatch):
    spec = ModuleSpec.single(2, -1)
    real = repmod.build_equitable

    def broken(s):
        rep = real(s)
        z = Matrix(rep.action["z"].rows)
        z.rows[0][1] = z.rows[0][1] + q_power(3)
        rep.action["z"] = z
        return rep

    monkeypatch.setattr(repmod, "build_equitable", broken)
    report = verify_basis_change(spec)
    assert [e.status for e in report.entries] == ["pass", "pass", "pass", "fail"]
    assert [e.witness for e in report.entries[:3]] == [None] * 3
    want = real(spec).action["z"].rows[0][1]
    assert report.entries[3].witness == (
        "first difference at (0, 1): lhs %s, rhs %s" % (want, want + q_power(3)))


def test_diagonal_inverse_matches_gauss_jordan():
    # D^-1 takes the reciprocals of D's diagonal; elimination is the reference
    specs = [ModuleSpec.single(n, eps) for n in range(7) for eps in (1, -1)]
    specs += [ModuleSpec(((1, 1), (2, -1))), ModuleSpec(((0, -1), (3, 1)))]
    for spec in specs:
        sym = _ModuleEnv(build_equitable(spec))
        for q0 in [None] + spot_points(2):
            D = ScalarContext(q0).matrix(change_of_basis(spec))
            assert sym.at(q0)["D^-1"] == D.inverse()


def test_broken_chevalley_fails_both_bases_rows(monkeypatch):
    # the Chevalley rows and the basis-change rows read the same e in the env
    spec = ModuleSpec.single(2, -1)
    real = repmod.build_chevalley

    def broken(s):
        rep = real(s)
        e = Matrix(rep.action["e"].rows)
        e.rows[0][1] = e.rows[0][1] + q_power(3)
        rep.action["e"] = e
        return rep

    monkeypatch.setattr(repmod, "build_chevalley", broken)
    report = cli._module_task(_ModuleEnv(build_equitable(spec)))
    failed = {e.identity: e.witness for e in report.entries if e.status == "fail"}
    assert failed == {
        "module:chevalley:e*f-f*e=(k-k^-1)/(q-q^-1)":
            "first difference at (0, 0): lhs q^3 - q - q^-1, rhs -q - q^-1",
        "module:basis-change:z":
            "first difference at (0, 1): lhs q^4 - 2*q^2 + q^-2, rhs -q^2 + q^-2",
    }
    assert len(report.entries) == 20


def test_envs_are_freed_without_the_cycle_collector():
    # an env that referenced itself would hold its matrices until a gc pass
    gc.disable()
    try:
        sym = _ModuleEnv(build_equitable(ModuleSpec.single(3, 1)))
        point = sym.at(Fraction(5, 3))
        assert point["x*y"] is not None and sym["x*y"] is not None
        refs = [weakref.ref(sym), weakref.ref(point)]
        del sym, point
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()
