"""Tests for exact Q(q) arithmetic: frozen values, oracles, properties."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqsl2.qfield import (
    LaurentPoly,
    RF_ONE,
    RF_ZERO,
    PoleError,
    RatFunc,
    SpecializationError,
    check_admissible,
    q_power,
    qbinom,
    qfact,
    qint,
    specialize,
)
from uqsl2.qfield import (_ONE_P, _ZERO_P, _dense, _dense_divmod, _dense_gcd,
                          _from_dense)

Q = q_power(1)
QINV = q_power(-1)
QMQI = Q - QINV  # q - q^-1


def test_qint_frozen_values():
    assert qint(0).is_zero()
    assert qint(1) == 1
    assert str(qint(2)) == "q + q^-1"
    assert str(qint(3)) == "q^2 + 1 + q^-2"
    assert str(qint(-3)) == "-q^2 - 1 - q^-2"


def test_qint_matches_division_oracle():
    # [n] must equal the exact quotient (q^n - q^-n)/(q - q^-1)
    for n in range(-8, 9):
        quotient = RatFunc(q_power(n).num - q_power(-n).num, QMQI.num)
        assert quotient.is_polynomial()
        assert quotient.num == qint(n)


def test_qint_product_identity():
    for n in range(-20, 21):
        lhs = RatFunc(qint(n)) * QMQI
        assert lhs == q_power(n) - q_power(-n)


def test_qfact_frozen_values():
    assert qfact(0) == 1
    assert qfact(1) == 1
    assert str(qfact(2)) == "q + q^-1"
    assert str(qfact(3)) == "q^3 + 2*q + 2*q^-1 + q^-3"


def test_qfact_matches_product_oracle():
    prod = LaurentPoly.const(1)
    for j in range(1, 9):
        prod = prod * qint(j)
        assert qfact(j) == prod


def test_qbinom_frozen_values():
    assert qbinom(0, 0) == 1
    assert qbinom(4, 0) == 1
    assert qbinom(4, 4) == 1
    assert str(qbinom(4, 2)) == "q^4 + q^2 + 2 + q^-2 + q^-4"
    assert qbinom(5, 2) == qbinom(5, 3)  # symmetry


def test_qbinom_matches_pascal_oracle():
    # independent construction through both q-Pascal recurrences
    up = {(0, 0): LaurentPoly.const(1)}
    down = {(0, 0): LaurentPoly.const(1)}
    zero = LaurentPoly()
    for n in range(1, 13):
        for i in range(n + 1):
            a = up.get((n - 1, i), zero)
            b = up.get((n - 1, i - 1), zero)
            up[(n, i)] = a.shift(i) + b.shift(i - n)
            a = down.get((n - 1, i), zero)
            b = down.get((n - 1, i - 1), zero)
            down[(n, i)] = a.shift(-i) + b.shift(n - i)
    for (n, i), v in up.items():
        assert qbinom(n, i) == v
        assert qbinom(n, i) == down[(n, i)]
    # a cold cache queried from the middle row down, so [n, m] recurses
    # through every [n, m-1] before any of them is cached
    qbinom.cache_clear()
    for (n, i), v in sorted(up.items(),
                            key=lambda kv: (kv[0][0], -min(kv[0][1], kv[0][0] - kv[0][1]))):
        assert qbinom(n, i) == v


def _factorial_qbinom(n, i):
    # reference for qbinom's recurrence: [n]! / ([i]! [n-i]!) as one exact division
    f = RatFunc(qfact(n), qfact(i) * qfact(n - i))
    assert f.is_polynomial()
    return f.num


def test_qbinom_matches_factorial_formula():
    for n in range(15):
        for i in range(n + 1):
            assert qbinom(n, i) == _factorial_qbinom(n, i)
    # large n with small i never forms [n]!
    assert qbinom(1000, 1) == qint(1000)
    assert qbinom(1000, 999) == qint(1000)
    assert qbinom(1000, 0) == 1


def test_qbinom_rejects_bad_arguments():
    with pytest.raises(ValueError):
        qbinom(2, 3)
    with pytest.raises(ValueError):
        qbinom(2, -1)
    with pytest.raises(ValueError):
        qfact(-1)
    with pytest.raises(TypeError):
        qint("2")
    # the caches must not answer for an equal non-int key such as (4, 2.0)
    qbinom(4, 2)
    with pytest.raises(ValueError):
        qbinom(4, 2.0)
    qint(2)
    with pytest.raises(TypeError):
        qint(2.0)


def test_inverse_canonical_form():
    inv = QMQI.inverse()
    assert str(inv) == "(q)/(q^2 - 1)"
    assert inv * QMQI == 1
    assert str((Q + QINV).inverse()) == "(q)/(q^2 + 1)"


def test_ratfunc_reduction():
    # common factors cancel and denominators are q-shifted to constant term != 0
    f = RatFunc((Q * Q - 1).num, (Q - 1).num)
    assert f.is_polynomial()
    assert str(f) == "q + 1"
    g = RatFunc(LaurentPoly({3: 1}), LaurentPoly({1: 2}))
    assert str(g) == "1/2*q^2"
    h = RatFunc(QMQI.num, (Q * Q - 1).num)
    assert str(h) == "q^-1"


def test_rendering_frozen_strings():
    assert str(QMQI * QMQI) == "q^2 - 2 + q^-2"
    assert str((Q + QINV) * QMQI) == "q^2 - q^-2"
    assert str(RatFunc(Fraction(1, 2)) * Q) == "1/2*q"
    assert str(RatFunc(0)) == "0"
    assert str(-RatFunc(3)) == "-3"
    assert str(q_power(-1)) == "q^-1"
    assert str(q_power(0)) == "1"


def test_specialize_frozen_values():
    assert specialize(qint(2), 2) == Fraction(5, 2)
    assert specialize(RatFunc(qint(3)), Fraction(1, 2)) == Fraction(21, 4)
    assert specialize(QMQI.inverse(), 2) == Fraction(2, 3)


def test_specialize_rejects_inadmissible_points():
    for bad in (0, 1, -1):
        with pytest.raises(SpecializationError):
            specialize(qint(2), bad)
        with pytest.raises(SpecializationError):
            check_admissible(bad)
    assert check_admissible(Fraction(-7, 3)) == Fraction(-7, 3)


def test_specialize_raises_on_pole():
    f = RatFunc(1, Q.num - LaurentPoly.const(2))
    with pytest.raises(PoleError):
        f.evaluate(2)
    assert f.evaluate(3) == 1


def test_zero_inverse_raises():
    with pytest.raises(ZeroDivisionError):
        RatFunc(0).inverse()
    with pytest.raises(ZeroDivisionError):
        RatFunc(1, 0)


_coeffs = st.integers(-5, 5)
_exps = st.integers(-4, 4)


def _polys():
    return st.dictionaries(_exps, _coeffs, max_size=4).map(LaurentPoly)


def _ratfuncs():
    return st.tuples(_polys(), _polys().filter(lambda p: not p.is_zero())).map(
        lambda t: RatFunc(t[0], t[1]))


_POINTS = [Fraction(2), Fraction(1, 2), Fraction(-3), Fraction(5, 7), Fraction(-13, 4)]


@settings(max_examples=60, deadline=None)
@given(_ratfuncs(), _ratfuncs())
def test_specialize_is_a_homomorphism(f, g):
    for q0 in (Fraction(2), Fraction(-5, 3)):
        try:
            fv, gv = f.evaluate(q0), g.evaluate(q0)
        except PoleError:
            continue
        assert (f + g).evaluate(q0) == fv + gv
        assert (f * g).evaluate(q0) == fv * gv
        assert (f - g).evaluate(q0) == fv - gv


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.integers(-30, 30), _coeffs | st.fractions(max_denominator=9)).map(
    LaurentPoly))
def test_laurent_evaluate_is_the_sum_of_its_terms(p):
    for q0 in [3, Fraction(-1, 3), *_POINTS]:
        value = p.evaluate(q0)
        assert type(value) is Fraction
        assert value == sum((c * Fraction(q0) ** e for e, c in p.terms.items()), Fraction(0))


@settings(max_examples=60, deadline=None)
@given(_ratfuncs(), _ratfuncs())
def test_canonical_equality_agrees_with_specialization(f, g):
    try:
        same_at_points = all(f.evaluate(p) == g.evaluate(p) for p in _POINTS)
    except PoleError:
        return
    assert (f == g) == same_at_points


@settings(max_examples=60, deadline=None)
@given(_ratfuncs())
def test_field_axioms_hold(f):
    assert (f - f).is_zero()
    assert f + RatFunc(0) == f
    assert f * RatFunc(1) == f
    if not f.is_zero():
        assert f * f.inverse() == RatFunc(1)
        assert (f ** -2) * (f ** 2) == RatFunc(1)


@settings(max_examples=60, deadline=None)
@given(_ratfuncs())
def test_string_rendering_is_injective_on_samples(f):
    # canonical form: equal strings iff equal values
    g = f + RatFunc(1)
    assert str(f) != str(g)
    assert str(RatFunc(f.num, f.den)) == str(f)  # canonicalization is idempotent


def test_constants_hash_like_their_values():
    # equal objects must hash equal, so sets and dict keys merge them
    for c in (0, 1, -3, Fraction(2, 5)):
        poly, frac = LaurentPoly.const(c), RatFunc(c)
        assert poly == c and frac == c and frac == poly
        assert hash(poly) == hash(frac) == hash(c)
        assert len({poly, frac, c}) == 1
    assert len({RF_ONE, 1}) == 1
    assert hash(RatFunc(QMQI.num)) == hash(QMQI.num)


@settings(max_examples=60, deadline=None)
@given(_ratfuncs())
def test_polynomials_hash_like_their_numerators(f):
    if f.is_polynomial():
        assert f == f.num and hash(f) == hash(f.num)


# Operands for the product and reduce checks: 0, 1, +-c*q^m with Fraction c,
# and quotients whose numerator and denominator carry the shared factors
# (q^2 - 1)^i and [n], so that products have cross factors to cancel.

_fracs = st.one_of(st.integers(-5, 5),
                   st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)))


def _frac_polys(nonzero=False):
    polys = st.dictionaries(_exps, _fracs, max_size=4).map(LaurentPoly)
    return polys.filter(lambda p: not p.is_zero()) if nonzero else polys


_shared = st.builds(lambda i, n: (Q * Q - 1).num ** i * qint(n),
                    st.integers(0, 3), st.integers(1, 4))


def _shared_quotients():
    return st.builds(lambda p, fp, r, fr: RatFunc(p * fp, r * fr),
                     _frac_polys(), _shared, _frac_polys(nonzero=True), _shared)


def _operands():
    monomials = st.builds(lambda c, m: RatFunc(LaurentPoly({m: c})),
                          _fracs.filter(bool), _exps)
    return st.one_of(st.sampled_from([RF_ZERO, RF_ONE]), monomials,
                     _shared_quotients())


def _typed(f):
    # structure down to the int/Fraction type of every coefficient
    return tuple(tuple((e, type(c), c) for e, c in sorted(p.terms.items()))
                 for p in (f.num, f.den))


def _reference_reduce(num, den):
    # the former canonicalization, with its own gcd and divisions: the slow
    # path that RatFunc(num, den), inverse() and + are checked against
    if num.is_zero():
        return RatFunc._raw(_ZERO_P, _ONE_P)
    vd = den.valuation()
    if vd:
        den = den.shift(-vd)
        num = num.shift(-vd)
    if den.degree() == 0:
        c = den.terms[0]
        if c != 1:
            num = num * (Fraction(1, 1) / c)
        return RatFunc._raw(num, _ONE_P)
    vn = num.valuation()
    numpoly = num.shift(-vn) if vn else num
    g = _dense_gcd(_dense(numpoly), _dense(den))
    if len(g) > 1:
        qn, rn = _dense_divmod(_dense(numpoly), g)
        qd, rd = _dense_divmod(_dense(den), g)
        assert not rn and not rd
        numpoly = _from_dense(qn)
        den = _from_dense(qd)
        if den.degree() == 0:
            c = den.terms[0]
            if c != 1:
                numpoly = numpoly * (Fraction(1, 1) / c)
            return RatFunc._raw(numpoly.shift(vn), _ONE_P)
    lc = den.leading_coeff()
    if lc != 1:
        inv = Fraction(1, 1) / lc
        den = den * inv
        numpoly = numpoly * inv
    return RatFunc._raw(numpoly.shift(vn), den)


def _num_den_pairs():
    # (num, den) before canonicalization: Fraction coefficients, non-monic
    # denominators of any valuation with shared factors, a constant non-1
    # denominator, a zero numerator, and a denominator dividing the numerator
    nonzero = _frac_polys(nonzero=True)
    return st.one_of(
        st.tuples(st.builds(lambda p, fp: p * fp, _frac_polys(), _shared),
                  st.builds(lambda r, fr: r * fr, nonzero, _shared)),
        st.tuples(_frac_polys(), _fracs.filter(lambda c: c not in (0, 1)).map(
            LaurentPoly.const)),
        st.tuples(st.just(LaurentPoly()), nonzero),
        st.builds(lambda p, r, fr: (p * r * fr, r * fr), nonzero, nonzero, _shared))


@settings(max_examples=300, deadline=None)
@given(_num_den_pairs(), _num_den_pairs())
def test_reduce_matches_reference(x, y):
    f, g = RatFunc(*x), RatFunc(*y)
    assert _typed(f) == _typed(_reference_reduce(*x))
    assert _typed(g) == _typed(_reference_reduce(*y))
    if f:
        assert _typed(f.inverse()) == _typed(_reference_reduce(f.den, f.num))
    assert _typed(f + g) == _typed(
        _reference_reduce(f.num * g.den + g.num * f.den, f.den * g.den))


@settings(max_examples=300, deadline=None)
@given(_operands(), _operands())
def test_product_matches_reduce(x, y):
    # the gcd-free product is the canonical form the reference gives
    expected = _typed(_reference_reduce(x.num * y.num, x.den * y.den))
    assert _typed(x * y) == expected
    assert _typed(y * x) == expected


def test_product_cancels_cross_factors():
    q2m1 = (Q * Q - 1).num
    x = RatFunc(qint(3) * q2m1, LaurentPoly({0: 1, 1: 1, 2: 1}))
    y = RatFunc(LaurentPoly({0: 1, 1: 1, 2: 1}), q2m1 ** 2)
    assert _typed(x * y) == _typed(_reference_reduce(x.num * y.num, x.den * y.den))
    assert str(x * y) == "(q^2 + 1 + q^-2)/(q^2 - 1)"  # both cross factors cancel


def test_reduce_matches_sympy_cancel():
    sympy = pytest.importorskip("sympy")
    q = sympy.Symbol("q")

    def expr(p):
        return sympy.Add(*(sympy.Rational(str(c)) * q ** e for e, c in p.terms.items()))

    @settings(max_examples=80, deadline=None)
    @given(_frac_polys(), _shared, _frac_polys(nonzero=True), _shared)
    def check(p, fp, r, fr):
        num, den = p * fp, r * fr
        top, bottom = sympy.fraction(sympy.cancel(expr(num) / expr(den)))
        top, bottom = sympy.Poly(top, q), sympy.Poly(bottom, q)
        # bring sympy's answer to the canonical form: the q-power of the
        # denominator moves into the numerator, and the denominator is monic
        shift = min(m[0] for m in bottom.monoms())
        lc = bottom.LC()
        want_den = {m[0] - shift: Fraction(str(c / lc)) for m, c in bottom.terms()}
        want_num = {m[0] - shift: Fraction(str(c / lc)) for m, c in top.terms()
                    if c}
        f = RatFunc(num, den)
        assert f.den.terms == want_den
        assert f.num.terms == want_num

    check()
