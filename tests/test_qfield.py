"""Tests for exact Q(q) arithmetic: frozen values, oracles, properties."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uqsl2.qfield import (
    CQ,
    LaurentPoly,
    RF_ONE,
    RF_ZERO,
    PoleError,
    RatFunc,
    SpecializationError,
    ZL_ZERO,
    ZLaurent,
    check_admissible,
    div_q_power_minus_one,
    q_power,
    qbinom,
    qfact,
    qint,
    specialize,
)
from uqsl2 import qfield
from uqsl2.qfield import (_ONE_P, _ZERO_P, _cancel, _dense, _dense_divmod, _dense_gcd,
                          _from_dense, _pm1_exponents)

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


def test_a_pole_at_zero_raises_pole_error():
    # q^-1 has a pole at q0 = 0 in every form; callers catch PoleError
    for f in (LaurentPoly({-1: 1}), RatFunc(LaurentPoly({-1: 1})),
              ZLaurent.of(LaurentPoly({-2: 3, 1: 1}))):
        with pytest.raises(PoleError):
            f.evaluate(0)
    assert ZLaurent.of(Q + 1).evaluate(0) == (Q + 1).evaluate(0) == 1
    assert LaurentPoly({}).evaluate(0) == ZL_ZERO.evaluate(0) == 0


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


# exact division of f*lift by q^m - 1: lift = q^(2i) - q^(2i-2) and m = 2i
# for the q-exponential term i <= 20, lift = q and m = 2 for CQ, lift = 1
# for any m; integer inputs with negative valuations, some multiples of
# q^m - 1 or of [i] (plus a stray term, which makes them not divide)
_int_polys = st.dictionaries(st.integers(-30, 30), st.integers(-9, 9), max_size=6).map(
    LaurentPoly)


@st.composite
def _divisions(draw):
    i, m = draw(st.integers(1, 20)), draw(st.integers(1, 40))
    lift, m = draw(st.sampled_from([(LaurentPoly({2 * i: 1, 2 * i - 2: -1}), 2 * i),
                                    (LaurentPoly({1: 1}), 2), (_ONE_P, m)]))
    a = draw(_int_polys)
    kind = draw(st.sampled_from(["multiple", "q-integer", "stray", "any"]))
    if kind != "any":
        a = a * (qint(i) if kind == "q-integer" else (q_power(m) - 1).num)
    if kind == "stray":
        a = a + LaurentPoly({draw(st.integers(-60, 60)): 1})
    return a, lift, m


@settings(max_examples=200, deadline=None)
@given(_divisions())
def test_exact_division_matches_the_ratfunc_quotient(case):
    a, lift, m = case
    expected = RatFunc(a * lift, (q_power(m) - 1).num)
    got = div_q_power_minus_one(ZLaurent.of(a), m, lift)
    assert got == (ZLaurent.of(expected) if expected.is_polynomial() else None)
    if got is not None:
        assert got.ratfunc() == expected and got * (q_power(m) - 1) == RatFunc(a * lift)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(_exps, st.fractions(max_denominator=9), min_size=1, max_size=4).map(
    LaurentPoly).filter(lambda p: any(type(c) is Fraction for c in p.terms.values())),
    st.integers(1, 40))
def test_exact_division_refuses_what_is_not_an_integer_laurent_polynomial(p, m):
    # such a value never enters the ring, so its matrix takes the RatFunc product
    divisor = q_power(m) - 1
    assert ZLaurent.of(RatFunc(p) * divisor) is None
    assert ZLaurent.of(RatFunc(1, divisor.num)) is None
    assert div_q_power_minus_one(ZL_ZERO, m, _ONE_P) == RF_ZERO


# The ring form against RatFunc, its reference: integer Laurent
# polynomials with negative valuations, coefficients past 2^64 and zero

_ring_coeffs = st.one_of(st.integers(-9, 9), st.integers(-2 ** 70, 2 ** 70))
_ring_polys = st.dictionaries(st.integers(-12, 12), _ring_coeffs, max_size=6).map(LaurentPoly)


@settings(max_examples=200, deadline=None)
@given(_ring_polys, _ring_polys, st.integers(-9, 9))
def test_ring_form_matches_ratfunc(a, b, k):
    za, zb = ZLaurent.of(a), ZLaurent.of(b)
    ra, rb = RatFunc(a), RatFunc(b)
    for got, want in ((za + zb, ra + rb), (za - zb, ra - rb), (-za, -ra), (za * zb, ra * rb),
                      (za + k, ra + k), (k - za, k - ra), (za * k, ra * k), (k * za, k * ra)):
        assert type(got) is ZLaurent and got.ratfunc() == want
        assert (got.v, got.c) == (ZLaurent.of(want).v, ZLaurent.of(want).c)  # canonical
        assert str(got) == str(want) and got.is_polynomial()
    # an operand outside the ring takes it out, to the RatFunc value
    assert za * CQ == ra * CQ and type(za * CQ) is RatFunc and za + CQ == ra + CQ
    for q0 in _POINTS:
        assert za.evaluate(q0) == ra.evaluate(q0)


@settings(max_examples=200, deadline=None)
@given(_ring_polys, _ring_polys)
def test_ring_form_keeps_the_eq_hash_contract(a, b):
    # equal entries hash alike, also against the RatFunc, LaurentPoly or int
    # they equal; the form of a value is unique
    za, zb = ZLaurent.of(a), ZLaurent.of(b)
    assert (za == zb) == (a == b) and (za != zb) == (a != b)
    if za == zb:
        assert hash(za) == hash(zb) and (za.v, za.c) == (zb.v, zb.c)
    assert za == RatFunc(a) == a and hash(za) == hash(RatFunc(a)) == hash(a)
    assert bool(za) == bool(a) and (not za.c or za.c[0] and za.c[-1])
    if len(a.terms) <= 1 and 0 in a.terms or not a.terms:
        assert za == a.terms.get(0, 0) and hash(za) == hash(a.terms.get(0, 0))


def test_ring_form_divides_by_units_only():
    x = ZLaurent.of(LaurentPoly({-1: 2, 3: -5}))
    for unit in (ZLaurent.of(q_power(4)), ZLaurent.of(-q_power(-3))):
        assert type(x / unit) is ZLaurent and x / unit * unit == x
    two = ZLaurent.of(LaurentPoly.const(2))
    assert x / two == RatFunc(LaurentPoly({-1: 2, 3: -5})) / 2 and type(x / two) is RatFunc
    assert x / (Q + 1) == RatFunc(LaurentPoly({-1: 2, 3: -5})) / (Q + 1)
    assert ZLaurent.of(Fraction(1, 2)) is None and ZLaurent.of(CQ) is None


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


_Q_M1 = LaurentPoly({0: -1, 1: 1})
_Q_P1 = LaurentPoly({0: 1, 1: 1})
# monic, nonzero constant term, and coprime to q^2 - 1
_OTHER_FACTORS = [LaurentPoly({0: 3, 2: 1}), LaurentPoly({0: 1, 1: 1, 2: 1}),
                  LaurentPoly({0: Fraction(1, 2), 3: 1})]


def _euclid_cancel(num, den):
    # _cancel by the dense Euclid over Q alone: the reference of its q -+ 1
    # branch, which must give the same canonical pair
    v = num.valuation()
    n, d = _dense(num.shift(-v)), _dense(den)
    g = _dense_gcd(n, d)
    if len(g) == 1:
        return RatFunc._raw(num, den)
    return RatFunc._raw(_from_dense(_dense_divmod(n, g)[0]).shift(v),
                        _from_dense(_dense_divmod(d, g)[0]))


@st.composite
def _cancel_cases(draw):
    # p (q - 1)^i (q + 1)^j q^v over (q - 1)^a (q + 1)^b, a + b > 0: the
    # exponents range over i = 0, 0 < i <= a and i > a (j likewise), p has
    # int or Fraction coefficients and can carry roots +-1 of its own; in
    # half the cases den takes a factor outside the branch (the fallback)
    a, b = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    if a + b == 0:
        a = 1
    i = draw(st.one_of(st.just(0), st.integers(1, a + 3)))
    j = draw(st.one_of(st.just(0), st.integers(1, b + 3)))
    p = draw(st.one_of(_frac_polys(nonzero=True), _polys().filter(bool)))
    num = p * _Q_M1 ** i * _Q_P1 ** j * q_power(draw(_exps)).num
    den = _Q_M1 ** a * _Q_P1 ** b
    if draw(st.booleans()):
        other = draw(st.sampled_from(_OTHER_FACTORS))
        num = num * other ** draw(st.integers(0, 1))
        den = den * other
    return num, den


@settings(max_examples=400, deadline=None)
@given(_cancel_cases())
@example((_Q_M1 ** 3 * _Q_P1 * LaurentPoly({-2: 2, 0: 1}), _Q_M1 ** 2 * _Q_P1 ** 4))
@example((LaurentPoly({0: Fraction(1, 3), 1: Fraction(-1, 3)}), _Q_M1 * _Q_P1 ** 2))
@example((LaurentPoly({0: 5, 3: 1}), _Q_M1 ** 3 * _Q_P1))
def test_cancel_matches_euclid(case):
    num, den = case
    assert _typed(RatFunc._raw(*_cancel(num, den))) == _typed(_euclid_cancel(num, den))


def test_cancel_reads_pm1_exponents_and_falls_back_otherwise(monkeypatch):
    q2m1 = (Q * Q - 1).num
    assert _pm1_exponents(frozenset((_Q_M1 ** 2 * _Q_P1 ** 5).terms.items())) == (2, 5)
    assert _pm1_exponents(frozenset((q2m1 * _OTHER_FACTORS[0]).terms.items())) is None
    assert _pm1_exponents(frozenset(_OTHER_FACTORS[1].terms.items())) is None
    calls = []
    real = qfield._dense_divmod
    monkeypatch.setattr(qfield, "_dense_divmod", lambda *a: calls.append(a) or real(*a))
    num = _Q_M1 ** 3 * _OTHER_FACTORS[1]
    assert _cancel(num, q2m1 ** 2) == (_OTHER_FACTORS[1] * _Q_M1, _Q_P1 ** 2)
    assert not calls
    # (q^2 - 1)(q^2 + 3) is outside the branch: the Euclid path divides
    assert _cancel(num, q2m1 * _OTHER_FACTORS[0]) == (
        _OTHER_FACTORS[1] * _Q_M1 ** 2, _Q_P1 * _OTHER_FACTORS[0])
    assert calls


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
