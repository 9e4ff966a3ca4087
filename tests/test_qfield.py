"""Tests for exact Q(q) arithmetic: frozen values, oracles, properties."""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qfield_reference as ref
from uqsl2 import qfield
from uqsl2.qfield import (
    CQ,
    LaurentPoly,
    RF_ONE,
    RF_ZERO,
    PoleError,
    RatFunc,
    SpecializationError,
    check_admissible,
    div_q_power_minus_one,
    q_power,
    qbinom,
    qfact,
    qint,
    specialize,
)
from uqsl2.qfield import _ONE_P, _cancel, _pm1_exponents

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
    prod = LaurentPoly({0: 1})
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
    up = {(0, 0): LaurentPoly({0: 1})}
    down = {(0, 0): LaurentPoly({0: 1})}
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
    f = RatFunc(1, Q.num - 2)
    with pytest.raises(PoleError):
        f.evaluate(2)
    assert f.evaluate(3) == 1


def test_a_pole_at_zero_raises_pole_error():
    # q^-1 has a pole at q0 = 0 in every form; callers catch PoleError
    for f in (LaurentPoly({-1: 1}), RatFunc(LaurentPoly({-1: 1})), LaurentPoly({-2: 3, 1: 1})):
        with pytest.raises(PoleError):
            f.evaluate(0)
    assert (Q.num + 1).evaluate(0) == (Q + 1).evaluate(0) == 1
    assert LaurentPoly({}).evaluate(0) == RF_ZERO.evaluate(0) == 0


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
@given(st.dictionaries(st.integers(-30, 30), st.integers(-2 ** 70, 2 ** 70)).map(LaurentPoly))
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
    for c in (0, 1, -3, Fraction(2, 5), Fraction(-7, 3)):
        frac = RatFunc(c)
        assert frac == c and hash(frac) == hash(c) and len({frac, c}) == 1
        if type(c) is int:
            poly = LaurentPoly({0: c})
            assert poly == c and frac == poly and poly == Fraction(c)
            assert hash(poly) == hash(frac) == hash(c)
            assert len({poly, frac, c}) == 1
        else:
            assert LaurentPoly({0: c.numerator}) != c and frac != c.numerator
    assert len({RF_ONE, 1}) == 1
    assert hash(RatFunc(QMQI.num)) == hash(QMQI.num)


@settings(max_examples=60, deadline=None)
@given(_ratfuncs())
def test_polynomials_hash_like_their_numerators(f):
    # in Z[q, q^-1] exactly when the denominator is 1; a positive integer
    # denominator keeps a polynomial over Q out of the ring
    if f.den == 1:
        assert f == f.num and hash(f) == hash(f.num) and f.is_polynomial()
    elif f.is_polynomial():
        assert f != f.num and f == RatFunc(f.num) / f.den.c[0]


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
    got = div_q_power_minus_one(a, m, lift)
    assert got == (expected.num if expected.den == 1 else None)
    if got is not None:
        assert RatFunc(got) == expected and got * (q_power(m) - 1) == RatFunc(a * lift)


@settings(max_examples=60, deadline=None)
@given(_int_polys.filter(bool), st.integers(2, 9), st.integers(1, 40))
def test_exact_division_refuses_what_is_not_an_integer_laurent_polynomial(p, d, m):
    # a quotient with a denominator other than 1 is not in the ring, so its
    # matrix takes the RatFunc product; a non-multiple of q^m - 1 does not divide
    divisor = q_power(m) - 1
    assert (RatFunc(p * d + 1, d) * divisor).den == d and RatFunc(1, divisor.num).den != 1
    assert div_q_power_minus_one(p * d + LaurentPoly({p.degree() + m + 1: 1}), m, _ONE_P) is None
    assert div_q_power_minus_one(LaurentPoly(), m, _ONE_P) == RF_ZERO


# The ring against RatFunc, its reference: integer Laurent polynomials with
# negative valuations, coefficients past 2^64 and zero

_ring_coeffs = st.one_of(st.integers(-9, 9), st.integers(-2 ** 70, 2 ** 70))
_ring_polys = st.dictionaries(st.integers(-12, 12), _ring_coeffs, max_size=6).map(LaurentPoly)


@settings(max_examples=200, deadline=None)
@given(_ring_polys, _ring_polys, st.integers(-9, 9))
def test_ring_form_matches_ratfunc(a, b, k):
    ra, rb = RatFunc(a), RatFunc(b)
    for got, want in ((a + b, ra + rb), (a - b, ra - rb), (-a, -ra), (a * b, ra * rb),
                      (a + k, ra + k), (k - a, k - ra), (a * k, ra * k), (k * a, k * ra)):
        assert type(got) is LaurentPoly and RatFunc(got) == want and want.den == 1
        assert (got.v, got.c) == (want.num.v, want.num.c)  # canonical
        assert not got.c or got.c[0] and got.c[-1]
        assert str(got) == str(want) and got.is_polynomial()
    # an operand outside the ring takes it out, to the RatFunc value
    assert a * CQ == ra * CQ and type(a * CQ) is RatFunc and a + CQ == ra + CQ
    assert a - Fraction(1, 2) == ra - Fraction(1, 2) and type(a * Fraction(1, 3)) is RatFunc
    for q0 in _POINTS:
        assert a.evaluate(q0) == ra.evaluate(q0)


@settings(max_examples=200, deadline=None)
@given(_ring_polys, _ring_polys)
def test_ring_form_keeps_the_eq_hash_contract(a, b):
    # equal entries hash alike, also against the RatFunc or int they equal;
    # the form of a value is unique
    ta, tb = dict(a.terms), dict(b.terms)
    assert (a == b) == (ta == tb) and (a != b) == (ta != tb)
    if a == b:
        assert hash(a) == hash(b) and (a.v, a.c) == (b.v, b.c)
    assert a == RatFunc(a) and hash(a) == hash(RatFunc(a))
    assert bool(a) == bool(ta) and len(a.terms) == len(ta)
    if len(ta) <= 1 and 0 in ta or not ta:
        assert a == ta.get(0, 0) and hash(a) == hash(ta.get(0, 0))
    with pytest.raises(TypeError):
        a.terms[0] = 1  # a read-only view


def test_ring_form_divides_by_units_only():
    x = LaurentPoly({-1: 2, 3: -5})
    for unit in (q_power(4).num, (-q_power(-3)).num):
        assert type(x / unit) is LaurentPoly and x / unit * unit == x
    two = LaurentPoly({0: 2})
    assert x / two == RatFunc(x) / 2 and type(x / two) is RatFunc
    assert x / (Q + 1) == RatFunc(x) / (Q + 1)
    assert (RatFunc(x) / 2).den == 2 and CQ.den != 1
    with pytest.raises(TypeError):
        LaurentPoly({0: Fraction(1, 2)})


# The arithmetic over Z against the Euclid over Q (tests/qfield_reference.py,
# the former implementation): quotients of polynomials with Fraction
# coefficients, over denominators with integer content or a leading
# coefficient other than 1 (2q + 4, 6q + 9), (q - 1)^a (q + 1)^b with a and b
# drawn apart, and factors outside the q -+ 1 branch (q^2 + 3)

_fracs = st.one_of(st.integers(-5, 5),
                   st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)))
_FACTORS = [{0: 4, 1: 2}, {0: 9, 1: 6}, {0: 3, 2: 1}, {0: 1, 1: 1, 2: 1}, {0: -1, 1: 1},
            {0: 1, 1: 1}, {0: -1, 2: 1}, {0: Fraction(1, 2), 3: 1}, {0: -3}, {0: Fraction(2, 3)},
            {1: 1}, {-2: 1}]


def _to_z(terms):
    # a dict {exponent: int or Fraction} as a RatFunc over Z: an integer
    # numerator over the least common denominator
    d = lcm(*(Fraction(c).denominator for c in terms.values()))
    return RatFunc(LaurentPoly({e: int(c * d) for e, c in terms.items()}), d)


def _ref_terms(draw, factors, nonzero):
    # a reference polynomial: Fraction terms times (q - 1)^a (q + 1)^b and factors
    p = ref.LaurentPoly(draw(st.dictionaries(_exps, _fracs, max_size=4)))
    while nonzero and p.is_zero():
        p = ref.LaurentPoly({draw(_exps): draw(_fracs.filter(bool))})
    a, b = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    p = p * ref.LaurentPoly({0: -1, 1: 1}) ** a * ref.LaurentPoly({0: 1, 1: 1}) ** b
    for f in factors:
        p = p * ref.LaurentPoly(f)
    return dict(p.terms)


@st.composite
def _quotients(draw):
    # (num, den) as term dicts; num and den share some factors
    shared = draw(st.lists(st.sampled_from(_FACTORS), max_size=2))
    num = _ref_terms(draw, shared + draw(st.lists(st.sampled_from(_FACTORS), max_size=2)), False)
    den = _ref_terms(draw, shared + draw(st.lists(st.sampled_from(_FACTORS), max_size=3)), True)
    return num, den


def _both(num, den):
    # one quotient in each implementation
    return (RatFunc(_to_z(num), _to_z(den)),
            ref.RatFunc(ref.LaurentPoly(num), ref.LaurentPoly(den)))


def _typed(f):
    # a reference quotient down to the int/Fraction type of every coefficient
    return tuple(tuple((e, type(c), c) for e, c in sorted(p.terms.items()))
                 for p in (f.num, f.den))


def _typed_z(f):
    # a quotient over Z in the reference's form: both parts over den's
    # leading coefficient, a coefficient an int where it is integral
    lc = f.den.c[-1]
    return tuple(tuple((e, type(c), c) for e, c in sorted(
        (e, ref._coeff(Fraction(c, lc))) for e, c in p.terms.items())) for p in (f.num, f.den))


_EVAL_POINTS = _POINTS + [Fraction(-2), Fraction(-3, 2), Fraction(0), Fraction(1), Fraction(-1)]


def _assert_same(got, want):
    # a quotient over Z and its reference: canonical pair, text and values
    assert type(got) is RatFunc and _typed_z(got) == _typed(want)
    assert got.den.v == 0 and got.den.c[-1] > 0 and got.den.c[0]
    assert str(got) == str(want)
    for q0 in _EVAL_POINTS:
        try:
            value = want.evaluate(q0)
        except PoleError:
            with pytest.raises(PoleError):
                got.evaluate(q0)
            continue
        assert got.evaluate(q0) == value
    if want.den == 1 and len(want.num.terms) <= 1 and not set(want.num.terms) - {0}:
        c = want.num.terms.get(0, 0)  # a constant equals, and hashes like, its number
        assert got == c and hash(got) == hash(c) and (type(c) is Fraction or got == Fraction(c))


@settings(max_examples=300, deadline=None)
@given(_quotients(), _quotients(), st.integers(-2, 3))
@example(({0: 1}, {0: 4, 1: 2}), ({0: Fraction(1, 3)}, {0: 9, 1: 6}), 2)
@example(({0: 1}, {0: 3, 2: 1}), ({0: -1, 1: 1}, {0: -1, 1: 1, 2: 1, 3: -1}), -1)
@example(({0: Fraction(3, 2)}, {0: 1}), ({0: 2}, {0: 4}), 3)
def test_arithmetic_matches_the_euclid_over_q(x, y, k):
    (f, rf), (g, rg) = _both(*x), _both(*y)
    _assert_same(f, rf)
    _assert_same(g, rg)
    for got, want in ((f + g, rf + rg), (f - g, rf - rg), (-f, -rf), (f * g, rf * rg),
                      (g * f, rg * rf), (f * 3, rf * 3), (Fraction(2, 3) - f, Fraction(2, 3) - rf)):
        _assert_same(got, want)
    if g:
        _assert_same(f / g, rf / rg)
        _assert_same(g.inverse(), rg.inverse())
    if f or k >= 0:
        _assert_same(f ** k, rf ** k)
    assert (f == g) == (rf == rg) and (f != g) == (rf != rg)
    if f == g:
        assert hash(f) == hash(g)
    assert f == f + 0 and hash(f) == hash(RatFunc(f.num, f.den))


@settings(max_examples=300, deadline=None)
@given(_quotients(), _quotients())
def test_reduce_matches_reference(x, y):
    # the constructor, inverse and + against the Euclid's canonicalization
    (f, _), (g, _) = _both(*x), _both(*y)
    rx, ry = [tuple(map(ref.LaurentPoly, t)) for t in (x, y)]
    assert _typed_z(f) == _typed(ref._reference_reduce(*rx))
    assert _typed_z(g) == _typed(ref._reference_reduce(*ry))
    rf = ref._reference_reduce(*rx)
    rg = ref._reference_reduce(*ry)
    if f:
        assert _typed_z(f.inverse()) == _typed(ref._reference_reduce(rf.den, rf.num))
    assert _typed_z(f + g) == _typed(
        ref._reference_reduce(rf.num * rg.den + rg.num * rf.den, rf.den * rg.den))


@settings(max_examples=300, deadline=None)
@given(_quotients(), _quotients())
def test_product_matches_reduce(x, y):
    # the product, with at most its two cross gcds, is the canonical form
    # the reference's reduce gives
    (f, rf), (g, rg) = _both(*x), _both(*y)
    expected = _typed(ref._reference_reduce(rf.num * rg.num, rf.den * rg.den))
    assert _typed_z(f * g) == expected
    assert _typed_z(g * f) == expected
    for mono in (q_power(3) * -2, RatFunc(Fraction(4, 3)), RatFunc(6), q_power(-1)):
        rmono = ref.RatFunc(ref.LaurentPoly(dict(mono.num.terms)), ref.LaurentPoly(
            dict(mono.den.terms)))
        assert _typed_z(mono * f) == _typed(ref._reference_reduce(
            rmono.num * rf.num, rmono.den * rf.den))


def test_product_cancels_cross_factors():
    q2m1 = (Q * Q - 1).num
    x = RatFunc(qint(3) * q2m1, LaurentPoly({0: 1, 1: 1, 2: 1}))
    y = RatFunc(LaurentPoly({0: 1, 1: 1, 2: 1}), q2m1 ** 2)
    assert str(x * y) == "(q^2 + 1 + q^-2)/(q^2 - 1)"  # both cross factors cancel
    # integer content cancels across too: 2/(2q + 4) * (q + 2)/3 = 1/3
    u = RatFunc(2, LaurentPoly({0: 4, 1: 2}))
    v = RatFunc(LaurentPoly({0: 2, 1: 1}), 3)
    assert u * v == Fraction(1, 3) and (u * v).den == 3 and str(u) == "(1)/(q + 2)"
    assert str(u * 6) == "(6)/(q + 2)" and str(RatFunc(1, LaurentPoly({0: 4, 1: 2})) * 6) == (
        "(3)/(q + 2)")


_Q_M1 = LaurentPoly({0: -1, 1: 1})
_Q_P1 = LaurentPoly({0: 1, 1: 1})
# nonzero constant term, positive leading coefficient, and coprime to
# q^2 - 1: monic, or with integer content or a leading coefficient above 1
_OTHER_FACTORS = [LaurentPoly({0: 3, 2: 1}), LaurentPoly({0: 1, 1: 1, 2: 1}),
                  LaurentPoly({0: 1, 3: 2}), LaurentPoly({0: 4, 1: 2})]


def _monic(num, den):
    # num/den with den monic over Q, as term dicts of reduced coefficients
    lc = Fraction(den.terms[max(den.terms)])
    return tuple({e: ref._coeff(Fraction(c) / lc) for e, c in p.terms.items()} for p in (num, den))


def _euclid_cancel(num, den):
    # _cancel by the dense Euclid over Q alone: the reference of both its
    # q -+ 1 branch and its gcd over Z, which must give the same canonical pair
    num, den = ref.LaurentPoly(dict(num.terms)), ref.LaurentPoly(dict(den.terms))
    v = num.valuation()
    n, d = ref._dense(num.shift(-v)), ref._dense(den)
    g = ref._dense_gcd(n, d)
    return (ref._from_dense(ref._dense_divmod(n, g)[0]).shift(v),
            ref._from_dense(ref._dense_divmod(d, g)[0]))


@st.composite
def _cancel_cases(draw):
    # p (q - 1)^i (q + 1)^j q^v over (q - 1)^a (q + 1)^b, a + b > 0: the
    # exponents range over i = 0, 0 < i <= a and i > a (j likewise), p has
    # int coefficients with content and can carry roots +-1 of its own; in
    # half the cases den takes a factor outside the branch (the gcd over Z)
    a, b = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    if a + b == 0:
        a = 1
    i = draw(st.one_of(st.just(0), st.integers(1, a + 3)))
    j = draw(st.one_of(st.just(0), st.integers(1, b + 3)))
    p = draw(_polys().filter(bool)) * draw(st.sampled_from([1, 2, 6]))
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
@example((LaurentPoly({0: 3, 1: -3}), _Q_M1 * _Q_P1 ** 2))
@example((LaurentPoly({0: 5, 3: 1}), _Q_M1 ** 3 * _Q_P1))
@example((LaurentPoly({0: 6, 1: 3}), LaurentPoly({0: 4, 1: 2}) * _Q_M1))
def test_cancel_matches_euclid(case):
    num, den = case
    got = _cancel(num, den)
    assert _monic(*got) == _monic(*_euclid_cancel(num, den))
    assert got[1].v == 0 and got[1].c[-1] > 0
    assert gcd(gcd(*got[0].c), gcd(*got[1].c)) == 1  # no common integer content
    assert RatFunc(*got) == RatFunc(num, den)


def test_cancel_reads_pm1_exponents_and_falls_back_otherwise(monkeypatch):
    q2m1 = (Q * Q - 1).num
    assert _pm1_exponents((_Q_M1 ** 2 * _Q_P1 ** 5).c) == (2, 5)
    assert _pm1_exponents((q2m1 * _OTHER_FACTORS[0]).c) is None
    assert _pm1_exponents(_OTHER_FACTORS[1].c) is None
    calls = []
    real = qfield._gcd
    monkeypatch.setattr(qfield, "_gcd", lambda *a: calls.append(a) or real(*a))
    num = _Q_M1 ** 3 * _OTHER_FACTORS[1]
    assert _cancel(num, q2m1 ** 2) == (_OTHER_FACTORS[1] * _Q_M1, _Q_P1 ** 2)
    assert not calls
    # (q^2 - 1)(q^2 + 3) is outside the branch: the gcd over Z runs
    assert _cancel(num, q2m1 * _OTHER_FACTORS[0]) == (
        _OTHER_FACTORS[1] * _Q_M1 ** 2, _Q_P1 * _OTHER_FACTORS[0])
    assert calls


def test_reduce_matches_sympy_cancel():
    sympy = pytest.importorskip("sympy")
    q = sympy.Symbol("q")

    def expr(terms):
        return sympy.Add(*(sympy.Rational(str(c)) * q ** e for e, c in terms.items()))

    @settings(max_examples=80, deadline=None)
    @given(_quotients())
    def check(case):
        num, den = case
        top, bottom = sympy.fraction(sympy.cancel(expr(num) / expr(den)))
        top, bottom = sympy.Poly(top, q), sympy.Poly(bottom, q)
        # bring sympy's answer to the canonical form: the q-power of the
        # denominator moves into the numerator, and the denominator is monic
        shift = min(m[0] for m in bottom.monoms())
        lc = bottom.LC()
        want_den = {m[0] - shift: Fraction(str(c / lc)) for m, c in bottom.terms()}
        want_num = {m[0] - shift: Fraction(str(c / lc)) for m, c in top.terms()
                    if c}
        f = _both(num, den)[0]
        got_num, got_den = _monic(f.num, f.den)
        assert got_den == want_den and got_num == want_num

    check()
