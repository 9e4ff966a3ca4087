"""The arithmetic of Q(q) over rational coefficients with the dense Euclid
over Q, kept as the differential reference of uqsl2.qfield's arithmetic
over Z (tests/test_qfield.py).

LaurentPoly here is a dict {exponent: coefficient} with int or Fraction
coefficients; a RatFunc is num/den with den monic, of nonzero constant
term, and coprime to num's polynomial part, its gcd found by _dense_gcd
(Euclid over Q) or, for den = (q - 1)^a (q + 1)^b, by synthetic division.
The code below the imports is the former uqsl2.qfield, unchanged, except
that PoleError is uqsl2.qfield's, so both raise one class; it ends with
_reference_reduce, the canonicalization with its own gcd and divisions.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import add

from uqsl2.qfield import PoleError

def _coeff(c):
    # normalize a coefficient to int when integral, Fraction otherwise
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise TypeError("coefficient must be int or Fraction, got %r" % (c,))


def _coeff_str(c):
    if isinstance(c, Fraction):
        return "%d/%d" % (c.numerator, c.denominator)
    return str(c)


class LaurentPoly:
    """Laurent polynomial in q over the rationals."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        t = {}
        if terms:
            for e, c in terms.items():
                c = _coeff(c)
                if c:
                    t[e] = c
        self.terms = t

    @classmethod
    def _raw(cls, terms):
        # terms already normalized: no zeros, coeffs int|Fraction
        p = cls.__new__(cls)
        p.terms = terms
        return p

    @classmethod
    def const(cls, c):
        c = _coeff(c)
        return cls._raw({0: c} if c else {})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, LaurentPoly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            c = _coeff(other)
            return self.terms == ({0: c} if c else {})
        return NotImplemented

    def __hash__(self):
        # a constant equals its coefficient, so it must hash like it
        t = self.terms
        if not t:
            return hash(0)
        if len(t) == 1 and 0 in t:
            return hash(t[0])
        return hash(frozenset(t.items()))

    def __neg__(self):
        return LaurentPoly._raw({e: -c for e, c in self.terms.items()})

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        res = dict(a)
        for e, c in b.items():
            s = res.get(e, 0) + c
            if s:
                res[e] = _coeff(s)
            else:
                res.pop(e, None)
        return LaurentPoly._raw(res)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _coeff(other)
            if not c:
                return LaurentPoly._raw({})
            return LaurentPoly._raw({e: _coeff(c0 * c) for e, c0 in self.terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        res = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                s = res.get(e, 0) + c1 * c2
                if s:
                    res[e] = s
                else:
                    res.pop(e, None)
        for e in list(res):
            res[e] = _coeff(res[e])
        return LaurentPoly._raw(res)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("LaurentPoly power wants a nonnegative integer")
        result = LaurentPoly._raw({0: 1})
        for _ in range(n):
            result = result * self
        return result

    def shift(self, d):
        """Multiply by q^d."""
        return LaurentPoly._raw({e + d: c for e, c in self.terms.items()})

    def valuation(self):
        # lowest exponent; undefined on zero
        return min(self.terms)

    def degree(self):
        return max(self.terms)

    def leading_coeff(self):
        return self.terms[max(self.terms)]

    def evaluate(self, q0):
        # with q0 = p/r, the sum of c p^e r^-e is (sum of c p^(e-lo) r^(hi-e))
        # p^lo / r^hi: one integer sum (for integer c), reduced once; q = 0
        # is a pole when lo < 0
        p, r = Fraction(q0).as_integer_ratio()
        lo, hi = min(self.terms, default=0), max(self.terms, default=0)
        if not p and lo < 0:
            raise PoleError("q^%d has a pole at q = 0" % lo)
        total = sum(c * p ** (e - lo) * r ** (hi - e) for e, c in self.terms.items())
        return Fraction(total * p ** max(lo, 0) * r ** max(-hi, 0),
                        r ** max(hi, 0) * p ** max(-lo, 0))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            neg = c < 0
            a = -c if neg else c
            if e == 0:
                body = _coeff_str(a)
            else:
                qp = "q" if e == 1 else "q^%d" % e
                body = qp if a == 1 else "%s*%s" % (_coeff_str(a), qp)
            if not parts:
                parts.append("-" + body if neg else body)
            else:
                parts.append((" - " if neg else " + ") + body)
        return "".join(parts)

    def __repr__(self):
        return "LaurentPoly(%s)" % self


# dense polynomial helpers (index = exponent, trailing zeros stripped)

def _dense(p):
    # p: LaurentPoly with valuation >= 0
    d = [0] * (p.degree() + 1)
    for e, c in p.terms.items():
        d[e] = c
    return d


def _strip(a):
    while a and not a[-1]:
        a.pop()
    return a


def _dense_divmod(a, b):
    # exact rational division; b nonzero
    a = list(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    lb = b[-1]
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1]
        if not c:
            continue
        c = c if lb == 1 else Fraction(c, 1) / lb
        q[i] = c
        for j, bj in enumerate(b):
            a[i + j] -= c * bj
    return q, _strip(a)

def _dense_gcd(a, b):
    # monic gcd over the rationals
    a, b = _strip(list(a)), _strip(list(b))
    while b:
        _, r = _dense_divmod(a, b)
        a, b = b, r
    lc = a[-1]
    if lc != 1:
        a = [Fraction(c, 1) / lc for c in a]
    return a


def _from_dense(d):
    return LaurentPoly({e: c for e, c in enumerate(d)})


class RatFunc:
    """Element of Q(q) in canonical num/den form."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        num = _as_poly(num)
        den = _as_poly(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in RatFunc")
        f = _reduce(num, den)
        self.num, self.den = f.num, f.den

    @classmethod
    def _raw(cls, num, den):
        f = cls.__new__(cls)
        f.num = num
        f.den = den
        return f

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num)

    def is_polynomial(self):
        return self.den == _ONE_P

    def __eq__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # a polynomial equals its numerator, so it must hash like it
        if self.den == _ONE_P:
            return hash(self.num)
        return hash((self.num, self.den))

    def __neg__(self):
        return RatFunc._raw(-self.num, self.den)

    def __add__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == _ONE_P and other.den == _ONE_P:
            return RatFunc._raw(self.num + other.num, _ONE_P)
        if self.den == other.den:
            return _reduce(self.num + other.num, self.den)
        return _reduce(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        # canonical without _reduce; the module docstring says why each
        # branch is exact (a canonical denominator with one term is 1)
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, d = self.num, self.den, other.num, other.den
        if not a.terms or not c.terms:
            return RF_ZERO
        if len(a.terms) == 1 and len(b.terms) == 1:
            return _monomial_times(a, other)
        if len(c.terms) == 1 and len(d.terms) == 1:
            return _monomial_times(c, self)
        if len(b.terms) == 1 and len(d.terms) == 1:
            return RatFunc._raw(a * c, _ONE_P)
        a, d = _cancel(a, d)
        c, b = _cancel(c, b)
        if len(b.terms) == 1:
            den = d
        elif len(d.terms) == 1:
            den = b
        else:
            den = b * d
        return RatFunc._raw(a * c, den)

    __rmul__ = __mul__

    def inverse(self):
        if self.num.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(q)")
        return _reduce(self.den, self.num)

    def __truediv__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n):
        if not isinstance(n, int):
            raise ValueError("RatFunc power wants an integer")
        base = self if n >= 0 else self.inverse()
        result = RatFunc._raw(_ONE_P, _ONE_P)
        for _ in range(abs(n)):
            result = result * base
        return result

    def leading_negative(self):
        # sign of the highest-exponent numerator coefficient (den is monic)
        if self.num.is_zero():
            return False
        return self.num.leading_coeff() < 0

    def is_single_term(self):
        return self.den == _ONE_P and len(self.num.terms) == 1

    def as_sign_q_power(self):
        """Decompose as (sign, m) when the value is +-q^m, else None."""
        if self.den != _ONE_P or len(self.num.terms) != 1:
            return None
        (e, c), = self.num.terms.items()
        if c == 1:
            return (1, e)
        if c == -1:
            return (-1, e)
        return None

    def evaluate(self, q0):
        q0 = Fraction(q0)
        d = self.den.evaluate(q0)
        if d == 0:
            raise PoleError("denominator vanishes at q = %s" % q0)
        return self.num.evaluate(q0) / d

    def __str__(self):
        if self.den == _ONE_P:
            return str(self.num)
        return "(%s)/(%s)" % (self.num, self.den)

    def __repr__(self):
        return "RatFunc(%s)" % self


_ZERO_P = LaurentPoly._raw({})
_ONE_P = LaurentPoly._raw({0: 1})


def _as_poly(v):
    if isinstance(v, LaurentPoly):
        return v
    if isinstance(v, (int, Fraction)):
        return LaurentPoly.const(v)
    raise TypeError("cannot coerce %r to LaurentPoly" % (v,))


def _as_ratfunc(v):
    if isinstance(v, RatFunc):
        return v
    if isinstance(v, LaurentPoly):
        return RatFunc._raw(v, _ONE_P)
    if isinstance(v, (int, Fraction)):
        return RatFunc._raw(LaurentPoly.const(v), _ONE_P)
    return NotImplemented


def _reduce(num, den):
    # canonicalize num/den: shift den to valuation 0 and scale it monic,
    # then cancel the gcd of num's polynomial part and den
    if num.is_zero():
        return RF_ZERO
    vd = den.valuation()
    if vd:
        den = den.shift(-vd)
        num = num.shift(-vd)
    lc = den.leading_coeff()
    if lc != 1:
        inv = Fraction(1, 1) / lc
        den = den * inv
        num = num * inv
    return RatFunc._raw(*_cancel(num, den))


def _monomial_times(mono, f):
    # (c*q^m) * f for the one-term LaurentPoly mono = c*q^m
    (m, c), = mono.terms.items()
    num = f.num if c == 1 else f.num * c
    return RatFunc._raw(num.shift(m) if m else num, f.den)


def _cancel(num, den):
    # divide num's polynomial part and den, a monic polynomial with nonzero
    # constant term (so den = 1 if it has one term), by their monic gcd
    if len(den.terms) == 1:
        return num, den
    ab = _pm1_exponents(frozenset(den.terms.items()))
    if ab is not None:
        return _cancel_pm1(num, den, *ab)
    v = num.valuation()
    n, d = _dense(num.shift(-v)), _dense(den)
    quo, rem = _dense_divmod(n, d)
    if not rem:
        return _from_dense(quo).shift(v), _ONE_P
    # the first Euclid step is done: gcd(n, d) = gcd(d, n mod d)
    g = _dense_gcd(d, rem)
    if len(g) == 1:
        return num, den
    return (_from_dense(_dense_divmod(n, g)[0]).shift(v),
            _from_dense(_dense_divmod(d, g)[0]))


def _quo_linear(c, r):
    # Horner: the quotient of sum c[k] q^k by q - r, r = +-1, dense low to
    # high; the remainder c(r) is dropped, so r must be a root
    qc = list(accumulate(c[:0:-1], add if r == 1 else lambda acc, ck: ck - acc))
    qc.reverse()
    return qc


def _strip_pm1(c, a, b):
    # divide sum c[k] q^k (nonzero) by (q - 1)^i (q + 1)^j, i <= a and
    # j <= b each as large as it goes: a coefficient sum tests the root 1,
    # an alternating sum the root -1, and i and j can differ
    i = j = 0
    while i < a and not sum(c):
        c, i = _quo_linear(c, 1), i + 1
    while j < b and not sum(c[::2]) - sum(c[1::2]):
        c, j = _quo_linear(c, -1), j + 1
    return c, i, j


@lru_cache(maxsize=1024)
def _pm1_exponents(terms):
    # (a, b) when the polynomial with these terms is (q - 1)^a (q + 1)^b,
    # else None; read once per distinct denominator
    d = _dense(LaurentPoly._raw(dict(terms)))
    d, a, b = _strip_pm1(d, len(d), len(d))
    return (a, b) if d == [1] else None


@lru_cache(maxsize=1024)
def _pm1_power(a, b):
    return LaurentPoly._raw({0: -1, 1: 1}) ** a * LaurentPoly._raw({0: 1, 1: 1}) ** b


def _cancel_pm1(num, den, a, b):
    # _cancel for den = (q - 1)^a (q + 1)^b: the monic gcd is (q - 1)^i
    # (q + 1)^j, the roots 1 and -1 of num's polynomial part taken at most
    # a and b times
    v = num.valuation()
    n, i, j = _strip_pm1(_dense(num.shift(-v)), a, b)
    if not i and not j:
        return num, den
    return LaurentPoly(dict(enumerate(n, v))), _pm1_power(a - i, b - j)


RF_ZERO = RatFunc._raw(_ZERO_P, _ONE_P)
RF_ONE = RatFunc._raw(_ONE_P, _ONE_P)
RF_Q = RatFunc._raw(LaurentPoly._raw({1: 1}), _ONE_P)



def q_power(e):
    """q^e as a RatFunc."""
    return RatFunc._raw(LaurentPoly._raw({e: 1}), _ONE_P)


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
