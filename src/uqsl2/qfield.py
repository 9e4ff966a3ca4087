"""Exact arithmetic over the ground field Q(q).

Elements are represented in a unique canonical form: a LaurentPoly is a
finitely supported map from integer q-exponents to rational coefficients,
and a RatFunc is a quotient num/den where den is a monic polynomial in q
with nonzero constant term and gcd(num's polynomial part, den) = 1.  With
this normalization, equality is structural comparison and the text
rendering is bit-stable.

_cancel is the only gcd routine: it divides num's polynomial part and a
monic den with nonzero constant term by their monic gcd.  When den is
(q - 1)^a (q + 1)^b, as every denominator the PBW product makes is, the
gcd is (q - 1)^i (q + 1)^j: a coefficient sum (alternating at q = -1)
tests each root, and synthetic division strips it, at most a and b times.
Any other den falls back to the dense Euclid over Q.  The constructor, +
and inverse reach _cancel through _reduce, which first shifts den to
valuation 0 and scales both parts by 1/lc.  Products need no such step,
and most no gcd either, since they read the canonical form of their
operands (Henrici's product, Knuth TAOCP vol. 2, 4.5.1):

- A zero operand gives zero over 1.
- A one-term polynomial c*q^m times a/b is (c*q^m*a)/b.  It is canonical
  because b is unchanged, c is a unit of Q, and q does not divide b (its
  constant term is nonzero), so q^m*a has the same polynomial part as a up
  to c and stays coprime to b.
- For a/b * c/d, gcd(a, b) = gcd(c, d) = 1 (polynomial parts), so the only
  factors that can cancel are g1 = gcd(a, d) and g2 = gcd(c, b).  Then
  (a/g1)(c/g2) is coprime to (b/g2)(d/g1), and that denominator is monic
  with nonzero constant term as a product of divisors of b and d.  When d
  divides a, one division finds g1 = d and no gcd runs.

ZLaurent is Z[q, q^-1], the ring of the symbolic module environment: an
integer Laurent polynomial sum c[i] q^(v+i), held as its valuation v and a
tuple c with c[0], c[-1] nonzero (zero is v = 0, c = ()), so equality reads
(v, c).  Its +, - and * stay in the ring; a RatFunc or Fraction operand
takes it out, to a RatFunc.  div_q_power_minus_one divides it by q^m - 1.

Ring matrices multiply by Kronecker substitution in ring_matmul (Harvey,
J. Symbolic Comput. 44 (2009)): evaluation at q = 2^s is a ring
homomorphism, so with A = sum c_i 2^(s i) for each entry, one s-bit slot
per exponent from its own valuation, output entry (i, j) is read off

    R = sum_k A_ik * B_kj * 2^(s(v_ik + v_kj - base)),

its value at 2^s over q^base (base: the least valuation in row i of the
left factor plus the least in column j of the right).  A coefficient of R
sums at most inner * min(n_a, n_b) products c * c' (n: the most terms of
an entry), so its size is at most max|a| * max|b| * min(n_a, n_b) * inner;
s is that bound's bit length plus a sign bit, in 2, 4, 8 or more whole
bytes, so the signed digits of R are unique.  With M the top bit of every
slot, (R + M) ^ M holds each digit in two's complement with no carries,
which to_bytes and a signed array read off; packing is (U ^ M) - M.  An
entry keeps its packed form, and a matrix its RingKernel, for the next
product, so an entry that many products read is packed once per slot
width.  Any other matrix is multiplied entry by entry in repmod.

Coefficients are Python ints where possible and fractions.Fraction
otherwise; no floating point appears anywhere.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from operator import add, eq, mul, neg, sub
from struct import Struct


class PoleError(ArithmeticError):
    """Evaluation hit a vanishing denominator."""


class SpecializationError(ValueError):
    """The requested evaluation point q0 is not admissible."""


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


class ZLaurent:
    """An integer Laurent polynomial sum c[i] q^(v+i), the entries of the
    symbolic module environment (see the module docstring)."""

    __slots__ = ("v", "c", "pk")  # pk: (w, the packed form in w-byte slots)

    def __init__(self, v, c, pk=(0, 0)):
        self.v, self.c, self.pk = v, c, pk

    @staticmethod
    def of(x):
        """x (an int, LaurentPoly, RatFunc or ZLaurent) as a ZLaurent, or None
        when it is not an integer Laurent polynomial."""
        if type(x) is ZLaurent or type(x) is int:
            return x if type(x) is ZLaurent else _zl(0, [x])
        if type(x) is RatFunc and len(x.den.terms) == 1:  # a canonical den of one term is 1
            x = x.num
        if type(x) is not LaurentPoly or any(type(a) is not int for a in x.terms.values()):
            return None
        lo, t = min(x.terms, default=0), x.terms
        return ZLaurent(lo, tuple(t.get(e, 0) for e in range(lo, max(t, default=-1) + 1)))

    def poly(self):
        return LaurentPoly._raw({e: a for e, a in enumerate(self.c, self.v) if a})

    def ratfunc(self):
        return RatFunc._raw(self.poly(), _ONE_P)

    def __bool__(self):
        return bool(self.c)

    def __eq__(self, other):
        if type(other) is ZLaurent:
            return self.c == other.c and self.v == other.v
        return self._leave(other, eq) if type(other) is not int else self.ratfunc() == other

    def __hash__(self):
        return hash(self.poly())  # it equals its LaurentPoly and RatFunc

    def __neg__(self):
        return ZLaurent(self.v, tuple(map(neg, self.c)))

    def _leave(self, other, op):
        # self op other for an operand outside the ring: a RatFunc, or
        # NotImplemented for a non-scalar
        if isinstance(other, (Fraction, LaurentPoly, RatFunc)):
            return op(self.ratfunc(), other)
        return NotImplemented

    def _sum(self, o, op):
        # self op o, op add or sub, o a ZLaurent or int, aligned at the lesser valuation
        if type(o) is not ZLaurent:
            if type(o) is not int:
                return self._leave(o, op)
            o = _zl(0, [o])
        a, b = self.c, o.c
        if not a or not b:
            return self if not b else o if op is add else -o
        v = self.v if self.v < o.v else o.v
        i, j = self.v - v, o.v - v
        res = [0] * (i + len(a) if i + len(a) > j + len(b) else j + len(b))
        res[i:i + len(a)] = a
        res[j:j + len(b)] = map(op, res[j:j + len(b)], b)
        return _zl(v, res)

    def __add__(self, other):
        return self._sum(other, add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._sum(other, sub)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if type(other) is not ZLaurent:
            if type(other) is not int:
                return self._leave(other, mul)
            other = _zl(0, [other])
        (a, b), v = sorted((self.c, other.c), key=len), self.v + other.v
        if len(a) <= 1:  # zero, or a one-term factor
            return ZLaurent(v, tuple(map(mul, b, repeat(a[0])))) if a else ZL_ZERO
        res = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            res[i:i + len(b)] = map(add, res[i:i + len(b)], map(mul, b, repeat(x)))
        return ZLaurent(v, tuple(res))

    __rmul__ = __mul__

    def __truediv__(self, other):
        # a unit +-q^m divides in the ring; any other divisor takes self out
        if type(other) is ZLaurent and other.c in ((1,), (-1,)):
            return self * ZLaurent(-other.v, other.c)
        return self.ratfunc() / (other.ratfunc() if type(other) is ZLaurent else other)

    def is_polynomial(self):
        return True

    def evaluate(self, q0):
        return self.poly().evaluate(q0)

    def __str__(self):
        return str(self.poly())

    def __repr__(self):
        return "ZLaurent(%s)" % self


def _zl(v, c):
    # sum c[i] q^(v+i) for a list c of ints, its zero ends stripped
    hi = len(c)
    while hi and not c[hi - 1]:
        hi -= 1
    lo = 0
    while lo < hi and not c[lo]:
        lo += 1
    return ZLaurent(v + lo, tuple(c[lo:hi])) if hi else ZL_ZERO


ZL_ZERO, ZL_ONE = ZLaurent(0, ()), ZLaurent(0, (1,))


@lru_cache(maxsize=4096)
def _slots(w, n):
    # M, the top bit of each of n slots of w bytes, and the Struct that
    # writes and reads them as signed little-endian ints (None past 8 bytes)
    fmt = {2: "h", 4: "i", 8: "q"}.get(w)
    return (int.from_bytes((bytes(w - 1) + b"\x80") * n, "little"),
            fmt and Struct("<%d%s" % (n, fmt)))


def _packed(x, w):
    # sum x.c[i] 2^(8w i) (the module docstring), kept on x in one slot, so
    # a reader never pairs one width with another's packed form
    pk = x.pk
    if pk[0] != w:
        m, st = _slots(w, len(x.c))
        raw = st.pack(*x.c) if st else b"".join(c.to_bytes(w, "little", signed=True) for c in x.c)
        pk = x.pk = w, (int.from_bytes(raw, "little") ^ m) - m
    return pk[1]


def _unpacked(p, v, w):
    # the ZLaurent q^v sum c_i q^i, given p = sum c_i 2^(8w i) != 0 with
    # every |c_i| < 2^(8w-1); p's top slot is its bit length // 8w
    bits, low = 8 * w, 0
    if not p & ((1 << bits) - 1):  # whole zero slots at the bottom
        low = ((p & -p).bit_length() - 1) // bits
        p >>= bits * low
    n = p.bit_length() // bits + 1
    m, st = _slots(w, n)
    raw = ((p + m) ^ m).to_bytes(n * w, "little")
    return ZLaurent(v + low, st.unpack(raw) if st else tuple(
        int.from_bytes(raw[o:o + w], "little", signed=True) for o in range(0, n * w, w)), (w, p))


class RingKernel:
    """What ring_matmul reads of one ring matrix, read off once: per row, its
    nonzero (column, entry) pairs; the largest |coefficient| and the most
    terms of one entry; the number of nonzero rows; per column, the least
    valuation; and per slot width, the packed rows as a right factor."""

    __slots__ = ("nz", "mag", "span", "inner", "col_lo", "packed")

    def __init__(self, rows):
        self.nz = [[(j, x) for j, x in enumerate(row) if x.c] for row in rows]
        cs = [x.c for row in self.nz for _, x in row]
        self.mag = max(max(map(max, cs)), -min(map(min, cs))) if cs else 0
        self.span, self.inner = max(map(len, cs), default=0), sum(map(bool, self.nz))
        self.col_lo, self.packed = {}, {}
        for row in self.nz:
            for j, x in row:
                if self.col_lo.get(j, x.v) >= x.v:
                    self.col_lo[j] = x.v


def ring_matmul(ka, kb, ncols):
    """The rows of the product of two ring matrices, given by their
    RingKernels, by Kronecker substitution (the module docstring)."""
    bound = ka.mag * kb.mag * min(ka.span, kb.span) * kb.inner
    if not bound:
        return [[ZL_ZERO] * ncols for _ in ka.nz]
    w = (bound.bit_length() + 8) // 8  # one sign bit, whole bytes
    w = 2 if w <= 2 else 4 if w <= 4 else 8 if w <= 8 else w
    bits, col_lo = 8 * w, kb.col_lo
    b = kb.packed.get(w)
    if b is None:  # output (i, j) has the valuation base + col_lo[j], base from row i
        b = kb.packed[w] = [[(j, _packed(x, w), bits * (x.v - col_lo[j])) for j, x in row]
                            for row in kb.nz]
    out = []
    for row in ka.nz:
        base = min([x.v for _, x in row], default=0)
        acc = [0] * ncols
        for k, x in row:
            if b[k]:
                pa, sa = _packed(x, w), bits * (x.v - base)
                for j, pb, sb in b[k]:
                    acc[j] += (pa * pb) << (sa + sb)
        out.append([_unpacked(p, base + col_lo[j], w) if p else ZL_ZERO
                    for j, p in enumerate(acc)])
    return out


def q_power(e):
    """q^e as a RatFunc."""
    return RatFunc._raw(LaurentPoly._raw({e: 1}), _ONE_P)


# 1/(q - q^-1), the scalar every defining relation divides by
CQ = (q_power(1) - q_power(-1)).inverse()


def div_q_power_minus_one(f, m, lift):
    """f*lift/(q^m - 1) for a ZLaurent f, m >= 1 and a LaurentPoly lift with
    int coefficients, when q^m - 1 divides f*lift; else None.  The product
    a = sum a_j q^j is formed in a dense list of ints (one shifted add per
    term of lift), and the quotient b of a = (q^m - 1) b follows
    b_j = a_(j+m) + b_(j+m) from the top; what the recurrence leaves on the
    m lowest exponents of a is the remainder, which must be zero (exact
    division by a sparse monic divisor, Knuth TAOCP vol. 2, 4.6.1).  No gcd
    runs."""
    if not f.c:
        return f
    lo, n = min(lift.terms), len(f.c)
    span = n + max(lift.terms) - lo
    if span <= m:  # a nonzero multiple of q^m - 1 spans more than m exponents
        return None
    dense = [0] * span
    for d, l in lift.terms.items():
        dense[d - lo:d - lo + n] = map(add, dense[d - lo:d - lo + n], map(mul, f.c, repeat(l)))
    for j in range(span - 1, m - 1, -1):  # dense[j] is now b at exponent f.v + lo + j - m
        dense[j - m] += dense[j]
    return None if any(dense[:m]) else ZLaurent(f.v + lo, tuple(dense[m:]))


@lru_cache(maxsize=None)
def qint(n):
    """The q-integer [n] = (q^n - q^-n)/(q - q^-1) as a Laurent polynomial."""
    if not isinstance(n, int):
        raise TypeError("qint wants an integer")
    if n < 0:
        return -qint(-n)
    return LaurentPoly._raw({e: 1 for e in range(n - 1, -n, -2)})


@lru_cache(maxsize=None)
def qfact(n):
    """The q-factorial [n]! = [n][n-1]...[1], with [0]! = 1."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("qfact wants a nonnegative integer")
    return qfact(n - 1) * qint(n) if n else _ONE_P


@lru_cache(maxsize=None, typed=True)  # qbinom(4, 2.0) must still raise
def qbinom(n, i):
    """The q-binomial coefficient [n]!/([i]![n-i]!); requires n >= i >= 0.
    Built as [n,m] = [n,m-1][n-m+1]/[m] with m = min(i, n - i), reading the
    cached [n,m-1], not from [n]!; a cold query recurses m levels deep."""
    if not (isinstance(n, int) and isinstance(i, int)) or i < 0 or n < i:
        raise ValueError("qbinom wants integers n >= i >= 0")
    m = min(i, n - i)
    if m == 0:
        return _ONE_P
    # 1/[m] = q^(m-1) (q^2 - 1)/(q^(2m) - 1), divided exactly in ints
    f = div_q_power_minus_one(ZLaurent.of(qbinom(n, m - 1) * qint(n - m + 1)), 2 * m,
                              LaurentPoly({m + 1: 1, m - 1: -1}))
    if f is None:
        raise ArithmeticError("[%d,%d] is not a Laurent polynomial" % (n, m))
    return f.poly()


def check_admissible(q0):
    """Validate a specialization point: rational with q0 not in {0, 1, -1}."""
    q0 = Fraction(q0)
    if q0 == 0 or q0 == 1 or q0 == -1:
        raise SpecializationError("q0 must satisfy q0 != 0 and q0^2 != 1, got %s" % q0)
    return q0


def specialize(f, q0):
    """Evaluate a RatFunc (or LaurentPoly) exactly at an admissible rational q0."""
    q0 = check_admissible(q0)
    if isinstance(f, (int, Fraction)):
        return Fraction(f)
    return f.evaluate(q0)
