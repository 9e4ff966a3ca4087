"""Exact arithmetic over the ground field Q(q).

LaurentPoly is Z[q, q^-1]: an integer Laurent polynomial sum c[i] q^(v+i),
held as its valuation v and a tuple c of ints with c[0], c[-1] nonzero
(zero is v = 0, c = ()), so equality and hash read (v, c).  Its +, - and *
stay in the ring; a RatFunc or Fraction operand takes it out, to a RatFunc.
It is the ring of the symbolic module environment, and the numerator and
denominator of every RatFunc.

A RatFunc is a quotient num/den of two LaurentPolys in a unique canonical
form: den is a polynomial with nonzero constant term and positive leading
coefficient, and num's polynomial part and den are coprime over Z[q],
integer content included.  The value fixes the pair: over Q[q] the form
with den monic is unique, and the one positive rational that clears both
its parts to integers with no common content scales it to this one.  So
equality is structural comparison.  str divides both parts by den's
leading coefficient, so a quotient prints with a monic denominator and
reduced fractions for coefficients, and the text is bit-stable.  No
Fraction is built except to print, to evaluate at a point, or to read a
Fraction operand.

_cancel is the only gcd routine: it divides num's polynomial part and den
by their gcd over Z[q].  When den is (q - 1)^a (q + 1)^b, as every
denominator the PBW product makes is, the gcd is (q - 1)^i (q + 1)^j: a
coefficient sum (alternating at q = -1) tests each root, and synthetic
division strips it, at most a and b times.  A constant den shares only
integer content with num.  Any other den takes the primitive polynomial
remainder sequence over Z (Brown, J. ACM 18 (1971); Knuth TAOCP vol. 2,
4.6.1): the gcd of the contents times the last nonzero primitive
pseudo-remainder, every step in ints.  The constructor and + reach _cancel
through _reduce, which first shifts den to valuation 0 and makes its
leading coefficient positive; inverse needs no gcd, since a coprime pair
stays coprime when it swaps.  Products need no such step, and most no gcd
either, since they read the canonical form of their operands (Henrici's
product, Knuth TAOCP vol. 2, 4.5.1):

- A zero operand gives zero over 1.
- An integer multiple c*q^m (den 1) times a/b is (c*q^m*a)/b up to the
  common content of c and b: q does not divide b (its constant term is
  nonzero), and a shares no factor with b.
- For a/b * c/d, gcd(a, b) = gcd(c, d) = 1 (polynomial parts), so the only
  factors that can cancel are g1 = gcd(a, d) and g2 = gcd(c, b).  Then
  (a/g1)(c/g2) is coprime to (b/g2)(d/g1), which has a positive leading
  coefficient and a nonzero constant term as a product of divisors of b
  and d.

div_q_power_minus_one divides a LaurentPoly by q^m - 1 exactly, in ints.
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

No floating point appears anywhere.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from math import gcd
from operator import add, index, mul, neg, sub
from struct import Struct
from types import MappingProxyType


class PoleError(ArithmeticError):
    """Evaluation hit a vanishing denominator."""


class SpecializationError(ValueError):
    """The requested evaluation point q0 is not admissible."""


_new = object.__new__
_UNIT = (1,)


def _lp(v, c, pk=(0, 0)):
    # the LaurentPoly sum c[i] q^(v+i), c a tuple with nonzero ends
    p = _new(LaurentPoly)
    p.v, p.c, p.pk = v, c, pk
    return p


def _trim(v, c):
    # _lp of a list c of ints, its zero ends stripped
    hi = len(c)
    while hi and not c[hi - 1]:
        hi -= 1
    lo = 0
    while lo < hi and not c[lo]:
        lo += 1
    return _lp(v + lo, tuple(c[lo:hi])) if hi else _ZERO_P


class LaurentPoly:
    """An integer Laurent polynomial sum c[i] q^(v+i) (see the module
    docstring); LaurentPoly(terms) reads a dict {exponent: int}."""

    __slots__ = ("v", "c", "pk")  # pk: (w, the packed form in w-byte slots)

    def __init__(self, terms=None):
        terms = terms or {}
        lo = min(terms, default=0)
        p = _trim(lo, [index(terms.get(e, 0)) for e in range(lo, max(terms, default=-1) + 1)])
        self.v, self.c, self.pk = p.v, p.c, p.pk

    @property
    def terms(self):
        """The nonzero terms, as a read-only {exponent: coefficient} view."""
        return MappingProxyType({e: a for e, a in enumerate(self.c, self.v) if a})

    def is_zero(self):
        return not self.c

    def __bool__(self):
        return bool(self.c)

    def is_polynomial(self):
        return True

    def valuation(self):
        return self.v

    def degree(self):
        return self.v + len(self.c) - 1

    def shift(self, d):
        """Multiply by q^d."""
        return _lp(self.v + d, self.c) if self.c else self

    def __eq__(self, other):
        if type(other) is not LaurentPoly:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            if other.denominator != 1:
                return False
            other = _const(int(other))
        return self.c == other.c and self.v == other.v

    def __hash__(self):
        # a constant equals its int, so it must hash like it
        c = self.c
        return hash((self.v, c)) if self.v or len(c) > 1 else hash(c[0] if c else 0)

    def __neg__(self):
        return _lp(self.v, tuple(map(neg, self.c)))

    def _leave(self, other, op):
        # self op other for an operand outside the ring: a RatFunc, or
        # NotImplemented for a non-scalar
        if isinstance(other, (Fraction, RatFunc)):
            return op(_rf(self, _ONE_P), other)
        return NotImplemented

    def _sum(self, o, op):
        # self op o, op add or sub, o a LaurentPoly or int, aligned at the lesser valuation
        if type(o) is not LaurentPoly:
            if not isinstance(o, int):
                return self._leave(o, op)
            o = _const(o)
        a, b = self.c, o.c
        if not a or not b:
            return self if not b else o if op is add else -o
        v = self.v if self.v < o.v else o.v
        i, j = self.v - v, o.v - v
        res = [0] * (i + len(a) if i + len(a) > j + len(b) else j + len(b))
        res[i:i + len(a)] = a
        res[j:j + len(b)] = map(op, res[j:j + len(b)], b)
        return _trim(v, res)

    def __add__(self, other):
        return self._sum(other, add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._sum(other, sub)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if type(other) is not LaurentPoly:
            if not isinstance(other, int):
                return self._leave(other, mul)
            other = _const(other)
        a, b, v = self.c, other.c, self.v + other.v
        if len(a) > len(b):
            a, b = b, a
        if len(a) <= 1:  # zero, or a one-term factor
            return _ZERO_P if not a else _lp(v, b if a[0] == 1 else tuple(map(mul, b, repeat(a[0]))))
        res, n = [0] * (len(a) + len(b) - 1), len(b)
        for i, x in enumerate(a):
            if x:
                res[i:i + n] = map(add, res[i:i + n], map(mul, b, repeat(x)))
        return _lp(v, tuple(res))

    __rmul__ = __mul__

    def __truediv__(self, other):
        # a unit +-q^m divides in the ring; any other divisor takes self out
        if type(other) is LaurentPoly and other.c in ((1,), (-1,)):
            return self * _lp(-other.v, other.c)
        return _rf(self, _ONE_P) / other

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("LaurentPoly power wants a nonnegative integer")
        result = _ONE_P
        for _ in range(n):
            result = result * self
        return result

    def evaluate(self, q0):
        # with q0 = p/r and hi = lo + n, the sum of c p^e r^-e is (sum of
        # c p^(e-lo) r^(hi-e)) p^lo / r^hi: one integer sum, reduced once;
        # q = 0 is a pole when lo < 0
        p, r = Fraction(q0).as_integer_ratio()
        c, lo, n = self.c, self.v, len(self.c) - 1
        if not p and lo < 0:
            raise PoleError("q^%d has a pole at q = 0" % lo)
        total = sum(a * p ** i * r ** (n - i) for i, a in enumerate(c) if a)
        return Fraction(total * p ** max(lo, 0) * r ** max(-lo - n, 0),
                        r ** max(lo + n, 0) * p ** max(-lo, 0))

    def __str__(self):
        return _poly_str(self, 1)

    def __repr__(self):
        return "LaurentPoly(%s)" % self


def _const(n):
    return _lp(0, (n,)) if n else _ZERO_P


def _poly_str(p, d):
    # p/d for a positive int d, each coefficient a reduced fraction, from
    # the highest exponent down
    parts = []
    for e, a in zip(range(p.v + len(p.c) - 1, p.v - 1, -1), reversed(p.c)):
        if not a:
            continue
        g = gcd(a, d) if d != 1 else 1
        n, m = abs(a) // g, d // g
        body = str(n) if m == 1 else "%d/%d" % (n, m)
        if e:
            qp = "q" if e == 1 else "q^%d" % e
            body = qp if body == "1" else "%s*%s" % (body, qp)
        parts.append(("-" if a < 0 else "") if not parts else " - " if a < 0 else " + ")
        parts.append(body)
    return "".join(parts) or "0"


_ZERO_P = _lp(0, ())
_ONE_P = _lp(0, _UNIT)


class RatFunc:
    """Element of Q(q) in canonical num/den form (see the module docstring)."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        n, d = _as_ratfunc(num), _as_ratfunc(den)
        if n is NotImplemented or d is NotImplemented:
            raise TypeError("cannot coerce %r or %r to RatFunc" % (num, den))
        if not d.num.c:
            raise ZeroDivisionError("zero denominator in RatFunc")
        f = _reduce(n.num * d.den, n.den * d.num)
        self.num, self.den = f.num, f.den

    def is_zero(self):
        return not self.num.c

    def __bool__(self):
        return bool(self.num.c)

    def is_polynomial(self):
        # a polynomial over Q: the denominator is a positive integer
        return len(self.den.c) == 1

    def __eq__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # a Laurent polynomial or constant equals its LaurentPoly, int or
        # Fraction, so it must hash like it
        n, d = self.num, self.den
        if d.c == _UNIT:
            return hash(n)
        if len(d.c) == 1 and not n.v and len(n.c) == 1:
            return hash(Fraction(n.c[0], d.c[0]))
        return hash((n, d))

    def __neg__(self):
        return _rf(-self.num, self.den)

    def __add__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, d = self.num, self.den, other.num, other.den
        if b.c == _UNIT and d.c == _UNIT:
            return _rf(a + c, _ONE_P)
        if b == d:
            return _reduce(a + c, b)
        return _reduce(a * d + c * b, b * d)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        # canonical with at most the two cross gcds; the module docstring
        # says why each branch is exact
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, d = self.num, self.den, other.num, other.den
        if not a.c or not c.c:
            return RF_ZERO
        if b.c == _UNIT and len(a.c) == 1:
            return _monomial_times(a, other)
        if d.c == _UNIT and len(c.c) == 1:
            return _monomial_times(c, self)
        if b.c == _UNIT and d.c == _UNIT:
            return _rf(a * c, _ONE_P)
        a, d = _cancel(a, d)
        c, b = _cancel(c, b)
        return _rf(a * c, d if b.c == _UNIT else b if d.c == _UNIT else b * d)

    __rmul__ = __mul__

    def inverse(self):
        n, d = self.num, self.den
        if not n.c:
            raise ZeroDivisionError("inverse of zero in Q(q)")
        if n.c[-1] < 0:
            n, d = -n, -d
        return _rf(_lp(-n.v, d.c), _lp(0, n.c))

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
        result = RF_ONE
        for _ in range(abs(n)):
            result = result * base
        return result

    def shift(self, d):
        """Multiply by q^d; q does not divide den, so the form stays canonical."""
        return _rf(self.num.shift(d), self.den)

    def leading_negative(self):
        # sign of the highest-exponent numerator coefficient (den's is positive)
        return bool(self.num.c) and self.num.c[-1] < 0

    def is_single_term(self):
        return len(self.den.c) == 1 and len(self.num.c) == 1

    def as_sign_q_power(self):
        """Decompose as (sign, m) when the value is +-q^m, else None."""
        if self.den.c == _UNIT and self.num.c in ((1,), (-1,)):
            return self.num.c[0], self.num.v
        return None

    def evaluate(self, q0):
        q0 = Fraction(q0)
        d = self.den.evaluate(q0)
        if d == 0:
            raise PoleError("denominator vanishes at q = %s" % q0)
        return self.num.evaluate(q0) / d

    def __str__(self):
        d = self.den.c
        if len(d) == 1:
            return _poly_str(self.num, d[0])
        return "(%s)/(%s)" % (_poly_str(self.num, d[-1]), _poly_str(self.den, d[-1]))

    def __repr__(self):
        return "RatFunc(%s)" % self


def _rf(num, den):
    f = _new(RatFunc)
    f.num, f.den = num, den
    return f


def _as_ratfunc(v):
    if type(v) is RatFunc:
        return v
    if type(v) is LaurentPoly:
        return _rf(v, _ONE_P)
    if isinstance(v, (int, Fraction)):
        return _rf(_const(v.numerator), _const(v.denominator))
    return NotImplemented


def _reduce(num, den):
    # canonicalize num/den: shift den to valuation 0 with a positive leading
    # coefficient, then cancel the gcd of num's polynomial part and den
    if not num.c:
        return RF_ZERO
    if den.c[-1] < 0:
        num, den = -num, -den
    if den.v:
        num, den = num.shift(-den.v), _lp(0, den.c)
    return _rf(*_cancel(num, den))


def _monomial_times(mono, f):
    # (c*q^m) * f for the one-term LaurentPoly mono = c*q^m: c meets only
    # the integer content of f's den
    (c,), num, den = mono.c, f.num, f.den
    if c != 1 and c != -1 and den.c[-1] != 1:
        g = gcd(c, *den.c)
        if g != 1:
            c, den = c // g, _lp(0, tuple(x // g for x in den.c))
    return _rf(_lp(num.v + mono.v, num.c if c == 1 else tuple(x * c for x in num.c)), den)


def _cancel(num, den):
    # num and den over their gcd g over Z[q] (num's polynomial part; lc(g)
    # > 0), for num nonzero and den a polynomial with nonzero constant term
    # and positive leading coefficient
    n, d = num.c, den.c
    if len(d) == 1:  # an integer shares only content
        g = gcd(d[0], *n) if d[0] != 1 else 1
        return (num, den) if g == 1 else (_lp(num.v, tuple(x // g for x in n)), _const(d[0] // g))
    ab = _pm1_exponents(d)
    if ab is not None:  # den = (q - 1)^a (q + 1)^b: its divisors are (q - 1)^i (q + 1)^j
        n, i, j = _strip_pm1(n, *ab)
        return (num, den) if not i and not j else (_lp(num.v, tuple(n)),
                                                   _pm1_power(ab[0] - i, ab[1] - j))
    g = _gcd(n, d)
    if g == [1]:
        return num, den
    return _lp(num.v, tuple(_divmod(n, g)[0])), _lp(0, tuple(_divmod(d, g)[0]))


def _divmod(a, b):
    # quotient and remainder of lc(b)^k a by b over Z[q], dense lists from
    # the constant term up (the remainder's top zeros stripped), k the
    # fewest steps that do not divide in ints; k = 0 when b divides a
    r, m, lb, quo = list(a), len(b), b[-1], []
    for s in range(len(r) - m, -1, -1):
        c = r.pop()
        k, rem = divmod(c, lb)
        if rem:
            r, quo, k = [x * lb for x in r], [x * lb for x in quo], c
        quo.append(k)
        if k:
            r[s:s + m - 1] = map(sub, r[s:s + m - 1], map(mul, b, repeat(k)))
    while r and not r[-1]:
        r.pop()
    return quo[::-1], r


def _primitive(c):
    # c over its content, with a positive leading coefficient
    g = gcd(*c)
    g = -g if c[-1] < 0 else g
    return [x // g for x in c]


def _gcd(a, b):
    # the gcd over Z[q] of two nonzero dense polynomials, leading coefficient
    # positive: the gcd of their contents times the last nonzero remainder
    # of their primitive remainder sequence
    g = gcd(gcd(*a), gcd(*b))
    a, b = sorted((_primitive(a), _primitive(b)), key=len, reverse=True)
    while True:
        r = _divmod(a, b)[1]
        if not r:
            return [g * x for x in b]
        if len(r) == 1:
            return [g]
        a, b = b, _primitive(r)


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
def _pm1_exponents(d):
    # (a, b) when the polynomial with coefficients d is (q - 1)^a (q + 1)^b,
    # else None; read once per distinct denominator
    d, a, b = _strip_pm1(d, len(d), len(d))
    return (a, b) if d == [1] else None


@lru_cache(maxsize=1024)
def _pm1_power(a, b):
    return _lp(0, (-1, 1)) ** a * _lp(0, (1, 1)) ** b


RF_ZERO = _rf(_ZERO_P, _ONE_P)
RF_ONE = _rf(_ONE_P, _ONE_P)
RF_Q = _rf(_lp(1, _UNIT), _ONE_P)


@lru_cache(maxsize=4096)
def _slots(w, n):
    # M, the top bit of each of n slots of w bytes, and the Struct that
    # writes and reads them as signed little-endian ints (None past 8 bytes)
    fmt = {2: "h", 4: "i", 8: "q"}.get(w)
    return (int.from_bytes((bytes(w - 1) + b"\x80") * n, "little"),
            fmt and Struct("<%d%s" % (n, fmt)))


def _slot_width(bound):
    # the bytes of a slot that holds a signed digit of magnitude at most
    # bound: its bits and a sign bit, in 2, 4, 8 or more whole bytes
    w = (bound.bit_length() + 8) // 8
    return 2 if w <= 2 else 4 if w <= 4 else 8 if w <= 8 else w


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
    # the LaurentPoly q^v sum c_i q^i, given p = sum c_i 2^(8w i) != 0 with
    # every |c_i| < 2^(8w-1); p's top slot is its bit length // 8w
    bits, low = 8 * w, 0
    if not p & ((1 << bits) - 1):  # whole zero slots at the bottom
        low = ((p & -p).bit_length() - 1) // bits
        p >>= bits * low
    n = p.bit_length() // bits + 1
    m, st = _slots(w, n)
    raw = ((p + m) ^ m).to_bytes(n * w, "little")
    return _lp(v + low, st.unpack(raw) if st else tuple(
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
        return [[_ZERO_P] * ncols for _ in ka.nz]
    w = _slot_width(bound)
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
        out.append([_unpacked(p, base + col_lo[j], w) if p else _ZERO_P
                    for j, p in enumerate(acc)])
    return out


def q_power(e):
    """q^e as a RatFunc."""
    return _rf(_lp(e, _UNIT), _ONE_P)


# 1/(q - q^-1), the scalar every defining relation divides by
CQ = (q_power(1) - q_power(-1)).inverse()


def div_q_power_minus_one(f, m, lift):
    """f*lift/(q^m - 1) for LaurentPolys f and lift and m >= 1, when q^m - 1
    divides f*lift; else None.  The product a = sum a_j q^j is formed in a
    dense list of ints (one shifted add per term of lift), and the quotient
    b of a = (q^m - 1) b follows b_j = a_(j+m) + b_(j+m) from the top; what
    the recurrence leaves on the m lowest exponents of a is the remainder,
    which must be zero (exact division by a sparse monic divisor, Knuth
    TAOCP vol. 2, 4.6.1).  No gcd runs."""
    if not f.c:
        return f
    n = len(f.c)
    span = n + len(lift.c) - 1
    if span <= m:  # a nonzero multiple of q^m - 1 spans more than m exponents
        return None
    dense = [0] * span
    for d, l in enumerate(lift.c):
        if l:
            dense[d:d + n] = map(add, dense[d:d + n], map(mul, f.c, repeat(l)))
    for j in range(span - 1, m - 1, -1):  # dense[j] is now b at exponent f.v + lift.v + j - m
        dense[j - m] += dense[j]
    return None if any(dense[:m]) else _lp(f.v + lift.v, tuple(dense[m:]))


@lru_cache(maxsize=None)
def qint(n):
    """The q-integer [n] = (q^n - q^-n)/(q - q^-1) as a Laurent polynomial."""
    if not isinstance(n, int):
        raise TypeError("qint wants an integer")
    if n < 0:
        return -qint(-n)
    return _lp(1 - n, (1, 0) * (n - 1) + (1,)) if n else _ZERO_P


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
    f = div_q_power_minus_one(qbinom(n, m - 1) * qint(n - m + 1), 2 * m, _lp(m - 1, (-1, 0, 1)))
    if f is None:
        raise ArithmeticError("[%d,%d] is not a Laurent polynomial" % (n, m))
    return f


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
