"""Exact arithmetic over the ground field Q(q).

Elements are represented in a unique canonical form: a LaurentPoly is a
finitely supported map from integer q-exponents to rational coefficients,
and a RatFunc is a quotient num/den where den is a monic polynomial in q
with nonzero constant term and gcd(num's polynomial part, den) = 1.  With
this normalization, equality is structural comparison and the text
rendering is bit-stable.

_cancel is the only gcd over Q: it divides num's polynomial part and a
monic den with nonzero constant term by their monic gcd.  The constructor,
+ and inverse reach it through _reduce, which first shifts den to valuation
0 and scales both parts by 1/lc.  div_q_power_minus_one divides an integer
Laurent polynomial times a small one by q^m - 1 without it, in ints, and
returns None when the division is not exact.  Products need no such step,
and most no
gcd either, since they read the canonical form of their operands
(Henrici's product, Knuth TAOCP vol. 2, 4.5.1):

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

Matrices whose entries are all integer Laurent polynomials (denominator 1,
int coefficients) multiply by Kronecker substitution in laurent_matmul,
which repmod.Matrix.__mul__ calls (Harvey, J. Symbolic Comput. 44 (2009)).
Each nonzero entry a = sum c_e q^e of valuation v is packed once per
product into the integer A = sum c_e 2^(s(e - v)): one s-bit slot per
exponent, counted from the entry's own valuation, so entries far apart in
valuation cost no empty slots.  Evaluation at q = 2^s is a ring
homomorphism, so for output entry (i, j)

    R = sum_k A_ik * B_kj * 2^(s(v_ik + v_kj - base))

is the value at 2^s of that entry divided by q^base.  Here base is the least
valuation in row i of the left factor plus the least valuation in column j
of the right factor, at most every v_ik + v_kj, so each shift is
nonnegative.  Each output coefficient is a sum, over at most `inner` values
of k, of at most min(n_a, n_b) products c * c', where n is the most terms
of one entry (for a fixed k an exponent of a_ik fixes that of b_kj); inner,
n, max|a| and max|b| are taken over the entries that meet a nonzero
partner, so the coefficient's absolute value is at most
max|a| * max|b| * min(n_a, n_b) * inner.  The slot width s is that bound's
bit length plus one sign bit, rounded up to whole bytes (3 to 4 and 5-7 to
8, the widths memoryview reads), so every coefficient lies strictly between
-2^(s-1) and 2^(s-1).  Such signed digits of R are unique, and adding the bias 2^(s-1)
to every slot turns them into plain base-2^s digits in [1, 2^s - 1] with no
carries between slots, which one to_bytes reads off.  Subtracting the bias
again gives exactly the product's coefficients, as ints, over the
canonical denominator 1.  Any other matrix (Fraction entries at a
specialization point, or an entry with a nontrivial denominator or a
Fraction coefficient) makes laurent_matmul return None, and Matrix.__mul__
multiplies it entry by entry.

Coefficients are Python ints where possible and fractions.Fraction
otherwise; no floating point appears anywhere.
"""

import sys
from fractions import Fraction
from functools import lru_cache
from itertools import chain


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
        # p^lo / r^hi: one integer sum (for integer c), reduced once
        p, r = Fraction(q0).as_integer_ratio()
        lo, hi = min(self.terms, default=0), max(self.terms, default=0)
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


RF_ZERO = RatFunc._raw(_ZERO_P, _ONE_P)
RF_ONE = RatFunc._raw(_ONE_P, _ONE_P)
RF_Q = RatFunc._raw(LaurentPoly._raw({1: 1}), _ONE_P)


# Kronecker-packed products of integer Laurent matrices; the module
# docstring says why they are exact

# memoryview formats that read one little-endian slot of 2, 4 or 8 bytes;
# iterating bytes reads 1-byte slots
_SLOT_FORMATS = ({2: "H", 4: "I", 8: "Q"} if sys.byteorder == "little" else {})


def _nonzero(rows):
    # per row, the (col, terms) of each nonzero entry; None unless every
    # entry is a RatFunc with denominator 1 (a canonical one-term denominator)
    found = []
    for row in rows:
        nonzero = []
        for k, x in enumerate(row):
            if type(x) is not RatFunc:
                return None
            t = x.num.terms
            if t:
                if len(x.den.terms) != 1:
                    return None
                nonzero.append((k, t))
        found.append(nonzero)
    return found


def _coeff_bound(rows):
    # (max |coeff|, most terms in one entry) over the rows of _nonzero, or
    # None if a coefficient is not an int
    terms = [t for row in rows for _, t in row]
    coeffs = list(chain.from_iterable(map(dict.values, terms)))
    # int + Fraction is a Fraction: the sum is an int only if all are
    if type(sum(coeffs)) is not int:
        return None
    return max(max(coeffs), -min(coeffs)), max(map(len, terms))


def _pack(entries, bits):
    """Pack each (key, terms) of entries as (key, P, v): v is the valuation
    and P = sum of c * 2^(bits*(e - v)) over the terms c*q^e."""
    packed = []
    for key, terms in entries:
        lo = min(terms)
        p = 0
        for e, c in terms.items():
            p += c << bits * (e - lo)
        packed.append((key, p, lo))
    return packed


def _unpack(packed, lo, bits):
    """The terms {lo + i: c_i} with packed = sum of c_i * 2^(bits*i), given
    packed != 0, |c_i| < 2^(bits-1) and bits a multiple of 8."""
    low = (packed & -packed).bit_length() - 1
    if low >= bits:  # drop whole zero slots at the bottom
        packed >>= bits * (low // bits)
        lo += low // bits
    half = 1 << (bits - 1)
    if -half < packed < half:
        return {lo: packed}
    width = bits >> 3
    slots = abs(packed).bit_length() // bits + 1
    # adding half to every slot makes each slot's digit c_i + half >= 0
    raw = (packed + int.from_bytes((bytes(width - 1) + b"\x80") * slots, "little")
           ).to_bytes(slots * width, "little")
    fmt = _SLOT_FORMATS.get(width)
    if width == 1:
        digits = raw
    elif fmt:
        digits = memoryview(raw).cast(fmt)
    else:
        digits = [int.from_bytes(raw[o:o + width], "little")
                  for o in range(0, len(raw), width)]
    return {lo + i: d - half for i, d in enumerate(digits) if d != half}


def laurent_matmul(a_rows, b_rows):
    """Product of two matrices of integer Laurent polynomials (RatFunc entries).

    Returns the rows of the product, or None when an entry of either factor
    is not a RatFunc with denominator 1 and int coefficients.
    """
    a = _nonzero(a_rows)
    b = None if a is None else _nonzero(b_rows)
    if b is None:
        return None
    ncols = len(b_rows[0])
    # only entries that meet a nonzero partner are packed
    used = {k for row in a for k, _ in row}
    b = [row if k in used else [] for k, row in enumerate(b)]
    if not all(b):
        a = [[e for e in row if b[e[0]]] for row in a]
    if not any(a):
        return [[RF_ZERO] * ncols for _ in a_rows]
    bound_a, bound_b = _coeff_bound(a), _coeff_bound(b)
    if bound_a is None or bound_b is None:
        return None
    bound = (bound_a[0] * bound_b[0] * min(bound_a[1], bound_b[1])
             * sum(map(bool, b)))
    width = (bound.bit_length() + 8) // 8  # one sign bit, whole bytes
    if width in (3, 5, 6, 7):  # widen to a slot memoryview reads
        width = 4 if width == 3 else 8
    bits = 8 * width
    # output (i, j) has the base valuation base + col_lo[j], base from row i
    b_packed = [_pack(row, bits) for row in b]
    col_lo = {}
    for row in b_packed:
        for j, _, lo in row:
            if col_lo.get(j, lo) >= lo:
                col_lo[j] = lo
    b_packed = [[(j, p, bits * (lo - col_lo[j])) for j, p, lo in row]
                for row in b_packed]
    out = []
    for row in a:
        if not row:
            out.append([RF_ZERO] * ncols)
            continue
        a_packed = _pack(row, bits)
        base = min([lo for _, _, lo in a_packed])
        acc = [0] * ncols
        for k, pa, lo in a_packed:
            sa = bits * (lo - base)
            for j, pb, sb in b_packed[k]:
                acc[j] += (pa * pb) << (sa + sb)
        out.append([RatFunc._raw(LaurentPoly._raw(
                        _unpack(v, base + col_lo[j], bits)), _ONE_P)
                    if v else RF_ZERO for j, v in enumerate(acc)])
    return out


def q_power(e):
    """q^e as a RatFunc."""
    return RatFunc._raw(LaurentPoly._raw({e: 1}), _ONE_P)


# 1/(q - q^-1), the scalar every defining relation divides by
CQ = (q_power(1) - q_power(-1)).inverse()


def div_q_power_minus_one(f, m, lift):
    """f*lift/(q^m - 1) for m >= 1 and a LaurentPoly lift with int
    coefficients, when f is an integer Laurent polynomial (a RatFunc with
    denominator 1 and int coefficients) and q^m - 1 divides f*lift; else
    None.  The product a = sum a_j q^j is formed in a dense list of ints (a
    few shifted adds, one per term of lift), and the quotient b of
    a = (q^m - 1) b follows b_j = a_(j+m) + b_(j+m) from the top; what the
    recurrence leaves on the m lowest exponents of a is the remainder, which
    must be zero (exact division by a sparse monic divisor, Knuth TAOCP
    vol. 2, 4.6.1).  No gcd runs."""
    if type(f) is not RatFunc or len(f.den.terms) != 1:
        return None
    terms = f.num.terms
    if not terms:
        return f
    if any(type(c) is not int for c in terms.values()):
        return None
    lo = min(terms) + min(lift.terms)
    span = max(terms) + max(lift.terms) - lo + 1
    if span <= m:  # a nonzero multiple of q^m - 1 spans more than m exponents
        return None
    dense = [0] * span
    for d, l in lift.terms.items():
        for e, c in terms.items():
            dense[e + d - lo] += c * l
    for j in range(span - 1, m - 1, -1):  # dense[j] is now b at exponent lo + j - m
        dense[j - m] += dense[j]
    if any(dense[:m]):
        return None
    return RatFunc._raw(LaurentPoly._raw(
        {lo + j: c for j, c in enumerate(dense[m:]) if c}), _ONE_P)


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
    f = RatFunc(qbinom(n, m - 1) * qint(n - m + 1), qint(m))
    if not f.is_polynomial():
        raise ArithmeticError("[%d,%d] is not a Laurent polynomial" % (n, m))
    return f.num


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
