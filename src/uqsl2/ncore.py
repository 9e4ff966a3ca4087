"""PBW normal forms and presentation maps for the quantum algebra U_q(sl2).

Chevalley generators k, k^-1, e, f satisfy

    k k^-1 = k^-1 k = 1,   k e = q^2 e k,   k f = q^-2 f k,
    e f - f e = (k - k^-1)/(q - q^-1),

and every element has a unique normal form as a Q(q)-linear combination of
PBW monomials f^a k^b e^c (a, c >= 0, b in Z).  Monomials multiply in closed
form: k^b f^m = q^(-2bm) f^m k^b, e^m k^b = q^(-2bm) k^b e^m, and (Jantzen,
Lectures on Quantum Groups, Lemma 1.7; Kassel, Quantum Groups, Ch. VI)

    e^r f^s = sum_t [r,t][s,t][t]! f^(s-t) prod_{j=1..t} [k; t-r-s+j] e^(r-t)

with [k; m] = (q^m k - q^-m k^-1)/(q - q^-1).  The q-binomial theorem expands
the product over j, so e^r f^s = sum_{t,i} gamma f^(s-t) k^(t-2i) e^(r-t) with

    gamma = (-1)^i q^((t-2i)(3t+1-2r-2s)/2) [r,t][s,t][t]! [t,i] / (q-q^-1)^t,

which _ef_table caches per exponent pair (r, s).  The same relations, read
left to right, are rewrite rules on words in f, k, K (= k^-1), e, each one
reducing the number of out-of-order letter pairs.  That rewriting system
remains only as the object verify_confluence certifies: every overlap
ambiguity resolves (critical_pair_entries), so by the diamond lemma the
normal forms are well defined.

The equitable generators x, x^-1, y, z satisfy

    x x^-1 = x^-1 x = 1,
    (q x y - q^-1 y x)/(q - q^-1) = 1,
    (q y z - q^-1 z y)/(q - q^-1) = 1,
    (q z x - q^-1 x z)/(q - q^-1) = 1,

and correspond to Chevalley elements via

    x = k,  x^-1 = k^-1,  y = k^-1 + f (q - q^-1),
    z = k^-1 - k^-1 e q (q - q^-1),

with inverse map k = x, k^-1 = x^-1, f = (y - x^-1)/(q - q^-1),
e = (1 - x z) q^-1/(q - q^-1).
"""

from fractions import Fraction
from functools import lru_cache

from . import exprio
from .exprio import Generator, Negate, Product, ScalarLiteral, Sum
from .qfield import CQ, RF_ONE, RatFunc, q_power, qbinom, qfact
from .report import VerificationReport, check

# rewrite rules over the letter alphabet f < k, K < e (K stands for k^-1);
# each left side maps to a linear combination of replacement words
_RULES = {
    "ef": ((RF_ONE, "fe"), (CQ, "k"), (-CQ, "K")),
    "ek": ((q_power(-2), "ke"),),
    "eK": ((q_power(2), "Ke"),),
    "kf": ((q_power(-2), "fk"),),
    "Kf": ((q_power(2), "fK"),),
    "kK": ((RF_ONE, ""),),
    "Kk": ((RF_ONE, ""),),
}


def _accumulate(res, key, coeff):
    # res[key] += coeff, dropping the key when the sum cancels
    s = res.get(key)
    s = coeff if s is None else s + coeff
    if s.is_zero():
        res.pop(key, None)
    else:
        res[key] = s


def _rewrite(combo):
    """Normal form of a {word: coefficient} combination under _RULES; each
    round rewrites every word once, at its first redex."""
    res = {}
    while combo:
        step = {}
        for word, coeff in combo.items():
            pos = next((i for i in range(len(word) - 1) if word[i : i + 2] in _RULES), None)
            if pos is None:
                _accumulate(res, word, coeff)
                continue
            for c, repl in _RULES[word[pos : pos + 2]]:
                _accumulate(step, word[:pos] + repl + word[pos + 2 :], coeff * c)
        combo = step
    return res


class ProductSizeError(ValueError):
    """A PBW product whose table e^r f^s would pass exprio.MAX_PRODUCT_TERMS."""


def _ef_terms(r, s):
    # coefficient terms of _ef_table(r, s): gamma's numerator has
    # t(r-t) + t(s-t) + t(t-1)/2 + i(t-i) + 1 terms, its denominator
    # (q^2 - 1)^t has t + 1, and the sum over i of i(t-i) is (t^3 - t)/6
    return sum((t + 1) * (t * (r + s - 2 * t) + t * (t + 1) // 2 + 2) + (t ** 3 - t) // 6
               for t in range(min(r, s) + 1))


@lru_cache(maxsize=None)
def _ef_table(r, s):
    """e^r f^s as ((t, t - 2i, gamma), ...), one entry per PBW term
    gamma f^(s-t) k^(t-2i) e^(r-t) (see the module docstring).

    Raises ProductSizeError, before building, when the table's coefficients
    would hold more than exprio.MAX_PRODUCT_TERMS terms."""
    terms = _ef_terms(r, s)
    if terms > exprio.MAX_PRODUCT_TERMS:
        raise ProductSizeError(
            "e^%d*f^%d expands to %d coefficient terms, beyond the cap of %d"
            % (r, s, terms, exprio.MAX_PRODUCT_TERMS))
    table = []
    for t in range(min(r, s) + 1):
        common = qbinom(r, t) * qbinom(s, t) * qfact(t)
        for i in range(t + 1):
            b = t - 2 * i
            gamma = q_power(b * (3 * t + 1 - 2 * r - 2 * s) // 2) * (
                common * qbinom(t, i) * (-1) ** i)
            for _ in range(t):
                gamma = gamma * CQ  # one factor at a time, so each gcd is against q^2 - 1
            table.append((t, b, gamma))
    return tuple(table)


def _mono_str(mono):
    a, b, c = mono
    parts = []
    if a:
        parts.append("f" if a == 1 else "f^%d" % a)
    if b:
        parts.append("k" if b == 1 else "k^%d" % b)
    if c:
        parts.append("e" if c == 1 else "e^%d" % c)
    return "*".join(parts)


class AlgebraElement:
    """Element of U_q(sl2) as a Q(q)-combination of PBW monomials f^a k^b e^c."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        t = {}
        if terms:
            for mono, coeff in terms.items():
                if not isinstance(coeff, RatFunc):
                    coeff = RF_ONE * coeff
                if not coeff.is_zero():
                    t[mono] = coeff
        self.terms = t

    @classmethod
    def _raw(cls, terms):
        el = cls.__new__(cls)
        el.terms = terms
        return el

    @classmethod
    def zero(cls):
        return cls._raw({})

    @classmethod
    def one(cls):
        return cls._raw({(0, 0, 0): RF_ONE})

    @classmethod
    def scalar(cls, c):
        if not isinstance(c, RatFunc):
            c = RF_ONE * c
        return cls._raw({} if c.is_zero() else {(0, 0, 0): c})

    @classmethod
    def generator(cls, name):
        mono = {"f": (1, 0, 0), "k": (0, 1, 0), "k^-1": (0, -1, 0), "e": (0, 0, 1)}.get(name)
        if mono is None:
            raise ValueError("unknown Chevalley generator %r" % (name,))
        return cls._raw({mono: RF_ONE})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, AlgebraElement):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction, RatFunc)):
            return self == AlgebraElement.scalar(other)
        return NotImplemented

    def __hash__(self):
        # a scalar element equals its coefficient, so it must hash like it
        t = self.terms
        if not t:
            return hash(0)
        if len(t) == 1 and (0, 0, 0) in t:
            return hash(t[(0, 0, 0)])
        return hash(frozenset(t.items()))

    def __neg__(self):
        return AlgebraElement._raw({m: -c for m, c in self.terms.items()})

    def __add__(self, other):
        if isinstance(other, (int, Fraction, RatFunc)):
            other = AlgebraElement.scalar(other)
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        res = dict(self.terms)
        for m, c in other.terms.items():
            _accumulate(res, m, c)
        return AlgebraElement._raw(res)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, RatFunc)):
            other = AlgebraElement.scalar(other)
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, RatFunc)):
            if not isinstance(other, RatFunc):
                other = RF_ONE * other
            if other.is_zero():
                return AlgebraElement._raw({})
            return AlgebraElement._raw({m: c * other for m, c in self.terms.items()})
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        res = {}
        for (a, b, c), c1 in self.terms.items():
            for (d, g, h), c2 in other.terms.items():
                c12 = c1 * c2
                for t, kb, gamma in _ef_table(c, d):
                    # k^b moves past f^(d-t), and e^(c-t) past k^g
                    shift = q_power(-2 * (b * (d - t) + g * (c - t)))
                    _accumulate(res, (a + d - t, b + kb + g, c - t + h), c12 * (gamma * shift))
        return AlgebraElement._raw(res)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, RatFunc)):
            return self * other  # scalars commute with everything
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            if isinstance(n, int) and len(self.terms) == 1:
                (mono, coeff), = self.terms.items()
                a, b, c = mono
                if a == 0 and c == 0:  # powers of k are invertible
                    return AlgebraElement._raw({(0, b * n, 0): coeff ** n})
            raise ValueError("cannot raise this element to power %r" % (n,))
        result = AlgebraElement.one()
        for _ in range(n):
            result = result * self
        return result

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms, key=lambda m: (m[0], -m[1], m[2])):
            coeff = self.terms[mono]
            neg = coeff.leading_negative()
            mag = -coeff if neg else coeff
            ms = _mono_str(mono)
            if not ms:
                # a leading minus must negate every term of the constant
                wrap = neg and mag.is_polynomial() and len(mag.num.terms) > 1
                body = "(%s)" % mag if wrap else str(mag)
            elif mag == RF_ONE:
                body = ms
            elif mag.is_single_term():
                body = "%s*%s" % (mag, ms)
            else:
                body = "(%s)*%s" % (mag, ms)
            if not parts:
                parts.append("-" + body if neg else body)
            else:
                parts.append((" - " if neg else " + ") + body)
        return "".join(parts)

    def __repr__(self):
        return "AlgebraElement(%s)" % self


# Chevalley images of the equitable generators
_EQ_IMAGES = None


def equitable_image(name):
    """The Chevalley normal form of an equitable generator x, x^-1, y, z."""
    global _EQ_IMAGES
    if _EQ_IMAGES is None:
        k = AlgebraElement.generator("k")
        kinv = AlgebraElement.generator("k^-1")
        e = AlgebraElement.generator("e")
        f = AlgebraElement.generator("f")
        qmqi = q_power(1) - q_power(-1)
        _EQ_IMAGES = {
            "x": k,
            "x^-1": kinv,
            "y": kinv + f * qmqi,
            "z": kinv - (kinv * e) * (q_power(1) * qmqi),
        }
    img = _EQ_IMAGES.get(name)
    if img is None:
        raise ValueError("unknown equitable generator %r" % (name,))
    return img


def normalize_chevalley(expr):
    """PBW normal form of an NCExpr over the Chevalley presentation."""
    return exprio.fold(expr, AlgebraElement.scalar, AlgebraElement.generator)


def from_equitable(expr):
    """Chevalley normal form of an NCExpr over the equitable presentation."""
    return exprio.fold(expr, AlgebraElement.scalar, equitable_image)


def to_equitable_generators(gen):
    """Equitable NCExpr whose Chevalley image is the named generator."""
    x = Generator(exprio.EQUITABLE, "x")
    xinv = Generator(exprio.EQUITABLE, "x^-1")
    y = Generator(exprio.EQUITABLE, "y")
    z = Generator(exprio.EQUITABLE, "z")
    if gen == "k":
        return x
    if gen == "k^-1":
        return xinv
    if gen == "f":
        return Product((Sum((y, Negate(xinv))), ScalarLiteral(CQ)))
    if gen == "e":
        return Product((Sum((ScalarLiteral(RF_ONE), Negate(Product((x, z))))),
                        ScalarLiteral(q_power(-1) * CQ)))
    raise ValueError("unknown Chevalley generator %r" % (gen,))


def critical_pair_entries():
    """Check every overlap ambiguity of the rewriting system resolves."""
    overlaps = sorted({u + v[1:] for u in _RULES for v in _RULES if u[1] == v[0]})
    entries = []
    for w in overlaps:
        routes = []
        for pos in (0, 1):
            combo = {}
            for coeff, repl in _RULES[w[pos : pos + 2]]:
                nw = w[:pos] + repl + w[pos + 2 :]
                combo[nw] = combo.get(nw, RF_ONE * 0) + coeff
            routes.append(_rewrite(combo))
        ok = routes[0] == routes[1]
        entries.append(check("confluence:overlap:%s" % w, None, ok,
                             None if ok else "%r != %r" % (routes[0], routes[1])))
    return entries


def verify_confluence():
    """Confluence of the normalization rewriting system, one entry per overlap."""
    return VerificationReport(critical_pair_entries())


def verify_presentation_iso():
    """Check the equitable <-> Chevalley correspondence is an isomorphism."""
    one = AlgebraElement.one()
    x = equitable_image("x")
    xinv = equitable_image("x^-1")
    y = equitable_image("y")
    z = equitable_image("z")
    qq = q_power(1)
    qi = q_power(-1)

    def weyl(a, b):
        return (a * b * qq - b * a * qi) * CQ

    checks = [
        ("iso:relation:x*x^-1=x^-1*x=1", x * xinv == one and xinv * x == one),
        ("iso:relation:(q*x*y-q^-1*y*x)/(q-q^-1)=1", weyl(x, y) == one),
        ("iso:relation:(q*y*z-q^-1*z*y)/(q-q^-1)=1", weyl(y, z) == one),
        ("iso:relation:(q*z*x-q^-1*x*z)/(q-q^-1)=1", weyl(z, x) == one),
    ]
    for gen in ("k", "k^-1", "f", "e"):
        image = from_equitable(to_equitable_generators(gen))
        checks.append(("iso:composite:%s" % gen, image == AlgebraElement.generator(gen)))
    return VerificationReport([check(name, None, ok) for name, ok in checks])


_auto_checked = set()


def apply_automorphism(element, i, alpha):
    """Apply the automorphism k -> k, e -> alpha*e*k^i, f -> alpha^-1*k^-i*f."""
    if not isinstance(i, int):
        raise TypeError("automorphism exponent i must be an integer")
    if not isinstance(alpha, RatFunc):
        alpha = RF_ONE * alpha
    if alpha.is_zero():
        raise ValueError("automorphism scale alpha must be nonzero")
    k = AlgebraElement.generator("k")
    e_img = (AlgebraElement.generator("e") * (k ** i)) * alpha
    f_img = ((k ** (-i)) * AlgebraElement.generator("f")) * alpha.inverse()
    key = (i, str(alpha))
    if key not in _auto_checked:
        # the images must satisfy the defining relations
        kinv = AlgebraElement.generator("k^-1")
        assert k * e_img == e_img * k * q_power(2)
        assert k * f_img == f_img * k * q_power(-2)
        assert e_img * f_img - f_img * e_img == (k - kinv) * CQ
        _auto_checked.add(key)
    res = AlgebraElement.zero()
    for (a, b, c), coeff in element.terms.items():
        term = (f_img ** a) * AlgebraElement._raw({(0, b, 0): RF_ONE}) * (e_img ** c)
        res = res + term * coeff
    return res


_N_AXES = {"x": ("y", "z"), "y": ("z", "x"), "z": ("x", "y")}


@lru_cache(maxsize=None)
def _n_sides(axis):
    """Both defining expressions q(1 - ab)/(q - q^-1) and q^-1(1 - ba)/(q - q^-1)
    of n_axis, where (a, b) = _N_AXES[axis]."""
    pair = _N_AXES.get(axis)
    if pair is None:
        raise ValueError("axis must be one of x, y, z")
    a, b = (equitable_image(g) for g in pair)
    one = AlgebraElement.one()
    return ((one - a * b) * (q_power(1) * CQ), (one - b * a) * (q_power(-1) * CQ))


def n_element(axis):
    """The nilpotent element n_axis = q(1 - next*prev)/(q - q^-1) in normal form."""
    left, right = _n_sides(axis)
    if left != right:
        raise RuntimeError("the two defining expressions of n_%s disagree" % axis)
    return left


def verify_n_definitions():
    """Each n-element's two defining expressions agree in the algebra."""
    entries = []
    for axis in ("x", "y", "z"):
        a, b = _N_AXES[axis]
        left, right = _n_sides(axis)
        ok = left == right
        entries.append(check(
            "ndef:n_%s:q*(1-%s*%s)=q^-1*(1-%s*%s)" % (axis, a, b, b, a), None, ok,
            None if ok else str(left - right)))
    return VerificationReport(entries)


def verify_n_commutation():
    """The six q-commutation relations between generators and n-elements."""
    gens = {g: equitable_image(g) for g in ("x", "y", "z")}
    rows = [
        ("x", "y", 2), ("x", "z", -2),
        ("y", "z", 2), ("y", "x", -2),
        ("z", "x", 2), ("z", "y", -2),
    ]
    entries = []
    for g, axis, exp in rows:
        lhs = gens[g] * n_element(axis)
        rhs = n_element(axis) * gens[g] * q_power(exp)
        ok = lhs == rhs
        entries.append(check(
            "ncomm:%s*n_%s=q^%d*n_%s*%s" % (g, axis, exp, axis, g), None, ok,
            None if ok else str(lhs - rhs)))
    return VerificationReport(entries)


def verify_n_preimages():
    """n_y and n_z match their Chevalley preimages e and -q*k*f."""
    e = AlgebraElement.generator("e")
    kf = AlgebraElement.generator("k") * AlgebraElement.generator("f")
    entries = []
    for name, lhs, rhs in [
        ("npre:n_y=e", n_element("y"), e),
        ("npre:n_z=-q*k*f", n_element("z"), kf * (-q_power(1))),
    ]:
        ok = lhs == rhs
        entries.append(check(name, None, ok, None if ok else str(lhs - rhs)))
    return VerificationReport(entries)
