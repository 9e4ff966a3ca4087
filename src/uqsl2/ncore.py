"""PBW normal forms and presentation maps for the quantum algebra U_q(sl2).

RELATIONS, IMAGES, N_DEFINITIONS and N_COMMUTATIONS are the one statement
of the defining relations of the Chevalley generators k, k^-1, e, f and of
the equitable generators x, x^-1, y, z, of the isomorphism between the two
presentations in both directions, of the two definitions of each nilpotent
element n_a and of its q-commutations, each written as the text that its
report rows print; a family rotated x -> y -> z (exprio.rotated) is written
once, for x.  sides() parses a formula once per process and folds each
side with exprio.fold over the caller's leaves, so the same text is checked
in the algebra, on module matrices and on window modules, and builds the
two isomorphisms.  Each row compares its sides with report.compare, whose
witness here is their difference.

Every element has a unique normal form as a Q(q)-linear combination of
PBW monomials f^a k^b e^c (a, c >= 0, b in Z).  Monomials multiply in closed
form: k^b f^m = q^(-2bm) f^m k^b, e^m k^b = q^(-2bm) k^b e^m, and (Jantzen,
Lectures on Quantum Groups, Lemma 1.7; Kassel, Quantum Groups, Ch. VI)

    e^r f^s = sum_t [r,t][s,t][t]! f^(s-t) prod_{j=1..t} [k; t-r-s+j] e^(r-t)

with [k; m] = (q^m k - q^-m k^-1)/(q - q^-1).  The q-binomial theorem expands
the product over j, so e^r f^s = sum_{t,i} gamma f^(s-t) k^(t-2i) e^(r-t) with

    gamma = (-1)^i q^((t-2i)(3t+1-2r-2s)/2) [r,t][s,t][t]! [t,i] / (q-q^-1)^t,

which _ef_table caches per exponent pair (r, s).  By the diamond lemma
(Bergman, Adv. Math. 29, 1978) these normal forms are well defined, as
verify_confluence checks: every overlap of the rewriting system on words in
f, k, K (= k^-1), e that _derived_rules reads off RELATIONS resolves.
"""

from fractions import Fraction
from functools import lru_cache, reduce
from operator import add, itemgetter, mul

from . import exprio
from .exprio import _OPERATORS, CHEVALLEY, EQUITABLE
from .qfield import CQ, RF_ONE, RatFunc, q_power, qbinom, qfact
from .report import RecipeError, VerificationReport, check, compare

_F, _E = itemgetter(0), itemgetter(2)  # the exponents of f and e in a monomial

# the defining relations of each presentation, in its own letters
RELATIONS = {
    EQUITABLE: ("x*x^-1=x^-1*x=1", "(q*x*y-q^-1*y*x)/(q-q^-1)=1",
                "(q*y*z-q^-1*z*y)/(q-q^-1)=1", "(q*z*x-q^-1*x*z)/(q-q^-1)=1"),
    CHEVALLEY: ("k*k^-1=k^-1*k=1", "k*e=q^2*e*k", "k*f=q^-2*f*k",
                "e*f-f*e=(k-k^-1)/(q-q^-1)"),
}
# the image of each generator of a presentation, in the other's letters
IMAGES = {
    EQUITABLE: {"x": "k", "x^-1": "k^-1", "y": "k^-1+f*(q-q^-1)",
                "z": "k^-1-k^-1*e*q*(q-q^-1)"},
    CHEVALLEY: {"k": "x", "k^-1": "x^-1", "f": "(y-x^-1)/(q-q^-1)",
                "e": "(1-x*z)*(q^-1/(q-q^-1))"},
}
# the two defining expressions of (q - q^-1) n_a, in equitable letters
N_DEFINITIONS = dict(zip("xyz", exprio.rotated(("q*(1-y*z)=q^-1*(1-z*y)",))))
# the q-commutations of x with n_y and n_z, in the operator alphabet; their
# rotations are those of y and z
N_COMMUTATIONS = ("x*n_y=q^2*n_y*x", "x*n_z=q^-2*n_z*x")


@lru_cache(maxsize=None)
def _parsed(text, presentation):
    return tuple(exprio.parse(side, presentation) for side in text.split("="))


def sides(text, presentation, scalar, generator):
    """Each side of a formula written in the letters of presentation, folded
    (exprio.fold) over the caller's scalar and generator leaves."""
    return [exprio.fold(side, scalar, generator) for side in _parsed(text, presentation)]


def _accumulate(res, key, coeff):
    # res[key] += coeff, dropping the key when the sum cancels
    s = res.get(key)
    s = coeff if s is None else s + coeff
    if s.is_zero():
        res.pop(key, None)
    else:
        res[key] = s


class _Words(dict):
    # a combination {word: coefficient} of words in the letters f, k, K (=
    # k^-1) and e: the free algebra on them, whose product concatenates words

    def __add__(self, other):
        res = _Words(self)
        for word, coeff in other.items():
            _accumulate(res, word, coeff)
        return res

    def __neg__(self):
        return _Words({word: -coeff for word, coeff in self.items()})

    def __mul__(self, other):
        return reduce(add, (_Words({u + v: a * b}) for u, a in self.items()
                            for v, b in other.items()), _Words())

    def __pow__(self, n):
        return reduce(mul, [self] * n)


def _word(letters):
    # a word of the free algebra, or a generator (k^-1 is the letter K)
    return _Words({"K" if letters == "k^-1" else letters: RF_ONE})


_RANK = {"f": 0, "k": 1, "K": 1, "e": 2}


def _reducible(word):
    # whether two adjacent letters are out of the order f < k, K < e, or are k and K
    return any(_RANK[a] > _RANK[b] or a + b in ("kK", "Kk") for a, b in zip(word, word[1:]))


def _oriented(diff, text):
    # the rule redex -> replacement of diff = 0, where redex is the one word
    # of diff with a reducible pair.  Each replacement word must be shorter
    # than the redex or its two letters swapped, so that every rewriting step
    # lowers (length, count of out-of-order pairs) and rewriting terminates
    redex = "".join(filter(_reducible, diff))  # two letters only if it is one word
    if len(redex) != 2 or any(len(w) > 1 and w not in (redex, redex[::-1]) for w in diff):
        raise RecipeError("%s does not orient into a rewrite rule that terminates" % text)
    return redex, _Words({w: -c * diff[redex].inverse() for w, c in diff.items() if w != redex})


@lru_cache(maxsize=None)
def _derived_rules(texts):
    # the rewriting system {redex: replacement} of the Chevalley relations
    # texts: each left side minus the last side of a relation, folded in the
    # free algebra of words and oriented; and for a relation of k with e or
    # f, its conjugate by K, rewritten with the other rules (k*K, K*k -> 1)
    rules, conjugates = {}, []
    for text in texts:
        *lefts, last = sides(text, CHEVALLEY, lambda c: _Words() + {"": c}, _word)
        for left in lefts:
            redex, rule = _oriented(left + -last, text)
            rules[redex] = rule
            if "k" in redex and "K" not in redex:
                conjugates.append((redex, _word("K") * (left + -last) * _word("K"), text))
    for redex, conjugate, text in conjugates:
        others = {r: rule for r, rule in rules.items() if r != redex}
        rules.update([_oriented(_rewrite(conjugate, others), text)])
    return rules


def _rewrite(combo, rules=None):
    # the normal form of a {word: coefficient} combination under rules (those
    # of RELATIONS[CHEVALLEY] by default); each round rewrites every word
    # once, at its first redex
    rules = _derived_rules(RELATIONS[CHEVALLEY]) if rules is None else rules
    res = {}
    while combo:
        step = {}
        for word, coeff in combo.items():
            pos = next((i for i in range(len(word) - 1) if word[i : i + 2] in rules), None)
            if pos is None:
                _accumulate(res, word, coeff)
                continue
            for repl, c in rules[word[pos : pos + 2]].items():
                _accumulate(step, word[:pos] + repl + word[pos + 2 :], coeff * c)
        combo = step
    return res


@lru_cache(maxsize=None)
def _ef_terms(r, s):
    # coefficient terms of _ef_table(r, s): gamma's numerator has
    # t(r-t) + t(s-t) + t(t-1)/2 + i(t-i) + 1 terms, its denominator
    # (q^2 - 1)^t has t + 1, and the sum over i of i(t-i) is (t^3 - t)/6
    return sum((t + 1) * (t * (r + s - 2 * t) + t * (t + 1) // 2 + 2) + (t ** 3 - t) // 6
               for t in range(min(r, s) + 1))


@lru_cache(maxsize=None)
def _ef_table(r, s):
    """e^r f^s as ((t, t - 2i, gamma), ...), one entry per PBW term
    gamma f^(s-t) k^(t-2i) e^(r-t) (see the module docstring)."""
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


def _work(a, b):
    # units of work of a*b, from sizes at hand: 300 per coefficient term of
    # the widest e^r f^s table it reads, and per term pair the products of
    # coefficients of total span w with table entries of span about
    # wg = 2m(r + s), m = min(r, s), plus, where terms can meet, their gcds
    # in _accumulate against denominators of degree d.  Over 13 products
    # that took 0.2 s or more on a 2-vCPU host a unit took 0.005 to 0.05 us,
    # and 0.23 to 0.31 us in the two where the coprime denominators q^2 + 3
    # and q^3 + 2 meet in the gcd over Z.
    if not a.terms or not b.terms:
        return 0
    (_, _, na, *_), (_, da, wa, *_) = a.size()
    (_, _, nb, *_), (_, db, wb, *_) = b.size()
    r, s = max(map(_E, a.terms)), max(map(_F, b.terms))
    m = min(r, s)
    w, wg, d = na + wa + nb + wb, 2 * m * (r + s), da + db + 2 * m
    pairs = len(a.terms) * len(b.terms)
    # the terms of one pair land on distinct monomials, and so do those of
    # one factor times one term when every table read has one entry (m = 0)
    meets = pairs > 1 and (m > 0 or min(len(a.terms), len(b.terms)) > 1)
    return 300 * _ef_terms(r, s) + pairs * (
        (w + 1) * (wg + 1) + meets * (w + wg + 1) * (d + 1) ** 2) // 12


def _moves_terms(el, axis):
    # el is one monomial of coefficient 1 without f (axis 0) or e (axis 2):
    # a product by it, on that side, moves each term of the other factor to
    # one term and scales its coefficient by a power of q, which changes no
    # span, denominator or bits, so it passes the budget as that factor did
    return len(el.terms) == 1 and all(c is RF_ONE and not m[axis] for m, c in el.terms.items())


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

    __slots__ = ("terms", "_size")

    def __init__(self, terms=None):
        t = {}
        if terms:
            for mono, coeff in terms.items():
                if not isinstance(coeff, RatFunc):
                    coeff = RF_ONE * coeff
                if not coeff.is_zero():
                    t[mono] = coeff
        self.terms = t
        self._size = None

    @classmethod
    def _raw(cls, terms):
        el = cls.__new__(cls)
        el.terms = terms
        el._size = None
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
        gen = _GENERATORS.get(name)
        if gen is None:
            raise ValueError("unknown Chevalley generator %r" % (name,))
        return gen

    def size(self):
        # the size (exprio.size) of one scalar that covers every coefficient,
        # less its numerator's exponents, which the algebra does not bound:
        # the tables and k-shifts of a product raise them (e^1000*f^5)
        if self._size is None:
            size = exprio.size(*self.terms.values())
            self._size = size and ((0, 0) + size[0][2:], size[1])
        return self._size

    def _checked(self):
        # what + and * return is held to the budget in its coefficients'
        # bits and denominator degrees
        exprio.check(self.size())
        return self

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
        return AlgebraElement._raw(res)._checked()

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
            return AlgebraElement._raw({m: c * other for m, c in self.terms.items()})._checked()
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        # the factor whose terms the other one only moves (see _moves_terms)
        kept = self if _moves_terms(other, 0) else other if _moves_terms(self, 2) else None
        if kept is None:
            exprio.check(None, _work(self, other))
        res = {}
        for (a, b, c), c1 in self.terms.items():
            for (d, g, h), c2 in other.terms.items():
                c12 = c1 if c2 is RF_ONE else c1 * c2
                for t, kb, gamma in _ef_table(c, d):
                    # k^b moves past f^(d-t), and e^(c-t) past k^g
                    shift = b * (d - t) + g * (c - t)
                    if shift:
                        gamma = gamma * q_power(-2 * shift)
                    _accumulate(res, (a + d - t, b + kb + g, c - t + h), c12 * gamma)
        res = AlgebraElement._raw(res)
        if kept is None:
            return res._checked()
        res._size = kept._size  # a shift by powers of q keeps what size() reads
        return res

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
                    return AlgebraElement._raw({(0, b * n, 0): coeff ** n})._checked()
            raise ValueError("cannot raise this element to power %r" % (n,))
        result, spent = AlgebraElement.one(), 0
        for _ in range(n):  # the steps share one work budget
            spent += _work(result, self)
            exprio.check(None, spent)
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
                wrap = neg and mag.is_polynomial() and len(mag.num.c) > 1
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


_GENERATORS = {name: AlgebraElement._raw({mono: RF_ONE}) for name, mono in (
    ("f", (1, 0, 0)), ("k", (0, 1, 0)), ("k^-1", (0, -1, 0)), ("e", (0, 0, 1)))}


@lru_cache(maxsize=None)
def equitable_image(name):
    """The Chevalley normal form of an equitable generator x, x^-1, y, z."""
    text = IMAGES[EQUITABLE].get(name)
    if text is None:
        raise ValueError("unknown equitable generator %r" % (name,))
    return sides(text, CHEVALLEY, AlgebraElement.scalar, AlgebraElement.generator)[0]


def normalize_chevalley(expr):
    """PBW normal form of an NCExpr over the Chevalley presentation."""
    return exprio.fold(expr, AlgebraElement.scalar, AlgebraElement.generator)


def from_equitable(expr):
    """Chevalley normal form of an NCExpr over the equitable presentation."""
    return exprio.fold(expr, AlgebraElement.scalar, equitable_image)


def critical_pair_entries():
    """Check every overlap ambiguity of the rewriting system resolves."""
    try:
        rules = _derived_rules(RELATIONS[CHEVALLEY])
    except RecipeError as err:
        return [check("confluence:rules", None, False, str(err))]
    overlaps = sorted({u + v[1:] for u in rules for v in rules if u[1] == v[0]})
    # each overlap w of three letters, rewritten first at its left pair and
    # first at its right pair
    return [compare("confluence:overlap:%s" % w, None, lambda: [_rewrite(
        _word(w[:i]) * rules[w[i : i + 2]] * _word(w[i + 2 :]), rules) for i in (0, 1)],
        lambda a, b: "%r != %r" % (a, b)) for w in overlaps]


def verify_confluence():
    """Confluence of the normalization rewriting system, one entry per overlap."""
    return VerificationReport(critical_pair_entries())


def _difference(lhs, rhs):
    # the witness of a row whose sides, elements of the algebra, differ
    return str(lhs - rhs)


def _in_algebra(text):
    # the sides of a formula in equitable letters, folded in the algebra
    return sides(text, EQUITABLE, AlgebraElement.scalar, equitable_image)


def verify_presentation_iso():
    """Check the equitable <-> Chevalley correspondence is an isomorphism."""
    relations = [compare("iso:relation:" + text, None, lambda: _in_algebra(text), _difference)
                 for text in RELATIONS[EQUITABLE]]
    # each Chevalley generator against the equitable text of its image
    composites = [compare("iso:composite:%s" % gen, None,
                          lambda: _in_algebra(text) + [AlgebraElement.generator(gen)],
                          _difference) for gen, text in IMAGES[CHEVALLEY].items()]
    return VerificationReport(relations + composites)


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
    if (i, alpha) not in _auto_checked:
        # the images must satisfy the defining relations
        images = {"k": k, "k^-1": AlgebraElement.generator("k^-1"), "e": e_img, "f": f_img}
        for text in RELATIONS[CHEVALLEY]:
            row = compare(text, None, lambda: sides(
                text, CHEVALLEY, AlgebraElement.scalar, images.__getitem__), _difference)
            if row.status != "pass":
                raise RuntimeError("the images of e and f under the automorphism "
                                   "(i=%d, alpha=%s) break %s" % (i, alpha, text))
        _auto_checked.add((i, alpha))
    res = AlgebraElement.zero()
    for (a, b, c), coeff in element.terms.items():
        term = (f_img ** a) * AlgebraElement._raw({(0, b, 0): RF_ONE}) * (e_img ** c)
        res = res + term * coeff
    return res


@lru_cache(maxsize=None)
def _n_sides(axis):
    """Both defining expressions q(1 - ab)/(q - q^-1) and q^-1(1 - ba)/(q - q^-1)
    of n_axis, from N_DEFINITIONS[axis]."""
    text = N_DEFINITIONS.get(axis)
    if text is None:
        raise ValueError("axis must be one of x, y, z")
    return tuple(side * CQ for side in _in_algebra(text))


def _ndef_entry(axis):
    # the row of verify_n_definitions for n_axis
    return compare("ndef:n_%s:" % axis + N_DEFINITIONS[axis], None,
                   lambda: _n_sides(axis), _difference)


def n_element(axis):
    """The nilpotent element n_axis = q(1 - next*prev)/(q - q^-1) in normal form;
    raises ConsistencyError when its two defining expressions disagree."""
    value = _n_sides(axis)[0]  # raises first on an unknown axis
    VerificationReport([_ndef_entry(axis)]).require()
    return value


def verify_n_definitions():
    """Each n-element's two defining expressions agree in the algebra."""
    return VerificationReport([_ndef_entry(axis) for axis in ("x", "y", "z")])


def _operator_word(word):
    # a word of the operator alphabet, as the product of its leaves: an
    # equitable generator's image, or n_a from its first definition
    return reduce(mul, (_n_sides(leaf[2:])[0] if leaf.startswith("n_") else equitable_image(leaf)
                        for leaf in word.split("*")))


def verify_n_commutation():
    """The six q-commutation relations between generators and n-elements."""
    return VerificationReport([compare(
        "ncomm:" + text, None,
        lambda: sides(text, _OPERATORS, AlgebraElement.scalar, _operator_word), _difference)
        for text in exprio.rotated(N_COMMUTATIONS)])


def verify_n_preimages():
    """n_y and n_z match their Chevalley preimages e and -q*k*f."""
    return VerificationReport([compare("npre:n_%s=%s" % (a, text), None, lambda: (
        _n_sides(a)[0], *sides(text, CHEVALLEY, AlgebraElement.scalar, AlgebraElement.generator)),
        _difference) for a, text in (("y", "e"), ("z", "-q*k*f"))])
