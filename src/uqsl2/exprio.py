"""Parser and canonical printer for noncommutative algebra expressions.

Grammar (whitespace ignored, error positions are 1-based):

    expr   := term (('+' | '-') term)*
    term   := '-' term | factor (('*' | '/') factor)*
    factor := atom ('^' ['-'] INT)*
    atom   := '(' expr ')' | INT | NAME

NAME is a generator letter of the active presentation (k, e, f or x, y, z;
inverses are spelled k^-1, x^-1) or the distinguished scalar q.  '*' is
mandatory; juxtaposition is not multiplication.  '/' requires its right
operand to be (or fold to) a nonzero scalar.  Subexpressions built only
from q and numbers fold into ScalarLiteral nodes during parsing, so a
parsed tree is always in folded form and render/parse round-trip exactly.

Parentheses and unary minus may nest at most MAX_NESTING (100) levels deep,
counted together; deeper input is a ParseError at the first token past the
cap.  A power's exponent may be at most MAX_EXPONENT (1000) in absolute
value, and so may the product of the exponents of a caret chain such as
e^2^3 (which is (e^2)^3 = e^6); a larger one is a ParseError at the caret
that passes the cap, raised before any scalar power is computed.  Scalar
results are capped before they are computed too, as ((q+1)^1000)^4
multiplies exponents without a caret chain: a scalar power, and each prefix
of the scalars of one product in the order fold() multiplies them, may have
no q-exponent beyond MAX_EXPONENT in absolute value and no coefficient
numerator or denominator beyond MAX_POWER_BITS (14000) bits, so it prints
within Python's 4300-digit limit.  A canonical num/den is sized by num's
least and largest q-exponents, den's degree and the bits of each part's l1
norm over Z and common denominator.  A product adds its factors' sizes (a
divisor's inverse), bounding it before it cancels since norms at most
multiply, so q^1000*q^-1000 passes and q^600*q^600 does not; a zero factor
ends the count; a power is |e| times its base (its inverse if e < 0).  The
scalar terms of one sum are bounded the same way before each addition, from
(n1 d2 + n2 d1)/(d1 d2), or (n1 + n2)/d when the denominators agree, so a
folded sum still renders as text that parses back.  The error is at the
caret, '*', '/', '+' or '-' that passes a cap.  An integer literal may have
at most as many digits as any number below 2^MAX_POWER_BITS (4214), else it
is a ParseError at its first digit.  A power of a power of a non-scalar
collapses into one IntPower, so caret chains do not build deep trees.
fold() evaluates a tree given what its leaves stand for.
"""

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .qfield import RF_ONE, RF_Q, RF_ZERO, RatFunc

CHEVALLEY = "chevalley"
EQUITABLE = "equitable"

MAX_NESTING = 100
MAX_EXPONENT = 1000
MAX_POWER_BITS = 14000
# the most coefficient terms one PBW product table e^r f^s may hold
# (ncore._ef_table): e^22*f^22 has 89,608 and e^1000*f^5 70,042; the slowest
# table within the cap, e^400*f^8, normalizes in about 6 s on a 2-vCPU host
MAX_PRODUCT_TERMS = 100000
# the most digits an integer literal may have: every such number is below
# 2^MAX_POWER_BITS, and int() reads it within Python's 4300-digit limit
_MAX_DIGITS = len(str(2 ** MAX_POWER_BITS)) - 1

_LETTERS = {CHEVALLEY: ("k", "e", "f"), EQUITABLE: ("x", "y", "z")}
_INVERSE_OF = {"k": "k^-1", "k^-1": "k", "x": "x^-1", "x^-1": "x"}


class ParseError(ValueError):
    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.message = message
        self.position = position


@dataclass(frozen=True)
class ScalarLiteral:
    value: RatFunc


@dataclass(frozen=True)
class Generator:
    presentation: str
    name: str


@dataclass(frozen=True)
class Sum:
    terms: tuple


@dataclass(frozen=True)
class Product:
    factors: tuple


@dataclass(frozen=True)
class IntPower:
    base: object
    exp: int


@dataclass(frozen=True)
class Negate:
    child: object


def make_negate(t):
    if isinstance(t, ScalarLiteral):
        return ScalarLiteral(-t.value)
    if isinstance(t, Negate):
        return t.child
    return Negate(t)


def make_sum(terms):
    flat = []
    for t in terms:
        if isinstance(t, Sum):
            flat.extend(t.terms)
        else:
            flat.append(t)
    if len(flat) == 1:
        return flat[0]
    if all(isinstance(t, ScalarLiteral) for t in flat):
        v = RF_ZERO
        for t in flat:
            v = v + t.value
        return ScalarLiteral(v)
    return Sum(tuple(flat))


def make_product(factors):
    flat = []
    for f in factors:
        if isinstance(f, Product):
            flat.extend(f.factors)
        else:
            flat.append(f)
    if len(flat) == 1:
        return flat[0]
    if all(isinstance(f, ScalarLiteral) for f in flat):
        v = RF_ONE
        for f in flat:
            v = v * f.value
        return ScalarLiteral(v)
    return Product(tuple(flat))


def _check_exponent(e, pos):
    if abs(e) > MAX_EXPONENT:
        raise ParseError("exponent %d exceeds the cap of %d in absolute value"
                         % (e, MAX_EXPONENT), pos)


def _scalar_size(value):
    # (largest and least q-exponent of num, degree of den, then the bits of
    # the l1 norm over Z and common denominator of num and of den)
    num, den = value.num, value.den
    if not num.terms:
        return [0] * 7
    size = [num.degree(), num.valuation(), den.degree()]
    for p in (num, den):
        lcd = math.lcm(*(c.denominator for c in p.terms.values()))
        size += [int(sum(abs(c) * lcd for c in p.terms.values())).bit_length(),
                 lcd.bit_length()]
    return size


def _product_size(size, f, pos):
    # size after the scalars of factor f, each prefix checked; () once zero
    for g in f.factors if isinstance(f, Product) else (f,):
        if isinstance(g, ScalarLiteral) and size:
            if g.value.is_zero():
                return ()
            size = [a + b for a, b in zip(size, _scalar_size(g.value))]
            _check_scalar_size("scalar product", size, pos)
    return size


def _sum_size(a, b):
    # a bound on the size of a + b from the canonical a = n1/d1, b = n2/d2,
    # before it cancels: (n1 + n2)/d1 if d1 = d2, else (n1 d2 + n2 d1)/(d1 d2)
    if a.is_zero() or b.is_zero():
        return _scalar_size(b if a.is_zero() else a)
    hi1, lo1, dd1, nb1, nl1, db1, dl1 = _scalar_size(a)
    hi2, lo2, dd2, nb2, nl2, db2, dl2 = _scalar_size(b)
    if a.den == b.den:
        return [max(hi1, hi2), min(lo1, lo2), dd1,
                max(nb1 + nl2, nb2 + nl1) + 1, nl1 + nl2, db1, dl1]
    return [max(hi1 + dd2, hi2 + dd1), min(lo1, lo2), dd1 + dd2,
            max(nb1 + db2 + nl2 + dl1, nb2 + db1 + nl1 + dl2) + 1,
            nl1 + nl2 + dl1 + dl2, db1 + db2, dl1 + dl2]


def _scalar_sum(acc, t, pos):
    # acc plus the scalars of term t, each sum checked before it is computed
    for g in t.terms if isinstance(t, Sum) else (t,):
        if isinstance(g, ScalarLiteral):
            _check_scalar_size("scalar sum", _sum_size(acc, g.value), pos)
            acc = acc + g.value
    return acc


def _check_scalar_size(what, size, pos):
    hi, lo, den_deg, *bits = size
    if max(hi, -lo, den_deg) > MAX_EXPONENT:
        raise ParseError("%s of degree %d exceeds the cap of %d"
                         % (what, max(hi, -lo, den_deg), MAX_EXPONENT), pos)
    if max(bits) > MAX_POWER_BITS:
        raise ParseError("%s with coefficients of up to %d bits exceeds "
                         "the cap of %d" % (what, max(bits), MAX_POWER_BITS), pos)


def make_power(base, e, pos=0):
    if isinstance(base, IntPower) and e > 0:
        base, e = base.base, base.exp * e  # (b^m)^n = b^(mn)
    _check_exponent(e, pos)
    if isinstance(base, ScalarLiteral):
        if e < 0 and base.value.is_zero():
            raise ParseError("zero raised to a negative power", pos)
        sized = base.value.inverse() if e < 0 else base.value
        _check_scalar_size("scalar power", [abs(e) * x for x in _scalar_size(sized)], pos)
        return ScalarLiteral(base.value ** e)
    if e == 0:
        return ScalarLiteral(RF_ONE)
    if e == 1:
        return base
    if isinstance(base, Generator):
        if e < 0:
            inv = _INVERSE_OF.get(base.name)
            if inv is None:
                raise ParseError(
                    "negative power of non-invertible generator '%s'" % base.name, pos)
            base = Generator(base.presentation, inv)
            e = -e
            if e == 1:
                return base
        return IntPower(base, e)
    if e < 0:
        raise ParseError("negative power of a non-invertible expression", pos)
    return IntPower(base, e)


def _tokenize(text):
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            run = text[i:j].lstrip("0") or "0"
            if len(run) > _MAX_DIGITS:
                raise ParseError("integer literal of %d digits exceeds the cap of %d"
                                 % (len(run), _MAX_DIGITS), i + 1)
            toks.append(("int", int(run), i + 1))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            toks.append(("name", text[i:j], i + 1))
            i = j
            continue
        if ch in "+-*/^()":
            toks.append((ch, ch, i + 1))
            i += 1
            continue
        raise ParseError("unexpected character '%s'" % ch, i + 1)
    toks.append(("end", None, n + 1))
    return toks


class _Parser:
    def __init__(self, text, presentation):
        if presentation not in _LETTERS:
            raise ValueError("unknown presentation %r" % (presentation,))
        self.presentation = presentation
        self.toks = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.toks[self.i]

    def advance(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def nested(self, parse, pos):
        # one level of parentheses or unary minus around what parse() reads
        if self.depth == MAX_NESTING:
            raise ParseError("nesting deeper than %d levels" % MAX_NESTING, pos)
        self.depth += 1
        e = parse()
        self.depth -= 1
        return e

    def expr(self):
        terms = [self.term()]
        acc = None  # sum of the scalar terms so far, from the first '+' or '-'
        while self.peek()[0] in ("+", "-"):
            op, _, oppos = self.advance()
            t = self.term()
            t = make_negate(t) if op == "-" else t
            if acc is None:
                acc = _scalar_sum(RF_ZERO, terms[0], oppos)
            acc = _scalar_sum(acc, t, oppos)
            terms.append(t)
        return make_sum(terms)

    def term(self):
        if self.peek()[0] == "-":
            _, _, pos = self.advance()
            return make_negate(self.nested(self.term, pos))
        factors = [self.factor()]
        size = None  # summed _scalar_size, from the first '*' or '/'
        while self.peek()[0] in ("*", "/"):
            op, _, oppos = self.advance()
            f = self.factor()
            if op == "/":
                if not isinstance(f, ScalarLiteral):
                    raise ParseError("division requires a scalar divisor", oppos)
                if f.value.is_zero():
                    raise ParseError("division by zero", oppos)
                f = ScalarLiteral(f.value.inverse())
            if size is None:
                size = _product_size([0] * 7, factors[0], oppos)
            size = _product_size(size, f, oppos)
            factors.append(f)
        return make_product(factors)

    def factor(self):
        base = self.atom()
        chain = 1  # product of the exponents read so far
        while self.peek()[0] == "^":
            _, _, cpos = self.advance()
            sign = 1
            if self.peek()[0] == "-":
                self.advance()
                sign = -1
            kind, val, pos = self.peek()
            if kind != "int":
                raise ParseError("expected an integer exponent", pos)
            self.advance()
            chain *= sign * val
            _check_exponent(chain, cpos)
            base = make_power(base, sign * val, cpos)
        return base

    def atom(self):
        kind, val, pos = self.advance()
        if kind == "(":
            e = self.nested(self.expr, pos)
            kind2, _, pos2 = self.advance()
            if kind2 != ")":
                raise ParseError("expected ')'", pos2)
            return e
        if kind == "int":
            return ScalarLiteral(RF_ONE * val)
        if kind == "name":
            if val == "q":
                return ScalarLiteral(RF_Q)
            if val in _LETTERS[self.presentation]:
                return Generator(self.presentation, val)
            raise ParseError(
                "unknown symbol '%s' for %s presentation" % (val, self.presentation), pos)
        raise ParseError("expected an expression", pos)


def parse(text, presentation):
    """Parse text into a folded NCExpr tree for the given presentation."""
    p = _Parser(text, presentation)
    e = p.expr()
    kind, _, pos = p.peek()
    if kind != "end":
        raise ParseError("unexpected trailing input", pos)
    return e


_BARE_SCALAR = re.compile(r"\d+|q(\^-?\d+)?")


def _scalar_str(v):
    s = str(v)
    if _BARE_SCALAR.fullmatch(s):
        return s
    return "(%s)" % s


def _factor_str(f):
    if isinstance(f, (Sum, Negate)):
        return "(%s)" % render(f)
    return render(f)


def _term_str(t):
    if isinstance(t, Sum):
        return "(%s)" % render(t)
    return render(t)


def render(expr):
    """Print an NCExpr so that parse(render(e)) is structurally equal to e."""
    if isinstance(expr, ScalarLiteral):
        return _scalar_str(expr.value)
    if isinstance(expr, Generator):
        return expr.name
    if isinstance(expr, IntPower):
        base = expr.base
        if isinstance(base, Generator):
            if base.name in ("k^-1", "x^-1"):
                return "%s^-%d" % (base.name[0], expr.exp)
            return "%s^%d" % (base.name, expr.exp)
        return "(%s)^%d" % (render(base), expr.exp)
    if isinstance(expr, Negate):
        return "-" + _term_str(expr.child)
    if isinstance(expr, Product):
        return "*".join(_factor_str(f) for f in expr.factors)
    if isinstance(expr, Sum):
        parts = []
        for idx, t in enumerate(expr.terms):
            if isinstance(t, Negate):
                sign, body = "-", _term_str(t.child)
            elif isinstance(t, ScalarLiteral) and t.value.leading_negative():
                sign, body = "-", _scalar_str(-t.value)
            else:
                sign, body = "+", _term_str(t)
            if idx == 0:
                parts.append(body if sign == "+" else "-" + body)
            else:
                parts.append((" + " if sign == "+" else " - ") + body)
        return "".join(parts)
    raise TypeError("not an NCExpr node: %r" % (expr,))


def fold(expr, scalar, generator):
    """Evaluate an NCExpr tree: scalar(value) and generator(name) give the
    leaves, and +, unary -, * and ** combine whatever they return."""
    if isinstance(expr, ScalarLiteral):
        return scalar(expr.value)
    if isinstance(expr, Generator):
        return generator(expr.name)
    if isinstance(expr, Negate):
        return -fold(expr.child, scalar, generator)
    if isinstance(expr, Sum):
        total = fold(expr.terms[0], scalar, generator)
        for t in expr.terms[1:]:
            total = total + fold(t, scalar, generator)
        return total
    if isinstance(expr, Product):
        total = fold(expr.factors[0], scalar, generator)
        for f in expr.factors[1:]:
            total = total * fold(f, scalar, generator)
        return total
    if isinstance(expr, IntPower):
        return fold(expr.base, scalar, generator) ** expr.exp
    raise TypeError("not an NCExpr node: %r" % (expr,))


def scalar(value):
    """Wrap a field element (or int/Fraction) as a ScalarLiteral."""
    if not isinstance(value, RatFunc):
        value = RF_ONE * Fraction(value)
    return ScalarLiteral(value)
