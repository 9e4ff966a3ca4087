"""Parser and canonical printer for noncommutative algebra expressions.

Grammar (whitespace ignored, error positions are 1-based):

    expr   := term (('+' | '-') term)*
    term   := '-' term | factor (('*' | '/') factor)*
    factor := atom ('^' ['-'] INT)*
    atom   := '(' expr ')' | INT | NAME

NAME is a generator letter of the active presentation (k, e, f or x, y, z;
inverses are spelled k^-1, x^-1) or the distinguished scalar q.  The
private alphabet of the module environment (repmod, qexpops, ncore), which
no CLI option selects, has no letters: its leaves are the keys of the
environment, spelled as they print (k, k^-1, e, f, x, y^-1, n_x,
exp_q(n_x), exp_q(n_x)^-1, Psi^-1, Omega^3, ...), and a word of leaves
joined by '*' (k^-1*e, exp_q(n_x)*y) reads as one leaf named by its text,
so that its reader (repmod._Words) can keep each product it folds.  '*'
is mandatory; juxtaposition is not multiplication.  '/' requires its
right operand to be (or fold to) a nonzero scalar.  Subexpressions built
only from q and numbers fold into ScalarLiteral nodes during parsing, so a
parsed tree is always in folded form and render/parse round-trip exactly.

Parentheses and unary minus may nest at most MAX_NESTING (100) levels deep,
counted together; deeper input is a ParseError at the first token past the
cap.  A power of a power of a non-scalar collapses into one IntPower, so
caret chains do not build deep trees.

One size budget bounds what the parser folds and what ncore builds from
it.  The size of a scalar (size()) is, for its numerator and its
denominator, the least and largest q-exponent, the widest span of one, and
the bits of the l1 norm over Z and of the common denominator of the
coefficients; the size of several scalars covers each.  bound() gives the
size of a sum, product or power from the sizes of its operands, before
anything cancels: exponents, spans and bits add in a product (norms at most
multiply), a sum is bounded as (n1 d2 + n2 d1)/(d1 d2), or (n1 + n2)/d over
one denominator, and a power is |e| times its base (its inverse if e < 0).
check() raises BudgetError when a size has a q-exponent beyond MAX_EXPONENT
(1000) in absolute value or a part of more than MAX_POWER_BITS (14000)
bits, so that a number prints within Python's 4300-digit limit, or when an
operation would do more than MAX_WORK units of work.  The parser checks
each exponent (and the product of the exponents of a caret chain such as
e^2^3, which is (e^2)^3 = e^6) as q^e, the digits of an integer literal
(at most _MAX_DIGITS) before it is read, each scalar power, and the running
sum or product of the scalars of one sum or product in the order fold()
combines them, all before the value is computed, so q^1000*q^-1000 passes,
q^600*q^600 does not, and every folded scalar renders as text that parses
back.  Its BudgetError, a ParseError, is at the caret, '*', '/', '+' or '-'
(or the first digit) that passes the budget.  In ncore a product checks
its work (ncore._work) before its loop, and a sum or product checks the
bits and the denominator degrees of its result; numerator exponents there
are not bounded, so a normal form whose tables, k-shifts or coefficient
products raise one past MAX_EXPONENT prints but does not parse back.
fold() evaluates a tree given what its leaves stand for.
"""

import re
from dataclasses import dataclass
from itertools import chain
from functools import reduce
from operator import add, attrgetter, mul, sub

from .qfield import _ONE_P, RF_ONE, RF_Q, RF_ZERO, LaurentPoly, RatFunc

CHEVALLEY = "chevalley"
EQUITABLE = "equitable"

MAX_NESTING = 100
# the size budget (see check())
MAX_EXPONENT = 1000
MAX_POWER_BITS = 14000
MAX_WORK = 3 * 10 ** 7
# the most digits an integer literal may have: every such number is below
# 2^MAX_POWER_BITS, and int() reads it within Python's 4300-digit limit
_MAX_DIGITS = len(str(2 ** MAX_POWER_BITS)) - 1

# the alphabet of the module environment (see above): one leaf, and a word
# of leaves; a letter comes after the longer leaves, so exp_q( matches first
_OPERATORS = "operators"
_OPERATOR_LEAF = (r"exp_q\(n_[xyz]\)(?:\^-1)?|n_[xyz]|Omega(?:\^-1|\^3)?|Psi(?:\^-1)?"
                  r"|[xyz](?:\^-1)?|k(?:\^-1)?|[ef]")
_OPERATOR_WORD = re.compile(r"(?:{0})(?:\*(?:{0}))*".format(_OPERATOR_LEAF))
# the letter that names the axis of a leaf (x, x^-1, n_x, exp_q(n_x)^-1 and
# the equitable letters), never one of a longer name (the x of exp_q)
_AXIS = re.compile(r"(?<![a-z])[xyz]")


_LETTERS = {CHEVALLEY: ("k", "e", "f"), EQUITABLE: ("x", "y", "z"), _OPERATORS: ()}
_INVERSE_OF = {"k": "k^-1", "k^-1": "k", "x": "x^-1", "x^-1": "x"}


def rotated(texts):
    """texts, then their images under x -> y -> z -> x, then the images of
    those: each leaf is renamed whole, by the letter that names its axis."""
    out = list(texts)
    for _ in range(2 * len(texts)):  # each one rotation past the text len(texts) back
        out.append(_AXIS.sub(lambda m: "yzx"["xyz".index(m[0])], out[-len(texts)]))
    return tuple(out)


class ParseError(ValueError):
    def __init__(self, message, position=None):
        super().__init__(message if position is None
                         else "%s (at position %d)" % (message, position))
        self.message = message
        self.position = position


class BudgetError(ParseError):
    """A value whose size bound passes the budget; its position is that of
    the operator when the parser raised it, else None."""


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
    items = property(attrgetter("terms"))


@dataclass(frozen=True)
class Product:
    factors: tuple
    items = property(attrgetter("factors"))


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


def _flat(kind, items, op, unit):
    # kind(items), with the items of each item of that kind spliced in; one
    # item stands alone, and scalars alone fold into one: unit op each
    flat = [u for t in items for u in (t.items if isinstance(t, kind) else (t,))]
    if len(flat) == 1:
        return flat[0]
    if all(isinstance(t, ScalarLiteral) for t in flat):
        return ScalarLiteral(reduce(op, (t.value for t in flat), unit))
    return kind(tuple(flat))


def make_sum(terms):
    return _flat(Sum, terms, add, RF_ZERO)


def make_product(factors):
    return _flat(Product, factors, mul, RF_ONE)


def num_den(x):
    """The numerator and denominator of a scalar; a LaurentPoly is over 1."""
    return (x, _ONE_P) if type(x) is LaurentPoly else (x.num, x.den)


def _part(polys):
    # of LaurentPolys: the least and largest q-exponent, the widest span of
    # one, the bits of the l1 norm of all their coefficients, and those of
    # their common denominator, 1; None if all are zero
    polys = list(filter(None, polys))
    if not polys:
        return None
    los = [p.v for p in polys]
    his = [p.v + len(p.c) - 1 for p in polys]
    l1 = sum(map(abs, chain.from_iterable(p.c for p in polys)))
    return min(los), max(his), max(map(sub, his, los)), l1.bit_length(), 1


def size(*values):
    """The size of a scalar (a RatFunc or LaurentPoly), or of one that covers each
    of several: _part of the numerators and of the denominators; None for zero."""
    parts = list(map(num_den, values))
    num = _part([n for n, _ in parts])
    return num and (num, _part([d for _, d in parts]))


def _plus(a, b):
    # parts of p1 + p2 over the common denominator L1 L2 of their coefficients
    lo, hi = min(a[0], b[0]), max(a[1], b[1])
    return (lo, hi, hi - lo, max(a[3] + b[4], b[3] + a[4]) + 1, a[4] + b[4])


def _times(a, b):
    return tuple(map(add, a, b))


def bound(a, op, b, same_den=False):
    """The size of x op y from the sizes a, b of scalars x, y: op is '*',
    '+' (same_den if x and y have one denominator) or '^', where b is the
    exponent and a the size of x (of 1/x if b < 0)."""
    if a is None or b is None:
        return (a or b) if op == "+" else None
    if op == "^":
        return tuple(tuple(abs(b) * x for x in part) for part in a)
    (an, ad), (bn, bd) = a, b
    if op == "*":
        return (_times(an, bn), _times(ad, bd))
    if same_den:
        return (_plus(an, bn), ad)
    return (_plus(_times(an, bd), _times(bn, ad)), _times(ad, bd))


def _exponent_size(e):
    # size(q_power(e)), read off without building q^e
    return ((e, e, 0, 1, 1), (0, 0, 0, 1, 1))


def check(size, work=0, pos=None):
    """Raise BudgetError when a size or an amount of work passes the budget."""
    (lo, hi, _, *bits), (_, dhi, _, *dbits) = size or ((0,) * 5,) * 2
    for what, value, cap in (("exponent", max(hi, -lo, dhi), MAX_EXPONENT),
                             ("coefficient size in bits", max(bits + dbits), MAX_POWER_BITS),
                             ("work in units", work, MAX_WORK)):
        if value > cap:
            raise BudgetError("%s %d exceeds the budget of %d" % (what, value, cap), pos)


def _fold(acc, t, op, pos):
    # acc op each scalar of t, or of t's terms ('+') or factors ('*'), each
    # checked before it is computed
    kind, parts = (Sum, "terms") if op == "+" else (Product, "factors")
    for g in getattr(t, parts) if isinstance(t, kind) else (t,):
        if isinstance(g, ScalarLiteral):
            check(bound(size(acc), op, size(g.value), acc.den == g.value.den), pos=pos)
            acc = acc + g.value if op == "+" else acc * g.value
    return acc


def make_power(base, e, pos=0):
    if isinstance(base, IntPower) and e > 0:
        base, e = base.base, base.exp * e  # (b^m)^n = b^(mn)
    check(_exponent_size(e), pos=pos)
    if isinstance(base, ScalarLiteral):
        if e < 0 and base.value.is_zero():
            raise ParseError("zero raised to a negative power", pos)
        v = base.value
        check(bound(size(v if e >= 0 else v.inverse()), "^", e), pos=pos)
        return ScalarLiteral(v ** e)
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


def _tokenize(text, words=None):
    # words: the pattern of a word of the operator alphabet, when it is active
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if "0" <= ch <= "9":  # str.isdigit() also holds for digits that int() refuses (²)
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            run = text[i:j].lstrip("0") or "0"
            if len(run) > _MAX_DIGITS:
                raise BudgetError("integer literal of %d digits exceeds the budget of %d"
                                  % (len(run), _MAX_DIGITS), i + 1)
            toks.append(("int", int(run), i + 1))
            i = j
            continue
        if ch.isalpha():
            word = words and words.match(text, i)
            if word:
                toks.append(("leaf", word[0], i + 1))
                i = word.end()
                continue
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
        self.toks = _tokenize(text, _OPERATOR_WORD if presentation == _OPERATORS else None)
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
        acc = _fold(RF_ZERO, terms[0], "+", None)  # the sum of the scalar terms
        while self.peek()[0] in ("+", "-"):
            op, _, oppos = self.advance()
            t = self.term()
            t = make_negate(t) if op == "-" else t
            acc = _fold(acc, t, "+", oppos)
            terms.append(t)
        if all(isinstance(t, ScalarLiteral) for t in terms):
            return ScalarLiteral(acc)
        return make_sum(terms)

    def term(self):
        if self.peek()[0] == "-":
            _, _, pos = self.advance()
            return make_negate(self.nested(self.term, pos))
        factors = [self.factor()]
        acc = _fold(RF_ONE, factors[0], "*", None)  # the product of the scalar factors
        while self.peek()[0] in ("*", "/"):
            op, _, oppos = self.advance()
            f = self.factor()
            if op == "/":
                if not isinstance(f, ScalarLiteral):
                    raise ParseError("division requires a scalar divisor", oppos)
                if f.value.is_zero():
                    raise ParseError("division by zero", oppos)
                f = ScalarLiteral(f.value.inverse())
            acc = _fold(acc, f, "*", oppos)
            factors.append(f)
        if all(isinstance(f, ScalarLiteral) for f in factors):
            return ScalarLiteral(acc)
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
            check(_exponent_size(chain), pos=cpos)
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
        if kind == "leaf":
            return Generator(self.presentation, val)
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


def _wrapped(expr, kinds):
    # render(expr), in parentheses if it is one of kinds
    return "(%s)" % render(expr) if isinstance(expr, kinds) else render(expr)


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
        return "-" + _wrapped(expr.child, Sum)
    if isinstance(expr, Product):
        return "*".join(_wrapped(f, (Sum, Negate)) for f in expr.factors)
    if isinstance(expr, Sum):
        text = ""
        for t in expr.terms:
            if isinstance(t, Negate):
                minus, body = True, _wrapped(t.child, Sum)
            elif isinstance(t, ScalarLiteral) and t.value.leading_negative():
                minus, body = True, _scalar_str(-t.value)
            else:
                minus, body = False, _wrapped(t, Sum)
            text += ((" - " if minus else " + ") if text else ("-" if minus else "")) + body
        return text
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
    if isinstance(expr, (Sum, Product)):  # left to right
        return reduce(add if isinstance(expr, Sum) else mul,
                      (fold(t, scalar, generator) for t in expr.items))
    if isinstance(expr, IntPower):
        return fold(expr.base, scalar, generator) ** expr.exp
    raise TypeError("not an NCExpr node: %r" % (expr,))
