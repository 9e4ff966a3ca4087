"""Exact output checks for the benchmark workloads.

The normal-form oracle shares no code with uqsl2. It builds its own
matrices of k, k^-1, e, f on L(n, eps) over Fraction at a rational q0,
maps the equitable letters through the presentation isomorphism

    x = k,  x^-1 = k^-1,  y = k^-1 + (q - q^-1) f,  z = k^-1 - q (q - q^-1) k^-1 e,

and evaluates the normal form, written out from its terms, with its own
small parser. An input word and its normal form are equal in the algebra
only if their matrices agree on every module, so a mismatch is a wrong
output.

The verify oracles compare the reported rows with the row counts and
sha256 digests recorded in ``expected.json``. The digest is taken over the
sorted (identity, module) pairs, so it does not depend on row order.
"""

import hashlib
import json
import os
import re
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))

# Modules and point at which normal forms are checked. Every
# denominator in Q(q) that uqsl2 prints is a product of q-integers, whose
# roots are roots of unity, so no rational q0 other than 0, 1, -1 is a pole.
NORMAL_FORM_MODULES = ((3, 1), (4, -1))
NORMAL_FORM_Q0 = Fraction(7, 5)


def load_expected():
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)


# --- sparse matrices over Fraction ---------------------------------------------
# A matrix is a dict {(row, col): nonzero Fraction}; a scalar is a Fraction.

def _qint(m, q0):
    return sum((q0 ** e for e in range(m - 1, -m, -2)), Fraction(0))


def _identity(dim):
    return {(i, i): Fraction(1) for i in range(dim)}


def matmul(a, b):
    rows = {}
    for (t, j), y in b.items():
        rows.setdefault(t, []).append((j, y))
    out = {}
    for (i, t), x in a.items():
        for j, y in rows.get(t, ()):
            out[i, j] = out.get((i, j), 0) + x * y
    return {k: v for k, v in out.items() if v}


def _add(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def _scale(a, c):
    return {k: v * c for k, v in a.items()} if c else {}


def chevalley_matrices(modules, q0):
    """k, k^-1, e, f on the direct sum of the modules L(n, eps), where
    k v_i = eps q^(n-2i) v_i, f v_i = [i+1] v_(i+1), e v_i = eps [n-i+1] v_(i-1)."""
    k, kinv, e, f = {}, {}, {}, {}
    off = 0
    for n, eps in modules:
        for i in range(n + 1):
            k[off + i, off + i] = eps * q0 ** (n - 2 * i)
            kinv[off + i, off + i] = eps * q0 ** (2 * i - n)
            if i < n:
                f[off + i + 1, off + i] = _qint(i + 1, q0)
            if i > 0:
                e[off + i - 1, off + i] = eps * _qint(n - i + 1, q0)
        off += n + 1
    return {"k": k, "k^-1": kinv, "e": e, "f": f}


def letter_matrices(modules, q0):
    """Matrices of all eight letters, the equitable ones through the isomorphism."""
    mats = chevalley_matrices(modules, q0)
    qmqi = q0 - 1 / q0
    kinv = mats["k^-1"]
    mats["x"] = mats["k"]
    mats["x^-1"] = kinv
    mats["y"] = _add(kinv, _scale(mats["f"], qmqi))
    mats["z"] = _add(kinv, _scale(matmul(kinv, mats["e"]), -q0 * qmqi))
    return mats


# --- evaluator for printed expressions --------------------------------------

_TOKEN = re.compile(r"\d+|[qefk]|\S")


class PrintedFormError(ValueError):
    """The printed normal form is not a well-formed Chevalley expression."""


class _Evaluator:
    """Recursive descent over the uqsl2 expression grammar

        expr := term (('+' | '-') term)*      term := '-' term | factor (('*' | '/') factor)*
        factor := atom ('^' ['-'] INT)*       atom := '(' expr ')' | INT | q | e | f | k

    evaluated on the module. Scalars are Fractions and other values are
    matrices. A generator power is kept as a key (name, exp) until it meets
    a matrix, so a PBW monomial f^a*k^b*e^c is a key chain whose product is
    cached across terms and words.
    """

    def __init__(self, text, mats, q0, monomials):
        self.tokens = _TOKEN.findall(text)
        self.i = 0
        self.mats, self.q0, self.monomials = mats, q0, monomials
        self.dim = 1 + max(i for i, _ in mats["k"])

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self, sym):
        if self.i < len(self.tokens) and self.tokens[self.i] == sym:
            self.i += 1
            return True
        return False

    def run(self):
        value = self.expr()
        if self.i != len(self.tokens):
            raise PrintedFormError("trailing input at token %d" % self.i)
        return self.as_matrix(value)

    def as_matrix(self, v):
        return _scale(_identity(self.dim), v) if isinstance(v, Fraction) else v

    def expr(self):
        value = self.term()
        while True:
            if self.take("+"):
                sign = 1
            elif self.take("-"):
                sign = -1
            else:
                return value
            b = self.term()
            if isinstance(value, Fraction) and isinstance(b, Fraction):
                value = value + sign * b
            else:
                value = _add(self.as_matrix(value), _scale(self.as_matrix(b), sign))

    def term(self):
        if self.take("-"):
            value = self.term()
            return -value if isinstance(value, Fraction) else _scale(value, -1)
        # scalars commute with everything: keep one scalar and the ordered
        # matrix factors, as a key chain for as long as they are generators
        scalar, chain, matrix = Fraction(1), (), None
        op = "*"
        while op:
            f = self.factor()
            if op == "/":
                if not isinstance(f, Fraction) or not f:
                    raise PrintedFormError("division by a non-scalar or zero")
                scalar /= f
            elif isinstance(f, Fraction):
                scalar *= f
            elif isinstance(f, tuple) and matrix is None:
                chain += (f,)
            else:
                if matrix is None:
                    matrix = self.monomial(chain)
                matrix = matmul(matrix, self.monomial((f,)) if isinstance(f, tuple) else f)
            op = "*" if self.take("*") else "/" if self.take("/") else None
        if matrix is None:
            if not chain:
                return scalar
            matrix = self.monomial(chain)
        return _scale(matrix, scalar)

    def monomial(self, chain):
        """Product of generator powers ((name, exp), ...), cached across calls."""
        m = self.monomials.get(chain)
        if m is None:
            if not chain:
                m = _identity(self.dim)
            elif len(chain) == 1:
                name, exp = chain[0]
                m = self.power(self.mats[name], exp)
            else:
                m = matmul(self.monomial(chain[:-1]), self.monomial(chain[-1:]))
            self.monomials[chain] = m
        return m

    def factor(self):
        base = self.atom()
        while self.take("^"):
            sign = -1 if self.take("-") else 1
            exp = self.peek()
            if exp is None or not exp.isdigit():
                raise PrintedFormError("exponent expected")
            self.i += 1
            exp = sign * int(exp)
            if isinstance(base, tuple):
                base = (base[0], base[1] * exp)
            else:
                base = self.power(base, exp)
        return base

    def power(self, base, exp):
        if isinstance(base, Fraction):
            return base ** exp
        if exp < 0:
            if any(i != j for i, j in base) or len(base) != self.dim:
                raise PrintedFormError("negative power of a non-invertible diagonal")
            base, exp = {k: 1 / v for k, v in base.items()}, -exp
        out = _identity(self.dim)
        for _ in range(exp):
            out = matmul(out, base)
        return out

    def atom(self):
        tok = self.peek()
        self.i += 1
        if tok is None:
            raise PrintedFormError("unexpected end of input")
        if tok.isdigit():
            return Fraction(int(tok))
        if tok == "q":
            return self.q0
        if tok in ("e", "f", "k"):
            return (tok, 1)
        if tok == "(":
            value = self.expr()
            if not self.take(")"):
                raise PrintedFormError("missing ')'")
            return value
        raise PrintedFormError("unexpected token %r" % (tok,))


def terms_text(terms):
    """A Chevalley expression for normal-form terms [a, b, c, coefficient],
    each term written as (coefficient)*f^a*k^b*e^c."""
    parts = []
    for a, b, c, coeff in terms:
        factors = ["(%s)" % coeff]
        factors += ["%s^%d" % (g, x) for g, x in (("f", a), ("k", b), ("e", c)) if x]
        parts.append("*".join(factors))
    return " + ".join(parts) or "0"


def word_matrix(letters, mats):
    out = _identity(1 + max(i for i, _ in mats["k"]))
    for letter in letters:
        out = matmul(out, mats[letter])
    return out


class NormalFormOracle:
    """Checks exactly at q0 that a written-out normal form equals its input word."""

    def __init__(self, modules=NORMAL_FORM_MODULES, q0=NORMAL_FORM_Q0):
        self.q0 = q0
        self.mats = letter_matrices(modules, q0)
        self._monomials = {}
        self._verdicts = {}

    def printed_matrix(self, text):
        """Matrix of a printed Chevalley expression on the oracle's module."""
        return _Evaluator(text, self.mats, self.q0, self._monomials).run()

    def check(self, letters, printed):
        """True when ``printed`` evaluates to the word's matrix on every module."""
        key = (tuple(letters), printed)
        verdict = self._verdicts.get(key)
        if verdict is None:
            try:
                verdict = self.printed_matrix(printed) == word_matrix(letters, self.mats)
            except (PrintedFormError, ZeroDivisionError, KeyError):
                verdict = False
            self._verdicts[key] = verdict
        return verdict


# --- verify-report rows ------------------------------------------------------

def row_key(row):
    return [row["identity"], json.dumps(row["module"], sort_keys=True)]


def rows_digest(rows):
    """sha256 of the sorted (identity, module) pairs of report rows."""
    keys = sorted(row_key(r) for r in rows)
    blob = json.dumps(keys, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def check_rows(rows, checks, digest):
    """Failed rows of one verify output: every row that did not pass, or all
    ``checks`` rows when the row set differs from the recorded one."""
    failed = sum(1 for r in rows if r.get("status") != "pass")
    if len(rows) != checks or rows_digest(rows) != digest:
        return max(failed, checks)
    return failed
