"""Finite-dimensional simple modules L(n, eps) with exact matrix arithmetic.

L(n, eps) has basis v_0..v_n; the Chevalley action is

    k v_i = eps q^(n-2i) v_i,   f v_i = [i+1] v_{i+1},   e v_i = eps [n-i+1] v_{i-1}

(with f v_n = 0, e v_0 = 0).  The equitable action is written on the basis
u_i = gamma_i v_i with gamma_0 = 1, gamma_i = -eps q^(n-i) gamma_{i-1}:

    x u_i = eps q^(n-2i) u_i,
    y u_i = eps q^(2i-n) u_i + eps (q^-n - q^(2i+2-n)) u_{i+1},
    z u_i = eps q^(2i-n) u_i + eps (q^n - q^(2i-2-n)) u_{i-1}.

Matrices act on column vectors: the matrix of g holds g(u_j) in column j.

Each (module, point) has one lazy environment, ``_ModuleEnv``, whose entries
are each built by one recipe the first time they are read, then kept: the
specialized generators and ``I`` (read by the module suite on either basis),
``y^-1`` and ``z^-1`` (its invertibility rows) and the six ordered products
``x*y``, ``y*x``, ``y*z``, ``z*y``, ``z*x``, ``x*z`` (its three defining
relations).  ``qexpops._OperatorEnv`` extends it with the operator recipes,
whose n-element sides read the same products, so ``uqsl2 verify`` forms each
product and each inverse once per (module, point).
"""

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from .ncore import equitable_image
from .qfield import (CQ, RF_ONE, RF_ZERO, LaurentPoly, RatFunc, check_admissible,
                     laurent_matmul, q_power, qint)
from .report import VerificationReport, check

CHEVALLEY_GENS = ("k", "k^-1", "e", "f")
EQUITABLE_GENS = ("x", "x^-1", "y", "z")


class Matrix:
    """Dense matrix over an exact ring (Q(q) elements or Fractions)."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = [list(r) for r in rows]
        if not rows or any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("matrix rows must be nonempty and rectangular")
        self.rows = rows

    @classmethod
    def identity(cls, dim, one=RF_ONE):
        zero = one - one
        return cls([[one if i == j else zero for j in range(dim)] for i in range(dim)])

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0])

    def _one_like(self):
        return self.rows[0][0] * 0 + 1

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.rows == other.rows

    def __neg__(self):
        return Matrix([[-x for x in row] for row in self.rows])

    def _check_same_shape(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("matrix dimensions do not match")

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_same_shape(other)
        return Matrix([[a + b for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_same_shape(other)
        return Matrix([[a - b for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self.rows, other.rows)])

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError("matrix dimensions do not match")
        packed = laurent_matmul(self.rows, other.rows)
        if packed is not None:
            return Matrix(packed)
        zero = self.rows[0][0] * 0
        orows = other.rows
        out = []
        for row in self.rows:
            acc = [zero] * other.ncols
            for t, a in enumerate(row):
                if not a:
                    continue
                orow = orows[t]
                for c, b in enumerate(orow):
                    if b:
                        acc[c] = acc[c] + a * b
            out.append(acc)
        return Matrix(out)

    def scalar_mul(self, c):
        return Matrix([[x * c for x in row] for row in self.rows])

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("matrix power wants a nonnegative integer")
        result = Matrix.identity(self.nrows, self._one_like())
        base = self
        for _ in range(n):
            result = result * base
        return result

    def is_zero(self):
        return all(not x for row in self.rows for x in row)

    def is_diagonal(self):
        return all(not x for i, row in enumerate(self.rows)
                   for j, x in enumerate(row) if i != j)

    def is_lower_triangular(self):
        return all(not x for i, row in enumerate(self.rows)
                   for j, x in enumerate(row) if j > i)

    def is_upper_triangular(self):
        return all(not x for i, row in enumerate(self.rows)
                   for j, x in enumerate(row) if j < i)

    def diagonal(self):
        return [self.rows[i][i] for i in range(min(self.nrows, self.ncols))]

    def inverse(self):
        """Inverse by exact Gauss-Jordan elimination; raises on singular input."""
        n = self.nrows
        if n != self.ncols:
            raise ValueError("only square matrices have inverses")
        one = self._one_like()
        zero = one - one
        a = [[one * x for x in row] for row in self.rows]
        inv = [[one if i == j else zero for j in range(n)] for i in range(n)]
        for col in range(n):
            piv = next((r for r in range(col, n) if a[r][col]), None)
            if piv is None:
                raise ZeroDivisionError("matrix is singular")
            if piv != col:
                a[col], a[piv] = a[piv], a[col]
                inv[col], inv[piv] = inv[piv], inv[col]
            p = a[col][col]
            pinv = one / p
            a[col] = [x * pinv for x in a[col]]
            inv[col] = [x * pinv for x in inv[col]]
            for r in range(n):
                if r == col or not a[r][col]:
                    continue
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
                inv[r] = [x - factor * y for x, y in zip(inv[r], inv[col])]
        return Matrix(inv)

    def map_entries(self, fn):
        return Matrix([[fn(x) for x in row] for row in self.rows])

    def to_strings(self):
        return [[str(x) for x in row] for row in self.rows]

    def __str__(self):
        return "[%s]" % ", ".join(
            "[%s]" % ", ".join(str(x) for x in row) for row in self.rows)

    def __repr__(self):
        return "Matrix(%s)" % self


def matrix_witness(lhs, rhs):
    """None when the matrices are equal, else a failure witness naming the
    first differing entry (i, j) and the entry on each side."""
    if (lhs.nrows, lhs.ncols) != (rhs.nrows, rhs.ncols):
        return "shapes %dx%d and %dx%d differ" % (lhs.nrows, lhs.ncols,
                                                  rhs.nrows, rhs.ncols)
    for i, (r1, r2) in enumerate(zip(lhs.rows, rhs.rows)):
        if r1 != r2:
            j = next(j for j, (a, b) in enumerate(zip(r1, r2)) if a != b)
            return "first difference at (%d, %d): lhs %s, rhs %s" % (
                i, j, r1[j], r2[j])
    return None


def direct_sum_matrices(blocks):
    """Block-diagonal assembly of square matrices."""
    dim = sum(b.nrows for b in blocks)
    zero = blocks[0].rows[0][0] * 0
    rows = [[zero] * dim for _ in range(dim)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b.rows):
            rows[off + i][off : off + b.ncols] = row
        off += b.nrows
    return Matrix(rows)


@dataclass(frozen=True)
class ModuleSpec:
    """A direct sum of simple modules L(n, eps), n >= 0, eps = +-1."""

    summands: tuple

    def __post_init__(self):
        summands = tuple((int(n), int(eps)) for n, eps in self.summands)
        for n, eps in summands:
            if n < 0:
                raise ValueError("n must be nonnegative, got %d" % n)
            if eps not in (1, -1):
                raise ValueError("eps must be +1 or -1, got %r" % (eps,))
        if not summands:
            raise ValueError("a module needs at least one summand")
        object.__setattr__(self, "summands", summands)

    @classmethod
    def single(cls, n, eps):
        return cls(((n, eps),))

    @property
    def dim(self):
        return sum(n + 1 for n, _ in self.summands)

    @property
    def is_single(self):
        return len(self.summands) == 1

    def blocks(self):
        """Yield (offset, n, eps) for each summand."""
        off = 0
        for n, eps in self.summands:
            yield off, n, eps
            off += n + 1

    def json_obj(self):
        if self.is_single:
            n, eps = self.summands[0]
            return {"n": n, "eps": eps}
        return {"summands": [{"n": n, "eps": eps} for n, eps in self.summands]}

    def label(self):
        return "+".join("L(%d,%+d)" % (n, eps) for n, eps in self.summands)


@dataclass
class Rep:
    """A module with its generator matrices in one fixed basis."""

    spec: ModuleSpec
    basis: str
    action: dict

    @property
    def dim(self):
        return self.spec.dim


def _chev_block(n, eps):
    dim = n + 1
    K = [[RF_ZERO] * dim for _ in range(dim)]
    Kinv = [[RF_ZERO] * dim for _ in range(dim)]
    E = [[RF_ZERO] * dim for _ in range(dim)]
    F = [[RF_ZERO] * dim for _ in range(dim)]
    for i in range(dim):
        K[i][i] = q_power(n - 2 * i) * eps
        Kinv[i][i] = q_power(2 * i - n) * eps
        if i < n:
            F[i + 1][i] = RatFunc(qint(i + 1))
        if i > 0:
            E[i - 1][i] = RatFunc(qint(n - i + 1)) * eps
    return {"k": Matrix(K), "k^-1": Matrix(Kinv), "e": Matrix(E), "f": Matrix(F)}


def _equit_block(n, eps):
    dim = n + 1
    X = [[RF_ZERO] * dim for _ in range(dim)]
    Xinv = [[RF_ZERO] * dim for _ in range(dim)]
    Y = [[RF_ZERO] * dim for _ in range(dim)]
    Z = [[RF_ZERO] * dim for _ in range(dim)]
    for i in range(dim):
        X[i][i] = q_power(n - 2 * i) * eps
        Xinv[i][i] = q_power(2 * i - n) * eps
        Y[i][i] = q_power(2 * i - n) * eps
        Z[i][i] = q_power(2 * i - n) * eps
        if i < n:
            Y[i + 1][i] = (q_power(-n) - q_power(2 * i + 2 - n)) * eps
        if i > 0:
            Z[i - 1][i] = (q_power(n) - q_power(2 * i - 2 - n)) * eps
    return {"x": Matrix(X), "x^-1": Matrix(Xinv), "y": Matrix(Y), "z": Matrix(Z)}


def build_chevalley(spec):
    """Chevalley-basis matrices of k, k^-1, e, f on the given module."""
    blocks = [_chev_block(n, eps) for n, eps in spec.summands]
    action = {g: direct_sum_matrices([b[g] for b in blocks]) for g in CHEVALLEY_GENS}
    return Rep(spec=spec, basis="chevalley", action=action)


def build_equitable(spec):
    """Equitable-basis matrices of x, x^-1, y, z on the given module."""
    blocks = [_equit_block(n, eps) for n, eps in spec.summands]
    action = {g: direct_sum_matrices([b[g] for b in blocks]) for g in EQUITABLE_GENS}
    return Rep(spec=spec, basis="equitable", action=action)


def change_of_basis(spec):
    """Diagonal matrix D with u_i = D_ii v_i relating the two bases blockwise."""
    entries = []
    for n, eps in spec.summands:
        gamma = RF_ONE
        entries.append(gamma)
        for i in range(1, n + 1):
            gamma = gamma * (q_power(n - i) * (-eps))
            entries.append(gamma)
    dim = len(entries)
    return Matrix([[entries[i] if i == j else RF_ZERO for j in range(dim)]
                   for i in range(dim)])


def evaluate(element, rep):
    """Matrix of a PBW-normal-form element on a Chevalley-basis rep."""
    if rep.basis != "chevalley":
        raise ValueError("evaluate wants a chevalley-basis rep; map equitable "
                         "expressions through ncore.from_equitable first")
    dim = rep.dim
    ident = Matrix.identity(dim)
    caches = {g: {0: ident} for g in ("f", "k", "k^-1", "e")}

    def power(gen, m):
        cache = caches[gen]
        if m not in cache:
            cache[m] = power(gen, m - 1) * rep.action[gen]
        return cache[m]

    total = Matrix([[RF_ZERO] * dim for _ in range(dim)])
    for (a, b, c), coeff in element.terms.items():
        m = power("f", a)
        if b:
            m = m * power("k" if b > 0 else "k^-1", abs(b))
        if c:
            m = m * power("e", c)
        total = total + m.scalar_mul(coeff)
    return total


@dataclass(frozen=True)
class WeightSpace:
    eps: int
    weight: int
    columns: tuple


def weight_spaces(rep):
    """Group basis columns by the eigenvalue eps*q^weight of x (or k)."""
    gen = "x" if rep.basis == "equitable" else "k"
    m = rep.action[gen]
    if not m.is_diagonal():
        raise ValueError("%s does not act diagonally in this basis" % gen)
    groups = {}
    order = []
    for col, entry in enumerate(m.diagonal()):
        sp = entry.as_sign_q_power()
        if sp is None:
            raise ValueError("eigenvalue %s is not of the form +-q^m" % entry)
        if sp not in groups:
            groups[sp] = []
            order.append(sp)
        groups[sp].append(col)
    return [WeightSpace(eps=sgn, weight=e, columns=tuple(groups[(sgn, e)]))
            for sgn, e in order]


class ScalarContext:
    """Adapter so identity checks run symbolically or at a rational q0."""

    def __init__(self, q0=None):
        if q0 is not None:
            check_admissible(q0)
        self.q0 = q0
        self.one = RF_ONE if q0 is None else Fraction(1)

    def scal(self, v):
        if self.q0 is None:
            return v if isinstance(v, RatFunc) else RatFunc(v)
        if isinstance(v, (RatFunc, LaurentPoly)):
            return v.evaluate(self.q0)
        return Fraction(v)

    def matrix(self, m):
        if self.q0 is None:
            return m
        return m.map_entries(lambda x: x.evaluate(self.q0))


def _recipe_index(table):
    """{keys: recipe} -> {key: (keys, recipe)}; one recipe builds all its keys."""
    return {key: (keys, recipe) for keys, recipe in table.items() for key in keys}


def _module_recipes():
    # key -> (the keys one recipe builds, the recipe: env -> their values in order)
    table = {("I",): lambda env: [Matrix.identity(env["rep"].dim, env["sc"].one)]}
    for g in EQUITABLE_GENS + CHEVALLEY_GENS:
        table[g,] = lambda env, g=g: [env["sc"].matrix(env["rep"].action[g])]
    for a in ("y", "z"):
        table[a + "^-1",] = lambda env, a=a: [env[a].inverse()]
    for a, b in permutations("xyz", 2):
        table[a + "*" + b,] = lambda env, a=a, b=b: [env[a] * env[b]]
    return _recipe_index(table)


class _ModuleEnv(dict):
    """The matrices of one module over Q(q) or at q = q0, each built by its
    recipe in ``recipes`` when first read, then kept (see the module
    docstring for the entries and their readers)."""

    recipes = _module_recipes()

    def __init__(self, rep, q0=None):
        super().__init__(rep=rep, spec=rep.spec, sc=ScalarContext(q0))

    def __missing__(self, key):
        keys, recipe = self.recipes[key]
        self.update(zip(keys, recipe(self)))
        return self[key]


def _eig_multiset(values):
    counts = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    return counts


def _module_report(env):
    """The rows of verify_module_suite for the module ``env`` was built on."""
    rep, spec, sc = env["rep"], env["spec"], env["sc"]
    mod = spec.json_obj()
    ident = env["I"]
    cq = sc.scal(CQ)
    qq, qi = sc.scal(q_power(1)), sc.scal(q_power(-1))
    # the diagonal of y and z, eps q^(2i-n) blockwise; as a multiset it is
    # also the spectrum eps q^(n-2i) of x and of k
    low_diag = [sc.scal(q_power(2 * i - n) * eps)
                for _, n, eps in spec.blocks() for i in range(n + 1)]
    expected = _eig_multiset(low_diag)
    entries = []
    if rep.basis == "chevalley":
        K, Kinv, E, F = (env[g] for g in CHEVALLEY_GENS)
        entries.append(check("module:chevalley:k*k^-1=k^-1*k=1", mod,
                             K * Kinv == ident and Kinv * K == ident))
        entries.append(check("module:chevalley:k*e=q^2*e*k", mod,
                             K * E == (E * K).scalar_mul(sc.scal(q_power(2)))))
        entries.append(check("module:chevalley:k*f=q^-2*f*k", mod,
                             K * F == (F * K).scalar_mul(sc.scal(q_power(-2)))))
        entries.append(check("module:chevalley:e*f-f*e=(k-k^-1)/(q-q^-1)", mod,
                             E * F - F * E == (K - Kinv).scalar_mul(cq)))
        actual = _eig_multiset(K.diagonal()) if K.is_diagonal() else None
        entries.append(check("module:eigenvalues:k", mod, actual == expected))
        return VerificationReport(entries)

    X, Xinv, Y, Z = (env[g] for g in EQUITABLE_GENS)
    entries.append(check("module:equitable:x*x^-1=x^-1*x=1", mod,
                         X * Xinv == ident and Xinv * X == ident))
    for a, b in (("x", "y"), ("y", "z"), ("z", "x")):
        lhs = (env[a + "*" + b].scalar_mul(qq)
               - env[b + "*" + a].scalar_mul(qi)).scalar_mul(cq)
        entries.append(check(
            "module:equitable:(q*%s*%s-q^-1*%s*%s)/(q-q^-1)=1" % (a, b, b, a),
            mod, lhs == ident))
    entries.append(check("module:eigenvalues:x", mod,
                         X.is_diagonal() and _eig_multiset(X.diagonal()) == expected))
    entries.append(check("module:eigenvalues:y", mod,
                         Y.is_lower_triangular() and Y.diagonal() == low_diag))
    entries.append(check("module:eigenvalues:z", mod,
                         Z.is_upper_triangular() and Z.diagonal() == low_diag))
    for name in ("y", "z"):
        try:
            Minv = env[name + "^-1"]
            ok = env[name] * Minv == ident
            if ok and sc.q0 is None:
                # determinant is +-1, so the inverse has Laurent entries
                ok = all(x.is_polynomial() for row in Minv.rows for x in row)
        except ZeroDivisionError:
            ok = False
        entries.append(check("module:invertible:%s" % name, mod, ok))
    zero = sc.one - sc.one
    for off, n, eps in spec.blocks():
        u = Matrix([[sc.one if off <= i <= off + n else zero]
                    for i in range(rep.dim)])
        block = {"n": n, "eps": eps}
        entries.append(check("module:note:y*u=eps*q^-n*u", block,
                             Y * u == u.scalar_mul(sc.scal(q_power(-n) * eps))))
        entries.append(check("module:note:z*u=eps*q^n*u", block,
                             Z * u == u.scalar_mul(sc.scal(q_power(n) * eps))))
    return VerificationReport(entries)


def verify_module_suite(rep, q0=None):
    """Check defining relations, eigenvalues, invertibility, and sum vectors."""
    return _module_report(_ModuleEnv(rep, q0))


def verify_basis_change(spec, q0=None):
    """Conjugation by the basis-change matrix maps Chevalley images to equitable."""
    sc = ScalarContext(q0)
    chev = build_chevalley(spec)
    equit = build_equitable(spec)
    D = sc.matrix(change_of_basis(spec))
    Dinv = D.inverse()
    mod = spec.json_obj()
    entries = []
    for g in EQUITABLE_GENS:
        m_chev = sc.matrix(evaluate(equitable_image(g), chev))
        lhs = Dinv * m_chev * D
        rhs = sc.matrix(equit.action[g])
        witness = matrix_witness(lhs, rhs)
        entries.append(check("module:basis-change:%s" % g, mod, witness is None,
                             witness=witness))
    return VerificationReport(entries)


# --- matrix emission -------------------------------------------------------

def matrix_json_obj(spec, basis, generator, matrix):
    if not spec.is_single:
        raise ValueError("matrix JSON is defined for a single L(n,eps)")
    n, eps = spec.summands[0]
    return {"n": n, "eps": eps, "basis": basis, "generator": generator,
            "entries": matrix.to_strings()}


def json_bytes(obj):
    """Byte-stable JSON encoding used for all machine output."""
    return (json.dumps(obj, indent=2) + "\n").encode("utf-8")


def matrix_csv(matrix):
    return "".join(",".join(row) + "\n" for row in matrix.to_strings())


_RAT_SPLIT = re.compile(r"^\((.*)\)/\((.*)\)$")
_QPOW = re.compile(r"q\^(-?\d+)")


def _latex_entry(s):
    m = _RAT_SPLIT.match(s)
    if m:
        return r"\frac{%s}{%s}" % (_latex_entry(m.group(1)), _latex_entry(m.group(2)))
    s = _QPOW.sub(lambda m: "q^{%s}" % m.group(1), s)
    return s.replace("*", r" \, ")


def matrix_latex(matrix):
    strs = matrix.to_strings()
    lines = [r"\begin{array}{%s}" % ("r" * matrix.ncols)]
    for row in strs:
        lines.append(" & ".join(_latex_entry(x) for x in row) + r" \\")
    lines.append(r"\end{array}")
    return "\n".join(lines) + "\n"
