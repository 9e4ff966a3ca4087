"""Finite-dimensional simple modules L(n, eps) with exact matrix arithmetic.

L(n, eps) has basis v_0..v_n; the Chevalley action is

    k v_i = eps q^(n-2i) v_i,   f v_i = [i+1] v_{i+1},   e v_i = eps [n-i+1] v_{i-1}

(with f v_n = 0, e v_0 = 0).  The equitable action is written on the basis
u_i = gamma_i v_i with gamma_0 = 1, gamma_i = -eps q^(n-i) gamma_{i-1}:

    x u_i = eps q^(n-2i) u_i,
    y u_i = eps q^(2i-n) u_i + eps (q^-n - q^(2i+2-n)) u_{i+1},
    z u_i = eps q^(2i-n) u_i + eps (q^n - q^(2i-2-n)) u_{i-1}.

Matrices act on column vectors: the matrix of g holds g(u_j) in column j.

Each module has one lazy environment, ``_ModuleEnv``, whose entries are each
built by one recipe when first read, then kept; ``at(q0)`` derives the env
at a point.  The q0-free inputs (both ``Rep``s, their generators, the basis
change ``D`` and the Chevalley images ``image:g`` of x, x^-1, y, z) are built
once, in the symbolic env; a point env specializes those it reads and forms
``I``, ``D^-1`` (reciprocals of D's diagonal), ``y^-1``, ``z^-1`` and the six
products ``a*b`` of x, y, z at q0.  The equitable, Chevalley and basis-change
reports and the operator recipes of ``qexpops._OperatorEnv`` read one env;
one read only by equitable rows never builds the Chevalley side.  A recipe
that raises (a singular y has no y^-1) raises RecipeError, which names it.
The defining-relation rows fold the text of ``ncore.RELATIONS`` over the
env's generators: a Matrix takes a scalar operand c in ``*``, and in ``+``
and ``-`` as c*I, and a side that folds to a bare scalar c is compared as c*I.
"""

import json
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import accumulate, permutations
from operator import add, mul, sub

from .ncore import RELATIONS, equitable_image, sides
from .qfield import (RF_ONE, RF_ZERO, LaurentPoly, RatFunc, check_admissible,
                     laurent_matmul, q_power, qint)
from .report import ConsistencyError, RecipeError, VerificationReport, check, compare

CHEVALLEY_GENS = ("k", "k^-1", "e", "f")
EQUITABLE_GENS = ("x", "x^-1", "y", "z")
# the entry types of a matrix: a Matrix takes one as a scalar operand
_SCALARS = (int, Fraction, RatFunc)


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
        return cls.diag([one] * dim)

    @classmethod
    def diag(cls, entries):
        zero = entries[0] * 0
        return cls([[x if i == j else zero for j in range(len(entries))]
                    for i, x in enumerate(entries)])

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

    def _entrywise(self, other, op):
        # self op other, entry by entry; a scalar operand c is c*I, which
        # meets the diagonal alone
        if isinstance(other, Matrix):
            self._check_same_shape(other)
            return Matrix([list(map(op, r1, r2)) for r1, r2 in zip(self.rows, other.rows)])
        if not isinstance(other, _SCALARS):
            return NotImplemented
        if self.nrows != self.ncols:
            raise ValueError("a scalar is c*I, which only a square matrix meets")
        rows = [list(r) for r in self.rows]
        for i, row in enumerate(rows):
            row[i] = op(row[i], other)
        return Matrix(rows)

    def __add__(self, other):
        return self._entrywise(other, add)

    def __sub__(self, other):
        return self._entrywise(other, sub)

    __radd__ = __add__

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return self.scalar_mul(other)  # a scalar commutes with every entry
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

    __rmul__ = __mul__  # reached only with a scalar on the left

    def scalar_mul(self, c):
        return Matrix([[x * c if x else x for x in row] for row in self.rows])

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("matrix power wants a nonnegative integer")
        return reduce(mul, [self] * n, Matrix.identity(self.nrows, self._one_like()))

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
        a = [[one * x for x in row] for row in self.rows]
        inv = Matrix.identity(n, one).rows
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
    K = Matrix.diag([q_power(n - 2 * i) * eps for i in range(n + 1)])
    E, F = Matrix.diag([RF_ZERO] * (n + 1)), Matrix.diag([RF_ZERO] * (n + 1))
    for i in range(n):
        E.rows[i][i + 1] = RatFunc(qint(n - i)) * eps
        F.rows[i + 1][i] = RatFunc(qint(i + 1))
    return {"k": K, "k^-1": Matrix.diag(K.diagonal()[::-1]), "e": E, "f": F}


def _equit_block(n, eps):
    low = [q_power(2 * i - n) * eps for i in range(n + 1)]
    Y, Z = Matrix.diag(low), Matrix.diag(low)
    for i in range(n):
        Y.rows[i + 1][i] = (q_power(-n) - q_power(2 * i + 2 - n)) * eps
        Z.rows[i][i + 1] = (q_power(n) - q_power(2 * i - n)) * eps
    return {"x": Matrix.diag(low[::-1]), "x^-1": Matrix.diag(low), "y": Y, "z": Z}


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
    return Matrix.diag([gamma for n, eps in spec.summands for gamma in accumulate(
        (q_power(n - i) * (-eps) for i in range(1, n + 1)), mul, initial=RF_ONE)])


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
    groups = {}  # in order of first appearance
    for col, entry in enumerate(m.diagonal()):
        sp = entry.as_sign_q_power()
        if sp is None:
            raise ValueError("eigenvalue %s is not of the form +-q^m" % entry)
        groups.setdefault(sp, []).append(col)
    return [WeightSpace(eps=sgn, weight=e, columns=tuple(cols))
            for (sgn, e), cols in groups.items()]


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
        return m if self.q0 is None else m.map_entries(lambda x: x.evaluate(self.q0))


def _recipe_index(table):
    """{keys: recipe} -> {key: (keys, recipe)}; one recipe builds all its keys."""
    return {key: (keys, recipe) for keys, recipe in table.items() for key in keys}


def _module_recipes():
    # key -> (the keys one recipe builds, the recipe: env -> their values in order)
    table = {
        ("equitable",): lambda env: [build_equitable(env["spec"])],
        ("chevalley",): lambda env: [build_chevalley(env["spec"])],
        ("I",): lambda env: [Matrix.identity(env["spec"].dim, env["sc"].one)],
        # D is diagonal, so its inverse holds the reciprocals of its diagonal
        ("D^-1",): lambda env: [Matrix.diag([env["sc"].one / d
                                             for d in env["D"].diagonal()])],
    }

    def q0_free(key, build):
        # built once, in the symbolic env, from the Reps that only it reads;
        # a point env specializes that matrix
        table[key,] = lambda env: [build(env) if env.sym is None
                                   else env["sc"].matrix(env.sym[key])]

    for basis, gens in (("equitable", EQUITABLE_GENS), ("chevalley", CHEVALLEY_GENS)):
        for g in gens:
            q0_free(g, lambda env, basis=basis, g=g: env[basis].action[g])
    q0_free("D", lambda env: change_of_basis(env["spec"]))
    for g in EQUITABLE_GENS:
        q0_free("image:" + g,
                lambda env, g=g: evaluate(equitable_image(g), env["chevalley"]))
    for a in ("y", "z"):
        table[a + "^-1",] = lambda env, a=a: [env[a].inverse()]
    for a, b in permutations("xyz", 2):
        table[a + "*" + b,] = lambda env, a=a, b=b: [env[a] * env[b]]
    return _recipe_index(table)


class _ModuleEnv(dict):
    """One module's matrices, symbolic or at a point (see the module docstring)."""

    recipes = _module_recipes()

    def __init__(self, rep):
        super().__init__(rep=rep, spec=rep.spec, sc=ScalarContext(), **{rep.basis: rep})
        self.sym = None  # a point env's symbolic env; None, not self: no cycle

    def at(self, q0):
        """The env at q = q0 (at(None) is the symbolic env) of this module."""
        sym = self if self.sym is None else self.sym
        if q0 is None:
            return sym
        env = dict.__new__(type(self))
        env.update(rep=sym["rep"], spec=sym["spec"], sc=ScalarContext(q0))
        env.sym = sym
        return env

    def __missing__(self, key):
        keys, recipe = self.recipes[key]
        try:
            self.update(zip(keys, recipe(self)))
        except (ZeroDivisionError, ConsistencyError) as err:
            if isinstance(err, RecipeError):
                raise  # the innermost recipe that raised names itself once
            raise RecipeError("%s not built: %s" % (", ".join(keys), err)) from err
        return self[key]


def _low_diag(env):
    # the diagonal eps q^(2i-n) of y and z; as a multiset, the spectrum of x and k
    return [env["sc"].scal(q_power(2 * i - n) * eps)
            for _, n, eps in env["spec"].blocks() for i in range(n + 1)]


def _matrix_sides(env, text, presentation, leaves):
    # each side of text folded over leaves and env's scalars; a side that
    # folds to a bare scalar c is c*I
    return [s if isinstance(s, Matrix) else Matrix.identity(env["spec"].dim, s)
            for s in sides(text, presentation, env["sc"].scal, leaves)]


def _relation_rows(env, basis):
    # the rows of the defining relations of basis, each folded over env's generators
    mod = env["spec"].json_obj()
    return [compare("module:%s:" % basis + text, mod,
                    lambda: _matrix_sides(env, text, basis, env.__getitem__), matrix_witness)
            for text in RELATIONS[basis]]


def _equitable_report(env):
    """The rows of verify_module_suite on the equitable basis of env's module."""
    spec, sc = env["spec"], env["sc"]
    mod = spec.json_obj()
    ident = env["I"]
    low_diag = _low_diag(env)
    X, Y, Z = env["x"], env["y"], env["z"]
    entries = _relation_rows(env, "equitable")
    entries.append(check("module:eigenvalues:x", mod, X.is_diagonal() and
                         Counter(X.diagonal()) == Counter(low_diag)))
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
        except RecipeError:
            ok = False
        entries.append(check("module:invertible:%s" % name, mod, ok))
    zero = sc.one - sc.one
    for off, n, eps in spec.blocks():
        u = Matrix([[sc.one if off <= i <= off + n else zero]
                    for i in range(spec.dim)])
        block = {"n": n, "eps": eps}
        entries.append(compare("module:note:y*u=eps*q^-n*u", block, lambda: (
            Y * u, u.scalar_mul(sc.scal(q_power(-n) * eps))), matrix_witness))
        entries.append(compare("module:note:z*u=eps*q^n*u", block, lambda: (
            Z * u, u.scalar_mul(sc.scal(q_power(n) * eps))), matrix_witness))
    return VerificationReport(entries)


def _chevalley_report(env):
    """The rows of verify_module_suite on the Chevalley basis of env's module."""
    K = env["k"]
    actual = Counter(K.diagonal()) if K.is_diagonal() else None
    return VerificationReport(_relation_rows(env, "chevalley") + [check(
        "module:eigenvalues:k", env["spec"].json_obj(), actual == Counter(_low_diag(env)))])


def _basis_change_report(env):
    """D^-1 (Chevalley image of g) D = g for each equitable generator g."""
    mod = env["spec"].json_obj()
    return VerificationReport([compare(
        "module:basis-change:%s" % g, mod,
        lambda: (env["D^-1"] * env["image:" + g] * env["D"], env[g]), matrix_witness)
        for g in EQUITABLE_GENS])


def verify_module_suite(rep, q0=None):
    """Check defining relations, eigenvalues, invertibility, and sum vectors."""
    report = _chevalley_report if rep.basis == "chevalley" else _equitable_report
    return report(_ModuleEnv(rep).at(q0))


def verify_basis_change(spec, q0=None):
    """Conjugation by the basis-change matrix maps Chevalley images to equitable."""
    return _basis_change_report(_ModuleEnv(build_equitable(spec)).at(q0))


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
