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

Every formula the env turns into a matrix is folded by one reader,
``_Words``, in the env alphabet of exprio, whose leaves are the env keys
(k, k^-1, e, f, x, x^-1, y, z, y^-1, n_x, exp_q(n_x), Psi, Omega, ...): the
defining relations of both bases (``ncore.RELATIONS``), the images
``image:g`` (the text of ``ncore.IMAGES``, over the Chevalley generators),
and the formulas of qexpops.  A word such as x*y or k^-1*e is the env's
product when it has one, else its left prefix times its last leaf, kept
for the length of one report if the report reads it again.  A Matrix takes
a scalar operand c in ``*``, and in ``+`` and ``-`` as c*I, and a side that
folds to a bare scalar c is compared as c*I.

The symbolic env holds every matrix in Z[q, q^-1]: its entries are
qfield.LaurentPoly, taken in once by ``ScalarContext.matrix`` (and its
scalars by ``ScalarContext.scal``), and they leave the ring only to print,
to build a witness, at a point, or through the public API, which returns
RatFunc matrices.  A ring matrix multiplies by qfield.ring_matmul, reading
its RingKernel once, and divides by q^m - 1 exactly (``times_ratio``, and a
scalar lift/(q^m - 1) such as 1/(q - q^-1)); the elimination that inverts
y, z and D divides only by their unit pivots.  A division that is not
exact, or a scalar with another denominator (a broken identity), takes the
matrix out to RatFunc entries, whose row fails with its witness as before.
"""

import json
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import accumulate, chain, permutations
from operator import add, gt, lt, mul, ne, sub

from .exprio import _OPERATORS, EQUITABLE
from .ncore import IMAGES, RELATIONS, sides
from .qfield import (_ONE_P, RF_ONE, RF_ZERO, LaurentPoly, RatFunc, RingKernel,
                     check_admissible, div_q_power_minus_one, q_power, qint, ring_matmul)
from .report import ConsistencyError, RecipeError, VerificationReport, check, compare

CHEVALLEY_GENS = ("k", "k^-1", "e", "f")
EQUITABLE_GENS = ("x", "x^-1", "y", "z")
# the entry types of a matrix: a Matrix takes one as a scalar operand
_SCALARS = (int, Fraction, RatFunc, LaurentPoly)
_RING = (int, LaurentPoly)  # the scalars that keep a ring matrix in the ring


class Matrix:
    """Dense matrix over an exact ring: LaurentPoly entries (a ring matrix),
    RatFunc entries or Fractions (see the module docstring)."""

    __slots__ = ("rows", "_ring", "_kernel")

    def __init__(self, rows):
        rows = [list(r) for r in rows]
        if not rows or any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("matrix rows must be nonempty and rectangular")
        self.rows, self._ring, self._kernel = rows, None, None

    @classmethod
    def _ring_of(cls, rows):
        # the ring matrix of the rows a ring operation built
        m = cls.__new__(cls)
        m.rows, m._ring, m._kernel = rows, True, None
        return m

    @property
    def ring(self):
        """Whether every entry is a LaurentPoly; this and the RingKernel are
        read once, so a matrix is not changed after its first operation."""
        if self._ring is None:
            self._ring = all(type(x) is LaurentPoly for x in chain.from_iterable(self.rows))
        return self._ring

    def kernel(self):
        # what ring_matmul reads of a ring matrix, read off at its first product
        if self._kernel is None:
            self._kernel = RingKernel(self.rows)
        return self._kernel

    def ratfuncs(self):
        """self, with its LaurentPoly entries as RatFuncs."""
        return Matrix([[RF_ONE * x if type(x) is LaurentPoly else x for x in row]
                       for row in self.rows])

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
        rows = [[-x for x in row] for row in self.rows]
        return Matrix._ring_of(rows) if self.ring else Matrix(rows)

    def _check_same_shape(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("matrix dimensions do not match")

    def _entrywise(self, other, op):
        # self op other, entry by entry; a scalar operand c is c*I, which
        # meets the diagonal alone
        if isinstance(other, Matrix):
            self._check_same_shape(other)
            rows = [list(map(op, r1, r2)) for r1, r2 in zip(self.rows, other.rows)]
            return Matrix._ring_of(rows) if self.ring and other.ring else Matrix(rows)
        if not isinstance(other, _SCALARS):
            return NotImplemented
        if self.nrows != self.ncols:
            raise ValueError("a scalar is c*I, which only a square matrix meets")
        rows = [list(r) for r in self.rows]
        for i, row in enumerate(rows):
            row[i] = op(row[i], other)
        return Matrix._ring_of(rows) if self.ring and type(other) in _RING else Matrix(rows)

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
        if self.ring and other.ring:
            return Matrix._ring_of(ring_matmul(self.kernel(), other.kernel(), other.ncols))
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
        if self.ring and type(c) in _RING:
            return Matrix._ring_of([[x * c if x.c else x for x in row] for row in self.rows])
        den = c.den.c if self.ring and type(c) is RatFunc else ()
        if len(den) > 1 and den[0] == -1 and den[-1] == 1 and not any(den[1:-1]):
            return self.times_ratio(c.num, len(den) - 1)  # c = lift/(q^m - 1)
        return Matrix([[x * c if x else x for x in row] for row in self.rows])

    def times_ratio(self, lift, m):
        """self times lift/(q^m - 1), lift a LaurentPoly.  A ring matrix
        divides each entry exactly (div_q_power_minus_one); if one does not
        divide (a broken identity), or self is not a ring matrix, each entry
        takes the RatFunc product."""
        if self.ring:
            rows = [[div_q_power_minus_one(x, m, lift) for x in row] for row in self.rows]
            if all(x is not None for row in rows for x in row):
                return Matrix._ring_of(rows)
        return self.ratfuncs().scalar_mul(RatFunc(lift, LaurentPoly({m: 1, 0: -1})))

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("matrix power wants a nonnegative integer")
        return reduce(mul, [self] * n, Matrix.identity(self.nrows, self._one_like()))

    def is_zero(self):
        return all(not x for row in self.rows for x in row)

    def is_diagonal(self):
        return all(not x for i, row in enumerate(self.rows)
                   for j, x in enumerate(row) if i != j)

    def diagonal(self):
        return [self.rows[i][i] for i in range(min(self.nrows, self.ncols))]

    def inverse(self):
        """Inverse by exact Gauss-Jordan elimination; raises on singular input.
        A ring matrix whose pivots are units +-q^m (the triangular y and z,
        the diagonal D) divides only by units, so its elimination is
        substitution over Z[q, q^-1] and stays in the ring."""
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
    """Adapter so identity checks run symbolically, in Z[q, q^-1] where they
    can, or at a rational q0: scal and matrix take a value in."""

    def __init__(self, q0=None):
        self.q0 = None if q0 is None else check_admissible(q0)  # a Fraction
        self.one = _ONE_P if q0 is None else Fraction(1)

    def scal(self, v):
        """v (a RatFunc, LaurentPoly or number) at q0; symbolically v as a
        LaurentPoly when its denominator is 1, else as a RatFunc."""
        if self.q0 is not None:
            return Fraction(v) if isinstance(v, (int, Fraction)) else v.evaluate(self.q0)
        v = v if type(v) is RatFunc else RF_ONE * v
        return v.num if v.den == 1 else v

    def matrix(self, m):
        """m at q0; symbolically m as a ring matrix when every entry is in
        the ring, else m."""
        if self.q0 is not None:
            return m.map_entries(lambda x: x.evaluate(self.q0))
        rows = [[self.scal(x) for x in row] for row in m.rows]
        ring = all(type(x) is LaurentPoly for row in rows for x in row)
        return Matrix._ring_of(rows) if ring else m


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
        # (units +-q^m, which symbolically stay in the ring)
        ("D^-1",): lambda env: [Matrix.diag([env["sc"].one / d
                                             for d in env["D"].diagonal()])],
    }

    def q0_free(key, build):
        # built once, in the symbolic env, from the Reps that only it reads,
        # and taken into the ring there; a point env specializes that matrix
        table[key,] = lambda env: [env["sc"].matrix(build(env) if env.sym is None
                                                    else env.sym[key])]

    for basis, gens in (("equitable", EQUITABLE_GENS), ("chevalley", CHEVALLEY_GENS)):
        for g in gens:
            q0_free(g, lambda env, basis=basis, g=g: env[basis].action[g])
    q0_free("D", lambda env: change_of_basis(env["spec"]))
    for g in EQUITABLE_GENS:
        q0_free("image:" + g, lambda env, g=g: _matrix_sides(_Words(env), IMAGES[EQUITABLE][g])[0])
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


class _Words(dict):
    """The words that the rows of one report, or one recipe, read (see the
    module docstring), each in keep kept; mod is the module of every row."""

    def __init__(self, env, keep=frozenset()):
        super().__init__()
        self.env, self.keep, self.mod = env, keep, env["spec"].json_obj()

    def __missing__(self, word):
        if "*" not in word or word in self.env.recipes:
            return self.env[word]
        prefix, _, leaf = word.rpartition("*")
        value = self[prefix] * self.env[leaf]
        if word in self.keep:
            self[word] = value
        return value


def _matrix_sides(words, text):
    # each side of text, in the env alphabet, folded over words and the
    # env's scalars; a side that folds to a bare scalar c is c*I
    env = words.env
    return [s if isinstance(s, Matrix) else Matrix.identity(env["spec"].dim, s)
            for s in sides(text, _OPERATORS, env["sc"].scal, words.__getitem__)]


def _relation_rows(words, basis):
    # the rows of the defining relations of basis, each folded over words
    return [compare("module:%s:" % basis + text, words.mod,
                    lambda: _matrix_sides(words, text), matrix_witness)
            for text in RELATIONS[basis]]


def _eigenvalue_row(words, gen, zero_at, ordered, low_diag):
    # the row of gen's eigenvalues: its matrix is 0 wherever zero_at(i, j),
    # and its diagonal is low_diag (_low_diag), in order, or else as a multiset
    m = words.env[gen]
    spectrum, what = ((lambda d: dict(enumerate(d)), "diagonal entry") if ordered
                      else (Counter, "multiplicity of"))
    found, expected = spectrum(m.diagonal()), spectrum(low_diag)
    witness = next(chain(
        ("entry (%d, %d) is %s, not 0" % (i, j, x) for i, row in enumerate(m.rows)
         for j, x in enumerate(row) if x and zero_at(i, j)),
        ("%s %s: %s, expected %s" % (what, key, found.get(key, 0), expected.get(key, 0))
         for key in {**found, **expected} if found.get(key, 0) != expected.get(key, 0))), None)
    return check("module:eigenvalues:" + gen, words.mod, witness is None, witness)


def _invertible_row(words, gen):
    # gen times gen^-1 is I; symbolically gen^-1 also has Laurent entries,
    # as the determinant of gen is +-1
    env, mod, identity, inv = words.env, words.mod, "module:invertible:" + gen, gen + "^-1"
    row = compare(identity, mod, lambda: (env[gen] * env[inv], env["I"]), matrix_witness)
    witness = row.witness or env["sc"].q0 is None and next((
        "entry (%d, %d) of %s is not a Laurent polynomial: %s" % (i, j, inv, x) for i, r
        in enumerate(env[inv].rows) for j, x in enumerate(r) if not x.is_polynomial()), None)
    return check(identity, mod, not witness, witness)


def _equitable_report(env):
    """The rows of verify_module_suite on the equitable basis of env's module."""
    spec, sc = env["spec"], env["sc"]
    Y, Z, words, low_diag = env["y"], env["z"], _Words(env), _low_diag(env)
    entries = _relation_rows(words, "equitable")
    entries += [_eigenvalue_row(words, g, zero_at, ordered, low_diag)
                for g, zero_at, ordered in (("x", ne, False), ("y", lt, True), ("z", gt, True))]
    entries += [_invertible_row(words, g) for g in ("y", "z")]
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
    words = _Words(env)
    return VerificationReport(_relation_rows(words, "chevalley")
                              + [_eigenvalue_row(words, "k", ne, False, _low_diag(env))])


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
