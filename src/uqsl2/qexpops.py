"""Nilpotent n-matrices, q-exponentials, Psi/Omega operators, and their identity suites.

On an equitable-basis module n_x = q(1 - yz)/(q - q^-1) (cyclic in x, y,
z) is nilpotent, so exp_q(T) = sum_i q^(i(i-1)/2)/[i]! T^i and its inverse
are finite sums.  Omega = exp_q(n_z) Psi exp_q(n_y), with Psi diagonal,
rotates x -> y -> z -> x under conjugation, and Omega^3 is central.

OPERATOR_IDENTITIES is the one statement of the operator identities, each
written as the text its row prints after "expq:", "conj:", "psi:" or
"omega:", a family rotated x -> y -> z once, for the x axis
(exprio.rotated); OPERATOR_DEFINITIONS is the one statement of Omega,
Omega^-1 and Omega^3, which their recipes fold and the "closedform:Omega="
row prints.  Each row and recipe folds its text with repmod._matrix_sides,
through the env's one word reader repmod._Words, in the env alphabet of
exprio, and so do the "rewrite:" rows and the n_a recipe, from
ncore.N_DEFINITIONS; report.compare builds the row, with
repmod.matrix_witness.  The leaves are the env keys, spelled as they
print: x, x^-1, y, z, y^-1, z^-1, n_a, exp_q(n_a), exp_q(n_a)^-1, Psi,
Psi^-1, Omega, Omega^-1 and Omega^3.  A word such as exp_q(n_x)*y is the
env's product when it has one (y*z), else its left prefix times its last
leaf, kept for the length of one report if the report reads it again.

``_OperatorEnv`` extends the module environment ``repmod._ModuleEnv`` by one
recipe per operator, built when first read, then kept: n_a, exp_q(n_a) with
its inverse and index idx_a, Psi, Psi^-1, Omega, Omega^-1, Omega^3 and the
scalar matrix Omega^3-scalar.  Symbolically all of them are ring matrices
over Z[q, q^-1] (repmod): Psi and the closed-form matrices enter the ring
through ScalarContext.matrix, and the series and n_a divide exactly, with
no gcd: q^(i-1)/[i] = q^(2i-2)(q^2 - 1)/(q^(2i) - 1) and CQ = q/(q^2 - 1),
so each entry is divided by q^m - 1 in ints (Matrix.times_ratio), and only
a matrix with an entry that does not divide (a broken identity) takes the
RatFunc product; at a point the scalar is one Fraction (_times_ratio).
``uqsl2 verify`` hands the envs of the modules with one list of summand
dimensions (L(n, +1) and L(n, -1), whose n_a agree, or one direct sum) one
store of series, keyed by q0 and the entries of n_a (LaurentPolys, which
hash by value); each row still folds its own module's values, and the raising
API builds its own series, in the ring, and returns RatFunc matrices.
Recipes only build values: each identity is checked in its row, so
``uqsl2 verify`` prints a broken one as a failed row with its witness, as
it does each row that reads a recipe that raises.  The raising API
(``n_matrix``, ``exp_q_inverse``, ``omega``, ``omega_closed_form``, and the
suites for the n_a they read) raises ConsistencyError from the first failed
row its value rests on.  ``omega`` and ``verify_closed_form`` never build
n_x, y^-1 or z^-1.
"""

import re
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

from .exprio import _OPERATOR_LEAF, _OPERATOR_WORD, rotated
from .ncore import N_DEFINITIONS
from .qfield import RF_ZERO, LaurentPoly, RatFunc, q_power, qbinom
from .repmod import (Matrix, ModuleSpec, ScalarContext, _matrix_sides, _ModuleEnv,
                     _recipe_index, _Words, build_equitable, matrix_witness)
from .report import ConsistencyError, VerificationReport, check, compare

_AXES = ("x", "y", "z")

# The operator identities in row order, as (prefix, rotated, texts): the
# rows of a rotated group run on x, then on y and z (x -> y -> z -> x)
OPERATOR_IDENTITIES = (
    ("expq", True, ("exp_q(n_x)*exp_q(n_x)^-1=1",)),
    ("conj", True, ("exp_q(n_x)^-1*z*exp_q(n_x)=y^-1", "exp_q(n_x)*y*exp_q(n_x)^-1=z^-1",
                    "exp_q(n_x)^-1*y*exp_q(n_x)=y*z*y", "exp_q(n_x)*z*exp_q(n_x)^-1=z*y*z",
                    "exp_q(n_x)^-1*x*exp_q(n_x)=x+y-y^-1",
                    "exp_q(n_x)*x*exp_q(n_x)^-1=x+z-z^-1")),
    ("conj", True, ("x*exp_q(n_x)-exp_q(n_x)*x=exp_q(n_x)*y-z*exp_q(n_x)",)),
    ("psi", False, ("Psi^-1*x*Psi=x", "Psi^-1*n_y*Psi=x*n_y*x",
                    "Psi^-1*n_z*Psi=x^-1*n_z*x^-1")),
    ("omega", False, ("Omega*Omega^-1=1",)),
    ("omega", True, ("Omega^-1*x*Omega=y",)),
    ("omega", True, ("Omega^3*x=x*Omega^3",)),
)
# the operators built from others, each by the text its recipe folds
OPERATOR_DEFINITIONS = {"Omega": "exp_q(n_z)*Psi*exp_q(n_y)",
                        "Omega^-1": "exp_q(n_y)^-1*Psi^-1*exp_q(n_z)^-1",
                        "Omega^3": "Omega*Omega*Omega"}

_LEAF = re.compile(_OPERATOR_LEAF)
# Omega, Omega^-1 and the leaves of their definitions
_OMEGA_LEAVES = set(_LEAF.findall("Omega*Omega^-1*%(Omega)s*%(Omega^-1)s" % OPERATOR_DEFINITIONS))


@lru_cache(maxsize=None)
def _formulas(table):
    """(prefix, text) of each row of an identity table, in row order, and
    the words that they read more than once, whole or as a left prefix."""
    rows = [(prefix, text) for prefix, rotates, texts in table
            for text in (rotated(texts) if rotates else texts)]
    counts = Counter()
    for word in (word for _, text in rows for word in _OPERATOR_WORD.findall(text)):
        leaves = word.split("*")
        counts.update("*".join(leaves[:i]) for i in range(2, len(leaves) + 1))
    return tuple(rows), frozenset(word for word, count in counts.items() if count > 1)


@dataclass
class NilpotentOperator:
    """A nilpotent matrix together with its exact nilpotency index."""

    matrix: Matrix
    nil_index: int


@dataclass
class OmegaOperator:
    """Omega together with its factor-built inverse."""

    matrix: Matrix
    inverse: Matrix


def _times_ratio(mat, sc, lift, m):
    """mat times lift/(q^m - 1), lift a LaurentPoly.
    At a point, mat times the one Fraction lift(q0)/(q0^m - 1); symbolically
    Matrix.times_ratio, exact in the ring, and a RatFunc product only for a
    matrix that is not in the ring or does not divide (a broken identity)."""
    if sc.q0 is not None:
        return mat.scalar_mul(lift.evaluate(sc.q0) / (sc.q0 ** m - 1))
    return mat.times_ratio(lift, m)


def _exp_series(mat, sc, order=None):
    """exp_q(mat), exp_q(mat)^-1 and the index of their first zero term.

    The terms t_i = q^(i(i-1)/2)/[i]! mat^i follow t_0 = 1, t_i = t_(i-1)
    mat q^(i-1)/[i], each canonical without a common denominator; the
    inverse series has the terms (-1)^i q^(-i(i-1)) t_i.  Both stop at the
    first zero term, whose index is the nilpotency index, or else at
    i = order (by default dim + 2, past the index of any nilpotent matrix).
    """
    dim = len(mat.rows)
    term = Matrix.identity(dim, sc.one)
    total = inv_total = term
    order = dim + 2 if order is None else order
    for i in range(1, order):
        # q^(i-1)/[i] = q^(2i-2) (q^2 - 1)/(q^(2i) - 1)
        term = _times_ratio(term * mat, sc, LaurentPoly({2 * i: 1, 2 * i - 2: -1}), 2 * i)
        if term.is_zero():
            return total, inv_total, i
        total = total + term
        inv_total = inv_total + term.scalar_mul(
            sc.scal(q_power(-i * (i - 1)) * (-1) ** i))
    return total, inv_total, order


def _psi_exponents(rep):
    xmat = rep.action["x"]
    if not xmat.is_diagonal():
        raise ConsistencyError("x does not act diagonally")
    exps = []
    for entry in xmat.diagonal():
        decomp = entry.as_sign_q_power()
        if decomp is None:
            raise ConsistencyError("x-eigenvalue %s is not +-q^lambda" % entry)
        exps.append((decomp[1] % 2 - decomp[1] ** 2) // 2)  # (s - lam^2)/2, s = lam mod 2
    return exps


def _psi_pair(rep):
    # Psi and Psi^-1: the diagonals q^e and q^-e, e from _psi_exponents
    if rep.basis != "equitable":
        raise ValueError("Psi is defined on the equitable basis")
    return tuple(Matrix.diag([q_power(sign * e) for e in _psi_exponents(rep)])
                 for sign in (1, -1))


def psi(rep):
    """Diagonal operator q^(-lambda^2/2) (even) / q^((1-lambda^2)/2) (odd) per weight."""
    return _psi_pair(rep)[0]


def psi_inverse(rep):
    """The inverse of psi(rep) (negated diagonal exponents)."""
    return _psi_pair(rep)[1]


def _operator_recipes():
    # the module recipes of _ModuleEnv, plus one recipe per operator
    table = {
        ("Psi", "Psi^-1"): lambda env: map(env["sc"].matrix, _psi_pair(env["rep"])),
        ("Omega^3-scalar",): lambda env: [env["I"].scalar_mul(env["sc"].scal(
            omega_cube_scalar(env["spec"].summands[0][0])))],
    }
    for key in OPERATOR_DEFINITIONS:
        table[key,] = lambda env, key=key: _matrix_sides(_Words(env), OPERATOR_DEFINITIONS[key])
    for a in _AXES:
        # (q - q^-1) n_a, times 1/(q - q^-1) = q/(q^2 - 1)
        table["n_" + a,] = lambda env, a=a: [_times_ratio(_matrix_sides(
            _Words(env), N_DEFINITIONS[a].partition("=")[0])[0], env["sc"], LaurentPoly({1: 1}), 2)]
        table["exp_q(n_" + a + ")", "exp_q(n_" + a + ")^-1", "idx_" + a] = (
            lambda env, a=a: _stored_series(env, env["n_" + a]))
    return {**_ModuleEnv.recipes, **_recipe_index(table)}


def _stored_series(env, mat):
    # _exp_series of mat in env's scalars, kept in env's series store (if it
    # has one) under q0 and the entries of mat
    store, sc = env.series, env["sc"]
    if store is None:
        return _exp_series(mat, sc)
    key = (sc.q0, tuple(chain(*mat.rows)))
    if key not in store:
        store[key] = _exp_series(mat, sc)
    return store[key]


class _OperatorEnv(_ModuleEnv):
    """The module environment of an equitable-basis module, with the operator recipes."""

    recipes = _operator_recipes()

    def __init__(self, rep, what="operator suites run", series=None):
        if rep.basis != "equitable":
            raise ValueError("%s on the equitable basis" % what)
        super().__init__(rep)
        self.series = series

    def at(self, q0):
        env = super().at(q0)
        env.series = self.series
        return env


def _formula_row(words, prefix, text):
    # the row prefix:text, its sides folded over words
    return compare(prefix + ":" + text, words.mod, lambda: _matrix_sides(words, text),
                   matrix_witness)


def _nilpotent_row(words, a):
    # the series of exp_q(n_a) finds the index n+1
    env = words.env
    idx, expected = env["idx_" + a], max(n for n, _ in env["spec"].summands) + 1
    return check("nilpotent:n_" + a + ":index=n+1", words.mod, idx == expected,
                 witness="index %d, expected %d" % (idx, expected))


def _n_rows(env, axes, kinds=("rewrite", "nilpotent")):
    # for each axis in turn, the rows of each kind that n_a rests on: its
    # rewrite: row (its two sides agree), its nilpotent: row
    words = _Words(env)
    return VerificationReport([
        _formula_row(words, "rewrite", N_DEFINITIONS[a]) if kind == "rewrite"
        else _nilpotent_row(words, a) for a in axes for kind in kinds])


def n_matrix(axis, rep):
    """The matrix of n_axis on an equitable-basis module, with its nil index."""
    env = _OperatorEnv(rep, what="n-matrices are defined")
    if axis not in _AXES:
        raise ValueError("axis must be one of x, y, z")
    _n_rows(env, axis).require()
    return NilpotentOperator(matrix=env["n_" + axis].ratfuncs(), nil_index=env["idx_" + axis])


def _public_series(op):
    # _exp_series of T, in the ring when T's entries are in it
    sc = ScalarContext()
    return _exp_series(sc.matrix(op.matrix), sc, op.nil_index)


def exp_q(op):
    """The truncated q-exponential of a NilpotentOperator."""
    return _public_series(op)[0].ratfuncs()


def exp_q_inverse(op):
    """exp_{q^-1}(-T), once its product with exp_q(T) is checked to be 1."""
    exp, inv, _ = _public_series(op)
    VerificationReport([compare("expq:exp_q(T)*exp_q(T)^-1=1", None, lambda: (
        exp * inv, Matrix.identity(len(inv.rows))), matrix_witness)]).require()
    return inv.ratfuncs()


def _omega_rows(env):
    # the rows Omega and Omega^-1 rest on: those of n_y and n_z, and the
    # table rows that read nothing but _OMEGA_LEAVES
    words = _Words(env)
    return _n_rows(env, "yz").extend(
        _formula_row(words, prefix, text) for prefix, text in _formulas(OPERATOR_IDENTITIES)[0]
        if set(_LEAF.findall(text)) <= _OMEGA_LEAVES)


def omega(rep):
    """Omega (OPERATOR_DEFINITIONS), with its factor-built inverse."""
    env = _OperatorEnv(rep, what="Psi is defined")
    _omega_rows(env).require()
    return OmegaOperator(matrix=env["Omega"].ratfuncs(), inverse=env["Omega^-1"].ratfuncs())


def _closed_form_matrices(n):
    # Entry formulas for Omega and Omega^-1 on the (n+1)-dimensional module:
    #   Omega      u_j = sum_{i<=n-j} (-1)^j q^((n-i-1)j + (s-n^2)/2) [n-i, j] u_i
    #   Omega^-1   u_j = sum_{i>=n-j} (-1)^(n-j) q^((1-i)(n-j) + (n^2-s)/2) [i, n-j] u_i
    # where s = n mod 2 and [m, k] is the q-binomial.
    base, dim = (n % 2 - n * n) // 2, n + 1
    mat, inv = ([[RF_ZERO] * dim for _ in range(dim)] for _ in "ab")
    for j in range(dim):
        for i in range(n - j + 1):
            mat[i][j] = RatFunc(qbinom(n - i, j).shift((n - i - 1) * j + base) * (-1) ** j)
        for i in range(n - j, dim):
            inv[i][j] = RatFunc(qbinom(i, n - j).shift((1 - i) * (n - j) - base) * (-1) ** (n - j))
    return Matrix(mat), Matrix(inv)


def omega_closed_form(n, eps):
    """Omega on L(n, eps) from entry formulas, once they match the compositional build."""
    env = _OperatorEnv(build_equitable(ModuleSpec.single(n, eps)))
    _omega_rows(env).extend(_closed_form_report(env, cube=False)).require()
    return OmegaOperator(*_closed_form_matrices(n))


def omega_cube_scalar(n):
    """The scalar by which Omega^3 acts on L(n, eps) (independent of eps)."""
    if n % 2 == 0:
        return q_power(-(n * (n + 2)) // 2)
    return -q_power(((1 - n) * (n + 3)) // 2)


def _conjugation_report(env):
    # rows of verify_conjugation_suite for the module env was built on: the
    # nilpotent: rows, then one row per formula of the table
    formulas, reused = _formulas(OPERATOR_IDENTITIES)
    words = _Words(env, reused)
    report = _n_rows(env, _AXES, ("nilpotent",)).extend(
        _formula_row(words, prefix, text) for prefix, text in formulas)
    if env["spec"].is_single:
        report.add(compare("omega:Omega^3=central-scalar", words.mod,
                           lambda: (env["Omega^3"], env["Omega^3-scalar"]), matrix_witness))
    return report


def verify_conjugation_suite(rep, q0=None):
    """Nilpotency, exp_q invertibility, and every conjugation identity on one
    module; raises ConsistencyError unless each n_a is built (see _n_rows)."""
    env = _OperatorEnv(rep).at(q0)
    _n_rows(env, _AXES).require()
    return _conjugation_report(env)


def _rewrite_report(env):
    # rows of verify_relation_rewrites: the two sides of each n_a agree
    return _n_rows(env, _AXES, ("rewrite",))


def verify_relation_rewrites(rep, q0=None):
    """q(1 - yz) = q^-1(1 - zy) and its two cyclic rotations, as matrices."""
    return _rewrite_report(_OperatorEnv(rep, what="relation rewrites run").at(q0))


def _closed_form_report(env, cube=True):
    # rows of verify_closed_form for the simple module env was built on;
    # the Omega^3 row only with cube
    spec = env["spec"]
    mod = spec.json_obj()
    mat, inv = map(env["sc"].matrix, _closed_form_matrices(spec.summands[0][0]))
    rows = [("closedform:Omega=" + OPERATOR_DEFINITIONS["Omega"], lambda: (mat, env["Omega"])),
            ("closedform:Omega^-1", lambda: (inv, env["Omega^-1"])),
            ("closedform:Omega^3=central-scalar",
             lambda: (env["Omega^3"], env["Omega^3-scalar"]))]
    return VerificationReport([compare(identity, mod, build, matrix_witness)
                               for identity, build in rows[:3 if cube else 2]])


def verify_closed_form(n, eps, q0=None):
    """Closed-form Omega entries against the compositional build, plus the
    Omega^3 scalar; raises ConsistencyError unless n_y and n_z are built."""
    env = _OperatorEnv(build_equitable(ModuleSpec.single(n, eps))).at(q0)
    _n_rows(env, "yz").require()
    return _closed_form_report(env)
