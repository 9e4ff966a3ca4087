"""Nilpotent n-matrices, q-exponentials, Psi/Omega operators, and their identity suites.

On an equitable-basis module n_x = q(1 - yz)/(q - q^-1) (cyclic in x, y,
z) is nilpotent, so exp_q(T) = sum_i q^(i(i-1)/2)/[i]! T^i and its inverse
are finite sums.  Omega = exp_q(n_z) Psi exp_q(n_y), with Psi diagonal,
rotates x -> y -> z -> x under conjugation, and Omega^3 is central.

OPERATOR_IDENTITIES is the one statement of the operator identities, each
written as the text its row prints after "expq:", "conj:", "psi:" or
"omega:", a family rotated x -> y -> z once, for the x axis
(exprio.rotated).  Each row folds its text with ncore.sides over the
operator environment of its module, in the operator alphabet of exprio,
and so do the "rewrite:" rows and the n_a recipe, from ncore.N_DEFINITIONS;
report.compare builds the row, with repmod.matrix_witness.  Its leaves are
the env keys, spelled as they print: x, x^-1, y, z, y^-1, z^-1, n_a,
exp_q(n_a), exp_q(n_a)^-1, Psi, Psi^-1, Omega, Omega^-1 and Omega^3.  A
word such as exp_q(n_x)*y is the env's product when it has one (y*z), else
its left prefix times its last leaf, kept for the length of one report if
the report reads it again.

``_OperatorEnv`` extends the module environment ``repmod._ModuleEnv`` by one
recipe per operator, built when first read, then kept: n_a, exp_q(n_a) with
its inverse and index idx_a, Psi, Psi^-1, Omega, Omega^-1, Omega^3 and the
scalar matrix Omega^3-scalar.  Recipes only build values: each identity is
checked in its row, so ``uqsl2 verify`` prints a broken one as a failed row
with its witness, as it does each row that reads a recipe that raises.  The
raising API (``n_matrix``, ``exp_q_inverse``, ``omega``,
``omega_closed_form``, and the suites for the n_a they read) raises
ConsistencyError from the first failed row its value rests on.  ``omega``
and ``verify_closed_form`` never build n_x, y^-1 or z^-1.
"""

import re
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .exprio import _OPERATOR_LEAF, _OPERATOR_WORD, _OPERATORS, rotated
from .ncore import N_DEFINITIONS
from .qfield import CQ, RF_ZERO, RatFunc, q_power, qbinom, qint
from .repmod import (Matrix, ModuleSpec, ScalarContext, _matrix_sides, _ModuleEnv,
                     _recipe_index, build_equitable, matrix_witness)
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

_LEAF = re.compile(_OPERATOR_LEAF)
# the leaves Omega and Omega^-1 are built from, besides Psi
_OMEGA_LEAVES = {"Omega", "Omega^-1", *rotated(("exp_q(n_x)", "exp_q(n_x)^-1"))[2:]}


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
        term = (term * mat).scalar_mul(
            sc.scal(RatFunc(q_power(i - 1).num, qint(i))))
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
        ("Omega",): lambda env: [env["exp_q(n_z)"] * env["Psi"] * env["exp_q(n_y)"]],
        ("Omega^-1",): lambda env: [env["exp_q(n_y)^-1"] * env["Psi^-1"] * env["exp_q(n_z)^-1"]],
        ("Omega^3",): lambda env: [env["Omega"] * env["Omega"] * env["Omega"]],
        ("Omega^3-scalar",): lambda env: [env["I"].scalar_mul(env["sc"].scal(
            omega_cube_scalar(env["spec"].summands[0][0])))],
    }
    for a in _AXES:
        table["n_" + a,] = lambda env, a=a: [_matrix_sides(
            env, N_DEFINITIONS[a].partition("=")[0], _OPERATORS, env.__getitem__)[0]
            * env["sc"].scal(CQ)]
        table["exp_q(n_" + a + ")", "exp_q(n_" + a + ")^-1", "idx_" + a] = (
            lambda env, a=a: _exp_series(env["n_" + a], env["sc"]))
    return {**_ModuleEnv.recipes, **_recipe_index(table)}


class _OperatorEnv(_ModuleEnv):
    """The module environment of an equitable-basis module, with the operator recipes."""

    recipes = _operator_recipes()

    def __init__(self, rep, what="operator suites run"):
        if rep.basis != "equitable":
            raise ValueError("%s on the equitable basis" % what)
        super().__init__(rep)


class _Words(dict):
    """The words the rows of one report read (see the module docstring),
    each in keep kept for the report; mod is the module of every row."""

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


def _formula_row(words, prefix, text):
    # the row prefix:text, its sides folded over words
    return compare(prefix + ":" + text, words.mod,
                   lambda: _matrix_sides(words.env, text, _OPERATORS, words.__getitem__),
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
    return NilpotentOperator(matrix=env["n_" + axis], nil_index=env["idx_" + axis])


def exp_q(op):
    """The truncated q-exponential of a NilpotentOperator."""
    return _exp_series(op.matrix, ScalarContext(), op.nil_index)[0]


def exp_q_inverse(op):
    """exp_{q^-1}(-T), once its product with exp_q(T) is checked to be 1."""
    exp, inv, _ = _exp_series(op.matrix, ScalarContext(), op.nil_index)
    VerificationReport([compare("expq:exp_q(T)*exp_q(T)^-1=1", None, lambda: (
        exp * inv, Matrix.identity(len(inv.rows))), matrix_witness)]).require()
    return inv


def _omega_rows(env):
    # the rows Omega and Omega^-1 rest on: those of n_y and n_z, and the
    # table rows that read nothing but _OMEGA_LEAVES
    words = _Words(env)
    return _n_rows(env, "yz").extend(
        _formula_row(words, prefix, text) for prefix, text in _formulas(OPERATOR_IDENTITIES)[0]
        if set(_LEAF.findall(text)) <= _OMEGA_LEAVES)


def omega(rep):
    """Omega = exp_q(n_z) * Psi * exp_q(n_y), with its factor-built inverse."""
    env = _OperatorEnv(rep, what="Psi is defined")
    _omega_rows(env).require()
    return OmegaOperator(matrix=env["Omega"], inverse=env["Omega^-1"])


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
    rows = [("closedform:Omega=exp_q(n_z)*Psi*exp_q(n_y)", lambda: (mat, env["Omega"])),
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
