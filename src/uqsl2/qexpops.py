"""Nilpotent n-matrices, q-exponentials, Psi/Omega operators, and their identity suites.

On an equitable-basis module the three elements

    n_x = q(1 - yz)/(q - q^-1) = q^-1(1 - zy)/(q - q^-1)      (cyclic in x, y, z)

act as nilpotent matrices, so the truncated q-exponential

    exp_q(T)      = sum_i q^(i(i-1)/2) / [i]!  * T^i
    exp_q(T)^-1   = sum_i (-1)^i q^(-i(i-1)/2) / [i]!  * T^i

is defined exactly.  Conjugation by exp_q(n_a) permutes/deforms the
generators in a fixed pattern, the diagonal operator Psi intertwines the
weight decomposition, and

    Omega = exp_q(n_z) * Psi * exp_q(n_y)

cyclically rotates x -> y -> z -> x under conjugation, with Omega^3 central.

Each module has one operator environment, ``_OperatorEnv``: the module
environment ``repmod._ModuleEnv`` (the q0-free inputs of both bases, built
once per module; at each point from ``at(q0)``, I, y^-1, z^-1 and the six
products a*b of x, y, z) extended by one recipe per operator, each built on
first read, then kept: the two defining sides of each n_a, n_a (the left
side over q - q^-1), exp_q(n_a) with its inverse and index, Psi, Omega,
Omega^-1, Omega^3 and the Omega^3 scalar matrix.  Recipes only build
values.  Each identity is checked in one place, its report row, so
``uqsl2 verify`` shows a broken one as a failed row with its witness, also
at a numeric point q = q0.  The raising API (``n_matrix``,
``exp_q_inverse``, ``omega``, ``omega_closed_form``, and the suites
``verify_conjugation_suite`` and ``verify_closed_form`` for the n_a they
read) checks the rows its value rests on and raises ConsistencyError from
the first that fails.  ``omega`` reads n_y, n_z, their exp_q pairs, Psi,
Omega and Omega^-1; ``verify_closed_form`` reads those, Omega^3 and its
scalar matrix, never n_x, y^-1 or z^-1; ``n_matrix`` reads n_a and its
index; ``verify_relation_rewrites`` the n-element sides;
``verify_conjugation_suite`` every entry.
"""

from dataclasses import dataclass

from .ncore import N_DEFINITIONS
from .qfield import CQ, RF_ZERO, RatFunc, q_power, qbinom, qint
from .repmod import (Matrix, ModuleSpec, ScalarContext, _eq_entry, _ModuleEnv,
                     _recipe_index, build_equitable)
from .report import ConsistencyError, VerificationReport, check

# the two generators after each one in the cyclic order x -> y -> z -> x
_N_AXES = {"x": ("y", "z"), "y": ("z", "x"), "z": ("x", "y")}


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


def _n_sides(env, axis):
    """The sides q(1 - ab) and q^-1(1 - ba) of N_DEFINITIONS[axis], (a, b) =
    _N_AXES[axis], from env's products: each is (q - q^-1) n_axis."""
    a, b = _N_AXES[axis]
    ident, sc = env["I"], env["sc"]
    return ((ident - env[a + "*" + b]).scalar_mul(sc.scal(q_power(1))),
            (ident - env[b + "*" + a]).scalar_mul(sc.scal(q_power(-1))))


def _exp_series(mat, sc, order=None):
    """exp_q(mat), exp_q(mat)^-1 and the index of their first zero term.

    The terms t_i = q^(i(i-1)/2)/[i]! * mat^i follow the recurrence
    t_0 = 1, t_i = t_(i-1) * mat * q^(i-1)/[i], so each stays canonical
    without a common denominator; the inverse series has the terms
    (-1)^i q^(-i(i-1)) t_i.  Both sums stop at the first zero term, whose
    index is the nilpotency index, or else at i = order (by default
    dim + 2, past the index dim of any nilpotent matrix), and return order.
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
        lam = decomp[1]
        exps.append(-(lam * lam) // 2 if lam % 2 == 0 else (1 - lam * lam) // 2)
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
        ("Omega",): lambda env: [env["Ez"] * env["Psi"] * env["Ey"]],
        ("Omega^-1",): lambda env: [env["Ey^-1"] * env["Psi^-1"] * env["Ez^-1"]],
        ("Omega^3",): lambda env: [env["Omega"] * env["Omega"] * env["Omega"]],
        ("Omega^3-scalar",): lambda env: [env["I"].scalar_mul(env["sc"].scal(
            omega_cube_scalar(env["spec"].summands[0][0])))],
    }
    for a in _N_AXES:
        table["n_sides_" + a,] = lambda env, a=a: [_n_sides(env, a)]
        table["n_" + a,] = lambda env, a=a: [
            env["n_sides_" + a][0].scalar_mul(env["sc"].scal(CQ))]
        table["E" + a, "E" + a + "^-1", "idx_" + a] = (
            lambda env, a=a: _exp_series(env["n_" + a], env["sc"]))
    return {**_ModuleEnv.recipes, **_recipe_index(table)}


class _OperatorEnv(_ModuleEnv):
    """The module environment of one equitable-basis module, extended by the
    operator recipes: each operator is built when first read, then kept."""

    recipes = _operator_recipes()

    def __init__(self, rep, what="operator suites run"):
        if rep.basis != "equitable":
            raise ValueError("%s on the equitable basis" % what)
        super().__init__(rep)


def _row(env, kind, a=None):
    # the report row of one identity: "rewrite" (the two sides of n_a
    # agree), "nilpotent" (the series of exp_q(n_a) finds the index n+1),
    # "expq" (exp_q(n_a) * exp_q(n_a)^-1 = 1) or "omega" (Omega * Omega^-1 = 1)
    spec = env["spec"]
    if kind == "nilpotent":
        idx, expected = env["idx_" + a], max(n for n, _ in spec.summands) + 1
        return check("nilpotent:n_%s:index=n+1" % a, spec.json_obj(), idx == expected,
                     witness="index %d, expected %d" % (idx, expected))
    if kind == "rewrite":
        identity, (lhs, rhs) = "rewrite:" + N_DEFINITIONS[a], env["n_sides_" + a]
    elif kind == "expq":
        identity = "expq:exp_q(n_%s)*exp_q(n_%s)^-1=1" % (a, a)
        lhs, rhs = env["E" + a] * env["E" + a + "^-1"], env["I"]
    else:
        identity, lhs, rhs = "omega:Omega*Omega^-1=1", env["Omega"] * env["Omega^-1"], env["I"]
    return _eq_entry(identity, spec.json_obj(), lhs, rhs)


def _rows(env, axes, kinds=("rewrite", "nilpotent")):
    # the rows of each kind for each axis in turn: by default those that
    # n_a and its index rest on
    return VerificationReport([_row(env, kind, a) for a in axes for kind in kinds])


def n_matrix(axis, rep):
    """The matrix of n_axis on an equitable-basis module, with its nil index."""
    env = _OperatorEnv(rep, what="n-matrices are defined")
    if axis not in _N_AXES:
        raise ValueError("axis must be one of x, y, z")
    _rows(env, axis).require()
    return NilpotentOperator(matrix=env["n_" + axis], nil_index=env["idx_" + axis])


def exp_q(op):
    """The truncated q-exponential of a NilpotentOperator."""
    return _exp_series(op.matrix, ScalarContext(), op.nil_index)[0]


def exp_q_inverse(op):
    """exp_{q^-1}(-T), once its product with exp_q(T) is checked to be 1."""
    exp, inv, _ = _exp_series(op.matrix, ScalarContext(), op.nil_index)
    VerificationReport([_eq_entry("expq:exp_q(T)*exp_q(T)^-1=1", None, exp * inv,
                                  Matrix.identity(len(inv.rows)))]).require()
    return inv


def _omega_rows(env):
    # the rows Omega and Omega^-1 rest on
    return _rows(env, "yz", ("rewrite", "nilpotent", "expq")).extend([_row(env, "omega")])


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
    s = n % 2
    base = (s - n * n) // 2
    dim = n + 1
    mat = [[RF_ZERO] * dim for _ in range(dim)]
    inv = [[RF_ZERO] * dim for _ in range(dim)]
    for j in range(dim):
        sign = 1 if j % 2 == 0 else -1
        for i in range(n - j + 1):
            mat[i][j] = RatFunc(qbinom(n - i, j).shift((n - i - 1) * j + base) * sign)
        sign = 1 if (n - j) % 2 == 0 else -1
        for i in range(n - j, dim):
            inv[i][j] = RatFunc(qbinom(i, n - j).shift((1 - i) * (n - j) - base) * sign)
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
    # rows of verify_conjugation_suite for the module env was built on
    spec = env["spec"]
    mod = spec.json_obj()
    report = VerificationReport([_row(env, kind, a) for kind in ("nilpotent", "expq")
                                 for a in _N_AXES])

    def row(identity, lhs, rhs):
        report.add(_eq_entry(identity, mod, lhs, rhs))

    commutators = []
    for a in ("x", "y", "z"):
        nx, p = _N_AXES[a]
        E, Ei = env["E" + a], env["E" + a + "^-1"]
        P, N, A = env[p], env[nx], env[a]
        EN, EA = E * N, E * A
        row("conj:exp_q(n_%s)^-1*%s*exp_q(n_%s)=%s^-1" % (a, p, a, nx),
            Ei * P * E, env[nx + "^-1"])
        row("conj:exp_q(n_%s)*%s*exp_q(n_%s)^-1=%s^-1" % (a, nx, a, p),
            EN * Ei, env[p + "^-1"])
        row("conj:exp_q(n_%s)^-1*%s*exp_q(n_%s)=%s*%s*%s" % (a, nx, a, nx, p, nx),
            Ei * N * E, env[nx + "*" + p] * N)
        row("conj:exp_q(n_%s)*%s*exp_q(n_%s)^-1=%s*%s*%s" % (a, p, a, p, nx, p),
            E * P * Ei, env[p + "*" + nx] * P)
        row("conj:exp_q(n_%s)^-1*%s*exp_q(n_%s)=%s+%s-%s^-1" % (a, a, a, a, nx, nx),
            Ei * A * E, A + N - env[nx + "^-1"])
        row("conj:exp_q(n_%s)*%s*exp_q(n_%s)^-1=%s+%s-%s^-1" % (a, a, a, a, p, p),
            EA * Ei, A + P - env[p + "^-1"])
        # printed after the rows of every axis
        commutators.append((
            "conj:%s*exp_q(n_%s)-exp_q(n_%s)*%s=exp_q(n_%s)*%s-%s*exp_q(n_%s)"
            % (a, a, a, a, a, nx, p, a), A * E - EA, EN - P * E))
    for args in commutators:
        row(*args)

    Psi, Psii = env["Psi"], env["Psi^-1"]
    X, Xi = env["x"], env["x^-1"]
    row("psi:Psi^-1*x*Psi=x", Psii * X * Psi, X)
    row("psi:Psi^-1*n_y*Psi=x*n_y*x", Psii * env["n_y"] * Psi, X * env["n_y"] * X)
    row("psi:Psi^-1*n_z*Psi=x^-1*n_z*x^-1", Psii * env["n_z"] * Psi, Xi * env["n_z"] * Xi)

    Om, Omi = env["Omega"], env["Omega^-1"]
    report.add(_row(env, "omega"))
    for a in ("x", "y", "z"):
        row("omega:Omega^-1*%s*Omega=%s" % (a, _N_AXES[a][0]),
            Omi * env[a] * Om, env[_N_AXES[a][0]])
    cube = env["Omega^3"]
    for a in ("x", "y", "z"):
        row("omega:Omega^3*%s=%s*Omega^3" % (a, a), cube * env[a], env[a] * cube)
    if spec.is_single:
        row("omega:Omega^3=central-scalar", cube, env["Omega^3-scalar"])
    return report


def verify_conjugation_suite(rep, q0=None):
    """Nilpotency, exp_q invertibility, and every conjugation identity on one
    module; raises ConsistencyError unless each n_a is built (see _rows)."""
    env = _OperatorEnv(rep).at(q0)
    _rows(env, _N_AXES).require()
    return _conjugation_report(env)


def _rewrite_report(env):
    # rows of verify_relation_rewrites from the n-element sides in env
    return _rows(env, _N_AXES, ("rewrite",))


def verify_relation_rewrites(rep, q0=None):
    """q(1 - yz) = q^-1(1 - zy) and its two cyclic rotations, as matrices."""
    return _rewrite_report(_OperatorEnv(rep, what="relation rewrites run").at(q0))


def _closed_form_report(env, cube=True):
    # rows of verify_closed_form for the simple module env was built on;
    # the Omega^3 row only with cube
    spec, sc = env["spec"], env["sc"]
    mod = spec.json_obj()
    mat, inv = map(sc.matrix, _closed_form_matrices(spec.summands[0][0]))
    rows = [("closedform:Omega=exp_q(n_z)*Psi*exp_q(n_y)", mat, env["Omega"]),
            ("closedform:Omega^-1", inv, env["Omega^-1"])]
    if cube:
        rows.append(("closedform:Omega^3=central-scalar", env["Omega^3"],
                     env["Omega^3-scalar"]))
    return VerificationReport([_eq_entry(identity, mod, lhs, rhs)
                               for identity, lhs, rhs in rows])


def verify_closed_form(n, eps, q0=None):
    """Closed-form Omega entries against the compositional build, plus the
    Omega^3 scalar; raises ConsistencyError unless n_y and n_z are built."""
    env = _OperatorEnv(build_equitable(ModuleSpec.single(n, eps))).at(q0)
    _rows(env, "yz").require()
    return _closed_form_report(env)
