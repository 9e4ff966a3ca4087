"""Command-line front end: normalization, matrix emission, Omega, verification, eval.

Exit codes: 0 all checks pass / output emitted, 1 verification failure,
2 usage or parse error (including inadmissible specialization points).
JSON output is byte-stable across runs: ``verify`` walks its suites in a
fixed order and prints four sections in turn: algebra, modules, operators,
gamma.  The walk builds one environment per module, with the q0-free inputs
of both bases, and visits each (module, point) once with the environment
derived from it, which its module rows (both bases) and operator rows read.
"""

import os
import random
import re
import sys
from dataclasses import replace
from fractions import Fraction
from functools import reduce
from itertools import chain
from operator import mul

import click

from . import exprio
from .exprio import MAX_EXPONENT, BudgetError, ParseError, ScalarLiteral
from .gammamod import GAMMA_Y, GAMMA_Z, verify_gamma
from .ncore import (from_equitable, normalize_chevalley, verify_confluence,
                    verify_n_commutation, verify_n_definitions,
                    verify_n_preimages, verify_presentation_iso)
from .qexpops import (_closed_form_report, _conjugation_report, _OperatorEnv,
                      _rewrite_report, omega, omega_closed_form, verify_closed_form)
from .qfield import RF_ONE, PoleError, SpecializationError, check_admissible
from .repmod import (CHEVALLEY_GENS, EQUITABLE_GENS, Matrix, ModuleSpec,
                     _basis_change_report, _chevalley_report,
                     _equitable_report, build_chevalley, build_equitable,
                     json_bytes, matrix_csv, matrix_json_obj, matrix_latex)
from .report import ConsistencyError, VerificationReport

# the largest module L(n, eps) a command builds: rep prints entries up to
# q^n, which parse back up to MAX_EXPONENT; omega --n 32 takes about 7 s in
# each mode on a 2-vCPU host; eval --rep evaluates and prints every entry,
# (n+1)^2 of them, and eval --rep 1000,+1 k took 27 s there
MAX_OMEGA_N = 32
MAX_REP_N = 200
# verify's largest modules and window: verify all --nmax 16 took 12 to 18 s
# on that host (--nmax 20 took 47 to 61 s), verify gamma --window 32 about 7 s
MAX_VERIFY_NMAX = 16
MAX_WINDOW = 32
# spot_points draws q0 = a/b with |a| <= 12 and 1 <= b <= 12, q0 not in
# {0, 1, -1}: there are 180 such points
MAX_Q_SPOT = 180


def _format_option(*formats):
    # --format, by default UQSL2_FORMAT where the command offers that format,
    # else text
    def default():
        fmt = os.environ.get("UQSL2_FORMAT")
        return fmt if fmt in formats else "text"

    return click.option("--format", "fmt", type=click.Choice(formats), default=default,
                        show_default="text, or UQSL2_FORMAT", help="Output format.")

@click.group()
def main():
    """Exact kernel for the quantized enveloping algebra of sl2."""


def _echo_json(obj):
    click.echo(json_bytes(obj).decode("utf-8"), nl=False)


def _parse_or_usage(text, presentation):
    try:
        return exprio.parse(text, presentation)
    except ParseError as err:
        raise click.UsageError(
            "parse error at position %d: %s" % (err.position, err.message))


def _eps_value(text):
    if text in ("+1", "1"):
        return 1
    if text == "-1":
        return -1
    raise click.UsageError("--eps must be +1 or -1, got %r" % text)


@main.command()
@click.argument("expr")
@click.option("--presentation", type=click.Choice(["chevalley", "equitable"]),
              default="chevalley", show_default=True)
@_format_option("text", "json")
def normalize(expr, presentation, fmt):
    """Print the PBW normal form of EXPR."""
    ast = _parse_or_usage(expr, presentation)
    try:
        element = (from_equitable(ast) if presentation == "equitable"
                   else normalize_chevalley(ast))
    except BudgetError as err:
        raise click.UsageError(str(err))
    if fmt == "json":
        _echo_json({"input": expr, "presentation": presentation,
                    "normal_form": str(element)})
    else:
        click.echo(str(element))


def _emit_matrix(spec, basis, gen, matrix, fmt):
    if fmt == "json":
        _echo_json(matrix_json_obj(spec, basis, gen, matrix))
    elif fmt == "csv":
        click.echo(matrix_csv(matrix), nl=False)
    elif fmt == "latex":
        click.echo(matrix_latex(matrix))
    else:
        click.echo(str(matrix))


@main.command()
@click.option("--n", type=click.IntRange(min=0, max=MAX_EXPONENT), required=True)
@click.option("--eps", required=True)
@click.option("--basis", type=click.Choice(["equitable", "chevalley"]),
              default="equitable", show_default=True)
@click.option("--gen", required=True)
@_format_option("text", "json", "csv", "latex")
def rep(n, eps, basis, gen, fmt):
    """Print one generator matrix of the simple module L(n, eps)."""
    eps = _eps_value(eps)
    gens = EQUITABLE_GENS if basis == "equitable" else CHEVALLEY_GENS
    if gen not in gens:
        raise click.UsageError(
            "--gen must be one of %s for the %s basis" % (", ".join(gens), basis))
    spec = ModuleSpec.single(n, eps)
    built = build_equitable(spec) if basis == "equitable" else build_chevalley(spec)
    _emit_matrix(spec, basis, gen, built.action[gen], fmt)


@main.command(name="omega")
@click.option("--n", type=click.IntRange(min=0, max=MAX_OMEGA_N), required=True)
@click.option("--eps", required=True)
@click.option("--mode", type=click.Choice(["compositional", "closed-form", "check"]),
              default="compositional", show_default=True)
@_format_option("text", "json")
def omega_cmd(n, eps, mode, fmt):
    """Print Omega on L(n, eps), or check its two constructions against each other."""
    eps = _eps_value(eps)
    spec = ModuleSpec.single(n, eps)
    try:
        if mode == "check":
            report = verify_closed_form(n, eps)
            _emit_report(report, fmt)
            if not report.passed:
                sys.exit(1)
            return
        op = (omega_closed_form(n, eps) if mode == "closed-form"
              else omega(build_equitable(spec)))
    except ConsistencyError as err:
        # the message is the text line of the failed row
        click.echo(str(err), err=True)
        sys.exit(1)
    _emit_matrix(spec, "equitable", "omega", op.matrix, fmt)


def spot_points(count, seed=1729):
    """Deterministic admissible rational specialization points; at most
    MAX_Q_SPOT exist."""
    if count > MAX_Q_SPOT:
        raise ValueError("only %d spot points exist, %d asked" % (MAX_Q_SPOT, count))
    rng = random.Random(seed)
    points = []
    while len(points) < count:
        q0 = Fraction(rng.randint(-12, 12), rng.randint(1, 12))
        if q0 in (0, 1, -1) or q0 in points:
            continue
        points.append(q0)
    return points


def _tagged(report, q0):
    if q0 is None:
        return report
    return VerificationReport([replace(e, identity="%s@q=%s" % (e.identity, q0))
                               for e in report.entries])


def _module_task(env):
    # the equitable, Chevalley and basis-change rows all read env
    report = VerificationReport()
    for rows in (_equitable_report, _chevalley_report, _basis_change_report):
        report.extend(rows(env))
    return _tagged(report, env["sc"].q0)


def _operator_task(env):
    # the conjugation, rewrite and closed-form rows read the env the module rows read
    report = _conjugation_report(env).extend(_rewrite_report(env))
    if env["spec"].is_single:
        report.extend(_closed_form_task(env))
    return _tagged(report, env["sc"].q0)


def _closed_form_task(env):
    # its own task function, so per-task timings still show the closed form
    return _closed_form_report(env)


def _gamma_task(module, window):
    return verify_gamma(module, imax=window, jmax=window)


def _grid(nmax, q_spot):
    # the modules and points of verify, once the work of their grid is
    # within the budget (exprio.check): a module of dim d costs 10 d^3 units
    # at each point, times d at the symbolic point and 3 plus the bits of a
    # and b at q0 = a/b.  On a 2-vCPU host a unit took 1.4 to 1.8 us (verify
    # all --nmax 16 --q-spot 5, 2.5*10^7 units, 45 s; --nmax 12 --q-spot 20,
    # 2.9*10^7 units, 50 s), so no accepted grid runs much past a minute
    specs = [ModuleSpec.single(n, eps) for n in range(nmax + 1) for eps in (1, -1)]
    specs += [ModuleSpec(((1, 1), (2, -1))), ModuleSpec(((0, -1), (3, 1)))]
    points = [None] + spot_points(q_spot)
    try:
        exprio.check(None, sum(10 * spec.dim ** 3 * (
            spec.dim if q0 is None else 3 + q0.numerator.bit_length()
            + q0.denominator.bit_length()) for spec in specs for q0 in points))
    except BudgetError as err:
        raise click.UsageError("the (module, point) grid of verify: %s" % err)
    return specs, points


def _emit_report(report, fmt):
    if fmt == "json":
        _echo_json(report.json_obj())
    else:
        click.echo(report.to_text())


@main.command()
@click.argument("scope", type=click.Choice(
    ["iso", "relations", "modules", "operators", "gamma", "all"]))
@click.option("--nmax", type=click.IntRange(min=0, max=MAX_VERIFY_NMAX), default=8,
              show_default=True)
@click.option("--window", type=click.IntRange(min=1, max=MAX_WINDOW), default=4,
              show_default=True)
@click.option("--q-spot", "q_spot", type=click.IntRange(min=0, max=MAX_Q_SPOT), default=0,
              show_default=True,
              help="Also re-check matrix suites at this many random admissible q values.")
@_format_option("text", "json")
def verify(scope, nmax, window, q_spot, fmt):
    """Run the verification battery for SCOPE and report every identity."""
    specs, points = (_grid(nmax, q_spot) if scope in ("modules", "operators", "all")
                     else ((), ()))
    combined = VerificationReport()
    if scope in ("iso", "all"):
        combined.extend(verify_presentation_iso())
    if scope in ("relations", "all"):
        for suite in (verify_confluence, verify_n_definitions,
                      verify_n_commutation, verify_n_preimages):
            combined.extend(suite())
    # one symbolic env per module builds its q0-free inputs; each point
    # reads its own env from it; module rows all print before operators
    modules, operators = VerificationReport(), VerificationReport()
    for spec in specs:
        sym = _OperatorEnv(build_equitable(spec))
        for q0 in points:
            env = sym.at(q0)
            if scope != "operators":
                modules.extend(_module_task(env))
            if scope != "modules":
                operators.extend(_operator_task(env))
    combined.extend(modules).extend(operators)
    if scope in ("gamma", "all"):
        for module in (GAMMA_Y, GAMMA_Z):
            combined.extend(_gamma_task(module, window))
    _emit_report(combined, fmt)
    if not combined.passed:
        sys.exit(1)


def _parse_rep_option(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise click.UsageError("--rep wants n,eps (for example 1,+1)")
    try:
        n = int(parts[0])
    except ValueError:
        raise click.UsageError("--rep wants an integer n, got %r" % parts[0])
    if not 0 <= n <= MAX_REP_N:
        raise click.UsageError("--rep wants 0 <= n <= %d, got %d" % (MAX_REP_N, n))
    return n, _eps_value(parts[1])


def _line_weights(lines):
    # per row or column of a matrix, the summed weight of its nonzero
    # entries, a numerator's span times the square of a denominator's (each
    # plus one: the gcds of RatFunc arithmetic pay the denominator); and the
    # most coefficient bits of one entry
    weights, bits = [], 0
    for line in lines:
        weights.append(0)
        for x in filter(None, line):
            (lo, hi, _, nbits, lcd), (dlo, dhi, *_) = exprio.size(x)
            weights[-1] += (hi - lo + 1) * (dhi - dlo + 1) ** 2
            bits = max(bits, nbits + lcd)
    return weights, bits


class _Budgeted:
    """A matrix in the fold of ``eval --rep``, with the tally of work units
    (a one-item list) that the whole fold shares; scalars fold as scalars.
    Each operation adds its units to the tally and checks it against the
    budget (exprio.check) before it runs.  An entrywise operation (-, a
    product with a scalar, a sum, where a scalar c is c*I) costs 25 units
    per entry; evaluating the result 80 per term of its entries;
    a product A*B 2 per entry it builds, plus half of W times the square of
    one more than the 64-bit words of the widest coefficients of A and B,
    where W sums, over each inner index t, the weight of column t of A
    times that of row t of B (_line_weights).  Over the products of (e+f)^k
    on modules up to L(200), (y*z)^k, (1/(q+2)*e+f)^k,
    (1/(q^3+2)*e+1/(q^2+3)*f)^k and (q+1)^500*e, a unit took 0.005 to
    0.17 us on a 2-vCPU host; an entrywise operation up to 5 us per entry,
    and evaluating one term 10 to 15 us."""

    def __init__(self, matrix, tally):
        self.matrix, self.tally = matrix, tally

    def _then(self, units, build):
        # the matrix build() returns, once the tally passes the budget
        self.tally[0] += units
        exprio.check(None, self.tally[0])
        return _Budgeted(build(), self.tally)

    def _entrywise(self, build):
        return self._then(25 * self.matrix.nrows * self.matrix.ncols, build)

    def __neg__(self):
        return self._entrywise(lambda: -self.matrix)

    def __add__(self, other):
        return self._entrywise(lambda: self.matrix + getattr(other, "matrix", other))

    __radd__ = __add__

    def __mul__(self, other):
        if not isinstance(other, _Budgeted):  # a scalar commutes with the matrix
            return self._entrywise(lambda: self.matrix * other)
        a, b = self.matrix, other.matrix
        (cols, abits), (rows, bbits) = _line_weights(zip(*a.rows)), _line_weights(b.rows)
        words = (abits + bbits) // 64 + 1
        units = 2 * a.nrows * b.ncols + sum(map(mul, cols, rows)) * words ** 2 // 2
        return self._then(units, lambda: a * b)

    __rmul__ = __mul__  # reached only with a scalar on the left

    def __pow__(self, n):
        return reduce(mul, [self] * (n - 1), self)  # the steps share the tally

    def evaluate(self, q0):
        terms = sum(len(x.num.terms) + len(x.den.terms)
                    for row in self.matrix.rows for x in row)
        return self._then(80 * terms, lambda: self.matrix.map_entries(
            lambda v: v.evaluate(q0))).matrix


# --q: a or a/b, each with at most the digits of an integer literal, so
# that no number is read past the budget
_Q_POINT = re.compile(r"\s*([+-]?\d{1,%d})(?:/(\d{1,%d}))?\s*" % ((exprio._MAX_DIGITS,) * 2))


@main.command(name="eval")
@click.argument("expr", required=False)
@click.option("--expr", "expr_opt", default=None,
              help="Expression (alternative to the positional argument).")
@click.option("--presentation", type=click.Choice(["chevalley", "equitable"]),
              default="chevalley", show_default=True)
@click.option("--q", "q_text", required=True, help="Rational specialization point.")
@click.option("--rep", "rep_text", default=None,
              help="n,eps: evaluate the expression's matrix on L(n, eps).")
def eval_cmd(expr, expr_opt, presentation, q_text, rep_text):
    """Evaluate a scalar expression, or a module matrix, at a rational q."""
    if expr is not None and expr_opt is not None:
        raise click.UsageError("pass the expression either positionally or via --expr")
    text = expr_opt if expr is None else expr
    if text is None:
        raise click.UsageError("missing expression")
    point = _Q_POINT.fullmatch(q_text)
    if point is None or point[2] is not None and not int(point[2]):
        raise click.UsageError("--q wants a rational number a or a/b, b > 0, each of at "
                               "most %d digits" % exprio._MAX_DIGITS)
    q0 = Fraction(int(point[1]), int(point[2] or 1))
    try:
        check_admissible(q0)
    except SpecializationError as err:
        raise click.UsageError(str(err))
    ast = _parse_or_usage(text, presentation)
    try:
        if rep_text is None:
            if not isinstance(ast, ScalarLiteral):
                raise click.UsageError(
                    "expression is not a scalar; pass --rep n,eps to evaluate it on a module")
            value = ast.value.evaluate(q0)
            exprio.check(exprio.size(RF_ONE * value))
            click.echo(str(value))
        else:
            n, eps = _parse_rep_option(rep_text)
            spec = ModuleSpec.single(n, eps)
            built = (build_equitable(spec) if presentation == "equitable"
                     else build_chevalley(spec))
            tally = [0]
            value = exprio.fold(ast, lambda v: v, lambda g: _Budgeted(built.action[g], tally))
            if isinstance(ast, ScalarLiteral):  # c*I
                value = _Budgeted(Matrix.identity(built.dim), tally) * value
            values = value.evaluate(q0)
            for x in chain.from_iterable(values.rows):
                exprio.check(exprio.size(RF_ONE * x))
            click.echo(str(values))
    except (PoleError, BudgetError) as err:
        raise click.UsageError(str(err))


if __name__ == "__main__":
    main()
