"""Command-line front end: normalization, matrix emission, Omega, verification, eval.

Exit codes: 0 all checks pass / output emitted, 1 verification failure,
2 usage or parse error (including inadmissible specialization points).
JSON output is byte-stable across runs: ``verify`` walks its suites in a
fixed order and prints four sections in turn: algebra, modules, operators,
gamma.  The walk builds one environment per module, with the q0-free inputs
of both bases, and visits each (module, point) once with the environment
derived from it, which its module rows (both bases) and operator rows read.
"""

import random
import sys
from dataclasses import replace
from fractions import Fraction

import click

from . import exprio
from .exprio import ParseError, ScalarLiteral
from .gammamod import GAMMA_Y, GAMMA_Z, verify_gamma
from .ncore import (ProductSizeError, from_equitable, normalize_chevalley,
                    verify_confluence, verify_n_commutation,
                    verify_n_definitions, verify_n_preimages,
                    verify_presentation_iso)
from .qexpops import (ConsistencyError, _closed_form_report,
                      _conjugation_report, _OperatorEnv, _rewrite_report,
                      omega, omega_closed_form, verify_closed_form)
from .qfield import PoleError, SpecializationError, check_admissible
from .repmod import (CHEVALLEY_GENS, EQUITABLE_GENS, Matrix, ModuleSpec,
                     _basis_change_report, _chevalley_report,
                     _equitable_report, build_chevalley, build_equitable,
                     json_bytes, matrix_csv, matrix_json_obj, matrix_latex)
from .report import VerificationReport

_FORMAT_OPTION = click.option(
    "--format", "fmt", type=click.Choice(["text", "json"]), default="text",
    envvar="UQSL2_FORMAT", show_default=True, help="Output format.")


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


def _check_printable(values):
    # the cap keeps every printed number within Python's 4300-digit str() limit
    for v in values:
        bits = max(v.numerator.bit_length(), v.denominator.bit_length())
        if bits > exprio.MAX_POWER_BITS:
            raise click.UsageError(
                "value with a %d-bit numerator or denominator exceeds the print "
                "cap of %d bits" % (bits, exprio.MAX_POWER_BITS))


@main.command()
@click.argument("expr")
@click.option("--presentation", type=click.Choice(["chevalley", "equitable"]),
              default="chevalley", show_default=True)
@_FORMAT_OPTION
def normalize(expr, presentation, fmt):
    """Print the PBW normal form of EXPR."""
    ast = _parse_or_usage(expr, presentation)
    try:
        element = (from_equitable(ast) if presentation == "equitable"
                   else normalize_chevalley(ast))
    except ProductSizeError as err:
        raise click.UsageError(str(err))
    _check_printable(c for coeff in element.terms.values()
                     for part in (coeff.num, coeff.den) for c in part.terms.values())
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
@click.option("--n", type=click.IntRange(min=0), required=True)
@click.option("--eps", required=True)
@click.option("--basis", type=click.Choice(["equitable", "chevalley"]),
              default="equitable", show_default=True)
@click.option("--gen", required=True)
@click.option("--format", "fmt",
              type=click.Choice(["text", "json", "csv", "latex"]),
              default="text", envvar="UQSL2_FORMAT", show_default=True)
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
@click.option("--n", type=click.IntRange(min=0), required=True)
@click.option("--eps", required=True)
@click.option("--mode", type=click.Choice(["compositional", "closed-form", "check"]),
              default="compositional", show_default=True)
@_FORMAT_OPTION
def omega_cmd(n, eps, mode, fmt):
    """Print Omega on L(n, eps), or check its two constructions against each other."""
    eps = _eps_value(eps)
    spec = ModuleSpec.single(n, eps)
    if mode == "check":
        report = verify_closed_form(n, eps)
        _emit_report(report, fmt)
        if not report.passed:
            sys.exit(1)
        return
    try:
        op = (omega_closed_form(n, eps) if mode == "closed-form"
              else omega(build_equitable(spec)))
    except ConsistencyError as err:
        click.echo("FAIL  %s" % err, err=True)
        sys.exit(1)
    _emit_matrix(spec, "equitable", "omega", op.matrix, fmt)


def spot_points(count, seed=1729):
    """Deterministic admissible rational specialization points."""
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
    report = VerificationReport()
    report.extend(_conjugation_report(env))
    report.extend(_rewrite_report(env))
    if env["spec"].is_single:
        report.extend(_closed_form_task(env))
    return _tagged(report, env["sc"].q0)


def _closed_form_task(env):
    # its own task function, so per-task timings still show the closed form
    return _closed_form_report(env)


def _gamma_task(module, window):
    return verify_gamma(module, imax=window, jmax=window)


def _emit_report(report, fmt):
    if fmt == "json":
        _echo_json(report.json_obj())
    else:
        click.echo(report.to_text())


@main.command()
@click.argument("scope", type=click.Choice(
    ["iso", "relations", "modules", "operators", "gamma", "all"]))
@click.option("--nmax", type=click.IntRange(min=0), default=8, show_default=True)
@click.option("--window", type=click.IntRange(min=1), default=4, show_default=True)
@click.option("--q-spot", "q_spot", type=click.IntRange(min=0), default=0,
              show_default=True,
              help="Also re-check matrix suites at this many random admissible q values.")
@_FORMAT_OPTION
def verify(scope, nmax, window, q_spot, fmt):
    """Run the verification battery for SCOPE and report every identity."""
    combined = VerificationReport()
    if scope in ("iso", "all"):
        combined.extend(verify_presentation_iso())
    if scope in ("relations", "all"):
        for suite in (verify_confluence, verify_n_definitions,
                      verify_n_commutation, verify_n_preimages):
            combined.extend(suite())
    if scope in ("modules", "operators", "all"):
        specs = [ModuleSpec.single(n, eps)
                 for n in range(nmax + 1) for eps in (1, -1)]
        specs.append(ModuleSpec(((1, 1), (2, -1))))
        specs.append(ModuleSpec(((0, -1), (3, 1))))
        points = [None] + spot_points(q_spot)
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
    if n < 0:
        raise click.UsageError("--rep wants n >= 0, got %d" % n)
    return n, _eps_value(parts[1])


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
    try:
        q0 = Fraction(q_text)
    except (ValueError, ZeroDivisionError):
        raise click.UsageError("--q wants a rational number, got %r" % q_text)
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
            _check_printable([value])
            click.echo(str(value))
        else:
            n, eps = _parse_rep_option(rep_text)
            spec = ModuleSpec.single(n, eps)
            built = (build_equitable(spec) if presentation == "equitable"
                     else build_chevalley(spec))
            matrix = exprio.fold(
                ast, lambda v: Matrix.identity(built.dim).scalar_mul(v),
                built.action.__getitem__)
            values = matrix.map_entries(lambda v: v.evaluate(q0))
            _check_printable(x for row in values.rows for x in row)
            click.echo(str(values))
    except PoleError as err:
        raise click.UsageError(str(err))


if __name__ == "__main__":
    main()
