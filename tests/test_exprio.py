"""Tests for the expression parser and canonical printer."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uqsl2.exprio import (
    MAX_EXPONENT,
    MAX_NESTING,
    MAX_POWER_BITS,
    Generator,
    IntPower,
    Negate,
    ParseError,
    Product,
    ScalarLiteral,
    Sum,
    fold,
    make_negate,
    make_power,
    make_product,
    make_sum,
    parse,
    render,
)
from uqsl2.ncore import from_equitable, normalize_chevalley
from uqsl2.qfield import RF_ONE, RF_Q, RF_ZERO, RatFunc, q_power
from uqsl2.repmod import (Matrix, ModuleSpec, build_chevalley, build_equitable,
                          change_of_basis, evaluate)

QMQI = q_power(1) - q_power(-1)


def test_parse_generators_and_presentation_hygiene():
    assert parse("k", "chevalley") == Generator("chevalley", "k")
    assert parse("x", "equitable") == Generator("equitable", "x")
    assert parse("k^-1", "chevalley") == Generator("chevalley", "k^-1")
    assert parse("x ^ -1", "equitable") == Generator("equitable", "x^-1")
    with pytest.raises(ParseError) as err:
        parse("x", "chevalley")
    assert err.value.position == 1
    with pytest.raises(ParseError):
        parse("e*f", "equitable")


def test_parse_folds_scalars():
    assert parse("q", "chevalley") == ScalarLiteral(RF_Q)
    assert parse("2*3", "chevalley") == ScalarLiteral(RF_ONE * 6)
    assert parse("q^2 - 2 + q^-2", "chevalley") == ScalarLiteral(QMQI * QMQI)
    assert parse("5/2", "chevalley") == ScalarLiteral(RatFunc(5) / RatFunc(2))
    assert parse("-q", "chevalley") == ScalarLiteral(-RF_Q)
    assert parse("1/(q - q^-1)", "chevalley") == ScalarLiteral(QMQI.inverse())


def test_parse_negative_generator_powers():
    k = Generator("chevalley", "k")
    kinv = Generator("chevalley", "k^-1")
    assert parse("k^-2", "chevalley") == IntPower(kinv, 2)
    assert parse("k^-1^3", "chevalley") == IntPower(kinv, 3)
    assert parse("k^0", "chevalley") == ScalarLiteral(RF_ONE)
    assert parse("k^1", "chevalley") == k
    with pytest.raises(ParseError) as err:
        parse("e^-1", "chevalley")
    assert err.value.position == 2
    with pytest.raises(ParseError):
        parse("(e + f)^-1", "chevalley")


def test_parse_structure():
    x = Generator("equitable", "x")
    y = Generator("equitable", "y")
    z = Generator("equitable", "z")
    assert parse("q*x*y", "equitable") == Product((ScalarLiteral(RF_Q), x, y))
    assert parse("1 - x*z", "equitable") == Sum(
        (ScalarLiteral(RF_ONE), Negate(Product((x, z)))))
    assert parse("(x + y) + z", "equitable") == Sum((x, y, z))
    assert parse("-(x + y)", "equitable") == Negate(Sum((x, y)))
    assert parse("(x*y)^2", "equitable") == IntPower(Product((x, y)), 2)


def test_division_requires_nonzero_scalar():
    got = parse("q*(1 - z*x)/(q - q^-1)", "equitable")
    assert isinstance(got, Product)
    assert got.factors[-1] == ScalarLiteral(QMQI.inverse())
    with pytest.raises(ParseError) as err:
        parse("x/y", "equitable")
    assert err.value.position == 2
    with pytest.raises(ParseError) as err:
        parse("x/(q - q)", "equitable")
    assert err.value.position == 2
    with pytest.raises(ParseError):
        parse("x/0", "equitable")


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse("x*+y", "equitable")
    assert err.value.position == 3
    with pytest.raises(ParseError) as err:
        parse("x y", "equitable")
    assert err.value.position == 3
    with pytest.raises(ParseError) as err:
        parse("(x + y", "equitable")
    assert err.value.position == 7
    with pytest.raises(ParseError) as err:
        parse("x^q", "equitable")
    assert err.value.position == 3
    with pytest.raises(ParseError) as err:
        parse("x + @", "equitable")
    assert err.value.position == 5
    with pytest.raises(ParseError) as err:
        parse("", "equitable")
    assert err.value.position == 1


def test_render_frozen_strings():
    assert render(parse("q*x*y", "equitable")) == "q*x*y"
    assert render(parse("1 - x*z", "equitable")) == "1 - x*z"
    assert render(parse("k^-2", "chevalley")) == "k^-2"
    assert render(ScalarLiteral(RF_Q / (RF_Q * RF_Q - 1))) == "((q)/(q^2 - 1))"
    assert render(parse("x - 2", "equitable")) == "x - 2"
    assert render(parse("-x*y + z", "equitable")) == "-x*y + z"
    assert render(parse("(x + y)*z", "equitable")) == "(x + y)*z"
    assert render(parse("5/2", "equitable")) == "(5/2)"


_SCALARS = [
    RF_ONE * 2,
    RF_ONE * -3,
    RatFunc(5) / RatFunc(2),
    RF_Q,
    q_power(-2),
    QMQI,
    QMQI.inverse(),
    q_power(1) + q_power(-1),
]


def _gen_strategy(presentation):
    names = ("k", "k^-1", "e", "f") if presentation == "chevalley" else (
        "x", "x^-1", "y", "z")
    return st.sampled_from([Generator(presentation, n) for n in names])


def _tree_strategy(presentation):
    scalars = st.sampled_from(_SCALARS).map(ScalarLiteral)
    gens = _gen_strategy(presentation)

    def extend(children):
        nonscalar = children.filter(lambda t: not isinstance(t, ScalarLiteral))
        sums = st.lists(children, min_size=2, max_size=3).filter(
            lambda ts: not all(isinstance(t, ScalarLiteral) for t in ts)
        ).map(make_sum)
        prods = st.lists(children, min_size=2, max_size=3).filter(
            lambda ts: not all(isinstance(t, ScalarLiteral) for t in ts)
        ).map(make_product)
        negs = nonscalar.map(make_negate)
        pows = st.tuples(gens, st.integers(2, 4)).map(lambda t: make_power(*t))
        cpows = st.tuples(nonscalar, st.integers(2, 3)).map(
            lambda t: make_power(t[0], t[1]))
        return st.one_of(sums, prods, negs, pows, cpows)

    return st.recursive(st.one_of(gens, scalars), extend, max_leaves=12)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["chevalley", "equitable"]).flatmap(
    lambda p: st.tuples(st.just(p), _tree_strategy(p))))
# folded quotients near the degree cap print as '/' products that parse back
@example(("chevalley", ScalarLiteral((q_power(600) + 2) / (q_power(600) + 3))))
@example(("equitable", Product((ScalarLiteral((1 + 2 * q_power(-1000)) / (q_power(1000) + 3)),
                                Generator("equitable", "y")))))
def test_render_parse_round_trip(arg):
    presentation, tree = arg
    text = render(tree)
    assert parse(text, presentation) == tree


def test_nesting_cap():
    for opener, closer in (("(", ")"), ("-", ""), ("-(", ")")):
        depth = MAX_NESTING // len(opener)
        assert parse(opener * depth + "e" + closer * depth,
                     "chevalley") == Generator("chevalley", "e")
        text = opener * (depth + 1) + "e" + closer * (depth + 1)
        with pytest.raises(ParseError) as err:
            parse(text, "chevalley")
        assert err.value.position == MAX_NESTING + 1
    # sums and products at one level do not nest
    assert parse(" + ".join(["(e)"] * 500), "chevalley") == Sum(
        (Generator("chevalley", "e"),) * 500)


def test_exponent_cap_and_power_chains():
    e = Generator("chevalley", "e")
    assert parse("e^2^3", "chevalley") == IntPower(e, 6)
    assert parse("(e^2)^3", "chevalley") == IntPower(e, 6)
    assert parse("e^%d" % MAX_EXPONENT, "chevalley") == IntPower(e, MAX_EXPONENT)
    assert parse("q^-%d" % MAX_EXPONENT, "chevalley") == ScalarLiteral(q_power(-MAX_EXPONENT))
    # the error points at the caret that passes the cap
    for text, pos in (("e^1001", 2), ("q^-1001", 2), ("(q+1)^3000", 6),
                      ("e" + "^2" * 1500, 20), ("q^1000^2", 7), ("(e^600)^2", 8)):
        with pytest.raises(ParseError) as err:
            parse(text, "chevalley")
        assert err.value.position == pos
    # a chain is checked step by step: (k^2)^-1 stays an error
    with pytest.raises(ParseError):
        parse("k^2^-1", "chevalley")


def test_scalar_power_result_cap():
    # the size of a scalar power's result is capped before it is computed,
    # and so is the summed size of the scalar factors of one product
    assert parse("(q+1)^1000", "chevalley").value.num.degree() == MAX_EXPONENT
    assert parse("(q+1)^500*(q+1)^500", "chevalley").value.num.degree() == MAX_EXPONENT
    assert parse("q^500*e*q^500", "chevalley").factors[0] == ScalarLiteral(q_power(500))
    # a product is bounded before it cancels, so factors that cancel pass
    assert parse("q^1000*q^-1000", "chevalley") == ScalarLiteral(RF_ONE)
    assert parse("q^600/q^600", "chevalley") == ScalarLiteral(RF_ONE)
    assert parse("q^600*e*q^-600", "chevalley").factors[2] == ScalarLiteral(q_power(-600))
    assert parse("(2^1000)^13/(2^1000)^13", "chevalley") == ScalarLiteral(RF_ONE)
    assert parse("0*q^1000*q^1000", "chevalley") == ScalarLiteral(RF_ZERO)
    ratio = parse("(q^600+2)/(q^600+3)", "chevalley").value
    assert (ratio.num.degree(), ratio.den.degree()) == (600, 600)
    assert parse("(q^500)^2", "chevalley") == ScalarLiteral(q_power(1000))
    assert parse("1000^1000", "chevalley") == ScalarLiteral(RF_ONE * 1000 ** 1000)
    # 2^1000 has 1001 bits and an l1 norm of 1002 bits, 13 * 1002 <= 14000
    assert parse("(2^1000)^13", "chevalley") == ScalarLiteral(RF_ONE * 2 ** 13000)
    # a denominator of 1427 bits: 9 * 1427 <= 14000 < 10 * 1427
    assert parse("((1/3)^900)^9", "chevalley") == ScalarLiteral(
        RF_ONE * Fraction(1, 3 ** 8100))
    assert MAX_POWER_BITS == 14000
    # a negative power is sized by the inverse it computes
    inv = parse("(q+q^-1)^-500", "chevalley").value
    assert (inv.num.degree(), inv.den.degree()) == (500, 1000)
    # a sum is bounded before it cancels; equal denominators add once
    assert parse("q^1000 + q^-1000", "chevalley") == ScalarLiteral(
        q_power(1000) + q_power(-1000))
    assert parse("1/(q^600+3) + 2/(q^600+3)", "chevalley") == ScalarLiteral(
        3 / (q_power(600) + 3))
    assert parse("1 - 1/(q^600+3)", "chevalley").value.den.degree() == 600
    for text, pos in (("((q+1)^1000)^4", 13), ("((2^1000)^1000)^1000", 10),
                      ("(q^500)^3", 8), ("(q^-2 + 1)^-501", 11),
                      ("(2^1000)^14", 9), ("((1/3)^900)^10", 12),
                      ("((q-1)/(q^600+2))^2", 18), ("(q+1)^600*(q+1)^600", 10),
                      ("(2^1000)^13*(2^1000)^13", 12), ("(2^1000)^7*(2^1000)^7", 11),
                      ("q^600*e*q^600", 8), ("e*q^600/q^-600", 8),
                      ("((2^1000)^13*e)*((2^1000)^13*e)", 16), ("q^-600*q^-600", 7),
                      ("1/(q^600+1)/(q^600+1)", 12), ("1/(2^1000)^7/(2^1000)^7", 13),
                      ("1/(q+(2^1000)^7)/(q+(2^1000)^7)", 17),
                      ("(q+q^-1)^-600", 9),
                      ("1/(q^600+3) + 1/(q^600+5)", 13),
                      ("e + 1/(q^600+3) - 1/(q^600+5)", 17),
                      ("9" * 4214 + " + " + "9" * 4214, 4216),
                      ("2 + " + "9" * 4400, 5)):
        with pytest.raises(ParseError) as err:
            parse(text, "chevalley")
        assert err.value.position == pos, text


_Q0 = Fraction(5, 3)


def _small_tree_strategy(presentation):
    leaves = st.one_of(_gen_strategy(presentation),
                       st.sampled_from(_SCALARS).map(ScalarLiteral))

    def extend(children):
        return st.one_of(
            st.lists(children, min_size=2, max_size=3).map(make_sum),
            st.lists(children, min_size=2, max_size=3).map(make_product),
            children.map(make_negate),
            st.tuples(children, st.integers(0, 2)).map(lambda t: make_power(*t)))

    return st.recursive(leaves, extend, max_leaves=6)


def _matrix_fold_at_q0(tree, rep):
    # what ``uqsl2 eval --rep`` prints: the fold over the module's matrices at q0
    matrix = fold(tree, lambda v: Matrix.identity(rep.dim).scalar_mul(v),
                  rep.action.__getitem__)
    return matrix.map_entries(lambda v: v.evaluate(_Q0))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["chevalley", "equitable"]).flatmap(
    lambda p: st.tuples(st.just(p), _small_tree_strategy(p))),
       st.integers(0, 3), st.sampled_from([1, -1]))
def test_fold_on_matrices_matches_normal_form(arg, n, eps):
    presentation, tree = arg
    spec = ModuleSpec.single(n, eps)
    chev = build_chevalley(spec)
    if presentation == "chevalley":
        expected = evaluate(normalize_chevalley(tree), chev)
        actual = _matrix_fold_at_q0(tree, chev)
    else:
        d = change_of_basis(spec)
        expected = d.inverse() * evaluate(from_equitable(tree), chev) * d
        actual = _matrix_fold_at_q0(tree, build_equitable(spec))
    assert actual == expected.map_entries(lambda v: v.evaluate(_Q0))
