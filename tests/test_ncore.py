"""Tests for PBW normalization, presentation maps, and n-elements."""

import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uqsl2 import ncore
from uqsl2.exprio import BudgetError, parse
from uqsl2.ncore import AlgebraElement, apply_automorphism, n_element
from uqsl2.qfield import CQ, RF_ONE, LaurentPoly, RatFunc, q_power, qint
from uqsl2.report import RecipeError


def nf(text):
    return ncore.normalize_chevalley(parse(text, "chevalley"))


def test_normal_form_frozen_strings():
    assert str(nf("e*f - f*e")) == "((q)/(q^2 - 1))*k - ((q)/(q^2 - 1))*k^-1"
    assert str(nf("f*e")) == "f*e"
    assert str(nf("e*f")) == "((q)/(q^2 - 1))*k - ((q)/(q^2 - 1))*k^-1 + f*e"
    assert str(nf("e*k")) == "q^-2*k*e"
    assert str(nf("k*e")) == "k*e"
    assert str(nf("k^2*k^-3")) == "k^-1"
    assert str(nf("k*k^-1")) == "1"
    # by hand: e f^2 = f^2 e + (1+q^-2)/(q-q^-1) f k - (1+q^2)/(q-q^-1) f k^-1
    assert str(nf("e*f^2")) == (
        "((q + q^-1)/(q^2 - 1))*f*k - ((q^3 + q)/(q^2 - 1))*f*k^-1 + f^2*e")
    assert str(nf("0*e")) == "0"


def test_normal_form_term_order():
    # terms sort by f-degree ascending, then k-exponent descending, then e-degree
    el = nf("e*f*k + k^-1 - 2")
    assert str(el) == (
        "((q)/(q^2 - 1))*k^2 - (2*q^2 + q - 2)/(q^2 - 1) + k^-1 + q^-2*f*k*e")
    keys = list(sorted(el.terms, key=lambda m: (m[0], -m[1], m[2])))
    assert keys == [(0, 2, 0), (0, 0, 0), (0, -1, 0), (1, 1, 1)]
    assert all(a >= 0 and c >= 0 for a, _, c in el.terms)


def test_confluence_all_overlaps_resolve():
    rep = ncore.verify_confluence()
    assert rep.passed
    words = [e.identity.rsplit(":", 1)[1] for e in rep.entries]
    # programmatic enumeration: every two-rule overlap of the system
    rules = ncore._derived_rules(ncore.RELATIONS["chevalley"])
    expected = sorted({u + v[1] for u in rules for v in rules if u[1] == v[0]})
    assert words == expected
    assert len(words) == 8


# the rewriting system as it was once written by hand, beside the relations:
# each redex maps to (coefficient, replacement word) pairs, K standing for k^-1
_HAND_RULES = {
    "ef": ((RF_ONE, "fe"), (CQ, "k"), (-CQ, "K")),
    "ek": ((q_power(-2), "ke"),),
    "eK": ((q_power(2), "Ke"),),
    "kf": ((q_power(-2), "fk"),),
    "Kf": ((q_power(2), "fK"),),
    "kK": ((RF_ONE, ""),),
    "Kk": ((RF_ONE, ""),),
}


def test_rules_derive_from_the_chevalley_relations():
    derived = ncore._derived_rules(ncore.RELATIONS["chevalley"])
    assert derived == {redex: {word: c for c, word in repl}
                       for redex, repl in _HAND_RULES.items()}
    # the conjugates by K read the rules of k*k^-1=k^-1*k=1 wherever it stands
    assert ncore._derived_rules(ncore.RELATIONS["chevalley"][::-1]) == derived


def test_a_false_k_relation_fails_the_overlaps_of_its_rules(monkeypatch):
    # k*e=q^3*e*k gives ek -> q^-3*ke and eK -> q^3*Ke, whose overlaps with
    # kf and Kf resolve to terms of k and K that differ by a factor of q
    table = ncore.RELATIONS["chevalley"]
    monkeypatch.setitem(ncore.RELATIONS, "chevalley", tuple(
        "k*e=q^3*e*k" if text == "k*e=q^2*e*k" else text for text in table))
    report = ncore.verify_confluence()
    assert len(report.entries) == 8
    assert [e.identity for e in report.failures] == [
        "confluence:overlap:eKf", "confluence:overlap:ekf"]
    assert all(e.witness for e in report.failures)


@pytest.mark.parametrize("text", [
    "e*f=f*e*e*f",  # two words with out-of-order pairs
    "e*f^2=f*e",  # a redex of three letters
    # ke is as long as kf but not its letters swapped: with ef -> ff, which
    # e*f=f*f would give, kef -> kff -> kef would loop
    "k*f=k*e",
    "e*f=f*e*e",  # a replacement longer than its redex
])
def test_a_relation_that_does_not_orient_raises(text):
    with pytest.raises(RecipeError, match=re.escape(text) + " does not orient"):
        ncore._derived_rules(("k*k^-1=k^-1*k=1", text))


def test_presentation_iso_checks():
    rep = ncore.verify_presentation_iso()
    assert rep.passed
    assert len(rep.entries) == 8
    names = [e.identity for e in rep.entries]
    assert sum(n.startswith("iso:relation:") for n in names) == 4
    assert sum(n.startswith("iso:composite:") for n in names) == 4


def test_equitable_relations_normalize_to_one():
    one = AlgebraElement.one()
    for rel in (
        "x*x^-1", "x^-1*x",
        "(q*x*y - q^-1*y*x)/(q - q^-1)",
        "(q*y*z - q^-1*z*y)/(q - q^-1)",
        "(q*z*x - q^-1*x*z)/(q - q^-1)",
    ):
        assert ncore.from_equitable(parse(rel, "equitable")) == one


def test_equitable_generator_images():
    assert str(ncore.equitable_image("x")) == "k"
    assert str(ncore.equitable_image("x^-1")) == "k^-1"
    assert str(ncore.equitable_image("y")) == "k^-1 + (q - q^-1)*f"
    assert str(ncore.equitable_image("z")) == "k^-1 - (q^2 - 1)*k^-1*e"
    e = AlgebraElement.generator("e")
    assert ncore.from_equitable(parse("(1 - x*z)*q^-1/(q - q^-1)", "equitable")) == e


def test_n_element_frozen_values():
    assert n_element("y") == AlgebraElement.generator("e")
    assert str(n_element("z")) == "-q^-1*f*k"
    k = AlgebraElement.generator("k")
    f = AlgebraElement.generator("f")
    assert n_element("z") == k * f * (-q_power(1))
    assert n_element("x") * (RF_ONE * 0) == AlgebraElement.zero()
    with pytest.raises(ValueError):
        n_element("w")


def test_n_commutation_suite():
    rep = ncore.verify_n_commutation()
    assert rep.passed
    assert len(rep.entries) == 6


def test_n_preimages_suite():
    rep = ncore.verify_n_preimages()
    assert rep.passed
    assert len(rep.entries) == 2


def test_degree_bound_for_ef_powers():
    ef = nf("e*f")
    power = AlgebraElement.one()
    for m in range(1, 6):
        power = power * ef
        assert all(-m <= b <= m for _, b, _ in power.terms)
        assert all(a <= m and c <= m for a, _, c in power.terms)


def test_product_work_is_bounded_before_the_table_is_built(monkeypatch):
    # _ef_terms is the exact term count of the table the work estimate
    # reads, and 2m(r + s) and 2m bound the span and the denominator degree
    # of each of its coefficients, m = min(r, s)
    for r in range(9):
        for s in range(9):
            table = ncore._ef_table(r, s)
            assert ncore._ef_terms(r, s) == sum(
                len(g.num.terms) + len(g.den.terms) for _, _, g in table)
            m = min(r, s)
            for _, _, g in table:
                assert g.num.degree() - g.num.valuation() + g.den.degree() <= 2 * m * (r + s)
                assert g.den.degree() <= 2 * m
    with pytest.raises(BudgetError):
        nf("e^40*f^40")
    assert ncore._ef_terms(1000, 1000) > 10 ** 11  # counted, not built
    square = nf("e^12*f^12")

    def no_loop(*args):
        raise AssertionError("the product loop ran")
    monkeypatch.setattr(ncore, "_accumulate", no_loop)
    with pytest.raises(BudgetError):
        square * square


def test_coefficients_that_meet_are_held_to_the_budget():
    # a denominator past the exponent budget is refused whether the terms
    # meet in a sum or in a product; a numerator that a table raises is not
    for text in ("1/(q^600+3)*e + 1/(q^600+5)*e",
                 "(1/(q^600+3) + 1/(q^600+5)*k)*(k+1)"):
        with pytest.raises(BudgetError):
            nf(text)
    assert nf("(1/(q^600+3) + 1/(q^600+5)*k)*k") == nf(
        "1/(q^600+3)*k + 1/(q^600+5)*k^2")
    assert nf("e^1000*f*f") == nf("e^1000*f^2")


def test_scalar_elements_hash_like_their_values():
    assert len({AlgebraElement.one(), RF_ONE, 1}) == 1
    assert hash(AlgebraElement.zero()) == hash(0)
    assert hash(AlgebraElement.scalar(q_power(2))) == hash(q_power(2))


def test_automorphism_frozen_values():
    e = AlgebraElement.generator("e")
    f = AlgebraElement.generator("f")
    k = AlgebraElement.generator("k")
    assert apply_automorphism(e, 2, q_power(3)) == nf("q^-1*k^2*e")
    assert apply_automorphism(f, 2, q_power(3)) == nf("q*f*k^-2")
    assert apply_automorphism(k, 5, RF_ONE * 7) == k
    assert apply_automorphism(e, 0, RF_ONE) == e
    with pytest.raises(ValueError):
        apply_automorphism(e, 1, RF_ONE * 0)
    with pytest.raises(TypeError):
        apply_automorphism(e, "1", RF_ONE)


def test_automorphism_checks_its_images_without_assert(monkeypatch):
    # the relation checks raise, so they hold under python -O too
    e = AlgebraElement.generator("e")
    monkeypatch.setattr(ncore, "_auto_checked", set())
    monkeypatch.setitem(ncore._GENERATORS, "e", e * 2)
    with pytest.raises(RuntimeError, match=r"break e\*f-f\*e=\(k-k\^-1\)/\(q-q\^-1\)"):
        apply_automorphism(e, 1, q_power(1))
    assert not ncore._auto_checked


_monos = st.tuples(st.integers(0, 2), st.integers(-2, 2), st.integers(0, 2))
_coeffs = st.integers(-4, 4).filter(bool)


def _elements(max_size=3):
    return st.dictionaries(_monos, _coeffs, max_size=max_size).map(AlgebraElement)


@settings(max_examples=25, deadline=None)
@given(_elements(2), _elements(2), _elements(2))
def test_multiplication_is_associative_and_distributive(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


@settings(max_examples=25, deadline=None)
@given(_elements(), _elements())
def test_automorphism_is_multiplicative(a, b):
    for i, alpha in ((1, q_power(1)), (-2, RF_ONE * 3)):
        fa = apply_automorphism(a, i, alpha)
        fb = apply_automorphism(b, i, alpha)
        assert apply_automorphism(a * b, i, alpha) == fa * fb
        assert apply_automorphism(a + b, i, alpha) == fa + fb


@settings(max_examples=40, deadline=None)
@given(_elements())
def test_algebra_element_linear_structure(a):
    zero = AlgebraElement.zero()
    assert a - a == zero
    assert a + zero == a
    assert a * AlgebraElement.one() == a
    assert AlgebraElement.one() * a == a
    assert -(-a) == a
    assert a * 2 - a == a


def _word(mono):
    # the letter word f...k...e (or f...K...e, K = k^-1) of a PBW monomial
    a, b, c = mono
    return "f" * a + ("k" * b if b >= 0 else "K" * -b) + "e" * c


def _mono(word):
    # a normal word is f^a, then k^b or K^-b, then e^c
    return (word.count("f"), word.count("k") - word.count("K"), word.count("e"))


_pbw_monos = st.tuples(st.integers(0, 6), st.integers(-3, 3), st.integers(0, 6))


@settings(max_examples=60, deadline=None)
@given(_pbw_monos, _coeffs, _pbw_monos, st.sampled_from([RF_ONE, q_power(-3), CQ]))
def test_product_matches_rewriter(m1, c1, m2, c2):
    # the closed-form product against the rewriting system verify_confluence certifies
    got = AlgebraElement({m1: c1}) * AlgebraElement({m2: c2})
    words = ncore._rewrite({_word(m1) + _word(m2): c2 * c1})
    assert got.terms == {_mono(w): c for w, c in words.items()}


def test_wide_products_match_rewriter():
    for r, s in ((8, 8), (9, 4), (2, 10)):
        got = nf("e^%d*f^%d" % (r, s))
        words = ncore._rewrite({"e" * r + "f" * s: RF_ONE})
        assert got.terms == {_mono(w): c for w, c in words.items()}


_polys = st.dictionaries(st.integers(-3, 3),
                         st.fractions(min_value=-3, max_value=3,
                                      max_denominator=3).filter(bool),
                         min_size=1, max_size=3).map(
    lambda t: sum(q_power(e) * c for e, c in t.items()))
_dens = st.sampled_from([1, 1, qint(2), qint(3), LaurentPoly({2: 1, 0: -1}),
                         LaurentPoly({1: 2, 0: 3})])
_ratfuncs = st.builds(RatFunc, _polys, _dens)
# the constant monomial is drawn often: its coefficient prints unwrapped
_printed_monos = st.one_of(st.just((0, 0, 0)), _monos)


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(_printed_monos, _ratfuncs, max_size=3).map(AlgebraElement))
def test_printed_normal_form_parses_back(a):
    assert nf(str(a)) == a


def test_printer_keeps_parentheses_of_negated_constants():
    assert str(nf("1 - q^2")) == "-(q^2 - 1)"
    assert str(nf("k - 1 - q^2")) == "k - (q^2 + 1)"
    assert str(nf("q^2 - 1")) == "q^2 - 1"
    assert str(nf("k + q^2 - 1")) == "k + q^2 - 1"


def _in_ring_form(el):
    # every coefficient is a LaurentPoly exactly when its denominator is 1
    return all(type(c) is (LaurentPoly if RatFunc(c).den == 1 else RatFunc)
               for c in el.terms.values())


def _general(mono):
    # the monomial of coefficient 1, as a LaurentPoly that is not the one
    # of the generators, so a product by it takes the table loop
    return AlgebraElement({mono: LaurentPoly({0: 1})})


_mixed_coeffs = st.sampled_from([
    1, -2, LaurentPoly({1: 1, -1: -1}), LaurentPoly({-2: 3, 0: 1}), CQ, -CQ * 2,
    RatFunc(1, LaurentPoly({2: 1, 0: 3})), RatFunc(LaurentPoly({1: 1}), 2)])
_mixed = st.dictionaries(_monos, _mixed_coeffs, max_size=3).map(AlgebraElement)


@settings(max_examples=60, deadline=None)
@given(_mixed, st.tuples(st.just(0), st.integers(-3, 3), st.integers(0, 3)),
       st.tuples(st.integers(0, 3), st.integers(-3, 3), st.just(0)))
def test_relabeled_products_match_the_table_loop(a, right, left):
    # a monomial with no f on the right, or no e on the left, relabels the
    # other factor's terms: the same terms, in the same order, as the loop
    # over the table, and the size that the loop's result reads off
    for got, want in ((a * AlgebraElement._raw({right: ncore._ONE_P}), a * _general(right)),
                      (AlgebraElement._raw({left: ncore._ONE_P}) * a, _general(left) * a)):
        assert list(got.terms.items()) == list(want.terms.items())
        assert got.size() == AlgebraElement._raw(dict(want.terms)).size()
        assert _in_ring_form(got)


@pytest.mark.parametrize("name,square", [
    ("f", (2, 0, 0)), ("e", (0, 0, 2)), ("k", (0, 2, 0)), ("k^-1", (0, -2, 0))])
def test_a_generator_times_itself(name, square):
    # both operands are one object, a mover on the left and on the right
    # alike; f*f moves f past nothing, so no term is lost
    g = AlgebraElement.generator(name)
    (mono,) = g.terms
    assert (g * g).terms == (g * _general(mono)).terms == {square: 1}
    assert g * g == nf("%s*%s" % (name, name)) and _in_ring_form(g * g)
    assert (g * g).terms == _rewritten({_word(square): RF_ONE})


def _combo(el):
    # an element as a combination of words of the free algebra
    return {_word(m): c for m, c in el.terms.items()}


def _word_product(u, v):
    res = {}
    for w1, c1 in u.items():
        for w2, c2 in v.items():
            ncore._accumulate(res, w1 + w2, c1 * c2)
    return res


def _rewritten(combo):
    return {_mono(w): c for w, c in ncore._rewrite(combo).items()}


@settings(max_examples=40, deadline=None)
@given(_mixed, _mixed)
def test_mixed_coefficients_match_the_rewriter(a, b):
    # ring coefficients beside CQ and 1/(q^2 + 3): products, sums and powers
    # against the rewriting system, each in ring form
    ca, cb = _combo(a), _combo(b)
    for got, want in ((a * b, _word_product(ca, cb)),
                      (a + b, ncore._Words(ca) + ncore._Words(cb)),
                      (a ** 2, _word_product(ca, ca)),
                      (b * 3 - a, ncore._Words(cb) * ncore._Words({"": RF_ONE * 3})
                       + -ncore._Words(ca))):
        assert got.terms == _rewritten(want)
        assert _in_ring_form(got)


def test_equitable_words_stay_in_the_ring():
    # y and z carry q - q^-1 and q(q - q^-1) beside f and e, which clear the
    # table's denominators (q - q^-1)^t: every coefficient is a LaurentPoly
    el = ncore.from_equitable(parse("(y*z)^4*x^-1*z*y^3", "equitable"))
    assert el.terms and all(type(c) is LaurentPoly for c in el.terms.values())
    cheval = nf("e^3*f^3*k^-2 + 1/(q^2+3)*e")
    assert _in_ring_form(cheval) and any(type(c) is RatFunc for c in cheval.terms.values())
    # a negative power of a k-monomial leaves the ring through RatFunc
    k = AlgebraElement.generator("k")
    assert (k * 2) ** -2 == AlgebraElement({(0, -2, 0): RatFunc(1, 4)})
    assert (k ** -3).terms == {(0, -3, 0): 1} and _in_ring_form((k * 2) ** -2)


def _by_table_loop(product):
    # product() with the packed product declining, so the table loop runs
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ncore, "_packed_product", lambda left, right: None)
        return product()


def _packed_widths(product):
    # product() and the slot width of each sum the packed product unpacked
    widths, real = [], ncore._unpacked
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ncore, "_unpacked", lambda p, v, w: widths.append(w) or real(p, v, w))
        return product(), widths


_QMQ = LaurentPoly({1: 1, -1: -1})  # q - q^-1
# ints at the edges of 2-, 4-, 8-byte and wider slots, of either sign
_edge_ints = st.sampled_from([1, 2, 3, 2 ** 15 - 1, 2 ** 31, 2 ** 63, 2 ** 100]).flatmap(
    lambda n: st.sampled_from([n, -n]))
_ring_polys = st.dictionaries(st.integers(-3, 3), _edge_ints, min_size=1, max_size=3).map(
    LaurentPoly)
# the ring of the equitable words: (q - q^-1)^(a+c) divides the coefficient
# of f^a k^b e^c, so every image a product reads is a LaurentPoly
_ring_elements = st.dictionaries(_monos, _ring_polys, max_size=3).map(
    lambda t: AlgebraElement({m: c * _QMQ ** (m[0] + m[2]) for m, c in t.items()}))


@settings(max_examples=80, deadline=None)
@given(_ring_elements, _ring_elements, st.one_of(st.none(), _monos))
@example(AlgebraElement.zero(), AlgebraElement({(1, 0, 0): _QMQ}), None)
@example(AlgebraElement({(0, 1, 1): 2 ** 100 * _QMQ}), AlgebraElement.zero(), None)
@example(AlgebraElement({(0, 0, 1): -(2 ** 15 - 1) * _QMQ}),
         AlgebraElement({(2, -1, 0): 2 ** 63 * _QMQ ** 2}), None)
def test_packed_products_match_the_table_loop(a, b, ratfunc_at):
    # the Kronecker-packed product against the table loop, term by term in
    # the loop's order; a RatFunc coefficient on the left, or a zero factor,
    # takes the loop
    if ratfunc_at is not None:
        a = a + AlgebraElement({ratfunc_at: RatFunc(1, LaurentPoly({2: 1, 0: 3}))})
    got, widths = _packed_widths(lambda: a * b)
    assert list(got.terms.items()) == list(_by_table_loop(lambda: a * b).terms.items())
    declines = ratfunc_at is not None or a.is_zero() or b.is_zero()
    assert (ncore._packed_product(a, b) is None) == declines
    assert _in_ring_form(got)
    # one width per product, wide enough for every digit of the result
    assert len(set(widths)) <= 1
    digits = [abs(x) for c in got.terms.values() if type(c) is LaurentPoly for x in c.c]
    assert not widths or max(digits) < 2 ** (8 * widths[0] - 1)


def test_packed_product_drops_a_sum_that_cancels():
    # e*(q - q^-1)f gives k, which -k*1 cancels and 1*k brings back: the key
    # leaves and comes back last, as in the table loop
    left = AlgebraElement({(0, 0, 1): 1, (0, 1, 0): -1, (0, 0, 0): 1})
    right = AlgebraElement({(1, 0, 0): _QMQ, (0, 0, 0): 1, (0, 1, 0): 1})
    got, widths = _packed_widths(lambda: left * right)
    assert widths and list(got.terms)[-1] == (0, 1, 0) and got.terms[(0, 1, 0)] == 1
    assert list(got.terms.items()) == list(_by_table_loop(lambda: left * right).terms.items())


def test_wide_slot_products_match_the_table_loop():
    # 3^30 and 5^20 grow past 8-byte digits: the to_bytes branch of packing
    word = parse("(3^30*y*z - 5^20*z*y)^4", "equitable")
    got, widths = _packed_widths(lambda: ncore.from_equitable(word))
    assert {14, 20, 26} <= set(widths)
    want = _by_table_loop(lambda: ncore.from_equitable(word))
    assert list(got.terms.items()) == list(want.terms.items())
