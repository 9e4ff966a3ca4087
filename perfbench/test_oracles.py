"""Self-test of the benchmark's output oracles (not of uqsl2).

Run with: python3 -m pytest -q perfbench/test_oracles.py
"""

import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracles  # noqa: E402
import workloads  # noqa: E402

ORACLE = oracles.NormalFormOracle()
Q0 = oracles.NORMAL_FORM_Q0


def _scalar(c):
    return oracles._scale(oracles._identity(9), Fraction(c))


def test_module_matrices_satisfy_the_defining_relations():
    m = ORACLE.mats
    mul, add, scale = oracles.matmul, oracles._add, oracles._scale
    one = _scalar(1)
    cq = 1 / (Q0 - 1 / Q0)
    assert mul(m["k"], m["k^-1"]) == one
    assert mul(m["k"], m["e"]) == scale(mul(m["e"], m["k"]), Q0 ** 2)
    assert mul(m["k"], m["f"]) == scale(mul(m["f"], m["k"]), Q0 ** -2)
    assert add(mul(m["e"], m["f"]), scale(mul(m["f"], m["e"]), -1)) == \
        scale(add(m["k"], scale(m["k^-1"], -1)), cq)
    for a, b in (("x", "y"), ("y", "z"), ("z", "x")):
        weyl = add(scale(mul(m[a], m[b]), Q0), scale(mul(m[b], m[a]), -1 / Q0))
        assert scale(weyl, cq) == one


def test_scalar_misprint_is_flagged():
    # uqsl2 prints the element 1 - q^2 as "-q^2 - 1"; the right string is "-q^2 + 1"
    word = ["k", "k^-1"]
    value = 1 - Q0 ** 2
    assert ORACLE.printed_matrix("-q^2 + 1") == _scalar(value)
    assert ORACLE.printed_matrix("-q^2 - 1") != _scalar(value)
    assert ORACLE.check(word, "1")
    assert not ORACLE.check(word, "-q^2 - 1")


def test_known_normal_forms_pass_and_perturbations_fail():
    cases = [
        (["e", "f"], "f*e + ((q)/(q^2 - 1))*k - ((q)/(q^2 - 1))*k^-1"),
        (["e", "k"], "q^-2*k*e"),
        (["x"], "k"),
        (["y"], "k^-1 + (q - q^-1)*f"),
        (["z"], "k^-1 - (q^2 - 1)*k^-1*e"),
    ]
    for word, printed in cases:
        assert ORACLE.check(word, printed), (word, printed)
        assert not ORACLE.check(word, printed + " + 1"), (word, printed)
    assert not ORACLE.check(["e", "f"], "f*e + ((q)/(q^2 - 1))*k + ((q)/(q^2 - 1))*k^-1")


def test_terms_are_checked_exactly():
    # e*f = f*e + q/(q^2 - 1) k - q/(q^2 - 1) k^-1, as [a, b, c, coefficient] terms
    terms = [[1, 0, 1, "1"], [0, 1, 0, "(q)/(q^2 - 1)"], [0, -1, 0, "(-q)/(q^2 - 1)"]]
    assert ORACLE.check(["e", "f"], oracles.terms_text(terms))
    assert not ORACLE.check(["e", "f"], oracles.terms_text(terms[:2]))
    # the constant term the uqsl2 printer misprints: 1 - q^2 stays parenthesized
    assert oracles.terms_text([[0, 0, 0, "-q^2 + 1"]]) == "(-q^2 + 1)"
    assert ORACLE.check(["k", "k^-1"], oracles.terms_text([[0, 0, 0, "1"]]))
    assert not ORACLE.check(["k", "k^-1"], oracles.terms_text([[0, 0, 0, "-q^2 + 1"]]))
    assert not ORACLE.check(["k"], oracles.terms_text([]))


def test_malformed_output_is_a_failure():
    for printed in ("", "f*", "(k", "k^", "x", "e^-1", "1/0"):
        assert not ORACLE.check(["k"], printed), printed


def test_row_digest_ignores_order_and_sees_changes():
    rows = [{"identity": "a", "module": {"n": 1, "eps": 1}, "status": "pass"},
            {"identity": "b", "module": None, "status": "pass"}]
    digest = oracles.rows_digest(rows)
    assert oracles.check_rows(rows[::-1], 2, digest) == 0
    assert oracles.check_rows(rows[:1], 2, digest) == 2
    renamed = [dict(rows[0], identity="c"), rows[1]]
    assert oracles.check_rows(renamed, 2, digest) == 2
    failing = [dict(rows[0], status="fail"), rows[1]]
    assert oracles.check_rows(failing, 2, digest) == 1


def test_inputs_are_a_function_of_the_seed():
    for workload in workloads.WORKLOADS:
        a = workloads.make_inputs(workload, 7)
        assert a == workloads.make_inputs(workload, 7)
        assert workloads.inputs_digest(a) == workloads.inputs_digest(
            workloads.make_inputs(workload, 7))
    words = workloads.make_inputs("normalize_words", 7)
    assert len({tuple(w["letters"]) for w in words}) == workloads.WORD_COUNT
    assert workloads.make_inputs("normalize_words", 8) != words
