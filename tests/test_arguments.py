"""Every integer argument of the library goes through errors.check_int.

Each entry point below is called with a bool, a float and the integers
just outside its range, and must refuse each with check_int's ValueError:
`{what} must be an integer, got ...`, `... must be at least {low}, got
...` or `... must be at most {high}, got ...`.  Every such refusal, and
every other argument the library refuses, is an InvalidArgumentError, so
both a HesscohError and a ValueError.  The conclusions a result used to
store, CheckResult.passed and HilbertData.quotient_dimension, are derived
from what it holds.
"""

from __future__ import annotations

import dataclasses
import re

import pytest

from hesscoh.errors import HesscohError, InvalidArgumentError, check_int
from hesscoh.generators import (
    delta,
    f_closed,
    f_inductive,
    f_ordinary,
    generator_matrix,
    ideal_generators,
    p_sum,
    peterson_rewrite_factor,
    q_flag,
)
from hesscoh.groebner import HilbertData, buchberger, hilbert_series, normal_form
from hesscoh.hessenberg import (
    HessenbergFunction,
    enumerate_all,
    fixed_points,
    flag_function,
    peterson_function,
)
from hesscoh.latexout import factored_latex
from hesscoh.polyring import Polynomial, elementary_symmetric, power_sum, x_var
from hesscoh.verify import (
    CheckResult,
    check_closed_form_at,
    check_flag_borel,
    check_peterson,
    check_t_zero_at,
    run_suite,
)

H233 = HessenbergFunction((2, 3, 3))

# (id, call with the argument under test, its low end, its high end or None)
ENTRY_POINTS = [
    ("Polynomial-n", lambda v: Polynomial(v), 1, None),
    ("Polynomial-pow", lambda v: x_var(1, 2) ** v, 0, None),
    ("Polynomial-exponent", lambda v: Polynomial(2, {(v, 0, 0): 1}), 0, None),
    ("substitute-x", lambda v: x_var(1, 2).substitute({v: 0}), 1, 2),
    ("x_var-k", lambda v: x_var(v, 2), 1, 2),
    ("x_var-n", lambda v: x_var(1, v), 1, None),
    ("elementary_symmetric-x", lambda v: elementary_symmetric(1, [v], 2), 1, 2),
    ("elementary_symmetric-i", lambda v: elementary_symmetric(v, [1, 2], 2), 0, 2),
    ("elementary_symmetric-n", lambda v: elementary_symmetric(1, [1], v), 1, None),
    ("power_sum-r", lambda v: power_sum(v, 2), 1, None),
    ("power_sum-n", lambda v: power_sum(1, v), 1, None),
    ("p_sum-i", lambda v: p_sum(v, 2), 0, 2),
    ("p_sum-n", lambda v: p_sum(0, v), 1, None),
    ("q_flag-r", lambda v: q_flag(v, 2), 1, 2),
    ("q_flag-n", lambda v: q_flag(1, v), 1, None),
    ("f_inductive-i", lambda v: f_inductive(v, 0, 2), 0, 2),
    ("f_inductive-j", lambda v: f_inductive(2, v, 2), 0, 2),
    ("f_inductive-n", lambda v: f_inductive(1, 1, v), 1, None),
    ("f_closed-j", lambda v: f_closed(2, v, 2), 0, 2),
    ("f_ordinary-n", lambda v: f_ordinary(1, 1, v), 1, None),
    ("delta-j", lambda v: delta(2, v, 2), 1, 2),
    ("generator_matrix-n", lambda v: generator_matrix(v), 1, None),
    ("peterson_rewrite_factor-j", lambda v: peterson_rewrite_factor(v, 3), 1, 2),
    ("peterson_rewrite_factor-n", lambda v: peterson_rewrite_factor(1, v), 1, None),
    ("HessenbergFunction-call", lambda v: H233(v), 1, 3),
    ("peterson_function-n", lambda v: peterson_function(v), 1, None),
    ("flag_function-n", lambda v: flag_function(v), 1, None),
    ("enumerate_all-n", lambda v: enumerate_all(v), 1, None),
    ("enumerate_all-cap", lambda v: enumerate_all(1, cap=v), 1, None),
    ("fixed_points-cap", lambda v: fixed_points(H233, cap=v), 1, None),
    ("factored_latex-i", lambda v: factored_latex(v, 2), 2, None),
    ("factored_latex-j", lambda v: factored_latex(2, v), 1, None),
    ("run_suite-n_max", lambda v: run_suite(["example-n4"], n_max=v), 1, None),
    ("run_suite-groebner_n_max", lambda v: run_suite(["example-n4"], groebner_n_max=v), 1, None),
    ("run_suite-jobs", lambda v: run_suite(["example-n4"], jobs=v), 1, None),
    ("run_suite-pair_budget", lambda v: run_suite(["example-n4"], pair_budget=v), 0, None),
    ("buchberger-pair_budget", lambda v: buchberger([x_var(1, 1)], pair_budget=v), 0, None),
    ("check_closed_form_at-n", lambda v: check_closed_form_at(v), 1, None),
    ("check_t_zero_at-n", lambda v: check_t_zero_at(v), 1, None),
    ("check_peterson-n", lambda v: check_peterson(v), 2, None),
    ("check_flag_borel-n", lambda v: check_flag_borel(v, groebner_cap=0), 1, None),
]


def _refusals():
    for name, call, low, high in ENTRY_POINTS:
        yield pytest.param(call, True, "must be an integer, got True", id=f"{name}-bool")
        yield pytest.param(call, 2.5, "must be an integer, got 2.5", id=f"{name}-float")
        yield pytest.param(call, low - 1, f"must be at least {low}, got {low - 1}",
                           id=f"{name}-below")
        if high is not None:
            yield pytest.param(call, high + 1, f"must be at most {high}, got {high + 1}",
                               id=f"{name}-above")


@pytest.mark.parametrize("call, value, message", _refusals())
def test_integer_arguments_are_refused_through_check_int(call, value, message):
    with pytest.raises(ValueError, match=re.escape(message) + "$") as caught:
        call(value)
    assert isinstance(caught.value, HesscohError)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: run_suite(["bogus"]), "unknown check(s): bogus; known: ", id="unknown"),
    pytest.param(lambda: run_suite(["example-n4", "example-n4"]),
                 "repeated check(s): example-n4", id="repeated"),
    pytest.param(lambda: run_suite([]), "empty suite: name at least one check", id="empty-suite"),
    pytest.param(lambda: run_suite("peterson"),
                 "names must be 'all' or a list of check names, got 'peterson'", id="bare-name"),
    pytest.param(lambda: buchberger([]), "buchberger needs at least one generator",
                 id="buchberger-empty"),
    pytest.param(lambda: normal_form(x_var(1, 2), []), "normal_form needs a nonempty basis",
                 id="normal_form-empty"),
    pytest.param(lambda: elementary_symmetric(1, (1, 1), 2),
                 "variable indices must be distinct, got (1, 1)", id="repeated-index"),
    pytest.param(lambda: ideal_generators(H233, "bogus"),
                 "mode must be one of ('equivariant', 'ordinary'), got 'bogus'", id="mode"),
])
def test_other_refusals_are_invalid_argument_errors(call, message):
    with pytest.raises(InvalidArgumentError, match="^" + re.escape(message)) as caught:
        call()
    assert isinstance(caught.value, HesscohError) and isinstance(caught.value, ValueError)


def test_check_int_returns_the_value():
    assert check_int(3, "n", 1, 3) == 3
    assert check_int(0, "n", 0) == 0
    with pytest.raises(ValueError, match=r"^n must be an integer, got False$"):
        check_int(False, "n", 0)
    with pytest.raises(ValueError, match=r"^n must be an integer, got '3'$"):
        check_int("3", "n", 1)


def test_passed_is_read_from_the_witness():
    assert CheckResult("demo", {}).passed
    assert not CheckResult("demo", {}, witness={"j": 1}).passed
    assert "passed" not in {f.name for f in dataclasses.fields(CheckResult)}
    with pytest.raises(TypeError):
        CheckResult("demo", {}, passed=True)


def test_quotient_dimension_is_read_from_the_series():
    ordinary = hilbert_series(buchberger(ideal_generators(H233, "ordinary").generators))
    equivariant = hilbert_series(buchberger(ideal_generators(H233, "equivariant").generators))
    assert (ordinary.series, ordinary.quotient_dimension) == ((1, 2, 1), 4)
    assert (equivariant.denominator_power, equivariant.quotient_dimension) == (1, None)
    assert HilbertData(series=(), denominator_power=0).quotient_dimension == 0
    assert "quotient_dimension" not in {f.name for f in dataclasses.fields(HilbertData)}


def test_hessenberg_function_is_not_iterable():
    with pytest.raises(TypeError):
        iter(H233)
    assert H233.values == (2, 3, 3)
