"""Polynomial ring core: exactness, canonical order, substitution."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hesscoh.errors import DimensionMismatchError, check_int
from hesscoh.generators import generator_matrix
from hesscoh.hessenberg import fixed_points, peterson_function
from hesscoh.polyring import (
    Polynomial,
    _as_polynomial,
    _mul_terms,
    canonical_key,
    constant,
    elementary_symmetric,
    one,
    poly_from_dict,
    poly_to_dict,
    power_sum,
    t_var,
    x_var,
    zero,
)


def test_constructor_collects_and_drops_zeros():
    p = Polynomial(2, [((1, 0, 0), 2), ((1, 0, 0), -2), ((0, 1, 0), Fraction(1, 3))])
    assert p.terms == {(0, 1, 0): Fraction(1, 3)}
    assert Polynomial(2).is_zero()


def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError):
        Polynomial(0)
    with pytest.raises(ValueError):
        Polynomial(2, {(1, 0): 1})  # wrong arity: needs x1, x2, t
    with pytest.raises(ValueError):
        Polynomial(2, {(1, -1, 0): 1})
    with pytest.raises(TypeError):
        Polynomial(2, {(1, 0, 0): 0.5})  # floats never enter the ring


def test_addition_builds_linear_sums():
    # (x1 - t) + (x2 - 2t) is the weight-one sum over the first two columns
    n = 4
    p1 = x_var(1, n) - t_var(n)
    p2_direct = x_var(1, n) + x_var(2, n) - 3 * t_var(n)
    assert p1 + (x_var(2, n) - 2 * t_var(n)) == p2_direct


def test_product_of_linear_factors():
    # (x1 - x2 - t)(x1 - t) = x1^2 - x1 x2 - 2 x1 t + x2 t + t^2, by hand
    n = 4
    left = x_var(1, n) - x_var(2, n) - t_var(n)
    right = x_var(1, n) - t_var(n)
    expected = Polynomial(
        n,
        {
            (2, 0, 0, 0, 0): 1,
            (1, 1, 0, 0, 0): -1,
            (1, 0, 0, 0, 1): -2,
            (0, 1, 0, 0, 1): 1,
            (0, 0, 0, 0, 2): 1,
        },
    )
    assert left * right == expected


def test_scalar_arithmetic_and_equality_with_numbers():
    n = 2
    p = 2 * x_var(1, n) - x_var(1, n) - x_var(1, n)
    assert p == 0
    assert one(n) == 1
    assert constant(Fraction(3, 2), n) == Fraction(3, 2)
    assert (x_var(1, n) * Fraction(1, 2)) * 2 == x_var(1, n)
    with pytest.raises(ZeroDivisionError):
        x_var(1, n) / 0


def test_pow():
    n = 2
    x1 = x_var(1, n)
    assert x1 ** 0 == 1
    assert (x1 + 1) ** 2 == x1 * x1 + 2 * x1 + 1
    with pytest.raises(ValueError):
        x1 ** -1


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        x_var(1, 2) + x_var(1, 3)
    with pytest.raises(DimensionMismatchError):
        x_var(1, 2) * x_var(1, 3)


def test_subtraction_operand_rules():
    n = 2
    p = x_var(1, n) - 2 * t_var(n)
    assert p - 3 == p + (-3)
    assert p - Fraction(1, 2) == p + Fraction(-1, 2)
    assert 3 - p == -(p - 3)
    with pytest.raises(DimensionMismatchError):
        p - x_var(1, n + 1)
    with pytest.raises(TypeError):
        p - "x"


def test_total_degree_and_homogeneity():
    n = 4
    quartic = x_var(1, n)
    for l in (2, 3, 4):
        quartic = quartic * (x_var(1, n) - x_var(l, n) - t_var(n))
    assert quartic.total_degree() == 4
    assert quartic.is_homogeneous()
    assert one(n).total_degree() == 0
    assert zero(n).total_degree() is None  # distinguished zero marker
    assert zero(n).is_homogeneous()
    assert not (x_var(1, n) + 1).is_homogeneous()


def test_evaluate():
    n = 2
    p2 = x_var(1, n) + x_var(2, n) - 3 * t_var(n)
    assert p2.evaluate((3, 2, 1)) == 2
    assert zero(n).evaluate((5, 5, 5)) == 0
    assert p2.evaluate((Fraction(1, 2), Fraction(1, 2), 0)) == 1
    with pytest.raises(ValueError):
        p2.evaluate((1, 2))
    with pytest.raises(TypeError):
        p2.evaluate((1.0, 2, 3))


def test_substitute_kills_generator_at_fixed_point():
    # n = 2, h = (2, 2): x1 -> 2t, x2 -> t annihilates (x1 - x2 - t)(x1 - t)
    n = 2
    f = (x_var(1, n) - x_var(2, n) - t_var(n)) * (x_var(1, n) - t_var(n))
    t = t_var(n)
    assert f.substitute(x={1: 2 * t, 2: t}).is_zero()


def test_substitute_basic_forms():
    n = 2
    x1, x2, t = x_var(1, n), x_var(2, n), t_var(n)
    assert (x1 * x2).substitute(x={1: x2}) == x2 * x2
    assert (x1 + t).substitute(t=0) == x1
    assert (x1 + t).substitute(x={1: 3}) == t + 3
    # unassigned variables map to themselves
    assert (x1 + x2).substitute(x={1: x1}) == x1 + x2
    with pytest.raises(ValueError):
        x1.substitute(x={3: x1})
    with pytest.raises(DimensionMismatchError):
        x1.substitute(x={1: x_var(1, 3)})


def test_substitute_multi_term_value_uses_generic_path():
    n = 2
    x1, x2, t = x_var(1, n), x_var(2, n), t_var(n)
    image = (x1 * x1 - x2).substitute(x={1: x2 + t})
    assert image == (x2 + t) * (x2 + t) - x2


def test_elementary_symmetric():
    n = 3
    assert elementary_symmetric(0, (1, 2), n) == 1
    e2 = elementary_symmetric(2, range(1, 4), n)
    x1, x2, x3 = (x_var(k, n) for k in (1, 2, 3))
    assert e2 == x1 * x2 + x1 * x3 + x2 * x3
    assert elementary_symmetric(1, [3], n) == x3
    with pytest.raises(ValueError):
        elementary_symmetric(3, (1, 2), n)
    with pytest.raises(ValueError):
        elementary_symmetric(1, (1, 1), n)
    with pytest.raises(ValueError):
        elementary_symmetric(1, (4,), n)


def test_power_sum():
    n = 3
    assert power_sum(2, n) == sum(x_var(k, n) ** 2 for k in (1, 2, 3))
    with pytest.raises(ValueError):
        power_sum(0, n)


def test_canonical_order_weight_two_block():
    # grevlex with x1 > x2 > t: x1^2 > x1 x2 > x2^2 > x1 t > x2 t > t^2
    ordered = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]
    assert sorted(ordered, key=canonical_key, reverse=True) == ordered
    p = Polynomial(2, {m: 1 for m in reversed(ordered)})
    assert [m for m, _ in p.sorted_terms()] == ordered


def test_text_rendering():
    n = 2
    x1, x2, t = x_var(1, n), x_var(2, n), t_var(n)
    assert str(zero(n)) == "0"
    assert str(x1 * x1 - x1 * x2 - 2 * x1 * t + x2 * t + t * t) == (
        "x1^2 - x1*x2 - 2*x1*t + x2*t + t^2"
    )
    assert str(-x1 + Fraction(1, 2)) == "-x1 + 1/2"


def test_json_round_trip_and_schema():
    n = 2
    p = x_var(1, n) * x_var(1, n) - Fraction(1, 3) * t_var(n)
    data = poly_to_dict(p)
    assert data == {
        "n": 2,
        "terms": [
            {"x": [2, 0], "t": 0, "c": "1/1"},
            {"x": [0, 0], "t": 1, "c": "-1/3"},
        ],
    }
    assert poly_from_dict(data) == p
    # identity through an actual JSON string too
    assert poly_from_dict(json.loads(json.dumps(data))) == p


def _random_poly(rng: random.Random, n: int) -> Polynomial:
    terms = {}
    for _ in range(rng.randint(0, 5)):
        exps = tuple(rng.randint(0, 2) for _ in range(n + 1))
        terms[exps] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return Polynomial(n, terms)


def test_substitution_is_a_ring_homomorphism():
    rng = random.Random(7)
    n = 3
    assignment = {1: x_var(2, n) + t_var(n), 3: constant(2, n)}
    for _ in range(40):
        a, b = _random_poly(rng, n), _random_poly(rng, n)
        assert (a + b).substitute(x=assignment) == a.substitute(x=assignment) + b.substitute(x=assignment)
        assert (a * b).substitute(x=assignment) == a.substitute(x=assignment) * b.substitute(x=assignment)


def _bounded_fraction():
    return st.fractions(min_value=-4, max_value=4, max_denominator=5)


def _polys(n: int = 2, max_size: int = 4):
    mono = st.tuples(*(st.integers(0, 2) for _ in range(n + 1)))
    return st.lists(st.tuples(mono, _bounded_fraction()), max_size=max_size).map(
        lambda ts: Polynomial(n, ts)
    )


@settings(max_examples=60, deadline=None)
@given(_polys(), _polys(), _polys())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero(a.n) == a
    assert a * one(a.n) == a


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: _polys(n, max_size=12)))
def test_sorted_terms_is_canonical_key_descending(p):
    want = sorted(p.terms.items(), key=lambda kv: canonical_key(kv[0]), reverse=True)
    assert p.sorted_terms() == want


@settings(max_examples=100, deadline=None)
@given(_polys(n=3, max_size=6), st.lists(_bounded_fraction(), min_size=4, max_size=4))
def test_evaluate_sums_the_terms_at_the_point(p, point):
    # the term-by-term sum evaluate computed before it went through substitute
    want = Fraction(0)
    for exps, coef in p.terms.items():
        for value, e in zip(point, exps):
            coef *= value ** e
        want += coef
    assert p.evaluate(point) == want


def _substitute_reference(p: Polynomial, x=None, t=None) -> Polynomial:
    """Polynomial.substitute as it was before it skipped unassigned
    variables: every variable of every term is multiplied back in, an
    unassigned one as its own one-term power."""
    n = p.n
    assigns: dict[int, Polynomial] = {}
    if x:
        for k, value in x.items():
            assigns[check_int(k, "x index", 1, n) - 1] = _as_polynomial(value, n)
    if t is not None:
        assigns[n] = _as_polynomial(t, n)
    if not assigns:
        return p

    width = n + 1
    power_cache: dict[tuple[int, int], dict] = {}

    def var_power(i: int, e: int) -> dict:
        got = power_cache.get((i, e))
        if got is None:
            base = assigns.get(i)
            if base is None:
                exps = [0] * width
                exps[i] = e
                got = {tuple(exps): Fraction(1)}
            else:
                got = (base ** e).terms
            power_cache[(i, e)] = got
        return got

    total: dict = {}
    unit = (0,) * width
    for exps, coef in p.terms.items():
        current = {unit: coef}
        for i, e in enumerate(exps):
            if e:
                current = _mul_terms(current, var_power(i, e))
        for key, c in current.items():
            c = total.get(key, Fraction(0)) + c
            if c:
                total[key] = c
            else:
                total.pop(key, None)
    return Polynomial(n, total)


@pytest.mark.parametrize("n", range(1, 7))
def test_substitute_matches_reference_on_the_generators(n):
    # t -> 0 and t -> 1 as the t-zero check and its control use them, and the
    # localization map x_k -> w(k) t at each fixed point of the Peterson variety
    t = t_var(n)
    maps = [(None, 0), (None, 1)] + [({k: v * t for k, v in enumerate(w, 1)}, None)
                                     for w in fixed_points(peterson_function(n))]
    for _, _, f in generator_matrix(n).entries:
        for x, at_t in maps:
            assert f.substitute(x, t=at_t) == _substitute_reference(f, x, t=at_t)


def _images(n: int):
    """A value for substitute: a scalar or a polynomial of up to 3 terms."""
    return st.one_of(_bounded_fraction(), _polys(n, max_size=3))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    _polys(n, max_size=6),
    st.dictionaries(st.integers(1, n), _images(n), max_size=n),
    st.one_of(st.none(), _images(n)),
)))
def test_substitute_matches_reference_on_random_images(case):
    p, x, t = case
    assert p.substitute(x, t=t) == _substitute_reference(p, x, t=t)
