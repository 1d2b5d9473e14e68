"""Generator families: the recursion, the ladder, t = 0 forms, q_r, ideals."""

from __future__ import annotations

import pytest

from hesscoh.generators import (
    delta,
    f_closed,
    f_inductive,
    f_ordinary,
    generator_matrix,
    ideal_generators,
    linear_factor,
    p_sum,
    peterson_rewrite_factor,
    q_flag,
)
from hesscoh.hessenberg import enumerate_all, parse_hessenberg
from hesscoh.latexout import factored_latex, latex_document, poly_latex
from hesscoh.polyring import elementary_symmetric, one, power_sum, t_var, x_var, zero


def test_p_sum_values():
    assert p_sum(0, 3) == zero(3)
    assert p_sum(1, 4) == x_var(1, 4) - t_var(4)
    n = 3
    assert p_sum(3, n) == x_var(1, n) + x_var(2, n) + x_var(3, n) - 6 * t_var(n)
    with pytest.raises(ValueError):
        p_sum(4, 3)
    with pytest.raises(ValueError):
        p_sum(-1, 3)


def test_f_diagonal_and_column_zero():
    for n in range(1, 6):
        for j in range(1, n + 1):
            assert f_inductive(j, j, n) == p_sum(j, n)
        assert f_inductive(n, 0, n) == zero(n)


def test_f_small_literal_cases():
    n = 2
    f21 = f_inductive(2, 1, n)
    assert f21 == (x_var(1, n) - x_var(2, n) - t_var(n)) * (x_var(1, n) - t_var(n))
    n = 4
    expected_32 = linear_factor(1, 2, n) * p_sum(1, n) + linear_factor(2, 3, n) * p_sum(2, n)
    assert f_inductive(3, 2, n) == expected_32
    expected_41 = (
        linear_factor(1, 4, n) * linear_factor(1, 3, n) * linear_factor(1, 2, n) * p_sum(1, n)
    )
    assert f_inductive(4, 1, n) == expected_41


def test_f_index_validation():
    with pytest.raises(ValueError):
        f_inductive(2, 3, 4)  # j > i
    with pytest.raises(ValueError):
        f_inductive(5, 1, 4)  # i > n
    with pytest.raises(ValueError):
        f_inductive(1, -1, 4)


def test_delta_values():
    n = 4
    assert delta(2, 2, n) == x_var(2, n) - 2 * t_var(n)
    assert delta(2, 1, n) == (x_var(1, n) - t_var(n)) * linear_factor(1, 2, n)
    # a one-column ladder is the whole polynomial
    assert delta(3, 1, n) == f_inductive(3, 1, n)
    with pytest.raises(ValueError):
        delta(3, 0, n)


def test_closed_form_equals_recursion_small_n():
    for n in range(1, 6):
        for i in range(1, n + 1):
            for j in range(0, i + 1):
                assert f_closed(i, j, n) == f_inductive(i, j, n), (n, i, j)


def test_t_zero_specialization_small_n():
    for n in range(1, 6):
        for i in range(1, n + 1):
            for j in range(1, i + 1):
                assert f_inductive(i, j, n).substitute(t=0) == f_ordinary(i, j, n)


def test_f_ordinary_literal():
    n = 2
    assert f_ordinary(2, 1, n) == x_var(1, n) * (x_var(1, n) - x_var(2, n))
    n = 3
    assert f_ordinary(3, 3, n) == x_var(1, n) + x_var(2, n) + x_var(3, n)


def _f_ordinary_by_product(i, j, n):
    """Reference for f_ordinary: the product formula, built afresh on every call."""
    acc = zero(n)
    for k in range(1, j + 1):
        term = x_var(k, n)
        for l in range(j + 1, i + 1):
            term = term * (x_var(k, n) - x_var(l, n))
        acc = acc + term
    return acc


def test_f_ordinary_memo_matches_product_formula():
    for n in range(1, 7):
        for i in range(n + 1):
            for j in range(i + 1):
                want = _f_ordinary_by_product(i, j, n)
                assert f_ordinary(i, j, n) == want
                assert f_ordinary(i, j, n) == want  # repeat call, served by the memo


def test_f_ordinary_validates_indices_with_a_warm_memo():
    f_ordinary(3, 2, 4)
    # 3.0 hashes and compares like 3, so only the validation in front of
    # the memo keeps it from returning the cached (3, 2, 4) entry
    for bad in [(3.0, 2, 4), (2, 3, 4), (5, 1, 4), (1, -1, 4), (3, 2, 0)]:
        with pytest.raises(ValueError):
            f_ordinary(*bad)


def test_homogeneity_and_weight():
    for n in range(1, 7):
        for i in range(1, n + 1):
            for j in range(1, i + 1):
                f = f_inductive(i, j, n)
                assert f.is_homogeneous()
                assert f.total_degree() == i - j + 1
                g = f_ordinary(i, j, n)
                assert g.is_homogeneous()
                assert g.total_degree() == i - j + 1
                assert all(e[n] == 0 for e in g.terms)  # no t anywhere


def test_q_flag_values():
    n = 3
    x1, x2, x3 = (x_var(k, n) for k in (1, 2, 3))
    assert q_flag(1, n) == power_sum(1, n)
    assert q_flag(2, n) == x1 * x1 + x2 * x2 - x1 * x3 - x2 * x3
    assert q_flag(n, n) == x1 * (x1 - x2) * (x1 - x3)
    with pytest.raises(ValueError):
        q_flag(0, n)
    with pytest.raises(ValueError):
        q_flag(4, n)


def test_q_flag_is_top_row_ordinary_generator():
    for n in range(1, 6):
        for r in range(1, n + 1):
            assert q_flag(r, n) == f_ordinary(n, n + 1 - r, n)


def test_q_flag_newton_expansion():
    # q_r = sum_i (-1)^i e_i(x_{n+2-r},...,x_n) p_{r-i} with power sums p
    for n in range(1, 7):
        for r in range(1, n + 1):
            tail = range(n + 2 - r, n + 1)
            rhs = sum(
                ((-1) ** i) * elementary_symmetric(i, tail, n) * power_sum(r - i, n)
                for i in range(r)
            )
            assert q_flag(r, n) == rhs, (n, r)


def test_peterson_rewrite_factor():
    for n in range(2, 9):
        for j in range(1, n):
            assert peterson_rewrite_factor(j, n) == linear_factor(j, j + 1, n)
    with pytest.raises(ValueError):
        peterson_rewrite_factor(3, 3)


def test_ideal_generator_selection():
    h = parse_hessenberg((3, 3, 4, 5, 7, 7, 7))
    ideal = ideal_generators(h)
    assert ideal.rows() == [(3, 1), (3, 2), (4, 3), (5, 4), (7, 5), (7, 6), (7, 7)]
    for (i, j), g in zip(ideal.rows(), ideal.generators):
        assert g == f_inductive(i, j, 7)


def test_ideal_modes():
    h = parse_hessenberg((2, 3, 3))
    eq = ideal_generators(h, "equivariant")
    assert any(e[3] for g in eq.generators for e in g.terms)  # t really appears
    od = ideal_generators(h, "ordinary")
    assert all(e[3] == 0 for g in od.generators for e in g.terms)
    assert ideal_generators(parse_hessenberg((1,))).generators == (
        x_var(1, 1) - t_var(1),
    )
    with pytest.raises(ValueError):
        ideal_generators(h, "quantum")


def test_restriction_lemma_by_explicit_cofactors():
    # I(h') is inside I(h) for h <= h', as each generator f_{h'(j),j} of I(h')
    # is an f_{i,j} with i >= h(j).  Cofactors C_k with f_{i,j} = sum_k C_k
    # f_{h(k),k} come from f_{i,j} = f_{i-1,j-1} + (x_j - x_i - t) f_{i-1,j},
    # f_{i,0} = 0: by induction on i, as i - 1 >= h(j) >= h(j - 1).  Each sum
    # is compared exactly with the closed form, for every h with n <= 5.
    checked = 0
    for n in range(1, 6):
        for h in enumerate_all(n):
            gens = ideal_generators(h).generators  # f_{h(k),k}
            cofactors = {}
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    if i < h(j):
                        continue
                    if i == h(j):
                        c = [one(n) if k == j else zero(n) for k in range(1, n + 1)]
                    else:
                        left = cofactors[i - 1, j - 1] if j > 1 else [zero(n)] * n
                        factor = linear_factor(j, i, n)
                        c = [a + factor * b for a, b in zip(left, cofactors[i - 1, j])]
                    cofactors[i, j] = c
                    combination = sum((ck * g for ck, g in zip(c, gens)), zero(n))
                    assert combination == f_closed(i, j, n), (h.values, i, j)
                    checked += 1
    assert checked == 586


def test_generator_matrix_shape():
    matrix = generator_matrix(4)
    assert len(matrix.entries) == 10
    assert [(i, j) for i, j, _ in matrix.entries] == [
        (i, j) for i in range(1, 5) for j in range(1, i + 1)
    ]
    for i, j, g in matrix.entries:
        assert g == f_inductive(i, j, 4)


def test_memoization_is_stable():
    a = f_inductive(4, 2, 5)
    b = f_inductive(4, 2, 5)
    assert a is b  # cached object reused; immutability makes this safe
    assert a == f_closed(4, 2, 5)


def test_factored_latex_matches_display_style():
    assert factored_latex(1, 1) == "p_1"
    assert factored_latex(2, 1) == "(x_1-x_2-t)p_1"
    assert factored_latex(3, 2) == "(x_1-x_2-t)p_1+(x_2-x_3-t)p_2"
    assert factored_latex(3, 1) == "(x_1-x_3-t)(x_1-x_2-t)p_1"
    assert factored_latex(4, 2) == (
        r"(x_1-x_3-t)(x_1-x_2-t)p_1+(x_2-x_4-t)\{(x_1-x_2-t)p_1+(x_2-x_3-t)p_2\}"
    )
    with pytest.raises(ValueError):
        factored_latex(1, 2)


def test_poly_latex_expanded():
    n = 2
    p = x_var(1, n) * x_var(1, n) - 2 * x_var(1, n) * t_var(n)
    assert poly_latex(p) == "x_{1}^{2}-2x_{1}t"
    assert poly_latex(zero(n)) == "0"


def test_latex_document_wraps_lines():
    doc = latex_document("Demo", ["a &= b", "c &= d"])
    assert doc.startswith("\\documentclass")
    assert "\\begin{align*}" in doc and "a &= b \\\\\nc &= d" in doc
