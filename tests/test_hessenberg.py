"""Hessenberg functions, enumeration, fixed points, and the N-stability oracle."""

from __future__ import annotations

from itertools import permutations, product
from math import comb

import pytest

import hesscoh.hessenberg as hessenberg_module
from hesscoh.errors import InvalidHessenbergError, ResourceLimitError
from hesscoh.hessenberg import (
    HessenbergFunction,
    _symmetric_group,
    enumerate_all,
    fixed_points,
    flag_function,
    oracle_fixed_point_check,
    parse_hessenberg,
    permutation_ranks,
    peterson_function,
)
from hesscoh.verify import poincare_product


def brute_enumerate(n):
    """Oracle: filter all value tuples by the definition directly."""
    out = []
    for values in product(range(1, n + 1), repeat=n):
        above = all(v >= i for i, v in enumerate(values, start=1))
        monotone = all(values[i] <= values[i + 1] for i in range(n - 1))
        if above and monotone:
            out.append(values)
    return out


def catalan(n):
    return comb(2 * n, n) // (n + 1)


def test_parse_accepts_valid_functions():
    assert parse_hessenberg((2, 3, 3)).values == (2, 3, 3)
    assert parse_hessenberg([3, 3, 4, 5, 7, 7, 7]).n == 7
    assert parse_hessenberg((1,)).values == (1,)


@pytest.mark.parametrize(
    "values, code",
    [
        ((), "empty"),
        ((1, 1, 3), "not-above-diagonal"),
        ((3, 2, 3), "not-weakly-increasing"),
        ((1, 2, 4), "out-of-range"),
        ((2, 1, 3), "not-above-diagonal"),  # diagonal check wins over monotonicity
        ((True,), "out-of-range"),  # a bool is not a Hessenberg value
    ],
)
def test_parse_rejects_with_code(values, code):
    with pytest.raises(InvalidHessenbergError) as err:
        parse_hessenberg(values)
    assert err.value.code == code


def test_call_and_str():
    h = parse_hessenberg((2, 3, 3))
    assert [h(i) for i in (1, 2, 3)] == [2, 3, 3]
    assert str(h) == "(2,3,3)"
    with pytest.raises(ValueError):
        h(0)



def test_complex_dimension():
    # dim_C Hess(h) = sum_j (h(j) - j) is the top degree of its Poincare polynomial
    def dim(h):
        return len(poincare_product(h)) - 1

    assert dim(parse_hessenberg((2, 3, 3))) == 2
    assert dim(parse_hessenberg((1, 2, 3))) == 0
    for n in range(1, 7):
        assert dim(flag_function(n)) == n * (n - 1) // 2

def test_special_functions():
    assert peterson_function(4).values == (2, 3, 4, 4)
    assert peterson_function(1).values == (1,)
    assert flag_function(3).values == (3, 3, 3)


def test_enumerate_matches_brute_oracle():
    for n in range(1, 6):
        got = [h.values for h in enumerate_all(n)]
        assert got == brute_enumerate(n)  # same lexicographic order
        assert got == sorted(got)


def test_enumerate_frozen_n3():
    assert [h.values for h in enumerate_all(3)] == [
        (1, 2, 3),
        (1, 3, 3),
        (2, 2, 3),
        (2, 3, 3),
        (3, 3, 3),
    ]


def test_enumerate_counts_are_catalan():
    for n in range(1, 9):
        assert len(enumerate_all(n)) == catalan(n)


def test_enumerate_cap():
    with pytest.raises(ResourceLimitError):
        enumerate_all(11)
    assert len(enumerate_all(11, cap=11)) == catalan(11)


def test_fixed_points_frozen_cases():
    assert fixed_points(parse_hessenberg((2, 3, 3))) == [
        (1, 2, 3),
        (1, 3, 2),
        (2, 1, 3),
        (3, 2, 1),
    ]
    # minimal h keeps only the identity flag
    for n in range(1, 6):
        h = parse_hessenberg(tuple(range(1, n + 1)))
        assert fixed_points(h) == [tuple(range(1, n + 1))]
    # the full flag keeps everything
    assert fixed_points(flag_function(3)) == sorted(permutations((1, 2, 3)))


def test_fixed_points_cap():
    with pytest.raises(ResourceLimitError):
        fixed_points(flag_function(8))
    assert len(fixed_points(flag_function(8), cap=8)) == 40320


def test_each_table_of_s_n_is_built_once(monkeypatch):
    # S_8, past the default cap, is kept once built, as every S_n is
    assert permutation_ranks(8) is permutation_ranks(8)
    built = []
    monkeypatch.setattr(hessenberg_module, "permutations",
                        lambda values: built.append(values) or permutations(values))
    _symmetric_group.cache_clear()
    h = peterson_function(8)
    assert [len(fixed_points(h, cap=8)) for _ in range(3)] == [2 ** 7] * 3
    assert len(built) == 1


def test_peterson_fixed_point_counts():
    for n in range(1, 8):
        assert len(fixed_points(peterson_function(n))) == 2 ** (n - 1)


def test_oracle_spot_values():
    h = parse_hessenberg((2, 3, 3))
    assert oracle_fixed_point_check((3, 2, 1), h)
    assert not oracle_fixed_point_check((2, 3, 1), h)
    assert oracle_fixed_point_check((1, 2, 3), h)
    with pytest.raises(ValueError):
        oracle_fixed_point_check((1, 1, 2), h)


def test_fast_criterion_agrees_with_oracle_exhaustively():
    for n in range(1, 7):
        perms = list(permutations(range(1, n + 1)))
        for h in enumerate_all(n):
            slow = sorted(w for w in perms if oracle_fixed_point_check(w, h))
            assert fixed_points(h) == slow, h.values  # same points, same order


def test_fixed_point_sets_grow_with_h():
    # h <= h' pointwise forces Hess(h)^S a subset of Hess(h')^S
    for n in range(1, 6):
        functions = enumerate_all(n)
        sets = {h.values: set(fixed_points(h)) for h in functions}
        for a in functions:
            for b in functions:
                if all(x <= y for x, y in zip(a.values, b.values)):
                    assert sets[a.values] <= sets[b.values]


def m_w(w):
    """m_w(j) = max(j, max over k <= j of pos(w(k) - 1)), pos(0) = 0."""
    pos = {v: j for j, v in enumerate(w, start=1)} | {0: 0}
    return tuple(max([j] + [pos[w[k] - 1] for k in range(j)]) for j in range(1, len(w) + 1))


def test_classes_partition_s_n_by_their_keys():
    for n in range(1, 7):
        classes = _symmetric_group(n)[1]
        members = [w for _, _, ws in classes for w in ws]
        assert sorted(members) == list(permutations(range(1, n + 1)))  # each w exactly once
        assert len(classes) == catalan(n)
        for g, _, ws in classes:
            assert HessenbergFunction(g).values == g
            assert ws == sorted(ws)
            assert all(m_w(w) == g for w in ws), g


def test_classes_and_ranks_hold_one_tuple_per_permutation():
    for n in range(1, 8):
        ranks = permutation_ranks(n)
        assert list(ranks.items()) == [(w, k) for k, w in enumerate(permutations(range(1, n + 1)))]
        keys = {w: w for w in ranks}  # each permutation -> the rank dict's own key
        assert all(w is keys[w] for _, _, ws in _symmetric_group(n)[1] for w in ws)
        assert all(w is keys[w] for w in fixed_points(flag_function(n)))
