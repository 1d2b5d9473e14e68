"""Groebner engine tests.

The Hilbert series path is checked against a brute-force oracle that
never touches Groebner machinery: graded quotient dimensions computed
by exact Gaussian elimination on multiplication-by-generator matrices.
Basis correctness is certified per instance by reducing every
S-polynomial to zero, which is the classical Buchberger criterion.
"""

from __future__ import annotations

import dataclasses
import functools
import heapq
import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hesscoh.errors import (
    DimensionMismatchError,
    InvalidArgumentError,
    NotZeroDimensionalError,
    ResourceLimitError,
)
from hesscoh.generators import ideal_generators
from hesscoh.groebner import (
    FIELD_BITS,
    MAX_EXPONENT,
    GroebnerBasis,
    GroebnerStats,
    _guard,
    _hilbert_numerator,
    _integer_terms,
    _minimalize,
    _mul_one_minus_power,
    _pack,
    _pack_weights,
    _poly_add,
    _reduce,
    _reducer_table,
    _supports,
    _unpack,
    buchberger,
    hilbert_series,
    ideal_equality_witness,
    normal_form,
    standard_monomials,
)
from hesscoh.hessenberg import (
    enumerate_all,
    flag_function,
    parse_hessenberg,
    peterson_function,
)
from hesscoh.polyring import (
    Polynomial,
    canonical_key,
    one,
    poly_to_dict,
    power_sum,
    t_var,
    x_var,
    zero,
)


# -- helpers -----------------------------------------------------------------


def _div(a, b):
    return all(x <= y for x, y in zip(a, b))


def _lcm(a, b):
    return tuple(map(max, a, b))


def _quotient(a, b):
    return tuple(x - y for x, y in zip(a, b))


def leading_term(p):
    if p.is_zero():
        raise ValueError("the zero polynomial has no leading term")
    exps = max(p.terms, key=canonical_key)
    return exps, p.terms[exps]


def _shift(p, exps, scale):
    return Polynomial(p.n, {tuple(a + b for a, b in zip(e, exps)): c * scale
                            for e, c in p.terms.items()})


def s_polynomial(f, g):
    lf, cf = leading_term(f)
    lg, cg = leading_term(g)
    lcm = _lcm(lf, lg)
    return _shift(f, _quotient(lcm, lf), 1 / cf) - _shift(g, _quotient(lcm, lg), 1 / cg)


def _assert_reduced_groebner(gb, gens):
    """Certify gb independently of how buchberger got there."""
    basis = gb.basis
    assert basis
    lts = [leading_term(g)[0] for g in basis]
    keys = [canonical_key(m) for m in lts]
    assert keys == sorted(keys), "basis not sorted ascending by leading monomial"
    for g in basis:
        assert leading_term(g)[1] == 1, "basis element not monic"
    for idx, g in enumerate(basis):
        for m in g.terms:
            for jdx, lt in enumerate(lts):
                if jdx == idx:
                    continue
                assert not _div(lt, m), "basis not inter-reduced"
    # Buchberger criterion: every S-polynomial reduces to zero
    for a in range(len(basis)):
        for b in range(a + 1, len(basis)):
            s = s_polynomial(basis[a], basis[b])
            if not s.is_zero():
                assert normal_form(s, basis).is_zero(), (a, b)
    # the input ideal is contained in the basis ideal
    for g in gens:
        if not g.is_zero():
            assert normal_form(g, basis).is_zero()
    # a reduced basis is a fixed point of the algorithm
    again = buchberger(list(basis))
    assert again.basis == basis


def _monomials_of_degree(n, active, d):
    out = []
    for combo in itertools.combinations_with_replacement(active, d):
        e = [0] * (n + 1)
        for v in combo:
            e[v] += 1
        out.append(tuple(e))
    return out


def _rank(rows):
    rows = [row[:] for row in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    pivot_row = 0
    for col in range(cols):
        found = None
        for r in range(pivot_row, len(rows)):
            if rows[r][col]:
                found = r
                break
        if found is None:
            continue
        rows[pivot_row], rows[found] = rows[found], rows[pivot_row]
        inv = 1 / rows[pivot_row][col]
        rows[pivot_row] = [v * inv for v in rows[pivot_row]]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
        rank += 1
    return rank


def _graded_quotient_dim(gens, n, active, d):
    """dim of degree-d slice of ring/ideal, by linear algebra alone."""
    monos = _monomials_of_degree(n, active, d)
    index = {m: k for k, m in enumerate(monos)}
    rows = []
    for g in gens:
        dg = g.total_degree()
        if dg is None or dg > d:
            continue
        for m in _monomials_of_degree(n, active, d - dg):
            row = [Fraction(0)] * len(monos)
            for e, c in g.terms.items():
                target = tuple(a + b for a, b in zip(e, m))
                row[index[target]] = c
            rows.append(row)
    return len(monos) - _rank(rows)


def _oracle_graded_dims(gens, n, active, bound):
    return [_graded_quotient_dim(gens, n, active, d) for d in range(bound + 1)]


def _expand_series(data, bound):
    """Coefficients of series/(1-q)^k up to degree `bound`."""
    coeffs = list(data.series) + [0] * (bound + 1 - len(data.series))
    coeffs = coeffs[: bound + 1]
    for _ in range(data.denominator_power):
        partial = 0
        for i, c in enumerate(coeffs):
            partial += c
            coeffs[i] = partial
    return coeffs


# -- textbook reference engine ------------------------------------------------
#
# The Fraction-arithmetic route the integer engine replaced, written out:
# monic basis elements, a max() rescan for the leading pending term, and
# S-polynomials formed and divided in Q.  It counts what GroebnerStats
# counts, plus the basis elements that S-pairs add.


def _ref_normal_form(f, basis):
    """(remainder, reduction steps) of textbook division in list order."""
    table = [leading_term(b) + (b.terms,) for b in basis if not b.is_zero()]
    work = dict(f.terms)
    remainder = {}
    steps = 0
    while work:
        m = max(work, key=canonical_key)
        c = work.pop(m)
        for lt, lc, terms in table:
            if _div(lt, m):
                steps += 1
                shift = tuple(a - b for a, b in zip(m, lt))
                scale = c / lc
                for e, ce in terms.items():
                    if e == lt:
                        continue
                    target = tuple(a + b for a, b in zip(shift, e))
                    value = work.get(target, 0) - scale * ce
                    if value:
                        work[target] = value
                    else:
                        work.pop(target, None)
                break
        else:
            remainder[m] = c
    return Polynomial(f.n, remainder), steps


def _ref_monic(p):
    return p * (1 / leading_term(p)[1])


def _ref_buchberger(gens):
    """(reduced basis, stats as a dict, basis elements added by S-pairs)."""
    basis = []
    for g in gens:
        if not g.is_zero() and _ref_monic(g) not in basis:
            basis.append(_ref_monic(g))
    lts = [leading_term(g)[0] for g in basis]
    stats = dict(pairs_processed=0, reductions_to_zero=0, product_skips=0,
                 chain_skips=0, reduction_steps=0)
    heap, pending = [], set()

    def push_pairs(j):
        for i in range(j):
            lcm = _lcm(lts[i], lts[j])
            heapq.heappush(heap, (sum(lcm), canonical_key(lcm), i, j))
            pending.add((i, j))

    for j in range(len(basis)):
        push_pairs(j)
    added = 0
    while heap:
        _, _, i, j = heapq.heappop(heap)
        pending.discard((i, j))
        stats["pairs_processed"] += 1
        lcm = _lcm(lts[i], lts[j])
        if all(a == 0 or b == 0 for a, b in zip(lts[i], lts[j])):
            stats["product_skips"] += 1
            continue
        if any(k not in (i, j) and _div(lts[k], lcm)
               and (min(i, k), max(i, k)) not in pending
               and (min(j, k), max(j, k)) not in pending
               for k in range(len(basis))):
            stats["chain_skips"] += 1
            continue
        r, steps = _ref_normal_form(s_polynomial(basis[i], basis[j]), basis)
        stats["reduction_steps"] += steps
        if r.is_zero():
            stats["reductions_to_zero"] += 1
            continue
        basis.append(_ref_monic(r))
        lts.append(leading_term(basis[-1])[0])
        added += 1
        push_pairs(len(basis) - 1)
    reduced = []
    for g in sorted(basis, key=lambda g: canonical_key(leading_term(g)[0])):
        if not any(_div(leading_term(k)[0], leading_term(g)[0]) for k in reduced):
            reduced.append(g)
    for idx in range(len(reduced)):
        r, steps = _ref_normal_form(reduced[idx], reduced[:idx] + reduced[idx + 1:])
        stats["reduction_steps"] += steps
        reduced[idx] = _ref_monic(r)
    return tuple(reduced), stats, added


def _assert_matches_reference(gens):
    """The engine's basis and counters equal the textbook route's; returns
    (engine basis, elements added)."""
    gb = buchberger(gens)
    ref_basis, ref_stats, added = _ref_buchberger(gens)
    assert [poly_to_dict(g) for g in gb.basis] == [poly_to_dict(g) for g in ref_basis]
    assert dataclasses.asdict(gb.stats) == ref_stats
    return gb, added


# -- monomial order -------------------------------------------------------------


def test_order_key_frozen_comparisons():
    # the engine's one order is degrevlex, keyed by polyring.canonical_key
    # degree decides first
    assert canonical_key((2, 0, 0, 0)) > canonical_key((1, 0, 0, 0))
    assert canonical_key((0, 0, 3)) > canonical_key((2, 0, 0))
    # same degree: degrevlex prefers the monomial lacking the last variable
    assert canonical_key((1, 1, 0)) > canonical_key((0, 2, 0))
    assert canonical_key((1, 0, 1)) > canonical_key((0, 1, 1))
    assert (canonical_key((2, 0, 0)) > canonical_key((1, 1, 0))
            > canonical_key((0, 2, 0)) > canonical_key((1, 0, 1)))


# -- packed monomials -----------------------------------------------------------


def _heap_weights(nvars):
    """The reference order: the base-32768 heap key the packed layout once
    carried above its fields as a second copy of the exponents.  The key
    reads (-degree, the exponents in reverse) as one number in base
    B = MAX_EXPONENT + 1, so variable v weighs B**v - B**nvars; a smaller
    key is a larger monomial."""
    base = MAX_EXPONENT + 1
    return tuple(base ** v - base ** nvars for v in range(nvars))


def _heap_key(exponents):
    return sum(w * e for w, e in zip(_heap_weights(len(exponents)), exponents))


def test_heap_key_is_key_reversed():
    monomials = [m for m in itertools.product(range(3), repeat=4)]
    weights = _pack_weights(4)
    assert (sorted(monomials, key=lambda m: _pack(m, weights))
            == sorted(monomials, key=canonical_key, reverse=True))


def _monomials(nvars, top=MAX_EXPONENT):
    """Exponent tuples up to top, or all small so that divisibility and
    equal degrees come up."""
    return st.one_of(*(st.tuples(*(st.integers(0, bound) for _ in range(nvars)))
                       for bound in (2, top)))


@st.composite
def _monomial_lists(draw, count, top=MAX_EXPONENT):
    nvars = draw(st.integers(1, 7))
    return [draw(_monomials(nvars, top)) for _ in range(count)]


def _ref_unpack(m, nvars):
    """Shift-and-mask unpacking, the reference for _unpack's byte view."""
    return tuple(m >> FIELD_BITS * v & MAX_EXPONENT for v in range(nvars))


@settings(max_examples=100, deadline=None)
@given(_monomial_lists(1))
@example([(0,) * 7])
@example([(MAX_EXPONENT,) * 7])
@example([(MAX_EXPONENT, 0, 0, MAX_EXPONENT)])
@example([(0, MAX_EXPONENT)])
def test_pack_unpack_round_trip(monomials):
    (m,) = monomials
    packed = _pack(m, _pack_weights(len(m)))
    # minus the degree sits above the fields
    assert -(packed >> FIELD_BITS * len(m)) == sum(m)
    assert (packed < 0) == any(m)
    assert _unpack(packed, len(m)) == _ref_unpack(packed, len(m)) == m


@settings(max_examples=100, deadline=None)
@given(_monomial_lists(2, top=MAX_EXPONENT // 2))
def test_heap_key_and_packing_are_additive(monomials):
    a, b = monomials
    product = tuple(map(sum, zip(a, b)))
    assert _heap_key(product) == _heap_key(a) + _heap_key(b)
    weights = _pack_weights(len(a))
    assert _pack(product, weights) == _pack(a, weights) + _pack(b, weights)


@settings(max_examples=80, deadline=None)
@given(_monomial_lists(8))
def test_heap_key_and_packing_sort_as_key_reversed(monomials):
    descending = sorted(monomials, key=canonical_key, reverse=True)
    assert sorted(monomials, key=_heap_key) == descending
    weights = _pack_weights(len(monomials[0]))
    assert sorted(monomials, key=lambda m: _pack(m, weights)) == descending


@settings(max_examples=150, deadline=None)
@given(_monomial_lists(2))
def test_packed_divisibility_agrees_with_divides(monomials):
    a, b = monomials
    weights, guard = _pack_weights(len(a)), _guard(len(a))
    multiple = tuple(min(x + y, MAX_EXPONENT) for x, y in zip(a, b))
    for small, big in ((a, b), (b, a), (a, multiple), (multiple, a)):
        packed = not (_pack(big, weights) - _pack(small, weights)) & guard
        assert packed == _div(small, big)


@st.composite
def _two_divisors(draw):
    """(a, b, L) with a and b dividing L; L is their lcm times a cofactor
    that is 1 half the time."""
    a, b, extra = draw(_monomial_lists(3, top=MAX_EXPONENT // 2))
    if draw(st.booleans()):
        extra = (0,) * len(a)
    return a, b, tuple(max(x, y) + z for x, y, z in zip(a, b, extra))


@settings(max_examples=150, deadline=None)
@given(_two_divisors())
@example(((1, 0), (0, 1), (1, 1)))
@example(((1, 0), (1, 0), (1, 1)))
@example(((0,), (0,), (0,)))
def test_cofactor_test_reads_whether_two_divisors_have_lcm_l(case):
    # _chain_criterion's rule: lcm(a, b) = L iff L - a and L - b share no variable
    a, b, big = case
    weights, guard = _pack_weights(len(a)), _guard(len(a))
    packed = _pack(big, weights)
    cof_a, cof_b = _supports((packed - _pack(a, weights), packed - _pack(b, weights)), guard)
    assert (not cof_a & cof_b) == (sum(map(max, a, b)) == sum(big))


def test_exponent_past_the_packed_field_is_refused():
    n = 2
    x2 = x_var(2, n)
    past = Polynomial(n, {(MAX_EXPONENT + 1, 0, 0): 1})
    with pytest.raises(ResourceLimitError, match="packed monomial field"):
        buchberger([past, x2])
    with pytest.raises(ResourceLimitError, match="packed monomial field"):
        normal_form(past, [x2])
    at_bound = Polynomial(n, {(MAX_EXPONENT, 0, 0): 1})
    assert buchberger([at_bound, x2]).basis == (x2, at_bound)


def test_reduction_growing_an_exponent_past_the_packed_field_is_refused():
    n, e = 2, MAX_EXPONENT // 2 + 1
    x1e, x2e, te = (Polynomial(n, {m: 1}) for m in ((e, 0, 0), (0, e, 0), (0, 0, e)))
    # x1^e - x2^e rewrites x1^e x2^e to x2^(2e) inside _reduce
    with pytest.raises(ResourceLimitError, match="packed monomial field"):
        normal_form(x1e * x2e, [x1e - x2e])
    # the S-polynomial of x1^e - x2^e and x1 x2^e + t^(e+1) holds x2^(2e)
    with pytest.raises(ResourceLimitError, match="packed monomial field"):
        buchberger([x1e - x2e, x_var(1, n) * x2e + te * t_var(n)])
    # one power of x2 lower, both reach x2^MAX_EXPONENT and stop there
    x1_x2e_1 = Polynomial(n, {(1, e - 1, 0): 1})
    at_bound = Polynomial(n, {(0, MAX_EXPONENT, 0): 1})
    assert normal_form(Polynomial(n, {(e, e - 1, 0): 1}), [x1e - x2e]) == at_bound
    assert buchberger([x1e - x2e, x1_x2e_1]).basis == (x1_x2e_1, x1e - x2e, at_bound)


def test_leading_term():
    n = 2
    p = x_var(1, n) * x_var(2, n) + x_var(2, n) * x_var(2, n) + t_var(n)
    exps, coeff = leading_term(p)
    assert exps == (1, 1, 0) and coeff == 1
    with pytest.raises(ValueError):
        leading_term(zero(n))


# -- normal form and small bases ---------------------------------------------


def test_normal_form_hand_cases():
    h = parse_hessenberg((2, 2))
    gb = buchberger(list(ideal_generators(h, "ordinary").generators))
    n = 2
    x1, x2 = x_var(1, n), x_var(2, n)
    assert normal_form(x1, gb.basis) == -x2
    assert normal_form(x1 * x1, gb.basis).is_zero()
    assert normal_form(one(n), gb.basis) == one(n)
    assert normal_form(zero(n), gb.basis).is_zero()
    with pytest.raises(ValueError):
        normal_form(x1, [])
    with pytest.raises(DimensionMismatchError):
        normal_form(x_var(1, 3), gb.basis)


def test_normal_form_fraction_remainder_matches_reference():
    n = 2
    x1, x2, t = x_var(1, n), x_var(2, n), t_var(n)
    basis = [3 * x1 * x1 - x2 * t, Fraction(-2, 5) * x1 * x2 + t * t]
    f = Fraction(1, 3) * x1 * x1 * x1 + 2 * x1 * x1 * x2 + Fraction(3, 4) * x2 * t
    got = normal_form(f, basis)
    want, _ = _ref_normal_form(f, basis)
    assert got == want
    assert any(c.denominator != 1 for c in got.terms.values())


def test_reduce_memo_carried_across_an_appended_table():
    # the generators of an equivariant ideal and then its basis, appended
    # one by one: a monomial no prefix reducer divides meets a divisor
    # later, and many monomials have more than one divisor
    h = flag_function(3)
    gens = list(ideal_generators(h, "equivariant").generators)
    reducers = gens + list(buchberger(gens).basis)
    x1, x2, x3, t = x_var(1, 3), x_var(2, 3), x_var(3, 3), t_var(3)
    works = [x1 * x1 * x2 * x3, x1 * x2 * x2 * t + x3 * x3 * x3, x1 ** 4 - x2 * x3 * t * t,
             x1 * x1 * x2 + x2 * x2 * x3 + x3 * x3 * t + t * t * t]
    guard = _guard(4)
    table, carried = [], {}
    for k, reducer in enumerate(_reducer_table(reducers)):
        table.append(reducer)
        shared = {}  # one memo for this table, as in _reduce_basis
        for f in works + works:
            work, _ = _integer_terms(f)
            fresh = _reduce(dict(work), table, guard, {})
            assert _reduce(dict(work), table, guard, carried) == fresh
            assert _reduce(dict(work), table, guard, shared) == fresh
            remainder, scale, steps = fresh
            want, want_steps = _ref_normal_form(f, reducers[:k + 1])
            assert steps == want_steps
            assert Polynomial(3, {_unpack(e, 4): Fraction(c, scale) for e, c in remainder.items()}) == want
    assert any(v < 0 for v in carried.values()) and any(v >= 0 for v in carried.values())
    # normal_form keeps no memo from one basis to the next
    for basis in (gens, reducers[::-1], gens):
        for f in works:
            assert normal_form(f, basis) == _ref_normal_form(f, basis)[0]


def test_engine_matches_reference_every_h_small_n():
    for n in range(1, 5):
        for h in enumerate_all(n):
            for mode in ("ordinary", "equivariant"):
                _assert_matches_reference(list(ideal_generators(h, mode).generators))


def test_engine_matches_reference_rational_and_negative_leading_coefficients():
    n = 3
    x1, x2, x3, t = x_var(1, n), x_var(2, n), x_var(3, n), t_var(n)
    gens = [
        Fraction(-2, 3) * x1 * x1 + Fraction(5, 7) * x2 * x3 - t * t,
        -3 * x1 * x2 + Fraction(1, 2) * x3 * x3 + x1,
        Fraction(7, 4) * x2 * x2 - 2 * x1 * t,
    ]
    gens.append(Fraction(-5, 2) * gens[1])  # a scalar multiple is dropped as a duplicate
    _assert_matches_reference(gens)


def test_engine_matches_reference_when_a_settled_coprime_pair_ties_the_pair_lcm():
    # (0, 2) is coprime, its product is the lcm of (0, 1) and it sorts
    # after (0, 1), so it is still queued when (0, 1) comes up: the chain
    # criterion must not fire through g_2
    n = 2
    x1, x2 = x_var(1, n), x_var(2, n)
    for gens in ([x1 * x1, x1 * x2, x2], [x1 * x1, x1, one(n)]):
        gb, _ = _assert_matches_reference(gens)
        assert gb.stats.chain_skips == 0


def test_stats_account_for_every_pair():
    samples = [
        (flag_function(4), "ordinary"),
        (flag_function(4), "equivariant"),
        (peterson_function(4), "equivariant"),
        (parse_hessenberg((2, 4, 4, 4)), "ordinary"),
        (parse_hessenberg((3, 3, 4, 4)), "equivariant"),
    ]
    for h, mode in samples:
        gb, added = _assert_matches_reference(list(ideal_generators(h, mode).generators))
        s = gb.stats
        assert s.pairs_processed == s.product_skips + s.chain_skips + s.reductions_to_zero + added
        assert s.reduction_steps > 0


def test_buchberger_frozen_small_basis():
    h = parse_hessenberg((2, 2))
    n = 2
    x1, x2, t = x_var(1, n), x_var(2, n), t_var(n)
    gb = buchberger(list(ideal_generators(h, "ordinary").generators))
    assert gb.basis == (x1 + x2, x2 * x2)
    assert not gb.uses_t
    eq = buchberger(list(ideal_generators(h, "equivariant").generators))
    assert eq.basis == (x1 + x2 - 3 * t, x2 * x2 - 3 * x2 * t + 2 * t * t)
    assert eq.uses_t
    assert [leading_term(g)[0] for g in eq.basis] == [(1, 0, 0), (0, 2, 0)]


def test_buchberger_input_validation():
    with pytest.raises(ValueError):
        buchberger([])
    with pytest.raises(DimensionMismatchError):
        buchberger([x_var(1, 2), x_var(1, 3)])


def test_buchberger_zero_ideal():
    gb = buchberger([zero(2)])
    assert gb.basis == ()
    with pytest.raises(NotZeroDimensionalError, match="zero ideal"):
        standard_monomials(gb)


def test_basis_refuses_a_zero_or_foreign_polynomial():
    with pytest.raises(InvalidArgumentError, match="no zero polynomial"):
        GroebnerBasis(n=2, basis=(Polynomial(2), x_var(1, 2)), stats=GroebnerStats())
    with pytest.raises(DimensionMismatchError, match="basis n=3, polynomial n=2"):
        GroebnerBasis(n=3, basis=(x_var(1, 2),), stats=GroebnerStats())


def test_basis_equality_ignores_stats():
    n = 1
    basis = (x_var(1, n),)
    a = GroebnerBasis(n=n, basis=basis, stats=GroebnerStats(5, 2))
    b = GroebnerBasis(n=n, basis=basis, stats=GroebnerStats(0, 0))
    assert a == b


def test_certified_bases_exhaustive_small_n():
    for n in range(1, 4):
        for h in enumerate_all(n):
            for mode in ("equivariant", "ordinary"):
                gens = list(ideal_generators(h, mode).generators)
                gb = buchberger(gens)
                _assert_reduced_groebner(gb, gens)


def test_certified_bases_sampled_larger_n():
    samples = [
        (flag_function(4), "equivariant"),
        (flag_function(4), "ordinary"),
        (peterson_function(4), "equivariant"),
        (peterson_function(4), "ordinary"),
        (flag_function(5), "ordinary"),
        (peterson_function(5), "equivariant"),
        (parse_hessenberg((2, 4, 4, 5, 5)), "ordinary"),
    ]
    for h, mode in samples:
        gens = list(ideal_generators(h, mode).generators)
        gb = buchberger(gens)
        _assert_reduced_groebner(gb, gens)


def test_buchberger_deterministic():
    gens = list(ideal_generators(flag_function(4), "equivariant").generators)
    first = buchberger(gens)
    second = buchberger(gens)
    assert first.basis == second.basis
    assert first.stats.pairs_processed == second.stats.pairs_processed


def test_pair_budget_enforced():
    gens = list(ideal_generators(flag_function(3), "ordinary").generators)
    with pytest.raises(ResourceLimitError):
        buchberger(gens, pair_budget=0)
    # a coprime pair, settled when queued, counts against the budget too
    x1, x2 = x_var(1, 2), x_var(2, 2)
    with pytest.raises(ResourceLimitError, match="S-pair budget of 0"):
        buchberger([x1 * x1, x2 * x2], pair_budget=0)
    assert buchberger([x1 * x1, x2 * x2], pair_budget=1).stats.product_skips == 1


def test_pair_budget_raises_iff_the_processed_pairs_exceed_it():
    gens = list(ideal_generators(parse_hessenberg((2, 3, 4, 4)), "equivariant").generators)
    stats = buchberger(gens).stats
    assert stats.product_skips and stats.pairs_processed > stats.product_skips
    assert buchberger(gens, pair_budget=stats.pairs_processed).stats == stats
    with pytest.raises(ResourceLimitError, match="S-pair budget"):
        buchberger(gens, pair_budget=stats.pairs_processed - 1)


def test_negative_pair_budget_is_refused_before_any_work():
    # x1 alone needs no pair, so only the up-front check can refuse it
    with pytest.raises(ValueError, match="pair_budget must be at least 0, got -1"):
        buchberger([x_var(1, 1)], pair_budget=-1)
    assert buchberger([x_var(1, 1)], pair_budget=0).stats.pairs_processed == 0


def test_budgets_are_keyword_only():
    gens = list(ideal_generators(parse_hessenberg((2, 2)), "ordinary").generators)
    for call in (lambda: buchberger(gens, 10),
                 lambda: ideal_equality_witness(gens, gens, 10)):
        with pytest.raises(TypeError, match="positional"):
            call()


# -- standard monomials -------------------------------------------------------


def test_standard_monomials_frozen():
    gb = buchberger(list(ideal_generators(parse_hessenberg((2, 2)), "ordinary").generators))
    assert standard_monomials(gb) == [(0, 0, 0), (0, 1, 0)]  # 1 and x2


def test_standard_monomials_flag_count():
    import math

    for n in range(1, 5):
        gb = buchberger(list(ideal_generators(flag_function(n), "ordinary").generators))
        assert len(standard_monomials(gb)) == math.factorial(n)


def test_standard_monomials_unit_ideal():
    gb = buchberger([one(2)])
    assert standard_monomials(gb) == []


def test_standard_monomials_single_variable():
    gb = buchberger([x_var(1, 1)])
    assert standard_monomials(gb) == [(0, 0)]


def test_standard_monomials_not_zero_dimensional():
    gb = buchberger(list(ideal_generators(parse_hessenberg((2, 2)), "equivariant").generators))
    with pytest.raises(NotZeroDimensionalError, match="not-zero-dimensional"):
        standard_monomials(gb)
    tall = buchberger([x_var(1, 2)])  # x2 never bounded
    with pytest.raises(NotZeroDimensionalError, match="x2"):
        standard_monomials(tall)


# -- Hilbert series ------------------------------------------------------------


def test_hilbert_series_requires_homogeneous():
    n = 1
    gb = buchberger([x_var(1, n) * x_var(1, n) + x_var(1, n)])
    with pytest.raises(ValueError, match="homogeneous"):
        hilbert_series(gb)


def test_hilbert_against_linear_algebra_oracle_ordinary():
    for n in range(1, 4):
        for h in enumerate_all(n):
            gens = list(ideal_generators(h, "ordinary").generators)
            gb = buchberger(gens)
            data = hilbert_series(gb)
            assert data.denominator_power == 0
            active = list(range(n))
            bound = len(data.series) + 1
            dims = _oracle_graded_dims(gens, n, active, bound)
            assert dims[len(data.series):] == [0, 0][: bound + 1 - len(data.series)]
            assert tuple(dims[: len(data.series)]) == data.series, h
            assert data.quotient_dimension == sum(dims)


def test_hilbert_against_linear_algebra_oracle_equivariant():
    bound = 6
    for n in range(1, 4):
        for h in enumerate_all(n):
            gens = list(ideal_generators(h, "equivariant").generators)
            gb = buchberger(gens)
            data = hilbert_series(gb)
            assert data.denominator_power > 0
            assert data.quotient_dimension is None
            dims = _oracle_graded_dims(gens, n, list(range(n + 1)), bound)
            assert _expand_series(data, bound) == dims, h


def test_equivariant_series_is_ordinary_over_one_minus_q():
    for n in range(1, 4):
        for h in enumerate_all(n):
            ordinary = hilbert_series(
                buchberger(list(ideal_generators(h, "ordinary").generators))
            )
            equivariant = hilbert_series(
                buchberger(list(ideal_generators(h, "equivariant").generators))
            )
            assert equivariant.denominator_power == 1
            assert equivariant.series == ordinary.series


def _ref_minimalize(gens):
    gens = sorted(set(gens), key=lambda g: (sum(g), g))
    out = []
    for g in gens:
        if not any(_div(kept, g) for kept in out):
            out.append(g)
    return out


def _ref_hilbert_numerator(gens, m):
    """The pivot recursion on exponent tuples, the reference for the
    engine's packed _numerator; gens must be minimal."""
    if not gens:
        return [1]
    if any(sum(g) == 0 for g in gens):
        return [0]
    mixed = [g for g in gens if sum(1 for e in g if e) > 1]
    if not mixed:
        out = [1]
        for g in gens:
            out = _mul_one_minus_power(out, sum(g))
        return out
    counts = [0] * m
    for g in mixed:
        for v in range(m):
            if g[v]:
                counts[v] += 1
    pivot = max(range(m), key=lambda v: (counts[v], -v))
    unit = tuple(1 if v == pivot else 0 for v in range(m))
    plus = _ref_minimalize(gens + [unit])
    colon = _ref_minimalize(
        [tuple(e - 1 if v == pivot and e else e for v, e in enumerate(g)) for g in gens]
    )
    left = _ref_hilbert_numerator(plus, m)
    right = _ref_hilbert_numerator(colon, m)
    return _poly_add(left, [0] + right)


def _numerator(monomials, m):
    """The engine's numerator of the ideal spanned by exponent tuples of
    length m, packed in the engine's layout."""
    weights, guard = _pack_weights(m), _guard(m)
    packed = _minimalize([_pack(e, weights) for e in monomials], guard)
    return _hilbert_numerator(packed, weights, guard)


def _assert_numerator_matches_reference(monomials, m):
    assert _numerator(monomials, m) == _ref_hilbert_numerator(_ref_minimalize(monomials), m)


def _ambient(gb):
    """The ambient variables of the quotient: x_1..x_n, then t if used."""
    return list(range(gb.n + 1 if gb.uses_t else gb.n))


def _ambient_leads(gb):
    """(each basis element's leading exponents on the ambient variables,
    the number of those variables)."""
    active = _ambient(gb)
    return [tuple(leading_term(g)[0][v] for v in active) for g in gb.basis], len(active)


def _ref_hilbert_series(gb):
    """(series, denominator power) from the exponent-tuple leads through
    the tuple recursion, the reference for hilbert_series."""
    lts, power = _ambient_leads(gb)
    numerator = _ref_hilbert_numerator(_ref_minimalize(lts), power)
    while power and sum(numerator) == 0:
        numerator = list(itertools.accumulate(numerator))[:-1]  # divided by (1 - q)
        power -= 1
    while numerator and not numerator[-1]:
        numerator.pop()
    return tuple(numerator), power


def _ref_standard_monomials(gb):
    """The walk on exponent tuples, the reference for standard_monomials."""
    lts = [leading_term(g)[0] for g in gb.basis]
    if any(sum(m) == 0 for m in lts):
        return []
    active = _ambient(gb)
    if not lts:
        raise NotZeroDimensionalError("not-zero-dimensional: the zero ideal")
    for v in active:
        if not any(m[v] and sum(m) == m[v] for m in lts):
            name = "t" if v == gb.n else f"x{v + 1}"
            raise NotZeroDimensionalError(
                f"not-zero-dimensional: no pure power of {name} among the leading terms"
            )
    start = (0,) * (gb.n + 1)
    seen, queue, out = {start}, [start], []
    while queue:
        m = queue.pop()
        out.append(m)
        for v in active:
            cand = tuple(e + (w == v) for w, e in enumerate(m))
            if cand not in seen:
                seen.add(cand)
                if not any(_div(lt, cand) for lt in lts):
                    queue.append(cand)
    return sorted(out, key=canonical_key)


@functools.lru_cache(maxsize=None)
def _every_small_basis():
    """The reduced basis of every h with n <= 5, in both modes."""
    return [buchberger(list(ideal_generators(h, mode).generators))
            for n in range(1, 6) for h in enumerate_all(n) for mode in ("ordinary", "equivariant")]


def test_packed_hilbert_numerator_matches_reference_on_every_small_basis():
    for gb in _every_small_basis():
        _assert_numerator_matches_reference(*_ambient_leads(gb))


def _outcome(call, gb):
    try:
        return call(gb)
    except NotZeroDimensionalError as exc:
        return str(exc)


def test_quotient_invariants_match_the_tuple_references_on_every_small_basis():
    for gb in _every_small_basis():
        data = hilbert_series(gb)
        assert (data.series, data.denominator_power) == _ref_hilbert_series(gb)
        assert _outcome(standard_monomials, gb) == _outcome(_ref_standard_monomials, gb)


@st.composite
def _monomial_ideals(draw):
    """(exponent tuples, m): small mixed monomials plus pure powers."""
    m = draw(st.integers(1, 4))
    gens = draw(st.lists(st.tuples(*(st.integers(0, 3) for _ in range(m))), max_size=8))
    for v, e in draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(1, 5)), max_size=m)):
        gens.append(tuple(e if w == v else 0 for w in range(m)))
    return gens, m


@settings(max_examples=200, deadline=None)
@given(_monomial_ideals())
@example(([], 2))
@example(([(2, 0), (0, 3)], 2))  # pure powers only
@example(([(1, 2, 0), (0, 0, 0), (3, 0, 1)], 3))  # a degree-0 generator
@example(([(1, 1, 0, 0), (0, 0, 1, 1), (2, 0, 0, 0), (0, 0, 0, 4)], 4))  # tied pivot counts
@example(([(MAX_EXPONENT, 0), (1, 1), (0, MAX_EXPONENT)], 2))  # fields at the bound
def test_packed_hilbert_numerator_matches_reference(ideal):
    _assert_numerator_matches_reference(*ideal)


def test_hilbert_series_refuses_an_exponent_past_the_packed_field():
    n = 2
    for exps in ((MAX_EXPONENT + 1, 0, 0), (0, 1 << FIELD_BITS, 0)):
        gb = GroebnerBasis(n=n, basis=(Polynomial(n, {exps: 1}), x_var(1, n) * x_var(2, n)),
                           stats=GroebnerStats())
        with pytest.raises(ResourceLimitError, match="packed monomial field"):
            hilbert_series(gb)


def test_hilbert_unit_ideal():
    data = hilbert_series(buchberger([one(2)]))
    assert data.series == () and data.quotient_dimension == 0


# -- membership and equality ---------------------------------------------------


def test_ideal_membership_power_sums_in_flag_ideal():
    n = 3
    gens = list(ideal_generators(flag_function(n), "ordinary").generators)
    gb = buchberger(gens)
    for r in range(1, n + 1):
        assert normal_form(power_sum(r, n), gb.basis).is_zero()
    assert not normal_form(x_var(1, n), gb.basis).is_zero()
    assert normal_form(zero(n), gb.basis).is_zero()


def test_ideal_equality_symmetric_presentations():
    from hesscoh.polyring import elementary_symmetric

    n = 3
    flag = list(ideal_generators(flag_function(n), "ordinary").generators)
    borel = [elementary_symmetric(i, range(1, n + 1), n) for i in range(1, n + 1)]
    assert ideal_equality_witness(flag, borel) is None
    witness = ideal_equality_witness(flag, borel[:-1])
    assert witness["direction"] == "left-in-right"  # e1, e2 lie in the flag ideal
    escaped = flag[witness["generator"] - 1]
    smaller = buchberger(borel[:-1])
    assert witness["normalForm"] == poly_to_dict(normal_form(escaped, smaller.basis))
    assert witness["normalForm"]["terms"]


# -- cache ----------------------------------------------------------------------


def test_cache_round_trip(tmp_path):
    gens = list(ideal_generators(parse_hessenberg((2, 3, 3)), "equivariant").generators)
    first = buchberger(gens, cache_dir=tmp_path)
    files = sorted(tmp_path.glob("gb-*.json"))
    assert len(files) == 1
    second = buchberger(gens, cache_dir=tmp_path)
    assert second == first
    assert second.stats.pairs_processed == first.stats.pairs_processed
    assert sorted(tmp_path.glob("gb-*.json")) == files


def test_cache_key_distinguishes_order_and_mode(tmp_path):
    gens = list(ideal_generators(parse_hessenberg((2, 2)), "ordinary").generators)
    buchberger(gens, cache_dir=tmp_path)
    buchberger(
        list(ideal_generators(parse_hessenberg((2, 2)), "equivariant").generators),
        cache_dir=tmp_path,
    )
    assert len(list(tmp_path.glob("gb-*.json"))) == 2


def test_cache_corruption_recovers(tmp_path):
    gens = list(ideal_generators(parse_hessenberg((2, 2)), "ordinary").generators)
    first = buchberger(gens, cache_dir=tmp_path)
    (path,) = tmp_path.glob("gb-*.json")
    path.write_text("{ not json")
    second = buchberger(gens, cache_dir=tmp_path)
    assert second.basis == first.basis
    assert json.loads(path.read_text())["schemaVersion"] == 1  # rewritten cleanly


def _cached_entry(tmp_path, h=(2, 3, 3), mode="ordinary"):
    gens = list(ideal_generators(parse_hessenberg(h), mode).generators)
    first = buchberger(gens, cache_dir=tmp_path)
    (path,) = tmp_path.glob("gb-*.json")
    return gens, first, path


def test_cache_stores_every_counter_and_loads_entries_without_the_new_ones(tmp_path):
    gens, first, path = _cached_entry(tmp_path)
    data = json.loads(path.read_text())
    assert data["stats"] == dataclasses.asdict(first.stats)
    data["stats"] = {"pairs_processed": 7, "reductions_to_zero": 3}  # an older entry
    path.write_text(json.dumps(data))
    loaded = buchberger(gens, cache_dir=tmp_path)
    assert loaded.basis == first.basis
    assert dataclasses.asdict(loaded.stats) == {
        "pairs_processed": 7, "reductions_to_zero": 3,
        "product_skips": 0, "chain_skips": 0, "reduction_steps": 0,
    }


def test_cache_entry_with_another_schema_version_is_a_miss(tmp_path):
    gens, first, path = _cached_entry(tmp_path)
    data = json.loads(path.read_text())
    data["schemaVersion"] = 2
    data["basis"] = data["basis"][:1]
    path.write_text(json.dumps(data))
    again = buchberger(gens, cache_dir=tmp_path)
    assert again.basis == first.basis
    assert json.loads(path.read_text())["schemaVersion"] == 1  # rewritten


def test_cache_entry_from_another_ring_is_a_miss(tmp_path):
    gens, first, path = _cached_entry(tmp_path)
    data = json.loads(path.read_text())
    data["basis"] = [poly_to_dict(x_var(1, 4))]  # the request is n = 3
    path.write_text(json.dumps(data))
    again = buchberger(gens, cache_dir=tmp_path)
    assert again.basis == first.basis
    assert json.loads(path.read_text())["basis"] == [poly_to_dict(g) for g in first.basis]


def test_cache_entry_with_a_zero_polynomial_is_a_miss(tmp_path):
    gens, first, path = _cached_entry(tmp_path)
    data = json.loads(path.read_text())
    data["basis"] = [poly_to_dict(zero(3))]
    path.write_text(json.dumps(data))
    again = buchberger(gens, cache_dir=tmp_path)
    assert again.basis == first.basis
    assert json.loads(path.read_text())["basis"] == [poly_to_dict(g) for g in first.basis]


def test_cache_write_is_atomic(tmp_path, monkeypatch):
    from pathlib import Path

    gens = list(ideal_generators(parse_hessenberg((2, 3, 3)), "ordinary").generators)
    real_write_text = Path.write_text

    def interrupted(self, data, *args, **kwargs):
        real_write_text(self, data[: len(data) // 2])
        raise OSError("No space left on device")

    monkeypatch.setattr(Path, "write_text", interrupted)
    with pytest.raises(OSError, match="No space"):
        buchberger(gens, cache_dir=tmp_path)
    assert list(tmp_path.iterdir()) == []  # neither a torn entry nor a stray temp file
    monkeypatch.undo()
    gb = buchberger(gens, cache_dir=tmp_path)
    (path,) = tmp_path.iterdir()
    assert path.name.startswith("gb-") and path.name.endswith(".json")
    assert json.loads(path.read_text())["basis"] == [poly_to_dict(g) for g in gb.basis]
