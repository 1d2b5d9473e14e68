"""Reduced Groebner bases, normal forms, standard monomials, Hilbert series.

This is the oracle the verification layer leans on, so it follows the
textbook algorithms with no shortcuts that lack a classical soundness
proof: Buchberger's algorithm with normal pair selection plus the
product and chain criteria, full inter-reduction to the unique reduced
monic basis, and a pivot recursion on the leading-term ideal for the
Hilbert series.

Every division (S-pair reduction, inter-reduction, normal_form) runs
through one routine, _reduce.  It works over Z: reducers are primitive
integer polynomials with a positive leading coefficient, and a step
scales the working polynomial by lc/gcd instead of dividing.  Each
intermediate is then a nonzero scalar multiple of its textbook Fraction
counterpart, so leading monomials, pair order, criteria and counters are
the same.  buchberger keeps the reducers (leading monomial, leading
coefficient, tail) in a table that grows with the basis.  Monic Fraction
polynomials come back only in _reduce_basis, which returns the reduced
basis; normal_form divides the integer remainder by the scale it applied.

_reduce divides each term by the first reducer in table order whose
leading monomial divides it, and remembers the answer in a memo: the
index of that reducer, or how many reducers it has already ruled out.
Both stay true while the table is only appended to, so buchberger shares
one memo across its S-pair reductions and _reduce_basis one across its
pass, each on its own table; every other call starts a fresh memo, and
no memo outlives the call that made it.  buchberger settles a pair with
coprime leading monomials (the product criterion) when it queues it, so
only pairs that may need a reduction enter the heap.

Inside groebner a monomial is one int (Monagan & Pearce, "Sparse
polynomial division using a heap", J. Symb. Comput. 2011).  Its low
bits hold one FIELD_BITS-wide field per variable, t last, whose top bit
is a guard bit; the bits above them hold minus its degree (_pack_weights).
Each exponent is stored once, and the int is its own degrevlex key,
smaller int = larger monomial: degree decides first, then the fields
read as one number with t most significant.  Both parts are linear, so
a product of monomials is +, the quotient by a divisor is -, ``a``
divides ``b`` iff ``(b - a) & guard`` is 0, and m has degree
``-(m >> FIELD_BITS*nvars)``.  The pending terms form a heap of plain
ints, the leading monomial is the smallest int, and buchberger queues
its pairs by their packed lcms.  An exponent past MAX_EXPONENT, on input
or in any product, raises ResourceLimitError rather than carry into the
next field.  The quotient invariants run the Hilbert series recursion
and the standard-monomial walk on the packed leading monomials.  Only
_pack_weights, _pack, _guard and _unpack convert between the layout and
exponent tuples, which remain at the boundary: Polynomial in and out,
the fieldwise max that forms a pair lcm, the reduced basis, the
standard monomials returned and the cache.

There is one monomial order, polyring's canonical one: degrevlex with
x_1 > ... > x_n > t (polyring.canonical_key), the order the
presentations are displayed in.

For quotient invariants the ambient ring is Q[x_1..x_n] when no basis
element mentions t (ordinary mode) and Q[x_1..x_n, t] otherwise; in
the first case the t field of every lead is 0 and no invariant reads it.

Only buchberger reads and writes an on-disk cache, through its
cache_dir argument, which no command sets: a library-only path, kept
for perfbench's hilbert passes and to be removed with them.  A
well-formed entry is trusted as it stands and never re-checked.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import mul
from pathlib import Path
from typing import Iterable, Sequence

from .errors import (
    DimensionMismatchError,
    InvalidArgumentError,
    NotZeroDimensionalError,
    ResourceLimitError,
    check_int,
)
from .polyring import Monomial, Polynomial, poly_from_dict, poly_to_dict

DEFAULT_PAIR_BUDGET = 200_000

CACHE_SCHEMA_VERSION = 1

FIELD_BITS = 16  # per variable in a packed monomial, guard bit included
MAX_EXPONENT = (1 << (FIELD_BITS - 1)) - 1


@dataclass
class GroebnerStats:
    """What buchberger did.  Every processed pair is skipped by the
    product or the chain criterion, reduces to zero, or adds one basis
    element; reduction_steps counts reducer applications, inter-reduction
    included."""

    pairs_processed: int = 0
    reductions_to_zero: int = 0
    product_skips: int = 0
    chain_skips: int = 0
    reduction_steps: int = 0


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced Groebner basis: monic, inter-reduced, sorted by leading
    monomial (ascending in degrevlex).  A basis polynomial from another
    ring raises DimensionMismatchError, a zero one InvalidArgumentError."""

    n: int
    basis: tuple[Polynomial, ...]
    stats: GroebnerStats = field(compare=False)

    def __post_init__(self) -> None:
        for g in self.basis:
            if g.n != self.n:
                raise DimensionMismatchError(
                    f"ambient rings differ: basis n={self.n}, polynomial n={g.n}"
                )
            if g.is_zero():
                raise InvalidArgumentError("a Groebner basis holds no zero polynomial")

    @property
    def uses_t(self) -> bool:
        return any(exps[self.n] for g in self.basis for exps in g.terms)


def _common_n(polys: Sequence[Polynomial]) -> int:
    ns = {p.n for p in polys}
    if len(ns) != 1:
        raise DimensionMismatchError(f"polynomials live in different rings: n in {sorted(ns)}")
    return ns.pop()


# -- integer reduction core -------------------------------------------------
#
# A packed monomial is an int (see the module docstring); `guard` is the
# mask of the guard bits of a ring's fields.  An integer polynomial is a
# dict {packed monomial: nonzero int}.  A reducer is a tuple (lt, lc, tail):
# leading monomial, positive leading coefficient, and the other terms as
# an integer polynomial.


def _pack_weights(nvars: int) -> tuple[int, ...]:
    """The packed monomial of each variable: a 1 in its own field and
    degree 1, stored negated above the fields."""
    degree = 1 << FIELD_BITS * nvars
    return tuple((1 << FIELD_BITS * v) - degree for v in range(nvars))


def _pack(exponents: Monomial, weights: tuple[int, ...]) -> int:
    """The packed monomial; weights is _pack_weights of the ring."""
    if max(exponents) > MAX_EXPONENT:
        raise _overflow()
    return sum(map(mul, weights, exponents))


def _unpack(m: int, nvars: int) -> Monomial:
    """The exponent tuple: the fields read as little-endian unsigned
    16-bit words (FIELD_BITS is 16), the degree above them masked off."""
    fields = m & ((1 << FIELD_BITS * nvars) - 1)
    return struct.unpack(f"<{nvars}H", fields.to_bytes(2 * nvars, "little"))


def _guard(nvars: int) -> int:
    return sum(1 << FIELD_BITS * (v + 1) - 1 for v in range(nvars))


def _overflow() -> ResourceLimitError:
    return ResourceLimitError(
        f"an exponent exceeds {MAX_EXPONENT}, the packed monomial field; "
        "the computation is out of scale"
    )


def _integer_terms(p: Polynomial) -> tuple[dict[int, int], int]:
    """(d * p as an integer polynomial, d) for d the lcm of the denominators."""
    d = lcm(*(c.denominator for c in p.terms.values()))
    weights = _pack_weights(p.n + 1)
    return {_pack(e, weights): c.numerator * (d // c.denominator) for e, c in p.terms.items()}, d


def _reducer(terms: dict[int, int], lt: int) -> tuple:
    """The primitive reducer with leading monomial lt for a nonzero integer
    polynomial: divided by its content, signed so that lc > 0."""
    content = gcd(*terms.values())
    if terms[lt] < 0:
        content = -content
    if content != 1:
        terms = {e: c // content for e, c in terms.items()}
    return lt, terms[lt], {e: c for e, c in terms.items() if e != lt}


def _reducer_table(polys: Sequence[Polynomial]) -> list[tuple]:
    """Reducers of nonzero polynomials; the leading monomial is the
    smallest packed int."""
    table = []
    for p in polys:
        terms = _integer_terms(p)[0]
        table.append(_reducer(terms, min(terms)))
    return table


def _reduce(work: dict[int, int], table: Sequence[tuple], guard: int,
            memo: dict[int, int]) -> tuple[dict, int, int]:
    """Divide the integer polynomial `work` (consumed) by the reducers.

    Returns (remainder, scale, steps): scale is a positive integer with
    remainder = scale * (the textbook remainder of work), and steps
    counts reducer applications.  No remainder term is divisible by a
    leading monomial of the table.  Each term is divided by the first
    reducer in table order whose leading monomial divides it, so the
    result is deterministic.  Remainder terms are inserted largest
    first, so the first key is the leading monomial.

    memo maps a packed monomial to the index of that first reducer, or
    to ~L when none of the first L reducers divides it; only reducers
    past L are then tried.  An entry stays true while the table is only
    appended to, so a caller may pass one memo to several calls on one
    growing table, and must pass a fresh one for any other table.
    """
    heap = list(work)
    heapify(heap)
    remainder: dict[int, int] = {}
    scale = 1
    steps = 0
    size = len(table)
    while heap:
        m = heappop(heap)
        c = work.pop(m, 0)
        if not c:
            continue  # stale entry: m cancelled after it was pushed
        k = memo.get(m, -1)
        if k < 0:
            for k in range(~k, size):
                if not (m - table[k][0]) & guard:
                    break
            else:
                memo[m] = ~size
                remainder[m] = c
                continue
            memo[m] = k
        lt, lc, tail = table[k]
        steps += 1
        g = gcd(c, lc)
        factor, q = lc // g, c // g
        if factor != 1:
            scale *= factor
            for e in work:
                work[e] *= factor
            for e in remainder:
                remainder[e] *= factor
        shift = m - lt
        for e, ce in tail.items():
            target = shift + e
            value = work.get(target)
            if value is None:
                if target & guard:
                    raise _overflow()
                work[target] = -q * ce
                heappush(heap, target)
            else:
                value -= q * ce
                if value:
                    work[target] = value
                else:
                    del work[target]
    return remainder, scale, steps


def _normal_form(f: Polynomial, table: Sequence[tuple]) -> Polynomial:
    work, denominator = _integer_terms(f)
    remainder, scale, _ = _reduce(work, table, _guard(f.n + 1), {})
    d = scale * denominator
    return Polynomial._raw(f.n, {_unpack(e, f.n + 1): Fraction(c, d) for e, c in remainder.items()})


def _s_terms(a: tuple, b: tuple, pair_lcm: int, guard: int) -> dict[int, int]:
    """Integer S-polynomial of two reducers, a positive multiple of the
    S-polynomial of their monic forms."""
    (la, ca, ta), (lb, cb, tb) = a, b
    g = gcd(ca, cb)
    work: dict[int, int] = {}
    for lt, tail, factor in ((la, ta, cb // g), (lb, tb, -(ca // g))):
        shift = pair_lcm - lt
        for e, c in tail.items():
            target = shift + e
            if target & guard:
                raise _overflow()
            value = work.get(target, 0) + factor * c
            if value:
                work[target] = value
            else:
                work.pop(target, None)
    return work


def normal_form(f: Polynomial, basis: Sequence[Polynomial]) -> Polynomial:
    """Remainder of f under multivariate division by basis.

    No term of the result is divisible by any leading monomial of the
    basis.  Reducers are tried in list order, so the result is
    deterministic; for a Groebner basis it is the unique normal form.
    """
    reducers = [b for b in basis if not b.is_zero()]
    if not reducers:
        raise InvalidArgumentError("normal_form needs a nonempty basis")
    _common_n([f, *reducers])
    return _normal_form(f, _reducer_table(reducers))


def buchberger(
    generators: Iterable[Polynomial],
    *,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
    cache_dir: str | Path | None = None,
) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal spanned by `generators`.

    Pairs are handled in normal-selection order (lcm degree, then the
    lcm itself, then indices), the ascending order of (-packed lcm, i,
    j); the chain criterion drops (i, j) when some g_k divides the pair
    lcm and both companion pairs have been handled.  The product
    criterion settles a coprime pair when it is queued: it is counted as
    processed and skipped right away and never enters the heap.  More
    than pair_budget processed pairs raises ResourceLimitError, and a
    negative pair_budget InvalidArgumentError up front.  Every S-pair
    reduction shares one first-divisor memo (see _reduce), valid because
    the table is only appended to.

    With cache_dir set, the result is stored under a content hash of
    the generators and reloaded on repeat calls.
    """
    check_int(pair_budget, "pair_budget", 0)
    gens = list(generators)
    if not gens:
        raise InvalidArgumentError("buchberger needs at least one generator")
    n = _common_n(gens)

    cache_path = None
    if cache_dir is not None:
        cache_path = Path(cache_dir) / f"gb-{_cache_key(n, gens)}.json"
        cached = _cache_load(cache_path, n)
        if cached is not None:
            return cached

    # table[k] is the primitive integer reducer of the k-th basis element;
    # leads[k] is its packed leading monomial, that monomial's exponent
    # tuple (for the pair lcms) and the guard bits of its variables
    table: list[tuple] = []
    for reducer in _reducer_table([g for g in gens if not g.is_zero()]):
        if reducer not in table:
            table.append(reducer)
    nvars = n + 1
    weights = _pack_weights(nvars)
    guard = _guard(nvars)
    leads: list[tuple] = []
    heap: list[tuple] = []
    stats = GroebnerStats()

    def count_processed(pairs: int) -> None:
        stats.pairs_processed += pairs
        if stats.pairs_processed > pair_budget:
            raise ResourceLimitError(
                f"S-pair budget of {pair_budget} exhausted; the computation is out of scale"
            )

    def push_pairs(j: int) -> None:
        """Queue (i, j) for every i < j, settling the coprime pairs, then
        record element j's lead."""
        packed = table[j][0]
        lt = _unpack(packed, nvars)
        (support,) = _supports((packed,), guard)
        coprime = 0
        for i, (_, lt_i, support_i) in enumerate(leads):
            if support_i & support:
                # an lcm's fields are no larger than its arguments', so
                # packing it needs no overflow check
                heappush(heap, (-sum(map(mul, weights, map(max, lt_i, lt))), i, j))
            else:
                coprime += 1
        stats.product_skips += coprime
        count_processed(coprime)
        leads.append((packed, lt, support))

    for j in range(len(table)):
        push_pairs(j)

    memo: dict[int, int] = {}
    while heap:
        neg_lcm, i, j = heappop(heap)
        count_processed(1)
        pair_lcm = -neg_lcm
        if _chain_criterion(i, j, pair_lcm, leads, guard):
            stats.chain_skips += 1
            continue
        s_terms = _s_terms(table[i], table[j], pair_lcm, guard)
        remainder, _, steps = _reduce(s_terms, table, guard, memo)
        stats.reduction_steps += steps
        if not remainder:
            stats.reductions_to_zero += 1
            continue
        table.append(_reducer(remainder, next(iter(remainder))))
        push_pairs(len(table) - 1)

    reduced = _reduce_basis(n, table, guard, stats)
    result = GroebnerBasis(n=n, basis=tuple(reduced), stats=stats)
    if cache_path is not None:
        _cache_store(cache_path, result)
    return result


def _chain_criterion(i, j, pair_lcm, leads, guard) -> bool:
    """Whether some other g_k divides the lcm L of the pair (i, j) while
    neither (i, k) nor (j, k) is still queued.

    Both companion lcms divide L, so each companion sorts before (i, j)
    in the heap order unless its lcm is L and its indices come after
    (i, j).  A companion sorting before (i, j) was queued no later than
    it and has been handled; one sorting after it is still queued, since
    every pair whose indices come after (i, j) was queued no earlier
    than (i, j).  Coprime pairs, which never enter the heap, count as
    queued by the same rule.  The test runs on packed ints alone: when
    leading monomials a and b divide L, their lcm is L exactly when the
    cofactors L - a and L - b share no variable.
    """
    cof_i, cof_j = _supports((pair_lcm - leads[i][0], pair_lcm - leads[j][0]), guard)
    for k, (lt, _, _) in enumerate(leads):
        cofactor = pair_lcm - lt
        if k == i or k == j or cofactor & guard:
            continue
        if k < i:
            return True  # (k, i) and (k, j) both sort before (i, j)
        (cof_k,) = _supports((cofactor,), guard)
        if k > j and not cof_k & cof_i:
            continue  # (i, k) is still queued
        if cof_k & cof_j:
            return True
    return False


def _reduce_basis(n: int, table: list[tuple], guard: int,
                  stats: GroebnerStats) -> list[Polynomial]:
    """Minimalize and inter-reduce; the reduced basis is unique.

    The elements are taken by ascending leading monomial (descending
    packed int).  One whose leading monomial a kept element divides is
    dropped; the others are reduced against the kept elements before
    them, which already are reduced, under one memo for the pass.  A
    later element's leading monomial is larger than every term of an
    earlier one, so it could divide none of them.

    Returns monic Fraction polynomials, ascending by leading monomial.
    """
    reduced: list[tuple] = []
    memo: dict[int, int] = {}
    for lt, lc, tail in sorted(table, key=lambda r: -r[0]):
        if all((lt - kept[0]) & guard for kept in reduced):
            remainder, _, steps = _reduce({lt: lc, **tail}, reduced, guard, memo)
            stats.reduction_steps += steps
            reduced.append(_reducer(remainder, lt))
    nvars = n + 1
    return [
        Polynomial._raw(n, {_unpack(lt, nvars): Fraction(1),
                            **{_unpack(e, nvars): Fraction(c, lc) for e, c in tail.items()}})
        for lt, lc, tail in reduced
    ]


def ideal_equality_witness(
    gens_a: Sequence[Polynomial],
    gens_b: Sequence[Polynomial],
    *,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
) -> dict | None:
    """None if the two generating sets span the same ideal.

    Otherwise the first generator that escapes the other side's ideal:
    {"direction": "right-in-left" (a generator of gens_b outside the
    ideal of gens_a) or "left-in-right", "generator": its 1-based index,
    "normalForm": its normal form as poly_to_dict}.
    """
    gb_a = buchberger(gens_a, pair_budget=pair_budget)
    gb_b = buchberger(gens_b, pair_budget=pair_budget)
    return basis_equality_witness(gens_a, gb_a, gens_b, gb_b)


def basis_equality_witness(
    gens_a: Sequence[Polynomial],
    gb_a: GroebnerBasis,
    gens_b: Sequence[Polynomial],
    gb_b: GroebnerBasis,
) -> dict | None:
    """ideal_equality_witness for a caller that already holds gb_a and
    gb_b, Groebner bases of the ideals of gens_a and gens_b."""
    _common_n([*gens_a, *gens_b])
    for label, gens, gb in (("right-in-left", gens_b, gb_a), ("left-in-right", gens_a, gb_b)):
        table = _reducer_table(gb.basis)
        for idx, g in enumerate(gens, start=1):
            r = _normal_form(g, table)
            if not r.is_zero():
                return {"direction": label, "generator": idx, "normalForm": poly_to_dict(r)}
    return None


# -- quotient invariants ---------------------------------------------------


def _lead_ideal(gb: GroebnerBasis) -> tuple[list[int], tuple[int, ...], int]:
    """(leads, units, guard): each basis element's leading monomial as its
    smallest packed term, the rule _reducer_table uses; units[v] is the
    packed ambient variable v, t last when the basis mentions it; and the
    guard mask of the ring's fields."""
    weights = _pack_weights(gb.n + 1)
    leads = [min(_pack(e, weights) for e in g.terms) for g in gb.basis]
    return leads, weights[:gb.n + 1 if gb.uses_t else gb.n], _guard(gb.n + 1)


def _supports(monomials: Iterable[int], guard: int) -> list[int]:
    """The variables of each packed monomial, as the guard bits of its
    nonzero fields: adding MAX_EXPONENT to a field sets its guard bit iff
    it is nonzero."""
    fill = (guard >> FIELD_BITS - 1) * MAX_EXPONENT
    return [(m + fill) & guard for m in monomials]


def standard_monomials(gb: GroebnerBasis) -> list[Monomial]:
    """Monomials outside the leading-term ideal, when finitely many.

    Raises NotZeroDimensionalError unless every ambient variable has a
    pure power among the leading monomials (always the case for t in
    equivariant ideals, hence the error there).  The walk from 1 runs on
    packed monomials; only the monomials returned are unpacked.
    """
    leads, units, guard = _lead_ideal(gb)
    if 0 in leads:
        return []  # a degree-0 lead: the unit ideal, zero ring
    if not leads:
        raise NotZeroDimensionalError("not-zero-dimensional: the zero ideal")
    supports = set(_supports(leads, guard))
    for v in range(len(units)):
        if 1 << FIELD_BITS * (v + 1) - 1 not in supports:
            name = "t" if v == gb.n else f"x{v + 1}"
            raise NotZeroDimensionalError(
                f"not-zero-dimensional: no pure power of {name} among the leading terms"
            )
    # a walked monomial stays below the pure powers, so no field overflows
    seen = {0}
    queue = [0]
    out: list[int] = []
    while queue:
        m = queue.pop()
        out.append(m)
        for unit in units:
            cand = m + unit
            if cand in seen:
                continue
            seen.add(cand)
            if all((cand - lt) & guard for lt in leads):
                queue.append(cand)
    out.sort(reverse=True)
    return [_unpack(m, gb.n + 1) for m in out]


@dataclass(frozen=True)
class HilbertData:
    """Hilbert series of the quotient, in the internal weight grading.

    Finite quotient: series lists the graded dimensions and
    denominator_power is 0.  Infinite quotient: the series is
    numerator/(1-q)^denominator_power with the numerator coefficients in
    `series`, and quotient_dimension is None.
    """

    series: tuple[int, ...]
    denominator_power: int

    @property
    def quotient_dimension(self) -> int | None:
        """sum(series) for a finite quotient, else None."""
        return None if self.denominator_power else sum(self.series)


def hilbert_series(gb: GroebnerBasis) -> HilbertData:
    """Hilbert series of ring/ideal from the leading-term ideal, whose
    packed minimal generators go through _hilbert_numerator.

    Requires a homogeneous basis (true for every ideal built here).
    """
    for g in gb.basis:
        if not g.is_homogeneous():
            raise InvalidArgumentError("Hilbert series needs homogeneous generators")
    leads, units, guard = _lead_ideal(gb)
    m = len(units)
    numerator = _hilbert_numerator(_minimalize(leads, guard), units, guard)
    cancels = 0
    while cancels < m:
        quotient, ok = _divide_one_minus_q(numerator)
        if not ok:
            break
        numerator = quotient
        cancels += 1
    remaining = m - cancels
    coeffs = _trim(numerator)
    if remaining == 0 and any(c < 0 for c in coeffs):
        raise AssertionError(f"negative Hilbert coefficients {coeffs}; engine bug")
    return HilbertData(series=tuple(coeffs), denominator_power=remaining)


def _minimalize(gens: list[int], guard: int) -> list[int]:
    """The minimal generators of a packed monomial ideal, descending: a
    proper divisor has the lower degree, hence the larger int, so it
    comes before its multiples."""
    out: list[int] = []
    for g in sorted(set(gens), reverse=True):
        if all((g - kept) & guard for kept in out):
            out.append(g)
    return out


def _hilbert_numerator(gens: list[int], units: tuple[int, ...], guard: int) -> list[int]:
    """Numerator K with Hilb(R/M) = K(q)/(1-q)^m for the monomial ideal M
    with minimal packed generators gens, in m = len(units) variables;
    units[v] is the packed variable v, and every other field of gens is 0.

    Splits on a pivot variable occurring in the most mixed generators:
    K(M) = K(M + (x)) + q * K(M : x); pure-power ideals are the base
    case with K = prod (1 - q^a).
    """
    if not gens:
        return [1]
    if not gens[0]:
        return [0]  # a degree-0 generator sorts first: the unit ideal
    m = len(units)
    nonzero = _supports(gens, guard)
    mixed = [z for z in nonzero if z & (z - 1)]
    if not mixed:
        out = [1]
        low = guard.bit_length()  # FIELD_BITS * nvars: the degree sits above
        for g in gens:
            out = _mul_one_minus_power(out, -(g >> low))
        return out
    counts = [sum(z >> shift & 1 for z in mixed)
              for shift in range(FIELD_BITS - 1, FIELD_BITS * m, FIELD_BITS)]
    pivot = max(range(m), key=lambda v: (counts[v], -v))
    unit, shift = units[pivot], FIELD_BITS * pivot + FIELD_BITS - 1
    plus = _minimalize(gens + [unit], guard)
    colon = _minimalize([g - unit if z >> shift & 1 else g for g, z in zip(gens, nonzero)],
                        guard)
    left = _hilbert_numerator(plus, units, guard)
    right = _hilbert_numerator(colon, units, guard)
    return _poly_add(left, [0] + right)


def _poly_add(a: list[int], b: list[int]) -> list[int]:
    out = [0] * max(len(a), len(b))
    for i, v in enumerate(a):
        out[i] += v
    for i, v in enumerate(b):
        out[i] += v
    return out


def _mul_one_minus_power(coeffs: list[int], d: int) -> list[int]:
    out = coeffs + [0] * d
    for i, v in enumerate(coeffs):
        out[i + d] -= v
    return out


def _divide_one_minus_q(coeffs: list[int]) -> tuple[list[int], bool]:
    """(quotient, divisible) for division by (1 - q)."""
    if sum(coeffs) != 0:
        return coeffs, False
    partial = 0
    quotient = []
    for c in coeffs[:-1]:
        partial += c
        quotient.append(partial)
    return _trim(quotient), True


def _trim(coeffs: list[int]) -> list[int]:
    end = len(coeffs)
    while end and not coeffs[end - 1]:
        end -= 1
    return coeffs[:end]


# -- on-disk cache ----------------------------------------------------------


def _cache_key(n: int, gens: list[Polynomial]) -> str:
    # the order record every key has hashed; kept as a literal so that
    # entry names already on disk stay valid
    payload = json.dumps(
        {
            "schemaVersion": CACHE_SCHEMA_VERSION,
            "n": n,
            "order": {"kind": "degrevlex", "priority": None},
            "generators": [poly_to_dict(g) for g in gens],
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:32]


def _cache_load(path: Path, n: int) -> GroebnerBasis | None:
    """The cached basis, or None (a miss) for a missing or unreadable entry,
    another schema version, or a basis polynomial from another ring.

    The basis itself is not re-certified here.
    """
    try:
        data = json.loads(path.read_text())
        if data["schemaVersion"] != CACHE_SCHEMA_VERSION:
            return None
        return GroebnerBasis(n=n, basis=tuple(poly_from_dict(d) for d in data["basis"]),
                             stats=GroebnerStats(**data["stats"]))
    except (OSError, ValueError, KeyError, TypeError):
        return None


def _cache_store(path: Path, gb: GroebnerBasis) -> None:
    """Write the entry through a temporary file in the same directory and
    os.replace, so a reader never sees a partly written entry."""
    payload = {
        "schemaVersion": CACHE_SCHEMA_VERSION,
        "basis": [poly_to_dict(g) for g in gb.basis],
        "stats": asdict(gb.stats),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
