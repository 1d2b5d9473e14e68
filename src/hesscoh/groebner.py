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

Inside the integer core a monomial is one int (Monagan & Pearce, "Sparse
polynomial division using a heap", J. Symb. Comput. 2011).  Its low
bits hold one FIELD_BITS-wide field per variable, whose top bit is a
guard bit; above them sits MonomialOrder.heap_key, a linear form in the
exponents with integer weights (smaller key = larger monomial).  Both
parts are linear, so a product of monomials is +, the quotient by a
divisor is -, ``a`` divides ``b`` iff ``(b - a) & guard`` is 0, and the
ints sort as their heap keys: the pending terms form a heap of plain
ints and the leading monomial is the smallest int.  An exponent past
MAX_EXPONENT, on input or in any product, raises ResourceLimitError
rather than carry into the next field.  Exponent tuples remain at the
boundary: Polynomial in and out, the pair lcms, the reduced basis and
the cache.

Monomial orders act on the dense exponent tuples of polyring.  The
default is degrevlex with x_1 > ... > x_n > t; an explicit variable
priority (a permutation of 0..n, highest first, with n meaning t) can
be supplied.

For quotient invariants the ambient ring is Q[x_1..x_n] when no basis
element mentions t (ordinary mode) and Q[x_1..x_n, t] otherwise; the
t slot of the exponent tuples is inert in the first case.

Only buchberger reads and writes an on-disk cache, through its
cache_dir argument, which no command sets: a library-only path, kept
for perfbench's hilbert passes and to be removed with them.  A
well-formed entry is trusted as it stands and never re-checked.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import le, mul, sub
from pathlib import Path
from typing import Iterable, Sequence

from .errors import DimensionMismatchError, NotZeroDimensionalError, ResourceLimitError
from .polyring import Monomial, Polynomial, poly_from_dict, poly_to_dict

DEFAULT_PAIR_BUDGET = 200_000

ORDER_KINDS = ("degrevlex", "deglex", "lex")

CACHE_SCHEMA_VERSION = 1

FIELD_BITS = 16  # per variable in a packed monomial, guard bit included
MAX_EXPONENT = (1 << (FIELD_BITS - 1)) - 1


@dataclass(frozen=True)
class MonomialOrder:
    """A monomial order on exponent tuples.

    priority lists variable indices from most to least significant
    (0..n-1 are x_1..x_n, n is t); None means the natural order
    x_1 > ... > x_n > t.
    """

    kind: str = "degrevlex"
    priority: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in ORDER_KINDS:
            raise ValueError(f"order kind must be one of {ORDER_KINDS}, got {self.kind!r}")
        if self.priority is not None:
            pr = tuple(self.priority)
            if sorted(pr) != list(range(len(pr))):
                raise ValueError(f"priority must be a permutation of 0..{len(pr) - 1}, got {pr}")
            object.__setattr__(self, "priority", pr)

    def _by_priority(self, exponents: Monomial) -> Monomial:
        if self.priority is None:
            return exponents
        if len(self.priority) != len(exponents):
            raise ValueError(
                f"priority covers {len(self.priority)} variables, monomial has {len(exponents)}"
            )
        return tuple(exponents[i] for i in self.priority)

    def key(self, exponents: Monomial) -> tuple:
        """Sort key; larger key = larger monomial."""
        e = self._by_priority(exponents)
        if self.kind == "degrevlex":
            return (sum(e), tuple(-v for v in reversed(e)))
        if self.kind == "deglex":
            return (sum(e), e)
        return e  # lex

    def heap_key(self, exponents: Monomial) -> int:
        """Ascending sort key; smaller key = larger monomial.

        A linear form with integer weights (_heap_weights), so
        heap_key(a + b) = heap_key(a) + heap_key(b).  It orders every
        monomial whose exponents are at most MAX_EXPONENT.
        """
        return sum(map(mul, _heap_weights(self, len(exponents)), exponents))

    def to_dict(self) -> dict:
        return {"kind": self.kind, "priority": list(self.priority) if self.priority else None}

    @classmethod
    def from_dict(cls, data: dict) -> "MonomialOrder":
        pr = data.get("priority")
        return cls(kind=data["kind"], priority=tuple(pr) if pr else None)


def _heap_weights(order: MonomialOrder, nvars: int) -> tuple[int, ...]:
    """The weight of each variable in order.heap_key.

    The key reads (-degree, the exponents in reverse priority) for
    degrevlex, (-degree, minus the exponents in priority) for deglex
    and minus the exponents in priority for lex, each as one number in
    base B = MAX_EXPONENT + 1; the degree digit weighs B**nvars.
    """
    priority = order.priority if order.priority is not None else range(nvars)
    if len(priority) != nvars:
        raise ValueError(f"priority covers {len(priority)} variables, monomial has {nvars}")
    base = MAX_EXPONENT + 1
    degree = 0 if order.kind == "lex" else -base ** nvars
    weights = [0] * nvars
    for rank, v in enumerate(priority):
        if order.kind == "degrevlex":
            weights[v] = degree + base ** rank
        else:
            weights[v] = degree - base ** (nvars - 1 - rank)
    return tuple(weights)


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
    monomial (ascending in the order)."""

    n: int
    order: MonomialOrder
    basis: tuple[Polynomial, ...]
    stats: GroebnerStats = field(compare=False)

    @property
    def uses_t(self) -> bool:
        return any(exps[self.n] for g in self.basis for exps in g.terms)

    def leading_monomials(self) -> list[Monomial]:
        return [leading_term(g, self.order)[0] for g in self.basis]


def leading_term(p: Polynomial, order: MonomialOrder) -> tuple[Monomial, Fraction]:
    if p.is_zero():
        raise ValueError("the zero polynomial has no leading term")
    exps = max(p.terms, key=order.key)
    return exps, p.terms[exps]


def _divides(a: Monomial, b: Monomial) -> bool:
    return all(map(le, a, b))


def _lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


def _quotient(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(sub, a, b))


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


def _pack_weights(order: MonomialOrder, nvars: int) -> tuple[int, ...]:
    """The packed monomial of each variable: its heap-key weight above the
    fields, and a 1 in its own field."""
    low = FIELD_BITS * nvars
    return tuple((w << low) + (1 << FIELD_BITS * v)
                 for v, w in enumerate(_heap_weights(order, nvars)))


def _pack(exponents: Monomial, weights: tuple[int, ...]) -> int:
    """The packed monomial; weights is _pack_weights of the ring and order."""
    if max(exponents) > MAX_EXPONENT:
        raise _overflow()
    return sum(map(mul, weights, exponents))


def _unpack(m: int, nvars: int) -> Monomial:
    return tuple(m >> FIELD_BITS * v & MAX_EXPONENT for v in range(nvars))


def _guard(nvars: int) -> int:
    return sum(1 << FIELD_BITS * (v + 1) - 1 for v in range(nvars))


def _overflow() -> ResourceLimitError:
    return ResourceLimitError(
        f"an exponent exceeds {MAX_EXPONENT}, the packed monomial field; "
        "the computation is out of scale"
    )


def _integer_terms(p: Polynomial, order: MonomialOrder) -> tuple[dict[int, int], int]:
    """(d * p as an integer polynomial, d) for d the lcm of the denominators."""
    d = lcm(*(c.denominator for c in p.terms.values()))
    weights = _pack_weights(order, p.n + 1)
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


def _reducer_table(polys: Sequence[Polynomial], order: MonomialOrder) -> list[tuple]:
    """Reducers of nonzero polynomials; the leading monomial is the
    smallest packed int."""
    table = []
    for p in polys:
        terms = _integer_terms(p, order)[0]
        table.append(_reducer(terms, min(terms)))
    return table


def _reduce(work: dict[int, int], table: Sequence[tuple], guard: int) -> tuple[dict, int, int]:
    """Divide the integer polynomial `work` (consumed) by the reducers.

    Returns (remainder, scale, steps): scale is a positive integer with
    remainder = scale * (the textbook remainder of work), and steps
    counts reducer applications.  No remainder term is divisible by a
    leading monomial of the table.  Reducers are tried in table order,
    so the result is deterministic.  Remainder terms are inserted
    largest first, so the first key is the leading monomial.
    """
    heap = list(work)
    heapify(heap)
    remainder: dict[int, int] = {}
    scale = 1
    steps = 0
    while heap:
        m = heappop(heap)
        c = work.pop(m, 0)
        if not c:
            continue  # stale entry: m cancelled after it was pushed
        for lt, lc, tail in table:
            if not (m - lt) & guard:
                break
        else:
            remainder[m] = c
            continue
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


def _normal_form(f: Polynomial, table: Sequence[tuple], order: MonomialOrder) -> Polynomial:
    work, denominator = _integer_terms(f, order)
    remainder, scale, _ = _reduce(work, table, _guard(f.n + 1))
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


def normal_form(f: Polynomial, basis: Sequence[Polynomial], order: MonomialOrder | None = None) -> Polynomial:
    """Remainder of f under multivariate division by basis.

    No term of the result is divisible by any leading monomial of the
    basis.  Reducers are tried in list order, so the result is
    deterministic; for a Groebner basis it is the unique normal form.
    """
    order = order or MonomialOrder()
    reducers = [b for b in basis if not b.is_zero()]
    if not reducers:
        raise ValueError("normal_form needs a nonempty basis")
    _common_n([f, *reducers])
    return _normal_form(f, _reducer_table(reducers, order), order)


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder | None = None) -> Polynomial:
    order = order or MonomialOrder()
    lf, cf = leading_term(f, order)
    lg, cg = leading_term(g, order)
    lcm = _lcm(lf, lg)
    return _shift(f, _quotient(lcm, lf), 1 / cf) - _shift(g, _quotient(lcm, lg), 1 / cg)


def _shift(p: Polynomial, exps: Monomial, scale: Fraction) -> Polynomial:
    return Polynomial._raw(
        p.n,
        {tuple(a + b for a, b in zip(e, exps)): c * scale for e, c in p.terms.items()},
    )


def buchberger(
    generators: Iterable[Polynomial],
    order: MonomialOrder | None = None,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
    cache_dir: str | Path | None = None,
) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal spanned by `generators`.

    Pairs are handled in normal-selection order (lcm degree, then the
    lcm itself, then indices); the product criterion drops coprime
    pairs and the chain criterion drops (i, j) when some g_k divides
    the pair lcm and both companion pairs are no longer pending.  More
    than pair_budget processed pairs raises ResourceLimitError.

    With cache_dir set, the result is stored under a content hash of
    (generators, order) and reloaded on repeat calls.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("buchberger needs at least one generator")
    n = _common_n(gens)
    order = order or MonomialOrder()

    cache_path = None
    if cache_dir is not None:
        cache_path = Path(cache_dir) / f"gb-{_cache_key(n, order, gens)}.json"
        cached = _cache_load(cache_path, n, order)
        if cached is not None:
            return cached

    # table[k] is the primitive integer reducer of the k-th basis element;
    # leads[k] is its packed leading monomial, that monomial's exponent
    # tuple, the bitmask of the variables in it, and its degree
    table: list[tuple] = []
    for reducer in _reducer_table([g for g in gens if not g.is_zero()], order):
        if reducer not in table:
            table.append(reducer)
    nvars = n + 1
    weights = _pack_weights(order, nvars)
    guard = _guard(nvars)
    leads: list[tuple] = []

    heap: list[tuple] = []
    pending: set[tuple[int, int]] = set()

    def push_pairs(j: int) -> None:
        """Queue (i, j) for every i < j, then record element j's lead."""
        packed = table[j][0]
        lt = _unpack(packed, nvars)
        support = sum(1 << v for v, e in enumerate(lt) if e)
        degree = sum(lt)
        for i, (packed_i, lt_i, support_i, degree_i) in enumerate(leads):
            if support_i & support:
                # an lcm's fields are no larger than its arguments', so
                # packing it needs no overflow check
                lcm = tuple(map(max, lt_i, lt))
                heappush(heap, (sum(lcm), -sum(map(mul, weights, lcm)), i, j))
            else:  # coprime: the lcm is the product
                heappush(heap, (degree_i + degree, -(packed_i + packed), i, j))
            pending.add((i, j))
        leads.append((packed, lt, support, degree))

    for j in range(len(table)):
        push_pairs(j)

    stats = GroebnerStats()
    while heap:
        _, neg_lcm, i, j = heappop(heap)
        pending.discard((i, j))
        stats.pairs_processed += 1
        if stats.pairs_processed > pair_budget:
            raise ResourceLimitError(
                f"S-pair budget of {pair_budget} exhausted; the computation is out of scale"
            )
        pair_lcm = -neg_lcm
        if pair_lcm == table[i][0] + table[j][0]:
            stats.product_skips += 1  # coprime leading monomials
            continue
        if _chain_criterion(i, j, pair_lcm, table, pending, guard):
            stats.chain_skips += 1
            continue
        remainder, _, steps = _reduce(_s_terms(table[i], table[j], pair_lcm, guard), table, guard)
        stats.reduction_steps += steps
        if not remainder:
            stats.reductions_to_zero += 1
            continue
        table.append(_reducer(remainder, next(iter(remainder))))
        push_pairs(len(table) - 1)

    reduced = _reduce_basis(n, table, guard, stats)
    result = GroebnerBasis(n=n, order=order, basis=tuple(reduced), stats=stats)
    if cache_path is not None:
        _cache_store(cache_path, result)
    return result


def _chain_criterion(i, j, pair_lcm, table, pending, guard) -> bool:
    for k, (lt, _, _) in enumerate(table):
        if k == i or k == j:
            continue
        if not (pair_lcm - lt) & guard:
            pik = (min(i, k), max(i, k))
            pjk = (min(j, k), max(j, k))
            if pik not in pending and pjk not in pending:
                return True
    return False


def _reduce_basis(n: int, table: list[tuple], guard: int,
                  stats: GroebnerStats) -> list[Polynomial]:
    """Minimalize and inter-reduce; the reduced basis is unique.

    Returns monic Fraction polynomials, ascending by leading monomial
    (descending packed int).
    """
    minimal: list[tuple] = []
    for reducer in sorted(table, key=lambda r: -r[0]):
        if all((reducer[0] - kept[0]) & guard for kept in minimal):
            minimal.append(reducer)
    for idx, (lt, lc, tail) in enumerate(minimal):
        others = minimal[:idx] + minimal[idx + 1:]
        remainder, _, steps = _reduce({lt: lc, **tail}, others, guard)
        stats.reduction_steps += steps
        minimal[idx] = _reducer(remainder, lt)
    nvars = n + 1
    return [
        Polynomial._raw(n, {_unpack(lt, nvars): Fraction(1),
                            **{_unpack(e, nvars): Fraction(c, lc) for e, c in tail.items()}})
        for lt, lc, tail in minimal
    ]


def ideal_membership(f: Polynomial, gb: GroebnerBasis) -> bool:
    if f.is_zero():
        return True
    if not gb.basis:
        return False
    return normal_form(f, gb.basis, gb.order).is_zero()


def ideal_equality_witness(
    gens_a: Sequence[Polynomial],
    gens_b: Sequence[Polynomial],
    order: MonomialOrder | None = None,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
) -> dict | None:
    """None if the two generating sets span the same ideal.

    Otherwise the first generator that escapes the other side's ideal:
    {"direction": "right-in-left" (a generator of gens_b outside the
    ideal of gens_a) or "left-in-right", "generator": its 1-based index,
    "normalForm": its normal form as poly_to_dict}.
    """
    order = order or MonomialOrder()
    gb_a = buchberger(gens_a, order, pair_budget)
    gb_b = buchberger(gens_b, order, pair_budget)
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
        table = _reducer_table(gb.basis, gb.order)
        for idx, g in enumerate(gens, start=1):
            r = _normal_form(g, table, gb.order)
            if not r.is_zero():
                return {"direction": label, "generator": idx, "normalForm": poly_to_dict(r)}
    return None


def ideal_equality(
    gens_a: Sequence[Polynomial],
    gens_b: Sequence[Polynomial],
    order: MonomialOrder | None = None,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
) -> bool:
    """Whether the two generating sets span the same ideal."""
    return ideal_equality_witness(gens_a, gens_b, order, pair_budget) is None


# -- quotient invariants ---------------------------------------------------


def _active_vars(gb: GroebnerBasis) -> list[int]:
    active = list(range(gb.n))
    if gb.uses_t:
        active.append(gb.n)
    return active


def standard_monomials(gb: GroebnerBasis) -> list[Monomial]:
    """Monomials outside the leading-term ideal, when finitely many.

    Raises NotZeroDimensionalError unless every ambient variable has a
    pure power among the leading monomials (always the case for t in
    equivariant ideals, hence the error there).
    """
    lts = gb.leading_monomials()
    if any(sum(m) == 0 for m in lts):
        return []  # unit ideal, zero ring
    active = _active_vars(gb)
    if not lts:
        raise NotZeroDimensionalError("not-zero-dimensional: the zero ideal")
    for v in active:
        if not any(m[v] and sum(m) == m[v] for m in lts):
            name = "t" if v == gb.n else f"x{v + 1}"
            raise NotZeroDimensionalError(
                f"not-zero-dimensional: no pure power of {name} among the leading terms"
            )
    width = gb.n + 1
    start = (0,) * width
    seen = {start}
    queue = [start]
    out: list[Monomial] = []
    while queue:
        m = queue.pop()
        out.append(m)
        for v in active:
            up = list(m)
            up[v] += 1
            cand = tuple(up)
            if cand in seen:
                continue
            seen.add(cand)
            if not any(_divides(lt, cand) for lt in lts):
                queue.append(cand)
    out.sort(key=gb.order.key)
    return out


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
    quotient_dimension: int | None

    @property
    def is_finite(self) -> bool:
        return self.denominator_power == 0

    def to_dict(self) -> dict:
        return {
            "series": list(self.series),
            "denominatorPower": self.denominator_power,
            "quotientDimension": (
                "infinite" if self.quotient_dimension is None else self.quotient_dimension
            ),
        }


def hilbert_series(gb: GroebnerBasis) -> HilbertData:
    """Hilbert series of ring/ideal from the leading-term ideal.

    Requires a homogeneous basis (true for every ideal built here).
    """
    for g in gb.basis:
        if not g.is_homogeneous():
            raise ValueError("Hilbert series needs homogeneous generators")
    lts = gb.leading_monomials()
    if any(sum(m) == 0 for m in lts):
        return HilbertData(series=(), denominator_power=0, quotient_dimension=0)
    active = _active_vars(gb)
    m = len(active)
    projected = [tuple(e[v] for v in active) for e in lts]
    numerator = _hilbert_numerator(_minimalize(projected), m)
    cancels = 0
    while cancels < m:
        quotient, ok = _divide_one_minus_q(numerator)
        if not ok:
            break
        numerator = quotient
        cancels += 1
    remaining = m - cancels
    coeffs = _trim(numerator)
    if remaining == 0:
        if any(c < 0 for c in coeffs):
            raise AssertionError(f"negative Hilbert coefficients {coeffs}; engine bug")
        return HilbertData(series=tuple(coeffs), denominator_power=0, quotient_dimension=sum(coeffs))
    return HilbertData(series=tuple(coeffs), denominator_power=remaining, quotient_dimension=None)


def _minimalize(gens: list[tuple]) -> list[tuple]:
    gens = sorted(set(gens), key=lambda g: (sum(g), g))
    out: list[tuple] = []
    for g in gens:
        if not any(_divides(kept, g) for kept in out):
            out.append(g)
    return out


def _hilbert_numerator(gens: list[tuple], m: int) -> list[int]:
    """Numerator K with Hilb(R/M) = K(q)/(1-q)^m for the monomial ideal M.

    Splits on a pivot variable occurring in the most mixed generators:
    K(M) = K(M + (x)) + q * K(M : x); pure-power ideals are the base
    case with K = prod (1 - q^a).
    """
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
    plus = _minimalize(gens + [unit])
    colon = _minimalize(
        [tuple(e - 1 if v == pivot and e else e for v, e in enumerate(g)) for g in gens]
    )
    left = _hilbert_numerator(plus, m)
    right = _hilbert_numerator(colon, m)
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


def _cache_key(n: int, order: MonomialOrder, gens: list[Polynomial]) -> str:
    payload = json.dumps(
        {
            "schemaVersion": CACHE_SCHEMA_VERSION,
            "n": n,
            "order": order.to_dict(),
            "generators": [poly_to_dict(g) for g in gens],
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:32]


def _cache_load(path: Path, n: int, order: MonomialOrder) -> GroebnerBasis | None:
    """The cached basis, or None (a miss) for a missing or unreadable entry,
    another schema version, or a basis polynomial from another ring.

    The basis itself is not re-certified here.
    """
    try:
        data = json.loads(path.read_text())
        if data["schemaVersion"] != CACHE_SCHEMA_VERSION:
            return None
        basis = tuple(poly_from_dict(d) for d in data["basis"])
        stats = GroebnerStats(**data["stats"])
    except (OSError, ValueError, KeyError, TypeError):
        return None
    if any(g.n != n for g in basis):
        return None
    return GroebnerBasis(n=n, order=order, basis=basis, stats=stats)


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
