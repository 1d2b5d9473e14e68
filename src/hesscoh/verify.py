"""Desk-checkable identities, each verified by an independent route.

Every check returns a CheckResult whose witness pinpoints the first
failure (indices, permutation, residue polynomial) so a red result is
actionable.  run_suite sweeps each check over every n, or every
Hessenberg function h of each n, up to the check's own top.  In process
the default suite's checks took 0.41-0.65 s (12 fresh interpreters on a
2-core Linux host, Python 3.11.7; the time swings with the host's load),
and in the median the localization sweep took ~79 %, the exactness sweep
~1.6 % (0.006-0.011 s) and the seven other checks ~20 % together.  Both
permutation sweeps read the generators' integer terms from one table,
converted once per process; exactness also reads each generator's zero
set over S_n there, computed once per process.  The Groebner-backed
checks compute every basis they compare on each run and read none from
disk, so their rows test the engine itself.
One ordered registry, _CHECKS, maps each check name to its runner, its
crash-row scope, its negative control and its sweep: what it sweeps, its
default top, the run_suite bound that replaces that top and its first n.
With _payloads and the scope helpers (_n_scope, _h_scope, ...) it is the
only place that decides a check's tasks, a payload's layout and a row's
scope.  run_suite refuses unknown or repeated names, an empty suite, a
bound below 1, a negative pair budget and a sweep past the permutation
cap before any check runs; a check that raises becomes a FAIL row with
an exception witness.  With jobs > 1 the tasks run in a process pool,
imported only then; a worker that dies raises WorkerCrashError.

negative_controls() re-runs each comparison on deliberately corrupted
input and passes only when the corruption is caught with a concrete
witness; a suite in which those mutations slip through silently is
broken even if everything else is green.
"""

from __future__ import annotations

import os
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from functools import partial, wraps
from itertools import combinations, islice
from math import factorial, prod
from typing import NamedTuple

from .errors import InvalidArgumentError, ResourceLimitError, WorkerCrashError, check_int
from .generators import (
    f_closed,
    f_inductive,
    f_ordinary,
    ideal_generators,
    linear_factor,
    p_sum,
    peterson_rewrite_factor,
    q_flag,
)
from .groebner import (
    DEFAULT_PAIR_BUDGET,
    basis_equality_witness,
    buchberger,
    hilbert_series,
    ideal_equality_witness,
    standard_monomials,
)
from .hessenberg import (
    DEFAULT_PERMUTATION_CAP,
    HessenbergFunction,
    enumerate_all,
    fixed_points,
    flag_function,
    permutation_ranks,
    peterson_function,
)
from .polyring import Polynomial, elementary_symmetric, poly_to_dict, power_sum, t_var

NOT_A_PERMUTATION = "not a permutation of 1..n"
SCHEMA_VERSION = 1  # of every JSON document the CLI writes


@dataclass
class CheckResult:
    """One report row; it passed when it carries no witness."""

    name: str
    scope: dict
    witness: dict | None = None
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return self.witness is None

    def to_dict(self, include_timing: bool = True) -> dict:
        out = {"name": self.name, "scope": self.scope, "passed": self.passed,
               "witness": self.witness}
        if include_timing:
            out["elapsedSeconds"] = round(self.elapsed, 6)
        return out


@dataclass
class VerificationReport:
    results: list[CheckResult]
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def counts(self) -> tuple[int, int]:
        good = sum(1 for r in self.results if r.passed)
        return good, len(self.results) - good

    def to_dict(self, include_timing: bool = True) -> dict:
        good, bad = self.counts()
        out = {
            "schemaVersion": SCHEMA_VERSION,
            "results": [r.to_dict(include_timing) for r in self.results],
            "summary": {"total": len(self.results), "passed": good, "failed": bad},
        }
        if include_timing:
            out["elapsedSeconds"] = round(self.elapsed, 6)
        return out

    def render_text(self, include_timing: bool = True) -> str:
        lines = []
        for r in self.results:
            scope = " ".join(f"{k}={_scope_text(v)}" for k, v in r.scope.items())
            mark = "PASS" if r.passed else "FAIL"
            timing = f" [{r.elapsed:.3f}s]" if include_timing else ""
            lines.append(f"{mark} {r.name}{' ' + scope if scope else ''}{timing}")
            if r.witness is not None:
                lines.append(f"     witness: {r.witness}")
        good, bad = self.counts()
        lines.append(f"{good} passed, {bad} failed out of {len(self.results)} checks")
        return "\n".join(lines)


def _scope_text(value) -> str:
    if isinstance(value, (list, tuple)):
        return "(" + ",".join(map(str, value)) + ")"
    return str(value)


def _check(name: str):
    """Turn a check body returning (scope, witness) into a timed runner
    returning the CheckResult called name; the witness is None on a pass."""

    def decorate(body):
        @wraps(body)
        def run(*args, **kwargs) -> CheckResult:
            start = time.perf_counter()
            scope, witness = body(*args, **kwargs)
            return CheckResult(name, scope, witness=witness, elapsed=time.perf_counter() - start)

        return run

    return decorate


def _n_scope(n: int) -> dict:
    return {"n": n}


def _h_scope(values) -> dict:
    return {"h": list(values), "n": len(values)}


def _example_n4_scope() -> dict:
    return {"n": 4, "entries": 10}


def _peterson_scope(n: int) -> dict:
    return {"n": n, "h": list(peterson_function(n).values)}


# -- the n = 4 worked example -------------------------------------------


def _example_table_n4() -> dict[tuple[int, int], Polynomial]:
    """The ten f_{i,j} for n = 4 in their factored display form."""
    n = 4
    p = {i: p_sum(i, n) for i in range(5)}

    def L(a: int, b: int) -> Polynomial:
        return linear_factor(a, b, n)  # x_a - x_b - t

    return {
        (1, 1): p[1],
        (2, 2): p[2],
        (3, 3): p[3],
        (4, 4): p[4],
        (2, 1): L(1, 2) * p[1],
        (3, 2): L(1, 2) * p[1] + L(2, 3) * p[2],
        (4, 3): L(1, 2) * p[1] + L(2, 3) * p[2] + L(3, 4) * p[3],
        (3, 1): L(1, 3) * L(1, 2) * p[1],
        (4, 2): L(1, 3) * L(1, 2) * p[1] + L(2, 4) * (L(1, 2) * p[1] + L(2, 3) * p[2]),
        (4, 1): L(1, 4) * L(1, 3) * L(1, 2) * p[1],
    }


def _first_difference(cells, left, right) -> dict | None:
    """The first (i, j) in cells with left(i, j) != right(i, j), as the
    witness {"i", "j", "difference": left - right}, or None."""
    for i, j in cells:
        a, b = left(i, j), right(i, j)
        if a != b:
            return {"i": i, "j": j, "difference": poly_to_dict(a - b)}
    return None


def _triangle(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, n + 1) for j in range(1, i + 1)]


def _compare_table(expected: dict[tuple[int, int], Polynomial]) -> dict | None:
    return _first_difference(sorted(expected), lambda i, j: f_inductive(i, j, 4),
                             lambda i, j: expected[i, j])


@_check("example-n4")
def check_example_n4():
    """All ten n = 4 recursion values against their factored displays."""
    return _example_n4_scope(), _compare_table(_example_table_n4())


# -- symbolic sweeps -----------------------------------------------------


@_check("closed-form")
def check_closed_form_at(n: int):
    """f_inductive == f_closed for every 1 <= j <= i <= n."""
    check_int(n, "n", 1)
    return _n_scope(n), _first_difference(_triangle(n), lambda i, j: f_inductive(i, j, n),
                                          lambda i, j: f_closed(i, j, n))


@_check("t-zero")
def check_t_zero_at(n: int):
    """substitute(f_inductive, t -> 0) == f_ordinary for every (i, j)."""
    check_int(n, "n", 1)
    return _n_scope(n), _first_difference(
        _triangle(n), lambda i, j: f_inductive(i, j, n).substitute(t=0),
        lambda i, j: f_ordinary(i, j, n))


_INTEGER_TERMS: dict[int, list] = {}


def _integer_entries(generators) -> list[list]:
    """Each generator's _INTEGER_TERMS entry [g, (weight d, [(c, x
    indices), ...]), zero set or None]: one term per pair, with each
    0-based x index repeated as often as its exponent.  Bytes, not tuples:
    freed small tuples stay on CPython's free lists, which raised the peak
    RSS of a sweep by ~0.4 MB.

    A homogeneous generator g of weight d maps under x_k -> w(k) t to
    g(w(1), ..., w(n), 1) t^d, so with integer coefficients its image is
    integer arithmetic on these term lists.  Any other generator is
    refused with InvalidArgumentError, on every call.

    Each entry is kept for the life of the process in _INTEGER_TERMS,
    filled on first use and keyed on id(g) with g itself held in the
    entry, so the id cannot pass to another polynomial: a fresh or altered
    polynomial is converted afresh, never given another one's terms or
    zero set.  The entries are shared; callers only read them, except
    _zero_sets, which fills the zero set on first use.  ideal_generators
    returns the memoized f_{i,j}, so the checks add at most one entry per
    f_{i,j} with n at most the largest n swept: n(n+1)(n+2)/6 in all, 56
    for n <= 6 and 84 for n <= 7.  Any other caller adds one entry per new
    polynomial.
    """
    out = []
    for g in generators:
        entry = _INTEGER_TERMS.get(id(g))
        if entry is None:
            if not g.is_homogeneous():
                raise InvalidArgumentError(f"generator {g} is not homogeneous")
            terms = []
            for exps, c in g.terms.items():
                if c.denominator != 1:
                    raise InvalidArgumentError(f"generator {g} has the non-integer coefficient {c}")
                terms.append((c.numerator, bytes(i for i, e in enumerate(exps[:-1]) for _ in range(e))))
            entry = _INTEGER_TERMS[id(g)] = [g, (g.total_degree(), terms), None]
        out.append(entry)
    return out


def _integer_generators(generators) -> list[tuple[int, list[tuple[int, bytes]]]]:
    """Each generator as (weight d, [(c, x indices), ...]), read from its
    _INTEGER_TERMS entry."""
    return [entry[1] for entry in _integer_entries(generators)]


def _zero_sets(generators) -> list[int]:
    """Each generator's zero set over S_n, n its number of x variables: an
    int whose bit k is set when _surviving finds that the generator
    vanishes at the k-th permutation in lexicographic order
    (permutation_ranks).  Computed once per generator, on first use, and
    kept in its _INTEGER_TERMS entry: the 84 f_{i,j} with n <= 7 hold
    21 KB of zero sets."""
    out = []
    for entry in _integer_entries(generators):
        if entry[2] is None:
            single = [entry[1]]
            ranks = permutation_ranks(entry[0].n)
            entry[2] = _mask((w for w in ranks if _surviving(w, single) is None), ranks)
        out.append(entry[2])
    return out


def _mask(points, ranks) -> int:
    """The bitmask over S_n with bit ranks[w] set for each w in points, built
    from one bit string (an int built bit by bit is copied each time, which
    is quadratic in n!); a point that is not a key of ranks raises KeyError."""
    bits = bytearray(b"0" * len(ranks))
    for w in points:
        bits[~ranks[w]] = ord("1")  # bit k is the k-th digit from the right
    return int(bits, 2)


def _stray_witness(points, ranks) -> dict | None:
    """{"w", "problem"} for the first of points that is not a permutation of
    1..n (a key of ranks) or repeats an earlier one; None when there is none."""
    seen = set()
    for w in points:
        if w in seen or w not in ranks:
            return {"w": list(w), "problem": "repeated point" if w in seen else NOT_A_PERMUTATION}
        seen.add(w)
    return None


def _surviving(w, integer_generators) -> tuple[int, int, int] | None:
    """(j, weight, value) for the first of the _integer_generators that
    x_k -> w(k) t does not kill, its image being value * t^weight; None when
    every one vanishes at w.  Integer arithmetic only: it builds no
    Polynomial or dict, so a sweep that only decides pays for none."""
    for j, (weight, terms) in enumerate(integer_generators, start=1):
        value = 0
        for coef, indices in terms:
            for i in indices:
                coef *= w[i]
            value += coef
        if value:
            return j, weight, value
    return None


def _vanishing_witness(h: HessenbergFunction, w, integer_generators) -> dict | None:
    """The report form of _surviving: {"w", "j", "residue"} with the
    residue as a polynomial in t, or None when every generator vanishes at w."""
    survivor = _surviving(w, integer_generators)
    if survivor is None:
        return None
    j, weight, value = survivor
    return {"w": list(w), "j": j, "residue": poly_to_dict(value * t_var(h.n) ** weight)}


def _localization_witness(h: HessenbergFunction, points) -> dict | None:
    """None when the points number prod_j (h(j) - j + 1), are distinct
    permutations of 1..n and kill every generator of I(h); else the witness
    of the first of these three parts, in that order, that fails."""
    expected = sum(poincare_product(h))
    if len(points) != expected:
        return {"part": "fixed-point-count", "expected": expected, "count": len(points)}
    stray = _stray_witness(points, permutation_ranks(h.n))
    if stray is not None:
        return stray
    gens = _integer_generators(ideal_generators(h, "equivariant").generators)
    for w in points:
        witness = _vanishing_witness(h, w, gens)
        if witness is not None:
            return witness
    return None


def _permutation_row(h: HessenbergFunction, witness_of) -> tuple[dict, dict | None]:
    """A permutation check's row: witness_of(h, fixed_points(h)); fixedPoints on a pass."""
    points = fixed_points(h)
    scope = _h_scope(h.values)
    witness = witness_of(h, points)
    if witness is None:
        scope["fixedPoints"] = len(points)
    return scope, witness


@_check("localization")
def check_localization_vanishing(h: HessenbergFunction):
    """Every generator of I(h) dies at every S^1-fixed point of Hess(h), and
    there are prod_j (h(j) - j + 1) of them: the Euler characteristic,
    by Tymoczko's affine paving, i.e. the Poincare polynomial at q = 1.
    After the count, a stray or repeated point (_stray_witness) fails."""
    return _permutation_row(h, _localization_witness)


def _exactness_witness(h: HessenbergFunction, points,
                       survives: str = "fixed point with a surviving generator") -> dict | None:
    """None when the permutations that kill all generators of I(h) are
    exactly points.  Else the witness at the lowest set bit of the XOR of
    two bitmasks over S_n, the AND of the generators' zero sets and the
    _mask of points: the permutation a lexicographic scan of S_n stops at.
    A stray or repeated point (_stray_witness) fails before any comparison;
    a point with a surviving generator gets the problem text survives."""
    ranks = permutation_ranks(h.n)
    stray = _stray_witness(points, ranks)
    if stray is not None:
        return stray
    generators = ideal_generators(h, "equivariant").generators
    vanishing = (1 << len(ranks)) - 1
    for zeros in _zero_sets(generators):
        vanishing &= zeros
    disagree = vanishing ^ _mask(points, ranks)
    if not disagree:
        return None
    k = (disagree & -disagree).bit_length() - 1
    w = next(islice(ranks, k, None))
    if vanishing >> k & 1:
        return {"w": list(w), "problem": "vanishes but not a fixed point"}
    return {**_vanishing_witness(h, w, _integer_generators(generators)), "problem": survives}


@_check("fixed-point-exactness")
def check_fixed_point_exactness(h: HessenbergFunction):
    """w kills all generators of I(h)  <=>  w is a fixed point of Hess(h).
    A sweep to n <= 7 leaves 1.9 MB held (tracemalloc): the table of S_n
    (1.1 MB, shared with fixed_points), the 84 zero sets (21 KB), and the
    generators and integer terms it shares with the localization sweep."""
    return _permutation_row(h, _exactness_witness)


# -- Groebner-backed checks ----------------------------------------------


def _peterson_presentation(n: int) -> list[Polynomial]:
    gens = [peterson_rewrite_factor(j, n) * p_sum(j, n) for j in range(1, n)]
    gens.append(p_sum(n, n))
    return gens


@_check("peterson")
def check_peterson(n: int, pair_budget: int = DEFAULT_PAIR_BUDGET):
    """Peterson case h = (2,3,...,n,n): the p-coefficient rewriting.

    Termwise: x_j - x_{j+1} - t = -p_{j-1} + 2p_j - p_{j+1} - 2t and the
    induced step f_{j+1,j} = f_{j,j-1} + (that factor) p_j; then ideal
    equality of I(h) with ((-p_{j-1}+2p_j-p_{j+1}-2t) p_j, ..., p_n).
    """
    check_int(n, "n", 2)
    scope = _peterson_scope(n)
    for j in range(1, n):
        factor = peterson_rewrite_factor(j, n)
        direct = linear_factor(j, j + 1, n)
        if factor != direct:
            return scope, {"part": "factor-identity", "j": j,
                           "difference": poly_to_dict(factor - direct)}
        step = f_inductive(j, j - 1, n) + factor * p_sum(j, n)
        if f_inductive(j + 1, j, n) != step:
            return scope, {"part": "recursion-step", "j": j,
                           "difference": poly_to_dict(f_inductive(j + 1, j, n) - step)}
    gens = ideal_generators(peterson_function(n), "equivariant").generators
    witness = ideal_equality_witness(list(gens), _peterson_presentation(n),
                                     pair_budget=pair_budget)
    if witness is not None:
        witness["part"] = "ideal-equality"
    return scope, witness


def _scaled_borel_generators(n: int) -> list[Polynomial]:
    """e_i(x) - e_i(t, 2t, ..., nt) for i = 1..n."""
    t = t_var(n)
    out = []
    for i in range(1, n + 1):
        value = sum(prod(combo) for combo in combinations(range(1, n + 1), i))
        out.append(elementary_symmetric(i, range(1, n + 1), n) - value * t ** i)
    return out


@_check("flag-borel")
def check_flag_borel(n: int, groebner_cap: int = 4, pair_budget: int = DEFAULT_PAIR_BUDGET):
    """Flag case h = (n,...,n): q_r identities, Borel presentation, dim n!.

    The termwise parts always run; the Groebner-backed parts run when n
    is within groebner_cap (run_suite's groebner_n_max when set), the
    equivariant one also within 3 (anything larger is out of desk scale).
    """
    check_int(n, "n", 1)
    scope = _n_scope(n)
    for r in range(1, n + 1):
        q = q_flag(r, n)
        direct = f_ordinary(n, n + 1 - r, n)
        if q != direct:
            return scope, {"part": "q-equals-f", "r": r, "difference": poly_to_dict(q - direct)}
        tail = range(n + 2 - r, n + 1)
        newton = sum(
            ((-1) ** i) * elementary_symmetric(i, tail, n) * power_sum(r - i, n)
            for i in range(r)
        )
        if q != newton:
            return scope, {"part": "newton-expansion", "r": r,
                           "difference": poly_to_dict(q - newton)}
    parts = ["q-equals-f", "newton-expansion"]
    if n <= groebner_cap:
        flag = flag_function(n)
        ordinary = list(ideal_generators(flag, "ordinary").generators)
        borel = [elementary_symmetric(i, range(1, n + 1), n) for i in range(1, n + 1)]
        gb = buchberger(ordinary, pair_budget=pair_budget)
        gb_borel = buchberger(borel, pair_budget=pair_budget)
        witness = basis_equality_witness(ordinary, gb, borel, gb_borel)
        if witness is not None:
            witness["part"] = "borel-equality"
            return scope, witness
        dim = hilbert_series(gb).quotient_dimension
        std = len(standard_monomials(gb))
        if dim != factorial(n) or std != factorial(n):
            return scope, {"part": "dimension", "expected": factorial(n),
                           "dimension": dim, "standardMonomials": std}
        parts += ["borel-equality", "dimension"]
        scope["dimension"] = dim
    if n <= min(3, groebner_cap):
        equivariant = list(ideal_generators(flag_function(n), "equivariant").generators)
        witness = ideal_equality_witness(equivariant, _scaled_borel_generators(n),
                                         pair_budget=pair_budget)
        if witness is not None:
            witness["part"] = "equivariant-borel-equality"
            return scope, witness
        parts.append("equivariant-borel-equality")
    scope["parts"] = parts
    return scope, None


def poincare_product(h: HessenbergFunction) -> list[int]:
    """prod_j (1 + q + ... + q^(h(j)-j)), the predicted graded dimensions."""
    out = [1]
    for j in range(1, h.n + 1):
        width = h(j) - j + 1
        nxt = [0] * (len(out) + width - 1)
        for a, c in enumerate(out):
            for b in range(width):
                nxt[a + b] += c
        out = nxt
    return out


@_check("hilbert")
def check_hilbert(h: HessenbergFunction, pair_budget: int = DEFAULT_PAIR_BUDGET):
    """Hilbert series of both presentations of Hess(h) against the product
    formula; the fixed-point count is reported but never asserted.  The
    ordinary half holds exactly when the ordinary quotient is finite, that
    is, when f_1, ..., f_n form a regular sequence (Stanley, Adv. Math.
    1978).  Given t-zero, the equivariant half follows from the ordinary
    one, so it is an independent cross-check of the Groebner engine."""
    scope = _h_scope(h.values)
    expected = poincare_product(h)
    expected_dim = sum(expected)

    ordinary = ideal_generators(h, "ordinary").generators
    gb = buchberger(ordinary, pair_budget=pair_budget)
    data = hilbert_series(gb)
    if list(data.series) != expected or data.quotient_dimension != expected_dim:
        return scope, {"part": "ordinary-series", "expected": expected,
                       "series": list(data.series), "expectedDimension": expected_dim,
                       "dimension": data.quotient_dimension}
    std = len(standard_monomials(gb))
    if std != expected_dim:
        return scope, {"part": "standard-monomials", "expected": expected_dim, "count": std}

    equivariant = ideal_generators(h, "equivariant").generators
    gb_eq = buchberger(equivariant, pair_budget=pair_budget)
    data_eq = hilbert_series(gb_eq)
    if data_eq.denominator_power != 1 or list(data_eq.series) != expected:
        return scope, {"part": "equivariant-series", "expected": expected,
                       "series": list(data_eq.series),
                       "denominatorPower": data_eq.denominator_power}
    scope.update({
        "dimension": expected_dim,
        "fixedPointCount": len(fixed_points(h)),  # reported, not asserted
    })
    return scope, None


# -- negative controls ----------------------------------------------------


def _control_example_n4():
    table = _example_table_n4()
    table[(2, 1)] = -table[(2, 1)]  # flipped sign must be caught
    return _compare_table(table)


def _control_closed_form():
    n = 4
    return _first_difference([(3, 2)], lambda i, j: f_inductive(i, j, n),
                             lambda i, j: _ladder_missing_first_column(i, j, n))


def _ladder_missing_first_column(i, j, n):
    from .generators import delta

    acc = Polynomial(n)
    for k in range(2, j + 1):
        acc = acc + delta(i - j + k, k, n)
    return acc


def _control_t_zero():
    n = 2
    # t -> 1 is not the t -> 0 map
    return _first_difference([(2, 1)], lambda i, j: f_inductive(i, j, n).substitute(t=1),
                             lambda i, j: f_ordinary(i, j, n))


def _control_localization():
    h = HessenbergFunction((2, 3, 3))
    # 231 is not a fixed point; in place of 321 it keeps the count
    return _localization_witness(h, [(2, 3, 1) if w == (3, 2, 1) else w for w in fixed_points(h)])


def _control_exactness():
    h = HessenbergFunction((2, 3, 3))
    return _exactness_witness(h, [*fixed_points(h), (2, 3, 1)],  # 231 is not a fixed point
                              survives="claimed fixed point with surviving generator")


def _control_peterson():
    n = 3
    t = t_var(n)
    wrong = [
        (peterson_rewrite_factor(j, n) - t) * p_sum(j, n)  # -2t becomes -3t
        for j in range(1, n)
    ]
    wrong.append(p_sum(n, n))
    gens = list(ideal_generators(peterson_function(n), "equivariant").generators)
    return ideal_equality_witness(gens, wrong)


def _control_flag_borel():
    n = 3
    ordinary = list(ideal_generators(flag_function(n), "ordinary").generators)
    missing = [elementary_symmetric(i, range(1, n + 1), n) for i in range(1, n)]
    return ideal_equality_witness(ordinary, missing)


def _control_hilbert():
    h = HessenbergFunction((2, 3, 3))
    gb = buchberger(list(ideal_generators(h, "ordinary").generators))
    series = list(hilbert_series(gb).series)
    wrong = [1, 2, 2]  # true series is 1 + 2q + q^2
    if series == wrong:
        return None
    return {"expected": wrong, "series": series}


def negative_controls() -> list[CheckResult]:
    """Corrupt each comparison and demand a failure with a witness."""
    out = []
    for target, check in _CHECKS.items():
        if check.control is None:
            continue
        start = time.perf_counter()
        caught = check.control()
        out.append(CheckResult(
            f"negative:{target}",
            {"mutation": "caught" if caught else "NOT caught", "witness": caught},
            witness=None if caught is not None else {"problem": "mutation slipped through"},
            elapsed=time.perf_counter() - start,
        ))
    return out


# -- suite driver ----------------------------------------------------------


class _Check(NamedTuple):
    run: Callable[..., list[CheckResult]]  # (options, *payload) -> its results
    scope: Callable[..., dict]  # one task's payload -> the scope of its crash row
    control: Callable[[], dict | None] | None  # a mutation it must catch
    sweeps: str | None = None  # "n", "h" (every h of each n) or None: one task
    top: int = 0  # the last n swept by default
    bound: str = ""  # the run_suite bound that replaces top when set
    start: int = 1  # the first n swept


def _payloads(name: str, check: _Check, bounds: dict) -> list[tuple]:
    """The payloads of check's tasks: () for one task, else (n,), or
    (h.values,) for each h of that n, for n from check.start to its top.
    An h sweep past the permutation cap, which fixed_points would hit only
    once the sweep reaches it, is refused up front."""
    if check.sweeps is None:
        return [()]
    top = bounds[check.bound] or check.top  # a set bound is at least 1
    if check.sweeps == "n":
        return [(n,) for n in range(check.start, top + 1)]
    if top > DEFAULT_PERMUTATION_CAP:
        raise ResourceLimitError(f"the {name} sweep to n = {top} exceeds the cap "
                                 f"{DEFAULT_PERMUTATION_CAP}")
    return [(h.values,) for n in range(check.start, top + 1) for h in enumerate_all(n)]


# Runners name the check_* functions inside a lambda, so they are looked
# up at call time: rebinding the module attribute (a tracer, a test) reaches
# every task.  Their options o hold the pair budget and, when groebner_n_max
# is set, the groebner_cap that bounds check_flag_borel's Groebner parts.
_CHECKS = {
    "example-n4": _Check(lambda o: [check_example_n4()], _example_n4_scope, _control_example_n4),
    "closed-form": _Check(lambda o, n: [check_closed_form_at(n)], _n_scope, _control_closed_form,
                          sweeps="n", top=6, bound="n_max"),
    "t-zero": _Check(lambda o, n: [check_t_zero_at(n)], _n_scope, _control_t_zero,
                     sweeps="n", top=6, bound="n_max"),
    "localization": _Check(
        lambda o, values: [check_localization_vanishing(HessenbergFunction(values))],
        _h_scope, _control_localization, sweeps="h", top=6, bound="n_max"),
    "fixed-point-exactness": _Check(
        lambda o, values: [check_fixed_point_exactness(HessenbergFunction(values))],
        _h_scope, _control_exactness, sweeps="h", top=5, bound="n_max"),
    "peterson": _Check(
        lambda o, n: [check_peterson(n, pair_budget=o["pair_budget"])],
        _peterson_scope, _control_peterson, sweeps="n", top=4, bound="groebner_n_max", start=2),
    "flag-borel": _Check(lambda o, n: [check_flag_borel(n, **o)], _n_scope, _control_flag_borel,
                         sweeps="n", top=6, bound="n_max"),
    # each row reports a fixed-point count, so the sweep stops at the permutation cap
    "hilbert": _Check(
        lambda o, values: [check_hilbert(HessenbergFunction(values), pair_budget=o["pair_budget"])],
        _h_scope, _control_hilbert, sweeps="h", top=4, bound="groebner_n_max"),
    "negative-controls": _Check(lambda o: negative_controls(), dict, None),
}

CHECK_NAMES = tuple(_CHECKS)


def _execute_task(options: dict, task: tuple) -> list[CheckResult]:
    """Run one (name, payload) task with the runners' options.  A crash becomes
    one FAIL row whose witness names the exception; a resource cap (exit 2)
    and an OSError (exit 74) propagate, so the run ends with no report."""
    name, payload = task
    check = _CHECKS[name]
    try:
        return check.run(options, *payload)
    except (ResourceLimitError, OSError):
        raise
    except Exception as exc:
        return [CheckResult(name, check.scope(*payload),
                            witness={"exception": type(exc).__name__, "message": str(exc)})]


def run_suite(
    names="all",
    n_max: int | None = None,
    groebner_n_max: int | None = None,
    jobs: int = 1,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
) -> VerificationReport:
    """Run the named checks (or all of them) and collect a report.

    names that are neither "all" nor an iterable of str (checked
    first), unknown or repeated names, an empty list, an n_max,
    groebner_n_max or jobs below 1, a negative pair_budget and a
    selected check whose sweep has no task (peterson starts at n = 2)
    are refused with InvalidArgumentError, and a sweep past a cap with
    ResourceLimitError, before any check runs.
    With jobs > 1 the pool starts min(jobs, tasks, CPUs) workers.
    Results come back in a deterministic order regardless of jobs; only
    the elapsed fields vary between runs.
    """
    selected = list(CHECK_NAMES) if names == "all" else None
    if isinstance(names, Iterable) and not isinstance(names, (str, bytes)):
        selected = list(names)
    if selected is None or not all(isinstance(name, str) for name in selected):
        raise InvalidArgumentError(f"names must be 'all' or a list of check names, got {names!r}")
    unknown = [name for name in selected if name not in _CHECKS]
    if unknown:
        raise InvalidArgumentError(
            f"unknown check(s): {', '.join(unknown)}; known: {', '.join(CHECK_NAMES)}")
    repeated = [name for name in dict.fromkeys(selected) if selected.count(name) > 1]
    if repeated:
        raise InvalidArgumentError(f"repeated check(s): {', '.join(repeated)}")
    if not selected:
        raise InvalidArgumentError("empty suite: name at least one check")
    bounds = {"n_max": n_max, "groebner_n_max": groebner_n_max}
    for option, value in bounds.items():
        if value is not None:
            check_int(value, option, 1)
    check_int(jobs, "jobs", 1)
    check_int(pair_budget, "pair_budget", 0)
    options = {"pair_budget": pair_budget}
    if groebner_n_max is not None:
        options["groebner_cap"] = groebner_n_max
    tasks = []
    for name in selected:
        payloads = _payloads(name, _CHECKS[name], bounds)
        if not payloads:
            raise InvalidArgumentError(f"empty sweep: {name} has no task within these bounds")
        tasks += [(name, payload) for payload in payloads]
    start = time.perf_counter()
    results: list[CheckResult] = []
    if jobs > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        try:
            workers = min(jobs, len(tasks), os.cpu_count() or 1)
            with ProcessPoolExecutor(max_workers=workers) as pool:
                for batch in pool.map(partial(_execute_task, options), tasks):
                    results.extend(batch)
        except BrokenProcessPool as exc:
            raise WorkerCrashError(str(exc)) from exc
    else:
        for task in tasks:
            results.extend(_execute_task(options, task))
    return VerificationReport(results=results, elapsed=time.perf_counter() - start)
