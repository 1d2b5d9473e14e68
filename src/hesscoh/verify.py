"""Desk-checkable identities, each verified by an independent route.

Every check returns a CheckResult whose witness pinpoints the first
failure (indices, permutation, residue polynomial) so a red result is
actionable.  run_suite sweeps the checks over all Hessenberg functions
up to per-check caps: purely symbolic comparisons default to n <= 6
(exactness to n <= 5, its exhaustive S_n scan being the expensive one)
and Groebner-backed comparisons to n <= 4.  One ordered registry, _CHECKS,
maps each check name to its task expander, its runner and its negative
control; a check that raises becomes a FAIL row with an exception witness.
With jobs > 1 the tasks run in a process pool, imported only then; a
worker that dies raises WorkerCrashError.

negative_controls() re-runs each comparison on deliberately corrupted
input and passes only when the corruption is caught with a concrete
witness; a suite in which those mutations slip through silently is
broken even if everything else is green.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass
from functools import wraps
from itertools import combinations, permutations
from math import factorial, prod
from typing import NamedTuple

from .errors import ResourceLimitError, WorkerCrashError
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
    peterson_function,
)
from .polyring import Polynomial, elementary_symmetric, poly_to_dict, power_sum, t_var

SYMBOLIC_CAP = 6
EXACTNESS_CAP = 5
GROEBNER_CAP = 4
EQUIVARIANT_FLAG_CAP = 3


@dataclass
class CheckResult:
    name: str
    scope: dict
    passed: bool
    witness: dict | None = None
    elapsed: float = 0.0

    def __post_init__(self):
        if not self.passed and self.witness is None:
            raise ValueError(f"failed check {self.name} must carry a witness")

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
            "schemaVersion": 1,
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


def _timed(fn):
    @wraps(fn)
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        result.elapsed = time.perf_counter() - start
        return result

    return wrapper


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


@_timed
def check_example_n4() -> CheckResult:
    """All ten n = 4 recursion values against their factored displays."""
    witness = _compare_table(_example_table_n4())
    return CheckResult(
        name="example-n4", scope={"n": 4, "entries": 10}, passed=witness is None,
        witness=witness,
    )


# -- symbolic sweeps -----------------------------------------------------


@_timed
def check_closed_form_at(n: int) -> CheckResult:
    """f_inductive == f_closed for every 1 <= j <= i <= n."""
    witness = _first_difference(_triangle(n), lambda i, j: f_inductive(i, j, n),
                                lambda i, j: f_closed(i, j, n))
    return CheckResult(name="closed-form", scope={"n": n}, passed=witness is None,
                       witness=witness)


def check_closed_form(n_max: int) -> list[CheckResult]:
    return [check_closed_form_at(n) for n in range(1, n_max + 1)]


@_timed
def check_t_zero_at(n: int) -> CheckResult:
    """substitute(f_inductive, t -> 0) == f_ordinary for every (i, j)."""
    witness = _first_difference(_triangle(n), lambda i, j: f_inductive(i, j, n).substitute(t=0),
                                lambda i, j: f_ordinary(i, j, n))
    return CheckResult(name="t-zero", scope={"n": n}, passed=witness is None, witness=witness)


def check_t_zero(n_max: int) -> list[CheckResult]:
    return [check_t_zero_at(n) for n in range(1, n_max + 1)]


def _integer_generators(generators) -> list[tuple[int, list[tuple[int, bytes]]]]:
    """Each generator as (weight d, [(c, x indices), ...]), one term per
    entry, with each 0-based x index repeated as often as its exponent.
    Bytes, not tuples: freed small tuples stay on CPython's free lists,
    which raised the peak RSS of a sweep by ~0.4 MB.

    A homogeneous generator g of weight d maps under x_k -> w(k) t to
    g(w(1), ..., w(n), 1) t^d, so with integer coefficients its image is
    integer arithmetic on these term lists.  Any other generator is
    refused with ValueError.
    """
    out = []
    for g in generators:
        if not g.is_homogeneous():
            raise ValueError(f"generator {g} is not homogeneous")
        terms = []
        for exps, c in g.terms.items():
            if c.denominator != 1:
                raise ValueError(f"generator {g} has the non-integer coefficient {c}")
            terms.append((c.numerator, bytes(i for i, e in enumerate(exps[:-1]) for _ in range(e))))
        out.append((g.total_degree(), terms))
    return out


def _vanishing_witness(h: HessenbergFunction, w, integer_generators) -> dict | None:
    """First of the _integer_generators not killed by x_k -> w(k) t, or None."""
    for j, (weight, terms) in enumerate(integer_generators, start=1):
        c = 0
        for coef, indices in terms:
            for i in indices:
                coef *= w[i]
            c += coef
        if c:
            return {"w": list(w), "j": j, "residue": poly_to_dict(c * t_var(h.n) ** weight)}
    return None


@_timed
def check_localization_vanishing(h: HessenbergFunction) -> CheckResult:
    """Every generator of I(h) dies at every S^1-fixed point of Hess(h), and
    there are prod_j (h(j) - j + 1) of them: the Euler characteristic,
    by Tymoczko's affine paving, i.e. the Poincare polynomial at q = 1."""
    gens = _integer_generators(ideal_generators(h, "equivariant").generators)
    points = fixed_points(h)
    scope = {"h": list(h.values), "n": h.n}
    expected = sum(poincare_product(h))
    if len(points) != expected:
        return CheckResult(
            name="localization", scope=scope, passed=False,
            witness={"part": "fixed-point-count", "expected": expected, "count": len(points)},
        )
    for w in points:
        witness = _vanishing_witness(h, w, gens)
        if witness is not None:
            return CheckResult(name="localization", scope=scope, passed=False, witness=witness)
    scope["fixedPoints"] = len(points)
    return CheckResult(name="localization", scope=scope, passed=True)


@_timed
def check_fixed_point_exactness(h: HessenbergFunction) -> CheckResult:
    """w kills all generators of I(h)  <=>  w is a fixed point of Hess(h)."""
    gens = _integer_generators(ideal_generators(h, "equivariant").generators)
    fixed = set(fixed_points(h))
    n = h.n
    for w in permutations(range(1, n + 1)):
        witness = _vanishing_witness(h, w, gens)
        vanishes = witness is None
        member = w in fixed
        if vanishes and not member:
            return CheckResult(
                name="fixed-point-exactness", scope={"h": list(h.values), "n": n},
                passed=False,
                witness={"w": list(w), "problem": "vanishes but not a fixed point"},
            )
        if member and not vanishes:
            witness["problem"] = "fixed point with a surviving generator"
            return CheckResult(
                name="fixed-point-exactness", scope={"h": list(h.values), "n": n},
                passed=False, witness=witness,
            )
    return CheckResult(
        name="fixed-point-exactness",
        scope={"h": list(h.values), "n": n, "fixedPoints": len(fixed)}, passed=True,
    )


# -- Groebner-backed checks ----------------------------------------------


def _peterson_presentation(n: int) -> list[Polynomial]:
    gens = [peterson_rewrite_factor(j, n) * p_sum(j, n) for j in range(1, n)]
    gens.append(p_sum(n, n))
    return gens


@_timed
def check_peterson(n: int, pair_budget: int = DEFAULT_PAIR_BUDGET,
                   cache_dir=None) -> CheckResult:
    """Peterson case h = (2,3,...,n,n): the p-coefficient rewriting.

    Termwise: x_j - x_{j+1} - t = -p_{j-1} + 2p_j - p_{j+1} - 2t and the
    induced step f_{j+1,j} = f_{j,j-1} + (that factor) p_j; then ideal
    equality of I(h) with ((-p_{j-1}+2p_j-p_{j+1}-2t) p_j, ..., p_n).
    """
    if n < 2:
        raise ValueError("the Peterson case needs n >= 2")
    scope = {"n": n, "h": list(peterson_function(n).values)}
    for j in range(1, n):
        factor = peterson_rewrite_factor(j, n)
        direct = linear_factor(j, j + 1, n)
        if factor != direct:
            return CheckResult(
                name="peterson", scope=scope, passed=False,
                witness={"part": "factor-identity", "j": j,
                         "difference": poly_to_dict(factor - direct)},
            )
        step = f_inductive(j, j - 1, n) + factor * p_sum(j, n)
        if f_inductive(j + 1, j, n) != step:
            return CheckResult(
                name="peterson", scope=scope, passed=False,
                witness={"part": "recursion-step", "j": j,
                         "difference": poly_to_dict(f_inductive(j + 1, j, n) - step)},
            )
    gens = ideal_generators(peterson_function(n), "equivariant").generators
    witness = ideal_equality_witness(list(gens), _peterson_presentation(n),
                                     pair_budget=pair_budget, cache_dir=cache_dir)
    if witness is not None:
        witness["part"] = "ideal-equality"
        return CheckResult(name="peterson", scope=scope, passed=False, witness=witness)
    return CheckResult(name="peterson", scope=scope, passed=True)


def _scaled_borel_generators(n: int) -> list[Polynomial]:
    """e_i(x) - e_i(t, 2t, ..., nt) for i = 1..n."""
    t = t_var(n)
    out = []
    for i in range(1, n + 1):
        value = sum(prod(combo) for combo in combinations(range(1, n + 1), i))
        out.append(elementary_symmetric(i, range(1, n + 1), n) - value * t ** i)
    return out


@_timed
def check_flag_borel(
    n: int,
    groebner_cap: int = GROEBNER_CAP,
    equivariant_cap: int = EQUIVARIANT_FLAG_CAP,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
    cache_dir=None,
) -> CheckResult:
    """Flag case h = (n,...,n): q_r identities, Borel presentation, dim n!.

    The termwise parts always run; the Groebner-backed parts run when n
    is within their caps (anything larger is out of desk scale).
    """
    scope: dict = {"n": n}
    for r in range(1, n + 1):
        q = q_flag(r, n)
        direct = f_ordinary(n, n + 1 - r, n)
        if q != direct:
            return CheckResult(
                name="flag-borel", scope=scope, passed=False,
                witness={"part": "q-equals-f", "r": r,
                         "difference": poly_to_dict(q - direct)},
            )
        tail = range(n + 2 - r, n + 1)
        newton = sum(
            ((-1) ** i) * elementary_symmetric(i, tail, n) * power_sum(r - i, n)
            for i in range(r)
        )
        if q != newton:
            return CheckResult(
                name="flag-borel", scope=scope, passed=False,
                witness={"part": "newton-expansion", "r": r,
                         "difference": poly_to_dict(q - newton)},
            )
    parts = ["q-equals-f", "newton-expansion"]
    if n <= groebner_cap:
        flag = flag_function(n)
        ordinary = list(ideal_generators(flag, "ordinary").generators)
        borel = [elementary_symmetric(i, range(1, n + 1), n) for i in range(1, n + 1)]
        gb = buchberger(ordinary, pair_budget=pair_budget, cache_dir=cache_dir)
        gb_borel = buchberger(borel, pair_budget=pair_budget, cache_dir=cache_dir)
        witness = basis_equality_witness(ordinary, gb, borel, gb_borel)
        if witness is not None:
            witness["part"] = "borel-equality"
            return CheckResult(name="flag-borel", scope=scope, passed=False, witness=witness)
        dim = hilbert_series(gb).quotient_dimension
        std = len(standard_monomials(gb))
        if dim != factorial(n) or std != factorial(n):
            return CheckResult(
                name="flag-borel", scope=scope, passed=False,
                witness={"part": "dimension", "expected": factorial(n),
                         "dimension": dim, "standardMonomials": std},
            )
        parts += ["borel-equality", "dimension"]
        scope["dimension"] = dim
    if n <= equivariant_cap:
        equivariant = list(ideal_generators(flag_function(n), "equivariant").generators)
        witness = ideal_equality_witness(equivariant, _scaled_borel_generators(n),
                                         pair_budget=pair_budget, cache_dir=cache_dir)
        if witness is not None:
            witness["part"] = "equivariant-borel-equality"
            return CheckResult(name="flag-borel", scope=scope, passed=False, witness=witness)
        parts.append("equivariant-borel-equality")
    scope["parts"] = parts
    return CheckResult(name="flag-borel", scope=scope, passed=True)


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


@_timed
def check_hilbert(h: HessenbergFunction, pair_budget: int = DEFAULT_PAIR_BUDGET,
                  cache_dir=None) -> CheckResult:
    """Hilbert series of both presentations of Hess(h) against the product
    formula; the fixed-point count is reported but never asserted."""
    n = h.n
    scope: dict = {"h": list(h.values), "n": n}
    expected = poincare_product(h)
    expected_dim = sum(expected)

    ordinary = ideal_generators(h, "ordinary").generators
    gb = buchberger(ordinary, pair_budget=pair_budget, cache_dir=cache_dir)
    data = hilbert_series(gb)
    if list(data.series) != expected or data.quotient_dimension != expected_dim:
        return CheckResult(
            name="hilbert", scope=scope, passed=False,
            witness={"part": "ordinary-series", "expected": expected,
                     "series": list(data.series), "expectedDimension": expected_dim,
                     "dimension": data.quotient_dimension},
        )
    std = len(standard_monomials(gb))
    if std != expected_dim:
        return CheckResult(
            name="hilbert", scope=scope, passed=False,
            witness={"part": "standard-monomials", "expected": expected_dim, "count": std},
        )

    equivariant = ideal_generators(h, "equivariant").generators
    gb_eq = buchberger(equivariant, pair_budget=pair_budget, cache_dir=cache_dir)
    data_eq = hilbert_series(gb_eq)
    if data_eq.denominator_power != 1 or list(data_eq.series) != expected:
        return CheckResult(
            name="hilbert", scope=scope, passed=False,
            witness={"part": "equivariant-series", "expected": expected,
                     "series": list(data_eq.series),
                     "denominatorPower": data_eq.denominator_power},
        )
    scope.update({
        "dimension": expected_dim,
        "fixedPointCount": len(fixed_points(h)),  # reported, not asserted
    })
    return CheckResult(name="hilbert", scope=scope, passed=True)


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
    gens = _integer_generators(ideal_generators(h, "equivariant").generators)
    return _vanishing_witness(h, (2, 3, 1), gens)  # 231 is not a fixed point


def _control_exactness():
    h = HessenbergFunction((2, 3, 3))
    gens = _integer_generators(ideal_generators(h, "equivariant").generators)
    tampered = set(fixed_points(h)) | {(2, 3, 1)}
    for w in sorted(tampered):
        witness = _vanishing_witness(h, w, gens)
        if witness is not None:
            witness["problem"] = "claimed fixed point with surviving generator"
            return witness
    return None


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
        result = CheckResult(
            name=f"negative:{target}",
            scope={"mutation": "caught" if caught else "NOT caught", "witness": caught},
            passed=caught is not None,
            witness=None if caught is not None else {"problem": "mutation slipped through"},
        )
        result.elapsed = time.perf_counter() - start
        out.append(result)
    return out


# -- suite driver ----------------------------------------------------------


class _Sweep(NamedTuple):
    """The sweep bounds and Groebner settings that tasks are expanded from."""

    n_max: int | None
    gcap: int
    budget: int
    cache: str | None

    def top(self, default: int) -> int:
        return self.n_max if self.n_max is not None else default


def _permutation_sweep(name: str, n_top: int) -> list[tuple]:
    """One payload per h with n <= n_top, refused up front past the
    permutation cap that fixed_points would hit only once the sweep reaches it."""
    if n_top > DEFAULT_PERMUTATION_CAP:
        raise ResourceLimitError(
            f"the {name} sweep to n = {n_top} exceeds the cap {DEFAULT_PERMUTATION_CAP}"
        )
    return [(h.values,) for n in range(1, n_top + 1) for h in enumerate_all(n)]


class _Check(NamedTuple):
    expand: Callable[[_Sweep], list[tuple]]  # the payloads of its tasks
    run: Callable[..., list[CheckResult]]  # one task's payload -> its results
    scope: Callable[..., dict]  # one task's payload -> the scope of its crash row
    control: Callable[[], dict | None] | None  # a mutation it must catch


def _n_scope(n, *_) -> dict:
    return {"n": n}


def _h_scope(values, *_) -> dict:
    return {"h": list(values), "n": len(values)}


# Runners name the check_* functions inside a lambda, so they are looked
# up at call time: rebinding the module attribute (a tracer, a test) reaches
# every task.
_CHECKS = {
    "example-n4": _Check(lambda s: [()], lambda: [check_example_n4()],
                         lambda: {"n": 4, "entries": 10}, _control_example_n4),
    "closed-form": _Check(lambda s: [(n,) for n in range(1, s.top(SYMBOLIC_CAP) + 1)],
                          lambda n: [check_closed_form_at(n)], _n_scope, _control_closed_form),
    "t-zero": _Check(lambda s: [(n,) for n in range(1, s.top(SYMBOLIC_CAP) + 1)],
                     lambda n: [check_t_zero_at(n)], _n_scope, _control_t_zero),
    "localization": _Check(
        lambda s: _permutation_sweep("localization", s.top(SYMBOLIC_CAP)),
        lambda values: [check_localization_vanishing(HessenbergFunction(values))],
        _h_scope, _control_localization),
    "fixed-point-exactness": _Check(
        lambda s: _permutation_sweep("fixed-point-exactness", s.top(EXACTNESS_CAP)),
        lambda values: [check_fixed_point_exactness(HessenbergFunction(values))],
        _h_scope, _control_exactness),
    "peterson": _Check(
        lambda s: [(n, s.budget, s.cache) for n in range(2, s.gcap + 1)],
        lambda n, budget, cache: [check_peterson(n, pair_budget=budget, cache_dir=cache)],
        lambda n, *_: {"n": n, "h": list(peterson_function(n).values)}, _control_peterson),
    "flag-borel": _Check(
        lambda s: [(n, s.gcap, min(EQUIVARIANT_FLAG_CAP, s.gcap), s.budget, s.cache)
                   for n in range(1, s.top(SYMBOLIC_CAP) + 1)],
        lambda n, gcap, ecap, budget, cache: [check_flag_borel(
            n, groebner_cap=gcap, equivariant_cap=ecap, pair_budget=budget, cache_dir=cache)],
        _n_scope, _control_flag_borel),
    "hilbert": _Check(
        lambda s: [(h.values, s.budget, s.cache)
                   for n in range(1, s.gcap + 1) for h in enumerate_all(n)],
        lambda values, budget, cache: [check_hilbert(
            HessenbergFunction(values), pair_budget=budget, cache_dir=cache)],
        _h_scope, _control_hilbert),
    "negative-controls": _Check(lambda s: [()], lambda: negative_controls(), dict, None),
}

CHECK_NAMES = tuple(_CHECKS)


def _execute_task(task: tuple) -> list[CheckResult]:
    """Run one (name, payload) task.  A crash becomes one FAIL row whose
    witness names the exception; a resource cap (exit 2) and an I/O error
    such as an unwritable cache dir (exit 74) propagate."""
    name, payload = task
    check = _CHECKS[name]
    try:
        return check.run(*payload)
    except (ResourceLimitError, OSError):
        raise
    except Exception as exc:
        return [CheckResult(name=name, scope=check.scope(*payload), passed=False,
                            witness={"exception": type(exc).__name__, "message": str(exc)})]


def run_suite(
    names="all",
    n_max: int | None = None,
    groebner_n_max: int | None = None,
    jobs: int = 1,
    cache_dir=None,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
) -> VerificationReport:
    """Run the named checks (or all of them) and collect a report.

    Results come back in a deterministic order regardless of jobs; only
    the elapsed fields vary between runs.
    """
    if names == "all":
        selected = list(CHECK_NAMES)
    else:
        selected = list(names)
        for name in selected:
            if name not in _CHECKS:
                raise ValueError(f"unknown check {name!r}; known: {', '.join(CHECK_NAMES)}")
    sweep = _Sweep(n_max, groebner_n_max if groebner_n_max is not None else GROEBNER_CAP,
                   pair_budget, str(cache_dir) if cache_dir is not None else None)
    tasks = [(name, payload) for name in selected for payload in _CHECKS[name].expand(sweep)]
    start = time.perf_counter()
    results: list[CheckResult] = []
    if jobs > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        try:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                for batch in pool.map(_execute_task, tasks):
                    results.extend(batch)
        except BrokenProcessPool as exc:
            raise WorkerCrashError(str(exc)) from exc
    else:
        for task in tasks:
            results.extend(_execute_task(task))
    return VerificationReport(results=results, elapsed=time.perf_counter() - start)
