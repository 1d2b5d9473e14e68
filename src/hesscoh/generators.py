"""The polynomial families presenting H^*_{S^1}(Hess(h)) and H^*(Hess(h)).

Everything is built inside Q[x_1..x_n, t] from polyring.  The central
objects:

  p_sum(i, n)         p_i = sum_{k<=i} (x_k - k t), with p_0 = 0
  f_inductive(i,j,n)  f_{i,j} defined by f_{j,j} = p_j and
                      f_{i,j} = f_{i-1,j-1} + (x_j - x_i - t) f_{i-1,j}
  delta(i,j,n)        the triangular ladder whose column sums close the
                      recursion: Delta_{i,i} = x_i - i t and, for i > j,
                      Delta_{i,j} = (sum_{l<=j} Delta_{i-j+l-1,l})(x_j - x_i - t)
  f_closed(i,j,n)     sum_{k<=j} Delta_{i-j+k,k}, an independent route to f_{i,j}
  f_ordinary(i,j,n)   the t = 0 form, sum_{k<=j} x_k prod_{l=j+1..i} (x_k - x_l)
  q_flag(r,n)         the flag-case generator sum_{k<=n+1-r} x_k prod_{l>=n+2-r} (x_k - x_l)

The cohomology presentations are then
  equivariant: I(h) = (f_{h(1),1}, ..., f_{h(n),n})
  ordinary:    (same with f_ordinary)
packaged as PresentedIdeal.  Each f_{i,j} is homogeneous of weight
i - j + 1 (cohomological degree 2(i - j + 1)).

f_inductive, delta and f_ordinary are memoized per (i, j, n); polynomials
are immutable, so sharing cached values is safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .hessenberg import HessenbergFunction
from .polyring import Polynomial, t_var, x_var, zero

MODES = ("equivariant", "ordinary")


def _check_n(n: int) -> None:
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"ambient n must be a positive integer, got {n!r}")


def p_sum(i: int, n: int) -> Polynomial:
    """p_i = (x_1 - t) + (x_2 - 2t) + ... + (x_i - i*t); p_0 = 0."""
    _check_n(n)
    if not isinstance(i, int) or i < 0 or i > n:
        raise ValueError(f"p_i needs 0 <= i <= {n}, got i = {i!r}")
    terms = {}
    for k in range(1, i + 1):
        exps = [0] * (n + 1)
        exps[k - 1] = 1
        terms[tuple(exps)] = 1
    if i:
        terms[tuple([0] * n + [1])] = -(i * (i + 1)) // 2
    return Polynomial(n, terms)


def linear_factor(j: int, i: int, n: int) -> Polynomial:
    """x_j - x_i - t, the multiplier appearing in the recursion."""
    return x_var(j, n) - x_var(i, n) - t_var(n)


@lru_cache(maxsize=None)
def _f(i: int, j: int, n: int) -> Polynomial:
    if j == 0:
        return zero(n)
    if i == j:
        return p_sum(j, n)
    return _f(i - 1, j - 1, n) + linear_factor(j, i, n) * _f(i - 1, j, n)


def f_inductive(i: int, j: int, n: int) -> Polynomial:
    """f_{i,j} via the defining recursion.  Needs 0 <= j <= i <= n."""
    _check_indices(i, j, n)
    return _f(i, j, n)


@lru_cache(maxsize=None)
def _delta(i: int, j: int, n: int) -> Polynomial:
    if i == j:
        return x_var(i, n) - i * t_var(n)
    acc = zero(n)
    for l in range(1, j + 1):
        acc = acc + _delta(i - j + l - 1, l, n)
    return acc * linear_factor(j, i, n)


def delta(i: int, j: int, n: int) -> Polynomial:
    """Ladder entry Delta_{i,j}.  Needs 1 <= j <= i <= n."""
    _check_indices(i, j, n)
    if j == 0:
        raise ValueError("Delta has no column 0")
    return _delta(i, j, n)


def f_closed(i: int, j: int, n: int) -> Polynomial:
    """f_{i,j} as the ladder column sum, independent of the recursion."""
    _check_indices(i, j, n)
    if j == 0:
        return zero(n)
    acc = zero(n)
    for k in range(1, j + 1):
        acc = acc + _delta(i - j + k, k, n)
    return acc


def f_ordinary(i: int, j: int, n: int) -> Polynomial:
    """The t = 0 generator: sum_{k<=j} x_k prod_{l=j+1..i} (x_k - x_l)."""
    _check_indices(i, j, n)
    return _f_ordinary(i, j, n)


@lru_cache(maxsize=None)
def _f_ordinary(i: int, j: int, n: int) -> Polynomial:
    acc = zero(n)
    for k in range(1, j + 1):
        term = x_var(k, n)
        for l in range(j + 1, i + 1):
            term = term * (x_var(k, n) - x_var(l, n))
        acc = acc + term
    return acc


def q_flag(r: int, n: int) -> Polynomial:
    """Flag-case generator q_r = sum_{k<=n+1-r} x_k prod_{l=n+2-r..n} (x_k - x_l)."""
    _check_n(n)
    if not isinstance(r, int) or not 1 <= r <= n:
        raise ValueError(f"q_r needs 1 <= r <= {n}, got r = {r!r}")
    acc = zero(n)
    for k in range(1, n + 2 - r):
        term = x_var(k, n)
        for l in range(n + 2 - r, n + 1):
            term = term * (x_var(k, n) - x_var(l, n))
        acc = acc + term
    return acc


def _check_indices(i: int, j: int, n: int) -> None:
    _check_n(n)
    if not (isinstance(i, int) and isinstance(j, int)):
        raise ValueError(f"indices must be integers, got ({i!r}, {j!r})")
    if not (0 <= j <= i <= n):
        raise ValueError(f"need 0 <= j <= i <= n, got (i, j, n) = ({i}, {j}, {n})")


@dataclass(frozen=True)
class PresentedIdeal:
    """The defining ideal of one cohomology presentation.

    generators[j-1] corresponds to column j, i.e. f_{h(j),j} in
    equivariant mode and its t = 0 form in ordinary mode.
    """

    h: HessenbergFunction
    mode: str
    generators: tuple[Polynomial, ...]

    @property
    def n(self) -> int:
        return self.h.n

    def rows(self) -> list[tuple[int, int]]:
        """(i, j) index pairs of the generators, column order."""
        return [(self.h(j), j) for j in range(1, self.n + 1)]

    @property
    def entries(self) -> tuple[tuple[int, int, Polynomial], ...]:
        """(i, j, generator) triples, column order, shaped like GeneratorMatrix.entries."""
        return tuple((i, j, g) for (i, j), g in zip(self.rows(), self.generators))


def _builder(mode: str):
    """f_inductive for equivariant mode, f_ordinary for ordinary mode."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    return f_inductive if mode == "equivariant" else f_ordinary


def ideal_generators(h: HessenbergFunction, mode: str = "equivariant") -> PresentedIdeal:
    """The presentation ideal I(h) (equivariant) or its t = 0 twin."""
    build = _builder(mode)
    gens = tuple(build(h(j), j, h.n) for j in range(1, h.n + 1))
    return PresentedIdeal(h=h, mode=mode, generators=gens)


@dataclass(frozen=True)
class GeneratorMatrix:
    """All f_{i,j} (or ordinary twins) for 1 <= j <= i <= n."""

    n: int
    mode: str
    entries: tuple[tuple[int, int, Polynomial], ...]  # (i, j, poly), row-major


def generator_matrix(n: int, mode: str = "equivariant") -> GeneratorMatrix:
    _check_n(n)
    build = _builder(mode)
    entries = tuple(
        (i, j, build(i, j, n)) for i in range(1, n + 1) for j in range(1, i + 1)
    )
    return GeneratorMatrix(n=n, mode=mode, entries=entries)


def peterson_rewrite_factor(j: int, n: int) -> Polynomial:
    """-p_{j-1} + 2 p_j - p_{j+1} - 2t, which equals x_j - x_{j+1} - t.

    The equality is a theorem about the p_i, not a definition; it is
    re-verified by checkPeterson.
    """
    _check_n(n)
    if not 1 <= j <= n - 1:
        raise ValueError(f"need 1 <= j <= n-1 = {n - 1}, got j = {j!r}")
    return -p_sum(j - 1, n) + 2 * p_sum(j, n) - p_sum(j + 1, n) - 2 * t_var(n)
