"""Hessenberg functions and the fixed points of the circle action.

A Hessenberg function is h: {1..n} -> {1..n} with h(i) >= i and
h(i) <= h(i+1); it is stored as a validated tuple of values.  The fixed
points of the S^1 action on the regular nilpotent Hessenberg variety
Hess(h) are the permutation flags that survive inside Hess(h); they are
computed here both by the fast positional criterion and (as an
independent oracle) by literally testing N-stability of the coordinate
flag for the regular nilpotent matrix N with N e_1 = 0, N e_m = e_{m-1}.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidHessenbergError, ResourceLimitError

Permutation = tuple[int, ...]  # 1-based one-line notation

DEFAULT_PERMUTATION_CAP = 7  # 7! = 5040 flags; raise explicitly past this
DEFAULT_ENUMERATION_CAP = 10  # Catalan(10) = 16796 functions


@dataclass(frozen=True)
class HessenbergFunction:
    """Validated Hessenberg function, e.g. HessenbergFunction((2, 3, 3))."""

    values: Permutation

    def __post_init__(self):
        values = tuple(self.values)
        object.__setattr__(self, "values", values)
        if not values:
            raise InvalidHessenbergError("empty", "a Hessenberg function needs n >= 1 values")
        n = len(values)
        for i, v in enumerate(values, start=1):
            if not isinstance(v, int):
                raise InvalidHessenbergError("out-of-range", f"h({i}) = {v!r} is not an integer")
            if v < i:
                raise InvalidHessenbergError(
                    "not-above-diagonal", f"h({i}) = {v} violates h(i) >= i"
                )
            if v > n:
                raise InvalidHessenbergError("out-of-range", f"h({i}) = {v} exceeds n = {n}")
        for i in range(1, n):
            if values[i] < values[i - 1]:
                raise InvalidHessenbergError(
                    "not-weakly-increasing",
                    f"h({i + 1}) = {values[i]} < h({i}) = {values[i - 1]}",
                )

    @property
    def n(self) -> int:
        return len(self.values)

    def __call__(self, i: int) -> int:
        """h(i) with 1-based i."""
        if not 1 <= i <= self.n:
            raise ValueError(f"argument {i} not in 1..{self.n}")
        return self.values[i - 1]

    def __iter__(self):
        return iter(self.values)

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self.values)) + ")"

    def complex_dimension(self) -> int:
        """dim_C Hess(h) = sum_j (h(j) - j)."""
        return sum(v - (j + 1) for j, v in enumerate(self.values))

    def is_flag(self) -> bool:
        return all(v == self.n for v in self.values)


def parse_hessenberg(values) -> HessenbergFunction:
    """Validate a sequence of ints as a Hessenberg function."""
    return HessenbergFunction(tuple(values))


def peterson_function(n: int) -> HessenbergFunction:
    """h = (2, 3, ..., n, n), the Peterson variety case."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return HessenbergFunction((1,))
    return HessenbergFunction(tuple(range(2, n + 1)) + (n,))


def flag_function(n: int) -> HessenbergFunction:
    """h = (n, ..., n), the full flag variety case."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return HessenbergFunction((n,) * n)


def enumerate_all(n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> list[HessenbergFunction]:
    """All Hessenberg functions on {1..n} in lexicographic order.

    There are Catalan(n) of them.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if n > cap:
        raise ResourceLimitError(
            f"enumerating Hessenberg functions for n = {n} exceeds the cap {cap}"
        )
    prefixes: list[tuple[int, ...]] = [()]
    for i in range(1, n + 1):
        # each prefix grows in increasing order of its new value, so the
        # list stays in lexicographic order
        prefixes = [p + (v,) for p in prefixes for v in range(max(i, p[-1]) if p else 1, n + 1)]
    return [HessenbergFunction(p) for p in prefixes]


def fixed_points(h: HessenbergFunction, cap: int = DEFAULT_PERMUTATION_CAP) -> list[Permutation]:
    """Permutations w with the flag (e_w(1), ..., e_w(n)) fixed in Hess(h).

    Criterion: for every j with w(j) >= 2, the position of w(j) - 1 in w
    is at most h(j).  Built by backtracking: positions are filled left to
    right, each with the unused values in increasing order, so results
    come back in lexicographic order.  Placing v at position j can only
    break the criterion for v + 1 (for v - 1, placed earlier, it holds
    because j <= h(j)), so that is the one pair checked.
    """
    n = h.n
    if n > cap:
        raise ResourceLimitError(
            f"fixed points for n = {n} (up to {n}! flags) exceed the cap {cap}"
        )
    out: list[Permutation] = []
    _place_fixed(h.values, [0] * (n + 2), [], out)
    return out


def _place_fixed(values, position, w, out) -> None:
    """Extend the prefix w in every admissible way; position[v] is the
    1-based position of value v in w, 0 while v is unplaced.  Not a nested
    closure: a self-recursive closure is a reference cycle, which keeps
    every result alive until the cyclic collector runs."""
    j = len(w) + 1
    if j > len(values):
        out.append(tuple(w))
        return
    for v in range(1, len(values) + 1):
        q = position[v + 1]
        if position[v] or (q and j > values[q - 1]):
            continue
        position[v] = j
        w.append(v)
        _place_fixed(values, position, w, out)
        w.pop()
        position[v] = 0


def oracle_fixed_point_check(w: Permutation, h: HessenbergFunction) -> bool:
    """Brute-force N-stability test for the coordinate flag of w.

    Checks N V_i <= V_{h(i)} for every i, where V_i = span(e_w(1), ..,
    e_w(i)) and N is the regular nilpotent matrix with N e_1 = 0 and
    N e_m = e_{m-1}.  Deliberately literal; fixed_points() must agree
    with it.
    """
    n = h.n
    w = tuple(w)
    if sorted(w) != list(range(1, n + 1)):
        raise ValueError(f"{w} is not a permutation of 1..{n}")
    for i in range(1, n + 1):
        allowed = set(w[: h(i)])  # basis vectors spanning V_{h(i)}
        for k in range(1, i + 1):
            image = w[k - 1] - 1  # N e_{w(k)} = e_{w(k)-1}, or 0 if w(k) = 1
            if image >= 1 and image not in allowed:
                return False
    return True
