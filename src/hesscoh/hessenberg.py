"""Hessenberg functions and the fixed points of the circle action.

A Hessenberg function is h: {1..n} -> {1..n} with h(i) >= i and
h(i) <= h(i+1); it is stored as a validated tuple of values.  The fixed
points of the S^1 action on the regular nilpotent Hessenberg variety
Hess(h) are the permutation flags that survive inside Hess(h).  Each
permutation w has a Hessenberg function m_w, and w is fixed in Hess(h)
exactly when m_w <= h pointwise; so S_n is split once per n into the
Catalan(n) classes of equal m_w, and `fixed_points` takes the union of
the classes below h; the same table of S_n also ranks it for
`permutation_ranks`.  Each table is built on first use and kept for the
life of the process (a functools cache keyed on n).  An independent oracle literally tests N-stability
of the coordinate flag for the regular nilpotent matrix N with
N e_1 = 0, N e_m = e_{m-1}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import permutations

from .errors import InvalidArgumentError, InvalidHessenbergError, ResourceLimitError, check_int

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
            if isinstance(v, bool) or not isinstance(v, int):
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
        return self.values[check_int(i, "i", 1, len(self.values)) - 1]

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self.values)) + ")"


def parse_hessenberg(values) -> HessenbergFunction:
    """Validate a sequence of ints as a Hessenberg function."""
    return HessenbergFunction(tuple(values))


def peterson_function(n: int) -> HessenbergFunction:
    """h = (2, 3, ..., n, n), the Peterson variety case; (1) for n = 1."""
    check_int(n, "n", 1)
    return HessenbergFunction(tuple(range(2, n + 1)) + (n,))


def flag_function(n: int) -> HessenbergFunction:
    """h = (n, ..., n), the full flag variety case."""
    check_int(n, "n", 1)
    return HessenbergFunction((n,) * n)


def enumerate_all(n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> list[HessenbergFunction]:
    """All Hessenberg functions on {1..n} in lexicographic order.

    There are Catalan(n) of them.
    """
    check_int(n, "n", 1)
    check_int(cap, "cap", 1)
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
    """Permutations w with the flag (e_w(1), ..., e_w(n)) fixed in Hess(h),
    in lexicographic order.

    Criterion: for every j with w(j) >= 2, the position of w(j) - 1 in w
    is at most h(j).  As h is weakly increasing with h(j) >= j, that holds
    exactly when m_w <= h pointwise, where

        m_w(j) = max(j, max over k <= j of pos(w(k) - 1)),  pos(0) = 0,

    is itself a Hessenberg function.  So S_n splits into Catalan(n)
    classes C_g = {w : m_w = g}, and the fixed points of h are the union
    of the classes C_g with g <= h, sorted, read from the table of S_n
    (_symmetric_group), which is built once per n.
    """
    check_int(cap, "cap", 1)
    n = h.n
    if n > cap:
        raise ResourceLimitError(
            f"fixed points for n = {n} (up to {n}! flags) exceed the cap {cap}"
        )
    outside = ~_cells(h.values)
    out: list[Permutation] = []
    for _, cells, members in _symmetric_group(n)[1]:
        if not cells & outside:  # g <= h pointwise
            out += members
    out.sort()
    return out


def permutation_ranks(n: int) -> dict[Permutation, int]:
    """Each w in S_n mapped to its 0-based rank in lexicographic
    (itertools.permutations) order; iterating the dict gives S_n in that
    order.  Read from the table of S_n (_symmetric_group), so the same
    dict is returned on every call."""
    return _symmetric_group(n)[0]


@cache
def _symmetric_group(n: int) -> tuple:
    """The table of S_n: the ranks {w: rank} in lexicographic order and the
    Catalan(n) classes (g, _cells(g), C_g) of equal m_w, each C_g in
    lexicographic order and made of the rank dict's own keys, so each
    permutation is one tuple.  Built once per n, on first use, and kept
    for the life of the process: 0.19 MB for all n <= 6, 0.92 MB more at
    n = 7 and 7.0 MB more at n = 8 (tracemalloc).
    """
    ranks = {w: k for k, w in enumerate(permutations(range(1, n + 1)))}
    classes: dict[Permutation, list[Permutation]] = {}
    position = [0] * (n + 1)  # position[v] of value v in w; position[0] stays 0
    for w in ranks:
        for j, v in enumerate(w, start=1):
            position[v] = j
        top = 0
        key = []
        for j, v in enumerate(w, start=1):
            top = max(top, j, position[v - 1])
            key.append(top)
        classes.setdefault(tuple(key), []).append(w)
    return ranks, [(g, _cells(g), members) for g, members in classes.items()]


def _cells(values) -> int:
    """Bit n*(j-1) + i - 1 is set for each i <= g(j): g <= h pointwise
    exactly when _cells(g) & ~_cells(h) == 0."""
    n = len(values)
    out = 0
    for j, v in enumerate(values):
        out |= ((1 << v) - 1) << (n * j)
    return out


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
        raise InvalidArgumentError(f"{w} is not a permutation of 1..{n}")
    for i in range(1, n + 1):
        allowed = set(w[: h(i)])  # basis vectors spanning V_{h(i)}
        for k in range(1, i + 1):
            image = w[k - 1] - 1  # N e_{w(k)} = e_{w(k)-1}, or 0 if w(k) = 1
            if image >= 1 and image not in allowed:
                return False
    return True
