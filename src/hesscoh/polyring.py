"""Exact sparse polynomial arithmetic in Q[x_1, ..., x_n, t].

A monomial is a dense exponent tuple of length n+1: the exponents of
x_1..x_n followed by the exponent of t.  Coefficients are
fractions.Fraction, so every computation in the package is exact; floats
are rejected at the boundary.  The grading gives every variable
(including t) weight 1; user-facing cohomological degrees are twice the
weight and live in the CLI layer, not here.

Polynomials are immutable once constructed.  The canonical term order
used for display and serialization is graded reverse lexicographic with
x_1 > x_2 > ... > x_n > t, largest term first.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, Sequence, Union

from .errors import DimensionMismatchError

Monomial = tuple[int, ...]
Scalar = Union[int, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def canonical_key(exponents: Monomial) -> tuple:
    """Sort key realizing grevlex with x_1 > ... > x_n > t.

    Larger key = larger monomial: compare total degree first, then ask
    that the last variable on which the monomials differ has the
    smaller exponent.
    """
    return (sum(exponents), tuple(-e for e in reversed(exponents)))


def _coerce_scalar(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):  # bools are ints; harmless
        return Fraction(value)
    if isinstance(value, float):
        raise TypeError("floating point has no place here; use Fraction or int")
    raise TypeError(f"cannot use {type(value).__name__} as a coefficient")


class Polynomial:
    """An element of Q[x_1..x_n, t], stored as {exponent tuple: Fraction}.

    Construct via the module helpers (x_var, t_var, constant, ...) or by
    passing a term mapping.  Instances are immutable; all operators
    return new polynomials.  Mixing values with different ambient n
    raises DimensionMismatchError.
    """

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms: Mapping[Monomial, Scalar] | Iterable[tuple[Monomial, Scalar]] = ()):
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"ambient n must be a positive integer, got {n!r}")
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[Monomial, Fraction] = {}
        width = n + 1
        for exps, coef in items:
            exps = tuple(exps)
            if len(exps) != width:
                raise ValueError(
                    f"monomial {exps} has {len(exps)} exponents, expected {width} (x_1..x_{n}, t)"
                )
            if any((not isinstance(e, int)) or e < 0 for e in exps):
                raise ValueError(f"exponents must be non-negative integers, got {exps}")
            c = clean.get(exps, _ZERO) + _coerce_scalar(coef)
            if c:
                clean[exps] = c
            else:
                clean.pop(exps, None)
        self.n = n
        self._terms = clean

    @classmethod
    def _raw(cls, n: int, terms: dict[Monomial, Fraction]) -> "Polynomial":
        # trusted constructor: terms already normalized, ownership transferred
        self = object.__new__(cls)
        self.n = n
        self._terms = terms
        return self

    # -- introspection -------------------------------------------------

    @property
    def terms(self) -> dict[Monomial, Fraction]:
        """Term mapping; treat as read-only."""
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def total_degree(self) -> int | None:
        """Largest total weight of a term, or None for the zero polynomial."""
        if not self._terms:
            return None
        return max(sum(e) for e in self._terms)

    def is_homogeneous(self) -> bool:
        """True for 0 and for polynomials whose terms share one weight."""
        degrees = {sum(e) for e in self._terms}
        return len(degrees) <= 1

    def coefficient(self, exponents: Monomial) -> Fraction:
        return self._terms.get(tuple(exponents), _ZERO)

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms in canonical (grevlex, descending) order.

        Ascending (-degree, reversed exponents) is canonical_key descending.
        """
        return sorted(self._terms.items(), key=lambda kv: (-sum(kv[0]), kv[0][::-1]))

    # -- arithmetic ----------------------------------------------------

    def _compatible(self, other: "Polynomial") -> None:
        if self.n != other.n:
            raise DimensionMismatchError(
                f"ambient rings differ: n={self.n} vs n={other.n}"
            )

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.n == other.n and self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            c = _coerce_scalar(other)
            if not c:
                return not self._terms
            return self._terms == {(0,) * (self.n + 1): c}
        return NotImplemented

    __hash__ = None  # mutable-looking value type; never used as a dict key

    def __add__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = constant(other, self.n)
        elif not isinstance(other, Polynomial):
            return NotImplemented
        self._compatible(other)
        out = dict(self._terms)
        for exps, coef in other._terms.items():
            c = out.get(exps, _ZERO) + coef
            if c:
                out[exps] = c
            else:
                out.pop(exps, None)
        return Polynomial._raw(self.n, out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw(self.n, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = constant(other, self.n)
        elif not isinstance(other, Polynomial):
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other) -> "Polynomial":
        return (-self).__add__(other)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            c = _coerce_scalar(other)
            if not c:
                return Polynomial._raw(self.n, {})
            return Polynomial._raw(self.n, {e: co * c for e, co in self._terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._compatible(other)
        return Polynomial._raw(self.n, _mul_terms(self._terms, other._terms))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Polynomial":
        c = _coerce_scalar(other)
        if not c:
            raise ZeroDivisionError("division of a polynomial by zero")
        return self * (1 / c)

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"exponent must be a non-negative integer, got {exponent!r}")
        result = {(0,) * (self.n + 1): _ONE}
        base = self._terms
        e = exponent
        while e:
            if e & 1:
                result = _mul_terms(result, base)
            e >>= 1
            if e:
                base = _mul_terms(base, base)
        return Polynomial._raw(self.n, result)

    # -- substitution and evaluation ------------------------------------

    def substitute(self, x: Mapping[int, "Polynomial | Scalar"] | None = None,
                   t: "Polynomial | Scalar | None" = None) -> "Polynomial":
        """Ring homomorphism sending x_k (1-based keys of x) and/or t to
        the given values; unassigned variables map to themselves.
        """
        n = self.n
        assigns: dict[int, Polynomial] = {}
        if x:
            for k, value in x.items():
                if not (isinstance(k, int) and 1 <= k <= n):
                    raise ValueError(f"x-variable index {k!r} not in 1..{n}")
                assigns[k - 1] = _as_polynomial(value, n)
        if t is not None:
            assigns[n] = _as_polynomial(t, n)
        if not assigns:
            return self

        width = n + 1
        power_cache: dict[tuple[int, int], dict[Monomial, Fraction]] = {}

        def var_power(i: int, e: int) -> dict[Monomial, Fraction]:
            got = power_cache.get((i, e))
            if got is None:
                base = assigns.get(i)
                if base is None:
                    exps = [0] * width
                    exps[i] = e
                    got = {tuple(exps): _ONE}
                else:
                    got = (base ** e)._terms
                power_cache[(i, e)] = got
            return got

        total: dict[Monomial, Fraction] = {}
        unit = (0,) * width
        for exps, coef in self._terms.items():
            current = {unit: coef}
            for i, e in enumerate(exps):
                if e:
                    current = _mul_terms(current, var_power(i, e))
            for key, c in current.items():
                c = total.get(key, _ZERO) + c
                if c:
                    total[key] = c
                else:
                    total.pop(key, None)
        return Polynomial._raw(n, total)

    def evaluate(self, point: Sequence[Scalar]) -> Fraction:
        """Value at a rational point (v_1, ..., v_n, v_t)."""
        if len(point) != self.n + 1:
            raise ValueError(f"point must have {self.n + 1} coordinates, got {len(point)}")
        values = [_coerce_scalar(v) for v in point]
        total = _ZERO
        for exps, coef in self._terms.items():
            v = coef
            for val, e in zip(values, exps):
                if e:
                    v *= val ** e
            total += v
        return total

    # -- formatting ------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for exps, coef in self.sorted_terms():
            mono = _monomial_text(exps, self.n)
            if coef < 0:
                sign = "-" if not parts else "- "
                coef = -coef
            else:
                sign = "" if not parts else "+ "
            if mono == "1":
                body = str(coef)
            elif coef == 1:
                body = mono
            else:
                body = f"{coef}*{mono}"
            parts.append(sign + body)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial(n={self.n}, {self})"

    # -- pickling (slots) -------------------------------------------------

    def __getstate__(self):
        return (self.n, self._terms)

    def __setstate__(self, state):
        self.n, self._terms = state


def _mul_terms(a: dict[Monomial, Fraction], b: dict[Monomial, Fraction]) -> dict[Monomial, Fraction]:
    if len(a) > len(b):
        a, b = b, a
    out: dict[Monomial, Fraction] = {}
    get = out.get
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(map(sum, zip(ea, eb)))
            c = get(key, _ZERO) + ca * cb
            if c:
                out[key] = c
            else:
                del out[key]
    return out


def _as_polynomial(value, n: int) -> Polynomial:
    if isinstance(value, Polynomial):
        if value.n != n:
            raise DimensionMismatchError(f"substituted value lives in n={value.n}, expected n={n}")
        return value
    return constant(value, n)


def _monomial_text(exps: Monomial, n: int) -> str:
    parts = []
    for i, e in enumerate(exps):
        if not e:
            continue
        name = "t" if i == n else f"x{i + 1}"
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def monomial_latex(exps: Monomial, n: int) -> str:
    parts = []
    for i, e in enumerate(exps):
        if not e:
            continue
        name = "t" if i == n else f"x_{{{i + 1}}}"
        parts.append(name if e == 1 else f"{name}^{{{e}}}")
    return "".join(parts) if parts else "1"


# -- constructors -------------------------------------------------------


def zero(n: int) -> Polynomial:
    return Polynomial(n)


def one(n: int) -> Polynomial:
    return constant(1, n)


def constant(c: Scalar, n: int) -> Polynomial:
    c = _coerce_scalar(c)
    if not c:
        return Polynomial(n)
    return Polynomial(n, {(0,) * (n + 1): c})


def x_var(k: int, n: int) -> Polynomial:
    """The variable x_k, 1 <= k <= n."""
    if not (isinstance(k, int) and 1 <= k <= n):
        raise ValueError(f"x-variable index {k!r} not in 1..{n}")
    exps = [0] * (n + 1)
    exps[k - 1] = 1
    return Polynomial(n, {tuple(exps): 1})


def t_var(n: int) -> Polynomial:
    """The equivariant parameter t."""
    exps = [0] * n + [1]
    return Polynomial(n, {tuple(exps): 1})


def elementary_symmetric(i: int, indices: Iterable[int], n: int) -> Polynomial:
    """e_i in the x-variables selected by `indices` (1-based, distinct)."""
    idx = tuple(indices)
    if len(set(idx)) != len(idx):
        raise ValueError(f"variable indices must be distinct, got {idx}")
    for k in idx:
        if not (isinstance(k, int) and 1 <= k <= n):
            raise ValueError(f"x-variable index {k!r} not in 1..{n}")
    if not isinstance(i, int) or i < 0 or i > len(idx):
        raise ValueError(f"e_{i} undefined over {len(idx)} variables")
    if i == 0:
        return one(n)
    terms: dict[Monomial, Fraction] = {}
    for combo in combinations(sorted(idx), i):
        exps = [0] * (n + 1)
        for k in combo:
            exps[k - 1] = 1
        terms[tuple(exps)] = _ONE
    return Polynomial._raw(n, terms)


def power_sum(r: int, n: int) -> Polynomial:
    """The power sum x_1^r + ... + x_n^r, r >= 1."""
    if not isinstance(r, int) or r < 1:
        raise ValueError(f"power sum needs r >= 1, got {r!r}")
    terms: dict[Monomial, Fraction] = {}
    for k in range(n):
        exps = [0] * (n + 1)
        exps[k] = r
        terms[tuple(exps)] = _ONE
    return Polynomial._raw(n, terms)


# -- serialization -------------------------------------------------------


def poly_to_dict(p: Polynomial) -> dict:
    """JSON-ready form: terms in canonical order, coefficients "num/den"."""
    return {
        "n": p.n,
        "terms": [
            {"x": list(exps[: p.n]), "t": exps[p.n], "c": f"{c.numerator}/{c.denominator}"}
            for exps, c in p.sorted_terms()
        ],
    }


def poly_from_dict(data: Mapping) -> Polynomial:
    n = data["n"]
    terms = {}
    for item in data["terms"]:
        exps = tuple(item["x"]) + (item["t"],)
        terms[exps] = Fraction(item["c"])
    return Polynomial(n, terms)
