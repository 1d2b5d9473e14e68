"""Shared exception types.

Everything raised on purpose by this package derives from HesscohError, so
callers can distinguish our diagnostics from genuine bugs.  Two exceptions
follow Python's own arithmetic: a coefficient that is not an int or a
Fraction raises TypeError, and a division by zero ZeroDivisionError.
"""

from __future__ import annotations


def check_int(value, what: str, low: int, high: int | None = None) -> int:
    """value when it is an int (not a bool) with low <= value <= high (no
    upper end when high is None); else InvalidArgumentError naming what."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidArgumentError(f"{what} must be an integer, got {value!r}")
    if value < low:
        raise InvalidArgumentError(f"{what} must be at least {low}, got {value}")
    if high is not None and value > high:
        raise InvalidArgumentError(f"{what} must be at most {high}, got {value}")
    return value


class HesscohError(Exception):
    """Base class for all errors raised by hesscoh."""


class InvalidArgumentError(HesscohError, ValueError):
    """An argument the library refuses: a non-integer, an out-of-range value,
    an unknown name or an empty input."""


class DimensionMismatchError(HesscohError, ValueError):
    """Two values living in polynomial rings with different ambient n."""


class InvalidHessenbergError(HesscohError, ValueError):
    """A sequence that is not a Hessenberg function.

    The machine-readable reason is in .code, one of:
    "empty", "not-above-diagonal", "not-weakly-increasing", "out-of-range".
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class ResourceLimitError(HesscohError, RuntimeError):
    """A configured cap (enumeration size, S-pair budget, ...) was exceeded."""


class WorkerCrashError(HesscohError, RuntimeError):
    """A worker process of a parallel run died before returning its results."""


class NotZeroDimensionalError(HesscohError, ValueError):
    """Quotient ring is not finite-dimensional, so no standard-monomial list.

    Expected for equivariant ideals, where t survives in the quotient.
    """
