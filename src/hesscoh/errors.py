"""Shared exception types.

Everything raised on purpose by this package derives from HesscohError, so
callers can distinguish our diagnostics from genuine bugs.
"""

from __future__ import annotations


class HesscohError(Exception):
    """Base class for all errors raised by hesscoh."""


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
