"""The public surface of the hesscoh package.

`__all__` is pinned to a recorded list, so adding or removing a public
name is a deliberate edit here, and `from hesscoh import *` must bind
every listed name.
"""

from __future__ import annotations

import hesscoh

EXPORTED = [
    "CheckResult",
    "DimensionMismatchError",
    "GeneratorMatrix",
    "GroebnerBasis",
    "HesscohError",
    "HessenbergFunction",
    "HilbertData",
    "InvalidHessenbergError",
    "NotZeroDimensionalError",
    "Polynomial",
    "PresentedIdeal",
    "ResourceLimitError",
    "VerificationReport",
    "WorkerCrashError",
    "buchberger",
    "constant",
    "delta",
    "elementary_symmetric",
    "enumerate_all",
    "f_closed",
    "f_inductive",
    "f_ordinary",
    "fixed_points",
    "flag_function",
    "generator_matrix",
    "hilbert_series",
    "ideal_generators",
    "normal_form",
    "oracle_fixed_point_check",
    "p_sum",
    "parse_hessenberg",
    "peterson_function",
    "poly_from_dict",
    "poly_to_dict",
    "power_sum",
    "q_flag",
    "run_suite",
    "standard_monomials",
    "t_var",
    "x_var",
]


def test_all_is_the_recorded_sorted_list():
    assert EXPORTED == sorted(EXPORTED)
    assert hesscoh.__all__ == EXPORTED


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from hesscoh import *", namespace)
    for name in EXPORTED:
        assert namespace[name] is getattr(hesscoh, name)
