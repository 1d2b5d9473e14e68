"""hesscoh: exact presentations of the cohomology rings of regular
nilpotent Hessenberg varieties in type A, verified by a Groebner oracle.
"""

from .errors import (
    DimensionMismatchError,
    HesscohError,
    InvalidHessenbergError,
    NotZeroDimensionalError,
    ResourceLimitError,
    WorkerCrashError,
)
from .generators import (
    GeneratorMatrix,
    PresentedIdeal,
    delta,
    f_closed,
    f_inductive,
    f_ordinary,
    generator_matrix,
    ideal_generators,
    p_sum,
    q_flag,
)
from .groebner import (
    GroebnerBasis,
    HilbertData,
    MonomialOrder,
    buchberger,
    hilbert_series,
    ideal_equality,
    ideal_membership,
    normal_form,
    standard_monomials,
)
from .hessenberg import (
    HessenbergFunction,
    enumerate_all,
    fixed_points,
    flag_function,
    oracle_fixed_point_check,
    parse_hessenberg,
    peterson_function,
)
from .polyring import (
    Polynomial,
    constant,
    elementary_symmetric,
    poly_from_dict,
    poly_to_dict,
    power_sum,
    t_var,
    x_var,
)
from .verify import CheckResult, VerificationReport, run_suite

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "DimensionMismatchError",
    "GeneratorMatrix",
    "GroebnerBasis",
    "HesscohError",
    "HessenbergFunction",
    "HilbertData",
    "InvalidHessenbergError",
    "MonomialOrder",
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
    "ideal_equality",
    "ideal_generators",
    "ideal_membership",
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
