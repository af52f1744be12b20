"""chi2norm: chi-square divergence to the standard normal.

Certified recursion constants, normalized-sum bound assembly, and
subgaussian-threshold diagnostics for standardized random variables.
"""

from __future__ import annotations

from .bounds import (
    BoundReport,
    CorollaryResult,
    VarianceProfile,
    corollary_bound,
    step_constants,
    stein_recurrence_rhs,
    theorem_bound,
    unroll_recurrence,
)
from .constants import (
    BASIC_SET,
    SYMMETRIC_SET,
    AppendixMaxima,
    ConstantEstimate,
    C_of_p,
    IndexSet,
    Table1Entry,
    appendix_maxima,
    constants_table,
    g,
    g_sym,
    maximize_g,
    maximize_g_sym,
)
from .densities import (
    StandardizedDensity,
    from_name,
    make_mixture,
    make_normal,
    make_scaled_beta,
    make_uniform,
    normalized_sum_density,
)
from .distances import (
    Chi2Result,
    HermiteProfile,
    chi2_both,
    chi2_direct,
    chi2_series,
    hermite_profile,
    profile_until_converged,
)
from .errors import AccuracyError, CapacityError, Chi2NormError, DomainError
from .hermite import (
    addition_formula_eval,
    hermite_eval,
)
from .subgaussian import (
    ThresholdResult,
    hermite_mgf_identity_check,
    mgf,
    mgf_check,
    threshold,
)
from .verify import CheckResult, VerifyReport, run_suite, stein_check

__version__ = "0.1.0"

__all__ = [
    "AccuracyError",
    "AppendixMaxima",
    "BASIC_SET",
    "BoundReport",
    "C_of_p",
    "CapacityError",
    "CheckResult",
    "Chi2NormError",
    "Chi2Result",
    "ConstantEstimate",
    "CorollaryResult",
    "DomainError",
    "HermiteProfile",
    "IndexSet",
    "StandardizedDensity",
    "SYMMETRIC_SET",
    "Table1Entry",
    "ThresholdResult",
    "VarianceProfile",
    "VerifyReport",
    "__version__",
    "addition_formula_eval",
    "appendix_maxima",
    "chi2_both",
    "chi2_direct",
    "chi2_series",
    "constants_table",
    "corollary_bound",
    "from_name",
    "g",
    "g_sym",
    "hermite_eval",
    "hermite_mgf_identity_check",
    "hermite_profile",
    "make_mixture",
    "make_normal",
    "make_scaled_beta",
    "make_uniform",
    "maximize_g",
    "maximize_g_sym",
    "mgf",
    "mgf_check",
    "normalized_sum_density",
    "profile_until_converged",
    "run_suite",
    "stein_check",
    "stein_recurrence_rhs",
    "step_constants",
    "theorem_bound",
    "threshold",
    "unroll_recurrence",
]
