"""Exact truncated formal-group-law series over the Brown-Peterson coefficient ring.

The pipeline: FglContext builds the p-typical logarithm/exponential and the
generator table at a truncation order; power_operation expands the total
power operation on the orientation class into its coefficient series a_i;
mc assembles obstruction series from them and reduces modulo the reduced
p-series, certifying nonvanishing by the lowest nonzero coefficient of the
canonical representative.
"""

from .fgl import FglContext, HorizonError, IntegralityError, NotPrimeError
from .obstruction import (
    InsufficientTruncationError,
    ObstructionResult,
    enumerate_indices,
    mc,
    mc_explicit_2p2,
    mc_via_inverse,
    mc_via_sum,
    mu,
    sparse_mc,
)
from .poly import BasisMismatchError, GradedPoly
from .powerop import PowerOpData, power_operation, reduce_a_mod_p_series
from .reduction import (
    NonIntegralError,
    canonical_rep,
    divide,
    divisible_by_full_p_series,
    nonvanishing_certificate,
)
from .series import NonUnitError, OutsideValidityError, Series

__all__ = [
    "BasisMismatchError",
    "FglContext",
    "GradedPoly",
    "HorizonError",
    "InsufficientTruncationError",
    "IntegralityError",
    "NonIntegralError",
    "NonUnitError",
    "NotPrimeError",
    "ObstructionResult",
    "OutsideValidityError",
    "PowerOpData",
    "Series",
    "canonical_rep",
    "divide",
    "divisible_by_full_p_series",
    "enumerate_indices",
    "mc",
    "mc_explicit_2p2",
    "mc_via_inverse",
    "mc_via_sum",
    "mu",
    "nonvanishing_certificate",
    "power_operation",
    "reduce_a_mod_p_series",
    "sparse_mc",
]

__version__ = "0.1.0"
