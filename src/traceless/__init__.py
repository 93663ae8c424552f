"""Commutator factorization of trace-zero complex matrices.

Any square complex matrix with zero trace can be written as A = [B, C]
with B normal and ||B|| * ||C||_2 bounded by sqrt(O(1) + log m) * ||A||_2;
this package constructs such factorizations with machine-checkable
certificates and verifies the matching lower-bound inequality chain on the
witness matrix P - I/m.
"""

from .factorizer import FactorizationCertificate, c_from_b, factor
from .filtration import Filtration, StructureReport, build_filtration, verify_filtration_structure
from .lattice import EnergyReport, gaussian_points, pair_expectation, radius_bound
from .linalg import (
    CommutatorCheck,
    NonzeroTraceError,
    certify,
    commutator,
    hs_norm,
    nuclear_norm,
    operator_norm,
    singular_profile,
)
from .lowerbound import (
    LowerBoundReport,
    construct_partial_isometries,
    extremal_matrix,
    lower_bound_report,
    quarter_log_sum,
    verify_hs_lower_bound,
    verify_partial_sums,
    verify_trace_inequality,
    witness_factorization,
)
from .matio import read_matrix, write_matrix, write_points
from .reduction import DiagonalizationResult, zero_diagonal_reduce

__version__ = "0.1.0"

__all__ = [
    "FactorizationCertificate",
    "factor",
    "c_from_b",
    "Filtration",
    "StructureReport",
    "build_filtration",
    "verify_filtration_structure",
    "EnergyReport",
    "gaussian_points",
    "radius_bound",
    "pair_expectation",
    "CommutatorCheck",
    "NonzeroTraceError",
    "certify",
    "commutator",
    "operator_norm",
    "hs_norm",
    "nuclear_norm",
    "singular_profile",
    "LowerBoundReport",
    "extremal_matrix",
    "witness_factorization",
    "lower_bound_report",
    "quarter_log_sum",
    "verify_trace_inequality",
    "verify_partial_sums",
    "verify_hs_lower_bound",
    "construct_partial_isometries",
    "DiagonalizationResult",
    "zero_diagonal_reduce",
    "read_matrix",
    "write_matrix",
    "write_points",
]
