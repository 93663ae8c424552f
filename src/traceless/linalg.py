"""Dense complex matrix primitives: norms, SVD profiles, polar decomposition.

All functions accept anything convertible to a 2-d complex ndarray and are
pure; tolerances are relative to the scale of the input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CommutatorCheck",
    "NonzeroTraceError",
    "SingularProfile",
    "as_matrix",
    "commutator",
    "operator_norm",
    "hs_norm",
    "nuclear_norm",
    "singular_profile",
    "polar_decompose",
    "is_normal",
    "require_trace_zero",
    "residual_ok",
    "certify",
]

TRACE_TOL = 1e-10
RESIDUAL_TOL = 1e-10


def as_matrix(a, square: bool = False) -> np.ndarray:
    """Coerce to a 2-d complex128 array, validating shape and finiteness."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={m.ndim}")
    if square and m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m.ravel(order="K").view(float)).all():  # any memory order
        raise ValueError("matrix has non-finite entries")
    return m


def commutator(b, c) -> np.ndarray:
    """Return BC - CB.  Its trace vanishes up to roundoff for any B, C."""
    b = as_matrix(b, square=True)
    c = as_matrix(c, square=True)
    if b.shape != c.shape:
        raise ValueError(f"dimension mismatch: {b.shape} vs {c.shape}")
    return b @ c - c @ b


def operator_norm(m) -> float:
    """Largest singular value (norm as an operator on l2)."""
    m = as_matrix(m)
    if m.size == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False)[0])


def hs_norm(m) -> float:
    """Hilbert-Schmidt (Frobenius) norm: sqrt of the sum of |entry|^2.

    The squares under- or overflow for entries beyond about 1e+-154; such
    matrices are rescaled by their largest modulus first.
    """
    m = as_matrix(m)
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(m))
    if norm < 1e-150 or norm == math.inf:
        moduli = np.abs(m)
        peak = float(np.max(moduli, initial=0.0))
        if peak > 0.0:
            norm = peak * float(np.linalg.norm(moduli / peak))
    return norm


def nuclear_norm(m) -> float:
    """Sum of singular values (trace norm)."""
    m = as_matrix(m)
    if m.size == 0:
        return 0.0
    return float(np.sum(np.linalg.svd(m, compute_uv=False)))


@dataclass
class SingularProfile:
    """Singular values in non-increasing order together with partial sums.

    ``partial_sums[k]`` is the sum of the first k+1 values, so the sum of
    the leading l values is ``partial_sums[l - 1]``.
    """

    values: np.ndarray
    partial_sums: np.ndarray

    def leading_sum(self, l: int) -> float:
        """Sum of the l largest singular values."""
        if not 1 <= l <= len(self.values):
            raise ValueError(f"l={l} out of range 1..{len(self.values)}")
        return float(self.partial_sums[l - 1])


def singular_profile(m) -> SingularProfile:
    """Full singular spectrum of a square matrix, sorted non-increasing.

    Raises ``numpy.linalg.LinAlgError`` if the SVD fails to converge; the
    failure is deliberately not swallowed.
    """
    m = as_matrix(m, square=True)
    values = np.linalg.svd(m, compute_uv=False)
    return SingularProfile(values=values, partial_sums=np.cumsum(values))


def polar_decompose(m) -> tuple[np.ndarray, np.ndarray]:
    """Polar decomposition M = U H with U unitary and H = |M| PSD Hermitian.

    Computed from the full SVD, so U is always unitary (hence a partial
    isometry on the range of H) even when M is singular.
    """
    m = as_matrix(m, square=True)
    u, s, vh = np.linalg.svd(m)
    unitary = u @ vh
    h = vh.conj().T @ (s[:, None] * vh)
    h = 0.5 * (h + h.conj().T)
    return unitary, h


def is_normal(m, tol: float = 1e-10) -> bool:
    """True iff ||M M* - M* M||_2 <= tol * ||M||^2."""
    m = as_matrix(m, square=True)
    defect = hs_norm(m @ m.conj().T - m.conj().T @ m)
    return defect <= tol * operator_norm(m) ** 2


class NonzeroTraceError(ValueError):
    """The matrix has nonzero trace, so it is no commutator."""


def require_trace_zero(a: np.ndarray, hs_a: float) -> None:
    """Raise ``NonzeroTraceError`` unless |trace A| <= TRACE_TOL * ||A||_2 (``hs_a``)."""
    trace = np.trace(a)
    if abs(trace) > TRACE_TOL * hs_a:
        raise NonzeroTraceError(
            f"matrix trace {trace:.3e} is not zero; "
            "only trace-zero matrices have a zero-diagonal unitary conjugate"
        )


def residual_ok(residual: float, op_norm_b: float, hs_norm_c: float, tol: float = RESIDUAL_TOL) -> bool:
    """The A = [B, C] rule: ||A - [B, C]||_2 <= tol * ||B|| * ||C||_2."""
    return residual <= tol * (op_norm_b * hs_norm_c)


@dataclass(frozen=True)
class CommutatorCheck:
    """The numbers that certify A = [B, C], and the residual verdict."""

    residual: float
    op_norm_b: float
    hs_norm_c: float
    hs_norm_a: float
    ratio: float  # ||B|| ||C||_2 / ||A||_2, 0 for A = 0
    residual_ok: bool


def certify(a, b, c, tol: float = RESIDUAL_TOL) -> CommutatorCheck:
    """Measure ||A - [B, C]||_2, ||B||, ||C||_2, ||A||_2 and the ratio once."""
    a = as_matrix(a, square=True)
    residual = hs_norm(a - commutator(b, c))
    op_b = operator_norm(b)
    hs_c = hs_norm(c)
    hs_a = hs_norm(a)
    return CommutatorCheck(
        residual=residual,
        op_norm_b=op_b,
        hs_norm_c=hs_c,
        hs_norm_a=hs_a,
        ratio=op_b * hs_c / hs_a if hs_a > 0.0 else 0.0,
        residual_ok=residual_ok(residual, op_b, hs_c, tol),
    )
