"""Dense complex matrix primitives: norms, SVD profiles, the commutator certificate.

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
    "as_matrix",
    "commutator",
    "operator_norm",
    "hs_norm",
    "nuclear_norm",
    "unit_defect",
    "gram_defect",
    "singular_profile",
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


def _circulant(column: np.ndarray) -> np.ndarray:
    """The circulant X[j, k] = column[(j - k) mod m], C-contiguous.

    Row j is column[j], column[j - 1], ..., a window of the reversed column
    followed by its reversed tail, so one copy of a sliding-window view fills
    it with no m x m index array.
    """
    m = len(column)
    tiled = np.concatenate([column[::-1], column[:0:-1]])  # tiled[i] = column[(m - 1 - i) mod m]
    return np.lib.stride_tricks.sliding_window_view(tiled, m)[::-1].copy()


def operator_norm(m) -> float:
    """Largest singular value (norm as an operator on l2)."""
    m = as_matrix(m)
    if m.size == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False)[0])


def _root_sum_squares(parts: np.ndarray) -> float:
    """sqrt of the sum of squares of a contiguous float array, summed in a fixed order.

    numpy's einsum runs on one thread, in an order set by the length alone;
    ``np.linalg.norm`` sums with BLAS dot products, whose order depends on
    the BLAS thread count.
    """
    return math.sqrt(float(np.einsum("i,i->", parts, parts)))


def hs_norm(m) -> float:
    """Hilbert-Schmidt (Frobenius) norm: sqrt of the sum of |entry|^2.

    The real and imaginary parts are squared and summed in a fixed order,
    so the result does not depend on the BLAS thread count.  The squares
    under- or overflow for entries beyond about 1e+-154; such matrices are
    first scaled by the power of two that brings their largest modulus into
    [0.5, 1).  That scaling is exact, so hs_norm(2^k M) is 2^k hs_norm(M)
    bit for bit wherever neither result is subnormal.
    """
    m = as_matrix(m)
    parts = m.ravel(order="K").view(float)
    with np.errstate(over="ignore"):
        norm = _root_sum_squares(parts)
        if norm < 1e-150 or norm == math.inf:
            peak = float(np.max(np.abs(m), initial=0.0))
            if peak > 0.0:
                exp = int(np.frexp(peak)[1])
                norm = float(np.ldexp(_root_sum_squares(np.ldexp(parts, -exp)), exp))
    return norm


def unit_defect(x) -> float:
    """||X*X - I||_2 over the columns of X, so that ||X||^2 <= 1 + the returned value."""
    x = as_matrix(x)
    return gram_defect(x.conj().T @ x)


def gram_defect(gram) -> float:
    """||G - I||_2 for a Gram matrix G = X*X already formed: ``unit_defect`` of X."""
    gram = as_matrix(gram, square=True)
    return hs_norm(gram - np.eye(gram.shape[0]))


def nuclear_norm(m) -> float:
    """Sum of singular values (trace norm)."""
    m = as_matrix(m)
    if m.size == 0:
        return 0.0
    return float(np.sum(np.linalg.svd(m, compute_uv=False)))


def singular_profile(m) -> np.ndarray:
    """Full singular spectrum of a square matrix, sorted non-increasing.

    Raises ``numpy.linalg.LinAlgError`` if the SVD fails to converge; the
    failure is deliberately not swallowed.
    """
    return np.linalg.svd(as_matrix(m, square=True), compute_uv=False)


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


def certify(a, b, c, op_norm_b: float) -> CommutatorCheck:
    """Measure ||A - [B, C]||_2, ||C||_2, ||A||_2 and the ratio once.

    ``op_norm_b`` is ||B|| or a certified upper bound on it, and the caller
    says where it comes from: ``verify`` measures ``operator_norm(b)``,
    ``factor`` bounds it from B's eigenframe.  The residual rule (at
    RESIDUAL_TOL) and the ratio use it as given.
    """
    return _certify_bracket(as_matrix(a, square=True), commutator(b, c), c, op_norm_b)


def _certify_bracket(a: np.ndarray, bracket: np.ndarray, c, op_norm_b: float) -> CommutatorCheck:
    """``certify`` with [B, C] already formed as ``bracket``, which is overwritten with A - [B, C].

    A is a square matrix, or, 1-d, the diagonal of a diagonal one, which is
    subtracted in place with the same bits as the dense difference.
    """
    if a.ndim == 1:
        np.negative(bracket, out=bracket)
        bracket[np.diag_indices(len(a))] += a
        hs_a = hs_norm(a[None, :])
    else:
        np.subtract(a, bracket, out=bracket)
        hs_a = hs_norm(a)
    residual = hs_norm(bracket)
    hs_c = hs_norm(c)
    return CommutatorCheck(
        residual=residual,
        op_norm_b=op_norm_b,
        hs_norm_c=hs_c,
        hs_norm_a=hs_a,
        ratio=op_norm_b * hs_c / hs_a if hs_a > 0.0 else 0.0,
        residual_ok=residual_ok(residual, op_norm_b, hs_c),
    )
