"""Unitary reduction of trace-zero matrices to zero diagonal.

The workhorse is a 2x2 primitive: for any 2x2 block and any target value
inside the block's numerical range (an ellipse centered at half the trace),
there is a closed-form unitary whose conjugation puts the target in the
(0,0) slot.  Averaging sweeps drive every diagonal entry of the full matrix
toward the common mean trace/m = 0 geometrically; a final chain of
exact-zeroing rotations mops up the remainder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, hs_norm, require_trace_zero

__all__ = ["DiagonalizationResult", "zero_diagonal_reduce", "apply_conjugation"]

MAX_SWEEPS = 40


@dataclass
class DiagonalizationResult:
    """Unitary Q and A-tilde = Q* A Q with (near-)zero diagonal."""

    q: np.ndarray
    atilde: np.ndarray
    diag_residual: float
    converged: bool
    sweeps: int


def _attaining_rotation(block: np.ndarray, target: complex):
    """2x2 unitary U with (U* block U)[0,0] == target, or None.

    Writing candidate unit vectors as (cos t, sin t * e^{i f}), the attained
    value is an affine image of (cos 2t, sin 2t cos f, sin 2t sin f), a point
    of the unit 2-sphere.  Hitting the target is a linear system on the
    sphere: take the min-norm solution of the 2x3 system and walk along the
    null space back to unit length.  No solution iff the target lies outside
    the numerical range.
    """
    b11, b12 = block[0, 0], block[0, 1]
    b21, b22 = block[1, 0], block[1, 1]
    w = target - 0.5 * (b11 + b22)
    beta = 0.5 * (b11 - b22)
    u = 0.5 * (b12 + b21)
    v = 0.5j * (b12 - b21)
    mat = np.array(
        [[beta.real, u.real, v.real], [beta.imag, u.imag, v.imag]]
    )
    rhs = np.array([w.real, w.imag])
    mu, ms, mvt = np.linalg.svd(mat)
    scale = ms[0] if ms[0] > 0.0 else 1.0
    rank = int(np.sum(ms > 1e-14 * scale))  # at most 2, so a null direction exists
    coeffs = (mu.T @ rhs)[:rank] / ms[:rank]
    z0 = mvt[:rank].T @ coeffs
    # hypot, not a sum of squares: entries near 1e300 must not overflow the test
    if math.hypot(*(mat @ z0 - rhs)) > 1e-12 * max(1.0, math.hypot(*rhs), scale):
        return None  # degenerate ellipse, target off its segment
    n0 = float(z0 @ z0)
    if n0 > 1.0 + 1e-12:
        return None  # target outside the numerical range
    z = z0 + np.sqrt(max(0.0, 1.0 - n0)) * mvt[rank]
    c, p, q = z
    s = np.hypot(p, q)
    theta = 0.5 * np.arctan2(s, c)
    phase = np.exp(1j * np.arctan2(q, p)) if s > 0.0 else 1.0
    ct, st = np.cos(theta), np.sin(theta)
    return np.array([[ct, -st * np.conj(phase)], [st * phase, ct]])


def _conjugate_inplace(w: np.ndarray, q: np.ndarray, i: int, j: int, rot: np.ndarray) -> None:
    idx = [i, j]
    w[idx, :] = rot.conj().T @ w[idx, :]
    w[:, idx] = w[:, idx] @ rot
    q[:, idx] = q[:, idx] @ rot


def zero_diagonal_reduce(a, tol: float = 1e-10, max_sweeps: int = MAX_SWEEPS) -> DiagonalizationResult:
    """Unitary Q such that Q* A Q has diagonal entries below tol * ||A||_2.

    Requires trace(A) ~ 0 and raises ``NonzeroTraceError`` otherwise (no
    zero-diagonal unitary conjugate exists).  Each sweep sorts the diagonal
    by real part (imaginary part on alternate sweeps), pairs extremes, and
    replaces both entries of each pair with their midpoint; the sum is
    conserved at 0, so the diagonal contracts to zero.  A closing pass rotates entries to exact zeros where
    the local 2x2 numerical range allows, dumping the leftovers onto
    not-yet-visited partners.

    On hitting the sweep cap the best-effort result is returned with
    ``converged=False`` rather than raising.
    """
    a = as_matrix(a, square=True)
    m = a.shape[0]
    scale = hs_norm(a)
    require_trace_zero(a, scale)
    w = a.copy()
    q = np.eye(m, dtype=complex)
    if scale == 0.0 or m == 1:
        # a 1x1 matrix of trace zero is exactly zero
        return DiagonalizationResult(q, w, 0.0, True, 0)

    target = min(tol, 1e-13) * scale
    sweeps_done = 0
    for sweep in range(max_sweeps):
        d = np.diag(w)
        if float(np.max(np.abs(d))) <= target:
            break
        key = d.real if sweep % 2 == 0 else d.imag
        order = np.argsort(key, kind="stable")
        for k in range(m // 2):
            i, j = int(order[k]), int(order[m - 1 - k])
            dii, djj = w[i, i], w[j, j]
            if abs(dii - djj) <= 0.25 * target:
                continue
            block = np.array([[w[i, i], w[i, j]], [w[j, i], w[j, j]]])
            rot = _attaining_rotation(block, 0.5 * (dii + djj))
            if rot is None:
                continue
            _conjugate_inplace(w, q, i, j, rot)
        sweeps_done = sweep + 1

    # Exact-zero chain: visit entries largest first; a rotation on (i, j)
    # moves the whole 2x2 trace onto j, so partners are drawn from the
    # unvisited set and finished entries stay exactly zero.
    d = np.diag(w)
    order = [int(i) for i in np.argsort(-np.abs(d), kind="stable")]
    remaining = set(order)
    for i in order:
        remaining.discard(i)
        if w[i, i] == 0.0 or not remaining:
            continue
        coupling = np.abs(w[i, :]) + np.abs(w[:, i])
        for j in sorted(remaining, key=lambda t: -coupling[t]):
            block = np.array([[w[i, i], w[i, j]], [w[j, i], w[j, j]]])
            rot = _attaining_rotation(block, 0.0)
            if rot is None:
                continue
            _conjugate_inplace(w, q, i, j, rot)
            w[i, i] = 0.0
            break

    resid = float(np.max(np.abs(np.diag(w))))
    return DiagonalizationResult(
        q=q,
        atilde=w,
        diag_residual=resid,
        converged=resid <= tol * scale,
        sweeps=sweeps_done,
    )


def apply_conjugation(q, m) -> np.ndarray:
    """Return Q M Q* after checking that Q is unitary."""
    q = as_matrix(q, square=True)
    m = as_matrix(m, square=True)
    if q.shape != m.shape:
        raise ValueError(f"dimension mismatch: {q.shape} vs {m.shape}")
    n = q.shape[0]
    if hs_norm(q.conj().T @ q - np.eye(n)) > 1e-10 * n:
        raise ValueError("Q is not unitary")
    return q @ m @ q.conj().T
