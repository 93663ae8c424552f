"""Unitary reduction of trace-zero matrices to zero diagonal.

The workhorse is a 2x2 primitive: for any 2x2 block and any target value
inside the block's numerical range (an ellipse centered at half the trace),
there is a closed-form unitary whose conjugation puts the target in the
(0,0) slot.  Rotations of disjoint pairs commute, so every step rotates a
whole set of pairs at once, as parallel Jacobi methods do (Brent and Luk,
SIAM J. Sci. Stat. Comput. 6, 1985): one stacked solve, one update of the
rows and one of the columns.  At most ceil(log2 m) averaging sweeps drive
every diagonal entry toward the common mean trace/m = 0; at m = 2^k the k
sweeps reach it, since each doubles the multiplicity of equal entries.  At
every other m, rounds of exact-zeroing steps finish the work.  A diagonal
A = D starts from Q = F, the unitary DFT: F* D F is circulant with every
diagonal entry tr(D)/m, so it usually needs neither.  A is first scaled by
an exact power of two to max |a_ij| in [0.5, 1), so Q does not depend on
the scale of A.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import _circulant, as_matrix, hs_norm, require_trace_zero

__all__ = ["DiagonalizationResult", "zero_diagonal_reduce"]

DIAG_TOL = 1e-10  # converged iff every |a~_ii| <= DIAG_TOL ||A||_2
SWEEP_TARGET = 1e-13  # the averaging sweeps stop once the diagonal is below SWEEP_TARGET ||A||_2


@dataclass
class DiagonalizationResult:
    """Unitary Q and A-tilde = Q* A Q with (near-)zero diagonal."""

    q: np.ndarray
    atilde: np.ndarray
    diag_residual: float
    converged: bool
    sweeps: int


def _attaining_rotations(blocks: np.ndarray, targets: np.ndarray):
    """2x2 unitaries U_k with (U_k* blocks[k] U_k)[0,0] == targets[k].

    Returns the (k, 2, 2) stack of U_k and a mask of the k that have one;
    the other U_k are meaningless.  Writing candidate unit vectors as
    (cos t, sin t * e^{i f}), the attained value is an affine image of
    (cos 2t, sin 2t cos f, sin 2t sin f), a point of the unit 2-sphere.
    Hitting the target is a linear system on the sphere: take the min-norm
    solution of the 2x3 system and walk along the null space back to unit
    length.  No solution iff the target lies outside the numerical range.
    """
    b11, b12, b21, b22 = blocks[:, 0, 0], blocks[:, 0, 1], blocks[:, 1, 0], blocks[:, 1, 1]
    w = targets - 0.5 * (b11 + b22)
    coef = np.stack([0.5 * (b11 - b22), 0.5 * (b12 + b21), 0.5j * (b12 - b21)], axis=1)
    mat = np.stack([coef.real, coef.imag], axis=1)  # (k, 2, 3)
    rhs = np.stack([w.real, w.imag], axis=1)
    mu, ms, mvt = np.linalg.svd(mat)
    kept = ms > 1e-14 * ms[:, :1]  # rank at most 2, so a null direction exists
    coeffs = np.divide(np.einsum("kij,ki->kj", mu, rhs), ms, out=np.zeros_like(ms), where=kept)
    z0 = np.einsum("kr,krj->kj", coeffs, mvt[:, :2])
    miss = np.einsum("kij,kj->ki", mat, z0) - rhs
    # hypot, not a sum of squares: entries near 1e300 must not overflow the test;
    # a miss means a degenerate ellipse with the target off its segment
    hit = np.hypot(*miss.T) <= 1e-12 * np.maximum(np.hypot(*rhs.T), ms[:, 0])
    n0 = np.einsum("kj,kj->k", z0, z0)
    z = z0 + np.sqrt(np.maximum(0.0, 1.0 - n0))[:, None] * mvt[np.arange(len(ms)), kept.sum(1)]
    c, p, q = z.T
    s = np.hypot(p, q)
    theta = 0.5 * np.arctan2(s, c)
    phase = np.where(s > 0.0, np.exp(1j * np.arctan2(q, p)), 1.0)
    ct, st = np.cos(theta), np.sin(theta)
    rots = np.stack([ct, -st * np.conj(phase), st * phase, ct], axis=1).reshape(-1, 2, 2)
    return rots, hit & (n0 <= 1.0 + 1e-12)


def _rotate(w, qh, transposed, pairs, targets, most=np.inf):
    """Conjugate W by the rotations that put targets[k] on pairs[k, 0], pairs disjoint.

    Only the first ``most`` pairs that have a rotation turn; with most=1 the
    pairs may overlap.  Q* and W are updated by rows, W's strided columns by a
    transpose and rows again: (U* W U)^T = U^T (U* W)^T.  Returns W (transposed
    iff the returned flag is set), the flag and the first index of each rotated pair.
    """
    blocks = w[pairs[:, :, None], pairs[:, None, :]]
    rots, ok = _attaining_rotations(blocks.transpose(0, 2, 1) if transposed else blocks, targets)
    ok &= np.cumsum(ok) <= most
    pairs, rots = pairs[ok], rots[ok]
    if len(pairs):
        first, second = rots.conj().transpose(0, 2, 1), rots.transpose(0, 2, 1)
        qh[pairs] = first @ qh[pairs]
        if transposed:
            first, second = second, first
        w[pairs] = first @ w[pairs]
        w = w.T.copy()
        w[pairs] = second @ w[pairs]
        transposed = not transposed
    return w, transposed, pairs[:, 0]


def zero_diagonal_reduce(a) -> DiagonalizationResult:
    """Unitary Q such that Q* A Q has diagonal entries below DIAG_TOL * ||A||_2.

    Requires trace(A) ~ 0 and raises ``NonzeroTraceError`` otherwise (no
    zero-diagonal unitary conjugate exists).  Each sweep sorts the diagonal
    by real part (imaginary part on alternate sweeps), pairs extremes, and
    replaces both entries of each pair with their midpoint; the sum is
    conserved at 0, so the diagonal contracts to zero; the sweeps stop
    below SWEEP_TARGET * ||A||_2 or after ceil(log2 m) of them, whichever
    comes first.  Pairs within SWEEP_TARGET * ||A||_2 / 4 of each other
    are left alone, and a sweep that leaves every pair alone makes no solve
    and is not counted in ``sweeps``.  A diagonal A starts from Q = F, the
    unitary DFT: every diagonal entry of F* A F is tr(A)/m, so no sweep
    rotates a pair.  While an entry is above roundoff
    (eps * ||A||_HS) after the sweeps, rounds pair the largest live entries
    with the smallest, reversed, and rotate 0 onto the larger of each pair;
    it is set to exactly 0 and leaves the live set, and its partner takes the
    pair's 2x2 trace.  If no pair of a round allows that, the largest live
    entry takes its most coupled partner that does: a live one if any, else a
    finished slot, whose 0 puts 0 in the block's numerical range, but none
    that such a move zeroed since a round's pairs last turned: refilling one
    could only carry the live entries around a cycle.  The rounds end when no
    partner does, at one live entry, or after 2m rounds.

    Only an entry the rounds cannot zero leaves the diagonal above
    DIAG_TOL * ||A||_2; the best-effort result is then returned with
    ``converged=False`` rather than raising.
    """
    a = as_matrix(a, square=True)
    m = a.shape[0]
    require_trace_zero(a, hs_norm(a))
    # an exact power-of-two scale to max |a_ij| in [0.5, 1): the same Q at every scale of A
    exp = int(np.frexp(np.max(np.abs(a), initial=0.0))[1])
    w = np.ldexp(np.ascontiguousarray(a).view(float), -exp).view(complex)
    scale = hs_norm(w)
    qh = np.eye(m, dtype=complex)  # Q*, so that Q too is updated by rows
    if scale == 0.0 or m == 1:
        # a 1x1 matrix of trace zero is exactly zero
        return DiagonalizationResult(qh, a.copy(), 0.0, True, 0)
    d = np.diag(w)
    if np.count_nonzero(w) == np.count_nonzero(d):
        # (F* D F)[j, k] = g[(k - j) mod m] with g = fft(d)/m, diagonal g[0] = tr/m
        f = np.fft.fft(np.eye(m), norm="ortho")
        qh = np.ascontiguousarray(f.conj().T)
        g = np.fft.fft(d) / m
        w = _circulant(g[-np.arange(m)])  # first column g[-j mod m]

    target = SWEEP_TARGET * scale
    sweeps_done = 0
    transposed = False  # w holds W^T after an odd number of rotation steps
    for sweep in range((m - 1).bit_length()):  # ceil(log2 m) sweeps at most
        d = np.diag(w)
        if float(np.max(np.abs(d))) <= target:
            break
        order = np.argsort(d.real if sweep % 2 == 0 else d.imag, kind="stable")
        pairs = np.stack([order[: m // 2], order[::-1][: m // 2]], axis=1)
        pairs = pairs[np.abs(d[pairs[:, 0]] - d[pairs[:, 1]]) > 0.25 * target]
        if len(pairs):  # equal entries, as a drifted trace leaves them, need no solve
            w, transposed, _ = _rotate(w, qh, transposed, pairs, d[pairs].mean(axis=1))
            sweeps_done += 1

    vacated = []  # the slots zeroed by fallbacks since a round's pairs last turned: none is refilled
    for _ in range(2 * m):
        size = np.abs(np.diag(w))
        order = np.argsort(-size, kind="stable")[: np.count_nonzero(size)]  # the live entries
        if len(order) < 2 or size[order[0]] <= np.finfo(float).eps * scale:
            break  # at roundoff, rotations would only add rounding error
        pairs = np.stack([order[: len(order) // 2], order[::-1][: len(order) // 2]], axis=1)
        w, transposed, done = _rotate(w, qh, transposed, pairs, 0.0)
        fallback = not len(done)
        if fallback:  # the largest live entry takes its most coupled partner that allows it
            i = order[0]
            rest = np.delete(np.arange(m), [i, *vacated])
            key = np.lexsort((-np.abs(w[i, rest]) - np.abs(w[rest, i]), size[rest] == 0))  # live ones first
            pairs = np.stack([np.full(len(rest), i), rest[key]], axis=1)
            w, transposed, done = _rotate(w, qh, transposed, pairs, 0.0, most=1)
        if not len(done):
            break  # no partner has a rotation, so every later round would be this one
        w[done, done] = 0.0
        vacated = vacated + done.tolist() if fallback else []
    w = w.T.copy() if transposed else w

    resid = float(np.max(np.abs(np.diag(w))))
    return DiagonalizationResult(
        q=np.ascontiguousarray(qh.conj().T),
        atilde=np.ldexp(w.view(float), exp).view(complex),
        diag_residual=float(np.ldexp(resid, exp)),
        converged=resid <= DIAG_TOL * scale,
        sweeps=sweeps_done,
    )
