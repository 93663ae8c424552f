"""Commutator factorization A = [B, C] with B normal and a certified bound.

After reducing A to zero diagonal, B is a diagonal matrix of Gaussian
integers drawn as a random permutation of the canonical lattice set, and C
is forced entrywise: c_ij = a_ij / (b_i - b_j).  Over the permutation the
expected ||C||_2^2 equals ||A||_2^2 times the lattice pair expectation, so
a small number of trials finds a realization with
||B|| * ||C||_2 <= sqrt(O(1) + log m) * ||A||_2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import gaussian_points, radius_bound
from .linalg import _certify_bracket, as_matrix, commutator, hs_norm, unit_defect
from .reduction import zero_diagonal_reduce

__all__ = [
    "FactorizationCertificate",
    "c_from_b",
    "certified_factorization",
    "factor",
    "RATIO_WINDOW",
    "RNG_NAME",
]

# Calibrated additive constant in the certified bound sqrt(RATIO_WINDOW + log m).
# Empirically ratio^2 - log m stays below 0 for the default trial budget; 10.0
# is the assertion window used by the verification suite.
RATIO_WINDOW = 10.0

RNG_NAME = "numpy-pcg64-fisher-yates"

ZERO_DIAG_TOL = 1e-8  # c_from_b accepts max |a_ii| <= ZERO_DIAG_TOL ||A-tilde||_2
NORMALITY_TOL = 1e-10  # valid needs 2 delta (1 + delta) <= NORMALITY_TOL, delta = ||Q*Q - I||_2
LATTICE_SLACK = 1e-9  # valid needs ||B|| <= radius_bound(m) + LATTICE_SLACK

DEFAULT_TRIALS = 32


@dataclass
class FactorizationCertificate:
    """Output contract of ``factor``: the factors plus checkable numbers.

    ``ratio`` is ||B|| * ||C||_2 / ||A||_2 and ``bound`` the calibrated
    sqrt(RATIO_WINDOW + log m) envelope; ``valid`` certifies the residual,
    normality of B, and the lattice bound on ||B||.  ``op_norm_b`` is the
    eigenframe bound (1 + unitarity_defect) max |b_i| >= ||B||, and the
    normality of B is certified from ``unitarity_defect`` as well.
    """

    m: int
    b: np.ndarray
    c: np.ndarray
    q: np.ndarray
    residual: float
    op_norm_b: float
    hs_norm_c: float
    hs_norm_a: float
    ratio: float
    bound: float
    seed: int
    trials: int
    valid: bool
    rng: str = RNG_NAME
    diag_residual: float = 0.0
    reduction_converged: bool = True
    best_trial: int = 0
    unitarity_defect: float = 0.0  # ||Q*Q - I||_2, which op_norm_b and normality rest on


def c_from_b(atilde, b) -> np.ndarray:
    """Solve [diag(b), C] = A-tilde entrywise: c_ij = a_ij / (b_i - b_j).

    Requires A-tilde zero-diagonal and the b_i pairwise distinct.  The
    diagonal of C is free (it commutes with diag(b)); zero minimizes
    ||C||_2.
    """
    atilde = as_matrix(atilde, square=True)
    dmax = float(np.max(np.abs(np.diag(atilde)))) if atilde.size else 0.0
    if dmax > ZERO_DIAG_TOL * hs_norm(atilde):
        raise ValueError(f"matrix diagonal is not zero (max |a_ii| = {dmax:.3e})")
    bvec = np.asarray(b, dtype=complex).ravel()
    m = atilde.shape[0]
    if len(bvec) != m:
        raise ValueError(f"need {m} diagonal values, got {len(bvec)}")
    diff = bvec[:, None] - bvec[None, :]
    np.fill_diagonal(diff, 1.0)
    if np.any(diff == 0.0):
        raise ValueError("diagonal values must be pairwise distinct")
    c = atilde / diff
    np.fill_diagonal(c, 0.0)
    return c


def _fisher_yates(rng: np.random.Generator, n: int) -> np.ndarray:
    """Shuffle 0..n-1: swap i with a uniform j in [0, i] for i = n-1 down to 1.

    All j come from one ``integers`` call with the bounds as an array; it
    draws the same stream, value by value, as one call per step.
    """
    perm = list(range(n))
    for i, j in zip(range(n - 1, 0, -1), rng.integers(0, np.arange(n, 1, -1)).tolist()):
        perm[i], perm[j] = perm[j], perm[i]
    return np.array(perm, dtype=np.intp)


def _scaled_abs2(atilde: np.ndarray) -> np.ndarray:
    """|a_ij|^2 after scaling A-tilde by a power of two to max |a_ij| in [0.5, 1).

    The scale is exact, so objectives keep their order (and their bits up to
    the same power of two), but squares of entries near 1e300 stay finite.
    """
    moduli = np.abs(atilde)
    peak = float(np.max(moduli, initial=0.0))
    np.ldexp(moduli, -np.frexp(peak)[1], out=moduli)
    return np.square(moduli, out=moduli)


def _assignment_objective(abs2: np.ndarray, inv_d: np.ndarray, perm: np.ndarray) -> float:
    """||C||_2^2 for the assignment b_i = points[perm[i]]."""
    return float(np.sum(abs2 * inv_d[np.ix_(perm, perm)]))


def factor(a, trials: int = DEFAULT_TRIALS, seed: int = 0) -> FactorizationCertificate:
    """Factor a trace-zero matrix as [B, C] with B normal.

    Each trial shuffles the lattice points with a Fisher-Yates pass seeded
    at ``seed + trial`` and keeps the assignment with minimal ||C||_2 (ties
    resolved by lowest trial index).  The reduction's tolerances are
    ``reduction.DIAG_TOL`` and ``reduction.SWEEP_TARGET``; it raises
    ``NonzeroTraceError`` for a matrix of nonzero trace.

    B = Q diag(b) Q* is certified in its eigenframe, with no factorization
    of B, by ``certified_factorization``.
    """
    a = as_matrix(a, square=True)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    m = a.shape[0]
    red = zero_diagonal_reduce(a)
    atilde = red.atilde.copy()
    np.fill_diagonal(atilde, 0.0)  # residual diagonal is certified separately
    points = gaussian_points(m)

    abs2 = _scaled_abs2(atilde)
    diff = points[:, None] - points[None, :]
    d2 = diff.real**2 + diff.imag**2
    np.fill_diagonal(d2, 1.0)
    inv_d = 1.0 / d2
    np.fill_diagonal(inv_d, 0.0)

    best_obj = math.inf
    best_perm = None
    best_trial = 0
    for trial in range(trials):
        rng = np.random.default_rng(seed + trial)
        perm = _fisher_yates(rng, m)
        obj = _assignment_objective(abs2, inv_d, perm)
        if obj < best_obj:
            best_obj, best_perm, best_trial = obj, perm, trial
    if best_perm is None:
        raise np.linalg.LinAlgError(f"no assignment trial gave a finite ||C||_2^2 (last: {obj})")

    bvec = points[best_perm]
    ctilde = c_from_b(atilde, bvec) if m > 1 else np.zeros((1, 1), dtype=complex)

    q = red.q
    qh = q.conj().T
    b = q @ (bvec[:, None] * qh)  # Q diag(b) Q*
    c = q @ ctilde @ qh
    return certified_factorization(
        a, b, c, q, bvec, bracket=commutator(b, c), seed=seed, trials=trials, best_trial=best_trial,
        reduction_converged=red.converged, diag_residual=red.diag_residual,
    )


def certified_factorization(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    q: np.ndarray,
    bvec: np.ndarray,
    *,
    bracket: np.ndarray,
    seed: int,
    trials: int,
    best_trial: int = 0,
    reduction_converged: bool = True,
    diag_residual: float = 0.0,
) -> FactorizationCertificate:
    """Certify B = Q diag(bvec) Q* and C as a factorization of A, in B's eigenframe.

    With the unitarity defect delta = ||Q*Q - I||_2 (one GEMM),
    ||B|| <= (1 + delta) max |b_i| is the certified ``op_norm_b``, and
    2 delta (1 + delta) <= NORMALITY_TOL implies ||BB* - B*B||_2 <=
    NORMALITY_TOL max |b_i|^2, which is at most NORMALITY_TOL op_norm_b^2.
    The residual ||A - [B, C]||_2 is measured on ``bracket``, the caller's
    [B, C] of the given B and C, and ||C||_2 on C, by ``certify``'s rule.
    The remaining keywords are recorded as given;
    ``reduction_converged`` also gates ``valid``.
    """
    m = a.shape[0]
    # ||Q||^2 = ||Q* Q|| <= 1 + defect, so ||B|| <= (1 + defect) max |b_i|
    defect = unit_defect(q) if m > 1 else 0.0
    check = _certify_bracket(a, bracket, c, (1.0 + defect) * float(np.max(np.abs(bvec))))
    op_b = check.op_norm_b
    bound = math.sqrt(RATIO_WINDOW + math.log(m)) if m > 1 else math.sqrt(RATIO_WINDOW)

    # BB* - B*B = Q (D E D* - D* E D) Q* with D = diag(b) and E = Q*Q - I, so
    # ||BB* - B*B||_2 <= 2 defect (1 + defect) max |b_i|^2 <= NORMALITY_TOL op_b^2 here
    valid = (
        reduction_converged
        and check.residual_ok
        and 2.0 * defect * (1.0 + defect) <= NORMALITY_TOL
        and op_b <= radius_bound(m) + LATTICE_SLACK
    )
    return FactorizationCertificate(
        m=m,
        b=b,
        c=c,
        q=q,
        residual=check.residual,
        op_norm_b=op_b,
        hs_norm_c=check.hs_norm_c,
        hs_norm_a=check.hs_norm_a,
        ratio=check.ratio,
        bound=bound,
        seed=seed,
        trials=trials,
        valid=valid,
        diag_residual=diag_residual,
        reduction_converged=reduction_converged,
        best_trial=best_trial,
        unitarity_defect=defect,
    )
