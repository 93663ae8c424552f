"""Commutator factorization A = [B, C] with B normal and a certified bound.

After reducing A to zero diagonal, B is a diagonal matrix of Gaussian
integers drawn as a random permutation of the canonical lattice set, and C
is forced entrywise: c_ij = a_ij / (b_i - b_j).  Over the permutation the
expected ||C||_2^2 equals ||A||_2^2 times the lattice pair expectation, so
a small number of trials finds a realization with
||B|| * ||C||_2 <= sqrt(O(1) + log m) * ||A||_2.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .lattice import LatticePointSet, gaussian_points, pair_expectation
from .linalg import as_matrix, certify, hs_norm
from .reduction import zero_diagonal_reduce

__all__ = [
    "FactorizationCertificate",
    "c_from_b",
    "factor",
    "mean_c2_over_permutations",
    "local_swap_improve",
    "RATIO_WINDOW",
    "RNG_NAME",
]

# Calibrated additive constant in the certified bound sqrt(RATIO_WINDOW + log m).
# Empirically ratio^2 - log m stays below 0 for the default trial budget; 10.0
# is the assertion window used by the verification suite.
RATIO_WINDOW = 10.0

RNG_NAME = "numpy-pcg64-fisher-yates"

DEFAULT_TRIALS = 32


@dataclass
class FactorizationCertificate:
    """Output contract of ``factor``: the factors plus checkable numbers.

    ``ratio`` is ||B|| * ||C||_2 / ||A||_2 and ``bound`` the calibrated
    sqrt(RATIO_WINDOW + log m) envelope; ``valid`` certifies the residual,
    normality of B, and the lattice bound on ||B||.
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


def _check_zero_diagonal(atilde: np.ndarray) -> None:
    dmax = float(np.max(np.abs(np.diag(atilde)))) if atilde.size else 0.0
    if dmax > 1e-8 * hs_norm(atilde):
        raise ValueError(f"matrix diagonal is not zero (max |a_ii| = {dmax:.3e})")


def c_from_b(atilde, b) -> np.ndarray:
    """Solve [diag(b), C] = A-tilde entrywise: c_ij = a_ij / (b_i - b_j).

    Requires A-tilde zero-diagonal and the b_i pairwise distinct.  The
    diagonal of C is free (it commutes with diag(b)); zero minimizes
    ||C||_2.
    """
    atilde = as_matrix(atilde, square=True)
    _check_zero_diagonal(atilde)
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
    perm = np.arange(n)
    for i in range(n - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        perm[i], perm[j] = perm[j], perm[i]
    return perm


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


def factor(
    a,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    optimize_assignment: bool = False,
    tol: float = 1e-10,
) -> FactorizationCertificate:
    """Factor a trace-zero matrix as [B, C] with B normal.

    Each trial shuffles the lattice points with a Fisher-Yates pass seeded
    at ``seed + trial`` and keeps the assignment with minimal ||C||_2 (ties
    resolved by lowest trial index).  ``optimize_assignment`` follows up
    with deterministic pairwise-swap descent on the winning assignment.
    ``tol`` is the zero-diagonal tolerance passed to the reduction, which
    raises ``NonzeroTraceError`` for a matrix of nonzero trace.
    """
    a = as_matrix(a, square=True)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    m = a.shape[0]
    red = zero_diagonal_reduce(a, tol=tol)
    atilde = red.atilde.copy()
    np.fill_diagonal(atilde, 0.0)  # residual diagonal is certified separately
    points = gaussian_points(m).points

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
    if optimize_assignment:
        bvec = local_swap_improve(atilde, bvec)
    ctilde = c_from_b(atilde, bvec) if m > 1 else np.zeros((1, 1), dtype=complex)

    q = red.q
    b = q @ (bvec[:, None] * q.conj().T)  # Q diag(b) Q*
    c = q @ ctilde @ q.conj().T
    check = certify(a, b, c)
    op_b = check.op_norm_b
    bound = math.sqrt(RATIO_WINDOW + math.log(m)) if m > 1 else math.sqrt(RATIO_WINDOW)

    defect = hs_norm(b @ b.conj().T - b.conj().T @ b)
    valid = (
        red.converged
        and check.residual_ok
        and defect <= 1e-10 * op_b**2
        and op_b <= 1.0 + math.sqrt(m / math.pi) + 1e-9
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
        diag_residual=red.diag_residual,
        reduction_converged=red.converged,
        best_trial=best_trial,
    )


def mean_c2_over_permutations(atilde, points: LatticePointSet) -> float:
    """Exact average of ||C||_2^2 over all m! assignments of the points.

    The brute-force side of the expectation identity: the result equals
    ||A-tilde||_2^2 times the pair expectation of the point set.
    """
    atilde = as_matrix(atilde, square=True)
    _check_zero_diagonal(atilde)
    m = atilde.shape[0]
    if m > 8:
        raise ValueError(f"m = {m} too large for factorial enumeration (max 8)")
    pts = np.asarray(points.points, dtype=complex).ravel()
    if len(pts) != m:
        raise ValueError(f"need {m} points, got {len(pts)}")
    abs2 = np.abs(atilde) ** 2
    diff = pts[:, None] - pts[None, :]
    d2 = diff.real**2 + diff.imag**2
    np.fill_diagonal(d2, 1.0)
    if np.any(d2 == 0.0):
        raise ValueError("points must be pairwise distinct")
    inv_d = 1.0 / d2
    np.fill_diagonal(inv_d, 0.0)
    total = 0.0
    count = 0
    for sigma in itertools.permutations(range(m)):
        total += _assignment_objective(abs2, inv_d, np.array(sigma))
        count += 1
    return total / count


def local_swap_improve(atilde, b, max_passes: int = 4) -> np.ndarray:
    """Pairwise-swap descent on sum |a_ij|^2 / |b_i - b_j|^2.

    Applies any transposition of the assignment that strictly decreases the
    objective, sweeping until a pass makes no change or the pass budget is
    exhausted.  The multiset of values is preserved.
    """
    atilde = as_matrix(atilde, square=True)
    _check_zero_diagonal(atilde)
    bvec = np.asarray(b, dtype=complex).ravel().copy()
    m = atilde.shape[0]
    if len(bvec) != m:
        raise ValueError(f"need {m} diagonal values, got {len(bvec)}")
    abs2 = _scaled_abs2(atilde)

    def objective(vec: np.ndarray) -> float:
        diff = vec[:, None] - vec[None, :]
        d2 = diff.real**2 + diff.imag**2
        np.fill_diagonal(d2, np.inf)
        return float(np.sum(abs2 / d2))

    current = objective(bvec)
    for _ in range(max_passes):
        improved = False
        for i in range(m - 1):
            for j in range(i + 1, m):
                cand = bvec.copy()
                cand[i], cand[j] = cand[j], cand[i]
                value = objective(cand)
                if value < current:
                    bvec, current = cand, value
                    improved = True
        if not improved:
            break
    return bvec


def expectation_identity_gap(atilde, points: LatticePointSet) -> float:
    """Relative gap between the m! average and the closed-form expectation."""
    mean = mean_c2_over_permutations(atilde, points)
    closed = hs_norm(atilde) ** 2 * pair_expectation(points).expectation
    if closed == 0.0:
        return abs(mean)
    return abs(mean - closed) / abs(closed)
