"""Shared test inputs, and brute-force references the package does not ship.

``is_normal``, ``mean_c2_over_permutations`` / ``expectation_identity_gap``
and ``quarter_log_sum_sweep`` are independent references: the acceptance
criteria compare the package's factorizations and closed forms against them.
"""

import itertools
import math

import numpy as np
import pytest

from traceless.lattice import LatticePointSet, pair_expectation
from traceless.linalg import hs_norm, operator_norm


def random_complex(rng: np.random.Generator, m: int) -> np.ndarray:
    return rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))


def random_trace_zero(rng: np.random.Generator, m: int) -> np.ndarray:
    a = random_complex(rng, m) / np.sqrt(2.0 * m)
    a -= (np.trace(a) / m) * np.eye(m)
    return a


def random_zero_diagonal(rng: np.random.Generator, m: int) -> np.ndarray:
    a = random_complex(rng, m)
    np.fill_diagonal(a, 0.0)
    return a


def random_unitary(rng: np.random.Generator, m: int) -> np.ndarray:
    q, r = np.linalg.qr(random_complex(rng, m))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


def is_normal(m, tol: float = 1e-10) -> bool:
    """True iff ||M M* - M* M||_2 <= tol * ||M||^2."""
    m = np.asarray(m, dtype=complex)
    defect = hs_norm(m @ m.conj().T - m.conj().T @ m)
    return defect <= tol * operator_norm(m) ** 2


def mean_c2_over_permutations(atilde, points: LatticePointSet) -> float:
    """Exact average of ||C||_2^2 = sum |a_ij|^2 / |b_i - b_j|^2 over all m! assignments b."""
    atilde = np.asarray(atilde, dtype=complex)
    m = atilde.shape[0]
    if m > 8:
        raise ValueError(f"m = {m} too large for factorial enumeration (max 8)")
    pts = np.asarray(points.points, dtype=complex)
    d2 = np.abs(pts[:, None] - pts[None, :]) ** 2
    np.fill_diagonal(d2, np.inf)
    inv_d = 1.0 / d2
    abs2 = np.abs(atilde) ** 2
    total = sum(
        float(np.sum(abs2 * inv_d[np.ix_(perm, perm)]))
        for perm in map(list, itertools.permutations(range(m)))
    )
    return total / math.factorial(m)


def expectation_identity_gap(atilde, points: LatticePointSet) -> float:
    """Relative gap between the m! average and ||A-tilde||_2^2 times the pair expectation."""
    mean = mean_c2_over_permutations(atilde, points)
    closed = hs_norm(atilde) ** 2 * pair_expectation(points).expectation
    if closed == 0.0:
        return abs(mean)
    return abs(mean - closed) / abs(closed)


def quarter_log_sum_sweep(m_values) -> np.ndarray:
    """``lowerbound.quarter_log_sum`` over an array of m, from prefix sums over n.

    Expanding (1 - T_n/m)^2 makes each term a combination of three prefix
    sums, so the whole range [4, 10^6] evaluates in milliseconds.
    """
    ms = np.asarray(m_values, dtype=np.float64)
    n_hi = int(math.isqrt(8 * int(ms.max()))) + 3
    ns = np.arange(n_hi, dtype=np.float64)
    tri = (ns + 1.0) * (ns + 2.0) / 2.0
    w = 1.0 / (2.0 * (ns + 1.0))
    c0 = np.concatenate([[0.0], np.cumsum(w)])
    c1 = np.concatenate([[0.0], np.cumsum(w * tri)])
    c2 = np.concatenate([[0.0], np.cumsum(w * tri * tri)])
    count = np.searchsorted(tri, ms, side="left")
    return c0[count] - (2.0 / ms) * c1[count] + (1.0 / ms**2) * c2[count]
