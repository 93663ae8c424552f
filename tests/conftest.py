"""Shared test inputs, and brute-force references the package does not ship.

``is_normal``, ``mean_c2_over_permutations`` / ``expectation_identity_gap``
and ``quarter_log_sum_sweep`` are independent references: the acceptance
criteria compare the package's factorizations and closed forms against them.
``exact_witness_dims`` gives the witness filtration's dims by exact
arithmetic, for the float build to match.  The ``skewed_q`` fixture feeds
``factor`` a Q that is not unitary, for the certificate to refuse.
"""

import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest

import traceless.factorizer
from traceless.lattice import gaussian_points, pair_expectation
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


@pytest.fixture
def skewed_q(monkeypatch):
    """Make ``factor``'s reduction return Q with its first column scaled by 1 + 1e-6."""
    orig = traceless.factorizer.zero_diagonal_reduce

    def skewed(a):
        red = orig(a)
        q = red.q.copy()
        q[:, 0] *= 1.0 + 1e-6
        return dataclasses.replace(red, q=q)

    monkeypatch.setattr(traceless.factorizer, "zero_diagonal_reduce", skewed)


def is_normal(m, tol: float = 1e-10) -> bool:
    """True iff ||M M* - M* M||_2 <= tol * ||M||^2."""
    m = np.asarray(m, dtype=complex)
    defect = hs_norm(m @ m.conj().T - m.conj().T @ m)
    return defect <= tol * operator_norm(m) ** 2


def mean_c2_over_permutations(atilde, points) -> float:
    """Exact average of ||C||_2^2 = sum |a_ij|^2 / |b_i - b_j|^2 over all m! assignments b."""
    atilde = np.asarray(atilde, dtype=complex)
    m = atilde.shape[0]
    if m > 8:
        raise ValueError(f"m = {m} too large for factorial enumeration (max 8)")
    pts = np.asarray(points, dtype=complex)
    d2 = np.abs(pts[:, None] - pts[None, :]) ** 2
    np.fill_diagonal(d2, np.inf)
    inv_d = 1.0 / d2
    abs2 = np.abs(atilde) ** 2
    total = sum(
        float(np.sum(abs2 * inv_d[np.ix_(perm, perm)]))
        for perm in map(list, itertools.permutations(range(m)))
    )
    return total / math.factorial(m)


def expectation_identity_gap(atilde, points) -> float:
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


def _matvec_mod(mat, vec, p):
    """mat @ vec mod p for int64 entries in [0, p), p < 2^31, inner dimension < 2^21; ``vec`` may be a matrix.

    Both operands are split into 16-bit halves.  Every product of halves is
    below 2^32 and every sum of them below 2^53, so the float64 products of
    the halves are exact integers, in whatever order BLAS sums them.
    """
    out = 0
    for i, a in enumerate((mat & 0xFFFF, mat >> 16)):
        for j, b in enumerate((vec & 0xFFFF, vec >> 16)):
            part = (a.astype(float) @ b.astype(float)).astype(np.int64) % p
            out = (out + (part << (16 * (i + j))) % p) % p
    return out


def _pow_mod(base, exp: int, p: int):
    """Elementwise base**exp mod p by square and multiply (products stay below 2^62)."""
    result = np.ones_like(base)
    while exp:
        if exp & 1:
            result = result * base % p
        base = base * base % p
        exp >>= 1
    return result


@functools.lru_cache(maxsize=None)
def exact_witness_dims(m: int, p: int) -> list[int]:
    """Dims of the degree filtration of the witness pair, computed over F_p.

    In B's eigenbasis the witness factorization is, up to scale and a
    diagonal unitary, S = diag(z) and T = the Cauchy matrix 1/(z_i - z_j)
    (zero diagonal), seeded at the all-ones vector, with z the m Gaussian
    integers of ``gaussian_points``; simultaneous permutations (the order in
    which ``factor`` assigns the points) do not change the dims.  With
    p = 1 (mod 4), i maps to a square root of -1 mod p.  Degree n
    enumerates every monomial S^k T^l 1 with k + l = n, as the filtration is
    defined, and reduces them, one degree at a time, against a reduced row
    echelon basis.
    """
    if p % 4 != 1 or pow(2, p - 1, p) != 1:
        raise ValueError(f"p = {p} is not a prime = 1 (mod 4)")
    i_p = next(r for r in (pow(g, (p - 1) // 4, p) for g in range(2, 100)) if r * r % p == p - 1)
    z = gaussian_points(m)
    zp = (z.real.astype(np.int64) + z.imag.astype(np.int64) * i_p) % p
    t = _pow_mod((zp[:, None] - zp[None, :]) % p, p - 2, p)  # 1/(z_i - z_j); 0 on the diagonal
    echelon = np.zeros((0, m), dtype=np.int64)  # rows in reduced row echelon form
    pivots = []

    def add(batch) -> int:
        """Extend the echelon form by the rows of ``batch``; the number of new directions."""
        nonlocal echelon
        if pivots:  # one product reduces every candidate against the rows so far
            batch = (batch - _matvec_mod(batch[:, pivots], echelon, p)) % p
        new, new_pivots = [], []
        for vec in batch:  # eliminate within the batch, keeping the new rows reduced among themselves
            for row, piv in zip(new, new_pivots):
                vec = (vec - vec[piv] * row) % p
            nonzero = np.flatnonzero(vec)
            if not len(nonzero):
                continue
            piv = int(nonzero[0])
            vec = vec * pow(int(vec[piv]), p - 2, p) % p
            new = [(row - row[piv] * vec) % p for row in new]
            new.append(vec)
            new_pivots.append(piv)
        if new:  # clear the new pivot columns from the old rows, again by one product
            new = np.array(new)
            if pivots:
                echelon = (echelon - _matvec_mod(echelon[:, new_pivots], new, p)) % p
            echelon = np.vstack([echelon, new])
            pivots.extend(new_pivots)
        return len(new_pivots)

    monomials = [np.ones(m, dtype=np.int64)]  # degree n: S^n 1, S^(n-1) T 1, ..., T^n 1
    add(np.array(monomials))
    dims = [1]
    for _degree in range(1, 2 * m + 1):
        if len(pivots) == m:
            break
        monomials = [zp * v % p for v in monomials] + [_matvec_mod(t, monomials[-1], p)]
        added = add(np.array(monomials))
        if not added:
            break
        dims.append(added)
    return dims
