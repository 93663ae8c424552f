"""Verification chain for the sharpness of the commutator norm bound.

The witness is A = P - (1/m) I with P the projection onto the first
coordinate.  For any factorization A = [B, C] with ||B|| = 1, compressing
onto the degree filtration seeded at range(P) telescopes the trace of A
into boundary blocks of C.  Every step is unitarily invariant, so the
chain may run in any frame, with P the projection M M* onto its seed M
there: e_1 in the standard frame, 1/sqrt(m) in B's eigenframe.  It yields:

  * per-degree trace inequalities
      1 - (1/m) sum_{k<=n} rank P_k  <=  ||P_{n+1} C P_n||_1 + ||P_n C P_{n+1}||_1,
  * partial-sum bounds on the singular values of C
      (sum of l largest) >= sqrt(l)/6, and >= (k+1)/4 at triangular l,
  * and the log-level lower bound ||B|| ||C||_2 / ||A||_2 >= quarter_log_sum(m)^(1/2),
    about (log m)^(1/2) / 2.

Apart from ``witness_factorization``, the witness's factorization in
closed form, everything here is a checker: it takes a factorization and
measures the inequalities at explicit tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .factorizer import FactorizationCertificate, _fisher_yates, certified_factorization
from .filtration import Filtration, StructureReport, _bracket, _build_filtration, verify_filtration_structure
from .lattice import gaussian_points
from .linalg import _circulant, _root_sum_squares, hs_norm, residual_ok

__all__ = [
    "extremal_matrix",
    "witness_factorization",
    "quarter_log_sum",
    "verify_trace_inequality",
    "construct_partial_isometries",
    "isometry_norm_bounds",
    "partial_isometry_residuals",
    "verify_partial_sums",
    "verify_hs_lower_bound",
    "lower_bound_report",
    "TraceIneqRecord",
    "PartialSumRecord",
    "HsLowerRecord",
    "LowerBoundReport",
]

TRACE_INEQ_TOL = 1e-8  # slack of the per-degree trace inequalities and of the links of hs_lower
WITNESS_RESIDUAL_TOL = 1e-9
ISOMETRY_TOL = 1e-9
PARTIAL_SUM_TOL = 1e-9
UNIT_NORM_TOL = 1e-10  # the trace check needs |norm_b - 1| <= UNIT_NORM_TOL for the ||B|| it is given
ISOMETRY_NORM_TOL = 1e-10  # the bounds on ||V|| and ||W|| must be at most 1 + ISOMETRY_NORM_TOL


def extremal_matrix(m: int) -> np.ndarray:
    """diag(1 - 1/m, -1/m, ..., -1/m): the lower-bound witness."""
    return np.diag(_witness_diagonal(m))


def _witness_diagonal(m: int) -> np.ndarray:
    """The diagonal of ``extremal_matrix(m)``.

    The head entry is the compensated negative of the tail so the diagonal
    sums to zero to the last ulp (exactly, for power-of-two m).
    """
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    d = -1.0 / m
    head = -math.fsum([d] * (m - 1))
    diag = np.full(m, d, dtype=complex)
    diag[0] = head
    return diag


def witness_factorization(points, seed: int = 0) -> FactorizationCertificate:
    """The witness matrix as [B, C] in closed form, with ``points`` as B's eigenvalues.

    The unitary DFT F takes A = e_1 e_1* - I/m to F* A F = (J - I)/m: a
    zero diagonal and every other entry 1/m.  So no reduction and no
    permutation trial is needed, and ||C-tilde||_2 is the same for every
    order of the points.  With z = ``points``,

        C-tilde = c_from_b((J - I)/m, z),  B = F diag(z) F*,  C = F C-tilde F*.

    B is the circulant whose first column is fft(z)/m, so it is exactly
    normal; C takes one FFT down the columns and one inverse FFT along the
    rows.  The pair is certified by ``factor``'s rule, but in B's spectrum:
    ||B|| lies in the interval that ``_circulant_norm_interval`` proves from
    a direct DFT sum, and [B, C] is formed by FFTs, as the DFT diagonalizes
    B, and not by two m x m products.  No DFT matrix is formed, so the
    certificate's ``q`` is None; ``seed`` is only recorded.  The points of
    ``factor``'s first trial at seed s give
    ``factor(extremal_matrix(m), trials=1, seed=s)`` up to rounding.
    """
    z = np.asarray(points, dtype=complex).ravel()
    return _witness_certificate(z, _witness_ctilde(z), seed)


def _witness_ctilde(z: np.ndarray) -> np.ndarray:
    """C-tilde = c_from_b((J - I)/m, z): the witness's C in the eigenframe of B = F diag(z) F*.

    It is formed in one buffer: (1/m + 0j) / (z_i - z_j) off the diagonal,
    the same complex division as c_from_b's, so the same bits, and zero on
    it.  z_i - z_j is 0 only where z_i = z_j, so distinct points are checked
    on z sorted.
    """
    m = len(z)
    ordered = np.sort(z)
    if np.any(ordered[1:] == ordered[:-1]):
        raise ValueError("diagonal values must be pairwise distinct")
    ctilde = np.subtract.outer(z, z)
    np.fill_diagonal(ctilde, 1.0)
    np.divide(1.0 / m + 0j, ctilde, out=ctilde)
    np.fill_diagonal(ctilde, 0.0)
    return ctilde


def _witness_certificate(z: np.ndarray, ctilde: np.ndarray, seed: int) -> FactorizationCertificate:
    """``witness_factorization`` of the points z, given their C-tilde.

    B is filled from beta = fft(z)/m by index, so it is circ(beta) exactly,
    and the residual is measured on the stored B and C, as ``factor``
    measures its own; A enters as its diagonal, so no m x m A is formed.
    """
    m = len(z)
    diagonal = _witness_diagonal(m)
    beta = np.fft.fft(z) / m
    b = _circulant(beta)
    c = np.fft.ifft(np.fft.fft(ctilde, axis=0, norm="ortho"), axis=1, norm="ortho")
    peak, delta = _circulant_norm_interval(beta)
    return certified_factorization(diagonal, b, c, peak, delta, bracket=_circulant_commutator(beta, c),
                                   seed=seed, trials=1)


def _circulant_commutator(beta: np.ndarray, c: np.ndarray) -> np.ndarray:
    """[B, C] for the circulant B[j, k] = beta[(j - k) mod m], by four FFT passes and no m x m product.

    The DFT diagonalizes every circulant (P. J. Davis, Circulant Matrices,
    1979): with lambda = fft(beta), B C is a circular convolution down each
    column of C, ifft(lambda * fft(C)) by columns, and C B one along each
    row, fft(ifft(C) * lambda) by rows.  A GEMM's computed product errs by
    O(u m) ||B||_F ||C||_F, u the unit roundoff; the FFTs' by
    O(u log m) ||B||_F ||C||_F (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., ch. 24), so the residual rule's rounding argument
    holds with a smaller constant.
    """
    lam = np.fft.fft(beta)
    bc = np.fft.ifft(lam[:, None] * np.fft.fft(c, axis=0), axis=0)
    bc -= np.fft.fft(np.fft.ifft(c, axis=1) * lam, axis=1)
    return bc


def _circulant_norm_interval(beta: np.ndarray) -> tuple[float, float]:
    """(p, delta) with (1 - delta) p <= ||circ(beta)|| <= (1 + delta) p, in O(m^2) flops and no FFT.

    circ(beta), B[j, k] = beta[(j - k) mod m], is normal with eigenvalues
    lambda_k = sum_j beta_j w^(jk), w = exp(-2 pi i/m), so ||B|| = max |lambda_k|.
    An FFT would give them in O(m log m), but numpy's mixed-radix and
    Bluestein paths have no error bound to quote; a direct sum has one at
    every m.  With j = j1 W + j0, W = ceil(sqrt(m)) and beta zero-padded to
    n1 = ceil(m / W) rows of W, it is
        lambda_k = sum_j1 w^(k j1 W) sum_j0 beta_(j1 W + j0) w^(k j0):
    one (m x W) by (W x n1) product and a sum of n1 terms per k, with every
    twiddle read from the table w^t, t = 0..m-1, so only m x W and m x n1
    index arrays are formed.  Its error, with u = 2^-53 (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., ch. 3):
      * each table entry is within mu = 32u of w^t: the angle 2 pi t / m
        takes three roundings, 2 pi gamma_3 < 19u, and cos and sin are
        taken within 4 ulps, 8u each;
      * a computed product of two entries is then within 2 mu + mu^2;
      * the inner sum is two real inner products of length 2W, in any order
        and with or without fused multiply-adds, so it errs by at most
        sqrt(2) gamma_2W sum |beta_j| |w-hat|; the product by the outer
        twiddle adds sqrt(2) gamma_2 and the outer sum gamma_(n1 - 1).
    So |lambda-hat_k - lambda_k| <= (sqrt(2) (2W + n1 + 1) + 64) u ||beta||_1
    to first order in u, and eps = (1.5 (2W + n1) + 67) u s, s the computed
    ||beta||_1, covers it with the second-order terms for m < 2^32.
    delta = eps / p + 8u, p the computed max |lambda-hat_k|, also covers
    the rounding of |.|, of delta and of (1 + delta) p.
    """
    m = len(beta)
    width = math.isqrt(m - 1) + 1  # W = ceil(sqrt(m))
    rows = -(-m // width)
    padded = np.zeros(rows * width, dtype=complex)
    padded[:m] = beta
    table = _dft_twiddles(m)
    k = np.arange(m)
    inner = table[np.multiply.outer(k, np.arange(width)) % m] @ padded.reshape(rows, width).T
    inner *= table[np.multiply.outer(k, width * np.arange(rows)) % m]
    peak = float(np.max(np.abs(inner.sum(axis=1))))
    eps = (1.5 * (2 * width + rows) + 67.0) * 2.0**-53 * float(np.sum(np.abs(beta)))
    return peak, eps / peak + 8.0 * 2.0**-53


def _dft_twiddles(m: int) -> np.ndarray:
    """The table w^t = cos(2 pi t/m) - i sin(2 pi t/m), t = 0..m-1."""
    angle = 2.0 * np.pi * np.arange(m) / m
    table = np.empty(m, dtype=complex)
    table.real = np.cos(angle)
    table.imag = -np.sin(angle)
    return table


def _triangular(n: int) -> int:
    return (n + 2) * (n + 1) // 2


def quarter_log_sum(m: int) -> float:
    """Sum of (1 - T_n/m)^2 / (2(n+1)) over n with T_n = (n+1)(n+2)/2 < m.

    Tracks log(m)/4 within a small constant: the gap, this minus log(m)/4,
    measured over every m in [4, 10^6], lies in [-0.0497, 0.0864].
    """
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    total = 0.0
    n = 0
    while _triangular(n) < m:
        total += (1.0 - _triangular(n) / m) ** 2 / (2.0 * (n + 1))
        n += 1
    return total


@dataclass
class TraceIneqRecord:
    n: int
    lhs: float            # 1 - (1/m) sum_{k<=n} rank P_k
    rhs: float            # ||P_{n+1} C P_n||_1 + ||P_n C P_{n+1}||_1
    slack: float
    passed: bool
    rank_cum: int
    normbd_bound: float   # 1 - binom(n+2, 2)/m
    normbd_passed: bool


def verify_trace_inequality(filt: Filtration, norm_b: float) -> list[TraceIneqRecord]:
    """Per-degree trace inequality records for a normalized factorization.

    ``filt`` is built from (C, B), C its S and B its T, in any frame: the
    witness there is M M* - I/m, with M = ``filt.blocks[0]`` the seed.  That
    is ``extremal_matrix`` for M = e_1, and (J - I)/m for M = 1/sqrt(m),
    the image of e_1 under the unitary DFT.  ``norm_b`` is ||B|| as the
    caller knows it, measured or certified; the check never measures it.
    Requires |norm_b - 1| <= UNIT_NORM_TOL (rescale (B, C) ->
    (B/||B||, C ||B||) first, which leaves the commutator unchanged) and
    ||M M* - I/m - [B, C]||_2 within the residual rule, judged with norm_b.
    A 1-d T is diag(T), and [B, C] is then formed entrywise.  A seed of k
    columns makes a target of trace k - 1, which no commutator reproduces,
    so the residual rule refuses it.  Ranks are the filtration's numerical
    dimensions, and the rhs at degree n is sum sigma(X_n) + sum sigma(Y_n)
    from the boundary-block SVDs shared with the partial isometries.
    Degrees past the last block use an empty block, so an exhausted
    filtration yields lhs <= 0 and the record passes trivially.
    """
    m = filt.s.shape[0]
    if abs(norm_b - 1.0) > UNIT_NORM_TOL:
        raise ValueError("B is not normalized to unit operator norm")
    if not residual_ok(_witness_residual(filt), norm_b, hs_norm(filt.s), WITNESS_RESIDUAL_TOL):
        raise ValueError("[B, C] does not reproduce the witness matrix")
    nuclear = [float(np.sum(x[1])) + float(np.sum(y[1])) for x, y in filt.boundary_svds]
    records = []
    rank_cum = 0
    for n in range(len(filt.blocks)):
        rank_cum += filt.dims[n]
        lhs = 1.0 - rank_cum / m
        rhs = nuclear[n] if n < len(nuclear) else 0.0
        normbd_bound = 1.0 - _triangular(n) / m
        records.append(
            TraceIneqRecord(
                n=n,
                lhs=lhs,
                rhs=rhs,
                slack=rhs - lhs,
                passed=rhs >= lhs - TRACE_INEQ_TOL,
                rank_cum=rank_cum,
                normbd_bound=normbd_bound,
                normbd_passed=rhs >= normbd_bound - TRACE_INEQ_TOL,
            )
        )
    return records


def _witness_residual(filt: Filtration) -> float:
    """||M M* - I/m - [B, C]||_2, formed in [B, C]'s buffer; M M* - I/m is the only other m x m array."""
    seed = filt.blocks[0]
    target = seed @ seed.conj().T
    target[np.diag_indices(len(target))] -= 1.0 / len(target)
    residual = _bracket(filt.t, filt.s)
    return hs_norm(np.subtract(target, residual, out=residual))


def construct_partial_isometries(filt: Filtration) -> tuple[np.ndarray, np.ndarray]:
    """Partial isometries V, W moving block n+1 back onto block n, for C = ``filt.s``.

    Per block pair, the polar factors U V^H of X_n = B_{n+1}* C B_n and
    Y_n = B_{n+1}* C* B_n, taken from the boundary-block SVDs shared with
    the trace inequality, are assembled so that

        P_n V C  P_n = |P_{n+1} C  P_n|   and
        P_n W C* P_n = |P_{n+1} C* P_n|.

    Each of V and W is one product L H*, where H is ``filt.basis`` from
    block 1 on and L stacks B_n (U V^H)* of the matching pairs.  Block
    supports are orthogonal, so all singular values of V and W lie in
    [0, 1]; ``isometry_norm_bounds`` certifies that in floats without an
    SVD.  The report needs neither matrix: ``partial_isometry_residuals``
    checks the identities in block coordinates.  These are the paper's V
    and W as m x m matrices, for callers that want them.
    """
    m = filt.s.shape[0]
    svds = filt.boundary_svds
    if not svds:  # a single block: nothing to move
        return np.zeros((m, m), dtype=complex), np.zeros((m, m), dtype=complex)
    hi_h = filt.basis[:, filt.dims[0]:].conj().T  # H*, shared by V and W
    lo_iso = np.empty((m, hi_h.shape[0]), dtype=complex)  # L, refilled for W
    ends = np.cumsum(filt.dims[1:])
    products = []
    for factors in zip(*svds):  # the SVDs of every X_n, then of every Y_n
        for lo, (u_, _, vh_), end in zip(filt.blocks, factors, ends):
            lo_iso[:, end - u_.shape[0] : end] = lo @ (u_ @ vh_).conj().T
        products.append(lo_iso @ hi_h)
    v, w = products
    return v, w


def _polar_bound(factors) -> float:
    """Upper bound on max_n ||U_n V_n^H|| over thin SVD factors (U_n, sigma_n, V_n^H).

    Each factor's ||U^H U - I||_2 or ||V^H V - I||_2 comes from its r x r
    Gram with 1 taken off the diagonal in place, summed as ``hs_norm`` sums:
    ``unit_defect``'s number without its conversions, copies and identity.
    """
    def defect(gram: np.ndarray) -> float:
        gram.flat[:: len(gram) + 1] -= 1.0
        return _root_sum_squares(gram.ravel().view(float))

    return math.sqrt(max(
        ((1.0 + defect(u_.conj().T @ u_)) * (1.0 + defect(vh_ @ vh_.conj().T)) for u_, _, vh_ in factors),
        default=0.0,
    ))


def isometry_norm_bounds(filt: Filtration) -> tuple[float, float]:
    """Certified upper bounds on ||V|| and ||W||.

    V = basis K basis*, where K holds (U_n V_n^H)* in block (n, n+1).  Those
    blocks lie in disjoint block rows and columns, so ||K|| is the largest
    ||U_n V_n^H||, and ||V|| <= (1 + delta_H) max_n ||U_n V_n^H|| with
    delta_H = ||basis* basis - I||_2, the filtration's ``basis_defect``, read
    from its Gram (``filt.gram``, formed by the build and shared with
    ``partial_isometry_residuals``).
    Each ||U_n V_n^H||^2 is at most (1 + ||U_n^H U_n - I||_2)(1 + ||V_n^H V_n - I||_2),
    read from the shared boundary-block SVDs; W is bounded alike from the
    factors of Y_n.  Returns (bound on ||V||, bound on ||W||).
    """
    svds = filt.boundary_svds
    scale = 1.0 + filt.basis_defect
    return scale * _polar_bound(x for x, _ in svds), scale * _polar_bound(y for _, y in svds)


def partial_isometry_residuals(filt: Filtration) -> tuple[float, float]:
    """Max deviation of the two displayed identities over all block pairs, for C = ``filt.s``.

    With V = basis K basis* (K holds (U_n V_n^H)* in block (n, n+1)), the
    left side B_n* V C B_n is block (n, n) of Gram K G_S, where
    Gram = basis* basis (``filt.gram``) and G_S = basis* C basis
    (``filt.compression_s``): the same product as B_n* (V C) B_n, with its
    factors grouped differently.  So P = Gram K is formed one column block
    at a time, in place in one buffer, then only the diagonal blocks of
    P G_S, and every product is block sized; W alike, with the factors of
    Y_n and G_S*, in the same buffer.  The right
    sides |X_n| = R* diag(sigma) R (R the right singular factor) come from
    the shared boundary-block SVDs.
    """
    svds = filt.boundary_svds
    if not svds:  # a single block: nothing to move
        return 0.0, 0.0
    gram, comp, spans, d0 = filt.gram, filt.compression_s, filt.spans, filt.dims[0]
    # block column n of G_S and of G_S* from block row 1 on: B_{k+1}* C B_n and B_{k+1}* C* B_n
    columns = (lambda lo: comp[d0:, lo], lambda lo: comp[lo, d0:].conj().T)
    p = np.empty((gram.shape[0], gram.shape[0] - d0), dtype=complex)  # P's block columns from block 1 on
    res = []
    for factors, column in zip(zip(*svds), columns):  # the SVDs of every X_n, then of every Y_n
        for lo, hi, (u_, _, vh_) in zip(spans, spans[1:], factors):
            np.matmul(gram[:, lo], (u_ @ vh_).conj().T, out=p[:, hi.start - d0 : hi.stop - d0])
        res.append(max(
            hs_norm(p[lo] @ column(lo) - vh_.conj().T @ (s_[:, None] * vh_))
            for lo, (_, s_, vh_) in zip(spans, factors)
        ))
    return res[0], res[1]


@dataclass
class PartialSumRecord:
    l: int
    sum: float  # certified lower bound on the sum of C's l largest singular values
    bound: float
    passed: bool


def verify_partial_sums(filt: Filtration) -> tuple[list[PartialSumRecord], list[PartialSumRecord]]:
    """Leading singular-value sums of C against sqrt(l)/6, and (k+1)/4 at l = (k+1)(k+2)/2.

    ``filt`` is built from (C, B), C its S: C must come from a factorization
    of the witness matrix with B normalized to unit operator norm.  No SVD
    of C is taken.  The sum at l is a certified lower bound on ||C||_(l),
    the sum of C's l largest singular values (Ky Fan's l-norm): the larger,
    at that l, of the cumulative sums of the sorted union of sigma(X_n) and
    of the sorted union of sigma(Y_n), read from the shared boundary-block
    SVDs, divided by (1 + delta_H), delta_H = ||basis* basis - I||_2 the
    filtration's cached ``basis_defect``.  The proof, for the X side:

      1. Let G = basis* C basis (``filt.compression_s``) and K its band of
         blocks (n+1, n), the X_n.  With p = blocks + 1, w = exp(2 pi i/p)
         and D = diag(w^n I) on block n, K = (1/p) sum_r w^-r D^r G D^-r: a
         pinching, the average of p unitary conjugates of G times unimodular
         scalars, as block (i, j) survives the average iff i - j = 1 mod p,
         which for block indices i, j in 0..p-2 means i - j = 1.
      2. Ky Fan norms are unitarily invariant and convex, and
         ||X Y Z||_(l) <= ||X|| ||Y||_(l) ||Z||, so, as ||basis||^2 = ||basis* basis||,
         ||K||_(l) <= ||G||_(l) <= ||basis||^2 ||C||_(l) <= (1 + delta_H) ||C||_(l).
      3. The X_n share no block rows or columns, so K* K is block diagonal
         and sigma(K) is the union of the sigma(X_n): ||K||_(l) is their
         cumulative sum.
      4. The band of blocks (n, n+1), whose adjoints are the Y_n, is the
         pinching at i - j = -1, so the Y side holds alike.

    Rounding: G and the block SVDs are backward stable, so each singular
    value moves by about sqrt(m) u ||C|| (u the unit roundoff) and a sum of
    at most m of them by about m^1.5 u ||C||, 4e-12 ||C|| at m = 1024: far
    inside PARTIAL_SUM_TOL.
    Returns the records for every l in 1..m, then the triangular records
    for every k >= 0 with (k+1)(k+2) <= m.
    """
    m = filt.s.shape[0]
    band = np.zeros((2, m))  # the union of sigma(X_n), then of sigma(Y_n), zero-padded
    for row, factors in zip(band, zip(*filt.boundary_svds)):
        sigma = np.concatenate([s_ for _, s_, _ in factors])
        row[: len(sigma)] = np.sort(sigma)[::-1]
    sums = np.max(np.cumsum(band, axis=1), axis=0) / (1.0 + filt.basis_defect)

    def record(l: int, bound: float) -> PartialSumRecord:
        total = float(sums[l - 1])
        return PartialSumRecord(l=l, sum=total, bound=bound, passed=total >= bound - PARTIAL_SUM_TOL)

    records = [record(l, math.sqrt(l) / 6.0) for l in range(1, m + 1)]
    triangular = [record(_triangular(k), (k + 1) / 4.0)
                  for k in range(math.isqrt(m)) if (k + 1) * (k + 2) <= m]
    return records, triangular


@dataclass
class HsLowerRecord:
    """Both sides of each link of the chain behind ratio^2 >= quarter_log_sum(m)."""

    quarter_log_sum: float  # quarter_log_sum(m)
    rhs_sum: float          # sum over the trace records of rhs_n^2 / (2(n+1))
    c_bound: float          # (1 + delta_H)^2 ||C||_2^2
    ratio_sq: float         # (||B|| ||C||_2 / ||A||_2)^2 at the certified lower end of ||B||
    passed: bool


def verify_hs_lower_bound(filt: Filtration, trace_records, norm_b: float) -> HsLowerRecord:
    """The log-level lower bound ratio^2 >= quarter_log_sum(m), with no fitted constant.

    ``filt`` is built from (C, B), C its S and B its T, ``trace_records``
    are ``verify_trace_inequality``'s for it, and ``norm_b`` is a certified
    lower bound on ||B||.  Each link is judged at TRACE_INEQ_TOL:

      1. quarter_log_sum(m) <= sum_n rhs_n^2 / (2(n+1)), as rhs_n >= 1 - T_n/m
         (``normbd_passed``) for every n with T_n < m.
      2. That sum <= (1 + delta_H)^2 ||C||_2^2, delta_H = ||basis* basis - I||_2:
         with d_n <= n+1 (``structure.dims_ok``), ||X_n||_1 <= sqrt(n+1) ||X_n||_2, so
         rhs_n^2 <= 2(n+1)(||X_n||_2^2 + ||Y_n||_2^2); X_n and Y_n* are distinct
         blocks of basis* C basis, whose ||.||_2 is at most (1 + delta_H) ||C||_2.
      3. Hence ratio^2 = ||B||^2 ||C||_2^2 / ||A||_2^2 >= quarter_log_sum(m),
         with ||B|| taken at ``norm_b``.

    It reads the records' rhs, the filtration's cached ``basis_defect`` and
    ||C||_2, and forms no commutator, SVD or matrix product.
    """
    m = filt.s.shape[0]
    lower = quarter_log_sum(m)
    rhs_sum = math.fsum(r.rhs**2 / (2.0 * (r.n + 1)) for r in trace_records)
    hs_c = hs_norm(filt.s)
    c_bound = ((1.0 + filt.basis_defect) * hs_c) ** 2
    ratio_sq = (norm_b * hs_c) ** 2 / (1.0 - 1.0 / m)  # ||A||_2^2 = 1 - 1/m for the witness
    return HsLowerRecord(
        quarter_log_sum=lower,
        rhs_sum=rhs_sum,
        c_bound=c_bound,
        ratio_sq=ratio_sq,
        passed=(lower <= rhs_sum + TRACE_INEQ_TOL and rhs_sum <= c_bound + TRACE_INEQ_TOL
                and lower <= ratio_sq + TRACE_INEQ_TOL),
    )


@dataclass
class LowerBoundReport:
    """End-to-end verification record for one witness factorization."""

    m: int
    normalization: float
    trace_records: list[TraceIneqRecord]
    partial_sums: list[PartialSumRecord]
    partial_sums_triangular: list[PartialSumRecord]
    hs_lower: HsLowerRecord
    iso_residual_v: float
    iso_residual_w: float
    v_norm: float
    w_norm: float
    structure: StructureReport  # the filtration lemma's hypothesis and conclusions, dims among them
    filtration_complete: bool = True
    certificate: FactorizationCertificate | None = None
    basis_defect: float = 0.0  # ||basis* basis - I||_2 of the filtration, behind v_norm and w_norm

    @property
    def dims(self) -> list[int]:
        return self.structure.dims

    @property
    def all_strict_passed(self) -> bool:
        """Every constant-free inequality at its stated tolerance."""
        return bool(
            all(r.passed and r.normbd_passed for r in self.trace_records)
            and all(r.passed for r in self.partial_sums + self.partial_sums_triangular)
            and self.iso_residual_v <= ISOMETRY_TOL
            and self.iso_residual_w <= ISOMETRY_TOL
            and self.v_norm <= 1.0 + ISOMETRY_NORM_TOL
            and self.w_norm <= 1.0 + ISOMETRY_NORM_TOL
            and self.structure.all_ok
            and self.filtration_complete
            and self.hs_lower.passed
        )


def lower_bound_report(
    m: int,
    trials: int = 32,
    seed: int = 0,
    certificate: FactorizationCertificate | None = None,
) -> LowerBoundReport:
    """Factor the witness matrix and run the whole lower-bound chain on it.

    The factorization is ``witness_factorization`` of the lattice points in
    the order that ``factor``'s first trial at ``seed`` draws, over their
    largest modulus beta (``normalization``): ``factor(extremal_matrix(m),
    trials=1, seed=seed)`` up to rounding and the scale beta.  It is the
    report's ``certificate``; ``trials`` has no effect, as every order of
    the points gives the same ||C||_2.

    Every number the chain checks is unitarily invariant, so the chain runs
    in B's eigenframe: F* (B, C) F = (D, C-tilde) with D = diag(z), z the
    unit points, C-tilde the certificate's own, and F* e_1 = 1/sqrt(m), the
    all-ones vector over sqrt(m).  The filtration is built from (C-tilde, z)
    seeded there, so T = D is a row scaling and the build applies it by no
    m x m product.  C-tilde is formed once: the build keeps it with no
    copy, and the certificate is taken from it after the checks, once the
    filtration is dropped, so the certificate's m x m arrays and the
    filtration's are never held together.  The witness there is the seed's
    M M* - I/m = (J - I)/m, and the trace check forms [D, C-tilde]
    entrywise, so no commutator is formed beyond the certificate's, which
    takes its [B, C] by FFTs with no m x m product.  No SVD measures
    ||B||: ||B|| = ||D|| = max |z_i| exactly, and numpy's complex abs
    (hypot) is within one ulp, so the computed peak p = max |z_i| has
    ||D|| >= (1 - 2^-52) p; the trace check and the structure check take
    (1 - 2^-51) p, whose rounding keeps it below that, which can only
    tighten each tolerance.  No SVD
    measures ||C|| either: the structure check takes the certified lower
    end max sigma_1(X_n or Y_n) / (1 + delta_H), ``partial_sums[0].sum``,
    so the report factors no m x m matrix.

    A ``certificate`` passed in is verified in its own frame instead,
    seeded at e_1, where M M* - I/m = A, and rescaled by its op_norm_b =
    (1 + delta) peak (C absorbs the factor), with delta its
    ``unitarity_defect``.  Its interval (1 -+ delta) peak holds ||B||, so the
    rescaled ||B|| is at least (1 - delta)/(1 + delta), the lower end the
    trace check and the structure check take; the trace check refuses a lower end not within
    UNIT_NORM_TOL of 1.  Each branch builds its filtration and its
    ``norm_b`` alone, and one ``verify_trace_inequality`` call follows both:
    it measures [B, C] against the seed's witness, as a certificate may be
    for another matrix.
    """
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    # [B, C] + I/m maps into the seed's span, so words in B and C reorder modulo
    # lower degrees and span{B^k C^l M} = span{C^k B^l M}: the chain may be built
    # with C in the S slot, C applied to each newest orthonormal block and B^n M
    # as the T-chain.  B is normal with a spread spectrum, so B^n M keeps a large
    # part outside V_(n-1); C^n M collapses onto C's top singular vectors, and a
    # chain grown on it leaves T-block residuals near 1e-8 at m=256.
    if certificate is None:
        points = gaussian_points(m)[_fisher_yates(np.random.default_rng(seed), m)]
        scale = float(np.max(np.abs(points)))
        unit = points / scale
        ctilde = _witness_ctilde(unit)
        # the report owns C-tilde, so the build keeps it, read-only, with no copy
        filt = _build_filtration(ctilde, unit, np.full((m, 1), 1.0 / math.sqrt(m), dtype=complex))
        norm_b = (1.0 - 2.0**-51) * float(np.max(np.abs(unit)))  # the lower end of ||D|| = max |z_i|
    else:
        if certificate.m != m:
            raise ValueError(f"certificate is for m={certificate.m}, expected {m}")
        scale = certificate.op_norm_b
        e1 = np.zeros((m, 1), dtype=complex)
        e1[0, 0] = 1.0
        filt = _build_filtration(certificate.c * scale, certificate.b / scale, e1)
        # the certified lower end of ||B / op_norm_b||, whose upper end is 1
        delta = certificate.unitarity_defect
        norm_b = (1.0 - delta) / (1.0 + delta)
    report = _check_chain(filt, scale, norm_b)
    del filt  # the certificate's FFT passes below never meet the filtration's m x m arrays
    report.certificate = certificate if certificate is not None else _witness_certificate(unit, ctilde, seed)
    return report


def _check_chain(filt: Filtration, scale: float, norm_b: float) -> LowerBoundReport:
    """Every check of ``lower_bound_report`` on its filtration, with no certificate yet."""
    trace_records = verify_trace_inequality(filt, norm_b)
    res_v, res_w = partial_isometry_residuals(filt)
    v_norm, w_norm = isometry_norm_bounds(filt)
    psums, psums_triangular = verify_partial_sums(filt)
    hs_lower = verify_hs_lower_bound(filt, trace_records, norm_b)
    return LowerBoundReport(
        m=filt.s.shape[0],
        normalization=scale,
        trace_records=trace_records,
        partial_sums=psums,
        partial_sums_triangular=psums_triangular,
        hs_lower=hs_lower,
        iso_residual_v=res_v,
        iso_residual_w=res_w,
        v_norm=v_norm,
        w_norm=w_norm,
        structure=verify_filtration_structure(filt, psums[0].sum, norm_b),
        filtration_complete=filt.complete(),
        basis_defect=filt.basis_defect,
    )
