"""Degree filtration of the subspace chain generated by two operators.

Starting from a seed subspace M, the chain V_n = span{ S^k T^l M : k+l <= n }
grows by one degree at a time; the blocks H_n = V_n minus V_{n-1} are
mutually orthogonal, have dimension at most (n+1) dim M, and force S and T
into block-tridiagonal form: P_i S P_j = P_i T P_j = 0 for i > j + 1.  Those
structural facts are exact algebra whenever [S, T] + lambda*I maps into M;
here they are reproduced with explicit numerical-rank decisions and the
residuals are reported.

The build never forms all (n+1) dim M monomials of degree n.  Every
monomial of degree n+1 except T^{n+1} M is S times one of degree n, and
S V_{n-1} lies in V_n, so V_{n+1} = V_n + S H_n + T^{n+1} M for any S, T
and M: d_n + dim M candidates per degree span what the monomials span.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate

import numpy as np

from .linalg import as_matrix, commutator, gram_defect, hs_norm, unit_defect

__all__ = ["Filtration", "StructureReport", "build_filtration", "verify_filtration_structure"]

STRUCTURE_TOL = 1e-8  # relative tolerance of verify_filtration_structure's three checks
RANK_TOL = 1e-8  # times m: a candidate is a new direction iff its new part exceeds RANK_TOL m of its norm
SEED_TOL = 1e-10  # times max(1, dim M): the seed basis M must have ||M*M - I||_2 within it
PANELS = 8  # one GEMM per panel of basis columns (cut at block boundaries); the hypothesis check's most row panels


@dataclass
class Filtration:
    """Orthonormal block bases of the chain, plus build diagnostics.

    The blocks are adjacent column ranges of ``basis``, a view of one m x m buffer;
    the first is the seed's, of width dim M = ``dims[0]``.
    """

    dims: list[int]
    rank_tolerance: float
    block_residual_s: float
    block_residual_t: float
    invariance_residual: float
    # read-only S and T (T 1-d if given as a diagonal): copies, so that changing the
    # caller's arrays changes nothing here, except where the lower-bound report hands
    # over arrays that it owns
    s: np.ndarray = field(repr=False)
    t: np.ndarray = field(repr=False)
    # read-only view of the blocks side by side
    basis: np.ndarray = field(repr=False)
    # read-only G_S = basis* S basis: block (i, j) is B_i* S B_j
    compression_s: np.ndarray = field(repr=False)
    # read-only Gram basis* basis, the identity up to rounding, exactly Hermitian
    gram: np.ndarray = field(repr=False)

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    @property
    def spans(self) -> list[slice]:
        """Column ranges of the blocks in ``basis``, and so of the block rows and columns of G_S."""
        return _spans(self.dims)

    @cached_property
    def blocks(self) -> list[np.ndarray]:
        """The orthonormal block bases B_n = basis[:, spans[n]], as read-only views."""
        return [self.basis[:, span] for span in self.spans]

    @cached_property
    def boundary(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per block pair n, (X_n, Y_n) = (B_{n+1}* S B_n, B_{n+1}* S* B_n), read from ``compression_s``.

        X_n is a view of block (n+1, n).  Y_n is the adjoint of block (n, n+1),
        a read-only copy, as conjugation cannot be a view.
        """
        comp, pairs = self.compression_s, []
        for lo, hi in zip(self.spans, self.spans[1:]):
            y = comp[lo, hi].conj().T
            y.flags.writeable = False
            pairs.append((comp[hi, lo], y))
        return pairs

    @cached_property
    def basis_defect(self) -> float:
        """delta_H = ||basis* basis - I||_2, read from ``gram`` on first use."""
        return gram_defect(self.gram)

    @cached_property
    def boundary_svds(self) -> list[tuple[tuple, tuple]]:
        """Thin SVDs (U, sigma, V^H) of each ``boundary`` pair, computed on first use."""
        return [tuple(np.linalg.svd(x, full_matrices=False) for x in pair) for pair in self.boundary]

    def complete(self) -> bool:
        """Whether the chain spans the whole space."""
        return self.total_dim == self.basis.shape[0]


def _project_once(basis: np.ndarray, vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One classical Gram-Schmidt pass: ``vecs`` less their components in span(basis), and basis* vecs.

    basis* vecs is formed as (vecs* basis)*, which conjugates the few
    columns of ``vecs`` instead of copying the basis.
    """
    coef = (vecs.conj().T @ basis).conj().T
    return vecs - basis @ coef, coef


def _project_out(basis: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Remove basis components twice (classical reorthogonalization: "twice is enough").

    The build uses it only within a degree, against the directions that
    degree has accepted before a rejected candidate; against the whole basis
    each candidate gets one pass before its rank decision and one before the
    block's QR.
    """
    return _project_once(basis, _project_once(basis, vecs)[0])[0]


def _new_directions(cands: np.ndarray, norms0: np.ndarray, rank_tol: float, out: np.ndarray) -> int:
    """Write the new directions among the columns of ``cands`` into ``out``; return how many.

    Candidate j is new iff its part orthogonal to the candidates accepted
    before it exceeds ``rank_tol`` times ``norms0[j]``, and ``out`` has a
    column left.  One Householder QR decides a run of candidates: |R_jj| is
    the norm of column j's part orthogonal to the columns before it, and
    while all of those were accepted, that is the rule.  After a rejection
    the candidates that follow are projected twice against the accepted
    directions and the QR restarts on them.  The accepted directions are
    the QR's orthonormal columns.
    """
    na = 0
    while cands.shape[1] and na < out.shape[1]:
        if na:
            cands = _project_out(out[:, :na], cands)
        q, r = np.linalg.qr(cands)
        new = np.abs(r.diagonal()) > rank_tol * norms0[: r.shape[0]]
        run = min(len(new) if new.all() else int(np.argmin(new)), out.shape[1] - na)
        out[:, na : na + run] = q[:, :run]
        na += run
        cands, norms0 = cands[:, run + 1 :], norms0[run + 1 :]  # past the rejected one
    return na


def _panels(starts: list[int]) -> list[tuple[int, int]]:
    """Block ranges [a, b) of the compression's column panels: PANELS of about equal width, cut at block starts."""
    nb, last = starts[-1], len(starts) - 1
    cuts = {int(np.searchsorted(starts, p * nb / PANELS)) for p in range(1, PANELS)}
    bounds = [0, *sorted(cut for cut in cuts if 0 < cut < last), last]
    return list(zip(bounds, bounds[1:]))


def _far_block_norm(panel: np.ndarray, rows: np.ndarray, cols: np.ndarray, far: np.ndarray) -> float:
    """The largest Frobenius norm over the blocks of ``panel`` that ``far`` selects; ``panel`` is overwritten.

    ``panel`` is C-contiguous, its block rows start at ``rows`` and its block
    columns at ``cols``; all its block sums of squares come from one
    ``reduceat`` per axis.  The entries are squared, in place, only after
    scaling by the power of two that brings the panel's largest real or
    imaginary part into [0.5, 1), as in ``hs_norm``: that scaling is exact,
    so the squares neither under- nor overflow and a power-of-two scale of
    the operator scales the norm by the same power, bit for bit.
    """
    part = panel.view(float)  # re and im side by side
    peak = max(float(part.max(initial=0.0)), -float(part.min(initial=0.0)))
    if peak == 0.0:
        return 0.0
    exp = int(np.frexp(peak)[1])
    np.square(np.ldexp(part, -exp, out=part), out=part)
    sums = np.add.reduceat(np.add.reduceat(part, rows, axis=0), 2 * cols, axis=1)
    return float(np.ldexp(np.sqrt(np.max(sums[far])), exp))


def _bracket(t: np.ndarray, s: np.ndarray) -> np.ndarray:
    """[T, S] = TS - ST.  A 1-d T is diag(T): entrywise (t_i - t_j) s_ij, with no m x m product."""
    if t.ndim == 1:
        out = np.subtract.outer(t, t)
        out *= s
        return out
    return commutator(t, s)


def _spans(dims) -> list[slice]:
    """Adjacent index ranges of widths ``dims``, starting at 0."""
    ends = list(accumulate(dims))
    return [slice(end - d, end) for end, d in zip(ends, dims)]


def _chain_compression(basis, dims, image_s, t, comp):
    """Finish G_S, form the Gram, and measure both block residuals and the invariance residual.

    ``basis`` holds the blocks side by side, ``dims`` their widths,
    ``image_s`` is S basis and ``t`` is T, 1-d for a diagonal.  ``comp``
    holds G_S = basis* S basis in block rows 0..j of each block column j,
    which the build's first Gram-Schmidt pass formed, except for the last
    block column of a complete span; this fills the rest of it in place.
    Returns S's and T's block residuals, the largest ||P_i op P_j||_2 over
    i > j + 1, the summed invariance residual ||op basis - basis G||_2 and
    the Gram basis* basis.

    The basis columns are cut into ``_panels``.  For a panel from block a
    on, one GEMM forms basis[:, start_a:]* [S B | B | T B] over the panel's
    columns B: G_S's rows below the blocks that the first pass formed, the
    Gram's lower block triangle, mirrored into its upper one so that the
    Gram is exactly Hermitian, and T's far blocks; each of S's and T's
    panels then gives its far-block norms from one ``reduceat`` per axis.
    A 1-d T scales the panel's rows, so T basis is never formed whole.  On
    an incomplete span each image keeps a part outside the span, and the
    invariance residual needs the whole of G_S and G_T: there the rows of
    G_T above the panel are formed as well, and G_S is whole once the
    panel's rows are in.  On a complete span that part is zero.
    """
    m, nb = basis.shape
    starts = [0, *accumulate(dims)]
    last, complete = len(dims) - 1, nb == m
    gram = np.empty((nb, nb), dtype=complex, order="F")
    res_s = res_t = 0.0
    outside_s, outside_t = [], []
    for a, b in _panels(starts):
        c0, c1 = starts[a], starts[b]
        w = c1 - c0
        stack = np.empty((m, 3 * w), dtype=complex, order="F")  # conj([S B | B | T B])
        np.conjugate(image_s[:, c0:c1], out=stack[:, :w])
        np.conjugate(basis[:, c0:c1], out=stack[:, w : 2 * w])
        if t.ndim == 1:
            np.multiply(stack[:, w : 2 * w], t.conj()[:, None], out=stack[:, 2 * w :])
        else:
            np.conjugate(t @ basis[:, c0:c1], out=stack[:, 2 * w :])
        r = stack.T @ basis[:, c0:]  # the adjoints of G_S, Gram and G_T in these columns, from row c0 on
        r_s, r_g, r_t = r[:w], r[w : 2 * w], r[2 * w :]
        for q in range(a, b):
            lo, hi = starts[q] - c0, starts[q + 1] - c0
            row = c0 if complete and q == last else starts[q + 1]  # below the first pass's rows
            comp[row:, c0 + lo : c0 + hi] = r_s[lo:hi, row - c0 :].conj().T
        if complete and b == last + 1:  # the last block column's rows above the panel
            lo = starts[last] - c0
            comp[:c0, starts[last] :] = (stack[:, lo:w].T @ basis[:, :c0]).conj().T
        gram[c0:, c0:c1] = r_g.conj().T
        gram[c0:c1, c1:] = r_g[:, w:]
        diag = gram[c0:c1, c0:c1]
        lower = np.tril(diag, -1)
        diag[...] = lower + lower.conj().T + np.diag(diag.diagonal().real)
        if not complete:
            upper_t = stack[:, 2 * w :].T @ basis[:, :c0]
            g_t = np.hstack([upper_t, r_t]).conj().T  # G_T's column panel
            outside_s.append(hs_norm(image_s[:, c0:c1] - basis @ comp[:, c0:c1]))
            outside_t.append(hs_norm(stack[:, 2 * w :].conj() - basis @ g_t))
        rows = np.asarray(starts[a:b]) - c0
        cols = np.asarray(starts[a : last + 1]) - c0
        far = np.arange(last + 1 - a)[None, :] > np.arange(b - a)[:, None] + 1  # block i > block j + 1
        if far.any():
            res_s = max(res_s, _far_block_norm(r_s, rows, cols, far))
            res_t = max(res_t, _far_block_norm(r_t, rows, cols, far))
        del stack, r, r_s, r_g, r_t  # before the next panel's are made
    inv = math.hypot(*outside_s) + math.hypot(*outside_t)
    return res_s, res_t, inv, gram


def build_filtration(s, t, m_basis) -> Filtration:
    """Grow the degree filtration seeded at the span of ``m_basis`` columns.

    The candidates of degree n are S H_{n-1} (S applied to the newest
    block's orthonormal columns), then T^n M (the unnormalized T-chain, one
    product per degree); by V_n = V_{n-1} + S H_{n-1} + T^n M they span
    what all monomials S^k T^l M with k + l = n span.  Each candidate
    column contributes a new direction iff its component orthogonal to
    everything accepted so far exceeds RANK_TOL m (``rank_tolerance``)
    times the candidate's own norm.
    Internally the candidates S H_{n-1} are scaled by the power of two that
    brings the largest real or imaginary part of S into [0.5, 1), and each
    column of the T-chain T^n M by its own norm at every degree.  Neither
    changes a span or a rank decision, and both keep image magnitudes tame,
    so no norm of S or T is needed.  The power of two is exact, so S = 2^k C
    builds the very basis of S = C.  The
    build stops when a degree adds nothing or the span is complete; each
    other degree adds a direction, so it takes fewer than m degrees.

    A 1-d ``t`` is read as diag(t), and ``Filtration.t`` keeps it 1-d: the
    T-chain and T basis are then row scalings, and the build applies T by
    no m x m product.

    Accepted directions are written into one preallocated m x m buffer, so
    the blocks are adjacent column ranges of it (``basis``) and nothing is
    re-stacked.  Each block's image S H_n goes into a second one as the
    block is accepted; the next degree's candidates are read from it, and
    so is S basis for the compression, which does not form it again.  The
    first Gram-Schmidt pass of degree n + 1 forms basis* S H_n, up to the
    exact power of two: block column n of G_S = basis* S basis down to
    block n, which goes into a third buffer.  ``_chain_compression`` forms
    the rest of G_S with the Gram and T's far blocks; G_S is kept
    (``compression_s``) for the boundary blocks of S, the partial-isometry
    residuals and the partial sums.

    S and T are copied, so changing the caller's arrays later changes
    nothing in the filtration.
    """
    return _build_filtration(np.array(s, dtype=complex), np.array(t, dtype=complex), m_basis)


def _build_filtration(s, t, m_basis) -> Filtration:
    """``build_filtration``, keeping S and T themselves, made read-only, where they are complex arrays.

    For a caller that owns S and T and hands them over, as the lower-bound
    report does with its C-tilde: nothing is copied.
    """
    s = as_matrix(s, square=True)
    diagonal = np.ndim(t) == 1
    t = as_matrix(np.reshape(t, (1, -1)))[0] if diagonal else as_matrix(t, square=True)
    if t.shape[0] != s.shape[0]:
        raise ValueError(f"dimension mismatch: {s.shape} vs {t.shape}")
    m = s.shape[0]
    mb = as_matrix(m_basis)
    if mb.shape[0] != m:
        raise ValueError(f"seed basis has {mb.shape[0]} rows, expected {m}")
    dim_m = mb.shape[1]
    if unit_defect(mb) > SEED_TOL * max(1.0, dim_m):
        raise ValueError("seed basis columns are not orthonormal")
    rank_tol = RANK_TOL * m

    # the candidates S H_n are scaled by 2^-exp_s, which brings S's largest real or
    # imaginary part into [0.5, 1): exact, as for the T-chain below, and it keeps
    # each candidate's norm below 2m
    exp_s = int(np.frexp(np.max(np.abs(s.ravel(order="K").view(float)), initial=0.0))[1])

    buf = np.empty((m, m), dtype=complex, order="F")  # basis columns buf[:, :nb]
    img = np.empty((m, m), dtype=complex, order="F")  # S buf[:, :nb], formed block by block
    comp = np.empty((m, m), dtype=complex, order="F")  # G_S, its upper blocks from the first passes
    buf[:, :dim_m] = mb
    img[:, :dim_m] = s @ buf[:, :dim_m]
    nb = dim_m
    dims = [dim_m]
    t_chain = mb  # T^(n-1) M, each column scaled to unit norm (or zero)
    while nb < m:
        basis = buf[:, :nb]
        t_chain = t[:, None] * t_chain if diagonal else t @ t_chain
        # each column times the power of two that brings its largest modulus into
        # [0.5, 1) (a float view interleaves real and imaginary parts): exact, so
        # no square in its norm under- or overflows, and the unit column below is
        # the same bit for bit at every scale of T
        exps = np.frexp(np.max(np.abs(t_chain), axis=0))[1]
        t_chain = np.ldexp(t_chain.view(float), np.repeat(-exps, 2)).view(complex)
        norms = np.linalg.norm(t_chain, axis=0)
        t_chain /= np.where(norms > 0.0, norms, 1.0)  # zero columns stay zero
        newest = nb - dims[-1]
        cands = img[:, newest:nb].T  # row-major, so its float view interleaves re and im
        imgs = np.column_stack([np.ldexp(cands.view(float), -exp_s).view(complex).T, t_chain])
        norms0 = np.linalg.norm(imgs, axis=0)
        work, coef = _project_once(basis, imgs)
        # basis* S H_(n-1), back at the scale of S: block column n - 1 of G_S down to block n - 1
        comp[:nb, newest:nb] = np.ldexp(coef[:, : dims[-1]].T.view(float), exp_s).view(complex).T
        # One pass leaves a column's part in span(basis) at about u sqrt(nb) of its
        # norm, far below the threshold; the in-degree decisions below measure
        # parts orthogonal to more columns, so they can only be smaller, and their
        # rounding is relative to the column's own norm, far below the 1e-6 margin.
        # A column already at or below the threshold (less the margin) is thus
        # rejected here, as those steps would reject it; so are zero images.
        keep = np.linalg.norm(work, axis=0) > (1.0 - 1e-6) * rank_tol * norms0
        na = _new_directions(work[:, keep], norms0[keep], rank_tol, buf[:, nb:])
        if not na:
            break
        # an accepted column keeps a part in span(basis) of at most about
        # u sqrt(nb) / (RANK_TOL m); the second pass takes it back to rounding
        block, _ = np.linalg.qr(_project_once(basis, buf[:, nb : nb + na])[0])
        buf[:, nb : nb + na] = block
        img[:, nb : nb + na] = s @ buf[:, nb : nb + na]
        nb += na
        dims.append(na)

    basis, comp = buf[:, :nb], comp[:nb, :nb]
    res_s, res_t, inv_res, gram = _chain_compression(basis, dims, img[:, :nb], t, comp)
    for arr in (s, t, basis, comp, gram):
        arr.flags.writeable = False
    return Filtration(
        dims=dims,
        rank_tolerance=rank_tol,
        block_residual_s=res_s,
        block_residual_t=res_t,
        invariance_residual=inv_res,
        s=s,
        t=t,
        basis=basis,
        compression_s=comp,
        gram=gram,
    )


@dataclass
class StructureReport:
    """Residuals and pass flags for the filtration's structural claims.

    ``structure_ok`` and ``invariance_ok`` are None when the range
    hypothesis itself fails: the structural conclusions are only claimed
    under the hypothesis, so their checks are flagged as skipped.
    """

    hypothesis_residual: float
    hypothesis_ok: bool
    structure_residual_s: float
    structure_residual_t: float
    structure_ok: bool | None
    invariance_residual: float
    invariance_ok: bool | None
    dims: list[int]
    dims_ok: bool
    hypothesis_tol: float
    structure_tol: float
    invariance_tol: float

    @property
    def all_ok(self) -> bool:
        return bool(self.hypothesis_ok and self.structure_ok and self.invariance_ok and self.dims_ok)


def verify_filtration_structure(filt: Filtration, norm_s: float, norm_t: float) -> StructureReport:
    """Check the range hypothesis and the filtration's structural claims.

    Hypothesis: ([S,T] + lambda I) maps everything into M, the span of the
    seed block, for the S and T that ``filt`` was built from.  lambda is
    the one that minimizes the residual ||(I - MM*)([S,T] + lambda I)||_2,
    (tr M*[S,T]M - tr [S,T]) / (m - dim M), or 0 when M is everything.
    Conclusions: dims[n] <= (n+1) dim M, block-tridiagonality of S and T,
    and invariance of the chain's total span under both operators; their
    residuals are the build's own, and their tolerance is STRUCTURE_TOL
    (``norm_s`` + ``norm_t``), with ||S|| and ||T|| as the caller knows them,
    measured or certified; the check measures no norm.
    A filtration built from a 1-d T is checked with T = diag(T), applied
    entrywise.  [S, T] is shifted, and its part in M taken off, in place,
    in up to PANELS row panels, so no other m x m array is held.  A panel
    has at least two rows, so numpy forms its product by GEMM, as it would
    the whole M M* [S, T]; one row would go by GEMV, whose rounding differs.
    """
    mb, m, dim_m = filt.blocks[0], filt.s.shape[0], filt.dims[0]
    hyp_op = _bracket(filt.t, filt.s)
    np.negative(hyp_op, out=hyp_op)  # [S, T]; IEEE negation is exact
    if dim_m < m:
        lam = (np.trace(mb.conj().T @ hyp_op @ mb) - np.trace(hyp_op)) / (m - dim_m)
        hyp_op[np.diag_indices(m)] += lam
    hypothesis_tol = STRUCTURE_TOL * hs_norm(hyp_op)
    coef, panels = mb.conj().T @ hyp_op, max(1, min(PANELS, m // 2))  # M* ([S, T] + lambda I)
    for rows, seed_rows in zip(np.array_split(hyp_op, panels), np.array_split(mb, panels)):
        rows -= seed_rows @ coef  # a view of hyp_op
    hypothesis_residual = hs_norm(hyp_op)
    hypothesis_ok = hypothesis_residual <= hypothesis_tol

    res_s, res_t, inv_res = filt.block_residual_s, filt.block_residual_t, filt.invariance_residual
    structure_tol = invariance_tol = STRUCTURE_TOL * (norm_s + norm_t)
    dims_ok = all(d <= (n + 1) * dim_m for n, d in enumerate(filt.dims))

    return StructureReport(
        hypothesis_residual=hypothesis_residual,
        hypothesis_ok=hypothesis_ok,
        structure_residual_s=res_s,
        structure_residual_t=res_t,
        structure_ok=(max(res_s, res_t) <= structure_tol) if hypothesis_ok else None,
        invariance_residual=inv_res,
        invariance_ok=(inv_res <= invariance_tol) if hypothesis_ok else None,
        dims=list(filt.dims),
        dims_ok=dims_ok,
        hypothesis_tol=hypothesis_tol,
        structure_tol=structure_tol,
        invariance_tol=invariance_tol,
    )
