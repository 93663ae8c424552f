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

from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate

import numpy as np

from .linalg import as_matrix, commutator, gram_defect, hs_norm, operator_norm, unit_defect

__all__ = ["Filtration", "StructureReport", "build_filtration", "verify_filtration_structure"]

DEGREE_CAP_FACTOR = 2  # degree cap = 2m; an m-dim space stabilizes far earlier
STRUCTURE_TOL = 1e-8  # relative tolerance of verify_filtration_structure's three checks and the report's block_tol
RANK_TOL = 1e-8  # times m: a candidate is a new direction iff its new part exceeds RANK_TOL m of its norm
SEED_TOL = 1e-10  # times max(1, dim M): the seed basis M must have ||M*M - I||_2 within it


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
    # read-only copies of those S and T (T 1-d if given as a diagonal), so that changing the
    # caller's arrays changes nothing here
    s: np.ndarray = field(repr=False)
    t: np.ndarray = field(repr=False)
    # read-only view of the blocks side by side
    basis: np.ndarray = field(repr=False)
    # read-only G_S = basis* S basis from the build's residual check: block (i, j) is B_i* S B_j
    compression_s: np.ndarray = field(repr=False)

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
    def gram(self) -> np.ndarray:
        """basis* basis, the identity up to rounding, computed on first use."""
        return self.basis.conj().T @ self.basis

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


def _project_once(basis: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Remove the components of ``vecs`` in span(basis): one classical Gram-Schmidt pass.

    basis* vecs is formed as (vecs* basis)*, which conjugates the few
    columns of ``vecs`` instead of copying the basis.
    """
    return vecs - basis @ (vecs.conj().T @ basis).conj().T


def _project_out(basis: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Remove basis components twice (classical reorthogonalization: "twice is enough").

    The build uses it only within a degree, against the few directions that
    degree has accepted so far; against the whole basis each candidate gets
    one pass before its rank decision and one before the block's QR.
    """
    return _project_once(basis, _project_once(basis, vecs))


def _far_block_residual(panels, starts) -> float:
    """The largest ||P_i op P_j||_2 over i > j + 1, from the far block columns of G = basis* op basis.

    Blocks start at column ``starts``, and ``panels[j]`` is block column j
    of G from block row j + 2 on, transposed or adjoint: d_j rows, one
    column per basis column from block j + 2 on.  The entries are squared
    only after scaling by the power of two that brings the panels' largest
    real or imaginary part into [0.5, 1), as in ``hs_norm``: that scaling is
    exact, so the squares neither under- nor overflow and a power-of-two
    scale of op scales the residual by the same power, bit for bit.
    """
    parts = [np.ascontiguousarray(panel).view(float) for panel in panels]  # re and im side by side
    if not parts:
        return 0.0
    exp = int(np.frexp(max(float(np.max(np.abs(part))) for part in parts))[1])
    largest = 0.0
    for k, part in enumerate(parts):
        part = np.square(np.ldexp(part, -exp))
        rows = 2 * (np.asarray(starts[k + 2:]) - starts[k + 2])  # block rows k + 2, ... in the float view
        largest = max(largest, float(np.max(np.add.reduceat(part.sum(axis=0), rows))))
    return float(np.ldexp(np.sqrt(largest), exp))


def _bracket(t: np.ndarray, s: np.ndarray) -> np.ndarray:
    """[T, S] = TS - ST.  A 1-d T is diag(T): entrywise (t_i - t_j) s_ij, with no m x m product."""
    if t.ndim == 1:
        return (t[:, None] - t[None, :]) * s
    return commutator(t, s)


def _spans(dims) -> list[slice]:
    """Adjacent index ranges of widths ``dims``, starting at 0."""
    ends = list(accumulate(dims))
    return [slice(end - d, end) for end, d in zip(ends, dims)]


def _chain_compression(basis, dims, image_s, image_t):
    """Block residuals of S and T, the summed invariance residual, and G_S = basis* S basis.

    ``basis`` holds the blocks side by side, ``dims`` their widths, and
    ``image_s``, ``image_t`` are S basis and T basis.  G_S is kept whole:
    block (n+1, n) is X_n = B_{n+1}* S B_n, block (n, n+1) is the adjoint of
    Y_n = B_{n+1}* S* B_n, and the partial-isometry residuals read the bands
    beyond, and S's block residual its far block columns.  The invariance
    residual is the part of each image outside the span, ||op basis - basis G||_2,
    so on an incomplete span G_T is formed whole for it, and T's block
    residual reads G_T too.  On a complete span that part is zero, and only
    the far block columns of G_T are formed, one at a time as (T B_j)* basis,
    about half the flops of the whole G_T.
    """
    starts = [span.start for span in _spans(dims)]
    far = list(zip(starts, starts[1:] + [basis.shape[1]], starts[2:]))  # block column j from row j + 2 on
    comp = basis.conj().T @ image_s
    res_s = _far_block_residual([comp[row:, lo:hi].T for lo, hi, row in far], starts)
    if basis.shape[1] == basis.shape[0]:
        panels_t = [image_t[:, lo:hi].conj().T @ basis[:, row:] for lo, hi, row in far]
        return res_s, _far_block_residual(panels_t, starts), 0.0, comp
    comp_t = basis.conj().T @ image_t
    outside = hs_norm(image_s - basis @ comp) + hs_norm(image_t - basis @ comp_t)
    return res_s, _far_block_residual([comp_t[row:, lo:hi].T for lo, hi, row in far], starts), outside, comp


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
    build stops when a degree adds nothing, the span is complete, or the
    degree cap 2m is reached.

    A 1-d ``t`` is read as diag(t), and ``Filtration.t`` keeps it 1-d: the
    T-chain and T basis are then row scalings, and the build applies T by
    no m x m product.

    Accepted directions are written into one preallocated m x m buffer, so
    the blocks are adjacent column ranges of it (``basis``) and nothing is
    re-stacked.  Each block's image S H_n goes into a second one as the
    block is accepted; the next degree's candidates are read from it, and
    so is S basis for the residual check, which does not form it again.
    That check's compression basis* S basis is kept (``compression_s``) for
    the boundary blocks of S, the partial-isometry residuals and the
    partial sums.
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
    buf[:, :dim_m] = mb
    img[:, :dim_m] = s @ buf[:, :dim_m]
    nb = dim_m
    dims = [dim_m]
    t_chain = mb  # T^(n-1) M, each column scaled to unit norm (or zero)
    for _degree in range(1, DEGREE_CAP_FACTOR * m + 1):
        if nb >= m:
            break
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
        cands = img[:, nb - dims[-1] : nb].T  # row-major, so its float view interleaves re and im
        imgs = np.column_stack([np.ldexp(cands.view(float), -exp_s).view(complex).T, t_chain])
        norms0 = np.linalg.norm(imgs, axis=0)
        work = _project_once(basis, imgs)
        # One pass leaves a column's part in span(basis) at about u sqrt(nb) of its
        # norm, far below the threshold; the in-degree projections below are
        # orthogonal, so they can only shrink a column, and their rounding is
        # relative to the column's own norm, far below the 1e-6 margin.  A
        # column already at or below the threshold (less the margin) is thus
        # rejected here, as those steps would reject it; so are zero images.
        keep = np.linalg.norm(work, axis=0) > (1.0 - 1e-6) * rank_tol * norms0
        na = 0
        for vec, norm0 in zip(work[:, keep].T, norms0[keep]):
            if na:
                acc = buf[:, nb : nb + na]
                vec = _project_out(acc, vec)
            norm = float(np.linalg.norm(vec))
            if norm > rank_tol * norm0 and nb + na < m:
                buf[:, nb + na] = vec / norm
                na += 1
        if not na:
            break
        # normalized, an accepted column keeps a part in span(basis) of at most
        # about u sqrt(nb) / (RANK_TOL m); the second pass takes it back to rounding
        block, _ = np.linalg.qr(_project_once(basis, buf[:, nb : nb + na]))
        buf[:, nb : nb + na] = block
        img[:, nb : nb + na] = s @ buf[:, nb : nb + na]
        nb += na
        dims.append(na)

    basis = buf[:, :nb]
    res_s, res_t, inv_res, comp = _chain_compression(
        basis, dims, img[:, :nb], t[:, None] * basis if diagonal else t @ basis)
    s, t = s.copy(), t.copy()
    s.flags.writeable = t.flags.writeable = basis.flags.writeable = comp.flags.writeable = False
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
    dims: list[int] = field(default_factory=list)
    dims_ok: bool = True
    hypothesis_tol: float = 0.0
    structure_tol: float = 0.0
    invariance_tol: float = 0.0

    @property
    def all_ok(self) -> bool:
        return bool(
            self.hypothesis_ok
            and self.structure_ok
            and self.invariance_ok
            and self.dims_ok
        )


def verify_filtration_structure(filt: Filtration) -> StructureReport:
    """Check the range hypothesis and the filtration's structural claims.

    Hypothesis: ([S,T] + lambda I) maps everything into M, the span of the
    seed block, for the S and T that ``filt`` was built from.  lambda is
    the one that minimizes the residual ||(I - MM*)([S,T] + lambda I)||_2,
    (tr M*[S,T]M - tr [S,T]) / (m - dim M), or 0 when M is everything.
    Conclusions: dims[n] <= (n+1) dim M, block-tridiagonality of S and T,
    and invariance of the chain's total span under both operators; their
    residuals are the build's own, and their tolerance is STRUCTURE_TOL
    (||S|| + ||T||), with the two norms measured here.
    A filtration built from a 1-d T is checked with T = diag(T), applied
    entrywise; its norm is the largest |t_i|.
    """
    mb, m, dim_m = filt.blocks[0], filt.s.shape[0], filt.dims[0]
    hyp_op = -_bracket(filt.t, filt.s)  # [S, T]; IEEE negation is exact
    if dim_m < m:
        lam = (np.trace(mb.conj().T @ hyp_op @ mb) - np.trace(hyp_op)) / (m - dim_m)
        hyp_op[np.diag_indices(m)] += lam
    hypothesis_residual = hs_norm(hyp_op - mb @ (mb.conj().T @ hyp_op))
    hypothesis_tol = STRUCTURE_TOL * hs_norm(hyp_op)
    hypothesis_ok = hypothesis_residual <= hypothesis_tol

    res_s, res_t, inv_res = filt.block_residual_s, filt.block_residual_t, filt.invariance_residual
    norm_t = float(np.max(np.abs(filt.t))) if filt.t.ndim == 1 else operator_norm(filt.t)
    structure_tol = invariance_tol = STRUCTURE_TOL * (operator_norm(filt.s) + norm_t)
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
