"""Degree filtration of the subspace chain generated by two operators.

Starting from a seed subspace M, the chain V_n = span{ S^k T^l M : k+l <= n }
grows by one degree at a time; the blocks H_n = V_n minus V_{n-1} are
mutually orthogonal, have dimension at most (n+1) dim M, and force S and T
into block-tridiagonal form: P_i S P_j = P_i T P_j = 0 for i > j + 1.  Those
structural facts are exact algebra whenever [S, T] + lambda*I maps into M;
here they are reproduced with explicit numerical-rank decisions and the
residuals are reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import as_matrix, hs_norm, operator_norm

__all__ = ["Filtration", "StructureReport", "build_filtration", "verify_filtration_structure"]

DEGREE_CAP_FACTOR = 2  # degree cap = 2m; an m-dim space stabilizes far earlier


@dataclass
class Filtration:
    """Orthonormal block bases of the chain, plus build diagnostics."""

    blocks: list[np.ndarray]
    dims: list[int]
    dim_m: int
    rank_tolerance: float
    block_residual_s: float
    block_residual_t: float
    invariance_residual: float
    norm_s: float  # ||S|| and ||T|| of the generators the chain was built from
    norm_t: float
    generators: tuple[np.ndarray, np.ndarray] = field(repr=False)  # those S, T (not copies)

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def basis(self) -> np.ndarray:
        """All block columns side by side (an isometry onto the chain's span)."""
        return np.column_stack(self.blocks)

    def complete(self, m: int) -> bool:
        return self.total_dim == m


def _project_out(basis: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Remove basis components twice (classical reorthogonalization)."""
    vecs = vecs - basis @ (basis.conj().T @ vecs)
    return vecs - basis @ (basis.conj().T @ vecs)


def _compression_residuals(basis, starts, op) -> tuple[float, float]:
    """Block-tridiagonality and invariance residuals of ``op`` on the chain.

    One image op*basis and one compression G = basis* op basis give both:
    block (i, j) of G (blocks start at column ``starts``) is P_i op P_j, so
    the first residual is the largest ||P_i op P_j||_2 over i > j + 1; the
    second is ||op basis - basis G||_2, the part of the image outside the
    span (zero when the span is everything).
    """
    image = op @ basis
    comp = basis.conj().T @ image
    block_res = 0.0
    if len(starts) > 2:
        sq = np.add.reduceat(np.add.reduceat(np.abs(comp) ** 2, starts, axis=0), starts, axis=1)
        block_res = float(np.sqrt(np.max(sq[np.tril_indices(len(starts), -2)])))
    outside = 0.0 if basis.shape[1] == basis.shape[0] else hs_norm(image - basis @ comp)
    return block_res, outside


def _chain_residuals(blocks, s, t) -> tuple[float, float, float]:
    """Block residuals of S and T, and the summed invariance residual."""
    basis = np.column_stack(blocks)
    starts = np.cumsum([0] + [b.shape[1] for b in blocks[:-1]])
    block_s, outside_s = _compression_residuals(basis, starts, s)
    block_t, outside_t = _compression_residuals(basis, starts, t)
    return block_s, block_t, outside_s + outside_t


def build_filtration(s, t, m_basis, rank_tol: float | None = None) -> Filtration:
    """Grow the degree filtration seeded at the span of ``m_basis`` columns.

    Monomial images at degree n are enumerated with the S-power descending
    (S^n M first, then S^{n-1} T M, ..., T^n M); each image column
    contributes a new direction iff its component orthogonal to everything
    accepted so far exceeds ``rank_tol`` times the image's own norm.
    Internally S and T are rescaled by their operator norms, which leaves
    every span unchanged but keeps image magnitudes tame.  The build stops
    when a degree adds nothing, the span is complete, or the degree cap 2m
    is reached.
    """
    s = as_matrix(s, square=True)
    t = as_matrix(t, square=True)
    if s.shape != t.shape:
        raise ValueError(f"dimension mismatch: {s.shape} vs {t.shape}")
    m = s.shape[0]
    mb = as_matrix(m_basis)
    if mb.shape[0] != m:
        raise ValueError(f"seed basis has {mb.shape[0]} rows, expected {m}")
    dim_m = mb.shape[1]
    if hs_norm(mb.conj().T @ mb - np.eye(dim_m)) > 1e-10 * max(1.0, dim_m):
        raise ValueError("seed basis columns are not orthonormal")
    if rank_tol is None:
        rank_tol = 1e-8 * m

    norm_s, norm_t = operator_norm(s), operator_norm(t)
    s_unit, t_unit = s / (norm_s or 1.0), t / (norm_t or 1.0)

    blocks = [mb.copy()]
    basis = mb.copy()
    prev = mb.copy()  # degree-(n-1) monomial images, S-power descending
    for _degree in range(1, DEGREE_CAP_FACTOR * m + 1):
        if basis.shape[1] >= m:
            break
        imgs = np.column_stack([s_unit @ prev, t_unit @ prev[:, -dim_m:]])
        norms0 = np.linalg.norm(imgs, axis=0)
        work = _project_out(basis, imgs)
        accepted: list[np.ndarray] = []
        for col in range(work.shape[1]):
            if norms0[col] == 0.0:
                continue
            vec = work[:, col]
            if accepted:
                acc = np.column_stack(accepted)
                vec = vec - acc @ (acc.conj().T @ vec)
                vec = vec - acc @ (acc.conj().T @ vec)
            norm = float(np.linalg.norm(vec))
            if norm > rank_tol * norms0[col] and basis.shape[1] + len(accepted) < m:
                accepted.append(vec / norm)
        if not accepted:
            break
        block = _project_out(basis, np.column_stack(accepted))
        block, _ = np.linalg.qr(block)
        blocks.append(block)
        basis = np.column_stack([basis, block])
        prev = imgs

    res_s, res_t, inv_res = _chain_residuals(blocks, s, t)
    return Filtration(
        blocks=blocks,
        dims=[b.shape[1] for b in blocks],
        dim_m=dim_m,
        rank_tolerance=rank_tol,
        block_residual_s=res_s,
        block_residual_t=res_t,
        invariance_residual=inv_res,
        norm_s=norm_s,
        norm_t=norm_t,
        generators=(s, t),
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


def verify_filtration_structure(
    filt: Filtration,
    s,
    t,
    lam: complex,
    m_basis,
    tol: float | None = None,
) -> StructureReport:
    """Check the range hypothesis and the filtration's structural claims.

    Hypothesis: ([S,T] + lambda I) maps everything into span(m_basis).
    Conclusions: dims[n] <= (n+1) dim M, block-tridiagonality of S and T,
    and invariance of the chain's total span under both operators.  When S
    and T equal the generators ``filt`` was built from, the build's norms
    and residuals are reused instead of computed again.
    """
    s = as_matrix(s, square=True)
    t = as_matrix(t, square=True)
    m = s.shape[0]
    mb = as_matrix(m_basis)
    if t.shape != s.shape or mb.shape[0] != m:
        raise ValueError("mismatched inputs")
    if filt.blocks[0].shape != mb.shape or not np.allclose(
        filt.blocks[0], mb, atol=1e-12
    ):
        raise ValueError("filtration was not built from this seed basis")

    if all(np.array_equal(op, built) for op, built in zip((s, t), filt.generators)):
        # the build measured these very operators: reuse its norms and residuals
        op_scale = filt.norm_s + filt.norm_t
        res_s, res_t, inv_res = filt.block_residual_s, filt.block_residual_t, filt.invariance_residual
    else:
        op_scale = operator_norm(s) + operator_norm(t)
        res_s, res_t, inv_res = _chain_residuals(filt.blocks, s, t)
    if tol is None:
        tol = 1e-8
    hyp_op = s @ t - t @ s + lam * np.eye(m)
    proj_m = mb @ mb.conj().T
    hypothesis_residual = hs_norm(hyp_op - proj_m @ hyp_op)
    hypothesis_tol = tol * hs_norm(hyp_op)
    hypothesis_ok = hypothesis_residual <= hypothesis_tol

    structure_tol = invariance_tol = tol * op_scale
    dims_ok = all(d <= (n + 1) * filt.dim_m for n, d in enumerate(filt.dims))

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
