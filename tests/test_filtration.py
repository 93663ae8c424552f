import tracemalloc
from collections import Counter
from itertools import accumulate

import numpy as np
import pytest

import traceless
import traceless.cli
import traceless.filtration
import traceless.linalg
from traceless.cli import main
import traceless.lowerbound
from traceless.factorizer import _fisher_yates, factor
from traceless.filtration import (
    RANK_TOL,
    STRUCTURE_TOL,
    _chain_compression,
    _new_directions,
    build_filtration,
    verify_filtration_structure,
)
from traceless.lattice import gaussian_points
from traceless.linalg import hs_norm, operator_norm
from traceless.lowerbound import extremal_matrix
from traceless.matio import write_matrix

from conftest import exact_witness_dims, random_complex, random_unitary

PRIMES = (2147483629, 2147483477)  # both = 1 (mod 4)


def seed_vector(m: int) -> np.ndarray:
    e1 = np.zeros((m, 1), dtype=complex)
    e1[0, 0] = 1.0
    return e1


def measured_structure(filt):
    """``verify_filtration_structure`` at the measured ||S|| and ||T||, as the ``filtration`` command judges."""
    return verify_filtration_structure(filt, operator_norm(filt.s), operator_norm(filt.t))


def normalized_witness_factors(m: int, seed: int = 0):
    cert = factor(extremal_matrix(m), trials=16, seed=seed)
    return cert.b / cert.op_norm_b, cert.c * cert.op_norm_b


def projectors(filt):
    return [blk @ blk.conj().T for blk in filt.blocks]


class TestBuildFiltration:
    def test_nilpotent_generators_single_block(self):
        z = np.zeros((4, 4))
        filt = build_filtration(z, z, seed_vector(4))
        assert filt.dims == [1]

    def test_full_seed_single_block(self):
        m = 3
        s = random_complex(np.random.default_rng(0), m)
        filt = build_filtration(s, s, np.eye(m, dtype=complex))
        assert filt.dims == [m]

    def test_m2_witness_dims(self):
        b, c = normalized_witness_factors(2)
        filt = build_filtration(b, c, seed_vector(2))
        assert filt.dims == [1, 1]
        assert filt.total_dim == 2

    def test_oracle_dense_monomial_span(self, rng):
        # oracle: orthonormalize all monomial images degree <= 3 densely and
        # compare the spanned subspace dimensions degree by degree
        m = 6
        s = random_complex(rng, m)
        t = random_complex(rng, m)
        mb = seed_vector(m)
        filt = build_filtration(s, t, mb)
        vecs = [mb[:, 0]]
        dims_oracle = [1]
        span = mb.copy()
        images = [mb[:, 0]]
        for deg in range(1, 4):
            new_images = [s @ v for v in images] + [t @ images[-1]]
            added = 0
            for v in new_images:
                w = v - span @ (span.conj().T @ v)
                w = w - span @ (span.conj().T @ w)
                if np.linalg.norm(w) > 1e-8 * max(1.0, np.linalg.norm(v)):
                    span = np.column_stack([span, w / np.linalg.norm(w)])
                    added += 1
            dims_oracle.append(added)
            images = new_images
        while dims_oracle and dims_oracle[-1] == 0:  # build stops at stabilization
            dims_oracle.pop()
        assert filt.dims[: len(dims_oracle)] == dims_oracle

    def test_blocks_orthonormal(self):
        b, c = normalized_witness_factors(9)
        filt = build_filtration(b, c, seed_vector(9))
        basis = np.column_stack(filt.blocks)
        gram = basis.conj().T @ basis
        assert hs_norm(gram - np.eye(basis.shape[1])) <= 1e-10

    def test_dim_bound_wide_seed(self, rng):
        m = 8
        s, t = random_complex(rng, m), random_complex(rng, m)
        mb, _ = np.linalg.qr(random_complex(rng, m)[:, :2])
        filt = build_filtration(s, t, mb)
        assert all(d <= (n + 1) * 2 for n, d in enumerate(filt.dims))
        assert filt.total_dim <= m

    def test_symmetric_in_s_and_t(self, rng):
        b, c = normalized_witness_factors(9)
        mb = seed_vector(9)
        p1 = projectors(build_filtration(b, c, mb))
        p2 = projectors(build_filtration(c, b, mb))
        assert len(p1) == len(p2)
        for q1, q2 in zip(p1, p2):
            assert hs_norm(q1 - q2) <= 1e-8

    def test_unitary_covariance(self, rng):
        b, c = normalized_witness_factors(9)
        m = 9
        u = random_unitary(rng, m)
        mb = seed_vector(m)
        base = projectors(build_filtration(b, c, mb))
        moved = projectors(
            build_filtration(u @ b @ u.conj().T, u @ c @ u.conj().T, u @ mb)
        )
        assert len(base) == len(moved)
        for p, p2 in zip(base, moved):
            assert hs_norm(p2 - u @ p @ u.conj().T) <= 1e-8

    def test_rejects_bad_seed(self, rng):
        s = random_complex(rng, 4)
        with pytest.raises(ValueError, match="orthonormal"):
            build_filtration(s, s, 2.0 * seed_vector(4))
        with pytest.raises(ValueError):
            build_filtration(s, random_complex(rng, 5), seed_vector(4))


# The checks below build in lower_bound_report's order, S = C and T = B, where
# [S, T] + lambda I = -A + lambda I maps into span{e_1} for lambda = -1/m, the
# lambda that verify_filtration_structure works out.
class TestVerifyFiltrationStructure:
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 7.5])
    def test_recovers_lambda_in_both_orders(self, rng, scale):
        # [C, sB] = -sA needs lambda = -s/m and [sB, C] = sA needs +s/m; both
        # shifted operators equal +-s (P - I/m) + lambda I = +-s P, of norm s
        m = 9
        b, c = normalized_witness_factors(m)
        for s_op, t_op in ((c, scale * b), (scale * b, c)):
            report = measured_structure(build_filtration(s_op, t_op, seed_vector(m)))
            assert report.all_ok
            assert report.hypothesis_residual <= 1e-12 * scale
            assert report.hypothesis_tol == pytest.approx(STRUCTURE_TOL * scale, rel=1e-12)
        s, t = random_complex(rng, m), random_complex(rng, m)
        report = measured_structure(build_filtration(scale * s, t, seed_vector(m)))
        assert not report.hypothesis_ok and not report.all_ok
        # a seed spanning everything needs no shift: every operator maps into it
        assert measured_structure(build_filtration(s, t, np.eye(m))).all_ok

    def test_m2_witness_all_pass(self):
        b, c = normalized_witness_factors(2)
        filt = build_filtration(c, b, seed_vector(2))
        report = measured_structure(filt)
        assert report.hypothesis_ok
        assert report.hypothesis_residual <= 1e-10
        assert report.structure_ok and report.invariance_ok and report.dims_ok
        assert max(report.structure_residual_s, report.structure_residual_t) <= 1e-10
        assert report.invariance_residual <= 1e-10
        assert report.all_ok

    def test_negative_control_random_pair(self, rng):
        m = 5
        s, t = random_complex(rng, m), random_complex(rng, m)
        filt = build_filtration(s, t, seed_vector(m))
        report = measured_structure(filt)
        assert not report.hypothesis_ok
        assert report.structure_ok is None  # flagged as skipped
        assert report.invariance_ok is None
        assert not report.all_ok

    @pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
    def test_checks_are_scale_free(self, rng, scale):
        m = 5
        s, t = random_complex(rng, m), random_complex(rng, m)
        report = measured_structure(build_filtration(scale * s, scale * t, seed_vector(m)))
        assert not report.hypothesis_ok and not report.all_ok
        b, c = normalized_witness_factors(9)
        filt = build_filtration(c, scale * b, seed_vector(9))
        report = measured_structure(filt)
        assert report.all_ok

    def test_tridiagonal_by_construction(self):
        # projecting the operators onto the block-tridiagonal pattern of an
        # existing filtration makes the structure residual exactly zero
        b, c = normalized_witness_factors(9)
        filt = build_filtration(c, b, seed_vector(9))
        ps = projectors(filt)
        s_tri = np.zeros_like(c)
        t_tri = np.zeros_like(b)
        for i, pi in enumerate(ps):
            for j, pj in enumerate(ps):
                if i <= j + 1:
                    s_tri += pi @ c @ pj
                    t_tri += pi @ b @ pj
        basis = np.column_stack(filt.blocks)
        comp = basis.conj().T @ s_tri @ basis
        res_s, res_t, _, _ = _chain_compression(basis, filt.dims, s_tri @ basis, t_tri, comp)
        assert max(res_s, res_t) <= 1e-12


@pytest.mark.parametrize("m", [4, 9, 16])
def test_witness_filtration_complete(m):
    b, c = normalized_witness_factors(m)
    filt = build_filtration(b, c, seed_vector(m))
    assert filt.rank_tolerance == RANK_TOL * m == 1e-8 * m
    assert filt.total_dim == m
    assert all(d <= n + 1 for n, d in enumerate(filt.dims))
    tol = 1e-8 * (operator_norm(b) + operator_norm(c))
    assert max(filt.block_residual_s, filt.block_residual_t) <= tol
    assert filt.invariance_residual <= 1e-8


# The monomial enumeration, kept as an independent reference: degree n forms
# every image S^k T^l M with k + l = n (not the package's S H_{n-1} and T^n M),
# re-stacks the accepted columns for every candidate, runs both Gram-Schmidt
# passes on every column, and returns the blocks (not the residuals).
def reference_build(s, t, mb):
    m = s.shape[0]
    dim_m = mb.shape[1]
    rank_tol = 1e-8 * m
    s_unit = s / (operator_norm(s) or 1.0)
    t_unit = t / (operator_norm(t) or 1.0)

    def project_out(basis, vecs):
        basis_h = basis.conj().T
        vecs = vecs - basis @ (basis_h @ vecs)
        return vecs - basis @ (basis_h @ vecs)

    blocks = [mb.copy()]
    basis = mb.copy()
    prev = mb.copy()
    for _degree in range(1, 2 * m + 1):
        if basis.shape[1] >= m:
            break
        imgs = np.column_stack([s_unit @ prev, t_unit @ prev[:, -dim_m:]])
        norms0 = np.linalg.norm(imgs, axis=0)
        work = project_out(basis, imgs)
        accepted = []
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
        block, _ = np.linalg.qr(project_out(basis, np.column_stack(accepted)))
        blocks.append(block)
        basis = np.column_stack([basis, block])
        prev = imgs
    return blocks


def assert_matches_reference_build(s, t, mb, projector_tol=None):
    filt = build_filtration(s, t, mb)
    ref = reference_build(s, t, mb)
    assert filt.dims == [b.shape[1] for b in ref]
    if projector_tol is not None:
        for n in range(1, len(ref) + 1):
            got = np.column_stack(filt.blocks[:n])
            want = np.column_stack(ref[:n])
            assert hs_norm(got @ got.conj().T - want @ want.conj().T) <= projector_tol
    return filt


# m=256 is left to test_build_dims_are_exact_witness: there the float
# monomial reference itself accepts noise (its dims leave n+1 at degree 18).
@pytest.mark.parametrize("m", [2, 16, 64, 128])
def test_build_matches_reference_witness(m):
    b, c = normalized_witness_factors(m)
    filt = assert_matches_reference_build(b, c, seed_vector(m), 1e-10 if m <= 64 else None)
    assert filt.complete()


@pytest.mark.parametrize("m, width", [(12, 1), (12, 3), (40, 1), (40, 3)])
def test_build_matches_reference_random(rng, m, width):
    s, t = random_complex(rng, m), random_complex(rng, m)
    mb, _ = np.linalg.qr(random_complex(rng, m)[:, :width])
    filt = assert_matches_reference_build(s, t, mb, 1e-10)
    assert len(filt.dims) > 2


def test_build_matches_reference_degenerate(rng):
    z = np.zeros((4, 4), dtype=complex)
    assert assert_matches_reference_build(z, z, seed_vector(4), 1e-10).dims == [1]
    s = random_complex(rng, 3)
    assert assert_matches_reference_build(s, s, np.eye(3, dtype=complex), 1e-10).dims == [3]


def test_build_stacks_once_per_degree(monkeypatch):
    # accepted columns go straight into the basis buffer: only each degree's
    # candidates are stacked, not the accepted set once per candidate
    b, c = normalized_witness_factors(64)
    calls = []
    orig = np.column_stack

    def counted(arrays):
        calls.append(len(arrays))
        return orig(arrays)

    monkeypatch.setattr(np, "column_stack", counted)
    filt = build_filtration(b, c, seed_vector(64))
    assert filt.complete()
    assert len(calls) <= 2 * len(filt.dims)


@pytest.mark.parametrize("m", [16, 64, 128, 256])
def test_build_dims_are_exact_witness(m):
    exact = [exact_witness_dims(m, p) for p in PRIMES]
    assert exact[0] == exact[1]
    assert sum(exact[0]) == m
    for seed in (0, 1):
        b, c = normalized_witness_factors(m, seed)
        assert build_filtration(b, c, seed_vector(m)).dims == exact[0]


def test_build_candidates_follow_accepted_dims(monkeypatch):
    # degree n stacks S H_{n-1} and T^n M: d_{n-1} + dim M columns, not (n+1) dim M
    b, c = normalized_witness_factors(256)
    columns = []
    orig = np.column_stack

    def counted(arrays):
        columns.append(sum(a.shape[1] for a in arrays))
        return orig(arrays)

    monkeypatch.setattr(np, "column_stack", counted)
    filt = build_filtration(b, c, seed_vector(256))
    assert sum(columns) <= filt.total_dim + len(filt.dims) * filt.dims[0]


def test_build_measures_no_norm_of_t(rng, monkeypatch):
    # S H_n is scaled by a power of two and the T-chain column by column, so the
    # build measures no norm of S or T, for a matrix T or a 1-d one;
    # test_operator_norm_calls_per_report shows the same of the report
    def unreachable(*args, **kwargs):
        raise AssertionError("the build measured an operator norm")

    monkeypatch.setattr(traceless.linalg, "operator_norm", unreachable)
    monkeypatch.setattr(np.linalg, "svd", unreachable)
    s, t = random_complex(rng, 9), random_complex(rng, 9)
    for t_in in (t, np.diagonal(t).copy()):
        assert build_filtration(s, t_in, seed_vector(9)).complete()


@pytest.mark.parametrize("kind", ["matrix", "1-d", "zero"])
def test_structure_tol_takes_both_norms(rng, monkeypatch, kind):
    # verify_filtration_structure takes ||S|| and ||T|| from its caller, as the
    # trace check takes ||B||: the tolerance is STRUCTURE_TOL (norm_s + norm_t)
    # bit for bit, and the check calls neither operator_norm nor an SVD, for a
    # matrix T, a 1-d one or a zero one
    s, t = random_complex(rng, 9), random_complex(rng, 9)
    t = {"matrix": t, "1-d": np.diagonal(t).copy(), "zero": np.zeros((9, 9))}[kind]
    filt = build_filtration(s, t, seed_vector(9))
    norm_s, norm_t = operator_norm(s), operator_norm(np.diag(t) if t.ndim == 1 else t)
    calls = []

    def counted(orig):
        def wrapper(*args, **kwargs):
            calls.append(orig.__name__)
            return orig(*args, **kwargs)
        return wrapper

    # wrap the names wherever callers look them up, as the benchmark tracer does
    for mod in (traceless, traceless.linalg, traceless.filtration):
        if getattr(mod, "operator_norm", None) is operator_norm:
            monkeypatch.setattr(mod, "operator_norm", counted(operator_norm))
    monkeypatch.setattr(np.linalg, "svd", counted(np.linalg.svd))
    report = verify_filtration_structure(filt, norm_s, norm_t)
    assert calls == []
    assert report.structure_tol == report.invariance_tol == STRUCTURE_TOL * (norm_s + norm_t)
    if kind == "zero":
        assert report.structure_tol == STRUCTURE_TOL * norm_s


@pytest.mark.parametrize("diagonal", [False, True])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("m", [4, 5, 9, 17, 40])
def test_hypothesis_residual_is_the_one_product_form(rng, m, k, diagonal):
    # the check takes M M* [S, T] off [S, T] in row panels, in place; the
    # reference forms it in one product and subtracts, and both give the same bits
    s, t = random_complex(rng, m), rng.standard_normal(m) + 1j * rng.standard_normal(m)
    filt = build_filtration(s, t if diagonal else np.diag(t), np.linalg.qr(random_complex(rng, m)[:, :k])[0])
    mb = filt.blocks[0]  # the seed as the check reads it, a view of the basis
    h = -traceless.filtration._bracket(filt.t, filt.s)  # [S, T], entrywise for a 1-d T
    h[np.diag_indices(m)] += (np.trace(mb.conj().T @ h @ mb) - np.trace(h)) / (m - k)
    report = verify_filtration_structure(filt, 1.0, 1.0)
    assert report.hypothesis_residual == hs_norm(h - mb @ (mb.conj().T @ h))
    assert report.hypothesis_tol == STRUCTURE_TOL * hs_norm(h)


def test_structure_check_holds_one_square_array():
    # [S, T] is shifted and projected in place, so the check's traced peak is
    # [S, T] itself, one row panel of M M* [S, T] and hs_norm's finiteness mask
    m = 256
    z = gaussian_points(m) / float(np.max(np.abs(gaussian_points(m))))
    filt = build_filtration(traceless.lowerbound._witness_ctilde(z), z, np.full((m, 1), m**-0.5, dtype=complex))
    verify_filtration_structure(filt, 1.0, 1.0)  # lazy set-up outside the trace
    tracemalloc.start()
    try:
        assert verify_filtration_structure(filt, 1.0, 1.0).hypothesis_ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * m * m * np.dtype(complex).itemsize


# The per-pair and projector forms of the residuals, kept as references for
# the single compression basis* op basis that the package computes.
def reference_structure_residuals(blocks, s, t):
    res_s = res_t = 0.0
    for i in range(len(blocks)):
        for j in range(len(blocks)):
            if i > j + 1:
                res_s = max(res_s, hs_norm(blocks[i].conj().T @ s @ blocks[j]))
                res_t = max(res_t, hs_norm(blocks[i].conj().T @ t @ blocks[j]))
    return res_s, res_t


def reference_invariance_residual(basis, s, t, m):
    pi = np.eye(m) if basis.shape[1] == m else basis @ basis.conj().T
    comp = np.eye(m) - pi
    return hs_norm(comp @ s @ pi) + hs_norm(comp @ t @ pi)


def build_compression(filt, s, t):
    # the build's own operands: S's image formed block by block, as the build forms it,
    # and G_S with the blocks that the build's first Gram-Schmidt passes formed
    basis = np.column_stack(filt.blocks)
    image_s = np.column_stack([s @ blk for blk in filt.blocks])
    return _chain_compression(basis, filt.dims, image_s, t, np.array(filt.compression_s))


def assert_matches_references(blocks, s, t):
    # fixed from the dtype: a few hundred roundings per entry of an m x m product
    m = s.shape[0]
    tol = 100 * m * np.finfo(np.float64).eps * (operator_norm(s) + operator_norm(t))
    basis = np.column_stack(blocks)
    comp = basis.conj().T @ s @ basis
    res_s, res_t, inv, _ = _chain_compression(basis, [b.shape[1] for b in blocks], s @ basis, t, comp)
    ref_s, ref_t = reference_structure_residuals(blocks, s, t)
    ref_inv = reference_invariance_residual(basis, s, t, m)
    assert abs(res_s - ref_s) <= tol
    assert abs(res_t - ref_t) <= tol
    assert abs(inv - ref_inv) <= tol


@pytest.mark.parametrize("m", [16, 64])
def test_compression_matches_references_witness(m):
    b, c = normalized_witness_factors(m)
    filt = build_filtration(b, c, seed_vector(m))
    assert filt.complete()
    for k in (len(filt.blocks), len(filt.blocks) // 2, 3, 2, 1):  # whole and truncated chains
        assert_matches_references(filt.blocks[:k], b, c)


@pytest.mark.parametrize("m", [16, 64])
def test_compression_matches_references_random(rng, m):
    s, t = random_complex(rng, m), random_complex(rng, m)
    mb, _ = np.linalg.qr(random_complex(rng, m)[:, :2])
    filt = build_filtration(s, t, mb)
    assert filt.block_residual_t > 1e-3  # T leaves the chain: a nonzero case
    for k in (len(filt.blocks), 3, 2):
        assert_matches_references(filt.blocks[:k], s, t)
    res_s, res_t, inv, _ = build_compression(filt, s, t)
    stored = (filt.block_residual_s, filt.block_residual_t, filt.invariance_residual)
    assert stored == (res_s, res_t, inv)


@pytest.mark.parametrize("k", [1e200, 1e150, 1e-150])
@pytest.mark.parametrize("shift", [0.0, 0.5])
def test_hostile_scale_of_t(k, shift):
    # entries scaled by 1e200 and 1e+-150: the chain's spans are scale-free, so
    # T = kB gives the dims and the verdict of T = B, for the witness pair and
    # for C + B/2 in the S slot; the compression is rescaled before its entries
    # are squared, so T's block residual stays finite and nonzero
    b, c = normalized_witness_factors(64)
    s = c + shift * b
    base = build_filtration(s, b, seed_vector(64))
    scaled = build_filtration(s, k * b, seed_vector(64))
    assert 0.0 < scaled.block_residual_t < np.inf
    assert scaled.dims == base.dims
    assert measured_structure(scaled).all_ok == measured_structure(base).all_ok


def test_power_of_two_scale_of_t_is_exact():
    # the T-chain is rescaled by powers of two before its norms are taken, so
    # T = kB builds the very basis of T = B, bit for bit, also at k = 2^-600,
    # where the squares of the chain's entries underflow; the compression is
    # rescaled the same way, so its block residual is k times that of T = B
    b, c = normalized_witness_factors(64)
    base = build_filtration(c, b, seed_vector(64))
    for k in (2.0**500, 2.0**-600):
        scaled = build_filtration(c, k * b, seed_vector(64))
        assert np.array_equal(scaled.basis, base.basis)
        assert scaled.block_residual_t == k * base.block_residual_t


def test_power_of_two_scale_of_s_is_exact():
    # the candidates S H_n are rescaled by the power of two of S's largest real
    # or imaginary part, so S = kC builds the very basis of S = C, bit for bit,
    # also at k = 2^-600; the compression is rescaled the same way, so its
    # block residual is k times that of S = C
    b, c = normalized_witness_factors(64)
    base = build_filtration(c, b, seed_vector(64))
    for k in (2.0**500, 2.0**-600):
        scaled = build_filtration(k * c, b, seed_vector(64))
        assert np.array_equal(scaled.basis, base.basis)
        assert scaled.block_residual_s == k * base.block_residual_s


@pytest.mark.parametrize("k", [1e200, 1e-150])
def test_hostile_scale_of_s(k):
    # S = kC: plain squares of the compression's entries would over- or
    # underflow here; rescaled first, both block residuals stay finite and
    # nonzero, and the dims and the verdict are those of S = C
    b, c = normalized_witness_factors(64)
    base = build_filtration(c, b, seed_vector(64))
    scaled = build_filtration(k * c, b, seed_vector(64))
    for res in (scaled.block_residual_s, scaled.block_residual_t):
        assert 0.0 < res < np.inf
    assert scaled.dims == base.dims
    assert measured_structure(scaled).all_ok == measured_structure(base).all_ok


@pytest.mark.parametrize("pair", ["witness", "random"])
def test_two_full_basis_passes_per_degree(rng, monkeypatch, pair):
    # one Gram-Schmidt pass of the candidates against the whole basis before the
    # rank decisions, one of the accepted block before its QR; the in-degree
    # passes project against the degree's own columns, which start elsewhere
    if pair == "witness":
        m, mb = 64, seed_vector(64)
        b, c = normalized_witness_factors(m)
        s, t = c, b
    else:
        m = 40
        s, t = random_complex(rng, m), random_complex(rng, m)
        mb, _ = np.linalg.qr(random_complex(rng, m)[:, :2])
    calls = []
    orig = traceless.filtration._project_once

    def counted(basis, vecs):
        calls.append((basis.ctypes.data, basis.shape[1]))
        return orig(basis, vecs)

    monkeypatch.setattr(traceless.filtration, "_project_once", counted)
    filt = build_filtration(s, t, mb)
    assert filt.complete()
    full = Counter(width for start, width in calls if start == calls[0][0])
    assert full == Counter({width: 2 for width in accumulate(filt.dims[:-1])})


@pytest.mark.parametrize("m", [5, 16, 40])
def test_diagonal_t_is_its_matrix(rng, m):
    # a 1-d T is read as diag(T): the same dims, and residuals that agree to rounding
    s = random_complex(rng, m)
    z = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    seed = random_unitary(rng, m)[:, :1]
    vec, mat = build_filtration(s, z, seed), build_filtration(s, np.diag(z), seed)
    assert vec.dims == mat.dims
    assert vec.t.shape == (m,) and not vec.t.flags.writeable
    tol = 64 * m * np.finfo(np.float64).eps * (operator_norm(s) + operator_norm(np.diag(z)))
    for a, b in ((vec.block_residual_s, mat.block_residual_s), (vec.block_residual_t, mat.block_residual_t),
                 (vec.invariance_residual, mat.invariance_residual)):
        assert abs(a - b) <= tol
    assert hs_norm(vec.compression_s - mat.compression_s) <= 1e-10 * hs_norm(mat.compression_s)


@pytest.mark.parametrize("m", [12, 40])
def test_structure_check_takes_a_diagonal_t(m, monkeypatch):
    # the witness in B's eigenframe: S = C-tilde, T = diag(z), seeded at 1/sqrt(m)
    z = gaussian_points(m) / float(np.max(np.abs(gaussian_points(m))))
    ctilde = traceless.lowerbound._witness_ctilde(z)
    ones = np.full((m, 1), 1.0 / np.sqrt(m), dtype=complex)
    mat = measured_structure(build_filtration(ctilde, np.diag(z), ones))
    filt = build_filtration(ctilde, z, ones)
    norm_s, norm_t = operator_norm(ctilde), float(np.max(np.abs(z)))  # ||diag(z)||, up to rounding

    def unreachable(*args, **kwargs):
        raise AssertionError("the 1-d T was densified")

    # [S, T] for a 1-d T is formed entrywise, with no m x m diag(T) and no product with it
    monkeypatch.setattr(np, "diag", unreachable)
    monkeypatch.setattr(traceless.filtration, "commutator", unreachable)
    vec = verify_filtration_structure(filt, norm_s, norm_t)
    monkeypatch.undo()
    assert vec.all_ok and mat.all_ok
    assert vec.dims == mat.dims == exact_witness_dims(m, PRIMES[0])
    assert abs(vec.hypothesis_residual - mat.hypothesis_residual) <= 1e-14
    assert abs(vec.structure_tol - mat.structure_tol) <= 1e-20


@pytest.mark.parametrize("dims", [[1, 2], [1, 2, 3], [1, 2, 3, 4, 5, 6, 7, 8, 4]])
def test_far_blocks_alone_give_the_block_residual(rng, dims):
    # S's far blocks are sliced from G_S; T's are per-column panels on a complete
    # span (extra = 0) and sliced from G_T when extra dimensions lie outside it
    for extra in (0, 3):
        m = sum(dims) + extra
        basis = random_unitary(rng, m)[:, : sum(dims)]
        s, t = random_complex(rng, m), random_complex(rng, m)
        comp = basis.conj().T @ s @ basis
        res = _chain_compression(basis, dims, s @ basis, t, comp.copy())[:2]
        blocks = np.split(basis, list(accumulate(dims))[:-1], axis=1)
        for got, ref in zip(res, reference_structure_residuals(blocks, s, t)):
            assert abs(got - ref) <= 64 * m * np.finfo(np.float64).eps * ref
            assert (got > 0.0) == (len(dims) > 2)
        tiny = _chain_compression(basis, dims, 2.0**-600 * (s @ basis), 2.0**-600 * t, 2.0**-600 * comp)[:2]
        assert tiny == tuple(2.0**-600 * r for r in res)


def test_diagonal_t_is_validated(rng):
    s = random_complex(rng, 4)
    with pytest.raises(ValueError, match="dimension mismatch"):
        build_filtration(s, np.ones(5), seed_vector(4))
    with pytest.raises(ValueError, match="non-finite"):
        build_filtration(s, np.array([1.0, np.nan, 2.0, 3.0]), seed_vector(4))


@pytest.mark.parametrize("m", [12, 40])
def test_verify_reuses_build_numbers_exactly(m):
    b, c = normalized_witness_factors(m)
    filt = build_filtration(c, b, seed_vector(m))
    report = verify_filtration_structure(filt, operator_norm(c), operator_norm(b))
    assert report.all_ok
    # the build's residuals, equal to a fresh compression bit for bit, and the norms given
    fresh = build_compression(filt, c, b)[:3]
    assert (report.structure_residual_s, report.structure_residual_t, report.invariance_residual) == fresh
    assert report.structure_tol == report.invariance_tol == STRUCTURE_TOL * (operator_norm(c) + operator_norm(b))


def test_cli_filtration_computes_norms_once(tmp_path, monkeypatch):
    m = 12
    b, c = normalized_witness_factors(m)
    paths = [str(tmp_path / f"{name}.txt") for name in "STM"]
    for path, mat in zip(paths, (b, c, seed_vector(m))):
        write_matrix(path, mat)
    calls = []
    orig = traceless.cli.operator_norm

    def counted(mat):
        calls.append(mat.shape)
        return orig(mat)

    monkeypatch.setattr(traceless.cli, "operator_norm", counted)
    assert main(["filtration", *paths, "--out", str(tmp_path / "f.json")]) == 0
    # ||S|| and ||T||, each once, measured by the command for the structure tolerance
    assert calls == [(m, m), (m, m)]


def growing_dims(n: int) -> list[int]:
    """Block widths 1, 2, 3, ... summing to n, the last one cut short, as the witness's grow."""
    dims = []
    while sum(dims) < n:
        dims.append(min(len(dims) + 1, n - sum(dims)))
    return dims


def first_pass_blocks(g_s, dims, complete):
    """G_S where the build's first passes form it, NaN elsewhere.

    The first pass of degree n + 1 gives block column n down to block n; a
    complete span stops before the pass of its last block.
    """
    first = np.full_like(g_s, np.nan)
    ends = list(accumulate(dims))
    for j, (end, d) in enumerate(zip(ends, dims)):
        if not (complete and j == len(dims) - 1):
            first[:end, end - d : end] = g_s[:end, end - d : end]
    return first


def far_block_residual(g, dims):
    ends = list(accumulate(dims))
    spans = [slice(end - d, end) for end, d in zip(ends, dims)]
    return max((hs_norm(g[si, sj]) for i, si in enumerate(spans) for j, sj in enumerate(spans) if i > j + 1),
               default=0.0)


@pytest.mark.parametrize("m", [2, 3, 16, 64, 100, 257])
@pytest.mark.parametrize("diagonal", [False, True])
def test_panel_pass_matches_the_direct_products(rng, m, diagonal):
    # the compression's panels against the whole products basis* S basis,
    # basis* basis and basis* T basis, on a complete span and an incomplete one:
    # it keeps the first passes' blocks of G_S, forms the rest, forms an exactly
    # Hermitian Gram, and takes the far blocks' residuals; power-of-two scales
    # of S and T scale them bit for bit
    eps = np.finfo(np.float64).eps
    for n in (m, m - 1 - m // 8):
        dims = growing_dims(n)
        basis = random_unitary(rng, m)[:, :n]
        s = random_complex(rng, m)
        t = rng.standard_normal(m) + 1j * rng.standard_normal(m) if diagonal else random_complex(rng, m)
        t_op = np.diag(t) if diagonal else t
        g_s, g_b, g_t = (basis.conj().T @ op @ basis for op in (s, np.eye(m), t_op))
        first = first_pass_blocks(g_s, dims, complete=n == m)
        comp = first.copy()
        res_s, res_t, inv, gram = _chain_compression(basis, dims, s @ basis, t, comp)
        known = ~np.isnan(first)
        assert np.array_equal(comp[known], first[known])
        tol = 64 * m * eps
        assert hs_norm(comp - g_s) <= tol * hs_norm(g_s)
        assert np.array_equal(gram, gram.conj().T)
        assert hs_norm(gram - g_b) <= tol * hs_norm(g_b)
        for got, g in ((res_s, g_s), (res_t, g_t)):
            ref = far_block_residual(g, dims)
            assert abs(got - ref) <= tol * ref
            assert (got > 0.0) == (len(dims) > 2)
        ref_inv = reference_invariance_residual(basis, s, t_op, m)
        assert inv == 0.0 if n == m else abs(inv - ref_inv) <= tol * ref_inv
        for k in (2.0**600, 2.0**-600):
            scaled = k * first
            res = _chain_compression(basis, dims, k * (s @ basis), k * t, scaled)
            assert res[:2] == (k * res_s, k * res_t)
            assert np.array_equal(scaled, k * comp) and np.array_equal(res[3], gram)


def test_build_gram_is_hermitian_and_read_only():
    b, c = normalized_witness_factors(64)
    filt = build_filtration(c, b, seed_vector(64))
    assert np.array_equal(filt.gram, filt.gram.conj().T) and not filt.gram.flags.writeable
    direct = filt.basis.conj().T @ filt.basis
    assert hs_norm(filt.gram - direct) <= 64 * 64 * np.finfo(np.float64).eps * hs_norm(direct)


# The build's rank decisions before one QR decided each degree, kept as a
# reference: each candidate in turn, projected twice against the directions
# its degree accepted before it, is new iff what is left exceeds rank_tol of
# its norm.
def column_loop_directions(cands, norms0, rank_tol, out):
    na = 0
    for vec, norm0 in zip(cands.T, norms0):
        if na:
            vec = traceless.filtration._project_out(out[:, :na], vec)
        norm = float(np.linalg.norm(vec))
        if norm > rank_tol * norm0 and na < out.shape[1]:
            out[:, na] = vec / norm
            na += 1
    return na


def dims_both_ways(monkeypatch, s, t, mb):
    """The build's dims with its QR decisions, and with the column loop."""
    qr_dims = build_filtration(s, t, mb).dims
    with monkeypatch.context() as patched:
        patched.setattr(traceless.filtration, "_new_directions", column_loop_directions)
        loop_dims = build_filtration(s, t, mb).dims
    return qr_dims, loop_dims


def test_qr_decisions_give_the_column_loop_dims_on_the_witness(monkeypatch):
    # the report's pair in B's eigenframe, (C-tilde, z) seeded at 1/sqrt(m)
    for m in range(2, 130):
        points = gaussian_points(m)[_fisher_yates(np.random.default_rng(0), m)]
        z = points / float(np.max(np.abs(points)))
        ones = np.full((m, 1), 1.0 / np.sqrt(m), dtype=complex)
        qr_dims, loop_dims = dims_both_ways(monkeypatch, traceless.lowerbound._witness_ctilde(z), z, ones)
        assert qr_dims == loop_dims, m


@pytest.mark.parametrize("m, width", [(12, 1), (12, 3), (40, 1), (40, 3), (64, 2)])
def test_qr_decisions_give_the_column_loop_dims_on_random_pairs(rng, monkeypatch, m, width):
    s, t = random_complex(rng, m), random_complex(rng, m)
    mb, _ = np.linalg.qr(random_complex(rng, m)[:, :width])
    qr_dims, loop_dims = dims_both_ways(monkeypatch, s, t, mb)
    assert qr_dims == loop_dims
    assert sum(qr_dims) == m


def test_qr_decisions_restart_after_a_rejection(rng, monkeypatch):
    # S kills m_1 - m_2 for seed columns m_1, m_2, so S m_2 = S m_1 to rounding:
    # degree 1 rejects its second candidate within the degree, and the QR
    # restarts on the candidates after it, projected against S m_1's direction
    m = 12
    mb, _ = np.linalg.qr(random_complex(rng, m)[:, :3])
    v = (mb[:, 0] - mb[:, 1]) / np.sqrt(2.0)
    s = random_complex(rng, m)
    s -= np.outer(s @ v, v.conj())
    t = random_complex(rng, m)
    restarts = []
    orig = traceless.filtration._project_out

    def counted(basis, vecs):
        restarts.append(vecs.shape[1])
        return orig(basis, vecs)

    monkeypatch.setattr(traceless.filtration, "_project_out", counted)
    qr_dims = build_filtration(s, t, mb).dims
    monkeypatch.undo()
    assert restarts and restarts[0] == 4  # S m_3 and the T-chain's three columns
    qr_again, loop_dims = dims_both_ways(monkeypatch, s, t, mb)
    assert qr_dims == qr_again == loop_dims
    assert qr_dims[:2] == [3, 5]
    # one candidate set, directly: the exact repeat of x is rejected, z decided after it
    x, y, z = random_complex(rng, m)[:, :3].T
    cands = np.column_stack([x, y, x, z])
    norms0 = np.linalg.norm(cands, axis=0)
    calls = []
    orig_qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda a, *args: calls.append(a.shape[1]) or orig_qr(a, *args))
    out = np.empty((m, m), dtype=complex)
    assert _new_directions(cands, norms0, RANK_TOL * m, out) == 3
    monkeypatch.undo()
    assert calls == [4, 1]
    ref = np.empty((m, m), dtype=complex)
    assert column_loop_directions(cands, norms0, RANK_TOL * m, ref) == 3
    got, want = out[:, :3], ref[:, :3]
    assert hs_norm(got.conj().T @ got - np.eye(3)) <= 1e-14
    assert hs_norm(got @ got.conj().T - want @ want.conj().T) <= 1e-12
