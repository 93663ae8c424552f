import dataclasses

import numpy as np
import pytest

import traceless.filtration
from traceless.cli import main
from traceless.factorizer import factor
from traceless.filtration import _chain_residuals, build_filtration, verify_filtration_structure
from traceless.linalg import hs_norm, operator_norm
from traceless.lowerbound import extremal_matrix
from traceless.matio import write_matrix

from conftest import random_complex, random_unitary


def seed_vector(m: int) -> np.ndarray:
    e1 = np.zeros((m, 1), dtype=complex)
    e1[0, 0] = 1.0
    return e1


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
        basis = filt.basis()
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


class TestVerifyFiltrationStructure:
    def test_m2_witness_all_pass(self):
        b, c = normalized_witness_factors(2)
        mb = seed_vector(2)
        filt = build_filtration(b, c, mb)
        report = verify_filtration_structure(filt, b, c, 0.5, mb)
        assert report.hypothesis_ok
        assert report.hypothesis_residual <= 1e-10
        assert report.structure_ok and report.invariance_ok and report.dims_ok
        assert max(report.structure_residual_s, report.structure_residual_t) <= 1e-10
        assert report.invariance_residual <= 1e-10
        assert report.all_ok

    def test_negative_control_random_pair(self, rng):
        m = 5
        s, t = random_complex(rng, m), random_complex(rng, m)
        mb = seed_vector(m)
        filt = build_filtration(s, t, mb)
        report = verify_filtration_structure(filt, s, t, 0.0, mb)
        assert not report.hypothesis_ok
        assert report.structure_ok is None  # flagged as skipped
        assert report.invariance_ok is None
        assert not report.all_ok

    @pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
    def test_checks_are_scale_free(self, rng, scale):
        m = 5
        s, t = random_complex(rng, m), random_complex(rng, m)
        mb = seed_vector(m)
        report = verify_filtration_structure(build_filtration(s, t, mb), scale * s, scale * t, 0.0, mb)
        assert not report.hypothesis_ok and not report.all_ok
        b, c = normalized_witness_factors(9)
        filt = build_filtration(b, c, seed_vector(9))
        report = verify_filtration_structure(filt, scale * b, c, scale / 9.0, seed_vector(9))
        assert report.all_ok

    def test_tridiagonal_by_construction(self):
        # projecting the operators onto the block-tridiagonal pattern of an
        # existing filtration makes the structure residual exactly zero
        b, c = normalized_witness_factors(9)
        mb = seed_vector(9)
        filt = build_filtration(b, c, mb)
        ps = projectors(filt)
        s_tri = np.zeros_like(b)
        t_tri = np.zeros_like(c)
        for i, pi in enumerate(ps):
            for j, pj in enumerate(ps):
                if i <= j + 1:
                    s_tri += pi @ b @ pj
                    t_tri += pi @ c @ pj
        report = verify_filtration_structure(filt, s_tri, t_tri, 1.0 / 9.0, mb)
        assert max(report.structure_residual_s, report.structure_residual_t) <= 1e-12

    def test_mismatched_seed_rejected(self, rng):
        b, c = normalized_witness_factors(4)
        mb = seed_vector(4)
        filt = build_filtration(b, c, mb)
        other = np.zeros((4, 1), dtype=complex)
        other[1, 0] = 1.0
        with pytest.raises(ValueError, match="seed"):
            verify_filtration_structure(filt, b, c, 0.25, other)


@pytest.mark.parametrize("m", [4, 9, 16])
def test_witness_filtration_complete(m):
    b, c = normalized_witness_factors(m)
    filt = build_filtration(b, c, seed_vector(m))
    assert filt.total_dim == m
    assert all(d <= n + 1 for n, d in enumerate(filt.dims))
    tol = 1e-8 * (operator_norm(b) + operator_norm(c))
    assert max(filt.block_residual_s, filt.block_residual_t) <= tol
    assert filt.invariance_residual <= 1e-8


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


def assert_matches_references(blocks, s, t):
    # fixed from the dtype: a few hundred roundings per entry of an m x m product
    m = s.shape[0]
    tol = 100 * m * np.finfo(np.float64).eps * (operator_norm(s) + operator_norm(t))
    res_s, res_t, inv = _chain_residuals(blocks, s, t)
    ref_s, ref_t = reference_structure_residuals(blocks, s, t)
    ref_inv = reference_invariance_residual(np.column_stack(blocks), s, t, m)
    assert abs(res_s - ref_s) <= tol
    assert abs(res_t - ref_t) <= tol
    assert abs(inv - ref_inv) <= tol


@pytest.mark.parametrize("m", [16, 64])
def test_compression_matches_references_witness(m):
    b, c = normalized_witness_factors(m)
    filt = build_filtration(b, c, seed_vector(m))
    assert filt.complete(m)
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
    res_s, res_t, inv = _chain_residuals(filt.blocks, s, t)
    stored = (filt.block_residual_s, filt.block_residual_t, filt.invariance_residual)
    assert stored == (res_s, res_t, inv)


def test_stored_generator_norms(rng):
    s, t = random_complex(rng, 6), np.zeros((6, 6))
    filt = build_filtration(s, t, seed_vector(6))
    assert filt.norm_s == operator_norm(s) and filt.norm_t == 0.0


@pytest.mark.parametrize("m", [12, 40])
def test_verify_reuses_build_numbers_exactly(m):
    b, c = normalized_witness_factors(m)
    mb = seed_vector(m)
    filt = build_filtration(b, c, mb)
    reused = verify_filtration_structure(filt, b, c, 1.0 / m, mb)
    # generators the build did not see force the full recomputation
    fresh = dataclasses.replace(filt, generators=(np.zeros_like(b), np.zeros_like(c)))
    assert reused == verify_filtration_structure(fresh, b, c, 1.0 / m, mb)
    assert reused.all_ok
    # equal copies are the same operators
    assert reused == verify_filtration_structure(filt, b.copy(), c.copy(), 1.0 / m, mb)


def test_cli_filtration_computes_norms_once(tmp_path, monkeypatch):
    m = 12
    b, c = normalized_witness_factors(m)
    paths = [str(tmp_path / f"{name}.txt") for name in "STM"]
    for path, mat in zip(paths, (b, c, seed_vector(m))):
        write_matrix(path, mat)
    calls = []
    orig = traceless.filtration.operator_norm

    def counted(mat):
        calls.append(mat.shape)
        return orig(mat)

    monkeypatch.setattr(traceless.filtration, "operator_norm", counted)
    assert main(["filtration", *paths, "--lam", f"{1.0 / m!r},0", "--out", str(tmp_path / "f.json")]) == 0
    assert len(calls) == 2  # ||S|| and ||T|| in the build; verify reuses them
