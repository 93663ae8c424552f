import math

import numpy as np
import pytest

import traceless.factorizer
from traceless.factorizer import c_from_b, factor
from traceless.lattice import gaussian_points
from traceless.linalg import NonzeroTraceError, certify, commutator, hs_norm, operator_norm
from traceless.lowerbound import extremal_matrix

from conftest import (
    expectation_identity_gap,
    is_normal,
    mean_c2_over_permutations,
    random_trace_zero,
    random_zero_diagonal,
)

CROSS = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


class TestCFromB:
    def test_zero_input(self):
        atilde = np.zeros((3, 3))
        assert np.array_equal(c_from_b(atilde, [0.0, 1.0, 2.0]), np.zeros((3, 3)))

    def test_hand_2x2(self):
        c = c_from_b(CROSS, [0.0, 1.0])
        assert np.allclose(c, [[0.0, -1.0], [1.0, 0.0]], atol=1e-15)
        assert np.allclose(commutator(np.diag([0.0, 1.0 + 0j]), c), CROSS)

    def test_hand_2x2_half(self):
        c = c_from_b(0.5 * CROSS, [0.0, 1.0])
        assert np.allclose(c, [[0.0, -0.5], [0.5, 0.0]], atol=1e-15)

    def test_commutator_identity(self, rng):
        for m in (3, 5, 8):
            atilde = random_zero_diagonal(rng, m)
            b = gaussian_points(m)
            c = c_from_b(atilde, b)
            resid = hs_norm(commutator(np.diag(b), c) - atilde)
            assert resid <= 1e-12 * max(1.0, hs_norm(atilde))
            assert np.all(np.diag(c) == 0.0)

    def test_repeated_values_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            c_from_b(CROSS, [1.0, 1.0])

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(ValueError, match="diagonal"):
            c_from_b(np.eye(2), [0.0, 1.0])


class TestFactor:
    def test_hand_2x2_cross(self):
        cert = factor(CROSS, trials=4, seed=0)
        assert cert.valid
        assert cert.ratio == pytest.approx(1.0, abs=1e-12)
        assert cert.op_norm_b == pytest.approx(1.0, abs=1e-12)

    def test_hand_2x2_diag(self):
        cert = factor(np.diag([0.5 + 0j, -0.5]), trials=4, seed=0)
        assert cert.valid
        assert cert.op_norm_b == pytest.approx(1.0, abs=1e-12)
        assert cert.hs_norm_c == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
        assert cert.ratio == pytest.approx(1.0, abs=1e-12)

    def test_zero_matrix(self):
        cert = factor(np.zeros((4, 4)), trials=2, seed=0)
        assert cert.valid
        assert cert.ratio == 0.0
        assert hs_norm(cert.c) == 0.0

    def test_nonzero_trace_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            factor(np.eye(3))

    def test_tiny_nonzero_trace_rejected(self, rng):
        with pytest.raises(NonzeroTraceError):
            factor(1e-150 * np.eye(3))
        a = 1e-150 * random_trace_zero(rng, 8)
        a[0, 0] += 1e-153
        with pytest.raises(NonzeroTraceError):
            factor(a)

    @pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e150])
    def test_extreme_scales_certified(self, rng, scale):
        a = scale * random_trace_zero(rng, 16)
        cert = factor(a, trials=8, seed=0)
        assert cert.valid and cert.reduction_converged
        assert cert.residual <= 1e-10 * cert.op_norm_b * cert.hs_norm_c
        assert cert.hs_norm_a == pytest.approx(scale * hs_norm(a / scale), rel=1e-12)

    @pytest.mark.parametrize("m", [8, 16, 64])
    def test_near_overflow_certified(self, rng, m):
        # |a_ij|^2 overflows here; the assignment objective must not
        a = 1e300 * random_trace_zero(rng, m)
        cert = factor(a, trials=8, seed=0)
        assert cert.valid and cert.reduction_converged
        assert cert.ratio <= cert.bound

    def test_objective_weights_scale_free(self, rng):
        # the objective sees |a_ij|^2 of A-tilde scaled to max modulus in [0.5, 1), bit for bit
        a = random_zero_diagonal(rng, 12)
        base = traceless.factorizer._scaled_abs2(a)
        assert 0.25 <= base.max() < 1.0
        for k in (-1000, -3, 7, 990):
            assert np.array_equal(traceless.factorizer._scaled_abs2(a * 2.0**k), base)

    def test_no_finite_trial_is_an_error(self, rng, monkeypatch):
        monkeypatch.setattr(traceless.factorizer, "_assignment_objective", lambda *args: math.nan)
        with pytest.raises(np.linalg.LinAlgError, match="finite"):
            factor(random_trace_zero(rng, 4), trials=3)

    def test_m1(self):
        cert = factor(np.zeros((1, 1)), trials=1)
        assert cert.valid and cert.ratio == 0.0 and cert.residual == 0.0
        with pytest.raises(NonzeroTraceError):
            factor(np.array([[1e-12]]))

    @pytest.mark.parametrize("m", [2, 16])
    def test_fields_are_certify_bits(self, rng, m):
        a = random_trace_zero(rng, m)
        cert = factor(a, trials=4, seed=0)
        check = certify(a, cert.b, cert.c, cert.op_norm_b)
        assert (cert.residual, cert.op_norm_b, cert.hs_norm_c, cert.hs_norm_a, cert.ratio) == (
            check.residual, check.op_norm_b, check.hs_norm_c, check.hs_norm_a, check.ratio
        )

    @pytest.mark.parametrize("m", [4, 8, 16, 32, 64])
    def test_end_to_end_invariants(self, rng, m):
        a = random_trace_zero(rng, m)
        cert = factor(a, trials=8, seed=1)
        assert cert.valid
        assert cert.residual <= 1e-10 * max(1.0, cert.op_norm_b * cert.hs_norm_c)
        assert is_normal(cert.b, 1e-10)
        assert cert.op_norm_b <= 1.0 + math.sqrt(m / math.pi) + 1e-9
        # factors actually commute back to A
        assert hs_norm(a - commutator(cert.b, cert.c)) == pytest.approx(cert.residual)

    def test_homogeneity_power_of_two(self, rng):
        a = random_trace_zero(rng, 6)
        base = factor(a, trials=8, seed=3)
        for t in (2.0, 0.25):
            scaled = factor(t * a, trials=8, seed=3)
            assert scaled.ratio == base.ratio  # bit-identical for exact scalings
            assert scaled.op_norm_b == base.op_norm_b

    def test_reproducible(self, rng):
        a = random_trace_zero(rng, 8)
        c1 = factor(a, trials=8, seed=9)
        c2 = factor(a, trials=8, seed=9)
        assert np.array_equal(c1.b, c2.b) and np.array_equal(c1.c, c2.c)
        assert c1.ratio == c2.ratio


class TestMeanOverPermutations:
    def test_matches_closed_form(self, rng):
        for m in (3, 4, 5):
            atilde = random_zero_diagonal(rng, m)
            assert expectation_identity_gap(atilde, gaussian_points(m)) <= 1e-12

    def test_zero_matrix(self):
        assert mean_c2_over_permutations(np.zeros((3, 3)), gaussian_points(3)) == 0.0

    def test_m2_permutation_independent(self, rng):
        atilde = random_zero_diagonal(rng, 2)
        pts = gaussian_points(2)
        mean = mean_c2_over_permutations(atilde, pts)
        d2 = abs(pts[0] - pts[1]) ** 2
        assert mean == pytest.approx(hs_norm(atilde) ** 2 / d2, rel=1e-14)

    def test_too_large_rejected(self):
        with pytest.raises(ValueError, match="factorial"):
            mean_c2_over_permutations(np.zeros((9, 9)), gaussian_points(9))


def test_ratio_window_small_sample(rng):
    # acceptance covers the full grid; spot-check the window here
    for m in (4, 16, 64):
        a = random_trace_zero(rng, m)
        cert = factor(a, trials=32, seed=0)
        assert cert.ratio**2 - math.log(m) <= 10.0
        assert cert.ratio <= cert.bound


def per_step_fisher_yates(rng, n):
    # the original shuffle, one integers() call per step, kept as the reference
    perm = np.arange(n)
    for i in range(n - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        perm[i], perm[j] = perm[j], perm[i]
    return perm


@pytest.mark.parametrize("n", [1, 2, 3, 7, 100, 256, 512, 4096])
def test_fisher_yates_matches_per_step_draws(n):
    for seed in range(40):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(2):  # a second shuffle from the same stream
            perm = traceless.factorizer._fisher_yates(rng, n)
            assert np.array_equal(perm, per_step_fisher_yates(ref_rng, n))
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def eigenframe_input(kind, m):
    return extremal_matrix(m) if kind == "witness" else random_trace_zero(np.random.default_rng(m), m)


EIGENFRAME_INPUTS = [("witness", 16), ("witness", 64), ("witness", 128),
                     ("ginibre", 2), ("ginibre", 7), ("ginibre", 33), ("ginibre", 64)]


class TestEigenframeCertificate:
    @pytest.mark.parametrize("kind, m", EIGENFRAME_INPUTS)
    def test_op_norm_b_is_a_tight_upper_bound(self, kind, m):
        cert = factor(eigenframe_input(kind, m), trials=8, seed=0)
        assert cert.valid
        op_b = operator_norm(cert.b)
        assert op_b <= cert.op_norm_b * (1.0 + 8 * np.finfo(np.float64).eps)
        assert cert.op_norm_b <= op_b * (1.0 + 1e-12)
        assert cert.unitarity_defect == hs_norm(cert.q.conj().T @ cert.q - np.eye(m))
        assert is_normal(cert.b, 1e-10)

    def test_unitarity_defect_refuses(self, rng, skewed_q):
        cert = factor(random_trace_zero(rng, 8), trials=4, seed=0)
        assert cert.unitarity_defect > 1e-6
        assert not cert.valid

    @pytest.mark.parametrize("m", [2, 7, 33, 64])
    def test_power_of_two_scales_give_the_same_bits(self, m):
        # the reduction scales A by a power of two first, so Q does not change
        a = eigenframe_input("ginibre", m)
        base = factor(a, trials=8, seed=0)
        assert base.valid
        for k in (500, -500):
            scaled = factor(2.0**k * a, trials=8, seed=0)
            assert scaled.valid
            assert (scaled.op_norm_b, scaled.ratio) == (base.op_norm_b, base.ratio)

    def test_no_full_svd(self, monkeypatch):
        shapes = []
        orig = np.linalg.svd

        def counted(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return orig(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        cert = factor(eigenframe_input("ginibre", 64), trials=4, seed=0)
        assert cert.valid
        assert shapes  # the reduction's stacked solves went through the counter
        assert [s for s in shapes if len(s) == 2] == []  # those are 3-d; B needs no SVD
