import math

import numpy as np
import pytest

import traceless.factorizer
from traceless.factorizer import (
    c_from_b,
    expectation_identity_gap,
    factor,
    local_swap_improve,
    mean_c2_over_permutations,
)
from traceless.lattice import gaussian_points
from traceless.linalg import NonzeroTraceError, certify, commutator, hs_norm, is_normal

from conftest import random_trace_zero, random_zero_diagonal

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
            b = gaussian_points(m).points
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
        check = certify(a, cert.b, cert.c)
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

    def test_optimize_assignment_never_worse(self, rng):
        a = random_trace_zero(rng, 8)
        plain = factor(a, trials=4, seed=2)
        swapped = factor(a, trials=4, seed=2, optimize_assignment=True)
        assert swapped.hs_norm_c <= plain.hs_norm_c + 1e-12


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
        d2 = abs(pts.points[0] - pts.points[1]) ** 2
        assert mean == pytest.approx(hs_norm(atilde) ** 2 / d2, rel=1e-14)

    def test_too_large_rejected(self):
        with pytest.raises(ValueError, match="factorial"):
            mean_c2_over_permutations(np.zeros((9, 9)), gaussian_points(9))


class TestLocalSwapImprove:
    def objective(self, atilde, b):
        diff = b[:, None] - b[None, :]
        d2 = np.abs(diff) ** 2
        np.fill_diagonal(d2, np.inf)
        return float(np.sum(np.abs(atilde) ** 2 / d2))

    def test_m2_unchanged(self, rng):
        atilde = random_zero_diagonal(rng, 2)
        b = gaussian_points(2).points
        assert np.array_equal(local_swap_improve(atilde, b), b)

    def test_never_increases(self, rng):
        atilde = random_zero_diagonal(rng, 6)
        b = gaussian_points(6).points
        improved = local_swap_improve(atilde, b, max_passes=3)
        assert self.objective(atilde, improved) <= self.objective(atilde, b) + 1e-12
        assert sorted(improved.tolist(), key=lambda z: (z.real, z.imag)) == sorted(
            b.tolist(), key=lambda z: (z.real, z.imag)
        )

    def test_local_optimum_fixed_point(self, rng):
        atilde = random_zero_diagonal(rng, 5)
        b = gaussian_points(5).points
        once = local_swap_improve(atilde, b, max_passes=8)
        again = local_swap_improve(atilde, once, max_passes=8)
        assert np.array_equal(once, again)


def test_ratio_window_small_sample(rng):
    # acceptance covers the full grid; spot-check the window here
    for m in (4, 16, 64):
        a = random_trace_zero(rng, m)
        cert = factor(a, trials=32, seed=0)
        assert cert.ratio**2 - math.log(m) <= 10.0
        assert cert.ratio <= cert.bound
