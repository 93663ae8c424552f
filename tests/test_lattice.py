import math

import numpy as np
import pytest

from traceless.lattice import gaussian_points, pair_energy, pair_expectation, radius_bound


def brute_force_moduli(m: int) -> np.ndarray:
    """Oracle: squared moduli of all lattice points out to radius 2 + sqrt(m/pi)."""
    r = int(math.ceil(2.0 + math.sqrt(m / math.pi)))
    n2 = [a * a + b * b for a in range(-r, r + 1) for b in range(-r, r + 1)]
    return np.sort(np.array(n2))[:m]


class TestGaussianPoints:
    def test_m1(self):
        assert gaussian_points(1).tolist() == [0j]

    def test_m5_set(self):
        got = set(gaussian_points(5).tolist())
        assert got == {0j, 1 + 0j, -1 + 0j, 1j, -1j}

    def test_m9_set(self):
        got = set(gaussian_points(9).tolist())
        expect = {0j, 1 + 0j, -1 + 0j, 1j, -1j, 1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j}
        assert got == expect

    @pytest.mark.parametrize("m", [1, 2, 3, 7, 10, 25, 64, 137, 1000])
    def test_minimal_moduli_against_enumeration(self, m):
        pts = gaussian_points(m)
        got = np.sort(np.abs(pts) ** 2)
        assert np.allclose(got, brute_force_moduli(m), atol=1e-9)

    @pytest.mark.parametrize("m", [1, 2, 5, 16, 100, 1024, 10_000, 100_000])
    def test_radius_bound(self, m):
        assert radius_bound(m) == 1.0 + math.sqrt(m / math.pi)
        assert np.max(np.abs(gaussian_points(m))) <= radius_bound(m) + 1e-12

    def test_points_distinct_and_deterministic(self):
        a = gaussian_points(50)
        b = gaussian_points(50)
        assert np.array_equal(a, b)
        assert len(set(a.tolist())) == 50

    def test_prefix_nesting(self):
        # the canonical total order makes smaller sets exact prefixes
        big = gaussian_points(40)
        for m in (1, 5, 12, 39):
            assert np.array_equal(gaussian_points(m), big[:m])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            gaussian_points(0)


class TestPairExpectation:
    def test_two_points_unit_distance(self):
        rep = pair_expectation(np.array([0j, 1 + 0j]))
        assert rep.pair_energy == pytest.approx(2.0)
        assert rep.expectation == pytest.approx(1.0)

    def test_cross_set(self):
        # four distance-1 pairs, four distance-sqrt(2), two distance-2
        rep = pair_expectation(gaussian_points(5))
        assert rep.pair_energy == pytest.approx(13.0, rel=1e-14)
        assert rep.expectation == pytest.approx(13.0 / 20.0, rel=1e-14)

    def test_scaling_homogeneity(self, rng):
        pts = gaussian_points(8)
        base = pair_energy(pts)
        for t in (2.0, 0.5, 3.7):
            assert pair_energy(t * pts) == pytest.approx(base / t**2, rel=1e-12)

    def test_requires_two_points(self):
        with pytest.raises(ValueError):
            pair_expectation(gaussian_points(1))

    def test_coincident_points_rejected(self):
        with pytest.raises(ValueError):
            pair_expectation(np.array([1j, 1j]))

    @pytest.mark.parametrize("m", [4, 16, 100, 1000, 10_000])
    def test_energy_window(self, m):
        rep = pair_expectation(gaussian_points(m))
        excess = m * rep.expectation - math.pi * math.log(m)
        assert abs(excess) <= 10.0
        assert rep.expectation <= rep.bound_value
