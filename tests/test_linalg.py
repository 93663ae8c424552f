import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from traceless.linalg import (
    NonzeroTraceError,
    _circulant,
    as_matrix,
    certify,
    commutator,
    hs_norm,
    nuclear_norm,
    operator_norm,
    require_trace_zero,
    residual_ok,
    singular_profile,
)

from conftest import is_normal, random_complex, random_unitary

ROTATION = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)


def test_as_matrix_strided_views(rng):
    a = random_complex(rng, 5)
    for view in (a.T, a[:, ::2], np.asfortranarray(a)):
        assert np.array_equal(as_matrix(view), view)
    bad = a.copy()
    bad[1, 3] = complex(0.0, math.inf)
    with pytest.raises(ValueError, match="non-finite"):
        as_matrix(bad.T)


@pytest.mark.parametrize("m", [2, 3, 7, 64, 100, 512, 1024])
def test_circulant_fill_is_the_index_fill(rng, m):
    # both of its forms: the witness's B[j, k] = beta[(j - k) mod m] and the
    # reduction's DFT start W[j, k] = g[(k - j) mod m]
    col = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    idx = np.arange(m)
    filled = _circulant(col)
    assert filled.flags.c_contiguous and filled.flags.writeable
    assert filled.tobytes() == col[(idx[:, None] - idx[None, :]) % m].tobytes()
    assert _circulant(col[-idx]).tobytes() == col[(idx[None, :] - idx[:, None]) % m].tobytes()


class TestCommutator:
    def test_identity_commutes(self, rng):
        c = random_complex(rng, 3)
        assert np.allclose(commutator(np.eye(3), c), 0.0)

    def test_self_commutator_is_zero(self, rng):
        b = random_complex(rng, 4)
        assert np.allclose(commutator(b, b), 0.0)

    def test_hand_2x2(self):
        b = np.diag([0.0, 1.0]).astype(complex)
        got = commutator(b, ROTATION)
        assert np.allclose(got, [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            commutator(np.eye(2), np.eye(3))

    def test_trace_vanishes(self, rng):
        for m in (2, 5, 17):
            b, c = random_complex(rng, m), random_complex(rng, m)
            tr = abs(np.trace(commutator(b, c)))
            assert tr <= 1e-10 * hs_norm(b) * hs_norm(c)


class TestNorms:
    def test_operator_norm_diagonal(self):
        assert operator_norm(np.diag([1.0, -1.0])) == pytest.approx(1.0)

    def test_operator_norm_permutation(self):
        assert operator_norm([[0.0, 1.0], [1.0, 0.0]]) == pytest.approx(1.0)

    def test_operator_norm_golden_ratio(self):
        # closed form sqrt((3+sqrt(5))/2), which is the golden ratio
        expect = math.sqrt((3.0 + math.sqrt(5.0)) / 2.0)
        assert operator_norm([[1.0, 1.0], [0.0, 1.0]]) == pytest.approx(expect, rel=1e-14)
        assert expect == pytest.approx((1.0 + math.sqrt(5.0)) / 2.0)

    def test_hs_norm_zero(self):
        assert hs_norm(np.zeros((3, 3))) == 0.0

    def test_hs_norm_identity(self):
        for m in (1, 4, 9):
            assert hs_norm(np.eye(m)) == pytest.approx(math.sqrt(m))

    def test_nuclear_norm_rank_one(self, rng):
        u = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        assert nuclear_norm(np.outer(u, v.conj())) == pytest.approx(1.0, abs=1e-12)

    def test_nuclear_norm_diag(self):
        assert nuclear_norm(np.diag([3.0, 4.0])) == pytest.approx(7.0)

    def test_nuclear_norm_rotation(self):
        # both singular values are 1
        assert nuclear_norm(ROTATION) == pytest.approx(2.0)

    def test_low_rank_hs_vs_nuclear(self, rng):
        # rank-r matrices satisfy hs^2 >= nuclear^2 / r
        for r in (1, 2, 3):
            left = random_complex(rng, 6)[:, :r]
            right = random_complex(rng, 6)[:, :r]
            m = left @ right.conj().T
            assert hs_norm(m) ** 2 >= nuclear_norm(m) ** 2 / r - 1e-9


class TestSingularProfile:
    def test_identity(self):
        assert np.allclose(singular_profile(np.eye(3)), [1.0, 1.0, 1.0])

    def test_half_half(self):
        assert np.allclose(singular_profile(np.diag([0.5, 0.5])), [0.5, 0.5])

    def test_zero_matrix(self):
        assert np.all(singular_profile(np.zeros((4, 4))) == 0.0)

    def test_sorted_nonincreasing(self, rng):
        values = singular_profile(random_complex(rng, 8))
        assert np.all(np.diff(values) <= 0.0)
        assert np.all(values >= 0.0)

    def test_unitary_invariance(self, rng):
        m = random_complex(rng, 6)
        u, v = random_unitary(rng, 6), random_unitary(rng, 6)
        p1 = singular_profile(m)
        p2 = singular_profile(u @ m @ v)
        assert np.allclose(p1, p2, atol=1e-10)


class TestIsNormal:
    def test_diagonal(self, rng):
        d = np.diag(rng.standard_normal(5) + 1j * rng.standard_normal(5))
        assert is_normal(d)

    def test_unitary_conjugate_of_diagonal(self, rng):
        d = np.diag(rng.standard_normal(5) + 1j * rng.standard_normal(5))
        q = random_unitary(rng, 5)
        assert is_normal(q @ d @ q.conj().T)

    def test_jordan_block_not_normal(self):
        assert not is_normal(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_tiny_jordan_block_not_normal(self):
        assert not is_normal(1e-150 * np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_zero_matrix_normal(self):
        assert is_normal(np.zeros((3, 3)))


class TestCertify:
    def test_hand_triple(self):
        a = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
        b = np.diag([0.0, 1.0]).astype(complex)
        c = np.array([[0.0, -0.5], [0.5, 0.0]], dtype=complex)
        check = certify(a, b, c, operator_norm(b))
        assert check.residual == 0.0 and check.residual_ok
        assert check.op_norm_b == pytest.approx(1.0, abs=1e-15)
        assert check.hs_norm_c == hs_norm(c) and check.hs_norm_a == hs_norm(a)
        assert check.ratio == pytest.approx(1.0, abs=1e-14)

    def test_zero_triple_exact(self):
        z = np.zeros((3, 3))
        check = certify(z, np.eye(3), z, operator_norm(np.eye(3)))
        assert (check.residual, check.ratio, check.residual_ok) == (0.0, 0.0, True)

    @pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
    def test_rule_is_relative(self, scale):
        # a residual of 1e-6 relative to ||B|| ||C||_2 fails at every scale
        assert not residual_ok(1e-6 * scale, 1.0, scale)
        assert residual_ok(1e-12 * scale, 1.0, scale)

    def test_tiny_nonfactorization_rejected(self):
        # C = 0 cannot factor a nonzero A, however small A is
        a = 1e-150 * np.diag([1.0, -1.0]).astype(complex)
        b = np.diag([0.0, 1.0])
        check = certify(a, b, np.zeros((2, 2)), operator_norm(b))
        assert check.residual == hs_norm(a) and not check.residual_ok


class TestRequireTraceZero:
    @pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
    def test_identity_rejected_at_every_scale(self, scale):
        a = scale * np.eye(3, dtype=complex)
        with pytest.raises(NonzeroTraceError, match="trace"):
            require_trace_zero(a, hs_norm(a))

    def test_error_is_a_value_error(self):
        assert issubclass(NonzeroTraceError, ValueError)

    def test_zero_and_trace_zero_accepted(self, rng):
        require_trace_zero(np.zeros((1, 1), dtype=complex), 0.0)
        a = 1e-150 * np.diag([1.0, -1.0]).astype(complex)
        require_trace_zero(a, hs_norm(a))


finite_entries = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(
    data=arrays(np.float64, (3, 3, 2), elements=finite_entries),
)
def test_norm_ordering_chain(data):
    m = data[..., 0] + 1j * data[..., 1]
    op, hs, nuc = operator_norm(m), hs_norm(m), nuclear_norm(m)
    slack = 1e-10 * max(1.0, nuc)
    assert op <= hs + slack
    assert hs <= nuc + slack


@settings(max_examples=60, deadline=None)
@given(
    b=arrays(np.float64, (3, 3, 2), elements=finite_entries),
    c=arrays(np.float64, (3, 3, 2), elements=finite_entries),
)
def test_commutator_trace_zero_property(b, c):
    bm = b[..., 0] + 1j * b[..., 1]
    cm = c[..., 0] + 1j * c[..., 1]
    tr = abs(np.trace(commutator(bm, cm)))
    assert tr <= 1e-10 * max(1.0, hs_norm(bm) * hs_norm(cm))
