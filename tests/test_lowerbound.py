import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import traceless
import traceless.factorizer
import traceless.filtration
import traceless.linalg
import traceless.lowerbound
import traceless.reduction
from traceless.factorizer import _fisher_yates, c_from_b, factor
from traceless.filtration import STRUCTURE_TOL, build_filtration, verify_filtration_structure
from traceless.lattice import gaussian_points
from traceless.linalg import commutator, hs_norm, nuclear_norm, operator_norm, singular_profile, unit_defect
from traceless.lowerbound import (
    construct_partial_isometries,
    extremal_matrix,
    isometry_norm_bounds,
    lower_bound_report,
    partial_isometry_residuals,
    quarter_log_sum,
    verify_hs_lower_bound,
    verify_partial_sums,
    verify_trace_inequality,
    witness_factorization,
)


from conftest import exact_witness_dims, is_normal, quarter_log_sum_sweep, random_complex


def seed_vector(m: int) -> np.ndarray:
    e1 = np.zeros((m, 1), dtype=complex)
    e1[0, 0] = 1.0
    return e1


class TestExtremalMatrix:
    def test_m2(self):
        assert np.allclose(extremal_matrix(2), np.diag([0.5, -0.5]))

    @pytest.mark.parametrize("m", [2, 10, 100])
    def test_hs_norm(self, m):
        assert hs_norm(extremal_matrix(m)) == pytest.approx(math.sqrt(1.0 - 1.0 / m), rel=1e-14)

    @pytest.mark.parametrize("m", [2, 4, 16, 1024])
    def test_trace_exactly_zero_power_of_two(self, m):
        diag = np.diag(extremal_matrix(m)).real
        assert math.fsum(diag) == 0.0
        assert np.trace(extremal_matrix(m)) == 0.0

    @pytest.mark.parametrize("m", [3, 9, 36, 1000])
    def test_trace_compensated(self, m):
        assert abs(np.trace(extremal_matrix(m))) <= 1e-15 * m

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            extremal_matrix(1)


class TestQuarterLogSum:
    def test_m2_single_term(self):
        assert quarter_log_sum(2) == pytest.approx(0.125, rel=1e-15)

    def test_scalar_matches_sweep(self):
        ms = [2, 4, 7, 100, 5000, 999_983]
        swept = quarter_log_sum_sweep(ms)
        for m, v in zip(ms, swept):
            assert quarter_log_sum(m) == pytest.approx(float(v), rel=1e-12)

    def test_window_and_monotone_sample(self):
        ms = np.arange(4, 20_000)
        vals = quarter_log_sum_sweep(ms)
        assert np.max(np.abs(vals - 0.25 * np.log(ms))) <= 0.1
        assert np.all(np.diff(vals) >= -1e-15)


def trial0_points(m: int, seed: int) -> np.ndarray:
    """The lattice points in the order of ``factor``'s first trial at ``seed``."""
    return gaussian_points(m)[_fisher_yates(np.random.default_rng(seed), m)]


def assert_norm_interval(cert):
    """The measured ||B|| lies in the certificate's interval (1 -+ delta) peak, up to 8 ulps."""
    eps = np.finfo(np.float64).eps
    delta = cert.unitarity_defect
    norm = operator_norm(cert.b)
    assert norm <= cert.op_norm_b * (1.0 + 8 * eps)
    assert cert.op_norm_b * (1.0 - delta) / (1.0 + delta) <= norm * (1.0 + 8 * eps)
    if cert.q is None:  # the witness: the interval (1 -+ delta) p from B's spectrum
        peak, half_width = traceless.lowerbound._circulant_norm_interval(cert.b[:, 0])
        assert delta == half_width
    else:  # factor: the interval (1 -+ delta) max |b_i| from B's eigenframe Q
        peak = float(np.max(np.abs(gaussian_points(cert.m))))
    assert cert.op_norm_b == (1.0 + delta) * peak  # the upper end is the certificate's own bound


class TestWitnessFactorization:
    @pytest.mark.parametrize("m", [2, 3, 7, 16, 64, 128])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_matches_factor_first_trial(self, m, seed):
        ref = factor(extremal_matrix(m), trials=1, seed=seed)
        cert = witness_factorization(trial0_points(m, seed), seed=seed)
        for mine, theirs in ((cert.b, ref.b), (cert.c, ref.c)):
            assert hs_norm(mine - theirs) <= 1e-14 * hs_norm(theirs)
        # both intervals hold ||B||: the witness's from B's spectrum, factor's from Q
        assert_norm_interval(cert)
        assert_norm_interval(ref)
        assert (cert.valid, cert.seed, cert.trials, cert.q) == (True, seed, 1, None)

    @pytest.mark.parametrize("m", [2, 3, 7, 16, 33, 64, 128, 256])
    def test_certificate_in_eigenframe(self, m):
        cert = witness_factorization(trial0_points(m, 0))
        assert cert.valid
        assert operator_norm(cert.b) <= cert.op_norm_b * (1.0 + 8 * np.finfo(np.float64).eps)
        assert_norm_interval(cert)
        assert is_normal(cert.b)
        assert cert.residual <= 1e-14

    @pytest.mark.parametrize("kind", ["witness", "factor"])
    @pytest.mark.parametrize("m", [2, 9, 16, 64, 256])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_norm_interval_holds_measured_norm(self, kind, m, seed):
        # the report trusts (1 - delta) peak <= ||B|| <= (1 + delta) peak
        # without an SVD; here one SVD checks it, for both kinds of certificate
        if kind == "witness":
            cert = witness_factorization(trial0_points(m, seed), seed=seed)
        else:
            cert = factor(extremal_matrix(m), trials=4, seed=seed)
        assert_norm_interval(cert)

    @pytest.mark.parametrize("m", [*range(2, 65), 100, 127, 243, 257, 509, 512, 1000, 1021, 1024])
    def test_spectral_interval_holds_at_every_fft_length(self, m):
        # B's interval comes from a direct DFT sum, so it holds whatever path
        # numpy's FFT takes for m: powers of two, mixed radices, and primes
        # (127, 257, 509, 1021) that go through Bluestein's algorithm
        cert = witness_factorization(trial0_points(m, 0))
        assert_norm_interval(cert)
        assert cert.unitarity_defect <= 1e-12 and cert.valid

    def test_twiddles_within_their_stated_error(self):
        # the interval assumes each table entry within 32 u of exp(-2 pi i t/m)
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.prec = 120
        for m in (3, 7, 100, 127, 1021, 1024):
            table = traceless.lowerbound._dft_twiddles(m)
            for t, entry in enumerate(table.tolist()):
                exact = mpmath.exp(-2j * mpmath.pi * t / m)
                assert abs(mpmath.mpc(entry.real, entry.imag) - exact) <= 32 * 2.0**-53

    def test_wide_norm_interval_refused(self):
        # a defect of 1e-9 leaves ||B / op_norm_b|| only known within 2e-9 of 1
        cert = witness_factorization(trial0_points(64, 0))
        with pytest.raises(ValueError, match="normalized"):
            lower_bound_report(64, certificate=dataclasses.replace(cert, unitarity_defect=1e-9))

    def test_rejects_repeated_points(self):
        with pytest.raises(ValueError, match="distinct"):
            witness_factorization([0.0, 1.0, 1.0])


@pytest.fixture(scope="module")
def witness_m2():
    cert = factor(extremal_matrix(2), trials=4, seed=0)
    b = cert.b / cert.op_norm_b
    c = cert.c * cert.op_norm_b
    filt = build_filtration(c, b, seed_vector(2))  # the report's order: C is S, B is T
    return b, c, filt, cert


class TestTraceInequality:
    def test_m2_hand_numbers(self, witness_m2):
        _, _, filt, _ = witness_m2
        records = verify_trace_inequality(filt, operator_norm(filt.t))
        first = records[0]
        assert first.lhs == pytest.approx(0.5, abs=1e-12)
        assert first.rhs == pytest.approx(1.0, abs=1e-10)
        assert first.passed
        # n = 0 lower bound from the rank estimate: rhs >= 1 - 1/m
        assert first.rhs >= 1.0 - 0.5 - 1e-10
        assert first.normbd_passed

    def test_exhausted_tail_passes_trivially(self, witness_m2):
        _, _, filt, _ = witness_m2
        records = verify_trace_inequality(filt, operator_norm(filt.t))
        last = records[-1]
        assert last.rhs == 0.0
        assert last.lhs <= 1e-12
        assert last.passed

    def test_unnormalized_rejected(self, witness_m2):
        b, c, _, _ = witness_m2
        filt = build_filtration(c, 2.0 * b, seed_vector(2))
        with pytest.raises(ValueError, match="normalized"):
            verify_trace_inequality(filt, operator_norm(filt.t))

    def test_wrong_commutator_rejected(self, witness_m2):
        b, c, _, _ = witness_m2
        bad = c + 0.3 * np.diag([1.0, -1.0])  # does not commute with B
        filt = build_filtration(bad, b, seed_vector(2))
        with pytest.raises(ValueError, match="witness"):
            verify_trace_inequality(filt, operator_norm(filt.t))


class TestPartialIsometries:
    def test_zero_c(self, witness_m2):
        b, _, _, _ = witness_m2
        filt = build_filtration(np.zeros((2, 2)), b, seed_vector(2))  # B alone grows the chain
        assert filt.dims == [1, 1]
        res_v, res_w = partial_isometry_residuals(filt)
        assert res_v == 0.0 and res_w == 0.0

    def test_single_block_degenerate(self):
        m = 3
        ones = np.ones((m, m))
        filt = build_filtration(ones, ones, np.eye(m))  # the seed is the whole space
        assert len(filt.blocks) == 1
        v, w = construct_partial_isometries(filt)
        assert np.array_equal(v, np.zeros((m, m)))
        assert np.array_equal(w, np.zeros((m, m)))

    def test_m2_identity_value(self, witness_m2):
        _, c, filt, _ = witness_m2
        v, w = construct_partial_isometries(filt)
        p0 = filt.blocks[0] @ filt.blocks[0].conj().T
        p1 = filt.blocks[1] @ filt.blocks[1].conj().T
        lhs = nuclear_norm(p0 @ v @ c @ p0)
        assert lhs == pytest.approx(nuclear_norm(p1 @ c @ p0), abs=1e-12)
        assert lhs == pytest.approx(0.5, abs=1e-10)

    def test_full_matrix_identities(self, witness_m2):
        # the compressed residual equals the honest full-matrix residual
        _, c, filt, _ = witness_m2
        v, w = construct_partial_isometries(filt)
        res_v, res_w = partial_isometry_residuals(filt)
        for n in range(len(filt.blocks) - 1):
            lo = filt.blocks[n] @ filt.blocks[n].conj().T
            hi = filt.blocks[n + 1] @ filt.blocks[n + 1].conj().T
            x = hi @ c @ lo
            u_, s_, vh_ = np.linalg.svd(x)
            abs_x = vh_.conj().T @ np.diag(s_) @ vh_
            assert hs_norm(lo @ v @ c @ lo - abs_x) <= max(res_v, 1e-12) + 1e-12
        assert res_v <= 1e-9 and res_w <= 1e-9


class TestPartialSums:
    def test_m2_hand_values(self, witness_m2):
        # X_0 and Y_0 are 1 x 1 blocks of modulus 1/2, so each band certifies
        # 1/2 at l = 1 and adds nothing at l = 2, against C's exact [0.5, 1.0]
        _, c, filt, _ = witness_m2
        records, triangular = verify_partial_sums(filt)
        assert [r.l for r in records] == [1, 2]
        assert records[0].sum == pytest.approx(0.5, abs=1e-12)
        assert records[0].bound == pytest.approx(1.0 / 6.0)
        assert records[1].sum == pytest.approx(0.5, abs=1e-12)
        assert records[1].bound == pytest.approx(math.sqrt(2.0) / 6.0)
        assert np.allclose(np.cumsum(singular_profile(c)), [0.5, 1.0], rtol=0, atol=1e-12)
        assert [r.l for r in triangular] == [1]
        assert all(r.passed for r in records + triangular)

    def test_scaling_up_preserves_passes(self, witness_m2):
        b, c, _, _ = witness_m2
        for t in (1.0, 2.5, 10.0):
            records, triangular = verify_partial_sums(build_filtration(t * c, b, seed_vector(2)))
            assert all(r.passed for r in records + triangular)

    def test_triangular_records(self):
        cert = factor(extremal_matrix(16), trials=16, seed=0)
        _, triangular = verify_partial_sums(report_filtration(cert, rescaled=True))
        ls = [r.l for r in triangular]
        assert ls == [1, 3, 6]  # (k+1)(k+2)/2 for (k+1)(k+2) <= 16
        assert all(r.passed for r in triangular)


def certified_and_exact_sums(filt) -> tuple[np.ndarray, np.ndarray]:
    """The certified partial sums of ``filt``'s S at every l, and the exact ones from its spectrum."""
    records, _ = verify_partial_sums(filt)
    return np.array([r.sum for r in records]), np.cumsum(singular_profile(filt.s))


@pytest.mark.parametrize("m", [2, 4, 16, 64, 128])
def test_certified_partial_sums_are_lower_bounds(m):
    # Ky Fan: the bands of X_n and of Y_n are pinchings of basis* C basis, so
    # their sums over (1 + delta_H) never exceed C's; at m >= 4 they keep at
    # least 0.6 of them (0.603 at m = 4; m = 2 keeps 0.5 at l = 2, see the hand values)
    report = lower_bound_report(m, seed=0)
    assert report.all_strict_passed
    certified, exact = certified_and_exact_sums(report_filtration(report.certificate, rescaled=False))
    assert [r.sum for r in report.partial_sums] == certified.tolist()
    assert len(certified) == m and np.all(certified <= exact)
    if m >= 4:
        assert np.all(certified >= 0.6 * exact)


@pytest.mark.parametrize("pair", ["shifted", "random"])
def test_certified_partial_sums_bound_any_generator(rng, pair):
    # the bound needs no witness: [B, C + B/2] = [B, C], and a random S, T
    if pair == "shifted":
        b, c, _ = witness_filtration(64)
        filt = build_filtration(c + 0.5 * b, b, seed_vector(64))
    else:
        filt = build_filtration(random_complex(rng, 40), random_complex(rng, 40), seed_vector(40))
    certified, exact = certified_and_exact_sums(filt)
    assert certified[-1] > 0.0 and np.all(certified <= exact)


def unit_points(m: int, seed: int) -> np.ndarray:
    """The eigenvalues of a default report's B: ``trial0_points`` over their largest modulus."""
    points = trial0_points(m, seed)
    return points / float(np.max(np.abs(points)))


def eigenframe_pair(m: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(C-tilde, z, 1/sqrt(m)): a default report's pair in B's eigenframe, and its seed.

    z are the unit points, D = diag(z) = F* B F, and C-tilde =
    c_from_b((J - I)/m, z) = F* C F, with F the unitary DFT, so F* e_1 is
    the all-ones vector over sqrt(m).
    """
    z = unit_points(m, seed)
    atilde = np.full((m, m), 1.0 / m)
    np.fill_diagonal(atilde, 0.0)
    return c_from_b(atilde, z), z, np.full((m, 1), 1.0 / math.sqrt(m), dtype=complex)


def report_filtration(cert, *, rescaled: bool) -> traceless.Filtration:
    """The filtration ``lower_bound_report`` builds for ``cert``.

    A default report builds it in B's eigenframe (``eigenframe_pair``), a
    ``certificate=`` report from C and B rescaled by op_norm_b (``rescaled``).
    """
    if not rescaled:
        return build_filtration(*eigenframe_pair(cert.m, cert.seed))
    return build_filtration(cert.c * cert.op_norm_b, cert.b / cert.op_norm_b, seed_vector(cert.m))


def certified_lower_norm_b(cert, *, rescaled: bool) -> float:
    """The report's certified lower end of ||B||.

    For a default report, ||B|| = ||diag(z)|| = max |z_i|, whose computed
    value is within one ulp: (1 - 2^-51) max |z_i|.  For a ``certificate=``
    report, (1 - delta) / (1 + delta), the rescale of (1 - delta) max |b_i|.
    """
    if rescaled:
        delta = cert.unitarity_defect
        return (1.0 - delta) / (1.0 + delta)
    return (1.0 - 2.0**-51) * float(np.max(np.abs(unit_points(cert.m, cert.seed))))


class TestHsLowerBound:
    def test_factorizer_certificates_pass(self):
        for m in (2, 16, 64):
            cert = factor(extremal_matrix(m), trials=16, seed=0)
            rec = lower_bound_report(m, certificate=cert).hs_lower
            assert rec.passed
            assert rec.quarter_log_sum == quarter_log_sum(m)
            assert rec.quarter_log_sum <= rec.rhs_sum <= rec.c_bound + traceless.lowerbound.TRACE_INEQ_TOL
            # the certified lower end of ratio^2, at most the certificate's upper end
            assert rec.quarter_log_sum <= rec.ratio_sq <= cert.ratio**2 * (1.0 + 1e-12)

    def test_cheating_certificate_rejected(self):
        cert = factor(extremal_matrix(8), trials=8, seed=0)
        # B = Q diag(b) Q*, so [B, q0 q1*] = (b0 - b1) q0 q1* is nonzero in any frame
        cert.c = cert.c + 0.1 * np.outer(cert.q[:, 0], cert.q[:, 1].conj())
        assert hs_norm(extremal_matrix(8) - commutator(cert.b, cert.c)) >= 0.05  # visible residual
        with pytest.raises(ValueError, match="witness"):
            lower_bound_report(8, certificate=cert)

    def test_halved_rhs_fails(self):
        report = lower_bound_report(4, certificate=factor(extremal_matrix(4), trials=8, seed=0))
        assert report.all_strict_passed
        filt = report_filtration(report.certificate, rescaled=True)
        norm_b = certified_lower_norm_b(report.certificate, rescaled=True)
        halved = [dataclasses.replace(r, rhs=r.rhs / 2.0) for r in report.trace_records]
        rec = verify_hs_lower_bound(filt, halved, norm_b)
        assert rec.rhs_sum < rec.quarter_log_sum and not rec.passed
        assert not dataclasses.replace(report, hs_lower=rec).all_strict_passed
        assert verify_hs_lower_bound(filt, report.trace_records, norm_b) == report.hs_lower

    def test_reads_only_numbers_already_formed(self, monkeypatch):
        cert = factor(extremal_matrix(16), trials=8, seed=0)
        filt = report_filtration(cert, rescaled=True)
        records = verify_trace_inequality(filt, certified_lower_norm_b(cert, rescaled=True))
        filt.basis_defect  # cached, as the report's isometry bounds leave it

        def unreachable(*args, **kwargs):
            raise AssertionError("the chain recomputed a commutator or an SVD")

        monkeypatch.setattr(traceless.filtration, "commutator", unreachable)
        monkeypatch.setattr(np.linalg, "svd", unreachable)
        assert verify_hs_lower_bound(filt, records, certified_lower_norm_b(cert, rescaled=True)).passed


@pytest.mark.parametrize("m", [2, 3, 4, 5, 9, 16, 33, 64, 100, 128, 256, 512])
def test_hs_lower_chain_holds(m):
    for seed in range(3 if m == 512 else 10):
        report = lower_bound_report(m, seed=seed)
        rec = report.hs_lower
        assert rec.passed, (seed, rec)
        assert rec.quarter_log_sum <= rec.ratio_sq <= report.certificate.ratio**2 * (1.0 + 1e-12)


class TestLowerBoundReport:
    @pytest.mark.parametrize("m", [2, 4, 9])
    def test_full_chain_passes(self, m):
        report = lower_bound_report(m, trials=16, seed=0)
        assert report.all_strict_passed
        assert report.filtration_complete
        assert report.normalization > 0.0
        assert report.hs_lower.quarter_log_sum == quarter_log_sum(m)

    def test_m2_dims(self):
        report = lower_bound_report(2, trials=4, seed=0)
        assert report.dims == [1, 1]

    def test_sandwich_window_sample(self):
        for m in (16, 64):
            report = lower_bound_report(m, trials=32, seed=0)
            ratio_sq = report.certificate.ratio**2
            assert quarter_log_sum(m) <= ratio_sq <= math.log(m) + 10.0

    def test_rejects_m1(self):
        with pytest.raises(ValueError):
            lower_bound_report(1)

    def test_negative_seed_refused_before_the_points(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("the report drew its points before refusing its seed")

        monkeypatch.setattr(traceless.lowerbound, "gaussian_points", unreachable)
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            lower_bound_report(8, seed=-1)

    def test_existing_certificate_path(self):
        cert = factor(extremal_matrix(4), trials=8, seed=5)
        report = lower_bound_report(4, certificate=cert)
        assert report.certificate is cert
        assert report.all_strict_passed


@pytest.mark.parametrize("m, seed", [(256, 0), (256, 1), (256, 2), (256, 3), (512, 0), (512, 1)])
def test_report_passes_with_margin_at_scale(m, seed):
    # the report grows the chain on B; grown on C, the T-block residual was
    # 2.4e-8 (seed 0) and 3.2e-8 (seed 2) at m=256 against a 1.83e-8
    # tolerance, and 8e-3 at m=512, where the dims also left the exact ones
    report = lower_bound_report(m, trials=32, seed=seed)
    assert report.all_strict_passed and report.hs_lower.passed
    structure = report.structure
    assert max(structure.structure_residual_s, structure.structure_residual_t) <= 0.01 * structure.structure_tol
    assert report.dims == exact_witness_dims(m, 2147483629)


def test_operator_norm_calls_per_report(monkeypatch):
    # wrap the name wherever callers look it up, as the benchmark tracer does
    calls = []
    orig = traceless.linalg.operator_norm

    def counted(m):
        calls.append(m.shape)
        return orig(m)

    for mod in (traceless, traceless.linalg, traceless.filtration, traceless.lowerbound):
        if getattr(mod, "operator_norm", None) is orig:
            monkeypatch.setattr(mod, "operator_norm", counted)
    report = lower_bound_report(16, trials=8, seed=0)
    assert report.all_strict_passed
    # the certificate bounds ||B|| on both sides in its eigenframe, ||V|| and
    # ||W|| are bounded from the Gram defects, the structure check takes the
    # certified lower end of ||C||, and the build scales by powers of two and column norms
    assert calls == []


@pytest.mark.parametrize("m, seed", [(64, 0), (64, 3), (256, 0), (256, 3)])
def test_block_tol_takes_the_certified_lower_end(m, seed):
    # the structure check's tolerance uses (1 - 2^-51) max |z_i| for
    # ||B|| = ||diag(z)|| and the certified partial sum at l = 1 for ||C||,
    # each at most the exact norm, so it is no looser than a measured one
    report = lower_bound_report(m, seed=seed)
    lower = certified_lower_norm_b(report.certificate, rescaled=False)
    filt = report_filtration(report.certificate, rescaled=False)
    norm_c = report.partial_sums[0].sum
    assert report.structure.structure_tol == report.structure.invariance_tol == STRUCTURE_TOL * (norm_c + lower)
    assert norm_c <= operator_norm(filt.s)
    # ||diag(z)||^2 is the largest re(z_i)^2 + im(z_i)^2, here in exact rationals
    assert Fraction(lower) ** 2 <= max(Fraction(v.real) ** 2 + Fraction(v.imag) ** 2 for v in filt.t.tolist())
    assert lower <= float(np.max(np.abs(filt.t))) <= 1.0 + 8 * np.finfo(np.float64).eps


def test_report_runs_no_reduction_and_no_trial(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the witness report ran the general factorization")

    for mod, name in ((traceless, "factor"), (traceless.factorizer, "factor"),
                      (traceless, "zero_diagonal_reduce"), (traceless.reduction, "zero_diagonal_reduce"),
                      (traceless.factorizer, "zero_diagonal_reduce"),
                      (traceless.factorizer, "_assignment_objective")):
        monkeypatch.setattr(mod, name, unreachable)
    report = lower_bound_report(64, seed=1)
    assert report.all_strict_passed and report.certificate.valid
    assert report.certificate.seed == 1


def test_report_assembles_no_isometry(monkeypatch):
    # the residuals are checked in the filtration's block coordinates, so the
    # report forms no m x m V or W
    def unreachable(*args, **kwargs):
        raise AssertionError("the report assembled V and W")

    for mod in (traceless, traceless.lowerbound):
        monkeypatch.setattr(mod, "construct_partial_isometries", unreachable)
    report = lower_bound_report(64, seed=0)
    assert report.all_strict_passed
    assert max(report.iso_residual_v, report.iso_residual_w) <= 1e-14


def count_commutators(monkeypatch) -> list:
    """The (B, C) of every commutator formed from here on, wherever callers look it up."""
    calls = []
    orig = traceless.linalg.commutator

    def counted(b, c):
        calls.append((b, c))
        return orig(b, c)

    for mod in (traceless, traceless.linalg, traceless.filtration):
        monkeypatch.setattr(mod, "commutator", counted)
    return calls


def test_commutator_calls_per_report(monkeypatch):
    calls = count_commutators(monkeypatch)
    operators = []
    build = traceless.lowerbound._build_filtration
    monkeypatch.setattr(traceless.lowerbound, "_build_filtration",
                        lambda s, t, m_basis: operators.append((s, t)) or build(s, t, m_basis))
    report = lower_bound_report(64, seed=0)
    assert report.all_strict_passed
    # no commutator: the certificate forms its [B, C] by FFTs from the
    # circulant B; the chain runs in B's eigenframe, where T is a diagonal
    # that the build applies as row scalings, and the trace check forms
    # [diag(z), C-tilde] entrywise
    assert calls == []
    assert [(s.shape, t.shape) for s, t in operators] == [((64, 64), (64,))]


def test_default_report_refuses_a_wrong_c(monkeypatch):
    # C-tilde is shared by the certificate and the chain, and the trace check
    # measures (J - I)/m - [diag(z), C-tilde] entrywise; with E the unit
    # superdiagonal, [diag(z), E] has entries z_i - z_(i+1), all nonzero: a C
    # that does not reproduce the witness is refused with no commutator, and
    # the certificate's FFT bracket sees it too
    orig = traceless.lowerbound._witness_ctilde
    monkeypatch.setattr(traceless.lowerbound, "_witness_ctilde", lambda z: orig(z) + 0.1 * np.eye(16, k=1))
    calls = count_commutators(monkeypatch)
    with pytest.raises(ValueError, match="reproduce the witness"):
        lower_bound_report(16, seed=0)
    assert calls == []
    z = unit_points(16, 0)
    wrong = traceless.lowerbound._witness_ctilde(z)
    cert = traceless.lowerbound._witness_certificate(z, wrong, 0)
    assert cert.residual > 1e-3 and not cert.valid
    ones = np.full((16, 1), 0.25, dtype=complex)
    with pytest.raises(ValueError, match="reproduce the witness"):
        verify_trace_inequality(build_filtration(wrong, z, ones), 1.0)
    assert calls == []


@pytest.mark.parametrize("m", [2, 3, 7, 16, 100, 512])
def test_fft_bracket_matches_the_commutator(m):
    # the certificate's [B, C] comes from beta = fft(z)/m by FFTs; it is the
    # stored pair's commutator to a few ulps of ||B||_F ||C||_F
    z = unit_points(m, 0)
    cert = witness_factorization(z)
    beta = np.fft.fft(z) / m
    bracket = traceless.lowerbound._circulant_commutator(beta, cert.c)
    eps = np.finfo(np.float64).eps
    assert hs_norm(bracket - commutator(cert.b, cert.c)) <= 64 * eps * hs_norm(cert.b) * hs_norm(cert.c)
    assert cert.residual <= 1e-14
    assert cert.residual == hs_norm(extremal_matrix(m) - bracket)


@pytest.mark.parametrize("m", [16, 100, 256])
def test_default_report_forms_no_dft_matrix(monkeypatch, m):
    # B's interval comes from its spectrum and the witness's A from its
    # diagonal: no F = fft(I)/sqrt(m), no m x m unit_defect, no dense A
    defects, identities = [], []
    orig_defect, orig_fft = traceless.linalg.unit_defect, np.fft.fft

    def defect(x):
        defects.append(np.shape(x))
        return orig_defect(x)

    def fft(a, *args, **kwargs):
        a = np.asarray(a)
        if a.ndim == 2 and a.shape[0] == a.shape[1] and np.array_equal(a, np.eye(len(a))):
            identities.append(a.shape)
        return orig_fft(a, *args, **kwargs)

    def dense(*args):
        raise AssertionError("the report formed the dense witness")

    for mod in (traceless.linalg, traceless.factorizer, traceless.filtration):
        monkeypatch.setattr(mod, "unit_defect", defect)
    monkeypatch.setattr(np.fft, "fft", fft)
    monkeypatch.setattr(traceless.lowerbound, "extremal_matrix", dense)
    report = lower_bound_report(m, seed=0)
    assert report.all_strict_passed and report.certificate.q is None
    assert defects == [(m, 1)]  # the build's check of its seed only
    assert identities == []


@pytest.mark.parametrize("m, seed", [(2, 0), (16, 1), (100, 2), (256, 0)])
def test_default_report_is_the_witness_at_unit_scale(m, seed):
    # the points are divided by their largest modulus beta = normalization, so
    # max |b_i| is 1 to one rounding and the pair is factor's first trial with
    # B divided and C multiplied by beta
    report = lower_bound_report(m, seed=seed)
    cert, points = report.certificate, trial0_points(m, seed)
    beta = float(np.max(np.abs(points)))
    assert report.normalization == beta
    peak = float(np.max(np.abs(unit_points(m, seed))))
    assert abs(peak - 1.0) <= np.finfo(np.float64).eps
    assert_norm_interval(cert)
    ref = factor(extremal_matrix(m), trials=1, seed=seed)
    for mine, theirs in ((cert.b * beta, ref.b), (cert.c / beta, ref.c)):
        assert hs_norm(mine - theirs) <= 1e-14 * hs_norm(theirs)
    # the chain runs on F* (B, C) F = (diag(z), C-tilde), seeded at F* e_1
    ctilde, z, ones = eigenframe_pair(m, seed)
    f = np.fft.fft(np.eye(m), norm="ortho")
    assert hs_norm(f.conj().T @ cert.b @ f - np.diag(z)) <= 1e-14
    assert hs_norm(f.conj().T @ cert.c @ f - ctilde) <= 1e-14 * hs_norm(ctilde)
    assert hs_norm(f.conj().T[:, :1] - ones) <= 1e-15
    # the seed's M M* - I/m is (J - I)/m, and [diag(z), C-tilde] reproduces it to rounding
    atilde = np.full((m, m), 1.0 / m)
    np.fill_diagonal(atilde, 0.0)
    eps = np.finfo(np.float64).eps
    assert hs_norm(ones @ ones.conj().T - np.eye(m) / m - atilde) <= 4 * eps
    assert hs_norm(atilde - commutator(np.diag(z), ctilde)) <= 8 * eps
    filt = report_filtration(cert, rescaled=False)
    lower = certified_lower_norm_b(cert, rescaled=False)
    assert verify_trace_inequality(filt, lower) == report.trace_records
    # the standard frame's chain has the same dims, and its rhs agree to rounding
    delta = cert.unitarity_defect  # the lower end of the certificate's interval
    std = verify_trace_inequality(build_filtration(cert.c, cert.b, seed_vector(m)),
                                  cert.op_norm_b * (1.0 - delta) / (1.0 + delta))
    assert [r.rank_cum for r in std] == [r.rank_cum for r in report.trace_records]
    assert max(abs(a.rhs - b.rhs) for a, b in zip(std, report.trace_records)) <= 1e-12


def test_trace_check_measures_the_eigenframe_witness():
    # the witness is the seed's M M* - I/m in either frame: the eigenframe
    # chain's records are the report's, a C that misses the witness is
    # refused, and so is a two-column seed, whose target has trace 1
    m = 16
    ctilde, z, ones = eigenframe_pair(m, 0)
    report = lower_bound_report(m, seed=0)
    lower = certified_lower_norm_b(report.certificate, rescaled=False)
    assert verify_trace_inequality(build_filtration(ctilde, z, ones), lower) == report.trace_records
    with pytest.raises(ValueError, match="reproduce the witness"):
        verify_trace_inequality(build_filtration(ctilde + 0.1 * np.eye(m, k=1), z, ones), lower)
    two = np.fft.fft(np.eye(m), norm="ortho")[:, :2]  # F* e_1 and F* e_2
    with pytest.raises(ValueError, match="reproduce the witness"):
        verify_trace_inequality(build_filtration(ctilde, z, two), lower)


@pytest.mark.parametrize("m", [16, 128, 512])
def test_report_certificate_is_the_witness_factorization(m):
    # the chain's C-tilde is formed once and shared with the certificate, which
    # is witness_factorization of the unit points, bit for bit
    cert = lower_bound_report(m, seed=0).certificate
    ref = witness_factorization(unit_points(m, 0), seed=0)
    for f in dataclasses.fields(ref):
        mine, theirs = getattr(cert, f.name), getattr(ref, f.name)
        if isinstance(theirs, np.ndarray):
            assert mine.shape == theirs.shape and mine.tobytes() == theirs.tobytes(), f.name
        else:
            assert mine == theirs, f.name


@pytest.mark.parametrize("m", [128, 256, 512, 1024])
def test_report_has_the_exact_dims(m):
    report = lower_bound_report(m, seed=0)
    assert report.all_strict_passed
    assert report.dims == exact_witness_dims(m, 2147483629)


@pytest.mark.parametrize("m", [16, 64])
def test_svd_calls_per_report(monkeypatch, m):
    shapes = []
    orig = np.linalg.svd

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return orig(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    report = lower_bound_report(m, trials=8, seed=0)
    assert report.all_strict_passed
    matrices = [s for s in shapes if len(s) == 2]  # the reduction's stacked solves are 3-d
    # no m x m SVD: only one of X_n and one of Y_n per block pair, both (dims[n+1], dims[n])
    assert (m, m) not in matrices
    pairs = list(zip(report.dims[1:], report.dims))
    assert sorted(matrices) == sorted(2 * pairs)


# The per-pair forms of the chain's boundary-block computations, kept as
# references for the SVDs shared through ``Filtration.boundary_svds``.
def reference_trace_rhs(c, blocks):
    return [
        nuclear_norm(hi.conj().T @ c @ lo) + nuclear_norm(lo.conj().T @ c @ hi)
        for lo, hi in zip(blocks, blocks[1:])
    ]


def reference_partial_isometries(c, blocks):
    m = c.shape[0]
    v = np.zeros((m, m), dtype=complex)
    w = np.zeros((m, m), dtype=complex)
    for lo, hi in zip(blocks, blocks[1:]):
        for source, dest in ((c, v), (c.conj().T, w)):
            u_, _, vh_ = np.linalg.svd(hi.conj().T @ source @ lo, full_matrices=False)
            dest += lo @ (u_ @ vh_).conj().T @ hi.conj().T
    return v, w


def reference_isometry_residuals(c, blocks, v, w):
    res_v = res_w = 0.0
    vc, wc = v @ c, w @ c.conj().T
    for lo, hi in zip(blocks, blocks[1:]):
        for source, prod, which in ((c, vc, "v"), (c.conj().T, wc, "w")):
            _, s_, vh_ = np.linalg.svd(hi.conj().T @ source @ lo, full_matrices=False)
            err = hs_norm(lo.conj().T @ prod @ lo - vh_.conj().T @ (s_[:, None] * vh_))
            if which == "v":
                res_v = max(res_v, err)
            else:
                res_w = max(res_w, err)
    return res_v, res_w


def assert_chain_matches_references(filt):
    c = filt.s
    m = c.shape[0]
    tol = 100 * m * np.finfo(np.float64).eps * operator_norm(c)
    rhs = [sum(float(np.sum(svd[1])) for svd in pair) for pair in filt.boundary_svds]
    assert np.max(np.abs(np.subtract(rhs, reference_trace_rhs(c, filt.blocks)))) <= tol
    v, w = construct_partial_isometries(filt)
    ref_v, ref_w = reference_partial_isometries(c, filt.blocks)
    assert hs_norm(v - ref_v) <= tol and hs_norm(w - ref_w) <= tol
    # the block-coordinate residuals against the full-matrix ones of the assembled V and W
    res = partial_isometry_residuals(filt)
    ref = reference_isometry_residuals(c, filt.blocks, v, w)
    assert abs(res[0] - ref[0]) <= tol and abs(res[1] - ref[1]) <= tol
    return rhs


def witness_filtration(m):
    cert = factor(extremal_matrix(m), trials=16, seed=0)
    b, c = cert.b / cert.op_norm_b, cert.c * cert.op_norm_b
    return b, c, build_filtration(c, b, seed_vector(m))  # the report's order


@pytest.mark.parametrize("m", [16, 64])
def test_shared_blocks_match_references_witness(m):
    _, _, filt = witness_filtration(m)
    rhs = assert_chain_matches_references(filt)
    assert "boundary_svds" in vars(filt)  # factored once, then read by every check
    records = verify_trace_inequality(filt, operator_norm(filt.t))
    assert [r.rhs for r in records] == rhs + [0.0]


@pytest.mark.parametrize("m", [16, 64])
def test_direct_blocks_match_references_witness(m):
    # another factorization of the witness, [B, C + B/2] = [B, C], is checked
    # by a filtration built directly from it
    b, c, _ = witness_filtration(m)
    filt = build_filtration(c + 0.5 * b, b, seed_vector(m))
    assert filt.complete()
    rhs = assert_chain_matches_references(filt)
    records = verify_trace_inequality(filt, operator_norm(filt.t))
    assert [r.rhs for r in records] == rhs + [0.0]
    assert all(r.passed for r in records)


@pytest.mark.parametrize("m", [16, 64])
def test_shared_and_direct_blocks_match_references_random(rng, m):
    # the build's bands of a random S, and of a second random S built directly
    # with the same T and seed
    s, t = random_complex(rng, m), random_complex(rng, m)
    mb, _ = np.linalg.qr(random_complex(rng, m)[:, :2])
    for op in (s, random_complex(rng, m)):
        filt = build_filtration(op, t, mb)
        assert len(filt.blocks) > 2
        assert_chain_matches_references(filt)


def test_stored_bands_are_the_boundary_blocks(rng):
    s, t = random_complex(rng, 12), random_complex(rng, 12)
    filt = build_filtration(s, t, seed_vector(12))
    pairs = list(zip(filt.blocks, filt.blocks[1:]))
    assert len(filt.boundary) == len(pairs) > 1
    for (x, y), (lo, hi) in zip(filt.boundary, pairs):
        assert np.allclose(x, hi.conj().T @ s @ lo, rtol=0, atol=1e-12)
        assert np.allclose(y, hi.conj().T @ s.conj().T @ lo, rtol=0, atol=1e-12)


def test_generator_changed_in_place_after_build(rng):
    # the filtration keeps read-only copies of S and T, and its basis, G_S and
    # the boundary blocks read from G_S are read-only too, so changing the
    # caller's arrays in place after the build changes nothing it reports
    s, t = random_complex(rng, 12), random_complex(rng, 12)
    filt = build_filtration(s, t, seed_vector(12))
    kept = filt.s.copy(), filt.t.copy(), [tuple(x.copy() for x in pair) for pair in filt.boundary]
    kept_comp = filt.compression_s.copy()
    norms = operator_norm(filt.s), operator_norm(filt.t)
    report = verify_filtration_structure(filt, *norms)
    residuals = partial_isometry_residuals(filt)
    stored = [filt.s, filt.t, filt.basis, filt.compression_s, *filt.blocks]
    stored += [x for pair in filt.boundary for x in pair]
    assert not any(x.flags.writeable for x in stored)
    with pytest.raises(ValueError, match="read-only"):
        filt.compression_s[0, 0] = 1.0
    s *= 2.0
    t[0, 0] += 1.0
    assert np.array_equal(filt.s, kept[0]) and np.array_equal(filt.t, kept[1])
    assert np.array_equal(filt.compression_s, kept_comp)
    for pair, kept_pair in zip(filt.boundary, kept[2], strict=True):
        assert all(np.array_equal(x, y) for x, y in zip(pair, kept_pair))
    assert verify_filtration_structure(filt, *norms) == report
    assert partial_isometry_residuals(filt) == residuals


def test_partial_sums_reuse_the_build_spectrum(monkeypatch):
    # the report certifies C's partial sums from the boundary-block SVDs of its
    # build, so they are those of a fresh filtration of (C, B) bit for bit, and
    # C's own spectrum is never taken
    cert = factor(extremal_matrix(64), trials=8, seed=0)
    direct = verify_partial_sums(report_filtration(cert, rescaled=True))

    def unreachable(*args, **kwargs):
        raise AssertionError("the report took the spectrum of C")

    for mod in (traceless, traceless.linalg):
        monkeypatch.setattr(mod, "singular_profile", unreachable)
    report = lower_bound_report(64, certificate=cert)
    assert (report.partial_sums, report.partial_sums_triangular) == direct


def test_invariance_residual_is_judged(monkeypatch):
    # a chain whose total span is not invariant fails the strict checks, as
    # verify_filtration_structure fails it, whatever else holds
    orig = traceless.lowerbound._build_filtration
    monkeypatch.setattr(traceless.lowerbound, "_build_filtration",
                        lambda *args: dataclasses.replace(orig(*args), invariance_residual=1.0))
    report = lower_bound_report(16, seed=0)
    assert report.structure.invariance_residual == 1.0 > report.structure.invariance_tol
    assert report.structure.invariance_ok is False
    assert not report.all_strict_passed


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("m", [2, 3, 16, 64, 128, 256])
def test_structure_verdict_keeps_the_report_rule(m, seed):
    # the structure check decides the verdict as this reference rule does: block
    # residuals and the invariance residual within STRUCTURE_TOL (||C|| + ||B||)
    # at the certified lower ends, and d_n <= n+1, besides every other check
    report = lower_bound_report(m, seed=seed)
    filt = report_filtration(report.certificate, rescaled=False)
    tol = STRUCTURE_TOL * (report.partial_sums[0].sum + certified_lower_norm_b(report.certificate, rescaled=False))
    rule = bool(
        all(r.passed and r.normbd_passed for r in report.trace_records)
        and all(r.passed for r in report.partial_sums + report.partial_sums_triangular)
        and max(report.iso_residual_v, report.iso_residual_w) <= traceless.lowerbound.ISOMETRY_TOL
        and max(report.v_norm, report.w_norm) <= 1.0 + traceless.lowerbound.ISOMETRY_NORM_TOL
        and all(d <= n + 1 for n, d in enumerate(filt.dims))
        and filt.complete()
        and max(filt.block_residual_s, filt.block_residual_t) <= tol
        and filt.invariance_residual <= tol
        and report.hs_lower.passed
    )
    assert report.all_strict_passed == rule
    assert report.dims == filt.dims and report.structure.structure_tol == tol


def test_single_block_gives_zero_isometries():
    z = np.zeros((5, 5), dtype=complex)
    filt = build_filtration(z, z, seed_vector(5))
    assert filt.dims == [1] and filt.boundary == []
    for iso in construct_partial_isometries(filt):
        assert iso.shape == (5, 5) and not iso.any()
    assert isometry_norm_bounds(filt) == (0.0, 0.0)
    assert partial_isometry_residuals(filt) == (0.0, 0.0)


@pytest.mark.parametrize("m", [16, 64, 128])
def test_isometry_norm_bounds_are_tight_upper_bounds(m):
    report = lower_bound_report(m, trials=8, seed=0)
    assert report.all_strict_passed
    filt = report_filtration(report.certificate, rescaled=False)
    assert isometry_norm_bounds(filt) == (report.v_norm, report.w_norm)
    assert filt.basis_defect == report.basis_defect
    assert report.basis_defect <= 1e-12
    eps = np.finfo(np.float64).eps
    for bound, iso in zip((report.v_norm, report.w_norm), construct_partial_isometries(filt)):
        norm = operator_norm(iso)
        assert norm <= bound * (1.0 + 8 * eps)
        assert bound <= norm * (1.0 + 1e-12)
        assert bound <= 1.0 + 1e-12


def test_trace_inequality_takes_norm_b_and_makes_no_svd(monkeypatch):
    # ||B|| comes from the caller and the boundary SVDs are shared with the
    # partial isometries, so once those are factored the check takes no SVD
    _, _, filt = witness_filtration(16)
    norm_b = operator_norm(filt.t)
    assert len(filt.boundary_svds) == len(filt.dims) - 1  # factored here, as the report's isometry checks do
    calls = []
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: calls.append(args))
    records = verify_trace_inequality(filt, norm_b)
    assert calls == []
    assert all(r.passed for r in records)


@pytest.mark.parametrize("m", [2, 3, 16, 100, 257])
def test_witness_ctilde_is_c_from_b_bit_for_bit(m):
    # one division pass over the outer difference, the same complex division as c_from_b
    z = unit_points(m, 0)
    atilde = np.full((m, m), 1.0 / m)
    np.fill_diagonal(atilde, 0.0)
    assert traceless.lowerbound._witness_ctilde(z).tobytes() == c_from_b(atilde, z).tobytes()


def test_polar_bound_is_the_unit_defect_bound():
    # the lean per-factor defects give the bound that unit_defect gives, bit for bit
    filt = report_filtration(lower_bound_report(64).certificate, rescaled=False)
    for side in zip(*filt.boundary_svds):
        ref = math.sqrt(max((1.0 + unit_defect(u_)) * (1.0 + unit_defect(vh_.conj().T)) for u_, _, vh_ in side))
        assert traceless.lowerbound._polar_bound(side) == ref


def test_report_peak_memory():
    # at most 7 m x m complex arrays at once: the build keeps C-tilde with no
    # copy, forms G_S, the Gram and T's far blocks panel by panel, P is filled
    # in place, the trace check's residual takes one buffer besides M M* - I/m,
    # and the certificate is formed after the filtration is dropped
    m = 256
    lower_bound_report(m)  # lazy set-up outside the trace
    tracemalloc.start()
    try:
        assert lower_bound_report(m).all_strict_passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7 * m * m * np.dtype(complex).itemsize
