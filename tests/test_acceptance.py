"""Acceptance gate: every criterion at its stated tolerance.

Each test prints a single PASS line with the measured margin once its
assertions hold, so ``pytest -s tests/test_acceptance.py`` doubles as the
verification report.
"""

import math
import time

import numpy as np
import pytest

from traceless.cli import main as cli_main
from traceless.factorizer import factor
from traceless.lattice import gaussian_points, pair_expectation
from traceless.lowerbound import extremal_matrix, lower_bound_report, quarter_log_sum

from conftest import expectation_identity_gap, is_normal, quarter_log_sum_sweep, random_zero_diagonal

WITNESS_SIZES = [4, 9, 16, 36, 64]
WITNESS_SEEDS = [0, 1]
SWEEP_SIZES = [4, 8, 16, 32, 64, 128, 256, 512, 1024]
SWEEP_SEEDS = list(range(10))
SWEEP_TRIALS = 32


def random_trace_zero_for_sweep(m: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng([seed, m, 0x7A11])
    a = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / math.sqrt(2.0 * m)
    a -= (np.trace(a) / m) * np.eye(m)
    return a


@pytest.fixture(scope="module")
def witness_reports():
    return {
        (m, seed): lower_bound_report(m, trials=SWEEP_TRIALS, seed=seed)
        for m in WITNESS_SIZES
        for seed in WITNESS_SEEDS
    }


def test_criterion_1_expectation_identity(rng):
    t0 = time.perf_counter()
    worst = 0.0
    for m in (3, 4, 5, 6):
        points = gaussian_points(m)
        for _ in range(20):
            atilde = random_zero_diagonal(rng, m)
            worst = max(worst, expectation_identity_gap(atilde, points))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12
    assert elapsed < 10.0
    print(f"\nPASS 1: permutation mean == hs^2 * pair expectation, "
          f"max rel gap {worst:.2e} (<= 1e-12), {elapsed:.1f}s")


def test_criterion_2_upper_bound_sweep():
    t0 = time.perf_counter()
    worst_excess = -math.inf
    for m in SWEEP_SIZES:
        for seed in SWEEP_SEEDS:
            a = random_trace_zero_for_sweep(m, seed)
            cert = factor(a, trials=SWEEP_TRIALS, seed=seed)
            assert cert.residual <= 1e-10 * max(1.0, cert.op_norm_b * cert.hs_norm_c), (m, seed)
            assert is_normal(cert.b, 1e-10), (m, seed)
            assert cert.op_norm_b <= 1.0 + math.sqrt(m / math.pi) + 1e-9, (m, seed)
            excess = cert.ratio**2 - math.log(m)
            worst_excess = max(worst_excess, excess)
            assert excess <= 10.0, (m, seed, excess)
    elapsed = time.perf_counter() - t0
    print(f"\nPASS 2: {len(SWEEP_SIZES) * len(SWEEP_SEEDS)} certificates valid, "
          f"max ratio^2 - log m = {worst_excess:.3f} (<= 10), {elapsed:.0f}s")


def test_criterion_3_pair_energy_asymptotics():
    t0 = time.perf_counter()
    sizes = [2**k for k in range(4, 15)]  # 16 .. 16384
    xs, ys = [], []
    for m in sizes:
        rep = pair_expectation(gaussian_points(m))
        xs.append(math.log(m))
        ys.append(m * rep.expectation)
    slope, _ = np.polyfit(np.array(xs), np.array(ys), 1)
    elapsed = time.perf_counter() - t0
    assert abs(slope - math.pi) <= 0.15 * math.pi
    assert elapsed < 60.0
    print(f"\nPASS 3: m*expectation vs log m slope {slope:.4f} = {slope / math.pi:.3f} pi "
          f"(within 15%), {elapsed:.1f}s")


def test_criterion_4_filtration_conclusions(witness_reports):
    for (m, seed), rep in witness_reports.items():
        assert all(d <= n + 1 for n, d in enumerate(rep.dims)), (m, seed, rep.dims)
        assert sum(rep.dims) == m, (m, seed, rep.dims)
        structure = rep.structure
        assert structure.hypothesis_ok, (m, seed)
        assert max(structure.structure_residual_s, structure.structure_residual_t) <= structure.structure_tol, (m, seed)
        assert structure.invariance_residual <= 1e-8, (m, seed)
    worst_block = max(max(r.structure.structure_residual_s, r.structure.structure_residual_t)
                      for r in witness_reports.values())
    print(f"\nPASS 4: filtrations complete with dims <= n+1 for m in {WITNESS_SIZES}, "
          f"max block residual {worst_block:.1e}")


def test_criterion_5_lower_bound_chain(witness_reports):
    worst_slack = math.inf
    for (m, seed), rep in witness_reports.items():
        for rec in rep.trace_records:
            assert rec.rhs >= rec.lhs - 1e-8, (m, seed, rec)
            assert rec.normbd_passed, (m, seed, rec)
        assert rep.iso_residual_v <= 1e-9 and rep.iso_residual_w <= 1e-9, (m, seed)
        assert rep.v_norm <= 1.0 + 1e-10 and rep.w_norm <= 1.0 + 1e-10, (m, seed)
        for rec in rep.partial_sums + rep.partial_sums_triangular:
            assert rec.sum >= rec.bound - 1e-9, (m, seed, rec.l)
            worst_slack = min(worst_slack, rec.sum - rec.bound)
    print(f"\nPASS 5: trace/normbd/isometry/partial-sum chain holds, "
          f"min partial-sum slack {worst_slack:.4f}")


def test_criterion_6_matching_bounds():
    lines = []
    for m in (16, 64, 256, 1024):
        cert = factor(extremal_matrix(m), trials=SWEEP_TRIALS, seed=0)
        ratio_sq = cert.ratio**2
        lo = quarter_log_sum(m)
        hi = math.log(m) + 10.0
        assert lo <= ratio_sq <= hi, (m, ratio_sq)
        lines.append(f"m={m}: {lo:.2f} <= {ratio_sq:.2f} <= {hi:.2f}")
    print("\nPASS 6: sqrt(log m) sandwich at desk scale: " + "; ".join(lines))


def test_criterion_7_quarter_log_sum_window():
    t0 = time.perf_counter()
    ms = np.arange(4, 10**6 + 1)
    vals = quarter_log_sum_sweep(ms)
    gap = np.max(np.abs(vals - 0.25 * np.log(ms)))
    elapsed = time.perf_counter() - t0
    assert gap <= 0.1
    assert elapsed < 5.0
    print(f"\nPASS 7: |sum - log(m)/4| <= {gap:.4f} (<= 0.1) on [4, 1e6], {elapsed:.2f}s")


def test_criterion_8_sweep_determinism(tmp_path):
    args = ["sweep", "--m", "4", "16", "--seeds", "0", "1", "--trials", "8"]
    f1, f2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert cli_main(args + ["--out", str(f1)]) == 0
    assert cli_main(args + ["--out", str(f2)]) == 0
    b1, b2 = f1.read_bytes(), f2.read_bytes()
    assert b1 == b2 and len(b1) > 0
    print(f"\nPASS 8: repeated sweep runs byte-identical ({len(b1)} bytes)")
