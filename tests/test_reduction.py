import math

import numpy as np
import pytest

import traceless.reduction

from traceless import NonzeroTraceError, extremal_matrix, factor
from traceless.linalg import hs_norm, singular_profile
from traceless.reduction import _attaining_rotations, zero_diagonal_reduce

from conftest import random_complex, random_trace_zero, random_unitary

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


# References: the scalar rotation solver and the per-pair sequential sweep
# that the batched reduction replaced, kept to check it against.


def _reference_rotation(block: np.ndarray, target: complex):
    b11, b12 = block[0, 0], block[0, 1]
    b21, b22 = block[1, 0], block[1, 1]
    w = target - 0.5 * (b11 + b22)
    beta = 0.5 * (b11 - b22)
    u = 0.5 * (b12 + b21)
    v = 0.5j * (b12 - b21)
    mat = np.array([[beta.real, u.real, v.real], [beta.imag, u.imag, v.imag]])
    rhs = np.array([w.real, w.imag])
    mu, ms, mvt = np.linalg.svd(mat)
    scale = ms[0] if ms[0] > 0.0 else 1.0
    rank = int(np.sum(ms > 1e-14 * scale))
    coeffs = (mu.T @ rhs)[:rank] / ms[:rank]
    z0 = mvt[:rank].T @ coeffs
    if math.hypot(*(mat @ z0 - rhs)) > 1e-12 * max(1.0, math.hypot(*rhs), scale):
        return None
    n0 = float(z0 @ z0)
    if n0 > 1.0 + 1e-12:
        return None
    z = z0 + np.sqrt(max(0.0, 1.0 - n0)) * mvt[rank]
    c, p, q = z
    s = np.hypot(p, q)
    theta = 0.5 * np.arctan2(s, c)
    phase = np.exp(1j * np.arctan2(q, p)) if s > 0.0 else 1.0
    ct, st = np.cos(theta), np.sin(theta)
    return np.array([[ct, -st * np.conj(phase)], [st * phase, ct]])


def _reference_conjugate(w, q, i, j, rot):
    idx = [i, j]
    w[idx, :] = rot.conj().T @ w[idx, :]
    w[:, idx] = w[:, idx] @ rot
    q[:, idx] = q[:, idx] @ rot


def _log2_ceil(m: int) -> int:
    return math.ceil(math.log2(m))


def _reference_reduce(a):
    """(q, atilde, diag_residual, converged, sweeps) by one rotation at a time."""
    m = a.shape[0]
    scale = hs_norm(a)
    w = a.astype(complex)
    q = np.eye(m, dtype=complex)
    target = 1e-13 * scale
    sweeps_done = 0
    for sweep in range(_log2_ceil(m)):
        d = np.diag(w)
        if float(np.max(np.abs(d))) <= target:
            break
        order = np.argsort(d.real if sweep % 2 == 0 else d.imag, kind="stable")
        for k in range(m // 2):
            i, j = int(order[k]), int(order[m - 1 - k])
            dii, djj = w[i, i], w[j, j]
            if abs(dii - djj) <= 0.25 * target:
                continue
            rot = _reference_rotation(w[np.ix_([i, j], [i, j])], 0.5 * (dii + djj))
            if rot is not None:
                _reference_conjugate(w, q, i, j, rot)
        sweeps_done = sweep + 1
    order = [int(i) for i in np.argsort(-np.abs(np.diag(w)), kind="stable")]
    remaining = set(order)
    for i in order:
        remaining.discard(i)
        if w[i, i] == 0.0 or not remaining:
            continue
        coupling = np.abs(w[i, :]) + np.abs(w[:, i])
        for j in sorted(remaining, key=lambda t: -coupling[t]):
            rot = _reference_rotation(w[np.ix_([i, j], [i, j])], 0.0)
            if rot is not None:
                _reference_conjugate(w, q, i, j, rot)
                w[i, i] = 0.0
                break
    resid = float(np.max(np.abs(np.diag(w))))
    return q, w, resid, resid <= 1e-10 * scale, sweeps_done


def _assert_reduced(a, q, atilde, diag_residual, converged):
    m = a.shape[0]
    scale = hs_norm(a)
    assert converged
    assert diag_residual <= 1e-10 * scale
    assert hs_norm(q.conj().T @ q - np.eye(m)) <= 1e-12 * m
    assert hs_norm(q.conj().T @ a @ q - atilde) <= 1e-12 * scale


class TestZeroDiagonalReduce:
    def test_already_zero_diagonal(self, rng):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        np.fill_diagonal(a, 0.0)
        res = zero_diagonal_reduce(a)
        assert np.array_equal(res.q, np.eye(4))
        assert np.array_equal(res.atilde, a)
        assert res.diag_residual == 0.0

    def test_hand_2x2(self):
        res = zero_diagonal_reduce(np.diag([1.0 + 0j, -1.0]))
        assert res.converged
        assert np.allclose(np.abs(res.atilde), [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)

    def test_hand_2x2_half(self):
        res = zero_diagonal_reduce(np.diag([0.5 + 0j, -0.5]))
        assert np.allclose(np.abs(res.atilde), [[0.0, 0.5], [0.5, 0.0]], atol=1e-12)

    def test_nonzero_trace_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            zero_diagonal_reduce(np.eye(3))

    def test_zero_matrix(self):
        res = zero_diagonal_reduce(np.zeros((3, 3)))
        assert res.converged and res.diag_residual == 0.0

    @pytest.mark.parametrize("m", [2, 3, 5, 8, 16, 64, 128])
    def test_random_trace_zero(self, rng, m):
        a = random_trace_zero(rng, m)
        res = zero_diagonal_reduce(a)
        scale = hs_norm(a)
        assert res.converged
        assert res.diag_residual <= 1e-10 * scale
        # unitarity and consistency of the returned pieces
        assert hs_norm(res.q.conj().T @ res.q - np.eye(m)) <= 1e-12 * m
        assert hs_norm(res.q.conj().T @ a @ res.q - res.atilde) <= 1e-12 * scale
        # round trip and spectrum preservation
        assert hs_norm(res.q @ res.atilde @ res.q.conj().T - a) <= 1e-10 * scale
        assert np.allclose(
            singular_profile(a), singular_profile(res.atilde), atol=1e-10 * scale
        )

    def test_diagonal_input(self, rng):
        # diagonal matrices exercise the degenerate 2x2 numerical ranges
        d = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        d -= d.mean()
        a = np.diag(d)
        res = zero_diagonal_reduce(a)
        assert res.converged
        assert res.diag_residual <= 1e-10 * hs_norm(a)


def _block(rng, kind, scale):
    b = random_complex(rng, 2)
    if kind == "hermitian":
        b = b + b.conj().T
    elif kind == "diagonal":
        b = np.diag(np.diag(b))
    return scale * b


def _target(rng, block, where):
    """A point inside, on the boundary of, or outside the numerical range."""
    if where == "inside":
        x = random_complex(rng, 2)[0]
        x /= np.linalg.norm(x)
        # halfway to the center, a convex combination of range points
        return 0.5 * (np.vdot(x, block @ x) + 0.5 * np.trace(block))
    # the range point furthest in direction e^{i phi} lies on the boundary;
    # a step further along e^{i phi} leaves the range
    phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    herm = 0.5 * (np.conj(phase) * block + phase * block.conj().T)
    top = np.linalg.eigh(herm)[1][:, -1]
    edge = np.vdot(top, block @ top)
    return edge if where == "boundary" else edge + 0.1 * np.max(np.abs(block)) * phase


class TestBatchedRotations:
    @pytest.mark.parametrize("kind", ["random", "hermitian", "diagonal"])
    @pytest.mark.parametrize("where", ["inside", "boundary", "outside"])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_matches_reference(self, rng, kind, where, scale):
        blocks = np.array([_block(rng, kind, scale) for _ in range(64)])
        targets = np.array([_target(rng, b, where) for b in blocks])
        rots, ok = _attaining_rotations(blocks, targets)
        reference = [_reference_rotation(b, t) is not None for b, t in zip(blocks, targets)]
        assert ok.tolist() == reference
        assert ok.all() if where != "outside" else not ok.any()
        attained = (rots.conj().transpose(0, 2, 1) @ blocks @ rots)[:, 0, 0]
        block_scale = np.max(np.abs(blocks), axis=(1, 2))
        assert np.all(np.abs(attained - targets)[ok] <= 1e-12 * block_scale[ok])
        unitarity = rots.conj().transpose(0, 2, 1) @ rots - np.eye(2)
        assert np.max(np.abs(unitarity[ok]), initial=0.0) <= 1e-14

    def test_zero_block(self):
        rots, ok = _attaining_rotations(np.zeros((2, 2, 2), dtype=complex), np.array([0.0, 1e-300]))
        assert ok.tolist() == [True, False]
        assert np.array_equal(rots[0], np.eye(2))


def _rank_one(m: int) -> np.ndarray:
    rng = np.random.default_rng(3)
    u, v = rng.standard_normal((2, m)) + 1j * rng.standard_normal((2, m))
    v -= np.vdot(u, v) / np.vdot(u, u) * u  # v*u = tr(u v*) = 0
    return np.outer(u, v.conj())


def _complex_diagonal(m: int) -> np.ndarray:
    d = random_complex(np.random.default_rng(4), m)[0]
    return np.diag(d - d.mean())


def _normal_diagonal(m: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    d = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return np.diag(d - d.mean())


def _rotated_jordan(m: int) -> np.ndarray:
    u = random_unitary(np.random.default_rng(5), m)
    return u @ np.eye(m, k=1) @ u.conj().T


def _ginibre(m: int, seed: int = 6) -> np.ndarray:
    return random_trace_zero(np.random.default_rng(seed), m)


def _trace_off_by(fraction: float) -> np.ndarray:
    """Ginibre plus a (0,0) entry that makes |tr A| = fraction * ||A||_2, up to roundoff."""
    a = _ginibre(16)
    a[0, 0] += fraction * hs_norm(a)
    return a


PANEL = {
    "ginibre-2": lambda: _ginibre(2),
    "ginibre-7": lambda: _ginibre(7),
    "ginibre-33": lambda: _ginibre(33),
    "witness-16": lambda: extremal_matrix(16),
    "witness-64": lambda: extremal_matrix(64),
    "complex-diagonal-9": lambda: _complex_diagonal(9),
    "rank-one-10": lambda: _rank_one(10),
    "rotated-jordan-12": lambda: _rotated_jordan(12),
}

HOSTILE = {
    "jordan-12": lambda: np.eye(12, k=1),
    "rotated-jordan-12": lambda: _rotated_jordan(12),
    "rank-one-10": lambda: _rank_one(10),
    "complex-diagonal-9": lambda: _complex_diagonal(9),
    "witness-64": lambda: extremal_matrix(64),
    "m1": lambda: np.zeros((1, 1)),
    "m2": lambda: _ginibre(2),
    "m3": lambda: _ginibre(3),
    "m255": lambda: _ginibre(255),
    "scaled-1e150": lambda: 1e150 * _ginibre(16),
    "scaled-1e-150": lambda: 1e-150 * _ginibre(16),
    "scaled-1e300": lambda: 1e300 * _ginibre(16),
    "scaled-1e-300": lambda: 1e-300 * _ginibre(16),
    "trace-just-inside": lambda: _trace_off_by(0.9e-10),
}


class TestBatchedReduction:
    @pytest.mark.parametrize("name", sorted(PANEL))
    def test_meets_reference_invariants(self, name):
        a = PANEL[name]().astype(complex)
        ref = _reference_reduce(a)
        _assert_reduced(a, *ref[:4])
        res = zero_diagonal_reduce(a)
        _assert_reduced(a, res.q, res.atilde, res.diag_residual, res.converged)
        assert res.diag_residual == pytest.approx(float(np.max(np.abs(np.diag(res.atilde)))), rel=1e-12)

    @pytest.mark.parametrize("m", [5, 16, 33, 64])
    def test_sweeps_match_reference(self, m):
        # a Ginibre diagonal has no ties, so the batched sweeps pair as the
        # reference does and need as many sweeps
        a = _ginibre(m)
        assert zero_diagonal_reduce(a).sweeps == _reference_reduce(a)[4]

    @pytest.mark.parametrize("name", sorted(HOSTILE))
    def test_hostile_input(self, name):
        a = HOSTILE[name]().astype(complex)
        res = zero_diagonal_reduce(a)
        _assert_reduced(a, res.q, res.atilde, res.diag_residual, res.converged)
        assert factor(a).valid

    def test_trace_just_inside_lands_on_one_entry(self):
        a = _trace_off_by(0.9e-10)
        res = zero_diagonal_reduce(a)
        assert res.diag_residual == pytest.approx(abs(np.trace(a)), rel=1e-3)

    def test_trace_just_outside_rejected(self):
        with pytest.raises(NonzeroTraceError):
            zero_diagonal_reduce(_trace_off_by(1.1e-10))

    @pytest.mark.parametrize(
        "k", [-1000, -900, -700, -600, -500, -400, -300, -1, 1, 300, 400, 500, 600, 700, 900, 990]
    )
    def test_scale_equivariant(self, k):
        a = _ginibre(12, seed=0)
        scaled = np.ldexp(a.view(float), k).view(complex)
        base, res = zero_diagonal_reduce(a), zero_diagonal_reduce(scaled)
        assert np.array_equal(res.q, base.q)
        assert np.array_equal(res.atilde, np.ldexp(base.atilde.view(float), k).view(complex))
        assert factor(scaled, seed=0).best_trial == factor(a, seed=0).best_trial

    @pytest.mark.parametrize("make", [_ginibre, extremal_matrix], ids=["ginibre", "witness"])
    def test_one_solve_per_sweep(self, monkeypatch, make):
        # the sweeps and the exact-zero rounds each solve all their pairs at
        # once, so a per-pair loop in either would break this bound
        m, calls, svd = 64, [], np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *args, **kw: calls.append(1) or svd(*args, **kw))
        res = zero_diagonal_reduce(make(m))
        assert len(calls) <= res.sweeps + m

    @pytest.mark.parametrize("m", [33, 100, 255])
    def test_rounds_take_log2_solves(self, monkeypatch, m):
        # each round zeros about half the live entries with one stacked solve,
        # and a round that zeros none adds one more; a chain of one solve per
        # entry would make up to m - 1
        calls, svd = [], np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *args, **kw: calls.append(1) or svd(*args, **kw))
        res = zero_diagonal_reduce(_ginibre(m))
        assert res.converged
        assert len(calls) <= res.sweeps + 2 * _log2_ceil(m)


DIAGONAL = {
    **{f"witness-{m}": (lambda m=m: extremal_matrix(m)) for m in (2, 3, 7, 100, 255, 256)},
    **{
        f"complex-diagonal-9-x{scale:g}": (lambda scale=scale: scale * _complex_diagonal(9))
        for scale in (1.0, 1e300, 1e-300)
    },
}


DRIFTED = {
    "ginibre-16": lambda: _ginibre(16),
    "ginibre-64": lambda: _ginibre(64),
    "complex-diagonal-32": lambda: _complex_diagonal(32),
    # at m = 2 the one pair cannot put 0 on an entry and no slot is finished
    "complex-diagonal-2": lambda: _complex_diagonal(2),
    "complex-diagonal-3": lambda: _complex_diagonal(3),
    # after the first round no pair of its two live entries can be zeroed
    "normal-diagonal-4": lambda: _normal_diagonal(4, 1),
}


def _near_hermitian(m: int, seed: int) -> np.ndarray:
    """H + 0.3i diag(g) with H Hermitian: 2x2 numerical ranges are thin, and 0 often misses them."""
    rng = np.random.default_rng(seed)
    h = random_complex(rng, m)
    a = h + h.conj().T + 0.3j * np.diag(rng.standard_normal(m))
    return a - np.trace(a) / m * np.eye(m)


# HOSTILE holds the Ginibre m = 2, 3 and 255.  In the exact-zero rounds,
# near-hermitian-5 needs the largest entry's other live partners, and
# near-hermitian-21 a finished slot as well: without either it ends unconverged.
CAPPED = {
    **{f"ginibre-{m}": (lambda m=m: _ginibre(m)) for m in (5, 6, 7, 9, 33, 100, 256, 1023)},
    "near-hermitian-5": lambda: _near_hermitian(5, 1),
    "near-hermitian-21": lambda: _near_hermitian(21, 3),
    **HOSTILE,
}


class TestSkippedWork:
    @pytest.mark.parametrize("name", sorted(DIAGONAL))
    def test_diagonal_input_starts_from_dft(self, name):
        # F* D F is circulant with every diagonal entry tr(D)/m, so no sweep runs
        a = DIAGONAL[name]().astype(complex)
        res = zero_diagonal_reduce(a)
        _assert_reduced(a, res.q, res.atilde, res.diag_residual, res.converged)
        assert res.sweeps == 0
        assert np.array_equal(res.q, np.fft.fft(np.eye(a.shape[0]), norm="ortho"))

    def test_diagonal_trace_just_inside_lands_on_one_entry(self):
        a = _complex_diagonal(16)
        a[0, 0] += 0.9e-10 * hs_norm(a)
        res = zero_diagonal_reduce(a)
        assert res.converged
        assert res.diag_residual == pytest.approx(abs(np.trace(a)), rel=1e-3)

    @pytest.mark.parametrize("d, share", [((1.0, -1.0), 1.0), ((1.0 + 1.0j, -1.0 - 1.0j), 0.5)])
    def test_m2_diagonal_trace_just_inside(self, d, share):
        # 0 is in the numerical range of the drifted diag(d) only when the drift
        # is collinear with d: the trace then lands on one entry; otherwise no
        # rotation exists, nothing is finished to fall back on, and the DFT
        # start's two entries tr/2 stay
        a = np.diag(np.array(d, dtype=complex))
        a[0, 0] += 0.9e-10 * hs_norm(a)
        res = zero_diagonal_reduce(a)
        _assert_reduced(a, res.q, res.atilde, res.diag_residual, res.converged)
        assert res.diag_residual == pytest.approx(share * abs(np.trace(a)), rel=1e-3)

    @pytest.mark.parametrize("make", [_ginibre, extremal_matrix], ids=["ginibre", "witness"])
    def test_svd_calls_are_the_sweeps(self, monkeypatch, make):
        # one stacked solve per sweep and none for a chain below roundoff;
        # the witness takes the DFT start and solves nothing
        calls, svd = [], np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *args, **kw: calls.append(1) or svd(*args, **kw))
        res = zero_diagonal_reduce(make(64))
        assert len(calls) == res.sweeps
        if make is extremal_matrix:
            assert res.sweeps == 0

    @pytest.mark.parametrize("m", [6, 7, 33])
    def test_chain_still_runs_above_roundoff(self, m):
        # their ceil(log2 m) sweeps end far above roundoff, so the chain must run
        a = _ginibre(m)
        res = zero_diagonal_reduce(a)
        assert res.diag_residual <= 1e-14 * hs_norm(a)

    @pytest.mark.parametrize("name", sorted(DRIFTED))
    def test_idle_sweeps_end_the_loop(self, name):
        # |tr A|/m is above the sweep target, so the sweeps can never reach it;
        # they end at the ceil(log2 m) cap and the chain finishes the reduction
        a = DRIFTED[name]().astype(complex)
        a[0, 0] += 0.9e-10 * hs_norm(a)
        res = zero_diagonal_reduce(a)
        _assert_reduced(a, res.q, res.atilde, res.diag_residual, res.converged)
        assert res.sweeps <= _log2_ceil(a.shape[0])

    def test_fallbacks_refill_no_vacated_slot(self, monkeypatch):
        # each fallback moves a live entry onto a finished slot that no fallback
        # has emptied since the pairs last turned, so when the live entries' own
        # pair can never be zeroed the fallbacks run out of slots; refilling one
        # carried them around the slots for all 2m rounds, in 15 rotation steps
        a = DRIFTED["normal-diagonal-4"]().astype(complex)
        a[0, 0] += 0.9e-10 * hs_norm(a)
        steps, rotate = [], traceless.reduction._rotate
        monkeypatch.setattr(traceless.reduction, "_rotate", lambda *args, **kw: steps.append(kw) or rotate(*args, **kw))
        res = zero_diagonal_reduce(a)
        _assert_reduced(a, res.q, res.atilde, res.diag_residual, res.converged)
        assert len(steps) < 15

    @pytest.mark.parametrize("name", ["complex-diagonal-2", "complex-diagonal-3"])
    def test_equal_entries_make_no_sweep(self, monkeypatch, name):
        # after the DFT start of a drifted diagonal every entry is tr/m, so no
        # pair passes the sweeps' filter: they make no solve and count none
        a = DRIFTED[name]().astype(complex)
        a[0, 0] += 0.9e-10 * hs_norm(a)
        shapes, svd = [], np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda x, *args, **kw: shapes.append(x.shape) or svd(x, *args, **kw))
        res = zero_diagonal_reduce(a)
        assert res.sweeps == 0
        assert (0, 2, 3) not in shapes

    @pytest.mark.parametrize("name", sorted(CAPPED))
    def test_every_m_within_log2_sweeps(self, name):
        # at m = 2^k the k sweeps reach the target; at every other m the chain
        # zeros what the capped sweeps leave
        a = CAPPED[name]().astype(complex)
        res = zero_diagonal_reduce(a)
        _assert_reduced(a, res.q, res.atilde, res.diag_residual, res.converged)
        assert res.sweeps <= _log2_ceil(a.shape[0])
