import json

import numpy as np
import pytest

import traceless.cli
from traceless.cli import main
from traceless.factorizer import factor
from traceless.linalg import certify, commutator, hs_norm
from traceless.lowerbound import extremal_matrix
from traceless.matio import read_matrix, write_matrix

from conftest import random_trace_zero


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def witness_file(tmp_path):
    path = tmp_path / "A.txt"
    write_matrix(path, extremal_matrix(4))
    return str(path)


class TestFactorCommand:
    def test_happy_path(self, tmp_path, witness_file, capsys):
        out_dir = tmp_path / "out"
        code, out, _ = run(capsys, "factor", witness_file, "--out-dir", str(out_dir),
                           "--trials", "8", "--seed", "0")
        assert code == 0
        cert = json.loads((out_dir / "certificate.json").read_text())
        assert cert["valid"] is True
        assert cert["m"] == 4
        a = read_matrix(witness_file)
        b = read_matrix(out_dir / "B.txt")
        c = read_matrix(out_dir / "C.txt")
        q = read_matrix(out_dir / "Q.txt")
        assert hs_norm(a - commutator(b, c)) <= 1e-10
        assert hs_norm(q.conj().T @ q - np.eye(4)) <= 1e-10
        assert "ratio=" in out

    def test_malformed_file_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a matrix\n")
        code, _, err = run(capsys, "factor", str(bad), "--out-dir", str(tmp_path))
        assert code == 2

    def test_missing_file_exit_2(self, tmp_path, capsys):
        code, _, _ = run(capsys, "factor", str(tmp_path / "nope.txt"))
        assert code == 2

    def test_identity_exit_3(self, tmp_path, capsys):
        path = tmp_path / "I.txt"
        write_matrix(path, np.eye(3))
        code, _, err = run(capsys, "factor", str(path), "--out-dir", str(tmp_path))
        assert code == 3
        assert "trace" in err

    def test_deterministic_outputs(self, tmp_path, witness_file, capsys):
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        run(capsys, "factor", witness_file, "--out-dir", str(d1), "--trials", "4", "--seed", "2")
        run(capsys, "factor", witness_file, "--out-dir", str(d2), "--trials", "4", "--seed", "2")
        for name in ("B.txt", "C.txt", "Q.txt", "certificate.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_tiny_nonzero_trace_exit_3(self, tmp_path, capsys):
        path = tmp_path / "tinyI.txt"
        write_matrix(path, 1e-150 * np.eye(3))
        code, _, err = run(capsys, "factor", str(path), "--out-dir", str(tmp_path / "out"))
        assert code == 3
        assert "trace" in err
        assert not (tmp_path / "out").exists()

    def test_near_overflow_roundtrip(self, tmp_path, capsys, rng):
        path = tmp_path / "huge.txt"
        write_matrix(path, 1e300 * random_trace_zero(rng, 16))
        code, out, _ = run(capsys, "factor", str(path), "--out-dir", str(tmp_path / "o"), "--trials", "8")
        assert code == 0 and "valid=True" in out
        code, _, _ = run(capsys, "verify", str(path), str(tmp_path / "o" / "B.txt"), str(tmp_path / "o" / "C.txt"))
        assert code == 0

    def test_not_square_exit_2(self, tmp_path, capsys):
        path = tmp_path / "rect.txt"
        write_matrix(path, np.zeros((2, 3)))
        code, _, err = run(capsys, "factor", str(path), "--out-dir", str(tmp_path))
        assert code == 2
        assert "square" in err

    def test_bad_env_seed_exit_2(self, tmp_path, witness_file, capsys, monkeypatch):
        monkeypatch.setenv("TRACELESS_SEED", "seven")
        code, _, err = run(capsys, "factor", witness_file, "--out-dir", str(tmp_path))
        assert code == 2
        assert "TRACELESS_SEED" in err and "seven" in err

    def test_env_seed_default(self, tmp_path, witness_file, capsys, monkeypatch):
        d1, d2 = tmp_path / "env", tmp_path / "flag"
        monkeypatch.setenv("TRACELESS_SEED", "7")
        run(capsys, "factor", witness_file, "--out-dir", str(d1), "--trials", "4")
        monkeypatch.delenv("TRACELESS_SEED")
        run(capsys, "factor", witness_file, "--out-dir", str(d2), "--trials", "4", "--seed", "7")
        assert (d1 / "certificate.json").read_bytes() == (d2 / "certificate.json").read_bytes()


class TestVerifyCommand:
    def test_roundtrip_from_factor(self, tmp_path, witness_file, capsys):
        out_dir = tmp_path / "out"
        run(capsys, "factor", witness_file, "--out-dir", str(out_dir), "--trials", "8")
        code, out, _ = run(capsys, "verify", witness_file,
                           str(out_dir / "B.txt"), str(out_dir / "C.txt"))
        assert code == 0
        payload = json.loads(out)
        assert payload["residual"] <= 1e-10
        assert payload["residual_ok"] and payload["sanity_hs_le_2_opb_hsc"]

    def test_hand_triple_ratio_one(self, tmp_path, capsys):
        a = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
        b = np.diag([0.0, 1.0]).astype(complex)
        c = np.array([[0.0, -0.5], [0.5, 0.0]], dtype=complex)
        for name, mat in (("a", a), ("b", b), ("c", c)):
            write_matrix(tmp_path / f"{name}.txt", mat)
        code, out, _ = run(capsys, "verify", str(tmp_path / "a.txt"),
                           str(tmp_path / "b.txt"), str(tmp_path / "c.txt"))
        assert code == 0
        assert json.loads(out)["ratio"] == pytest.approx(1.0, abs=1e-14)

    def test_equal_factors_fail_unless_zero(self, tmp_path, capsys):
        b = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
        write_matrix(tmp_path / "b.txt", b)
        write_matrix(tmp_path / "nz.txt", np.array([[0.0, 1.0], [1.0, 0.0]]))
        write_matrix(tmp_path / "z.txt", np.zeros((2, 2)))
        code, _, _ = run(capsys, "verify", str(tmp_path / "nz.txt"),
                         str(tmp_path / "b.txt"), str(tmp_path / "b.txt"))
        assert code == 1
        code, _, _ = run(capsys, "verify", str(tmp_path / "z.txt"),
                         str(tmp_path / "b.txt"), str(tmp_path / "b.txt"))
        assert code == 0

    @pytest.mark.parametrize("scale", [1e-150, 1e150])
    def test_extreme_scale_roundtrip(self, tmp_path, capsys, rng, scale):
        write_matrix(tmp_path / "A.txt", scale * random_trace_zero(rng, 8))
        code, out, _ = run(capsys, "factor", str(tmp_path / "A.txt"),
                           "--out-dir", str(tmp_path), "--trials", "4")
        assert code == 0 and "valid=True" in out
        code, out, _ = run(capsys, "verify", str(tmp_path / "A.txt"),
                           str(tmp_path / "B.txt"), str(tmp_path / "C.txt"))
        assert code == 0
        assert json.loads(out)["residual_ok"] is True

    def test_tiny_nonfactorization_exit_1(self, tmp_path, capsys):
        write_matrix(tmp_path / "a.txt", 1e-150 * np.eye(3))
        write_matrix(tmp_path / "b.txt", np.eye(3))
        write_matrix(tmp_path / "c.txt", np.zeros((3, 3)))
        code, out, _ = run(capsys, "verify", str(tmp_path / "a.txt"),
                           str(tmp_path / "b.txt"), str(tmp_path / "c.txt"))
        assert code == 1
        assert json.loads(out)["residual_ok"] is False

    def test_numbers_are_certify_bits(self, tmp_path, witness_file, capsys):
        out_dir = tmp_path / "out"
        run(capsys, "factor", witness_file, "--out-dir", str(out_dir), "--trials", "8")
        paths = [witness_file, str(out_dir / "B.txt"), str(out_dir / "C.txt")]
        _, out, _ = run(capsys, "verify", *paths)
        check = certify(*(read_matrix(p) for p in paths))
        payload = json.loads(out)
        for key in ("residual", "op_norm_b", "hs_norm_c", "hs_norm_a", "ratio", "residual_ok"):
            assert payload[key] == getattr(check, key)

    def test_dimension_mismatch_exit_2(self, tmp_path, capsys):
        write_matrix(tmp_path / "a2.txt", np.zeros((2, 2)))
        write_matrix(tmp_path / "a3.txt", np.zeros((3, 3)))
        code, _, _ = run(capsys, "verify", str(tmp_path / "a2.txt"),
                         str(tmp_path / "a3.txt"), str(tmp_path / "a2.txt"))
        assert code == 2


class TestLowerBoundCommand:
    def test_m16_all_pass(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code, _, _ = run(capsys, "lowerbound", "-m", "16", "--trials", "16",
                         "--seed", "0", "--out", str(report_path))
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert payload["all_strict_passed"] is True
        assert all(r["passed"] for r in payload["trace_inequality"])
        assert all(r["passed"] for r in payload["partial_sums"])

    def test_m2_dims(self, capsys):
        code, out, _ = run(capsys, "lowerbound", "-m", "2", "--trials", "4")
        assert code == 0
        assert json.loads(out)["dims"] == [1, 1]

    def test_m1_exit_2(self, capsys):
        code, _, _ = run(capsys, "lowerbound", "-m", "1")
        assert code == 2


class TestSweepCommand:
    def test_csv_shape_and_summary(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, stdout, _ = run(capsys, "sweep", "--m", "8", "4", "--seeds", "1", "0",
                              "--trials", "4", "--out", str(out))
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "m,seed,ratio,ratio_sq_minus_log_m"
        rows = [ln.split(",") for ln in lines[1:]]
        assert [(int(r[0]), int(r[1])) for r in rows] == [(4, 0), (4, 1), (8, 0), (8, 1)]
        assert "max_ratio_sq_minus_log_m=" in stdout

    def test_byte_identical_reruns(self, tmp_path, capsys):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--m", "4", "8", "--seeds", "0", "1", "--trials", "4"]
        run(capsys, *args, "--out", str(f1))
        run(capsys, *args, "--out", str(f2))
        assert f1.read_bytes() == f2.read_bytes()

    def test_invalid_certificate_exit_4(self, tmp_path, capsys, monkeypatch):
        def factor_one_invalid(a, trials, seed):
            cert = factor(a, trials=trials, seed=seed)
            if a.shape[0] == 8 and seed == 1:
                cert.valid = False
            return cert

        monkeypatch.setattr(traceless.cli, "factor", factor_one_invalid)
        out = tmp_path / "sweep.csv"
        code, _, err = run(capsys, "sweep", "--m", "4", "8", "--seeds", "0", "1",
                           "--trials", "2", "--out", str(out))
        assert code == 4
        assert "m=8 seed=1" in err
        assert "m=4" not in err and "seed=0" not in err
        assert len(out.read_text().strip().split("\n")) == 5  # the CSV is still complete

    def test_empty_m_list(self, tmp_path, capsys):
        out = tmp_path / "empty.csv"
        code, stdout, _ = run(capsys, "sweep", "--out", str(out))
        assert code == 0
        assert out.read_text() == "m,seed,ratio,ratio_sq_minus_log_m\n"
        assert "records=0" in stdout


class TestLatticeCommand:
    def test_m5_energy(self, capsys):
        code, out, _ = run(capsys, "lattice", "5")
        assert code == 0
        payload = json.loads(out)
        assert payload["pair_energy"] == pytest.approx(13.0)

    def test_optimize_zero_iterations_identical(self, tmp_path, capsys):
        p1, p2 = tmp_path / "p1.txt", tmp_path / "p2.txt"
        run(capsys, "lattice", "5", "--out", str(p1))
        run(capsys, "lattice", "5", "--optimize", "--iterations", "0",
            "--seed", "0", "--out", str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_optimize_improvement_nonnegative(self, capsys):
        code, out, _ = run(capsys, "lattice", "64", "--optimize",
                           "--iterations", "300", "--seed", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["relative_improvement"] >= 0.0
        assert payload["optimized_energy"] <= payload["pair_energy"]

    def test_m1_exit_2(self, capsys):
        code, _, _ = run(capsys, "lattice", "1")
        assert code == 2


class TestFiltrationCommand:
    def test_witness_pipeline(self, tmp_path, capsys):
        from traceless.factorizer import factor

        m = 4
        cert = factor(extremal_matrix(m), trials=8, seed=0)
        b = cert.b / cert.op_norm_b
        c = cert.c * cert.op_norm_b
        e1 = np.zeros((m, 1), dtype=complex)
        e1[0, 0] = 1.0
        write_matrix(tmp_path / "S.txt", b)
        write_matrix(tmp_path / "T.txt", c)
        write_matrix(tmp_path / "M.txt", e1)
        code, out, _ = run(capsys, "filtration", str(tmp_path / "S.txt"),
                           str(tmp_path / "T.txt"), str(tmp_path / "M.txt"),
                           "--lam", "0.25,0")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_ok"] is True
        assert sum(payload["dims"]) == m

    def test_bad_lam_exit_2(self, tmp_path, capsys):
        write_matrix(tmp_path / "S.txt", np.zeros((2, 2)))
        e1 = np.zeros((2, 1), dtype=complex)
        e1[0, 0] = 1.0
        write_matrix(tmp_path / "M.txt", e1)
        code, _, _ = run(capsys, "filtration", str(tmp_path / "S.txt"),
                         str(tmp_path / "S.txt"), str(tmp_path / "M.txt"),
                         "--lam", "bogus")
        assert code == 2
