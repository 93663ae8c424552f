import json

import numpy as np
import pytest

import traceless.cli
from traceless.cli import build_parser, main
from traceless.factorizer import factor
from traceless.linalg import certify, commutator, hs_norm, operator_norm
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

    def test_non_unitary_q_exit_4(self, tmp_path, witness_file, capsys, skewed_q):
        code, out, _ = run(capsys, "factor", witness_file, "--out-dir", str(tmp_path / "out"),
                           "--trials", "8")
        assert code == 4
        assert "valid=False" in out
        assert json.loads((tmp_path / "out" / "certificate.json").read_text())["valid"] is False

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

    def test_default_seed_is_0(self, tmp_path, witness_file, capsys):
        d1, d2 = tmp_path / "default", tmp_path / "flag"
        run(capsys, "factor", witness_file, "--out-dir", str(d1), "--trials", "4")
        run(capsys, "factor", witness_file, "--out-dir", str(d2), "--trials", "4", "--seed", "0")
        for name in ("B.txt", "C.txt", "Q.txt", "certificate.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


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
        a, b, c = (read_matrix(p) for p in paths)
        check = certify(a, b, c, operator_norm(b))
        payload = json.loads(out)
        for key in ("residual", "op_norm_b", "hs_norm_c", "hs_norm_a", "ratio", "residual_ok"):
            assert payload[key] == getattr(check, key)

    def test_dimension_mismatch_exit_2(self, tmp_path, capsys):
        write_matrix(tmp_path / "a2.txt", np.zeros((2, 2)))
        write_matrix(tmp_path / "a3.txt", np.zeros((3, 3)))
        code, _, _ = run(capsys, "verify", str(tmp_path / "a2.txt"),
                         str(tmp_path / "a3.txt"), str(tmp_path / "a2.txt"))
        assert code == 2

    def test_undecodable_file_exit_2(self, tmp_path, capsys):
        write_matrix(tmp_path / "a.txt", np.zeros((1, 1)))
        bad = tmp_path / "b.txt"
        bad.write_bytes(b"1 1\n\xff,0\n")
        code, out, err = run(capsys, "verify", str(tmp_path / "a.txt"), str(bad), str(tmp_path / "a.txt"))
        assert code == 2
        assert out == ""
        assert err == f"error: cannot read matrix {str(bad)!r}: not UTF-8 text: invalid start byte at byte 4\n"


class TestLowerBoundCommand:
    def test_m16_all_pass(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code, _, _ = run(capsys, "lowerbound", "-m", "16", "--seed", "0",
                         "--out", str(report_path))
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert payload["all_strict_passed"] is True
        assert all(r["passed"] for r in payload["trace_inequality"])
        assert all(r["passed"] for r in payload["partial_sums"])
        assert payload["hs_lower"]["passed"] is True

    def test_m2_dims(self, capsys):
        code, out, _ = run(capsys, "lowerbound", "-m", "2")
        assert code == 0
        assert json.loads(out)["dims"] == [1, 1]

    def test_m1_exit_2(self, capsys):
        code, _, _ = run(capsys, "lowerbound", "-m", "1")
        assert code == 2

    def test_out_of_memory_exit_4(self, capsys, monkeypatch):
        # an m whose m x m arrays do not fit (-m 100000 asks for 149 GiB each) is a
        # numerical failure, not a failed verification; the report here only raises
        def out_of_memory(m, seed):
            raise MemoryError(f"Unable to allocate an array for m={m}")

        monkeypatch.setattr(traceless.cli, "lower_bound_report", out_of_memory)
        code, out, err = run(capsys, "lowerbound", "-m", "100000")
        assert code == 4 and out == ""
        assert err == "error: out of memory: Unable to allocate an array for m=100000\n"

    def test_trials_flag_removed_exit_2(self, capsys):
        # the witness factorization takes no permutation trials
        code, out, err = run(capsys, "lowerbound", "-m", "4", "--trials", "4")
        assert code == 2 and out == ""
        assert "--trials" in err


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
                           str(tmp_path / "T.txt"), str(tmp_path / "M.txt"))
        assert code == 0
        payload = json.loads(out)
        assert payload["all_ok"] is True
        assert sum(payload["dims"]) == m


def _small_inputs(tmp_path) -> dict[str, list[str]]:
    """Positional arguments with which each seedless or flag-bearing command succeeds."""
    a = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
    b = np.diag([0.0, 1.0]).astype(complex)
    c = np.array([[0.0, -0.5], [0.5, 0.0]], dtype=complex)
    e1 = np.array([[1.0], [0.0]], dtype=complex)
    for name, mat in (("a", a), ("b", b), ("c", c), ("e1", e1)):
        write_matrix(tmp_path / f"{name}.txt", mat)
    paths = {name: str(tmp_path / f"{name}.txt") for name in ("a", "b", "c", "e1")}
    return {
        "factor": [paths["a"], "--out-dir", str(tmp_path / "out"), "--trials", "2"],
        "verify": [paths["a"], paths["b"], paths["c"]],
        "lowerbound": ["-m", "4"],
        "filtration": [paths["b"], paths["b"], paths["e1"]],
        "lattice": ["5"],
    }


# Tolerances are module constants, the lattice points are never optimized and
# the filtration check works its shift lambda out, so none of these options
# exists any more.
@pytest.mark.parametrize("command, flag", [
    pytest.param("factor", ["--tol", "1e-10"], id="factor--tol"),
    pytest.param("verify", ["--tol", "1e-10"], id="verify--tol"),
    pytest.param("lowerbound", ["--rank-tol", "1e-6"], id="lowerbound--rank-tol"),
    pytest.param("filtration", ["--rank-tol", "1e-6"], id="filtration--rank-tol"),
    pytest.param("filtration", ["--lam", "0.25,0"], id="filtration--lam"),
    pytest.param("lattice", ["--optimize"], id="lattice--optimize"),
    pytest.param("lattice", ["--iterations", "10"], id="lattice--iterations"),
    pytest.param("lattice", ["--seed", "1"], id="lattice--seed"),
])
def test_removed_option_is_a_usage_error(tmp_path, capsys, command, flag):
    argv = _small_inputs(tmp_path)[command]
    assert run(capsys, command, *argv)[0] == 0
    code, out, err = run(capsys, command, *argv, *flag)
    assert code == 2 and out == ""
    assert flag[0] in err


@pytest.mark.parametrize("argv, seed", [(["lowerbound", "-m", "4"], ["--seed", "0"]),
                                        (["sweep", "--m", "4", "--trials", "2"], ["--seeds", "0"])],
                         ids=["lowerbound", "sweep"])
def test_seeded_command_defaults_to_seed_0(tmp_path, capsys, argv, seed):
    default, given = tmp_path / "default.txt", tmp_path / "given.txt"
    assert run(capsys, *argv, "--out", str(default))[0] == 0
    assert run(capsys, *argv, *seed, "--out", str(given))[0] == 0
    assert default.read_bytes() == given.read_bytes()


@pytest.mark.parametrize("argv, flag", [
    (["factor", "A.txt", "--out-dir", "out"], ["--seed", "-1"]),
    (["lowerbound", "-m", "4"], ["--seed", "-1"]),
    (["sweep", "--m", "4", "--out", "s.csv"], ["--seeds", "0", "-2"]),
], ids=["factor", "lowerbound", "sweep"])
def test_negative_seed_exit_2(tmp_path, monkeypatch, capsys, argv, flag):
    # refused while parsing: no input is read and nothing is written
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv, *flag)
    assert code == 2 and out == ""
    assert f"argument {flag[0]}: seed must be >= 0, got {flag[-1]}" in err
    assert list(tmp_path.iterdir()) == []


# Every option of every subcommand, in declaration order (help excluded).  A new
# flag is a new knob to document and test, so adding one means editing this table.
OPTIONS = {
    "factor": ["input", "--out-dir", "--trials", "--seed"],
    "verify": ["a", "b", "c"],
    "lowerbound": ["-m", "--seed", "--out"],
    "sweep": ["--m", "--seeds", "--trials", "--out"],
    "lattice": ["m", "--out"],
    "filtration": ["s", "t", "m_basis", "--out"],
}


def test_option_lists_are_pinned():
    (subparsers,) = [a for a in build_parser()._actions if a.dest == "command"]
    got = {
        name: [opt for action in sub._actions if action.dest != "help"
               for opt in (action.option_strings or [action.dest])]
        for name, sub in subparsers.choices.items()
    }
    assert got == OPTIONS


# The keys of every JSON report: "" lists the top level, each list of record
# rows lists the keys of its rows, and each nested record lists its own keys.
# A change to the result types must not drop or rename an output key, so
# changing one means editing this table.
TRACE_ROW = ["lhs", "n", "normbd_bound", "normbd_passed", "passed", "rank_cum", "rhs", "slack"]
PARTIAL_SUM_ROW = ["bound", "l", "passed", "sum"]
HS_LOWER = ["c_bound", "passed", "quarter_log_sum", "ratio_sq", "rhs_sum"]
# one structure check serves both commands: lowerbound nests its record, filtration prints it at the top
STRUCTURE = ["dims", "dims_ok", "hypothesis_ok", "hypothesis_residual", "hypothesis_tol", "invariance_ok",
             "invariance_residual", "invariance_tol", "structure_ok", "structure_residual_s",
             "structure_residual_t", "structure_tol"]
JSON_KEYS = {
    "factor": {"": ["b_path", "bound", "c_path", "diag_residual", "hs_norm_a", "hs_norm_c", "m",
                    "op_norm_b", "q_path", "ratio", "residual", "rng", "seed", "trials", "valid"]},
    "verify": {"": ["hs_norm_a", "hs_norm_c", "op_norm_b", "ratio", "residual", "residual_ok",
                    "sanity_hs_le_2_opb_hsc"]},
    "lowerbound": {
        "": ["all_strict_passed", "dims", "filtration_complete", "hs_lower", "iso_residual_v",
             "iso_residual_w", "m", "normalization", "partial_sums", "partial_sums_triangular",
             "structure", "trace_inequality", "v_norm", "w_norm"],
        "structure": STRUCTURE,
        "trace_inequality": TRACE_ROW,
        "partial_sums": PARTIAL_SUM_ROW,
        "partial_sums_triangular": PARTIAL_SUM_ROW,
        "hs_lower": HS_LOWER,
    },
    "lattice": {"": ["bound_value", "excess_over_pi_log_m", "expectation", "m", "pair_energy",
                     "radius_bound"]},
    "filtration": {"": sorted(STRUCTURE + ["all_ok", "rank_tolerance"])},
}


@pytest.mark.parametrize("command", list(JSON_KEYS))
def test_json_keys_are_pinned(tmp_path, capsys, command):
    code, out, _ = run(capsys, command, *_small_inputs(tmp_path)[command])
    assert code == 0
    if command == "factor":
        out = (tmp_path / "out" / "certificate.json").read_text()
    payload = json.loads(out)
    got = {"": sorted(payload)}
    for key, value in payload.items():
        if isinstance(value, list) and any(isinstance(row, dict) for row in value):
            got[key] = sorted({name for row in value for name in row})
        elif isinstance(value, dict):
            got[key] = sorted(value)
    assert got == JSON_KEYS[command]
