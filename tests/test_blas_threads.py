"""CLI output at one and at two BLAS threads, each run in a child process.

``factor`` writes the same bytes at either thread count, and so does
``verify`` but for the two fields that rest on its SVD of B, ``op_norm_b``
and ``ratio``: LAPACK's rounding, like that of ``lowerbound``'s filtration
GEMMs, follows the thread count.  Those hold to rounding, and
``lowerbound``'s verdicts and dims hold exactly.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import traceless
from traceless.matio import write_matrix

from conftest import random_trace_zero

SRC = os.path.dirname(os.path.dirname(traceless.__file__))
THREADS = (1, 2)
M_FACTOR = 128  # large enough that OpenBLAS splits the products and dot products over two threads
M_LOWERBOUND = 256


def cli(threads: int, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return subprocess.run([sys.executable, "-m", "traceless.cli", *args], env=env,
                          capture_output=True, check=True)


@pytest.fixture(scope="module")
def input_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("threads") / "A.txt"
    write_matrix(path, random_trace_zero(np.random.default_rng(8), M_FACTOR))
    return path


def test_factor_and_verify_bytes_do_not_depend_on_the_thread_count(input_file):
    outputs, reports = [], []
    for threads in THREADS:
        out = input_file.parent / f"out{threads}"
        factor = cli(threads, "factor", str(input_file), "--out-dir", str(out), "--trials", "4", "--seed", "0")
        files = {name: (out / name).read_bytes() for name in ("B.txt", "C.txt", "Q.txt", "certificate.json")}
        outputs.append((factor.stdout, files))
        reports.append(json.loads(cli(threads, "verify", str(input_file), str(out / "B.txt"), str(out / "C.txt")).stdout))
    assert outputs[0] == outputs[1]
    assert reports[0]["residual_ok"] is True
    measured = ("op_norm_b", "ratio")  # from operator_norm(B), an SVD
    for key in measured:
        assert abs(reports[0][key] - reports[1][key]) <= 1e-14 * reports[0][key]
    assert {k: v for k, v in reports[0].items() if k not in measured} == {
        k: v for k, v in reports[1].items() if k not in measured}


def verdicts(node, path=""):
    """Every boolean of a lowerbound report and its dims, by their place in the JSON."""
    if isinstance(node, dict):
        found = {}
        for key, value in node.items():
            found.update(verdicts(value, f"{path}/{key}"))
        if "dims" in node:
            found[f"{path}/dims"] = node["dims"]
        return found
    if isinstance(node, list):
        found = {}
        for i, value in enumerate(node):
            found.update(verdicts(value, f"{path}/{i}"))
        return found
    return {path: node} if isinstance(node, bool) else {}


def test_lowerbound_verdicts_do_not_depend_on_the_thread_count():
    reports = [json.loads(cli(threads, "lowerbound", "-m", str(M_LOWERBOUND)).stdout) for threads in THREADS]
    assert reports[0]["all_strict_passed"] is True
    assert len(verdicts(reports[0])) > M_LOWERBOUND  # a verdict per partial sum, at least
    assert verdicts(reports[0]) == verdicts(reports[1])
