"""The benchmark wraps package functions by name and reads their results: both must hold.

The ``TRACED`` table is read from ``perfbench/tracer.py`` without running
that file.  Each name in it, and ``lattice.pair_expectation`` (used by the
tracer's factor hook), must resolve on the ``traceless.<layer>`` module.
The fields that the tracer's filtration hook and the lower-bound workload
read from real results must exist as well.
"""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

import traceless
import traceless.lowerbound

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def traced_table() -> dict:
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {TRACER}")


NAMES = [(layer, fname) for layer, fnames in traced_table().items() for fname in fnames]
NAMES.append(("lattice", "pair_expectation"))


@pytest.mark.parametrize("layer,fname", NAMES, ids=[f"{layer}.{fname}" for layer, fname in NAMES])
def test_traced_name_resolves(layer, fname):
    module = importlib.import_module(f"traceless.{layer}")
    assert callable(getattr(module, fname, None)), f"traceless.{layer}.{fname} is gone"


def test_filtration_fields_read_by_the_tracer():
    s = np.diag(np.arange(1.0, 5.0))
    seed = np.ones((4, 1)) / 2.0
    filt = traceless.build_filtration(s, np.roll(np.eye(4), 1, axis=0), seed)
    assert len(filt.blocks) > 1 and filt.total_dim == 4
    assert max(filt.block_residual_s, filt.block_residual_t) >= 0.0


def test_report_fields_read_by_the_workload():
    rep = traceless.lower_bound_report(4, trials=2, seed=0)
    assert rep.m == 4 and sum(rep.dims) == 4
    assert isinstance(rep.all_strict_passed, bool)
    assert all(isinstance(r.slack, float) for r in rep.trace_records)
    cert = rep.certificate
    assert cert.b.shape == cert.c.shape == (4, 4)
    for name in ("valid", "ratio", "bound", "op_norm_b", "hs_norm_c"):
        assert getattr(cert, name) is not None, name


def test_witness_report_is_a_function_of_its_seed():
    # the lower-bound workload calls lower_bound_report(m, trials=..., seed=s):
    # it checks that a seed repeats its factorization bit for bit, and its
    # seeds are meant to give distinct factorizations
    first, again = (traceless.lower_bound_report(32, trials=32, seed=0).certificate for _ in range(2))
    assert first.b.tobytes() == again.b.tobytes() and first.c.tobytes() == again.c.tobytes()
    digests = {traceless.lower_bound_report(32, trials=32, seed=s).certificate.b.tobytes() for s in range(6)}
    assert len(digests) == 6


@pytest.mark.parametrize("fname", ["verify_hs_lower_bound", "verify_trace_inequality"])
def test_report_calls_the_traced_chain_check_once(monkeypatch, fname):
    # the tracer times lowerbound.hs_lower_s and lowerbound.trace_ineq_s by
    # replacing these module globals, so the report must look them up there
    calls = []
    orig = getattr(traceless.lowerbound, fname)

    def counted(*args):
        calls.append(args)
        return orig(*args)

    monkeypatch.setattr(traceless.lowerbound, fname, counted)
    rep = traceless.lower_bound_report(16, seed=0)
    assert len(calls) == 1 and rep.all_strict_passed
