"""The benchmark tracer wraps package functions by name: they must exist.

The ``TRACED`` table is read from ``perfbench/tracer.py`` without running
that file.  Each name in it, and ``lattice.pair_expectation`` (used by the
tracer's factor hook), must resolve on the ``traceless.<layer>`` module.
"""

import ast
import importlib
from pathlib import Path

import pytest

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
