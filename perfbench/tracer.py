"""In-memory span tracer that times traceless from outside the package.

``Tracer.install`` replaces each traced function at every module-level name
through which callers look it up (``traceless.cli.read_matrix``,
``traceless.factorizer.zero_diagonal_reduce``, the package namespace, ...),
so the package's own code is not edited.  ``numpy.linalg.svd`` is wrapped
for counting only.

The tracer's clock stops while health numbers are computed (``paused``), so
those checks never count towards a span or a step time.  A span's self time
is its duration minus the durations of its direct children: calls in one
thread nest and never overlap, so that sum is the covered time.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import json
import os
import time
from collections import defaultdict

import numpy as np

# layer (= traceless module) -> public functions recorded as spans "<layer>.<function>"
TRACED = {
    "cli": ("main",),
    "matio": ("read_matrix", "write_matrix"),
    "reduction": ("zero_diagonal_reduce",),
    "lattice": ("gaussian_points",),
    "factorizer": ("factor", "c_from_b"),
    "linalg": ("operator_norm", "commutator", "hs_norm", "nuclear_norm", "singular_profile"),
    "filtration": ("build_filtration",),
    "lowerbound": (
        "lower_bound_report",
        "verify_trace_inequality",
        "construct_partial_isometries",
        "partial_isometry_residuals",
        "verify_partial_sums",
        "verify_hs_lower_bound",
    ),
}
LAYERS = tuple(TRACED)


@dataclasses.dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: str | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans, per-operation notes and the health-paused clock.

    With ``recording=False`` spans are timed but not kept, which is how the
    untraced rounds measure their steps through the same code path.
    """

    def __init__(self, recording: bool = True):
        self.recording = recording
        self.spans: list[Span] = []
        self.notes: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
        self.op: str | None = None
        self.paused_s = 0.0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.originals: dict[str, object] = {}

    def now(self) -> float:
        return time.perf_counter() - self.paused_s

    @contextlib.contextmanager
    def span(self, name: str):
        rec = Span(len(self.spans), name, 0.0, 0.0,
                   self._stack[-1] if self._stack else None, self.op)
        if self.recording:
            self.spans.append(rec)
        self._stack.append(rec.id)
        rec.start = self.now()
        try:
            yield rec
        finally:
            rec.end = self.now()
            self._stack.pop()

    @contextlib.contextmanager
    def paused(self):
        """Stop the clock: work done here is excluded from every span."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.paused_s += time.perf_counter() - t0

    def note(self, name: str, value: float) -> None:
        if self.recording:
            self.notes[self.op][name].append(float(value))

    def adopt(self, payload: dict, parent: Span) -> None:
        """Attach the spans and notes a traced child process wrote."""
        base = len(self.spans)
        for sid, name, start, end, par in payload["spans"]:
            self.spans.append(Span(base + sid, name, start, end,
                                   parent.id if par is None else base + par, self.op))
        for name, values in payload["notes"].items():
            self.notes[self.op][name].extend(values)
        self.paused_s += payload["paused_s"]

    def dump(self, path: str) -> None:
        """Write this process's spans and notes (the traced CLI child's output)."""
        payload = {
            "spans": [[s.id, s.name, s.start, s.end, s.parent] for s in self.spans],
            "notes": dict(self.notes[self.op]),
            "paused_s": self.paused_s,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)

    # -- wrapping -----------------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module("traceless")]
        modules += [importlib.import_module(f"traceless.{layer}") for layer in LAYERS]
        for layer in LAYERS:
            owner = importlib.import_module(f"traceless.{layer}")
            for fname in TRACED[layer]:
                orig = self.originals[f"{layer}.{fname}"] = getattr(owner, fname)
                wrapper = self._wrap(f"{layer}.{fname}", orig, _HOOKS.get(f"{layer}.{fname}"))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._patch(mod, attr, wrapper)
        svd = np.linalg.svd

        @functools.wraps(svd)
        def counted_svd(*args, **kwargs):
            self.note("linalg.svd_calls", 1)
            return svd(*args, **kwargs)

        self._patch(np.linalg, "svd", counted_svd)
        inner = getattr(np.linalg, "_linalg", None)
        if inner is not None and getattr(inner, "svd", None) is svd:
            self._patch(inner, "svd", counted_svd)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def _patch(self, mod, attr, value) -> None:
        self._patched.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def _wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                with self.paused():
                    hook(self, args, kwargs, result)
            return result

        return wrapper


# -- counts and health numbers, computed with the clock paused ---------------


def _path_arg(args, kwargs):
    return args[0] if args else kwargs["path"]


def _after_read(tr, args, kwargs, result):
    tr.note("matio.read_calls", 1)
    tr.note("matio.bytes_read", os.path.getsize(_path_arg(args, kwargs)))


def _after_write(tr, args, kwargs, result):
    tr.note("matio.write_calls", 1)
    tr.note("matio.bytes_written", os.path.getsize(_path_arg(args, kwargs)))


def _after_reduce(tr, args, kwargs, red):
    q = red.q
    tr.note("reduction.sweeps", red.sweeps)
    tr.note("reduction.diag_residual", red.diag_residual)
    tr.note("reduction.unitarity_defect",
            np.linalg.norm(q.conj().T @ q - np.eye(q.shape[0])))


def _after_factor(tr, args, kwargs, cert):
    from traceless.lattice import pair_expectation

    tr.note("factorizer.best_trial", cert.best_trial)
    points = tr.originals["lattice.gaussian_points"](cert.m)
    predicted = cert.hs_norm_a**2 * pair_expectation(points).expectation
    if predicted > 0.0:
        tr.note("factorizer.c2_realized_over_predicted", cert.hs_norm_c**2 / predicted)


def _after_operator_norm(tr, args, kwargs, result):
    tr.note("linalg.operator_norm_calls", 1)


def _after_filtration(tr, args, kwargs, filt):
    tr.note("filtration.blocks", len(filt.blocks))
    tr.note("filtration.total_dim", filt.total_dim)
    tr.note("filtration.block_residual", max(filt.block_residual_s, filt.block_residual_t))


_HOOKS = {
    "matio.read_matrix": _after_read,
    "matio.write_matrix": _after_write,
    "reduction.zero_diagonal_reduce": _after_reduce,
    "factorizer.factor": _after_factor,
    "linalg.operator_norm": _after_operator_norm,
    "filtration.build_filtration": _after_filtration,
}


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
    return {s.id: s.duration - covered[s.id] for s in spans}
