"""The workloads: their set-up, the timed steps of one round, and the checks.

A round runs each step in order; every call of a step is one operation that
is timed and then checked.  Checks run outside the timed region.  Each
workload makes its inputs from the seed alone and reuses them in every
call, so every call of a step must produce byte-identical outputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, field

import numpy as np

import traceless

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
TRIALS = 32
RESIDUAL_TOL = 1e-10  # the package's own residual criterion, relative to ||B|| ||C||_2
PROBES = 8
DETERMINISM_M = 32


@dataclass
class StepResult:
    seconds: float | None        # None when the step raised or was skipped
    problems: list[str] = field(default_factory=list)
    ratio: float | None = None   # certified ||B|| ||C||_2 / ||A||_2 of a factorization
    passed: bool | None = None   # certificate within its bound, or the whole witness chain
    probe_s: float | None = None  # the step's reference kernel time around this call

    @property
    def rel(self) -> float | None:
        """The call's time in units of the reference kernel's time (see reference.py)."""
        return None if self.seconds is None or not self.probe_s else self.seconds / self.probe_s


def child_env() -> dict:
    """The environment for child interpreters: the package from ``src/`` first."""
    extra = [p for p in [os.environ.get("PYTHONPATH")] if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join([SRC] + extra))


def ginibre_trace_zero(m: int, seed: int) -> np.ndarray:
    """Ginibre entries with the diagonal shifted to trace zero (the recipe of ``traceless sweep``)."""
    rng = np.random.default_rng([seed, m, 0x7A11])
    a = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / math.sqrt(2.0 * m)
    a -= (np.trace(a) / m) * np.eye(m)
    return a


def witness(m: int) -> np.ndarray:
    """P - I/m with the head entry compensated so the trace is zero to the last ulp."""
    d = np.full(m, -1.0 / m, dtype=complex)
    d[0] = -math.fsum([-1.0 / m] * (m - 1))
    return np.diag(d)


def probe_residual(a, b, c) -> float:
    """||A - (BC - CB)||_F estimated from Gaussian probes (E||E x||^2 = ||E||_F^2)."""
    x = np.random.default_rng(0).standard_normal((a.shape[0], PROBES))
    err = a @ x - (b @ (c @ x) - c @ (b @ x))
    return float(np.sqrt(np.sum(np.abs(err) ** 2) / PROBES))


def check_factorization(a, b, c, claim: dict) -> list[str]:
    """The benchmark's own check of a factorization against its certificate."""
    problems = []
    if claim["valid"] is not True:
        problems.append("certificate is not valid")
    if not claim["ratio"] <= claim["bound"]:
        problems.append(f"ratio {claim['ratio']!r} exceeds bound {claim['bound']!r}")
    hs_a, hs_b, hs_c = (float(np.linalg.norm(x)) for x in (a, b, c))
    op_b = claim["op_norm_b"]
    if abs(hs_c - claim["hs_norm_c"]) > 1e-12 * max(1.0, hs_c):
        problems.append("||C||_2 differs from the certificate")
    if op_b > hs_b * (1.0 + 1e-12):
        problems.append("certified ||B|| exceeds ||B||_2")
    if abs(claim["ratio"] - op_b * hs_c / hs_a) > 1e-12 * claim["ratio"]:
        problems.append("ratio is not ||B|| ||C||_2 / ||A||_2")
    residual = probe_residual(a, b, c)
    if residual > RESIDUAL_TOL * max(1.0, op_b * hs_c):
        problems.append(f"residual ||A - [B, C]||_2 ~ {residual:.3e}")
    return problems


def cert_claim(cert) -> dict:
    return {k: getattr(cert, k) for k in ("valid", "ratio", "bound", "op_norm_b", "hs_norm_c")}


def array_digest(*arrays) -> str:
    h = hashlib.sha256()
    for x in arrays:
        h.update(np.ascontiguousarray(x).tobytes())
    return h.hexdigest()


def file_digest(*paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def format_matrix_text(a: np.ndarray) -> str:
    """The package's text format, written by the benchmark itself."""
    row = " ".join(["%.17g,%.17g"] * a.shape[1])
    pairs = a.view(float).reshape(a.shape[0], -1)
    return "\n".join([f"{a.shape[0]} {a.shape[1]}"] + [row % tuple(r) for r in pairs]) + "\n"


class Workload:
    name = ""
    sizes: tuple[int, ...] = ()
    chained = False  # later steps of a round need the earlier ones to have succeeded

    def __init__(self, seed: int, workdir: str, sizes: tuple[int, ...] | None = None):
        self.seed = seed
        self.workdir = workdir
        if sizes is not None:
            self.sizes = sizes
        self.digests: dict[int, str] = {}

    def labels(self) -> list[str]:
        raise NotImplementedError

    def kinds(self) -> list[str]:
        """Per step, the reference kernel (reference.KERNELS) matching the step's dominant work."""
        raise NotImplementedError

    def setup(self) -> list[str]:
        """Prepare inputs; return problems found by the determinism check."""
        raise NotImplementedError

    def step(self, k: int, tr) -> StepResult:
        raise NotImplementedError

    def same_as_before(self, k: int, digest: str) -> list[str]:
        first = self.digests.setdefault(k, digest)
        return [] if first == digest else [f"step {k + 1}: output differs from its first call"]


class LowerboundWitness(Workload):
    """In-process ``traceless.lower_bound_report`` at three sizes, witness factorization included."""

    name = "lowerbound-witness"
    sizes = (128, 256, 512)

    def labels(self):
        return [f"lowerbound_s.m{m}" for m in self.sizes]

    def kinds(self):
        # many small calls (2x2 sweeps, small filtration blocks) dominate up to
        # m=256, the filtration's dense products at m=512
        return ["dense" if m >= 512 else "interp" for m in self.sizes]

    def setup(self):
        runs = [traceless.lower_bound_report(DETERMINISM_M, trials=TRIALS, seed=self.seed)
                for _ in range(2)]
        digests = {self._digest(r) for r in runs}
        return [] if len(digests) == 1 else ["lower_bound_report is not deterministic for a fixed seed"]

    @staticmethod
    def _digest(rep) -> str:
        flags = [rep.all_strict_passed, rep.dims, [r.slack for r in rep.trace_records]]
        return array_digest(rep.certificate.b, rep.certificate.c,
                            np.frombuffer(json.dumps(flags).encode(), dtype=np.uint8))

    def step(self, k, tr):
        m = self.sizes[k]
        with tr.span("bench.step") as rec:
            rep = traceless.lower_bound_report(m, trials=TRIALS, seed=self.seed)
        cert = rep.certificate
        problems = check_factorization(witness(m), cert.b, cert.c, cert_claim(cert))
        if rep.m != m or sum(rep.dims) > m:
            problems.append(f"report dimensions are inconsistent: m={rep.m}, dims sum {sum(rep.dims)}")
        problems += self.same_as_before(k, self._digest(rep))
        # A failing chain is a result, not an error: it only lowers pass_fraction.
        return StepResult(rec.duration, problems, cert.ratio, bool(rep.all_strict_passed))


class CliRoundtrip(Workload):
    """``traceless factor`` then ``traceless verify`` as subprocesses, then reading B and C back."""

    name = "cli-roundtrip"
    sizes = (256,)
    chained = True

    def labels(self):
        return ["factor_cli_s", "verify_cli_s", "readback_s"]

    def kinds(self):
        # interpreter start-up, text formatting and parsing, and the 2x2 sweeps
        return ["interp"] * 3

    def setup(self):
        self.env = child_env()
        self.a = ginibre_trace_zero(self.sizes[0], self.seed)
        self.a_path = self._write_input("A.txt", self.a)
        small = self._write_input("A_small.txt", ginibre_trace_zero(DETERMINISM_M, self.seed))
        digests = set()
        for n in range(2):
            out = os.path.join(self.workdir, f"small{n}")
            proc = self._plain(self._factor_args(small, out))
            if proc.returncode != 0:
                return [f"factor exited {proc.returncode}: {proc.stderr.strip()[-500:]}"]
            digests.add(file_digest(*self._outputs(out)))
        return [] if len(digests) == 1 else ["factor output files differ for a fixed seed"]

    def _write_input(self, name, a):
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(format_matrix_text(a))
        return path

    def _factor_args(self, a_path, out):
        return ["factor", a_path, "--out-dir", out, "--trials", str(TRIALS), "--seed", str(self.seed)]

    @staticmethod
    def _outputs(out):
        return [os.path.join(out, f) for f in ("B.txt", "C.txt", "Q.txt", "certificate.json")]

    def _plain(self, args):
        return subprocess.run([sys.executable, "-m", "traceless.cli", *args],
                              env=self.env, capture_output=True, text=True, check=False)

    def _run(self, tr, args):
        """One CLI command in a fresh interpreter; traced runs record its spans too."""
        if not tr.recording:
            return self._plain(args)
        payload = os.path.join(self.workdir, "child-trace.json")
        if os.path.exists(payload):  # never adopt a previous child's spans
            os.remove(payload)
        with tr.span("cli.process") as proc_span:
            proc = subprocess.run([sys.executable, os.path.join(HERE, "clichild.py"), payload, *args],
                                  env=self.env, capture_output=True, text=True, check=False)
            with tr.paused():
                with open(payload, encoding="utf-8") as fh:
                    tr.adopt(json.load(fh), proc_span)
        return proc

    def step(self, k, tr):
        out = os.path.join(self.workdir, "out")
        outputs = self._outputs(out)
        if k == 0:
            shutil.rmtree(out, ignore_errors=True)
            with tr.span("bench.step") as rec:
                proc = self._run(tr, self._factor_args(self.a_path, out))
            if proc.returncode != 0:
                return StepResult(rec.duration, [f"factor exited {proc.returncode}: {proc.stderr.strip()[-500:]}"])
            with open(outputs[3], encoding="utf-8") as fh:
                self.claim = json.load(fh)
            problems = self.same_as_before(k, file_digest(*outputs))
            return StepResult(rec.duration, problems)
        if k == 1:
            with tr.span("bench.step") as rec:
                proc = self._run(tr, ["verify", self.a_path, outputs[0], outputs[1]])
            problems = [] if proc.returncode == 0 else [f"verify exited {proc.returncode}"]
            try:
                report = json.loads(proc.stdout)
            except ValueError:
                return StepResult(rec.duration, problems + ["verify printed no JSON report"])
            if not (report.get("residual_ok") is True and report.get("sanity_hs_le_2_opb_hsc") is True):
                problems.append(f"verify rejected the factorization: {report}")
            return StepResult(rec.duration, problems)
        with tr.span("bench.step") as rec:
            b = traceless.read_matrix(outputs[0])
            c = traceless.read_matrix(outputs[1])
        problems = check_factorization(self.a, b, c, self.claim)
        return StepResult(rec.duration, problems, self.claim["ratio"], not problems)
