"""Benchmark for traceless: one command, two workloads, every metric by name.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the package from ``src/``.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds, and prints the per-layer metrics with the
tracing overhead.  End-to-end step times are in units of a reference kernel
timed around each step (see perfbench/reference.py); the report also gives
them in seconds.  The lines before the last are a readable report with
the machine facts; the last line is the JSON result.  Workloads, metrics
and the layers they stress are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

# tracer and workloads import numpy and traceless, so they are imported only
# after main() has capped the BLAS threads and put src/ on the path.

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_EVERY_S = 4.0  # at most one import-timing interpreter per this many seconds of a run
# setup_s is given at the speed where the interp reference kernel takes this
# long: about its median on one core of a 2.1 GHz Xeon VM (see ImportTimer)
INTERP_NOMINAL_S = 0.075
# One client, one BLAS thread.  A second OpenBLAS thread spins between calls
# and competes with the Python main thread; on 2 cores that made step times
# both slower and less steady (m=512 CLI round trip, measured A/B).
BLAS_THREADS = 1
MIN_STEP_S = 1.0
REL_UNIT = "ref"  # multiples of the reference kernel's time, measured around each step
WORKLOAD_NAMES = ("cli-roundtrip", "lowerbound-witness")
SMOKE_SIZES = {
    "cli-roundtrip": (32,),
    "lowerbound-witness": (16, 32, 64),
}

# per-layer metric -> span name whose total duration (per round) it reports
SPAN_TOTAL = {
    "matio.read_s": "matio.read_matrix",
    "matio.write_s": "matio.write_matrix",
    "reduction.reduce_s": "reduction.zero_diagonal_reduce",
    "lattice.points_s": "lattice.gaussian_points",
    "factorizer.factor_s": "factorizer.factor",
    "factorizer.c_from_b_s": "factorizer.c_from_b",
    "linalg.operator_norm_s": "linalg.operator_norm",
    "linalg.commutator_s": "linalg.commutator",
    "linalg.hs_norm_s": "linalg.hs_norm",
    "linalg.nuclear_norm_s": "linalg.nuclear_norm",
    "linalg.singular_profile_s": "linalg.singular_profile",
    "filtration.build_s": "filtration.build_filtration",
    "lowerbound.trace_ineq_s": "lowerbound.verify_trace_inequality",
    "lowerbound.isometries_s": "lowerbound.construct_partial_isometries",
    "lowerbound.isometry_residuals_s": "lowerbound.partial_isometry_residuals",
    "lowerbound.partial_sums_s": "lowerbound.verify_partial_sums",
    "lowerbound.hs_lower_s": "lowerbound.verify_hs_lower_bound",
}
# per-layer metric -> span name whose self time it reports
SPAN_SELF = {
    "factorizer.self_s": "factorizer.factor",
    "lowerbound.report_self_s": "lowerbound.lower_bound_report",
    "cli.self_s": "cli.main",
    "cli.startup_s": "cli.process",
}
# notes the tracer records, by how a round combines them
NOTE_SUM = ("matio.read_calls", "matio.write_calls", "matio.bytes_read", "matio.bytes_written",
            "reduction.sweeps", "linalg.operator_norm_calls", "linalg.svd_calls",
            "filtration.blocks", "filtration.total_dim")
NOTE_MAX = ("reduction.diag_residual", "reduction.unitarity_defect", "filtration.block_residual")
NOTE_MEAN = ("factorizer.best_trial", "factorizer.c2_realized_over_predicted")


def pin_process() -> tuple[int, int]:
    """Pin BLAS to BLAS_THREADS threads and this process to one CPU, for it and its children.

    The load is sequential, so one CPU loses nothing; it makes the reference
    kernel, run in this process, time the same CPU as the CLI children it
    brackets.  Must run before numpy is imported.  Returns the number of
    usable cores and the CPU chosen.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    return len(cpus), max(cpus)


def blas_threads() -> int:
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def machine_facts(nproc: int, cpu_index: int) -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc,
        "pinned_cpu": cpu_index,
        "cpu": cpu,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


class ImportTimer:
    """Times fresh interpreters importing traceless: the samples of ``setup_s``.

    The machine's speed flips within seconds and drifts over minutes, so,
    like a step, each import is bracketed by the ``interp`` reference kernel,
    and ``setup_s`` is the median import time scaled to the speed at which
    that kernel takes INTERP_NOMINAL_S.  The samples are spread over the run
    (one at a step boundary once SETUP_EVERY_S has passed).
    """

    CODE = "import time; t = time.perf_counter(); import traceless; print(time.perf_counter() - t)"

    def __init__(self):
        from workloads import child_env

        self.env = child_env()
        self.seconds: list[float] = []  # as measured
        self.scaled: list[float] = []  # at the nominal speed
        self.last = 0.0
        self.launch()  # warm-up: the first interpreter pays for a cold page cache
        self.seconds.clear()
        self.scaled.clear()
        self.launch()

    def launch(self) -> None:
        from reference import probe

        before = probe(["interp"])["interp"]
        proc = subprocess.run([sys.executable, "-c", self.CODE], env=self.env,
                              capture_output=True, text=True, check=True)
        after = probe(["interp"])["interp"]
        seconds = float(proc.stdout)
        self.seconds.append(seconds)
        self.scaled.append(seconds * INTERP_NOMINAL_S / (0.5 * (before + after)))
        self.last = time.perf_counter()

    def maybe_launch(self) -> None:
        if time.perf_counter() - self.last >= SETUP_EVERY_S:
            self.launch()


def run_rounds(wl, seconds: float, tracer=None, import_timer=None) -> list:
    """Closed loop: whole rounds, one after another, while the next one fits in ``seconds``.

    Returns rounds[r][k], the calls of step k in round r.  A step repeats
    within its round until its calls add up to MIN_STEP_S, so a short step
    gets as many samples as its share of the time allows.  A reference
    kernel runs before the first step and after every step; each call
    records the mean of its step's kernel (``wl.kinds()``) on either side.

    With a ``tracer``, odd rounds run with it installed, so the untraced
    and the traced rounds see the same machine; ``traced_rounds`` picks them.
    With an ``import_timer``, it may take a sample after each step's probe.
    """
    from reference import probe
    from tracer import Tracer
    from workloads import StepResult

    idle = Tracer(recording=False)
    kinds = wl.kinds()
    rounds = []
    start = time.perf_counter()
    before = probe(kinds[:1])
    while True:
        r = len(rounds)
        tr = tracer if tracer is not None and r % 2 else idle
        steps = []
        if tr is tracer:
            tr.install()
        try:
            for k, label in enumerate(wl.labels()):
                calls = []
                if wl.chained and any(res.problems for prev in steps for res in prev):
                    calls.append(StepResult(None, ["skipped: an earlier step of the round failed"]))
                while not calls or (calls[-1].seconds is not None and not calls[-1].problems
                                    and sum(c.seconds for c in calls) < MIN_STEP_S):
                    tr.op = f"{r}.{k}.{len(calls)}"
                    try:
                        calls.append(wl.step(k, tr))
                    except Exception:  # the benchmark must report a failed operation and go on
                        calls.append(StepResult(None, [traceback.format_exc()]))
                tr.op = None
                after = probe([kinds[k], kinds[(k + 1) % len(kinds)]])
                for res in calls:
                    res.probe_s = 0.5 * (before[kinds[k]] + after[kinds[k]])
                    for problem in res.problems:
                        print(f"problem: round {r} {label}: {problem}", file=sys.stderr)
                before = after
                steps.append(calls)
                if import_timer is not None:
                    import_timer.maybe_launch()
        finally:
            if tr is tracer:
                tr.uninstall()
        rounds.append(steps)
        elapsed = time.perf_counter() - start
        enough = len(rounds) >= (2 if tracer is not None else 1)
        if enough and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def traced_rounds(rounds, traced: bool) -> list[tuple[int, list]]:
    """(round index, steps) of the traced (odd) or the untraced (even) rounds."""
    return [(r, steps) for r, steps in enumerate(rounds) if r % 2 == int(traced)]


def median(values) -> float:
    values = [v for v in values if v is not None]
    return float(statistics.median(values)) if values else 0.0


def mean_or_none(values):
    values = list(values)
    return None if not values or None in values else statistics.fmean(values)


def round_seconds(steps):
    """One pass through the steps: the sum of each step's mean call time in the round."""
    means = [mean_or_none(c.seconds for c in calls) for calls in steps]
    return None if None in means else sum(means)


def tail(values) -> str:
    """The highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    values = sorted(v for v in values if v is not None)
    n = len(values)
    for p in (99.9, 99.0, 90.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10:
            return f"p{p:g}={values[math.ceil(p / 100.0 * n) - 1]:.6g}"
    return "none (needs >= 20 samples)"


def end_to_end(wl, rounds, imports: ImportTimer) -> tuple[dict, list[str]]:
    nsteps = len(wl.labels())
    # every call of a step sees the same input, so one ratio and one verdict per step
    ratios, verdicts = [], []
    for k in range(nsteps):
        calls = [res for steps in rounds for res in steps[k]]
        ratios += [res.ratio for res in calls if res.ratio is not None][:1]
        checked = [res.passed for res in calls if res.passed is not None]
        if checked:
            verdicts.append(all(checked))
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    per_round_s = [round_seconds(steps) for steps in rounds]
    raw = imports.seconds
    metrics = {"setup_s": (median(imports.scaled), "s")}
    lines = [f"setup_s: median {median(imports.scaled):.6g} s at the nominal speed, tail "
             f"{tail(imports.scaled)}, n={len(raw)}; as measured: median {median(raw):.6g} s, "
             f"min {min(raw):.6g} s, max {max(raw):.6g} s",
             f"round: median {median(per_round_s):.6g} s, n={len(rounds)}; rounds (s): "
             + " ".join(f"{t:.4g}" for t in per_round_s if t is not None)]
    for k, (label, kind) in enumerate(zip(wl.labels(), wl.kinds())):
        rels = [res.rel for steps in rounds for res in steps[k]]
        times = [res.seconds for steps in rounds for res in steps[k]]
        probes = [calls[0].probe_s for steps in rounds for calls in steps[k:k + 1]]
        metrics[f"step{k + 1}_rel"] = (median(rels), REL_UNIT)
        lines.append(f"step{k + 1}_rel = {label}: median {median(rels):.6g} {REL_UNIT} "
                     f"(of the {kind} kernel), tail {tail(rels)}, "
                     f"n={sum(t is not None for t in rels)}; in seconds: median {median(times):.6g} s, "
                     f"tail {tail(times)}; {kind} kernel: median {median(probes):.6g} s, "
                     f"min {min(probes):.6g} s, max {max(probes):.6g} s")
    metrics["ratio_mean"] = (statistics.fmean(ratios) if ratios else 0.0, "ratio")
    metrics["pass_fraction"] = (sum(verdicts) / len(verdicts) if verdicts else 0.0, "fraction")
    metrics["peak_rss_mb"] = (rss_kb / 1024.0, "MB")
    if wl.name == "lowerbound-witness":
        lines.append(f"pass_fraction = chain_pass_fraction: {metrics['pass_fraction'][0]:.6g}")
    return metrics, lines


def call_values(tr, op: str, spans, selfs, layers) -> dict:
    """Per-layer values of one call; NOTE_MEAN keys only where the call recorded them."""
    vals = defaultdict(float)
    for s in spans:
        layer = s.name.split(".", 1)[0]
        for metric, name in SPAN_TOTAL.items():
            if s.name == name:
                vals[metric] += s.duration
        for metric, name in SPAN_SELF.items():
            if s.name == name:
                vals[metric] += selfs[s.id]
        if layer in layers:
            vals[f"{layer}.layer_self_s"] += selfs[s.id]
        else:
            vals["trace.unattributed_s"] += selfs[s.id]
    notes = tr.notes.get(op, {})
    for name in NOTE_SUM:
        vals[name] += sum(notes.get(name, []))
    for name in NOTE_MAX:
        vals[name] = max(notes.get(name, []), default=0.0)
    for name in NOTE_MEAN:
        if notes.get(name):
            vals[name] = statistics.fmean(notes[name])
    return vals


def combine(parts: list[dict], additive) -> dict:
    """Maxima for NOTE_MAX, means for NOTE_MEAN, and for the rest sums or means."""
    out = {}
    for key in {key for part in parts for key in part}:
        values = [part[key] for part in parts if key in part]
        if key in NOTE_MAX:
            out[key] = max(values)
        elif key in NOTE_MEAN or not additive:
            out[key] = statistics.fmean(values)
        else:
            out[key] = sum(values)
    return out


def per_layer(wl, tr, rounds) -> tuple[dict, list[str]]:
    from tracer import LAYERS, self_times

    selfs = self_times(tr.spans)
    spans_by_op = defaultdict(list)
    for s in tr.spans:
        spans_by_op[s.op].append(s)
    nsteps = len(wl.labels())
    rows = []  # one dict per traced round: a pass through the steps
    step_rows = [[] for _ in range(nsteps)]  # one dict per traced round and step
    for r, steps in traced_rounds(rounds, True):
        per_step = []
        for k, calls in enumerate(steps):
            ops = [f"{r}.{k}.{j}" for j in range(len(calls))]
            step = combine([call_values(tr, op, spans_by_op[op], selfs, LAYERS) for op in ops],
                           additive=False)
            step_rows[k].append(step)
            per_step.append(step)
        row = combine(per_step, additive=True)
        row["trace.round_traced_s"] = round_seconds(steps)
        row["trace.layer_self_sum_s"] = sum(row.get(f"{layer}.layer_self_s", 0.0) for layer in LAYERS)
        rows.append(row)

    names = list(SPAN_TOTAL) + list(SPAN_SELF) + list(NOTE_SUM) + list(NOTE_MAX) + list(NOTE_MEAN)
    names += [f"{layer}.layer_self_s" for layer in LAYERS]
    metrics = {name: (median(row.get(name, 0.0) for row in rows), unit_of(name)) for name in names}
    for layer in LAYERS:
        for k in range(nsteps):
            name = f"{layer}.layer_self_s.step{k + 1}"
            metrics[name] = (median(v.get(f"{layer}.layer_self_s", 0.0) for v in step_rows[k]), "s")
    untraced_s = median(round_seconds(steps) for _, steps in traced_rounds(rounds, False))
    traced_s = median(row["trace.round_traced_s"] for row in rows)
    metrics["trace.round_untraced_s"] = (untraced_s, "s")
    metrics["trace.round_traced_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    for name in ("trace.layer_self_sum_s", "trace.unattributed_s"):
        metrics[name] = (median(row.get(name, 0.0) for row in rows), "s")

    lines = ["per step (" + ", ".join(f"step{k + 1} = {label}" for k, label in enumerate(wl.labels()))
             + "), mean per call:"]
    for name in names:
        per_step = [median(v.get(name, 0.0) for v in step_rows[k]) for k in range(nsteps)]
        lines.append(f"  {name}: " + "  ".join(f"{x:.6g}" for x in per_step))
    return metrics, lines


def unit_of(name: str) -> str:
    if name.endswith("_s") or "_s.step" in name:
        return "s"
    if name.startswith("matio.bytes"):
        return "bytes"
    if name.endswith(("_residual", "_defect")):
        return "norm"
    if name.endswith("_over_predicted"):
        return "ratio"
    return "count"


def write_spans(tr, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in tr.spans:
            fh.write(json.dumps({"id": s.id, "name": s.name, "start": s.start, "end": s.end,
                                 "parent": s.parent, "op": s.op}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "traceless" / "__init__.py").is_file():
        print(f"error: no traceless package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    # SIGTERM unwinds like an error: subprocess.run kills and reaps its child,
    # and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    nproc, cpu_index = pin_process()
    sys.path.insert(0, str(SRC))
    import traceless

    if Path(traceless.__file__).resolve().parent != (SRC / "traceless").resolve():
        print(f"error: imported traceless from {traceless.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from tracer import Tracer
    from workloads import CliRoundtrip, LowerboundWitness

    facts = machine_facts(nproc, cpu_index)
    import_timer = None if args.trace else ImportTimer()
    cls = {w.name: w for w in (CliRoundtrip, LowerboundWitness)}[args.workload]
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    wl = cls(args.seed, str(workdir), SMOKE_SIZES[args.workload] if args.smoke else None)
    try:
        setup_problems = wl.setup()
        for problem in setup_problems:
            print(f"problem: setup: {problem}", file=sys.stderr)
        if args.trace:
            tr = Tracer()
            rounds = run_rounds(wl, args.seconds, tr)
            metrics, lines = per_layer(wl, tr, rounds)
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}-{os.getpid()}.jsonl"
            write_spans(tr, spans_path)
            lines.append(f"spans: {spans_path.relative_to(ROOT)}")
        else:
            rounds = run_rounds(wl, args.seconds, import_timer=import_timer)
            metrics, lines = end_to_end(wl, rounds, import_timer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    calls = [res for steps in rounds for step in steps for res in step]
    attempted = 1 + len(calls)  # the set-up determinism check counts once
    failed = bool(setup_problems) + sum(bool(res.problems) for res in calls)
    print(f"traceless benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} rounds={len(rounds)}")
    print("machine: " + json.dumps(facts, sort_keys=True))
    for line in lines:
        print(line)
    print(f"error_rate: {failed / attempted:.6g} ({failed} failed of {attempted} attempted)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
