"""Per-stage timings of a topic, before and after a change, written to BENCH_<topic>.json.

    python3 bench_lowerbound.py --src DIR [--topic lowerbound|factor] [--out PATH]

Run it from the repository root.  ``--src`` is the ``src/`` directory of
the side called ``before`` (say, a parent commit's checkout); ``after`` is
this checkout's ``src/``.  The script runs ROUNDS rounds, and in each round
one child process per side, the two sides taking turns at going first.
Each child pins BLAS and itself as perfbench/run.py does
(``run.pin_process``) and times the topic at each of its sizes.  A size
up to SMALL_M is called at least SMALL_REPEATS times and for at least
SMALL_SECONDS in the child, which keeps the median: a single call there is
short next to the machine's speed spells.  Alternating the sides in one invocation exposes both to the same machine
drift; one process per side per round keeps a slow process from setting a
side's numbers alone.

Topics:

* ``lowerbound``: the span tracer of perfbench/tracer.py is installed and
  ``lower_bound_report(m, seed=0)`` runs on the witness at m = 128 ... 2048,
  after one untimed report.  The report builds its filtration through
  ``filtration._build_filtration``, which takes over its C-tilde with no
  copy and which the tracer does not wrap; it is timed here under the
  public builder's span name, ``filtration.build_filtration``, so both
  sides report the build.  Per m it records the report's seconds, the
  total seconds of every traced function in it and the report's self time
  (the witness factorization with its FFT-formed [B, C] and the norm
  bounds, which are not traced; the trace check is the
  ``lowerbound.verify_trace_inequality`` span), plus
  each round's report seconds, the SVD count, the count of m x m
  commutators (``linalg.commutator`` spans; 0 where the certificate forms
  [B, C] by FFTs), the dims' tail and the verdict.
* ``factor``: the CLI's Ginibre input at seed 0 (perfbench's
  ``ginibre_trace_zero``, written once by the benchmark's own formatter) at
  m = 256, 1000 and 1024.  Per m it records the in-process seconds of
  ``read_matrix``, ``factor``, the ``zero_diagonal_reduce`` inside it and
  each ``write_matrix`` of B, C and Q, and the wall time of a ``traceless
  factor`` subprocess, plus each round's seconds of the headline stages.

Every number is the median over the rounds.  The machine facts come from
``run.machine_facts``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent
SEED = 0
ROUNDS = 7  # child processes per side; the median over them is kept
SMALL_M = 256  # sizes up to this one are timed repeatedly in each child and keep the median
SMALL_REPEATS = 7  # at least this many calls,
SMALL_SECONDS = 3.0  # and until they span this long, so a short call samples the machine's speed spells
WARMUP_M = 64  # one untimed call first, so library loading and lazy set-up are not timed
REPORT = "lowerbound.lower_bound_report"
WRITES = ("B", "C", "Q")
CLI_TARGET_S = 7.0  # ROADMAP item 8's target for CLI factor at m=1024
TOPICS = {"lowerbound": (128, 256, 512, 1024, 2048), "factor": (256, 1000, 1024)}
# the factor topic's stages compared side by side, each with its per-round seconds
FACTOR_HEADLINES = ("read_matrix", "zero_diagonal_reduce", "factor", "write_matrix", "cli_factor")
CHILD = (f"import sys; sys.path.insert(0, {str(ROOT)!r}); import bench_lowerbound; "
         "bench_lowerbound.child(sys.argv[1], sys.argv[2], sys.argv[3:])")


def median_stages(runs: list[dict]) -> dict[str, float]:
    """Per stage, the median seconds over runs (a stage missing from a run counts as 0)."""
    names = sorted(set().union(*runs))
    return {name: statistics.median(r.get(name, 0.0) for r in runs) for name in names}


def timed_runs(m: int, call) -> list:
    """call()'s results: one, or for m <= SMALL_M at least SMALL_REPEATS and SMALL_SECONDS' worth after the first."""
    runs = [call()]
    end = time.perf_counter() + SMALL_SECONDS
    while m <= SMALL_M and (len(runs) < SMALL_REPEATS or time.perf_counter() < end):
        runs.append(call())
    return runs


def traced_report(m: int) -> dict:
    """One traced ``lower_bound_report(m, seed=SEED)``: its stage seconds and counts."""
    import traceless
    from tracer import Tracer, self_times

    tr = Tracer()
    tr.install()
    build = getattr(traceless.lowerbound, "_build_filtration", None)
    if build is not None:  # the report's own build, under the public builder's span name
        tr._patch(traceless.lowerbound, "_build_filtration", tr._wrap("filtration.build_filtration", build, None))
    try:
        rep = traceless.lower_bound_report(m, seed=SEED)
    finally:
        tr.uninstall()
    stages: dict[str, float] = defaultdict(float)
    for span in tr.spans:
        stages[span.name] += span.duration
    root = next(s for s in tr.spans if s.name == REPORT and s.parent is None)
    stages[REPORT + ".self"] = self_times(tr.spans)[root.id]
    return {
        "stages_s": dict(stages),
        "svd_calls": int(sum(tr.notes[None]["linalg.svd_calls"])),
        "commutator_calls": sum(span.name == "linalg.commutator" for span in tr.spans),
        "all_strict_passed": rep.all_strict_passed,
        "dims_tail": rep.dims[-3:],
    }


def lowerbound_child(src: str, inputs: list[str]) -> dict:
    import traceless

    traceless.lower_bound_report(WARMUP_M, seed=SEED)
    by_m = {}
    for m in TOPICS["lowerbound"]:
        runs = timed_runs(m, lambda: traced_report(m))
        by_m[str(m)] = {**runs[0], "stages_s": median_stages([r["stages_s"] for r in runs])}
    return by_m


def factor_stages(path: str, src: str, workdir: str) -> dict[str, float]:
    """In-process read, factor (and its reduction) and writes of one input, then a CLI ``factor`` on it."""
    import traceless
    import traceless.factorizer as factorizer

    stages = {}
    t0 = time.perf_counter()
    a = traceless.read_matrix(path)
    stages["read_matrix"] = time.perf_counter() - t0
    reduce = factorizer.zero_diagonal_reduce

    def timed_reduce(x):
        t1 = time.perf_counter()
        res = reduce(x)
        stages["zero_diagonal_reduce"] = time.perf_counter() - t1
        return res

    factorizer.zero_diagonal_reduce = timed_reduce
    t0 = time.perf_counter()
    try:
        cert = traceless.factor(a, seed=SEED)
    finally:
        factorizer.zero_diagonal_reduce = reduce
    stages["factor"] = time.perf_counter() - t0
    for name, mat in zip(WRITES, (cert.b, cert.c, cert.q)):
        t0 = time.perf_counter()
        traceless.write_matrix(os.path.join(workdir, f"{name}.txt"), mat)
        stages[f"write_matrix.{name}"] = time.perf_counter() - t0
    stages["write_matrix"] = sum(stages[f"write_matrix.{name}"] for name in WRITES)
    env = dict(os.environ, PYTHONPATH=src)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-m", "traceless.cli", "factor", path, "--out-dir", workdir,
                    "--seed", str(SEED)], env=env, check=True, capture_output=True)
    stages["cli_factor"] = time.perf_counter() - t0
    return stages


def factor_child(src: str, inputs: list[str]) -> dict:
    import traceless

    with tempfile.TemporaryDirectory() as workdir:
        traceless.write_matrix(os.path.join(workdir, "warm.txt"), traceless.read_matrix(inputs[0]))
        by_m = {}
        for m, path in zip(TOPICS["factor"], inputs):
            runs = timed_runs(m, lambda: factor_stages(path, src, workdir))
            by_m[str(m)] = {"stages_s": median_stages(runs)}
    return by_m


def child(topic: str, src: str, inputs: list[str]) -> None:
    """One round of one side: the topic's stages at each m, printed as JSON on stdout."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run  # imports no numpy, so it can pin BLAS before numpy loads

    nproc, cpu_index = run.pin_process()
    sys.path.insert(0, src)
    import traceless

    if Path(traceless.__file__).resolve().parent != Path(src) / "traceless":
        raise SystemExit(f"error: imported traceless from {traceless.__file__}, not {src}")
    by_m = {"lowerbound": lowerbound_child, "factor": factor_child}[topic](src, inputs)
    json.dump({
        "machine": run.machine_facts(nproc, cpu_index),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "by_m": by_m,
    }, sys.stdout)


def summarize(topic: str, rounds: list[dict]) -> dict:
    """One side's record: medians over its rounds, per m."""
    by_m = {}
    for m in map(str, TOPICS[topic]):
        runs = [r["by_m"][m] for r in rounds]
        stages = median_stages([r["stages_s"] for r in runs])
        if topic == "lowerbound":
            by_m[m] = {
                "report_s": stages[REPORT],
                "report_s_rounds": [r["stages_s"][REPORT] for r in runs],
                "stages_s": stages,
                "svd_calls": runs[0]["svd_calls"],
                "commutator_calls": runs[0]["commutator_calls"],
                "all_strict_passed": all(r["all_strict_passed"] for r in runs),
                "dims_tail": runs[0]["dims_tail"],
            }
        else:
            by_m[m] = {"stages_s": stages}
            for name in FACTOR_HEADLINES:
                by_m[m][f"{name}_s"] = stages[name]
                by_m[m][f"{name}_s_rounds"] = [r["stages_s"][name] for r in runs]
    return {
        "rounds": len(rounds),
        "machine": rounds[0]["machine"],
        "peak_rss_mb": max(r["peak_rss_mb"] for r in rounds),
        "by_m": by_m,
    }


def versus(before: dict, after: dict, key: str) -> dict:
    """One stage's medians on both sides, the speedup and the rounds in which after was faster."""
    return {f"{key}_before": before[key], f"{key}_after": after[key], "speedup": before[key] / after[key],
            "after_faster_rounds": sum(a < b for a, b in zip(after[key + "_rounds"], before[key + "_rounds"]))}


def compare(topic: str, sides: dict) -> dict:
    """Per m, the after side against the before side: the headline stages' medians and wins."""
    out = {}
    for m in map(str, TOPICS[topic]):
        before, after = (sides[side]["by_m"][m] for side in ("before", "after"))
        if topic == "lowerbound":
            out[m] = versus(before, after, "report_s")
        else:
            out[m] = {name: versus(before, after, f"{name}_s") for name in FACTOR_HEADLINES}
    if topic == "factor":
        out["cli_factor_target_s"] = {"m": 1024, "target": CLI_TARGET_S,
                                      "after": sides["after"]["by_m"]["1024"]["stages_s"]["cli_factor"]}
    return out


def factor_inputs(workdir: Path) -> list[str]:
    """The CLI's Ginibre input at seed SEED for each m, written by the benchmark's own formatter."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import format_matrix_text, ginibre_trace_zero

    paths = []
    for m in TOPICS["factor"]:
        path = workdir / f"A{m}.txt"
        path.write_text(format_matrix_text(ginibre_trace_zero(m, SEED)), encoding="utf-8")
        paths.append(str(path))
    return paths


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, required=True,
                        help="src/ directory of the before side, e.g. of a parent commit's checkout")
    parser.add_argument("--topic", choices=sorted(TOPICS), default="lowerbound")
    parser.add_argument("--out", type=Path, help="default: BENCH_<topic>.json in the repository root")
    args = parser.parse_args(argv)
    out = args.out or ROOT / f"BENCH_{args.topic}.json"
    srcs = {"before": args.src.resolve(), "after": ROOT / "src"}
    for src in srcs.values():
        if not (src / "traceless" / "__init__.py").is_file():
            parser.error(f"no traceless package under {src}")

    rounds = {side: [] for side in srcs}
    with tempfile.TemporaryDirectory() as workdir:
        inputs = factor_inputs(Path(workdir)) if args.topic == "factor" else []
        for i in range(ROUNDS):
            order = list(srcs) if i % 2 == 0 else list(srcs)[::-1]
            for side in order:
                proc = subprocess.run([sys.executable, "-c", CHILD, args.topic, str(srcs[side]), *inputs],
                                      capture_output=True, text=True, check=True)
                rounds[side].append(json.loads(proc.stdout))
            print(f"round {i + 1}/{ROUNDS} done", file=sys.stderr)

    sides = {side: summarize(args.topic, rounds[side]) for side in srcs}
    workload = {
        "lowerbound": f"lower_bound_report(m, seed={SEED}) on the witness P - I/m, traced",
        "factor": f"the CLI's Ginibre input at seed {SEED}: in-process read_matrix, factor(seed={SEED}) "
                  "with the zero_diagonal_reduce inside it timed, and write_matrix of B, C, Q, then a "
                  "`traceless factor` subprocess",
    }[args.topic]
    data = {
        "script": "bench_lowerbound.py",
        "topic": args.topic,
        "workload": f"{workload}; one BLAS thread on one pinned CPU; one child process per side per "
                    f"round, the sides alternating; sizes up to m={SMALL_M} are called at least "
                    f"{SMALL_REPEATS} times and {SMALL_SECONDS} s per child (median); seconds are medians "
                    "over the rounds",
        "sizes": list(TOPICS[args.topic]),
        "comparison": compare(args.topic, sides),
        "sides": sides,
    }
    out.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    for key, row in data["comparison"].items():
        print(f"{key}: {row}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
