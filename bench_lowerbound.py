"""Per-stage timings of the lower-bound report, before and after a change, written to BENCH_lowerbound.json.

    python3 bench_lowerbound.py --src DIR [--out PATH]

Run it from the repository root.  ``--src`` is the ``src/`` directory of
the side called ``before`` (say, a parent commit's checkout); ``after`` is
this checkout's ``src/``.  The script runs ROUNDS rounds, and in each round
one child process per side, the two sides taking turns at going first.
Each child pins BLAS and itself as perfbench/run.py does
(``run.pin_process``), installs the span tracer of perfbench/tracer.py and
runs ``lower_bound_report(m, seed=0)`` on the witness once at each m in
SIZES, after one untimed report.  Alternating the sides in one invocation
exposes both to the same machine drift; one process per side per round
keeps a slow process from setting a side's numbers alone.

For each side and m it records, as the median over the rounds, the
report's seconds, the total seconds of every traced function in it and
the report's self time (the witness factorization and the norm bounds,
which are not traced), plus each round's report seconds, the SVD count,
the dims' tail and the verdict.  The machine facts come from
``run.machine_facts``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent
SIZES = (128, 256, 512, 1024)
SEED = 0
ROUNDS = 7  # child processes per side; the median over them is kept
WARMUP_M = 64  # one untimed report first, so library loading and lazy set-up are not timed
REPORT = "lowerbound.lower_bound_report"
CHILD = f"import sys; sys.path.insert(0, {str(ROOT)!r}); import bench_lowerbound; bench_lowerbound.child(sys.argv[1])"


def traced_report(m: int) -> dict:
    """One traced ``lower_bound_report(m, seed=SEED)``: its stage seconds and counts."""
    import traceless
    from tracer import Tracer, self_times

    tr = Tracer()
    tr.install()
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
        "all_strict_passed": rep.all_strict_passed,
        "dims_tail": rep.dims[-3:],
    }


def child(src: str) -> None:
    """One round of one side: a traced report at each m, printed as JSON on stdout."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run  # imports no numpy, so it can pin BLAS before numpy loads

    nproc, cpu_index = run.pin_process()
    sys.path.insert(0, src)
    import traceless

    if Path(traceless.__file__).resolve().parent != Path(src) / "traceless":
        raise SystemExit(f"error: imported traceless from {traceless.__file__}, not {src}")
    traceless.lower_bound_report(WARMUP_M, seed=SEED)
    by_m = {str(m): traced_report(m) for m in SIZES}
    json.dump({
        "machine": run.machine_facts(nproc, cpu_index),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "by_m": by_m,
    }, sys.stdout)


def summarize(rounds: list[dict]) -> dict:
    """One side's record: medians over its rounds, per m."""
    by_m = {}
    for m in map(str, SIZES):
        runs = [r["by_m"][m] for r in rounds]
        names = sorted(set().union(*(r["stages_s"] for r in runs)))
        stages = {name: statistics.median(r["stages_s"].get(name, 0.0) for r in runs) for name in names}
        by_m[m] = {
            "report_s": stages[REPORT],
            "report_s_rounds": [r["stages_s"][REPORT] for r in runs],
            "stages_s": stages,
            "svd_calls": runs[0]["svd_calls"],
            "all_strict_passed": all(r["all_strict_passed"] for r in runs),
            "dims_tail": runs[0]["dims_tail"],
        }
    return {
        "rounds": len(rounds),
        "machine": rounds[0]["machine"],
        "peak_rss_mb": max(r["peak_rss_mb"] for r in rounds),
        "by_m": by_m,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, required=True,
                        help="src/ directory of the before side, e.g. of a parent commit's checkout")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_lowerbound.json")
    args = parser.parse_args(argv)
    srcs = {"before": args.src.resolve(), "after": ROOT / "src"}
    for src in srcs.values():
        if not (src / "traceless" / "__init__.py").is_file():
            parser.error(f"no traceless package under {src}")

    rounds = {side: [] for side in srcs}
    for i in range(ROUNDS):
        order = list(srcs) if i % 2 == 0 else list(srcs)[::-1]
        for side in order:
            proc = subprocess.run([sys.executable, "-c", CHILD, str(srcs[side])],
                                  capture_output=True, text=True, check=True)
            rounds[side].append(json.loads(proc.stdout))
        line = ", ".join(f"{side} {rounds[side][-1]['by_m'][str(SIZES[-1])]['stages_s'][REPORT]:.3f} s"
                         for side in srcs)
        print(f"round {i + 1}/{ROUNDS}, m={SIZES[-1]}: {line}", file=sys.stderr)

    data = {
        "script": "bench_lowerbound.py",
        "workload": f"lower_bound_report(m, seed={SEED}) on the witness P - I/m, traced, "
                    "one BLAS thread on one pinned CPU; one child process per side per round, "
                    "the sides alternating; seconds are medians over the rounds",
        "sizes": list(SIZES),
        "sides": {side: summarize(rounds[side]) for side in srcs},
    }
    args.out.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    for m in map(str, SIZES):
        before, after = (data["sides"][side]["by_m"][m] for side in srcs)
        wins = sum(a < b for a, b in zip(after["report_s_rounds"], before["report_s_rounds"]))
        print(f"m={m}: before {before['report_s']:.3f} s, after {after['report_s']:.3f} s, "
              f"after faster in {wins}/{ROUNDS} rounds", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
