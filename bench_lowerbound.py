"""Per-stage timings of the lower-bound report, written to BENCH_lowerbound.json.

    python3 bench_lowerbound.py --side NAME [--src DIR] [--out PATH]

Run it from the repository root.  It pins BLAS and the process as
perfbench/run.py does (``run.pin_process``), installs the span tracer of
perfbench/tracer.py and runs ``lower_bound_report(m, seed=0)`` on the
witness at each m in SIZES.  For each m it records, as the median over
REPEATS reports, the report's seconds, the total seconds of every
traced function in it and the report's self time (the witness
factorization and the norm bounds, which are not traced), plus the SVD
count, the dims' tail and the verdict.  The machine facts come from
``run.machine_facts``.

``--src`` is the ``src/`` directory whose ``traceless`` is timed, this
checkout's by default, so the same script measures both sides of a change:
run it once with ``--src`` at a parent checkout's ``src/`` and
``--side before``, and once here with ``--side after``.  Each run replaces
its own side in the output file and keeps the others.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent
SIZES = (128, 256, 512, 1024)
SEED = 0
REPEATS = 7  # reports per size; the median is kept
WARMUP_M = 64  # one untimed report first, so library loading and lazy set-up are not timed
REPORT = "lowerbound.lower_bound_report"


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--side", required=True, help="name of this run's side, e.g. before or after")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding the traceless package")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_lowerbound.json")
    args = parser.parse_args(argv)
    if not (args.src / "traceless" / "__init__.py").is_file():
        parser.error(f"no traceless package under {args.src}")

    sys.path.insert(0, str(ROOT / "perfbench"))
    import run  # imports no numpy, so it can pin BLAS before numpy loads

    nproc, cpu_index = run.pin_process()
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    import traceless

    if Path(traceless.__file__).resolve().parent != src / "traceless":
        print(f"error: imported traceless from {traceless.__file__}, not {src}", file=sys.stderr)
        return 2

    traceless.lower_bound_report(WARMUP_M, seed=SEED)
    by_m = {}
    for m in SIZES:
        runs = [traced_report(m) for _ in range(REPEATS)]
        names = sorted(set().union(*(r["stages_s"] for r in runs)))
        stages = {name: statistics.median(r["stages_s"].get(name, 0.0) for r in runs) for name in names}
        by_m[str(m)] = {
            "report_s": stages[REPORT],
            "stages_s": stages,
            "svd_calls": runs[0]["svd_calls"],
            "all_strict_passed": all(r["all_strict_passed"] for r in runs),
            "dims_tail": runs[0]["dims_tail"],
        }
        print(f"m={m}: report {stages[REPORT]:.3f} s, {runs[0]['svd_calls']} SVDs", file=sys.stderr)

    data = json.loads(args.out.read_text(encoding="utf-8")) if args.out.is_file() else {}
    data.update({
        "script": "bench_lowerbound.py",
        "workload": f"lower_bound_report(m, seed={SEED}) on the witness P - I/m, traced, "
                    "one BLAS thread on one pinned CPU; seconds are medians over the repeats",
        "sizes": list(SIZES),
    })
    data.setdefault("sides", {})[args.side] = {
        "repeats": REPEATS,
        "machine": run.machine_facts(nproc, cpu_index),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "by_m": by_m,
    }
    args.out.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
