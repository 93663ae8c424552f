"""Command-line front end: factor, verify, lowerbound, sweep, lattice, filtration.

All commands are deterministic functions of their arguments and input
files; wall-clock timings go to stderr so repeated runs produce
byte-identical files and stdout.  The seed of ``factor``, ``lowerbound``
and ``sweep`` is 0 unless ``--seed`` (``--seeds``) gives one; the other
commands take no seed.  No tolerance has a flag:
each is a module constant, such as the reduction's ``reduction.DIAG_TOL``
and ``reduction.SWEEP_TARGET``, the residual rule's
``linalg.RESIDUAL_TOL`` (also ``verify``'s), the filtration's
``filtration.RANK_TOL`` and ``filtration.STRUCTURE_TOL``, and the
witness-chain tolerances in ``lowerbound``.

Exit codes: 0 success, 1 verification failed, 2 parse/usage error,
3 nonzero trace, 4 numerical failure or an invalid certificate.  ``main``
maps ``NonzeroTraceError`` to 3, any other ``ValueError`` to 2 and
``LinAlgError`` to 4.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time

import numpy as np

from . import lattice as lattice_mod
from .factorizer import factor
from .filtration import build_filtration, verify_filtration_structure
from .linalg import RESIDUAL_TOL, NonzeroTraceError, certify, operator_norm
from .lowerbound import lower_bound_report
from .matio import MatrixFormatError, read_matrix, write_matrix, write_points

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_TRACE = 3
EXIT_NUMERICAL = 4


def _emit_json(payload: dict, out_path: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _record(value):
    """A result record as a dict, and a list of records as a list of dicts."""
    if isinstance(value, list):
        return [_record(v) for v in value]
    return dataclasses.asdict(value) if dataclasses.is_dataclass(value) else value


def _pick(obj, *names, **renamed) -> dict:
    """The named attributes of a result object as a JSON payload; ``key="attr"`` renames one."""
    pairs = [(name, name) for name in names] + list(renamed.items())
    return {key: _record(getattr(obj, attr)) for key, attr in pairs}


def _read_matrix_or_exit(path: str) -> np.ndarray:
    try:
        return read_matrix(path)
    except (MatrixFormatError, OSError) as exc:
        print(f"error: cannot read matrix {path!r}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


def _random_trace_zero(m: int, seed: int) -> np.ndarray:
    """Ginibre-style test matrix, diagonal shifted to zero trace."""
    rng = np.random.default_rng([seed, m, 0x7A11])
    a = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / math.sqrt(2.0 * m)
    a -= (np.trace(a) / m) * np.eye(m)
    return a


def cmd_factor(args) -> int:
    a = _read_matrix_or_exit(args.input)
    cert = factor(a, trials=args.trials, seed=args.seed)
    os.makedirs(args.out_dir, exist_ok=True)
    for name, mat in (("B", cert.b), ("C", cert.c), ("Q", cert.q)):
        write_matrix(os.path.join(args.out_dir, f"{name}.txt"), mat)
    payload = _pick(cert, "m", "residual", "op_norm_b", "hs_norm_c", "hs_norm_a", "ratio", "bound",
                    "seed", "trials", "valid", "rng", "diag_residual")
    # references relative to the certificate's own directory
    payload.update(b_path="B.txt", c_path="C.txt", q_path="Q.txt")
    _emit_json(payload, os.path.join(args.out_dir, "certificate.json"))
    print(f"ratio={cert.ratio:.17g} bound={cert.bound:.17g} valid={cert.valid}")
    return EXIT_OK if cert.valid else EXIT_NUMERICAL


def cmd_verify(args) -> int:
    a = _read_matrix_or_exit(args.a)
    b = _read_matrix_or_exit(args.b)
    c = _read_matrix_or_exit(args.c)
    if not (a.shape == b.shape == c.shape) or a.shape[0] != a.shape[1]:
        print("error: matrices must be square and of equal dimension", file=sys.stderr)
        return EXIT_PARSE
    check = certify(a, b, c, operator_norm(b))
    scale = check.op_norm_b * check.hs_norm_c
    sanity_ok = check.hs_norm_a <= 2.0 * scale + RESIDUAL_TOL * scale
    _emit_json({**dataclasses.asdict(check), "sanity_hs_le_2_opb_hsc": sanity_ok}, None)
    return EXIT_OK if check.residual_ok and sanity_ok else EXIT_FAIL


def cmd_lowerbound(args) -> int:
    report = lower_bound_report(args.m, seed=args.seed)
    payload = _pick(report, "m", "normalization", "dims", "dims_ok", "filtration_complete",
                    "block_residual", "block_tol", "iso_residual_v", "iso_residual_w", "v_norm",
                    "w_norm", "partial_sums", "partial_sums_triangular", "hs_lower",
                    "all_strict_passed", trace_inequality="trace_records")
    _emit_json(payload, args.out)
    return EXIT_OK if report.all_strict_passed else EXIT_FAIL


def cmd_sweep(args) -> int:
    t0 = time.perf_counter()
    records = []
    invalid = []
    for m in sorted(set(args.m)):
        if m < 2:
            print("error: all m must be >= 2", file=sys.stderr)
            return EXIT_PARSE
        for seed in sorted(set(args.seeds)):
            cert = factor(_random_trace_zero(m, seed), trials=args.trials, seed=seed)
            if not cert.valid:
                invalid.append((m, seed))
            records.append((m, seed, cert.ratio, cert.ratio**2 - math.log(m)))
    lines = ["m,seed,ratio,ratio_sq_minus_log_m"]
    for m, seed, ratio, excess in records:
        lines.append(f"{m},{seed},{ratio:.17g},{excess:.17g}")
    text = "\n".join(lines) + "\n"
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    if records:
        excesses = [r[3] for r in records]
        logs = np.array([math.log(r[0]) for r in records])
        ratios_sq = np.array([r[2] ** 2 for r in records])
        if len(set(r[0] for r in records)) > 1:
            slope, intercept = np.polyfit(logs, ratios_sq, 1)
        else:
            slope, intercept = float("nan"), float("nan")
        print(
            f"records={len(records)} max_ratio_sq_minus_log_m={max(excesses):.17g} "
            f"regression_ratio_sq_on_log_m: slope={slope:.17g} intercept={intercept:.17g}"
        )
    else:
        print("records=0")
    print(f"wall_ms={1000.0 * (time.perf_counter() - t0):.1f}", file=sys.stderr)
    for m, seed in invalid:
        print(f"error: certificate for m={m} seed={seed} is not valid", file=sys.stderr)
    return EXIT_NUMERICAL if invalid else EXIT_OK


def cmd_lattice(args) -> int:
    points = lattice_mod.gaussian_points(args.m)
    report = lattice_mod.pair_expectation(points)
    payload = {
        "m": args.m,
        "radius_bound": lattice_mod.radius_bound(args.m),
        "pair_energy": report.pair_energy,
        "expectation": report.expectation,
        "bound_value": report.bound_value,
        "excess_over_pi_log_m": args.m * report.expectation - math.pi * math.log(args.m),
    }
    if args.out:
        write_points(args.out, points)
    _emit_json(payload, None)
    return EXIT_OK


def cmd_filtration(args) -> int:
    s = _read_matrix_or_exit(args.s)
    t = _read_matrix_or_exit(args.t)
    mb = _read_matrix_or_exit(args.m_basis)
    filt = build_filtration(s, t, mb)
    report = verify_filtration_structure(filt)
    payload = dataclasses.asdict(report)
    payload.update(rank_tolerance=filt.rank_tolerance, all_ok=report.all_ok)
    _emit_json(payload, args.out)
    return EXIT_OK if report.all_ok else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="traceless",
        description="Factor trace-zero complex matrices as commutators "
        "A = [B, C] with B normal and certified norm bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factor", help="factor a trace-zero matrix, write B, C, Q and a certificate")
    p.add_argument("input", help="matrix file (text format)")
    p.add_argument("--out-dir", default=".", help="output directory")
    p.add_argument("--trials", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("verify", help="check A = [B, C] and print norms and ratio")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("c")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("lowerbound", help="factor the witness matrix and verify the whole inequality chain")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="report path (stdout when omitted)")
    p.set_defaults(func=cmd_lowerbound)

    p = sub.add_parser("sweep", help="ratio sweep over random trace-zero matrices, CSV output")
    p.add_argument("--m", type=int, nargs="*", default=[])
    p.add_argument("--seeds", type=int, nargs="*", default=[0])
    p.add_argument("--trials", type=int, default=32)
    p.add_argument("--out", required=True, help="CSV path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("lattice", help="emit the canonical lattice points and their pair energy")
    p.add_argument("m", type=int)
    p.add_argument("--out", default=None, help="points file path")
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("filtration", help="build the degree filtration for user-supplied S, T, M")
    p.add_argument("s")
    p.add_argument("t")
    p.add_argument("m_basis")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_filtration)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return int(exc.code) if exc.code is not None else EXIT_PARSE
    try:
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_PARSE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TRACE if isinstance(exc, NonzeroTraceError) else EXIT_PARSE
    except np.linalg.LinAlgError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
