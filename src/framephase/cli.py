"""Command-line interface.

Subcommands: gen, certify, measure, reconstruct, witness, experiment.
Machine-readable JSON goes to stdout; prose, progress, and timings go to
stderr. Repeating any command with identical flags and seed produces
byte-identical stdout and output files (report files omit wall-clock
fields for exactly this reason).

Exit codes
  certify      0 injective or necessary-conditions-pass, 2 not injective
  reconstruct  0 unique or heuristic success, 3 ambiguous,
               4 no solution or heuristic failure
  witness      0 witness produced, 2 no witness available
  all          1 on runtime errors and usage errors (bad files, invalid
               arguments, ...)
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time

import numpy as np

from .frames import (
    COMPLEX,
    REAL,
    frame_operator,
    gen_full_spark,
    gen_random,
    gen_repeated_tail,
    gen_windowed_fourier,
    load_frame,
    save_frame,
)
from .injectivity import (
    VERDICT_NOT_INJECTIVE,
    certificate_to_dict,
    certify,
)
from .linalg import DEFAULT_TOL, Tolerance
from .magnitude import load_measurement, magnitude_map, save_measurement
from .reconstruct import (
    STATUS_AMBIGUOUS,
    STATUS_HEURISTIC_SUCCESS,
    STATUS_UNIQUE,
    reconstruct_complex,
    reconstruct_real,
    result_to_dict,
)
from . import experiments as xp

THREADS_ENV = "FRAMEPHASE_THREADS"


def _info(message: str) -> None:
    print(message, file=sys.stderr)


def _emit_json(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _check_threads_env() -> int | None:
    """Validate the parallelism cap. The computation itself is sequential,
    which satisfies any cap of at least one worker."""
    raw = os.environ.get(THREADS_ENV)
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        _info(f"warning: ignoring invalid {THREADS_ENV}={raw!r} (need an int >= 1)")
        return None
    return value


def _tolerance(args: argparse.Namespace) -> Tolerance:
    return Tolerance(rank_eps=args.rank_eps, residual_eps=args.tol)


def _parse_numbers(text: str, field: str) -> np.ndarray:
    tokens = [tok for tok in re.split(r"[,\s]+", text.strip()) if tok]
    if not tokens:
        raise ValueError("empty vector")
    if field == REAL:
        return np.array([float(tok) for tok in tokens], dtype=np.float64)
    return np.array([complex(tok) for tok in tokens], dtype=np.complex128)


def _add_tol_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--tol",
        type=float,
        default=DEFAULT_TOL.residual_eps,
        metavar="EPS",
        help="relative residual tolerance (default 1e-8)",
    )
    parser.add_argument(
        "--rank-eps",
        type=float,
        default=DEFAULT_TOL.rank_eps,
        metavar="EPS",
        help="relative rank cutoff for singular values (default 1e-10)",
    )


def cmd_gen(args: argparse.Namespace) -> int:
    kind = args.kind
    if kind == "gabor":
        if args.field != COMPLEX:
            raise ValueError("windowed Fourier frames are complex; use --field complex")
        if args.fft_size is None:
            raise ValueError("--fft-size is required for --kind gabor")
        if args.window is None:
            window = np.ones(args.fft_size)
        else:
            window = _parse_numbers(args.window, REAL)
        frame = gen_windowed_fourier(window, args.n, args.hop, args.fft_size)
        if args.m is not None and args.m != frame.m:
            raise ValueError(
                f"--m {args.m} conflicts with the generated count M={frame.m}"
            )
    else:
        if args.m is None:
            raise ValueError("--m is required for this kind")
        builder = {
            "random": gen_random,
            "full-spark": gen_full_spark,
            "repeated-tail": gen_repeated_tail,
        }[kind]
        frame = builder(args.field, args.n, args.m, args.seed)
    _, bounds = frame_operator(frame)
    save_frame(frame, args.out)
    _info(
        f"wrote {kind} frame to {args.out}: field={frame.field} N={frame.n} "
        f"M={frame.m} bounds A={bounds.lower:.6g} B={bounds.upper:.6g}"
    )
    return 0


def cmd_certify(args: argparse.Namespace) -> int:
    frame = load_frame(args.frame)
    tol = _tolerance(args)
    cert = certify(frame, tol)
    _emit_json(certificate_to_dict(cert, frame.field))
    # A not_injective certificate without a failing subset comes from the
    # pivots of a complex M = 2N-1 frame, so its count is of pivots.
    if cert.verdict == VERDICT_NOT_INJECTIVE and cert.failing_subset is None:
        counted = f"tried {cert.checked_subsets} pivot(s)"
    else:
        counted = f"checked {cert.checked_subsets} split(s)"
    _info(
        f"verdict: {cert.verdict} ({counted}, "
        f"field={frame.field}, N={frame.n}, M={frame.m})"
    )
    if frame.field == COMPLEX and cert.verdict == VERDICT_NOT_INJECTIVE:
        if frame.m <= 2 * frame.n - 1:
            _info(
                f"complex frames with M <= 2N-1 are never injective "
                f"(here M={frame.m}, 2N-1={2 * frame.n - 1})"
            )
    return 2 if cert.verdict == VERDICT_NOT_INJECTIVE else 0


def cmd_measure(args: argparse.Namespace) -> int:
    if (args.x is None) == (args.x_file is None):
        raise ValueError("provide exactly one of --x or --x-file")
    frame = load_frame(args.frame)
    text = args.x
    if text is None:
        with open(args.x_file, "r", encoding="utf-8") as fh:
            text = fh.read()
    x = _parse_numbers(text, frame.field)
    if x.shape != (frame.n,):
        raise ValueError(f"expected {frame.n} entries, got {x.size}")
    if not np.all(np.isfinite(x)):
        raise ValueError("x entries must be finite")
    magnitudes = magnitude_map(frame, x)
    save_measurement(magnitudes, args.out)
    _info(f"wrote {frame.m} magnitudes to {args.out}")
    return 0


def cmd_reconstruct(args: argparse.Namespace) -> int:
    frame = load_frame(args.frame)
    magnitudes = load_measurement(args.measurement)
    tol = _tolerance(args)
    started = time.perf_counter()
    if frame.field == REAL:
        result = reconstruct_real(frame, magnitudes, tol)
    else:
        result = reconstruct_complex(
            frame,
            magnitudes,
            restarts=args.restarts,
            max_iters=args.max_iters,
            seed=args.seed,
            tol=tol,
        )
    elapsed = time.perf_counter() - started
    _emit_json(result_to_dict(result, frame.field))
    if frame.field == REAL:
        work = f"{result.patterns_explored} sign-tree node(s)"
    else:
        work = f"{result.restarts_used} restart(s)"
    _info(
        f"status: {result.status} ({len(result.rays)} ray(s), "
        f"{work}, {elapsed * 1000.0:.1f} ms)"
    )
    if result.status in (STATUS_UNIQUE, STATUS_HEURISTIC_SUCCESS):
        return 0
    if result.status == STATUS_AMBIGUOUS:
        return 3
    return 4


def cmd_witness(args: argparse.Namespace) -> int:
    frame = load_frame(args.frame)
    tol = _tolerance(args)
    cert = certify(frame, tol)
    if cert.witness is None:
        _info(f"no ambiguity witness available: verdict is {cert.verdict}")
        return 2
    payload = certificate_to_dict(cert, frame.field)
    x, y = cert.witness
    mismatch = float(
        np.linalg.norm(magnitude_map(frame, x) - magnitude_map(frame, y))
    )
    payload["magnitude_mismatch"] = mismatch
    _emit_json(payload)
    _info(f"witness magnitudes agree to {mismatch:.3e}")
    return 0


# Preset name: (harness, n_values, m_rule, default trials). The harness
# is named and looked up in experiments when the preset runs, so a
# replaced module attribute (a wrapper, a test double) is the one called.
PRESETS = {
    "real-genericity": ("run_real_genericity", (2, 3, 4, 5), "2n-1", 100),
    "sharpness": ("run_real_genericity", (2, 3, 4, 5), "2n-2", 100),
    "dense-interior": ("run_dense_interior_real", (3,), "2n-2", 500),
    "complex": ("run_complex_genericity", (2, 3), "all", 200),
    "equivalence": ("run_equivalence_invariance", (3,), "both", 50),
}


def _summary_table(report: xp.ExperimentReport) -> str:
    header = f"{'field':<8}{'N':>3}{'M':>4}{'trials':>8}{'inj':>8}{'rec':>8}{'ms':>10}  extras"
    lines = [header]
    for c in report.cells:
        inj = "-" if c.inj_rate is None else f"{c.inj_rate:.3f}"
        rec = "-" if c.rec_rate is None else f"{c.rec_rate:.3f}"
        ms = "-" if c.mean_ms is None else f"{c.mean_ms:.2f}"
        extras = " ".join(f"{k}={v:.4g}" for k, v in sorted(c.extras.items()))
        lines.append(
            f"{c.field:<8}{c.n:>3}{c.m:>4}{c.trials:>8}{inj:>8}{rec:>8}{ms:>10}  {extras}"
        )
    return "\n".join(lines)


def cmd_experiment(args: argparse.Namespace) -> int:
    if args.preset not in PRESETS:
        raise ValueError(
            f"unknown preset {args.preset!r}; choose from {', '.join(PRESETS)}"
        )
    harness, n_values, m_rule, trials = PRESETS[args.preset]
    if args.trials is not None:
        trials = args.trials
    cfg = xp.ExperimentConfig(n_values, m_rule, trials, args.seed)
    started = time.perf_counter()
    report = getattr(xp, harness)(cfg)
    elapsed = time.perf_counter() - started
    os.makedirs(args.out_dir, exist_ok=True)
    json_path = os.path.join(args.out_dir, f"{args.preset}.json")
    csv_path = os.path.join(args.out_dir, f"{args.preset}.csv")
    xp.write_report_json(report, json_path)
    xp.write_report_csv(report, csv_path)
    _info(_summary_table(report))
    _info(
        f"preset {args.preset}: {len(report.cells)} cell(s) in {elapsed:.2f} s; "
        f"wrote {json_path} and {csv_path}"
    )
    return 0


class _Parser(argparse.ArgumentParser):
    """Exits 1 on usage errors: 2 is the "not injective" and "no witness"
    verdict of certify and witness."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="framephase",
        description="Finite-frame phase retrieval: generation, injectivity "
        "certification, magnitude measurements, and reconstruction.",
        epilog=f"Set {THREADS_ENV} to cap worker parallelism (the current "
        "implementation is sequential, honoring any cap of at least 1).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a frame and write it to a JSON file")
    p.add_argument("--field", choices=(REAL, COMPLEX), required=True)
    p.add_argument("--n", type=int, required=True, help="ambient dimension (gabor: signal length)")
    p.add_argument("--m", type=int, default=None, help="number of frame vectors")
    p.add_argument(
        "--kind",
        choices=("random", "full-spark", "repeated-tail", "gabor"),
        default="random",
        help="gabor frames are never injective for --n >= 2: only the first "
        "window placement touches sample 0",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, metavar="FRAME_FILE")
    p.add_argument("--window", default=None, help="gabor window, comma-separated reals")
    p.add_argument("--hop", type=int, default=1, help="gabor window shift step")
    p.add_argument("--fft-size", type=int, default=None, help="gabor modulation count")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("certify", help="decide injectivity of the magnitude map")
    p.add_argument("frame", metavar="FRAME_FILE")
    _add_tol_flags(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("measure", help="compute magnitude measurements of a vector")
    p.add_argument("frame", metavar="FRAME_FILE")
    p.add_argument(
        "--x",
        default=None,
        help="vector entries, comma-separated; write --x=-1.2,0.3 when the "
        "first entry is negative",
    )
    p.add_argument("--x-file", default=None, help="file containing the vector entries")
    p.add_argument("--out", required=True, metavar="MEAS_FILE")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("reconstruct", help="recover rays from magnitude measurements")
    p.add_argument("frame", metavar="FRAME_FILE")
    p.add_argument("measurement", metavar="MEAS_FILE")
    p.add_argument("--restarts", type=int, default=20, help="complex-only restarts")
    p.add_argument(
        "--max-iters", type=int, default=500, help="complex-only iterations per restart"
    )
    p.add_argument("--seed", type=int, default=0, help="complex-only restart seed")
    _add_tol_flags(p)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("witness", help="produce an ambiguity witness if one exists")
    p.add_argument("frame", metavar="FRAME_FILE")
    _add_tol_flags(p)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("experiment", help="run a Monte-Carlo experiment preset")
    p.add_argument("--preset", required=True, help=f"one of: {', '.join(PRESETS)}")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default=".", help="directory for report files")
    p.add_argument("--trials", type=int, default=None, help="override preset trials")
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _check_threads_env()
    try:
        return args.func(args)
    except Exception as exc:
        _info(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
