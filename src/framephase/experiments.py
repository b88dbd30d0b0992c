"""Monte-Carlo experiment harnesses over random frames.

Each harness sweeps the (N, M) cells of ``_grid``: for each N of the
config in turn, the Ms that its rule in ``M_RULES`` gives. Per cell it
defines one trial (a function of the trial index) and a summary of the
trials' outcomes, and hands both to ``_cell``, the one trial loop: it
times the trials and builds the CellResult, or no cell at zero trials.
The config holds only the grid, the trial count and the seed; each
harness fixes its own field, tolerances and budgets. Per-trial randomness
is derived from (seed, n, m, salt, trial) entropy, with one salt per kind
of trial, so cells never share streams and every report is reproducible
from (config, seed). Measured timings live only in the in-memory report;
report files omit them so identical runs produce identical bytes.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field as dataclass_field
from typing import Any, Callable

import numpy as np

from .frames import (
    COMPLEX,
    REAL,
    apply_invertible,
    canonical_dual,
    canonical_parseval,
    frame_operator,
    gen_random,
)
from .injectivity import (
    VERDICT_NOT_INJECTIVE,
    certificate_to_dict,
    certify,
    verify_witness,
)
from .linalg import Tolerance
from .magnitude import magnitude_map, ray_equal
from .reconstruct import STATUS_HEURISTIC_SUCCESS, reconstruct_complex, reconstruct_real

__all__ = [
    "ExperimentConfig",
    "CellResult",
    "ExperimentReport",
    "run_real_genericity",
    "run_dense_interior_real",
    "run_complex_genericity",
    "run_equivalence_invariance",
    "write_report_json",
    "write_report_csv",
]

# The Ms of one N under each rule, in grid order.
M_RULES = {
    "2n-1": lambda n: (2 * n - 1,),
    "2n-2": lambda n: (2 * n - 2,),
    "both": lambda n: (2 * n - 1, 2 * n - 2),
    "all": lambda n: (2 * n - 1, 2 * n, 4 * n - 2),
}

# Frames per dense-interior cell that get certify's witness.
_CONSTRUCTED_CASES = 10
# Invertible transforms per equivalence-invariance trial.
_TRANSFORMS = 5


@dataclass(frozen=True)
class ExperimentConfig:
    """Grid description shared by all experiment harnesses: the Ns, the
    name of their M rule in M_RULES, the trials per cell and the seed."""

    n_values: tuple[int, ...]
    m_rule: str
    trials: int
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.n_values or any(n < 1 for n in self.n_values):
            raise ValueError("n_values must be a nonempty tuple of positive ints")
        if self.m_rule not in M_RULES:
            raise ValueError(f"m_rule must be one of {tuple(M_RULES)}, got {self.m_rule!r}")
        if self.trials < 0:
            raise ValueError("trials must be >= 0")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class CellResult:
    """Aggregated rates for one (N, M) cell; rates lie in [0, 1]."""

    field: str
    n: int
    m: int
    trials: int
    inj_rate: float | None
    rec_rate: float | None
    mean_ms: float | None
    seed: int
    extras: dict = dataclass_field(default_factory=dict)


@dataclass
class ExperimentReport:
    """The config, the cells, and the JSON certificates of the ambiguities
    a harness constructs (only the dense-interior harness has any)."""

    config: dict
    cells: list[CellResult]
    witnesses: list[dict] = dataclass_field(default_factory=list)


def _trial_rng(*entropy: int) -> np.random.Generator:
    return np.random.default_rng(list(entropy))


def _derived_seed(*entropy: int) -> int:
    return int(np.random.SeedSequence(list(entropy)).generate_state(1)[0])


def _cell(
    field: str,
    n: int,
    m: int,
    trials: int,
    seed: int,
    trial: Callable[[int], Any],
    summarize: Callable[[list], tuple[float | None, float | None, dict]],
) -> list[CellResult]:
    """Time ``trial(t)`` for t in range(trials) and aggregate the outcomes.

    ``summarize(outcomes)`` gives (inj_rate, rec_rate, extras). The list
    holds the one cell, or nothing at zero trials, where no trial runs.
    """
    if trials == 0:
        return []
    started = time.perf_counter()
    outcomes = [trial(t) for t in range(trials)]
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    inj_rate, rec_rate, extras = summarize(outcomes)
    mean_ms = elapsed_ms / trials
    return [CellResult(field, n, m, trials, inj_rate, rec_rate, mean_ms, seed, extras)]


def _grid(cfg: ExperimentConfig) -> list[tuple[int, int]]:
    """The (N, M) cells of cfg: each N in turn with the Ms of its rule."""
    return [(n, m) for n in cfg.n_values for m in M_RULES[cfg.m_rule](n)]


def run_real_genericity(cfg: ExperimentConfig) -> ExperimentReport:
    """Injectivity rates for random real frames (the presets' M = 2N-1
    and 2N-2).

    From M = 2N-1 on a random frame is injective with probability one;
    below it no frame is injective and every NotInjective verdict is
    re-verified through its witness (a verification failure raises, it is
    a bug rather than a data point).
    """
    cells: list[CellResult] = []
    for n, m in _grid(cfg):
        if m < n:
            raise ValueError(f"rule {cfg.m_rule} needs larger N, got N={n}")

        def trial(t: int) -> bool:
            frame = gen_random(REAL, n, m, _trial_rng(cfg.seed, n, m, 1, t))
            cert = certify(frame)
            if cert.verdict != VERDICT_NOT_INJECTIVE:
                return True
            if not verify_witness(frame, *cert.witness):
                raise RuntimeError("claimed NotInjective witness failed to verify")
            return False

        def summarize(injective: list[bool]):
            extras = {}
            if m < 2 * n - 1:
                extras["not_injective_verified_rate"] = injective.count(False) / cfg.trials
            return sum(injective) / cfg.trials, None, extras

        cells += _cell(REAL, n, m, cfg.trials, cfg.seed, trial, summarize)
    return ExperimentReport(cfg.to_dict(), cells)


def run_dense_interior_real(cfg: ExperimentConfig) -> ExperimentReport:
    """Unique-recovery rate in the regime N < M < 2N-1, plus constructed
    ambiguities showing the frames are still not injective.

    Random signals are recovered uniquely at a rate near one (the
    ambiguous set is thin), yet no such frame is injective: the two halves
    of a balanced split each hold at most N-1 vectors, so neither spans.
    Per cell, _CONSTRUCTED_CASES frames get the verified witness of
    ``certify``; the report keeps their certificates.
    """
    cells: list[CellResult] = []
    witnesses: list[dict] = []
    for n, m in _grid(cfg):
        if not n < m < 2 * n - 1:
            raise ValueError(f"requires N < M < 2N-1, got N={n}, M={m}")
        verified = 0
        for case in range(_CONSTRUCTED_CASES):
            frame = gen_random(REAL, n, m, _trial_rng(cfg.seed, n, m, 3, case))
            cert = certify(frame)
            verified += cert.verdict == VERDICT_NOT_INJECTIVE and verify_witness(
                frame, *cert.witness
            )
            witnesses.append(certificate_to_dict(cert, REAL))

        def trial(t: int) -> bool:
            rng = _trial_rng(cfg.seed, n, m, 2, t)
            frame = gen_random(REAL, n, m, rng)
            x = rng.standard_normal(n)
            rays = reconstruct_real(frame, magnitude_map(frame, x)).rays
            return len(rays) == 1 and ray_equal(rays[0], x)

        def summarize(unique: list[bool]):
            extras = {
                "constructed_cases": float(_CONSTRUCTED_CASES),
                "constructed_verified": float(verified),
            }
            return None, sum(unique) / cfg.trials, extras

        cells += _cell(REAL, n, m, cfg.trials, cfg.seed, trial, summarize)
    return ExperimentReport(cfg.to_dict(), cells, witnesses)


def run_complex_genericity(cfg: ExperimentConfig) -> ExperimentReport:
    """Complex-frame study: size obstruction below M = 2N, heuristic
    recovery from M = 2N on (rule 'all': 2N-1, then M = 2N, the minimal
    possible, and M = 4N-2, the generic regime).

    Recovery rates are heuristic evidence only; a success counts only if
    the recovered ray matches the planted signal and reproduces the
    measurements within 1e-6 ||a||. The 2N <= M < 4N-2 band is not certified
    injective by this toolkit (verdicts there are NecessaryConditionsPass).
    """
    if any(n < 2 or n > 3 for n in cfg.n_values):
        raise ValueError("complex study is budgeted for N in {2, 3}")
    loose = Tolerance(residual_eps=1e-6)
    cells: list[CellResult] = []
    for n, m in _grid(cfg):
        if m < 2 * n:
            # Fewer than 2N measurements are never injective.

            def trial(t: int) -> bool:
                frame = gen_random(COMPLEX, n, m, _trial_rng(cfg.seed, n, m, 4, t))
                cert = certify(frame)
                return cert.verdict == VERDICT_NOT_INJECTIVE and verify_witness(
                    frame, *cert.witness
                )

            def summarize(verified: list[bool]):
                extras = {
                    "size_check_fail_rate": 1.0,
                    "witness_verified_rate": sum(verified) / cfg.trials,
                }
                return 0.0, None, extras

        else:

            def trial(t: int) -> bool:
                rng = _trial_rng(cfg.seed, n, m, 5, t)
                frame = gen_random(COMPLEX, n, m, rng)
                x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                a = magnitude_map(frame, x)
                result = reconstruct_complex(frame, a, seed=_derived_seed(cfg.seed, n, m, 6, t))
                if result.status != STATUS_HEURISTIC_SUCCESS:
                    return False
                ray = result.rays[0]
                return ray_equal(ray, x, loose) and float(
                    np.linalg.norm(magnitude_map(frame, ray) - a)
                ) <= loose.residual_bound(a)

            def summarize(successes: list[bool]):
                return None, sum(successes) / cfg.trials, {"regime": float(m >= 4 * n - 2)}

        cells += _cell(COMPLEX, n, m, cfg.trials, cfg.seed, trial, summarize)
    return ExperimentReport(cfg.to_dict(), cells)


# Largest condition number of the transforms in run_equivalence_invariance.
_MAX_COND = 100.0


def _well_conditioned_invertible(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random invertible matrix with condition number at most _MAX_COND
    (near-singular transforms would poison tolerance-based rank checks)."""
    for _ in range(256):
        r = rng.standard_normal((n, n))
        s = np.linalg.svd(r, compute_uv=False)
        if s[-1] > s[0] / _MAX_COND:
            return r
    raise RuntimeError("failed to sample a well-conditioned transform")


def run_equivalence_invariance(cfg: ExperimentConfig) -> ExperimentReport:
    """Verdict invariance under invertible transforms, the canonical dual,
    and the canonical Parseval frame.

    The coefficient range of {R f_i} equals that of {f_i} up to relabeling
    x -> R* x, so verdicts must agree exactly; witnesses of a NotInjective
    frame map through the inverse adjoint of R and are re-verified on the
    transformed frame. Parseval outputs are additionally checked to have a
    frame operator within 1e-8 of the identity.
    """
    cells: list[CellResult] = []
    for n, m in _grid(cfg):

        def trial(t: int) -> tuple[bool, bool, float, int, int]:
            rng = _trial_rng(cfg.seed, n, m, 7, t)
            frame = gen_random(REAL, n, m, rng)
            base = certify(frame)
            all_match = True
            witness_checked = 0
            witness_ok = 0
            for _ in range(_TRANSFORMS):
                r = _well_conditioned_invertible(rng, n)
                moved = apply_invertible(frame, r)
                if certify(moved).verdict != base.verdict:
                    all_match = False
                if base.verdict == VERDICT_NOT_INJECTIVE:
                    witness_checked += 1
                    x, y = base.witness
                    x_moved = np.linalg.solve(r.T, x)
                    y_moved = np.linalg.solve(r.T, y)
                    if verify_witness(moved, x_moved, y_moved):
                        witness_ok += 1
            dual = canonical_dual(frame)
            if certify(dual).verdict != base.verdict:
                all_match = False
            parseval = canonical_parseval(frame)
            if certify(parseval).verdict != base.verdict:
                all_match = False
            s_p, _ = frame_operator(parseval)
            dev = float(np.linalg.norm(s_p - np.eye(n)))
            injective = base.verdict != VERDICT_NOT_INJECTIVE
            return injective, all_match, dev, witness_checked, witness_ok

        def summarize(outcomes: list[tuple[bool, bool, float, int, int]]):
            injective, agree, devs, checked, ok = zip(*outcomes)
            extras = {
                "agreement_rate": sum(agree) / cfg.trials,
                "parseval_max_identity_dev": max(0.0, *devs),
            }
            if sum(checked):
                extras["witness_transform_ok_rate"] = sum(ok) / sum(checked)
            return sum(injective) / cfg.trials, None, extras

        cells += _cell(REAL, n, m, cfg.trials, cfg.seed, trial, summarize)
    return ExperimentReport(cfg.to_dict(), cells)


CSV_HEADER = "field,N,M,trials,inj_rate,rec_rate,mean_ms,seed"


def _fmt_rate(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def report_to_dict(report: ExperimentReport) -> dict:
    """JSON-ready form. Timing is omitted so written reports are
    byte-identical across reruns with the same config and seed."""
    cells = [{**asdict(c), "mean_ms": None} for c in report.cells]
    payload = {"config": report.config, "cells": cells}
    if report.witnesses:
        payload["witnesses"] = report.witnesses
    return payload


def write_report_json(report: ExperimentReport, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report_to_dict(report), fh, indent=2)
        fh.write("\n")


def write_report_csv(report: ExperimentReport, path: str | os.PathLike) -> None:
    # mean_ms is left blank in files: wall-clock would break byte-level
    # reproducibility of identical runs. Timings are in the stderr summary.
    lines = [CSV_HEADER]
    for c in report.cells:
        lines.append(
            ",".join(
                [
                    c.field,
                    str(c.n),
                    str(c.m),
                    str(c.trials),
                    _fmt_rate(c.inj_rate),
                    _fmt_rate(c.rec_rate),
                    "",
                    str(c.seed),
                ]
            )
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

