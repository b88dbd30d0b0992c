"""Monte-Carlo experiment harnesses over random frames.

Each harness sweeps a grid of (N, M) cells. Per cell it defines one trial
(a function of the trial index) and a summary of the trials' outcomes, and
hands both to ``_cell``, the one trial loop: it times the trials and builds
the CellResult, or no cell at zero trials. The two real-frame harnesses
read their M rules through ``_real_rules``. Per-trial randomness is derived
from (seed, n, m, salt, trial) entropy, with one salt per kind of trial, so
cells never share streams and every report is reproducible from (config,
seed). Measured timings live only in the in-memory report; report files
omit them so identical runs produce identical bytes.
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
    encode_vector,
    frame_operator,
    gen_random,
)
from .injectivity import (
    VERDICT_NOT_INJECTIVE,
    certify,
    complement_property,
    verify_witness,
)
from .linalg import DEFAULT_TOL, Tolerance, null_space, rank
from .magnitude import magnitude_map, ray_equal
from .reconstruct import STATUS_HEURISTIC_SUCCESS, reconstruct_complex, reconstruct_real

__all__ = [
    "ExperimentConfig",
    "CellResult",
    "ExperimentReport",
    "ThinSetWitness",
    "run_real_genericity",
    "run_dense_interior_real",
    "run_complex_genericity",
    "run_equivalence_invariance",
    "write_report_json",
    "write_report_csv",
]

M_RULES = {
    "2n-1": lambda n: 2 * n - 1,
    "2n-2": lambda n: 2 * n - 2,
}
_RULE_CHOICES = tuple(M_RULES) + ("both", "all")


@dataclass(frozen=True)
class ExperimentConfig:
    """Grid description shared by all experiment harnesses."""

    field: str
    n_values: tuple[int, ...]
    m_rule: str
    trials: int
    seed: int = 0
    restarts: int = 20
    max_iters: int = 500
    transforms: int = 5
    constructed_cases: int = 10
    tol: Tolerance = DEFAULT_TOL

    def __post_init__(self) -> None:
        if self.field not in (REAL, COMPLEX):
            raise ValueError(f"unknown field {self.field!r}")
        if not self.n_values or any(n < 1 for n in self.n_values):
            raise ValueError("n_values must be a nonempty tuple of positive ints")
        if self.m_rule not in _RULE_CHOICES:
            raise ValueError(f"m_rule must be one of {_RULE_CHOICES}, got {self.m_rule!r}")
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
    config: dict
    cells: list[CellResult]


@dataclass
class ThinSetWitness:
    """A constructed ambiguity for an M < 2N-1 frame, on the transformed
    frame (containing the standard basis) and pulled back to the original."""

    subset: tuple[int, ...]
    x: np.ndarray
    y: np.ndarray
    x_original: np.ndarray
    y_original: np.ndarray
    seed_entropy: tuple[int, ...]
    verified: bool


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


def _real_rules(cfg: ExperimentConfig, harness: str) -> tuple[str, ...]:
    """The M rules of a real-frame harness: '2n-1', '2n-2', or both."""
    if cfg.field != REAL:
        raise ValueError(f"{harness} requires field 'real'")
    if cfg.m_rule == "both":
        return ("2n-1", "2n-2")
    if cfg.m_rule in ("2n-1", "2n-2"):
        return (cfg.m_rule,)
    raise ValueError(f"m_rule must be '2n-1', '2n-2', or 'both', got {cfg.m_rule!r}")


def run_real_genericity(cfg: ExperimentConfig) -> ExperimentReport:
    """Injectivity rates for random real frames at M = 2N-1 and/or 2N-2.

    At M = 2N-1 a random frame is injective with probability one; at
    M = 2N-2 no frame is injective and every NotInjective verdict is
    re-verified through its witness (a verification failure raises, it is
    a bug rather than a data point).
    """
    rules = _real_rules(cfg, "run_real_genericity")
    cells: list[CellResult] = []
    for rule in rules:
        for n in cfg.n_values:
            m = M_RULES[rule](n)
            if m < n:
                raise ValueError(f"rule {rule} needs larger N, got N={n}")

            def trial(t: int) -> bool:
                frame = gen_random(REAL, n, m, _trial_rng(cfg.seed, n, m, 1, t))
                cert = complement_property(frame, cfg.tol)
                if cert.verdict != VERDICT_NOT_INJECTIVE:
                    return True
                if not verify_witness(frame, *cert.witness, cfg.tol):
                    raise RuntimeError("claimed NotInjective witness failed to verify")
                return False

            def summarize(injective: list[bool]):
                extras = {}
                if rule == "2n-2":
                    extras["not_injective_verified_rate"] = injective.count(False) / cfg.trials
                return sum(injective) / cfg.trials, None, extras

            cells += _cell(REAL, n, m, cfg.trials, cfg.seed, trial, summarize)
    return ExperimentReport(cfg.to_dict(), cells)


def _build_thin_witness(
    n: int, m: int, entropy: tuple[int, ...], tol: Tolerance
) -> ThinSetWitness:
    """Construct an equal-magnitude, distinct-ray pair for a random real
    frame with N < M < 2N-1.

    The frame is transformed so its first N vectors become the standard
    basis. For a coordinate subset S of size M-N+1 (at most N-1), a sign
    flip D on S changes no basis magnitude; making x orthogonal to
    (I - D) g for every remaining vector g makes the non-basis coefficients
    agree exactly. x keeps random nonzero entries off S, so x and Dx
    generate different rays.
    """
    rng = _trial_rng(*entropy)
    size = m - n + 1
    for _ in range(64):
        frame = gen_random(REAL, n, m, rng)
        basis_block = frame.vectors[:n].T
        if rank(basis_block, tol) < n:
            continue
        r = np.linalg.inv(basis_block)
        transformed = apply_invertible(frame, r, tol)
        subset = np.sort(rng.choice(n, size=size, replace=False))
        constraints = transformed.vectors[n:, subset]
        null = null_space(constraints, tol)
        if null.shape[1] == 0:
            continue
        x = np.zeros(n)
        x[subset] = null[:, 0]
        off = np.setdiff1d(np.arange(n), subset)
        x[off] = rng.standard_normal(off.size)
        signs = np.ones(n)
        signs[subset] = -1.0
        y = signs * x
        x_orig = r.T @ x
        y_orig = r.T @ y
        ok = verify_witness(transformed, x, y, tol) and verify_witness(
            frame, x_orig, y_orig, tol
        )
        if ok:
            return ThinSetWitness(
                subset=tuple(int(i) for i in subset),
                x=x,
                y=y,
                x_original=x_orig,
                y_original=y_orig,
                seed_entropy=entropy,
                verified=True,
            )
    raise RuntimeError("thin-set construction failed to produce a verified witness")


def run_dense_interior_real(
    n: int,
    m: int,
    trials: int,
    seed: int = 0,
    constructed_cases: int = 10,
    tol: Tolerance = DEFAULT_TOL,
) -> tuple[ExperimentReport, list[ThinSetWitness]]:
    """Unique-recovery rate in the regime N < M < 2N-1, plus constructed
    ambiguities showing the frames are still not injective.

    Random signals are recovered uniquely at a rate near one (the
    ambiguous set is thin), yet for every frame an explicit ambiguous pair
    exists; ``constructed_cases`` of them are built and verified.
    """
    if not n < m < 2 * n - 1:
        raise ValueError(f"requires N < M < 2N-1, got N={n}, M={m}")
    if trials < 0:
        raise ValueError("trials must be >= 0")
    witnesses = [
        _build_thin_witness(n, m, (seed, n, m, 3, case), tol)
        for case in range(constructed_cases)
    ]

    def trial(t: int) -> bool:
        rng = _trial_rng(seed, n, m, 2, t)
        frame = gen_random(REAL, n, m, rng)
        x = rng.standard_normal(n)
        rays = reconstruct_real(frame, magnitude_map(frame, x), tol).rays
        return len(rays) == 1 and ray_equal(rays[0], x, tol)

    def summarize(unique: list[bool]):
        verified = sum(1 for w in witnesses if w.verified)
        extras = {
            "constructed_cases": float(constructed_cases),
            "constructed_verified": float(verified),
        }
        return None, sum(unique) / trials, extras

    config = {
        "field": REAL,
        "n_values": [n],
        "m": m,
        "trials": trials,
        "seed": seed,
        "constructed_cases": constructed_cases,
        "tol": asdict(tol),
    }
    cells = _cell(REAL, n, m, trials, seed, trial, summarize)
    return ExperimentReport(config, cells), witnesses


def run_complex_genericity(cfg: ExperimentConfig) -> ExperimentReport:
    """Complex-frame study: size obstruction at M = 2N-1, heuristic
    recovery at M = 2N (minimal possible) and M = 4N-2 (generic regime).

    Recovery rates are heuristic evidence only; a success counts only if
    the recovered ray matches the planted signal and reproduces the
    measurements within 1e-6 ||a||. The 2N <= M < 4N-2 band is not certified
    injective by this toolkit (verdicts there are NecessaryConditionsPass).
    """
    if cfg.field != COMPLEX:
        raise ValueError("run_complex_genericity requires field 'complex'")
    if any(n < 2 or n > 3 for n in cfg.n_values):
        raise ValueError("complex study is budgeted for N in {2, 3}")
    loose = Tolerance(cfg.tol.rank_eps, 1e-6)
    cells: list[CellResult] = []
    for n in cfg.n_values:
        # Size obstruction cell: M = 2N-1 < 2N is never injective.
        m = 2 * n - 1
        size_fail = m < 2 * n

        def obstruction(t: int) -> bool:
            frame = gen_random(COMPLEX, n, m, _trial_rng(cfg.seed, n, m, 4, t))
            cert = certify(frame, cfg.tol)
            return cert.verdict == VERDICT_NOT_INJECTIVE and verify_witness(
                frame, *cert.witness, cfg.tol
            )

        def summarize_obstruction(verified: list[bool]):
            extras = {
                "size_check_fail_rate": float(size_fail),
                "witness_verified_rate": sum(verified) / cfg.trials,
            }
            return 0.0 if size_fail else None, None, extras

        cells += _cell(COMPLEX, n, m, cfg.trials, cfg.seed, obstruction, summarize_obstruction)
        # Heuristic recovery cells.
        for m in (2 * n, 4 * n - 2):

            def recovery(t: int) -> bool:
                rng = _trial_rng(cfg.seed, n, m, 5, t)
                frame = gen_random(COMPLEX, n, m, rng)
                x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                a = magnitude_map(frame, x)
                result = reconstruct_complex(
                    frame,
                    a,
                    restarts=cfg.restarts,
                    max_iters=cfg.max_iters,
                    seed=_derived_seed(cfg.seed, n, m, 6, t),
                    tol=cfg.tol,
                )
                if result.status != STATUS_HEURISTIC_SUCCESS:
                    return False
                ray = result.rays[0]
                return ray_equal(ray, x, loose) and float(
                    np.linalg.norm(magnitude_map(frame, ray) - a)
                ) <= loose.residual_bound(a)

            def summarize_recovery(successes: list[bool]):
                return None, sum(successes) / cfg.trials, {"regime": float(m >= 4 * n - 2)}

            cells += _cell(COMPLEX, n, m, cfg.trials, cfg.seed, recovery, summarize_recovery)
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
    rules = _real_rules(cfg, "run_equivalence_invariance")
    cells: list[CellResult] = []
    for rule in rules:
        for n in cfg.n_values:
            m = M_RULES[rule](n)

            def trial(t: int) -> tuple[bool, bool, float, int, int]:
                rng = _trial_rng(cfg.seed, n, m, 7, t)
                frame = gen_random(REAL, n, m, rng)
                base = complement_property(frame, cfg.tol)
                all_match = True
                witness_checked = 0
                witness_ok = 0
                for _ in range(cfg.transforms):
                    r = _well_conditioned_invertible(rng, n)
                    moved = apply_invertible(frame, r, cfg.tol)
                    if complement_property(moved, cfg.tol).verdict != base.verdict:
                        all_match = False
                    if base.verdict == VERDICT_NOT_INJECTIVE:
                        witness_checked += 1
                        x, y = base.witness
                        x_moved = np.linalg.solve(r.T, x)
                        y_moved = np.linalg.solve(r.T, y)
                        if verify_witness(moved, x_moved, y_moved, cfg.tol):
                            witness_ok += 1
                dual = canonical_dual(frame, cfg.tol)
                if complement_property(dual, cfg.tol).verdict != base.verdict:
                    all_match = False
                parseval = canonical_parseval(frame, cfg.tol)
                if complement_property(parseval, cfg.tol).verdict != base.verdict:
                    all_match = False
                s_p, _ = frame_operator(parseval, cfg.tol)
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
    return {"config": report.config, "cells": cells}


def write_report_json(
    report: ExperimentReport, path: str | os.PathLike, extra: dict | None = None
) -> None:
    payload = report_to_dict(report)
    if extra:
        payload.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
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


def thin_witness_to_dict(witness: ThinSetWitness) -> dict:
    return {
        key: encode_vector(value, REAL) if isinstance(value, np.ndarray) else value
        for key, value in asdict(witness).items()
    }
