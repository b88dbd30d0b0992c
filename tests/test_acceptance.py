"""End-to-end acceptance checks, one test per advertised guarantee.

Each test records a single PASS/FAIL line (see conftest) and asserts the
full statement of the guarantee, including wall-clock budgets where the
guarantee has one.
"""

import os
import subprocess
import sys
import time

import numpy as np

from framephase.frames import (
    COMPLEX,
    REAL,
    Frame,
    analysis,
    gen_full_spark,
    gen_random,
    gen_repeated_tail,
    gen_windowed_fourier,
    save_frame,
)
from framephase.injectivity import (
    VERDICT_INJECTIVE,
    VERDICT_NOT_INJECTIVE,
    certify,
    complement_property,
    verify_witness,
)
from framephase.linalg import Tolerance
from framephase.magnitude import magnitude_map, ray_equal
from framephase.reconstruct import (
    STATUS_HEURISTIC_SUCCESS,
    STATUS_UNIQUE,
    reconstruct_complex,
    reconstruct_real,
)
from framephase.experiments import (
    ExperimentConfig,
    run_dense_interior_real,
    run_equivalence_invariance,
)

import oracles
from conftest import record_acceptance


def test_acceptance_1_random_frames_at_2n_minus_1_are_injective():
    started = time.perf_counter()
    checked = 0
    failures = []
    for n in (2, 3, 4, 5):
        m = 2 * n - 1
        for trial in range(100):
            frame = gen_random(REAL, n, m, seed=[10, n, trial])
            cert = certify(frame)
            checked += 1
            if cert.verdict != VERDICT_INJECTIVE:
                failures.append((n, trial, cert.verdict))
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 30.0
    line = record_acceptance(
        1, ok, f"{checked} frames injective, {len(failures)} failures, {elapsed:.1f}s"
    )
    assert ok, line


def test_acceptance_2_sharpness_at_2n_minus_2():
    checked = 0
    failures = []
    for n in (2, 3, 4, 5):
        m = 2 * n - 2
        for trial in range(100):
            frame = gen_random(REAL, n, m, seed=[20, n, trial])
            cert = certify(frame)
            checked += 1
            if cert.verdict != VERDICT_NOT_INJECTIVE:
                failures.append((n, trial, "verdict"))
                continue
            x, y = cert.witness
            gap = float(
                np.max(np.abs(magnitude_map(frame, x) - magnitude_map(frame, y)))
            )
            if gap > 1e-8:
                failures.append((n, trial, f"gap {gap:.2e}"))
            if ray_equal(x, y):
                failures.append((n, trial, "rays coincide"))
    ok = not failures
    line = record_acceptance(
        2, ok, f"{checked} frames not injective with tight witnesses, "
        f"{len(failures)} failures"
    )
    assert ok, line


def _battery_frames():
    frames = []
    # Random frames across the full (N, M) box, including M < 2N-1.
    for n in (2, 3):
        for m in range(n, 7):
            for trial in range(12):
                frames.append(gen_random(REAL, n, m, seed=[30, n, m, trial]))
    # Orthonormal bases (M = N): never injective for N >= 2.
    for n in (2, 3):
        for trial in range(10):
            rng = np.random.default_rng([31, n, trial])
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            frames.append(Frame(REAL, q.T))
    # Frames with a repeated vector.
    for n in (2, 3):
        for m in range(n, 6):
            for trial in range(6):
                base = gen_random(REAL, n, m, seed=[32, n, m, trial]).vectors
                frames.append(Frame(REAL, np.vstack([base, base[trial % m]])))
    # Full-spark construction outputs.
    for n in (2, 3):
        for m in range(n, 7):
            for trial in range(3):
                frames.append(gen_full_spark(REAL, n, m, seed=[33, n, m, trial]))
    # Adversarial handcrafted cases around rank-deficient splits.
    e = np.eye(3)
    w = np.ones(3)
    frames += [
        Frame(REAL, np.eye(2)),
        Frame(REAL, np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 2.0]])),
        Frame(REAL, np.array([[1.0, 1.0], [2.0, 2.0], [0.0, 1.0]])),
        Frame(REAL, np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0]])),
        Frame(REAL, np.array([[1e6, 0.0], [0.0, 1e-6], [1.0, 1.0]])),
        Frame(REAL, np.vstack([e, w, e[2] + w])),  # last vector in span{e3, w}
        Frame(REAL, np.vstack([e, w, np.array([0.3, -1.2, 0.8])])),
        Frame(REAL, np.vstack([e[0], e[0] + e[1], e[1], e[2], e[2]])),
        Frame(REAL, np.vstack([e, e, np.array([1.0, 2.0, 3.0])])),
        Frame(REAL, np.sqrt(2.0 / 3.0) * np.array(
            [[np.cos(2 * np.pi * k / 3), np.sin(2 * np.pi * k / 3)] for k in range(3)]
        )),
    ]
    return frames


def test_acceptance_3_subset_condition_matches_range_side_oracle():
    frames = _battery_frames()
    assert len(frames) >= 200
    mismatches = []
    probe_conflicts = []
    rng = np.random.default_rng(303)
    for i, frame in enumerate(frames):
        cert = complement_property(frame)
        injective, _ = oracles.injectivity_oracle(frame.vectors)
        if (cert.verdict == VERDICT_INJECTIVE) != injective:
            mismatches.append(i)
            continue
        if cert.verdict == VERDICT_NOT_INJECTIVE:
            if not verify_witness(frame, *cert.witness):
                mismatches.append(i)
        # The sampling probe is one-sided: finding an ambiguity must imply
        # a NotInjective verdict; finding none proves nothing.
        if oracles.random_signal_probe(frame.vectors, 10, rng):
            if cert.verdict == VERDICT_INJECTIVE:
                probe_conflicts.append(i)
    ok = not mismatches and not probe_conflicts
    line = record_acceptance(
        3, ok, f"{len(frames)} frames agree with the independent oracle, "
        f"{len(mismatches)} mismatches, {len(probe_conflicts)} probe conflicts"
    )
    assert ok, line


def _handcrafted_dependent_2n_minus_1(case: int) -> Frame:
    n = 2 + case % 3
    rng = np.random.default_rng([40, case])
    vectors = gen_random(REAL, n, 2 * n - 1, seed=[41, case]).vectors.copy()
    if case % 2 == 0:
        vectors[n - 1] = vectors[: n - 1].sum(axis=0)  # dependent N-subset 0..N-1
    else:
        vectors[n] = 2.5 * vectors[0]  # parallel pair
    return Frame(REAL, vectors)


def test_acceptance_4_full_spark_sufficiency_and_2n_minus_1_equivalence():
    failures = []
    # (a) 50 random full-spark frames with M >= 2N-1 certify as injective.
    count = 0
    for n in (2, 3, 4):
        for extra in (0, 1):
            m = 2 * n - 1 + extra
            for trial in range(9):
                if count >= 50:
                    break
                frame = gen_full_spark(REAL, n, m, seed=[42, n, m, trial])
                count += 1
                if certify(frame).verdict != VERDICT_INJECTIVE:
                    failures.append(("full-spark", n, m, trial))
    assert count >= 50
    # (b) repeated-tail frames are injective but certainly not full spark.
    for n in (2, 3):
        for m in (2 * n, 2 * n + 1):
            frame = gen_repeated_tail(REAL, n, m, seed=[43, n, m])
            if certify(frame).verdict != VERDICT_INJECTIVE:
                failures.append(("repeated-tail verdict", n, m))
            if oracles.full_spark(frame.vectors)[0]:
                failures.append(("repeated-tail spark", n, m))
    # (c) at M = 2N-1 the two sides agree on 100 random + 10 dependent frames.
    for trial in range(100):
        n = 2 + trial % 3
        frame = gen_random(REAL, n, 2 * n - 1, seed=[44, trial])
        verdict = complement_property(frame).verdict
        if oracles.full_spark(frame.vectors)[0] != (verdict == VERDICT_INJECTIVE):
            failures.append(("equivalence random", trial))
    for case in range(10):
        frame = _handcrafted_dependent_2n_minus_1(case)
        is_full_spark = oracles.full_spark(frame.vectors)[0]
        verdict = complement_property(frame).verdict
        if is_full_spark != (verdict == VERDICT_INJECTIVE) or is_full_spark:
            failures.append(("equivalence dependent", case))
        if verdict != VERDICT_NOT_INJECTIVE:
            failures.append(("dependent verdict", case))
    ok = not failures
    line = record_acceptance(
        4, ok, f"full-spark sufficiency, repeated-tail gap, and 110 equivalence "
        f"checks, {len(failures)} failures"
    )
    assert ok, line


def _injective_real_pool():
    pool = []
    sizes = [
        (2, 3), (2, 4), (2, 5), (2, 12),
        (3, 5), (3, 6), (3, 8), (3, 12),
        (4, 7), (4, 8), (4, 10), (4, 12),
        (5, 9), (5, 10), (5, 11), (5, 12),
    ]
    for i, (n, m) in enumerate(sizes):
        pool.append(gen_random(REAL, n, m, seed=[50, i]))
    pool.append(gen_full_spark(REAL, 3, 7, seed=51))
    pool.append(gen_full_spark(REAL, 4, 9, seed=52))
    pool.append(gen_repeated_tail(REAL, 2, 6, seed=53))
    pool.append(gen_repeated_tail(REAL, 3, 7, seed=54))
    return pool


def test_acceptance_5_exact_real_recovery_and_pruning_equivalence():
    started = time.perf_counter()
    pool = _injective_real_pool()
    assert len(pool) == 20
    for frame in pool:
        assert certify(frame).verdict == VERDICT_INJECTIVE
    failures = []
    recovered = 0
    rng = np.random.default_rng(505)
    for fi, frame in enumerate(pool):
        for trial in range(50):
            x = rng.standard_normal(frame.n)
            a = magnitude_map(frame, x)
            result = reconstruct_real(frame, a)
            recovered += 1
            if result.status != STATUS_UNIQUE:
                failures.append((fi, trial, result.status))
            elif not ray_equal(result.rays[0], x):
                failures.append((fi, trial, "wrong ray"))
            elif result.residuals[0] > 1e-8:
                failures.append((fi, trial, f"residual {result.residuals[0]:.2e}"))
    assert recovered == 1000
    # Pruned search must equal the unpruned enumeration, solutions and
    # no-solutions alike, on every frame small enough to brute-force.
    cross_checked = 0
    for fi, frame in enumerate(pool):
        if frame.m > 12:
            continue
        for trial in range(3):
            x = rng.standard_normal(frame.n)
            a = magnitude_map(frame, x)
            result = reconstruct_real(frame, a)
            status, rays = oracles.exhaustive_real_rays(frame.vectors, a)
            cross_checked += 1
            if result.status != status or len(result.rays) != len(rays):
                failures.append((fi, trial, "oracle status"))
                continue
            if not all(
                any(oracles.same_ray(r, s) for s in result.rays) for r in rays
            ):
                failures.append((fi, trial, "oracle rays"))
        bad = np.abs(rng.standard_normal(frame.m))
        result = reconstruct_real(frame, bad)
        status, _ = oracles.exhaustive_real_rays(frame.vectors, bad)
        cross_checked += 1
        if result.status != status:
            failures.append((fi, "infeasible", (result.status, status)))
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 60.0
    line = record_acceptance(
        5, ok, f"1000 recoveries, {cross_checked} brute-force cross-checks, "
        f"{len(failures)} failures, {elapsed:.1f}s"
    )
    assert ok, line


def test_acceptance_6_dense_interior_regime():
    report, witnesses = run_dense_interior_real(
        3, 4, trials=500, seed=60, constructed_cases=10
    )
    cell = report.cells[0]
    verified = sum(1 for w in witnesses if w.verified)
    ok = cell.rec_rate >= 0.99 and verified == 10
    line = record_acceptance(
        6, ok, f"unique recovery rate {cell.rec_rate:.3f} over 500 signals, "
        f"{verified}/10 constructed ambiguities verified"
    )
    assert ok, line


def test_acceptance_7_complex_obstruction_and_heuristic_recovery():
    started = time.perf_counter()
    failures = []
    # (a) M = 2N-1 complex frames are never injective: verified witnesses.
    for n in (2, 3):
        for trial in range(50):
            frame = gen_random(COMPLEX, n, 2 * n - 1, seed=[70, n, trial])
            cert = certify(frame)
            if cert.verdict != VERDICT_NOT_INJECTIVE:
                failures.append((n, trial, "verdict"))
                continue
            x, y = cert.witness
            if not verify_witness(frame, x, y):
                failures.append((n, trial, "witness"))
            if ray_equal(x, y):
                failures.append((n, trial, "rays coincide"))
    # (b) N=2, M=6: heuristic recovery of planted signals, re-verified.
    successes = 0
    loose = Tolerance(rank_eps=1e-10, residual_eps=1e-6)
    for trial in range(200):
        rng = np.random.default_rng([71, trial])
        frame = gen_random(COMPLEX, 2, 6, seed=[72, trial])
        x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        a = magnitude_map(frame, x)
        result = reconstruct_complex(frame, a, restarts=20, max_iters=500, seed=trial)
        if result.status != STATUS_HEURISTIC_SUCCESS:
            continue
        ray = result.rays[0]
        if not ray_equal(ray, x, loose):
            failures.append(("recovery ray", trial))
            continue
        if float(np.linalg.norm(magnitude_map(frame, ray) - a)) > 1e-6:
            failures.append(("recovery residual", trial))
            continue
        successes += 1
    rate = successes / 200.0
    elapsed = time.perf_counter() - started
    ok = not failures and rate >= 0.9 and elapsed < 120.0
    line = record_acceptance(
        7, ok, f"100 small-count witnesses, recovery rate {rate:.3f}, "
        f"{len(failures)} failures, {elapsed:.1f}s"
    )
    assert ok, line


def test_acceptance_8_equivalence_invariance():
    cfg = ExperimentConfig(REAL, (3,), "both", trials=50, seed=80, transforms=5)
    report = run_equivalence_invariance(cfg)
    agreement = min(c.extras["agreement_rate"] for c in report.cells)
    parseval_dev = max(c.extras["parseval_max_identity_dev"] for c in report.cells)
    witness_rate = min(
        c.extras.get("witness_transform_ok_rate", 1.0) for c in report.cells
    )
    ok = agreement == 1.0 and parseval_dev <= 1e-8 and witness_rate == 1.0
    line = record_acceptance(
        8, ok, f"verdict agreement {agreement:.3f} across transforms/dual/parseval, "
        f"parseval identity deviation {parseval_dev:.1e}"
    )
    assert ok, line


def test_acceptance_9_windowed_fourier_matches_direct_sum():
    cases = [
        (np.ones(2), 1, 2, 8),
        (np.array([0.25, 1.0, 0.25]), 1, 3, 10),
        (np.array([1.0, 0.5, 0.5, 1.0]), 2, 4, 12),
        (np.array([0.9, 1.1, 1.0]), 3, 3, 9),
        (np.ones(4), 4, 4, 16),
    ]
    rng = np.random.default_rng(909)
    signals = 0
    worst = 0.0
    for window, hop, fft_size, t_len in cases:
        frame = gen_windowed_fourier(window, t_len, hop, fft_size)
        for _ in range(4):
            x = rng.standard_normal(t_len) + 1j * rng.standard_normal(t_len)
            direct = oracles.windowed_fourier_coefficients(window, hop, fft_size, x)
            dev = float(np.max(np.abs(analysis(frame, x) - direct)))
            worst = max(worst, dev)
            signals += 1
    ok = signals == 20 and worst <= 1e-10
    line = record_acceptance(
        9, ok, f"{signals} signals, max deviation {worst:.2e} from the double sum"
    )
    assert ok, line


def _run_cli(args, cwd):
    proc = subprocess.run(
        [sys.executable, "-m", "framephase", *args],
        capture_output=True,
        cwd=cwd,
        env=dict(os.environ),
    )
    return proc.returncode, proc.stdout, proc.stderr


# Exit codes that mean a command ran to a verdict (README exit-code table);
# 1 is an error, and reconstruct may end in 4 because the complex heuristic
# is not promised to succeed.
CLI_VERDICT_CODES = {
    "gen": {0},
    "measure": {0},
    "experiment": {0},
    "certify": {0, 2},
    "witness": {0, 2},
    "reconstruct": {0, 3, 4},
}


def test_acceptance_10_cli_byte_determinism(tmp_path):
    amb = tmp_path / "amb_frame.json"
    save_frame(Frame(REAL, np.eye(2)), amb)
    meas_in = tmp_path / "meas_complex_x.txt"
    meas_in.write_text("1+2j, -0.5\n")
    commands = [
        (["gen", "--field", "real", "--n", "3", "--m", "5", "--seed", "13",
          "--out", "r.json"], ["r.json"]),
        (["gen", "--field", "real", "--n", "2", "--m", "4", "--kind", "full-spark",
          "--seed", "13", "--out", "fs.json"], ["fs.json"]),
        (["gen", "--field", "real", "--n", "2", "--m", "4", "--kind", "repeated-tail",
          "--seed", "13", "--out", "rt.json"], ["rt.json"]),
        (["gen", "--field", "complex", "--n", "6", "--kind", "gabor", "--hop", "2",
          "--fft-size", "2", "--window", "1,0.5", "--out", "gab.json"], ["gab.json"]),
        (["gen", "--field", "complex", "--n", "2", "--m", "6", "--seed", "13",
          "--out", "c.json"], ["c.json"]),
        (["certify", "r.json"], []),
        (["certify", str(amb)], []),
        (["witness", str(amb)], []),
        (["measure", "r.json", "--x", "1,-0.25,2", "--out", "m.json"], ["m.json"]),
        (["measure", "c.json", "--x-file", str(meas_in), "--out", "cm.json"],
         ["cm.json"]),
        (["reconstruct", "r.json", "m.json"], []),
        (["reconstruct", "c.json", "cm.json", "--seed", "5", "--restarts", "10"], []),
        (["experiment", "--preset", "sharpness", "--trials", "4", "--seed", "3",
          "--out-dir", "reports"],
         [os.path.join("reports", "sharpness.json"), os.path.join("reports", "sharpness.csv")]),
    ]
    mismatches = []
    failed_runs = []
    for args, artifacts in commands:
        outputs = []
        for run in (0, 1):
            code, stdout, stderr = _run_cli(args, tmp_path)
            if run == 0 and code not in CLI_VERDICT_CODES[args[0]]:
                failed_runs.append(
                    f"`{' '.join(args)}` exited {code}, stderr: "
                    f"{stderr.decode(errors='replace').strip()!r}"
                )
                break
            blobs = [stdout]
            for artifact in artifacts:
                blobs.append((tmp_path / artifact).read_bytes())
            outputs.append((code, blobs))
        else:
            if outputs[0] != outputs[1]:
                mismatches.append(args[0])
    ok = not mismatches and not failed_runs
    line = record_acceptance(
        10, ok, f"{len(commands)} command invocations byte-identical on repeat, "
        f"{len(mismatches)} mismatches, {len(failed_runs)} failed runs"
    )
    assert ok, "\n".join([line, *failed_runs])
