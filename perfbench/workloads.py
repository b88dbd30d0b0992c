"""The benchmark's workloads: seeded inputs, the library call or CLI
command each operation makes, and the check of its output.

A workload is a tuple of items. Round ``r`` of a workload draws one input
per item from ``default_rng([seed, item index, r])``, so the inputs depend
only on the seed and a longer pool extends a shorter one. Operations run
round by round, which keeps the mix of items the same in any stretch of
the loop.

The checks use their own magnitude and ray arithmetic rather than the
library's, except ``verify_witness``, which the certificate contract names.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import framephase as fp

LAUNCHER = Path(__file__).resolve().parent / "cli_launcher.py"
REL = 1e-6  # tolerance of the checks, relative to the norms involved
CLI_TIMEOUT_S = 120.0
CSV_HEADER = b"field,N,M,trials,inj_rate,rec_rate,mean_ms,seed"
RESTARTS, MAX_ITERS = 20, 500  # the CLI defaults for complex recovery


@dataclass(frozen=True)
class Outcome:
    """The check of one operation.

    ok: the output is correct. recovered: the planted answer came back
    (the planted ray, or the verdict or exit status the input was built
    for). verdict: the short answer that enters the run's digest. counts:
    work counts read back from the result, to cross-check the trace.
    """

    ok: bool
    recovered: bool
    verdict: str
    counts: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Op:
    item: str
    call: Callable  # call(tracer or None) -> result
    check: Callable  # check(result) -> Outcome


@dataclass
class Context:
    seed: int
    workdir: Path
    env: dict
    seen: dict = field(default_factory=dict)  # CLI item -> outputs of its first run


@dataclass(frozen=True)
class Workload:
    items: tuple  # (label, make) with make(rng, ctx) -> (call, check)
    rounds: int  # rounds of inputs for the timed loop
    trace_rounds: int  # rounds in one pass of the traced run
    in_process: bool


# ---------------------------------------------------------------------------
# Independent arithmetic for the checks


def _magnitudes(frame, x) -> np.ndarray:
    return np.abs(np.conj(frame.vectors) @ x)


def _reproduces(frame, ray, a) -> bool:
    scale = 1.0 + float(np.linalg.norm(a))
    return float(np.linalg.norm(_magnitudes(frame, ray) - a)) <= REL * scale


def _same_ray(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    if np.iscomplexobj(x) or np.iscomplexobj(y):
        ip = np.vdot(y, x)
        c = ip / abs(ip) if abs(ip) > 0.0 else 1.0
        dist = float(np.linalg.norm(x - c * y))
    else:
        dist = min(float(np.linalg.norm(x - y)), float(np.linalg.norm(x + y)))
    return dist <= REL * max(float(np.linalg.norm(x)), 1.0)


def _is_witness(frame, pair) -> bool:
    if pair is None:
        return False
    x, y = pair
    same_magnitudes = _reproduces(frame, y, _magnitudes(frame, x))
    return same_magnitudes and not _same_ray(x, y) and fp.verify_witness(frame, x, y)


def _complex_normal(rng, n: int) -> np.ndarray:
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


# ---------------------------------------------------------------------------
# In-process items


def _certify(field_: str, n: int, m: int, expect: str):
    """certify on a random frame; expect "witness" means a verified
    not_injective certificate, any other value is the expected verdict."""

    def make(rng, ctx):
        frame = fp.gen_random(field_, n, m, rng)

        def check(cert) -> Outcome:
            if expect == "witness":
                ok = cert.verdict == fp.VERDICT_NOT_INJECTIVE and _is_witness(
                    frame, cert.witness
                )
            else:
                ok = cert.verdict == expect
            return Outcome(ok, ok, cert.verdict, {"checked_subsets": cert.checked_subsets})

        return (lambda tracer: fp.certify(frame)), check

    return make


def _real_planted(n: int, m: int, unique: bool):
    """reconstruct_real on magnitudes of a planted random signal."""

    def make(rng, ctx):
        frame = fp.gen_random(fp.REAL, n, m, rng)
        x = rng.standard_normal(n)
        a = _magnitudes(frame, x)

        def check(res) -> Outcome:
            found = any(_same_ray(r, x) for r in res.rays)
            if unique:
                status_ok = res.status == fp.STATUS_UNIQUE
            else:
                status_ok = res.status in (fp.STATUS_UNIQUE, fp.STATUS_AMBIGUOUS)
            ok = status_ok and found and all(_reproduces(frame, r, a) for r in res.rays)
            return Outcome(ok, ok, res.status, {"real_nodes": res.patterns_explored})

        return (lambda tracer: fp.reconstruct_real(frame, a)), check

    return make


def _real_ambiguous(n: int):
    """reconstruct_real on the magnitudes of an M = 2N-2 witness: both
    witness rays must come back."""
    m = 2 * n - 2

    def make(rng, ctx):
        frame = fp.gen_random(fp.REAL, n, m, rng)
        x, y = fp.witness_pair(frame, fp.SignPattern.from_indices(range(n - 1), m))
        a = _magnitudes(frame, x)

        def check(res) -> Outcome:
            found = all(any(_same_ray(r, w) for r in res.rays) for w in (x, y))
            ok = (
                res.status == fp.STATUS_AMBIGUOUS
                and found
                and all(_reproduces(frame, r, a) for r in res.rays)
            )
            return Outcome(ok, ok, res.status, {"real_nodes": res.patterns_explored})

        return (lambda tracer: fp.reconstruct_real(frame, a)), check

    return make


def _real_inconsistent(n: int, m: int):
    """reconstruct_real on random magnitudes that no signal produces."""

    def make(rng, ctx):
        frame = fp.gen_random(fp.REAL, n, m, rng)
        a = np.abs(rng.standard_normal(m)) * np.sqrt(n)

        def check(res) -> Outcome:
            ok = res.status == fp.STATUS_NO_SOLUTION and not res.rays
            return Outcome(ok, ok, res.status, {"real_nodes": res.patterns_explored})

        return (lambda tracer: fp.reconstruct_real(frame, a)), check

    return make


def _complex_planted(*sizes):
    """reconstruct_complex at the CLI defaults on a planted signal, with
    (N, M) drawn from sizes. A heuristic failure is an allowed answer that
    recovers nothing."""

    def make(rng, ctx):
        n, m = sizes[rng.integers(len(sizes))]
        frame = fp.gen_random(fp.COMPLEX, n, m, rng)
        x = _complex_normal(rng, n)
        a = _magnitudes(frame, x)
        restart_seed = int(rng.integers(2**31))

        def call(tracer):
            return fp.reconstruct_complex(
                frame, a, restarts=RESTARTS, max_iters=MAX_ITERS, seed=restart_seed
            )

        def check(res) -> Outcome:
            if res.status == fp.STATUS_HEURISTIC_SUCCESS:
                ok = len(res.rays) == 1 and _reproduces(frame, res.rays[0], a)
                recovered = ok and _same_ray(res.rays[0], x)
            else:
                ok = res.status == fp.STATUS_HEURISTIC_FAIL and not res.rays
                recovered = False
            return Outcome(ok, recovered, res.status)

        return call, check

    return make


# ---------------------------------------------------------------------------
# CLI items: one fresh `python -m framephase` process per operation


@dataclass(frozen=True)
class CliRun:
    code: int
    stdout: bytes
    maxrss_kb: int


def run_cli(ctx: Context, argv: list, tracer=None) -> CliRun:
    """Run one command in a fresh interpreter and reap it with its resource
    usage. With a tracer, the command runs under the benchmark's launcher
    and its spans join the tracer."""
    stdout_path = ctx.workdir / "stdout.txt"
    if tracer is None:
        cmd = [sys.executable, "-m", "framephase", *argv]
    else:
        spans_path = ctx.workdir / "spans.json"
        cmd = [sys.executable, str(LAUNCHER), str(spans_path), *argv]
    with open(stdout_path, "wb") as out, open(ctx.workdir / "stderr.txt", "wb") as err:
        spawned = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ctx.workdir, env=ctx.env, stdout=out, stderr=err)
        watchdog = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    if tracer is not None:
        dump = json.loads(spans_path.read_text(encoding="utf-8"))
        tracer.add_span("cli.interpreter", spawned, dump["started"])
        tracer.merge(dump)
    return CliRun(proc.returncode, stdout_path.read_bytes(), usage.ru_maxrss)


def _decode(vector) -> np.ndarray:
    return np.array([complex(*v) if isinstance(v, list) else v for v in vector])


def _cli(label: str, codes: tuple, json_out: bool, outputs: tuple, prepare):
    """A CLI item. prepare(rng, seed, path) writes the inputs and returns
    (argv, judge); path(name) is a file in the item's own directory. The
    exit code must be in codes; stdout must be one JSON document when
    json_out (or empty on exit 1 or 2) and empty otherwise; the named output
    files must exist; judge(doc, files, code) -> (ok, recovered) checks the
    content. Every repeat must give byte-identical stdout and output files."""

    def make(rng, ctx):
        base = ctx.workdir / "items" / label
        base.mkdir(parents=True, exist_ok=True)

        def path(name: str) -> str:
            return str(base / name)

        argv, judge = prepare(rng, ctx.seed, path)

        def check(run: CliRun) -> Outcome:
            doc = json.loads(run.stdout) if json_out and run.stdout else None
            if json_out:
                shape_ok = doc is not None or run.code in (1, 2)
            else:
                shape_ok = not run.stdout
            ok = run.code in codes and shape_ok
            files = {name: (base / name).read_bytes() for name in outputs}
            recovered = ok
            if ok and judge is not None:
                ok, recovered = judge(doc, files, run.code)
            first = ctx.seen.setdefault(label, (run.stdout, files))
            ok = ok and first == (run.stdout, files)
            verdict = str(run.code)
            if doc is not None:
                verdict += ":" + str(doc.get("verdict", doc.get("status")))
            return Outcome(ok, ok and recovered, verdict)

        return (lambda tracer: run_cli(ctx, argv, tracer)), check

    return label, make


def _gen(kind: str, m: int):
    def prepare(rng, seed, path):
        def judge(doc, files, code):
            ok = len(json.loads(files["frame.json"])["vectors"]) == m
            return ok, ok

        argv = ["gen", "--field", "real", "--kind", kind, "--n", "3", "--m", str(m),
                "--seed", str(seed), "--out", path("frame.json")]
        return argv, judge

    return prepare


def _saved_frame(rng, path, field_: str, n: int, m: int):
    frame = fp.gen_random(field_, n, m, rng)
    fp.save_frame(frame, path("frame.json"))
    return frame


def _certify_cli(field_: str, n: int, m: int, verdict: str):
    def prepare(rng, seed, path):
        frame = _saved_frame(rng, path, field_, n, m)

        def judge(doc, files, code):
            ok = doc["verdict"] == verdict
            if verdict == fp.VERDICT_NOT_INJECTIVE:
                w = doc["witness"]
                ok = ok and _is_witness(frame, (_decode(w["x"]), _decode(w["y"])))
            return ok, ok

        return ["certify", path("frame.json")], judge

    return prepare


def _witness_cli(n: int, m: int):
    def prepare(rng, seed, path):
        frame = _saved_frame(rng, path, fp.REAL, n, m)

        def judge(doc, files, code):
            if code == 2:
                ok = doc is None and m >= 2 * n - 1
            else:
                w = doc["witness"]
                ok = _is_witness(frame, (_decode(w["x"]), _decode(w["y"])))
            return ok, ok

        return ["witness", path("frame.json")], judge

    return prepare


def _measure_cli(rng, seed, path):
    frame = _saved_frame(rng, path, fp.REAL, 3, 5)
    x = rng.standard_normal(3)

    def judge(doc, files, code):
        a = np.array(json.loads(files["meas.json"])["magnitudes"])
        ok = _reproduces(frame, x, a)
        return ok, ok

    # "--x=" because argparse reads a value such as "-1.2,0.3" as an option.
    text = ",".join(repr(float(v)) for v in x)
    return ["measure", path("frame.json"), f"--x={text}", "--out", path("meas.json")], judge


def _reconstruct_cli(kind: str):
    """reconstruct on planted magnitudes: "unique" (real, M = 2N-1),
    "ambiguous" (real, an M = 2N-2 witness), "inconsistent" (real, random
    magnitudes) or "complex" (M = 4N-2, heuristic)."""

    def prepare(rng, seed, path):
        if kind == "complex":
            frame = _saved_frame(rng, path, fp.COMPLEX, 2, 6)
            planted = [_complex_normal(rng, 2)]
            a = _magnitudes(frame, planted[0])
        elif kind == "ambiguous":
            frame = _saved_frame(rng, path, fp.REAL, 3, 4)
            planted = fp.witness_pair(frame, fp.SignPattern.from_indices(range(2), 4))
            a = _magnitudes(frame, planted[0])
        else:
            frame = _saved_frame(rng, path, fp.REAL, 3, 5)
            planted = [rng.standard_normal(3)]
            a = _magnitudes(frame, planted[0])
            if kind == "inconsistent":
                planted = []
                a = np.abs(rng.standard_normal(5)) * np.sqrt(3)
        fp.save_measurement(a, path("meas.json"))

        def judge(doc, files, code):
            rays = [_decode(r) for r in doc["rays"]]
            ok = all(_reproduces(frame, r, a) for r in rays)
            found = all(any(_same_ray(r, p) for r in rays) for p in planted)
            if kind == "complex":
                return ok, ok and code == 0 and found
            ok = ok and found and (kind != "inconsistent" or not rays)
            return ok, ok

        return ["reconstruct", path("frame.json"), path("meas.json"), "--seed", str(seed)], judge

    return prepare


def _experiment(preset: str, *extra: str):
    """An experiment preset item; its report files must parse and carry the
    README's CSV header."""

    def prepare(rng, seed, path):
        def judge(doc, files, code):
            json.loads(files[f"{preset}.json"])
            ok = files[f"{preset}.csv"].splitlines()[0] == CSV_HEADER
            return ok, ok

        out_dir = os.path.dirname(path(f"{preset}.json"))
        argv = ["experiment", "--preset", preset, "--seed", str(seed), "--out-dir", out_dir]
        return argv + list(extra), judge

    outputs = (f"{preset}.json", f"{preset}.csv")
    return _cli(f"experiment-{preset}", (0,), False, outputs, prepare)


def _missing_file(rng, seed, path):
    return ["certify", path("missing.json")], None


def _plain_cli_items(suffix: str) -> list:
    """The commands other than experiment; exit codes follow the README
    table (certify 0/2, reconstruct 0/3/4, witness 0/2, 1 on errors)."""
    return [
        _cli("gen-random" + suffix, (0,), False, ("frame.json",), _gen("random", 5)),
        _cli("certify-injective" + suffix, (0,), True, (),
             _certify_cli(fp.REAL, 3, 5, fp.VERDICT_INJECTIVE)),
        _cli("measure" + suffix, (0,), False, ("meas.json",), _measure_cli),
        _cli("certify-sharp" + suffix, (2,), True, (),
             _certify_cli(fp.REAL, 3, 4, fp.VERDICT_NOT_INJECTIVE)),
        _cli("reconstruct-unique" + suffix, (0,), True, (), _reconstruct_cli("unique")),
        _cli("witness-sharp" + suffix, (0,), True, (), _witness_cli(3, 4)),
        _cli("witness-injective" + suffix, (2,), True, (), _witness_cli(3, 5)),
        _cli("certify-complex-2n-1" + suffix, (2,), True, (),
             _certify_cli(fp.COMPLEX, 2, 3, fp.VERDICT_NOT_INJECTIVE)),
        _cli("reconstruct-ambiguous" + suffix, (3,), True, (), _reconstruct_cli("ambiguous")),
        _cli("gen-full-spark" + suffix, (0,), False, ("frame.json",), _gen("full-spark", 6)),
        _cli("reconstruct-complex" + suffix, (0, 4), True, (), _reconstruct_cli("complex")),
        _cli("certify-complex-4n-2" + suffix, (0,), True, (),
             _certify_cli(fp.COMPLEX, 2, 6, fp.VERDICT_NECESSARY)),
        _cli("reconstruct-inconsistent" + suffix, (4,), True, (),
             _reconstruct_cli("inconsistent")),
        _cli("certify-missing-file" + suffix, (1,), True, (), _missing_file),
    ]


# Each plain command runs twice per round on its own inputs, with the five
# presets spread between them: about 15% of operations are presets, so
# that the median and the tail of a 25-second run (about 40 operations,
# tail near the 75th percentile) both fall among plain commands. Sharpness, the
# cheapest preset, comes first so that a report repeats within a run.
_PLAIN_A, _PLAIN_B = _plain_cli_items("-a"), _plain_cli_items("-b")
CLI_ITEMS = (
    _experiment("sharpness"),
    *_PLAIN_A[:7],
    _experiment("real-genericity"),
    *_PLAIN_A[7:],
    _experiment("dense-interior"),
    *_PLAIN_B[:7],
    _experiment("equivalence"),
    *_PLAIN_B[7:],
    _experiment("complex", "--trials", "5"),
)


# ---------------------------------------------------------------------------
# The workloads

_INJ, _NEC, _WIT = fp.VERDICT_INJECTIVE, fp.VERDICT_NECESSARY, "witness"

WORKLOADS = {
    # The paper's main case: frames at the injectivity threshold.
    "certify-threshold": Workload(
        items=tuple(
            [(f"real-2n-1-n{n}", _certify(fp.REAL, n, 2 * n - 1, _INJ)) for n in (5, 6, 7)]
            + [(f"real-2n-2-n{n}", _certify(fp.REAL, n, 2 * n - 2, _WIT)) for n in (5, 6, 7)]
            + [(f"complex-2n-1-n{n}", _certify(fp.COMPLEX, n, 2 * n - 1, _WIT))
               for n in (2, 3, 4, 5)]
            + [(f"complex-4n-2-n{n}", _certify(fp.COMPLEX, n, 4 * n - 2, _NEC))
               for n in (2, 3, 4)]
        ),
        rounds=48,
        trace_rounds=3,
        in_process=True,
    ),
    # Few dimensions, many vectors: 2^(M-1) splits against C(M, N-1) flats.
    # Each M in 12-14 is one cost level with N = 3 and 4, so that the
    # median falls in the middle of the M = 13 level, not at an edge.
    "certify-tall": Workload(
        items=tuple(
            (f"real-n{n}-m{m}", _certify(fp.REAL, n, m, _INJ))
            for m in (12, 13, 14)
            for n in (3, 4)
        ),
        rounds=48,
        trace_rounds=3,
        in_process=True,
    ),
    # The real sign search (full search, ambiguity, early prune) and complex
    # restarts. Restart counts vary so much between inputs that complex gets
    # about a third of the time, not half: more made ops_per_s spread widely
    # between seeds. The cheap complex cells share items, one size per
    # input, so that the median falls inside the ~14 ms real items.
    # (2, 4) is both an M = 2N and an M = N^2 cell.
    "recover": Workload(
        items=(
            ("real-unique-n8", _real_planted(8, 15, True)),
            ("complex-2n-n3-a", _complex_planted((3, 6))),
            ("real-unique-n9", _real_planted(9, 17, True)),
            ("complex-4n-2", _complex_planted((2, 6), (3, 10), (4, 14))),
            ("real-unique-n10", _real_planted(10, 19, True)),
            ("complex-2n-n2", _complex_planted((2, 4))),
            ("real-dense-n7", _real_planted(7, 11, False)),
            ("complex-square", _complex_planted((3, 9), (4, 16))),
            ("real-ambiguous-n7", _real_ambiguous(7)),
            ("complex-2n-n3-b", _complex_planted((3, 6))),
            ("real-inconsistent-n8", _real_inconsistent(8, 15)),
        ),
        rounds=48,
        trace_rounds=8,
        in_process=True,
    ),
    # One fresh process per command, as a user runs it.
    "cli": Workload(items=CLI_ITEMS, rounds=1, trace_rounds=1, in_process=False),
}


def build(name: str, ctx: Context, rounds: int) -> list:
    """The operations of ``rounds`` rounds of a workload, round by round."""
    items = WORKLOADS[name].items
    ops = []
    for r in range(rounds):
        for i, (label, make) in enumerate(items):
            call, check = make(np.random.default_rng([ctx.seed, i, r]), ctx)
            ops.append(Op(label, call, check))
    return ops
