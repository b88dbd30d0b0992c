"""framephase benchmark: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a framephase checkout; the package is imported from
its ``src`` directory, never from an installed copy. One client runs a
closed loop in one process: each operation (a library call, or one
``python -m framephase`` process for the ``cli`` workload) starts when the
previous one has finished and been checked. Outputs are checked on every
operation; a failed check or an exception counts one failed operation.

With ``--trace 0`` the loop cycles the workload's seeded inputs for S
seconds and reports the end-to-end metrics. With ``--trace 1`` it
alternates an untraced and a traced pass over a fixed prefix of the inputs
for S seconds and reports the per-layer metrics per pass, with the tracing
overhead as the traced passes' time minus the untraced ones'.

The last line of standard output is the result
``{"correct", "attempted", "failed", "metrics"}``; the line before it is the
run record (versions, operation counts, source line counts, every
end-to-end metric including ``failed_frac``, and a digest of the verdicts).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_SAMPLES = 7
TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile

# name -> unit; printed with --trace 0. failed_frac goes to the run record
# only: it is 0 on a correct program, and the result's "failed" carries it.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "recovered_frac": "ratio",
    "peak_rss_mb": "MB",
}

# name -> unit; printed with --trace 1, per pass of the traced run.
PER_LAYER = {
    "linalg.rank.calls": "count",
    "linalg.rank.self_ms": "ms",
    "linalg.rank.us_per_call": "us",
    "linalg.null_space.calls": "count",
    "linalg.null_space.self_ms": "ms",
    "linalg.least_squares.calls": "count",
    "linalg.least_squares.self_ms": "ms",
    "linalg.least_squares.us_per_call": "us",
    "frames.gen_random.self_ms": "ms",
    "frames.coefficient_range.calls": "count",
    "frames.coefficient_range.self_ms": "ms",
    "magnitude.magnitude_map.self_ms": "ms",
    "magnitude.canonical_ray.self_ms": "ms",
    "magnitude.ray_equal.self_ms": "ms",
    "injectivity.certify.self_ms": "ms",
    "injectivity.complement_property.calls": "count",
    "injectivity.complement_property.self_ms": "ms",
    "injectivity.checked_subsets": "count",
    "injectivity.us_per_subset": "us",
    "injectivity.witness_pair.self_ms": "ms",
    "injectivity.verify_witness.self_ms": "ms",
    "reconstruct.real.self_ms": "ms",
    "reconstruct.real.nodes": "count",
    "reconstruct.real.us_per_node": "us",
    "reconstruct.real.rays_per_node": "ratio",
    "reconstruct.complex.self_ms": "ms",
    "reconstruct.complex.restarts": "count",
    "reconstruct.complex.successes_per_restart": "ratio",
    "reconstruct.error_reduction.calls": "count",
    "reconstruct.error_reduction.sweeps": "count",
    "reconstruct.error_reduction.us_per_sweep": "us",
    "experiments.run_real_genericity.self_ms": "ms",
    "experiments.run_dense_interior_real.self_ms": "ms",
    "experiments.run_complex_genericity.self_ms": "ms",
    "experiments.run_equivalence_invariance.self_ms": "ms",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.command_ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.overhead_pct": "%",
}


@dataclass
class Tally:
    """Outcomes of the checked operations of one run."""

    latencies: list = field(default_factory=list)
    timed_items: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    recovered: int = 0
    child_rss_kb: int = 0
    counts: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)  # op index -> item:verdict
    errors: list = field(default_factory=list)
    op_items: dict = field(default_factory=dict)  # traced op id -> item

    def run(self, index: int, op, tracer=None, timed=True) -> None:
        """Run one operation, time the call alone, then check its output."""
        if tracer is not None:
            tracer.op_id += 1
            tracer.enabled = True
            self.op_items[tracer.op_id] = op.item
        started = perf_counter()
        try:
            result = op.call(tracer)
        except Exception as exc:  # a failed operation, not a failed run
            result, error = None, exc
        else:
            error = None
        elapsed = perf_counter() - started
        if tracer is not None:
            tracer.enabled = False
        self.attempted += 1
        if timed:
            self.latencies.append(elapsed)
            self.timed_items.append(op.item)
        self.child_rss_kb = max(self.child_rss_kb, getattr(result, "maxrss_kb", 0))
        if error is None:
            try:
                outcome = op.check(result)
            except Exception as exc:  # a malformed output fails its check
                error = exc
        if error is not None:
            self._fail(f"{op.item}: {type(error).__name__}: {error}")
            return
        if not outcome.ok:
            self._fail(f"{op.item}: wrong answer ({outcome.verdict})")
        self.recovered += outcome.recovered
        self.verdicts.setdefault(index, f"{op.item}:{outcome.verdict}")
        for key, value in outcome.counts.items():
            self.counts[key] = self.counts.get(key, 0) + value

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def digest(self) -> str:
        text = "\n".join(self.verdicts[i] for i in sorted(self.verdicts))
        return hashlib.sha256(text.encode()).hexdigest()


def tail(latencies: list) -> tuple[float, float]:
    """The time at the highest percentile with TAIL_BEYOND samples beyond
    it, and that percentile (the maximum when there are too few samples)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def throughput(items: list, latencies: list) -> float:
    """Operations per busy second at the workload's mix of items: one of
    each item, each at its median time over the whole run. Medians keep a
    burst of machine noise, and the few inputs on which complex recovery
    spends all its restarts, from moving the figure between runs; those
    show in latency_tail_ms. Each item counts once, so a run that stops
    mid-round is not skewed towards the items it reached."""
    per_item: dict = {}
    for item, seconds in zip(items, latencies):
        per_item.setdefault(item, []).append(seconds)
    return len(per_item) / sum(statistics.median(v) for v in per_item.values())


def probe_setup(workload: str, seed: int, env: dict, workdir: Path) -> float:
    """Seconds one fresh interpreter takes to import framephase and build
    the workload's inputs."""
    workdir.mkdir(parents=True)
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(workdir)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def timed_run(workloads, name: str, ctx, seconds: float, setup: list) -> tuple:
    spec = workloads.WORKLOADS[name]
    ops = workloads.build(name, ctx, spec.rounds)
    tally = Tally()
    start_index = 0
    if spec.in_process:
        # One untimed round lets lazy initialisation finish before timing.
        start_index = len(spec.items)
        for i in range(start_index):
            tally.run(i, ops[i], timed=False)
    i = start_index
    started = perf_counter()
    while True:
        tally.run(i % len(ops), ops[i % len(ops)])
        i += 1
        if perf_counter() - started >= seconds:
            break
    lat = tally.latencies
    tail_s, tail_pct = tail(lat)
    ops_per_s = throughput(tally.timed_items, lat)
    if spec.in_process:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = tally.child_rss_kb
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": ops_per_s,
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "recovered_frac": tally.recovered / tally.attempted,
        "peak_rss_mb": rss_kb / 1024.0,
    }
    record = {
        "timed_ops": len(lat),
        "tail_percentile": tail_pct,
        "tail_samples": len(lat),
        "setup_samples_s": setup,
        "end_to_end": {
            **{k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()},
            "failed_frac": {"value": tally.failed / tally.attempted, "unit": "ratio"},
        },
    }
    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    return metrics, record, tally


def traced_run(workloads, tracing, name: str, ctx, seconds: float) -> tuple:
    spec = workloads.WORKLOADS[name]
    tracer = tracing.Tracer()
    tally = Tally()  # every operation of both passes is checked
    traced = Tally()  # counts read back from results in the traced passes
    untraced_s = traced_s = 0.0
    pairs = 0
    started = perf_counter()
    while pairs == 0 or perf_counter() - started < seconds:
        t0 = perf_counter()
        ops = workloads.build(name, ctx, spec.trace_rounds)
        for i, op in enumerate(ops):
            tally.run(i, op, timed=False)
        t1 = perf_counter()
        restore = tracer.install()
        try:
            tracer.op_id += 1
            tracer.enabled = True  # input generation is traced as its own op
            ops = workloads.build(name, ctx, spec.trace_rounds)
            tracer.enabled = False
            for i, op in enumerate(ops):
                traced.run(i, op, tracer, timed=False)
        finally:
            restore()
        t2 = perf_counter()
        untraced_s += t1 - t0
        traced_s += t2 - t1
        pairs += 1
    tally.attempted += traced.attempted
    tally.failed += traced.failed
    tally.errors += traced.errors
    values = layer_metrics(tracer, pairs, untraced_s, traced_s)
    spans_file = write_spans(tracer, name)
    record = {
        "pairs": pairs,
        "ops_per_pass": len(ops),
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "spans": len(tracer.columns["span"]),
        "spans_file": str(spans_file.relative_to(ROOT)),
        "per_item_ms": root_spans_per_item(tracer, traced.op_items),
        "recomputed_from_results": {
            "injectivity.checked_subsets": traced.counts.get("checked_subsets", 0) / pairs,
            "reconstruct.real.nodes": traced.counts.get("real_nodes", 0) / pairs,
        },
    }
    metrics = {k: {"value": v, "unit": PER_LAYER[k]} for k, v in values.items()}
    return metrics, record, tally


def layer_metrics(tr, pairs: int, untraced_s: float, traced_s: float) -> dict:
    """Per-layer metrics per pass from the tracer's aggregates."""

    def calls(span: str) -> float:
        return tr.calls[span] / pairs

    def self_ms(span: str) -> float:
        return tr.self_s[span] * 1e3 / pairs

    def per(total: float, count: float, scale: float) -> float:
        return total * scale / count if count else 0.0

    def incl_us_per(span: str, count: float) -> float:
        return per(tr.incl_s[span], count, 1e6)

    def mean_ms(span: str) -> float:
        return per(tr.incl_s[span], tr.calls[span], 1e3)

    c = tr.counts
    values = {
        "linalg.rank.calls": calls("linalg.rank"),
        "linalg.rank.self_ms": self_ms("linalg.rank"),
        "linalg.rank.us_per_call": incl_us_per("linalg.rank", tr.calls["linalg.rank"]),
        "linalg.null_space.calls": calls("linalg.null_space"),
        "linalg.null_space.self_ms": self_ms("linalg.null_space"),
        "linalg.least_squares.calls": calls("linalg.least_squares"),
        "linalg.least_squares.self_ms": self_ms("linalg.least_squares"),
        "linalg.least_squares.us_per_call": incl_us_per(
            "linalg.least_squares", tr.calls["linalg.least_squares"]
        ),
        "frames.gen_random.self_ms": self_ms("frames.gen_random"),
        "frames.coefficient_range.calls": calls("frames.coefficient_range"),
        "frames.coefficient_range.self_ms": self_ms("frames.coefficient_range"),
        "magnitude.magnitude_map.self_ms": self_ms("magnitude.magnitude_map"),
        "magnitude.canonical_ray.self_ms": self_ms("magnitude.canonical_ray"),
        "magnitude.ray_equal.self_ms": self_ms("magnitude.ray_equal"),
        "injectivity.certify.self_ms": self_ms("injectivity.certify"),
        "injectivity.complement_property.calls": calls("injectivity.complement_property"),
        "injectivity.complement_property.self_ms": self_ms("injectivity.complement_property"),
        "injectivity.checked_subsets": c["checked_subsets"] / pairs,
        "injectivity.us_per_subset": incl_us_per(
            "injectivity.complement_property", c["complement_property.subsets"]
        ),
        "injectivity.witness_pair.self_ms": self_ms("injectivity.witness_pair"),
        "injectivity.verify_witness.self_ms": self_ms("injectivity.verify_witness"),
        "reconstruct.real.self_ms": self_ms("reconstruct.reconstruct_real"),
        "reconstruct.real.nodes": c["real.nodes"] / pairs,
        "reconstruct.real.us_per_node": incl_us_per("reconstruct.reconstruct_real", c["real.nodes"]),
        "reconstruct.real.rays_per_node": per(c["real.rays"], c["real.nodes"], 1.0),
        "reconstruct.complex.self_ms": self_ms("reconstruct.reconstruct_complex"),
        "reconstruct.complex.restarts": c["complex.restarts"] / pairs,
        "reconstruct.complex.successes_per_restart": per(
            c["complex.successes"], c["complex.restarts"], 1.0
        ),
        "reconstruct.error_reduction.calls": calls("reconstruct.error_reduction"),
        "reconstruct.error_reduction.sweeps": c["error_reduction.sweeps"] / pairs,
        "reconstruct.error_reduction.us_per_sweep": incl_us_per(
            "reconstruct.error_reduction", c["error_reduction.sweeps"]
        ),
        "cli.interpreter_ms": mean_ms("cli.interpreter"),
        "cli.import_ms": mean_ms("cli.import"),
        "cli.command_ms": mean_ms("cli.main"),
        "trace.overhead_ms": (traced_s - untraced_s) * 1e3 / pairs,
        "trace.overhead_pct": 100.0 * (traced_s - untraced_s) / untraced_s,
    }
    for preset in ("real_genericity", "dense_interior_real", "complex_genericity",
                   "equivalence_invariance"):
        values[f"experiments.run_{preset}.self_ms"] = self_ms(f"experiments.run_{preset}")
    return {k: values[k] for k in PER_LAYER}


def root_spans_per_item(tracer, op_items: dict) -> dict:
    """Mean milliseconds per operation of each top-level span, by item."""
    cols = tracer.columns
    sums: dict = {}
    for i in range(len(cols["span"])):
        item = op_items.get(cols["op"][i])
        if item is None or cols["parent"][i] != -1:
            continue
        name = tracer.names[cols["name"][i]]
        per_item = sums.setdefault(item, {})
        per_item[name] = per_item.get(name, 0.0) + (cols["end"][i] - cols["start"][i]) * 1e3
    ops = {}
    for item in op_items.values():
        ops[item] = ops.get(item, 0) + 1
    return {
        item: {name: total / ops[item] for name, total in spans.items()}
        for item, spans in sums.items()
    }


def write_spans(tracer, name: str) -> Path:
    """Write the traced run's spans as columns of one .npz file."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{name}.npz"
    columns = {key: np.asarray(col) for key, col in tracer.columns.items()}
    np.savez(path, names=np.array(tracer.names), **columns)
    return path


def run_record(args, tally) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    modules = sorted((SRC / "framephase").glob("*.py"))
    lines = {p.stem: len(p.read_text(encoding="utf-8").splitlines()) for p in modules}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors,
        "verdict_digest": tally.digest(),
        "digest_ops": len(tally.verdicts),
        "src_lines": lines,
        "src_lines_total": sum(lines.values()),
    }


def child_env() -> dict:
    """The environment for child interpreters: the absolute src path first,
    so they import this checkout's package from any working directory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "framephase" / "__init__.py").is_file():
        print(f"error: no framephase package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import framephase
    import tracing
    import workloads

    if not Path(framephase.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported framephase from {framephase.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    env = child_env()
    work = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        setup = []
        if not args.trace:
            for k in range(SETUP_SAMPLES):
                setup.append(probe_setup(args.workload, args.seed, env, work / f"probe{k}"))
        ctx = workloads.Context(args.seed, work / "run", env)
        ctx.workdir.mkdir()
        if args.trace:
            metrics, extra, tally = traced_run(workloads, tracing, args.workload, ctx, args.seconds)
        else:
            metrics, extra, tally = timed_run(workloads, args.workload, ctx, args.seconds, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()
    record = {**run_record(args, tally), **extra}
    print(json.dumps({"record": record}))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
