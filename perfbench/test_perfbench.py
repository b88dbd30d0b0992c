"""The benchmark's own check: every workload, briefly, traced and untraced.

    python3 -m pytest perfbench/test_perfbench.py

Each run must print every metric BENCHMARK.json names, with its unit, and
fail no operation; the traced run's subset and node counts must equal the
counts read back from the results the benchmark received.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*BENCH["command"], "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


def parse(out: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert out.returncode == 0, out.stderr
    *_, record_line, result_line = out.stdout.strip().splitlines()
    return json.loads(record_line)["record"], json.loads(result_line)


def assert_metrics(result: dict, declared: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert isinstance(printed["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    record, result = parse(bench(workload, 0))
    assert_metrics(result, BENCH["end_to_end"])
    assert record["end_to_end"]["failed_frac"]["value"] == 0
    assert all(result["metrics"][m["name"]]["value"] > 0 for m in BENCH["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_counts_match_the_results(workload):
    record, result = parse(bench(workload, 1))
    assert_metrics(result, BENCH["per_layer"])
    metrics = result["metrics"]
    if workload != "cli":  # CLI results do not expose the experiments' inner calls
        recomputed = record["recomputed_from_results"]
        for name in ("injectivity.checked_subsets", "reconstruct.real.nodes"):
            assert metrics[name]["value"] == recomputed[name]
    busy = {"certify-threshold": "injectivity.checked_subsets",
            "certify-tall": "injectivity.checked_subsets",
            "recover": "reconstruct.real.nodes",
            "cli": "cli.import_ms"}[workload]
    assert metrics[busy]["value"] > 0


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
