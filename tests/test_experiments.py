import json

import numpy as np
import pytest

from framephase import cli, experiments
from framephase.frames import REAL, decode_vector, gen_random
from framephase.experiments import (
    CSV_HEADER,
    CellResult,
    ExperimentConfig,
    ExperimentReport,
    run_complex_genericity,
    run_dense_interior_real,
    run_equivalence_invariance,
    run_real_genericity,
    write_report_csv,
    write_report_json,
)
from framephase.injectivity import verify_witness
from framephase.magnitude import ray_equal

import oracles


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig((), "2n-1", 1)
    with pytest.raises(ValueError, match="m_rule must be one of"):
        ExperimentConfig((2,), "3n", 1)
    with pytest.raises(ValueError):
        ExperimentConfig((2,), "2n-1", -1)
    # The config is the grid, the trial count and the seed; nothing else.
    assert list(ExperimentConfig((2,), "2n-1", 1).to_dict()) == [
        "n_values", "m_rule", "trials", "seed"
    ]


@pytest.mark.parametrize("preset", sorted(cli.PRESETS))
def test_preset_report_is_reproducible_from_its_written_config(preset, tmp_path):
    # A report file's config, read back, rebuilds the run: the same harness
    # given ExperimentConfig(**config) writes the same bytes.
    harness_name, n_values, m_rule, _ = cli.PRESETS[preset]
    harness = getattr(experiments, harness_name)
    report = harness(ExperimentConfig(n_values, m_rule, trials=2, seed=3))
    first_json, first_csv = tmp_path / "a.json", tmp_path / "a.csv"
    write_report_json(report, first_json)
    write_report_csv(report, first_csv)
    config = json.loads(first_json.read_text())["config"]
    rebuilt = ExperimentConfig(**{**config, "n_values": tuple(config["n_values"])})
    again = harness(rebuilt)
    again_json, again_csv = tmp_path / "b.json", tmp_path / "b.csv"
    write_report_json(again, again_json)
    write_report_csv(again, again_csv)
    assert again_json.read_bytes() == first_json.read_bytes()
    assert again_csv.read_bytes() == first_csv.read_bytes()


@pytest.mark.parametrize(
    "rule, cells",
    [
        ("2n-1", [(2, 3), (3, 5)]),
        ("2n-2", [(2, 2), (3, 4)]),
        # The grid goes N-major: each N with all the Ms of its rule.
        ("both", [(2, 3), (2, 2), (3, 5), (3, 4)]),
    ],
)
def test_complex_harness_runs_the_cells_its_rule_gives(rule, cells):
    # Below M = 2N every cell is a size obstruction with verified witnesses.
    report = run_complex_genericity(ExperimentConfig((2, 3), rule, trials=3, seed=4))
    assert [(c.n, c.m) for c in report.cells] == cells
    for cell in report.cells:
        assert cell.inj_rate == 0.0 and cell.rec_rate is None
        assert cell.extras == {"size_check_fail_rate": 1.0, "witness_verified_rate": 1.0}


def test_real_genericity_rates():
    cfg = ExperimentConfig((2, 3), "both", trials=5, seed=0)
    report = run_real_genericity(cfg)
    assert len(report.cells) == 4
    by_key = {(c.n, c.m): c for c in report.cells}
    for n in (2, 3):
        assert by_key[(n, 2 * n - 1)].inj_rate == 1.0
        sharp = by_key[(n, 2 * n - 2)]
        assert sharp.inj_rate == 0.0
        assert sharp.extras["not_injective_verified_rate"] == 1.0
    assert all(c.seed == 0 and c.trials == 5 for c in report.cells)
    assert all(c.mean_ms is not None and c.mean_ms >= 0 for c in report.cells)


def test_real_genericity_zero_trials_is_empty():
    cfg = ExperimentConfig((2,), "2n-1", trials=0)
    assert run_real_genericity(cfg).cells == []


@pytest.mark.parametrize("harness", ["dense-interior", "complex", "equivalence"])
def test_zero_trials_is_empty(harness):
    # The real-genericity harness is covered by the test above.
    if harness == "dense-interior":
        cfg = ExperimentConfig((3,), "2n-2", trials=0)
        report = run_dense_interior_real(cfg)
        # No cell, but the constructed ambiguities do not depend on trials.
        assert len(report.witnesses) == 10
        assert all(w["verdict"] == "not_injective" and w["witness"] for w in report.witnesses)
    elif harness == "complex":
        report = run_complex_genericity(ExperimentConfig((2, 3), "all", trials=0))
    else:
        report = run_equivalence_invariance(ExperimentConfig((3,), "both", trials=0))
    assert report.cells == []
    assert report.config["trials"] == 0


def test_real_genericity_validation():
    with pytest.raises(ValueError, match="m_rule must be one of"):
        run_real_genericity(ExperimentConfig((2,), "4n-2", 1))
    with pytest.raises(ValueError, match="needs larger N"):  # M = 0 at N = 1
        run_real_genericity(ExperimentConfig((1,), "2n-2", 1))


def test_real_genericity_deterministic():
    cfg = ExperimentConfig((3,), "2n-2", trials=4, seed=7)
    a = run_real_genericity(cfg)
    b = run_real_genericity(cfg)
    assert [(c.inj_rate, c.extras) for c in a.cells] == [
        (c.inj_rate, c.extras) for c in b.cells
    ]


def test_dense_interior_preconditions():
    with pytest.raises(ValueError):  # M = 2N-1 is out of range
        run_dense_interior_real(ExperimentConfig((3,), "2n-1", 1))
    with pytest.raises(ValueError):  # M = N is out of range
        run_dense_interior_real(ExperimentConfig((2,), "2n-2", 1))
    with pytest.raises(ValueError, match="trials must be >= 0"):
        run_dense_interior_real(ExperimentConfig((3,), "2n-2", -5))


def test_dense_interior_run():
    cfg = ExperimentConfig((3,), "2n-2", trials=20, seed=1)
    report = run_dense_interior_real(cfg)
    cell = report.cells[0]
    assert cell.rec_rate >= 0.9
    assert cell.extras["constructed_cases"] == 10.0
    assert cell.extras["constructed_verified"] == 10.0
    assert len(report.witnesses) == 10
    for case, w in enumerate(report.witnesses):
        frame = gen_random(REAL, 3, 4, np.random.default_rng([1, 3, 4, 3, case]))
        x, y = (decode_vector(w["witness"][k], REAL) for k in ("x", "y"))
        assert verify_witness(frame, x, y)
        assert not ray_equal(x, y)
        # Neither side of the failing split spans, by an independent rank.
        subset = w["failing_subset"]
        rest = [i for i in range(4) if i not in subset]
        assert not oracles.spans(frame.vectors, subset)
        assert not oracles.spans(frame.vectors, rest)


def test_complex_genericity_run():
    cfg = ExperimentConfig((2,), "all", trials=4, seed=0)
    report = run_complex_genericity(cfg)
    by_m = {c.m: c for c in report.cells}
    assert set(by_m) == {3, 4, 6}
    assert by_m[3].extras["size_check_fail_rate"] == 1.0
    assert by_m[3].extras["witness_verified_rate"] == 1.0
    assert by_m[3].inj_rate == 0.0
    assert by_m[6].rec_rate >= 0.75
    assert by_m[6].extras["regime"] == 1.0
    assert by_m[4].extras["regime"] == 0.0


def test_complex_genericity_validation():
    with pytest.raises(ValueError, match="budgeted for N in"):
        run_complex_genericity(ExperimentConfig((4,), "all", 1))


def test_equivalence_invariance_run():
    cfg = ExperimentConfig((3,), "both", trials=4, seed=2)
    report = run_equivalence_invariance(cfg)
    assert len(report.cells) == 2
    for cell in report.cells:
        assert cell.extras["agreement_rate"] == 1.0
        assert cell.extras["parseval_max_identity_dev"] <= 1e-8
    sharp = next(c for c in report.cells if c.m == 4)
    assert sharp.extras["witness_transform_ok_rate"] == 1.0


def test_report_files_deterministic(tmp_path):
    cfg = ExperimentConfig((2,), "both", trials=3, seed=5)
    report = run_real_genericity(cfg)
    j1, j2 = tmp_path / "a.json", tmp_path / "b.json"
    c1, c2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_report_json(report, j1)
    write_report_csv(report, c1)
    report_again = run_real_genericity(cfg)
    write_report_json(report_again, j2)
    write_report_csv(report_again, c2)
    assert j1.read_bytes() == j2.read_bytes()
    assert c1.read_bytes() == c2.read_bytes()


def test_csv_format(tmp_path):
    cfg = ExperimentConfig((2,), "2n-1", trials=3, seed=5)
    report = run_real_genericity(cfg)
    path = tmp_path / "report.csv"
    write_report_csv(report, path)
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert CSV_HEADER == "field,N,M,trials,inj_rate,rec_rate,mean_ms,seed"
    # mean_ms stays blank in files; rec_rate is blank for this harness.
    assert lines[1] == "real,2,3,3,1.0,,,5"


def test_json_report_omits_timing(tmp_path):
    cfg = ExperimentConfig((2,), "2n-1", trials=2, seed=1)
    report = run_real_genericity(cfg)
    path = tmp_path / "report.json"
    write_report_json(report, path)
    data = json.loads(path.read_text())
    assert "witnesses" not in data
    assert data["config"]["seed"] == 1
    assert all(cell["mean_ms"] is None for cell in data["cells"])
    # A report that carries witnesses writes them after the cells.
    cfg = ExperimentConfig((3,), "2n-2", trials=2, seed=1)
    report = run_dense_interior_real(cfg)
    write_report_json(report, path)
    data = json.loads(path.read_text())
    assert list(data) == ["config", "cells", "witnesses"]
    assert data["witnesses"] == report.witnesses
    assert all(cell["mean_ms"] is None for cell in data["cells"])


def test_write_report_json_refuses_a_nan_and_keeps_the_old_report(tmp_path):
    path = tmp_path / "report.json"
    path.write_bytes(b"old\n")
    cell = CellResult(REAL, 2, 3, 1, float("nan"), None, None, 0)
    with pytest.raises(ValueError):
        write_report_json(ExperimentReport({}, [cell]), path)
    assert path.read_bytes() == b"old\n"
