import json

import numpy as np
import pytest

from framephase.frames import COMPLEX, REAL
from framephase.experiments import (
    CSV_HEADER,
    ExperimentConfig,
    run_complex_genericity,
    run_dense_interior_real,
    run_equivalence_invariance,
    run_real_genericity,
    write_report_csv,
    write_report_json,
)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig("rational", (2,), "2n-1", 1)
    with pytest.raises(ValueError):
        ExperimentConfig(REAL, (), "2n-1", 1)
    with pytest.raises(ValueError):
        ExperimentConfig(REAL, (2,), "3n", 1)
    with pytest.raises(ValueError):
        ExperimentConfig(REAL, (2,), "2n-1", -1)


def test_real_genericity_rates():
    cfg = ExperimentConfig(REAL, (2, 3), "both", trials=5, seed=0)
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
    cfg = ExperimentConfig(REAL, (2,), "2n-1", trials=0)
    assert run_real_genericity(cfg).cells == []


@pytest.mark.parametrize("harness", ["dense-interior", "complex", "equivalence"])
def test_zero_trials_is_empty(harness):
    # The real-genericity harness is covered by the test above.
    if harness == "dense-interior":
        report, witnesses = run_dense_interior_real(3, 4, trials=0, constructed_cases=2)
        # No cell, but the constructed ambiguities do not depend on trials.
        assert len(witnesses) == 2 and all(w.verified for w in witnesses)
    elif harness == "complex":
        report = run_complex_genericity(ExperimentConfig(COMPLEX, (2, 3), "all", trials=0))
    else:
        report = run_equivalence_invariance(ExperimentConfig(REAL, (3,), "both", trials=0))
    assert report.cells == []
    assert report.config["trials"] == 0


def test_real_genericity_validation():
    with pytest.raises(ValueError):
        run_real_genericity(ExperimentConfig(COMPLEX, (2,), "2n-1", 1))
    with pytest.raises(ValueError):
        run_real_genericity(ExperimentConfig(REAL, (2,), "4n-2", 1))


def test_real_genericity_deterministic():
    cfg = ExperimentConfig(REAL, (3,), "2n-2", trials=4, seed=7)
    a = run_real_genericity(cfg)
    b = run_real_genericity(cfg)
    assert [(c.inj_rate, c.extras) for c in a.cells] == [
        (c.inj_rate, c.extras) for c in b.cells
    ]


def test_dense_interior_preconditions():
    with pytest.raises(ValueError):
        run_dense_interior_real(3, 5, trials=1)  # M = 2N-1 is out of range
    with pytest.raises(ValueError):
        run_dense_interior_real(3, 3, trials=1)  # M = N is out of range
    with pytest.raises(ValueError, match="trials must be >= 0"):
        run_dense_interior_real(3, 4, trials=-5)


def test_dense_interior_run():
    report, witnesses = run_dense_interior_real(3, 4, trials=20, seed=1, constructed_cases=4)
    cell = report.cells[0]
    assert cell.rec_rate >= 0.9
    assert cell.extras["constructed_verified"] == 4.0
    assert len(witnesses) == 4
    for w in witnesses:
        assert w.verified
        size = len(w.subset)
        assert 4 - 3 + 1 <= size <= 3 - 1
        subset = list(w.subset)
        off = [i for i in range(3) if i not in subset]
        # y is the subset sign flip of x, and both parts of x are nonzero
        # (otherwise the pair would collapse onto a single ray).
        np.testing.assert_allclose(w.y[subset], -w.x[subset], atol=1e-12)
        np.testing.assert_allclose(w.y[off], w.x[off], atol=1e-12)
        assert np.linalg.norm(w.x[subset]) > 1e-8
        assert np.linalg.norm(w.x[off]) > 1e-8


def test_complex_genericity_run():
    cfg = ExperimentConfig(COMPLEX, (2,), "all", trials=4, seed=0)
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
    with pytest.raises(ValueError):
        run_complex_genericity(ExperimentConfig(REAL, (2,), "all", 1))
    with pytest.raises(ValueError):
        run_complex_genericity(ExperimentConfig(COMPLEX, (4,), "all", 1))


def test_equivalence_invariance_run():
    cfg = ExperimentConfig(REAL, (3,), "both", trials=4, seed=2, transforms=3)
    report = run_equivalence_invariance(cfg)
    assert len(report.cells) == 2
    for cell in report.cells:
        assert cell.extras["agreement_rate"] == 1.0
        assert cell.extras["parseval_max_identity_dev"] <= 1e-8
    sharp = next(c for c in report.cells if c.m == 4)
    assert sharp.extras["witness_transform_ok_rate"] == 1.0
    with pytest.raises(ValueError):
        run_equivalence_invariance(ExperimentConfig(COMPLEX, (3,), "both", 1))


def test_report_files_deterministic(tmp_path):
    cfg = ExperimentConfig(REAL, (2,), "both", trials=3, seed=5)
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
    cfg = ExperimentConfig(REAL, (2,), "2n-1", trials=3, seed=5)
    report = run_real_genericity(cfg)
    path = tmp_path / "report.csv"
    write_report_csv(report, path)
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert CSV_HEADER == "field,N,M,trials,inj_rate,rec_rate,mean_ms,seed"
    # mean_ms stays blank in files; rec_rate is blank for this harness.
    assert lines[1] == "real,2,3,3,1.0,,,5"


def test_json_report_omits_timing(tmp_path):
    cfg = ExperimentConfig(REAL, (2,), "2n-1", trials=2, seed=1)
    report = run_real_genericity(cfg)
    path = tmp_path / "report.json"
    write_report_json(report, path, extra={"note": 1})
    data = json.loads(path.read_text())
    assert data["note"] == 1
    assert data["config"]["seed"] == 1
    assert all(cell["mean_ms"] is None for cell in data["cells"])
