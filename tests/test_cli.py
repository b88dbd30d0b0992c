import json
import os
import subprocess
import sys

import numpy as np
import pytest

from framephase.frames import REAL, Frame, load_frame, save_frame
from framephase.magnitude import save_measurement


def run_cli(*args, env_extra=None, cwd=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "framephase", *args],
        capture_output=True,
        env=env,
        cwd=cwd,
    )
    return proc.returncode, proc.stdout, proc.stderr.decode()


def test_gen_writes_frame_and_is_deterministic(tmp_path):
    out1 = tmp_path / "f1.json"
    out2 = tmp_path / "f2.json"
    code, _, err = run_cli(
        "gen", "--field", "real", "--n", "3", "--m", "5", "--seed", "9",
        "--out", str(out1),
    )
    assert code == 0
    assert "bounds" in err
    run_cli(
        "gen", "--field", "real", "--n", "3", "--m", "5", "--seed", "9",
        "--out", str(out2),
    )
    assert out1.read_bytes() == out2.read_bytes()
    f = load_frame(out1)
    assert (f.field, f.n, f.m) == ("real", 3, 5)


@pytest.mark.parametrize("kind,extra", [
    ("full-spark", ()),
    ("repeated-tail", ()),
])
def test_gen_other_kinds(tmp_path, kind, extra):
    out = tmp_path / "f.json"
    code, _, _ = run_cli(
        "gen", "--field", "real", "--n", "2", "--m", "4", "--kind", kind,
        "--seed", "1", "--out", str(out), *extra,
    )
    assert code == 0
    assert load_frame(out).m == 4


def test_gen_gabor(tmp_path):
    out = tmp_path / "g.json"
    code, _, err = run_cli(
        "gen", "--field", "complex", "--n", "8", "--kind", "gabor",
        "--hop", "2", "--fft-size", "4", "--out", str(out),
    )
    assert code == 0
    f = load_frame(out)
    assert (f.n, f.m) == (8, 12)
    # Mismatched --m is a usage error.
    code, _, err = run_cli(
        "gen", "--field", "complex", "--n", "8", "--m", "16", "--kind", "gabor",
        "--hop", "2", "--fft-size", "4", "--out", str(tmp_path / "h.json"),
    )
    assert code == 1
    assert "error:" in err


def test_gen_gabor_requires_complex(tmp_path):
    code, _, err = run_cli(
        "gen", "--field", "real", "--n", "4", "--kind", "gabor",
        "--fft-size", "2", "--out", str(tmp_path / "g.json"),
    )
    assert code == 1
    assert "complex" in err


def test_certify_exit_codes_and_json(tmp_path):
    inj = tmp_path / "inj.json"
    run_cli("gen", "--field", "real", "--n", "2", "--m", "3", "--seed", "0",
            "--out", str(inj))
    code, out, _ = run_cli("certify", str(inj))
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "injective"
    assert payload["failing_subset"] is None

    amb = tmp_path / "amb.json"
    save_frame(Frame(REAL, np.eye(2)), amb)
    code, out, err = run_cli("certify", str(amb))
    assert code == 2
    payload = json.loads(out)
    assert payload["verdict"] == "not_injective"
    assert payload["failing_subset"] == [0]
    assert payload["witness"] is not None


def test_certify_complex_explains_size_bound(tmp_path):
    frame = tmp_path / "c.json"
    run_cli("gen", "--field", "complex", "--n", "3", "--m", "5", "--seed", "2",
            "--out", str(frame))
    code, out, err = run_cli("certify", str(frame))
    assert code == 2
    assert json.loads(out)["verdict"] == "not_injective"
    assert "M <= 2N-1" in err


def test_certify_missing_file_is_error(tmp_path):
    code, _, err = run_cli("certify", str(tmp_path / "nope.json"))
    assert code == 1
    assert "error:" in err


def test_measure_and_reconstruct_round_trip(tmp_path):
    frame = tmp_path / "f.json"
    meas = tmp_path / "m.json"
    run_cli("gen", "--field", "real", "--n", "3", "--m", "5", "--seed", "4",
            "--out", str(frame))
    code, _, _ = run_cli("measure", str(frame), "--x", "1,-2,0.5", "--out", str(meas))
    assert code == 0
    code, out, _ = run_cli("reconstruct", str(frame), str(meas))
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "unique"
    ray = np.array(payload["rays"][0])
    target = np.array([1.0, -2.0, 0.5])
    assert min(np.linalg.norm(ray - target), np.linalg.norm(ray + target)) < 1e-6


def test_measure_argument_validation(tmp_path):
    frame = tmp_path / "f.json"
    run_cli("gen", "--field", "real", "--n", "2", "--m", "3", "--seed", "0",
            "--out", str(frame))
    code, _, err = run_cli("measure", str(frame), "--out", str(tmp_path / "m.json"))
    assert code == 1 and "exactly one" in err
    code, _, err = run_cli(
        "measure", str(frame), "--x", "1,2", "--x-file", "also.txt",
        "--out", str(tmp_path / "m.json"),
    )
    assert code == 1 and "exactly one" in err
    code, _, err = run_cli(
        "measure", str(frame), "--x", "1,2,3", "--out", str(tmp_path / "m.json")
    )
    assert code == 1 and "expected 2 entries" in err


def test_measure_x_file_and_complex_entries(tmp_path):
    frame = tmp_path / "c.json"
    run_cli("gen", "--field", "complex", "--n", "2", "--m", "5", "--seed", "0",
            "--out", str(frame))
    vec = tmp_path / "x.txt"
    vec.write_text("1+2j\n-0.5j\n")
    meas = tmp_path / "m.json"
    code, _, _ = run_cli("measure", str(frame), "--x-file", str(vec), "--out", str(meas))
    assert code == 0
    data = json.loads(meas.read_text())
    assert data["m"] == 5
    assert all(v >= 0 for v in data["magnitudes"])


def test_failed_measure_leaves_the_output_file_untouched(tmp_path):
    frame = tmp_path / "f.json"
    meas = tmp_path / "m.json"
    run_cli("gen", "--field", "real", "--n", "2", "--m", "3", "--seed", "0",
            "--out", str(frame))
    assert run_cli("measure", str(frame), "--x", "1,2", "--out", str(meas))[0] == 0
    before = meas.read_bytes()
    for x in ("inf,1", "nan,1"):
        code, _, err = run_cli("measure", str(frame), f"--x={x}", "--out", str(meas))
        assert code == 1 and "x entries must be finite" in err
        assert meas.read_bytes() == before


@pytest.mark.parametrize("field,counted", [
    ("real", "checked 16 split(s)"),  # N=3, M=5: all 2^(M-1) splits
    ("complex", "tried 1 pivot(s)"),  # M = 2N-1: the first pivot's witness verifies
])
def test_certify_log_names_what_it_counted(tmp_path, field, counted):
    frame = tmp_path / "f.json"
    run_cli("gen", "--field", field, "--n", "3", "--m", "5", "--seed", "0",
            "--out", str(frame))
    _, out, err = run_cli("certify", str(frame))
    assert f"({counted}, field={field}, N=3, M=5)" in err
    assert json.loads(out)["checked_subsets"] == int(counted.split()[1])


def test_reconstruct_log_counts_restarts_for_complex_frames(tmp_path):
    frame = tmp_path / "c.json"
    meas = tmp_path / "m.json"
    run_cli("gen", "--field", "complex", "--n", "2", "--m", "6", "--seed", "5",
            "--out", str(frame))
    run_cli("measure", str(frame), "--x", "1+1j,-2", "--out", str(meas))
    code, out, err = run_cli("reconstruct", str(frame), str(meas), "--seed", "11")
    assert code == 0
    restarts = json.loads(out)["restarts_used"]
    assert f"(1 ray(s), {restarts} restart(s), " in err
    assert "sign-tree" not in err


def test_reconstruct_exit_codes(tmp_path):
    amb_frame = tmp_path / "amb.json"
    save_frame(Frame(REAL, np.eye(2)), amb_frame)
    meas = tmp_path / "m.json"
    save_measurement(np.array([1.0, 1.0]), meas)
    code, out, _ = run_cli("reconstruct", str(amb_frame), str(meas))
    assert code == 3
    assert json.loads(out)["status"] == "ambiguous"

    frame = tmp_path / "f.json"
    run_cli("gen", "--field", "real", "--n", "2", "--m", "4", "--seed", "3",
            "--out", str(frame))
    bad = tmp_path / "bad.json"
    save_measurement(np.array([1.0, 2.0, 0.25, 1.5]), bad)
    code, out, _ = run_cli("reconstruct", str(frame), str(bad))
    assert code == 4
    assert json.loads(out)["status"] == "no_solution"


def test_reconstruct_complex_success_and_determinism(tmp_path):
    frame = tmp_path / "c.json"
    meas = tmp_path / "m.json"
    run_cli("gen", "--field", "complex", "--n", "2", "--m", "6", "--seed", "5",
            "--out", str(frame))
    run_cli("measure", str(frame), "--x", "1+1j,-2", "--out", str(meas))
    code, out1, _ = run_cli("reconstruct", str(frame), str(meas), "--seed", "11")
    assert code == 0
    assert json.loads(out1)["status"] == "heuristic_success"
    _, out2, _ = run_cli("reconstruct", str(frame), str(meas), "--seed", "11")
    assert out1 == out2
    code, out, err = run_cli("reconstruct", str(frame), str(meas), "--restarts", "-3")
    assert code == 1 and out == b""
    assert "restarts and max_iters must be >= 1" in err


def test_witness_command(tmp_path):
    amb = tmp_path / "amb.json"
    save_frame(Frame(REAL, np.eye(2)), amb)
    code, out, _ = run_cli("witness", str(amb))
    assert code == 0
    payload = json.loads(out)
    assert payload["magnitude_mismatch"] <= 1e-10
    assert payload["witness"] is not None

    inj = tmp_path / "inj.json"
    run_cli("gen", "--field", "real", "--n", "2", "--m", "3", "--seed", "0",
            "--out", str(inj))
    code, out, err = run_cli("witness", str(inj))
    assert code == 2
    assert out == b""
    assert "no ambiguity witness" in err


def test_experiment_preset_runs_and_unknown_preset_fails(tmp_path):
    out_dir = tmp_path / "reports"
    code, _, err = run_cli(
        "experiment", "--preset", "equivalence", "--trials", "3",
        "--out-dir", str(out_dir),
    )
    assert code == 0
    assert (out_dir / "equivalence.json").exists()
    assert (out_dir / "equivalence.csv").exists()
    assert "cell(s)" in err

    code, _, err = run_cli(
        "experiment", "--preset", "nonsense", "--out-dir", str(out_dir)
    )
    assert code == 1
    assert "unknown preset" in err

    # A preset that fails leaves no output directory behind.
    failed_dir = tmp_path / "failed"
    code, _, err = run_cli(
        "experiment", "--preset", "dense-interior", "--trials", "-5",
        "--out-dir", str(failed_dir),
    )
    assert code == 1
    assert "trials must be >= 0" in err
    assert not failed_dir.exists()


def test_threads_env_validation(tmp_path):
    frame = tmp_path / "f.json"
    run_cli("gen", "--field", "real", "--n", "2", "--m", "3", "--seed", "0",
            "--out", str(frame))
    code, _, err = run_cli(
        "certify", str(frame), env_extra={"FRAMEPHASE_THREADS": "abc"}
    )
    assert code == 0
    assert "ignoring invalid" in err
    code, _, err = run_cli(
        "certify", str(frame), env_extra={"FRAMEPHASE_THREADS": "4"}
    )
    assert code == 0
    assert "ignoring" not in err


def test_stdout_is_pure_json_for_certify_and_reconstruct(tmp_path):
    frame = tmp_path / "f.json"
    meas = tmp_path / "m.json"
    run_cli("gen", "--field", "real", "--n", "2", "--m", "3", "--seed", "1",
            "--out", str(frame))
    run_cli("measure", str(frame), "--x", "2,-1", "--out", str(meas))
    _, out, _ = run_cli("certify", str(frame))
    json.loads(out)  # must parse as a single document
    _, out, _ = run_cli("reconstruct", str(frame), str(meas))
    json.loads(out)


def test_usage_errors_exit_1(tmp_path):
    # 2 is certify's and witness's verdict code, so usage errors must not use it.
    for args in (("certify",), ("bogus",), ("gen", "--field", "real", "--n", "x",
                                            "--out", str(tmp_path / "f.json"))):
        code, out, err = run_cli(*args)
        assert code == 1, args
        assert out == b""
        assert "error:" in err


def test_zero_tolerance_flags_are_rejected(tmp_path):
    frame = tmp_path / "f.json"
    run_cli("gen", "--field", "real", "--n", "2", "--m", "3", "--seed", "0",
            "--out", str(frame))
    code, _, err = run_cli("certify", str(frame), "--tol", "0")
    assert code == 1 and "residual_eps must be positive" in err
    code, _, err = run_cli("certify", str(frame), "--rank-eps", "0")
    assert code == 1 and "rank_eps must lie in (0, 1)" in err


def test_reconstruct_rejects_an_infinite_tolerance(tmp_path):
    # Any residual passes at --tol inf, so the zero ray would come back as
    # the unique answer; the flag is an error instead.
    frame, meas = tmp_path / "f.json", tmp_path / "a.json"
    assert run_cli("gen", "--field", "real", "--n", "3", "--m", "5", "--seed", "1",
                   "--out", str(frame))[0] == 0
    assert run_cli("measure", str(frame), "--x=1,2,3", "--out", str(meas))[0] == 0
    code, out, err = run_cli("reconstruct", str(frame), str(meas), "--tol", "inf")
    assert code == 1 and out == b""
    assert "residual_eps must be positive" in err


def test_frame_file_without_vectors_is_error(tmp_path):
    frame = tmp_path / "empty.json"
    frame.write_text(json.dumps({"field": "real", "n": 2, "m": 0, "vectors": []}))
    code, _, err = run_cli("certify", str(frame))
    assert code == 1
    assert "error: frame file has no vectors" in err


_FRAME_3X2 = {"field": "real", "n": 2, "m": 3, "vectors": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]}


@pytest.mark.parametrize(
    "command,frame,measurement,message",
    [
        ("certify", {**_FRAME_3X2, "m": 2, "vectors": ["10", "01"]}, None,
         "expected a list of numbers"),
        ("certify", {**_FRAME_3X2, "vectors": [["1", "0"], ["0", "1"], ["1", "1"]]}, None,
         "expected a number"),
        ("certify", {"field": "complex", "n": 1, "m": 2, "vectors": [[[True, 0]], [[0, 1]]]},
         None, "expected a number"),
        ("certify", {**_FRAME_3X2, "m": 3.7}, None, "'m' must be a whole number"),
        ("certify", {"field": "real", "n": 1, "m": True, "vectors": [[1.0]]}, None,
         "'m' must be a whole number"),
        ("measure", {**_FRAME_3X2, "n": 2.9}, None, "'n' must be a whole number"),
        ("reconstruct", _FRAME_3X2, {"m": 3, "magnitudes": "123"},
         "expected a list of numbers"),
        ("reconstruct", _FRAME_3X2, {"m": 3, "magnitudes": [1.0, True, 2.0]},
         "expected a number"),
        ("reconstruct", _FRAME_3X2, {"m": 3.2, "magnitudes": [1.0, 1.0, 2.0]},
         "'m' must be a whole number"),
    ],
    ids=["vectors-as-strings", "string-entries", "bool-entry", "fractional-m", "bool-m",
         "fractional-n", "magnitudes-as-string", "bool-magnitude", "fractional-meas-m"],
)
def test_file_values_that_are_not_numbers_are_errors(
    tmp_path, command, frame, measurement, message
):
    frame_path = tmp_path / "frame.json"
    frame_path.write_text(json.dumps(frame))
    args = [command, str(frame_path)]
    if command == "measure":
        args += ["--x", "1,2", "--out", str(tmp_path / "m.json")]
    if measurement is not None:
        meas_path = tmp_path / "meas.json"
        meas_path.write_text(json.dumps(measurement))
        args.append(str(meas_path))
    code, out, err = run_cli(*args)
    assert code == 1 and out == b""
    assert f"error: {message}" in err


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, framephase.cli; print('scipy' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
    # Real reconstruction picks its pivot block with numpy alone.
    frame = tmp_path / "f.json"
    meas = tmp_path / "m.json"
    save_frame(Frame(REAL, np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])), frame)
    save_measurement(np.array([1.0, 2.0, 3.0]), meas)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from framephase.cli import main; "
         f"code = main(['reconstruct', {str(frame)!r}, {str(meas)!r}]); "
         "print(code, 'scipy' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    payload, _, last = proc.stdout.rstrip("\n").rpartition("\n")
    assert json.loads(payload)["status"] == "unique"
    assert last == "0 False"


@pytest.mark.parametrize(
    "orig_argv, preset, expected",
    [
        (None, None, "None"),  # a library import leaves BLAS threading alone
        (["-m", "framephase", "gen"], None, "1"),
        (["-m", "framephase", "gen"], "4", "4"),  # an explicit setting wins
        (["-m", "pytest"], None, "None"),
    ],
)
def test_cli_process_runs_blas_on_one_thread(orig_argv, preset, expected):
    fake = "" if orig_argv is None else f"sys.orig_argv = [sys.executable, *{orig_argv!r}]; "
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import os, sys; {fake}import framephase; "
         "print(os.environ.get('OPENBLAS_NUM_THREADS'))"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == expected
