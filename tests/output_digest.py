"""Digest of the package's outputs on fixed seeded inputs.

Run from the repository root:

    PYTHONPATH=src python tests/output_digest.py [--frames F] [--trials T] [--dump FILE]

For each output family it prints how many outputs it hashed and one sha256
over them. Two source trees that print the same lines give the same bytes
on these inputs:

- certify: the certificate JSON of F seeded real and complex frames with
  1 <= N <= 4 and N < M <= 12 (Gaussian, duplicate, parallel,
  near-parallel, row-scaled, nearly low-dimensional, with a zero row) at
  rank_eps 1e-10, 1e-6 and 1e-3;
- certify-tall: the same for F/30 (rounded up) real Gaussian frames with
  N 3-4 and M 12-14, whose 2^(M-1) splits all get walked;
- reconstruct: the result JSON of reconstruct_real, or of
  reconstruct_complex at 5 restarts of 200 iterations, on each frame, from
  planted, random, zero or 1e-9-scaled planted magnitudes in turn;
- presets: the JSON and CSV report bytes of the five experiment presets at
  seed 7, at their default trial counts unless --trials is given.

Where a call raises, the exception's type and message stand in for its
output. With --dump, every hashed output is also written to FILE as one
JSON line: its family, its index in the family, its input (frame number,
field, N, M, case, and the rank_eps or magnitude kind) and the output
itself, so the dumps of two trees can be diffed line by line. The default
run takes well under a minute on two cores.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import tempfile

import numpy as np

from framephase import cli
from framephase.frames import COMPLEX, REAL, Frame
from framephase.injectivity import certificate_to_dict, certify
from framephase.linalg import Tolerance
from framephase.magnitude import magnitude_map
from framephase.reconstruct import reconstruct_complex, reconstruct_real, result_to_dict

RANK_EPS = (1e-10, 1e-6, 1e-3)
CASES = ("gaussian", "duplicate", "parallel", "near-parallel", "scaled", "near-low-dim", "zero-row")
MAGNITUDES = ("planted", "random", "zero", "scaled")


def _frame(i: int) -> tuple[Frame, np.ndarray]:
    """Frame number i of the fixed set and a planted signal for it."""
    field, _, v, x = _draw(i)
    return Frame(field, v), x


def _draw(i: int) -> tuple[str, str, np.ndarray, np.ndarray]:
    """Field, case, vectors and planted signal of frame number i."""
    rng = np.random.default_rng([2026, i])
    field = (REAL, COMPLEX)[i % 2]

    def draw(*shape):
        v = rng.standard_normal(shape)
        return v + 1j * rng.standard_normal(shape) if field == COMPLEX else v

    n = int(rng.integers(1, 5))
    m = n + int(rng.integers(1, 13 - n))
    v = draw(m, n)
    j, k = rng.choice(m, 2, replace=False)
    case = CASES[(i // 2) % len(CASES)]
    eps = 10.0 ** rng.uniform(-14, -4)
    if case == "duplicate":
        v[k] = v[j]
    elif case == "parallel":
        v[k] = draw(1)[0] * v[j]
    elif case == "near-parallel":
        v[k] = draw(1)[0] * v[j] + eps * draw(n)
    elif case == "scaled":
        v *= 10.0 ** rng.uniform(-6, 6, (m, 1))
    elif case == "near-low-dim" and n > 1:
        v = draw(m, n - 1) @ draw(n - 1, n) + eps * draw(m, n)
    elif case == "zero-row":
        v[k] = 0.0
    return field, case, v, draw(n)


def _tall_frame(i: int) -> Frame:
    rng = np.random.default_rng([2028, i])
    return Frame(REAL, rng.standard_normal((12 + i % 3, 3 + i % 2)))


def _certificates(family: str, frame: Frame, given: dict):
    """(family, input, certificate JSON) of ``frame`` at each of RANK_EPS."""
    for eps in RANK_EPS:
        yield family, {**given, "rank_eps": eps}, _outcome(
            lambda: certificate_to_dict(certify(frame, Tolerance(rank_eps=eps)), frame.field)
        )


def _outcome(call) -> str:
    """The JSON of call()'s dict, or the raised exception's type and message."""
    try:
        return json.dumps(call())
    except Exception as exc:  # recorded, not swallowed
        return json.dumps([type(exc).__name__, str(exc)])


def _reconstruction(frame: Frame, x: np.ndarray, kind: str, seed: int) -> dict:
    a = magnitude_map(frame, x)
    if kind == "random":
        a = np.abs(np.random.default_rng([2027, seed]).standard_normal(frame.m)) * np.linalg.norm(a)
    elif kind == "zero":
        a = np.zeros(frame.m)
    elif kind == "scaled":
        a = 1e-9 * a
    if frame.field == REAL:
        return result_to_dict(reconstruct_real(frame, a), REAL)
    result = reconstruct_complex(frame, a, restarts=5, max_iters=200, seed=seed)
    return result_to_dict(result, COMPLEX)


def _preset_reports(trials: int | None):
    """(family, input, output) for the exit code and the report bytes of
    every experiment preset at seed 7."""
    with tempfile.TemporaryDirectory() as out_dir:
        for preset in cli.PRESETS:
            given = {"preset": preset, "seed": 7, "trials": trials}
            argv = ["experiment", "--preset", preset, "--seed", "7", "--out-dir", out_dir]
            if trials is not None:
                argv += ["--trials", str(trials)]
            with contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            yield "presets", {**given, "file": "exit"}, f"{preset} exit {code}"
            for ext in ("json", "csv"):
                with open(os.path.join(out_dir, f"{preset}.{ext}"), encoding="utf-8") as fh:
                    yield "presets", {**given, "file": ext}, fh.read()


def _outputs(frames: int, trials: int | None):
    """(family, input, output) of every hashed output, in hashing order
    within each family."""
    for i in range(frames):
        field, case, v, x = _draw(i)
        kind = MAGNITUDES[(i // 2) % len(MAGNITUDES)]
        given = {"frame": i, "field": field, "n": v.shape[1], "m": v.shape[0], "case": case}
        try:
            frame = Frame(field, v)
        except ValueError as exc:  # the rows do not span
            rejected = json.dumps([type(exc).__name__, str(exc)])
            for eps in RANK_EPS:
                yield "certify", {**given, "rank_eps": eps}, rejected
            yield "reconstruct", {**given, "magnitudes": kind}, rejected
            continue
        yield from _certificates("certify", frame, given)
        yield "reconstruct", {**given, "magnitudes": kind}, _outcome(
            lambda: _reconstruction(frame, x, kind, i)
        )
    for i in range(-(-frames // 30)):
        frame = _tall_frame(i)
        given = {"frame": i, "field": REAL, "n": frame.n, "m": frame.m, "case": "tall"}
        yield from _certificates("certify-tall", frame, given)
    yield from _preset_reports(trials)


def digests(
    frames: int = 1500, trials: int | None = None, dump: str | None = None
) -> dict[str, tuple[int, str]]:
    """Count and sha256 of each output family over the first ``frames``
    frames of the fixed set and the presets at ``trials`` trials; with
    ``dump``, every output also goes to that file as a JSON line."""
    counts = {name: 0 for name in ("certify", "certify-tall", "reconstruct", "presets")}
    hashes = {name: hashlib.sha256() for name in counts}
    with open(dump, "w", encoding="utf-8") if dump else contextlib.nullcontext() as sink:
        for family, given, out in _outputs(frames, trials):
            if sink is not None:
                line = {"family": family, "index": counts[family], "input": given, "output": out}
                sink.write(json.dumps(line) + "\n")
            hashes[family].update(out.encode("utf-8") + b"\0")
            counts[family] += 1
    return {name: (counts[name], hashes[name].hexdigest()) for name in counts}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--frames", type=int, default=1500, help="frames in the fixed set")
    parser.add_argument("--trials", type=int, default=None, help="trials per preset")
    parser.add_argument("--dump", metavar="FILE", help="write every output to FILE as JSON lines")
    args = parser.parse_args(argv)
    for name, (count, digest) in digests(args.frames, args.trials, args.dump).items():
        print(f"{name:<12}{count:>6}  {digest}")


if __name__ == "__main__":
    main()
