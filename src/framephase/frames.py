"""Finite frames for R^N and C^N: construction, operators, and file I/O.

A frame is a finite spanning family {f_1, ..., f_M} in R^N or C^N, stored
as the rows of an (M, N) array. The analysis map sends x to its coefficient
vector (<x, f_i>)_i with the inner product <x, y> = sum_k x_k * conj(y_k);
the synthesis map is its adjoint. Magnitude-only identifiability questions
live entirely inside the coefficient range W = T(H), the column space of
the analysis matrix. Every operator of an existing frame (its frame bounds,
canonical dual and Parseval frames, and an orthonormal basis of W) comes
from _analysis_svd, the one thin SVD of T and its rank-N check.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL, Tolerance, _numerical_rank, null_space, rank

__all__ = [
    "REAL",
    "COMPLEX",
    "Frame",
    "FrameBounds",
    "analysis",
    "analysis_matrix",
    "frame_operator",
    "canonical_dual",
    "canonical_parseval",
    "coefficient_range",
    "apply_invertible",
    "gen_random",
    "gen_full_spark",
    "gen_repeated_tail",
    "gen_windowed_fourier",
    "frame_to_dict",
    "frame_from_dict",
    "save_frame",
    "load_frame",
]

REAL = "real"
COMPLEX = "complex"


@dataclass(frozen=True)
class Frame:
    """A spanning family of M vectors in an N-dimensional space.

    ``vectors`` holds the frame vectors as rows, shape (M, N). Construction
    rejects non-spanning families, non-finite entries, and M < N. The array
    is frozen after validation.
    """

    field: str
    vectors: np.ndarray

    def __post_init__(self) -> None:
        if self.field not in (REAL, COMPLEX):
            raise ValueError(f"field must be '{REAL}' or '{COMPLEX}', got {self.field!r}")
        arr = np.asarray(self.vectors)
        if arr.ndim != 2:
            raise ValueError(f"vectors must be a 2-d array, got shape {arr.shape}")
        if self.field == REAL:
            if np.iscomplexobj(arr):
                if np.any(arr.imag != 0.0):
                    raise ValueError("real frame has vectors with nonzero imaginary part")
                arr = arr.real
            arr = arr.astype(np.float64, copy=True)
        else:
            arr = arr.astype(np.complex128, copy=True)
        m, n = arr.shape
        if n < 1:
            raise ValueError("frame dimension must be at least 1")
        if m < n:
            raise ValueError(f"frame needs at least N={n} vectors, got M={m}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("frame vectors must be finite")
        if rank(arr) < n:
            raise ValueError("vectors do not span the space; not a frame")
        arr.setflags(write=False)
        object.__setattr__(self, "vectors", arr)

    @property
    def n(self) -> int:
        """Ambient dimension N."""
        return self.vectors.shape[1]

    @property
    def m(self) -> int:
        """Number of frame vectors M."""
        return self.vectors.shape[0]


@dataclass(frozen=True)
class FrameBounds:
    """Optimal frame bounds: A ||x||^2 <= sum_i |<x, f_i>|^2 <= B ||x||^2."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not 0.0 < self.lower <= self.upper:
            raise ValueError(f"need 0 < A <= B, got A={self.lower}, B={self.upper}")


def analysis_matrix(frame: Frame) -> np.ndarray:
    """The (M, N) matrix T with (T x)_i = <x, f_i>."""
    return np.conj(frame.vectors)


def analysis(frame: Frame, x) -> np.ndarray:
    """Coefficients of x against the frame: (<x, f_i>)_i, length M."""
    x = np.asarray(x)
    if x.shape != (frame.n,):
        raise ValueError(f"x must have shape ({frame.n},), got {x.shape}")
    return analysis_matrix(frame) @ x


def _analysis_svd(
    frame: Frame, tol: Tolerance = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD (U, sigma, V*) of T, rejecting rank below N at tol as Frame
    does: the one factorization of an existing frame's analysis matrix."""
    u, sv, vh = np.linalg.svd(analysis_matrix(frame), full_matrices=False)
    if _numerical_rank(sv, tol) < frame.n:
        raise ValueError("frame operator is numerically singular; not a frame")
    return u, sv, vh


def frame_operator(frame: Frame) -> tuple[np.ndarray, FrameBounds]:
    """The operator S = T* T together with its optimal frame bounds, the
    extreme eigenvalues of S, taken as the squared singular values of T."""
    _, sv, _ = _analysis_svd(frame)
    t = analysis_matrix(frame)
    return t.conj().T @ t, FrameBounds(lower=float(sv[-1] ** 2), upper=float(sv[0] ** 2))


def canonical_dual(frame: Frame) -> Frame:
    """The canonical dual frame {S^-1 f_i}.

    Analysis against the dual followed by synthesis against the original
    frame (and vice versa) reconstructs every x exactly. With T = U sigma V*,
    S^-1 f_i is row i of conj(U sigma^-1 V*), as well conditioned as T.
    """
    u, sv, vh = _analysis_svd(frame)
    return Frame(frame.field, np.conj((u / sv) @ vh))


def canonical_parseval(frame: Frame) -> Frame:
    """The canonical Parseval frame {S^-1/2 f_i}, the rows of conj(U V*);
    its frame operator is I."""
    u, _, vh = _analysis_svd(frame)
    return Frame(frame.field, np.conj(u @ vh))


def coefficient_range(frame: Frame, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (columns, shape (M, N)) of W = range(T), an
    N-dimensional subspace of C^M: the U of _analysis_svd at tol."""
    return _analysis_svd(frame, tol)[0]


def apply_invertible(frame: Frame, r) -> Frame:
    """The frame {R f_i} for an invertible N x N matrix R.

    Magnitude-only identifiability is preserved under this transformation:
    coefficients of x against {R f_i} equal coefficients of R* x against
    {f_i}, so both frames share the same coefficient range up to the
    relabeling x -> R* x.
    """
    r = np.asarray(r)
    if r.shape != (frame.n, frame.n):
        raise ValueError(f"transform must be {frame.n} x {frame.n}, got {r.shape}")
    if frame.field == REAL and np.iscomplexobj(r):
        raise ValueError("real frame cannot be transformed by a complex matrix")
    if rank(r) < frame.n:
        raise ValueError("transform is numerically singular")
    return Frame(frame.field, (r @ frame.vectors.T).T)


# Least distance from a new full-spark vector to each span it must avoid.
_MIN_GAP = 1e-6


def gen_random(field: str, n: int, m: int, seed=0) -> Frame:
    """Random frame with i.i.d. standard Gaussian entries (resampled in the
    probability-zero event that the sample does not span)."""
    if m < n or n < 1:
        raise ValueError(f"need M >= N >= 1, got N={n}, M={m}")
    rng = np.random.default_rng(seed)
    for _ in range(64):
        vectors = rng.standard_normal((m, n))
        if field == COMPLEX:
            vectors = vectors + 1j * rng.standard_normal((m, n))
        if rank(vectors) == n:
            return Frame(field, vectors)
    raise RuntimeError("could not sample a spanning frame (should not happen)")


def gen_full_spark(field: str, n: int, m: int, seed=0) -> Frame:
    """Full-spark frame: every subset of N vectors is linearly independent.

    Greedy construction: start from the standard orthonormal basis, then
    repeatedly draw a random unit vector and accept it only if its distance
    to the span of every (N-1)-subset of the vectors chosen so far exceeds
    ``_MIN_GAP``. Each accepted vector therefore completes no dependent
    N-subset. Cost grows with C(M-1, N-1); intended for desk-scale M.
    """
    if m < n or n < 1:
        raise ValueError(f"need M >= N >= 1, got N={n}, M={m}")
    dtype = np.complex128 if field == COMPLEX else np.float64
    chosen = [np.eye(n, dtype=dtype)[i] for i in range(n)]
    rng = np.random.default_rng(seed)
    while len(chosen) < m:
        accepted = None
        for _ in range(256):
            cand = rng.standard_normal(n)
            if field == COMPLEX:
                cand = cand + 1j * rng.standard_normal(n)
            cand = cand / np.linalg.norm(cand)
            ok = True
            for subset in itertools.combinations(range(len(chosen)), n - 1):
                if not subset:
                    continue
                normals = null_space(np.conj(np.stack([chosen[i] for i in subset])))
                if np.linalg.norm(normals.conj().T @ cand) <= _MIN_GAP:
                    ok = False
                    break
            if ok:
                accepted = cand
                break
        if accepted is None:
            raise RuntimeError("full-spark sampling failed to find an admissible vector")
        chosen.append(accepted)
    return Frame(field, np.stack(chosen))


def gen_repeated_tail(field: str, n: int, m: int, seed=0) -> Frame:
    """Frame whose first 2N-1 vectors are full spark and whose remaining
    vectors all repeat the (2N-1)-th one.

    For the real field this is the standard example showing that full spark
    is not necessary for magnitude-only identifiability once M >= 2N: the
    repeated block is dependent, yet identifiability only needs one good
    subfamily. Requires M >= 2N.
    """
    if n < 1:
        raise ValueError(f"need N >= 1, got N={n}")
    if m < 2 * n:
        raise ValueError(f"repeated tail needs M >= 2N, got N={n}, M={m}")
    head = gen_full_spark(field, n, 2 * n - 1, seed)
    tail = np.tile(head.vectors[2 * n - 2], (m - (2 * n - 1), 1))
    return Frame(field, np.vstack([head.vectors, tail]))


def gen_windowed_fourier(window, signal_len: int, hop: int, fft_size: int) -> Frame:
    """Windowed Fourier (Gabor-style) frame over C^signal_len.

    The frame vector indexed by (k, w) has entries
    conj(g[t] * exp(-2j*pi*w*t / fft_size)) at positions t + k*hop for
    t = 0..fft_size-1 and zeros elsewhere, so analysis coefficients are the
    windowed DFT sums sum_t g[t] * x[t + k*hop] * exp(-2j*pi*w*t/fft_size).
    Vectors are ordered k-major, w-minor; there are
    fft_size * (floor((signal_len - fft_size) / hop) + 1) of them.

    Rejects window placements that leave some sample untouched by a nonzero
    window entry (the family is then not a frame).

    For signal_len >= 2 the frame is never injective, in either field.
    Placements do not wrap around, so only the first one touches sample 0.
    When fft_size < signal_len, its fft_size vectors span fewer than
    signal_len dimensions and every other vector is 0 at sample 0, so
    neither side of that split spans. When fft_size = signal_len there is
    one placement, so M = signal_len < 2 signal_len - 1.
    """
    g = np.asarray(window, dtype=np.float64)
    if g.ndim != 1:
        raise ValueError("window must be a 1-d real array")
    if not np.all(np.isfinite(g)):
        raise ValueError("window entries must be finite")
    if len(g) != fft_size:
        raise ValueError(f"window length {len(g)} must equal fft_size {fft_size}")
    if fft_size < 1 or signal_len < fft_size:
        raise ValueError(f"need 1 <= fft_size <= signal_len, got {fft_size}, {signal_len}")
    if hop < 1:
        raise ValueError(f"hop must be >= 1, got {hop}")
    k_count = (signal_len - fft_size) // hop + 1
    covered = np.zeros(signal_len, dtype=bool)
    support = np.nonzero(g != 0.0)[0]
    for k in range(k_count):
        covered[k * hop + support] = True
    if not covered.all():
        missing = int(np.nonzero(~covered)[0][0])
        raise ValueError(
            f"window placements never touch sample {missing}; the family is not a frame"
        )
    t = np.arange(fft_size)
    vectors = np.zeros((k_count * fft_size, signal_len), dtype=np.complex128)
    for k in range(k_count):
        for w in range(fft_size):
            row = k * fft_size + w
            vectors[row, k * hop + t] = np.conj(g * np.exp(-2j * np.pi * w * t / fft_size))
    return Frame(COMPLEX, vectors)


def encode_vector(x, field: str) -> list:
    """JSON-encode a vector; complex entries become [re, im] pairs."""
    x = np.asarray(x)
    if field == COMPLEX:
        return [[float(v.real), float(v.imag)] for v in x.astype(np.complex128)]
    return [float(v) for v in np.real(x)]


def _number(v) -> float:
    """A JSON number as a float; strings and bools are not numbers."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"expected a number, got {v!r}")
    return float(v)


def decode_vector(data, field: str) -> np.ndarray:
    """Inverse of encode_vector: a list of numbers, or of [re, im] pairs
    of numbers for the complex field."""
    if not isinstance(data, (list, tuple)):
        raise ValueError(f"expected a list of numbers, got {data!r}")
    if field == COMPLEX:
        if not all(isinstance(v, (list, tuple)) and len(v) == 2 for v in data):
            raise ValueError(f"expected a list of [re, im] pairs, got {data!r}")
        return np.array(
            [complex(_number(re), _number(im)) for re, im in data], dtype=np.complex128
        )
    return np.array([_number(v) for v in data], dtype=np.float64)


def decode_count(data: dict, key: str) -> int:
    """The whole-number header entry ``data[key]``, such as ``n`` or ``m``."""
    v = data[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not float(v).is_integer():
        raise ValueError(f"{key!r} must be a whole number, got {v!r}")
    return int(v)


def frame_to_dict(frame: Frame) -> dict:
    return {
        "field": frame.field,
        "n": frame.n,
        "m": frame.m,
        "vectors": [encode_vector(v, frame.field) for v in frame.vectors],
    }


def frame_from_dict(data: dict) -> Frame:
    for key in ("field", "n", "m", "vectors"):
        if key not in data:
            raise ValueError(f"frame file is missing key {key!r}")
    field = data["field"]
    if field not in (REAL, COMPLEX):
        raise ValueError(f"unknown field {field!r}")
    if not data["vectors"]:
        raise ValueError("frame file has no vectors")
    vectors = np.stack([decode_vector(v, field) for v in data["vectors"]])
    if vectors.shape != (decode_count(data, "m"), decode_count(data, "n")):
        raise ValueError(
            f"vector block has shape {vectors.shape}, header says ({data['m']}, {data['n']})"
        )
    return Frame(field, vectors)


def _write_json(payload, target) -> None:
    """Write payload as one strict JSON document, indented by 2 and ending in
    a newline, to the path or open text stream target. The text is formed
    before target is opened, so a payload that JSON cannot hold (NaN or an
    infinity among them) raises ValueError and leaves target untouched."""
    text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    if hasattr(target, "write"):
        target.write(text)
        return
    with open(target, "w", encoding="utf-8") as fh:
        fh.write(text)


def save_frame(frame: Frame, path: str | os.PathLike) -> None:
    """Write a frame as JSON; floats round-trip exactly (shortest repr)."""
    _write_json(frame_to_dict(frame), path)


def load_frame(path: str | os.PathLike) -> Frame:
    with open(path, "r", encoding="utf-8") as fh:
        return frame_from_dict(json.load(fh))
