"""Magnitude measurements, rays, and sign patterns.

The magnitude map sends x to (|<x, f_i>|)_i. It cannot distinguish x from
c*x for a unimodular scalar c (a sign in the real case), so its natural
domain is the set of rays {c*x : |c| = 1}. Sign patterns encode index
subsets S as bitmasks; flipping the coefficients on S is the coefficient-
space symmetry that makes two rays collide.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .frames import REAL, Frame, _write_json, analysis, decode_count, decode_vector
from .linalg import _NORM_RANGE, DEFAULT_TOL, Tolerance, _exponent, _ldexp

__all__ = [
    "SignPattern",
    "magnitude_map",
    "canonical_ray",
    "ray_equal",
    "measurement_to_dict",
    "measurement_from_dict",
    "save_measurement",
    "load_measurement",
]


def magnitude_map(frame: Frame, x) -> np.ndarray:
    """Magnitudes of the analysis coefficients of x, length M, all >= 0."""
    return np.abs(analysis(frame, x))


def canonical_ray(x, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Canonical representative of the ray through x.

    The vector is rescaled by a unimodular factor so that its first entry
    of modulus above Tolerance.residual_bound(x), residual_eps * ||x||,
    becomes a positive real. The zero vector has no such entry and is
    returned unchanged.
    """
    arr = np.asarray(x).copy()
    cut = tol.residual_bound(arr)
    for v in arr:
        if abs(v) > cut:
            return arr * (np.conj(v) / abs(v))
    return arr


def _ray_gap(x: np.ndarray, y: np.ndarray) -> float:
    """min over unimodular c of ||x - c*y||, at c = <x, y>/|<x, y>| (any c
    when the inner product vanishes); c = +-1 for real x and y."""
    ip = np.vdot(y, x)  # = <x, y>
    c = ip / abs(ip) if abs(ip) > 0.0 else 1.0
    return float(np.linalg.norm(x - c * y))


def ray_equal(x, y, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether x and y generate the same ray.

    Tests min over unimodular c of ||x - c*y|| against
    Tolerance.residual_bound(x, y), residual_eps * max(||x||, ||y||), so
    the zero ray equals only itself. A gap outside _NORM_RANGE may come
    from squares or an inner product that over- or underflowed, so it is
    measured again with x and y scaled by one power of two, which changes
    neither ray nor the verdict.
    """
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # caught by the range test
        gap = _ray_gap(x, y)
    if not _NORM_RANGE[0] <= gap <= _NORM_RANGE[1]:
        e = max(_exponent(x), _exponent(y))
        x, y = _ldexp(x, -e), _ldexp(y, -e)
        gap = _ray_gap(x, y)
    return gap <= tol.residual_bound(x, y)


@dataclass(frozen=True)
class SignPattern:
    """An index subset S of {0, ..., size-1} stored as a bitmask.

    Acting on coefficient vectors, the pattern flips the sign of every
    entry whose index lies in S.
    """

    mask: int
    size: int

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError(f"size must be >= 1, got {self.size}")
        if not 0 <= self.mask < (1 << self.size):
            raise ValueError(f"mask {self.mask} out of range for size {self.size}")

    @classmethod
    def from_indices(cls, indices, size: int) -> "SignPattern":
        mask = 0
        for i in indices:
            if not 0 <= i < size:
                raise ValueError(f"index {i} out of range for size {size}")
            mask |= 1 << i
        return cls(mask, size)

    def indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.size) if self.mask >> i & 1)

    def complement(self) -> "SignPattern":
        return SignPattern(self.mask ^ ((1 << self.size) - 1), self.size)


MAGNITUDE_KEYS = ("m", "magnitudes")


def as_magnitudes(magnitudes, m: int | None = None) -> np.ndarray:
    """Coerce input to a 1-d float64 array of finite, nonnegative entries,
    of length m when m is given."""
    a = np.asarray(magnitudes, dtype=np.float64)
    if a.ndim != 1:
        raise ValueError(f"magnitudes must be a 1-d array, got shape {a.shape}")
    if m is not None and a.shape[0] != m:
        raise ValueError(f"expected {m} magnitudes, got {a.shape[0]}")
    if not np.all(np.isfinite(a)) or np.any(a < 0.0):
        raise ValueError("magnitudes must be finite and nonnegative")
    return a


def measurement_to_dict(magnitudes) -> dict:
    a = as_magnitudes(magnitudes)
    return {"m": int(a.shape[0]), "magnitudes": [float(v) for v in a]}


def measurement_from_dict(data: dict) -> np.ndarray:
    for key in MAGNITUDE_KEYS:
        if key not in data:
            raise ValueError(f"measurement file is missing key {key!r}")
    return as_magnitudes(decode_vector(data["magnitudes"], REAL), decode_count(data, "m"))


def save_measurement(magnitudes, path: str | os.PathLike) -> None:
    _write_json(measurement_to_dict(magnitudes), path)


def load_measurement(path: str | os.PathLike) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        return measurement_from_dict(json.load(fh))
