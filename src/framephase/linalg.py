"""Tolerance-aware dense linear algebra helpers, on numpy alone.

Everything operates on plain numpy arrays (float64 or complex128) at desk
scale. Every numerical decision is relative, and Tolerance holds each rule:
a singular value counts if it exceeds ``rank_eps`` times the largest one,
and a residual counts as zero if it is at most ``residual_eps`` times the
norm of what it is measured against. So scaling never changes a rank or a
verdict, and exactly-zero input accepts only an exact fit. Those norms come
from _norm, which stays exact where np.linalg.norm's squares would over- or
underflow. The package calls rank, null_space and least_squares; a frame's
analysis matrix is factored by frames._analysis_svd, not here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = ["Tolerance", "DEFAULT_TOL"]


@dataclass(frozen=True)
class Tolerance:
    """Numerical thresholds shared across the toolkit, all relative.

    rank_eps: relative cutoff for rank decisions (singular values).
    residual_eps: relative threshold for residual/membership/equality tests.
    """

    rank_eps: float = 1e-10
    residual_eps: float = 1e-8

    def __post_init__(self) -> None:
        if not 0.0 < self.rank_eps < 1.0:
            raise ValueError(f"rank_eps must lie in (0, 1), got {self.rank_eps}")
        # At residual_eps >= 1 the zero vector fits every measurement.
        if not 0.0 < self.residual_eps < 1.0:
            raise ValueError(f"residual_eps must be positive and below 1, got {self.residual_eps}")

    def residual_bound(self, *vectors) -> float:
        """Largest accepted residual against the given vectors (or matrices,
        by Frobenius norm): residual_eps times the largest of their norms.
        It is 0 when they are all zero, so then only an exact fit passes."""
        return self.residual_eps * max(_norm(v) for v in vectors)

    def null_leak(self, t, *vectors) -> float:
        """Most by which the magnitudes under the matrix t of a witness
        built from null vectors decided at rank_eps can disagree: 2
        rank_eps ||t||_2 times the largest of the vectors' norms."""
        sigma_1 = float(np.linalg.svd(t, compute_uv=False)[0])  # norm(t, 2) at half the cost
        return 2.0 * self.rank_eps * sigma_1 * max(_norm(v) for v in vectors)


DEFAULT_TOL = Tolerance()

# np.linalg.norm sums squares, which over- or underflow once the norm
# leaves about 2^-511 to 2^511; inside this range it is correctly scaled.
_NORM_RANGE = (2.0**-500, 2.0**500)


def _ldexp(v, e: int) -> np.ndarray:
    """v * 2^e for a real or complex array, exact while the result is a
    normal float, also where 2^e alone is not a float."""
    v = np.asarray(v)
    if np.iscomplexobj(v):
        v = np.ascontiguousarray(v, dtype=np.complex128)
        return np.ldexp(v.view(np.float64), e).view(np.complex128)
    return np.ldexp(v, e)


def _exponent(v) -> int:
    """The frexp exponent e of the largest modulus in v, so v * 2^-e has
    entries of modulus below 1 and at least one of 1/2 or more; 0 for
    an all-zero or empty v."""
    v = np.abs(np.asarray(v))
    return math.frexp(float(v.max()))[1] if v.size else 0


def _norm(v) -> float:
    """np.linalg.norm(v) (Frobenius for a matrix), recomputed at the
    power-of-two scale of _exponent when it leaves _NORM_RANGE, so it is
    neither inf nor 0 while the true norm is a nonzero normal float."""
    with np.errstate(over="ignore"):  # an overflowed square is caught below
        r = float(np.linalg.norm(v))
    if _NORM_RANGE[0] <= r <= _NORM_RANGE[1]:
        return r
    e = _exponent(v)
    return float(np.ldexp(np.linalg.norm(_ldexp(v, -e)), e))


def _as_finite(a, ndim: int, what: str) -> np.ndarray:
    arr = np.asarray(a)
    if arr.ndim != ndim:
        raise ValueError(f"expected a {ndim}-d array, got shape {arr.shape}")
    arr = arr.astype(np.complex128 if np.iscomplexobj(arr) else np.float64, copy=False)
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} entries must be finite")
    return arr


def as_matrix(a) -> np.ndarray:
    """Coerce input to a 2-d float64 or complex128 array with finite entries."""
    return _as_finite(a, 2, "matrix")


def as_vector(x) -> np.ndarray:
    """Coerce input to a 1-d float64 or complex128 array with finite entries."""
    return _as_finite(x, 1, "vector")


def _numerical_rank(s: np.ndarray, tol: Tolerance) -> int:
    """Count of the descending singular values s above rank_eps * s[0];
    0 when there are none or the largest is 0."""
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.count_nonzero(s > tol.rank_eps * s[0]))


def rank(a, tol: Tolerance = DEFAULT_TOL) -> int:
    """Numerical rank: singular values above rank_eps * (largest one)."""
    arr = as_matrix(a)
    if arr.size == 0:
        return 0
    s = np.linalg.svd(arr, compute_uv=False)
    return _numerical_rank(s, tol)


def null_space(a, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (columns) of the null space of ``a``.

    The returned matrix has shape (cols, cols - rank); it is empty when the
    matrix has full column rank.
    """
    arr = as_matrix(a)
    n_cols = arr.shape[1]
    if n_cols == 0:
        raise ValueError("null_space needs at least one column")
    if arr.shape[0] == 0:
        return np.eye(n_cols, dtype=arr.dtype)
    _, s, vh = np.linalg.svd(arr, full_matrices=True)
    return vh[_numerical_rank(s, tol):].conj().T


class LeastSquares(NamedTuple):
    x: np.ndarray
    residual: float


def least_squares(a, b, tol: Tolerance = DEFAULT_TOL) -> LeastSquares:
    """Minimize ||a @ x - b||, returning the minimum-norm minimizer and
    the residual norm."""
    arr = as_matrix(a)
    rhs = as_vector(b)
    if rhs.shape[0] != arr.shape[0]:
        raise ValueError(
            f"shape mismatch: matrix has {arr.shape[0]} rows, rhs has {rhs.shape[0]}"
        )
    if np.iscomplexobj(arr) or np.iscomplexobj(rhs):
        arr = arr.astype(np.complex128, copy=False)
        rhs = rhs.astype(np.complex128, copy=False)
    x = np.linalg.lstsq(arr, rhs, rcond=tol.rank_eps)[0]
    residual = float(np.linalg.norm(arr @ x - rhs))
    return LeastSquares(x, residual)
