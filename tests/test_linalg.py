import numpy as np
import numpy.testing as npt
import pytest

from framephase.linalg import (
    DEFAULT_TOL,
    Tolerance,
    as_matrix,
    as_vector,
    column_space,
    least_squares,
    null_space,
    rank,
)


def test_tolerance_defaults_and_validation():
    assert DEFAULT_TOL.rank_eps == 1e-10
    assert DEFAULT_TOL.residual_eps == 1e-8
    with pytest.raises(ValueError):
        Tolerance(rank_eps=0.0)
    with pytest.raises(ValueError):
        Tolerance(residual_eps=-1e-8)
    with pytest.raises(ValueError):
        Tolerance(rank_eps=2.0)
    # At residual_eps >= 1 the zero vector would fit every measurement.
    for eps in (float("nan"), float("inf"), 1.0, 1e300):
        with pytest.raises(ValueError, match="residual_eps must be positive"):
            Tolerance(residual_eps=eps)


def test_residual_bound_scales_with_the_largest_norm():
    tol = Tolerance(residual_eps=1e-6)
    a = np.array([3.0, 4.0])
    assert tol.residual_bound(a) == 1e-6 * 5.0
    assert tol.residual_bound(a, np.zeros(2)) == tol.residual_bound(np.zeros(2), a)
    # Relative: no floor, so exactly-zero input accepts only an exact fit.
    assert tol.residual_bound(np.zeros(3)) == 0.0
    assert tol.residual_bound(1e-12 * a) == pytest.approx(1e-18 * 5.0, rel=1e-15)


def test_as_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        as_matrix([1.0, 2.0])
    with pytest.raises(ValueError):
        as_matrix([[np.inf, 0.0]])
    with pytest.raises(ValueError):
        as_vector([[1.0]])
    assert as_matrix([[1, 2], [3, 4]]).dtype == np.float64
    assert as_matrix([[1j, 0], [0, 1]]).dtype == np.complex128


def test_rank_small_cases():
    assert rank(np.zeros((3, 2))) == 0
    assert rank(np.eye(3)) == 3
    assert rank([[1.0, 2.0], [2.0, 4.0]]) == 1
    # Relative cutoff: a scaled-down copy of a rank-1 matrix stays rank 1.
    assert rank(1e-30 * np.array([[1.0, 2.0], [2.0, 4.0]])) == 1


def test_rank_relative_threshold_boundary():
    a = np.diag([1.0, 1e-5])
    assert rank(a) == 2
    assert rank(a, Tolerance(rank_eps=1e-4)) == 1


def test_null_space_hand_case():
    # Rows (1,1,0) and (0,0,1): kernel is the line through (1,-1,0)/sqrt(2).
    a = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    ns = null_space(a)
    assert ns.shape == (3, 1)
    expected = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
    sign = np.sign(ns[0, 0]) or 1.0
    npt.assert_allclose(sign * ns[:, 0], expected, atol=1e-12)


def test_null_space_empty_rows_gives_identity():
    ns = null_space(np.zeros((0, 4)))
    npt.assert_allclose(ns, np.eye(4))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("shape", [(5, 3), (3, 5), (4, 4)])
def test_null_and_column_space_dimensions(seed, shape):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(shape)
    ns = null_space(a)
    cs = column_space(a)
    r = rank(a)
    assert ns.shape[1] + r == shape[1]
    assert cs.shape[1] == r
    npt.assert_allclose(a @ ns, np.zeros((shape[0], ns.shape[1])), atol=1e-12)
    npt.assert_allclose(ns.conj().T @ ns, np.eye(ns.shape[1]), atol=1e-12)
    npt.assert_allclose(cs.conj().T @ cs, np.eye(r), atol=1e-12)


def test_least_squares_hand_case():
    # Minimize (x-1)^2 + x^2: x = 1/2, residual norm 1/sqrt(2).
    sol = least_squares(np.array([[1.0], [1.0]]), np.array([1.0, 0.0]))
    npt.assert_allclose(sol.x, [0.5], atol=1e-14)
    npt.assert_allclose(sol.residual, 1.0 / np.sqrt(2.0), atol=1e-14)


def test_least_squares_degenerate_flag():
    sol = least_squares(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([2.0, 2.0]))
    npt.assert_allclose(sol.residual, 0.0, atol=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_least_squares_matches_numpy(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((6, 3))
    b = rng.standard_normal(6)
    sol = least_squares(a, b)
    expected, *_ = np.linalg.lstsq(a, b, rcond=None)
    npt.assert_allclose(sol.x, expected, atol=1e-10)
    npt.assert_allclose(sol.residual, np.linalg.norm(a @ sol.x - b), atol=1e-12)
