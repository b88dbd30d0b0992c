import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from framephase import reconstruct
from framephase.experiments import _derived_seed, _trial_rng
from framephase.frames import (
    COMPLEX,
    REAL,
    Frame,
    analysis_matrix,
    coefficient_range,
    gen_random,
)
from framephase.linalg import DEFAULT_TOL, Tolerance, least_squares
from framephase.injectivity import verify_witness
from framephase.magnitude import canonical_ray, magnitude_map, ray_equal
from framephase.reconstruct import (
    STATUS_AMBIGUOUS,
    STATUS_HEURISTIC_FAIL,
    STATUS_HEURISTIC_SUCCESS,
    STATUS_NO_SOLUTION,
    STATUS_UNIQUE,
    SearchBudgetExceeded,
    _finalize,
    _levenberg_marquardt,
    _pivot_block,
    error_reduction,
    reconstruct_complex,
    reconstruct_real,
    result_to_dict,
)

import oracles
import output_digest

LOOSE = Tolerance(rank_eps=1e-10, residual_eps=1e-6)


def hand_frame():
    return Frame(REAL, np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))


def test_reconstruct_real_hand_unique():
    # |x1| = 1, |x2| = 2, |x1 + x2| = 3 forces matching signs: ray (1, 2).
    result = reconstruct_real(hand_frame(), np.array([1.0, 2.0, 3.0]))
    assert result.status == STATUS_UNIQUE
    assert len(result.rays) == 1
    assert ray_equal(result.rays[0], np.array([1.0, 2.0]))
    assert result.residuals[0] <= 1e-8 * 4.0
    assert result.patterns_explored >= 3


def test_reconstruct_real_hand_ambiguous():
    result = reconstruct_real(Frame(REAL, np.eye(2)), np.array([1.0, 1.0]))
    assert result.status == STATUS_AMBIGUOUS
    assert len(result.rays) == 2
    expected = [np.array([1.0, 1.0]), np.array([1.0, -1.0])]
    for e in expected:
        assert any(ray_equal(r, e) for r in result.rays)


def test_reconstruct_real_hand_no_solution():
    # |x1| = 1 and |x2| = 1 cap |x1 + x2| at 2, so 5 is infeasible.
    result = reconstruct_real(hand_frame(), np.array([1.0, 1.0, 5.0]))
    assert result.status == STATUS_NO_SOLUTION
    assert result.rays == []


def test_reconstruct_real_zero_measurements():
    result = reconstruct_real(hand_frame(), np.zeros(3))
    assert result.status == STATUS_UNIQUE
    npt.assert_allclose(result.rays[0], np.zeros(2), atol=1e-14)


def test_reconstruct_real_zero_entry_is_sign_free():
    # a = (0, 2, 2): solutions (0, 2) and (0, -2) are the same ray.
    result = reconstruct_real(hand_frame(), np.array([0.0, 2.0, 2.0]))
    assert result.status == STATUS_UNIQUE
    assert ray_equal(result.rays[0], np.array([0.0, 2.0]))


@pytest.mark.parametrize("m", [3, 5])
@pytest.mark.parametrize("c", [1e-9, 1.0, 1e9])
def test_reconstruct_real_keeps_a_planted_signal_with_several_small_entries(m, c):
    # M - 1 copies of e2 measure x2 alone. At x2 = 2e-9 they total at most
    # 4e-9 ||a||, below half the bound, so their signs are free and the ray
    # is (1, 0) within tolerance. At x2 = 8e-9 they total 1.1e-8 ||a|| or
    # more, so their signs are solved for: (1, 8e-9) and (1, -8e-9) both fit
    # exactly and lie 1.6e-8 ||a|| apart, a genuine ambiguity.
    f = Frame(REAL, np.array([[1.0, 0.0]] + [[0.0, 1.0]] * (m - 1)))
    for x2, status in ((2e-9, STATUS_UNIQUE), (8e-9, STATUS_AMBIGUOUS)):
        x = c * np.array([1.0, x2])
        a = magnitude_map(f, x)
        result = reconstruct_real(f, a)
        assert result.status == status
        assert any(ray_equal(r, x) for r in result.rays)
        assert max(result.residuals) <= 1e-8 * np.linalg.norm(a)


def test_reconstruct_real_validation():
    with pytest.raises(ValueError):
        reconstruct_real(hand_frame(), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        reconstruct_real(hand_frame(), np.array([1.0, -2.0, 3.0]))
    with pytest.raises(ValueError):
        reconstruct_real(gen_random(COMPLEX, 2, 4, seed=0), np.ones(4))


@pytest.mark.parametrize("seed", range(8))
def test_reconstruct_real_recovers_random_signals(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    m = 2 * n - 1 + int(rng.integers(0, 3))
    f = gen_random(REAL, n, m, seed=seed + 200)
    x = rng.standard_normal(n)
    a = magnitude_map(f, x)
    result = reconstruct_real(f, a)
    assert result.status == STATUS_UNIQUE
    assert ray_equal(result.rays[0], x)
    assert result.residuals[0] <= 1e-8 * (1.0 + float(np.linalg.norm(a)))


@pytest.mark.parametrize("seed", range(6))
def test_pruned_search_matches_exhaustive_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 4))
    m = int(rng.integers(n, 8))
    f = gen_random(REAL, n, m, seed=seed + 300)
    x = rng.standard_normal(n)
    a = magnitude_map(f, x)
    result = reconstruct_real(f, a)
    status, rays = oracles.exhaustive_real_rays(f.vectors, a)
    assert result.status == status
    assert len(result.rays) == len(rays)
    for r in rays:
        assert any(oracles.same_ray(r, s) for s in result.rays)


def test_pruned_search_matches_exhaustive_on_infeasible():
    f = gen_random(REAL, 3, 6, seed=17)
    rng = np.random.default_rng(17)
    a = np.abs(rng.standard_normal(6))  # almost surely not a magnitude image
    result = reconstruct_real(f, a)
    status, rays = oracles.exhaustive_real_rays(f.vectors, a)
    assert result.status == status == STATUS_NO_SOLUTION
    assert rays == []


def test_finalize_drops_repeated_rays_and_rejects_misfits():
    f = gen_random(REAL, 3, 6, seed=8)
    x = np.random.default_rng(8).standard_normal(3)
    a = magnitude_map(f, x)
    # -x is x's ray again; 2x measures 2a, which misses a.
    result = _finalize(f, a, [x, -x, 2.0 * x], DEFAULT_TOL)
    assert result.status == STATUS_UNIQUE
    assert len(result.rays) == 1 and ray_equal(result.rays[0], x)
    npt.assert_array_equal(result.rays[0], canonical_ray(x))


def test_finalize_keeps_one_ray_per_complex_phase_class():
    f = gen_random(COMPLEX, 2, 4, seed=9)
    rng = np.random.default_rng(9)
    x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    result = _finalize(f, magnitude_map(f, x), [x, 1j * x], DEFAULT_TOL)
    assert result.status == STATUS_UNIQUE
    assert len(result.rays) == 1 and ray_equal(result.rays[0], x)


def test_finalize_of_a_random_candidate_is_no_solution():
    f = gen_random(REAL, 3, 6, seed=10)
    rng = np.random.default_rng(10)
    a = magnitude_map(f, rng.standard_normal(3))
    result = _finalize(f, a, [rng.standard_normal(3)], DEFAULT_TOL)
    assert result.status == STATUS_NO_SOLUTION
    assert result.rays == [] and result.best_residual is None


def test_oracle_same_ray_is_relative_below_unit_norm():
    assert not oracles.same_ray(1e-9 * np.array([1.0, 0.0]), 1e-9 * np.array([0.0, 1.0]))


def test_exhaustive_oracle_separates_rays_at_the_library_scale():
    # The mirror ray (1, -8e-9) lies 1.6e-8 ||a|| away, beyond residual_eps.
    f = Frame(REAL, np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]))
    a = magnitude_map(f, np.array([1.0, 8e-9]))
    status, rays = oracles.exhaustive_real_rays(f.vectors, a)
    result = reconstruct_real(f, a)
    assert status == result.status == STATUS_AMBIGUOUS
    assert len(rays) == len(result.rays) == 2
    for r in rays:
        assert any(oracles.same_ray(r, s) for s in result.rays)


def _degenerate_case(seed, n, m, case):
    """A real frame and magnitudes for one of the awkward input regimes."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((m, n))
    x = rng.standard_normal(n)
    if case in ("zero", "near-zero") and n >= 2:
        # A vector orthogonal to x measures 0. Shortened, pivoting leaves it
        # out of the block; tilted towards x (with ||a|| = 0.1), it measures
        # a little above the significance cutoff, and both signs can fit.
        w = rng.standard_normal(n)
        w -= (w @ x) / (x @ x) * x
        if case == "near-zero":
            x *= 0.1 / np.linalg.norm(v @ x)
            w *= 1e-2
            w += rng.uniform(1.0, 4.0) * 1e-9 * x / (x @ x)
        v[rng.integers(m)] = w
    elif case in ("parallel", "duplicate") and m >= 2:
        i, j = rng.choice(m, 2, replace=False)
        v[j] = v[i] * (rng.uniform(-3.0, 3.0) if case == "parallel" else 1.0)
    elif case == "scaled":
        v *= 10.0 ** rng.uniform(-3.0, 3.0, size=(m, 1))
    try:
        f = Frame(REAL, v)
    except ValueError:  # the change left the family non-spanning
        return None
    if case == "inconsistent":
        return f, np.abs(rng.standard_normal(m)) * np.sqrt(n)
    a = magnitude_map(f, x)
    if case in ("noisy", "near-zero"):
        # Noise of the order of the acceptance threshold.
        sigma = rng.uniform(0.3, 2.0) * 1e-8 * np.linalg.norm(a) / np.sqrt(m)
        a = np.abs(a + sigma * rng.standard_normal(m))
    return f, a


def _pruned_dfs(frame, a, tol=DEFAULT_TOL):
    """The reference search: depth first over signs in descending magnitude
    order, + before -, one least-squares solve per node, pruned at the
    acceptance threshold residual_eps * ||a|| (prefix residuals only grow
    with depth). The smallest entries, of total norm at most half of it,
    are targeted at 0. Returns the accepted leaf solutions in visit order."""
    threshold = tol.residual_eps * float(np.linalg.norm(a))
    order = np.argsort(-a, kind="stable")
    t_ord = analysis_matrix(frame)[order]
    a_ord = a[order]
    significant = np.array([np.linalg.norm(a[a <= v]) > threshold / 2 for v in a_ord])
    solutions = []
    stack = [()]
    while stack:
        signs = stack.pop()
        depth = len(signs)
        if depth > 0:
            target = np.array(signs, dtype=np.float64) * a_ord[:depth]
            sol = least_squares(t_ord[:depth], target, tol)
            if sol.residual > threshold:
                continue
            if depth == frame.m:
                solutions.append(sol.x)
                continue
        if significant[depth] and depth > 0:
            stack.append(signs + (-1,))
        stack.append(signs + (1 if significant[depth] else 0,))
    return solutions


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much],
)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 6),
    extra=st.integers(0, 6),
    case=st.sampled_from(
        ["planted", "zero", "near-zero", "parallel", "duplicate", "scaled",
         "inconsistent", "noisy"]
    ),
)
def test_block_search_matches_exhaustive_search(seed, n, extra, case):
    made = _degenerate_case(seed, n, min(n + extra, 12), case)
    assume(made is not None)
    f, a = made
    result = reconstruct_real(f, a)
    # Same solutions as the per-node search, hence the same bytes.
    reference = _finalize(
        f, a, _pruned_dfs(f, a), DEFAULT_TOL, patterns_explored=result.patterns_explored
    )
    assert result_to_dict(result, REAL) == result_to_dict(reference, REAL)
    status, rays = oracles.exhaustive_real_rays(f.vectors, a)
    assert result.status == status
    assert len(result.rays) == len(rays)
    for r in rays:
        assert any(oracles.same_ray(r, s) for s in result.rays)


def _times_pow2(v, k):
    """v * 2^k, exact for real or complex v whose result stays normal."""
    if np.iscomplexobj(v):
        return np.ldexp(v.real, k) + 1j * np.ldexp(v.imag, k)
    return np.ldexp(v, k)


def _assert_scaled_bitwise(scaled, base, k):
    # A power of two scales exactly, so the result at 2^k a must be 2^k
    # times the result at a, bit for bit, over the whole float range.
    assert scaled.status == base.status
    assert scaled.patterns_explored == base.patterns_explored
    assert scaled.restarts_used == base.restarts_used
    assert len(scaled.rays) == len(base.rays)
    for r, s in zip(base.rays, scaled.rays):
        assert np.array_equal(s, _times_pow2(r, k))
    assert scaled.residuals == [float(np.ldexp(r, k)) for r in base.residuals]
    if base.best_residual is None:
        assert scaled.best_residual is None
    else:
        assert scaled.best_residual == float(np.ldexp(base.best_residual, k))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.sampled_from([5, 7]),
    log_c=st.floats(-12.0, 12.0),
    k=st.integers(-900, 900),
)
def test_reconstruct_real_rays_scale_with_the_magnitudes(seed, m, log_c, k):
    # The magnitude map is homogeneous, so scaling the magnitudes by c must
    # scale every recovered ray by c and keep the status (M=5 is ambiguous).
    f = gen_random(REAL, 4, m, seed=seed)
    a = magnitude_map(f, np.random.default_rng(seed).standard_normal(4))
    c = 10.0**log_c
    base, scaled = reconstruct_real(f, a), reconstruct_real(f, c * a)
    assert scaled.status == base.status
    assert len(scaled.rays) == len(base.rays)
    for r, s in zip(base.rays, scaled.rays):
        assert np.linalg.norm(s - c * r) <= 1e-9 * c * np.linalg.norm(r)
    _assert_scaled_bitwise(reconstruct_real(f, np.ldexp(a, k)), base, k)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), log_c=st.floats(-12.0, 12.0), k=st.integers(-900, 900))
def test_reconstruct_complex_rays_scale_with_the_magnitudes(seed, log_c, k):
    f = gen_random(COMPLEX, 3, 10, seed=seed)
    rng = np.random.default_rng(seed)
    a = magnitude_map(f, rng.standard_normal(3) + 1j * rng.standard_normal(3))
    c = 10.0**log_c
    base, scaled, pow2 = (
        reconstruct_complex(f, b, restarts=5, max_iters=200, seed=seed)
        for b in (a, c * a, np.ldexp(a, k))
    )
    assert scaled.status == base.status
    assert len(scaled.rays) == len(base.rays)
    for r, s in zip(base.rays, scaled.rays):
        assert np.linalg.norm(s - c * r) <= 1e-6 * c * np.linalg.norm(r)
    _assert_scaled_bitwise(pow2, base, k)


@pytest.mark.parametrize("n", range(1, 11))
def test_pivot_block_matches_lapack_pivoted_qr(n):
    # Reference: the first N column pivots of LAPACK's geqp3 on t.T.
    for m in range(n, 2 * n + 4):
        for seed in range(3):
            t = np.random.default_rng([n, m, seed]).standard_normal((m, n))
            perm = scipy.linalg.qr(t.T, pivoting=True)[2]
            npt.assert_array_equal(_pivot_block(t, n), np.sort(perm[:n]))


def test_block_search_recovers_n16_within_default_budget():
    f = gen_random(REAL, 16, 31, seed=16)
    x = np.random.default_rng(16).standard_normal(16)
    result = reconstruct_real(f, magnitude_map(f, x))
    assert result.status == STATUS_UNIQUE
    assert ray_equal(result.rays[0], x)
    # Every magnitude is significant, so k = N - 1 block signs are free.
    assert result.patterns_explored == 2**16 - 1


def test_patterns_explored_is_block_sign_tree_size():
    f = gen_random(REAL, 5, 9, seed=3)
    x = np.random.default_rng(3).standard_normal(5)
    assert reconstruct_real(f, magnitude_map(f, x)).patterns_explored == 2**5 - 1
    # No significant magnitude leaves no free sign: k = 0.
    assert reconstruct_real(f, np.zeros(9)).patterns_explored == 1


def test_search_budget_carries_partial_result(monkeypatch):
    f = gen_random(REAL, 4, 10, seed=5)
    x = np.random.default_rng(5).standard_normal(4)
    a = magnitude_map(f, x)
    monkeypatch.setattr(reconstruct, "_NODE_BUDGET", 3)
    with pytest.raises(SearchBudgetExceeded) as info:
        reconstruct_real(f, a)
    assert info.value.partial.patterns_explored >= 3


def test_search_budget_counts_full_sign_patterns(monkeypatch):
    # N=2, M=6: two Gaussian rows and four rows nearly orthogonal to x, each
    # with |<x, f>| = 1.2e-8 ||a||, more than the sign-free total of
    # 0.5e-8 ||a||. Those four magnitudes are significant but within their
    # propagated bound, so their signs are loose: the 3-node sign tree fits
    # the budget and the 2^4 full sign patterns do not.
    rng = np.random.default_rng(1)
    x = rng.standard_normal(2)
    g = rng.standard_normal((2, 2))
    perp = np.array([-x[1], x[0]]) / np.linalg.norm(x)
    tilt = 1.2e-8 * np.linalg.norm(g @ x) * x / (x @ x)
    f = Frame(REAL, np.vstack([g, np.outer(rng.uniform(0.5, 1.0, 4), perp) + tilt]))
    monkeypatch.setattr(reconstruct, "_NODE_BUDGET", 3)
    with pytest.raises(SearchBudgetExceeded, match="full sign patterns") as info:
        reconstruct_real(f, magnitude_map(f, x))
    partial = info.value.partial
    assert partial.status == STATUS_NO_SOLUTION
    assert partial.rays == []
    assert partial.patterns_explored == 3


@pytest.mark.parametrize("seed", range(5))
def test_error_reduction_residuals_nonincreasing(seed):
    rng = np.random.default_rng(seed)
    f = gen_random(COMPLEX, 2, 6, seed=seed + 400)
    x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    a = magnitude_map(f, x)
    basis = coefficient_range(f)
    start = a * np.exp(1j * rng.uniform(0, 2 * np.pi, 6))
    _, history = error_reduction(basis, a, start, max_iters=200)
    slack = 1e-10 * (1.0 + float(np.linalg.norm(a)))
    diffs = np.diff(np.asarray(history))
    assert np.all(diffs <= slack)


def test_error_reduction_converges_from_true_phases():
    f = gen_random(COMPLEX, 3, 10, seed=6)
    rng = np.random.default_rng(6)
    x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    c = np.conj(f.vectors) @ x
    a = np.abs(c)
    basis = coefficient_range(f)
    _, history = error_reduction(basis, a, c, max_iters=50)
    assert history[-1] <= 1e-10 * (1.0 + float(np.linalg.norm(a)))


@pytest.mark.parametrize("seed", range(5))
def test_reconstruct_complex_recovers_planted_signal(seed):
    rng = np.random.default_rng(seed + 500)
    f = gen_random(COMPLEX, 2, 6, seed=seed + 600)
    x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    a = magnitude_map(f, x)
    result = reconstruct_complex(f, a, restarts=20, max_iters=500, seed=seed)
    assert result.status == STATUS_HEURISTIC_SUCCESS
    assert ray_equal(result.rays[0], x, LOOSE)
    assert result.restarts_used >= 1
    assert result.best_residual <= 1e-8 * (1.0 + float(np.linalg.norm(a)))


def test_reconstruct_complex_deterministic():
    f = gen_random(COMPLEX, 2, 6, seed=8)
    x = np.array([1.0 + 0.5j, -2.0])
    a = magnitude_map(f, x)
    r1 = reconstruct_complex(f, a, seed=42)
    r2 = reconstruct_complex(f, a, seed=42)
    assert r1.status == r2.status == STATUS_HEURISTIC_SUCCESS
    npt.assert_array_equal(r1.rays[0], r2.rays[0])
    assert r1.restarts_used == r2.restarts_used


def test_reconstruct_complex_zero_measurements():
    f = gen_random(COMPLEX, 2, 4, seed=9)
    result = reconstruct_complex(f, np.zeros(4))
    assert result.status == STATUS_UNIQUE
    npt.assert_allclose(result.rays[0], np.zeros(2), atol=1e-14)


def test_reconstruct_complex_infeasible_measurements_fail():
    f = gen_random(COMPLEX, 2, 6, seed=10)
    rng = np.random.default_rng(10)
    a = np.abs(rng.standard_normal(6)) + 0.5
    result = reconstruct_complex(f, a, restarts=5, max_iters=100, seed=0)
    assert result.status == STATUS_HEURISTIC_FAIL
    assert result.rays == []
    assert result.best_residual is not None and result.best_residual > 1e-4


@pytest.mark.parametrize("seed, n, m, t", [(7, 2, 4, 136), (7, 3, 6, 179), (11, 2, 6, 53)])
def test_reconstruct_complex_recovers_the_complex_preset_trials_error_reduction_missed(
    seed, n, m, t
):
    # Error reduction stalled just above residual_bound(a) on these trials of
    # the complex preset (best 4.22e-8 against 3.65e-8, 9.83e-8 against
    # 9.22e-8, 1.02e-7 against 9.67e-8) and used all 20 restarts. The input
    # is built as run_complex_genericity builds it.
    rng = _trial_rng(seed, n, m, 5, t)
    f = gen_random(COMPLEX, n, m, rng)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    a = magnitude_map(f, x)
    result = reconstruct_complex(
        f, a, restarts=20, max_iters=500, seed=_derived_seed(seed, n, m, 6, t)
    )
    assert result.status == STATUS_HEURISTIC_SUCCESS
    assert ray_equal(result.rays[0], x, LOOSE)
    assert result.best_residual <= DEFAULT_TOL.residual_bound(a)


# Planted and 1e-9-scaled planted inputs of tests/output_digest.py on nearly
# low-dimensional, row-scaled and duplicate-row frames (condition numbers up
# to 6e9). Levenberg-Marquardt over x itself, rather than over coordinates
# of the coefficient range, returned heuristic_fail on all of them.
_ILL_CONDITIONED = (81, 417, 487, 529, 543, 585, 633, 641, 879, 1129, 1159, 1215, 1271, 1297, 1383)
# Frames below 4N-4 vectors where another ray matches the planted magnitudes
# within the bound; error reduction returns that ray too.
_SECOND_RAY = (1129, 1271)


@pytest.mark.parametrize("i", _ILL_CONDITIONED)
def test_reconstruct_complex_recovers_planted_coefficients_on_ill_conditioned_frames(i):
    f, x = output_digest._frame(i)
    if output_digest.MAGNITUDES[(i // 2) % len(output_digest.MAGNITUDES)] == "scaled":
        x = 1e-9 * x
    result = reconstruct_complex(f, magnitude_map(f, x), restarts=5, max_iters=200, seed=i)
    assert result.status == STATUS_HEURISTIC_SUCCESS
    ray = result.rays[0]
    if i in _SECOND_RAY:
        assert verify_witness(f, ray, x)
    else:
        # The frame's conditioning spreads the planted ray along its nearly
        # null directions, so the rays are compared by their coefficients.
        t = analysis_matrix(f)
        assert ray_equal(t @ ray, t @ x, LOOSE)


def test_reconstruct_complex_restarts_stop_early_on_inconsistent_magnitudes(monkeypatch):
    f = gen_random(COMPLEX, 3, 10, seed=10)
    a = np.abs(np.random.default_rng(10).standard_normal(10)) + 0.5
    lengths = []

    def recording(*args):
        y, history = _levenberg_marquardt(*args)
        lengths.append(len(history))
        return y, history

    monkeypatch.setattr(reconstruct, "_levenberg_marquardt", recording)
    result = reconstruct_complex(f, a, restarts=20, max_iters=500, seed=0)
    assert result.status == STATUS_HEURISTIC_FAIL
    assert result.best_residual is not None and result.best_residual > 1e-4
    # Every restart ends on the stall or damping rule, not on max_iters.
    assert len(lengths) == 20
    assert max(lengths) < 500


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 4),
    extra=st.integers(0, 8),
    consistent=st.booleans(),
)
def test_levenberg_marquardt_loss_never_increases(seed, n, extra, consistent):
    rng = np.random.default_rng(seed)
    m = n + extra
    f = gen_random(COMPLEX, n, m, seed=seed)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    a = magnitude_map(f, x) if consistent else np.abs(rng.standard_normal(m))
    basis = coefficient_range(f)
    start = basis.conj().T @ (a * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, m)))
    y, history = _levenberg_marquardt(basis, a, start, 100)
    assert len(history) <= 100
    assert np.all(np.diff(history) <= 0.0)
    if history:
        # The returned coordinates are the iterate whose loss ends the history,
        # up to the rounding of |Q y|^2 - a^2 on the scale of ||a||^2.
        loss = np.linalg.norm(np.abs(basis @ y) ** 2 - a**2)
        assert abs(loss - history[-1]) <= 1e-12 * float(a @ a)


def test_reconstruct_complex_validation():
    with pytest.raises(ValueError):
        reconstruct_complex(gen_random(REAL, 2, 4, seed=0), np.ones(4))
    with pytest.raises(ValueError):
        reconstruct_complex(gen_random(COMPLEX, 2, 4, seed=0), np.ones(3))
    f = gen_random(COMPLEX, 2, 4, seed=0)
    for counts in ({"restarts": 0}, {"restarts": -3}, {"max_iters": 0}, {"max_iters": -1}):
        with pytest.raises(ValueError, match="must be >= 1"):
            reconstruct_complex(f, np.ones(4), **counts)


def test_result_to_dict_fields():
    result = reconstruct_real(hand_frame(), np.array([1.0, 2.0, 3.0]))
    d = result_to_dict(result, REAL)
    assert set(d) == {
        "status",
        "rays",
        "residuals",
        "patterns_explored",
        "restarts_used",
        "best_residual",
    }
    assert d["status"] == STATUS_UNIQUE
    npt.assert_allclose(d["rays"][0], [1.0, 2.0], atol=1e-9)
    f = gen_random(COMPLEX, 2, 6, seed=8)
    x = np.array([1.0 + 0.5j, -2.0])
    rc = reconstruct_complex(f, magnitude_map(f, x), seed=1)
    dc = result_to_dict(rc, COMPLEX)
    assert all(len(entry) == 2 for entry in dc["rays"][0])
