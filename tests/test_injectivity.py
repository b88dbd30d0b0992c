import json
import math
import tracemalloc
from unittest.mock import patch

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from framephase import injectivity
from framephase.frames import (
    COMPLEX,
    REAL,
    Frame,
    apply_invertible,
    gen_full_spark,
    gen_random,
    gen_repeated_tail,
    gen_windowed_fourier,
)
from framephase.injectivity import (
    VERDICT_INJECTIVE,
    VERDICT_NECESSARY,
    VERDICT_NOT_INJECTIVE,
    certificate_to_dict,
    certify,
    complement_property,
    verify_witness,
    witness_pair,
)
from framephase.linalg import Tolerance, rank
from framephase.magnitude import SignPattern, magnitude_map, ray_equal

import oracles


def basis_frame():
    return Frame(REAL, np.eye(2))


def doubled_basis_frame():
    return Frame(REAL, np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]))


def test_witness_pair_on_standard_basis():
    pattern = SignPattern.from_indices([0], 2)
    f = basis_frame()
    x, y = witness_pair(f, pattern)
    # x = u + v, y = u - v with u in span{e2} and v in span{e1}: both
    # measure to equal magnitudes but generate different rays.
    npt.assert_allclose(magnitude_map(f, x), magnitude_map(f, y), atol=1e-14)
    assert not ray_equal(x, y)
    assert verify_witness(f, x, y)
    assert abs(x[0]) == pytest.approx(abs(y[0]), abs=1e-14)
    assert abs(x[1]) == pytest.approx(abs(y[1]), abs=1e-14)


def test_witness_pair_requires_both_sides_deficient():
    f = Frame(REAL, np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(ValueError):
        witness_pair(f, SignPattern.from_indices([0], 3))


def test_complement_property_standard_basis_fails_at_first_subset():
    cert = complement_property(basis_frame())
    assert cert.verdict == VERDICT_NOT_INJECTIVE
    assert cert.failing_subset.indices() == (0,)
    assert cert.checked_subsets == 1
    assert verify_witness(basis_frame(), *cert.witness)


def test_complement_property_doubled_basis():
    cert = complement_property(doubled_basis_frame())
    assert cert.verdict == VERDICT_NOT_INJECTIVE
    assert cert.failing_subset.indices() == (0,)
    x, y = cert.witness
    npt.assert_allclose(
        magnitude_map(doubled_basis_frame(), x),
        magnitude_map(doubled_basis_frame(), y),
        atol=1e-12,
    )
    assert not ray_equal(x, y)


def test_complement_property_hand_injective_frame():
    f = Frame(REAL, np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    cert = complement_property(f)
    assert cert.verdict == VERDICT_INJECTIVE
    assert cert.failing_subset is None
    assert cert.witness is None
    assert cert.checked_subsets == 4


def test_complement_property_budget():
    f = Frame(REAL, np.ones((25, 1)))
    with pytest.raises(ValueError):
        complement_property(f)


@pytest.mark.parametrize("seed", range(5))
def test_complement_property_agrees_with_range_side_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 4))
    m = int(rng.integers(n, 7))
    f = gen_random(REAL, n, m, seed=seed + 50)
    cert = complement_property(f)
    injective, subset = oracles.injectivity_oracle(f.vectors)
    assert (cert.verdict == VERDICT_INJECTIVE) == injective


def test_full_spark_detects_dependency():
    f = doubled_basis_frame()
    is_full_spark, subset = oracles.full_spark(f.vectors)
    assert not is_full_spark
    assert subset == (1, 2)
    assert oracles.full_spark(gen_full_spark(REAL, 3, 6, seed=1).vectors)[0]


@pytest.mark.parametrize("n,seed", [(2, 0), (2, 3), (3, 1)])
def test_full_spark_equivalence_random(n, seed):
    f = gen_random(REAL, n, 2 * n - 1, seed=seed)
    is_full_spark, _ = oracles.full_spark(f.vectors)
    cert = complement_property(f)
    assert is_full_spark == (cert.verdict == VERDICT_INJECTIVE)
    assert is_full_spark
    assert cert.verdict == VERDICT_INJECTIVE


def test_full_spark_equivalence_handcrafted_dependent():
    base = gen_random(REAL, 3, 5, seed=2)
    vectors = base.vectors.copy()
    vectors[4] = vectors[1]  # duplicate kills full spark at M = 2N-1
    f = Frame(REAL, vectors)
    is_full_spark, _ = oracles.full_spark(f.vectors)
    cert = complement_property(f)
    assert is_full_spark == (cert.verdict == VERDICT_INJECTIVE)
    assert not is_full_spark
    assert cert.verdict == VERDICT_NOT_INJECTIVE
    assert verify_witness(f, *cert.witness)


def test_repeated_tail_injective_without_full_spark():
    f = gen_repeated_tail(REAL, 2, 4, seed=0)
    assert complement_property(f).verdict == VERDICT_INJECTIVE
    is_full_spark, subset = oracles.full_spark(f.vectors)
    assert not is_full_spark
    assert subset == (2, 3)


def test_gabor_frames_are_never_injective():
    # Only the first window placement touches sample 0 (gen_windowed_fourier
    # explains why that rules out injectivity); every such frame has M <= 20.
    certified = 0
    for n in range(2, 9):
        for fft_size in range(1, n + 1):
            for hop in (1, 2, 3):
                rng = np.random.default_rng([n, fft_size, hop])
                for window in (np.ones(fft_size), rng.standard_normal(fft_size)):
                    try:
                        f = gen_windowed_fourier(window, n, hop, fft_size)
                    except ValueError as exc:
                        assert "not a frame" in str(exc)
                        continue
                    assert certify(f).verdict == VERDICT_NOT_INJECTIVE, (n, fft_size, hop)
                    certified += 1
    assert certified == 122


@pytest.mark.parametrize("seed", range(4))
def test_appending_a_vector_preserves_injectivity(seed):
    rng = np.random.default_rng(seed)
    f = gen_random(REAL, 3, 5, seed=seed)
    if complement_property(f).verdict != VERDICT_INJECTIVE:
        pytest.skip("random frame unexpectedly not injective")
    extended = Frame(REAL, np.vstack([f.vectors, rng.standard_normal(3)]))
    assert complement_property(extended).verdict == VERDICT_INJECTIVE


def test_certify_real_delegates_to_subset_check():
    f = gen_random(REAL, 3, 5, seed=4)
    assert certify(f).verdict == complement_property(f).verdict


@pytest.mark.parametrize("n,m", [(2, 2), (3, 3), (3, 4)])
def test_certify_complex_small_count_balanced_split(n, m):
    f = gen_random(COMPLEX, n, m, seed=n * 10 + m)
    cert = certify(f)
    assert cert.verdict == VERDICT_NOT_INJECTIVE
    assert cert.failing_subset.indices() == tuple(range(m // 2))
    assert verify_witness(f, *cert.witness)
    x, y = cert.witness
    assert not ray_equal(x, y)


@pytest.mark.parametrize("n,seed", [(2, 0), (2, 7), (3, 1), (3, 9)])
def test_certify_complex_minimal_count_witness(n, seed):
    f = gen_random(COMPLEX, n, 2 * n - 1, seed=seed)
    cert = certify(f)
    assert cert.verdict == VERDICT_NOT_INJECTIVE
    # The first pivot, N-1, gives the witness; no split is walked.
    assert cert.failing_subset is None
    assert cert.checked_subsets == 1
    x, y = cert.witness
    a_x = magnitude_map(f, x)
    a_y = magnitude_map(f, y)
    assert float(np.linalg.norm(a_x - a_y)) <= 1e-12 * float(np.linalg.norm(a_x))
    assert not ray_equal(x, y)


def test_certify_complex_minimal_count_near_parallel_pair():
    # f_2 is within 1e-9 of a multiple of f_0, so at pivot 1 the null
    # vectors of {f_0} and {f_2} are nearly parallel and their pair gives
    # one ray twice; the next pivot, 2, gives a witness.
    rng = np.random.default_rng(0)
    v = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    v[2] = (0.3 + 1j) * v[0] + 1e-9 * np.array([1, 1j])
    f = Frame(COMPLEX, v)
    cert = certify(f)
    assert cert.verdict == VERDICT_NOT_INJECTIVE
    assert cert.failing_subset is None
    assert cert.checked_subsets == 2
    assert verify_witness(f, *cert.witness)


def _minimal_count_frames():
    """Seeded complex M = 2N-1 frames, N 2-5: 2,000 Gaussian ones, 200 with
    one vector within 1e-10 to 1e-8 of a multiple of another, and the
    nearly low-dimensional ones of _frame_case."""
    for n in range(2, 6):
        for seed in range(500):
            yield gen_random(COMPLEX, n, 2 * n - 1, seed=seed)
    for seed in range(200):
        rng = np.random.default_rng([7, seed])
        n = 2 + seed % 4
        m = 2 * n - 1
        v = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        i, j = rng.choice(m, 2, replace=False)
        offset = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v[j] = complex(*rng.standard_normal(2)) * v[i] + 10.0 ** rng.uniform(-10, -8) * offset
        yield Frame(COMPLEX, v)
    for n in range(2, 6):
        for seed in range(100):
            f = _frame_case(seed, COMPLEX, n, 2 * n - 1, "near-low-dim")
            if f is not None:
                yield f


def test_pivot_witness_verifies_on_every_seeded_minimal_count_frame():
    # The no-miss run that lets the pivot witness stand alone at M = 2N-1.
    tol = Tolerance(rank_eps=1e-10)
    frames = 0
    for f in _minimal_count_frames():
        cert = certify(f, tol)
        assert cert.verdict == VERDICT_NOT_INJECTIVE
        assert verify_witness(f, *cert.witness, tol)
        frames += 1
    assert frames >= 2_400


def test_certify_walks_no_split_at_complex_minimal_count():
    calls = []

    def counting_complement_property(frame, tol):
        calls.append(frame)
        return complement_property(frame, tol)

    with patch.object(injectivity, "complement_property", counting_complement_property):
        for f in _minimal_count_frames():
            certify(f)
    assert calls == []


def test_certify_complex_large_count_passes_necessary_conditions():
    f = gen_random(COMPLEX, 2, 6, seed=3)
    cert = certify(f)
    assert cert.verdict == VERDICT_NECESSARY
    assert cert.witness is None


def test_certificate_to_dict_shapes():
    cert = complement_property(basis_frame())
    d = certificate_to_dict(cert, REAL)
    assert d["verdict"] == VERDICT_NOT_INJECTIVE
    assert d["failing_subset"] == [0]
    assert set(d["witness"]) == {"x", "y"}
    assert len(d["witness"]["x"]) == 2
    assert d["checked_subsets"] == 1

    f = gen_random(REAL, 2, 3, seed=1)
    d = certificate_to_dict(complement_property(f), REAL)
    assert d["verdict"] == VERDICT_INJECTIVE
    assert d["failing_subset"] is None
    assert d["witness"] is None
    assert d["checked_subsets"] == 4


def _reference_complement_property(frame, tol):
    """The per-split rank test on every split, with no screen."""
    m, n = frame.m, frame.n
    if m > injectivity._MAX_VECTORS:
        raise ValueError(
            f"M={m} exceeds the subset enumeration budget ({injectivity._MAX_VECTORS} vectors)"
        )
    vectors = frame.vectors
    pairs = 1 << (m - 1)
    for rest in range(pairs):
        smask = (rest << 1) | 1
        if smask.bit_count() >= n:
            idx_s = [i for i in range(m) if smask >> i & 1]
            if rank(vectors[idx_s], tol) >= n:
                continue
        cmask = smask ^ ((1 << m) - 1)
        if cmask.bit_count() >= n:
            idx_c = [i for i in range(m) if cmask >> i & 1]
            if rank(vectors[idx_c], tol) >= n:
                continue
        pattern = SignPattern(smask, m)
        return injectivity._not_injective(
            frame,
            witness_pair(frame, pattern, tol),
            tol,
            f"witness for failing subset {pattern.indices()}",
            pattern,
            rest + 1,
        )
    verdict = VERDICT_INJECTIVE if frame.field == REAL else VERDICT_NECESSARY
    return injectivity.InjectivityCertificate(verdict, None, None, pairs)


def _outcome(check, frame, tol):
    """Certificate bytes, or the exception's type and message."""
    try:
        cert = check(frame, tol)
    except Exception as exc:  # compared, not swallowed
        return type(exc).__name__, str(exc)
    return json.dumps(certificate_to_dict(cert, frame.field))


def _assert_same_as_per_split_rank_test(frame, tol):
    expected = _outcome(_reference_complement_property, frame, tol)
    assert _outcome(complement_property, frame, tol) == expected
    with patch.object(injectivity, "complement_property", _reference_complement_property):
        expected = _outcome(certify, frame, tol)
    assert _outcome(certify, frame, tol) == expected


_FRAME_CASES = [
    "gaussian", "duplicate", "parallel", "near-parallel", "scaled",
    "near-low-dim", "near-failing-split", "zero-row",
]


def _frame_case(seed, field, n, m, case):
    """A seeded frame of the named kind, or None when its rows do not span."""
    rng = np.random.default_rng(seed)

    def draw(*shape):
        v = rng.standard_normal(shape)
        return v + 1j * rng.standard_normal(shape) if field == COMPLEX else v

    v = draw(m, n)
    eps = 10.0 ** rng.uniform(-14, -4)
    i, j = rng.choice(m, 2, replace=False) if m > 1 else (0, 0)
    if case == "duplicate":
        v[j] = v[i]
    elif case == "parallel":
        v[j] = draw(1)[0] * v[i]
    elif case == "near-parallel":
        v[j] = draw(1)[0] * v[i] + eps * draw(n)
    elif case == "scaled":
        v *= 10.0 ** rng.uniform(-12, 12, (m, 1))
    elif case == "near-low-dim":
        v = draw(m, n - 1) @ draw(n - 1, n) + eps * draw(m, n)
    elif case == "near-failing-split":
        # Each side lies within eps (or a second scale) of a hyperplane.
        side = rng.random(m) < 0.5
        side[0] = True
        for rows, gap in ((side, eps), (~side, 10.0 ** rng.uniform(-14, -4))):
            u = draw(n)
            u /= np.linalg.norm(u)
            k = int(rows.sum())
            flat = v[rows] - np.outer(v[rows] @ u.conj(), u)
            v[rows] = flat + gap * np.outer(draw(k), u)
    elif case == "zero-row":
        v[j] = 0.0
    try:
        return Frame(field, v)
    except ValueError:
        return None


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 2**32 - 1),
    field=st.sampled_from([REAL, COMPLEX]),
    n=st.integers(1, 5),
    extra=st.integers(0, 9),
    case=st.sampled_from(_FRAME_CASES),
    rank_eps=st.sampled_from([1e-10, 1e-6, 1e-3, 0.3]),
)
def test_screened_splits_match_per_split_rank_test(seed, field, n, extra, case, rank_eps):
    frame = _frame_case(seed, field, n, min(n + extra, 14), case)
    assume(frame is not None)
    _assert_same_as_per_split_rank_test(frame, Tolerance(rank_eps=rank_eps))


@pytest.mark.parametrize("rank_eps", [1e-10, 1e-6, 1e-3])
@pytest.mark.parametrize("ratio", [0.5, 1.0, 2.0, 10.0])
def test_screen_boundary_matches_per_split_rank_test(ratio, rank_eps):
    # Split {0..3} | {4..7} of a real N=3 frame; each side has
    # sigma_3 / sigma_1 = ratio * rank_eps exactly.
    rng = np.random.default_rng(17)
    sigmas = np.array([1.0, 0.7, ratio * rank_eps])

    def side():
        left = np.linalg.qr(rng.standard_normal((4, 3)))[0]
        right = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        return left * sigmas @ right.T

    v = np.vstack([side(), side()])
    for rows in (v[:4], v[4:]):
        s = np.linalg.svd(rows, compute_uv=False)
        assert s[-1] / s[0] == pytest.approx(ratio * rank_eps, rel=1e-4)
    tol = Tolerance(rank_eps=rank_eps)
    ranked = []

    def counting_rank(a, tol):
        ranked.append(np.array(a))
        return rank(a, tol)

    with patch.object(injectivity, "rank", counting_rank):
        _outcome(complement_property, Frame(REAL, v), tol)
    if ratio <= 2.0:
        # Neither side is accepted without the rank test: split 7 is S = {0..3}.
        assert any(np.array_equal(a, v[:4]) for a in ranked)
    _assert_same_as_per_split_rank_test(Frame(REAL, v), tol)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    shape=st.sampled_from(
        [(REAL, 3, 4), (REAL, 3, 5), (COMPLEX, 2, 2), (COMPLEX, 2, 3), (COMPLEX, 3, 5)]
    ),
    seed=st.integers(0, 2**32 - 1),
    log_c=st.integers(-12, 12),
)
def test_certify_verdict_is_invariant_under_frame_symmetries(shape, seed, log_c):
    # Scaling or permuting the frame vectors, or applying a transform with
    # condition number 100, leaves the verdict (and a verified witness).
    field, n, m = shape
    f = gen_random(field, n, m, seed=seed)
    rng = np.random.default_rng(seed)
    q1, q2 = (np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2))
    transform = q1 @ np.diag(np.geomspace(1.0, 100.0, n)) @ q2
    verdict = certify(f).verdict
    for g in (
        Frame(field, 10.0**log_c * f.vectors),
        Frame(field, f.vectors[rng.permutation(m)]),
        apply_invertible(f, transform),
    ):
        assert certify(g).verdict == verdict


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), log_c=st.floats(-12.0, 12.0), ill=st.booleans())
def test_verify_witness_rejects_a_relative_magnitude_mismatch(seed, log_c, ill):
    # A guard against a loose check: at the default tolerance a pair whose
    # magnitudes differ by 1e-6 relative is no witness, at any scale. With
    # ill, T has condition number 1e3 and the witness lies mostly in its weak
    # direction, so ||T||_2 max(||x||, ||y||) is up to 1e3 ||a||.
    f = gen_random(REAL, 3, 4, seed=seed)
    if ill:
        u, _, vh = np.linalg.svd(f.vectors, full_matrices=False)
        f = Frame(REAL, (u * np.geomspace(1.0, 1e-3, 3)) @ vh)
    x, y = (10.0**log_c * v for v in certify(f).witness)
    assert verify_witness(f, x, y)
    a, b = magnitude_map(f, x), magnitude_map(f, (1.0 + 1e-6) * y)
    assert np.linalg.norm(a - b) == pytest.approx(1e-6 * np.linalg.norm(a), rel=1e-3)
    assert not verify_witness(f, x, (1.0 + 1e-6) * y)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("k", [600, -600])
def test_verify_witness_keeps_its_bound_where_norms_over_or_underflow(k):
    # At frame scale 2^600 an unscaled norm of the magnitudes is inf, and at
    # 2^-600 it is 0, so every pair would pass as a witness. Neither may
    # print a numpy warning on the way to the right answer.
    f = Frame(REAL, 2.0**k * gen_random(REAL, 3, 4, seed=2).vectors)
    e1, e2, _ = np.eye(3)
    assert not verify_witness(f, e1, e2)
    cert = certify(f)
    assert cert.verdict == VERDICT_NOT_INJECTIVE
    assert verify_witness(f, *cert.witness)


def _screen_costs(frame, tol=Tolerance()):
    """complement_property's certificate, with the Gram matrices its
    eigvalsh helper formed, its rank calls and its superset tables built."""
    costs = {"gram": 0, "rank": 0, "tables": 0}
    gram_eigenvalues, spanning_table = injectivity._gram_eigenvalues, injectivity._spanning_table

    def counting_gram(sides, *args):
        costs["gram"] += len(sides)
        return gram_eigenvalues(sides, *args)

    def counting_rank(a, tol):
        costs["rank"] += 1
        return rank(a, tol)

    def counting_table(*args):
        costs["tables"] += 1
        return spanning_table(*args)

    with (
        patch.object(injectivity, "_gram_eigenvalues", counting_gram),
        patch.object(injectivity, "rank", counting_rank),
        patch.object(injectivity, "_spanning_table", counting_table),
    ):
        cert = complement_property(frame, tol)
    return cert, costs


@pytest.mark.parametrize("field, n", [(REAL, 3), (REAL, 4), (COMPLEX, 4)])
def test_tall_frames_screen_each_n_subset_once(field, n):
    # Per side, the walk would form a Gram matrix for nearly every one of
    # the 2^14 sides; the superset table forms one per N-subset, after the
    # per-side screen has formed about an eighth of that many.
    m = 14
    cert, costs = _screen_costs(gen_random(field, n, m, seed=11))
    assert cert.verdict == (VERDICT_INJECTIVE if field == REAL else VERDICT_NECESSARY)
    assert cert.checked_subsets == 2 ** (m - 1)
    subsets = math.comb(m, n)
    assert costs["tables"] == 1
    assert costs["gram"] <= subsets + subsets / 8 + 2 * injectivity._SCREEN_BLOCK
    assert costs["rank"] == 0


def test_a_frame_that_fails_in_the_first_block_builds_no_table():
    # This (8, 20) Gabor frame fails within the walk's first 64 splits,
    # long before C(20, 8) = 125,970 N-subsets would pay off.
    f = gen_windowed_fourier(np.ones(4), 8, 1, 4)
    assert (f.n, f.m) == (8, 20)
    cert, costs = _screen_costs(f)
    assert cert.verdict == VERDICT_NOT_INJECTIVE
    first_block = sum(
        (k >= 8) + (20 - k >= 8) for k in (((r << 1) | 1).bit_count() for r in range(64))
    )
    assert costs["tables"] == 0
    assert costs["gram"] <= first_block


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    field=st.sampled_from([REAL, COMPLEX]),
    n=st.integers(2, 4),
    extra=st.integers(6, 10),
    case=st.sampled_from(_FRAME_CASES),
    rank_eps=st.sampled_from([1e-10, 1e-6, 1e-3]),
)
def test_the_superset_table_adds_no_rank_test(seed, field, n, extra, case, rank_eps):
    # The same walk with the table never built is the per-side screen alone.
    frame = _frame_case(seed, field, n, n + extra, case)
    assume(frame is not None)
    tol = Tolerance(rank_eps=rank_eps)
    cert, costs = _screen_costs(frame, tol)
    with patch.object(injectivity, "_TABLE_SHARE", math.inf):
        per_side, costs_per_side = _screen_costs(frame, tol)
    assert costs_per_side["tables"] == 0
    assert certificate_to_dict(cert, frame.field) == certificate_to_dict(per_side, frame.field)
    assert costs["rank"] <= costs_per_side["rank"]


def test_certify_at_the_enumeration_budget_fits_its_table_in_memory():
    # 2^24 bool table entries are 16 MiB; the block temporaries add little.
    f = gen_random(REAL, 3, 24, seed=5)
    tracemalloc.start()
    try:
        cert = certify(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.verdict == VERDICT_INJECTIVE
    assert cert.checked_subsets == 2**23
    assert peak < 48 * 2**20
