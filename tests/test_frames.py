import itertools
import json

import numpy as np
import numpy.testing as npt
import pytest

from framephase import frames
from framephase.frames import (
    COMPLEX,
    REAL,
    Frame,
    _write_json,
    analysis,
    apply_invertible,
    canonical_dual,
    canonical_parseval,
    coefficient_range,
    decode_vector,
    encode_vector,
    frame_from_dict,
    frame_operator,
    frame_to_dict,
    gen_full_spark,
    gen_random,
    gen_repeated_tail,
    gen_windowed_fourier,
    load_frame,
    save_frame,
)
from framephase.linalg import Tolerance

import oracles


def mercedes_benz():
    # Three unit-spaced directions scaled to a Parseval frame of the plane.
    angles = 2.0 * np.pi * np.arange(3) / 3.0
    vectors = np.sqrt(2.0 / 3.0) * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return Frame(REAL, vectors)


def hand_frame():
    return Frame(REAL, np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))


def test_frame_validation():
    with pytest.raises(ValueError):
        Frame("rational", np.eye(2))
    with pytest.raises(ValueError):
        Frame(REAL, np.zeros(3))
    with pytest.raises(ValueError):
        Frame(REAL, np.eye(3)[:2])  # M < N
    with pytest.raises(ValueError):
        Frame(REAL, np.array([[1.0, 0.0], [2.0, 0.0]]))  # does not span
    with pytest.raises(ValueError):
        Frame(REAL, np.array([[1.0 + 1j, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        Frame(REAL, np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_frame_is_immutable():
    f = hand_frame()
    with pytest.raises(ValueError):
        f.vectors[0, 0] = 5.0


def test_analysis_matches_inner_products():
    f = gen_random(COMPLEX, 3, 5, seed=11)
    x = np.array([1.0 + 1j, -2.0, 0.5j])
    c = analysis(f, x)
    for i in range(f.m):
        assert c[i] == pytest.approx(np.sum(x * np.conj(f.vectors[i])))


def test_analysis_synthesis_adjoint():
    f = gen_random(COMPLEX, 3, 6, seed=2)
    rng = np.random.default_rng(3)
    x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    c = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    lhs = np.vdot(c, analysis(f, x))  # <Tx, c> in the row convention
    rhs = np.vdot(f.vectors.T @ c, x)  # <x, T*c>
    assert lhs == pytest.approx(rhs)


def test_mercedes_benz_is_parseval():
    f = mercedes_benz()
    s, bounds = frame_operator(f)
    npt.assert_allclose(s, np.eye(2), atol=1e-14)
    assert bounds.lower == pytest.approx(1.0, abs=1e-12)
    assert bounds.upper == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("field,seed", [(REAL, 0), (REAL, 5), (COMPLEX, 0), (COMPLEX, 5)])
def test_frame_bound_inequality(field, seed):
    f = gen_random(field, 4, 7, seed=seed)
    _, bounds = frame_operator(f)
    rng = np.random.default_rng(seed + 100)
    for _ in range(20):
        x = rng.standard_normal(4)
        if field == COMPLEX:
            x = x + 1j * rng.standard_normal(4)
        energy = float(np.sum(np.abs(analysis(f, x)) ** 2))
        nx2 = float(np.linalg.norm(x) ** 2)
        assert bounds.lower * nx2 <= energy * (1 + 1e-12) + 1e-12
        assert energy <= bounds.upper * nx2 * (1 + 1e-12) + 1e-12


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_canonical_dual_reconstructs(field):
    f = gen_random(field, 3, 7, seed=9)
    dual = canonical_dual(f)
    rng = np.random.default_rng(10)
    x = rng.standard_normal(3)
    if field == COMPLEX:
        x = x + 1j * rng.standard_normal(3)
    npt.assert_allclose(dual.vectors.T @ analysis(f, x), x, atol=1e-10)
    npt.assert_allclose(f.vectors.T @ analysis(dual, x), x, atol=1e-10)


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_canonical_dual_of_a_small_frame_is_the_scaled_dual(field):
    # The singularity test is relative, so a frame scaled by 1e-9 is still a
    # frame: its dual is the dual scaled by 1e9, its Parseval frame the same.
    f = gen_random(field, 3, 5, seed=11)
    small = Frame(field, 1e-9 * f.vectors)
    dual, small_dual = canonical_dual(f), canonical_dual(small)
    npt.assert_allclose(small_dual.vectors, 1e9 * dual.vectors, rtol=1e-10)
    npt.assert_allclose(
        canonical_parseval(small).vectors, canonical_parseval(f).vectors, rtol=1e-10
    )


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_ill_conditioned_frame_keeps_accurate_bounds_dual_and_parseval_frame(field):
    # T has condition number 1e7, so S = T* T has 1e14: its eigenvalues and
    # inverse lose about 14 digits, and T's singular values lose none.
    u, _, vh = np.linalg.svd(gen_random(field, 3, 5, seed=4).vectors, full_matrices=False)
    f = Frame(field, (u * np.array([1.0, 10**-3.5, 1e-7])) @ vh)
    _, bounds = frame_operator(f)
    assert bounds.lower == pytest.approx(1e-14, rel=1e-6)
    assert bounds.upper == pytest.approx(1.0, rel=1e-12)
    x = np.random.default_rng(4).standard_normal(3)
    npt.assert_allclose(canonical_dual(f).vectors.T @ analysis(f, x), x, atol=1e-7)
    s, _ = frame_operator(canonical_parseval(f))
    npt.assert_allclose(s, np.eye(3), atol=1e-12)


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_canonical_parseval_operator_is_identity(field):
    f = gen_random(field, 4, 9, seed=3)
    p = canonical_parseval(f)
    s, bounds = frame_operator(p)
    npt.assert_allclose(s, np.eye(4), atol=1e-12)
    assert bounds.lower == pytest.approx(1.0, abs=1e-10)
    assert bounds.upper == pytest.approx(1.0, abs=1e-10)


def test_coefficient_range_hand_case():
    # Coefficients of {(1,0),(0,1),(1,1)} are exactly (p, q, p+q).
    b = coefficient_range(hand_frame())
    assert b.shape == (3, 2)
    npt.assert_allclose(b.conj().T @ b, np.eye(2), atol=1e-12)
    inside = np.array([1.0, 2.0, 3.0])
    outside = np.array([1.0, 2.0, 4.0])
    npt.assert_allclose(b @ (b.conj().T @ inside), inside, atol=1e-12)
    assert np.linalg.norm(outside - b @ (b.conj().T @ outside)) > 0.5


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_coefficient_range_applies_the_rank_rule_at_its_tolerance(field):
    # Singular values 1 and 1e-5: a frame at the default rank_eps, but of
    # rank 1 at rank_eps 1e-4, where the range has no N-column basis.
    u, _, vh = np.linalg.svd(gen_random(field, 2, 4, seed=3).vectors, full_matrices=False)
    f = Frame(field, (u * np.array([1.0, 1e-5])) @ vh)
    b = coefficient_range(f)
    assert b.shape == (4, 2)
    npt.assert_allclose(b.conj().T @ b, np.eye(2), atol=1e-12)
    with pytest.raises(ValueError, match="numerically singular"):
        coefficient_range(f, Tolerance(rank_eps=1e-4))


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_apply_invertible_relabels_coefficients(field):
    f = gen_random(field, 3, 6, seed=4)
    rng = np.random.default_rng(5)
    r = rng.standard_normal((3, 3))
    if field == COMPLEX:
        r = r + 1j * rng.standard_normal((3, 3))
    g = apply_invertible(f, r)
    x = rng.standard_normal(3)
    if field == COMPLEX:
        x = x + 1j * rng.standard_normal(3)
    npt.assert_allclose(analysis(g, x), analysis(f, r.conj().T @ x), atol=1e-10)


def test_apply_invertible_rejects_bad_transforms():
    f = gen_random(REAL, 3, 5, seed=0)
    with pytest.raises(ValueError):
        apply_invertible(f, np.zeros((3, 3)))
    with pytest.raises(ValueError):
        apply_invertible(f, np.eye(2))
    with pytest.raises(ValueError):
        apply_invertible(f, np.eye(3) * 1j)


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_gen_random_deterministic(field):
    a = gen_random(field, 3, 7, seed=21)
    b = gen_random(field, 3, 7, seed=21)
    npt.assert_array_equal(a.vectors, b.vectors)
    assert a.field == field and a.n == 3 and a.m == 7


@pytest.mark.parametrize("field,n,m,seed", [
    (REAL, 2, 5, 0),
    (REAL, 3, 6, 1),
    (COMPLEX, 2, 4, 2),
    (REAL, 4, 7, 3),
])
def test_gen_full_spark_is_full_spark(field, n, m, seed):
    f = gen_full_spark(field, n, m, seed=seed)
    assert oracles.full_spark(f.vectors)[0]


def test_gen_full_spark_rejects_candidates_too_close_to_a_span(monkeypatch):
    monkeypatch.setattr(frames, "_MIN_GAP", 0.5)
    # Unit vectors 0.5 from each other's lines lie more than 30 degrees apart.
    f = gen_full_spark(REAL, 2, 4, seed=0)
    for i, j in itertools.permutations(range(4), 2):
        u, v = f.vectors[i], f.vectors[j]
        assert np.linalg.norm(u - (u @ v) * v) > 0.5
    # After e1 and e2, one more line fits in each of (30, 60) and (120, 150)
    # degrees, so a fifth vector has nowhere to go.
    with pytest.raises(RuntimeError, match="full-spark sampling failed"):
        gen_full_spark(REAL, 2, 5, seed=0)


def test_gen_random_rejects_an_unknown_field():
    # gen_random tests the rank itself instead of catching Frame's
    # ValueError, so the field error reaches the caller.
    with pytest.raises(ValueError, match="field must be"):
        gen_random("quaternion", 2, 3, seed=0)


@pytest.mark.parametrize("n,m", [(2, 4), (2, 5), (3, 6)])
def test_gen_repeated_tail_duplicates_last_vector(n, m):
    f = gen_repeated_tail(REAL, n, m, seed=6)
    for j in range(2 * n - 1, m):
        npt.assert_array_equal(f.vectors[j], f.vectors[2 * n - 2])
    assert not oracles.full_spark(f.vectors)[0]
    with pytest.raises(ValueError):
        gen_repeated_tail(REAL, n, 2 * n - 1, seed=6)


def test_repeated_tail_first_dependent_subset_is_the_duplicate_pair():
    f = gen_repeated_tail(REAL, 2, 4, seed=0)
    assert oracles.full_spark(f.vectors)[1] == (2, 3)


def test_windowed_fourier_unit_window_gives_standard_basis():
    f = gen_windowed_fourier(np.array([1.0]), signal_len=4, hop=1, fft_size=1)
    assert f.field == COMPLEX and f.n == 4 and f.m == 4
    npt.assert_allclose(f.vectors, np.eye(4), atol=1e-15)


def test_windowed_fourier_box_window_bounds():
    # Box window of length 4, hop 2 over 8 samples: interior samples are
    # covered twice, edges once, so the bounds are (4, 8).
    f = gen_windowed_fourier(np.ones(4), signal_len=8, hop=2, fft_size=4)
    assert f.m == 12
    s, bounds = frame_operator(f)
    npt.assert_allclose(s, 4.0 * np.diag([1, 1, 2, 2, 2, 2, 1, 1]), atol=1e-12)
    assert bounds.lower == pytest.approx(4.0, abs=1e-10)
    assert bounds.upper == pytest.approx(8.0, abs=1e-10)


def test_windowed_fourier_matches_direct_double_sum():
    rng = np.random.default_rng(12)
    window = rng.uniform(0.5, 1.5, 3)
    f = gen_windowed_fourier(window, signal_len=9, hop=3, fft_size=3)
    x = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    direct = oracles.windowed_fourier_coefficients(window, 3, 3, x)
    npt.assert_allclose(analysis(f, x), direct, atol=1e-12)


def test_windowed_fourier_rejects_uncovered_samples():
    with pytest.raises(ValueError):
        gen_windowed_fourier(np.array([1.0, 0.0]), signal_len=4, hop=2, fft_size=2)
    with pytest.raises(ValueError):
        gen_windowed_fourier(np.ones(3), signal_len=8, hop=4, fft_size=3)


def test_encode_decode_round_trip():
    x = np.array([1.5, -2.0])
    assert encode_vector(x, REAL) == [1.5, -2.0]
    npt.assert_array_equal(decode_vector([1.5, -2.0], REAL), x)
    z = np.array([1.0 + 2j, -0.5])
    assert encode_vector(z, COMPLEX) == [[1.0, 2.0], [-0.5, 0.0]]
    npt.assert_array_equal(decode_vector([[1.0, 2.0], [-0.5, 0.0]], COMPLEX), z)


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_save_load_round_trip(field, tmp_path):
    f = gen_random(field, 3, 5, seed=8)
    path = tmp_path / "frame.json"
    save_frame(f, path)
    g = load_frame(path)
    assert g.field == f.field
    npt.assert_array_equal(g.vectors, f.vectors)
    # Re-saving the loaded frame reproduces the file byte for byte.
    path2 = tmp_path / "frame2.json"
    save_frame(g, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_frame_from_dict_validation(tmp_path):
    good = frame_to_dict(gen_random(REAL, 2, 3, seed=0))
    bad = dict(good)
    bad["m"] = 5
    with pytest.raises(ValueError):
        frame_from_dict(bad)
    bad = dict(good)
    bad["field"] = "quaternion"
    with pytest.raises(ValueError):
        frame_from_dict(bad)
    bad = dict(good)
    del bad["vectors"]
    with pytest.raises(ValueError):
        frame_from_dict(bad)
    bad = dict(good)
    bad["vectors"] = [v[:1] for v in bad["vectors"]]
    with pytest.raises(ValueError):
        frame_from_dict(bad)
    path = tmp_path / "notjson.json"
    path.write_text("[1, 2, 3]\n")
    with pytest.raises(ValueError):
        load_frame(path)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_json_writer_rejects_non_json_numbers_and_leaves_the_file_untouched(bad, tmp_path):
    path = tmp_path / "doc.json"
    path.write_bytes(b'{"kept": 1}\n')
    with pytest.raises(ValueError):
        _write_json({"x": [1.0, bad]}, path)
    assert path.read_bytes() == b'{"kept": 1}\n'
    # A JSON payload gets the bytes of json.dump at indent 2 and a newline.
    _write_json({"x": [1.0, 0.5]}, path)
    assert path.read_text(encoding="utf-8") == json.dumps({"x": [1.0, 0.5]}, indent=2) + "\n"
