import numpy as np
import numpy.testing as npt
import pytest

from framephase.frames import COMPLEX, REAL, analysis, gen_random
from framephase.magnitude import (
    SignPattern,
    canonical_ray,
    load_measurement,
    magnitude_map,
    measurement_from_dict,
    measurement_to_dict,
    ray_equal,
    save_measurement,
)


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_magnitude_map_is_abs_of_analysis(field):
    f = gen_random(field, 3, 6, seed=1)
    rng = np.random.default_rng(2)
    x = rng.standard_normal(3)
    if field == COMPLEX:
        x = x + 1j * rng.standard_normal(3)
    a = magnitude_map(f, x)
    npt.assert_allclose(a, np.abs(analysis(f, x)), atol=1e-14)
    assert np.all(a >= 0)


def test_canonical_ray_real():
    npt.assert_allclose(canonical_ray(np.array([-2.0, 1.0])), [2.0, -1.0])
    npt.assert_allclose(canonical_ray(np.array([3.0, -1.0])), [3.0, -1.0])
    # Leading (near-)zeros are skipped when picking the pivot entry.
    npt.assert_allclose(canonical_ray(np.array([0.0, -1.0])), [0.0, 1.0])
    npt.assert_allclose(canonical_ray(np.zeros(3)), np.zeros(3))
    assert canonical_ray(np.array([-1.0, 2.0])).dtype == np.float64


def test_canonical_ray_complex_pivot_becomes_positive_real():
    x = np.array([1j * np.exp(0.3j), 2.0 - 1j])
    c = canonical_ray(x)
    assert c[0].imag == pytest.approx(0.0, abs=1e-14)
    assert c[0].real > 0
    npt.assert_allclose(np.abs(c), np.abs(x), atol=1e-14)


@pytest.mark.parametrize("phase", [1.0, -1.0, np.exp(0.7j), 1j])
def test_canonical_ray_kills_global_phase(phase):
    rng = np.random.default_rng(4)
    x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    npt.assert_allclose(canonical_ray(phase * x), canonical_ray(x), atol=1e-12)


def test_ray_equal_real_and_complex():
    x = np.array([1.0, -2.0])
    assert ray_equal(x, x)
    assert ray_equal(x, -x)
    assert not ray_equal(x, np.array([1.0, 2.0]))
    z = np.array([1.0 + 1j, 0.5])
    assert ray_equal(z, np.exp(1.3j) * z)
    assert not ray_equal(z, np.conj(z))
    assert ray_equal(np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        ray_equal(x, np.array([1.0, 2.0, 3.0]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("k", [540, -540])
def test_ray_equal_holds_where_squares_over_or_underflow(k):
    # At 2^540 the squares overflow and at 2^-540 they underflow, so an
    # unscaled norm reads inf or 0 and the bound says nothing. Neither may
    # print a numpy warning on the way to the right answer.
    s = 2.0**k
    assert not ray_equal(s * np.array([1.0, 2.0]), s * np.array([2.0, 1.0]))
    assert ray_equal(s * np.array([1.0, -2.0]), s * np.array([-1.0, 2.0]))
    z = np.array([1.0 + 2j, -0.5 + 1j])
    assert ray_equal(s * z, s * 1j * z)
    assert not ray_equal(s * z, s * np.conj(z))


def test_ray_equal_ignores_scale_threshold_only():
    # Same direction, different lengths: these are different rays only if
    # length differs beyond tolerance; rays here are sets {cx : |c| = 1}.
    x = np.array([1.0, 1.0])
    assert not ray_equal(x, 2.0 * x)


def test_sign_pattern_basics():
    p = SignPattern.from_indices([0, 2], 4)
    assert p.mask == 0b0101
    assert p.indices() == (0, 2)
    assert p.complement().indices() == (1, 3)
    with pytest.raises(ValueError):
        SignPattern(1 << 4, 4)
    with pytest.raises(ValueError):
        SignPattern(-1, 4)
    with pytest.raises(ValueError):
        SignPattern.from_indices([4], 4)


def test_measurement_round_trip(tmp_path):
    a = np.array([1.5, 0.0, 2.25])
    d = measurement_to_dict(a)
    assert d == {"m": 3, "magnitudes": [1.5, 0.0, 2.25]}
    npt.assert_array_equal(measurement_from_dict(d), a)
    path = tmp_path / "meas.json"
    save_measurement(a, path)
    npt.assert_array_equal(load_measurement(path), a)
    path2 = tmp_path / "meas2.json"
    save_measurement(load_measurement(path), path2)
    assert path.read_bytes() == path2.read_bytes()


def test_measurement_validation():
    with pytest.raises(ValueError):
        measurement_to_dict(np.array([1.0, -0.5]))
    with pytest.raises(ValueError):
        measurement_from_dict({"m": 2, "magnitudes": [1.0, 2.0, 3.0]})
    with pytest.raises(ValueError):
        measurement_from_dict({"m": 2, "magnitudes": [1.0, -2.0]})
    with pytest.raises(ValueError):
        measurement_from_dict({"magnitudes": [1.0]})


def test_save_measurement_rejects_before_creating_the_file(tmp_path):
    path = tmp_path / "meas.json"
    with pytest.raises(ValueError, match="finite"):
        save_measurement([np.nan], path)
    assert not path.exists()
