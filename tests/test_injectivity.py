import numpy as np
import numpy.testing as npt
import pytest

from framephase.frames import COMPLEX, REAL, Frame, gen_full_spark, gen_random, gen_repeated_tail
from framephase.injectivity import (
    VERDICT_INJECTIVE,
    VERDICT_NECESSARY,
    VERDICT_NOT_INJECTIVE,
    certificate_to_dict,
    certify,
    complement_property,
    complex_size_check,
    full_spark_test,
    necessary_condition_for_M_2N_minus_1,
    verify_witness,
    witness_pair,
)
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
    spark = full_spark_test(f)
    assert not spark.is_full_spark
    assert spark.dependent_subset == (1, 2)
    assert full_spark_test(gen_full_spark(REAL, 3, 6, seed=1)).is_full_spark


def test_full_spark_budget():
    f = gen_random(REAL, 12, 24, seed=0)
    with pytest.raises(ValueError):
        full_spark_test(f, max_subsets=1000)


def test_complex_size_check():
    assert not complex_size_check(gen_random(COMPLEX, 2, 3, seed=0))
    assert complex_size_check(gen_random(COMPLEX, 2, 4, seed=0))
    with pytest.raises(ValueError):
        complex_size_check(gen_random(REAL, 2, 4, seed=0))


@pytest.mark.parametrize("n,seed", [(2, 0), (2, 3), (3, 1)])
def test_full_spark_equivalence_random(n, seed):
    f = gen_random(REAL, n, 2 * n - 1, seed=seed)
    eq = necessary_condition_for_M_2N_minus_1(f)
    assert eq.consistent
    assert eq.is_full_spark
    assert eq.certificate.verdict == VERDICT_INJECTIVE


def test_full_spark_equivalence_handcrafted_dependent():
    base = gen_random(REAL, 3, 5, seed=2)
    vectors = base.vectors.copy()
    vectors[4] = vectors[1]  # duplicate kills full spark at M = 2N-1
    f = Frame(REAL, vectors)
    eq = necessary_condition_for_M_2N_minus_1(f)
    assert eq.consistent
    assert not eq.is_full_spark
    assert eq.certificate.verdict == VERDICT_NOT_INJECTIVE
    assert verify_witness(f, *eq.certificate.witness)


def test_full_spark_equivalence_preconditions():
    with pytest.raises(ValueError):
        necessary_condition_for_M_2N_minus_1(gen_random(REAL, 3, 6, seed=0))
    with pytest.raises(ValueError):
        necessary_condition_for_M_2N_minus_1(gen_random(COMPLEX, 3, 5, seed=0))


def test_repeated_tail_injective_without_full_spark():
    f = gen_repeated_tail(REAL, 2, 4, seed=0)
    assert complement_property(f).verdict == VERDICT_INJECTIVE
    spark = full_spark_test(f)
    assert not spark.is_full_spark
    assert spark.dependent_subset == (2, 3)


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
    x, y = cert.witness
    a_x = magnitude_map(f, x)
    a_y = magnitude_map(f, y)
    assert float(np.linalg.norm(a_x - a_y)) <= 1e-8 * (1.0 + float(np.linalg.norm(a_x)))
    assert not ray_equal(x, y)


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
