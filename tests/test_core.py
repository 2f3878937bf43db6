"""Centering/scaling, SVD rank control, least squares and diagnostics."""

import numpy as np
import pytest

from simpca import center_scale, pairwise_abs_correlations, solve_ls, svd, vif
from simpca.core import DataMatrix, numerical_rank, r_squared
from simpca.errors import NonFiniteInput, ZeroVarianceColumn

from conftest import random_data


def test_center_zero_matrix():
    x = center_scale(np.zeros((3, 2)))
    assert np.all(x.values == 0.0)
    assert np.all(x.column_means == 0.0)


def test_center_symmetric_column():
    x = center_scale(np.array([[1.0], [2.0], [3.0]]))
    assert np.allclose(x.values[:, 0], [-1.0, 0.0, 1.0])
    assert x.column_means[0] == 2.0


def test_data_matrix_is_its_values_as_an_array():
    x = center_scale(np.array([[1.0, 4.0], [2.0, 0.0], [6.0, 2.0]]))
    assert np.asarray(x, float) is x.values
    copy = np.array(x)
    assert np.array_equal(copy, x.values)
    assert not np.shares_memory(copy, x.values)


def test_unit_variance_sum_of_squares():
    rng = np.random.default_rng(0)
    raw = rng.standard_normal((17, 5)) * rng.uniform(0.1, 9.0, 5)
    x = center_scale(raw, scaling="unit-variance")
    ss = np.sum(x.values**2, axis=0)
    # every column ends with the same sum of squares, n - 1
    assert np.allclose(ss, 16.0, rtol=1e-8)
    # verify directly against the sample variance of the raw column
    sd = raw.std(axis=0, ddof=1)
    assert np.allclose(x.values, (raw - raw.mean(axis=0)) / sd)


def test_round_trip_to_raw():
    rng = np.random.default_rng(1)
    raw = rng.standard_normal((12, 4)) * 7.0 + 3.0
    for scaling in ("none", "unit-variance"):
        x = center_scale(raw, scaling=scaling)
        assert np.allclose(x.to_raw(), raw, rtol=1e-10)


def test_center_scale_errors():
    with pytest.raises(NonFiniteInput):
        center_scale(np.array([[1.0, np.nan], [2.0, 3.0]]))
    with pytest.raises(ZeroVarianceColumn):
        center_scale(np.array([[1.0, 5.0], [2.0, 5.0]]), scaling="unit-variance")
    with pytest.raises(ValueError):
        center_scale(np.ones((1, 3)))
    with pytest.raises(ValueError):
        center_scale(np.ones((4, 2)), scaling="standardize")


def test_subset_keeps_metadata():
    x = center_scale(np.arange(12.0).reshape(4, 3), column_names=("a", "b", "c"))
    sub = x.subset([2, 0])
    assert sub.column_names == ("c", "a")
    assert np.allclose(sub.values, x.values[:, [2, 0]])


def test_svd_reconstruction_and_rank():
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = random_data(rng)
        u, s, v = svd(x)
        assert np.allclose(u * s @ v.T, x.values, atol=1e-8)
        assert np.all(np.diff(s) <= 1e-12)
    # exact low rank: a rank-2 matrix keeps exactly 2 triplets
    a = rng.standard_normal((10, 2)) @ rng.standard_normal((2, 6))
    assert numerical_rank(a - a.mean(axis=0)) == 2


def test_solve_ls_against_normal_equations():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.standard_normal((15, 4))
        b = rng.standard_normal(15)
        coef = solve_ls(a, b)
        oracle = np.linalg.solve(a.T @ a, a.T @ b)
        assert np.allclose(coef, oracle, atol=1e-8)


def test_solve_ls_rank_deficient_minimum_norm():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((12, 2))
    a = np.column_stack([a, a[:, 0] + a[:, 1]])  # exactly collinear
    b = rng.standard_normal(12)
    coef = solve_ls(a, b)
    # the fit matches the best possible, and the solution is minimum-norm
    resid = b - a @ coef
    assert np.allclose(a.T @ resid, 0.0, atol=1e-8)
    pinv_coef = np.linalg.pinv(a) @ b
    assert np.allclose(coef, pinv_coef, atol=1e-8)


def test_r_squared_bounds_and_exact_fit():
    rng = np.random.default_rng(5)
    for _ in range(30):
        a = rng.standard_normal((20, 3))
        b = a @ rng.standard_normal(3)
        assert r_squared(a, b) == pytest.approx(1.0, abs=1e-10)
        noise = rng.standard_normal(20)
        r2 = r_squared(a, noise)
        assert 0.0 <= r2 <= 1.0


def test_r_squared_zero_target():
    assert r_squared(np.ones((5, 1)), np.zeros(5)) == 0.0


def test_vif_rescaling_invariance():
    rng = np.random.default_rng(6)
    x = random_data(rng, n=25, p=6)
    base = vif(x)
    scaled = DataMatrix(
        values=x.values * np.array([1.0, 5.0, 0.2, 3.0, 1.0, 9.0]),
        column_names=x.column_names,
        column_means=x.column_means,
        column_scales=x.column_scales,
    )
    assert np.allclose(vif(scaled), base, atol=1e-8)


def test_vif_singleton_and_orthogonal():
    rng = np.random.default_rng(7)
    x = random_data(rng, n=20, p=5)
    assert vif(x, [2]) == pytest.approx([0.0])
    q, _ = np.linalg.qr(rng.standard_normal((20, 4)))
    ortho = DataMatrix(values=q - q.mean(axis=0), column_names=("a", "b", "c", "d"))
    # near-orthogonal columns: every squared multiple correlation is small
    assert np.all(vif(ortho) < 0.25)


def test_pairwise_abs_correlations_matches_corrcoef():
    rng = np.random.default_rng(8)
    x = random_data(rng, n=30, p=5)
    got = pairwise_abs_correlations(x)
    full = np.abs(np.corrcoef(x.values, rowvar=False))
    iu = np.triu_indices(5, k=1)
    assert np.allclose(got, full[iu], atol=1e-10)
