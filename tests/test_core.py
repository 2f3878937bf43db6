"""Centering/scaling, SVD rank control, least squares and diagnostics."""

import numpy as np
import pytest

from simpca import SelectionStrategy, SimpcaPipelineConfig, center_scale, fit_pca, run_simpca
from simpca.core import DataMatrix, r_squared, solve_ls, svd, vif
from simpca.errors import ConfigError, NonFiniteInput, TooFewObservations, ZeroVarianceColumn

from conftest import random_data


def test_center_zero_matrix():
    x = center_scale(np.zeros((3, 2)))
    assert np.all(x.values == 0.0)


def test_center_symmetric_column():
    x = center_scale(np.array([[1.0], [2.0], [3.0]]))
    assert np.allclose(x.values[:, 0], [-1.0, 0.0, 1.0])


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


def test_center_scale_errors():
    with pytest.raises(NonFiniteInput):
        center_scale(np.array([[1.0, np.nan], [2.0, 3.0]]))
    # the first bad cell in row order is the one named
    with pytest.raises(NonFiniteInput) as err:
        center_scale(np.array([[1.0, 2.0], [3.0, np.inf], [np.nan, 4.0]]))
    assert (err.value.row, err.value.col) == (1, 1)
    with pytest.raises(ZeroVarianceColumn):
        center_scale(np.array([[1.0, 5.0], [2.0, 5.0]]), scaling="unit-variance")
    # too few rows is a data error, not a configuration one
    with pytest.raises(TooFewObservations):
        center_scale(np.ones((1, 3)))
    with pytest.raises(ValueError):
        center_scale(np.ones((4, 2)), scaling="standardize")


@pytest.mark.parametrize("raw", [np.ones(4), np.ones((3, 2, 2)), 5.0])
def test_center_scale_takes_only_a_matrix(raw):
    with pytest.raises(ConfigError, match="expected a 2-d matrix"):
        center_scale(raw)


_ENTRY_POINTS = {
    "run_simpca": lambda x: run_simpca(x, SimpcaPipelineConfig(
        nd=1, nr=2, strategy=SelectionStrategy("forward"))),
    "fit_pca": fit_pca,
}


@pytest.mark.parametrize("kind", ["array", "DataMatrix"])
@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_every_input_kind_names_its_first_non_finite_cell(entry, kind):
    # the factor of the data is where every input kind is checked: a
    # non-finite cell is NonFiniteInput of the first such cell in row
    # order, 0-based as center_scale gives it, not numpy's LinAlgError
    run = _ENTRY_POINTS[entry]
    rng = np.random.default_rng(8)
    for n, p in ((6, 4), (3, 5)):
        base = rng.standard_normal((n, p))
        for bad in (np.nan, np.inf, -np.inf):
            for i in range(n):
                for j in range(p):
                    x = base.copy()
                    x[-1, -1] = np.nan  # a bad cell later in row order
                    x[i, j] = bad
                    data = x if kind == "array" else DataMatrix(x, tuple("abcde"[:p]))
                    with pytest.raises(NonFiniteInput) as err:
                        run(data)
                    assert (err.value.row, err.value.col) == (i, j)


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
@pytest.mark.parametrize("x", [np.ones(4), np.ones((3, 2, 2)), 5.0])
def test_every_entry_point_takes_only_a_matrix(entry, x):
    with pytest.raises(ConfigError, match="expected a 2-d matrix"):
        _ENTRY_POINTS[entry](x)


def test_center_scale_reads_a_c_and_an_f_ordered_raw_alike():
    # the CSV reader returns a column-major block, and the library is
    # given C-ordered arrays: both give the same bits
    rng = np.random.default_rng(9)
    for n, p in ((200, 6), (26, 9), (5, 40)):
        raw = rng.standard_normal((n, p)) * rng.uniform(0.1, 30.0, p) + rng.normal(0, 50, p)
        for scaling in ("none", "unit-variance"):
            c = center_scale(np.ascontiguousarray(raw), scaling)
            f = center_scale(np.asfortranarray(raw), scaling)
            assert c.values.tobytes() == f.values.tobytes()


def test_center_scale_names_each_column_once():
    raw = np.arange(12.0).reshape(4, 3) ** 2
    assert center_scale(raw, column_names=["a", "b", "c"]).column_names == ("a", "b", "c")
    for names in (["a", "b"], ["a", "b", "c", "d"], []):
        with pytest.raises(ConfigError, match="column_names length does not match p"):
            center_scale(raw, column_names=names)


def test_a_data_matrix_checks_its_shape_and_names():
    # as center_scale checks them, and before any property reads the shape
    with pytest.raises(ConfigError, match="expected a 2-d matrix"):
        DataMatrix(values=np.ones(3), column_names=())
    for names in (("a",), (), ("a", "b", "c")):
        with pytest.raises(ConfigError, match="column_names length does not match p"):
            DataMatrix(values=np.ones((4, 2)), column_names=names)
    x = DataMatrix(values=np.ones((4, 2)), column_names=("a", "b"))
    assert (x.n, x.p) == (4, 2)


def test_svd_reconstruction_and_rank():
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = random_data(rng)
        s, v = svd(x)
        xv = x.values @ v
        assert np.allclose(xv @ v.T, x.values, atol=1e-8)
        assert np.allclose(np.linalg.norm(xv, axis=0), s, rtol=1e-10)
        assert np.all(np.diff(s) <= 1e-12)
    # exact low rank: a rank-2 matrix keeps exactly 2 pairs
    a = rng.standard_normal((10, 2)) @ rng.standard_normal((2, 6))
    assert svd(a - a.mean(axis=0))[0].size == 2


@pytest.mark.parametrize(
    "shape, factors, duplicate, rank",
    [
        ((400, 48), None, False, 48),  # tall, past gesdd's QR crossover at 11p/6
        ((26, 9), None, False, 9),
        ((60, 40), None, False, 40),  # tall, below the crossover
        ((30, 30), None, False, 30),
        ((12, 40), None, False, 12),  # wide
        ((400, 48), None, True, 47),
        ((60, 40), None, True, 39),
        ((30, 30), None, True, 29),
        ((12, 40), None, True, 12),
        ((200, 20), 3, False, 3),
        ((12, 40), 5, True, 5),
    ],
)
def test_svd_matches_full_svd_bit_for_bit(shape, factors, duplicate, rank):
    rng = np.random.default_rng(sum(shape) + rank)
    n, p = shape
    if factors is None:
        a = rng.standard_normal(shape)
    else:
        a = rng.standard_normal((n, factors)) @ rng.standard_normal((factors, p))
    if duplicate:
        a[:, -1] = a[:, 0]
    s, v = svd(a)
    _, s_ref, vt_ref = np.linalg.svd(a, full_matrices=False)
    r = int(np.sum(s_ref > max(n, p) * np.finfo(float).eps * s_ref[0]))
    assert s.size == r == rank
    assert np.array_equal(s, s_ref[:r])
    assert np.array_equal(v, vt_ref[:r].T)


def test_svd_rank_cutoff_is_that_of_the_input():
    # lambda_p sits between p * eps and n * eps times lambda_1: the cutoff
    # is max(n, p) * eps * lambda_1 of X, not p * eps * lambda_1 of its R
    rng = np.random.default_rng(0)
    n, p = 400, 10
    u, _ = np.linalg.qr(rng.standard_normal((n, p)))
    v, _ = np.linalg.qr(rng.standard_normal((p, p)))
    lam = np.ones(p)
    lam[-1] = np.sqrt(n * p) * np.finfo(float).eps
    assert svd((u * lam) @ v.T)[0].size == p - 1


def test_solve_ls_against_normal_equations():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.standard_normal((15, 4))
        b = rng.standard_normal(15)
        coef = solve_ls(a, b)
        oracle = np.linalg.solve(a.T @ a, a.T @ b)
        assert np.allclose(coef, oracle, atol=1e-8)


def test_solve_ls_takes_a_vector_as_one_column():
    rng = np.random.default_rng(5)
    a = rng.standard_normal(9)
    b = rng.standard_normal((9, 2))
    coef = solve_ls(a, b)
    assert coef.shape == (1, 2)
    assert np.array_equal(coef, solve_ls(a[:, None], b))
    assert np.allclose(coef[0], (a @ b) / (a @ a), rtol=1e-12)


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


def test_solve_ls_splits_exact_duplicates_evenly():
    # LAPACK rounds the zero singular value of [x, x] up to about
    # 2.5 eps sigma_1 at n = 3000 for these seeds, above a cut of
    # k * eps * sigma_1; a fit that keeps that direction returns a split of
    # the coefficient of order 1e13 instead of the minimum-norm halves
    for seed in (317, 427):
        x, b, z = np.random.default_rng(seed).standard_normal((3, 3000))
        coef = solve_ls(np.column_stack([x, x]), b)
        half = (x @ b) / (x @ x) / 2
        assert coef == pytest.approx([half, half], rel=1e-10)
        vifs = vif(np.column_stack([x, x, z]))
        assert vifs[0] == 1.0 and vifs[1] == 1.0


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


def test_r_squared_target_must_be_a_finite_vector_with_one_entry_per_row():
    # a NaN target had R^2 0, and a target of the wrong length raised
    # numpy's own ValueError
    a = np.random.default_rng(17).standard_normal((6, 2))
    b = np.ones(6)
    b[2] = np.nan
    with pytest.raises(NonFiniteInput) as err:
        r_squared(a, b)
    assert (err.value.row, err.value.col) == (2, 0)
    for b in (np.ones(5), np.ones((6, 1)), None):
        with pytest.raises(ConfigError, match="does not match the 6 rows"):
            r_squared(a, b)


def test_vif_rescaling_invariance():
    rng = np.random.default_rng(6)
    x = random_data(rng, n=25, p=6)
    base = vif(x)
    scaled = DataMatrix(
        values=x.values * np.array([1.0, 5.0, 0.2, 3.0, 1.0, 9.0]),
        column_names=x.column_names,
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
