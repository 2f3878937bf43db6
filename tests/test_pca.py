"""Principal components, coefficient scalings, vexp accounting, deflation."""

import numpy as np
import pytest

from simpca import (
    center_scale,
    deflate,
    fit_pca,
    rescale_coefficients,
    vexp_of_component,
)
from simpca.core import DataMatrix
from simpca.errors import RankExceeded, ZeroColumn, ZeroComponent
from simpca.pca import fix_signs

from conftest import random_data


def test_spherical_data_equal_vexp():
    # orthogonal design with equal column norms: S proportional to identity
    h = np.array(
        [
            [1, 1, 1, 1],
            [1, -1, 1, -1],
            [1, 1, -1, -1],
            [1, -1, -1, 1],
        ],
        float,
    )
    x = DataMatrix(values=np.vstack([h, -h]), column_names=("a", "b", "c", "d"))
    model = fit_pca(x, 4)
    assert np.allclose(model.vexp, model.vexp[0], rtol=1e-10)


def test_rank_one_explains_everything():
    rng = np.random.default_rng(0)
    col = rng.standard_normal(9)
    raw = np.outer(col, [1.0, -2.0, 0.5])
    x = center_scale(raw)
    model = fit_pca(x, 1)
    assert model.vexp[0] == pytest.approx(x.total_variance, rel=1e-10)


def test_vexp_equals_squared_singular_values_and_gram_eigenvalues():
    rng = np.random.default_rng(1)
    for _ in range(10):
        x = random_data(rng)
        d = min(x.n - 1, x.p, 4)
        model = fit_pca(x, d)
        assert np.allclose(model.vexp, model.lam**2, rtol=1e-10)
        # independent oracle: eigenvalues of the Gram matrix X'X
        evals = np.sort(np.linalg.eigvalsh(x.cross_product()))[::-1]
        assert np.allclose(model.vexp, evals[:d], rtol=1e-8)
        # scores really are X @ v and mutually orthogonal
        assert np.allclose(model.scores, x.values @ model.v)
        g = model.scores.T @ model.scores
        assert np.allclose(g - np.diag(np.diag(g)), 0.0, atol=1e-6)


def test_fit_pca_sign_convention_and_rank_error():
    rng = np.random.default_rng(2)
    x = random_data(rng, n=15, p=5)
    model = fit_pca(x, 4)
    for j in range(4):
        i = np.argmax(np.abs(model.v[:, j]))
        assert model.v[i, j] > 0
    with pytest.raises(RankExceeded):
        fit_pca(x, 6)


def test_vexp_of_component_definition_and_invariance():
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = random_data(rng)
        t = rng.standard_normal(x.n)
        got = vexp_of_component(x, t)
        # oracle: squared norm of the rank-one projection of X onto span(t)
        proj = np.outer(t / (t @ t), t @ x.values)
        assert got == pytest.approx(np.sum(proj**2), rel=1e-8)
        assert vexp_of_component(x, 3.7 * t) == pytest.approx(got, rel=1e-10)
    with pytest.raises(ZeroComponent):
        vexp_of_component(x, np.zeros(x.n))


def test_vexp_of_pc_score_matches_model():
    rng = np.random.default_rng(4)
    x = random_data(rng, n=20, p=6)
    model = fit_pca(x, 3)
    for j in range(3):
        assert vexp_of_component(x, model.scores[:, j]) == pytest.approx(
            model.vexp[j], rel=1e-8
        )


def test_deflate_orthogonality_and_vexp_split():
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = random_data(rng)
        t = x.values @ rng.standard_normal(x.p)
        q = deflate(x, t)
        assert np.allclose(q.T @ t, 0.0, atol=1e-7 * np.linalg.norm(t))
        # total variance splits into explained-by-t plus the remainder
        assert np.sum(q**2) + vexp_of_component(x, t) == pytest.approx(
            x.total_variance, rel=1e-8
        )
        # a deflated-out direction explains no extra variance
        assert vexp_of_component(q, t) <= 1e-7


def test_rescale_modes_norms():
    rng = np.random.default_rng(7)
    v = rng.standard_normal((8, 3))
    lam = np.array([5.0, 2.0, 0.7])
    unit = rescale_coefficients(v, "unit-l2")
    assert np.allclose(np.linalg.norm(unit, axis=0), 1.0)
    l1 = rescale_coefficients(v, "l1")
    assert np.allclose(np.sum(np.abs(l1), axis=0), 1.0)
    linf = rescale_coefficients(v, "linf")
    assert np.allclose(np.max(np.abs(linf), axis=0), 1.0)
    norm = rescale_coefficients(v, "component-unit-norm", lam=lam)
    assert np.allclose(norm, v / lam)
    eig = rescale_coefficients(v, "inverse-eigenvalue", lam=lam)
    assert np.allclose(eig, v / lam**2)
    with pytest.raises(ValueError):
        rescale_coefficients(v, "component-unit-norm")
    with pytest.raises(ValueError):
        rescale_coefficients(v, "unit-l7")
    with pytest.raises(ZeroColumn):
        rescale_coefficients(np.zeros((4, 1)), "unit-l2")


def test_rescale_argsort_invariance():
    # every scaling is a positive per-column scalar, so the |coefficient|
    # ranking within a column is identical across modes
    rng = np.random.default_rng(8)
    v = rng.standard_normal((9, 2))
    lam = np.array([3.0, 1.5])
    ranks = None
    for mode, kw in [
        ("unit-l2", {}),
        ("l1", {}),
        ("linf", {}),
        ("component-unit-norm", {"lam": lam}),
        ("inverse-eigenvalue", {"lam": lam}),
    ]:
        r = np.argsort(np.abs(rescale_coefficients(v, mode, **kw)), axis=0)
        if ranks is None:
            ranks = r
        assert np.array_equal(r, ranks)


def test_unit_lm_lower_bound():
    # after unit-L_m scaling of a length-p column, max|coef| >= p^(-1/m)
    rng = np.random.default_rng(9)
    for m, mode in [(1, "l1"), (2, "unit-l2")]:
        for _ in range(20):
            p = int(rng.integers(2, 15))
            v = rescale_coefficients(rng.standard_normal((p, 1)), mode)
            assert np.max(np.abs(v)) >= p ** (-1.0 / m) - 1e-12


def test_component_unit_norm_gives_equal_score_norms():
    rng = np.random.default_rng(10)
    x = random_data(rng, n=20, p=6)
    model = fit_pca(x, 4)
    coefs = rescale_coefficients(model.v, "component-unit-norm", lam=model.lam)
    norms = np.linalg.norm(x.values @ coefs, axis=0)
    assert np.allclose(norms, 1.0, rtol=1e-8)


def test_fix_signs():
    v = np.array([[0.2, -0.9], [-0.8, 0.1]])
    flipped, signs = fix_signs(v)
    assert np.array_equal(signs, [-1.0, -1.0])
    assert flipped[1, 0] > 0 and flipped[0, 1] > 0
