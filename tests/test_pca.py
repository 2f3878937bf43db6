"""Principal components, coefficient scalings, vexp accounting, deflation."""

import numpy as np
import pytest

from simpca import center_scale, fit_pca
from simpca.core import DataMatrix
from simpca.errors import ConfigError, RankExceeded, ZeroColumn, ZeroComponent
from simpca.pca import deflate, fix_signs, rescale_coefficients, vexp_of_component
from simpca.selection import rescale_to_unit_norm

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
        evals = np.sort(np.linalg.eigvalsh(x.values.T @ x.values))[::-1]
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


@pytest.mark.parametrize("d, problem", [
    (0, "d 0 is not at least 1"),
    (-1, "d -1 is not at least 1"),
    (1.5, "d 1.5 is not an integer"),
    (np.float64(2.0), "d 2.0 is not an integer"),
])
def test_fit_pca_d_below_one_or_not_an_integer_is_a_config_error(d, problem):
    x = random_data(np.random.default_rng(2), n=15, p=5)
    with pytest.raises(ConfigError, match=problem) as err:
        fit_pca(x, d)
    assert not isinstance(err.value, RankExceeded)


def test_fit_pca_of_rank_zero_data_is_rank_exceeded():
    with pytest.raises(RankExceeded):
        fit_pca(np.zeros((5, 3)))


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


def test_vexp_of_a_score_block_is_that_of_each_column_bit_for_bit():
    # factors of the shapes the pipeline scores its rotated components on:
    # 40 x 40 with 8 components and 48 x 48 with 16
    rng = np.random.default_rng(23)
    for n, p, m in ((200, 40, 8), (400, 48, 16)):
        f = np.linalg.qr(random_data(rng, n=n, p=p).values, mode="r")
        scores = f @ rng.standard_normal((p, m))
        got = vexp_of_component(f, scores)
        assert got.shape == (m,)
        assert np.array_equal(got, [vexp_of_component(f, t) for t in scores.T])
        assert isinstance(vexp_of_component(f, scores[:, 0]), float)
        scores[:, m // 2] = 0.0
        with pytest.raises(ZeroComponent):
            vexp_of_component(f, scores)


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


def test_deflate_vector_is_a_one_column_block():
    rng = np.random.default_rng(8)
    for _ in range(10):
        x = random_data(rng)
        t = x.values @ rng.standard_normal(x.p)
        assert np.array_equal(deflate(x, t), deflate(x, t[:, None]))


def test_deflate_rank_deficient_block():
    # a block with a duplicated column, or a column that is a multiple of
    # another, deflates against its span
    rng = np.random.default_rng(9)
    for _ in range(10):
        x = random_data(rng)
        t = x.values @ rng.standard_normal((x.p, 2))
        for block in (t[:, [0, 1, 0]], np.column_stack([t, -3.0 * t[:, 1]])):
            q = deflate(x, block)
            assert np.allclose(q.T @ block, 0.0, atol=1e-7 * np.linalg.norm(block))
            assert np.allclose(q, deflate(x, t), rtol=0, atol=1e-9 * np.linalg.norm(x.values))


def test_deflate_zero_block_raises():
    x = random_data(np.random.default_rng(10))
    for t in (np.zeros(x.n), np.zeros((x.n, 1)), np.zeros((x.n, 3)), np.zeros((x.n, 0))):
        with pytest.raises(ZeroComponent):
            deflate(x, t)


def test_rescale_modes_norms():
    rng = np.random.default_rng(7)
    v = rng.standard_normal((8, 3))
    lam = np.array([5.0, 2.0, 0.7])
    unit = rescale_coefficients(v, "unit-l2")
    assert np.allclose(np.linalg.norm(unit, axis=0), 1.0)
    norm = rescale_coefficients(v, "component-unit-norm", lam=lam)
    assert np.allclose(norm, v / lam)
    eig = rescale_coefficients(v, "inverse-eigenvalue", lam=lam)
    assert np.allclose(eig, v / lam**2)
    with pytest.raises(ValueError):
        rescale_coefficients(v, "component-unit-norm")
    for unknown in ("unit-l7", "l1", "linf"):
        with pytest.raises(ValueError, match="unknown coefficient scaling"):
            rescale_coefficients(v, unknown)
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
    for m in (1, 2, np.inf):
        for _ in range(20):
            p = int(rng.integers(2, 15))
            v = rescale_to_unit_norm(rng.standard_normal(p), m)
            assert np.max(np.abs(v)) >= p ** (-1.0 / m) - 1e-12
    # unit-l2 coefficient columns are the m = 2 case
    v = rescale_coefficients(rng.standard_normal((9, 3)), "unit-l2")
    assert np.all(np.max(np.abs(v), axis=0) >= 9 ** -0.5 - 1e-12)


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
    # the loop it replaced: the first largest |entry| of a column sets its
    # sign, ties and zeros included
    rng = np.random.default_rng(3)
    for _ in range(50):
        v = rng.integers(-2, 3, size=(int(rng.integers(1, 6)), int(rng.integers(1, 5))))
        v = v * rng.choice([0.5, -0.0], size=v.shape)
        want = np.ones(v.shape[1])
        for j in range(v.shape[1]):
            if v[int(np.argmax(np.abs(v[:, j]))), j] < 0:
                want[j] = -1.0
        flipped, signs = fix_signs(v)
        assert np.array_equal(signs, want)
        assert flipped.tobytes() == (v * want).tobytes()
