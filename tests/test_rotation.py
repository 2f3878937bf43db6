"""Crawford-Ferguson / Orthomax rotation: invariants and oracles."""

import numpy as np
import pytest

from simpca import RotationCriterion, cf_value, fit_pca, orthomax_value, rotate
from simpca.errors import NonFiniteInput, ZeroRow
from simpca.rotation import _plane_angle, rotated_scores

from conftest import random_data


def naive_cf(b, kappa):
    """Triple-loop transliteration of the criterion, used as an oracle."""
    b2 = np.asarray(b, float) ** 2
    p, d = b2.shape
    row = sum(
        b2[i, j] * b2[i, k]
        for i in range(p)
        for j in range(d)
        for k in range(d)
        if j != k
    )
    col = sum(
        b2[i, j] * b2[k, j]
        for j in range(d)
        for i in range(p)
        for k in range(p)
        if i != k
    )
    return (1 - kappa) * row + kappa * col


def test_cf_value_matches_naive():
    rng = np.random.default_rng(0)
    for _ in range(10):
        b = rng.standard_normal((5, 3))
        for kappa in (0.0, 0.3, 1.0):
            assert cf_value(b, kappa) == pytest.approx(
                naive_cf(b, kappa), rel=1e-10
            )


def test_orthomax_value_form():
    rng = np.random.default_rng(1)
    b = rng.standard_normal((6, 2))
    b2 = b**2
    expected = 6 * np.sum(b2**2) + 1.0 * np.sum(np.sum(b2, axis=0) ** 2)
    assert orthomax_value(b, 1.0) == pytest.approx(expected, rel=1e-12)


def test_criterion_presets_and_validation():
    assert RotationCriterion.quartimax().kappa(10) == 0.0
    assert RotationCriterion.varimax().kappa(10) == pytest.approx(0.1)
    assert RotationCriterion.equamax(4).kappa(10) == pytest.approx(0.2)
    assert RotationCriterion.crawford_ferguson(0.5).kappa(10) == 0.5
    with pytest.raises(ValueError):
        RotationCriterion.crawford_ferguson(1.5)
    with pytest.raises(ValueError):
        RotationCriterion("orthomax", -1.0)
    with pytest.raises(ValueError):
        RotationCriterion("promax", 0.0)


def test_rotation_invariants():
    rng = np.random.default_rng(2)
    for trial in range(15):
        p = int(rng.integers(4, 10))
        d = int(rng.integers(2, min(p, 5) + 1))
        a = rng.standard_normal((p, d))
        kaiser = bool(trial % 2)
        res = rotate(a, RotationCriterion.varimax(), kaiser=kaiser)
        # o is orthogonal and b = a @ o (also with Kaiser: the row scaling
        # commutes with right-multiplication)
        assert np.allclose(res.o.T @ res.o, np.eye(d), atol=1e-10)
        assert np.allclose(res.b, a @ res.o, atol=1e-10)
        # Frobenius norm is preserved, and so is every row norm
        assert np.linalg.norm(res.b) == pytest.approx(np.linalg.norm(a), rel=1e-10)
        assert np.allclose(
            np.linalg.norm(res.b, axis=1), np.linalg.norm(a, axis=1), rtol=1e-10
        )
        assert res.converged


def test_trace_monotone():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = rng.standard_normal((8, 3))
        res = rotate(a, RotationCriterion.varimax())
        assert np.all(np.diff(res.criterion_trace) >= -1e-9)  # maximized
        res = rotate(a, RotationCriterion.crawford_ferguson(0.4))
        assert np.all(np.diff(res.criterion_trace) <= 1e-9)  # minimized


def test_two_column_rotation_matches_grid_search():
    # global 1e-4-radian grid oracle over the single rotation angle
    rng = np.random.default_rng(4)
    for trial in range(8):
        a = rng.standard_normal((int(rng.integers(4, 9)), 2))
        crit = [
            RotationCriterion.varimax(),
            RotationCriterion.quartimax(),
            RotationCriterion.crawford_ferguson(0.3),
        ][trial % 3]
        kappa = crit.kappa(a.shape[0])
        res = rotate(a, crit)
        thetas = np.arange(0.0, np.pi / 2, 1e-4)
        best = min(
            cf_value(
                a
                @ np.array(
                    [
                        [np.cos(t), -np.sin(t)],
                        [np.sin(t), np.cos(t)],
                    ]
                ),
                kappa,
            )
            for t in thetas
        )
        assert cf_value(res.b, kappa) <= best + 1e-6


def _plane_value(u, v, kappa, theta):
    ct, st = np.cos(theta), np.sin(theta)
    return cf_value(np.column_stack([u * ct + v * st, -u * st + v * ct]), kappa)


def harmonic_fit_angle(u, v, kappa):
    """Reference plane angle: fit c0, c3, c4 of
    g(theta) = c0 + c3 cos(4 theta) + c4 sin(4 theta) from three evaluations
    of the whole criterion, then minimize the harmonic."""
    g0 = _plane_value(u, v, kappa, 0.0)
    g1 = _plane_value(u, v, kappa, np.pi / 8)
    g2 = _plane_value(u, v, kappa, -np.pi / 8)
    c0 = 0.5 * (g1 + g2)
    c4 = 0.5 * (g1 - g2)
    c3 = g0 - c0
    if np.hypot(c3, c4) == 0.0:
        return 0.0
    return np.arctan2(-c4, -c3) / 4.0


def test_plane_angle_matches_harmonic_fit():
    rng = np.random.default_rng(12)
    for trial in range(60):
        p = int(rng.integers(2, 12))
        u, v = rng.standard_normal((2, p)) * rng.uniform(0.1, 10.0)
        kappa = (0.0, 1.0, float(rng.uniform()))[trial % 3]
        scale = max(1.0, _plane_value(u, v, kappa, 0.0))
        got = _plane_value(u, v, kappa, _plane_angle(u, v, kappa))
        ref = _plane_value(u, v, kappa, harmonic_fit_angle(u, v, kappa))
        assert got == pytest.approx(ref, abs=1e-12 * scale)
        assert got <= _plane_value(u, v, kappa, 0.0) + 1e-12 * scale


def test_plane_angle_flat_plane_is_zero():
    # W = 0: two zero columns, and (at kappa = 1) a one-entry column beside a
    # zero column, where the criterion does not change under rotation
    zero = np.zeros(4)
    assert _plane_angle(zero, zero, 0.3) == 0.0
    assert _plane_angle(zero, np.array([0.0, 0.0, 2.0, 0.0]), 1.0) == 0.0


def gpa_rotation(a, value_and_gradient, tol=1e-5, max_iter=500):
    """Orthogonal gradient-projection rotation minimizing a criterion
    (Bernaards & Jennrich 2005), started at the identity. Returns the
    criterion value it reaches."""
    t = np.eye(a.shape[1])
    f, grad = value_and_gradient(a)
    g = a.T @ grad
    step = 1.0
    for _ in range(max_iter):
        m = t.T @ g
        projected = g - t @ (m + m.T) / 2
        s = np.linalg.norm(projected)
        if s < tol:
            break
        step *= 2
        for _ in range(20):
            u, _, vt = np.linalg.svd(t - step * projected)
            new_t = u @ vt
            new_f, new_grad = value_and_gradient(a @ new_t)
            if new_f < f - 0.5 * s * s * step:
                break
            step /= 2
        t, f, g = new_t, new_f, a.T @ new_grad
    return f


def cf_value_and_gradient(kappa):
    def value_and_gradient(b):
        b2 = b**2
        rows = b2.sum(axis=1, keepdims=True)
        cols = b2.sum(axis=0, keepdims=True)
        grad = 4 * b * ((1 - kappa) * (rows - b2) + kappa * (cols - b2))
        return cf_value(b, kappa), grad

    return value_and_gradient


def negated_varimax_and_gradient(b):
    # minus the maximized trace value p*sum(b^4) - sum_j(colsumsq_j)^2
    b2 = b**2
    cols = b2.sum(axis=0)
    value = b.shape[0] * np.sum(b2**2) - np.sum(cols**2)
    return -value, -4 * b * (b.shape[0] * b2 - cols)


def test_rotate_no_worse_than_gradient_projection():
    # noisy simple structure under a random rotation: the setting rotation is
    # for, where the optimum's basin is wide enough for both methods to share
    rng = np.random.default_rng(13)
    for d in (3, 4, 5):
        for _ in range(2):
            p = 4 * d
            loadings = np.zeros((p, d))
            loadings[np.arange(p), np.arange(p) % d] = rng.uniform(0.5, 1.0, p)
            loadings += 0.2 * rng.standard_normal((p, d))
            q, _ = np.linalg.qr(rng.standard_normal((d, d)))
            a = loadings @ q
            for kappa in (0.0, 0.5, 1.0):
                res = rotate(a, RotationCriterion.crawford_ferguson(kappa), tol=1e-13)
                oracle = gpa_rotation(a, cf_value_and_gradient(kappa))
                assert res.criterion_trace[-1] <= oracle + 1e-8 * max(1.0, abs(oracle))
            res = rotate(a, RotationCriterion.varimax(), tol=1e-13)
            oracle = -gpa_rotation(a, negated_varimax_and_gradient)
            assert res.criterion_trace[-1] >= oracle - 1e-8 * max(1.0, abs(oracle))


def test_varimax_agrees_with_statsmodels():
    statsmodels = pytest.importorskip("statsmodels.multivariate.factor_rotation")
    rng = np.random.default_rng(5)
    for _ in range(5):
        x = random_data(rng, n=20, p=7)
        model = fit_pca(x, 3)
        a = model.v / model.lam
        a = a / np.linalg.norm(a, axis=1)[:, None]  # Kaiser by hand
        res = rotate(a, RotationCriterion.varimax())
        oracle, _ = statsmodels.rotate_factors(a, "varimax")
        # compare up to column permutation and sign
        m = np.abs(res.b.T @ oracle) / (
            np.linalg.norm(res.b, axis=0)[:, None]
            * np.linalg.norm(oracle, axis=0)[None, :]
        )
        perm = np.argmax(m, axis=1)
        assert sorted(perm) == [0, 1, 2]
        assert np.all(m[np.arange(3), perm] > 1.0 - 1e-6)


def test_cf_kappa_zero_equals_quartimax_objective():
    # Theorem-style equivalence on a matrix with orthogonal equal-norm
    # columns: CF minimization at any kappa maximizes sum(b^4)
    rng = np.random.default_rng(6)
    for g in (0.5, 1.0, 2.0):
        q, _ = np.linalg.qr(rng.standard_normal((8, 3)))
        a = np.sqrt(g) * q
        values = []
        for kappa in (0.0, 0.25, 0.5, 1.0):
            res = rotate(a, RotationCriterion.crawford_ferguson(kappa))
            values.append(np.sum(res.b**4))
        values = np.asarray(values)
        assert np.all(np.abs(values - values[0]) <= 1e-6 * np.abs(values[0]))


def test_kaiser_zero_row_error():
    a = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ZeroRow):
        rotate(a, RotationCriterion.varimax(), kaiser=True)


def test_rotate_non_finite_input():
    a = np.ones((4, 2))
    for bad in (np.nan, np.inf):
        a[2, 1] = bad
        with pytest.raises(NonFiniteInput) as err:
            rotate(a, RotationCriterion.varimax())
        assert (err.value.row, err.value.col) == (2, 1)


def test_rotate_shape_validation():
    with pytest.raises(ValueError):
        rotate(np.ones((5, 1)), RotationCriterion.varimax())
    with pytest.raises(ValueError):
        rotate(np.ones((2, 3)), RotationCriterion.varimax())
    with pytest.raises(ValueError):
        rotate(np.eye(3)[:, :2], RotationCriterion.varimax(), restarts=0)


def test_restarts_never_worse():
    rng = np.random.default_rng(7)
    for _ in range(5):
        a = rng.standard_normal((7, 3))
        crit = RotationCriterion.varimax()
        single = rotate(a, crit)
        multi = rotate(a, crit, restarts=5, seed=11)
        assert multi.criterion_trace[-1] >= single.criterion_trace[-1] - 1e-9


def test_rotated_scores():
    rng = np.random.default_rng(9)
    x = random_data(rng, n=15, p=5)
    model = fit_pca(x, 3)
    res = rotate(model.v, RotationCriterion.varimax())
    got = rotated_scores(x, model.v, res.o)
    assert np.allclose(got, x.values @ res.b, atol=1e-10)
