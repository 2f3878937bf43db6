"""Sparse components: projection, LS variants, pipeline behavior."""

import numpy as np
import pytest

from simpca import (
    RotationCriterion,
    SelectionStrategy,
    SimpcaPipelineConfig,
    center_scale,
    component_correlations,
    cspca_component,
    fit_pca,
    plain_threshold_component,
    project_component,
    run_simpca,
    uspca_component,
)
from simpca.core import r_squared
from simpca.errors import EmptySupport, RankExceeded, SingularSubset, ZeroTarget
from simpca.pca import deflate, vexp_of_component
from simpca.selection import SupportSet
from simpca.report import ingest_csv
from simpca.sparse import contributions

from conftest import EUROJOBS, random_data


def _random_support(rng, p, size=None):
    if size is None:
        size = int(rng.integers(1, p + 1))
    idx = tuple(int(i) for i in sorted(rng.choice(p, size=size, replace=False)))
    return SupportSet(indices=idx)


def test_contributions_sum_and_sign():
    c = contributions(np.array([2.0, -1.0, 1.0]))
    assert np.allclose(c, [50.0, -25.0, 25.0])
    assert np.sum(np.abs(c)) == pytest.approx(100.0)
    with pytest.raises(EmptySupport):
        contributions(np.zeros(3))


def test_projection_r2_identity_and_vexp_bound():
    # corr(target, projected scores)^2 equals the regression R^2, and the
    # projected component explains at least R^2 times the target's vexp
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = random_data(rng)
        model = fit_pca(x, 1)
        target = model.scores[:, 0]
        sup = _random_support(rng, x.p)
        comp = project_component(x, sup, target)
        r2 = r_squared(x.values[:, list(sup.indices)], target)
        corr = np.corrcoef(target, comp.scores)[0, 1]
        assert corr**2 == pytest.approx(r2, abs=1e-10)
        assert comp.vexp >= r2 * model.vexp[0] - 1e-8 * x.total_variance


def test_projection_errors():
    rng = np.random.default_rng(1)
    x = random_data(rng, n=10, p=4)
    with pytest.raises(EmptySupport):
        project_component(x, SupportSet(indices=()), x.values[:, 0])
    with pytest.raises(ZeroTarget):
        project_component(x, SupportSet(indices=(0,)), np.zeros(x.n))


def test_full_support_collapse_all_methods():
    # with every variable selected, each method reproduces its target
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = random_data(rng, n=20, p=5)
        model = fit_pca(x, 1)
        target = model.scores[:, 0]
        full = SupportSet(indices=tuple(range(x.p)))
        proj = project_component(x, full, target)
        assert np.allclose(proj.scores, target, rtol=1e-8)
        assert proj.vexp == pytest.approx(model.vexp[0], rel=1e-8)
        csp = cspca_component(x, x.values, full)
        # cspca maximizes vexp: with full support that is pc1 itself
        assert csp.vexp == pytest.approx(model.vexp[0], rel=1e-8)
        cos = abs(np.dot(csp.scores, target)) / (
            np.linalg.norm(csp.scores) * np.linalg.norm(target)
        )
        assert cos == pytest.approx(1.0, abs=1e-8)


def test_cspca_matches_explicit_generalized_eigen_oracle():
    rng = np.random.default_rng(3)
    for _ in range(30):
        x = random_data(rng, n=16, p=8)
        q = x.values
        sup = _random_support(rng, x.p, size=int(rng.integers(1, 4)))
        comp = cspca_component(x, q, sup)
        sub = x.values[:, list(sup.indices)]
        a_mat = (q.T @ sub).T @ (q.T @ sub)
        b_mat = sub.T @ sub
        evals = np.linalg.eigvals(np.linalg.solve(b_mat, a_mat))
        mu = np.max(evals.real)
        assert comp.extra_vexp == pytest.approx(mu, rel=1e-8)
        # no other direction on the support does better
        for _ in range(20):
            w = rng.standard_normal(len(sup.indices))
            assert comp.extra_vexp >= vexp_of_component(x, sub @ w) - 1e-8


def test_cspca_singular_subset():
    from simpca import center_scale

    rng = np.random.default_rng(4)
    base = rng.standard_normal((12, 2))
    raw = np.column_stack([base, base[:, 0] + base[:, 1]])
    x = center_scale(raw)
    with pytest.raises(SingularSubset):
        cspca_component(x, x.values, SupportSet(indices=(0, 1, 2)))


def test_dominance_chain():
    # on a fixed support, cspca explains at least as much extra variance
    # as uspca and as the projection method
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 100:
        x = random_data(rng)
        model = fit_pca(x, 1)
        target = model.scores[:, 0]
        sup = _random_support(rng, x.p)
        try:
            csp = cspca_component(x, x.values, sup)
        except SingularSubset:
            continue
        proj = project_component(x, sup, target)
        usp = uspca_component(x, x.values, sup, previous_components=())
        assert csp.extra_vexp >= proj.extra_vexp - 1e-8
        assert csp.extra_vexp >= usp.extra_vexp - 1e-8
        checked += 1


def test_uspca_orthogonality_constraint():
    rng = np.random.default_rng(6)
    for _ in range(10):
        x = random_data(rng, n=20, p=7)
        model = fit_pca(x, 1)
        target = model.scores[:, 0]
        first = project_component(x, _random_support(rng, 7, 3), target)
        q = deflate(x, first.scores)
        sup = _random_support(rng, 7, 4)
        second = uspca_component(x, q, sup, previous_components=(first,))
        # scores of the second component are orthogonal to the first
        assert abs(np.dot(second.scores, first.scores)) <= 1e-6 * (
            np.linalg.norm(second.scores) * np.linalg.norm(first.scores)
        )
        # and cspca on the same support does at least as well
        csp = cspca_component(x, q, sup)
        assert csp.extra_vexp >= second.extra_vexp - 1e-8


def test_plain_threshold_component():
    rng = np.random.default_rng(7)
    x = random_data(rng, n=18, p=6)
    model = fit_pca(x, 1)
    comp = plain_threshold_component(x, model.v[:, 0], t=0.3, norm_m=2)
    kept = list(comp.support.indices)
    # surviving coefficients keep their relative values
    orig = model.v[kept, 0]
    assert np.allclose(
        comp.coefficients / np.linalg.norm(comp.coefficients),
        orig / np.linalg.norm(orig),
    )
    # vexp is evaluated honestly by projection of the data onto the scores
    assert comp.vexp == pytest.approx(vexp_of_component(x, comp.scores), rel=1e-10)


def test_component_correlations_matrix():
    rng = np.random.default_rng(8)
    x = random_data(rng, n=20, p=6)
    model = fit_pca(x, 2)
    t1 = project_component(x, SupportSet(indices=(0, 1)), model.scores[:, 0])
    t2 = project_component(x, SupportSet(indices=(2, 3)), model.scores[:, 1])
    c = component_correlations([t1, t2])
    assert c.shape == (2, 2)
    assert np.allclose(np.diag(c), 1.0)
    oracle = np.corrcoef(t1.scores, t2.scores)[0, 1]
    assert c[0, 1] == pytest.approx(oracle, abs=1e-10)
    with pytest.raises(ValueError):
        component_correlations([t1])


def _pipeline_config(kind="forward", **kw):
    defaults = dict(
        nd=2,
        nr=3,
        strategy=SelectionStrategy(kind=kind, alpha=0.95, threshold=0.2),
        criterion=RotationCriterion.varimax(),
        coefficient_scaling="component-unit-norm",
        kaiser=True,
        method="pspca",
        deflate=True,
    )
    defaults.update(kw)
    return SimpcaPipelineConfig(**defaults)


def test_pipeline_deterministic():
    rng = np.random.default_rng(9)
    x = random_data(rng, n=25, p=7)
    cfg = _pipeline_config()
    r1 = run_simpca(x, cfg)
    r2 = run_simpca(x, cfg)
    for a, b in zip(r1.components, r2.components):
        assert a.support.indices == b.support.indices
        assert np.array_equal(a.scores, b.scores)


def test_pipeline_full_support_spans_rotated_pcs():
    # a threshold below every coefficient keeps all variables; the sparse
    # components then span the rotated pcs and cumulative vexp matches
    rng = np.random.default_rng(10)
    x = random_data(rng, n=20, p=5)
    cfg = _pipeline_config(
        kind="fixed-threshold",
        nd=5,
        nr=5,
        strategy=SelectionStrategy(kind="fixed-threshold", threshold=1e-9),
    )
    res = run_simpca(x, cfg)
    cum_sparse = sum(c.extra_vexp for c in res.components)
    cum_rot = float(np.sum(res.rotated_vexp))
    assert cum_sparse == pytest.approx(cum_rot, rel=1e-8)
    assert cum_sparse == pytest.approx(x.total_variance, rel=1e-8)


def test_pipeline_deflated_components_nearly_uncorrelated():
    rng = np.random.default_rng(11)
    x = random_data(rng, n=25, p=8)
    cfg = _pipeline_config(
        kind="forward",
        nd=3,
        nr=4,
        strategy=SelectionStrategy(kind="forward", alpha=0.95),
    )
    res = run_simpca(x, cfg)
    corr = component_correlations(res.components)
    off = corr[~np.eye(3, dtype=bool)]
    assert np.max(off**2) <= 0.05 + 1e-6


def test_pipeline_methods_run_and_label():
    rng = np.random.default_rng(12)
    x = random_data(rng, n=25, p=6)
    for method, label in [
        ("pspca", "pspca"),
        ("cspca", "cspca"),
        ("uspca", "uspca"),
        ("plain", "plain-threshold"),
    ]:
        cfg = _pipeline_config(method=method)
        res = run_simpca(x, cfg)
        assert all(c.method == label for c in res.components)
        assert len(res.components) == 2


def test_pipeline_no_deflate_uses_single_rotation():
    rng = np.random.default_rng(13)
    x = random_data(rng, n=22, p=6)
    res = run_simpca(x, _pipeline_config(deflate=False, nd=3))
    # accounting still avoids double counting: cumulative extra vexp never
    # exceeds the total variance
    assert sum(c.extra_vexp for c in res.components) <= x.total_variance * (1 + 1e-10)


def test_pipeline_nd_above_rank_raises():
    # 4 centered rows have rank 3: a fourth component would be fitted to
    # round-off (deflate) or would not exist (no deflate)
    x = center_scale(np.random.default_rng(15).standard_normal((4, 5)))
    for deflate in (False, True):
        with pytest.raises(RankExceeded) as err:
            run_simpca(x, _pipeline_config(nd=4, nr=4, deflate=deflate))
        assert (err.value.d, err.value.rank) == (4, 3)
        res = run_simpca(x, _pipeline_config(nd=3, nr=4, deflate=deflate))
        assert len(res.components) == 3


def test_pipeline_plain_pairs_coefficients_with_their_columns():
    # forward selection lists the support in the order it added variables,
    # threshold selection in index order; on the same set of variables the
    # plain component must be the same
    names, values, _, _ = ingest_csv(EUROJOBS, id_column="country")
    x = center_scale(values, "unit-variance", names)
    comps = [
        run_simpca(x, _pipeline_config(
            nd=1, nr=4, method="plain",
            strategy=SelectionStrategy(kind=kind, alpha=0.95, threshold=0.3),
        )).components[0]
        for kind in ("forward", "fixed-threshold")
    ]
    forward, threshold = (c.support.indices for c in comps)
    assert forward != threshold and sorted(forward) == list(threshold)
    assert dict(zip(forward, comps[0].coefficients)) == pytest.approx(
        dict(zip(threshold, comps[1].coefficients)), rel=1e-12
    )
    assert comps[0].extra_vexp == pytest.approx(comps[1].extra_vexp, rel=1e-12)


def test_pipeline_config_validation():
    with pytest.raises(ValueError):
        _pipeline_config(nd=4, nr=3)
    with pytest.raises(ValueError):
        _pipeline_config(method="lasso")


def test_pipeline_config_defaults_to_varimax():
    rng = np.random.default_rng(14)
    x = random_data(rng, n=20, p=6)
    strategy = SelectionStrategy(kind="forward", alpha=0.95)
    default = run_simpca(x, SimpcaPipelineConfig(nd=2, nr=3, strategy=strategy))
    explicit = run_simpca(x, _pipeline_config())
    assert default.config.criterion == RotationCriterion.varimax()
    for a, b in zip(default.components, explicit.components):
        assert a.support.indices == b.support.indices
        assert np.array_equal(a.scores, b.scores)
