"""Sparse components: projection, LS variants, pipeline behavior."""

import os
import subprocess
import sys

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
from simpca import pca, rotation, sparse
from simpca.core import _ls_svd, r_squared
from simpca.errors import (
    ConfigError,
    EmptySupport,
    NonFiniteInput,
    RankExceeded,
    SingularSubset,
    ZeroTarget,
)
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


@pytest.mark.parametrize("coefficients", [[0.0], [0.0, -0.0, 0.0], np.zeros(0)])
def test_contributions_of_no_nonzero_coefficient_is_an_empty_support(coefficients):
    with pytest.raises(EmptySupport):
        contributions(coefficients)


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


def test_cspca_weights_are_accurate_on_an_ill_conditioned_support():
    # X_A = U S V' with kappa = 1e6 and Q = U G P', so Q'X_A w = P G'S V'w:
    # the exact weights are V S^-1 u, u the leading right singular vector
    # of G'. A solve that forms X_A'X_A squares kappa and loses them.
    s = np.logspace(0, -6, 4)
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        u, _ = np.linalg.qr(rng.standard_normal((30, 4)))
        v, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        p, _ = np.linalg.qr(rng.standard_normal((6, 4)))
        g = rng.standard_normal((4, 4))
        exact = v @ (np.linalg.svd(g.T)[2][0] / s)
        exact /= np.linalg.norm(exact)
        comp = cspca_component((u * s) @ v.T, u @ g @ p.T, SupportSet(indices=(0, 1, 2, 3)))
        w = comp.coefficients * np.sign(comp.coefficients @ exact)
        worst = max(worst, np.linalg.norm(w - exact))
    assert worst <= 1e-9


def test_cspca_is_uspca_without_earlier_components():
    # one LS-SPCA solve: CSPCA is USPCA with no constraint, to the bit
    rng = np.random.default_rng(17)
    for _ in range(20):
        x = random_data(rng, n=int(rng.integers(15, 31)))
        p = x.values.shape[1]
        q = deflate(x, x.values @ rng.standard_normal(p))
        support = _random_support(rng, p)
        c = cspca_component(x, q, support)
        u = uspca_component(x, q, support, ())
        assert c.method == "cspca" and u.method == "uspca"
        assert c.coefficients.tobytes() == u.coefficients.tobytes()
        assert c.scores.tobytes() == u.scores.tobytes()
        assert c.vexp.hex() == u.vexp.hex()
        assert c.extra_vexp.hex() == u.extra_vexp.hex()


def test_cspca_singular_subset():
    from simpca import center_scale

    rng = np.random.default_rng(4)
    base = rng.standard_normal((12, 2))
    raw = np.column_stack([base, base[:, 0] + base[:, 1]])
    x = center_scale(raw)
    with pytest.raises(SingularSubset):
        cspca_component(x, x.values, SupportSet(indices=(0, 1, 2)))


def test_uspca_with_round_off_feasible_directions_raises_singular_subset():
    # columns 0 and 4 are equal; the first component's scores leave the
    # second support (0, 4) only w = (1, -1) / sqrt 2, whose scores
    # X_A w are round-off
    x = np.array([
        [1, 3, -1.6, -2.4, 1],
        [2, -2, 0.4, 2.6, 2],
        [-3, 2, -0.6, -1.4, -3],
        [-1, -3, -1.6, 2.6, -1],
        [1, 0, 3.4, -1.4, 1],
    ])
    config = SimpcaPipelineConfig(
        nd=2, nr=3, method="uspca", kaiser=False, deflate=False,
        strategy=SelectionStrategy(kind="fixed-threshold", threshold=0.3),
    )
    with pytest.raises(SingularSubset):
        run_simpca(x, config)


def _constraint_blocks():
    """(a, rank) pairs: wide, tall, rank-deficient, duplicated rows,
    ill-conditioned, zero."""
    rng = np.random.default_rng(11)
    cases = []
    for m, k, r in [(2, 7, 2), (1, 5, 1), (9, 4, 4), (6, 6, 6), (5, 8, 2),
                    (7, 3, 1), (4, 4, 3)]:
        cases.append((rng.standard_normal((m, r)) @ rng.standard_normal((r, k)), r))
    row = rng.standard_normal(6)
    cases.append((np.vstack([row, row, 2 * row]), 1))
    pair = rng.standard_normal((2, 5))
    cases.append((pair[[0, 1, 0, 1]], 2))
    cases.append((rng.integers(-3, 4, (3, 8))[[0, 1, 2, 2]].astype(float), 3))
    # full rank, with sigma_2 = 1e-12 sigma_1 well above the cut
    u, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    v, _ = np.linalg.qr(rng.standard_normal((6, 2)))
    cases.append(((u * [1.0, 1e-12]) @ v.T, 2))
    cases += [(np.zeros((3, 5)), 0), (np.zeros((1, 1)), 0)]
    return cases


def test_null_space_basis():
    for a, rank in _constraint_blocks():
        basis = _ls_svd(a)[3]
        k = a.shape[1]
        assert basis.shape == (k, k - rank)
        assert np.linalg.norm(a @ basis) <= 1e-12 * np.linalg.norm(a)
        assert np.allclose(basis.T @ basis, np.eye(k - rank), rtol=0, atol=1e-12)


def test_null_space_projector_matches_scipy():
    scipy_linalg = pytest.importorskip("scipy.linalg")
    for a, _ in _constraint_blocks():
        ours = _ls_svd(a)[3]
        theirs = scipy_linalg.null_space(a)
        assert ours.shape == theirs.shape
        assert np.allclose(ours @ ours.T, theirs @ theirs.T, rtol=0, atol=1e-12)


def test_import_does_not_load_scipy():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = "import sys, simpca, simpca.cli; assert 'scipy' not in sys.modules"
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


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


def test_plain_threshold_coefficients_need_one_entry_per_column():
    x = random_data(np.random.default_rng(7), n=18, p=5)
    for coefs in (np.ones(3), np.ones(6)):
        with pytest.raises(ConfigError, match="do not match the 5 columns"):
            plain_threshold_component(x, coefs, 0.3)


@pytest.mark.parametrize("method", sparse.METHODS)
@pytest.mark.parametrize("indices", [(-1,), (0, -2), (5,), (1, 5), (1.0,), (True,), ("a",)])
def test_support_index_outside_the_columns_is_a_config_error(method, indices):
    # -1 would read the last column under a support naming -1; 5 is past
    # the 5 columns; a bool would be a mask, and a float no index at all
    x = random_data(np.random.default_rng(9), n=18, p=5)
    model = fit_pca(x, 2)
    target, coefs = model.scores[:, 0], model.v[:, 0]
    with pytest.raises(ConfigError, match="is not within"):
        sparse._sparsify(x, x.values, SupportSet(indices=indices), target, coefs, method,
                         [model.scores[:, 1]])


@pytest.mark.parametrize("method", sparse.METHODS)
def test_repeated_support_index_is_a_config_error(method):
    # PSPCA listed column 0 twice with half its coefficient each, and CSPCA
    # called the support singular
    x = random_data(np.random.default_rng(9), n=20, p=5)
    model = fit_pca(x, 2)
    target, coefs = model.scores[:, 0], model.v[:, 0]
    for indices in ((0, 0, 2), (3, 1, 3)):
        with pytest.raises(ConfigError, match="repeats an index"):
            sparse._sparsify(x, x.values, SupportSet(indices=indices), target, coefs, method,
                             [model.scores[:, 1]])


@pytest.mark.parametrize("target", [np.inf, -np.inf, np.nan])
def test_projection_target_must_be_finite(target):
    # an infinite target gave NaN coefficients
    x = random_data(np.random.default_rng(10), n=20, p=5)
    t = fit_pca(x, 1).scores[:, 0]
    t[4] = target
    with pytest.raises(NonFiniteInput) as err:
        project_component(x, SupportSet(indices=(0, 2)), t)
    assert (err.value.row, err.value.col) == (4, 0)
    for t in (np.ones(19), None):
        with pytest.raises(ConfigError, match="does not match the 20 rows"):
            project_component(x, SupportSet(indices=(0, 2)), t)


@pytest.mark.parametrize("with_q", [False, True])
def test_built_component_reads_its_numbers_off_its_support_and_q(with_q):
    # bit for bit: scores X_A w, extra vexp against q (X when q is None)
    # and contributions of w, for PSPCA and plain thresholding, the two
    # sparsifiers whose q defaults to X
    names, values, _, _ = ingest_csv(EUROJOBS, id_column="country")
    x = center_scale(values, "unit-variance", names)
    model = fit_pca(x, 2)
    q = deflate(x, model.scores[:, 1]) if with_q else None
    kwargs = {"q": q} if with_q else {}
    comps = [
        project_component(x, SupportSet(indices=(0, 3, 5)), model.scores[:, 0], **kwargs),
        plain_threshold_component(x, model.v[:, 0], 0.3, **kwargs),
    ]
    for comp in comps:
        assert np.array_equal(comp.scores,
                              x.values[:, list(comp.support.indices)] @ comp.coefficients)
        assert comp.extra_vexp == vexp_of_component(x if q is None else q, comp.scores)
        assert comp.vexp == vexp_of_component(x, comp.scores)
        assert np.array_equal(comp.contributions, contributions(comp.coefficients))
    if with_q:
        assert all(c.extra_vexp < c.vexp for c in comps)
    else:
        assert all(c.extra_vexp == c.vexp for c in comps)


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
    # round-off (deflate) or would not exist (no deflate), and step 1
    # rotates nr components, so nr = 4 fails even at nd = 3
    x = center_scale(np.random.default_rng(15).standard_normal((4, 5)))
    for deflate in (False, True):
        for nd in (3, 4):
            with pytest.raises(RankExceeded) as err:
                run_simpca(x, _pipeline_config(nd=nd, nr=4, deflate=deflate))
            assert (err.value.d, err.value.rank) == (4, 3)
        res = run_simpca(x, _pipeline_config(nd=3, nr=3, deflate=deflate))
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
    # a rotation needs at least one component and one start, at any nr
    for kw in (dict(nd=1, nr=0), dict(nd=1, nr=1, restarts=0), dict(restarts=0)):
        with pytest.raises(ValueError):
            _pipeline_config(**kw)
    # the generator's seed is checked when the config is built, not after
    # the QR and SVD; every config error is a ConfigError
    for seed, problem in ((-1, "seed -1 is not at least 0"),
                          (1.5, "seed 1.5 is not an integer"),
                          (None, "seed None is not an integer")):
        with pytest.raises(ConfigError, match=problem):
            _pipeline_config(seed=seed)
    assert _pipeline_config(seed=np.int64(3)).seed == 3
    # a numpy bool is a bool
    config = _pipeline_config(kaiser=np.bool_(False), deflate=np.bool_(True))
    assert (config.kaiser, config.deflate) == (False, True)


@pytest.mark.parametrize("field, problem", [
    (dict(strategy="forward"), "strategy 'forward' is not a SelectionStrategy"),
    (dict(criterion="varimax"), "criterion 'varimax' is not a RotationCriterion"),
    (dict(coefficient_scaling="bogus"), "unknown coefficient scaling 'bogus'"),
    (dict(max_sweeps=0), "max_sweeps 0 is not at least 1"),
    (dict(max_sweeps=2.5), "max_sweeps 2.5 is not an integer"),
    (dict(nd=1.5), "nd 1.5 is not an integer"),
    (dict(nr=2.5), "nr 2.5 is not an integer"),
    (dict(nd=0), "nd 0 is not at least 1"),
    (dict(rotation_tol=-1e-8), "rotation tol -1e-08 is not a finite number"),
    (dict(rotation_tol=float("nan")), "rotation tol nan is not a finite number"),
    (dict(rotation_tol=None), "rotation tol None is not a finite number"),
    (dict(kaiser="no"), "kaiser 'no' is not a bool"),
    (dict(deflate="no"), "deflate 'no' is not a bool"),
    (dict(deflate=0), "deflate 0 is not a bool"),
])
def test_pipeline_config_rejects_each_bad_field_when_built(field, problem):
    with pytest.raises(ConfigError, match=problem):
        _pipeline_config(**field)


def test_pipeline_config_scalings_are_those_of_rescale_coefficients():
    for scaling in pca.SCALINGS:
        assert _pipeline_config(coefficient_scaling=scaling).coefficient_scaling == scaling


def test_equamax_keeps_the_c_of_nr_on_steps_that_rotate_fewer_columns(monkeypatch):
    # the criterion is built once, from nr, and a deflated step rotates as
    # many components as its rank allows: on eurojobs (rank 9) the three
    # steps rotate 9, 8 and 7 columns, each with c = 9 / 2
    names, values, _, _ = ingest_csv(EUROJOBS, id_column="country")
    x = center_scale(values, "unit-variance", names)
    rotated = []
    rotate = rotation.rotate

    def recorded(b, criterion, **settings):
        rotated.append((b.shape[1], criterion))
        return rotate(b, criterion, **settings)

    monkeypatch.setattr(rotation, "rotate", recorded)
    run_simpca(x, _pipeline_config(nd=3, nr=9, criterion=RotationCriterion.equamax(9)))
    assert rotated == [(d, RotationCriterion("orthomax", 4.5)) for d in (9, 8, 7)]


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
