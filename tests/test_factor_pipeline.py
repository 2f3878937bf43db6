"""The pipeline on the triangular factor F of X = Q_x F against the same
pipeline on X itself.

``nspace_run_simpca`` below is the n-space loop ``run_simpca`` ran before it
moved onto F: every SVD, rotation, selection, sparsifier and deflation sees
the n x p data. It is kept as a differential oracle. Both loops take the
same decisions from quantities that are equal in exact arithmetic, so the
supports, the selection traces and the error types must be identical, and
the floats must agree to rounding.
"""

import numpy as np
import pytest

from simpca import (
    SelectionStrategy,
    SimpcaPipelineConfig,
    center_scale,
    core,
    pca,
    rotation,
    run_simpca,
    selection,
)
from simpca.errors import RankExceeded, SimpcaError
from simpca.report import ingest_csv
from simpca.selection import KINDS
from simpca.sparse import METHODS, PipelineResult, _sparsify

from conftest import EUROJOBS

RTOL = 1e-9


def _nspace_rotated_targets(q, need, config):
    s, v = core.svd(q)
    if s.size < need:
        raise RankExceeded(need, s.size)
    d = min(config.nr, s.size)
    v, _ = pca.fix_signs(v[:, :d])
    coefs = pca.rescale_coefficients(v, config.coefficient_scaling, lam=s[:d])
    if d >= 2:
        b = rotation.rotate(
            coefs,
            config.criterion,
            kaiser=config.kaiser,
            tol=config.rotation_tol,
            max_sweeps=config.max_sweeps,
            restarts=config.restarts,
            seed=config.seed,
        ).b
    else:
        b = coefs
    scores = q @ b
    ve = [pca.vexp_of_component(q, scores[:, j]) for j in range(d)]
    order = np.argsort(-np.asarray(ve), kind="stable")
    b, signs = pca.fix_signs(b[:, order])
    return b, scores[:, order] * signs, s[:d] ** 2


def nspace_run_simpca(x, config):
    values = np.asarray(x, float)
    q = values
    b, targets, pca_vexp = _nspace_rotated_targets(values, config.nr, config)
    accepted = []
    rotated_vexp = []
    for j in range(config.nd):
        if j:
            q = pca.deflate(values, np.column_stack([c.scores for c in accepted]))
            if config.deflate:
                b, targets, _ = _nspace_rotated_targets(q, 1, config)
        col = 0 if config.deflate else j
        target = targets[:, col]
        support = selection.select_support(values, target, b[:, col], config.strategy)
        comp = _sparsify(values, q, support, target, b[:, col], config.method, accepted)
        rotated_vexp.append(pca.vexp_of_component(q, target))
        accepted.append(comp)
    return PipelineResult(
        components=tuple(accepted),
        rotated_vexp=np.asarray(rotated_vexp),
        pca_vexp=pca_vexp,
        total_variance=float(np.sum(values**2)),
        config=config,
        # X itself is a factor of X'X, the loop's n-space one
        factor=values,
    )


def _outcome(run, x, config):
    try:
        return run(x, config)
    except SimpcaError as exc:
        return type(exc)


def _close(a, b):
    return abs(a - b) <= RTOL * max(abs(a), abs(b))


def parting(x, config):
    """How the factor pipeline parts from the n-space oracle, or None."""
    want = _outcome(nspace_run_simpca, x, config)
    got = _outcome(run_simpca, x, config)
    if isinstance(want, type) or isinstance(got, type):
        return None if want is got else f"outcome {want} != {got}"
    for name in ("rotated_vexp", "pca_vexp"):
        for a, b in zip(getattr(want, name), getattr(got, name), strict=True):
            if not _close(a, b):
                return f"{name} {a!r} != {b!r}"
    for j, (a, b) in enumerate(zip(want.components, got.components, strict=True)):
        if a.support.indices != b.support.indices:
            return f"component {j}: support {a.support.indices} != {b.support.indices}"
        if [t[:2] for t in a.support.trace] != [t[:2] for t in b.support.trace]:
            return f"component {j}: trace {a.support.trace} != {b.support.trace}"
        pairs = [(t[2], u[2]) for t, u in zip(a.support.trace, b.support.trace)]
        pairs += [(a.support.r2, b.support.r2), (a.vexp, b.vexp),
                  (a.extra_vexp, b.extra_vexp), (a.r2_vs_target, b.r2_vs_target)]
        for u, v in pairs:
            if (u is None) != (v is None) or (u is not None and not _close(u, v)):
                return f"component {j}: {u!r} != {v!r}"
        if np.linalg.norm(a.scores - b.scores) > RTOL * np.linalg.norm(a.scores):
            return f"component {j}: scores differ"
    return None


def _configs(nd, nr):
    return [
        SimpcaPipelineConfig(
            nd=nd,
            nr=nr,
            strategy=SelectionStrategy(kind=kind, alpha=0.95, threshold=0.3),
            method=method,
            deflate=deflate,
            kaiser=kaiser,
        )
        for kind in KINDS
        for method in METHODS
        for deflate in (False, True)
        for kaiser in (False, True)
    ]


def _partings(x, configs):
    found = [(config, parting(x, config)) for config in configs]
    return [
        (c.strategy.kind, c.method, c.deflate, c.kaiser, diff) for c, diff in found if diff
    ]


@pytest.mark.parametrize("scaling", ["none", "unit-variance"])
@pytest.mark.parametrize("nd, nr", [(2, 3), (3, 4)])
def test_eurojobs_factor_pipeline_matches_nspace(scaling, nd, nr):
    names, values, _, _ = ingest_csv(EUROJOBS, id_column="country")
    x = center_scale(values, scaling, names)
    assert _partings(x, _configs(nd, nr)) == []


def _factor_data(n, p, k, seed):
    rng = np.random.default_rng(seed)
    factors = rng.standard_normal((n, k)) * 1.5 ** -np.arange(k)
    raw = factors @ rng.standard_normal((k, p)) + 0.05 * rng.standard_normal((n, p))
    return center_scale(raw, "unit-variance")


@pytest.mark.parametrize("n, p", [(60, 8), (12, 20)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_factor_data_factor_pipeline_matches_nspace(n, p, seed):
    x = _factor_data(n, p, 4, seed)
    assert _partings(x, _configs(2, 3)) == []


def test_rank_is_cut_with_the_data_rows():
    # X = U diag(s) V' with 1000 rows and 4 columns, its last singular value
    # 100 eps: above the 4 * eps cut of the 4 x 4 factor, below the
    # 1000 * eps cut of X, so X has numerical rank 3
    rng = np.random.default_rng(3)
    u, _ = np.linalg.qr(rng.standard_normal((1000, 4)))
    v, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    x = (u * [1.0, 0.8, 0.6, 100 * np.finfo(float).eps]) @ v.T
    f = np.linalg.qr(x, mode="r")
    assert core.svd(x)[0].size == 3
    assert core.svd(f)[0].size == 4
    # given the data's rows, the factor is cut as the data is
    assert core.svd(f, 1000)[0].size == 3
    config = SimpcaPipelineConfig(
        nd=4, nr=4, strategy=SelectionStrategy(kind="fixed-threshold")
    )
    with pytest.raises(RankExceeded) as err:
        run_simpca(x, config)
    assert (err.value.d, err.value.rank) == (4, 3)
