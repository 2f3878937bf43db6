"""Sparse components: projection of rotated components onto variable blocks,
the two least-squares variants (CSPCA / USPCA), plain thresholding as a
baseline, and the end-to-end pipeline.

A sparse component is always a combination of selected *original* columns,
t = Xdot @ w. Its extra variance explained is measured against the
orthocomplement Q of the previously accepted components (Q_1 = X):
||Q't||^2 / t't. The two LS variants maximize exactly that quotient over
the support (USPCA under score-orthogonality constraints), so on any fixed
support CSPCA >= USPCA and CSPCA >= PSPCA by construction.
"""

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import null_space

from . import core, pca, rotation, selection
from .errors import (
    EmptySupport,
    InfeasibleOrthogonality,
    RankExceeded,
    SingularSubset,
    ZeroTarget,
)

EPS = np.finfo(float).eps


@dataclass(frozen=True)
class SparseComponent:
    """One accepted sparse component.

    ``coefficients`` holds the nonzero values over ``support.indices`` (with
    sign); ``scores`` = selected columns @ coefficients. ``vexp`` is against
    the full data, ``extra_vexp`` against the orthocomplement of previously
    accepted components. ``contributions`` are signed percents of the
    unit-L1-scaled coefficient vector.
    """

    support: selection.SupportSet
    coefficients: np.ndarray
    scores: np.ndarray
    method: str
    vexp: float
    extra_vexp: float
    r2_vs_target: float
    contributions: np.ndarray


@dataclass(frozen=True)
class SimpcaPipelineConfig:
    nd: int
    nr: int
    strategy: selection.SelectionStrategy
    criterion: rotation.RotationCriterion = rotation.RotationCriterion.varimax()
    coefficient_scaling: str = "component-unit-norm"
    kaiser: bool = True
    method: str = "pspca"
    deflate: bool = True
    rotation_tol: float = 1e-8
    max_sweeps: int = 1000
    restarts: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.nd < 1 or self.nd > self.nr:
            raise ValueError("need 1 <= nd <= nr")
        if self.method not in ("pspca", "cspca", "uspca", "plain"):
            raise ValueError(f"unknown method {self.method!r}")


@dataclass(frozen=True)
class PipelineResult:
    components: tuple
    rotated_vexp: np.ndarray
    pca_vexp: np.ndarray
    total_variance: float
    config: SimpcaPipelineConfig


def contributions(coefficients):
    """Signed percent contributions of a nonzero-coefficient vector."""
    c = np.asarray(coefficients, float)
    denom = np.sum(np.abs(c))
    if denom == 0.0:
        raise EmptySupport()
    return 100.0 * c / denom


def _finish(x, q, support, coefficients, scores, method, target=None):
    r2 = None
    if target is not None:
        tt = float(target @ target)
        resid = target - scores
        r2 = max(0.0, 1.0 - float(resid @ resid) / tt)
    return SparseComponent(
        support=support,
        coefficients=np.asarray(coefficients, float),
        scores=np.asarray(scores, float),
        method=method,
        vexp=pca.vexp_of_component(x, scores),
        extra_vexp=pca.vexp_of_component(q, scores),
        r2_vs_target=r2,
        contributions=contributions(coefficients),
    )


def project_component(x, support, target, q=None):
    """PSPCA: least-squares projection of the target onto the support columns."""
    if not support.indices:
        raise EmptySupport()
    target = np.asarray(target, float)
    if float(target @ target) == 0.0:
        raise ZeroTarget()
    values = np.asarray(x, float)
    if q is None:
        q = values
    sub = values[:, list(support.indices)]
    coef = core.solve_ls(sub, target)
    scores = sub @ coef
    return _finish(x, q, support, coef, scores, "pspca", target)


def _leading_generalized_eigvec(a_mat, b_mat, support):
    """Leading eigenvector of a w = mu b w via symmetric whitening of b."""
    b_mat = (b_mat + b_mat.T) / 2.0
    evals, evecs = np.linalg.eigh(b_mat)
    tol = b_mat.shape[0] * EPS * max(float(np.diag(b_mat).max()), EPS)
    if evals[0] <= tol:
        raise SingularSubset(support.indices)
    white = evecs / np.sqrt(evals)
    m = white.T @ a_mat @ white
    m = (m + m.T) / 2.0
    mvals, mvecs = np.linalg.eigh(m)
    return white @ mvecs[:, -1]


def cspca_component(x, q, support):
    """CSPCA: maximize extra variance explained over the support columns.

    Solves the generalized eigenproblem (Xdot'QQ'Xdot) w = mu (Xdot'Xdot) w;
    mu is the extra variance explained by the component Xdot @ w.
    """
    if not support.indices:
        raise EmptySupport()
    values = np.asarray(x, float)
    qv = np.asarray(q, float)
    sub = values[:, list(support.indices)]
    qx = qv.T @ sub
    w = _leading_generalized_eigvec(qx.T @ qx, sub.T @ sub, support)
    w, _ = pca.fix_signs(w[:, None])
    w = w[:, 0] / np.linalg.norm(w)
    return _finish(x, qv, support, w, sub @ w, "cspca")


def uspca_component(x, q, support, previous_components=()):
    """USPCA: as CSPCA, restricted to score vectors orthogonal to all
    previously computed components' scores."""
    if not support.indices:
        raise EmptySupport()
    values = np.asarray(x, float)
    qv = np.asarray(q, float)
    sub = values[:, list(support.indices)]
    prev = [
        c.scores if isinstance(c, SparseComponent) else np.asarray(c, float)
        for c in previous_components
    ]
    if prev:
        constraints = np.vstack([t @ sub for t in prev])
        basis = null_space(constraints)
        if basis.shape[1] == 0:
            raise InfeasibleOrthogonality(len(support.indices), len(prev))
    else:
        basis = np.eye(sub.shape[1])
    qx = qv.T @ (sub @ basis)
    z = _leading_generalized_eigvec(
        qx.T @ qx, basis.T @ (sub.T @ sub) @ basis, support
    )
    w = basis @ z
    w, _ = pca.fix_signs(w[:, None])
    w = w[:, 0] / np.linalg.norm(w)
    return _finish(x, qv, support, w, sub @ w, "uspca")


def _plain_component(x, q, support, coefficients, target):
    """Keep the support's coefficients as they are, rescaled to unit L2."""
    indices = list(support.indices)
    coef = np.asarray(coefficients, float)[indices]
    coef = coef / np.linalg.norm(coef)
    scores = np.asarray(x, float)[:, indices] @ coef
    return _finish(x, q, support, coef, scores, "plain-threshold", target)


def plain_threshold_component(x, coefficients, t, norm_m=2, q=None):
    """Thresholding baseline: keep large coefficients, zero the rest.

    Surviving coefficients keep their original values (rescaled to unit L2)
    and are *not* recomputed; the variance explained is evaluated honestly
    by projection, not assumed equal to the score norm.
    """
    support = selection.threshold_support(coefficients, t, norm_m)
    values = np.asarray(x, float)
    target = values @ np.asarray(coefficients, float)
    return _plain_component(
        x, values if q is None else q, support, coefficients, target
    )


def component_correlations(components):
    """Pearson correlation matrix of the components' score vectors."""
    scores = [
        c.scores if isinstance(c, SparseComponent) else np.asarray(c, float)
        for c in components
    ]
    if len(scores) < 2:
        raise ValueError("need at least 2 components")
    mat = np.column_stack(scores)
    mat = mat - mat.mean(axis=0)
    norms = np.linalg.norm(mat, axis=0)
    norms[norms == 0.0] = 1.0
    c = (mat / norms).T @ (mat / norms)
    return np.clip(c, -1.0, 1.0)


def _sparsify(x, q, support, target, coefcol, method, accepted):
    if method == "pspca":
        return project_component(x, support, target, q=q)
    if method == "cspca":
        return cspca_component(x, q, support)
    if method == "uspca":
        return uspca_component(x, q, support, accepted)
    return _plain_component(x, q, support, coefcol, target)


def _rotated_targets(q, need, config):
    """PCA + scaling + rotation of the current (possibly deflated) matrix.

    One SVD of q gives both its numerical rank, which must be at least
    ``need`` (else ``RankExceeded``), and its first d = min(nr, rank)
    principal components. Returns (coefficient matrix, score matrix,
    vexp of the d principal components); the first two have their columns
    ordered by descending extra variance explained, signs fixed.
    """
    _, s, v = core.svd(q)
    if s.size < need:
        raise RankExceeded(need, s.size)
    d = min(config.nr, s.size)
    v, _ = pca.fix_signs(v[:, :d])
    coefs = pca.rescale_coefficients(v, config.coefficient_scaling, lam=s[:d])
    if d >= 2:
        result = rotation.rotate(
            coefs,
            config.criterion,
            kaiser=config.kaiser,
            tol=config.rotation_tol,
            max_sweeps=config.max_sweeps,
            restarts=config.restarts,
            seed=config.seed,
        )
        b = result.b
    else:
        b = coefs
    scores = q @ b
    ve = [pca.vexp_of_component(q, scores[:, j]) for j in range(d)]
    order = np.argsort(-np.asarray(ve), kind="stable")
    b, signs = pca.fix_signs(b[:, order])
    return b, scores[:, order] * signs, s[:d] ** 2


def run_simpca(x, config):
    """Run the full pipeline: PCA, rotation, per-component selection and
    sparsification.

    Step j measures extra variance against the orthocomplement of the j
    components accepted before it. With ``config.deflate`` the rotated
    components are recomputed from that orthocomplement and step j takes
    the leading one; without it, step j takes the j-th rotated component
    of X. Raises ``RankExceeded`` when nd exceeds the numerical rank of X.
    """
    values = np.asarray(x, float)
    q = values
    b, targets, pca_vexp = _rotated_targets(values, config.nd, config)
    accepted = []
    rotated_vexp = []
    for j in range(config.nd):
        if j:
            # deflate the *original* data against the whole accepted block:
            # sequential single-component deflation would leave q correlated
            # with the older components whenever the scores are oblique
            q = pca.deflate(values, np.column_stack([c.scores for c in accepted]))
            if config.deflate:
                b, targets, _ = _rotated_targets(q, 1, config)
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
    )
