"""Sparse components: projection of rotated components onto variable blocks,
the two least-squares variants (CSPCA / USPCA), plain thresholding as a
baseline, and the end-to-end pipeline.

A sparse component is always a combination of selected *original* columns,
t = Xdot @ w. Its extra variance explained is measured against the
orthocomplement Q of the previously accepted components (Q_1 = X):
||Q't||^2 / t't. The two LS variants are one LS-SPCA solve, which
maximizes exactly that quotient over the support: CSPCA is the solve with
no constraint basis, and USPCA the same solve on the null space of the
constraints that its scores be orthogonal to those of the components
already accepted. So on any fixed support CSPCA >= USPCA and
CSPCA >= PSPCA by construction.

Each of these quantities, like every selection R^2, depends on X only
through the norms ||Xu||. So the one pipeline, ``run_simpca``, runs every
step on the triangular factor F of X = Q_x F (p x p, or n x p when
n < p), for which ||Fu|| = ||Xu||, as Chan's R-SVD (TOMS 1982) does for
the SVD: the SVDs, rotations, selections, sparsifiers and deflations all
see F. Deflating F against the F-space scores F W gives the factor of X
deflated against X W, with the same Q_x. It reads the record of the data
(``core._Factor``: F, n, the SVD of F and step 1), which it is given
directly by the CLI and builds from X otherwise, and forms only the final
scores on what it was given: X W in n-space, or F W for a record. One SVD
of F gives its spectrum and seeds every backward selection's fit on all
of F's columns. A DataMatrix keeps its record, so every pipeline on it
shares the one QR, that SVD and step 1; an array takes its own per call.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import core, pca, rotation, selection
from .errors import ConfigError, EmptySupport, InfeasibleOrthogonality, SingularSubset, ZeroTarget

EPS = np.finfo(float).eps


@dataclass(frozen=True)
class SparseComponent:
    """One accepted sparse component.

    ``coefficients`` holds the nonzero values over ``support.indices`` (with
    sign); ``scores`` = selected columns @ coefficients, the columns of
    what ``run_simpca`` was given: X, or F for the record of a factor.
    ``vexp`` is against the full data, ``extra_vexp`` against the
    orthocomplement of previously accepted components. ``contributions``
    are signed percents of the unit-L1-scaled coefficient vector.
    """

    support: selection.SupportSet
    coefficients: np.ndarray
    scores: np.ndarray
    method: str
    vexp: float
    extra_vexp: float
    r2_vs_target: float
    contributions: np.ndarray


METHODS = ("pspca", "cspca", "uspca", "plain")


@dataclass(frozen=True)
class SimpcaPipelineConfig:
    """Settings of ``run_simpca``; ``method``, the sparsifier of every
    step, is one of METHODS."""

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
        # checked here, not after the QR and SVD
        if core._count(self.nr, "nr") < core._count(self.nd, "nd"):
            raise ConfigError("need 1 <= nd <= nr")
        for name, kind in (("strategy", selection.SelectionStrategy),
                           ("criterion", rotation.RotationCriterion)):
            if not isinstance(getattr(self, name), kind):
                raise ConfigError(f"{name} {getattr(self, name)!r} is not a {kind.__name__}")
        if self.coefficient_scaling not in pca.SCALINGS:
            raise ConfigError(f"unknown coefficient scaling {self.coefficient_scaling!r}")
        rotation._check_settings(self.rotation_tol, self.max_sweeps, self.restarts, self.seed,
                                 self.kaiser)
        core._check_bool(self.deflate, "deflate")
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}")


@dataclass(frozen=True)
class PipelineResult:
    components: tuple
    rotated_vexp: np.ndarray
    pca_vexp: np.ndarray
    total_variance: float  # ||F||_F^2 = ||X||_F^2
    config: SimpcaPipelineConfig
    factor: np.ndarray  # the F of X = Q_x F that every step ran on


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


def _leading_generalized_eigvec(a_mat, b_mat, gram, support):
    """Leading eigenvector of a w = mu b w via symmetric whitening of b.

    b is singular when its smallest eigenvalue is within rounding of the
    support's own scale, the largest diagonal entry of its Gram matrix
    X_A'X_A. (For USPCA, b is X_A'X_A restricted to the feasible
    directions; when those lie in null(X_A), b is itself round-off and
    cannot set its own scale.)
    """
    b_mat = (b_mat + b_mat.T) / 2.0
    evals, evecs = np.linalg.eigh(b_mat)
    tol = b_mat.shape[0] * EPS * max(float(np.diag(gram).max()), EPS)
    if evals[0] <= tol:
        raise SingularSubset(support.indices)
    white = evecs / np.sqrt(evals)
    m = white.T @ a_mat @ white
    m = (m + m.T) / 2.0
    mvals, mvecs = np.linalg.eigh(m)
    return white @ mvecs[:, -1]


def _ls_spca(x, q, support, method, previous=()):
    """LS-SPCA: the weights w over the support columns X_A that maximize
    the extra variance explained ||Q'X_A w||^2 / ||X_A w||^2.

    That is the generalized eigenproblem (X_A'QQ'X_A) w = mu (X_A'X_A) w,
    with mu the component's extra vexp. Given the score vectors of earlier
    components, w is restricted to the feasible basis N, the weights whose
    scores are orthogonal to all of them: the null space of the constraint
    block C (row i: t_i' X_A), the null-space block of V in the SVD of C at
    the least-squares cut (``core._ls_svd``). The problem is then solved
    for z in w = N z; the component depends only on the span of N.
    """
    if not support.indices:
        raise EmptySupport()
    values = np.asarray(x, float)
    qv = np.asarray(q, float)
    sub = values[:, list(support.indices)]
    gram = sub.T @ sub
    span, b_mat = sub, gram
    if previous:
        basis = core._ls_svd(np.vstack([t @ sub for t in previous]))[3]
        if basis.shape[1] == 0:
            raise InfeasibleOrthogonality(len(support.indices), len(previous))
        span, b_mat = sub @ basis, basis.T @ gram @ basis
    qx = qv.T @ span
    w = _leading_generalized_eigvec(qx.T @ qx, b_mat, gram, support)
    if previous:
        w = basis @ w
    w, _ = pca.fix_signs(w[:, None])
    w = w[:, 0] / np.linalg.norm(w)
    return _finish(x, qv, support, w, sub @ w, method)


def _scores(components):
    """Score vectors of SparseComponents, or of arrays taken as such."""
    return [
        c.scores if isinstance(c, SparseComponent) else np.asarray(c, float)
        for c in components
    ]


def cspca_component(x, q, support):
    """CSPCA: maximize extra variance explained over the support columns,
    the LS-SPCA solve with no constraint."""
    return _ls_spca(x, q, support, "cspca")


def uspca_component(x, q, support, previous_components=()):
    """USPCA: as CSPCA, restricted to score vectors orthogonal to all
    previously computed components' scores (SparseComponents or arrays):
    the LS-SPCA solve on the constraint null space."""
    return _ls_spca(x, q, support, "uspca", _scores(previous_components))


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
    scores = _scores(components)
    if len(scores) < 2:
        raise ConfigError("need at least 2 components")
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


def run_simpca(x, config):
    """Run the full pipeline: PCA, rotation, per-component selection and
    sparsification.

    Step 1 takes the nr rotated components of X that the ``rotate``
    command prints (``pca._rotated_components``), and raises
    ``RankExceeded`` when nr exceeds the numerical rank of X. Step j
    measures extra variance against the orthocomplement of the j
    components accepted before it. With ``config.deflate`` the rotated
    components are recomputed from that orthocomplement, as many as its
    rank allows up to nr, and step j takes the leading one; without it,
    step j takes the j-th rotated component of X.

    Every step runs on the triangular factor F of X = Q_x F, read off the
    record of x (``core._factor_of``, see the module docstring): x is X
    (a DataMatrix or an array) or the record itself, as the CLI passes it.
    Each component's ``scores`` are formed once, from its support and
    coefficients, on ``np.asarray(x)``: X for data, F for a record. A
    DataMatrix keeps its record, with F, the SVD of F and the step-1
    components of the latest rotation setting, so pipelines run one after
    another on it share them; an array takes its own QR, SVD and step 1
    per call. ``result.factor`` and ``result.pca_vexp`` are the record's
    read-only arrays, and the total variance is ||F||_F^2. Each backward
    selection seeds its fit on all of F's columns from the record's SVD of
    F. Selection, sparsification and deflation run per call, so the result
    has the same bits either way.
    """
    rec = core._factor_of(x)
    f = q = rec.f
    b, targets, pca_vexp, _ = pca._first_step(rec, config)
    accepted = []
    rotated_vexp = []
    for j in range(config.nd):
        if j:
            # deflate the *original* factor against the whole accepted
            # block: sequential single-component deflation would leave q
            # correlated with the older components whenever the scores are
            # oblique
            q = pca.deflate(f, np.column_stack(_scores(accepted)))
            if config.deflate:
                b, targets, _, _ = pca._rotated_components(core._Factor(q, rec.n), config,
                                                           deflated=True)
        col = 0 if config.deflate else j
        target = targets[:, col]
        support = selection.select_support(rec, target, b[:, col], config.strategy)
        accepted.append(_sparsify(f, q, support, target, b[:, col], config.method, accepted))
        rotated_vexp.append(pca.vexp_of_component(q, target))

    values = np.asarray(x, float)
    return PipelineResult(
        components=tuple(
            replace(c, scores=values[:, list(c.support.indices)] @ c.coefficients)
            for c in accepted),
        rotated_vexp=np.asarray(rotated_vexp),
        pca_vexp=pca_vexp,
        total_variance=float(np.sum(f**2)),
        config=config,
        factor=f,
    )
