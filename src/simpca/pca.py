"""Principal components, coefficient scalings, the rotated components that
the ``rotate`` command and the pipeline share, and variance-explained
accounting.

Variance explained by a score vector t is the squared norm of the projection
of X onto span(t). "Extra" variance explained is ``vexp_of_component(q, t)``,
with the orthocomplement Q of the previously accepted components in place
of X.
"""

from dataclasses import dataclass

import numpy as np

from . import core, rotation
from .errors import ConfigError, RankExceeded, ZeroColumn, ZeroComponent


@dataclass(frozen=True)
class PcaModel:
    """Singular triplets of the centered data plus per-component vexp.

    Columns of ``v`` are unit-L2 coefficient vectors, ``scores`` = X @ v,
    the one n-space product, and ``vexp[j]`` = lambda[j]**2, in the units
    of the total variance ||X||_F^2. Every array is the model's own and
    writeable, from a DataMatrix as from an array: none is a view of what a
    DataMatrix keeps.
    """

    v: np.ndarray
    lam: np.ndarray
    scores: np.ndarray
    vexp: np.ndarray


def fix_signs(v):
    """Flip each column so its largest-|value| entry is positive.

    Components are defined up to sign; this makes results deterministic.
    Returns (flipped matrix, sign vector).
    """
    v = np.asarray(v, float)
    top = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    signs = np.where(top < 0, -1.0, 1.0)
    return v * signs, signs


def _leading(s, v, d):
    """The first d of the rank-cut singular pairs (s, V), every pair when d
    is None, each column of V with its sign fixed (``fix_signs``);
    ``ConfigError`` unless d is an integer >= 1, ``RankExceeded`` for d
    above the rank, or for d None on rank 0."""
    d = (s.size or 1) if d is None else d
    if core._count(d, "d") > s.size:
        raise RankExceeded(d, s.size)
    return s[:d], fix_signs(v[:, :d])[0]


def fit_pca(x, d=None):
    """First d principal components of a centered DataMatrix or array;
    every component up to the numerical rank when d is None (data of rank
    0 raises ``RankExceeded``).

    The spectrum is that of the triangular factor F of X = QF, rank-cut
    with X's n, read off the record of x (``core._factor_of``); only the
    scores X V are formed in n-space. A DataMatrix keeps its record, so
    every fit and pipeline on it reads the same SVD; an array takes its own
    QR and SVD per call.
    """
    lam, v = _leading(*core._factor_of(x).spectrum(), d)
    return PcaModel(v=v, lam=lam.copy(), scores=np.asarray(x, float) @ v, vexp=lam**2)


def _rotation_setting(config):
    """Every field of a pipeline config that ``_rotated_components`` reads,
    which reads them from here: the key of the step 1 a record keeps
    (``_first_step``)."""
    return (config.nr, config.coefficient_scaling, config.criterion, config.kaiser,
            config.rotation_tol, config.max_sweeps, config.restarts, config.seed)


def _rotated_components(rec, config, deflated=False):
    """The rotated components of the data whose record (``core._Factor``)
    is rec: what ``rotate`` prints and each pipeline step starts from.

    The record's spectrum gives the data's numerical rank, cut at
    max(n, p) * eps * lambda_1, and its first d principal components
    (``_leading``): d = nr, so nr above the rank raises ``RankExceeded``,
    or on a ``deflated`` factor as many as its smaller rank allows, up to
    nr. Their coefficients are rescaled by ``config.coefficient_scaling``
    and, for d >= 2, rotated by ``config.criterion`` as it is, also when
    d < nr (an equamax criterion keeps the c of nr). Returns (B, the
    F-space scores F B, the vexp of the d principal components, and the
    ``RotationResult`` or None for d = 1); the columns of B and of the
    scores are ordered by descending variance explained
    (``vexp_of_component`` of the block), signs fixed.
    """
    nr, scaling, criterion, kaiser, tol, max_sweeps, restarts, seed = _rotation_setting(config)
    s, v = rec.spectrum()
    lam, v = _leading(s, v, max(1, min(nr, s.size)) if deflated else nr)
    b = rescale_coefficients(v, scaling, lam=lam)
    result = None
    if lam.size >= 2:
        result = rotation.rotate(b, criterion, kaiser=kaiser, tol=tol, max_sweeps=max_sweeps,
                                 restarts=restarts, seed=seed)
        b = result.b
    scores = rec.f @ b
    order = np.argsort(-vexp_of_component(rec.f, scores), kind="stable")
    b, signs = fix_signs(b[:, order])
    return b, scores[:, order] * signs, lam**2, result


def _first_step(rec, config):
    """Step 1 of a pipeline on the record rec: ``_rotated_components`` of
    the latest rotation setting, which the record keeps, so every pipeline
    and ``rotate`` on it with that setting shares one rotation."""
    key = _rotation_setting(config)
    if rec.step is None or rec.step[0] != key:
        rec.step = key, core._read_only(_rotated_components(rec, config))
    return rec.step[1]


def vexp_of_component(x, t):
    """Variance of X explained by the span of the score vector t.

    ||t (t't)^-1 t' X||^2 = ||X't||^2 / t't; invariant to rescaling t.
    ``t`` is a score vector, for which this returns a float, or a block
    with one score column per component, for which it returns an array of
    each column's value alone, computed as for that column's vector. A
    zero score vector is ``ZeroComponent``.
    """
    values = np.asarray(x, float)
    t = np.asarray(t, float)
    ve = []
    for c in (t[:, None] if t.ndim == 1 else t).T:
        tt = float(c @ c)
        if tt == 0.0:
            raise ZeroComponent()
        xt = values.T @ c
        ve.append(float(xt @ xt) / tt)
    return ve[0] if t.ndim == 1 else np.array(ve)


def deflate(x, t):
    """Orthocomplement Q = X - T (T'T)^+ T' X of X with respect to t.

    ``t`` is a score vector or a matrix with one score column per accepted
    component; the result satisfies Q't = 0 for every column. Deflating
    against a block is not the same as deflating sequentially when the
    columns are correlated, so callers tracking several components must
    pass the whole block. Q = X - U_r U_r'X with U_r from ``core._ls_svd``
    of T, so a rank-deficient block deflates against its span. Takes a
    DataMatrix or an array and returns an array.
    """
    values = np.asarray(x, float)
    t = np.asarray(t, float)
    u = core._ls_svd(t[:, None] if t.ndim == 1 else t)[0]
    if u.shape[1] == 0:
        raise ZeroComponent()
    return values - u @ (u.T @ values)


SCALINGS = ("unit-l2", "component-unit-norm", "inverse-eigenvalue")


def rescale_coefficients(v, scaling="unit-l2", lam=None):
    """Rescale each coefficient column to the requested norm.

    scaling : one of SCALINGS: 'unit-l2', 'component-unit-norm' (divide
        column j by lambda_j, producing components with equal L2 norm) or
        'inverse-eigenvalue' (divide column j by lambda_j**2, i.e. by the
        eigenvalue of X'X); the CLI's ``--coef-scale`` l2, normalized and
        eigen-normalized. Directions are never changed: the output column
        is a positive multiple of the input column. Unit L_1 or L_inf
        norms, which thresholds use, are ``selection.rescale_to_unit_norm``.
    """
    if scaling not in SCALINGS:
        raise ConfigError(f"unknown coefficient scaling {scaling!r}")
    v = np.asarray(v, float)
    zero = np.nonzero(np.linalg.norm(v, axis=0) == 0.0)[0]
    if zero.size:
        raise ZeroColumn(int(zero[0]))
    if scaling == "unit-l2":
        return v / np.linalg.norm(v, axis=0)
    if lam is None:
        raise ConfigError(f"{scaling} scaling needs the singular values")
    return v / np.asarray(lam, float) ** (1 if scaling == "component-unit-norm" else 2)
