"""Principal components, coefficient scalings and variance-explained accounting.

Variance explained by a score vector t is the squared norm of the projection
of X onto span(t). "Extra" variance explained is ``vexp_of_component(q, t)``,
with the orthocomplement Q of the previously accepted components in place
of X.
"""

from dataclasses import dataclass

import numpy as np

from . import core
from .errors import RankExceeded, ZeroColumn, ZeroComponent


@dataclass(frozen=True)
class PcaModel:
    """Singular triplets of the centered data plus per-component vexp.

    Columns of ``v`` are unit-L2 coefficient vectors, ``scores`` = X @ v,
    and ``vexp[j]`` = lambda[j]**2 in units of total variance.
    """

    v: np.ndarray
    lam: np.ndarray
    scores: np.ndarray
    vexp: np.ndarray
    total_variance: float


def fix_signs(v):
    """Flip each column so its largest-|value| entry is positive.

    Components are defined up to sign; this makes results deterministic.
    Returns (flipped matrix, sign vector).
    """
    v = np.asarray(v, float)
    signs = np.ones(v.shape[1])
    for j in range(v.shape[1]):
        i = int(np.argmax(np.abs(v[:, j])))
        if v[i, j] < 0:
            signs[j] = -1.0
    return v * signs, signs


def fit_pca(x, d):
    """First d principal components of a centered DataMatrix or array."""
    values = np.asarray(x, float)
    u, s, v = core.svd(values)
    rank = s.size
    if not 1 <= d <= rank:
        raise RankExceeded(d, rank)
    v, signs = fix_signs(v[:, :d])
    scores = values @ v
    return PcaModel(
        v=v,
        lam=s[:d].copy(),
        scores=scores,
        vexp=s[:d] ** 2,
        total_variance=float(np.sum(values**2)),
    )


def vexp_of_component(x, t):
    """Variance of X explained by the span of the score vector t.

    ||t (t't)^-1 t' X||^2 = ||X't||^2 / t't; invariant to rescaling t.
    """
    values = np.asarray(x, float)
    t = np.asarray(t, float)
    tt = float(t @ t)
    if tt == 0.0:
        raise ZeroComponent()
    xt = values.T @ t
    return float(xt @ xt) / tt


def deflate(x, t):
    """Orthocomplement Q = X - T (T'T)^-1 T' X of X with respect to t.

    ``t`` is a score vector or a matrix with one score column per accepted
    component; the result satisfies Q't = 0 for every column. Deflating
    against a block is not the same as deflating sequentially when the
    columns are correlated, so callers tracking several components must
    pass the whole block. Takes a DataMatrix or an array and returns an
    array.
    """
    values = np.asarray(x, float)
    t = np.asarray(t, float)
    if t.ndim == 1:
        tt = float(t @ t)
        if tt == 0.0:
            raise ZeroComponent()
        return values - np.outer(t / tt, t @ values)
    if not np.any(np.sum(t**2, axis=0) > 0.0):
        raise ZeroComponent()
    coef, *_ = np.linalg.lstsq(t, values, rcond=None)
    return values - t @ coef


def rescale_coefficients(v, scaling="unit-l2", lam=None):
    """Rescale each coefficient column to the requested norm.

    scaling : 'unit-l2', 'component-unit-norm' (divide column j by lambda_j,
        producing components with equal L2 norm), 'inverse-eigenvalue'
        (divide column j by lambda_j**2, i.e. by the eigenvalue of X'X),
        or 'l1' / 'l2' / 'linf' (unit L_m column norms). Directions are
        never changed: the output column is a positive multiple of the
        input column.
    """
    v = np.asarray(v, float)
    zero = np.nonzero(np.linalg.norm(v, axis=0) == 0.0)[0]
    if zero.size:
        raise ZeroColumn(int(zero[0]))
    if scaling == "component-unit-norm":
        if lam is None:
            raise ValueError("component-unit-norm scaling needs the singular values")
        return v / np.asarray(lam, float)
    if scaling == "inverse-eigenvalue":
        if lam is None:
            raise ValueError("inverse-eigenvalue scaling needs the singular values")
        return v / np.asarray(lam, float) ** 2
    if scaling in ("unit-l2", "l2"):
        return v / np.linalg.norm(v, axis=0)
    if scaling == "l1":
        return v / np.sum(np.abs(v), axis=0)
    if scaling == "linf":
        return v / np.max(np.abs(v), axis=0)
    raise ValueError(f"unknown coefficient scaling {scaling!r}")
