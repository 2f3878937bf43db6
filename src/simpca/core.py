"""Dense linear-algebra substrate shared by the rest of the package.

Centering/scaling of raw observation matrices, SVD with numerical rank
control, minimum-norm least squares, and correlation / variance-inflation
diagnostics. Everything here is a pure function of immutable inputs.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteInput, ZeroVarianceColumn

EPS = np.finfo(float).eps


def _check_finite(values):
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        raise NonFiniteInput(int(bad[0, 0]), int(bad[0, 1]))


@dataclass(frozen=True)
class DataMatrix:
    """Centered (optionally unit-variance scaled) n x p observation matrix.

    ``column_means`` and ``column_scales`` are in the raw units, so
    ``values * column_scales + column_means`` reproduces the raw input.
    With ``scaling='unit-variance'`` columns are divided by the sample
    standard deviation (denominator n - 1), so every column has sum of
    squares n - 1.
    """

    values: np.ndarray
    column_names: tuple
    centered: bool = True
    scaling: str = "none"
    column_means: np.ndarray = None
    column_scales: np.ndarray = None

    @property
    def n(self):
        return self.values.shape[0]

    @property
    def p(self):
        return self.values.shape[1]

    def __array__(self, dtype=None, copy=None):
        """The centered values, so every function taking an array takes this."""
        return np.array(self.values, dtype=dtype, copy=copy)

    def cross_product(self):
        """S = X'X (covariance or correlation scale, depending on scaling)."""
        return self.values.T @ self.values

    @property
    def total_variance(self):
        """trace(S) = squared Frobenius norm of the centered matrix."""
        return float(np.sum(self.values**2))

    def to_raw(self):
        """Undo centering and scaling, returning the original-units matrix."""
        return self.values * self.column_scales + self.column_means

    def subset(self, indices):
        """New DataMatrix restricted to the given columns."""
        indices = list(indices)
        return DataMatrix(
            values=self.values[:, indices],
            column_names=tuple(self.column_names[i] for i in indices),
            centered=self.centered,
            scaling=self.scaling,
            column_means=self.column_means[indices],
            column_scales=self.column_scales[indices],
        )


def center_scale(raw, scaling="none", column_names=None):
    """Center columns to zero mean, optionally scale to unit variance.

    Parameters
    ----------
    raw : (n, p) array_like
    scaling : {'none', 'unit-variance'}
    column_names : sequence of str, optional
    """
    raw = np.asarray(raw, dtype=float)
    if raw.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    n, p = raw.shape
    if n < 2:
        raise ValueError("need at least 2 observations")
    _check_finite(raw)
    if scaling not in ("none", "unit-variance"):
        raise ValueError(f"unknown scaling mode {scaling!r}")
    if column_names is None:
        column_names = tuple(f"x{i + 1}" for i in range(p))
    else:
        column_names = tuple(column_names)
        if len(column_names) != p:
            raise ValueError("column_names length does not match p")

    means = raw.mean(axis=0)
    centered = raw - means
    if scaling == "unit-variance":
        sd = centered.std(axis=0, ddof=1)
        zero = np.nonzero(sd <= EPS * max(1.0, float(np.abs(raw).max())))[0]
        if zero.size:
            raise ZeroVarianceColumn(int(zero[0]))
        scales = sd
    else:
        scales = np.ones(p)
    return DataMatrix(
        values=centered / scales,
        column_names=column_names,
        centered=True,
        scaling=scaling,
        column_means=means,
        column_scales=scales,
    )


def svd(x):
    """Thin SVD of a centered DataMatrix or array, rank-truncated.

    Returns (U, lambda, V) with non-increasing singular values, keeping only
    the r = numerical-rank triplets (cutoff max(n, p) * eps * lambda_1).
    """
    values = np.asarray(x, float)
    u, s, vt = np.linalg.svd(values, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return u[:, :0], s[:0], vt[:0].T
    tol = max(values.shape) * EPS * s[0]
    r = int(np.sum(s > tol))
    return u[:, :r], s[:r], vt[:r].T


def numerical_rank(x):
    return svd(x)[1].size


def solve_ls(a, b):
    """Minimum-norm least-squares solution of a @ coef ~ b.

    Rank deficiency is handled by the SVD pseudo-inverse with singular
    values below k * eps * sigma_1 treated as zero.
    """
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    if a.ndim == 1:
        a = a[:, None]
    coef, *_ = np.linalg.lstsq(a, b, rcond=a.shape[1] * EPS)
    return coef


def r_squared(a, b):
    """Coefficient of determination of regressing b on the columns of a.

    Both sides are assumed centered, so no intercept is fitted.
    """
    b = np.asarray(b, float)
    denom = float(b @ b)
    if denom == 0.0:
        return 0.0
    resid = b - np.asarray(a, float) @ solve_ls(a, b)
    return max(0.0, 1.0 - float(resid @ resid) / denom)


def vif(x, subset=None):
    """Squared multiple correlation of each variable with the others.

    For each column i of the subset, the R^2 of regressing it on the
    remaining subset columns. A singleton subset gives [0].
    """
    values = np.asarray(x, float)
    idx = list(range(values.shape[1])) if subset is None else list(subset)
    out = np.zeros(len(idx))
    if len(idx) == 1:
        return out
    for k, i in enumerate(idx):
        others = [j for j in idx if j != i]
        out[k] = r_squared(values[:, others], values[:, i])
    return out


def pairwise_abs_correlations(x, subset=None):
    """|Pearson correlation| for each unordered pair of subset columns.

    Returns a 1-d array in condensed (upper-triangle) order.
    """
    values = np.asarray(x, float)
    idx = list(range(values.shape[1])) if subset is None else list(subset)
    if len(idx) < 2:
        raise ValueError("need at least 2 columns")
    cols = values[:, idx]
    cols = cols - cols.mean(axis=0)
    norms = np.linalg.norm(cols, axis=0)
    zero = np.nonzero(norms == 0.0)[0]
    if zero.size:
        raise ZeroVarianceColumn(idx[int(zero[0])])
    c = (cols / norms).T @ (cols / norms)
    iu = np.triu_indices(len(idx), k=1)
    return np.abs(np.clip(c[iu], -1.0, 1.0))

