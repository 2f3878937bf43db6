"""Dense linear-algebra substrate shared by the rest of the package.

Centering/scaling of raw observation matrices, SVD with numerical rank
control, the one least-squares kernel behind every fit, R^2, deflation and
null space (``_ls_svd``), the one scorer of a fresh fit's add-one/drop-one
R^2 (``_ls_scores``) and variance inflation.
Everything here is a pure function of immutable inputs, but for the one
record of the data's factor (``_Factor``) that every input kind is turned
into, which keeps its SVD and step 1 on first use.
"""

import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, NonFiniteInput, TooFewObservations, ZeroVarianceColumn

EPS = np.finfo(float).eps


def _count(value, name, least=1):
    """value as an int; ``ConfigError`` unless it is an integer (a float
    such as 3.0 is not) of at least ``least``. Every count check of the
    package is this one."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ConfigError(f"{name} {value} is not an integer") from None
    if value < least:
        raise ConfigError(f"{name} {value} is not at least {least}")
    return value


def _check_bool(value, name):
    """``ConfigError`` unless value is a ``bool`` or an ``np.bool_``: a
    switch such as "no" would otherwise act on its truthiness."""
    if not isinstance(value, (bool, np.bool_)):
        raise ConfigError(f"{name} {value!r} is not a bool")


def _check_finite(values):
    if not np.isfinite(values).all():
        row, col = np.argwhere(~np.isfinite(values))[0]
        raise NonFiniteInput(int(row), int(col))


def _check_target(y, n):
    """y as a float vector; ``ConfigError`` for any shape (None's
    included) but one entry per row of the n-row data it is read against,
    and ``NonFiniteInput`` (the entry's row, column 0) for a non-finite
    entry."""
    y = np.asarray(y, float)
    if y.shape != (n,):
        raise ConfigError(f"target of shape {y.shape} does not match the {n} rows")
    _check_finite(y[:, None])
    return y


def _read_only(value):
    """value, an array or a tuple, with each array in it made read-only."""
    for a in value if isinstance(value, tuple) else (value,):
        if isinstance(a, np.ndarray):
            a.flags.writeable = False
    return value


def _check_shape(values, column_names=None):
    """``ConfigError`` unless values is 2-d and, given names, has one per
    column."""
    if values.ndim != 2:
        raise ConfigError("expected a 2-d matrix")
    if column_names is not None and len(column_names) != values.shape[1]:
        raise ConfigError("column_names length does not match p")


@dataclass(frozen=True)
class DataMatrix:
    """Centered (optionally unit-variance scaled) n x p observation matrix.

    With ``center_scale(..., scaling='unit-variance')`` columns are divided
    by the sample standard deviation (denominator n - 1), so every column
    has sum of squares n - 1.

    ``values`` is read-only and 2-d, with one name per column
    (``ConfigError`` otherwise). ``center_scale`` hands over the one array
    it made; built around an array that is writeable or a view of another,
    a DataMatrix keeps a read-only copy, so no later write reaches it. What
    every pipeline on the data starts from is therefore computed once, on
    first use, and kept on the instance: its record (``_factor``, see
    ``_Factor``). The record is not a field, so eq, repr, ``fields()``,
    ``asdict`` and ``replace`` do not see it.
    """

    values: np.ndarray
    column_names: tuple

    def __post_init__(self):
        values = self.values
        if not isinstance(values, np.ndarray) or values.flags.writeable or values.base is not None:
            values = _read_only(np.array(values))
            object.__setattr__(self, "values", values)
        _check_shape(values, self.column_names)

    def __reduce__(self):
        # a copy or an unpickled instance is built anew, with its own record
        return DataMatrix, (self.values, self.column_names)

    @cached_property
    def _factor(self):
        """The record every pipeline on the data reads (``_factor_of``)."""
        return _factor_of(self.values, self.column_names)

    @property
    def n(self):
        return self.values.shape[0]

    @property
    def p(self):
        return self.values.shape[1]

    def __array__(self, dtype=None, copy=None):
        """The centered values, so every function taking an array takes this."""
        return np.array(self.values, dtype=dtype, copy=copy)

    @property
    def total_variance(self):
        """trace(S) = squared Frobenius norm of the centered matrix."""
        return float(np.sum(self.values**2))


def center_scale(raw, scaling="none", column_names=None):
    """Center columns to zero mean, optionally scale to unit variance.

    Parameters
    ----------
    raw : (n, p) array_like, n >= 2 (else ``TooFewObservations``)
    scaling : {'none', 'unit-variance'}
    column_names : sequence of str, optional

    Centering and scaling act column by column, so
    ``center_scale(raw[:, idx], ...)`` is the DataMatrix of the columns idx.
    raw is read column-major, as the CSV reader returns it, so a C- and an
    F-ordered raw of the same numbers give the same bits.
    """
    raw = np.asarray(raw, dtype=float, order="F")
    _check_shape(raw)
    n, p = raw.shape
    if n < 2:
        raise TooFewObservations(n)
    _check_finite(raw)
    if scaling not in ("none", "unit-variance"):
        raise ConfigError(f"unknown scaling mode {scaling!r}")
    if column_names is None:
        column_names = tuple(f"x{i + 1}" for i in range(p))
    column_names = tuple(column_names)
    _check_shape(raw, column_names)

    centered = raw - raw.mean(axis=0)
    if scaling == "unit-variance":
        sd = centered.std(axis=0, ddof=1)
        zero = np.nonzero(sd <= EPS * max(1.0, float(np.abs(raw).max())))[0]
        if zero.size:
            raise ZeroVarianceColumn(int(zero[0]))
        centered /= sd
    # nothing else holds centered, so the DataMatrix keeps it without a copy
    return DataMatrix(values=_read_only(centered), column_names=column_names)


class _Factor:
    """The one record every pipeline step, fit and report reads: the
    read-only triangular factor ``f`` of X = QF (p x p, or n x p when
    n < p), X's row count ``n``, the ``column_names`` (None for an array)
    and ``yf``, None or, for a centered response y, the last column
    [c; rho] of R([X y]) = [F c; 0 rho]. It keeps, on first use, the thin
    SVD of F (``usv``) and the step 1 of the latest rotation setting
    (``step``, from ``pca._first_step``). Its array is F, so every
    function taking an array takes it.
    """

    def __init__(self, f, n, column_names=None, yf=None):
        self.f, self.n, self.column_names, self.yf = _read_only((f, n, column_names, yf))
        self.step = None  # (the rotation setting, its step 1), set by pca._first_step

    def __array__(self, dtype=None, copy=None):
        return np.array(self.f, dtype=dtype, copy=copy)

    @cached_property
    def usv(self):
        """The thin SVD (U, s, V') of F, the one LAPACK SVD of F, read-only:
        its rank cut is the spectrum, and every backward selection on all
        of F's columns seeds its fit from it."""
        return _read_only(np.linalg.svd(self.f, full_matrices=False))

    def spectrum(self):
        """The (lambda, V) of ``svd(X)``: the rank cut of the SVD of F, with
        X's n."""
        return _rank_cut(self.usv, self.n)


def _factor_of(x, column_names=None, y=None):
    """The record (``_Factor``) of x: x itself when it is one, a
    DataMatrix's kept record, or a new one of an array (with the given
    names) or of a DataMatrix with a response y.

    F is taken from one ``np.linalg.qr(X, mode="raw")``, bit for bit what
    ``mode="r"`` gives, and [c; rho] by applying its Householder
    reflectors to y - mean(y), so a response never changes F. X that is
    not 2-d is a ``ConfigError``; a non-finite cell, which leaves F
    non-finite, is ``NonFiniteInput`` of the first such cell in row order,
    searched for only then.
    """
    if isinstance(x, _Factor):
        return x
    if isinstance(x, DataMatrix) and y is None:
        return x._factor
    values = np.asarray(x, float)
    _check_shape(values)
    h, tau = np.linalg.qr(values, mode="raw")
    k = tau.size
    yf = None
    if y is not None:
        z = np.asarray(y, float) - np.mean(y)
        # Q'z: reflector i is I - tau_i v v' on rows i:, with v = [1; h[i, i+1:]]
        for i in range(k):
            v = np.r_[1.0, h[i, i + 1:]]
            z[i:] -= tau[i] * (v @ z[i:]) * v
        yf = np.append(z[:k], np.linalg.norm(z[k:]))
    f = np.triu(h.T[:k])
    if not np.isfinite(f).all():
        _check_finite(values)
    # a DataMatrix with a response names its own columns
    column_names = getattr(x, "column_names", column_names)
    return _Factor(f, h.shape[1], column_names, yf)


def svd(x, n=None):
    """Singular values and right singular vectors of a matrix, rank-truncated.

    Returns (lambda, V) with non-increasing singular values, keeping only
    the r = numerical-rank pairs: those above max(n, p) * eps * lambda_1,
    with n the row count of the data x stands for, x's own by default. The
    pipeline reads the same cut off the triangular factor F of X = QF
    (Chan's R-SVD) and X's n (``_Factor.spectrum``): F has X's singular
    values and right vectors, and X's rank.
    """
    values = np.asarray(x, float)
    return _rank_cut(np.linalg.svd(values, full_matrices=False),
                     values.shape[0] if n is None else n)


def _rank_cut(usv, n):
    """``svd``'s (lambda, V) from the thin SVD usv = (U, s, V') of a matrix
    standing for n rows of data."""
    _, s, vt = usv
    if s.size == 0 or s[0] == 0.0:
        return s[:0], vt[:0].T
    r = int(np.sum(s > max(n, vt.shape[1]) * EPS * s[0]))
    return s[:r], vt[:r].T


# The least-squares cut: a fit on k columns keeps the singular values above
# _LS_CUT * k * sigma_1. LAPACK rounds an exact zero singular value up to
# about 2.6 eps sigma_1 (duplicate columns at n = 3000), above a cut of
# k * eps * sigma_1, so the cut keeps a 16-fold margin over that one.
_LS_CUT = 16 * EPS


def _ls_svd(a, usv=None):
    """Thin SVD of a at the least-squares cut, the one kernel of every fit.

    Returns (U_r, s_r, V_r, N): the r triplets above _LS_CUT * k * sigma_1
    (k columns; r = 0 for a zero or empty a) and the k x (k - r)
    null-space block N of V. usv, the SVD this takes of a, when given is
    read instead.
    """
    n, k = a.shape
    # with n < k, V needs its full k x k block to hold the null space
    u, s, vt = np.linalg.svd(a, full_matrices=n < k) if usv is None else usv
    r = int(np.sum(s > _LS_CUT * k * s[0])) if s.size else 0
    return u[:, :r], s[:r], vt[:r].T, vt[r:].T


def _pinv_diag(s, v, null):
    """h_j = ((A'A)^+)_jj from the kept pairs (s_r, V_r) and the null-space
    block N of ``_ls_svd``. Column j is a combination of the others when its
    row of N is nonzero, above eps in squared norm (an independent column's
    row is rounding of order (eps * sigma_1 / sigma_r)^2); it costs nothing
    to drop, and h_j = inf."""
    own = np.sum(null**2, axis=1) <= EPS
    h = np.full(v.shape[0], np.inf)
    h[own] = np.sum((v[own] / s) ** 2, axis=1)
    return h


def solve_ls(a, b):
    """Minimum-norm least-squares solution of a @ coef ~ b.

    Rank deficiency is handled by the SVD pseudo-inverse, V_r diag(1/s_r)
    U_r'b, with singular values at the least-squares cut (``_ls_svd``)
    treated as zero. ``b`` is a vector or a matrix of right-hand sides.
    """
    a = np.asarray(a, float)
    if a.ndim == 1:
        a = a[:, None]
    u, s, v, _ = _ls_svd(a)
    return (v / s) @ (u.T @ np.asarray(b, float))


def r_squared(a, b):
    """Coefficient of determination of regressing b on the columns of a.

    Both sides are assumed centered, so no intercept is fitted; R^2 is
    1 - rr / |b|^2 with rr = |b - U_r U_r'b|^2 as the one scorer,
    ``_ls_scores``, forms it. b is a finite vector with one entry per row
    of a (``_check_target``).
    """
    a = np.asarray(a, float)
    b = _check_target(b, a.shape[0])
    yy = float(b @ b)
    if yy == 0.0:
        return 0.0
    return max(0.0, 1.0 - _ls_scores(a, b)[2][5] / yy)


def _drop_r2(rr, beta, h, yy):
    """R^2 of the fit on the support A less each of its columns i,
    1 - (rr + beta_i^2 / h_i) / yy, with rr = |b - P_A b|^2, beta the
    coefficients of b on A, h_i = ((A'A)^+)_ii (inf for a column in the
    span of the others, which costs nothing to drop) and yy = |b|^2."""
    return np.maximum(0.0, 1.0 - (rr + beta**2 / h) / yy)


def r2_add_drop(a, b, c=None):
    """R^2 of b on the columns of a with one column added or one dropped.

    One SVD of a scores every neighbour of the support at once
    (``_ls_scores``). Returns (add, drop): ``add[i]`` is the R^2 on a plus
    column i of c (None without c) and ``drop[j]`` the R^2 on a without its
    column j, both as ``r_squared`` defines it, minimum-norm handling of
    collinear columns included.
    """
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    c = None if c is None else np.asarray(c, float)
    if float(b @ b) == 0.0:  # as in r_squared: a zero target has R^2 0 everywhere
        return None if c is None else np.zeros(c.shape[1]), np.zeros(a.shape[1])
    return _ls_scores(a, b, c)[:2]


def _ls_scores(a, b, c=None, usv=None):
    """The one scorer of a fresh least-squares fit of a nonzero b on the
    columns of a, from one ``_ls_svd`` (of usv, when given), with the
    algebra of the ``selection`` module docstring.

    Returns (add, drop, state): ``add[i]`` the R^2 with column i of c
    added (None without c), ``drop[j]`` the R^2 without column j of a, and
    state (U_r, s_r, V_r, h, resid, rr, beta, U_r'c, z, |z|^2) with
    h_j = ((A'A)^+)_jj, resid = b - U_r U_r'b, rr = |resid|^2, beta the
    minimum-norm coefficients and z = c - U_r U_r'c the residuals of c (the
    last three None without c).
    """
    u, s, v, null = _ls_svd(a, usv)
    uy = u.T @ b
    resid = b - u @ uy
    rr = float(resid @ resid)
    beta = v @ (uy / s)
    h = _pinv_diag(s, v, null)
    yy = float(b @ b)
    drop = _drop_r2(rr, beta, h, yy)
    add = uc = z = zz = None
    if c is not None:
        uc = u.T @ c
        z = c - u @ uc
        zz = np.sum(z * z, axis=0)
        # A column already in span(a) comes out of the projection as
        # rounding of up to about 10 eps |c_i|: the cut for the k + 1
        # columns of the augmented matrix keeps such columns at gain 0.
        scale = np.maximum(s[0] if s.size else 0.0, np.linalg.norm(c, axis=0))
        new = np.sqrt(zz) > _LS_CUT * (a.shape[1] + 1) * scale
        gain = np.zeros(c.shape[1])
        gain[new] = (resid @ z[:, new]) ** 2 / zz[new]
        add = np.maximum(0.0, 1.0 - (rr - gain) / yy)
    return add, drop, (u, s, v, h, resid, rr, beta, uc, z, zz)


def vif(x, subset=None):
    """Squared multiple correlation of each variable with the others.

    For each column i of the subset, the R^2 of regressing it on the
    remaining subset columns, 1 - 1/(S_ii (S^+)_ii) with S = X'X, from one
    SVD of the subset. A singleton subset or a zero column gives 0, a
    column in the span of the others 1.
    """
    values = np.asarray(x, float)
    idx = list(range(values.shape[1])) if subset is None else list(subset)
    out = np.zeros(len(idx))
    if len(idx) == 1:
        return out
    a = values[:, idx]
    s_ii = np.sum(a**2, axis=0)
    h = _pinv_diag(*_ls_svd(a)[1:])
    nonzero = s_ii > 0.0
    out[nonzero] = np.maximum(0.0, 1.0 - 1.0 / (s_ii[nonzero] * h[nonzero]))
    return out

