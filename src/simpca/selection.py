"""Support identification: which variables get nonzero coefficients.

Two families of strategies. Threshold strategies look only at a coefficient
vector (after rescaling it to a unit L_m norm). Regression strategies pick
columns of the data by how well they reproduce a target score vector,
measured by the coefficient of determination R^2 (no intercept; everything
is centered).

Every regression strategy scores its candidates by the algebra of one
least-squares fit of y on the chosen columns X_A (Miller, *Subset
Selection in Regression*, ch. 3), with r the residual of y, z_i the
residual of x_i against span(X_A), beta the coefficients and
h_i = ((X_A'X_A)^+)_ii:

- add i: R^2(A + i) = 1 - (|r|^2 - (r'z_i)^2 / |z_i|^2) / |y|^2. A candidate
  whose |z_i| is within the least-squares cut for the k + 1 columns
  [X_A x_i], 16 * (k + 1) * eps * max(sigma_1, |x_i|), is already in
  span(X_A) up to rounding and gains 0, as the minimum-norm fit gives it.
- drop i: R^2(A - i) = 1 - (|r|^2 + beta_i^2 / h_i) / |y|^2. A column in
  the span of the others has h_i = inf: dropping it leaves the span, and
  R^2, unchanged.

One function scores a fresh fit, ``core._ls_scores``: all of these from
one thin SVD of X_A at the cut of ``core._ls_svd``, with the state they
came from. ``core.r2_add_drop`` is its public face, and ``core.r_squared``
takes the R^2 of X_A itself.
Forward and stepwise selection instead carry the fit from step to step
(``_Fit``): an orthonormal basis Q of span(X_A), r, the residuals Z of
every column with their squared norms, Q'y, and the map W with
Q = X_A W (R^-1 of X_A = QR, or V S^-1 when an SVD X_A = U S V' seeds
the fit), which gives beta = W Q'y and h as the row sums of W^2.
Choosing column i is one Gram-Schmidt step: its carried residual z_i is
projected off Q once more, normalized into q, and r, Z and W take q in,
a few O(np) numpy calls where the SVD route takes an SVD and two n x p
projections per step. One reorthogonalization is enough ("twice is
enough", Giraud, Langou and Rozloznik, 2005): z_i has already been
projected off every basis vector once, and a column is carried only
while |z_i| >= |x_i| / _COND_MAX, so that pass loses at most a factor
_COND_MAX of orthogonality and the second brings q back to eps.

A carried step is certified, or retaken from a fresh fit scored by
``core._ls_scores``; a retaken addition also seeds the fit again from that
fit's state. The carried scores stand when:

- X_A has full rank and kappa_F = |X_A|_F |W|_F, an upper bound on
  sigma_1 / sigma_k, is at most _COND_MAX;
- every free column is clearly new (|z_i| above 4 times the cut taken
  with |X_A|_F for sigma_1, and above |x_i| / _COND_MAX) or clearly in
  span(X_A) (|z_i| below a quarter of the cut taken with |x_i| alone);
- the best score clears the runner-up, alpha and the stop the strategy
  compares it with (forward's r2 + _GAIN_EPS, stepwise's entry or exit)
  by more than _MARGIN.

When a retaken step's pick is within _MARGIN of a stop taken from the
R^2 of the previous step, and the carried fit scored that, it is scored
afresh too, so both sides of the comparison, and the trace, have the bits
the per-step loop gives them. A stepwise removal leaves the next steps to
a fresh SVD of the new support.

Backward selection takes one SVD of the support, as ``r2_add_drop`` does,
and then carries the least-squares state from step to step: rr = |r|^2,
beta and H = (X_A'X_A)^-1 = V diag(s^-2) V'. Its first step scores the
drops from the SVD, bit for bit as ``r2_add_drop`` does, and takes the
starting R^2 from it as ``r_squared`` would; dropping column j then
downdates the state in O(k^2), rr += beta_j^2 / H_jj,
beta <- beta_-j - H_-j,j beta_j / H_jj and
H <- H_-j,-j - H_-j,j H_j,-j / H_jj, in place on the full-size arrays
with a mask of the active columns, and the next step scores the drops
from it with the same formula. The state is seeded from the one
``core._ls_scores`` returns with those drops, and only from a support of
full rank (so no column is in the span of the others) with
sigma_1 / sigma_k at most _COND_MAX; the singular values of X_A less a
column interlace those of X_A, so the condition number never grows and
that one check covers every later step. A step whose best drop lies within
_MARGIN of the runner-up or of alpha is too close for the downdated scores
to call: it is retaken from a fresh SVD of the support, exactly as
``r2_add_drop`` scores it, which also seeds the state again. A support that
cannot be certified takes a fresh SVD at every step. Given the record of
a factor (``core._Factor``), as the pipeline gives it, a fit on all of its
columns reads the SVD the record keeps instead of taking it again.

Candidates are then scanned in order, as the per-candidate fits were: a
later one wins only by more than _GAIN_EPS, so ties go to the lowest index
(additions) or the first in the chosen order (removals). A certified
carried step clears its runner-up by more than _MARGIN, so the scan would
pick its argmax too.

Iterative-reverse selection adds columns by descending |coefficient| and
takes the R^2 of each support with ``r_squared``; its order is fixed in
advance, so it has no candidates to score. Coefficients equal in exact
arithmetic, as those of a duplicated column are, come out of an SVD or a
rotation with different last bits, so values within
_LS_CUT * p * max|coefficient| of their neighbour in that order are tied,
and tied columns enter in index order.
"""

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .core import _LS_CUT, _count, _drop_r2, _ls_scores, r2_add_drop, r_squared
from .errors import ConfigError, EmptySupport, ExhaustedSchedule

_GAIN_EPS = 1e-15
# Backward selection's downdated state is that of the normal equations, so
# its entries carry relative errors of about eps * kappa^2, with kappa =
# sigma_1 / sigma_k of the seeded support, and each downdate adds about as
# much again. After m downdates a drop R^2 (at most 1) is then within about
# m * eps * kappa^2 of the score a fresh SVD gives, which is itself that
# close to the exact one. Both pick the same column, and the same side of
# alpha, when the best drop clears the runner-up and alpha by more than
# twice that: with kappa <= 100, 2 * m * eps * 1e4 <= 1e-9 up to m = 225
# downdates. On seeded factor data with kappa up to 1e3 (p <= 60) the
# scores stayed within 0.03 m eps kappa^2 of the SVD's, a 30-fold reserve.
# The carried fit of forward and stepwise selection is backward stable, so
# a score is within about (k + 1) * eps * kappa * |x_i| / |z_i| of the
# SVD's: with both factors at most 100 that is below 1.5e-10 up to k = 60
# columns. On seeded factor data (p <= 60) and near-duplicate columns the
# carried scores stayed within 4 eps of the SVD's, and drop scores within
# 32 eps.
_COND_MAX = 100.0
_MARGIN = 1e-9


@dataclass(frozen=True)
class SupportSet:
    """Selected column indices plus the R^2 bookkeeping of how we got there.

    ``trace`` holds (op, index, r2) triples where op is '+' or '-'; r2 is
    None for pure threshold selections, where no target is involved.
    ``threshold_used`` records the effective threshold of adaptive runs.
    """

    indices: tuple
    r2: float = None
    trace: tuple = ()
    threshold_used: float = None

    @property
    def cardinality(self):
        return len(self.indices)


KINDS = ("fixed-threshold", "adaptive-threshold", "iterative-reverse-threshold", "forward",
         "backward", "stepwise")


@dataclass(frozen=True)
class SelectionStrategy:
    """Configuration record dispatched by ``select_support``.

    kind: one of KINDS ('fixed-threshold', 'adaptive-threshold',
    'iterative-reverse-threshold', 'forward', 'backward', 'stepwise').
    Each field the kind reads is checked when the record is built, with
    the check of the function that reads it (``ConfigError``); the others
    are ignored.
    """

    kind: str
    alpha: float = 0.95
    threshold: float = 0.3
    t0: float = 0.25
    step: float = 0.05
    norm_m: float = 2
    entry: float = 1e-6
    exit: float = 1e-6
    max_cardinality: int = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown selection strategy {self.kind!r}")
        if self.kind == "fixed-threshold":
            _check_threshold(self.threshold)
        elif self.kind == "adaptive-threshold":
            _check_schedule(self.t0, self.step)
        else:
            _check_alpha(self.alpha)
        if self.kind in ("fixed-threshold", "adaptive-threshold"):
            _check_norm(self.norm_m)
        if self.kind == "stepwise":
            _check_entry_exit(self.entry, self.exit)
        if self.kind in ("forward", "stepwise") and self.max_cardinality is not None:
            _count(self.max_cardinality, "max_cardinality")


def rescale_to_unit_norm(coefficients, norm_m=2):
    """Rescale a coefficient vector to unit L_m norm (m one of NORMS)."""
    a = np.asarray(coefficients, float)
    _check_norm(norm_m)
    if norm_m == np.inf:
        norm = np.max(np.abs(a))
    else:
        norm = np.sum(np.abs(a) ** norm_m) ** (1.0 / norm_m)
    if norm == 0.0:
        raise EmptySupport()
    return a / norm


def threshold_support(coefficients, t, norm_m=2):
    """Indices whose |coefficient| >= t after unit L_m rescaling.

    Every |a_i| is at most 1 after that rescaling, so a t above 1 could
    never keep a variable, and one below 0 would keep every variable under
    a cut that means nothing: either (or NaN) is a configuration error."""
    _check_threshold(t)
    a = rescale_to_unit_norm(coefficients, norm_m)
    indices = tuple(int(i) for i in np.nonzero(np.abs(a) >= t)[0])
    if not indices:
        raise EmptySupport(t)
    return SupportSet(
        indices=indices,
        trace=tuple(("+", i, None) for i in indices),
        threshold_used=t,
    )


def adaptive_threshold_support(coefficients, t0, step, norm_m=2):
    """Lower the threshold t0, t0 - step, t0 - 2 step, ... until the support
    is non-empty.

    The first threshold that keeps a variable is the first at or below the
    largest rescaled |coefficient| (and at or below 1), so it is found
    directly: t0 - k step with k the ceiling of (t0 - top) / step, or one
    less when rounding in that quotient overshot. The cost does not grow
    with t0 / step. With steps finer than rounding, k is good only to within
    rounding, so the threshold is capped at top. A schedule with no
    threshold in (0, top] is ``ExhaustedSchedule``."""
    t0, step = _check_schedule(t0, step)
    a = rescale_to_unit_norm(coefficients, norm_m)
    top = min(1.0, float(np.max(np.abs(a))))
    k = max(0.0, float(np.ceil((t0 - top) / step)))
    if k and t0 - (k - 1) * step <= top:
        k -= 1
    t = min(t0 - k * step, top)
    if t <= 0:
        raise ExhaustedSchedule(t0, step)
    return threshold_support(coefficients, t, norm_m)


def _tie_order(coefficients):
    """Column indices by descending |coefficient|. Values within _LS_CUT * p
    * max|coefficient| of their neighbour in that order are tied (they may
    be equal in exact arithmetic, as a duplicate column's are), and a run
    of ties goes in column order."""
    a = np.abs(np.asarray(coefficients, float))
    order = np.argsort(-a, kind="stable")
    gaps = -np.diff(a[order]) > _LS_CUT * a.size * a.max()
    return order[np.lexsort((order, np.cumsum(np.r_[False, gaps])))]


def iterative_reverse_threshold(x, target, coefficients, alpha):
    """Add variables in descending |coefficient| order, tied values in
    index order, until R^2 >= alpha."""
    _check_alpha(alpha)
    values = np.asarray(x, float)
    chosen = []
    trace = []
    r2 = 0.0
    for i in _tie_order(coefficients).tolist():
        chosen.append(i)
        r2 = r_squared(values[:, chosen], target)
        trace.append(("+", i, r2))
        if r2 >= alpha:
            break
    return SupportSet(indices=tuple(chosen), r2=r2, trace=tuple(trace))


def _first_best(items, r2s):
    """Item with the largest R^2, scanned in order: a later item wins only
    by more than _GAIN_EPS, so ties go to the first."""
    best_i, best_r2 = None, -1.0
    for i, r2 in zip(items, r2s):
        if r2 > best_r2 + _GAIN_EPS:
            best_i, best_r2 = i, float(r2)
    return best_i, best_r2


# Each check rejects a value that is not a number (None, a string) as a
# ConfigError too, not as the TypeError of its comparison.
def _check_alpha(alpha):
    if not (isinstance(alpha, numbers.Real) and 0 < alpha <= 1):
        raise ConfigError("alpha must be in (0, 1]")


# the L_m norms a threshold rescales its coefficients to
NORMS = (1, 2, np.inf)


def _check_norm(norm_m):
    if norm_m not in NORMS:
        raise ConfigError(f"unsupported norm {norm_m!r}")


def _check_threshold(t):
    if not (isinstance(t, numbers.Real) and 0 <= t <= 1):
        raise ConfigError("threshold must be in [0, 1]")


def _check_schedule(t0, step):
    """(t0, step) as floats; ``ConfigError`` unless both are positive and
    finite."""
    if not all(isinstance(v, numbers.Real) and 0 < v < math.inf for v in (t0, step)):
        raise ConfigError("t0 and step must be positive and finite")
    return float(t0), float(step)


def _check_entry_exit(entry, exit):
    if not (isinstance(entry, numbers.Real) and isinstance(exit, numbers.Real)
            and entry >= exit):
        raise ConfigError("entry must be >= exit")


def _cap(max_cardinality, p):
    """The support size at which forward and stepwise selection stop."""
    return p if max_cardinality is None else min(_count(max_cardinality, "max_cardinality"), p)


class _Fit:
    """Least-squares fit of y on the chosen columns X_A of x, carried from
    step to step by Gram-Schmidt updates (see the module docstring).

    Carried: an orthonormal basis Q of span(X_A) (rows of ``basis``), the
    map W with Q = X_A W, Q'y, the residual r of y, and the residuals
    Z = X - Q C of every column with C = Q'X (the chosen columns' entries
    are stale). ``ok`` is False while the fit cannot be certified; every
    step then takes a fresh SVD, and an addition's seeds the fit again.
    ``trace`` holds the steps taken and ``r2`` the selection's R^2, the
    score of the last of them.
    """

    def __init__(self, values, y):
        self.values = values
        self.y = np.asarray(y, float)
        self.yy = float(self.y @ self.y)
        n, p = values.shape
        m = min(n, p)
        self.chosen = []
        self.free = np.ones(p, bool)
        self.xnorm = np.sqrt(np.sum(values * values, axis=0))
        self.fro2 = 0.0
        self.basis = np.empty((m, n))
        self.w = np.zeros((m, m))
        self.qy = np.empty(m)
        self.cx = np.empty((m, p))
        self.z = values.copy()
        self.zz = self.xnorm**2
        self.r = self.y.copy()
        self.rr = self.yy
        # a zero target has R^2 0 on every support, with nothing to carry
        self.ok = self.yy > 0.0
        self.trace = []
        self.r2 = 0.0
        # the support of the last carried score, and the step that took r2
        # from the carried fit, so that a retaken step can score r2 afresh
        self._scored = self._prev = None

    def best_addition(self, alpha, offset):
        """(i, R^2 of X_A + x_i) of the best free column, ties to the lowest
        index, as ``r2_add_drop`` would pick it. The caller compares that
        R^2 with alpha and, once a column is chosen, with r2 + offset."""
        stops = (alpha, self.r2 + offset) if self.chosen else (alpha,)
        best = self._carried_addition(stops) if self.ok else None
        self._scored = None if best is None else tuple(self.chosen)
        if best is not None:
            return best
        cand = np.flatnonzero(self.free)
        add = self._seed(cand) if self.yy > 0.0 else np.zeros(cand.size)
        return self._refreshed(_first_best(cand.tolist(), add), stops[1:])

    def _carried_addition(self, stops):
        """The certified (i, R^2) of the carried scores, or None."""
        k = len(self.chosen)
        norm = np.sqrt(self.zz)
        new = self.free & (norm > self._new_cut(k))
        # a free column that is neither new nor clearly in span(X_A)
        if np.any(self.free & ~new & (norm > _LS_CUT * (k + 1) / 4 * self.xnorm)):
            return None
        rz = self.r @ self.z
        gain = np.divide(rz * rz, self.zz, out=np.zeros(self.zz.size), where=new)
        add = np.maximum(0.0, 1.0 - (self.rr - gain) / self.yy)
        add[~self.free] = -1.0
        return _certified(add, stops)

    def best_removal(self, count, alpha, offset):
        """(j, R^2 of X_A less its j-th column) of the best of the first
        ``count`` chosen columns, ties to the first, as ``r2_add_drop``
        would pick it. The caller compares that R^2 with alpha and with
        r2 + offset."""
        best = None
        if self.ok:
            k = len(self.chosen)
            w = self.w[:k, :k]
            drop = _drop_r2(self.rr, w @ self.qy[:k], np.sum(w * w, axis=1), self.yy)
            best = _certified(drop[:count], (alpha, self.r2 + offset))
        self._scored = None if best is None else tuple(self.chosen)
        if best is not None:
            return best
        drop = r2_add_drop(self.values[:, self.chosen], self.y)[1]
        return self._refreshed(_first_best(range(count), drop), (self.r2 + offset,))

    def add(self, i, r2):
        """Choose column i, which a step scored at r2."""
        self.r2 = r2
        self.trace.append(("+", i, r2))
        self._prev = None if self._scored is None else ("+", self._scored, i)
        self._choose(i)

    def remove(self, j, r2):
        """Drop the j-th chosen column, which a step scored at r2; the next
        step takes a fresh SVD."""
        self.r2 = r2
        self.trace.append(("-", self.chosen[j], r2))
        self._prev = None if self._scored is None else ("-", self._scored, j)
        self.free[self.chosen.pop(j)] = True
        self.fro2 = float(np.sum(self.xnorm[self.chosen] ** 2))
        self.ok = False

    def _new_cut(self, k):
        """Residual norms above which a column is new to span(X_A) at k
        chosen columns, with room to spare: above 4 times the cut for the
        k + 1 columns [X_A x_i] (sigma_1 of X_A is at most its Frobenius
        norm), and above |x_i| / _COND_MAX."""
        return np.maximum(4 * _LS_CUT * (k + 1) * np.sqrt(self.fro2), self.xnorm / _COND_MAX)

    def _choose(self, i):
        """Move column i into X_A, extending the carried fit by one
        Gram-Schmidt step with one reorthogonalization."""
        k = len(self.chosen)
        cut = self._new_cut(k)[i]
        self.chosen.append(i)
        self.free[i] = False
        self.fro2 += self.xnorm[i] ** 2
        if not self.ok:
            return
        q = self.basis[:k]
        d = q @ self.z[:, i]
        zi = self.z[:, i] - d @ q
        rho = np.sqrt(zi @ zi)
        if not rho > cut:
            self.ok = False
            return
        qn = zi / rho
        self.w[k, :k] = 0.0
        self.w[:k, k] = -(self.w[:k, :k] @ (self.cx[:k, i] + d)) / rho
        self.w[k, k] = 1.0 / rho
        g = qn @ self.z
        self.z -= qn[:, None] * g
        self.zz = np.einsum("ij,ij->j", self.z, self.z)
        t = qn @ self.r
        self.r -= t * qn
        self.rr = float(self.r @ self.r)
        self.basis[k], self.cx[k], self.qy[k] = qn, g, t
        self.ok = self._conditioned()

    def _conditioned(self):
        """Whether kappa_F(X_A) = |X_A|_F |W|_F, an upper bound on
        sigma_1 / sigma_k, is at most _COND_MAX."""
        k = len(self.chosen)
        w = self.w[:k, :k]
        return self.fro2 * np.sum(w * w) <= _COND_MAX**2

    def _refreshed(self, best, stops):
        """A retaken step's pick, after scoring r2 afresh when the carried
        fit scored it and the pick is within _MARGIN of a stop taken from
        r2: the comparison then needs the bits ``r2_add_drop`` gave r2. The
        fresh score replaces the carried one in the trace as well."""
        if self._prev is not None and any(abs(best[1] - t) <= _MARGIN for t in stops):
            op, support, i = self._prev
            cand = [c for c in range(self.free.size) if c not in support]
            add, drop, _ = _ls_scores(self.values[:, list(support)], self.y,
                                      self.values[:, cand] if op == "+" else None)
            self.r2 = float(drop[i] if op == "-" else add[cand.index(i)])
            self.trace[-1] = self.trace[-1][:2] + (self.r2,)
            self._prev = None
        return best

    def _seed(self, cand):
        """The add scores of a fresh SVD of X_A for the free columns
        ``cand``, and the fit seeded from that SVD when X_A has full rank
        and is well conditioned."""
        add, _, (u, s, v, _, resid, rr, _, uc, z, zz) = _ls_scores(
            self.values[:, self.chosen], self.y, self.values[:, cand])
        self.r, self.rr = resid, rr
        k = len(self.chosen)
        self.ok = s.size == k
        if self.ok:
            self.basis[:k] = u.T
            self.w[:k, :k] = v / s
            self.qy[:k] = u.T @ self.y
            self.cx[:k, cand] = uc
            self.z[:, cand] = z
            self.zz[cand] = zz
            self.ok = self._conditioned()
        return add


def _certified(scores, stops):
    """(argmax, best) of scores when the best clears every other score and
    every stop by more than _MARGIN, else None."""
    j = int(scores.argmax())
    best = float(scores[j])
    if np.count_nonzero(scores >= best - _MARGIN) > 1 or any(
        abs(best - t) <= _MARGIN for t in stops
    ):
        return None
    return j, best


def forward_select(x, target, alpha, max_cardinality=None):
    """Greedy forward selection until R^2 >= alpha or the cap is reached."""
    _check_alpha(alpha)
    values = np.asarray(x, float)
    cap = _cap(max_cardinality, values.shape[1])
    fit = _Fit(values, target)
    chosen = fit.chosen
    while len(chosen) < cap:
        i, r2 = fit.best_addition(alpha, _GAIN_EPS)
        if r2 <= fit.r2 + _GAIN_EPS and chosen:
            break
        fit.add(i, r2)
        if r2 >= alpha:
            break
    return SupportSet(indices=tuple(chosen), r2=fit.r2, trace=tuple(fit.trace))


def _seed(a, y, usv=None):
    """rr, the drop scores of the support a from one SVD (usv, when given),
    bit for bit those of ``r2_add_drop``, and the state (rr, beta, H,
    active) of y on a to downdate, or None when a is rank deficient or too
    ill-conditioned to downdate."""
    _, drop, (_, s, v, h, _, rr, beta, *_) = _ls_scores(a, y, usv=usv)
    if s.size < a.shape[1] or s[0] > _COND_MAX * s[-1]:
        return rr, drop, None
    w = v / s
    gram_inv = w @ w.T
    # the diagonal the first step scored with, so the downdate divides by it
    np.fill_diagonal(gram_inv, h)
    return rr, drop, (rr, beta, gram_inv, np.ones(beta.size, bool))


def _downdate(rr, beta, gram_inv, active, j):
    """The state (rr, beta, H, active) of the support less its column j (an
    index into the full-size state). beta and H keep their full size and
    are updated in place, each active entry by the expression it would get
    in the smaller state."""
    hj, bj, hjj = gram_inv[:, j].copy(), beta[j], gram_inv[j, j]
    active[j] = False
    beta -= hj * (bj / hjj)
    gram_inv -= hj[:, None] * (hj / hjj)
    return rr + bj**2 / hjj, beta, gram_inv, active


def backward_select(x, target, alpha):
    """Drop variables while the best remaining fit keeps R^2 >= alpha.

    Starts from every column when p <= n. With more columns than
    observations the full fit is underdetermined, so it starts from the
    forward solution at alpha. To start from the columns cols instead, run
    ``backward_select(np.asarray(x)[:, cols], target, alpha)``, whose
    indices are positions in cols.
    """
    _check_alpha(alpha)
    values = np.asarray(x, float)
    n, p = values.shape
    chosen = list(range(p)) if p <= n else list(forward_select(values, target, alpha).indices)
    # the SVD a record of a factor keeps (``core._Factor.usv``), the one of
    # the full support when that is where it starts
    usv = getattr(x, "usv", None) if p <= n else None
    trace = [("+", i, None) for i in chosen]
    y = np.asarray(target, float)
    yy = float(y @ y)
    r2 = state = None
    # a zero target has R^2 0 on every support, below any alpha
    while len(chosen) > 1 and yy > 0.0:
        best = None
        if state is not None:
            rr, beta, gram_inv, active = state
            keep = active.nonzero()[0]
            drop = _drop_r2(rr, beta[keep], gram_inv.diagonal()[keep], yy)
            best = _certified(drop, (alpha,))
        if best is None:  # the first step, or too close to call: a fresh SVD
            rr, drop, state = _seed(values[:, chosen], y, usv if len(chosen) == p else None)
            keep = range(len(chosen))
            if r2 is None:  # as r_squared gives it from the same SVD
                r2 = max(0.0, 1.0 - rr / yy)
            best = _first_best(range(len(chosen)), drop)
        j, best_r2 = best
        if best_r2 < alpha:
            break
        r2 = best_r2
        trace.append(("-", chosen.pop(j), r2))
        if state is not None:
            state = _downdate(*state, keep[j])
    if r2 is None:
        r2 = r_squared(values[:, chosen], target)
    return SupportSet(indices=tuple(chosen), r2=r2, trace=tuple(trace))


def stepwise_select(x, target, alpha, entry=1e-6, exit=1e-6, max_cardinality=None):
    """Forward steps interleaved with removal of near-redundant variables.

    After each addition, any variable whose deletion costs less than
    ``exit`` in R^2 is dropped (cheapest first). entry >= exit guards
    against add/remove cycling; previously visited supports end the search.
    """
    _check_alpha(alpha)
    _check_entry_exit(entry, exit)
    values = np.asarray(x, float)
    cap = _cap(max_cardinality, values.shape[1])
    fit = _Fit(values, target)
    chosen = fit.chosen
    seen = {frozenset()}
    while len(chosen) < cap:
        i, r2 = fit.best_addition(alpha, entry)
        if chosen and r2 - fit.r2 <= entry:
            break
        fit.add(i, r2)
        # prune: removals that cost less than `exit` in R^2
        while len(chosen) > 1:
            # never undo the variable just added
            j, r2 = fit.best_removal(len(chosen) - 1, alpha, -exit)
            if fit.r2 - r2 >= exit:
                break
            fit.remove(j, r2)
        state = frozenset(chosen)
        if state in seen:
            break
        seen.add(state)
        if fit.r2 >= alpha:
            break
    return SupportSet(indices=tuple(chosen), r2=fit.r2, trace=tuple(fit.trace))


def select_support(x, target, coefficients, strategy):
    """Dispatch a SelectionStrategy against data, target and coefficients."""
    values = np.asarray(x, float)
    if strategy.kind == "fixed-threshold":
        support = threshold_support(coefficients, strategy.threshold, strategy.norm_m)
    elif strategy.kind == "adaptive-threshold":
        support = adaptive_threshold_support(
            coefficients, strategy.t0, strategy.step, strategy.norm_m
        )
    elif strategy.kind == "iterative-reverse-threshold":
        support = iterative_reverse_threshold(x, target, coefficients, strategy.alpha)
    elif strategy.kind == "forward":
        support = forward_select(x, target, strategy.alpha, strategy.max_cardinality)
    elif strategy.kind == "backward":
        support = backward_select(x, target, strategy.alpha)
    elif strategy.kind == "stepwise":
        support = stepwise_select(
            x, target, strategy.alpha, strategy.entry, strategy.exit,
            strategy.max_cardinality,
        )
    if support.r2 is None and target is not None:
        support = replace(support, r2=r_squared(values[:, list(support.indices)], target))
    return support
