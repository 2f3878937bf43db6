"""Support identification: which variables get nonzero coefficients.

Two families of strategies. Threshold strategies look only at a coefficient
vector (after rescaling it to a unit L_m norm). Regression strategies pick
columns of the data by how well they reproduce a target score vector,
measured by the coefficient of determination R^2 (no intercept; everything
is centered).

Forward and stepwise selection score every candidate of a step from one
thin SVD of the chosen columns X_A (``core.r2_add_drop``) at the
least-squares cut 16 * k * eps * sigma_1 of ``core._ls_svd``, with U_r,
s_r, V_r the kept triplets (Miller, *Subset Selection in Regression*, ch. 3):

- add i: with r = y - U_r U_r'y and z_i = x_i - U_r U_r'x_i,
  R^2(A + i) = 1 - (|r|^2 - (r'z_i)^2 / |z_i|^2) / |y|^2. A candidate whose
  |z_i| is within the cut for the k + 1 columns [X_A x_i] is already in
  span(X_A) up to rounding and gains 0, as the minimum-norm fit gives it.
- drop i: with beta = V_r (U_r'y / s_r) and (S^+)_ii = sum_k V_ik^2 / s_k^2,
  R^2(A - i) = 1 - (|r|^2 + beta_i^2 / (S^+)_ii) / |y|^2. A column with a
  nonzero row in the null-space block of V is a combination of the others;
  dropping it leaves the span, and R^2, unchanged.

Backward selection takes that SVD once and then carries the least-squares
state from step to step: rr = |r|^2, beta and H = (X_A'X_A)^-1 =
V diag(s^-2) V'. Its first step scores the drops from the SVD, bit for bit
as ``r2_add_drop`` does; dropping column j then downdates the state in
O(k^2), rr += beta_j^2 / H_jj, beta <- beta_-j - H_-j,j beta_j / H_jj and
H <- H_-j,-j - H_-j,j H_j,-j / H_jj, and the next step scores the drops
from it with the same formula. The state is seeded only from a support of
full rank (so no column is in the span of the others) with
sigma_1 / sigma_k at most _COND_MAX; the singular values of X_A less a
column interlace those of X_A, so the condition number never grows and
that one check covers every later step. A step whose best drop lies within
_MARGIN of the runner-up or of alpha is too close for the downdated scores
to call: it is retaken from a fresh SVD of the support, exactly as
``r2_add_drop`` scores it, which also seeds the state again. A support that
cannot be certified takes a fresh SVD at every step.

Candidates are then scanned in order, as the per-candidate fits were: a
later one wins only by more than _GAIN_EPS, so ties go to the lowest index
(additions) or the first in the chosen order (removals).
"""

import operator
from dataclasses import dataclass

import numpy as np

from .core import _drop_r2, _ls_state, r2_add_drop, r_squared
from .errors import (
    EmptySupport,
    ExhaustedSchedule,
    InitialFitUnderdetermined,
)

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


@dataclass(frozen=True)
class SelectionStrategy:
    """Configuration record dispatched by ``select_support``.

    kind: 'fixed-threshold', 'adaptive-threshold',
    'iterative-reverse-threshold', 'forward', 'backward', 'stepwise'.
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


def rescale_to_unit_norm(coefficients, norm_m=2):
    """Rescale a coefficient vector to unit L_m norm (m in {1, 2, inf})."""
    a = np.asarray(coefficients, float)
    if norm_m in (np.inf, "inf"):
        norm = np.max(np.abs(a))
    elif norm_m in (1, 2):
        norm = np.sum(np.abs(a) ** norm_m) ** (1.0 / norm_m)
    else:
        raise ValueError(f"unsupported norm {norm_m!r}")
    if norm == 0.0:
        raise EmptySupport()
    return a / norm


def threshold_support(coefficients, t, norm_m=2):
    """Indices whose |coefficient| >= t after unit L_m rescaling.

    Every |a_i| is at most 1 after that rescaling, so a t above 1 (or NaN)
    could never keep a variable and is a configuration error."""
    if not t <= 1:
        raise ValueError("threshold must be at most 1")
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
    """Lower the threshold t0, t0-step, ... until the support is non-empty."""
    if t0 <= 0 or step <= 0:
        raise ValueError("t0 and step must be positive")
    t = t0
    while t > 0:
        if t <= 1:
            try:
                return threshold_support(coefficients, t, norm_m)
            except EmptySupport:
                pass
        t = t - step
    raise ExhaustedSchedule(t0, step)


def iterative_reverse_threshold(x, target, coefficients, alpha):
    """Add variables in descending |coefficient| order until R^2 >= alpha."""
    if not 0 < alpha <= 1:
        raise ValueError("alpha must be in (0, 1]")
    values = np.asarray(x, float)
    order = np.argsort(-np.abs(np.asarray(coefficients, float)), kind="stable")
    chosen = []
    trace = []
    r2 = 0.0
    for i in order:
        chosen.append(int(i))
        r2 = r_squared(values[:, chosen], target)
        trace.append(("+", int(i), r2))
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


def _best_addition(values, target, chosen):
    """Unchosen column giving the largest R^2 after inclusion; ties -> lowest index."""
    candidates = [i for i in range(values.shape[1]) if i not in chosen]
    add, _ = r2_add_drop(values[:, chosen], target, values[:, candidates])
    return _first_best(candidates, add)


def _best_removal(values, target, chosen, removable):
    """Column of ``removable`` (a prefix of ``chosen``) whose removal keeps
    the largest R^2; ties -> first in ``chosen``."""
    _, drop = r2_add_drop(values[:, chosen], target)
    return _first_best(removable, drop)


def forward_select(x, target, alpha, max_cardinality=None):
    """Greedy forward selection until R^2 >= alpha or the cap is reached."""
    if not 0 < alpha <= 1:
        raise ValueError("alpha must be in (0, 1]")
    values = np.asarray(x, float)
    p = values.shape[1]
    cap = p if max_cardinality is None else min(max_cardinality, p)
    chosen = []
    trace = []
    r2 = 0.0
    while len(chosen) < cap:
        i, new_r2 = _best_addition(values, target, chosen)
        if i is None or new_r2 <= r2 + _GAIN_EPS and chosen:
            break
        chosen.append(i)
        r2 = new_r2
        trace.append(("+", i, r2))
        if r2 >= alpha:
            break
    return SupportSet(indices=tuple(chosen), r2=r2, trace=tuple(trace))


def _seed(a, y, yy):
    """Drop scores of the support a from one SVD, bit for bit those of
    ``r2_add_drop``, and the state (rr, beta, H) of y on a to downdate, or
    None when a is rank deficient or too ill-conditioned to downdate."""
    _, s, v, resid, beta, h = _ls_state(a, y)
    rr = float(resid @ resid)
    drop = _drop_r2(rr, beta, h, yy)
    if s.size < a.shape[1] or s[0] > _COND_MAX * s[-1]:
        return drop, None
    w = v / s
    gram_inv = w @ w.T
    # the diagonal the first step scored with, so the downdate divides by it
    np.fill_diagonal(gram_inv, h)
    return drop, (rr, beta, gram_inv)


def _downdate(rr, beta, gram_inv, j):
    """The state (rr, beta, H) of the support less its j-th column."""
    keep = np.delete(np.arange(beta.size), j)
    hj, bj, hjj = gram_inv[keep, j], beta[j], gram_inv[j, j]
    return (
        rr + bj**2 / hjj,
        beta[keep] - hj * (bj / hjj),
        gram_inv[np.ix_(keep, keep)] - np.outer(hj, hj / hjj),
    )


def backward_select(x, target, alpha, start="auto"):
    """Drop variables while the best remaining fit keeps R^2 >= alpha.

    start: 'full' (all variables; requires p <= n), 'forward' (seed from the
    forward solution at alpha), 'auto' (full when p <= n, else forward), or
    a non-empty sequence of distinct integer column indices in 0 .. p-1.
    """
    if not 0 < alpha <= 1:
        raise ValueError("alpha must be in (0, 1]")
    values = np.asarray(x, float)
    n, p = values.shape
    if isinstance(start, str):
        if start not in ("auto", "full", "forward"):
            raise ValueError(f"unknown start {start!r}: expected 'auto', 'full', "
                             "'forward' or a sequence of column indices")
        if start == "auto":
            start = "full" if p <= n else "forward"
        if start == "full":
            if p > n:
                raise InitialFitUnderdetermined(n, p)
            chosen = list(range(p))
        else:
            chosen = list(forward_select(x, target, alpha).indices)
    else:
        chosen = []
        for i in start:
            try:
                i = operator.index(i)
            except TypeError:
                raise ValueError(f"start index {i} is not an integer") from None
            if not 0 <= i < p:
                raise ValueError(f"start index {i} is not a column of 0 .. {p - 1}")
            if i in chosen:
                raise ValueError(f"start index {i} appears more than once")
            chosen.append(i)
        if not chosen:
            raise ValueError("start holds no column index")
    r2 = r_squared(values[:, chosen], target)
    trace = [("+", i, None) for i in chosen]
    y = np.asarray(target, float)
    yy = float(y @ y)
    state = None
    # a zero target has R^2 0 on every support, below any alpha
    while len(chosen) > 1 and yy > 0.0:
        if state is None:
            drop, state = _seed(values[:, chosen], y, yy)
        else:
            rr, beta, gram_inv = state
            drop = _drop_r2(rr, beta, np.diagonal(gram_inv), yy)
            top = np.sort(drop)[-2:]
            if top[1] - top[0] <= _MARGIN or abs(top[1] - alpha) <= _MARGIN:
                state = None  # too close to call: retake the step from an SVD
                continue
        j, best_r2 = _first_best(range(len(chosen)), drop)
        if best_r2 < alpha:
            break
        r2 = best_r2
        trace.append(("-", chosen.pop(j), r2))
        if state is not None:
            state = _downdate(*state, j)
    return SupportSet(indices=tuple(chosen), r2=r2, trace=tuple(trace))


def stepwise_select(x, target, alpha, entry=1e-6, exit=1e-6, max_cardinality=None):
    """Forward steps interleaved with removal of near-redundant variables.

    After each addition, any variable whose deletion costs less than
    ``exit`` in R^2 is dropped (cheapest first). entry >= exit guards
    against add/remove cycling; previously visited supports end the search.
    """
    if not 0 < alpha <= 1:
        raise ValueError("alpha must be in (0, 1]")
    if entry < exit:
        raise ValueError("entry must be >= exit")
    values = np.asarray(x, float)
    p = values.shape[1]
    cap = p if max_cardinality is None else min(max_cardinality, p)
    chosen = []
    trace = []
    r2 = 0.0
    seen = {frozenset()}
    while len(chosen) < cap:
        i, new_r2 = _best_addition(values, target, chosen)
        if i is None or (chosen and new_r2 - r2 <= entry):
            break
        chosen.append(i)
        r2 = new_r2
        trace.append(("+", i, r2))
        # prune: removals that cost less than `exit` in R^2
        while len(chosen) > 1:
            # never undo the variable just added
            best_j, best_r2 = _best_removal(values, target, chosen, chosen[:-1])
            if best_j is None or r2 - best_r2 >= exit:
                break
            chosen.remove(best_j)
            r2 = best_r2
            trace.append(("-", best_j, r2))
        state = frozenset(chosen)
        if state in seen:
            break
        seen.add(state)
        if r2 >= alpha:
            break
    return SupportSet(indices=tuple(chosen), r2=r2, trace=tuple(trace))


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
    else:
        raise ValueError(f"unknown selection strategy {strategy.kind!r}")
    if support.r2 is None and target is not None:
        support = SupportSet(
            indices=support.indices,
            r2=r_squared(values[:, list(support.indices)], target),
            trace=support.trace,
            threshold_used=support.threshold_used,
        )
    return support
