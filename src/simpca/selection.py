"""Support identification: which variables get nonzero coefficients.

Two families of strategies. Threshold strategies look only at a coefficient
vector (after rescaling it to a unit L_m norm). Regression strategies pick
columns of the data by how well they reproduce a target score vector,
measured by the coefficient of determination R^2 (no intercept; everything
is centered).
"""

from dataclasses import dataclass

import numpy as np

from .core import r_squared
from .errors import (
    EmptySupport,
    ExhaustedSchedule,
    InitialFitUnderdetermined,
)

_GAIN_EPS = 1e-15


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
    """Indices whose |coefficient| >= t after unit L_m rescaling."""
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
        try:
            return threshold_support(coefficients, t, norm_m)
        except EmptySupport:
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


def _best_addition(values, target, chosen, candidates):
    """Candidate giving the largest R^2 after inclusion; ties -> lowest index."""
    best_i, best_r2 = None, -1.0
    for i in candidates:
        r2 = r_squared(values[:, chosen + [i]], target)
        if r2 > best_r2 + _GAIN_EPS:
            best_i, best_r2 = i, r2
    return best_i, best_r2


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
        candidates = [i for i in range(p) if i not in chosen]
        i, new_r2 = _best_addition(values, target, chosen, candidates)
        if i is None or new_r2 <= r2 + _GAIN_EPS and chosen:
            break
        chosen.append(i)
        r2 = new_r2
        trace.append(("+", i, r2))
        if r2 >= alpha:
            break
    return SupportSet(indices=tuple(chosen), r2=r2, trace=tuple(trace))


def backward_select(x, target, alpha, start="auto"):
    """Drop variables while the best remaining fit keeps R^2 >= alpha.

    start: 'full' (all variables; requires p <= n), 'forward' (seed from the
    forward solution at alpha), 'auto' (full when p <= n, else forward), or
    an explicit index sequence.
    """
    if not 0 < alpha <= 1:
        raise ValueError("alpha must be in (0, 1]")
    values = np.asarray(x, float)
    n, p = values.shape
    if start == "auto":
        start = "full" if p <= n else "forward"
    if start == "full":
        if p > n:
            raise InitialFitUnderdetermined(n, p)
        chosen = list(range(p))
    elif start == "forward":
        chosen = list(forward_select(x, target, alpha).indices)
    else:
        chosen = [int(i) for i in start]
    r2 = r_squared(values[:, chosen], target)
    trace = [("+", i, None) for i in chosen]
    while len(chosen) > 1:
        best_i, best_r2 = None, -1.0
        for i in chosen:
            rest = [j for j in chosen if j != i]
            cand = r_squared(values[:, rest], target)
            if cand > best_r2 + _GAIN_EPS:
                best_i, best_r2 = i, cand
        if best_i is None or best_r2 < alpha:
            break
        chosen.remove(best_i)
        r2 = best_r2
        trace.append(("-", best_i, r2))
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
        candidates = [i for i in range(p) if i not in chosen]
        if not candidates:
            break
        i, new_r2 = _best_addition(values, target, chosen, candidates)
        if i is None or (chosen and new_r2 - r2 <= entry):
            break
        chosen.append(i)
        r2 = new_r2
        trace.append(("+", i, r2))
        # prune: removals that cost less than `exit` in R^2
        while len(chosen) > 1:
            best_j, best_r2 = None, -1.0
            for j in chosen[:-1]:  # never undo the variable just added
                rest = [k for k in chosen if k != j]
                cand = r_squared(values[:, rest], target)
                if cand > best_r2 + _GAIN_EPS:
                    best_j, best_r2 = j, cand
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
