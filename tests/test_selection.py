"""Support selection: thresholding variants and regression subset search."""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simpca import (
    RotationCriterion,
    SelectionStrategy,
    SimpcaPipelineConfig,
    center_scale,
    forward_select,
    run_simpca,
)
from simpca import core, selection
from simpca.core import r2_add_drop, r_squared, svd, vif
from simpca.errors import ConfigError, EmptySupport, ExhaustedSchedule, NonFiniteInput
from simpca.selection import (
    adaptive_threshold_support,
    backward_select,
    iterative_reverse_threshold,
    rescale_to_unit_norm,
    select_support,
    stepwise_select,
    threshold_support,
)

from conftest import random_data, time_limit


def test_threshold_basic():
    coefs = np.array([0.9, 0.1, 0.1])
    coefs = coefs / np.linalg.norm(coefs)
    assert threshold_support(coefs, 0.5, 2).indices == (0,)


def test_threshold_lower_bound_always_selects():
    # t = p^(-1/m) can never produce an empty support
    rng = np.random.default_rng(0)
    for m, norm_m in [(1, 1), (2, 2)]:
        for _ in range(25):
            p = int(rng.integers(2, 12))
            coefs = rng.standard_normal(p)
            sup = threshold_support(coefs, p ** (-1.0 / m), norm_m)
            assert sup.cardinality >= 1


def test_threshold_norm_equivalence():
    # matched thresholds under different norms give identical supports,
    # because rescaling never reorders |coefficients|
    rng = np.random.default_rng(1)
    for _ in range(20):
        coefs = rng.standard_normal(7)
        a1 = rescale_to_unit_norm(coefs, 1)
        a2 = rescale_to_unit_norm(coefs, 2)
        t2 = 0.4
        kept = np.abs(a2) >= t2
        if not kept.any() or kept.all():
            continue
        # translate the threshold: same cut point in the |a1| ordering
        border = np.min(np.abs(a1)[kept])
        sup1 = threshold_support(coefs, border, 1)
        sup2 = threshold_support(coefs, t2, 2)
        assert sup1.indices == sup2.indices


def test_threshold_empty_is_error():
    with pytest.raises(EmptySupport):
        threshold_support(np.array([0.5, 0.5, 0.5, 0.5]), 0.9, 2)
    with pytest.raises(EmptySupport):
        rescale_to_unit_norm(np.zeros(3))


def test_threshold_above_one_is_config_error():
    # after unit L_m rescaling every |a_i| <= 1: t = 1 keeps the largest
    # under the max norm, any t above 1 (or NaN) is rejected before the cut
    coefs = np.array([0.2, -0.8, 0.4])
    assert threshold_support(coefs, 1.0, np.inf).indices == (1,)
    for t in (1.0 + 1e-12, 2.0, np.nan):
        with pytest.raises(ValueError):
            threshold_support(coefs, t, 2)
    # an adaptive schedule starting above 1 still steps down into range
    sup = adaptive_threshold_support(coefs, 1.1, 0.25, np.inf)
    assert sup.indices == (1,) and sup.threshold_used == pytest.approx(0.85)


def test_negative_threshold_is_config_error():
    # a cut below 0 would keep every variable; 0 itself is the lower bound
    coefs = np.array([0.2, -0.8, 0.0])
    assert threshold_support(coefs, 0.0, 2).indices == (0, 1, 2)
    for t in (-1e-12, -1.0, -np.inf):
        with pytest.raises(ValueError, match=r"in \[0, 1\]"):
            threshold_support(coefs, t, 2)


def test_adaptive_threshold_schedule():
    # max rescaled |coefficient| 0.22 -> thresholds 0.25, 0.20 -> used 0.20
    coefs = np.array([0.22, 0.1, 0.1])
    coefs = coefs / np.linalg.norm(coefs) * (0.22 / 0.22534416)
    sup = adaptive_threshold_support(coefs * 0.22 / np.max(np.abs(coefs)), 0.25, 0.05)
    # construct exactly: unit-L2 vector with max entry 0.22 is impossible
    # (bound is 1/sqrt(3) > 0.22 only for spread vectors); use a 21-vector
    v = np.full(21, 1.0)
    v[0] = 1.05
    v = v / np.linalg.norm(v)  # max entry ~ 0.228
    sup = adaptive_threshold_support(v, 0.25, 0.05)
    assert sup.threshold_used == pytest.approx(0.20)
    assert sup.cardinality >= 1


def test_adaptive_behaves_like_fixed_when_reachable():
    rng = np.random.default_rng(2)
    coefs = rng.standard_normal(6)
    fixed = threshold_support(coefs, 0.25, 2)
    adaptive = adaptive_threshold_support(coefs, 0.25, 0.05)
    assert fixed.indices == adaptive.indices


def test_adaptive_uniform_vector_selects_all():
    p = 9
    v = np.full(p, p**-0.5)
    sup = adaptive_threshold_support(v, 0.25, 0.05)
    assert sup.cardinality == p


def test_adaptive_exhausted():
    # uniform 9-vector rescales to max 1/3; the schedule 0.9, 0.4 never
    # reaches it before going non-positive
    with pytest.raises(ExhaustedSchedule):
        adaptive_threshold_support(np.full(9, 0.2), 0.9, 0.5)
    with pytest.raises(ValueError):
        adaptive_threshold_support(np.ones(3), -0.1, 0.05)


def test_adaptive_schedule_cost_does_not_grow_with_t0_over_step():
    # the first kept threshold t0 - k step is found directly, so a schedule
    # of 2e13 steps, or one whose step is below the rounding of t0, returns
    # at once; the 21-vector rescales to max 0.228, the rest 0.217
    v = np.full(21, 1.0)
    v[0] = 1.05
    top = np.max(rescale_to_unit_norm(v))
    with time_limit(5):
        sup = adaptive_threshold_support(v, 1e12, 0.05)
        assert sup.cardinality == 21 and sup.threshold_used == pytest.approx(0.2, abs=1e-3)
        sup = adaptive_threshold_support(v, 0.25, 1e-17)
        assert sup.indices == (0,)
        assert top - 1e-15 <= sup.threshold_used <= top


def test_adaptive_schedule_points_are_t0_minus_k_step():
    # each threshold is t0 - k step rounded once, so rounding does not
    # accumulate over the steps: 2.0 - 5 * 0.2 is 1.0 and keeps the largest
    # coefficient (five subtractions of 0.2 give 1.0000000000000002), and
    # 0.5 - 5 * 0.1 is 0, which ends the schedule (five subtractions of 0.1
    # give 2.8e-17, a threshold that keeps every column)
    coefs = np.array([0.2, -0.8, 0.4])
    sup = adaptive_threshold_support(coefs, 2.0, 0.2, np.inf)
    assert sup.indices == (1,) and sup.threshold_used == 1.0
    with pytest.raises(ExhaustedSchedule):
        adaptive_threshold_support(np.full(20, 1.0), 0.5, 0.1, 1)


@pytest.mark.parametrize("t0, step", [
    (np.inf, 0.05), (np.nan, 0.05), (0.25, np.inf), (0.25, np.nan), (0.25, 0.0),
])
def test_adaptive_schedule_must_be_finite(t0, step):
    with time_limit(5), pytest.raises(ValueError):
        adaptive_threshold_support(np.array([0.2, -0.8, 0.4]), t0, step)


def test_iterative_reverse_threshold_oracle():
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = random_data(rng, n=20, p=8)
        coefs = rng.standard_normal(8)
        target = x.values @ coefs
        sup = iterative_reverse_threshold(x, target, coefs, 0.95)
        # oracle: regress step by step in descending |coefficient| order
        order = np.argsort(-np.abs(coefs), kind="stable")
        chosen = []
        for i in order:
            chosen.append(int(i))
            r2 = r_squared(x.values[:, chosen], target)
            if r2 >= 0.95:
                break
        assert sup.indices == tuple(chosen)
        assert sup.r2 == pytest.approx(r2, abs=1e-12)
        assert sup.r2 >= 0.95 or sup.cardinality == 8


def test_iterative_reverse_single_column_target():
    rng = np.random.default_rng(4)
    x = random_data(rng, n=15, p=5)
    coefs = np.array([0.0, 0.0, 1.0, 0.1, 0.0])
    sup = iterative_reverse_threshold(x, x.values[:, 2].copy(), coefs, 0.99)
    assert sup.indices == (2,)
    assert sup.r2 == pytest.approx(1.0, abs=1e-10)


def test_iterative_reverse_orders_tied_coefficients_by_index():
    # the leading loadings of a duplicated column pair are equal in exact
    # arithmetic; whatever their last bits, the lower index enters first,
    # also on permuted rows and on rescaled columns
    rng = np.random.default_rng(21)
    for case in range(40):
        p = int(rng.integers(4, 12))
        x = random_data(rng, n=int(rng.integers(p + 2, 40)), p=p).values.copy()
        i, j = (int(k) for k in sorted(rng.choice(p, 2, replace=False)))
        x[:, i] *= 10.0
        x[:, j] = x[:, i]
        x = x[rng.permutation(x.shape[0])]
        if case % 2:
            x = x * rng.uniform(0.5, 2.0)
        loadings = svd(x)[1][:, 0]
        got = iterative_reverse_threshold(x, x @ loadings, loadings, 1.0)
        assert got.indices[:2] == (i, j)


def test_forward_matches_exhaustive_per_step():
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = random_data(rng, n=18, p=6)
        target = x.values @ rng.standard_normal(6)
        sup = forward_select(x, target, 0.999)
        chosen = []
        for step in range(len(sup.indices)):
            best = max(
                (r_squared(x.values[:, chosen + [i]], target), -i)
                for i in range(6)
                if i not in chosen
            )
            chosen.append(-best[1])
        assert sup.indices == tuple(chosen)
        assert np.all(np.diff([r for _, _, r in sup.trace]) >= -1e-12)


def test_forward_exact_column_target():
    rng = np.random.default_rng(6)
    x = random_data(rng, n=15, p=5)
    sup = forward_select(x, x.values[:, 3].copy(), 0.99)
    assert sup.indices == (3,)


def test_forward_orthogonal_order():
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.standard_normal((20, 5)))
    x = center_scale(q + 1.0)
    weights = np.array([0.1, 0.9, 0.4, 0.7, 0.2])
    target = x.values @ weights
    sup = forward_select(x, target, 1.0)
    # orthogonal predictors: selection follows squared correlation order
    corr2 = [np.corrcoef(x.values[:, i], target)[0, 1] ** 2 for i in range(5)]
    assert list(sup.indices) == list(np.argsort(corr2)[::-1])


def test_forward_max_cardinality():
    rng = np.random.default_rng(8)
    x = random_data(rng, n=20, p=8)
    target = x.values @ rng.standard_normal(8)
    sup = forward_select(x, target, 1.0, max_cardinality=3)
    assert sup.cardinality == 3
    assert forward_select(x, target, 1.0, max_cardinality=np.int64(3)) == sup


@pytest.mark.parametrize("cap, problem", [
    (0, "max_cardinality 0 is not at least 1"),
    (-1, "max_cardinality -1 is not at least 1"),
    (2.5, "max_cardinality 2.5 is not an integer"),
    (np.float64(3.0), "max_cardinality 3.0 is not an integer"),
    ("3", "max_cardinality 3 is not an integer"),
])
def test_max_cardinality_must_be_a_positive_integer(cap, problem):
    rng = np.random.default_rng(8)
    x = random_data(rng, n=20, p=8)
    target = x.values @ rng.standard_normal(8)
    with pytest.raises(ValueError, match=problem):
        forward_select(x, target, 1.0, max_cardinality=cap)
    with pytest.raises(ValueError, match=problem):
        stepwise_select(x, target, 1.0, max_cardinality=cap)


def test_pipeline_max_cardinality_zero_is_a_config_error():
    # not an EmptySupport (a NumericalError, exit 4): the fault is the config,
    # found when the strategy is built, before any data is read
    rng = np.random.default_rng(8)
    x = random_data(rng, n=20, p=8)
    for kind in ("forward", "stepwise"):
        with pytest.raises(ValueError, match="max_cardinality 0"):
            run_simpca(x, SimpcaPipelineConfig(
                nd=1, nr=2, criterion=RotationCriterion.varimax(),
                strategy=SelectionStrategy(kind=kind, alpha=0.9, max_cardinality=0),
            ))


def test_backward_from_full_set():
    rng = np.random.default_rng(9)
    x = random_data(rng, n=25, p=5)
    # target depends only on columns 0 and 3; backward should drop the rest
    target = x.values[:, 0] - 2.0 * x.values[:, 3]
    sup = backward_select(x, target, 0.999)
    assert set(sup.indices) == {0, 3}
    assert sup.r2 >= 0.999


def test_backward_underdetermined_start():
    rng = np.random.default_rng(10)
    x = random_data(rng, n=6, p=9)
    target = x.values @ rng.standard_normal(9)
    # 9 columns, 6 rows: the full fit is underdetermined, so backward starts
    # from the forward solution
    sup = backward_select(x, target, 0.9)
    start = forward_select(x, target, 0.9).indices
    assert sup.trace[:len(start)] == tuple(("+", i, None) for i in start)
    assert sup.r2 >= 0.9 or sup.cardinality == 9


def test_stepwise_orthogonal_equals_forward():
    rng = np.random.default_rng(11)
    q, _ = np.linalg.qr(rng.standard_normal((20, 6)))
    x = center_scale(q + 2.0)
    target = x.values @ rng.standard_normal(6)
    fwd = forward_select(x, target, 0.98)
    step = stepwise_select(x, target, 0.98)
    assert fwd.indices == step.indices


def test_stepwise_removes_redundant_variable():
    rng = np.random.default_rng(12)
    n = 30
    z = rng.standard_normal(n)
    # x0 and x1 are both noisy copies of z; x2 alone finishes the job
    raw = np.column_stack(
        [
            z + 0.08 * rng.standard_normal(n),
            z + 0.08 * rng.standard_normal(n),
            rng.standard_normal(n),
        ]
    )
    x = center_scale(raw)
    target = x.values[:, 0] + x.values[:, 1] + 2.0 * x.values[:, 2]
    sup = stepwise_select(x, target, 0.999, entry=1e-4, exit=1e-4)
    assert sup.r2 >= 0.999
    ops = [op for op, _, _ in sup.trace]
    assert set(sup.indices) <= {0, 1, 2}
    with pytest.raises(ValueError):
        stepwise_select(x, target, 0.9, entry=1e-6, exit=1e-3)


def test_stepwise_terminates_on_hard_instance():
    rng = np.random.default_rng(13)
    for _ in range(10):
        x = random_data(rng, n=12, p=10)
        target = x.values @ rng.standard_normal(10)
        sup = stepwise_select(x, target, 1.0, entry=1e-8, exit=1e-8)
        assert sup.cardinality <= 10  # and the call returned at all


def test_select_support_dispatch_and_r2_fill():
    rng = np.random.default_rng(14)
    x = random_data(rng, n=20, p=6)
    coefs = rng.standard_normal(6)
    target = x.values @ coefs
    for kind in (
        "fixed-threshold",
        "adaptive-threshold",
        "iterative-reverse-threshold",
        "forward",
        "backward",
        "stepwise",
    ):
        strategy = SelectionStrategy(kind=kind, alpha=0.9, threshold=0.2, t0=0.25)
        sup = select_support(x, target, coefs, strategy)
        assert sup.cardinality >= 1
        assert sup.r2 is not None  # threshold kinds get R^2 filled in
    with pytest.raises(ValueError):
        select_support(x, target, coefs, SelectionStrategy(kind="lasso"))


@pytest.mark.parametrize("kind", ["fixed-threshold", "adaptive-threshold",
                                  "iterative-reverse-threshold"])
def test_coefficients_need_one_entry_per_column(kind):
    # a 3-vector against 5 columns would pick a support of the first three
    x = random_data(np.random.default_rng(15), n=12, p=5)
    target = x.values @ np.ones(5)
    strategy = SelectionStrategy(kind=kind, alpha=0.9, threshold=0.3)
    for coefs in (np.ones(3), np.ones(6), np.ones((5, 1))):
        with pytest.raises(ConfigError, match="do not match the 5 columns"):
            select_support(x, target, coefs, strategy)
    with pytest.raises(ConfigError, match="do not match the 5 columns"):
        iterative_reverse_threshold(x, target, np.ones(3), 0.9)


@pytest.mark.parametrize("kind", selection.KINDS)
def test_target_must_be_a_finite_vector_with_one_entry_per_row(kind):
    # a NaN target scored every support at R^2 0; a target of the wrong
    # length, or none under a regression kind, was numpy's own ValueError
    x = random_data(np.random.default_rng(16), n=12, p=5)
    coefs = np.ones(5)
    strategy = SelectionStrategy(kind=kind, alpha=0.9, threshold=0.3)
    for value, row in ((np.nan, 3), (np.inf, 0), (-np.inf, 11)):
        target = x.values @ coefs
        target[row] = value
        with pytest.raises(NonFiniteInput) as err:
            select_support(x, target, coefs, strategy)
        assert (err.value.row, err.value.col) == (row, 0)
    bad = [np.ones(11), np.ones(13), np.ones((12, 1))]
    if kind not in ("fixed-threshold", "adaptive-threshold"):  # a threshold needs no target
        bad.append(None)
    for target in bad:
        with pytest.raises(ConfigError, match="does not match the 12 rows"):
            select_support(x, target, coefs, strategy)


def test_unknown_selection_kind_fails_at_construction():
    # before run_simpca spends a PCA and a rotation on the configuration
    with pytest.raises(ValueError, match="unknown selection strategy 'bogus'"):
        SelectionStrategy(kind="bogus")


@pytest.mark.parametrize("fields, problem", [
    (dict(kind="forward", alpha=1.5), r"alpha must be in \(0, 1\]"),
    (dict(kind="backward", alpha=0.0), r"alpha must be in \(0, 1\]"),
    (dict(kind="stepwise", alpha=-1.0), r"alpha must be in \(0, 1\]"),
    (dict(kind="iterative-reverse-threshold", alpha=2.0), r"alpha must be in \(0, 1\]"),
    (dict(kind="fixed-threshold", threshold=2.0), r"threshold must be in \[0, 1\]"),
    (dict(kind="fixed-threshold", norm_m=3), "unsupported norm 3"),
    (dict(kind="adaptive-threshold", t0=-1.0), "t0 and step must be positive"),
    (dict(kind="adaptive-threshold", step=0.0), "t0 and step must be positive"),
    (dict(kind="adaptive-threshold", norm_m=0), "unsupported norm 0"),
    (dict(kind="stepwise", entry=1e-6, exit=1e-3), "entry must be >= exit"),
    (dict(kind="forward", max_cardinality=0), "max_cardinality 0 is not at least 1"),
    (dict(kind="stepwise", max_cardinality=2.5), "max_cardinality 2.5 is not an integer"),
    # a value that is not a number is a config error too, not a TypeError
    (dict(kind="forward", alpha="0.9"), r"alpha must be in \(0, 1\]"),
    (dict(kind="fixed-threshold", threshold=None), r"threshold must be in \[0, 1\]"),
    (dict(kind="adaptive-threshold", t0=None), "t0 and step must be positive"),
    (dict(kind="stepwise", exit=None), "entry must be >= exit"),
])
def test_strategy_checks_the_fields_its_kind_reads_when_built(fields, problem):
    with pytest.raises(ConfigError, match=problem):
        SelectionStrategy(**fields)


def test_strategy_ignores_the_fields_its_kind_does_not_read():
    bad = dict(alpha=2.0, threshold=2.0, t0=-1.0, step=0.0, norm_m=3,
               entry=0.0, exit=1.0, max_cardinality=0)
    for kind, read in (("fixed-threshold", ("threshold", "norm_m")),
                       ("adaptive-threshold", ("t0", "step", "norm_m")),
                       ("iterative-reverse-threshold", ("alpha",)),
                       ("forward", ("alpha", "max_cardinality")),
                       ("backward", ("alpha",)),
                       ("stepwise", ("alpha", "entry", "exit", "max_cardinality"))):
        unread = {k: v for k, v in bad.items() if k not in read}
        assert SelectionStrategy(kind, **unread).kind == kind


def test_alpha_validation():
    rng = np.random.default_rng(15)
    x = random_data(rng, n=10, p=4)
    target = x.values[:, 0].copy()
    for fn in (forward_select, backward_select):
        with pytest.raises(ValueError):
            fn(x, target, 0.0)
    with pytest.raises(ValueError):
        iterative_reverse_threshold(x, target, np.ones(4), 1.5)


# --- Differential oracle: one lstsq fit per candidate -------------------
# The loops selection ran before it scored every candidate from one SVD of
# the support, each fit an lstsq cut at k * eps * sigma_1 (as core.solve_ls
# was before it moved onto core._ls_svd). Run as loops of one lstsq fit per
# candidate, they must give the same supports and trace steps as the
# library, and R^2 to 1e-9 relative (1e-12 absolute near 0).
# Where both sides of a decision are equal in exact arithmetic (an R^2 of
# exactly alpha, two candidates with one R^2, a duplicate column whose
# lstsq gain is a few ulps), rounding picks the branch, differently in the
# two computations; such a run must agree once every threshold is moved by
# ROUNDING, which no real difference in R^2 survives.

ROUNDING = 1e-12


def _lstsq_solve_ls(a, b):
    """lstsq's minimum-norm solution of a @ coef ~ b, cut at k * eps * sigma_1."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    if a.ndim == 1:
        a = a[:, None]
    coef, *_ = np.linalg.lstsq(a, b, rcond=a.shape[1] * np.finfo(float).eps)
    return coef


def _lstsq_r_squared(a, b):
    """R^2 of b on the columns of a, from ``_lstsq_solve_ls``."""
    b = np.asarray(b, float)
    denom = float(b @ b)
    if denom == 0.0:
        return 0.0
    resid = b - np.asarray(a, float) @ _lstsq_solve_ls(a, b)
    return max(0.0, 1.0 - float(resid @ resid) / denom)


def _lstsq_best_addition(values, target, chosen):
    best_i, best_r2 = None, -1.0
    for i in range(values.shape[1]):
        if i in chosen:
            continue
        r2 = _lstsq_r_squared(values[:, chosen + [i]], target)
        if r2 > best_r2 + selection._GAIN_EPS:
            best_i, best_r2 = i, r2
    return best_i, best_r2


def _lstsq_best_removal(values, target, chosen, removable):
    best_i, best_r2 = None, -1.0
    for i in removable:
        r2 = _lstsq_r_squared(values[:, [j for j in chosen if j != i]], target)
        if r2 > best_r2 + selection._GAIN_EPS:
            best_i, best_r2 = i, r2
    return best_i, best_r2


def _lstsq_vif(values, subset):
    if len(subset) == 1:
        return np.zeros(1)
    return np.array([
        _lstsq_r_squared(values[:, [j for j in subset if j != i]], values[:, i])
        for i in subset
    ])


@contextmanager
def _patched(**attrs):
    saved = {name: getattr(selection, name) for name in attrs}
    for name, value in attrs.items():
        setattr(selection, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(selection, name, value)


def _cap_of(cap, p):
    return p if cap is None else min(cap, p)


def _forward_loop(x, target, alpha, cap, best_addition):
    """forward_select as a loop of one ``best_addition`` call per step, the
    way it ran before it carried one fit."""
    values = np.asarray(x, float)
    chosen, trace, r2 = [], [], 0.0
    while len(chosen) < _cap_of(cap, values.shape[1]):
        i, new_r2 = best_addition(values, target, chosen)
        if i is None or new_r2 <= r2 + selection._GAIN_EPS and chosen:
            break
        chosen.append(i)
        r2 = new_r2
        trace.append(("+", i, r2))
        if r2 >= alpha:
            break
    return selection.SupportSet(indices=tuple(chosen), r2=r2, trace=tuple(trace))


def _stepwise_loop(x, target, alpha, entry, exit, cap, best_addition, best_removal):
    """stepwise_select as a loop of one ``best_addition`` call per addition
    and one ``best_removal`` call per removal step."""
    values = np.asarray(x, float)
    chosen, trace, r2 = [], [], 0.0
    seen = {frozenset()}
    while len(chosen) < _cap_of(cap, values.shape[1]):
        i, new_r2 = best_addition(values, target, chosen)
        if i is None or (chosen and new_r2 - r2 <= entry):
            break
        chosen.append(i)
        r2 = new_r2
        trace.append(("+", i, r2))
        while len(chosen) > 1:
            best_j, best_r2 = best_removal(values, target, chosen, chosen[:-1])
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
    return selection.SupportSet(indices=tuple(chosen), r2=r2, trace=tuple(trace))


def _backward_loop(x, target, alpha, best_removal):
    """backward_select as a loop of one ``best_removal`` call per step, the
    way it ran before it downdated one fit, from the same start: every
    column when p <= n, else the forward solution."""
    values = np.asarray(x, float)
    n, p = values.shape
    chosen = list(range(p)) if p <= n else list(forward_select(x, target, alpha).indices)
    r2 = _lstsq_r_squared(values[:, chosen], target)
    trace = [("+", i, None) for i in chosen]
    while len(chosen) > 1:
        best_i, best_r2 = best_removal(values, target, chosen, chosen)
        if best_i is None or best_r2 < alpha:
            break
        chosen.remove(best_i)
        r2 = best_r2
        trace.append(("-", best_i, r2))
    return selection.SupportSet(indices=tuple(chosen), r2=r2, trace=tuple(trace))


def _kernel_and_oracle(kind, x, target, alpha, entry, exit, cap):
    """(library run, lstsq loop) of one selection strategy."""
    if kind == "forward":
        return (forward_select(x, target, alpha, cap),
                _forward_loop(x, target, alpha, cap, _lstsq_best_addition))
    if kind == "backward":
        return (backward_select(x, target, alpha),
                _backward_loop(x, target, alpha, _lstsq_best_removal))
    return (stepwise_select(x, target, alpha, entry, exit, cap),
            _stepwise_loop(x, target, alpha, entry, exit, cap,
                           _lstsq_best_addition, _lstsq_best_removal))


def _steps(support):
    return [t[:2] for t in support.trace]


def _r2_close(a, b):
    if a is None or b is None:
        return a is b
    return a == pytest.approx(b, rel=1e-9, abs=1e-12)


def _assert_same_selection(x, target, alpha, entry, exit, cap):
    for kind in ("forward", "backward", "stepwise"):
        got, want = _kernel_and_oracle(kind, x, target, alpha, entry, exit, cap)
        if _steps(got) != _steps(want):
            with _patched(_GAIN_EPS=ROUNDING):
                for shift in (-ROUNDING, ROUNDING):
                    got, want = _kernel_and_oracle(
                        kind, x, target, min(alpha + shift, 1.0), entry + shift,
                        exit + shift, cap,
                    )
                    if _steps(got) == _steps(want):
                        break
        assert got.indices == want.indices
        assert _steps(got) == _steps(want)
        assert all(_r2_close(g[2], w[2]) for g, w in zip(got.trace, want.trace))
        assert _r2_close(got.r2, want.r2)


def _assert_same_vif(values, subset):
    got = vif(values, subset)
    want = _lstsq_vif(values, subset)
    assert np.allclose(got, want, rtol=1e-9, atol=1e-12)


def test_selection_matches_lstsq_oracle_on_factor_data():
    rng = np.random.default_rng(16)
    for case in range(30):
        x = random_data(rng, n=int(rng.integers(12, 60)), p=int(rng.integers(4, 14)))
        p = x.p
        weights = rng.standard_normal(p) * (rng.random(p) < 0.5)
        target = x.values @ weights + 0.3 * rng.standard_normal(x.n)
        alpha = (0.8, 0.95, 0.999, 1.0)[case % 4]
        entry = exit = (1e-6, 1e-3, 0.02)[case % 3]
        cap = None if case % 2 else int(rng.integers(2, p + 1))
        _assert_same_selection(x, target - target.mean(), alpha, entry, exit, cap)
        subset = sorted(rng.choice(p, size=int(rng.integers(1, p + 1)), replace=False))
        _assert_same_vif(x.values, subset)


@st.composite
def integer_selection_inputs(draw):
    n = draw(st.integers(2, 8))
    p = draw(st.integers(2, 8))
    cells = st.lists(st.integers(-4, 4), min_size=n * p, max_size=n * p)
    values = np.array(draw(cells), float).reshape(n, p)
    if draw(st.booleans()):
        i, j = draw(st.permutations(range(p)))[:2]
        values[:, j] = values[:, i]
    if draw(st.booleans()):
        values[:, draw(st.integers(0, p - 1))] = draw(st.integers(-4, 4))
    if draw(st.booleans()):
        values = values - values.mean(axis=0)
    if draw(st.booleans()):
        weights = draw(st.lists(st.integers(-2, 2), min_size=p, max_size=p))
        target = values @ np.array(weights, float)
    else:
        target = np.array(draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)), float)
    entry, exit = draw(st.sampled_from([(1e-6, 1e-6), (1e-2, 1e-3), (0.1, 0.1)]))
    return (values, target, draw(st.sampled_from([0.5, 0.95, 1.0])), entry, exit,
            draw(st.sampled_from([None, 2, 4])))


@settings(derandomize=True, deadline=None, max_examples=400)
@given(integer_selection_inputs())
def test_selection_matches_lstsq_oracle_on_integer_matrices(inputs):
    values, target, alpha, entry, exit, cap = inputs
    _assert_same_selection(values, target, alpha, entry, exit, cap)
    _assert_same_vif(values, list(range(values.shape[1])))


# --- Differential oracle: one r2_add_drop per step ----------------------
# Forward and stepwise selection carry one fit from step to step, and
# backward selection downdates the fit of one seeded SVD. The loops they
# replaced, one r2_add_drop of the support per addition or removal step,
# must give the same supports and trace steps and R^2 to 1e-12 relative,
# near ties included: those the carried fit leaves to a fresh SVD, which
# scores them bit for bit as the loops do.


def _best_addition(values, target, chosen):
    candidates = [i for i in range(values.shape[1]) if i not in chosen]
    add, _ = r2_add_drop(values[:, chosen], target, values[:, candidates])
    return selection._first_best(candidates, add)


def _best_removal(values, target, chosen, removable):
    _, drop = r2_add_drop(values[:, chosen], target)
    return selection._first_best(removable, drop)


def _assert_same_steps(got, want):
    assert got.indices == want.indices
    assert _steps(got) == _steps(want)
    # the selection's R^2 is that of its last step, to the bit
    if got.trace[-1][2] is not None:
        assert got.r2 == got.trace[-1][2]
    r2s = [(g[2], w[2]) for g, w in zip(got.trace, want.trace)] + [(got.r2, want.r2)]
    for g, w in r2s:
        assert g == w if w is None else g == pytest.approx(w, rel=1e-12, abs=0)


def _assert_same_as_loops(x, target, alpha, entry=1e-6, exit=1e-6, cap=None):
    _assert_same_steps(forward_select(x, target, alpha, cap),
                       _forward_loop(x, target, alpha, cap, _best_addition))
    _assert_same_steps(stepwise_select(x, target, alpha, entry, exit, cap),
                       _stepwise_loop(x, target, alpha, entry, exit, cap,
                                      _best_addition, _best_removal))


def _assert_same_backward(x, target, alpha):
    _assert_same_steps(backward_select(x, target, alpha),
                       _backward_loop(x, target, alpha, _best_removal))


@contextmanager
def _counting_fit_steps():
    """Counts of the additions scored by the carried fit and of the fresh
    SVDs the fit took (retaken additions, which reseed it, retaken
    removals, and the fresh R^2 of a retaken step's stop), each a call of
    the one scorer of a fresh fit or of its public wrapper."""
    counts = {"carried": 0, "fresh": 0}
    carried = selection._Fit._carried_addition

    def counted_carried(fit, stops):
        best = carried(fit, stops)
        counts["carried"] += best is not None
        return best

    def counted(scorer):
        def run(*args, **kwargs):
            counts["fresh"] += 1
            return scorer(*args, **kwargs)
        return run

    selection._Fit._carried_addition = counted_carried
    try:
        with _patched(r2_add_drop=counted(r2_add_drop), _ls_scores=counted(core._ls_scores)):
            yield counts
    finally:
        selection._Fit._carried_addition = carried


def test_carried_selection_matches_per_step_loops_on_factor_data():
    rng = np.random.default_rng(19)
    with _counting_fit_steps() as counts:
        for case in range(40):
            p = int(rng.integers(4, 61))
            n = int(rng.integers(p, 3 * p + 2))
            x = random_data(rng, n=n, p=p)
            weights = rng.standard_normal(p) * (rng.random(p) < 0.5)
            target = x.values @ weights + 0.3 * rng.standard_normal(n)
            entry = exit = (1e-6, 1e-3, 0.02)[case % 3]
            cap = None if case % 2 else int(rng.integers(2, p + 1))
            _assert_same_as_loops(x, target - target.mean(), (0.5, 0.8, 0.95, 0.999)[case % 4],
                                  entry, exit, cap)
        # a near-duplicate column (|z| / |x| about 1e-2 to 1e-7 once its twin
        # is chosen): the carried fit leaves such steps to a fresh SVD
        for case in range(20):
            p = int(rng.integers(6, 30))
            n = int(rng.integers(p + 2, 3 * p))
            x = random_data(rng, n=n, p=p).values.copy()
            i, j = rng.choice(p, 2, replace=False)
            x[:, j] = x[:, i] + 10.0 ** -rng.integers(2, 8) * rng.standard_normal(n)
            weights = rng.standard_normal(p) * (rng.random(p) < 0.5)
            target = x @ weights + 0.3 * rng.standard_normal(n)
            _assert_same_as_loops(x, target, (0.5, 0.9, 0.999)[case % 3],
                                  cap=int(rng.integers(2, p + 1)))
        # p > n: the support reaches the rank of the data
        for _ in range(10):
            p = int(rng.integers(8, 41))
            x = random_data(rng, n=int(rng.integers(5, p)), p=p)
            weights = rng.standard_normal(p)
            _assert_same_as_loops(x, x.values @ weights, 0.999)
    # the carried fit scored most steps, so the agreement is not that of
    # fresh SVDs alone, and some steps were retaken
    assert counts["carried"] > 500
    assert counts["fresh"] >= 1


@settings(derandomize=True, deadline=None, max_examples=400)
@given(integer_selection_inputs())
def test_carried_selection_matches_per_step_loops_on_integer_matrices(inputs):
    values, target, alpha, entry, exit, cap = inputs
    _assert_same_as_loops(values, target, alpha, entry, exit, cap)


def _hadamard_ties():
    """Orthogonal +-1 columns, |x_i|^2 = 8, and y = X c: adding or dropping
    column i moves R^2 by exactly c_i^2 / |c|^2."""
    h = np.array([[1.0]])
    for _ in range(3):
        h = np.block([[h, h], [h, -h]])
    c = np.array([0.0, 1.0, 1.0, 2.0, 4.0, 8.0, 8.0, 16.0])
    return h, c, h @ c, c @ c


def test_carried_selection_exact_ties_match_per_step_loops():
    h, c, y, cc = _hadamard_ties()
    with _counting_fit_steps() as counts:
        # columns 1 and 2, and 5 and 6, score the same; alpha is exactly the
        # R^2 of the best two, three or five columns
        for alpha in (320 / cc, 384 / cc, 404 / cc, 1.0):
            _assert_same_as_loops(h, y, alpha)
            assert forward_select(h, y, alpha).indices[:2] == (7, 5)
        # an addition that gains exactly `entry`, a removal that costs
        # exactly `exit`
        for entry, exit in ((1 / cc, 1 / cc), (4 / cc, 1 / cc), (4 / cc, 4 / cc)):
            _assert_same_as_loops(h, y, 1.0, entry, exit)
        # integer data found by an exact rational search: the fourth step
        # prunes a column that costs exactly 3721/1706480, and the second
        # addition gains exactly 605/1872; rescaled and row-permuted copies
        # move the rounding to either side of the tie, where a retaken step
        # needs the fresh bits of the R^2 it compares with
        prune = (np.array([[-2, 2, 1, -2], [0, 2, 2, -2], [2, -2, 1, -1],
                           [-1, 1, -2, 2], [-2, 2, -2, 1], [-1, -2, 0, -2]], float),
                 np.array([-3, 3, -3, 2, 0, 3], float), 3721 / 1706480, 3721 / 1706480)
        add = (np.array([[2, 0, 0, 2], [-2, 1, -1, -2], [-1, -2, 0, 1],
                         [-1, 1, 2, -2], [2, -1, -2, -1], [1, 0, -1, 1]], float),
               np.array([-2, 3, 3, -3, -2, 1], float), 605 / 1872, 1e-6)
        for x, y6, entry, exit in (prune, add):
            for scale in (1.0, 0.1, 0.3, 3.0, 5.0, 7.0):
                for rows in (range(6), [5, 4, 3, 2, 1, 0], [1, 0, 3, 2, 5, 4]):
                    _assert_same_as_loops(scale * x[rows], y6[rows], 1.0, entry, exit)
    assert counts["carried"] and counts["fresh"]
    # two identical useful columns: the lower index enters first, and the
    # support is then rank deficient
    dup = np.vstack([h, h])[:, [0, 1, 2, 3, 4, 5, 6, 7, 7]]
    y2 = dup @ np.append(c, 16.0)
    _assert_same_as_loops(dup, y2, 0.99)
    assert forward_select(dup, y2, 0.99).indices[0] == 7


def test_step_after_a_carried_removal_rescores_its_r2(monkeypatch):
    # integer data found by an exact rational search: stepwise carries the
    # removal of column 4 at the fifth step, and the addition after it gains
    # exactly `entry`, so that retaken addition compares with r2 + entry and
    # needs the bits a fresh SVD gives the removal's R^2; rescaled and
    # row-permuted copies move the rounding to either side of the tie
    x = np.array([[1, 2, 1, 1, 1], [-1, -2, -1, 2, 2], [1, 2, 1, -2, -2],
                  [-2, 1, 1, 0, -1], [1, 2, 0, 2, 1], [2, 2, -2, 2, -2]], float)
    y = np.array([-2, 0, 0, -1, 1, 3], float)
    entry = exit = 299209 / 37754235
    rescored = []
    refreshed = selection._Fit._refreshed

    def counted(fit, best, stops):
        after_removal = fit._prev is not None and fit._prev[0] == "-"
        best = refreshed(fit, best, stops)
        rescored.append(after_removal and fit._prev is None)
        return best

    monkeypatch.setattr(selection._Fit, "_refreshed", counted)
    steps = set()
    for scale in (1.0, 0.1, 0.3, 3.0, 5.0, 7.0):
        for rows in (range(6), [5, 4, 3, 2, 1, 0], [1, 0, 3, 2, 5, 4]):
            _assert_same_as_loops(scale * x[rows], y[rows], 1.0, entry, exit)
            steps.add(len(stepwise_select(scale * x[rows], y[rows], 1.0, entry, exit).trace))
    # every stepwise run rescored once, and the tie fell to both sides
    assert sum(rescored) == 36
    assert steps == {5, 7}


def test_backward_matches_per_step_loop_on_factor_data():
    rng = np.random.default_rng(17)
    with _counting_downdates() as downdates:
        for case in range(40):
            p = int(rng.integers(4, 61))
            n = int(rng.integers(p, 3 * p + 2))
            x = random_data(rng, n=n, p=p)
            weights = rng.standard_normal(p) * (rng.random(p) < 0.5)
            target = x.values @ weights + 0.3 * rng.standard_normal(n)
            _assert_same_backward(x, target - target.mean(), (0.5, 0.8, 0.95, 0.999)[case % 4])
    # the downdate ran, so the agreement is not that of fresh SVDs alone
    assert len(downdates) > 500
    # a near-duplicate column (sigma_1 / sigma_k about 1e4 to 1e8): only the
    # condition bound keeps such a support off the downdate
    for case in range(20):
        p = int(rng.integers(6, 30))
        n = int(rng.integers(p + 2, 3 * p))
        x = random_data(rng, n=n, p=p).values.copy()
        i, j = rng.choice(p, 2, replace=False)
        x[:, j] = x[:, i] + 10.0 ** -rng.integers(4, 8) * rng.standard_normal(n)
        target = x @ (rng.standard_normal(p) * (rng.random(p) < 0.5))
        target = target + 0.3 * rng.standard_normal(n)
        _assert_same_backward(x, target, (0.5, 0.9)[case % 2])
    # p > n: backward from the forward solution
    for _ in range(10):
        p = int(rng.integers(8, 41))
        x = random_data(rng, n=int(rng.integers(5, p)), p=p)
        target = x.values @ rng.standard_normal(p)
        _assert_same_backward(x, target, 0.9)


@contextmanager
def _counting_downdates():
    calls = []
    downdate = selection._downdate

    def counted(*state):
        calls.append(state)
        return downdate(*state)

    with _patched(_downdate=counted):
        yield calls


@settings(derandomize=True, deadline=None, max_examples=400)
@given(integer_selection_inputs())
def test_backward_matches_per_step_loop_on_integer_matrices(inputs):
    values, target, alpha, *_ = inputs
    _assert_same_backward(values, target, alpha)


def test_backward_exact_ties_match_per_step_loop():
    h, c, y, cc = _hadamard_ties()
    with _counting_downdates() as downdates:
        # columns 1 and 2, and 5 and 6, cost the same; dropping 0 .. 3, or
        # 0 .. 4, leaves an R^2 of exactly alpha; a downdated state meets
        # each of these ties
        for alpha in (0.5, 1 - 6 / cc, 1 - 22 / cc):
            _assert_same_backward(h, y, alpha)
            got = backward_select(h, y, alpha)
            assert {i for op, i, _ in got.trace if op == "-"} >= {0, 1, 2}
        assert downdates
    # two identical useful columns: the support is rank deficient
    dup = np.vstack([h, h])[:, [0, 1, 2, 3, 4, 5, 6, 7, 7]]
    _assert_same_backward(dup, dup @ np.append(c, 16.0), 0.9)
    assert backward_select(dup, dup @ np.append(c, 16.0), 0.9).trace[9][:2] == ("-", 0)


@contextmanager
def _counting_svds():
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    np.linalg.svd = counted
    try:
        yield calls
    finally:
        np.linalg.svd = svd


def test_backward_takes_its_starting_r2_from_the_first_seed():
    # well-conditioned columns and no near tie: one SVD seeds every step,
    # and gives the starting R^2 too
    rng = np.random.default_rng(20)
    x = random_data(rng, n=40, p=8).values
    target = x @ rng.standard_normal(8) + 0.3 * rng.standard_normal(40)
    with _counting_svds() as svds:
        got = backward_select(x, target, 0.5)
    assert svds == [(40, 8)]
    _assert_same_backward(x, target, 0.5)
    # a support nothing can leave reports the R^2 of r_squared, bit for bit
    with _counting_svds() as svds:
        kept = backward_select(x, target, 1.0)
    assert kept.indices == tuple(range(8)) and kept.r2 == r_squared(x, target)
    assert len(svds) == 1
    assert got.trace[:8] == kept.trace
