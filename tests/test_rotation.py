"""Crawford-Ferguson / Orthomax rotation: invariants and oracles."""

import math

import numpy as np
import pytest

from simpca import (
    RotationCriterion,
    SelectionStrategy,
    SimpcaPipelineConfig,
    center_scale,
    cf_value,
    fit_pca,
    rotate,
    run_simpca,
)
from simpca import rotation
from simpca.errors import ConfigError, NonFiniteInput
from simpca.pca import deflate
from simpca.report import ingest_csv
from simpca.rotation import _batches, _levels, _plane_angle, _random_orthogonal, _sweep

from conftest import EUROJOBS, random_data


def naive_cf(b, kappa):
    """Triple-loop transliteration of the criterion, used as an oracle."""
    b2 = np.asarray(b, float) ** 2
    p, d = b2.shape
    row = sum(
        b2[i, j] * b2[i, k]
        for i in range(p)
        for j in range(d)
        for k in range(d)
        if j != k
    )
    col = sum(
        b2[i, j] * b2[k, j]
        for j in range(d)
        for i in range(p)
        for k in range(p)
        if i != k
    )
    return (1 - kappa) * row + kappa * col


def test_cf_value_matches_naive():
    rng = np.random.default_rng(0)
    for _ in range(10):
        b = rng.standard_normal((5, 3))
        for kappa in (0.0, 0.3, 1.0):
            assert cf_value(b, kappa) == pytest.approx(
                naive_cf(b, kappa), rel=1e-10
            )


def test_criterion_presets_and_validation():
    assert RotationCriterion.quartimax().kappa(10) == 0.0
    assert RotationCriterion.varimax().kappa(10) == pytest.approx(0.1)
    assert RotationCriterion.equamax(4).kappa(10) == pytest.approx(0.2)
    assert RotationCriterion.crawford_ferguson(0.5).kappa(10) == 0.5
    with pytest.raises(ValueError):
        RotationCriterion.crawford_ferguson(1.5)
    with pytest.raises(ValueError):
        RotationCriterion("orthomax", -1.0)
    with pytest.raises(ValueError):
        RotationCriterion("promax", 0.0)


@pytest.mark.parametrize("build", [
    lambda: RotationCriterion.crawford_ferguson("0.5"),
    lambda: RotationCriterion.crawford_ferguson(None),
    lambda: RotationCriterion("orthomax", None),
    lambda: RotationCriterion.equamax("4"),
], ids=["cf-string", "cf-none", "orthomax-none", "equamax-string"])
def test_criterion_parameter_that_is_not_a_number_is_a_config_error(build):
    # not the TypeError of a comparison or of a division
    with pytest.raises(ConfigError):
        build()


@pytest.mark.parametrize("a, criterion, problem", [
    (np.ones((6, 3)), "varimax", "criterion 'varimax' is not a RotationCriterion"),
    (np.ones(5), RotationCriterion.varimax(), "expected a 2-d matrix"),
    (np.ones((2, 3, 4)), RotationCriterion.varimax(), "expected a 2-d matrix"),
], ids=["name", "vector", "3-d"])
def test_rotate_rejects_a_criterion_or_matrix_it_cannot_take(a, criterion, problem):
    with pytest.raises(ConfigError, match=problem):
        rotate(a, criterion)


def test_orthomax_c_must_be_finite():
    # c < 0 is False for NaN; a NaN or infinite c would run every sweep and
    # return NaN coefficients
    for c in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            RotationCriterion("orthomax", c)
        with pytest.raises(ValueError):
            RotationCriterion.crawford_ferguson(c)


def test_rotation_invariants():
    rng = np.random.default_rng(2)
    for trial in range(15):
        p = int(rng.integers(4, 10))
        d = int(rng.integers(2, min(p, 5) + 1))
        a = rng.standard_normal((p, d))
        kaiser = bool(trial % 2)
        res = rotate(a, RotationCriterion.varimax(), kaiser=kaiser)
        # o is orthogonal and b = a @ o (also with Kaiser: the row scaling
        # commutes with right-multiplication)
        assert np.allclose(res.o.T @ res.o, np.eye(d), atol=1e-10)
        assert np.allclose(res.b, a @ res.o, atol=1e-10)
        # Frobenius norm is preserved, and so is every row norm
        assert np.linalg.norm(res.b) == pytest.approx(np.linalg.norm(a), rel=1e-10)
        assert np.allclose(
            np.linalg.norm(res.b, axis=1), np.linalg.norm(a, axis=1), rtol=1e-10
        )
        assert res.converged


def test_trace_monotone():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = rng.standard_normal((8, 3))
        res = rotate(a, RotationCriterion.varimax())
        assert np.all(np.diff(res.criterion_trace) >= -1e-9)  # maximized
        res = rotate(a, RotationCriterion.crawford_ferguson(0.4))
        assert np.all(np.diff(res.criterion_trace) <= 1e-9)  # minimized


def test_two_column_rotation_matches_grid_search():
    # global 1e-4-radian grid oracle over the single rotation angle
    rng = np.random.default_rng(4)
    for trial in range(8):
        a = rng.standard_normal((int(rng.integers(4, 9)), 2))
        crit = [
            RotationCriterion.varimax(),
            RotationCriterion.quartimax(),
            RotationCriterion.crawford_ferguson(0.3),
        ][trial % 3]
        kappa = crit.kappa(a.shape[0])
        res = rotate(a, crit)
        thetas = np.arange(0.0, np.pi / 2, 1e-4)
        best = min(
            cf_value(
                a
                @ np.array(
                    [
                        [np.cos(t), -np.sin(t)],
                        [np.sin(t), np.cos(t)],
                    ]
                ),
                kappa,
            )
            for t in thetas
        )
        assert cf_value(res.b, kappa) <= best + 1e-6


def plane_angle(u, v, kappa):
    w = (u + 1j * v) ** 2
    return _plane_angle(complex(w.sum()), complex(w @ w), kappa)


def _plane_value(u, v, kappa, theta):
    ct, st = np.cos(theta), np.sin(theta)
    return cf_value(np.column_stack([u * ct + v * st, -u * st + v * ct]), kappa)


def harmonic_fit_angle(u, v, kappa):
    """Reference plane angle: fit c0, c3, c4 of
    g(theta) = c0 + c3 cos(4 theta) + c4 sin(4 theta) from three evaluations
    of the whole criterion, then minimize the harmonic."""
    g0 = _plane_value(u, v, kappa, 0.0)
    g1 = _plane_value(u, v, kappa, np.pi / 8)
    g2 = _plane_value(u, v, kappa, -np.pi / 8)
    c0 = 0.5 * (g1 + g2)
    c4 = 0.5 * (g1 - g2)
    c3 = g0 - c0
    if np.hypot(c3, c4) == 0.0:
        return 0.0
    return np.arctan2(-c4, -c3) / 4.0


def test_plane_angle_matches_harmonic_fit():
    rng = np.random.default_rng(12)
    for trial in range(60):
        p = int(rng.integers(2, 12))
        u, v = rng.standard_normal((2, p)) * rng.uniform(0.1, 10.0)
        kappa = (0.0, 1.0, float(rng.uniform()))[trial % 3]
        scale = max(1.0, _plane_value(u, v, kappa, 0.0))
        got = _plane_value(u, v, kappa, plane_angle(u, v, kappa))
        ref = _plane_value(u, v, kappa, harmonic_fit_angle(u, v, kappa))
        assert got == pytest.approx(ref, abs=1e-12 * scale)
        assert got <= _plane_value(u, v, kappa, 0.0) + 1e-12 * scale


def test_plane_angle_flat_plane_is_zero():
    # W = 0: two zero columns, and (at kappa = 1) a one-entry column beside a
    # zero column, where the criterion does not change under rotation
    zero = np.zeros(4)
    assert plane_angle(zero, zero, 0.3) == 0.0
    assert plane_angle(zero, np.array([0.0, 0.0, 2.0, 0.0]), 1.0) == 0.0


def cyclic_sweep(b, o, kappa):
    """The sweep as one plane at a time in the cyclic order (0, 1), (0, 2),
    ..., (d - 2, d - 1): the oracle for the level-by-level ``_sweep``."""
    p, d = b.shape
    rows = np.hstack([b.T, o.T])
    for j in range(d - 1):
        for k in range(j + 1, d):
            theta = plane_angle(rows[j, :p], rows[k, :p], kappa)
            if theta == 0.0:
                continue
            ct, st = math.cos(theta), math.sin(theta)
            pair = rows[j : k + 1 : k - j]  # view of rows j and k
            pair[...] = np.array([[ct, st], [-st, ct]]) @ pair
    b[...] = rows[:, :p].T
    o[...] = rows[:, p:].T


def assert_same_bits(x, y):
    assert np.array_equal(x, y)
    assert np.array_equal(np.signbit(x), np.signbit(y))


def test_level_schedule_is_the_cyclic_order_per_row():
    for d in range(2, 41):
        levels = _levels(d)
        assert len(levels) == 2 * d - 3
        planes = [tuple(int(r) for r in pair) for level in levels for pair in level]
        # every plane j < k exactly once
        assert sorted(planes) == [(j, k) for j in range(d - 1) for k in range(j + 1, d)]
        # no row twice within one level
        for level in levels:
            assert len(set(level.ravel().tolist())) == level.size
        # each row meets its planes in the same order as in the cyclic loop
        cyclic = sorted(planes)
        for row in range(d):
            assert [q for q in planes if row in q] == [q for q in cyclic if row in q]


def walk_batches(d, lanes, calls):
    """Walk the batches of consecutive ``_sweep`` calls, given as (first,
    ahead), without turning anything. Returns each row's planes (j, k) of
    its lane in the order it meets them, and per call how many planes each
    row had met when ``done`` took it (None if never)."""
    met = [[] for _ in range(d * lanes)]
    taken = []
    for first, ahead in calls:
        counts = [None] * (d * lanes)
        for pairs, ends in _batches(d, lanes, first, ahead):
            rows = pairs.ravel().tolist()
            assert len(set(rows)) == len(rows)  # no row twice in a batch
            for j, k in pairs.tolist():
                assert j // d == k // d  # a plane stays within its lane
                met[j].append((j % d, k % d))
                met[k].append((j % d, k % d))
            if ends is not None:
                for row in np.arange(d * lanes)[ends].tolist():
                    assert counts[row] is None  # taken once per call
                    counts[row] = len(met[row])
        taken.append(counts)
    return met, taken


# consecutive calls as ``rotate`` makes them: one sweep alone, sweeps that
# run ahead, and a call without ``ahead`` followed by a fresh first call
SWEEP_CALLS = (
    [(True, False)],
    [(True, True), (False, False)],
    [(True, True), (False, True), (False, True), (False, False)],
    [(True, False), (True, True), (False, False)],
)


def test_batches_keep_the_cyclic_order_across_sweeps():
    for d in range(2, 41):
        cyclic = [(j, k) for j in range(d - 1) for k in range(j + 1, d)]
        for lanes in (1, 2, 3):
            for calls in SWEEP_CALLS:
                met, _ = walk_batches(d, lanes, calls)
                for row in range(d * lanes):
                    own = [q for q in cyclic if row % d in q]
                    assert met[row] == own * len(calls)
        # after the first call, a sweep that runs ahead costs min(d, 2d - 3)
        # batches, not 2d - 3
        assert len(_batches(d, 1, True, True)) == 2 * d - 3
        assert len(_batches(d, 1, False, True)) == min(d, 2 * d - 3)


def test_done_takes_each_row_as_it_ends_its_sweep():
    # in the call that ends sweep s, ``done`` takes every row once, when it
    # has met its d - 1 planes of that sweep and none of the next
    for d in range(2, 41):
        for lanes in (1, 2, 3):
            for calls in SWEEP_CALLS:
                _, taken = walk_batches(d, lanes, calls)
                for sweep, counts in enumerate(taken, start=1):
                    assert counts == [sweep * (d - 1)] * (d * lanes)


def sweep_inputs(rng, count):
    """Coefficient blocks of many shapes, some with rounded entries (exact
    ties and flat planes), zero rows, zero columns, zeros of both signs and
    entries spread down to the subnormal range."""

    def zeros(shape):
        # zeros of one sign, or of random signs
        if rng.random() < 0.5:
            return np.full(shape, rng.choice([0.0, -0.0]))
        return rng.choice([0.0, -0.0], size=shape)

    for trial in range(count):
        p = int(rng.integers(2, 81))
        d = int(rng.integers(2, 25))
        o = _random_orthogonal(d, rng) if trial % 6 == 5 else np.eye(d)
        b = rng.standard_normal((p, d)) * rng.uniform(0.1, 10.0) @ o
        if trial % 3 == 0:
            b = np.round(b, int(rng.integers(0, 2)))
        if trial % 4 == 1:
            i = rng.integers(0, p, size=int(rng.integers(1, p + 1)))
            b[i] = zeros((len(i), d))
        if trial % 5 == 2:
            k = rng.integers(0, d, size=int(rng.integers(1, d + 1)))
            b[:, k] = zeros((p, len(k)))
        if trial % 7 == 3:
            mask = rng.random((p, d)) < (1.0 if trial % 2 else 0.5)
            b[mask] = zeros(int(mask.sum()))
        if trial % 8 == 6:
            b *= 10.0 ** rng.integers(-320, 1, size=(p, d))  # down to subnormal
        kappa = (0.0, 0.5, 1.0, 1.0 / p, float(rng.uniform()))[trial % 5]
        yield b, o, kappa


def lanes_of(b, o, rng):
    """1-4 lanes of the shape of (b, o): the input itself, then copies with
    their columns permuted and signs flipped, their rows permuted, or both,
    so that every lane keeps the input's zeros, ties and subnormals but
    turns its own planes."""
    p, d = b.shape
    lanes = [(b, o)]
    for _ in range(int(rng.integers(0, 4))):
        cols = rng.permutation(d)
        signs = rng.choice([-1.0, 1.0], size=d)
        rows = rng.permutation(p) if rng.random() < 0.5 else np.arange(p)
        lanes.append((b[rows][:, cols] * signs, o[:, cols] * signs))
    return [(lb.copy(), lo.copy()) for lb, lo in lanes]


def test_sweep_matches_cyclic_oracle_bit_for_bit():
    # after every sweep, every lane's rows in ``done`` hold the bits of the
    # plane-by-plane loop on that lane alone, whether or not the call also
    # started the next sweep
    rng = np.random.default_rng(14)
    stacked = overlapped = 0
    for b, o, kappa in sweep_inputs(rng, 400):
        p, d = b.shape
        lanes = lanes_of(b, o, rng)
        stacked += len(lanes) > 1
        refs = [(lb.copy(), lo.copy()) for lb, lo in lanes]
        rows = np.vstack([rotation._lane_rows(lb, lo) for lb, lo in lanes])
        done = np.empty_like(rows)
        first = True
        for _ in range(int(rng.integers(1, 6))):
            ahead = bool(rng.random() < 0.7)
            _sweep(rows, done, p, kappa, first, ahead)
            first = not ahead
            overlapped += ahead and d > 3
            for lane, (ref_b, ref_o) in enumerate(refs):
                cyclic_sweep(ref_b, ref_o, kappa)
                assert_same_bits(done[lane * d : (lane + 1) * d, :p].T, ref_b)
                assert_same_bits(done[lane * d : (lane + 1) * d, p:].T, ref_o)
    assert stacked > 250 and overlapped > 400


def sequential_rotate(a, criterion, kaiser, tol, max_sweeps, restarts, seed):
    """``rotate`` as one restart after another, each swept plane by plane
    with ``cyclic_sweep``: the oracle for the lanes. Returns the winning
    result's fields and every restart's (sweeps, converged)."""
    p, d = a.shape
    if kaiser:
        row_norms = np.linalg.norm(a, axis=1)
        row_norms[row_norms <= p * rotation.EPS * row_norms.max()] = 1.0
        work = a / row_norms[:, None]
    else:
        work = a
    kappa = criterion.kappa(p)
    minimize = criterion.family == "crawford-ferguson"
    rng = np.random.default_rng(seed)
    best, runs = None, []
    for restart in range(restarts):
        o = np.eye(d) if restart == 0 else _random_orthogonal(d, rng)
        b = work @ o
        trace = [rotation._trace_value(b, criterion, kappa)]
        converged, sweeps = False, 0
        for sweeps in range(1, max_sweeps + 1):
            cyclic_sweep(b, o, kappa)
            trace.append(rotation._trace_value(b, criterion, kappa))
            if abs(trace[-1] - trace[-2]) <= tol * max(1.0, abs(trace[-2])):
                converged = True
                break
        runs.append((sweeps, converged))
        if (
            best is None
            or (minimize and trace[-1] < best[2][-1])
            or (not minimize and trace[-1] > best[2][-1])
        ):
            best = (b, o, trace, sweeps, converged, restart)
    b, o, trace, sweeps, converged, restart = best
    if kaiser:
        b = b * row_norms[:, None]
    return (b, o, np.asarray(trace), sweeps, converged, restart), runs


def assert_rotate_matches_oracle(a, criterion, kaiser, tol, max_sweeps, restarts):
    """``rotate`` gives the bits of ``sequential_rotate``; returns every
    restart's (sweeps, converged)."""
    got = rotate(a, criterion, kaiser=kaiser, tol=tol, max_sweeps=max_sweeps,
                 restarts=restarts, seed=5)
    want, runs = sequential_rotate(a, criterion, kaiser, tol, max_sweeps, restarts, seed=5)
    assert_same_bits(got.b, want[0])
    assert_same_bits(got.o, want[1])
    assert_same_bits(got.criterion_trace, want[2])
    assert (got.sweeps_used, got.converged) == want[3:5]
    assert got.restart == want[5]
    return runs


def test_rotate_matches_cyclic_oracle():
    rng = np.random.default_rng(15)
    inputs = []
    for trial in range(8):
        p = int(rng.integers(6, 25))
        # d = 2 and 3 run no level of the next sweep ahead, d = 4 one level
        d = (2, 3, 4)[trial] if trial < 3 else int(rng.integers(2, min(p, 7) + 1))
        a = rng.standard_normal((p, d))
        if trial % 2:
            a[int(rng.integers(p))] = 0.0  # a zero row, kept zero by Kaiser
        inputs.append(a)
    criteria = (RotationCriterion.varimax(), RotationCriterion.crawford_ferguson(0.5))
    staggered = at_limit = mixed = 0
    for a in inputs:
        for criterion in criteria:
            for kaiser in (False, True):
                for restarts in (1, 2, 3, 5):
                    for tol, max_sweeps in ((1e-8, 1000), (1e-5, 6), (1e-3, 3), (0.0, 2),
                                            (0.0, 1)):
                        runs = assert_rotate_matches_oracle(a, criterion, kaiser, tol,
                                                            max_sweeps, restarts)
                        ended = {sweeps for sweeps, converged in runs if converged}
                        staggered += len(ended) > 1
                        at_limit += any(not converged for _, converged in runs)
                        mixed += len({converged for _, converged in runs}) > 1
    # lanes retired at different sweeps, lanes ran to the limit, and both
    # happened within one call
    assert staggered > 20 and at_limit > 20 and mixed > 20
    # the widths of the benchmark workloads, d = 8 and 16, at their fixed
    # sweep counts
    for p, d in ((40, 8), (48, 16)):
        a = rng.standard_normal((p, d))
        a[int(rng.integers(p))] = 0.0
        for criterion in criteria:
            for kaiser in (False, True):
                for restarts in (1, 2):
                    for max_sweeps in (3, 4):
                        assert_rotate_matches_oracle(a, criterion, kaiser, 0.0, max_sweeps,
                                                     restarts)


@pytest.mark.parametrize("setting, problem", [
    (dict(seed=-1), "seed -1 is not at least 0"),
    (dict(seed=1.5), "seed 1.5 is not an integer"),
    (dict(restarts=1.5), "restarts 1.5 is not an integer"),
    (dict(restarts=0), "restarts 0 is not at least 1"),
    (dict(max_sweeps=2.5), "max_sweeps 2.5 is not an integer"),
    (dict(max_sweeps=0), "max_sweeps 0 is not at least 1"),
    (dict(tol=math.nan), "rotation tol nan is not a finite number"),
    (dict(tol=math.inf), "rotation tol inf is not a finite number"),
    (dict(tol=-1e-8), "rotation tol -1e-08 is not a finite number"),
    (dict(tol="0"), "rotation tol '0' is not a finite number"),
    (dict(kaiser="no"), "kaiser 'no' is not a bool"),
    (dict(kaiser=None), "kaiser None is not a bool"),
])
def test_rotate_settings_are_config_errors(setting, problem):
    # checked at entry, the seed too with one restart, which draws no start
    a = np.random.default_rng(0).standard_normal((6, 3))
    with pytest.raises(ConfigError, match=problem):
        rotate(a, RotationCriterion.varimax(), **setting)


def test_rotate_takes_a_numpy_bool_for_kaiser():
    a = np.random.default_rng(0).standard_normal((6, 3))
    for kaiser in (True, False):
        want = rotate(a, RotationCriterion.varimax(), kaiser=kaiser)
        got = rotate(a, RotationCriterion.varimax(), kaiser=np.bool_(kaiser))
        assert np.array_equal(got.b, want.b)


def test_rotate_names_the_winning_restart():
    # restart r is a single-start rotation of a @ (r-th start): the winner's
    # b is that run's b, and no other start ends at a better criterion
    rng = np.random.default_rng(16)
    winners = set()
    for trial in range(20):
        p = int(rng.integers(5, 13))
        d = int(rng.integers(2, min(p, 5) + 1))
        a = rng.standard_normal((p, d))
        criterion = (RotationCriterion.varimax(), RotationCriterion.crawford_ferguson(1.0))[trial % 2]
        got = rotate(a, criterion, restarts=4, seed=trial)
        draws = np.random.default_rng(trial)
        starts = [np.eye(d)] + [_random_orthogonal(d, draws) for _ in range(3)]
        singles = [rotate(a @ start, criterion) for start in starts]
        assert np.array_equal(got.b, singles[got.restart].b)
        assert_same_bits(got.criterion_trace, singles[got.restart].criterion_trace)
        finals = [single.criterion_trace[-1] for single in singles]
        best = min(finals) if criterion.family == "crawford-ferguson" else max(finals)
        assert finals.index(best) == got.restart
        winners.add(got.restart)
    assert len(winners) > 1


def gpa_rotation(a, value_and_gradient, tol=1e-5, max_iter=500):
    """Orthogonal gradient-projection rotation minimizing a criterion
    (Bernaards & Jennrich 2005), started at the identity. Returns the
    criterion value it reaches."""
    t = np.eye(a.shape[1])
    f, grad = value_and_gradient(a)
    g = a.T @ grad
    step = 1.0
    for _ in range(max_iter):
        m = t.T @ g
        projected = g - t @ (m + m.T) / 2
        s = np.linalg.norm(projected)
        if s < tol:
            break
        step *= 2
        for _ in range(20):
            u, _, vt = np.linalg.svd(t - step * projected)
            new_t = u @ vt
            new_f, new_grad = value_and_gradient(a @ new_t)
            if new_f < f - 0.5 * s * s * step:
                break
            step /= 2
        t, f, g = new_t, new_f, a.T @ new_grad
    return f


def cf_value_and_gradient(kappa):
    def value_and_gradient(b):
        b2 = b**2
        rows = b2.sum(axis=1, keepdims=True)
        cols = b2.sum(axis=0, keepdims=True)
        grad = 4 * b * ((1 - kappa) * (rows - b2) + kappa * (cols - b2))
        return cf_value(b, kappa), grad

    return value_and_gradient


def negated_varimax_and_gradient(b):
    # minus the maximized trace value p*sum(b^4) - sum_j(colsumsq_j)^2
    b2 = b**2
    cols = b2.sum(axis=0)
    value = b.shape[0] * np.sum(b2**2) - np.sum(cols**2)
    return -value, -4 * b * (b.shape[0] * b2 - cols)


def test_rotate_no_worse_than_gradient_projection():
    # noisy simple structure under a random rotation: the setting rotation is
    # for, where the optimum's basin is wide enough for both methods to share
    rng = np.random.default_rng(13)
    for d in (3, 4, 5):
        for _ in range(2):
            p = 4 * d
            loadings = np.zeros((p, d))
            loadings[np.arange(p), np.arange(p) % d] = rng.uniform(0.5, 1.0, p)
            loadings += 0.2 * rng.standard_normal((p, d))
            q, _ = np.linalg.qr(rng.standard_normal((d, d)))
            a = loadings @ q
            for kappa in (0.0, 0.5, 1.0):
                res = rotate(a, RotationCriterion.crawford_ferguson(kappa), tol=1e-13)
                oracle = gpa_rotation(a, cf_value_and_gradient(kappa))
                assert res.criterion_trace[-1] <= oracle + 1e-8 * max(1.0, abs(oracle))
            res = rotate(a, RotationCriterion.varimax(), tol=1e-13)
            oracle = -gpa_rotation(a, negated_varimax_and_gradient)
            assert res.criterion_trace[-1] >= oracle - 1e-8 * max(1.0, abs(oracle))


def test_varimax_agrees_with_statsmodels():
    statsmodels = pytest.importorskip("statsmodels.multivariate.factor_rotation")
    rng = np.random.default_rng(5)
    for _ in range(5):
        x = random_data(rng, n=20, p=7)
        model = fit_pca(x, 3)
        a = model.v / model.lam
        a = a / np.linalg.norm(a, axis=1)[:, None]  # Kaiser by hand
        res = rotate(a, RotationCriterion.varimax())
        oracle, _ = statsmodels.rotate_factors(a, "varimax")
        # compare up to column permutation and sign
        m = np.abs(res.b.T @ oracle) / (
            np.linalg.norm(res.b, axis=0)[:, None]
            * np.linalg.norm(oracle, axis=0)[None, :]
        )
        perm = np.argmax(m, axis=1)
        assert sorted(perm) == [0, 1, 2]
        assert np.all(m[np.arange(3), perm] > 1.0 - 1e-6)


def test_cf_kappa_zero_equals_quartimax_objective():
    # Theorem-style equivalence on a matrix with orthogonal equal-norm
    # columns: CF minimization at any kappa maximizes sum(b^4)
    rng = np.random.default_rng(6)
    for g in (0.5, 1.0, 2.0):
        q, _ = np.linalg.qr(rng.standard_normal((8, 3)))
        a = np.sqrt(g) * q
        values = []
        for kappa in (0.0, 0.25, 0.5, 1.0):
            res = rotate(a, RotationCriterion.crawford_ferguson(kappa))
            values.append(np.sum(res.b**4))
        values = np.asarray(values)
        assert np.all(np.abs(values - values[0]) <= 1e-6 * np.abs(values[0]))


def test_kaiser_zero_row_stays_zero():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((6, 3))
    a[2] = 0.0
    res = rotate(a, RotationCriterion.varimax(), kaiser=True)
    assert np.all(res.b[2] == 0.0)
    assert np.allclose(res.b, a @ res.o, atol=1e-12)
    assert np.allclose(res.o.T @ res.o, np.eye(3), atol=1e-12)
    # a constant column has all-zero PCA coefficients, so Kaiser
    # normalization meets a zero row whenever two or more components rotate
    names, values, _, _ = ingest_csv(EUROJOBS, id_column="country")
    x = center_scale(np.column_stack([values, np.full(values.shape[0], 7.0)]))
    config = SimpcaPipelineConfig(
        nd=3, nr=4, kaiser=True, strategy=SelectionStrategy(kind="forward", alpha=0.95)
    )
    result = run_simpca(x, config)
    assert sum(c.extra_vexp for c in result.components) <= result.total_variance * (1 + 1e-12)
    scores = np.column_stack([c.scores for c in result.components])
    q = deflate(x, scores)
    resid = np.max(np.abs(q.T @ scores)) / (np.linalg.norm(q) * np.linalg.norm(scores))
    assert resid <= 1e-10


def test_rotate_non_finite_input():
    a = np.ones((4, 2))
    for bad in (np.nan, np.inf):
        a[2, 1] = bad
        with pytest.raises(NonFiniteInput) as err:
            rotate(a, RotationCriterion.varimax())
        assert (err.value.row, err.value.col) == (2, 1)


def test_rotate_shape_validation():
    with pytest.raises(ValueError):
        rotate(np.ones((5, 1)), RotationCriterion.varimax())
    with pytest.raises(ValueError):
        rotate(np.ones((2, 3)), RotationCriterion.varimax())
    with pytest.raises(ValueError):
        rotate(np.eye(3)[:, :2], RotationCriterion.varimax(), restarts=0)


def test_restarts_never_worse():
    rng = np.random.default_rng(7)
    for _ in range(5):
        a = rng.standard_normal((7, 3))
        crit = RotationCriterion.varimax()
        single = rotate(a, crit)
        multi = rotate(a, crit, restarts=5, seed=11)
        assert multi.criterion_trace[-1] >= single.criterion_trace[-1] - 1e-9
