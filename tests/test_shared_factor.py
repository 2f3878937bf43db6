"""Pipelines on one DataMatrix share its factor, spectrum and step 1.

A DataMatrix computes the triangular factor F of its values, F's spectrum
and the step-1 rotated components of the latest rotation setting once, and
keeps them read-only. Every result on it must have the bits that the same
call gets on a fresh copy of the data, which computes everything anew.
"""

import itertools
import pickle
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

from simpca import (
    RotationCriterion,
    SelectionStrategy,
    SimpcaPipelineConfig,
    center_scale,
    core,
    fit_pca,
    rotation,
    run_simpca,
)
from simpca.core import DataMatrix
from simpca.errors import SimpcaError
from simpca.report import ingest_csv

from conftest import EUROJOBS, random_data

STRATEGIES = (
    SelectionStrategy("forward", alpha=0.9),
    SelectionStrategy("backward", alpha=0.9),
    SelectionStrategy("stepwise", alpha=0.9),
    SelectionStrategy("fixed-threshold", threshold=0.3),
)
METHODS = ("pspca", "cspca", "uspca", "plain")
# two rotation settings that differ in every field step 1 reads but nr
SETTINGS = (
    dict(),
    dict(criterion=RotationCriterion.crawford_ferguson(0.5), coefficient_scaling="unit-l2",
         kaiser=False, rotation_tol=1e-10, max_sweeps=50, restarts=2, seed=3),
)


def _eurojobs(scaling):
    names, values, _, _ = ingest_csv(EUROJOBS, id_column="country")
    return lambda: center_scale(values, scaling, names)


def _random(seed, n, p, duplicate=False):
    """A fresh copy of the same random_data factor on every call; with
    ``duplicate`` its first two columns come twice (rank p, 2 + p columns)."""
    def make():
        x = random_data(np.random.default_rng(seed), n=n, p=p)
        if duplicate:
            return center_scale(np.column_stack([x.values, x.values[:, :2]]))
        return x
    return make


DATA = {
    "eurojobs-none": _eurojobs("none"),
    "eurojobs-unit-variance": _eurojobs("unit-variance"),
    "random": _random(1, 30, 8),
    "p-above-n": _random(2, 9, 14),
    "rank-deficient": _random(3, 25, 6, duplicate=True),
}


def _outcome(x, config):
    """The result of a run, or the type of its typed error."""
    try:
        return run_simpca(x, config)
    except SimpcaError as exc:
        return type(exc)


def _assert_same_bits(got, want):
    if isinstance(want, type):
        assert got is want
        return
    for name in ("factor", "pca_vexp", "rotated_vexp"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.total_variance == want.total_variance
    assert len(got.components) == len(want.components)
    for a, b in zip(got.components, want.components):
        # the support's indices, R^2 and trace, R^2 steps included
        assert a.support == b.support
        for name in ("coefficients", "scores", "contributions"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert (a.vexp, a.extra_vexp, a.r2_vs_target) == (b.vexp, b.extra_vexp, b.r2_vs_target)


def _configs(nr=4, nd=3):
    """Every strategy, method and deflate switch, the two rotation settings
    interleaved."""
    for i, (strategy, method, deflate) in enumerate(
            itertools.product(STRATEGIES, METHODS, (True, False))):
        yield SimpcaPipelineConfig(nd=nd, nr=nr, strategy=strategy, method=method,
                                   deflate=deflate, **SETTINGS[i % 2])


@pytest.mark.parametrize("data", list(DATA))
def test_pipelines_on_one_data_matrix_have_the_bits_of_fresh_copies(data):
    make = DATA[data]
    x = make()
    outcomes = []
    for config in _configs():
        got = _outcome(x, config)
        _assert_same_bits(got, _outcome(make(), config))
        outcomes.append(got)
        # a fit between pipelines reads the same spectrum as on its own
        for d in (1, 3):
            a, b = fit_pca(x, d), fit_pca(make(), d)
            for name in ("v", "lam", "scores", "vexp"):
                assert np.array_equal(getattr(a, name), getattr(b, name)), name
    # most runs give components, so the comparison is not of error types
    assert sum(not isinstance(o, type) for o in outcomes) >= len(outcomes) // 2


def _counted(monkeypatch):
    """Record every n-space QR (by shape), ``core.svd`` argument and
    ``rotation.rotate`` call; the counts are read off the returned dict."""
    seen = {"qr": [], "svd": [], "rotate": 0}
    qr, svd, rotate = np.linalg.qr, core.svd, rotation.rotate

    def counted_rotate(*args, **kwargs):
        seen["rotate"] += 1
        return rotate(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr",
                        lambda a, mode="reduced": seen["qr"].append(a.shape) or qr(a, mode))
    monkeypatch.setattr(core, "svd", lambda f, n=None: seen["svd"].append(f) or svd(f, n))
    monkeypatch.setattr(rotation, "rotate", counted_rotate)
    return seen


def test_one_qr_one_spectrum_and_one_step_one_rotation_per_setting(monkeypatch):
    x = _eurojobs("unit-variance")()
    seen = _counted(monkeypatch)
    results = [_outcome(x, config) for config in _configs()]
    fit_pca(x, 2)
    assert seen["qr"].count((x.n, x.p)) == 1
    f = next(r.factor for r in results if not isinstance(r, type))
    assert sum(a is f for a in seen["svd"]) == 1
    # step 1 alone (nd = 1): one rotation per change of setting, whatever
    # the strategy, method and deflate switch; the last config above had
    # the second setting
    seen["rotate"] = 0
    for k, (strategy, method) in zip((0, 0, 1, 1, 1, 0), itertools.product(STRATEGIES, METHODS)):
        run_simpca(x, SimpcaPipelineConfig(nd=1, nr=4, strategy=strategy, method=method,
                                           deflate=k == 0, **SETTINGS[k]))
        fit_pca(x, 3)
    assert seen["rotate"] == 3
    assert seen["qr"].count((x.n, x.p)) == 1
    assert sum(a is f for a in seen["svd"]) == 1


@pytest.mark.parametrize("field, value", [
    ("nr", 5), ("coefficient_scaling", "unit-l2"), ("criterion", RotationCriterion.quartimax()),
    ("kaiser", False), ("rotation_tol", 1e-6), ("max_sweeps", 7), ("restarts", 2), ("seed", 1),
])
def test_each_rotation_field_is_a_new_step_one(field, value, monkeypatch):
    # one field at a time: step 1 rotates anew, and the run has the bits of
    # a fresh copy; strategy, method, nd and deflate keep step 1
    make = _eurojobs("none")
    x = make()
    config = SimpcaPipelineConfig(nd=1, nr=4, strategy=STRATEGIES[0])
    run_simpca(x, config)
    seen = _counted(monkeypatch)
    run_simpca(x, replace(config, nd=2, strategy=STRATEGIES[1], method="uspca", deflate=False))
    assert seen["rotate"] == 0
    other = replace(config, **{field: value})
    _assert_same_bits(run_simpca(x, other), run_simpca(make(), other))
    assert seen["rotate"] == 2


def test_an_array_takes_its_own_qr_and_step_one_per_call(monkeypatch):
    x = np.asarray(_eurojobs("none")())
    config = SimpcaPipelineConfig(nd=1, nr=4, strategy=STRATEGIES[0])
    seen = _counted(monkeypatch)
    for _ in range(3):
        run_simpca(x, config)
        fit_pca(x, 2)
    assert seen["qr"].count(x.shape) == 6
    assert len(seen["svd"]) == 6
    assert seen["rotate"] == 3


def test_values_and_kept_arrays_are_read_only():
    x = _eurojobs("none")()
    result = run_simpca(x, SimpcaPipelineConfig(nd=2, nr=4, strategy=STRATEGIES[0]))
    for array in (x.values, result.factor, result.pca_vexp):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0


def test_a_data_matrix_keeps_a_copy_of_a_writeable_array():
    rng = np.random.default_rng(4)
    raw = rng.standard_normal((12, 4))
    x = DataMatrix(values=raw, column_names=("a", "b", "c", "d"))
    view = raw.view()
    view.flags.writeable = False
    y = DataMatrix(values=view, column_names=x.column_names)
    before = raw.copy()
    fit_pca(x, 2)
    raw[:] = 0.0
    for dm in (x, y):
        assert np.array_equal(dm.values, before)
        assert not dm.values.flags.writeable
    # the factor is that of the values, not of the zeroed array
    assert np.array_equal(fit_pca(x, 2).vexp, fit_pca(DataMatrix(before, x.column_names), 2).vexp)


def test_the_cache_is_not_a_field():
    x = _eurojobs("none")()
    fresh = replace(x)
    fit_pca(x, 2)
    assert [f.name for f in fields(x)] == ["values", "column_names"]
    assert list(asdict(x)) == ["values", "column_names"]
    assert repr(x) == repr(fresh)
    assert x == fresh
    back = pickle.loads(pickle.dumps(x))
    assert np.array_equal(back.values, x.values) and not back.values.flags.writeable
    assert back.column_names == x.column_names
