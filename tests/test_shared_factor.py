"""Pipelines on one DataMatrix share its factor, its SVD and step 1.

A DataMatrix computes the triangular factor F of its values, the one SVD
of F, which gives the spectrum and seeds every backward selection on all of
F's columns, and the step-1 rotated components of the latest rotation
setting once, and keeps them read-only. Every result on it must have the
bits that the same call gets on a fresh copy of the data, which computes
everything anew.
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
    cli,
    fit_pca,
    rotation,
    run_simpca,
    selection,
)
from simpca.core import DataMatrix, _factor_of
from simpca.errors import SimpcaError
from simpca.report import ingest_csv
from simpca.selection import backward_select

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
    """Record every n-space QR (by shape), a copy of every LAPACK SVD's
    input and every ``rotation.rotate`` call; the counts are read off the
    returned dict."""
    seen = {"qr": [], "svd": [], "rotate": 0}
    qr, svd, rotate = np.linalg.qr, np.linalg.svd, rotation.rotate

    def counted_rotate(*args, **kwargs):
        seen["rotate"] += 1
        return rotate(*args, **kwargs)

    def counted_svd(a, *args, **kwargs):
        seen["svd"].append(np.array(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr",
                        lambda a, mode="reduced": seen["qr"].append(a.shape) or qr(a, mode))
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(rotation, "rotate", counted_rotate)
    return seen


def _svds_of(seen, f):
    """How many LAPACK SVDs took a matrix with the bits of f, whether f
    itself or a copy of its columns."""
    return sum(a.shape == f.shape and np.array_equal(a, f) for a in seen["svd"])


def test_one_qr_one_spectrum_and_one_step_one_rotation_per_setting(monkeypatch):
    x = _eurojobs("unit-variance")()
    seen = _counted(monkeypatch)
    results = [_outcome(x, config) for config in _configs()]
    fit_pca(x, 2)
    assert seen["qr"].count((x.n, x.p)) == 1
    f = next(r.factor for r in results if not isinstance(r, type))
    assert _svds_of(seen, f) == 1
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
    assert _svds_of(seen, f) == 1


@pytest.mark.parametrize("data", ["eurojobs-none", "eurojobs-unit-variance", "random",
                                  "rank-deficient"])
def test_one_lapack_svd_of_the_factor_seeds_the_spectrum_and_every_backward_step(
        data, monkeypatch):
    # F is square here, so each backward step would seed its fit on all of
    # F's columns from the very SVD the spectrum came from
    x = DATA[data]()
    seen = _counted(monkeypatch)
    fit_pca(x, 2)
    run_simpca(x, SimpcaPipelineConfig(nd=2, nr=3, strategy=STRATEGIES[0]))
    for alpha, deflate, setting in ((0.9, True, SETTINGS[0]), (0.8, False, SETTINGS[1])):
        result = run_simpca(x, SimpcaPipelineConfig(
            nd=3, nr=4, strategy=SelectionStrategy("backward", alpha=alpha), method="cspca",
            deflate=deflate, **setting))
        # each step dropped a column, so it seeded from the full support
        assert all(c.support.trace[x.p][0] == "-" for c in result.components)
    assert _svds_of(seen, result.factor) == 1


def _bits(support):
    """A support's indices, trace and R^2, each R^2 by its exact bits."""
    def hexed(r2):
        return None if r2 is None else float(r2).hex()
    return (support.indices, hexed(support.r2),
            tuple((op, i, hexed(r2)) for op, i, r2 in support.trace))


def _write_csv(path, values):
    names = [f"v{j + 1}" for j in range(values.shape[1])]
    np.savetxt(path, values, fmt="%.17g", delimiter=",", header=",".join(names), comments="")


@pytest.mark.parametrize("data", ["eurojobs-none", "eurojobs-unit-variance", "rank-deficient",
                                  "p-above-n"])
def test_each_backward_step_is_the_public_backward_select(data, monkeypatch, tmp_path):
    # every step's support, as the pipeline selects it on F, has the bits of
    # the public backward_select on that step's target, which takes every
    # SVD itself: on a DataMatrix, on an array and through the CLI
    steps = []
    select = selection.select_support

    def recorded(f, target, coefficients, strategy):
        support = select(f, target, coefficients, strategy)
        steps.append((np.array(f), target.copy(), strategy.alpha, support))
        return support

    monkeypatch.setattr(selection, "select_support", recorded)
    x = DATA[data]()
    if data.startswith("eurojobs"):
        csv = [EUROJOBS, "--id-column", "country", "--scale", data.split("-", 1)[1]]
    else:
        _write_csv(tmp_path / "x.csv", x.values)
        csv = [str(tmp_path / "x.csv"), "--scale", "none"]
    for alpha, deflate in ((0.9, True), (0.75, False)):
        config = SimpcaPipelineConfig(nd=3, nr=4, strategy=SelectionStrategy(
            "backward", alpha=alpha), method="cspca", deflate=deflate)
        run_simpca(x, config)
        run_simpca(np.asarray(x), config)
        assert cli.main(["simpca", "--input", *csv, "--nr", "4", "--nd", "3", "--select",
                         "backward", "--alpha", str(alpha), "--method", "cspca",
                         "--deflate" if deflate else "--no-deflate",
                         "--out", str(tmp_path / "out.json"), "--format", "json"]) == 0
    assert len(steps) == 2 * 3 * 3
    for f, target, alpha, support in steps:
        assert _bits(support) == _bits(backward_select(f, target, alpha))


def test_a_pca_model_owns_writeable_arrays_on_either_input():
    make = _eurojobs("none")
    x = make()
    want = fit_pca(make(), 3)
    for data in (x, np.asarray(x)):
        model = fit_pca(data, 3)
        for name in ("v", "lam", "scores", "vexp"):
            array = getattr(model, name)
            assert array.flags.writeable and array.flags.owndata, name
            array[...] = 0.0
        # a write to one model reaches neither the kept SVD nor a later fit
        again = fit_pca(data, 3)
        for name in ("v", "lam", "scores", "vexp"):
            assert np.array_equal(getattr(again, name), getattr(want, name)), name


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
    assert _svds_of(seen, np.linalg.qr(x, mode="r")) == 6
    assert seen["rotate"] == 3


@pytest.mark.parametrize("n, p", [(80, 20), (26, 9), (21, 20), (9, 14), (3000, 200)])
def test_the_record_holds_the_factor_of_x_bit_for_bit(n, p):
    # one record per input: a DataMatrix keeps its own, an array or a
    # response makes a new one, and each F has the bits of qr(X, mode="r")
    x = random_data(np.random.default_rng(n), n=n, p=p)
    f = np.linalg.qr(x.values, mode="r")
    rec = _factor_of(x)
    assert _factor_of(x) is rec and _factor_of(rec) is rec
    y = np.random.default_rng(p).standard_normal(n)
    for got in (rec, _factor_of(x.values), _factor_of(x, y=y)):
        assert got.f.shape == f.shape and np.array_equal(got.f, f)
        assert got.n == n and not got.f.flags.writeable
    assert _factor_of(x, y=y).column_names == x.column_names


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
