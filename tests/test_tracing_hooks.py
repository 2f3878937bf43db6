"""The benchmark's tracer wraps simpca functions by module attribute: every
one of them must exist, and the pipeline must call the sparsifiers through
those attributes, or a traced run loses its layer times."""

import importlib.util
from pathlib import Path

import numpy as np

from simpca import (
    RotationCriterion,
    SelectionStrategy,
    SimpcaPipelineConfig,
    center_scale,
    rotate,
    run_simpca,
)

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    tracing = _tracing()
    hooks = tracing.wrapped_functions()
    assert set(hooks) == {*tracing.TIMED, *tracing.COUNTED}
    for path, fn in hooks.items():
        assert callable(fn), path


def test_traced_run_sees_both_ls_sparsifiers():
    tracing = _tracing()
    rng = np.random.default_rng(5)
    x = center_scale(rng.standard_normal((30, 6)) @ rng.standard_normal((6, 6)))
    originals = tracing.wrapped_functions()
    tracer = tracing.Tracer()
    for method in ("cspca", "uspca"):
        config = SimpcaPipelineConfig(
            nd=2, nr=3, method=method, strategy=SelectionStrategy(kind="forward", alpha=0.9)
        )
        with tracer.run(method):
            run_simpca(x, config)
        names = [s["name"] for s in tracer.spans if s["run"] == method]
        assert names.count(f"sparse.{method}_component") == 2
    # the tracer puts every function back after its run
    assert tracing.wrapped_functions() == originals


def test_traced_rotation_counts_one_per_sweep():
    # rotation.sweeps counts _sweep calls: one per sweep of all lanes, also
    # when a call starts the next sweep ahead
    tracing = _tracing()
    a = np.random.default_rng(6).standard_normal((12, 5))
    tracer = tracing.Tracer()
    with tracer.run("rotate"):
        rotate(a, RotationCriterion.varimax(), tol=0.0, max_sweeps=4, restarts=2)
    assert tracer.counts["rotate"]["rotation.sweeps"] == 4
