"""Property tests of ``run_simpca`` on small, awkward inputs.

Matrices are 2-8 rows by 2-8 columns of small integers, so ties, p > n,
rank deficiency, duplicate and constant columns all come up; one column is
sometimes copied over another and one sometimes made constant on purpose.
Every selection strategy, every sparsifier and both deflation modes run.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from simpca import (
    SelectionStrategy,
    SimpcaPipelineConfig,
    center_scale,
    deflate,
    run_simpca,
)
from simpca.errors import SimpcaError, ZeroVarianceColumn

KINDS = (
    "fixed-threshold",
    "adaptive-threshold",
    "iterative-reverse-threshold",
    "forward",
    "backward",
    "stepwise",
)
METHODS = ("pspca", "cspca", "uspca", "plain")
# max|Q'T| / (||Q|| ||T||) after deflating X against the accepted scores T
DEFLATION_TOL = 1e-10
ALL_EXPLAINED = 1e-12


@st.composite
def pipeline_inputs(draw):
    n = draw(st.integers(2, 8))
    p = draw(st.integers(2, 8))
    raw = np.array(
        draw(st.lists(st.integers(-4, 4), min_size=n * p, max_size=n * p)), float
    ).reshape(n, p)
    if draw(st.booleans()):
        i, j = draw(st.permutations(range(p)))[:2]
        raw[:, j] = raw[:, i]
    if draw(st.booleans()):
        raw[:, draw(st.integers(0, p - 1))] = draw(st.integers(-4, 4))
    try:
        x = center_scale(raw, draw(st.sampled_from(["none", "unit-variance"])))
    except ZeroVarianceColumn:
        x = center_scale(raw)
    nr = draw(st.integers(1, p))
    config = SimpcaPipelineConfig(
        nd=draw(st.integers(1, nr)),
        nr=nr,
        strategy=SelectionStrategy(
            kind=draw(st.sampled_from(KINDS)),
            alpha=draw(st.sampled_from([0.5, 0.95, 1.0])),
        ),
        method=draw(st.sampled_from(METHODS)),
        deflate=draw(st.booleans()),
    )
    return x, config


def _run(x, config):
    """The result, or the error type for a typed failure."""
    try:
        return run_simpca(x, config)
    except (SimpcaError, ValueError) as exc:
        return type(exc)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(pipeline_inputs())
def test_typed_error_or_valid_accounting(inputs):
    x, config = inputs
    result = _run(x, config)
    if isinstance(result, type):
        return
    cum = math.fsum(c.extra_vexp for c in result.components)
    assert cum <= result.total_variance * (1.0 + 1e-12)
    scores = np.column_stack([c.scores for c in result.components])
    q = deflate(x, scores)
    q_norm = np.linalg.norm(q)
    # When the components explain all of X, Q is round-off with no
    # direction of its own, and the ratio below reads about 1 for any Q'T
    # at round-off level; the residual is 0 then.
    if q_norm <= ALL_EXPLAINED * np.linalg.norm(x.values):
        return
    resid = float(np.max(np.abs(q.T @ scores)) / (q_norm * np.linalg.norm(scores)))
    assert resid <= DEFLATION_TOL


@settings(derandomize=True, deadline=None, max_examples=60)
@given(pipeline_inputs())
def test_data_matrix_and_array_agree(inputs):
    x, config = inputs
    from_matrix = _run(x, config)
    from_array = _run(np.asarray(x), config)
    if isinstance(from_matrix, type):
        assert from_array is from_matrix
        return
    assert len(from_matrix.components) == len(from_array.components)
    for a, b in zip(from_matrix.components, from_array.components):
        assert a.support.indices == b.support.indices
        assert np.array_equal(a.scores, b.scores)
