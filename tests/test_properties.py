"""Property tests of ``run_simpca`` on small, awkward inputs.

Matrices are 2-8 rows by 2-8 columns of small integers, so ties, p > n,
rank deficiency, duplicate and constant columns all come up; one column is
sometimes copied over another and one sometimes made constant on purpose.
Every selection strategy, every sparsifier and both deflation modes run.
Row-permutation invariance is checked on factor data instead (see
``factor_inputs``): a permutation changes only the rounding, so it can only
hold where no decision sits within rounding of its boundary.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simpca import (
    SelectionStrategy,
    SimpcaPipelineConfig,
    center_scale,
    cspca_component,
    project_component,
    run_simpca,
    uspca_component,
)
from simpca.core import svd
from simpca.errors import SimpcaError, ZeroVarianceColumn
from simpca.pca import deflate
from simpca.selection import KINDS, SupportSet
from simpca.sparse import METHODS

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
    # nr up to the rank of the drawn matrix, and in about one draw in ten
    # just above it, so that RankExceeded stays covered
    rank = svd(x)[0].size
    nr = rank + 1 if draw(st.integers(1, 10)) == 10 else draw(st.integers(1, max(rank, 1)))
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
    except SimpcaError as exc:
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


@st.composite
def factor_inputs(draw):
    """Factor data whose rotated components are well determined.

    k factors with scales 1.5^-j plus noise of 0.05, n >= 2p, and at most
    k - nd + 1 rotated components, so the last deflated step still rotates
    factor directions, not noise. Kaiser normalization is off: the
    coefficient row of a variable deflation has explained away can sit
    just above the round-off cut of ``rotate`` (p * eps times the largest
    row norm), and its unit weight then lets rounding steer the rotation.
    """
    p = draw(st.integers(3, 8))
    n = draw(st.integers(2 * p, 30))
    k = draw(st.integers(2, p))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    factors = rng.standard_normal((n, k)) * 1.5 ** -np.arange(k)
    raw = factors @ rng.standard_normal((k, p)) + 0.05 * rng.standard_normal((n, p))
    nd = draw(st.integers(1, (k + 1) // 2))
    nr = draw(st.integers(nd, k - nd + 1))
    config = SimpcaPipelineConfig(
        nd=nd,
        nr=nr,
        strategy=SelectionStrategy(
            kind=draw(st.sampled_from(KINDS)),
            alpha=draw(st.sampled_from([0.5, 0.9, 0.99])),
        ),
        method=draw(st.sampled_from(METHODS)),
        deflate=draw(st.booleans()),
        kaiser=False,
    )
    scaling = draw(st.sampled_from(["none", "unit-variance"]))
    return raw, scaling, draw(st.permutations(range(n))), config


@settings(derandomize=True, deadline=None, max_examples=60)
@given(factor_inputs())
def test_row_permutation_keeps_supports_and_extra_vexp(inputs):
    raw, scaling, perm, config = inputs
    before = _run(center_scale(raw, scaling), config)
    after = _run(center_scale(raw[perm], scaling), config)
    if isinstance(before, type):
        assert after is before
        return
    for a, b in zip(before.components, after.components, strict=True):
        assert a.support.indices == b.support.indices
        assert b.extra_vexp == pytest.approx(a.extra_vexp, rel=1e-9)


def test_kaiser_after_a_singleton_depends_on_row_order():
    rng = np.random.default_rng(1)
    raw = rng.standard_normal((30, 4)) @ rng.standard_normal((4, 8))
    raw += 0.05 * rng.standard_normal((30, 8))
    perm = rng.permutation(30)
    config = SimpcaPipelineConfig(
        nd=2, nr=3, strategy=SelectionStrategy(kind="fixed-threshold", threshold=0.5)
    )
    before = run_simpca(center_scale(raw), config)
    after = run_simpca(center_scale(raw[perm]), config)
    # the first support is one variable; deflating it away leaves its
    # column of Q, and its coefficient row, at round-off
    assert before.components[0].support.indices == (7,)
    assert after.components[1].support.indices == before.components[1].support.indices


@st.composite
def fixed_support_inputs(draw):
    """X, up to two accepted score vectors, a support and a target."""
    x, _ = draw(pipeline_inputs())
    combos = st.lists(st.integers(-3, 3), min_size=x.p, max_size=x.p)
    scores = [x.values @ np.array(draw(combos), float) for _ in range(draw(st.integers(0, 2)))]
    indices = sorted(draw(st.sets(st.integers(0, x.p - 1), min_size=1)))
    target = x.values @ np.array(draw(combos), float)
    return x, [t for t in scores if np.any(t)], SupportSet(indices=tuple(indices)), target


@settings(derandomize=True, deadline=None, max_examples=300)
@given(fixed_support_inputs())
def test_cspca_dominates_on_a_fixed_support(inputs):
    """CSPCA maximizes extra vexp over the support, so on the same support
    and deflated matrix it explains at least what PSPCA and USPCA do. The
    tolerance is relative to the total variance: when the support lies in
    the span of the accepted scores, every method's extra vexp is round-off
    and a ratio of two of them is noise."""
    x, accepted, support, target = inputs
    q = deflate(x, np.column_stack(accepted)) if accepted else x.values
    try:
        best = cspca_component(x, q, support).extra_vexp
    except SimpcaError:  # a singular support has no CSPCA
        return
    slack = 1e-12 * x.total_variance
    for build in (
        lambda: project_component(x, support, target, q=q),
        lambda: uspca_component(x, q, support, accepted),
    ):
        try:
            other = build().extra_vexp
        except SimpcaError:  # zero target, or no orthogonal score on the support
            continue
        assert best >= other - slack
