"""Golden values of ``run_simpca`` on eurojobs in both deflation modes.

``golden/eurojobs_pipeline.json`` holds, for every case, the supports, the
selection traces (op, index, R^2) and the extra vexp of each component, or
the name of the error the run raised. The values were recorded before the
deflated and the non-deflated pipelines shared one loop, so this test pins
that both modes still give the same answers, floats to 1e-12 relative.

The two ``forward``/``plain`` cases were recorded after the plain sparsifier
stopped pairing coefficients with columns in sorted-index order while the
support lists them in selection order (see CHANGES.md).

Regenerate with ``python tests/test_pipeline_golden.py`` (it prints the
JSON) only for a change that is meant to alter the results, and say why.
"""

import json
import os
import sys

import pytest

from simpca import SelectionStrategy, SimpcaPipelineConfig, center_scale, run_simpca
from simpca.errors import SimpcaError
from simpca.report import ingest_csv

from conftest import EUROJOBS

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "eurojobs_pipeline.json")
RTOL = 1e-12

CASES = [
    (kind, deflate, method)
    for kind in ("forward", "fixed-threshold")
    for deflate in (False, True)
    for method in ("pspca", "cspca", "uspca", "plain")
]


def _case_id(kind, deflate, method):
    return f"{kind}-{'deflate' if deflate else 'no-deflate'}-{method}"


def fingerprint(kind, deflate, method):
    names, values, _, _ = ingest_csv(EUROJOBS, id_column="country")
    x = center_scale(values, "unit-variance", names)
    config = SimpcaPipelineConfig(
        nd=3,
        nr=4,
        strategy=SelectionStrategy(kind=kind, alpha=0.95, threshold=0.3),
        method=method,
        deflate=deflate,
    )
    try:
        result = run_simpca(x, config)
    except SimpcaError as exc:
        return {"error": type(exc).__name__}
    return [
        {
            "support": list(c.support.indices),
            "trace": [[op, i, r2] for op, i, r2 in c.support.trace],
            "extra_vexp": c.extra_vexp,
        }
        for c in result.components
    ]


def _same(ref, got, atol=0.0):
    """Floats within RTOL relative (or atol absolute), all else equal."""
    if isinstance(ref, float):
        return isinstance(got, float) and got == pytest.approx(ref, rel=RTOL, abs=atol)
    if isinstance(ref, list):
        return (
            isinstance(got, list)
            and len(ref) == len(got)
            and all(_same(r, g, atol) for r, g in zip(ref, got))
        )
    if isinstance(ref, dict):
        return (
            isinstance(got, dict)
            and ref.keys() == got.keys()
            and all(_same(ref[k], got[k], atol) for k in ref)
        )
    return ref == got


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


@pytest.mark.parametrize("kind,deflate,method", CASES, ids=[_case_id(*c) for c in CASES])
def test_pipeline_matches_golden(golden, kind, deflate, method):
    ref = golden[_case_id(kind, deflate, method)]
    got = json.loads(json.dumps(fingerprint(kind, deflate, method)))
    assert _same(ref, got), f"expected {ref}\ngot {got}"


def dumps(cases):
    """JSON with one line per case, so a changed case shows as one line."""
    lines = [f" {json.dumps(k)}: {json.dumps(v)}" for k, v in cases.items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


if __name__ == "__main__":
    sys.stdout.write(dumps({_case_id(*case): fingerprint(*case) for case in CASES}))
