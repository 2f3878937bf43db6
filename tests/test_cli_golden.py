"""Golden JSON reports of the ``simpca`` and ``pca`` commands on eurojobs.

``golden/eurojobs_cli.json`` holds, for every case, the exit code and
either the parsed JSON report the command wrote or its stderr. The grid:
``simpca`` with nd 3 and nr 4 in both scalings, with forward, backward and
fixed-threshold selection, all four sparsifiers and deflation on and off;
the same with ``--response finance`` and PSPCA; and ``pca --nd 3`` with and
without the response. The config echo, which holds the input's path and
otherwise what the case's argv gives, is left out. Floats are compared to
1e-12 relative, or 1e-13 absolute for the rounding noise of exact zeros,
everything else exactly, so a change that means to keep every output pins
it here.

Regenerate with ``python tests/test_cli_golden.py`` (it prints the JSON)
only for a change that is meant to alter the results, and say why.
"""

import contextlib
import io
import json
import os
import sys
import tempfile

import pytest

from simpca.cli import main

from conftest import EUROJOBS
from test_pipeline_golden import _same

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "eurojobs_cli.json")
# A value that is zero in exact arithmetic, such as the correlation of two
# USPCA components or the contribution of a zero coefficient, comes out as
# rounding of order 1e-16 whose bits depend on the BLAS; the largest such
# value in the golden is 5e-15.
ATOL = 1e-13

SCALES = ("none", "unit-variance")
SELECTS = ("forward", "backward", "threshold")
DEFLATES = ("deflate", "no-deflate")
CASES = [
    f"simpca --scale {scale} --select {select} --method {method} --{deflate}"
    for scale in SCALES
    for select in SELECTS
    for method in ("pspca", "cspca", "uspca", "plain")
    for deflate in DEFLATES
] + [
    f"simpca --scale {scale} --select {select} --method pspca --{deflate} --response finance"
    for scale in SCALES
    for select in SELECTS
    for deflate in DEFLATES
] + [f"pca --scale {scale}{response}" for response in ("", " --response finance")
     for scale in SCALES]


def fingerprint(case, out):
    """The exit code of one case and its report, written to the path out,
    or its stderr."""
    argv = case.split() + ["--input", EUROJOBS, "--id-column", "country", "--nd", "3",
                           "--format", "json", "--out", out]
    if argv[0] == "simpca":
        argv += ["--nr", "4"]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    if code:
        return {"exit": code, "stderr": err.getvalue()}
    with open(out) as fh:
        report = json.load(fh)
    del report["config"]
    return {"exit": code, "report": report}


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_the_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_cli_matches_golden(golden, case, tmp_path):
    ref = golden[case]
    got = fingerprint(case, str(tmp_path / "report.json"))
    assert _same(ref, got, ATOL), f"expected {ref}\ngot {got}"


def dumps(cases):
    """Compact JSON with one line per case, so a changed case shows as one
    line."""
    lines = [f"{json.dumps(k)}:{json.dumps(v, separators=(',', ':'))}" for k, v in cases.items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.json")
        sys.stdout.write(dumps({case: fingerprint(case, out) for case in CASES}))
