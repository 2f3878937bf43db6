"""CSV ingestion, report assembly/serialization, and the CLI front end."""

import json
import os

import numpy as np
import pytest

from simpca import (
    RotationCriterion,
    SelectionStrategy,
    SimpcaPipelineConfig,
    build_report,
    center_scale,
    emit,
    ingest_csv,
    run_simpca,
)
from simpca.cli import main
from simpca.errors import (
    EmptyInput,
    MissingColumn,
    MissingValue,
    NonNumericCell,
    RaggedRow,
)
from simpca.report import pca_report, report_from_json

from conftest import EUROJOBS


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_ingest_basic(tmp_path):
    path = _write(tmp_path, "a,b\n1,2\n3,4\n5,6\n")
    names, values, ids, resp = ingest_csv(path)
    assert names == ["a", "b"]
    assert values.shape == (3, 2)
    assert ids is None and resp is None


def test_ingest_response_and_id(tmp_path):
    path = _write(tmp_path, "id,x,salary\nr1,1.5,10\nr2,2.5,20\n")
    names, values, ids, resp = ingest_csv(
        path, response_column="salary", id_column="id"
    )
    assert names == ["x"]
    assert values.shape == (2, 1)
    assert ids == ["r1", "r2"]
    assert np.allclose(resp, [10.0, 20.0])


def test_ingest_tab_autodetect(tmp_path):
    path = _write(tmp_path, "a\tb\n1\t2\n3\t4\n", name="data.tsv")
    names, values, _, _ = ingest_csv(path)
    assert names == ["a", "b"]
    assert values.shape == (2, 2)


def test_ingest_errors(tmp_path):
    with pytest.raises(MissingColumn):
        ingest_csv(_write(tmp_path, "a,b\n1,2\n"), response_column="nope")
    with pytest.raises(MissingValue):
        ingest_csv(_write(tmp_path, "a,b\n1,\n", name="m.csv"))
    with pytest.raises(NonNumericCell):
        ingest_csv(_write(tmp_path, "a,b\n1,zebra\n", name="n.csv"))


def test_ingest_eurojobs_shape():
    names, values, ids, _ = ingest_csv(EUROJOBS, id_column="country")
    assert values.shape == (26, 9)
    assert len(names) == 9
    assert len(ids) == 26
    assert "agriculture" in names


def _small_report(response=None):
    rng = np.random.default_rng(0)
    raw = rng.standard_normal((20, 5)) @ rng.standard_normal((5, 5))
    x = center_scale(raw)
    cfg = SimpcaPipelineConfig(
        nd=2,
        nr=3,
        strategy=SelectionStrategy(kind="forward", alpha=0.95),
        criterion=RotationCriterion.varimax(),
    )
    result = run_simpca(x, cfg)
    return x, build_report(x, result, {"seed": 0}, response=response)


def test_report_fields_consistent():
    x, rep = _small_report()
    assert len(rep.components) == 2
    cv = [c.cvexp_pct for c in rep.components]
    assert np.all(np.diff(cv) >= 0)  # cumulative vexp is non-decreasing
    for c in rep.components:
        assert c.cardinality == len(c.variables)
        contribs = [v[1] for v in c.variables]
        assert np.sum(np.abs(contribs)) == pytest.approx(100.0, rel=1e-8)
    assert rep.correlations and len(rep.correlations) == 2


def test_report_response_block():
    rng = np.random.default_rng(1)
    resp = rng.standard_normal(20)
    _, rep = _small_report(response=resp)
    assert len(rep.response_r2) == 2
    assert np.all(np.diff(rep.response_r2) >= -1e-12)  # nested models


def test_json_round_trip():
    _, rep = _small_report()
    payload = emit(rep, "json")
    back = report_from_json(payload)
    assert back.column_names == rep.column_names
    assert back.total_variance == pytest.approx(rep.total_variance)
    for a, b in zip(back.components, rep.components):
        assert a.vexp_pct == pytest.approx(b.vexp_pct)
        assert a.variables == tuple(tuple(v) for v in b.variables)


def test_tsv_blocks():
    _, rep = _small_report()
    text = emit(rep, "tsv").decode()
    for block in ("# config", "# pca vexp", "# components", "# contributions"):
        assert block in text
    with pytest.raises(ValueError):
        emit(rep, "xml")


def test_pca_report_only():
    rng = np.random.default_rng(2)
    x = center_scale(rng.standard_normal((15, 4)))
    rep = pca_report(x, 3, {"nd": 3})
    assert len(rep.pca_vexp_pct) == 3
    assert rep.components == ()


def test_cli_pca_tsv(tmp_path, capsys):
    out = str(tmp_path / "out.tsv")
    code = main(
        [
            "pca",
            "--input",
            EUROJOBS,
            "--id-column",
            "country",
            "--scale",
            "none",
            "--nd",
            "3",
            "--out",
            out,
        ]
    )
    assert code == 0
    text = open(out).read()
    assert "# pca vexp" in text
    assert "pc1\t81.5" in text


def test_cli_simpca_json(tmp_path):
    out = str(tmp_path / "out.json")
    code = main(
        [
            "simpca",
            "--input",
            EUROJOBS,
            "--id-column",
            "country",
            "--scale",
            "none",
            "--nr",
            "9",
            "--nd",
            "2",
            "--select",
            "forward",
            "--alpha",
            "0.99",
            "--kaiser",
            "--format",
            "json",
            "--out",
            out,
        ]
    )
    assert code == 0
    data = json.loads(open(out).read())
    comp1 = data["components"][0]
    assert comp1["cardinality"] == 1
    assert comp1["variables"][0][0] == "agriculture"


def test_cli_rotate(tmp_path):
    out = str(tmp_path / "rot.tsv")
    code = main(
        [
            "rotate",
            "--input",
            EUROJOBS,
            "--id-column",
            "country",
            "--scale",
            "none",
            "--nr",
            "3",
            "--kaiser",
            "--out",
            out,
        ]
    )
    assert code == 0
    lines = open(out).read().strip().splitlines()
    assert lines[0].split("\t") == ["variable", "comp1", "comp2", "comp3"]
    assert len(lines) == 11  # header + 9 variables + convergence note


def test_cli_exit_codes(tmp_path, capsys):
    # config error: cf criterion without kappa
    code = main(
        [
            "rotate",
            "--input",
            EUROJOBS,
            "--id-column",
            "country",
            "--scale",
            "none",
            "--nr",
            "3",
            "--criterion",
            "cf",
        ]
    )
    assert code == 2
    # data error: nonexistent file
    code = main(
        ["pca", "--input", str(tmp_path / "missing.csv"), "--scale", "none",
         "--nd", "2"]
    )
    assert code == 3
    # config error: kappa without cf
    code = main(
        [
            "rotate",
            "--input",
            EUROJOBS,
            "--id-column",
            "country",
            "--scale",
            "none",
            "--nr",
            "3",
            "--kappa",
            "0.5",
        ]
    )
    assert code == 2
    # config error: no rotation start
    code = main(
        ["rotate", "--input", EUROJOBS, "--id-column", "country", "--scale",
         "none", "--nr", "3", "--restarts", "0"]
    )
    assert code == 2
    # numerical/config boundary: more components than rank
    code = main(
        ["pca", "--input", EUROJOBS, "--id-column", "country", "--scale",
         "none", "--nd", "25"]
    )
    assert code == 2
    # ... also in the pipeline, in both modes: 4 centered rows have rank 3
    path = _write(tmp_path, "a,b,c,d,e\n1,2,3,4,5\n2,1,0,3,7\n5,3,2,2,1\n0,4,1,6,2\n")
    capsys.readouterr()
    for mode in ("--deflate", "--no-deflate"):
        code = main(
            ["simpca", "--input", path, "--scale", "none", "--nr", "4", "--nd",
             "4", mode]
        )
        assert code == 2
        assert "requested 4 components but numerical rank is 3" in capsys.readouterr().err


def test_cli_malformed_csv_is_data_error(tmp_path, capsys):
    cases = [
        ("empty.csv", "", EmptyInput),
        ("blank.csv", "\n\n", EmptyInput),
        ("header.csv", "a,b\n", EmptyInput),
        ("short.csv", "a,b,c\n1,2,3\n4,5\n", RaggedRow),
        ("long.csv", "a,b\n1,2\n3,4,5\n", RaggedRow),
    ]
    for name, text, error in cases:
        path = _write(tmp_path, text, name=name)
        with pytest.raises(error):
            ingest_csv(path)
        assert main(["pca", "--input", path, "--scale", "none", "--nd", "1"]) == 3
        assert "data error" in capsys.readouterr().err


def test_cli_scale_required():
    with pytest.raises(SystemExit):
        main(["pca", "--input", EUROJOBS, "--nd", "2"])
