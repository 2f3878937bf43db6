"""CSV ingestion, report assembly/serialization, and the CLI front end."""

import json
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from simpca import (
    RotationCriterion,
    SelectionStrategy,
    SimpcaPipelineConfig,
    center_scale,
    ingest_csv,
    run_simpca,
)
from simpca import cli, core, pca, rotation, selection, sparse
from simpca.cli import main
from simpca.errors import (
    ConfigError,
    EmptyInput,
    MissingColumn,
    MissingValue,
    NonFiniteInput,
    NonNumericCell,
    NotUtf8,
    RaggedRow,
    ZeroVarianceColumn,
)
from simpca.report import (
    AnalysisReport,
    ComponentSummary,
    build_report,
    emit,
    pca_report,
    report_from_json,
)

from conftest import EUROJOBS, time_limit


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
    return x, build_report(core._factor_of(x, y=response), result, {"seed": 0})


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


def _factor_model(n, p, k, seed):
    """n x p observations of a k-factor model: variable j loads on factor
    j mod k, plus noise."""
    rng = np.random.default_rng(seed)
    loadings = np.zeros((p, k))
    loadings[np.arange(p), np.arange(p) % k] = rng.uniform(0.5, 0.9, p)
    return rng.standard_normal((n, k)) @ loadings.T + 0.5 * rng.standard_normal((n, p))


def _assert_report_vifs_are_the_data_vifs(x, configs):
    for config in configs:
        result = run_simpca(x, config)
        rep = build_report(x, result, {})
        for comp, summary in zip(result.components, rep.components):
            vifs = [v for _, _, v in summary.variables]
            # an R^2 near 0 is 1 - 1/(S_ii (S^+)_ii) with S_ii (S^+)_ii near
            # 1, so it holds a few eps absolute, not relative
            assert vifs == pytest.approx(
                core.vif(x.values, comp.support.indices), rel=1e-12, abs=1e-15
            )


def test_report_vifs_from_the_factor_are_the_data_vifs():
    _, values, _, _ = ingest_csv(EUROJOBS, id_column="country")
    for scale in ("none", "unit-variance"):
        x = center_scale(values, scale)
        _assert_report_vifs_are_the_data_vifs(x, [
            SimpcaPipelineConfig(nd=nd, nr=nr, deflate=deflate,
                                 strategy=SelectionStrategy(kind, alpha=0.95, threshold=0.1))
            for kind in ("fixed-threshold", "forward", "backward")
            for deflate in (True, False)
            for nd, nr in ((3, 4), (9, 9))
        ])
    x = center_scale(_factor_model(3000, 200, 8, 0), "unit-variance")
    _assert_report_vifs_are_the_data_vifs(x, [
        SimpcaPipelineConfig(nd=3, nr=8, strategy=SelectionStrategy(kind, alpha=0.95, threshold=0.1))
        for kind in ("fixed-threshold", "forward")
    ])


def _assert_factor_report_is_the_nspace_report(x, response, configs):
    """The reports read off R([X y]) against what they took from n-space
    scores before: the sum of values^2, the R^2 of the centered response on
    the first k score columns, and ``sparse.component_correlations``."""
    close = dict(rel=1e-12, abs=1e-14)
    total = float(np.sum(x.values**2))

    def nspace_r2(scores):
        if response is None:
            return []
        y = response - response.mean()
        return [core.r_squared(scores[:, :k], y) for k in range(1, scores.shape[1] + 1)]

    rec = core._factor_of(x, y=response)
    if response is not None:
        # the last column [c; rho] of R([X y]), with rho = 0 when no row
        # is left below F
        assert rec.yf.shape == (min(x.n, x.p) + 1,) and (rec.yf[-1] == 0.0) == (x.n < x.p)
    rep = pca_report(rec, 3, {})
    assert list(rep.response_r2) == pytest.approx(nspace_r2(pca.fit_pca(x, 3).scores), **close)
    assert rep.total_variance == pytest.approx(total, **close)
    for config in configs:
        want = run_simpca(x, config)
        got = sparse.run_simpca(rec, config)
        assert ([c.support.indices for c in got.components]
                == [c.support.indices for c in want.components])
        rep = build_report(rec, got, {})
        scores = np.column_stack([c.scores for c in want.components])
        assert list(rep.response_r2) == pytest.approx(nspace_r2(scores), **close)
        assert rep.total_variance == pytest.approx(total, **close)
        assert np.array(rep.correlations) == pytest.approx(
            sparse.component_correlations(want.components), rel=0, abs=1e-12)


def test_report_read_off_the_factor_is_the_nspace_report():
    configs = [
        SimpcaPipelineConfig(nd=3, nr=4, method=method, deflate=deflate,
                             strategy=SelectionStrategy(kind, alpha=0.95, threshold=0.1))
        for kind, method in (("forward", "pspca"), ("backward", "cspca"),
                             ("stepwise", "uspca"), ("fixed-threshold", "plain"))
        for deflate in (True, False)
    ]
    for scale in ("none", "unit-variance"):
        for response in (None, "finance"):
            names, values, _, resp = ingest_csv(
                EUROJOBS, response_column=response, id_column="country")
            x = center_scale(values, scale, names)
            _assert_factor_report_is_the_nspace_report(x, resp, configs)
    # n much above p, n below p (no row below F) and n = p + 1 (one row)
    for n, p in ((3000, 201), (25, 61), (21, 21)):
        raw = _factor_model(n, p, 8, 1)
        x = center_scale(raw[:, :-1], "unit-variance")
        _assert_factor_report_is_the_nspace_report(x, raw[:, -1], configs[:4])


@pytest.mark.parametrize("data", ["factor-model", "eurojobs"])
def test_a_response_never_changes_a_component(data, tmp_path):
    # every command reads F of X alone: a run with --response y has the
    # bytes of the run that drops y as the id column, but for the config
    # echo and the response R^2
    if data == "eurojobs":
        names, values, _, _ = ingest_csv(EUROJOBS, id_column="country")
        y = "finance"
    else:
        values = _factor_model(80, 21, 3, 0)
        names = [f"v{j + 1}" for j in range(21)]
        y = "v21"
    np.savetxt(tmp_path / "data.csv", values, fmt="%.17g", delimiter=",",
               header=",".join(names), comments="")
    base = ["--input", str(tmp_path / "data.csv"), "--scale", "unit-variance",
            "--format", "json"]
    for argv in (["simpca", "--nr", "4", "--nd", "3", "--select", "backward", "--method",
                  "cspca"], ["pca", "--nd", "0"]):
        reports = []
        for flag in ("--response", "--id-column"):
            out = tmp_path / "out.json"
            assert main(argv + base + [flag, y, "--out", str(out)]) == 0
            reports.append(json.loads(out.read_text()))
        with_y, without_y = reports
        assert len(with_y["response_r2"]) == len(with_y["components"] or with_y["pca_vexp_pct"])
        for rep in reports:
            del rep["config"], rep["response_r2"]
        assert with_y == without_y


def test_error_attributes_name_a_cell_in_the_terms_of_the_side_that_raised_it(tmp_path):
    # the library: a 0-based row and an int column, as the array is indexed
    raw = np.array([[1.0, 2.0, 7.0], [3.0, np.inf, 7.0], [2.0, 1.0, 7.0]])
    with pytest.raises(NonFiniteInput) as err:
        center_scale(raw)
    assert (err.value.row, err.value.col) == (1, 1)
    with pytest.raises(ZeroVarianceColumn) as err:
        center_scale(raw[[0, 2]], "unit-variance")
    assert err.value.index == 2
    # the CSV reader and the CLI: the data row counted from 1, and the header
    with pytest.raises(MissingValue) as err:
        ingest_csv(_write(tmp_path, "a,b,c\n1,2,7\n3,,7\n"))
    assert (err.value.row, err.value.col) == (2, "b")
    for text, scale, error, attributes in (
            ("a,b,c\n1,2,7\n3,inf,7\n2,1,7\n", "none", NonFiniteInput, {"row": 2, "col": "b"}),
            ("a,b,c\n1,2,7\n3,5,7\n2,1,7\n", "unit-variance", ZeroVarianceColumn,
             {"index": "c"})):
        args = cli.build_parser().parse_args(["pca", "--input", _write(tmp_path, text),
                                              "--scale", scale, "--nd", "1"])
        with pytest.raises(error) as err:
            cli._load(args)
        assert {name: getattr(err.value, name) for name in attributes} == attributes


def test_a_report_on_a_data_matrix_factors_nothing(monkeypatch):
    # the names come from x and F from the result, so a DataMatrix whose
    # record was never built is not factored again for its report
    x = center_scale(_factor_model(60, 6, 2, 0))
    result = run_simpca(np.asarray(x), SimpcaPipelineConfig(
        nd=2, nr=3, strategy=SelectionStrategy("forward", alpha=0.9)))

    def no_qr(*args, **kwargs):
        raise AssertionError("a QR ran")

    monkeypatch.setattr(np.linalg, "qr", no_qr)
    rep = build_report(x, result, {})
    assert rep.column_names == x.column_names and rep.response_r2 == ()


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


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not serializable: {type(obj)}")


def _emit_json_oracle(report):
    """emit(report, 'json') as it was written field by field, before the
    dataclasses became the schema."""
    payload = {
        "config": report.config,
        "column_names": list(report.column_names),
        "total_variance": report.total_variance,
        "pca_vexp_pct": list(report.pca_vexp_pct),
        "components": [asdict(c) for c in report.components],
        "correlations": [list(row) for row in report.correlations],
        "response_r2": list(report.response_r2),
    }
    return (json.dumps(payload, indent=2, default=_json_default) + "\n").encode()


def _report_from_json_oracle(payload):
    """report_from_json as it was written field by field."""
    data = json.loads(payload)
    comps = tuple(
        ComponentSummary(
            method=c["method"],
            cardinality=c["cardinality"],
            vexp_pct=c["vexp_pct"],
            cvexp_pct=c["cvexp_pct"],
            rcvexp=c["rcvexp"],
            mincont_pct=c["mincont_pct"],
            r2_vs_target=c["r2_vs_target"],
            variables=tuple(tuple(v) for v in c["variables"]),
        )
        for c in data["components"]
    )
    return AnalysisReport(
        config=data["config"],
        column_names=tuple(data["column_names"]),
        total_variance=data["total_variance"],
        pca_vexp_pct=tuple(data["pca_vexp_pct"]),
        components=comps,
        correlations=tuple(tuple(row) for row in data["correlations"]),
        response_r2=tuple(data["response_r2"]),
    )


def _eurojobs_reports():
    """Reports of every method, and of PCA alone, with and without a
    response column."""
    for response in (None, "finance"):
        names, values, _, resp = ingest_csv(
            EUROJOBS, response_column=response, id_column="country"
        )
        x = center_scale(values, scaling="unit-variance", column_names=names)
        yield pca_report(core._factor_of(x, y=resp), 4, {"nd": 4, "response": response})
        for method in ("pspca", "cspca", "uspca", "plain"):
            cfg = SimpcaPipelineConfig(
                nd=3, nr=4, method=method,
                strategy=SelectionStrategy(kind="forward", alpha=0.95),
            )
            echo = {"method": method, "alpha": 0.95, "kappa": None, "norm": "inf"}
            yield build_report(core._factor_of(x, y=resp), run_simpca(x, cfg), echo)


def test_json_schema_matches_field_by_field_oracle():
    # the JSON schema is the dataclasses': emit dumps their fields and
    # report_from_json rebuilds from the fields, with the same bytes and the
    # same report as the field-by-field code (no byte golden: full-precision
    # floats differ across numpy and BLAS builds)
    reports = list(_eurojobs_reports())
    assert {c.method for r in reports for c in r.components} == {
        "pspca", "cspca", "uspca", "plain-threshold"}
    assert sum(bool(r.response_r2) for r in reports) == 5
    for rep in reports:
        payload = emit(rep, "json")
        assert payload == _emit_json_oracle(rep)
        back = report_from_json(payload)
        assert back == _report_from_json_oracle(payload) == rep
        assert emit(back, "json") == payload


def _asdict_json(report):
    """emit(report, 'json') as it was when it dumped a deep copy."""
    return (json.dumps(asdict(report), indent=2) + "\n").encode()


def test_json_reads_the_report_in_place_with_the_bytes_of_its_deep_copy():
    # emit hands json the dataclasses' own fields, not asdict's deep copy
    names, values, _, resp = ingest_csv(EUROJOBS, response_column="finance",
                                        id_column="country")
    x = center_scale(values, "unit-variance", names)
    reports = [pca_report(core._factor_of(x, y=y), d, {"nd": d or 0, "response": y is not None})
               for y in (None, resp) for d in (3, None)]
    for nd in (1, 3):
        config = SimpcaPipelineConfig(nd=nd, nr=4,
                                      strategy=SelectionStrategy("forward", alpha=0.95))
        reports.append(build_report(core._factor_of(x, y=resp), run_simpca(x, config),
                                    {"nd": nd, "response": "finance"}))
    assert [len(r.components) for r in reports] == [0, 0, 0, 0, 1, 3]
    assert [len(r.response_r2) for r in reports] == [0, 0, 3, 8, 1, 3]
    for rep in reports:
        assert emit(rep, "json") == _asdict_json(rep)
    # a config echo json cannot write is json's own TypeError, as before
    rep = replace(reports[-1], config={"input": Path(EUROJOBS)})
    with pytest.raises(TypeError) as before:
        _asdict_json(rep)
    with pytest.raises(TypeError) as now:
        emit(rep, "json")
    assert str(now.value) == str(before.value) == (
        f"Object of type {type(Path()).__name__} is not JSON serializable")


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
    text = Path(out).read_text()
    assert "# pca vexp" in text
    assert "pc1\t81.5" in text


def _lapack_svds(monkeypatch):
    """A copy of every array that ``np.linalg.svd`` takes, in a list that
    fills as they are taken."""
    svd, seen = np.linalg.svd, []

    def counted(a, *args, **kwargs):
        seen.append(np.array(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return seen


def test_cli_pca_nd_zero_takes_one_svd(tmp_path, monkeypatch):
    _, values, _, _ = ingest_csv(EUROJOBS, id_column="country")
    x = center_scale(values)
    f = np.linalg.qr(x.values, mode="r")
    rank = core.svd(x)[0].size
    svds = _lapack_svds(monkeypatch)
    argv = ["pca", "--input", EUROJOBS, "--id-column", "country", "--scale", "none"]
    auto, fixed = tmp_path / "auto.tsv", tmp_path / "fixed.tsv"
    assert main(argv + ["--nd", "0", "--out", str(auto)]) == 0
    # the one LAPACK SVD of the run is that of the factor
    assert len(svds) == 1 and np.array_equal(svds[0], f)
    assert main(argv + ["--nd", str(rank), "--out", str(fixed)]) == 0
    assert auto.read_bytes() == fixed.read_bytes()


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
    data = json.loads(Path(out).read_text())
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
    lines = Path(out).read_text().strip().splitlines()
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
    # data error, not config: one observation cannot be centered
    path = _write(tmp_path, "a,b\n1,2\n", name="one.csv")
    capsys.readouterr()
    assert main(["pca", "--input", path, "--scale", "none", "--nd", "1"]) == 3
    assert "data error: need at least 2 observations" in capsys.readouterr().err
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
    # config error: a delimiter of other than one character
    for delimiter in ("", ";;"):
        code = main(["pca", "--input", EUROJOBS, "--delimiter", delimiter,
                     "--scale", "none", "--nd", "2"])
        assert code == 2
    # config error: no variable survives a fixed threshold above 1, and one
    # below 0 would keep every variable
    for threshold in ("2", "-1"):
        code = main(["simpca", "--input", EUROJOBS, "--id-column", "country",
                     "--scale", "none", "--nr", "3", "--nd", "2", "--select",
                     "threshold", "--threshold", threshold])
        assert code == 2
    # config error: an adaptive schedule that is not finite (t0 inf would
    # otherwise step forever, and a NaN exhaust as a numerical failure)
    for flag, value in (("--t0", "inf"), ("--t0", "nan"), ("--step", "nan")):
        with time_limit(10):
            code = main(["simpca", "--input", EUROJOBS, "--id-column", "country",
                         "--scale", "none", "--nr", "3", "--nd", "2", "--select",
                         "adaptive", flag, value])
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
    # numerical failures on eurojobs
    base = ["simpca", "--input", EUROJOBS, "--id-column", "country"]
    cases = [
        # EmptySupport: no unit-L2 coefficient reaches 0.99
        (["--scale", "none", "--nr", "3", "--nd", "2", "--select", "threshold",
          "--norm", "2", "--threshold", "0.99"],
         "numerical failure: no coefficient survives the threshold 0.99"),
        # InfeasibleOrthogonality: a one-variable support cannot be
        # uncorrelated with the first component
        (["--scale", "unit-variance", "--nr", "4", "--nd", "4", "--method", "uspca",
          "--select", "forward", "--alpha", "0.5"],
         "numerical failure: support of size 1 cannot satisfy 1 orthogonality constraints"),
    ]
    for argv, message in cases:
        assert main(base + argv) == 4
        out = capsys.readouterr()
        assert out.out == "" and message in out.err


def test_cli_data_without_variation_is_a_data_error(tmp_path, capsys):
    constant = "every feature column is constant"
    cases = [
        ("a,b\n1,5\n1,5\n", ["pca", "--scale", "none", "--nd", "0"], constant),
        ("a,b\nx,1\ny,2\nz,3\n",
         ["pca", "--id-column", "a", "--response", "b", "--scale", "none", "--nd", "1"],
         "no feature column is left"),
        # centering 0.1 leaves round-off that a PCA would report as 100%
        ("a,b,c\n" + "0.1,0.1,7\n" * 3,
         ["simpca", "--scale", "none", "--nr", "2", "--nd", "1"], constant),
    ]
    for text, argv, message in cases:
        path = _write(tmp_path, text)
        assert main(argv + ["--input", path]) == 3
        out = capsys.readouterr()
        assert out.out == "" and f"data error: {message}" in out.err
    # unit-variance scaling names the first constant column, as before
    assert main(["pca", "--input", _write(tmp_path, "a,b\n1,5\n1,5\n"), "--scale",
                 "unit-variance", "--nd", "0"]) == 4
    assert "column a has zero variance" in capsys.readouterr().err


def test_cli_reads_a_byte_order_mark(tmp_path, capsys):
    # spreadsheet programs start a UTF-8 CSV with U+FEFF
    path = tmp_path / "bom.csv"
    path.write_text("\ufeffcountry,x,y\nA,1,2\nB,2,1\nC,4,3\n", encoding="utf-8")
    assert main(["pca", "--input", str(path), "--id-column", "country", "--scale",
                 "none", "--nd", "1"]) == 0
    names, _, ids, _ = ingest_csv(path, id_column="country")
    assert names == ["x", "y"] and ids == ["A", "B", "C"]


def test_cli_file_that_is_not_utf8_is_a_data_error(tmp_path, capsys):
    # one undecodable byte in the header, and one far enough into the body
    # that the header's read does not reach it
    body = "".join(f"{i},{i % 7}\n" for i in range(3000))
    for name, text in (("head.csv", "Poblaci\xf3n,b\n1,2\n3,5\n"),
                       ("body.csv", f"a,b\n{body}7,\xf3\n")):
        path = tmp_path / name
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(NotUtf8) as err:
            ingest_csv(path)
        assert err.value.byte == 0xF3
        assert main(["pca", "--input", str(path), "--scale", "none", "--nd", "1"]) == 3
        assert "data error: input file is not UTF-8 text" in capsys.readouterr().err


def _same_column(printed, coefficients):
    """Whether a printed column, normalized, is the unit-L2 coefficient
    vector: each printed cell is within 5e-7 of the value, and normalizing
    moves the column by at most about twice that in norm."""
    norm = np.linalg.norm(printed)
    tol = 3 * 5e-7 * np.sqrt(printed.size) / norm
    return np.abs(printed / norm - coefficients).max() <= tol


def _rotate_table(argv, tmp_path):
    """The coefficient columns and the trailer of one ``rotate`` run."""
    out = tmp_path / "rot.tsv"
    assert main(["rotate", "--input", EUROJOBS, "--id-column", "country", *argv,
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    table = np.array([[float(v) for v in line.split("\t")[1:]] for line in lines[1:-1]])
    return table, lines[-1]


@pytest.mark.parametrize("scale", ["none", "unit-variance"])
def test_cli_rotate_prints_the_pipeline_components(scale, tmp_path):
    # with a fixed threshold of 0 every plain component keeps all of its
    # rotated component's coefficients, rescaled to unit L2; without
    # deflation component j is the pipeline's j-th rotated component
    names, values, _, _ = ingest_csv(EUROJOBS, id_column="country")
    x = center_scale(values, scale, names)
    for nr in range(2, 10):
        criteria = [(["--criterion", "varimax"], RotationCriterion.varimax()),
                    (["--criterion", "quartimax"], RotationCriterion.quartimax()),
                    (["--criterion", "equamax"], RotationCriterion.equamax(nr)),
                    (["--criterion", "cf", "--kappa", "0.5"],
                     RotationCriterion.crawford_ferguson(0.5))]
        for flags, criterion in criteria:
            for kaiser in (False, True):
                argv = ["--scale", scale, "--nr", str(nr), *flags]
                table, _ = _rotate_table(argv + ["--kaiser"] * kaiser, tmp_path)
                config = SimpcaPipelineConfig(
                    nd=nr, nr=nr, criterion=criterion, kaiser=kaiser,
                    strategy=SelectionStrategy(kind="fixed-threshold", threshold=0.0),
                    method="plain", deflate=False,
                )
                for col, comp in zip(table.T, run_simpca(x, config).components,
                                     strict=True):
                    assert comp.support.indices == tuple(range(x.p))
                    assert _same_column(col, comp.coefficients), argv


def test_cli_one_nr_rule(tmp_path, capsys):
    # eurojobs has numerical rank 9: every command takes up to 9 components
    # and fails on more with RankExceeded, exit 2
    base = ["--input", EUROJOBS, "--id-column", "country", "--scale", "none"]
    for argv, rank_ok, too_many in (
        (["pca", *base], ["--nd", "9"], ["--nd", "10"]),
        (["rotate", *base], ["--nr", "9"], ["--nr", "30"]),
        (["simpca", *base, "--nd", "1"], ["--nr", "9"], ["--nr", "20"]),
    ):
        assert main(argv + rank_ok) == 0
        capsys.readouterr()
        assert main(argv + too_many) == 2
        assert "numerical rank is 9" in capsys.readouterr().err
    # nr = 1 rotates nothing: rotate prints the one scaled, signed principal
    # component the pipeline starts from
    table, trailer = _rotate_table(["--scale", "none", "--nr", "1"], tmp_path)
    assert table.shape == (9, 1) and trailer == "# not rotated: a single component"
    config = SimpcaPipelineConfig(
        nd=1, nr=1, strategy=SelectionStrategy(kind="fixed-threshold", threshold=0.0),
        method="plain")
    names, values, _, _ = ingest_csv(EUROJOBS, id_column="country")
    (comp,) = run_simpca(center_scale(values, "none", names), config).components
    assert _same_column(table[:, 0], comp.coefficients)
    # an nr below 1 and a rotation without a start are config errors in
    # both commands that rotate, whatever the nr and the criterion
    for argv in (["rotate", *base], ["simpca", *base, "--nd", "1"]):
        for flags, message in ((["--nr", "0"], "nr 0 is not at least 1"),
                               (["--nr", "-1", "--criterion", "equamax"],
                                "nr -1 is not at least 1"),
                               (["--nr", "1", "--restarts", "0"], "restarts 0 is not at least 1"),
                               (["--nr", "3", "--restarts", "0"], "restarts 0 is not at least 1"),
                               (["--nr", "3", "--seed", "-1"], "seed -1 is not at least 0")):
            assert main(argv + flags) == 2
            assert f"config error: {message}" in capsys.readouterr().err
    # a count below its minimum is named as such, before the file is read
    missing = ["--input", str(tmp_path / "missing.csv"), "--scale", "none"]
    for argv, message in ((["pca", *base, "--nd", "-1"], "nd -1 is not at least 0"),
                          (["pca", *missing, "--nd", "-1"], "nd -1 is not at least 0"),
                          (["rotate", *missing, "--nr", "0"], "nr 0 is not at least 1")):
        assert main(argv) == 2
        assert f"config error: {message}" in capsys.readouterr().err


def test_cli_checks_selection_flags_before_reading_the_input(tmp_path, capsys):
    missing = ["simpca", "--input", str(tmp_path / "missing.csv"), "--scale", "none",
               "--nr", "3", "--nd", "2"]
    for flags, message in ((["--alpha", "1.5"], "alpha must be in (0, 1]"),
                           (["--select", "threshold", "--threshold", "2"],
                            "threshold must be in [0, 1]"),
                           (["--select", "adaptive", "--t0", "-1"],
                            "t0 and step must be positive and finite")):
        assert main(missing + flags) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
    # a flag the selection does not read is not checked
    eurojobs = ["simpca", "--input", EUROJOBS, "--id-column", "country", "--scale", "none",
                "--nr", "3", "--nd", "2", "--out", str(tmp_path / "out.tsv")]
    assert main(eurojobs + ["--select", "threshold", "--alpha", "2"]) == 0


def test_cli_reads_the_data_once_through_one_qr(tmp_path, monkeypatch):
    # 200 x 5 features: after the one QR, of X alone also with a response,
    # no command reads an array of n rows, and none goes through the
    # library's n-space entry points
    raw = _factor_model(200, 6, 2, 3)
    path = tmp_path / "tall.csv"
    np.savetxt(path, raw, delimiter=",", header="a,b,c,d,e,y", comments="")
    factors = {}
    for response, p in ((None, 6), ("y", 5)):
        values = ingest_csv(path, response_column=response)[1]
        factors[p] = np.linalg.qr(center_scale(values, "unit-variance").values, mode="r")
    qr, qrs = np.linalg.qr, []

    def no_nspace(*args):
        raise AssertionError("an n-space entry point ran")

    run_simpca = sparse.run_simpca

    def on_the_record(x, config):
        # the pipeline is handed the record, never an array of n rows
        assert isinstance(x, core._Factor)
        return run_simpca(x, config)

    monkeypatch.setattr(np.linalg, "qr", lambda a, mode: qrs.append(a.shape) or qr(a, mode))
    svds = _lapack_svds(monkeypatch)
    monkeypatch.setattr(sparse, "run_simpca", on_the_record)
    monkeypatch.setattr(pca, "fit_pca", no_nspace)
    base = ["--input", str(path), "--scale", "unit-variance", "--out", str(tmp_path / "out")]
    for response, p in (([], 6), (["--response", "y"], 5)):
        for argv in (["pca", "--nd", "3"], ["rotate", "--nr", "3"],
                     ["simpca", "--nr", "3", "--nd", "2", "--select", "backward"]):
            qrs.clear()
            svds.clear()
            assert main(argv + base + response) == 0
            assert qrs == [(200, p)]
            # one LAPACK SVD of the p x p factor gives the spectrum, and no
            # SVD takes an array of n rows
            assert sum(np.array_equal(a, factors[p]) for a in svds) == 1
            assert max(a.shape[0] for a in svds) < 200


def test_the_cli_and_the_library_factor_the_same_numbers_alike(tmp_path, monkeypatch):
    # the CSV reader returns a column-major block; the library, given the
    # C-ordered array of the same numbers, takes the same F bit for bit
    raw = _factor_model(200, 6, 2, 3)
    path = tmp_path / "tall.csv"
    np.savetxt(path, raw, delimiter=",", header="a,b,c,d,e,f", comments="")
    wants = {scale: core._factor_of(center_scale(np.ascontiguousarray(raw), scale)).f
             for scale in ("none", "unit-variance")}
    records, factor_of = [], core._factor_of
    monkeypatch.setattr(core, "_factor_of", lambda *a, **k: records.append(factor_of(*a, **k))
                        or records[-1])
    for scale, want in wants.items():
        records.clear()
        assert main(["pca", "--input", str(path), "--scale", scale, "--nd", "2",
                     "--out", str(tmp_path / "out")]) == 0
        # one record, which every later step is handed again
        assert records and all(r is records[0] for r in records)
        assert records[0].f.tobytes() == want.tobytes()


def test_cli_rotate_has_no_format_flag(capsys):
    # rotate writes its table as TSV only
    with pytest.raises(SystemExit) as exc:
        main(["rotate", "--input", EUROJOBS, "--id-column", "country", "--scale",
              "none", "--nr", "3", "--format", "json"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --format json" in capsys.readouterr().err


def _tsv_and_json(tmp_path, argv):
    """The TSV lines and the JSON of one CLI run."""
    tsv, js = tmp_path / "out.tsv", tmp_path / "out.json"
    assert main(argv + ["--out", str(tsv)]) == 0
    assert main(argv + ["--format", "json", "--out", str(js)]) == 0
    return tsv.read_text().splitlines(), json.loads(js.read_text())


def test_cli_response_block_matches_json(tmp_path):
    lines, data = _tsv_and_json(
        tmp_path, ["pca", "--input", EUROJOBS, "--id-column", "country", "--scale",
                   "none", "--response", "agriculture", "--nd", "3"])
    # the response block comes last
    block = lines[lines.index("# response r2") + 1:]
    assert block[0] == "components\tr2"
    rows = [row.split("\t") for row in block[1:]]
    assert [k for k, _ in rows] == ["1", "2", "3"]
    assert len(data["response_r2"]) == 3
    for (_, cell), r2 in zip(rows, data["response_r2"]):
        assert float(cell) == round(r2, 3)


def test_cli_one_component_report_has_no_correlations(tmp_path):
    lines, data = _tsv_and_json(
        tmp_path, ["simpca", "--input", EUROJOBS, "--id-column", "country", "--scale",
                   "none", "--nr", "4", "--nd", "1", "--select", "forward",
                   "--alpha", "0.9"])
    labels = {row.split("\t")[0] for row in lines}
    assert "comp1" in labels and "comp2" not in labels
    assert "# component correlations" not in lines
    assert len(data["components"]) == 1
    assert data["correlations"] == []


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


def test_cli_non_finite_response_is_a_data_error(tmp_path, capsys):
    # an infinite response would centre to NaN and print every R^2 as 0.000
    for cell, row in (("inf", 2), ("-inf", 0), ("1e999", 4)):
        values = ["1", "2", "3", "4", "5"]
        values[row] = cell
        rows = [f"{a},{b},{y}" for a, b, y in zip("31452", "25143", values)]
        path = _write(tmp_path, "a,b,y\n" + "\n".join(rows) + "\n")
        for argv in (["pca", "--nd", "1"], ["simpca", "--nr", "2", "--nd", "1"]):
            code = main(argv + ["--input", path, "--scale", "none", "--response", "y"])
            out = capsys.readouterr()
            assert code == 3 and out.out == ""
            assert f"data error: non-finite value at row {row + 1}, column y" in out.err


def test_cli_names_a_bad_feature_cell_by_data_row_and_header(tmp_path, capsys):
    # every message numbers data rows from 1 and names the column by its
    # header, as the CSV reader's missing-value message does
    cases = [("inf", "none", "non-finite value at row 2, column b"),
             ("-1e999", "unit-variance", "non-finite value at row 2, column b"),
             ("", "none", "missing value at row 2, column b")]
    for cell, scale, message in cases:
        rows = [f"{a},{b},{y}" for a, b, y in zip("31452", ["2", cell, "1", "4", "3"], "12345")]
        path = _write(tmp_path, "a,b,y\n" + "\n".join(rows) + "\n")
        for argv in (["pca", "--nd", "1"], ["simpca", "--nr", "2", "--nd", "1"]):
            assert main(argv + ["--input", path, "--scale", scale, "--response", "y"]) == 3
            out = capsys.readouterr()
            assert out.out == "" and f"data error: {message}" in out.err
    # a constant feature column under unit-variance scaling, after a varying one
    rows = "".join(f"{a},7,{y}\n" for a, y in zip("31452", "12345"))
    path = _write(tmp_path, "a,b,y\n" + rows)
    assert main(["pca", "--input", path, "--scale", "unit-variance", "--response", "y",
                 "--nd", "1"]) == 4
    assert "numerical failure: column b has zero variance" in capsys.readouterr().err


def test_id_column_cannot_be_the_response(tmp_path, capsys):
    # checked before the file is read: the path does not exist
    with pytest.raises(ConfigError, match="'c' cannot be both the id column and the response"):
        ingest_csv(str(tmp_path / "absent.csv"), response_column="c", id_column="c")
    path = _write(tmp_path, "a,b,c\n1,2,3\n2,1,5\n4,4,4\n")
    for argv in (["pca", "--nd", "1"], ["rotate", "--nr", "2"],
                 ["simpca", "--nr", "2", "--nd", "1"]):
        code = main(argv + ["--input", path, "--scale", "none", "--id-column", "c",
                            "--response", "c"])
        out = capsys.readouterr()
        assert code == 2 and out.out == ""
        assert "config error: column 'c' cannot be both" in out.err


def test_cli_names_translate_to_the_library_lists_in_order():
    # the parser takes its --coef-scale and --select choices from these keys
    assert tuple(cli._COEF_SCALES.values()) == pca.SCALINGS
    assert tuple(cli._SELECT_KINDS.values()) == selection.KINDS
    assert tuple(cli._NORMS.values()) == selection.NORMS
    # --criterion takes the named presets and cf, which takes --kappa
    assert list(rotation.PRESETS) == ["varimax", "quartimax", "equamax"]
    for nr in (2, 5):
        assert [make(nr) for make in rotation.PRESETS.values()] == [
            rotation.RotationCriterion.varimax(), rotation.RotationCriterion.quartimax(),
            rotation.RotationCriterion.equamax(nr)]
    assert list(cli._NORMS) == ["1", "2", "inf"]


def test_cli_scale_required():
    with pytest.raises(SystemExit):
        main(["pca", "--input", EUROJOBS, "--nd", "2"])
