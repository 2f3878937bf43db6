"""Dataset ingestion, report assembly and serialization.

The report mirrors the summary tables used throughout the analyses:
per-component vexp / cvexp / rcvexp / cardinality / minimum contribution,
signed percent contributions with per-variable Vifs within the support,
component correlations, and optional external-response R^2.

Every number is read off the record of the data (``core._Factor``): the
triangular factor F of the centered data X = Q_x F and, with a response,
the last column [c; rho] of R([X y]) = [F c; 0 rho] for the centered
response y (c = Q_x'y). The total variance is ||F||_F^2, the Vifs and
correlations depend on X only through F, and the R^2 of y on scores X W
is that of [c; rho] on [F W; 0]. No n-space array is read.
"""

import csv
import io
import json
import warnings
from dataclasses import dataclass, fields

import numpy as np

from . import core, pca
from .errors import (
    ConfigError,
    EmptyInput,
    MissingColumn,
    MissingValue,
    NonNumericCell,
    NotUtf8,
    RaggedRow,
)

_MISSING_TOKENS = {"", "na", "n/a", "nan", "null", "?", "."}


def ingest_csv(path, response_column=None, id_column=None, delimiter=None):
    """Read a numeric CSV with a header row.

    Returns (column_names, values, ids, response). The id column (row
    labels) and the response column are excluded from the feature matrix.
    Rows with missing cells are rejected; imputation is not supported. A
    file without data rows, or with a row whose cell count differs from the
    header's, is rejected too, and so are a delimiter of other than one
    character and a column named as both the id column and the response
    (``ConfigError``, before the file is read). The file is read as UTF-8,
    and a leading byte-order mark, as spreadsheet programs write, is
    skipped; a byte that does not decode is ``NotUtf8``.

    The header is read with the ``csv`` module and the body with one
    ``np.loadtxt`` call in C. A file loadtxt cannot read whole, or in which
    it reads a NaN, goes to a per-cell scan, which raises the typed error,
    with its row and column, or returns the block loadtxt would: a ``nan``
    token is ``MissingValue``, and a token that only Python's ``float()``
    reads, such as ``1_0`` or non-ASCII digits, keeps the value ``float()``
    gives it. Both readers parse a number to the same double. The names,
    features and response are then split from either block alike.
    """
    if delimiter is not None and len(delimiter) != 1:
        raise ConfigError(f"delimiter must be one character, got {delimiter!r}")
    if id_column is not None and id_column == response_column:
        raise ConfigError(f"column {id_column!r} cannot be both the id column and the response")
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            sample = fh.read(4096)
            fh.seek(0)
            if delimiter is None:
                delimiter = "\t" if "\t" in sample.partition("\n")[0] else ","
            header = next((row for row in csv.reader(fh, delimiter=delimiter) if row), [])
            header = [h.strip() for h in header]
            named = [c for c in (id_column, response_column) if c is not None]
            block = ids = None
            # a missing column is the scan's to report
            if header and set(named) <= set(header):
                block, ids = _load_body(fh, delimiter, header, id_column)
            if block is None or block.shape[1] != len(header) or np.isnan(block).any():
                fh.seek(0)
                rows = [row for row in csv.reader(fh, delimiter=delimiter) if row][1:]
                block, ids = _scan_csv(rows, header, id_column, response_column)
    except UnicodeDecodeError as exc:
        raise NotUtf8(exc.object[exc.start]) from None
    drop = [header.index(c) for c in named]
    feature_cols = [i for i in range(len(header)) if i not in drop]
    resp = None if response_column is None else block[:, header.index(response_column)].copy()
    return [header[i] for i in feature_cols], block[:, feature_cols], ids, resp


def _load_body(fh, delimiter, header, id_column):
    """The rows after the header as loadtxt's float block, and the stripped
    labels of the id column (None without one), which reads as 0.0 in the
    block; (None, None) when loadtxt fails or finds no data row."""
    ids = None
    converters = None
    if id_column is not None:
        ids = []
        converters = {header.index(id_column): lambda cell: ids.append(cell.strip()) or 0.0}
    try:
        with warnings.catch_warnings():
            # loadtxt only warns on a body without data rows
            warnings.simplefilter("error", UserWarning)
            # encoding=None hands the converter str, not bytes, on numpy < 2
            block = np.loadtxt(fh, delimiter=delimiter, converters=converters, ndmin=2,
                               comments=None, quotechar='"', encoding=None)
    except (ValueError, TypeError, UserWarning):
        return None, None
    return block, ids


def _scan_csv(rows, header, id_column, response_column):
    """Per-cell reading of the data rows (lists of cells) under the stripped
    header, for every file loadtxt does not read whole in ``ingest_csv``.

    Raises the error of the first fault: ``EmptyInput``, ``MissingColumn``,
    then, row by row, ``RaggedRow`` or a bad cell, the features before the
    response. Otherwise returns what ``_load_body`` returns: the full-width
    float block, in which an id column that is not the response reads 0.0,
    and the stripped ids (None without an id column).
    """
    if not rows:
        raise EmptyInput()
    for name in (id_column, response_column):
        if name is not None and name not in header:
            raise MissingColumn(name)
    drop = [header.index(c) for c in (id_column, response_column) if c is not None]
    parse_cols = [i for i in range(len(header)) if i not in drop]
    if response_column is not None:
        parse_cols.append(header.index(response_column))
    block = np.zeros((len(rows), len(header)))
    ids = None if id_column is None else []
    for r, row in enumerate(rows, start=1):
        if len(row) != len(header):
            raise RaggedRow(r, len(row), len(header))
        if ids is not None:
            ids.append(row[header.index(id_column)].strip())
        for c in parse_cols:
            cell = row[c].strip()
            if cell.lower() in _MISSING_TOKENS:
                raise MissingValue(r, header[c])
            try:
                block[r - 1, c] = float(cell)
            except ValueError:
                raise NonNumericCell(r, header[c]) from None
    return block, ids


@dataclass(frozen=True)
class ComponentSummary:
    method: str
    cardinality: int
    vexp_pct: float
    cvexp_pct: float
    rcvexp: float
    mincont_pct: float
    r2_vs_target: float
    variables: tuple  # (name, contribution_pct, vif_within_support)


@dataclass(frozen=True)
class AnalysisReport:
    config: dict
    column_names: tuple
    total_variance: float
    pca_vexp_pct: tuple
    components: tuple  # ComponentSummary
    correlations: tuple  # nested tuples, nd x nd (empty if nd < 2)
    response_r2: tuple  # R^2 for 1..nd components, empty without response


def _response_r2(yf, f, w):
    """R^2 of the response on the first k columns of the scores X W, for
    k = 1 .. d, read off R([X y]) = [F c; 0 rho] as that of its last
    column yf = [c; rho] on [F W_k; 0]; empty without a response (yf
    None)."""
    if yf is None:
        return ()
    t = np.vstack([f @ w, np.zeros(w.shape[1])])
    return tuple(core.r_squared(t[:, :k], yf) for k in range(1, w.shape[1] + 1))


def build_report(x, result, config_echo):
    """Assemble an AnalysisReport from a pipeline result on x. x, a
    DataMatrix or the record the CLI reads (``core._Factor``), gives the
    column names, and a record with a response also gives the response.

    Every number is read off a factor. Each support's Vifs come from the
    columns of the factor F the pipeline ran on (``result.factor``), since
    X_A'X_A = F_A'F_A, and the component correlations are the cosines of
    the F-space scores F W (X is centered, so their means are 0). The
    response R^2 is read off the record's [c; rho] and F; there is none
    without a response.
    """
    total = result.total_variance
    w = np.zeros((len(x.column_names), len(result.components)))
    comps = []
    cum_sparse = 0.0
    cum_rot = 0.0
    for j, (comp, rot_ve) in enumerate(zip(result.components, result.rotated_vexp)):
        w[list(comp.support.indices), j] = comp.coefficients
        cum_sparse += comp.extra_vexp
        cum_rot += rot_ve
        vifs = core.vif(result.factor, comp.support.indices)
        variables = tuple(
            (x.column_names[i], float(c), float(v))
            for i, c, v in zip(comp.support.indices, comp.contributions, vifs)
        )
        comps.append(
            ComponentSummary(
                method=comp.method,
                cardinality=comp.support.cardinality,
                vexp_pct=100.0 * comp.extra_vexp / total,
                cvexp_pct=100.0 * cum_sparse / total,
                rcvexp=cum_sparse / cum_rot,
                mincont_pct=float(np.min(np.abs(comp.contributions))),
                r2_vs_target=comp.r2_vs_target,
                variables=variables,
            )
        )
    correlations = ()
    if len(comps) >= 2:
        t = result.factor @ w
        t /= np.linalg.norm(t, axis=0)
        correlations = tuple(tuple(float(v) for v in row) for row in np.clip(t.T @ t, -1.0, 1.0))
    return AnalysisReport(
        config=dict(config_echo),
        column_names=tuple(x.column_names),
        total_variance=total,
        pca_vexp_pct=tuple(100.0 * v / total for v in result.pca_vexp),
        components=tuple(comps),
        correlations=correlations,
        # a DataMatrix has no response
        response_r2=_response_r2(getattr(x, "yf", None), result.factor, w),
    )


def pca_report(x, d, config_echo):
    """PCA-only report of x, a DataMatrix or the record the CLI reads
    (``core._factor_of``): vexp spectrum, no sparse component blocks;
    d=None reports every component up to the numerical rank.

    The spectrum is the record's, that of F rank-cut with X's n, the total
    variance ||F||_F^2, and the response R^2 that of the leading principal
    directions V, read off the record as in ``build_report``.
    """
    rec = core._factor_of(x)
    total = float(np.sum(rec.f**2))
    lam, v = pca._leading(*rec.spectrum(), d)
    return AnalysisReport(
        config=dict(config_echo),
        column_names=tuple(rec.column_names),
        total_variance=total,
        pca_vexp_pct=tuple(100.0 * v / total for v in lam**2),
        components=(),
        correlations=(),
        response_r2=_response_r2(rec.yf, rec.f, v),
    )


def _thaw(value):
    """A JSON value with its arrays back as the tuples a report holds."""
    return tuple(_thaw(v) for v in value) if isinstance(value, list) else value


def _component_hook(obj):
    # JSON objects decode innermost first: a component block is the object
    # with exactly ComponentSummary's fields; the config echo stays a dict
    if obj.keys() == {f.name for f in fields(ComponentSummary)}:
        return ComponentSummary(**{k: _thaw(v) for k, v in obj.items()})
    return obj


def report_from_json(payload):
    """Rebuild an AnalysisReport from the bytes produced by emit(..., 'json')."""
    data = json.loads(payload, object_hook=_component_hook)
    return AnalysisReport(**{k: _thaw(v) for k, v in data.items()})


def _fields(obj):
    """A report dataclass as the dict of its fields, in order, read in
    place; any other type is json's own ``TypeError``."""
    if isinstance(obj, (AnalysisReport, ComponentSummary)):
        return vars(obj)
    return json.JSONEncoder().default(obj)


def emit(report, fmt="tsv"):
    """Serialize a report: 'json' is lossless, 'tsv' mirrors the table
    presentation (whole-percent contributions, one decimal for vexp)."""
    if fmt == "json":
        # the dataclasses are the schema: their fields, in order. A report
        # holds Python scalars, tuples and dicts (np.float64 is a float); a
        # config echo of other types is the caller's to convert
        return (json.dumps(report, indent=2, default=_fields) + "\n").encode()
    if fmt != "tsv":
        raise ConfigError(f"unknown format {fmt!r}")

    out = io.StringIO()

    def w(*cells):
        out.write("\t".join(str(c) for c in cells) + "\n")

    w("# config")
    for key in sorted(report.config):
        w(key, report.config[key])
    w("# pca vexp")
    w("component", "vexp_pct")
    for j, v in enumerate(report.pca_vexp_pct, start=1):
        w(f"pc{j}", f"{v:.1f}")
    if report.components:
        w("# components")
        w("component", "method", "card", "vexp_pct", "cvexp_pct", "rcvexp_pct",
          "mincont_pct", "r2_vs_target")
        for j, c in enumerate(report.components, start=1):
            r2 = "" if c.r2_vs_target is None else f"{c.r2_vs_target:.3f}"
            w(f"comp{j}", c.method, c.cardinality, f"{c.vexp_pct:.1f}",
              f"{c.cvexp_pct:.1f}", f"{100 * c.rcvexp:.1f}",
              f"{c.mincont_pct:.0f}", r2)
        w("# contributions")
        w("component", "variable", "contribution_pct", "vif")
        for j, c in enumerate(report.components, start=1):
            for name, contrib, v in c.variables:
                w(f"comp{j}", name, f"{contrib:.0f}", f"{v:.2f}")
    if report.correlations:
        w("# component correlations")
        for row in report.correlations:
            w(*(f"{v:.3f}" for v in row))
    if report.response_r2:
        w("# response r2")
        w("components", "r2")
        for k, v in enumerate(report.response_r2, start=1):
            w(k, f"{v:.3f}")
    return out.getvalue().encode()
