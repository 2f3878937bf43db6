"""CSV ingestion: the loadtxt reader against the per-cell reader it replaced.

``_oracle_ingest_csv`` is the previous ``report.ingest_csv``, kept verbatim
as the differential oracle: on every generated file the new reader must
return the same names, ids, and values and response bit for bit, or raise
the same exception class with the same ``args``.
"""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simpca import report
from simpca.errors import (
    ConfigError,
    EmptyInput,
    MissingColumn,
    MissingValue,
    NonNumericCell,
    RaggedRow,
)

from conftest import EUROJOBS

_MISSING_TOKENS = {"", "na", "n/a", "nan", "null", "?", "."}


def _oracle_ingest_csv(path, response_column=None, id_column=None, delimiter=None):
    """Read a numeric CSV with a header row.

    Returns (column_names, values, ids, response). The id column (row
    labels) and the response column are excluded from the feature matrix.
    Rows with missing cells are rejected; imputation is not supported. A
    file without data rows, or with a row whose cell count differs from the
    header's, is rejected too.
    """
    with open(path, newline="") as fh:
        sample = fh.read(4096)
        fh.seek(0)
        if delimiter is None:
            delimiter = "\t" if "\t" in sample.partition("\n")[0] else ","
        reader = csv.reader(fh, delimiter=delimiter)
        rows = [row for row in reader if row]
    if len(rows) < 2:
        raise EmptyInput()
    header = [h.strip() for h in rows[0]]
    drop = []
    for name in (id_column, response_column):
        if name is not None:
            if name not in header:
                raise MissingColumn(name)
            drop.append(header.index(name))
    feature_cols = [i for i in range(len(header)) if i not in drop]
    names = [header[i] for i in feature_cols]

    ids = []
    response = []
    data = []
    for r, row in enumerate(rows[1:], start=1):
        if len(row) != len(header):
            raise RaggedRow(r, len(row), len(header))
        if id_column is not None:
            ids.append(row[header.index(id_column)].strip())
        parsed = []
        for c in feature_cols + ([header.index(response_column)] if response_column else []):
            cell = row[c].strip()
            if cell.lower() in _MISSING_TOKENS:
                raise MissingValue(r, header[c])
            try:
                parsed.append(float(cell))
            except ValueError:
                raise NonNumericCell(r, header[c]) from None
        if response_column is not None:
            response.append(parsed.pop())
        data.append(parsed)
    values = np.asarray(data, float)
    resp = np.asarray(response, float) if response_column else None
    return names, values, (ids if id_column else None), resp


def _outcome(reader, path, **kwargs):
    """The reader's result, or (exception class, args) for an error."""
    try:
        return reader(path, **kwargs)
    except Exception as exc:  # every error must match the oracle's
        return type(exc), exc.args


def _same_array(a, b):
    """Equal bit for bit: dtype, shape and every byte, NaN payloads included."""
    if a is None or b is None:
        return a is b
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


NUMBERS = ["0", "-0", "1", "2.5", "-3.25e-7", "1e300", "4.9e-324", "0.1", "7",
           " 2.5 ", "+8", "1.", ".5", "1e400", "-1e400", "inf", "-Infinity",
           '"2.5"', '"2.5" ', "1e-310"]
ODD = ["nan", "NaN", "-nan", "na", "N/A", "null", "", " ", "?", ".", "1_0", "١",
       "abc", "0x10", "1d5", ' "2.5"', '2"5', '"1""2"', '"1,5"', "1 2", " 1"]
# " c " and "c", '"q"' and "q" parse to the same name: a repeated column name
NAMES = ["a", "b", " c ", "c", "id", "y", "x1", '"q"', "q"]


def _one_in(k):
    """True about once in k draws; False is the simplest example."""
    return st.sampled_from([False] * (k - 1) + [True])


@st.composite
def csv_files(draw):
    """CSV text, delimiter argument, id and response column arguments."""
    sep = draw(st.sampled_from([",", "\t"]))
    k = draw(st.integers(1, 5))
    header = draw(st.lists(st.sampled_from(NAMES), min_size=k, max_size=k, unique=True))
    lines = [sep.join(header)]
    labels = draw(st.sampled_from([None] + header))
    for _ in range(draw(st.sampled_from([3, 1, 2, 4, 5, 6, 0]))):
        width = k
        if draw(_one_in(10)):  # short or long ragged row
            width = max(1, k + draw(st.sampled_from([-1, 1])))
        tokens = NUMBERS + ODD if draw(_one_in(4)) else NUMBERS
        cells = [draw(st.sampled_from(tokens)) for _ in range(width)]
        if labels is not None and header.index(labels) < width:
            cells[header.index(labels)] = draw(st.sampled_from(["r1", " r2 ", '"r,3"', ""]))
        lines.append(sep.join(cells))
        if draw(_one_in(5)):  # blank or whitespace-only line
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
    if draw(_one_in(20)):
        lines = draw(st.sampled_from([[], [""], ["", ""]]))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = eol.join(lines) + draw(st.sampled_from(["", eol]))
    # the names as the header parses them
    parsed = [h.strip().strip('"') for h in header]
    columns = st.sampled_from([None] * 4 + parsed + ["zz"])
    id_column = draw(columns) if labels is None else parsed[header.index(labels)]
    response_column = draw(columns)
    delimiter = draw(st.sampled_from([None, sep]))
    return text, delimiter, id_column, response_column


@settings(derandomize=True, deadline=None, max_examples=500)
@given(csv_files())
def test_ingest_matches_per_cell_oracle(tmp_path_factory, case):
    text, delimiter, id_column, response_column = case
    path = tmp_path_factory.getbasetemp() / "diff.csv"
    with open(path, "w", newline="") as fh:
        fh.write(text)
    kwargs = dict(delimiter=delimiter, id_column=id_column, response_column=response_column)
    if id_column is not None and id_column == response_column:
        # one column named as both is a ConfigError before the file is read,
        # where the oracle reads the file
        with pytest.raises(ConfigError, match="cannot be both the id column and the response"):
            report.ingest_csv(path, **kwargs)
        return
    want = _outcome(_oracle_ingest_csv, path, **kwargs)
    got = _outcome(report.ingest_csv, path, **kwargs)
    if isinstance(want[0], type):
        assert got == want
        return
    assert not isinstance(got[0], type), got
    assert got[0] == want[0]
    assert _same_array(got[1], want[1])
    assert got[2] == want[2]
    assert _same_array(got[3], want[3])


def test_valid_files_never_reach_the_scan(tmp_path, monkeypatch):
    def scan(*args):
        raise AssertionError("a valid file went to the per-cell scan")

    monkeypatch.setattr(report, "_scan_csv", scan)
    names, values, ids, _ = report.ingest_csv(EUROJOBS, id_column="country")
    assert values.shape == (26, 9) and len(ids) == 26
    path = tmp_path / "quoted.tsv"
    path.write_text('id\tx\t"y"\r\n"r 1"\t1.5\t-2e3\r\n\r\nr2\t"inf"\t7\r\n')
    names, values, ids, resp = report.ingest_csv(path, id_column="id", response_column="y")
    assert names == ["x"] and ids == ["r 1", "r2"]
    assert values.tolist() == [[1.5], [np.inf]] and resp.tolist() == [-2000.0, 7.0]


def test_float_only_tokens_keep_their_values(tmp_path):
    path = tmp_path / "odd.csv"
    path.write_text("a,b\n1_0,١\n-nan,2\n")
    _, values, _, _ = report.ingest_csv(path)
    assert values[0].tolist() == [10.0, 1.0]
    assert np.isnan(values[1, 0]) and values[1, 1] == 2.0


@pytest.mark.parametrize("delimiter", ["", ";;"])
def test_delimiter_of_other_than_one_character(delimiter):
    with pytest.raises(ConfigError, match="one character"):
        report.ingest_csv(EUROJOBS, delimiter=delimiter)
