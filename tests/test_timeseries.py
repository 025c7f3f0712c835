import csv
import io
import math
import re
import warnings
from array import array
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from regime_xai import timeseries
from regime_xai.timeseries import (
    FeatureMatrix,
    ParseError,
    TimeSeriesError,
    TimeTable,
    align_join,
    format_timestamp,
    format_timestamps,
    load_table,
    mixed_price,
    parse_timestamp,
    resample_mean,
    residual_load,
    synth_regime,
)

T0 = parse_timestamp("2020-01-01T00:00:00Z")
EVER = (T0, T0 + 10**6 * 3600)  # a join span that covers every test table


def hourly_table(values_by_col, start=T0):
    n = len(next(iter(values_by_col.values())))
    return TimeTable(start, 3600, n, {k: np.asarray(v, dtype=float) for k, v in values_by_col.items()})


# ---------------------------------------------------------------- load_table


def write_csv(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return path


def test_load_table_parses_hourly_csv(tmp_path):
    p = write_csv(
        tmp_path / "a.csv",
        [
            "timestamp,price,load",
            "2020-01-01T00:00:00Z,10.5,100",
            "2020-01-01T01:00:00Z,11.0,",
            "2020-01-01T02:00:00Z,9.25,90",
        ],
    )
    t = load_table(p, step_seconds=3600)
    assert len(t) == 3
    assert list(t.columns) == ["price", "load"]
    assert t.columns["price"][2] == 9.25
    assert np.isnan(t.columns["load"][1])


def test_load_table_sorts_rows(tmp_path):
    p = write_csv(
        tmp_path / "a.csv",
        [
            "timestamp,v",
            "2020-01-01T01:00:00Z,2",
            "2020-01-01T00:00:00Z,1",
        ],
    )
    t = load_table(p, 3600)
    assert list(t.columns["v"]) == [1.0, 2.0]


def test_load_table_accepts_a_leading_byte_order_mark(tmp_path):
    # spreadsheet "CSV UTF-8" exports start with U+FEFF
    lines = ["timestamp,price,load", "2020-01-01T00:00:00Z,10.5,", "2020-01-01T01:00:00Z,11.0,90"]
    plain = load_table(write_csv(tmp_path / "plain.csv", lines), 3600)
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + (tmp_path / "plain.csv").read_bytes())
    t = load_table(bom, 3600)
    np.testing.assert_array_equal(t.timestamps, plain.timestamps)
    assert list(t.columns) == list(plain.columns)
    for name in plain.columns:
        np.testing.assert_array_equal(t.columns[name], plain.columns[name])


def test_load_table_resolution_mismatch(tmp_path):
    p = write_csv(
        tmp_path / "a.csv",
        [
            "timestamp,v",
            "2020-01-01T00:00:00Z,1",
            "2020-01-01T02:00:00Z,2",
        ],
    )
    with pytest.raises(TimeSeriesError, match="between 2020-01-01T00:00:00Z and 2020-01-01T02:00:00Z"):
        load_table(p, 3600)


def test_load_table_duplicate_timestamp(tmp_path):
    p = write_csv(
        tmp_path / "a.csv",
        [
            "timestamp,v",
            "2020-01-01T00:00:00Z,1",
            "2020-01-01T00:00:00Z,2",
        ],
    )
    with pytest.raises(TimeSeriesError, match="duplicate timestamp 2020-01-01T00:00:00Z"):
        load_table(p, 3600)


@pytest.mark.parametrize("quote", ["", '"'], ids=["vectorized pass", "per-row loop"])
@pytest.mark.parametrize(
    "hours, message",
    [
        ([0, 1, 3, 4, 4],
         "line 4: observed step 2h between 2020-01-01T01:00:00Z and 2020-01-01T03:00:00Z, expected 1h"),
        ([0, 1, 1, 2, 4], "line 4: duplicate timestamp 2020-01-01T01:00:00Z after 2020-01-01T01:00:00Z"),
    ],
    ids=["gap before a duplicate", "duplicate before a gap"],
)
def test_load_table_refuses_the_first_grid_fault_in_time_order(tmp_path, hours, message, quote):
    # a repeated stamp is a step of 0, so of two faults the earlier one in time is named;
    # a quoted cell sends the chunk to the per-row loop
    lines = hourly_lines(hours)
    lines[1] = lines[1].replace(",0", f",{quote}0{quote}")
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        load_table(write_csv(tmp_path / "a.csv", lines), 3600)


@pytest.mark.parametrize(
    "lines, message",
    [
        (
            ["timestamp,v", "2018-01-01T02:00:00Z,3", "2018-01-01T00:00:00Z,1", "2018-01-01T01:00:00Z,2",
             "2018-01-01T00:00:00Z,4"],
            "line 5: duplicate timestamp 2018-01-01T00:00:00Z after 2018-01-01T00:00:00Z",
        ),
        (
            ["timestamp,v", "2018-01-01T03:00:00Z,4", "2018-01-01T00:00:00Z,1", "", "2018-01-01T01:00:00Z,2"],
            "line 2: observed step 2h between 2018-01-01T01:00:00Z and 2018-01-01T03:00:00Z, expected 1h",
        ),
    ],
    ids=["duplicate", "gap"],
)
def test_load_table_names_the_file_line_of_a_grid_fault_in_unsorted_rows(tmp_path, lines, message):
    # the later row of the faulty pair sits at sorted index 1 (duplicate) and 2 (gap):
    # the message names its line in the file, not its place after the sort
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        load_table(write_csv(tmp_path / "a.csv", lines), 3600)


@pytest.mark.parametrize(
    "stamp",
    ["2018-01-01 00:00:00", "2018-01-01T00:00", "2018-01-01T00:00:00+00:00",
     "2018-1-1T0:0:0Z", "2018-01-01t00:00:00z", "\uff12\uff10\uff11\uff18-01-01T00:00:00Z"],
)
def test_load_table_rejects_timestamps_numpy_would_accept(tmp_path, stamp):
    # numpy's datetime64 parses the first three forms and Python's strptime the
    # last three; ingest takes only YYYY-MM-DDThh:mm:ssZ
    lines = ["timestamp,v", "2017-12-31T23:00:00Z,1", f"{stamp},2"]
    with pytest.raises(ParseError, match=f"^{re.escape(f'line 3: malformed timestamp {stamp!r}')}$"):
        load_table(write_csv(tmp_path / "a.csv", lines), 3600)


def test_load_table_reads_a_year_before_1000_and_writes_it_back(tmp_path):
    lines = ["timestamp,v", "0999-12-31T22:00:00Z,1", "0999-12-31T23:00:00Z,2"]
    t = load_table(write_csv(tmp_path / "a.csv", lines), 3600)
    assert t.n_rows == 2 and format_timestamp(t.start) == "0999-12-31T22:00:00Z"


FIRST_STAMP, LAST_STAMP = -62135596800, 253402300799  # 0001-01-01T00:00:00Z, 9999-12-31T23:59:59Z


@settings(max_examples=300, deadline=None)
@given(st.integers(FIRST_STAMP, LAST_STAMP))
def test_every_written_stamp_reads_back(t):
    stamp = format_timestamp(t)
    assert len(stamp) == 20 and stamp.isascii()
    assert parse_timestamp(stamp) == t


LEAP_DAYS_AND_YEAR_ENDS = [
    parse_timestamp(s)
    for s in (
        "0001-01-01T00:00:00Z", "0004-02-29T23:59:59Z", "1600-02-29T00:00:00Z", "1899-12-31T23:59:59Z",
        "1900-03-01T00:00:00Z", "1969-12-31T23:59:59Z", "1970-01-01T00:00:00Z", "2000-02-29T12:00:00Z",
        "2023-12-31T23:00:00Z", "2024-02-29T00:00:00Z", "9996-02-29T06:00:00Z", "9999-12-31T23:59:59Z",
    )
]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(FIRST_STAMP, LAST_STAMP), max_size=50) | st.just(LEAP_DAYS_AND_YEAR_ENDS))
def test_format_timestamps_matches_a_datetime_oracle(ts):
    # the dependence and feature writers format a window's stamps in one numpy
    # call; the standard library's proleptic Gregorian calendar is the oracle
    got = format_timestamps(np.array(ts, dtype=np.int64))
    assert got == [(datetime(1970, 1, 1) + timedelta(seconds=t)).isoformat() + "Z" for t in ts]


def test_load_table_accepts_a_file_with_only_timestamps(tmp_path):
    p = write_csv(tmp_path / "a.csv", ["timestamp", "2020-01-01T01:00:00Z", "2020-01-01T00:00:00Z"])
    t = load_table(p, 3600)
    assert len(t) == 2 and t.columns == {}
    np.testing.assert_array_equal(t.timestamps, [T0, T0 + 3600])


@pytest.mark.parametrize(
    "lines, message",
    [
        ([], "line 1: empty file"),
        (["timestamp,v,v", "2020-01-01T00:00:00Z,1,2"], "line 1: duplicate column names in header"),
        (["timestamp,v", "2020-01-01T00:00:00Z,1", "2020-01-01T01:00:00Z,2,3"], "line 3: expected 2 cells, got 3"),
        (["timestamp,v", ""], "line 2: no data rows"),
    ],
    ids=["empty", "duplicate names", "ragged row", "header only"],
)
def test_load_table_rejects_a_malformed_file_naming_the_line(tmp_path, lines, message):
    p = tmp_path / "a.csv"
    p.write_text("".join(line + "\n" for line in lines))
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        load_table(p, 3600)


def test_load_table_reports_line_number(tmp_path):
    p = write_csv(
        tmp_path / "a.csv",
        [
            "timestamp,v",
            "2020-01-01T00:00:00Z,1",
            "2020-01-01T01:00:00Z,not-a-number",
        ],
    )
    with pytest.raises(ParseError, match="line 3"):
        load_table(p, 3600)


def test_load_table_rejects_infinity_with_line_and_column(tmp_path):
    p = write_csv(
        tmp_path / "a.csv",
        [
            "timestamp,v,w",
            "2020-01-01T00:00:00Z,1,2",
            "",
            "2020-01-01T01:00:00Z,inf,3",
        ],
    )
    # the blank line 3 is skipped, so the bad cell sits on file line 4
    with pytest.raises(ParseError, match="line 4: column 'v': non-finite value inf"):
        load_table(p, 3600)


def test_load_table_reports_the_first_bad_line_when_an_infinity_comes_first(tmp_path):
    p = write_csv(
        tmp_path / "a.csv",
        ["timestamp,v", "2020-01-01T00:00:00Z,-inf", "2020-01-01T01:00:00Z,not-a-number"],
    )
    with pytest.raises(ParseError, match="line 2: column 'v': non-finite value -inf"):
        load_table(p, 3600)


@pytest.mark.parametrize(
    "line, message",
    [
        (b"2020-01-01T01:00:00Z,2,3\xe9", "line 3: column 'w': non-numeric value '3\\udce9'"),
        (b"2020-01-01T01:00:00Z\xe9,2,3", "line 3: malformed timestamp '2020-01-01T01:00:00Z\\udce9'"),
    ],
    ids=["value", "timestamp"],
)
def test_load_table_names_the_line_and_cell_of_a_byte_that_is_not_utf8(tmp_path, line, message):
    p = tmp_path / "latin1.csv"
    p.write_bytes(b"timestamp,v,w\n2020-01-01T00:00:00Z,1,2\n" + line + b"\n2020-01-01T02:00:00Z,4,5\n")
    with pytest.raises(ParseError, match=re.escape(message)):
        load_table(p, 3600)


def test_load_table_rejects_a_header_that_is_not_utf8(tmp_path):
    p = tmp_path / "latin1.csv"
    p.write_bytes(b"timestamp,v,caf\xe9\n2020-01-01T00:00:00Z,1,2\n")
    with pytest.raises(ParseError, match="line 1: header is not UTF-8 text"):
        load_table(p, 3600)


def test_load_table_rejects_bad_header(tmp_path):
    p = write_csv(tmp_path / "a.csv", ["time,v", "2020-01-01T00:00:00Z,1"])
    with pytest.raises(ParseError, match="line 1"):
        load_table(p, 3600)


# ------------------------------------------------------- load_table's oracle


def reference_load_table(path, step_seconds: int) -> TimeTable:
    """load_table as one loop over csv.reader rows: the oracle the chunked
    numpy pass must match, value for value and error for error."""
    try:
        # spreadsheet exports may lead with a BOM; a byte that is not UTF-8 becomes a
        # lone surrogate, so the cell holding it fails its timestamp or number check
        fh = open(path, newline="", encoding="utf-8-sig", errors="surrogateescape")
    except OSError as exc:
        raise TimeSeriesError(f"cannot read {path}: {exc}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(1, "empty file") from None
        if not header or header[0].strip() != "timestamp":
            raise ParseError(1, f"first column must be named 'timestamp', got {header[:1]!r}")
        if any("\udc80" <= c <= "\udcff" for c in "".join(header)):
            raise ParseError(1, f"header is not UTF-8 text: {header!r}")
        names = [h.strip() for h in header[1:]]
        if len(set(names)) != len(names):
            raise ParseError(1, "duplicate column names in header")

        ts_list: list[int] = []
        line_nos = array("l")  # each row's file line for the grid errors; 8 bytes a row, not a list's 40
        rows: list[list[float]] = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(line_no, f"expected {len(header)} cells, got {len(row)}")
            try:
                ts_list.append(parse_timestamp(row[0].strip()))
            except ValueError:
                raise ParseError(line_no, f"malformed timestamp {row[0]!r}") from None
            line_nos.append(line_no)
            values = []
            for name, cell in zip(names, row[1:]):
                cell = cell.strip()
                if cell == "":
                    values.append(np.nan)
                    continue
                try:
                    value = float(cell)
                except ValueError:
                    raise ParseError(
                        line_no, f"column {name!r}: non-numeric value {cell!r}"
                    ) from None
                if math.isinf(value):
                    raise ParseError(line_no, f"column {name!r}: non-finite value {value}")
                values.append(value)
            rows.append(values)

    if not ts_list:
        raise ParseError(2, "no data rows")
    ts = np.asarray(ts_list, dtype=np.int64)
    data = np.asarray(rows, dtype=np.float64).reshape(len(ts), len(names))

    order = np.argsort(ts, kind="stable")
    ts = ts[order]
    data = data[order]
    # one scan in time order: the first fault is named, and a repeated stamp is a step of 0
    for bad, diff in enumerate(np.diff(ts).tolist()):
        if diff == 0:
            raise ParseError(
                line_nos[order[bad + 1]], f"duplicate timestamp {format_timestamp(ts[bad + 1])} after {format_timestamp(ts[bad])}"
            )
        if diff != step_seconds:
            raise ParseError(
                line_nos[order[bad + 1]], f"observed step {diff / 3600:g}h between {format_timestamp(ts[bad])} "
                f"and {format_timestamp(ts[bad + 1])}, expected {step_seconds / 3600:g}h"
            )
    columns = {name: data[:, i].copy() for i, name in enumerate(names)}
    return TimeTable(int(ts[0]), step_seconds, len(ts), columns)


def load_outcome(loader, path):
    """(start, n_rows, columns as bit patterns), or the error's type and message."""
    try:
        t = loader(path, 3600)
    except TimeSeriesError as exc:
        return type(exc).__name__, str(exc)
    return t.start, t.n_rows, {name: values.view(np.int64).tolist() for name, values in t.columns.items()}


VALUE_FORMS = ["{0:.4f}", "{0!r}", "{0:.3e}", "{0:+.2E}", "{0:+.1f}", "{0:.0f}.", ".{1:.0f}", " {0:.2f}  ",
               "\t{0:g}", "", "", " ", "nan", "-nan", "NaN", "-0", "1_000"]


def value_cells(rng, n: int) -> list[str]:
    """n numbers or missing cells in forms exports write: padded, with exponents
    and signs, empty, nan."""
    forms = rng.integers(len(VALUE_FORMS), size=n)
    # Python floats: numpy 2 writes a numpy scalar's repr as np.float64(...), which no export holds
    return [VALUE_FORMS[k].format(x, abs(x)) for k, x in zip(forms, rng.normal(0, 50, n).tolist())]


BAD_CELLS = [
    # values the loop rejects: words, infinities, forms float() refuses, NUL, a byte that is not UTF-8
    ("value", "abc"), ("value", "inf"), ("value", "-Infinity"), ("value", "1e500"), ("value", "0x10"),
    ("value", "1d3"), ("value", "1\x00"), ("value", "7\udce9"), ("value", '"1,5"'), ("value", "1,2"),
    # values the loop accepts that the numpy pass leaves to it
    ("value", "\uff11\uff12"), ("value", '"2.5"'), ("value", "\x1c3"), ("value", " " * 80 + "4"),
    # timestamps numpy reads that are not YYYY-MM-DDThh:mm:ssZ, one-digit fields
    # (refused by both loaders), and blanks around a stamp (stripped by both)
    ("stamp", "2018-01-01 00:00:00"), ("stamp", "2018-01-01T00:00"), ("stamp", "0000-01-01T00:00:00Z"),
    ("stamp", "-001-01-01T00:00:00Z"), ("stamp", "2018-01-01T00+01:00Z"), ("stamp", "NaT"), ("stamp", ""),
    ("stamp", "unpadded"), ("stamp", "padded"),
    # rows that break the grid
    ("row", "duplicate"), ("row", "missing"), ("row", "spaces"),
]


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    n_rows=st.integers(1030, 2100),
    width=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    line_end=st.sampled_from(["\n", "\r\n"]),
    bad=st.none() | st.tuples(st.sampled_from(BAD_CELLS), st.floats(0, 1)),
    shuffled=st.booleans(),
)
def test_load_table_matches_the_per_row_loop(tmp_path, n_rows, width, seed, line_end, bad, shuffled):
    # files of one to three chunks, in time order or shuffled across chunks; the
    # oracle's verdict, table or error, is the one to match
    rng = np.random.default_rng(seed)
    values = value_cells(rng, n_rows * (width - 1))
    rows = [[format_timestamp(T0 + 3600 * i), *values[i * (width - 1) : (i + 1) * (width - 1)]] for i in range(n_rows)]
    if bad is not None:
        (kind, cell), where = bad
        i = min(int(where * n_rows), n_rows - 1)
        row = rows[i]
        if kind == "value":
            row[-1] = cell  # the timestamp when there is no value column
        elif kind == "stamp":
            row[0] = {"unpadded": row[0].replace("-0", "-"), "padded": f"  {row[0]} "}.get(cell, cell)
        elif cell == "duplicate":
            rows.insert(i, list(row))
        elif cell == "spaces":
            rows.insert(i, ["   "])  # not blank to csv.reader: a row of one cell
        else:
            del rows[i]
    if shuffled:
        rows = [rows[i] for i in rng.permutation(len(rows))]
    lines = [",".join(row) for row in rows]
    for i in sorted(rng.choice(len(lines), size=len(lines) // 200, replace=False), reverse=True):
        lines.insert(int(i), "")  # blank lines, which csv.reader skips
    header = ",".join(["timestamp", *(f"c{j}" for j in range(1, width))])
    p = tmp_path / "a.csv"
    p.write_bytes(line_end.join([header, *lines, ""]).encode("utf-8", "surrogateescape"))
    assert load_outcome(load_table, p) == load_outcome(reference_load_table, p)


def hourly_lines(hours) -> list[str]:
    return ["timestamp,v", *(f"{format_timestamp(T0 + 3600 * h)},{h}" for h in hours)]


@pytest.mark.parametrize("quote", ["", '"'], ids=["vectorized pass", "per-row loop"])
@pytest.mark.parametrize("hours", [[0, 1, 3, 4, 4], [0, 1, 1, 3]], ids=["gap first", "duplicate first"])
def test_the_per_row_oracle_names_the_loaders_grid_fault(tmp_path, hours, quote):
    # with two grid faults in one file, the oracle and the loader name the same one;
    # a quoted cell sends the chunk to the per-row loop
    lines = hourly_lines(hours)
    lines[1] = lines[1].replace(",0", f",{quote}0{quote}")
    p = write_csv(tmp_path / "a.csv", lines)
    assert load_outcome(load_table, p) == load_outcome(reference_load_table, p)


# the first chunk holds file lines 2-1025, the 1,024 lines after the header; line 1026 opens the second


def test_load_table_names_a_bad_cell_that_opens_the_second_chunk(tmp_path):
    lines = hourly_lines(range(1100))
    lines[1025] = lines[1025].replace(",1024", ",x")
    with pytest.raises(ParseError, match="^line 1026: column 'v': non-numeric value 'x'$"):
        load_table(write_csv(tmp_path / "a.csv", lines), 3600)


def test_a_quoted_line_break_shifts_no_later_line(tmp_path):
    # the cell opened on line 3 closes on line 4, so the bad cell sits on line 8, the 7th record
    lines = ["timestamp,a", "2018-01-01T00:00:00Z,0", '2018-01-01T01:00:00Z,"1', '"', "2018-01-01T02:00:00Z,2",
             "2018-01-01T03:00:00Z,3", "2018-01-01T04:00:00Z,4", "2018-01-01T05:00:00Z,abc"]
    with pytest.raises(ParseError, match="^line 8: column 'a': non-numeric value 'abc'$"):
        load_table(write_csv(tmp_path / "a.csv", lines), 3600)


def test_a_quoted_line_break_across_chunks_shifts_no_later_line(tmp_path):
    # the cell opened on line 1025, the first chunk's last, closes on line 1026, so
    # the second chunk starts on line 1027
    lines = hourly_lines(range(1100))
    lines[1024] = lines[1024].replace(",1023", ',"1023')
    lines.insert(1025, '"')
    lines[1050] = lines[1050].replace(",1048", ",abc")
    with pytest.raises(ParseError, match="^line 1051: column 'v': non-numeric value 'abc'$"):
        load_table(write_csv(tmp_path / "a.csv", lines), 3600)


def test_a_blank_line_that_ends_a_chunk_shifts_no_later_line(tmp_path):
    lines = hourly_lines(range(1100))
    lines.insert(1024, "")  # file line 1025
    t = load_table(write_csv(tmp_path / "a.csv", lines), 3600)
    assert t.start == T0 and t.n_rows == 1100
    np.testing.assert_array_equal(t.columns["v"], np.arange(1100.0))
    lines[1029] = lines[1029].replace(",1027", ",x")
    with pytest.raises(ParseError, match="^line 1030: column 'v': non-numeric value 'x'$"):
        load_table(write_csv(tmp_path / "a.csv", lines), 3600)


def test_a_stamp_cell_too_wide_for_the_chunk_pass_loads_as_the_unpadded_file(tmp_path, monkeypatch):
    # a stamp cell over _STAMP_CHARS characters sends its chunk to the per-row loop
    lines = hourly_lines(range(4))
    padded = [lines[0], " " * timeseries._STAMP_CHARS + lines[1], *lines[2:]]
    plain = load_table(write_csv(tmp_path / "plain.csv", lines), 3600)
    loop_calls = []
    parse_rows = timeseries._parse_rows
    monkeypatch.setattr(timeseries, "_parse_rows", lambda *args: loop_calls.append(args[1:]) or parse_rows(*args))
    wide = load_table(write_csv(tmp_path / "wide.csv", padded), 3600)
    assert loop_calls == [(4, ["v"], 2)]  # the one chunk: 4 lines from file line 2
    assert (wide.start, wide.step_seconds, wide.n_rows) == (plain.start, plain.step_seconds, plain.n_rows)
    assert list(wide.columns) == list(plain.columns)
    np.testing.assert_array_equal(wide.columns["v"], plain.columns["v"])


@pytest.mark.parametrize(
    "hours, message",
    [
        ([*range(1100), 10], "line 1102: duplicate timestamp 2020-01-01T10:00:00Z after 2020-01-01T10:00:00Z"),
        ([*range(600), *range(602, 1100), 601],
         "line 1100: observed step 2h between 2020-01-25T23:00:00Z and 2020-01-26T01:00:00Z, expected 1h"),
    ],
    ids=["duplicate", "gap"],
)
def test_load_table_names_the_later_line_of_a_grid_fault_across_chunks(tmp_path, hours, message):
    # the earlier row of the pair sits in the first chunk, the later one in the second
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        load_table(write_csv(tmp_path / "a.csv", hourly_lines(hours)), 3600)


@pytest.mark.parametrize(
    "cell, verdict",
    [
        ("1_000", 1000.0), ("\uff11\uff12", 12.0), ("+.5", 0.5), ("5.", 5.0), ("nan", np.nan),
        ("1e500", "non-finite value inf"), ("0x10", "non-numeric value '0x10'"), ("1d3", "non-numeric value '1d3'"),
    ],
)
def test_load_table_gives_a_cell_the_verdict_of_float(tmp_path, cell, verdict):
    # float()'s verdicts; numpy's own string-to-float cast may differ from them across numpy versions
    p = write_csv(tmp_path / "a.csv", ["timestamp,v", f"2020-01-01T00:00:00Z,{cell}", "2020-01-01T01:00:00Z,1"])
    if isinstance(verdict, str):
        with pytest.raises(ParseError, match=f"^line 2: column 'v': {re.escape(verdict)}$"):
            load_table(p, 3600)
    else:
        np.testing.assert_array_equal(load_table(p, 3600).columns["v"], [verdict, 1.0])


@pytest.mark.parametrize(
    "line, message",
    [
        ("0000-01-01T00:00:00Z,1", "line 3: malformed timestamp '0000-01-01T00:00:00Z'"),
        ("-001-01-01T00:00:00Z,1", "line 3: malformed timestamp '-001-01-01T00:00:00Z'"),
        ("2018-01-01T00+01:00Z,1", "line 3: malformed timestamp '2018-01-01T00+01:00Z'"),
        ("2018-01-01T01:00:00Z,1\x00", "line 3: column 'v': non-numeric value '1\\x00'"),
        ("2018-01-01T01:00:00Z\x00,1", "line 3: malformed timestamp '2018-01-01T01:00:00Z\\x00'"),
    ],
    ids=["year 0", "negative year", "timezone", "NUL in a value", "NUL in a timestamp"],
)
def test_load_table_refuses_what_numpy_alone_would_read(tmp_path, line, message):
    # numpy parses years before 0001 and reads timezones with a warning,
    # and its string arrays drop trailing NULs; the loop refuses all of them,
    # and numpy's warning stays inside load_table where warnings are not errors
    p = write_csv(tmp_path / "a.csv", ["timestamp,v", "2018-01-01T00:00:00Z,0", line])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            load_table(p, 3600)
    assert caught == []


@pytest.mark.parametrize(
    "lines, line",
    [
        # the value reads as a finite 1.0, so only the length of its cell is at fault
        (["timestamp,v", "2018-01-01T00:00:00Z,0", "2018-01-01T01:00:00Z,1." + "0" * 140_000], 3),
        (["timestamp,v" + "w" * 140_000, "2018-01-01T00:00:00Z,0"], 1),
    ],
    ids=["value", "header"],
)
def test_load_table_names_the_line_of_a_cell_over_the_csv_field_limit(tmp_path, lines, line):
    with pytest.raises(ParseError, match=rf"^line {line}: field larger than field limit \(131072\)$"):
        load_table(write_csv(tmp_path / "a.csv", lines), 3600)


# ----------------------------------------------------------------- write_csv

NAMES = st.text(st.sampled_from([",", '"', "\r", "\n", " ", "a", "\u00e9", "\x00"]), max_size=5) | st.text(
    st.characters(codec="utf-8"), max_size=5
)
FLOATS = st.floats() | st.sampled_from([math.nan, -0.0, 1e16, 5e-324, 1 / 3, math.inf, -math.inf])
SCALARS = ("name", "int")


@st.composite
def csv_tables(draw):
    """A header and write_csv blocks, with the rows they stand for."""
    width = draw(st.integers(2, 5))
    header = draw(st.lists(NAMES, min_size=width, max_size=width))
    blocks, rows = [], []
    for _ in range(draw(st.integers(0, 4))):
        kinds = draw(st.lists(st.sampled_from(["name", "int", "str list", "float array", "float list"]),
                              min_size=width, max_size=width))
        n = 1 if all(k in SCALARS for k in kinds) else draw(st.integers(0, 9))
        block, columns = [], []
        for kind in kinds:
            if kind in SCALARS:
                value = draw(NAMES if kind == "name" else st.integers(-(10**18), 10**18))
                block.append(value)
                columns.append([value] * n)
            else:
                cells = draw(st.lists(NAMES if kind == "str list" else FLOATS, min_size=n, max_size=n))
                block.append(np.array(cells, dtype=np.float64) if kind == "float array" else cells)
                columns.append(cells)
        blocks.append(block)
        rows.extend(zip(*columns))
    return header, blocks, rows


def csv_writer_text(header, rows) -> str:
    """What csv.writer writes for the rows, QUOTE_MINIMAL, with "\n" after
    each. It is given "\r\n" line ends, which are cut back to "\n": with
    them it quotes a cell holding a lone "\r", as write_csv does and as
    csv.reader needs (given "\n" line ends, Python 3.11's writer leaves such
    a cell bare, and the reader then ends the row there)."""
    out = io.StringIO()
    for row in [header, *rows]:
        line = io.StringIO()
        csv.writer(line, lineterminator="\r\n").writerow(row)
        out.write(line.getvalue()[:-2] + "\n")
    return out.getvalue()


@settings(max_examples=300, deadline=None)
@given(table=csv_tables(), slice_rows=st.integers(1, 4))
def test_write_csv_writes_the_bytes_of_csv_writer(tmp_path_factory, table, slice_rows):
    # quoting, floats as the repr of Python floats, repeated names and ints,
    # and slices that cut a block anywhere
    header, blocks, rows = table
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(timeseries, "_SLICE_ROWS", slice_rows)
        timeseries.write_csv(path, header, blocks)
    assert path.read_bytes() == csv_writer_text(header, rows).encode("utf-8")


def test_write_csv_slices_a_long_block_into_the_same_bytes(tmp_path):
    n = 2 * timeseries._SLICE_ROWS + 1
    stamps = format_timestamps(T0 + 3600 * np.arange(n))
    values = np.random.default_rng(0).normal(size=n)
    timeseries.write_csv(tmp_path / "t.csv", ["period", "t", "v"], [("before", stamps, values)])
    rows = list(zip(["before"] * n, stamps, values.tolist()))
    assert (tmp_path / "t.csv").read_bytes() == csv_writer_text(["period", "t", "v"], rows).encode("utf-8")


@pytest.mark.parametrize("name", ["a\rb", "load, DE", 'say "hi"', "two\nlines", " padded "])
def test_write_csv_names_read_back(tmp_path, name):
    timeseries.write_csv(tmp_path / "t.csv", ["feature", name], [(name, [1.5, -0.0]), ([name], [name])])
    with open(tmp_path / "t.csv", newline="", encoding="utf-8") as fh:
        assert list(csv.reader(fh)) == [["feature", name], [name, "1.5"], [name, "-0.0"], [name, name]]


# ------------------------------------------------------------- resample_mean


def test_resample_mean_block_of_four():
    t = hourly_table({"v": [1, 2, 3, 4]})
    r = resample_mean(t, 4 * 3600, 0)
    assert len(r) == 1
    assert r.columns["v"][0] == 2.5
    assert r.timestamps[0] == t.timestamps[0]
    assert r.step_seconds == 4 * 3600


def test_resample_mean_drops_trailing_partial_block():
    t = hourly_table({"v": [1, 2, 3, 4, 5]})
    r = resample_mean(t, 4 * 3600, 0)
    assert list(r.columns["v"]) == [2.5]


def test_resample_mean_skips_missing():
    t = hourly_table({"v": [1, np.nan, 3, 4]})
    r = resample_mean(t, 4 * 3600, 0)
    assert r.columns["v"][0] == pytest.approx(8 / 3)


def test_resample_mean_all_missing_block_stays_missing():
    t = hourly_table({"v": [np.nan] * 4 + [1, 1, 1, 1]})
    r = resample_mean(t, 4 * 3600, 0)
    assert np.isnan(r.columns["v"][0]) and r.columns["v"][1] == 1


@pytest.mark.parametrize(
    "start_hour, n, stamps, means",
    [
        # rows 01:00-03:00 and 08:00-09:00 fall in partial blocks and are dropped
        (1, 9, [4], [5.5]),
        # 00:30-03:30 are every grid point of the block [00:00, 04:00)
        (0.5, 4, [0], [2.0]),
    ],
    ids=["on the hour", "on the half hour"],
)
def test_resample_mean_puts_blocks_on_the_utc_clock(start_hour, n, stamps, means):
    # each row holds its hour of the day
    t = hourly_table({"v": start_hour + np.arange(n)}, start=T0 + int(start_hour * 3600))
    r = resample_mean(t, 4 * 3600, 0)
    np.testing.assert_array_equal(r.timestamps, T0 + 3600 * np.array(stamps))
    np.testing.assert_array_equal(r.columns["v"], means)


def test_resample_mean_anchors_blocks_at_the_origin():
    # blocks [02:00, 06:00) and [06:00, 10:00); rows 00:00-01:00 and 10:00 are partial
    t = hourly_table({"v": np.arange(11.0)}, start=T0)
    r = resample_mean(t, 4 * 3600, 2 * 3600)
    np.testing.assert_array_equal(r.timestamps, T0 + 3600 * np.array([2, 6]))
    np.testing.assert_array_equal(r.columns["v"], [3.5, 7.5])


def test_resampled_tables_that_start_at_different_hours_join():
    a = hourly_table({"f1": np.arange(24.0)}, start=T0)
    b = hourly_table({"tgt": np.arange(24.0)}, start=T0 + 3600)
    fm = align_join([resample_mean(a, 4 * 3600, 0), resample_mean(b, 4 * 3600, 0)], ["f1"], "tgt", *EVER)
    np.testing.assert_array_equal(fm.timestamps, T0 + 4 * 3600 * np.arange(1, 6))
    np.testing.assert_array_equal(fm.X[:, 0], fm.y + 1)


def test_resample_mean_rejects_non_multiple():
    t = resample_mean(hourly_table({"v": np.arange(8.0)}), 4 * 3600, 0)
    with pytest.raises(TimeSeriesError):
        resample_mean(t, 6 * 3600, 0)


def test_resample_mean_refuses_a_table_without_a_complete_block():
    with pytest.raises(TimeSeriesError, match=re.escape("table with 2 rows has no complete 4h block")):
        resample_mean(hourly_table({"v": [1.0, 2.0]}), 4 * 3600, 0)


def test_resample_mean_names_a_block_off_the_grid():
    # a library caller gets the error the config loader gives at load
    with pytest.raises(TimeSeriesError, match=re.escape("block of 1.5h is not a positive multiple of the 1h resolution")):
        resample_mean(hourly_table({"v": np.arange(8.0)}), 5400, 0)


@given(st.integers(1, 6), st.integers(0, 7))
@settings(max_examples=30, deadline=None)
def test_resample_mean_idempotent_for_same_block(blocks, extra):
    block_hours = 4
    n = blocks * block_hours + extra
    rng = np.random.default_rng(n)
    t = hourly_table({"v": rng.normal(size=n)})
    once = resample_mean(t, block_hours * 3600, 0)
    twice = resample_mean(once, block_hours * 3600, 0)
    np.testing.assert_array_equal(once.columns["v"], twice.columns["v"])
    np.testing.assert_array_equal(once.timestamps, twice.timestamps)


# ------------------------------------------------------------- residual_load


def test_residual_load_zero_subtrahends():
    n = 48
    out = residual_load(np.full(n, 10.0), np.zeros(n), np.zeros(n), np.zeros(n), ror_lag_days=1, samples_per_day=24)
    assert np.isnan(out[:24]).all()
    np.testing.assert_allclose(out[24:], 10.0)


def test_residual_load_direct_formula():
    n = 48
    out = residual_load(
        np.full(n, 10.0), np.full(n, 3.0), np.full(n, 2.0), np.full(n, 1.0), ror_lag_days=1, samples_per_day=24
    )
    np.testing.assert_allclose(out[24:], 4.0)


def test_residual_load_against_explicit_summation():
    # Independent oracle: trailing mean recomputed per row with a python loop.
    rng = np.random.default_rng(3)
    n = 10 * 24
    load, wind, solar, ror = (rng.normal(size=n) for _ in range(4))
    lag = 7 * 24
    out = residual_load(load, wind, solar, ror, ror_lag_days=7, samples_per_day=24)
    for t in range(n):
        if t < lag:
            assert np.isnan(out[t])
        else:
            ror_mean = sum(ror[t - lag : t]) / lag
            assert out[t] == pytest.approx(load[t] - wind[t] - solar[t] - ror_mean, abs=1e-10)


@pytest.mark.parametrize("n", [0, 1, 23, 24])
def test_residual_load_of_a_series_no_longer_than_its_lag_is_all_missing(n):
    out = residual_load(np.full(n, 10.0), np.zeros(n), np.zeros(n), np.ones(n), ror_lag_days=1, samples_per_day=24)
    assert out.shape == (n,) and np.isnan(out).all()


def test_residual_load_translation_equivariant():
    rng = np.random.default_rng(11)
    n = 5 * 24
    load, wind, solar, ror = (rng.normal(size=n) for _ in range(4))
    base = residual_load(load, wind, solar, ror, ror_lag_days=2, samples_per_day=24)
    shifted = residual_load(load + 5.0, wind, solar, ror, ror_lag_days=2, samples_per_day=24)
    defined = ~np.isnan(base)
    np.testing.assert_allclose(shifted[defined], base[defined] + 5.0, atol=1e-12)


# --------------------------------------------------------------- mixed_price


def test_mixed_price_alpha_zero_is_capacity():
    got = mixed_price(np.array([10.0, 20.0]), np.array([100.0, 50.0]), alpha=0.0)
    np.testing.assert_array_equal(got, [10.0, 20.0])


def test_mixed_price_direct_formula():
    assert mixed_price(np.array([10.0]), np.array([100.0]), alpha=0.05)[0] == 15.0


# ---------------------------------------------------------------- align_join


@pytest.mark.parametrize(
    "target, message",
    [
        (TimeTable(T0, 900, 32, {"tgt": np.arange(32.0)}), "tables have mixed resolutions: 0.25h, 1h"),
        (resample_mean(hourly_table({"tgt": np.arange(8.0)}), 4 * 3600, 0), "tables have mixed resolutions: 1h, 4h"),
    ],
    ids=["15min-vs-hourly", "hourly-vs-resampled-4h"],
)
def test_align_join_refuses_mixed_resolutions(target, message):
    # a library caller gets the error the config loader gives at load
    hourly = hourly_table({"f1": np.arange(8.0)})
    with pytest.raises(TimeSeriesError, match=re.escape(message)):
        align_join([hourly, target], ["f1"], "tgt", *EVER)


def test_align_join_refuses_an_empty_table_list():
    with pytest.raises(TimeSeriesError, match="align_join needs at least one table"):
        align_join([], ["f1"], "tgt", *EVER)


def test_align_join_identical_timestamps():
    a = hourly_table({"f1": [1, 2, 3, 4, 5]})
    b = hourly_table({"f2": [5, 4, 3, 2, 1], "tgt": [9, 8, 7, 6, 5]})
    fm = align_join([a, b], ["f1", "f2"], "tgt", *EVER)
    assert len(fm) == 5 and fm.n_dropped == 0
    np.testing.assert_array_equal(fm.X[:, 0], [1, 2, 3, 4, 5])


def test_align_join_partial_overlap():
    a = hourly_table({"f1": [1, 2, 3, 4, 5]}, start=T0)
    b = hourly_table({"tgt": [10, 20, 30, 40, 50]}, start=T0 + 2 * 3600)
    fm = align_join([a, b], ["f1"], "tgt", *EVER)
    assert len(fm) == 3
    np.testing.assert_array_equal(fm.X[:, 0], [3, 4, 5])
    np.testing.assert_array_equal(fm.y, [10, 20, 30])


def test_align_join_drops_missing_rows_and_counts():
    a = hourly_table({"f1": [1, np.nan, 3]})
    b = hourly_table({"tgt": [7, 8, 9]})
    fm = align_join([a, b], ["f1"], "tgt", *EVER)
    assert len(fm) == 2 and fm.n_dropped == 1
    assert not np.isnan(fm.X).any() and not np.isnan(fm.y).any()


def test_align_join_empty_intersection():
    a = hourly_table({"f1": [1, 2]}, start=T0)
    b = hourly_table({"tgt": [1, 2]}, start=T0 + 100 * 3600)
    with pytest.raises(TimeSeriesError, match="empty"):
        align_join([a, b], ["f1"], "tgt", *EVER)


def test_align_join_missing_target_column():
    a = hourly_table({"f1": [1, 2]})
    with pytest.raises(TimeSeriesError, match="nope"):
        align_join([a], ["f1"], "nope", *EVER)


def test_align_join_rejects_ambiguous_column():
    a = hourly_table({"f1": [1, 2], "tgt": [0, 0]})
    b = hourly_table({"f1": [3, 4]})
    with pytest.raises(TimeSeriesError, match="ambiguous"):
        align_join([a, b], ["f1"], "tgt", *EVER)


def test_align_join_keeps_the_span_and_counts_only_its_drops():
    a = hourly_table({"f1": [np.nan, 2, 3, np.nan, 5, 6]})
    b = hourly_table({"tgt": [1, 2, 3, 4, 5, 6]})
    fm = align_join([a, b], ["f1"], "tgt", T0 + 2 * 3600, T0 + 5 * 3600)
    np.testing.assert_array_equal(fm.timestamps, T0 + 3600 * np.array([2, 4]))
    assert fm.n_dropped == 1  # the missing cell at hour 0 lies outside the span
    empty = align_join([a, b], ["f1"], "tgt", T0 + 100 * 3600, T0 + 200 * 3600)
    assert len(empty) == 0 and empty.n_dropped == 0


# -------------------------------------------------------------- synth_regime


def test_synth_regime_deterministic():
    a1, b1 = synth_regime(500, seed=42)
    a2, b2 = synth_regime(500, seed=42)
    np.testing.assert_array_equal(a1.X, a2.X)
    np.testing.assert_array_equal(a1.y, a2.y)
    np.testing.assert_array_equal(b1.y, b2.y)
    np.testing.assert_array_equal(a1.timestamps, a2.timestamps)


def test_synth_regime_dummy_feature_uncorrelated():
    a, b = synth_regime(2000, seed=1)
    for fm in (a, b):
        corr = np.corrcoef(fm.X[:, 2], fm.y)[0, 1]
        assert abs(corr) < 0.1


def test_synth_regime_ols_recovers_coefficients():
    # Least-squares oracle on the generated data.
    a, b = synth_regime(2000, seed=5)
    for fm, expected in ((a, (3.0, 1.0, 0.0)), (b, (1.0, 3.0, 0.0))):
        design = np.column_stack([fm.X, np.ones(len(fm))])
        coef, *_ = np.linalg.lstsq(design, fm.y, rcond=None)
        np.testing.assert_allclose(coef[:3], expected, atol=0.2)


def test_synth_regime_rejects_small_n():
    with pytest.raises(TimeSeriesError, match="^n_rows_per_period must be >= 1, got 0$"):
        synth_regime(0, seed=0)


def test_synth_regime_sets_no_protocol_floor():
    # the protocol's floor is the CLI's to enforce (cmd_synth), not the generator's
    a, b = synth_regime(1, seed=0)
    assert len(a) == len(b) == 1
    assert b.timestamps[0] == a.timestamps[0] + 3600


def test_synth_regime_periods_are_contiguous():
    a, b = synth_regime(500, seed=0)
    assert b.timestamps[0] == a.timestamps[-1] + 3600


# ------------------------------------------------------------- type contracts


def test_feature_matrix_rejects_nan():
    with pytest.raises(TimeSeriesError):
        FeatureMatrix(("a",), np.array([[np.nan]]), np.array([1.0]), np.array([0]))


@pytest.mark.parametrize(
    "X, y, message",
    [
        (np.zeros((4, 3)), np.zeros(4), r"X shape \(4, 3\) inconsistent with 2 feature names"),
        (np.zeros((4, 2)), np.zeros(3), "X, y and timestamps must have equal row counts"),
    ],
    ids=["X too wide", "y a row short"],
)
def test_feature_matrix_rejects_a_shape_its_names_and_rows_do_not_fit(X, y, message):
    with pytest.raises(TimeSeriesError, match=message):
        FeatureMatrix(("a", "b"), X, y, T0 + 3600 * np.arange(4))


@pytest.mark.parametrize("bad", ["X", "y"])
def test_feature_matrix_rejects_infinity(bad):
    X, y = np.array([[1.0], [2.0]]), np.array([1.0, 2.0])
    (X if bad == "X" else y)[1] = -np.inf
    with pytest.raises(TimeSeriesError, match="infinite"):
        FeatureMatrix(("a",), X, y, np.array([0, 1]))


@pytest.mark.parametrize(
    "hours, message",
    [
        ([3, 2, 1, 0], "row 1 at 2020-01-01T02:00:00Z follows 2020-01-01T03:00:00Z"),
        ([0, 1, 2, 2, 3], "row 3 at 2020-01-01T02:00:00Z follows 2020-01-01T02:00:00Z"),
    ],
    ids=["reversed", "repeated stamp"],
)
def test_feature_matrix_rejects_rows_out_of_time_order(hours, message):
    ts = T0 + 3600 * np.array(hours)
    with pytest.raises(TimeSeriesError, match=f"timestamps must increase: {message}"):
        FeatureMatrix(("a",), np.zeros((len(ts), 1)), np.zeros(len(ts)), ts)
