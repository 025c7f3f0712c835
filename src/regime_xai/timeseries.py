"""Load, validate, resample, and feature-engineer timestamped market data.

All functions are pure: they take immutable inputs and return new objects.
Timestamps are UTC epoch seconds (int64); missing values are NaN, never
silent zeros. Moving averages are trailing so engineered features never
peek ahead of the timestamp they are attached to.
"""

from __future__ import annotations

import csv
import logging
import math
import warnings
from dataclasses import dataclass, replace
from itertools import chain, islice, repeat
from typing import NewType

import numpy as np

log = logging.getLogger(__name__)


class TimeSeriesError(ValueError):
    """Base class for ingestion and alignment failures."""


class ParseError(TimeSeriesError):
    """Malformed CSV content; the message begins with the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")


Instant = NewType("Instant", int)  # UTC epoch seconds; a config field of this type is read by parse_timestamp


def parse_timestamp(text: str) -> Instant:
    """Epoch seconds of one YYYY-MM-DDThh:mm:ssZ stamp, the form _epoch_seconds
    reads; anything else, a string holding NUL included, is a ValueError."""
    # numpy's string arrays drop trailing NULs, so the round trip cannot see them
    ts = None if not isinstance(text, str) or "\x00" in text else _epoch_seconds(np.array([text]))
    if ts is None:
        raise ValueError(f"not a YYYY-MM-DDThh:mm:ssZ timestamp: {text!r}")
    return Instant(int(ts[0]))


def format_timestamp(epoch_seconds: int) -> str:
    """The stamp of an instant, in the one form parse_timestamp reads back."""
    return format_timestamps([epoch_seconds])[0]


def format_timestamps(epoch_seconds) -> list[str]:
    """The stamp of each instant of an array, in one numpy call."""
    instants = np.asarray(epoch_seconds, dtype=np.int64).astype("datetime64[s]")
    return [t + "Z" for t in np.datetime_as_string(instants, unit="s").tolist()]


_FIRST_STAMP = np.datetime64("0001-01-01T00:00:00", "s")  # four-digit years: 0001-9999


def _epoch_seconds(stamps: np.ndarray):
    """int64 epoch seconds of an array of YYYY-MM-DDThh:mm:ssZ stamps, or None
    unless every stamp is exactly that form: two-digit fields, ASCII digits,
    upper-case T and Z, a year from 0001 to 9999. The stamp text is the one
    numpy writes for the instant it reads, so format_timestamp is its inverse."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy warns on a timezone suffix
        try:
            ts = stamps.astype("U19").astype("datetime64[s]")
        except (ValueError, Warning):
            return None
    # numpy also reads "2018-01-01 00:00:00", "2018-01-01T00:00", "" (as NaT)
    # and years before 0001
    exact = np.char.add(np.datetime_as_string(ts, unit="s"), "Z") == stamps
    if not exact.all() or (ts < _FIRST_STAMP).any():
        return None
    return ts.astype(np.int64)


@dataclass(frozen=True)
class TimeTable:
    """Named numeric series on the grid start + i * step_seconds, i < n_rows.

    columns: name -> float64 array of n_rows values, NaN marks missing. Its
    builders (load_table, resample_mean, with_column) guarantee that and a
    step of at least one second, so it checks nothing again.
    """

    start: int
    step_seconds: int
    n_rows: int
    columns: dict[str, np.ndarray]

    @property
    def timestamps(self) -> np.ndarray:
        return self.start + self.step_seconds * np.arange(self.n_rows, dtype=np.int64)

    def __len__(self) -> int:
        return self.n_rows


@dataclass(frozen=True)
class FeatureMatrix:
    """Model-ready matrix: one row per retained timestamp, in strictly
    increasing time, every cell finite."""

    feature_names: tuple[str, ...]
    X: np.ndarray
    y: np.ndarray
    timestamps: np.ndarray
    n_dropped: int = 0

    def __post_init__(self):
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        X = np.asarray(self.X, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64)
        ts = np.asarray(self.timestamps, dtype=np.int64)
        if X.ndim != 2 or X.shape[1] != len(self.feature_names):
            raise TimeSeriesError(
                f"X shape {X.shape} inconsistent with {len(self.feature_names)} feature names"
            )
        if len(y) != X.shape[0] or len(ts) != X.shape[0]:
            raise TimeSeriesError("X, y and timestamps must have equal row counts")
        if not (np.isfinite(X).all() and np.isfinite(y).all()):
            raise TimeSeriesError("feature matrix must not contain missing or infinite values")
        if (bad := np.flatnonzero(np.diff(ts) <= 0)).size:
            i = int(bad[0]) + 1
            raise TimeSeriesError(
                f"timestamps must increase: row {i} at {format_timestamp(ts[i])} follows {format_timestamp(ts[i - 1])}"
            )
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "timestamps", ts)

    def __len__(self) -> int:
        return self.X.shape[0]

    def take(self, indices: np.ndarray) -> FeatureMatrix:
        idx = np.asarray(indices)
        return FeatureMatrix(self.feature_names, self.X[idx], self.y[idx], self.timestamps[idx])


_CHUNK_LINES = 1024  # 4,096 parsed no faster and raised a run's peak RSS by 4.5 %
_STAMP_CHARS = 64  # numpy gives every timestamp of a chunk the longest one's width
_EMPTY_CELLS = {"": "nan", "\n": "nan", "\r\n": "nan", "\r": "nan"}  # a line's last cell keeps its line end


def load_table(path, step_seconds: int) -> TimeTable:
    """Load a CSV with a `timestamp` first column and numeric series columns.

    Empty and `nan` cells become NaN; an infinite value is rejected with its
    line and column. Rows are sorted; the first step other than step_seconds in
    time order (a duplicate is a step of 0) is rejected with the later row's line.

    After the header the file is read in chunks of _CHUNK_LINES lines, and
    each chunk is parsed in one vectorized pass (_parse_chunk). A chunk that
    pass cannot vouch for, because it holds a fault, a quote or text that is
    not ASCII, is parsed again by the per-row loop (_parse_rows). Both read
    timestamps through _epoch_seconds, and the loop gives the same values for
    every row the numpy pass accepts. The loop is what reports a fault: the
    first one raises a ParseError naming the file line its record starts on
    and, for a value, its column.
    """
    try:
        # spreadsheet exports may lead with a BOM; a byte that is not UTF-8 becomes a
        # lone surrogate, so the cell holding it fails its timestamp or number check
        fh = open(path, newline="", encoding="utf-8-sig", errors="surrogateescape")
    except OSError as exc:
        raise TimeSeriesError(f"cannot read {path}: {exc}") from None
    with fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise ParseError(1, "empty file") from None
        except csv.Error as exc:
            raise ParseError(1, str(exc)) from None
        if not header or header[0].strip() != "timestamp":
            raise ParseError(1, f"first column must be named 'timestamp', got {header[:1]!r}")
        if any("\udc80" <= c <= "\udcff" for c in "".join(header)):
            raise ParseError(1, f"header is not UTF-8 text: {header!r}")
        names = [h.strip() for h in header[1:]]
        if len(set(names)) != len(names):
            raise ParseError(1, "duplicate column names in header")

        parts = []  # (epoch seconds, values, file lines) of each chunk's rows
        line_no = 2
        while chunk := list(islice(fh, _CHUNK_LINES)):
            part = _parse_chunk(chunk, len(header), line_no)
            if part is None:
                # a quoted cell may run on past the chunk; the loop reads its lines from fh
                part, line_no = _parse_rows(chain(chunk, fh), len(chunk), names, line_no)
            else:
                line_no += len(chunk)
            parts.append(part)

    if not any(len(part[0]) for part in parts):
        raise ParseError(2, "no data rows")
    ts = np.concatenate([part[0] for part in parts])
    line_nos = np.concatenate([part[2] for part in parts])
    # column i is row i of one block: a file already in time order is not copied
    # again, and the block goes back to the OS in one piece when the table is
    # dropped. Separate per-column copies landed on the malloc heap, where whether
    # they were returned hung on the heap's layout and moved a run's peak RSS by 4.5 MiB.
    data = np.concatenate([part[1].T for part in parts], axis=1)
    del parts

    if np.any(ts[1:] < ts[:-1]):
        order = np.argsort(ts, kind="stable")
        ts, line_nos, data = ts[order], line_nos[order], data[:, order]
    diffs = np.diff(ts)
    if (bad := np.flatnonzero(diffs != step_seconds)).size:
        i = int(bad[0])  # the first fault in time order; a repeated stamp is a step of 0
        earlier, later = format_timestamp(ts[i]), format_timestamp(ts[i + 1])
        if diffs[i] == 0:
            raise ParseError(int(line_nos[i + 1]), f"duplicate timestamp {later} after {earlier}")
        raise ParseError(
            int(line_nos[i + 1]), f"observed step {diffs[i] / 3600:g}h between {earlier} and {later}, expected {step_seconds / 3600:g}h"
        )
    return TimeTable(int(ts[0]), step_seconds, len(ts), dict(zip(names, data)))


def _parse_chunk(chunk: list[str], width: int, first_line: int):
    """The chunk's rows as (epoch seconds, values, file lines) arrays, or None
    where this pass might differ from the per-row loop: quotes, NUL (numpy
    drops trailing ones), text that is not ASCII, a line longer than the csv
    field limit, a ragged row, a value float() refuses, a timestamp
    _epoch_seconds refuses, or an infinite value."""
    kept = [i for i, line in enumerate(chunk) if line.strip("\r\n")]  # csv.reader's blank lines
    lines = [chunk[i] for i in kept]
    text = ",".join(lines)
    if not text.isascii() or '"' in text or "\x00" in text:
        return None
    if max(map(len, lines), default=0) > csv.field_size_limit():
        return None
    if any(line.count(",") != width - 1 for line in lines):
        return None
    values = text.split(",")
    stamps = values[::width]
    del values[::width]
    if max(map(len, stamps)) > _STAMP_CHARS:
        return None
    ts = _epoch_seconds(np.char.strip(np.array(stamps)))
    try:
        # float() reads a cell as the loop does, blanks around it included
        data = np.fromiter(map(float, map(_EMPTY_CELLS.get, values, values)), np.float64, len(values))
    except ValueError:
        return None
    if ts is None or np.isinf(data).any():
        return None
    rows = first_line + np.array(kept, dtype=np.int64)
    return ts, data.reshape(len(lines), width - 1), rows


def _parse_rows(lines, n_lines: int, names: list[str], first_line: int):
    """Parse, row by row, the records that start in the first n_lines of
    lines, which start on file line first_line, and raise the first fault as
    a ParseError naming the line its record starts on. Returns the rows as
    _parse_chunk does and the file line of the next record."""
    reader = csv.reader(lines)
    ts_list: list[int] = []
    line_nos: list[int] = []
    rows: list[list[float]] = []
    while reader.line_num < n_lines:
        line_no = first_line + reader.line_num  # a quoted cell may hold line breaks
        try:
            row = next(reader)
        except csv.Error as exc:
            raise ParseError(line_no, str(exc)) from None
        if row:
            if len(row) != len(names) + 1:
                raise ParseError(line_no, f"expected {len(names) + 1} cells, got {len(row)}")
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
    part = (
        np.asarray(ts_list, dtype=np.int64),
        np.asarray(rows, dtype=np.float64).reshape(len(ts_list), len(names)),
        np.asarray(line_nos, dtype=np.int64),
    )
    return part, first_line + reader.line_num


def rows_per_day(step_seconds: int) -> int:
    """Rows per day on a grid with the given step; the step must divide a day."""
    if step_seconds <= 0 or 86400 % step_seconds:
        raise TimeSeriesError(f"row step of {step_seconds}s does not divide a day")
    return 86400 // step_seconds


_SLICE_ROWS = 2048  # rows of a block formatted into one string per write: bounds the text held at once


def write_csv(path, header, blocks) -> None:
    """Write a header and blocks of columns in the one CSV dialect the tool
    reads and writes: UTF-8, "\\n" line ends, the bytes csv.writer writes.

    A block is a sequence of columns, one per header name. A column is one
    str or int repeated down the block (a period, window or feature name),
    or a sequence of cells of the block's length: a list of str (stamps), or
    a 1-D float array or list of floats, written as the repr of the Python
    floats its .tolist() gives (shortest round trip; nan, inf and -0.0 as
    such). A str is quoted as csv.writer's QUOTE_MINIMAL quotes it: in double
    quotes, with each quote doubled, when it holds , " \\r or \\n (a lone
    \\r too, which Python 3.11's writer leaves bare with "\\n" line ends
    although csv.reader ends the row there). A repeated name is quoted once,
    and a str column is scanned for those characters once, in its joined
    text. A table has two or more columns (csv.writer alone writes a row of
    one empty cell, as ""). Each block is written _SLICE_ROWS rows at a time,
    one string per slice, so the text held at once does not grow with it.
    Every caller builds a block from one record, so its columns are not
    checked for equal lengths."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(map(_quote, header)) + "\n")
        for block in blocks:
            columns = [_column(c) for c in block]
            n_rows = next((len(c) for c in columns if not isinstance(c, str)), 1)
            for lo in range(0, n_rows, _SLICE_ROWS):
                hi = min(lo + _SLICE_ROWS, n_rows)
                cells = [_cells(c, lo, hi) for c in columns]
                fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


_NEEDS_QUOTES = ',"\r\n'


def _quote(cell: str) -> str:
    """A str cell as csv.writer's QUOTE_MINIMAL writes it."""
    return '"' + cell.replace('"', '""') + '"' if any(c in cell for c in _NEEDS_QUOTES) else cell


def _column(column):
    """A block column as its one quoted cell, a sequence of quoted str cells, or a float array."""
    if isinstance(column, (str, int)):
        return _quote(str(column))
    if isinstance(column, np.ndarray) or not len(column) or not isinstance(column[0], str):
        return np.asarray(column, dtype=np.float64)
    text = "".join(column)
    return [_quote(c) for c in column] if any(c in text for c in _NEEDS_QUOTES) else column


def _cells(column, lo: int, hi: int):
    """Rows lo to hi of a column as _column gives it, as text cells."""
    if isinstance(column, str):
        return repeat(column, hi - lo)
    if isinstance(column, np.ndarray):
        return map(repr, column[lo:hi].tolist())
    return column[lo:hi]


def with_column(table: TimeTable, name: str, values) -> TimeTable:
    """New TimeTable with an added or replaced column, a float64 array of n_rows values."""
    return replace(table, columns={**table.columns, name: values})


def resample_mean(table: TimeTable, block_seconds: int, origin: int) -> TimeTable:
    """Aggregate to blocks of `block_seconds` by the mean of non-missing values.

    Blocks sit on a clock anchored at `origin` (epoch seconds; 0 is the UTC
    clock): block j spans [origin + j * block_seconds, origin + (j + 1) *
    block_seconds) and is stamped with its start. Leading and trailing
    partial blocks are dropped; a block with all values missing stays missing.
    """
    if block_seconds <= 0 or block_seconds % table.step_seconds:
        raise TimeSeriesError(
            f"block of {block_seconds / 3600:g}h is not a positive multiple of the "
            f"{table.step_seconds / 3600:g}h resolution"
        )
    k = block_seconds // table.step_seconds
    # rows before the first whole block: ceil(seconds to the next block start / step) mod k
    skip = -(-((origin - table.start) % block_seconds) // table.step_seconds) % k
    n_blocks = (table.n_rows - skip) // k
    if n_blocks <= 0:
        raise TimeSeriesError(f"table with {table.n_rows} rows has no complete {block_seconds / 3600:g}h block")

    start = table.start + skip * table.step_seconds
    columns = {}
    for name, values in table.columns.items():
        blocks = values[skip : skip + n_blocks * k].reshape(n_blocks, k)
        present = ~np.isnan(blocks)
        counts = present.sum(axis=1)
        sums = np.where(present, blocks, 0.0).sum(axis=1)
        columns[name] = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    return TimeTable(start - (start - origin) % block_seconds, block_seconds, n_blocks, columns)


def residual_load(
    load_fc,
    wind_fc,
    solar_fc,
    ror_actual,
    ror_lag_days: int,
    samples_per_day: int,
) -> np.ndarray:
    """Forecast load minus renewable forecasts minus a lagging run-of-river mean.

    The run-of-river term is the mean of the present values over the
    ror_lag_days * samples_per_day rows strictly before each row, so the
    result only uses information available at forecast time; a row with
    fewer predecessors, or no present value in its window, is missing. The
    series are one table's float64 columns (cli._derive_column) and the
    window is at least one row (ResidualLoadSpec, rows_per_day), so nothing
    is checked again.
    """
    w = ror_lag_days * samples_per_day
    present = ~np.isnan(ror_actual)
    sums = np.concatenate([[0.0], np.cumsum(np.where(present, ror_actual, 0.0))])
    counts = np.concatenate([[0], np.cumsum(present.astype(np.int64))])
    idx = np.arange(w, len(ror_actual))
    win_sums = sums[idx] - sums[idx - w]
    win_counts = counts[idx] - counts[idx - w]
    ror_ma = np.full(len(ror_actual), np.nan)
    ror_ma[idx] = np.where(win_counts > 0, win_sums / np.maximum(win_counts, 1), np.nan)
    return load_fc - wind_fc - solar_fc - ror_ma


def mixed_price(capacity_price: np.ndarray, energy_price: np.ndarray, alpha: float) -> np.ndarray:
    """Bid-selection price under the mixed scheme: capacity (EUR/MW) plus the
    auction weighting factor alpha times energy (EUR/MWh)."""
    return capacity_price + alpha * energy_price


def owning_table(tables: list[TimeTable], names: list[str]) -> int:
    """Index of the one table that holds every named column. A column must sit
    in exactly one table, and all of them in the same one."""
    owners = set()
    for name in names:
        held = [i for i, t in enumerate(tables) if name in t.columns]
        if not held:
            raise TimeSeriesError(f"column {name!r} not found in any table")
        if len(held) > 1:
            raise TimeSeriesError(f"column {name!r} is ambiguous: present in multiple tables")
        owners.add(held[0])
    if len(owners) > 1:
        raise TimeSeriesError(f"columns {names} not found together in any table")
    return owners.pop()


def align_join(
    tables: list[TimeTable],
    feature_cols: list[str],
    target_col: str,
    start: int,
    end: int,
) -> FeatureMatrix:
    """Inner-join tables on timestamps in [start, end) and assemble a
    complete-case matrix.

    Rows containing any missing cell among the selected columns are dropped;
    the drop count is recorded on the result and logged.
    """
    if not tables:
        raise TimeSeriesError("align_join needs at least one table")
    steps = sorted({t.step_seconds for t in tables})
    if len(steps) != 1:
        raise TimeSeriesError(f"tables have mixed resolutions: {', '.join(f'{s / 3600:g}h' for s in steps)}")

    common = tables[0].timestamps
    for t in tables[1:]:
        common = np.intersect1d(common, t.timestamps)
    if common.size == 0:
        raise TimeSeriesError("empty timestamp intersection across tables")
    common = common[(common >= start) & (common < end)]

    def locate(name: str) -> np.ndarray:
        t = tables[owning_table(tables, [name])]
        return t.columns[name][(common - t.start) // t.step_seconds]

    y = locate(target_col)
    X = np.column_stack([locate(name) for name in feature_cols])  # FeatureConfig refuses an empty `columns`
    keep = ~(np.isnan(X).any(axis=1) | np.isnan(y))
    n_dropped = int((~keep).sum())
    if n_dropped:
        log.info("align_join dropped %d of %d rows with missing cells", n_dropped, common.size)
    return FeatureMatrix(tuple(feature_cols), X[keep], y[keep], common[keep], n_dropped=n_dropped)


SYNTH_FEATURES = ("x1", "x2", "x3")
SYNTH_COEFFS_A = (3.0, 1.0, 0.0)
SYNTH_COEFFS_B = (1.0, 3.0, 0.0)
SYNTH_NOISE_SIGMA = 0.5
SYNTH_START = 1514764800  # 2018-01-01T00:00:00Z


def synth_regime(n_rows_per_period: int, seed: int) -> tuple[FeatureMatrix, FeatureMatrix]:
    """Generate two consecutive hourly periods with a known importance flip.

    Period A: y = 3*x1 + 1*x2 + noise. Period B: y = 1*x1 + 3*x2 + noise.
    x3 never enters the target (dummy feature). Deterministic for a fixed seed.
    """
    n = int(n_rows_per_period)
    if n < 1:
        raise TimeSeriesError(f"n_rows_per_period must be >= 1, got {n}")
    if seed < 0:
        raise TimeSeriesError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)

    periods = []
    for i, coeffs in enumerate((SYNTH_COEFFS_A, SYNTH_COEFFS_B)):
        X = rng.uniform(-1.0, 1.0, size=(n, 3))
        y = X @ np.asarray(coeffs) + SYNTH_NOISE_SIGMA * rng.standard_normal(n)
        ts = SYNTH_START + 3600 * np.arange(i * n, (i + 1) * n, dtype=np.int64)
        periods.append(FeatureMatrix(SYNTH_FEATURES, X, y, ts))
    return periods[0], periods[1]
