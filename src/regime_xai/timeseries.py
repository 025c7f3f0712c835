"""Load, validate, resample, and feature-engineer timestamped market data.

All functions are pure: they take immutable inputs and return new objects.
Timestamps are UTC epoch seconds (int64); missing values are NaN, never
silent zeros. Moving averages are trailing so engineered features never
peek ahead of the timestamp they are attached to.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

log = logging.getLogger(__name__)

TIMESTAMP_FORMAT = "%Y-%m-%dT%H:%M:%SZ"


class TimeSeriesError(ValueError):
    """Base class for ingestion and alignment failures."""


class ParseError(TimeSeriesError):
    """Malformed CSV content; carries the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class ResolutionMismatchError(TimeSeriesError):
    pass


class DuplicateTimestampError(TimeSeriesError):
    pass


def parse_timestamp(text: str) -> int:
    """Parse an ISO-8601 UTC timestamp (YYYY-MM-DDThh:mm:ssZ) to epoch seconds."""
    dt = datetime.strptime(text, TIMESTAMP_FORMAT).replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


def format_timestamp(epoch_seconds: int) -> str:
    return datetime.fromtimestamp(int(epoch_seconds), tz=timezone.utc).strftime(TIMESTAMP_FORMAT)


@dataclass(frozen=True)
class TimeTable:
    """Timestamp-indexed table of named numeric series at a fixed step.

    timestamps: strictly increasing epoch seconds, uniformly spaced.
    columns: name -> float64 array, NaN marks missing.
    step_seconds: step between consecutive timestamps.
    """

    timestamps: np.ndarray
    columns: dict[str, np.ndarray]
    step_seconds: int

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype=np.int64)
        object.__setattr__(self, "timestamps", ts)
        if self.step_seconds <= 0:
            raise TimeSeriesError(f"resolution must be positive, got {self.step_seconds / 3600:g}h")
        if len(ts) > 1:
            diffs = np.diff(ts)
            if np.any(diffs <= 0):
                bad = int(np.argmax(diffs <= 0))
                raise DuplicateTimestampError(
                    f"{'duplicate' if diffs[bad] == 0 else 'out-of-order'} timestamp "
                    f"{format_timestamp(ts[bad + 1])} after {format_timestamp(ts[bad])}"
                )
            if np.any(diffs != self.step_seconds):
                bad = int(np.argmax(diffs != self.step_seconds))
                raise ResolutionMismatchError(
                    f"observed step {diffs[bad] / 3600:g}h between {format_timestamp(ts[bad])} "
                    f"and {format_timestamp(ts[bad + 1])}, expected {self.step_seconds / 3600:g}h"
                )
        cols = {}
        for name, values in self.columns.items():
            arr = np.asarray(values, dtype=np.float64)
            if arr.shape != ts.shape:
                raise TimeSeriesError(
                    f"column {name!r} has length {arr.shape[0]}, expected {len(ts)}"
                )
            cols[name] = arr
        object.__setattr__(self, "columns", cols)

    def __len__(self) -> int:
        return len(self.timestamps)


@dataclass(frozen=True)
class FeatureMatrix:
    """Model-ready matrix: one row per retained timestamp, every cell finite."""

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
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "timestamps", ts)

    def __len__(self) -> int:
        return self.X.shape[0]

    def take(self, indices: np.ndarray) -> FeatureMatrix:
        idx = np.asarray(indices)
        return FeatureMatrix(self.feature_names, self.X[idx], self.y[idx], self.timestamps[idx])


def load_table(path, step_seconds: int) -> TimeTable:
    """Load a CSV with a `timestamp` first column and numeric series columns.

    Empty cells become NaN; an infinite value is rejected with its line and
    column. Rows are sorted by timestamp; TimeTable rejects duplicate
    timestamps and steps other than step_seconds.
    """
    try:
        fh = open(path, newline="", encoding="utf-8")
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
        names = [h.strip() for h in header[1:]]
        if len(set(names)) != len(names):
            raise ParseError(1, "duplicate column names in header")

        ts_list: list[int] = []
        rows: list[list[float]] = []
        blank_lines: list[int] = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                blank_lines.append(line_no)
                continue
            if len(row) != len(header):
                raise ParseError(line_no, f"expected {len(header)} cells, got {len(row)}")
            try:
                ts_list.append(parse_timestamp(row[0].strip()))
            except ValueError:
                raise ParseError(line_no, f"malformed timestamp {row[0]!r}") from None
            values = []
            for name, cell in zip(names, row[1:]):
                cell = cell.strip()
                if cell == "":
                    values.append(np.nan)
                    continue
                try:
                    values.append(float(cell))
                except ValueError:
                    raise ParseError(
                        line_no, f"column {name!r}: non-numeric value {cell!r}"
                    ) from None
            rows.append(values)

    if not ts_list:
        raise ParseError(2, "no data rows")
    ts = np.asarray(ts_list, dtype=np.int64)
    data = np.asarray(rows, dtype=np.float64).reshape(len(ts), len(names))
    if np.isinf(data).any():
        r, c = np.argwhere(np.isinf(data))[0]
        line_no = int(r) + 2
        for blank in blank_lines:
            line_no += blank <= line_no
        raise ParseError(line_no, f"column {names[c]!r}: non-finite value {data[r, c]}")

    order = np.argsort(ts, kind="stable")
    ts = ts[order]
    data = data[order]
    columns = {name: data[:, i].copy() for i, name in enumerate(names)}
    return TimeTable(ts, columns, step_seconds)


def rows_per_day(step_seconds: int) -> int:
    """Rows per day on a grid with the given step; the step must divide a day."""
    if step_seconds <= 0 or 86400 % step_seconds:
        raise TimeSeriesError(f"row step of {step_seconds}s does not divide a day")
    return 86400 // step_seconds


def write_csv(path, header, rows) -> None:
    """Write header and rows in the one CSV dialect the tool reads and writes:
    UTF-8, "\\n" line ends, floats as their shortest round-trip repr (pass
    Python numbers, not numpy scalars). Rows are streamed from the iterable."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def with_column(table: TimeTable, name: str, values) -> TimeTable:
    """New TimeTable with an added or replaced column."""
    columns = dict(table.columns)
    columns[name] = np.asarray(values, dtype=np.float64)
    return TimeTable(table.timestamps, columns, table.step_seconds)


def resample_mean(table: TimeTable, block_seconds: int) -> TimeTable:
    """Aggregate to blocks of `block_seconds` by the mean of non-missing values.

    Output timestamps are block starts; a trailing partial block is dropped;
    a block with all values missing stays missing.
    """
    if block_seconds <= 0 or block_seconds % table.step_seconds:
        raise TimeSeriesError(
            f"block of {block_seconds / 3600:g}h is not a positive multiple of the "
            f"{table.step_seconds / 3600:g}h resolution"
        )
    k = block_seconds // table.step_seconds
    n_blocks = len(table) // k
    if n_blocks == 0:
        raise TimeSeriesError(f"table with {len(table)} rows has no complete {block_seconds / 3600:g}h block")

    ts = table.timestamps[: n_blocks * k : k]
    columns = {}
    for name, values in table.columns.items():
        blocks = values[: n_blocks * k].reshape(n_blocks, k)
        present = ~np.isnan(blocks)
        counts = present.sum(axis=1)
        sums = np.where(present, blocks, 0.0).sum(axis=1)
        columns[name] = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    return TimeTable(ts, columns, block_seconds)


def trailing_mean_before(series, window_samples: int) -> np.ndarray:
    """Mean over the window_samples values strictly before each index.

    Indices with fewer than window_samples predecessors are missing, as is a
    window whose present values are all missing.
    """
    values = np.asarray(series, dtype=np.float64)
    n = len(values)
    w = int(window_samples)
    if w < 1:
        raise TimeSeriesError("window must cover at least one sample")
    out = np.full(n, np.nan)
    if n <= w:
        return out
    present = ~np.isnan(values)
    sums = np.concatenate([[0.0], np.cumsum(np.where(present, values, 0.0))])
    counts = np.concatenate([[0], np.cumsum(present.astype(np.int64))])
    idx = np.arange(w, n)
    win_sums = sums[idx] - sums[idx - w]
    win_counts = counts[idx] - counts[idx - w]
    out[idx] = np.where(win_counts > 0, win_sums / np.maximum(win_counts, 1), np.nan)
    return out


def residual_load(
    load_fc,
    wind_fc,
    solar_fc,
    ror_actual,
    ror_lag_days: int,
    samples_per_day: int,
) -> np.ndarray:
    """Forecast load minus renewable forecasts minus a lagging run-of-river mean.

    The run-of-river term is a trailing mean over the ror_lag_days preceding
    the current instant (exclusive), so the result only uses information
    available at forecast time. Rows without enough history become missing.
    """
    arrays = [np.asarray(a, dtype=np.float64) for a in (load_fc, wind_fc, solar_fc, ror_actual)]
    lengths = {len(a) for a in arrays}
    if len(lengths) != 1:
        raise TimeSeriesError(f"misaligned series: lengths {sorted(len(a) for a in arrays)}")
    load, wind, solar, ror = arrays
    ror_ma = trailing_mean_before(ror, int(ror_lag_days) * int(samples_per_day))
    return load - wind - solar - ror_ma


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
        pos = np.searchsorted(t.timestamps, common)
        return t.columns[name][pos]

    y = locate(target_col)
    X = np.column_stack([locate(name) for name in feature_cols]) if feature_cols else np.empty((common.size, 0))
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
    if n < 500:
        raise TimeSeriesError(f"n_rows_per_period must be >= 500, got {n}")
    rng = np.random.default_rng(seed)

    periods = []
    for i, coeffs in enumerate((SYNTH_COEFFS_A, SYNTH_COEFFS_B)):
        X = rng.uniform(-1.0, 1.0, size=(n, 3))
        y = X @ np.asarray(coeffs) + SYNTH_NOISE_SIGMA * rng.standard_normal(n)
        ts = SYNTH_START + 3600 * np.arange(i * n, (i + 1) * n, dtype=np.int64)
        periods.append(FeatureMatrix(SYNTH_FEATURES, X, y, ts))
    return periods[0], periods[1]
