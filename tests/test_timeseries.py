import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regime_xai.timeseries import (
    DuplicateTimestampError,
    FeatureMatrix,
    ParseError,
    ResolutionMismatchError,
    TimeSeriesError,
    TimeTable,
    align_join,
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
    ts = start + 3600 * np.arange(n)
    return TimeTable(ts, {k: np.asarray(v, dtype=float) for k, v in values_by_col.items()}, 3600)


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


def test_load_table_resolution_mismatch(tmp_path):
    p = write_csv(
        tmp_path / "a.csv",
        [
            "timestamp,v",
            "2020-01-01T00:00:00Z,1",
            "2020-01-01T02:00:00Z,2",
        ],
    )
    with pytest.raises(ResolutionMismatchError, match="between 2020-01-01T00:00:00Z and 2020-01-01T02:00:00Z"):
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
    with pytest.raises(DuplicateTimestampError, match="duplicate timestamp 2020-01-01T00:00:00Z"):
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


def test_load_table_rejects_bad_header(tmp_path):
    p = write_csv(tmp_path / "a.csv", ["time,v", "2020-01-01T00:00:00Z,1"])
    with pytest.raises(ParseError, match="line 1"):
        load_table(p, 3600)


# ------------------------------------------------------------- resample_mean


def test_resample_mean_block_of_four():
    t = hourly_table({"v": [1, 2, 3, 4]})
    r = resample_mean(t, 4 * 3600)
    assert len(r) == 1
    assert r.columns["v"][0] == 2.5
    assert r.timestamps[0] == t.timestamps[0]
    assert r.step_seconds == 4 * 3600


def test_resample_mean_drops_trailing_partial_block():
    t = hourly_table({"v": [1, 2, 3, 4, 5]})
    r = resample_mean(t, 4 * 3600)
    assert list(r.columns["v"]) == [2.5]


def test_resample_mean_skips_missing():
    t = hourly_table({"v": [1, np.nan, 3, 4]})
    r = resample_mean(t, 4 * 3600)
    assert r.columns["v"][0] == pytest.approx(8 / 3)


def test_resample_mean_all_missing_block_stays_missing():
    t = hourly_table({"v": [np.nan] * 4 + [1, 1, 1, 1]})
    r = resample_mean(t, 4 * 3600)
    assert np.isnan(r.columns["v"][0]) and r.columns["v"][1] == 1


def test_resample_mean_rejects_non_multiple():
    t = resample_mean(hourly_table({"v": np.arange(8.0)}), 4 * 3600)
    with pytest.raises(TimeSeriesError):
        resample_mean(t, 6 * 3600)


@given(st.integers(1, 6), st.integers(0, 7))
@settings(max_examples=30, deadline=None)
def test_resample_mean_idempotent_for_same_block(blocks, extra):
    block_hours = 4
    n = blocks * block_hours + extra
    rng = np.random.default_rng(n)
    t = hourly_table({"v": rng.normal(size=n)})
    once = resample_mean(t, block_hours * 3600)
    twice = resample_mean(once, block_hours * 3600)
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


def test_residual_load_misaligned_series():
    with pytest.raises(TimeSeriesError, match="misaligned"):
        residual_load(np.zeros(5), np.zeros(4), np.zeros(5), np.zeros(5), ror_lag_days=7, samples_per_day=24)


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


def test_align_join_rejects_mixed_resolutions():
    a = hourly_table({"f1": np.arange(8.0)})
    b = resample_mean(hourly_table({"tgt": np.arange(8.0)}), 4 * 3600)
    with pytest.raises(TimeSeriesError, match="resolution"):
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
    with pytest.raises(TimeSeriesError):
        synth_regime(100, seed=0)


def test_synth_regime_periods_are_contiguous():
    a, b = synth_regime(500, seed=0)
    assert b.timestamps[0] == a.timestamps[-1] + 3600


# ------------------------------------------------------------- type contracts


def test_timetable_rejects_nonuniform_spacing():
    ts = np.array([0, 3600, 3 * 3600])
    with pytest.raises(ResolutionMismatchError):
        TimeTable(ts, {"v": np.zeros(3)}, 3600)


def test_timetable_rejects_length_mismatch():
    ts = np.array([0, 3600])
    with pytest.raises(TimeSeriesError):
        TimeTable(ts, {"v": np.zeros(3)}, 3600)


def test_feature_matrix_rejects_nan():
    with pytest.raises(TimeSeriesError):
        FeatureMatrix(("a",), np.array([[np.nan]]), np.array([1.0]), np.array([0]))


@pytest.mark.parametrize("bad", ["X", "y"])
def test_feature_matrix_rejects_infinity(bad):
    X, y = np.array([[1.0], [2.0]]), np.array([1.0, 2.0])
    (X if bad == "X" else y)[1] = -np.inf
    with pytest.raises(TimeSeriesError, match="infinite"):
        FeatureMatrix(("a",), X, y, np.array([0, 1]))
