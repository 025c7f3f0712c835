import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regime_xai.experiment import (
    ExperimentConfig,
    PeriodResult,
    PeriodSpec,
    RegimeComparison,
    SplitPlan,
    WindowResult,
    compare_periods,
    dependence_data,
    make_windows,
    run_period,
    split_blocks,
    window_metrics,
    write_comparison_csv,
    write_dependence_csv,
    write_importance_csv,
)
from regime_xai.gbt import GbtParams
from regime_xai.mlp import MlpParams
from regime_xai.cli import write_feature_csv
from regime_xai.shap import Background, Explanation, ImportanceVector, explain_dataset, feature_importance
from regime_xai.timeseries import FeatureMatrix, format_timestamp, parse_timestamp, synth_regime


def period_for(fm: FeatureMatrix, name="p"):
    return PeriodSpec(name, int(fm.timestamps[0]), int(fm.timestamps[-1]) + 3600)


FAST = ExperimentConfig(
    background_size=30,
    gbt=GbtParams(n_trees=40, max_depth=3, min_samples_leaf=20, learning_rate=0.1),
    mlp=MlpParams(hidden_sizes=(16,), max_epochs=60, seed=0),
)


# ---------------------------------------------------------------- make_windows


def test_make_windows_evenly_spaced_360():
    windows = make_windows(360, n_windows=6, window_fraction=0.5)
    assert [w.start for w in windows] == [0, 36, 72, 108, 144, 180]
    assert all(len(w) == 180 for w in windows)
    assert windows[-1].stop == 360


def test_make_windows_evenly_spaced_100():
    windows = make_windows(100, n_windows=6, window_fraction=0.5)
    assert [w.start for w in windows] == [0, 10, 20, 30, 40, 50]
    assert all(len(w) == 50 for w in windows)


def test_make_windows_union_covers_period():
    for n in (100, 101, 123, 360, 961):
        windows = make_windows(n, n_windows=6, window_fraction=0.5)
        covered = np.zeros(n, dtype=bool)
        for w in windows:
            covered[w.start : w.stop] = True
            assert len(w) == n // 2
        assert covered.all()


def test_make_windows_full_fraction_identical_windows():
    windows = make_windows(50, n_windows=6, window_fraction=1.0)
    assert all(w.start == 0 and w.stop == 50 for w in windows)


def test_make_windows_too_short():
    with pytest.raises(ValueError, match="too short"):
        make_windows(4, n_windows=6, window_fraction=0.5)


# ---------------------------------------------------------------- split_blocks


def test_split_blocks_forty_days_daily():
    plan = split_blocks(range(0, 40), block_days=4, test_fraction=0.2, seed=0, rows_per_day=1)
    assert len(plan.test_indices) == 8  # 10 blocks, 2 test blocks
    assert len(plan.train_indices) == 32


def test_split_blocks_partial_block_goes_to_train():
    plan = split_blocks(range(0, 42), block_days=4, test_fraction=0.2, seed=1, rows_per_day=1)
    assert len(plan.test_indices) == 8
    assert len(plan.train_indices) == 34
    # the trailing partial rows 40, 41 are always training rows
    assert 40 in plan.train_indices and 41 in plan.train_indices


def test_split_blocks_same_seed_identical():
    a = split_blocks(range(0, 40), block_days=4, test_fraction=0.2, seed=7, rows_per_day=1)
    b = split_blocks(range(0, 40), block_days=4, test_fraction=0.2, seed=7, rows_per_day=1)
    np.testing.assert_array_equal(a.test_indices, b.test_indices)


def test_split_blocks_different_seeds_usually_differ():
    # 10 blocks choose 2 gives 45 outcomes; over 10 seed pairs expect >90% distinct.
    plans = [
        split_blocks(range(0, 40), block_days=4, test_fraction=0.2, seed=s, rows_per_day=1).test_indices
        for s in range(11)
    ]
    differing = sum(not np.array_equal(plans[i], plans[i + 1]) for i in range(10))
    assert differing >= 9


def test_split_blocks_window_too_short():
    with pytest.raises(ValueError, match="at least 5"):
        split_blocks(range(0, 16), block_days=4, test_fraction=0.2, seed=0, rows_per_day=1)


@given(
    n_blocks=st.integers(5, 40),
    extra=st.integers(0, 3),
    rows_per_day=st.sampled_from([1, 6, 24]),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=60, deadline=None)
def test_split_blocks_integrity(n_blocks, extra, rows_per_day, seed):
    block_days = 4
    rows_per_block = block_days * rows_per_day
    start = 17
    window = range(start, start + n_blocks * rows_per_block + extra)
    plan = split_blocks(window, block_days=block_days, test_fraction=0.2, seed=seed, rows_per_day=rows_per_day)

    # partition: no leakage, nothing lost
    assert np.intersect1d(plan.train_indices, plan.test_indices).size == 0
    merged = np.sort(np.concatenate([plan.train_indices, plan.test_indices]))
    np.testing.assert_array_equal(merged, np.arange(window.start, window.stop))

    # test rows are unions of whole blocks
    offsets = plan.test_indices - start
    blocks = set(offsets // rows_per_block)
    assert len(plan.test_indices) == len(blocks) * rows_per_block
    for b in blocks:
        assert set(range(b * rows_per_block, (b + 1) * rows_per_block)) <= set(offsets)

    # test fraction within one block of 20%
    assert abs(len(blocks) - 0.2 * n_blocks) <= 1.0


# ------------------------------------------------------------------ run_period


def test_run_period_recovers_synthetic_ground_truth():
    fm, _ = synth_regime(960, seed=0)
    result = run_period(fm, period_for(fm, "A"), "gbt", FAST, seed=1)
    names = result.feature_names
    assert names == ("x1", "x2", "x3")
    for w in result.windows:
        fi = w.importance.fi
        assert fi[0] > fi[1] > fi[2]
        assert fi[2] < 0.05
    assert len(result.windows) == 6


def test_run_period_deterministic():
    fm, _ = synth_regime(960, seed=3)
    spec = period_for(fm, "A")
    r1 = run_period(fm, spec, "gbt", FAST, seed=9)
    r2 = run_period(fm, spec, "gbt", FAST, seed=9)
    np.testing.assert_array_equal(r1.fi_mean, r2.fi_mean)
    for a, b in zip(r1.windows, r2.windows):
        np.testing.assert_array_equal(a.explanation.phi, b.explanation.phi)
        np.testing.assert_array_equal(a.split.test_indices, b.split.test_indices)
        assert a.test_mse == b.test_mse


def test_run_period_constant_target_degenerate_but_completes():
    n = 960
    ts = parse_timestamp("2020-01-01T00:00:00Z") + 3600 * np.arange(n)
    X = np.random.default_rng(0).uniform(-1, 1, size=(n, 3))
    fm = FeatureMatrix(("x1", "x2", "x3"), X, np.full(n, 2.0), ts)
    result = run_period(fm, period_for(fm), "gbt", FAST, seed=0)
    assert result.degenerate_windows == (0, 1, 2, 3, 4, 5)
    assert all(np.isnan(w.test_r2) for w in result.windows)


def test_run_period_annotates_window_errors():
    fm, _ = synth_regime(960, seed=4)
    bad = ExperimentConfig(block_days=100, gbt=FAST.gbt)  # windows span < 5 blocks
    with pytest.raises(ValueError, match="window 0"):
        run_period(fm, period_for(fm), "gbt", bad, seed=0)


def test_run_period_rejects_unknown_kind():
    fm, _ = synth_regime(960, seed=5)
    with pytest.raises(ValueError, match="model_kind"):
        run_period(fm, period_for(fm), "boost", FAST, seed=0)


def test_run_period_rejects_row_outside_period():
    fm, _ = synth_regime(960, seed=5)
    spec = period_for(fm)
    short = PeriodSpec("p", spec.start, int(fm.timestamps[-1]))
    last = format_timestamp(fm.timestamps[-1])
    with pytest.raises(ValueError, match=f"row at {last} lies outside period 'p'"):
        run_period(fm, short, "gbt", FAST, seed=0)


def test_run_period_rejects_non_finite_predictions_before_explaining(monkeypatch):
    def explain_dataset(*args, **kwargs):
        raise AssertionError("a model with non-finite predictions was explained")

    monkeypatch.setattr("regime_xai.experiment.predict_mlp", lambda net, X: np.full(len(X), np.inf))
    monkeypatch.setattr("regime_xai.experiment.explain_dataset", explain_dataset)
    fm, _ = synth_regime(960, seed=5)
    config = ExperimentConfig(background_size=10, mlp=MlpParams(hidden_sizes=(4,), max_epochs=1))
    with pytest.raises(ValueError, match="window 0: non-finite prediction for test row 0"):
        run_period(fm, period_for(fm), "mlp", config, seed=0)


def test_run_period_blocks_span_four_days_when_second_row_is_missing():
    # With row 1 dropped the first step is 2 h; the resolution must still be
    # read as 1 h, so every test block is 4 days of 24 rows.
    fm, _ = synth_regime(1200, seed=0)
    gapped = fm.take(np.delete(np.arange(len(fm)), 1))
    result = run_period(gapped, period_for(gapped), "gbt", FAST, seed=0)
    windows = make_windows(len(gapped), FAST.n_windows, FAST.window_fraction)
    for window, w in zip(windows, result.windows):
        _, sizes = np.unique((w.split.test_indices - window.start) // 96, return_counts=True)
        assert sizes.tolist() == [96] * len(sizes)


def test_run_period_window_fraction_one_low_importance_spread():
    fm, _ = synth_regime(960, seed=6)
    config = ExperimentConfig(window_fraction=1.0, background_size=30, gbt=FAST.gbt)
    result = run_period(fm, period_for(fm), "gbt", config, seed=2)
    assert np.all(result.fi_std < 0.05)


def test_run_period_mlp_kernel_path():
    fm, _ = synth_regime(960, seed=7)
    result = run_period(fm, period_for(fm), "mlp", FAST, seed=3)
    for w in result.windows:
        fi = w.importance.fi
        assert fi[0] > fi[1] > fi[2]
    gap = np.abs(
        result.windows[0].explanation.phi0
        + result.windows[0].explanation.phi.sum(axis=1)
        - result.windows[0].explanation.predictions
    )
    assert gap.max() < 1e-6


# ------------------------------------------------------------- compare_periods


def test_compare_identical_periods_no_flags():
    fm, _ = synth_regime(960, seed=8)
    result = run_period(fm, period_for(fm), "gbt", FAST, seed=4)
    cmp = compare_periods(result, result)
    np.testing.assert_array_equal(cmp.delta, np.zeros(3))
    assert not cmp.flagged.any()
    np.testing.assert_array_equal(cmp.before_rank, cmp.after_rank)


def test_compare_synth_regimes_flags_flip():
    before_fm, after_fm = synth_regime(960, seed=9)
    before = run_period(before_fm, period_for(before_fm, "before"), "gbt", FAST, seed=5)
    after = run_period(after_fm, period_for(after_fm, "after"), "gbt", FAST, seed=6)
    cmp = compare_periods(before, after)
    i1, i2, i3 = (cmp.feature_names.index(f) for f in ("x1", "x2", "x3"))
    assert cmp.flagged[i1] and cmp.flagged[i2]
    assert cmp.delta[i1] < 0 < cmp.delta[i2]
    assert cmp.before_rank[i1] == 1 and cmp.after_rank[i2] == 1
    assert not cmp.flagged[i3]
    assert sorted(cmp.before_rank) == [1, 2, 3]


def test_compare_rejects_feature_mismatch():
    fm, _ = synth_regime(960, seed=10)
    result = run_period(fm, period_for(fm), "gbt", FAST, seed=7)
    other = PeriodResult(
        period=result.period,
        feature_names=("a", "b", "c"),
        windows=result.windows,
        fi_mean=result.fi_mean,
        fi_std=result.fi_std,
    )
    with pytest.raises(ValueError, match="differ"):
        compare_periods(result, other)


# ------------------------------------------------------------- dependence_data


def additive_period_result():
    """Hand-built PeriodResult for f = x1 + x2 with a centered background."""
    rng = np.random.default_rng(11)
    bg = Background(np.array([[1.0, -2.0], [-1.0, 2.0]]))
    windows = []
    spec = PeriodSpec("p", parse_timestamp("2020-01-01T00:00:00Z"), parse_timestamp("2020-02-01T00:00:00Z"))
    for w in range(2):
        X = rng.uniform(-1, 1, size=(15, 2))
        e = explain_dataset(lambda A: A[:, 0] + A[:, 1], X, bg, method="kernel")
        windows.append(
            WindowResult(
                window_index=w,
                split=SplitPlan(np.arange(15, 30), np.arange(15)),
                explanation=e,
                explained_X=X,
                explained_timestamps=np.arange(15) * 3600,
                importance=feature_importance(e),
                test_mse=0.0,
                test_r2=1.0,
            )
        )
    fi = np.vstack([w.importance.fi for w in windows])
    return PeriodResult(spec, ("x1", "x2"), tuple(windows), fi.mean(axis=0), fi.std(axis=0))


def test_dependence_concatenates_all_windows():
    result = additive_period_result()
    table = dependence_data(result, "x1")
    assert len(table["window"]) == 30
    assert set(table["window"]) == {0, 1}


def test_dependence_additive_model_on_diagonal():
    result = additive_period_result()
    table = dependence_data(result, "x1")
    np.testing.assert_allclose(table["phi_value"], table["x_value"], atol=1e-6)


def test_dependence_unknown_feature():
    result = additive_period_result()
    with pytest.raises(ValueError, match="unknown feature"):
        dependence_data(result, "x9")


def test_dependence_profile_of_fitted_model_tracks_coefficient():
    # On period A (target 3*x1 + x2 + noise) the x1 dependence profile of a
    # fitted tree model must rise with x1 and do so ~3x as steeply as x2's.
    fm, _ = synth_regime(960, seed=15)
    result = run_period(fm, period_for(fm, "A"), "gbt", FAST, seed=11)
    slopes = {}
    for feat in ("x1", "x2"):
        table = dependence_data(result, feat)
        slope, _ = np.polyfit(table["x_value"], table["phi_value"], 1)
        corr = np.corrcoef(table["x_value"], table["phi_value"])[0, 1]
        assert corr > 0.9
        slopes[feat] = slope
    assert 2.0 < slopes["x1"] / slopes["x2"] < 4.5


def test_dependence_dummy_feature_zero():
    rng = np.random.default_rng(12)
    bg = Background(rng.normal(size=(4, 2)))
    X = rng.normal(size=(10, 2))
    e = explain_dataset(lambda A: A[:, 0] * 2, X, bg, method="kernel")
    spec = PeriodSpec("p", parse_timestamp("2020-01-01T00:00:00Z"), parse_timestamp("2020-02-01T00:00:00Z"))
    w = WindowResult(0, SplitPlan(np.arange(10, 20), np.arange(10)), e, X,
                     np.arange(10) * 3600, feature_importance(e), 0.0, 1.0)
    result = PeriodResult(spec, ("x1", "x2"), (w,), w.importance.fi, np.zeros(2))
    table = dependence_data(result, "x2")
    np.testing.assert_allclose(table["phi_value"], 0.0, atol=1e-12)


# -------------------------------------------------------------------- exports


def test_export_csvs(tmp_path):
    before_fm, after_fm = synth_regime(960, seed=13)
    before = run_period(before_fm, period_for(before_fm, "before"), "gbt", FAST, seed=8)
    after = run_period(after_fm, period_for(after_fm, "after"), "gbt", FAST, seed=9)
    results = {"before": before, "after": after}

    imp = tmp_path / "importance.csv"
    write_importance_csv(imp, results)
    lines = imp.read_text().strip().split("\n")
    assert lines[0] == "period,window,feature,fi"
    assert len(lines) == 1 + 2 * 6 * 3

    cmp_path = tmp_path / "comparison.csv"
    write_comparison_csv(cmp_path, compare_periods(before, after))
    lines = cmp_path.read_text().strip().split("\n")
    assert lines[0] == "feature,before_mean,before_std,after_mean,after_std,delta,flagged"
    assert len(lines) == 4

    dep = tmp_path / "dependence.csv"
    write_dependence_csv(dep, {"before": before})
    lines = dep.read_text().strip().split("\n")
    assert lines[0] == "period,window,timestamp,feature,x_value,phi_value"
    n_explained = sum(len(w.explanation) for w in before.windows)
    assert len(lines) == 1 + 3 * n_explained


def test_export_text_is_pinned(tmp_path):
    # Shortest round-trip floats, lower-case flags, ISO-8601 Z timestamps,
    # "\n" line ends: the exact bytes every exporter writes.
    names = ("load", "wind")
    t0 = 1577836800  # 2020-01-01T00:00:00Z
    windows = []
    for w, (fi, ts, X, phi) in enumerate(
        [
            ([1 / 3, 2 / 3], [t0, t0 + 3600], [[0.1, 1e16], [-0.0, 1 / 3]], [[1e-300, -2.5], [0.1, 1 / 3]]),
            ([-0.0, 1.0], [t0 + 86400], [[2.0, -1.5]], [[0.0, 7.0]]),
        ]
    ):
        phi = np.array(phi)
        e = Explanation(phi, 0.0, phi.sum(axis=1))
        windows.append(
            WindowResult(w, None, e, np.array(X), np.array(ts, dtype=np.int64),
                         ImportanceVector(np.array(fi)), 0.0, 1.0)
        )
    spec = PeriodSpec("before", parse_timestamp("2020-01-01T00:00:00Z"), parse_timestamp("2020-02-01T00:00:00Z"))
    result = PeriodResult(spec, names, tuple(windows), np.zeros(2), np.zeros(2))

    write_importance_csv(tmp_path / "importance.csv", {"before": result, "after": result})
    block = (
        "{p},0,load,0.3333333333333333\n{p},0,wind,0.6666666666666666\n"
        "{p},1,load,-0.0\n{p},1,wind,1.0\n"
    )
    assert (tmp_path / "importance.csv").read_bytes().decode("utf-8") == (
        "period,window,feature,fi\n" + block.format(p="before") + block.format(p="after")
    )

    write_dependence_csv(tmp_path / "dependence.csv", {"before": result})
    assert (tmp_path / "dependence.csv").read_bytes().decode("utf-8") == (
        "period,window,timestamp,feature,x_value,phi_value\n"
        "before,0,2020-01-01T00:00:00Z,load,0.1,1e-300\n"
        "before,0,2020-01-01T01:00:00Z,load,-0.0,0.1\n"
        "before,1,2020-01-02T00:00:00Z,load,2.0,0.0\n"
        "before,0,2020-01-01T00:00:00Z,wind,1e+16,-2.5\n"
        "before,0,2020-01-01T01:00:00Z,wind,0.3333333333333333,0.3333333333333333\n"
        "before,1,2020-01-02T00:00:00Z,wind,-1.5,7.0\n"
    )

    comparison = RegimeComparison(
        feature_names=names,
        before_mean=np.array([0.1, 0.5]),
        before_std=np.array([1e-300, 0.0]),
        after_mean=np.array([1e16, 2.5]),
        after_std=np.array([-0.0, 1e-5]),
        delta=np.array([1 / 3, -2.0]),
        before_rank=np.array([2, 1]),
        after_rank=np.array([1, 2]),
        flagged=np.array([True, False]),
    )
    write_comparison_csv(tmp_path / "comparison.csv", comparison)
    assert (tmp_path / "comparison.csv").read_bytes().decode("utf-8") == (
        "feature,before_mean,before_std,after_mean,after_std,delta,flagged\n"
        "load,0.1,1e-300,1e+16,-0.0,0.3333333333333333,true\n"
        "wind,0.5,0.0,2.5,1e-05,-2.0,false\n"
    )

    fm = FeatureMatrix(names, np.array([[0.1, 1e16], [-0.0, 1 / 3]]), np.array([1e-300, -2.5]),
                       np.array([t0, t0 + 3600]))
    write_feature_csv(tmp_path / "features.csv", fm, "price")
    assert (tmp_path / "features.csv").read_bytes().decode("utf-8") == (
        "timestamp,load,wind,price\n"
        "2020-01-01T00:00:00Z,0.1,1e+16,1e-300\n"
        "2020-01-01T01:00:00Z,-0.0,0.3333333333333333,-2.5\n"
    )


def test_window_metrics_json_safe():
    fm, _ = synth_regime(960, seed=14)
    result = run_period(fm, period_for(fm), "gbt", FAST, seed=10)
    metrics = window_metrics(result)
    assert len(metrics) == 6
    assert all(m["n_train"] + m["n_test"] == 480 for m in metrics)
    import json

    json.dumps(metrics)


def test_split_plan_rejects_overlap():
    with pytest.raises(ValueError, match="overlap"):
        SplitPlan(np.array([0, 1, 2]), np.array([2, 3]))
