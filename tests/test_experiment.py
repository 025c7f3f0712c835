import csv
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regime_xai.experiment import (
    BLOCK_DAYS,
    ModelConfig,
    PeriodResult,
    RegimeComparison,
    ShapConfig,
    WindowConfig,
    WindowResult,
    compare_periods,
    make_windows,
    run_period,
    run_window,
    split_blocks,
    window_metrics,
    write_comparison_csv,
    write_dependence_csv,
    write_importance_csv,
)
from regime_xai.gbt import GbtParams
from regime_xai.mlp import MlpNet, MlpParams
from regime_xai.cli import write_feature_csv
from regime_xai.shap import Background, Explanation, explain_dataset, feature_importance
from regime_xai.timeseries import FeatureMatrix, TimeSeriesError, format_timestamp, parse_timestamp, synth_regime


GBT = ModelConfig(
    "gbt",
    gbt=GbtParams(n_trees=40, max_depth=3, min_samples_leaf=20, learning_rate=0.1),
    mlp=MlpParams(hidden_sizes=(16,), max_epochs=60),
)
MLP = replace(GBT, kind="mlp")
WINDOWS = WindowConfig()
SHAP = ShapConfig(background_size=30)


# ---------------------------------------------------------------- make_windows


@given(n_rows=st.integers(2, 20_000), data=st.data())
@settings(deadline=None)
def test_make_windows_first_and_last_share_no_row(n_rows, data):
    # windows are half the period wide, so with two or more of them the
    # first and the last never overlap
    n_windows = data.draw(st.integers(2, n_rows), label="n_windows")
    windows = make_windows(n_rows, n_windows)
    assert len(windows) == n_windows
    assert all(len(w) == n_rows // 2 for w in windows)
    assert windows[0].start == 0 and windows[-1].stop == n_rows
    assert windows[0].stop <= windows[-1].start


def test_make_windows_evenly_spaced_360():
    windows = make_windows(360, n_windows=6)
    assert [w.start for w in windows] == [0, 36, 72, 108, 144, 180]


def test_make_windows_evenly_spaced_100():
    windows = make_windows(100, n_windows=6)
    assert [w.start for w in windows] == [0, 10, 20, 30, 40, 50]


def test_make_windows_union_covers_period():
    for n in (100, 101, 123, 360, 961):
        covered = np.zeros(n, dtype=bool)
        for w in make_windows(n, n_windows=6):
            covered[w.start : w.stop] = True
        assert covered.all()


def test_make_windows_too_short():
    with pytest.raises(ValueError, match="too short"):
        make_windows(4, n_windows=6)


# ---------------------------------------------------------------- split_blocks


def test_split_blocks_forty_days_daily():
    train_indices, test_indices = split_blocks(range(0, 40), test_fraction=0.2, seed=0, rows_per_day=1)
    assert len(test_indices) == 8  # 10 blocks, 2 test blocks
    assert len(train_indices) == 32


def test_split_blocks_partial_block_goes_to_train():
    train_indices, test_indices = split_blocks(range(0, 42), test_fraction=0.2, seed=1, rows_per_day=1)
    assert len(test_indices) == 8
    assert len(train_indices) == 34
    # the trailing partial rows 40, 41 are always training rows
    assert 40 in train_indices and 41 in train_indices


def test_split_blocks_same_seed_identical():
    _, a = split_blocks(range(0, 40), test_fraction=0.2, seed=7, rows_per_day=1)
    _, b = split_blocks(range(0, 40), test_fraction=0.2, seed=7, rows_per_day=1)
    np.testing.assert_array_equal(a, b)


def test_split_blocks_different_seeds_usually_differ():
    # 10 blocks choose 2 gives 45 outcomes; over 10 seed pairs expect >90% distinct.
    plans = [
        split_blocks(range(0, 40), test_fraction=0.2, seed=s, rows_per_day=1)[1]
        for s in range(11)
    ]
    differing = sum(not np.array_equal(plans[i], plans[i + 1]) for i in range(10))
    assert differing >= 9


def test_split_blocks_window_too_short():
    with pytest.raises(ValueError, match="at least 5"):
        split_blocks(range(0, 16), test_fraction=0.2, seed=0, rows_per_day=1)


@given(
    n_blocks=st.integers(5, 40),
    extra=st.integers(0, 3),
    rows_per_day=st.sampled_from([1, 6, 24]),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=60, deadline=None)
def test_split_blocks_integrity(n_blocks, extra, rows_per_day, seed):
    rows_per_block = BLOCK_DAYS * rows_per_day
    start = 17
    window = range(start, start + n_blocks * rows_per_block + extra)
    train_indices, test_indices = split_blocks(window, test_fraction=0.2, seed=seed, rows_per_day=rows_per_day)

    # two ascending row arrays, ready for FeatureMatrix.take
    for rows in (train_indices, test_indices):
        assert rows.dtype == np.intp and (np.diff(rows) > 0).all()

    # partition: no leakage, nothing lost
    assert np.intersect1d(train_indices, test_indices).size == 0
    merged = np.sort(np.concatenate([train_indices, test_indices]))
    np.testing.assert_array_equal(merged, np.arange(window.start, window.stop))

    # test rows are unions of whole blocks
    offsets = test_indices - start
    blocks = set(offsets // rows_per_block)
    assert len(test_indices) == len(blocks) * rows_per_block
    for b in blocks:
        assert set(range(b * rows_per_block, (b + 1) * rows_per_block)) <= set(offsets)

    # test fraction within one block of 20%
    assert abs(len(blocks) - 0.2 * n_blocks) <= 1.0


# ------------------------------------------------------------------ run_period


@pytest.mark.parametrize("model", [GBT, MLP], ids=["gbt", "mlp"])
def test_run_window_matches_run_period(model):
    # a window's result depends only on the data, its rows, its index and the
    # seed, so a window run alone, in any order, gives run_period's bits, and
    # run_window pickles by reference: what a process pool relies on
    fm, _ = synth_regime(960, seed=17)
    windows = WindowConfig(n_windows=3)
    result = run_period(fm, model, windows, SHAP, seed=4)
    spans = make_windows(len(fm), windows.n_windows)
    for w in (2, 0):
        alone = run_window(fm, spans[w], w, 24, model, windows, SHAP, seed=4)
        in_period = result.windows[w]
        np.testing.assert_array_equal(alone.explanation.phi, in_period.explanation.phi)
        np.testing.assert_array_equal(alone.importance, in_period.importance)
        np.testing.assert_array_equal(alone.train_indices, in_period.train_indices)
        np.testing.assert_array_equal(alone.test_indices, in_period.test_indices)
        assert (alone.test_mse, alone.test_r2) == (in_period.test_mse, in_period.test_r2)
    assert pickle.loads(pickle.dumps(run_window)) is run_window


def test_run_period_recovers_synthetic_ground_truth():
    fm, _ = synth_regime(960, seed=0)
    result = run_period(fm, GBT, WINDOWS, SHAP, seed=1)
    names = result.feature_names
    assert names == ("x1", "x2", "x3")
    for w in result.windows:
        fi = w.importance
        assert fi[0] > fi[1] > fi[2]
        assert fi[2] < 0.05
    assert len(result.windows) == 6


@pytest.mark.parametrize("background_size, centred", [(10**6, True), (30, False)])
def test_run_period_takes_every_train_row_as_background_when_they_are_fewer(background_size, centred):
    # explained on its train rows, a window whose background is those rows has
    # attributions that average to zero: mean f(x) - phi0 = 0
    fm, _ = synth_regime(960, seed=4)
    windows, shap = WindowConfig(n_windows=2), ShapConfig(background_size, explain_on="train")
    result = run_period(fm, GBT, windows, shap, seed=2)
    for w in result.windows:
        assert (abs(w.explanation.phi.sum(axis=1).mean()) < 1e-9) == centred


def test_run_period_deterministic():
    fm, _ = synth_regime(960, seed=3)
    r1 = run_period(fm, GBT, WINDOWS, SHAP, seed=9)
    r2 = run_period(fm, GBT, WINDOWS, SHAP, seed=9)
    for a, b in zip(r1.windows, r2.windows):
        np.testing.assert_array_equal(a.importance, b.importance)
        np.testing.assert_array_equal(a.explanation.phi, b.explanation.phi)
        np.testing.assert_array_equal(a.test_indices, b.test_indices)
        assert a.test_mse == b.test_mse


def test_run_period_constant_target_degenerate_but_completes():
    n = 960
    ts = parse_timestamp("2020-01-01T00:00:00Z") + 3600 * np.arange(n)
    X = np.random.default_rng(0).uniform(-1, 1, size=(n, 3))
    fm = FeatureMatrix(("x1", "x2", "x3"), X, np.full(n, 2.0), ts)
    result = run_period(fm, GBT, WINDOWS, SHAP, seed=0)
    assert result.degenerate_windows == (0, 1, 2, 3, 4, 5)
    assert all(np.isnan(w.test_r2) for w in result.windows)


def test_run_period_annotates_window_errors():
    fm, _ = synth_regime(960, seed=4)
    short = fm.take(np.arange(600))  # windows of 300 rows span 3 four-day blocks
    with pytest.raises(ValueError, match="window 0: window of 300 rows spans only 3 blocks"):
        run_period(short, GBT, WINDOWS, ShapConfig(), seed=0)


@pytest.mark.parametrize("n_rows", [0, 1])
def test_run_period_refuses_a_period_too_short_for_its_windows(n_rows):
    fm, _ = synth_regime(960, seed=5)
    with pytest.raises(TimeSeriesError, match=f"period too short: {n_rows} rows for 6 windows"):
        run_period(fm.take(np.arange(n_rows)), GBT, WINDOWS, SHAP, seed=0)


def test_run_period_refuses_a_row_step_that_does_not_divide_a_day():
    fm, _ = synth_regime(960, seed=6)
    every_7s = FeatureMatrix(fm.feature_names, fm.X, fm.y, fm.timestamps[0] + 7 * np.arange(len(fm)))
    with pytest.raises(TimeSeriesError, match="row step of 7s does not divide a day"):
        run_period(every_7s, GBT, WINDOWS, SHAP, seed=0)


def test_run_period_rejects_unknown_kind():
    # run_period takes a ModelConfig, which cannot hold an unknown kind
    with pytest.raises(ValueError, match="kind: expected one of \\['gbt', 'mlp'\\], got 'boost'"):
        ModelConfig("boost")


def test_run_period_rejects_non_finite_predictions_before_explaining(monkeypatch):
    def explain_dataset(*args, **kwargs):
        raise AssertionError("a model with non-finite predictions was explained")

    monkeypatch.setattr("regime_xai.experiment.predict_mlp", lambda net, X, work: np.full(len(X), np.inf))
    monkeypatch.setattr("regime_xai.experiment.explain_dataset", explain_dataset)
    fm, _ = synth_regime(960, seed=5)
    model = ModelConfig("mlp", mlp=MlpParams(hidden_sizes=(4,), max_epochs=1))
    with pytest.raises(ValueError, match="window 0: non-finite prediction for test row 0"):
        run_period(fm, model, WINDOWS, ShapConfig(background_size=10), seed=0)


def test_run_period_blocks_span_four_days_when_second_row_is_missing():
    # With row 1 dropped the first step is 2 h; the resolution must still be
    # read as 1 h, so every test block is 4 days of 24 rows.
    fm, _ = synth_regime(1200, seed=0)
    gapped = fm.take(np.delete(np.arange(len(fm)), 1))
    result = run_period(gapped, GBT, WINDOWS, SHAP, seed=0)
    windows = make_windows(len(gapped), WINDOWS.n_windows)
    for window, w in zip(windows, result.windows):
        _, sizes = np.unique((w.test_indices - window.start) // 96, return_counts=True)
        assert sizes.tolist() == [96] * len(sizes)


def test_run_period_mlp_kernel_path():
    fm, _ = synth_regime(960, seed=7)
    result = run_period(fm, MLP, WINDOWS, SHAP, seed=3)
    for w in result.windows:
        fi = w.importance
        assert fi[0] > fi[1] > fi[2]
    assert result.windows[0].explanation.max_residual < 1e-6


# ------------------------------------------------------------- compare_periods


def test_compare_identical_periods_no_flags():
    fm, _ = synth_regime(960, seed=8)
    result = run_period(fm, GBT, WINDOWS, SHAP, seed=4)
    cmp = compare_periods(result, result)
    np.testing.assert_array_equal(cmp.delta, np.zeros(3))
    assert not cmp.flagged.any()
    np.testing.assert_array_equal(
        np.argsort(-cmp.before_mean, kind="stable"), np.argsort(-cmp.after_mean, kind="stable")
    )


def test_compare_synth_regimes_flags_flip():
    before_fm, after_fm = synth_regime(960, seed=9)
    before = run_period(before_fm, GBT, WINDOWS, SHAP, seed=5)
    after = run_period(after_fm, GBT, WINDOWS, SHAP, seed=6)
    cmp = compare_periods(before, after)
    i1, i2, i3 = (cmp.feature_names.index(f) for f in ("x1", "x2", "x3"))
    assert cmp.flagged[i1] and cmp.flagged[i2]
    assert cmp.delta[i1] < 0 < cmp.delta[i2]
    assert np.argmax(cmp.before_mean) == i1 and np.argmax(cmp.after_mean) == i2
    assert not cmp.flagged[i3]


def test_compare_rejects_feature_mismatch():
    fm, _ = synth_regime(960, seed=10)
    result = run_period(fm, GBT, WINDOWS, SHAP, seed=7)
    other = PeriodResult(feature_names=("a", "b", "c"), windows=result.windows)
    with pytest.raises(ValueError, match="differ"):
        compare_periods(result, other)


# -------------------------------------------------------------- dependence.csv


def linear_net(coef):
    """A net whose output is exactly X @ coef: relu(s) - relu(-s) = s."""
    coef = np.asarray(coef, dtype=float)
    return MlpNet((np.vstack([coef, -coef]), np.array([[1.0, -1.0]])), (np.zeros(2), np.zeros(1)),
                  np.zeros(len(coef)), np.ones(len(coef)))


def additive_period_result():
    """Hand-built PeriodResult for f = x1 + x2 with a centered background."""
    rng = np.random.default_rng(11)
    bg = Background(np.array([[1.0, -2.0], [-1.0, 2.0]]))
    windows = []
    for _ in range(2):
        X = rng.uniform(-1, 1, size=(15, 2))
        e = explain_dataset(linear_net([1.0, 1.0]), X, bg, method="kernel")
        windows.append(
            WindowResult(
                train_indices=np.arange(15, 30),
                test_indices=np.arange(15),
                explanation=e,
                explained=FeatureMatrix(("x1", "x2"), X, X.sum(axis=1), np.arange(15) * 3600),
                importance=feature_importance(e),
                test_mse=0.0,
                test_r2=1.0,
            )
        )
    return PeriodResult(("x1", "x2"), tuple(windows))


def dependence_rows(tmp_path, results):
    """The rows write_dependence_csv writes, read back with typed cells."""
    path = tmp_path / "dependence.csv"
    write_dependence_csv(path, results)
    with open(path, newline="", encoding="utf-8") as fh:
        return [
            dict(r, window=int(r["window"]), x_value=float(r["x_value"]), phi_value=float(r["phi_value"]))
            for r in csv.DictReader(fh)
        ]


def dependence_columns(tmp_path, result, feature):
    rows = [r for r in dependence_rows(tmp_path, {"p": result}) if r["feature"] == feature]
    return {key: np.array([r[key] for r in rows]) for key in ("window", "x_value", "phi_value")}


def test_dependence_concatenates_all_windows(tmp_path):
    table = dependence_columns(tmp_path, additive_period_result(), "x1")
    assert len(table["window"]) == 30
    assert set(table["window"].tolist()) == {0, 1}


def test_dependence_additive_model_on_diagonal(tmp_path):
    table = dependence_columns(tmp_path, additive_period_result(), "x1")
    np.testing.assert_allclose(table["phi_value"], table["x_value"], atol=1e-6)


def test_dependence_profile_of_fitted_model_tracks_coefficient(tmp_path):
    # On period A (target 3*x1 + x2 + noise) the x1 dependence profile of a
    # fitted tree model must rise with x1 and do so ~3x as steeply as x2's.
    fm, _ = synth_regime(960, seed=15)
    result = run_period(fm, GBT, WINDOWS, SHAP, seed=11)
    slopes = {}
    for feat in ("x1", "x2"):
        table = dependence_columns(tmp_path, result, feat)
        slope, _ = np.polyfit(table["x_value"], table["phi_value"], 1)
        corr = np.corrcoef(table["x_value"], table["phi_value"])[0, 1]
        assert corr > 0.9
        slopes[feat] = slope
    assert 2.0 < slopes["x1"] / slopes["x2"] < 4.5


def test_dependence_dummy_feature_zero(tmp_path):
    rng = np.random.default_rng(12)
    bg = Background(rng.normal(size=(4, 2)))
    X = rng.normal(size=(10, 2))
    e = explain_dataset(linear_net([2.0, 0.0]), X, bg, method="kernel")
    explained = FeatureMatrix(("x1", "x2"), X, 2.0 * X[:, 0], np.arange(10) * 3600)
    w = WindowResult(np.arange(10, 20), np.arange(10), e, explained, feature_importance(e), 0.0, 1.0)
    result = PeriodResult(("x1", "x2"), (w,))
    table = dependence_columns(tmp_path, result, "x2")
    assert len(table["phi_value"]) == 10
    np.testing.assert_allclose(table["phi_value"], 0.0, atol=1e-12)


def test_dependence_rows_are_each_windows_explained_rows(tmp_path):
    # Two disjoint windows explain different test rows: every row of a window
    # carries that window's own stamp, feature value and attribution, and
    # dependence.csv, importance.csv and the manifest's metrics number the
    # windows alike.
    fm, _ = synth_regime(960, seed=16)
    result = run_period(fm, GBT, WindowConfig(n_windows=2), SHAP, seed=12)
    first, second = (w.explained.timestamps.tolist() for w in result.windows)
    assert set(first).isdisjoint(second)

    rows = dependence_rows(tmp_path, {"p": result})
    for j, feat in enumerate(result.feature_names):
        got = [(r["window"], r["timestamp"], r["x_value"], r["phi_value"]) for r in rows if r["feature"] == feat]
        want = [
            (i, format_timestamp(t), x, phi)
            for i, w in enumerate(result.windows)
            for t, x, phi in zip(w.explained.timestamps.tolist(), w.explained.X[:, j].tolist(),
                                 w.explanation.phi[:, j].tolist())
        ]
        assert got == want

    write_importance_csv(tmp_path / "importance.csv", {"p": result})
    with open(tmp_path / "importance.csv", newline="", encoding="utf-8") as fh:
        importance_windows = sorted({int(r["window"]) for r in csv.DictReader(fh)})
    manifest_windows = [m["window"] for m in window_metrics(result)]
    assert sorted({r["window"] for r in rows}) == importance_windows == manifest_windows == [0, 1]


# -------------------------------------------------------------------- exports


def test_export_csvs(tmp_path):
    before_fm, after_fm = synth_regime(960, seed=13)
    before = run_period(before_fm, GBT, WINDOWS, SHAP, seed=8)
    after = run_period(after_fm, GBT, WINDOWS, SHAP, seed=9)
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
    for fi, ts, X, phi in [
        ([1 / 3, 2 / 3], [t0, t0 + 3600], [[0.1, 1e16], [-0.0, 1 / 3]], [[1e-300, -2.5], [0.1, 1 / 3]]),
        ([-0.0, 1.0], [t0 + 86400], [[2.0, -1.5]], [[0.0, 7.0]]),
    ]:
        phi = np.array(phi)
        e = Explanation(phi, 0.0, 0.0)
        explained = FeatureMatrix(names, np.array(X), np.zeros(len(ts)), np.array(ts, dtype=np.int64))
        windows.append(WindowResult(None, None, e, explained, np.array(fi), 0.0, 1.0))
    result = PeriodResult(names, tuple(windows))

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
    result = run_period(fm, GBT, WINDOWS, SHAP, seed=10)
    metrics = window_metrics(result)
    assert len(metrics) == 6
    assert all(m["n_train"] + m["n_test"] == 480 for m in metrics)
    import json

    json.dumps(metrics)



def test_partly_degenerate_period_names_the_same_windows_everywhere():
    # a window whose attributions are all zero gets all-zero importances; the
    # period, the manifest's metrics and the exported shares agree on which
    # windows those are, and the other windows keep their shares
    names = ("x1", "x2")
    windows = []
    for phi in ([[0.0, 0.0], [0.0, 0.0]], [[1.0, -3.0], [-1.0, 1.0]], [[0.0, 0.0], [0.0, -0.0]]):
        e = Explanation(np.array(phi), 2.0, 0.0)
        explained = FeatureMatrix(names, np.zeros((2, 2)), np.zeros(2), np.array([0, 3600]))
        windows.append(WindowResult(np.arange(2, 12), np.arange(2), e, explained, feature_importance(e), 0.0, 1.0))
    result = PeriodResult(names, tuple(windows))

    assert result.degenerate_windows == (0, 2)
    metrics = window_metrics(result)
    assert [m["degenerate_importance"] for m in metrics] == [True, False, True]
    assert [i in result.degenerate_windows for i in range(3)] == [m["degenerate_importance"] for m in metrics]
    assert [(m["n_train"], m["n_test"]) for m in metrics] == [(10, 2)] * 3
    np.testing.assert_array_equal(windows[1].importance, [1 / 3, 2 / 3])
    cmp = compare_periods(result, result)
    np.testing.assert_allclose(cmp.before_mean, [1 / 9, 2 / 9])
