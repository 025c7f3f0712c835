"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured quantity so `pytest -v -s tests/test_acceptance.py` doubles as a
readable report."""

import shutil
import time

import numpy as np
import pytest

from regime_xai.cli import cmd_run, cmd_synth
from regime_xai.config import load_config
from regime_xai.experiment import (
    ExperimentConfig,
    PeriodSpec,
    compare_periods,
    run_period,
    split_blocks,
)
from regime_xai.gbt import GbtParams, TreeEnsemble, TreeNode, fit_gbt, predict_gbt
from regime_xai.mlp import MlpParams, grad_check, initial_net
from regime_xai.seeds import derive_seed
from regime_xai.shap import (
    Background,
    as_predict_fn,
    exact_shap,
    explain_dataset,
    feature_importance,
    kernel_shap,
    tree_shap,
)
from regime_xai.timeseries import FeatureMatrix, mixed_price, synth_regime


def matrix(X, y):
    names = tuple(f"x{i + 1}" for i in range(X.shape[1]))
    return FeatureMatrix(names, X, y, np.arange(len(y)))


def random_ensemble(rng, n_features=6, n_trees=5, max_depth=3):
    X = rng.uniform(-1, 1, size=(60, n_features))
    y = rng.standard_normal(60)
    return fit_gbt(
        matrix(X, y),
        GbtParams(n_trees=n_trees, max_depth=max_depth, min_samples_leaf=5, learning_rate=0.3),
    )


def random_net(rng, n_features, hidden=(8, 6), seed=0):
    X = rng.standard_normal((60, n_features))
    y = rng.standard_normal(60)
    return initial_net(matrix(X, y), MlpParams(hidden_sizes=hidden, seed=seed))


def period_for(fm, name):
    return PeriodSpec(name, int(fm.timestamps[0]), int(fm.timestamps[-1]) + 3600)


def report(n, detail):
    print(f"PASS criterion {n}: {detail}")


def test_c01_local_accuracy_across_engines():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    explained = 0

    for i in range(6):  # tree engine on random ensembles
        model = random_ensemble(rng, n_trees=4 + i, max_depth=2 + i % 2)
        bg = Background(rng.uniform(-1, 1, size=(10, 6)))
        X = rng.uniform(-1, 1, size=(100, 6))
        e = explain_dataset(model, X, bg, method="tree")
        worst = max(worst, float(np.max(np.abs(e.phi0 + e.phi.sum(axis=1) - e.predictions))))
        explained += len(e)

    for i in range(4):  # kernel engine on random nets (exact and sampled)
        n_features = 5 if i < 2 else 10
        net = random_net(rng, n_features, seed=i)
        bg = Background(rng.standard_normal((8, n_features)))
        X = rng.standard_normal((100, n_features))
        e = explain_dataset(
            net, X, bg, method="kernel", seed=i, n_coalitions=None if i < 2 else 120
        )
        worst = max(worst, float(np.max(np.abs(e.phi0 + e.phi.sum(axis=1) - e.predictions))))
        explained += len(e)

    elapsed = time.perf_counter() - start
    assert explained >= 1000
    assert worst < 1e-6
    assert elapsed < 60
    report(1, f"{explained} rows explained, max |phi0 + sum(phi) - f(x)| = {worst:.2e} in {elapsed:.1f}s")


def test_c02_tree_shap_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(50):
        model = random_ensemble(rng, n_features=6, n_trees=5, max_depth=3)
        fn = as_predict_fn(model)
        bg = Background(rng.uniform(-1, 1, size=(5, 6)))
        X = rng.uniform(-1, 1, size=(50, 6))
        for x in X:
            phi_t, phi0_t = tree_shap(model, x, bg)
            phi_e, phi0_e = exact_shap(fn, x, bg)
            worst = max(worst, float(np.max(np.abs(phi_t - phi_e))), abs(phi0_t - phi0_e))
    elapsed = time.perf_counter() - start
    assert worst < 1e-9
    assert elapsed < 120
    report(2, f"50 ensembles x 50 rows, max |tree - exact| = {worst:.2e} in {elapsed:.1f}s")


def test_c03_kernel_exact_mode_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    worst = 0.0
    for seed in range(5):
        net = random_net(rng, 8, seed=seed)
        fn = as_predict_fn(net)
        bg = Background(rng.standard_normal((5, 8)))
        for _ in range(10):
            x = rng.standard_normal(8)
            phi_k, phi0_k = kernel_shap(fn, x, bg)  # 254 coalitions: exact mode
            phi_e, phi0_e = exact_shap(fn, x, bg)
            worst = max(worst, float(np.max(np.abs(phi_k - phi_e))), abs(phi0_k - phi0_e))
    elapsed = time.perf_counter() - start
    assert worst < 1e-6
    assert elapsed < 120
    report(3, f"5 nets x 10 rows at n=8, max |kernel - exact| = {worst:.2e} in {elapsed:.1f}s")


def test_c04_importance_normalization_and_dummy():
    rng = np.random.default_rng(4)
    worst_sum_gap = 0.0
    for _ in range(10):
        model = random_ensemble(rng)
        bg = Background(rng.uniform(-1, 1, size=(8, 6)))
        e = explain_dataset(model, rng.uniform(-1, 1, size=(40, 6)), bg, method="tree")
        iv = feature_importance(e)
        assert not iv.degenerate
        assert np.all(iv.fi >= 0)
        worst_sum_gap = max(worst_sum_gap, abs(float(iv.fi.sum()) - 1.0))
    assert worst_sum_gap < 1e-9

    # dummy feature: present in the data, never split on
    stump = TreeNode(feature=0, threshold=0.0, left=TreeNode(value=-1.0), right=TreeNode(value=1.0))
    model = TreeEnsemble(0.0, (stump,), 1.0, ("a", "b"))
    bg = Background(rng.normal(size=(6, 2)))
    e = explain_dataset(model, rng.normal(size=(50, 2)), bg, method="tree")
    iv = feature_importance(e)
    assert iv.fi[1] == 0.0

    constant = TreeEnsemble(3.0, (), 0.1, ("a", "b"))
    e0 = explain_dataset(constant, rng.normal(size=(10, 2)), bg, method="tree")
    assert feature_importance(e0).degenerate
    report(4, f"importance sums within {worst_sum_gap:.2e} of 1; dummy FI exactly 0; degenerate flagged")


def test_c05_gradient_correctness():
    rng = np.random.default_rng(5)
    worst = 0.0
    for seed in range(20):
        net = random_net(rng, 3, hidden=(6, 5), seed=seed)
        y = rng.standard_normal(8)
        for _ in range(50):  # finite differences need pre-activations off the kinks
            X = rng.standard_normal((8, 3))
            h = (X - net.x_mean) / net.x_std
            gap = np.inf
            for W, b in zip(net.weights[:-1], net.biases[:-1]):
                z = h @ W.T + b
                gap = min(gap, float(np.abs(z).min()))
                h = np.maximum(z, 0.0)
            if gap > 1e-3:
                break
        worst = max(worst, grad_check(net, X, y, epsilon=1e-5))
    assert worst < 1e-4
    report(5, f"20 random nets, max relative gradient error = {worst:.2e}")


def test_c06_gbt_monotone_training_loss():
    rng = np.random.default_rng(6)
    worst_uptick = -np.inf
    for _ in range(20):
        n = int(rng.integers(150, 400))
        k = int(rng.integers(2, 5))
        X = rng.uniform(-1, 1, size=(n, k))
        y = X @ rng.normal(size=k) + 0.3 * rng.standard_normal(n)
        fm = matrix(X, y)
        model = fit_gbt(fm, GbtParams(n_trees=40, max_depth=3, min_samples_leaf=10))
        stages = [TreeEnsemble(model.base_score, model.trees[:k], model.learning_rate, model.feature_names)
                  for k in range(len(model.trees) + 1)]
        mses = np.array([np.mean((predict_gbt(m, fm.X) - fm.y) ** 2) for m in stages])
        worst_uptick = max(worst_uptick, float(np.max(np.diff(mses))))
        assert np.all(np.diff(mses) <= 0)
    report(6, f"20 datasets, largest stage-to-stage MSE change = {worst_uptick:.2e} (never positive)")


REGIME_CFG = ExperimentConfig(
    background_size=30,
    gbt=GbtParams(n_trees=60, max_depth=3, min_samples_leaf=20, learning_rate=0.1),
    mlp=MlpParams(hidden_sizes=(32,), max_epochs=100, seed=0),
)


def _regime_flip_detected(cmp) -> bool:
    x1, x2, x3 = 0, 1, 2
    return bool(
        cmp.before_rank[x1] == 1
        and cmp.after_rank[x2] == 1
        and cmp.flagged[x1]
        and cmp.flagged[x2]
        and cmp.delta[x1] < 0 < cmp.delta[x2]
        and cmp.before_mean[x3] < 0.05
        and cmp.after_mean[x3] < 0.05
        and not cmp.flagged[x3]
    )


@pytest.mark.parametrize("kind", ["gbt", "mlp"])
def test_c07_synthetic_regime_shift_reproduction(kind):
    start = time.perf_counter()
    hits = 0
    for seed in range(10):
        before_fm, after_fm = synth_regime(960, seed=derive_seed(seed, 100))
        before = run_period(before_fm, period_for(before_fm, "before"), kind, REGIME_CFG, derive_seed(seed, 0))
        after = run_period(after_fm, period_for(after_fm, "after"), kind, REGIME_CFG, derive_seed(seed, 1))
        hits += _regime_flip_detected(compare_periods(before, after))
    elapsed = time.perf_counter() - start
    assert hits >= 9
    assert elapsed < 600
    report(7, f"{kind}: rank flip + flags detected in {hits}/10 seeds in {elapsed:.1f}s")


def test_c08_protocol_determinism(tmp_path):
    config_path = cmd_synth(tmp_path, n_rows=960, seed=4)
    config = load_config(config_path, overrides=["shap.background_size=25", "model.gbt.n_trees=30"])
    out_dir = tmp_path / "run_output"
    files = ("importance.csv", "comparison.csv", "dependence.csv", "manifest.json")

    cmd_run(config)
    first = {f: (out_dir / f).read_bytes() for f in files}
    shutil.rmtree(out_dir)
    cmd_run(config)
    second = {f: (out_dir / f).read_bytes() for f in files}

    for f in files:
        assert first[f] == second[f], f"{f} differs between identical runs"
    report(8, f"two runs produced byte-identical {', '.join(files)}")


def test_c09_split_integrity_over_random_windows():
    rng = np.random.default_rng(9)
    for _ in range(200):
        n_blocks = int(rng.integers(5, 40))
        rows_per_day = int(rng.choice([1, 6, 24]))
        rows_per_block = 4 * rows_per_day
        extra = int(rng.integers(0, rows_per_block))
        start = int(rng.integers(0, 1000))
        window = range(start, start + n_blocks * rows_per_block + extra)
        plan = split_blocks(
            window,
            block_days=4,
            test_fraction=0.2,
            seed=int(rng.integers(2**31)),
            rows_per_day=rows_per_day,
        )
        assert np.intersect1d(plan.train_indices, plan.test_indices).size == 0
        merged = np.sort(np.concatenate([plan.train_indices, plan.test_indices]))
        np.testing.assert_array_equal(merged, np.arange(window.start, window.stop))
        offsets = plan.test_indices - start
        blocks = set(offsets // rows_per_block)
        assert len(plan.test_indices) == len(blocks) * rows_per_block
        for b in blocks:
            assert set(range(b * rows_per_block, (b + 1) * rows_per_block)) <= set(offsets)
        assert abs(len(blocks) - 0.2 * n_blocks) <= 1.0
    report(9, "200 random windows: whole-block test sets, disjoint, fraction within one block of 20%")


def test_c10_mixed_price_exactness():
    rng = np.random.default_rng(10)
    for _ in range(100):
        cap = float(rng.uniform(-100, 100))
        energy = float(rng.uniform(-1000, 1000))
        alpha = float(rng.uniform(0, 0.1))
        got = mixed_price(np.array([cap]), np.array([energy]), alpha)[0]
        assert got == cap + alpha * energy  # same float operations, bit-exact

    cap_series = rng.uniform(-100, 100, size=50)
    zero = mixed_price(cap_series, rng.uniform(-100, 100, size=50), 0.0)
    np.testing.assert_array_equal(zero, cap_series)
    report(10, "100 random triples bit-exact against hand arithmetic; alpha=0 identity exact")
