"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured quantity so `pytest -v -s tests/test_acceptance.py` doubles as a
readable report. It holds the engine checks against the 2^n enumeration (the
tree engine, KernelSHAP in exact and in sampled mode), the gradient check of
the MLP and the local accuracy of every engine."""

import shutil
import time
from functools import partial

import numpy as np
import pytest

from regime_xai.cli import cmd_run, cmd_synth
from regime_xai.config import load_config
from regime_xai.experiment import (
    BLOCK_DAYS,
    ModelConfig,
    ShapConfig,
    WindowConfig,
    compare_periods,
    run_period,
    split_blocks,
)
from regime_xai.gbt import GbtParams, TreeEnsemble, TreeNode, fit_gbt, predict_gbt
from mlp_reference import grad_check, initial_net
from regime_xai.mlp import MlpParams, fit_mlp, predict_mlp
from regime_xai.seeds import derive_seed
from regime_xai.shap import (
    Background,
    exact_shap,
    explain_dataset,
    feature_importance,
    kernel_shap,
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
        GbtParams(n_trees=n_trees, max_depth=max_depth, min_samples_leaf=5),
    )


def random_net(rng, n_features, hidden=(8, 6), seed=0):
    X = rng.standard_normal((60, n_features))
    y = rng.standard_normal(60)
    return initial_net(matrix(X, y), MlpParams(hidden_sizes=hidden), seed=seed)


def max_residual(fn, phi, X, bg):
    """The worst local-accuracy residual |phi0 + sum(phi) - f(x)| over the rows of X."""
    return float(np.abs(fn(bg.rows).mean() + phi.sum(axis=1) - fn(X)).max())


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
        phi = explain_dataset(model, X, bg, method="tree", seed=0)
        worst = max(worst, max_residual(partial(predict_gbt, model), phi, X, bg))
        explained += len(phi)

    # kernel engine on random nets (enumerated, then sampled from 12 features);
    # the whole test takes about 1 s on two cores
    for i in range(4):
        n_features = 5 if i < 2 else 12
        net = random_net(rng, n_features, seed=i)
        bg = Background(rng.standard_normal((8, n_features)))
        X = rng.standard_normal((100, n_features))
        phi = explain_dataset(net, X, bg, method="kernel", seed=i)
        worst = max(worst, max_residual(partial(predict_mlp, net, work={}), phi, X, bg))
        explained += len(phi)

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
        fn = partial(predict_gbt, model)
        bg = Background(rng.uniform(-1, 1, size=(5, 6)))
        X = rng.uniform(-1, 1, size=(50, 6))
        phi = explain_dataset(model, X, bg, method="tree", seed=0)
        for x, phi_t in zip(X, phi):
            phi_e = exact_shap(fn, x, bg)
            worst = max(worst, float(np.max(np.abs(phi_t - phi_e))))
    elapsed = time.perf_counter() - start
    assert worst < 1e-9
    assert elapsed < 120
    report(2, f"50 ensembles x 50 rows, max |tree - exact| = {worst:.2e} in {elapsed:.1f}s")


def test_c03_kernel_exact_mode_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    for seed in range(5):
        net = random_net(rng, 8, seed=seed)
        fn = partial(predict_mlp, net, work={})
        bg = Background(rng.standard_normal((5, 8)))
        for _ in range(10):
            x = rng.standard_normal(8)
            phi_k = kernel_shap(fn, x, bg, seed=0)  # 254 coalitions: enumerated
            np.testing.assert_array_equal(phi_k, exact_shap(fn, x, bg))
    elapsed = time.perf_counter() - start
    assert elapsed < 120
    report(3, f"5 nets x 10 rows at n=8, kernel == exact in {elapsed:.1f}s")


def test_c04_importance_normalization_and_dummy():
    rng = np.random.default_rng(4)
    worst_sum_gap = 0.0
    for _ in range(10):
        model = random_ensemble(rng)
        bg = Background(rng.uniform(-1, 1, size=(8, 6)))
        phi = explain_dataset(model, rng.uniform(-1, 1, size=(40, 6)), bg, method="tree", seed=0)
        iv = feature_importance(phi)
        assert iv.any()
        assert np.all(iv >= 0)
        worst_sum_gap = max(worst_sum_gap, abs(float(iv.sum()) - 1.0))
    assert worst_sum_gap < 1e-9

    # dummy feature: present in the data, never split on
    stump = TreeNode(feature=0, threshold=0.0, left=TreeNode(value=-1.0), right=TreeNode(value=1.0))
    model = TreeEnsemble(0.0, (stump,), 1.0, 2)
    bg = Background(rng.normal(size=(6, 2)))
    phi = explain_dataset(model, rng.normal(size=(50, 2)), bg, method="tree", seed=0)
    iv = feature_importance(phi)
    assert iv[1] == 0.0

    constant = TreeEnsemble(3.0, (), 0.1, 2)
    phi_constant = explain_dataset(constant, rng.normal(size=(10, 2)), bg, method="tree", seed=0)
    assert not feature_importance(phi_constant).any()
    report(4, f"importance sums within {worst_sum_gap:.2e} of 1; dummy FI exactly 0; degenerate flagged")


def test_c05_gradient_correctness():
    rng = np.random.default_rng(5)
    worst = 0.0
    for seed in range(20):
        net = random_net(rng, 3, hidden=(6, 5), seed=seed)
        y = rng.standard_normal(8)
        worst = max(worst, grad_check(net, rng.standard_normal((8, 3)), y))
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
        stages = [TreeEnsemble(model.base_score, model.trees[:k], model.learning_rate, model.n_features)
                  for k in range(len(model.trees) + 1)]
        mses = np.array([np.mean((predict_gbt(m, fm.X) - fm.y) ** 2) for m in stages])
        worst_uptick = max(worst_uptick, float(np.max(np.diff(mses))))
        assert np.all(np.diff(mses) <= 0)
    report(6, f"20 datasets, largest stage-to-stage MSE change = {worst_uptick:.2e} (never positive)")


REGIME_GBT = GbtParams(n_trees=60, max_depth=3, min_samples_leaf=20)
REGIME_MLP = MlpParams(hidden_sizes=(32,), max_epochs=100)


def _regime_flip_detected(cmp) -> bool:
    x1, x2, x3 = 0, 1, 2
    return bool(
        np.argmax(cmp.before_mean) == x1
        and np.argmax(cmp.after_mean) == x2
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
    protocol = ModelConfig(kind, REGIME_GBT, REGIME_MLP), WindowConfig(), ShapConfig(background_size=30)
    hits = 0
    for seed in range(10):
        before_fm, after_fm = synth_regime(960, seed=derive_seed(seed, 100))
        before = run_period(before_fm, *protocol, derive_seed(seed, 0))
        after = run_period(after_fm, *protocol, derive_seed(seed, 1))
        hits += _regime_flip_detected(compare_periods(before, after))
    elapsed = time.perf_counter() - start
    assert hits >= 9
    assert elapsed < 600
    report(7, f"{kind}: rank flip + flags detected in {hits}/10 seeds in {elapsed:.1f}s")


def test_c08_protocol_determinism(tmp_path):
    config_path = cmd_synth(tmp_path, seed=4)
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
        rows_per_block = BLOCK_DAYS * rows_per_day
        extra = int(rng.integers(0, rows_per_block))
        start = int(rng.integers(0, 1000))
        window = range(start, start + n_blocks * rows_per_block + extra)
        train_indices, test_indices = split_blocks(
            window,
            test_fraction=0.2,
            seed=int(rng.integers(2**31)),
            rows_per_day=rows_per_day,
        )
        assert np.intersect1d(train_indices, test_indices).size == 0
        merged = np.sort(np.concatenate([train_indices, test_indices]))
        np.testing.assert_array_equal(merged, np.arange(window.start, window.stop))
        offsets = test_indices - start
        blocks = set(offsets // rows_per_block)
        assert len(test_indices) == len(blocks) * rows_per_block
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


def test_c11_kernel_sampled_mode_error():
    # From n = 12 on KernelSHAP samples 2n + 2048 paired coalitions. Its
    # attributions, made by the call run makes, are checked against the 2^n
    # enumeration on fitted nets. The error of a row is the L1 gap over
    # sum |phi_exact|. Measured on this setup: median 0.49 %, max 1.37 %;
    # with as many draws and no complement pairing, median 1.91 %, max 4.18 %.
    start = time.perf_counter()
    errors = []
    for n in (12, 13):
        rng = np.random.default_rng(n)
        X = rng.standard_normal((400, n))
        y = np.sin(X[:, 0]) + X[:, 1] * X[:, 2] + 0.5 * X[:, 3:].sum(axis=1) + 0.1 * rng.standard_normal(400)
        net = fit_mlp(matrix(X, y), MlpParams(hidden_sizes=(32, 32), max_epochs=50), seed=n)
        fn = partial(predict_mlp, net, work={})
        bg, rows = Background(X[:20]), X[20:32]
        phi = explain_dataset(net, rows, bg, method="kernel", seed=n)
        phi_e = np.array([exact_shap(fn, x, bg) for x in rows])
        errors += list(np.abs(phi - phi_e).sum(axis=1) / np.abs(phi_e).sum(axis=1))
    median, worst = float(np.median(errors)), max(errors)
    assert median < 0.01
    assert worst < 0.025
    report(11, f"{len(errors)} rows at n=12 and 13, L1 error over sum |phi_exact|: median {median:.2%}, "
               f"max {worst:.2%} in {time.perf_counter() - start:.1f}s")
