import contextlib
import time
import tracemalloc
from functools import partial

import numpy as np
import pytest

from regime_xai.gbt import GbtParams, TreeEnsemble, TreeNode, _build_tree, fit_gbt, predict_gbt
from mlp_reference import initial_net
from regime_xai.mlp import MlpParams, predict_mlp
from regime_xai.seeds import derive_seed
from regime_xai.shap import (
    Background,
    LocalAccuracyError,
    SingularSystemError,
    _kernel_shap_matrix,
    _mask_values,
    _openblas_threads,
    _subset_weights,
    exact_shap,
    explain_dataset,
    feature_importance,
    kernel_shap,
)
from regime_xai.timeseries import FeatureMatrix


def matrix(X, y):
    X = np.asarray(X, dtype=float)
    names = tuple(f"x{i + 1}" for i in range(X.shape[1]))
    return FeatureMatrix(names, X, np.asarray(y, dtype=float), np.arange(len(y)))


def random_ensemble(seed, n_features=6, n_trees=5, max_depth=3, n_rows=60):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n_rows, n_features))
    y = rng.standard_normal(n_rows)
    return fit_gbt(
        matrix(X, y),
        GbtParams(n_trees=n_trees, max_depth=max_depth, min_samples_leaf=5),
    )


def random_mlp(seed, n_features=8):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((80, n_features))
    y = rng.standard_normal(80)
    return initial_net(matrix(X, y), MlpParams(hidden_sizes=(8, 6)), seed=seed)


# ------------------------------------------------------------- value function


def max_residual(fn, phi, X, bg):
    """The worst local-accuracy residual |phi0 + sum(phi) - f(x)| over the rows of X."""
    return float(np.abs(fn(bg.rows).mean() + phi.sum(axis=1) - fn(X)).max())


def value_of(fn, x, mask, bg):
    """v(S) for one coalition bitmask (bit j set = feature j taken from x)."""
    return _mask_values(fn, np.asarray(x, dtype=float), bg, np.array([mask]), len(x))[0]


def test_value_function_full_set_is_prediction():
    fn = lambda X: X[:, 0] * 2 + X[:, 1]
    bg = Background(np.random.default_rng(0).normal(size=(5, 2)))
    x = np.array([3.0, 4.0])
    assert value_of(fn, x, 0b11, bg) == pytest.approx(10.0, abs=1e-12)


def test_value_function_empty_set_is_background_mean():
    fn = lambda X: X[:, 0] + X[:, 1]
    rows = np.array([[1.0, 2.0], [3.0, 4.0]])
    bg = Background(rows)
    assert value_of(fn, np.zeros(2), 0b00, bg) == pytest.approx(5.0)


def test_value_function_additive_hand_check():
    # f = x1 + x2, two backgrounds, S = {x1}: x1 + mean(background x2)
    fn = lambda X: X[:, 0] + X[:, 1]
    bg = Background(np.array([[10.0, 1.0], [20.0, 5.0]]))
    x = np.array([7.0, 100.0])
    assert value_of(fn, x, 0b01, bg) == pytest.approx(7.0 + 3.0)


def sampled_masks(seed, n, count):
    """count distinct proper nonempty coalitions of n features, ascending, as
    kernel_shap's sampled mode hands them to _mask_values."""
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(np.arange(1, (1 << n) - 1), size=count, replace=False))


@pytest.mark.parametrize(
    "n, masks, size",
    [
        (3, np.arange(8), 7),
        # 2,048 masks of 50 background rows take chunks of 64 masks, 3,200 rows
        (11, np.arange(1 << 11), 50),
        (12, sampled_masks(0, 12, 2000), 50),
    ],
    ids=["enumerated-one-chunk", "enumerated-two-chunks", "sampled-two-chunks"],
)
def test_mask_values_hands_the_model_the_hybrid_rows_in_order(n, masks, size):
    # Each model call gets a chunk's hybrids, mask after mask and background
    # row after row: the rows np.where(sel[:, None, :], x, bg.rows) builds.
    # The chunks' row counts matter too, since BLAS results depend on them.
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n)
    bg = Background(rng.standard_normal((size, n)))
    calls = []

    def record(X):
        calls.append(X.copy())
        return X @ np.arange(1.0, n + 1) + np.sin(X[:, 0])

    values = _mask_values(record, x, bg, masks, n)
    sel = ((masks[:, None] >> np.arange(n)) & 1).astype(bool)
    expected = np.where(sel[:, None, :], x, bg.rows).reshape(-1, n)
    chunk = 2 ** int(np.log2(4096 // size)) * size
    assert [len(X) for X in calls] == [min(chunk, len(expected) - start) for start in range(0, len(expected), chunk)]
    np.testing.assert_array_equal(np.concatenate(calls), expected)
    np.testing.assert_array_equal(values, record(expected).reshape(len(masks), size).mean(axis=1))


@pytest.mark.parametrize("hidden", [(32, 32), (64, 64)])
@pytest.mark.parametrize("n", [8, 11])
@pytest.mark.parametrize("size", [10, 50, 100])
def test_mask_values_in_chunks_equal_one_model_call_bit_for_bit(hidden, n, size):
    # A chunk's row count is a power of two of masks times the background
    # size, so BLAS computes each hybrid row as it would in one call over
    # all of them; a chunk of 4096 // size masks changes the last bits.
    rng = np.random.default_rng(n * size)
    X = rng.standard_normal((80, n))
    net = initial_net(matrix(X, rng.standard_normal(80)), MlpParams(hidden_sizes=hidden), seed=size)
    x = rng.standard_normal(n)
    bg = Background(rng.standard_normal((size, n)))
    masks = np.arange(1 << n, dtype=np.int64)
    values = _mask_values(partial(predict_mlp, net, work={}), x, bg, masks, n)
    sel = ((masks[:, None] >> np.arange(n)) & 1).astype(bool)
    hybrids = np.where(sel[:, None, :], x, bg.rows).reshape(-1, n)
    np.testing.assert_array_equal(values, predict_mlp(net, hybrids, {}).reshape(len(masks), size).mean(axis=1))


# ----------------------------------------------------------------- exact_shap


def test_exact_shap_constant_model():
    fn = lambda X: np.full(X.shape[0], 4.2)
    bg = Background(np.random.default_rng(1).normal(size=(4, 3)))
    phi = exact_shap(fn, np.ones(3), bg)
    np.testing.assert_allclose(phi, 0.0, atol=1e-12)


def test_exact_shap_additive_model_centered_background():
    fn = lambda X: X[:, 0] + X[:, 1]
    bg = Background(np.array([[1.0, -2.0], [-1.0, 2.0]]))  # zero column means
    x = np.array([3.0, 5.0])
    phi = exact_shap(fn, x, bg)
    np.testing.assert_allclose(phi, [3.0, 5.0], atol=1e-12)


def test_exact_shap_three_way_product():
    # All 8 subsets by hand: only the full coalition has v = 1,
    # so each feature gets weight (2! 0!)/3! = 1/3.
    fn = lambda X: X[:, 0] * X[:, 1] * X[:, 2]
    bg = Background(np.zeros((1, 3)))
    phi = exact_shap(fn, np.ones(3), bg)
    np.testing.assert_allclose(phi, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)


def test_exact_shap_local_accuracy():
    rng = np.random.default_rng(2)
    model = random_ensemble(2)
    fn = partial(predict_gbt, model)
    bg = Background(rng.uniform(-1, 1, size=(5, 6)))
    for _ in range(5):
        x = rng.uniform(-1, 1, size=6)
        phi = exact_shap(fn, x, bg)
        assert fn(bg.rows).mean() + phi.sum() == pytest.approx(float(fn(x[None])[0]), abs=1e-9)


def test_exact_shap_rejects_large_n():
    fn = lambda X: X.sum(axis=1)
    with pytest.raises(ValueError, match="20"):
        exact_shap(fn, np.zeros(21), Background(np.zeros((1, 21))))


@pytest.mark.parametrize(
    "explain, n",
    [(exact_shap, 3), (partial(kernel_shap, seed=0), 3), (partial(kernel_shap, seed=0), 12)],
    ids=["exact", "kernel-enumerated", "kernel-sampled"],
)
def test_exact_and_kernel_shap_reject_a_background_one_column_wider(explain, n):
    with pytest.raises(ValueError, match="background width does not match the explained row"):
        explain(lambda X: X.sum(axis=1), np.zeros(n), Background(np.zeros((2, n + 1))))


def test_exact_shap_symmetry():
    # Model symmetric in features 0 and 1, evaluated where x0 == x1,
    # against a background symmetric under swapping columns 0 and 1.
    fn = lambda X: X[:, 0] * X[:, 1] + X[:, 2]
    bg = Background(np.array([[0.3, -0.8, 0.1], [-0.8, 0.3, 0.1]]))
    phi = exact_shap(fn, np.array([0.5, 0.5, 2.0]), bg)
    assert abs(phi[0] - phi[1]) < 1e-9


def test_exact_shap_linearity():
    g = partial(predict_gbt, random_ensemble(3))
    h = partial(predict_gbt, random_ensemble(4))
    a, b = 2.5, -0.75
    combo = lambda X: a * g(X) + b * h(X)
    rng = np.random.default_rng(5)
    bg = Background(rng.uniform(-1, 1, size=(4, 6)))
    x = rng.uniform(-1, 1, size=6)
    phi_g = exact_shap(g, x, bg)
    phi_h = exact_shap(h, x, bg)
    phi_c = exact_shap(combo, x, bg)
    np.testing.assert_allclose(phi_c, a * phi_g + b * phi_h, atol=1e-9)


def per_feature_loop(v, n):
    """phi from the values of all 2^n coalitions, one feature at a time: the
    masks without j in ascending order, each term weighted by the Shapley
    weight of its coalition's size, summed by np.sum."""
    masks = np.arange(1 << n, dtype=np.int64)
    popcount = ((masks[:, None] >> np.arange(n)) & 1).sum(axis=1)
    w = _subset_weights(n)
    phi = np.empty(n)
    for j in range(n):
        without = masks[(masks >> j) & 1 == 0]
        phi[j] = np.sum(w[popcount[without]] * (v[without | (1 << j)] - v[without]))
    return phi


@pytest.mark.parametrize("n", range(1, 12))
def test_exact_shap_equals_the_per_feature_loop_bit_for_bit(n):
    net = random_mlp(n, n_features=n)
    fn = partial(predict_mlp, net, work={})
    rng = np.random.default_rng(100 + n)
    bg = Background(rng.standard_normal((4, n)))
    x = rng.standard_normal(n)
    v = _mask_values(fn, x, bg, np.arange(1 << n, dtype=np.int64), n)
    np.testing.assert_array_equal(exact_shap(fn, x, bg), per_feature_loop(v, n))


@pytest.mark.parametrize("p,q", [(p, q) for p in range(5) for q in range(5) if p + q])
def test_exact_shap_unanimity_with_veto_game_has_the_weights_of_its_players(p, q):
    # The game of one tree leaf: the model is 1 only when every column is 1,
    # the P features are 1 in x and 0 in the background row, the Q features
    # the other way round, and the m null features 1 in both. So v(S) = 1
    # iff S holds all of P and none of Q, and the null features leave the
    # p + q players' Shapley values w(p - 1) and -w(p) of _subset_weights(p + q).
    fn = lambda X: np.all(X == 1.0, axis=1).astype(float)
    w = _subset_weights(p + q)
    players = np.r_[np.full(p, w[p - 1]), np.full(q, -w[p] if q else 0.0)]
    for m in range(4):
        x = np.array([1.0] * p + [0.0] * q + [1.0] * m)
        bg = Background(np.array([[0.0] * p + [1.0] * q + [1.0] * m]))
        phi = exact_shap(fn, x, bg)
        np.testing.assert_allclose(phi[: p + q], players, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(phi[p + q :], 0.0)


# ------------------------------------------------------------ tree engine


def test_tree_shap_zero_trees():
    model = TreeEnsemble(1.5, (), 0.1, 2)
    bg = Background(np.zeros((3, 2)))
    phi = explain_dataset(model, np.array([[5.0, 6.0]]), bg, method="tree", seed=0)
    np.testing.assert_array_equal(phi[0], [0.0, 0.0])


def test_tree_shap_dummy_feature_exactly_zero():
    stump = TreeNode(feature=0, threshold=0.0, left=TreeNode(value=-1.0), right=TreeNode(value=1.0))
    model = TreeEnsemble(0.0, (stump,), 1.0, 2)
    bg = Background(np.random.default_rng(6).normal(size=(7, 2)))
    phi = explain_dataset(model, np.array([[0.5, 123.0]]), bg, method="tree", seed=0)
    assert phi[0, 1] == 0.0


def test_tree_shap_single_stump_hand_check():
    # v({0}) = tree(x), v(empty) = mean over background; phi_0 = difference.
    stump = TreeNode(feature=0, threshold=0.0, left=TreeNode(value=-1.0), right=TreeNode(value=1.0))
    model = TreeEnsemble(0.0, (stump,), 1.0, 1)
    bg = Background(np.array([[-1.0], [1.0], [1.0]]))  # v(empty) = (-1+1+1)/3
    phi = explain_dataset(model, np.array([[0.5]]), bg, method="tree", seed=0)
    assert phi[0, 0] == pytest.approx(1.0 - 1 / 3)


@pytest.mark.parametrize(
    "x, z",
    [((0.5, -np.inf), (0.0, 0.0)), ((np.nan, 0.5), (0.0, 0.0)), ((0.5, 0.5), (0.0, np.nan))],
    ids=["inf-row", "nan-row", "nan-background"],
)
def test_tree_shap_rejects_rows_that_are_not_finite(x, z):
    stump = TreeNode(feature=0, threshold=0.0, left=TreeNode(value=-1.0), right=TreeNode(value=1.0))
    model = TreeEnsemble(0.0, (stump,), 1.0, 2)
    X = np.array([[1.0, 1.0], x])
    bg = Background(np.array([[-1.0, 1.0], z]))
    with pytest.raises(ValueError, match="the tree engine needs finite rows and background rows"):
        explain_dataset(model, X, bg, method="tree", seed=0)


def test_tree_shap_matches_brute_force():
    rng = np.random.default_rng(7)
    worst = 0.0
    for seed in range(10):
        model = random_ensemble(seed)
        fn = partial(predict_gbt, model)
        bg = Background(rng.uniform(-1, 1, size=(5, 6)))
        X = rng.uniform(-1, 1, size=(10, 6))
        phi = explain_dataset(model, X, bg, method="tree", seed=0)
        for x, phi_t in zip(X, phi):
            phi_e = exact_shap(fn, x, bg)
            worst = max(worst, np.max(np.abs(phi_t - phi_e)))
    assert worst < 1e-9


def test_trees_fitted_to_a_zero_residual_add_nothing():
    # One depth-2 tree fits this target exactly (8 rows per quadrant keep the
    # base score and every leaf mean exact), so at learning rate 1 each later
    # stage would fit a zero residual: a single leaf of value 0, which moves
    # neither a prediction nor, having no path, an attribution.
    rng = np.random.default_rng(31)
    signs = np.repeat([[-1, -1], [-1, 1], [1, -1], [1, 1]], 8, axis=0)
    X = np.column_stack([signs * rng.uniform(0.1, 1, size=signs.shape), rng.uniform(-1, 1, size=32)])
    y = 2.0 * (signs[:, 0] > 0) + 1.0 * (signs[:, 1] > 0)
    params, rows, fitted = GbtParams(max_depth=2, min_samples_leaf=1), np.arange(32), np.empty(32)
    order = np.argsort(X.T, axis=1, kind="stable")
    base = float(y.mean())
    tree = _build_tree(X, y - base, rows, order, 0, params, fitted)
    residual = y - base - fitted
    np.testing.assert_array_equal(residual, 0.0)
    zero = _build_tree(X, residual, rows, order, 0, params, fitted)
    assert zero == TreeNode(value=0.0)
    np.testing.assert_array_equal(fitted, 0.0)
    model = TreeEnsemble(base, (tree, zero, zero, zero), 1.0, 3)
    np.testing.assert_array_equal(predict_gbt(model, X), y)
    first = TreeEnsemble(base, (tree,), 1.0, 3)
    bg = Background(X[::5])
    phi = explain_dataset(model, X[:12], bg, method="tree", seed=0)
    np.testing.assert_array_equal(phi, explain_dataset(first, X[:12], bg, method="tree", seed=0))
    fn = partial(predict_gbt, model)
    for x, phi_t in zip(X[:12], phi):
        phi_e = exact_shap(fn, x, bg)
        np.testing.assert_allclose(phi_t, phi_e, atol=1e-12)


def test_tree_shap_matches_brute_force_wider_feature_space():
    rng = np.random.default_rng(30)
    model = random_ensemble(30, n_features=10, n_trees=6, max_depth=4, n_rows=120)
    fn = partial(predict_gbt, model)
    bg = Background(rng.uniform(-1, 1, size=(4, 10)))
    X = rng.uniform(-1, 1, size=(5, 10))
    phi = explain_dataset(model, X, bg, method="tree", seed=0)
    worst = 0.0
    for x, phi_t in zip(X, phi):
        phi_e = exact_shap(fn, x, bg)
        worst = max(worst, np.max(np.abs(phi_t - phi_e)))
    assert worst < 1e-9


def test_tree_shap_repeated_feature_on_path():
    # Depth-2 tree splitting twice on the same feature exercises constraint merging.
    inner = TreeNode(
        feature=0, threshold=-0.5, left=TreeNode(value=1.0), right=TreeNode(value=2.0)
    )
    root = TreeNode(feature=0, threshold=0.5, left=inner, right=TreeNode(value=5.0))
    model = TreeEnsemble(0.0, (root,), 1.0, 2)
    fn = partial(predict_gbt, model)
    rng = np.random.default_rng(8)
    bg = Background(rng.uniform(-2, 2, size=(6, 2)))
    X = np.array([[x0, 0.3] for x0 in (-1.0, 0.0, 1.0)])
    phi = explain_dataset(model, X, bg, method="tree", seed=0)
    for x, phi_t in zip(X, phi):
        phi_e = exact_shap(fn, x, bg)
        np.testing.assert_allclose(phi_t, phi_e, atol=1e-12)


def reindexed(node, columns):
    """node with each split's feature j moved to column columns[j]."""
    if node.is_leaf:
        return node
    return TreeNode(
        feature=columns[node.feature], threshold=node.threshold,
        left=reindexed(node.left, columns), right=reindexed(node.right, columns),
    )


def test_tree_shap_does_not_depend_on_the_unused_columns():
    # the same 20 trees on 3 columns and placed among 70: the used columns
    # get the same bits, the other 67 exactly 0
    narrow = random_ensemble(50, n_features=3, n_trees=20, max_depth=4, n_rows=200)
    columns = [5, 33, 68]
    wide = TreeEnsemble(
        narrow.base_score, tuple(reindexed(t, columns) for t in narrow.trees), narrow.learning_rate, 70
    )
    rng = np.random.default_rng(50)
    X, bg_rows = rng.uniform(-1, 1, size=(40, 70)), rng.uniform(-1, 1, size=(12, 70))
    phi_narrow = explain_dataset(narrow, X[:, columns], Background(bg_rows[:, columns]), method="tree", seed=0)
    phi_wide = explain_dataset(wide, X, Background(bg_rows), method="tree", seed=0)
    np.testing.assert_array_equal(phi_wide[:, columns], phi_narrow)
    assert not np.delete(phi_wide, columns, axis=1).any()


def tree_depth(node):
    return 0 if node.is_leaf else 1 + max(tree_depth(node.left), tree_depth(node.right))


def split_points(node):
    if node.is_leaf:
        return []
    return [(node.feature, node.threshold)] + split_points(node.left) + split_points(node.right)


def test_tree_batch_matches_brute_force_row_by_row():
    # x1 <= 0 and then x1 > 0.5: the leaf of value 7 is unreachable
    contradictory = TreeNode(
        feature=0,
        threshold=0.0,
        left=TreeNode(feature=0, threshold=0.5, left=TreeNode(value=1.0), right=TreeNode(value=7.0)),
        right=TreeNode(feature=1, threshold=0.2, left=TreeNode(value=-2.0), right=TreeNode(value=3.0)),
    )
    hand = TreeEnsemble(0.5, (contradictory,), 1.0, 6)
    deep = random_ensemble(40, n_trees=4, max_depth=6, n_rows=400)
    assert max(tree_depth(t) for t in deep.trees) == 6

    rng = np.random.default_rng(40)
    for model in (hand, deep):
        splits = [s for tree in model.trees for s in split_points(tree)]
        bg_rows = rng.uniform(-1, 1, size=(8, 6))
        bg_rows[0, splits[0][0]] = splits[0][1]
        bg = Background(bg_rows)
        on_threshold = rng.uniform(-1, 1, size=(len(splits), 6))
        for row, (f, t) in zip(on_threshold, splits):
            row[f] = t
        # background copies make row codes repeat within the batch
        X = np.vstack([rng.uniform(-1, 1, size=(10, 6)), on_threshold, bg.rows[:4], bg.rows[:2]])

        phi = explain_dataset(model, X, bg, method="tree", seed=0)
        fn = partial(predict_gbt, model)
        for i, x in enumerate(X):
            phi_e = exact_shap(fn, x, bg)
            np.testing.assert_allclose(phi[i], phi_e, rtol=0, atol=1e-12)


def test_tree_batch_across_row_blocks_matches_each_row_alone(monkeypatch):
    # 4 leaves with 2 path conditions each; with 64-element blocks a leaf's
    # codes fill more than a block, so each leaf block holds one leaf, a row
    # takes 2 elements and the batch fills three row blocks and a ragged fourth
    tree = TreeNode(
        feature=0,
        threshold=0.0,
        left=TreeNode(feature=1, threshold=0.3, left=TreeNode(value=-1.5), right=TreeNode(value=0.25)),
        right=TreeNode(feature=2, threshold=-0.2, left=TreeNode(value=2.0), right=TreeNode(value=0.75)),
    )
    model = TreeEnsemble(0.1, (tree,), 0.5, 3)
    monkeypatch.setattr("regime_xai.shap._BLOCK_ELEMENTS", 64)
    per_block = 64 // 2
    rng = np.random.default_rng(60)
    bg = Background(rng.uniform(-1, 1, size=(6, 3)))
    X = rng.uniform(-1, 1, size=(3 * per_block + 5, 3))
    phi = explain_dataset(model, X, bg, method="tree", seed=0)

    fn = partial(predict_gbt, model)
    for i in range(len(X)):
        alone = explain_dataset(model, X[i : i + 1], bg, method="tree", seed=0)
        np.testing.assert_array_equal(phi[i], alone[0])
        phi_e = exact_shap(fn, X[i], bg)
        np.testing.assert_allclose(phi[i], phi_e, rtol=0, atol=1e-12)


def mixed_depth_ensemble():
    """A depth-1 stump, a tree with an unreachable leaf and four depth-6
    trees, so paths of 1 to 6 conditions share one padded pass."""
    stump = TreeNode(feature=3, threshold=0.1, left=TreeNode(value=0.4), right=TreeNode(value=-0.6))
    # x1 <= 0 and then x1 > 0.5: the leaf of value 7 is unreachable
    contradictory = TreeNode(
        feature=0,
        threshold=0.0,
        left=TreeNode(feature=0, threshold=0.5, left=TreeNode(value=1.0), right=TreeNode(value=7.0)),
        right=TreeNode(feature=1, threshold=0.2, left=TreeNode(value=-2.0), right=TreeNode(value=3.0)),
    )
    deep = random_ensemble(40, n_trees=4, max_depth=6, n_rows=400)
    assert max(tree_depth(t) for t in deep.trees) == 6
    return TreeEnsemble(0.5, (stump, contradictory) + deep.trees, 0.3, 6)


def test_tree_shap_mixed_path_lengths_match_brute_force():
    model = mixed_depth_ensemble()
    rng = np.random.default_rng(61)
    bg = Background(rng.uniform(-1, 1, size=(8, 6)))
    on_threshold = rng.uniform(-1, 1, size=(6, 6))
    for row, (f, t) in zip(on_threshold, split_points(model.trees[0]) + split_points(model.trees[1])):
        row[f] = t
    X = np.vstack([rng.uniform(-1, 1, size=(12, 6)), on_threshold, bg.rows[:3]])
    phi = explain_dataset(model, X, bg, method="tree", seed=0)
    fn = partial(predict_gbt, model)
    for x, phi_t in zip(X, phi):
        phi_e = exact_shap(fn, x, bg)
        np.testing.assert_allclose(phi_t, phi_e, rtol=0, atol=1e-12)


@pytest.mark.parametrize("elements", [1, 7, 300])
def test_tree_shap_block_size_changes_no_bits(monkeypatch, elements):
    # small blocks split the leaves and the rows into many ragged blocks
    model = mixed_depth_ensemble()
    rng = np.random.default_rng(62)
    bg = Background(rng.uniform(-1, 1, size=(9, 6)))
    X = rng.uniform(-1, 1, size=(23, 6))
    default = explain_dataset(model, X, bg, method="tree", seed=0)
    monkeypatch.setattr("regime_xai.shap._BLOCK_ELEMENTS", elements)
    np.testing.assert_array_equal(explain_dataset(model, X, bg, method="tree", seed=0), default)


def test_tree_shap_deep_path_matches_brute_force_in_little_memory():
    # two chains whose deepest leaf sits below 14 conditions on 14 distinct
    # features: a table over all pairs of 14-bit codes would hold 4^14 entries
    rng = np.random.default_rng(64)
    trees = []
    for order in (np.arange(14), rng.permutation(14)):
        node = TreeNode(value=rng.normal())
        for f in order[::-1]:
            node = TreeNode(feature=int(f), threshold=-0.6, left=TreeNode(value=rng.normal()), right=node)
        trees.append(node)
    model = TreeEnsemble(0.2, tuple(trees), 0.5, 14)
    bg = Background(rng.uniform(-1, 1, size=(5, 14)))
    # rows above every threshold reach the deepest leaves
    X = np.vstack([rng.uniform(-0.5, 1, size=(3, 14)), rng.uniform(-1, 1, size=(2, 14))])
    tracemalloc.start()
    phi = explain_dataset(model, X, bg, method="tree", seed=0)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 1 << 22
    fn = partial(predict_gbt, model)
    for x, phi_t in zip(X, phi):
        phi_e = exact_shap(fn, x, bg)
        np.testing.assert_allclose(phi_t, phi_e, rtol=0, atol=1e-12)


def chain(order, rng) -> TreeNode:
    """A tree whose deepest leaf sits below x[f] > -0.6 for each f of order,
    in order, with a random leaf left of each condition."""
    node = TreeNode(value=rng.normal())
    for f in order[::-1]:
        node = TreeNode(feature=int(f), threshold=-0.6, left=TreeNode(value=rng.normal()), right=node)
    return node


@pytest.mark.parametrize("n", [7, 8, 15, 16])
def test_tree_shap_matches_brute_force_where_the_code_type_widens(n):
    # the codes of a path of 7 features are int8, of 8 and 15 int16, of 16 int32
    rng = np.random.default_rng(65 + n)
    model = TreeEnsemble(0.1, (chain(np.arange(n), rng), chain(rng.permutation(n), rng)), 0.5, n)
    bg = Background(rng.uniform(-1, 1, size=(3, n)))
    X = np.vstack([rng.uniform(-0.5, 1, size=(2, n)), rng.uniform(-1, 1, size=(2, n))])
    phi = explain_dataset(model, X, bg, method="tree", seed=0)
    fn = partial(predict_gbt, model)
    for x, phi_t in zip(X, phi):
        phi_e = exact_shap(fn, x, bg)
        np.testing.assert_allclose(phi_t, phi_e, rtol=0, atol=1e-12)


def test_tree_shap_explains_paths_of_up_to_63_features():
    # a leaf's codes are signed 64-bit integers at most, so a path of 64
    # distinct features is refused by name rather than failing on its codes
    rng = np.random.default_rng(66)
    bg = Background(rng.uniform(-1, 1, size=(5, 64)))
    X = np.vstack([rng.uniform(-0.5, 1, size=(3, 64)), rng.uniform(-1, 1, size=(2, 64))])
    deep = TreeEnsemble(0.1, (chain(np.arange(63), rng), chain(rng.permutation(64)[:63], rng)), 0.5, 64)
    phi = explain_dataset(deep, X, bg, method="tree", seed=0)
    assert max_residual(partial(predict_gbt, deep), phi, X, bg) < 1e-9 and np.count_nonzero(phi) > 63
    too_deep = TreeEnsemble(0.1, (chain(np.arange(64), rng),), 0.5, 64)
    with pytest.raises(ValueError, match="limited to leaf paths of 63 distinct features, got 64"):
        explain_dataset(too_deep, X, bg, method="tree", seed=0)


def test_tree_shap_single_leaf_trees_give_zero_phi():
    # no tree has a reachable path, so no feature joins any game
    model = TreeEnsemble(1.0, (TreeNode(value=2.0), TreeNode(value=-0.5)), 0.1, 3)
    rng = np.random.default_rng(63)
    X = rng.uniform(-1, 1, size=(4, 3))
    phi = explain_dataset(model, X, Background(rng.uniform(-1, 1, size=(5, 3))), method="tree", seed=0)
    np.testing.assert_array_equal(phi, np.zeros((4, 3)))


# ---------------------------------------------------------------- kernel_shap


def test_kernel_exact_mode_matches_brute_force():
    # while the budget covers all 2^n - 2 coalitions (n <= 11) kernel_shap
    # returns the enumeration's values themselves
    rng = np.random.default_rng(9)
    for seed, n in enumerate((1, 2, 8, 8, 8, 11)):
        net = random_mlp(seed, n_features=n)
        fn = partial(predict_mlp, net, work={})
        bg = Background(rng.standard_normal((5, n)))
        for _ in range(3):
            x = rng.standard_normal(n)
            np.testing.assert_array_equal(kernel_shap(fn, x, bg, seed=0), exact_shap(fn, x, bg))


def test_kernel_constant_model_zero_phi():
    fn = lambda X: np.full(X.shape[0], 2.0)
    bg = Background(np.random.default_rng(10).normal(size=(4, 5)))
    phi = kernel_shap(fn, np.ones(5), bg, seed=1)
    np.testing.assert_allclose(phi, 0.0, atol=1e-9)


def test_kernel_additive_model_centered_background():
    fn = lambda X: X[:, 0] + X[:, 1] + X[:, 2]
    bg = Background(np.array([[1.0, 2.0, -1.0], [-1.0, -2.0, 1.0]]))
    x = np.array([4.0, 5.0, 6.0])
    phi = kernel_shap(fn, x, bg, seed=0)
    np.testing.assert_allclose(phi, [4.0, 5.0, 6.0], atol=1e-9)


def test_kernel_local_accuracy_structural_in_sampling_mode():
    # 12 features: 2,072 of 4,094 coalitions, so sampled mode
    net = random_mlp(11, n_features=12)
    fn = partial(predict_mlp, net, work={})
    rng = np.random.default_rng(11)
    bg = Background(rng.standard_normal((6, 12)))
    x = rng.standard_normal(12)
    phi = kernel_shap(fn, x, bg, seed=3)
    assert fn(bg.rows).mean() + phi.sum() == pytest.approx(float(fn(x[None])[0]), abs=1e-10)


def test_kernel_sampling_pairs_each_coalition_with_its_complement():
    # a zero background and x = ones make every hybrid row a coalition's
    # bit vector, so the model sees exactly the coalitions kernel_shap drew
    seen = set()

    def fn(X):
        seen.update(map(tuple, X.astype(int).tolist()))
        return X @ np.arange(1.0, 13.0)

    kernel_shap(fn, np.ones(12), Background(np.zeros((1, 12))), seed=5)
    coalitions = seen - {(0,) * 12, (1,) * 12}
    assert len(coalitions) > 100
    assert {tuple(1 - b for b in c) for c in coalitions} == coalitions


def test_kernel_deterministic_given_seed():
    net = random_mlp(13, n_features=12)
    fn = partial(predict_mlp, net, work={})
    rng = np.random.default_rng(13)
    bg = Background(rng.standard_normal((4, 12)))
    x = rng.standard_normal(12)
    phi1 = kernel_shap(fn, x, bg, seed=7)
    phi2 = kernel_shap(fn, x, bg, seed=7)
    np.testing.assert_array_equal(phi1, phi2)
    # 2^12 - 2 = 4,094 coalitions exceed the budget of 2,072: n = 12 samples
    phi3 = kernel_shap(fn, x, bg, seed=8)
    assert not np.array_equal(phi1, phi3)


def test_kernel_singular_system_reported(monkeypatch):
    # two coalitions cannot pin down six attributions
    monkeypatch.setattr("regime_xai.shap._coalition_budget", lambda n: 2)
    fn = lambda X: X.sum(axis=1)
    bg = Background(np.zeros((2, 6)))
    with pytest.raises(SingularSystemError, match="rank"):
        kernel_shap(fn, np.ones(6), bg, seed=0)


def test_kernel_single_feature_matches_exact():
    # one feature has no proper nonempty coalition: phi is the remainder f(x) - phi0
    fn = lambda X: np.sin(3 * X[:, 0]) + X[:, 0] ** 2
    bg = Background(np.array([[-0.4], [0.1], [1.3]]))
    x = np.array([0.7])
    np.testing.assert_allclose(kernel_shap(fn, x, bg, seed=0), exact_shap(fn, x, bg), rtol=0, atol=1e-12)


# ------------------------------------------------------------ explain_dataset


def test_explain_dataset_empty_input():
    model = random_ensemble(14)
    bg = Background(np.random.default_rng(14).uniform(-1, 1, size=(5, 6)))
    phi = explain_dataset(model, np.empty((0, 6)), bg, method="tree", seed=0)
    assert phi.shape == (0, 6)


def test_explain_dataset_duplicate_rows_identical_phi():
    model = random_ensemble(15)
    rng = np.random.default_rng(15)
    bg = Background(rng.uniform(-1, 1, size=(5, 6)))
    row = rng.uniform(-1, 1, size=(1, 6))
    phi = explain_dataset(model, np.repeat(row, 4, axis=0), bg, method="tree", seed=0)
    for i in range(1, 4):
        np.testing.assert_array_equal(phi[i], phi[0])


def test_explain_dataset_local_accuracy_tree():
    model = random_ensemble(16, n_trees=8)
    rng = np.random.default_rng(16)
    bg = Background(rng.uniform(-1, 1, size=(10, 6)))
    X = rng.uniform(-1, 1, size=(100, 6))
    phi = explain_dataset(model, X, bg, method="tree", seed=0)
    assert max_residual(partial(predict_gbt, model), phi, X, bg) < 1e-10


def test_explain_dataset_detects_broken_engine(monkeypatch):
    # A model function that answers differently per call breaks the
    # value-function bookkeeping and must be flagged, not papered over.
    rng = np.random.default_rng(17)

    def unstable(net, X, work):
        return rng.standard_normal(X.shape[0]) * 10.0

    monkeypatch.setattr("regime_xai.shap.predict_mlp", unstable)
    bg = Background(rng.standard_normal((3, 4)))
    with pytest.raises(LocalAccuracyError):
        explain_dataset(random_mlp(17, n_features=4), rng.standard_normal((3, 4)), bg, method="kernel", seed=0)


def test_explain_dataset_names_row_with_nan_residual(monkeypatch):
    # nan >= tol is False, so a NaN residual must be caught explicitly
    def nan_for_large_x0(net, X, work):
        return np.where(X[:, 0] > 5.0, np.nan, X.sum(axis=1))

    monkeypatch.setattr("regime_xai.shap.predict_mlp", nan_for_large_x0)
    bg = Background(np.zeros((2, 2)))
    X = np.array([[1.0, 2.0], [9.0, 1.0], [0.5, 0.5]])
    with pytest.raises(LocalAccuracyError, match="row 1: .* nan"):
        explain_dataset(random_mlp(18, n_features=2), X, bg, method="kernel", seed=0)


def test_explain_dataset_kernel_rows_use_their_own_seeds():
    # 12 features run sampled mode; each row's draw depends only on
    # (seed, row index), so any execution order gives the same attributions
    net = random_mlp(18, n_features=12)
    rng = np.random.default_rng(18)
    bg = Background(rng.standard_normal((4, 12)))
    X = rng.standard_normal((12, 12))
    phi = explain_dataset(net, X, bg, method="kernel", seed=5)
    fn = partial(predict_mlp, net, work={})
    for i in range(len(X)):
        np.testing.assert_array_equal(phi[i], kernel_shap(fn, X[i], bg, seed=derive_seed(5, i)))


def _cpus(monkeypatch, count):
    """Give the process an affinity mask of count CPUs, as regime_xai.shap reads it."""
    monkeypatch.setattr("regime_xai.shap.os.sched_getaffinity", lambda pid: set(range(count)))


@pytest.mark.parametrize("n", [8, 12], ids=["enumerated", "sampled"])
def test_kernel_phi_is_the_same_with_one_worker_and_two(monkeypatch, n):
    # 3 CPUs cut 7 rows into uneven shares of 2, 2 and 3
    net = random_mlp(22, n_features=n)
    rng = np.random.default_rng(22)
    bg = Background(rng.standard_normal((10, n)))
    X = rng.standard_normal((7, n))
    phi = {}
    for cpus in (1, 2, 3):
        _cpus(monkeypatch, cpus)
        works = []

        def predict(rows, work):
            works.append(work)  # kept alive, so distinct dicts have distinct ids
            return predict_mlp(net, rows, work)

        phi[cpus] = _kernel_shap_matrix(predict, X, bg, seed=3)
        assert len({id(work) for work in works}) == (cpus if _openblas_threads() else 1)
    np.testing.assert_array_equal(phi[1], phi[2])
    np.testing.assert_array_equal(phi[1], phi[3])
    np.testing.assert_array_equal(phi[2], explain_dataset(net, X, bg, method="kernel", seed=3))


@pytest.mark.skipif(_openblas_threads() is None, reason="numpy does not link OpenBLAS")
@pytest.mark.parametrize("fails", [False, True], ids=["passes", "a-row-raises"])
def test_kernel_pass_runs_blas_on_one_thread_and_restores_its_count(monkeypatch, fails):
    get_threads, set_threads = _openblas_threads()
    before = get_threads()
    _cpus(monkeypatch, 2)
    seen = []

    def fn(X):
        seen.append(get_threads())
        if fails:
            raise RuntimeError("model failed")
        return X.sum(axis=1)

    bg = Background(np.zeros((3, 4)))
    try:
        with pytest.raises(RuntimeError, match="model failed") if fails else contextlib.nullcontext():
            _kernel_shap_matrix(lambda rows, work: fn(rows), np.ones((4, 4)), bg, seed=0)
        assert seen and set(seen) == {1}
        assert get_threads() == before
    finally:
        set_threads(before)


def test_kernel_pass_raises_the_first_failing_row_in_row_order(monkeypatch):
    # rows 2 and 4 fail; row 2 fails last, and its error is still the one raised
    _cpus(monkeypatch, 2)
    X = np.arange(6.0)[:, None] * np.ones(3)
    bg = Background(np.full((2, 3), -1.0))

    def fn(hybrids):
        row = int(hybrids[:, 0].max())
        if row == 2:
            time.sleep(0.2)
        if row in (2, 4):
            raise RuntimeError(f"row {row} failed")
        return hybrids.sum(axis=1)

    with pytest.raises(RuntimeError, match="^row 2 failed$"):
        _kernel_shap_matrix(lambda rows, work: fn(rows), X, bg, seed=0)


def test_kernel_pass_sizes_the_pool_by_cpu_count_without_an_affinity_mask(monkeypatch):
    # macOS's os module has no sched_getaffinity
    net = random_mlp(23, n_features=4)
    rng = np.random.default_rng(23)
    bg = Background(rng.standard_normal((5, 4)))
    X = rng.standard_normal((5, 4))
    expected = _kernel_shap_matrix(partial(predict_mlp, net), X, bg, seed=2)
    monkeypatch.delattr("regime_xai.shap.os.sched_getaffinity")
    np.testing.assert_array_equal(_kernel_shap_matrix(partial(predict_mlp, net), X, bg, seed=2), expected)


def test_kernel_pass_with_another_blas_runs_one_share_and_sets_no_threads(monkeypatch):
    blas = _openblas_threads()
    net = random_mlp(24, n_features=4)
    rng = np.random.default_rng(24)
    bg = Background(rng.standard_normal((5, 4)))
    X = rng.standard_normal((6, 4))
    expected = _kernel_shap_matrix(partial(predict_mlp, net), X, bg, seed=4)
    _cpus(monkeypatch, 2)
    monkeypatch.setattr("regime_xai.shap._openblas_threads", lambda: None)
    get_threads, set_threads = blas or (lambda: None, lambda threads: None)
    before = get_threads()
    works, seen = [], []

    def predict(rows, work):
        works.append(work)
        seen.append(get_threads())
        return predict_mlp(net, rows, work)

    try:
        set_threads(2)  # so that a pass setting one thread would show
        threads = get_threads()
        phi = _kernel_shap_matrix(predict, X, bg, seed=4)
        assert len({id(work) for work in works}) == 1
        assert set(seen) == {threads} and get_threads() == threads
    finally:
        set_threads(before)
    np.testing.assert_array_equal(phi, expected)


@pytest.mark.parametrize("method", ["exact", "Tree"])
def test_explain_dataset_rejects_unknown_method(method):
    with pytest.raises(ValueError, match="unknown method"):
        explain_dataset(lambda A: A.sum(axis=1), np.zeros((1, 2)), Background(np.zeros((1, 2))),
                        method=method, seed=0)


def test_explain_dataset_rejects_tree_method_for_net():
    net = random_mlp(19, n_features=4)
    with pytest.raises(ValueError, match="TreeEnsemble"):
        explain_dataset(net, np.zeros((1, 4)), Background(np.zeros((1, 4))), method="tree", seed=0)


def test_explain_dataset_rejects_kernel_method_for_tree_ensemble():
    model = random_ensemble(19, n_features=4)
    with pytest.raises(ValueError, match="kernel method requires an MlpNet"):
        explain_dataset(model, np.zeros((1, 4)), Background(np.zeros((1, 4))), method="kernel", seed=0)


@pytest.mark.parametrize("method", ["tree", "kernel"])
def test_explain_dataset_names_a_background_of_the_wrong_width(method):
    model = random_ensemble(21, n_features=3) if method == "tree" else random_mlp(21, n_features=3)
    with pytest.raises(ValueError, match="background has 2 columns, X has 3"):
        explain_dataset(model, np.zeros((1, 3)), Background(np.zeros((4, 2))), method=method, seed=0)


def test_explain_dataset_rejects_a_1d_x():
    model = random_ensemble(22, n_features=3)
    with pytest.raises(ValueError, match="X must be 2D"):
        explain_dataset(model, np.zeros(3), Background(np.zeros((4, 3))), method="tree", seed=0)


def test_explain_dataset_row_order_preserved():
    model = random_ensemble(20)
    rng = np.random.default_rng(20)
    bg = Background(rng.uniform(-1, 1, size=(4, 6)))
    X = rng.uniform(-1, 1, size=(6, 6))
    phi = explain_dataset(model, X, bg, method="tree", seed=0)
    for i in range(len(X)):
        alone = explain_dataset(model, X[i : i + 1], bg, method="tree", seed=0)
        np.testing.assert_array_equal(phi[i], alone[0])


# --------------------------------------------------------- feature_importance


def test_importance_single_feature():
    iv = feature_importance(np.array([[2.0], [-4.0]]))
    np.testing.assert_array_equal(iv, [1.0])
    assert iv.any()


def test_importance_direct_formula():
    phi = np.array([[2.0, 1.0, -1.0], [-2.0, -1.0, 1.0]])
    iv = feature_importance(phi)
    np.testing.assert_allclose(iv, [0.5, 0.25, 0.25])


def test_importance_dummy_feature_zero_under_tree_engine():
    stump = TreeNode(feature=0, threshold=0.0, left=TreeNode(value=-1.0), right=TreeNode(value=1.0))
    model = TreeEnsemble(0.0, (stump,), 1.0, 2)
    rng = np.random.default_rng(21)
    bg = Background(rng.normal(size=(5, 2)))
    phi = explain_dataset(model, rng.normal(size=(20, 2)), bg, method="tree", seed=0)
    iv = feature_importance(phi)
    assert iv[1] == 0.0
    assert iv.sum() == pytest.approx(1.0, abs=1e-9)


def test_importance_degenerate_all_zero():
    iv = feature_importance(np.zeros((3, 2)))
    assert not iv.any()
    np.testing.assert_array_equal(iv, [0.0, 0.0])


def test_importance_empty_explanation_rejected():
    with pytest.raises(ValueError, match="empty"):
        feature_importance(np.empty((0, 1)))


def test_background_subsample_keeps_every_row_of_a_small_matrix():
    # a draw of every row, at size == n as at size > n, sorts back into row order
    X = np.random.default_rng(24).normal(size=(10, 3))
    for size in (10, 50):
        b = Background.subsample(X, size=size, seed=9)
        np.testing.assert_array_equal(b.rows, X)
        assert not np.shares_memory(b.rows, X)


def test_background_subsample_deterministic():
    X = np.random.default_rng(23).normal(size=(500, 3))
    b1 = Background.subsample(X, size=50, seed=9)
    b2 = Background.subsample(X, size=50, seed=9)
    np.testing.assert_array_equal(b1.rows, b2.rows)
    assert b1.size == 50
