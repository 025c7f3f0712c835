import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regime_xai import gbt
from regime_xai.gbt import GbtParams, TreeEnsemble, TreeNode, fit_gbt, predict_gbt
from regime_xai.timeseries import FeatureMatrix


def matrix(X, y):
    X = np.asarray(X, dtype=float)
    names = tuple(f"x{i + 1}" for i in range(X.shape[1]))
    return FeatureMatrix(names, X, np.asarray(y, dtype=float), np.arange(len(y)))


def random_matrix(rng, n, k):
    X = rng.uniform(-1, 1, size=(n, k))
    y = X @ rng.normal(size=k) + 0.1 * rng.standard_normal(n)
    return matrix(X, y)


def depth(node):
    return 0 if node.is_leaf else 1 + max(depth(node.left), depth(node.right))


def staged_mse(model, X, y):
    """Training MSE after the base score and after each boosting stage."""
    stages = [TreeEnsemble(model.base_score, model.trees[:k], model.learning_rate, model.n_features)
              for k in range(len(model.trees) + 1)]
    return np.array([np.mean((predict_gbt(m, X) - y) ** 2) for m in stages])


# --------------------------------------------------------------------- fitting


def test_constant_target_gives_base_only_ensemble():
    fm = matrix(np.random.default_rng(0).normal(size=(50, 2)), np.full(50, 7.5))
    model = fit_gbt(fm, GbtParams(n_trees=10))
    assert model.base_score == 7.5
    assert len(model.trees) == 0
    np.testing.assert_array_equal(predict_gbt(model, fm.X), np.full(50, 7.5))
    assert np.mean((predict_gbt(model, fm.X) - fm.y) ** 2) == 0.0


def test_step_function_learned_by_stumps():
    rng = np.random.default_rng(1)
    X = rng.uniform(0, 1, size=(200, 1))
    y = (X[:, 0] >= 0.5).astype(float)
    model = fit_gbt(matrix(X, y), GbtParams(n_trees=10, max_depth=1, min_samples_leaf=1, learning_rate=0.5))
    mse = np.mean((predict_gbt(model, X) - y) ** 2)
    assert mse < 1e-3


def test_linear_target_high_r2():
    rng = np.random.default_rng(2)
    X = rng.uniform(0, 1, size=(1000, 2))
    y = 3 * X[:, 0] + X[:, 1]
    model = fit_gbt(matrix(X, y), GbtParams(n_trees=300, max_depth=3, min_samples_leaf=5, learning_rate=0.1))
    resid = predict_gbt(model, X) - y
    r2 = 1 - resid.var() / y.var()
    assert r2 > 0.99


def test_empty_training_set_rejected():
    fm = matrix(np.empty((0, 2)), np.empty(0))
    with pytest.raises(ValueError, match="empty"):
        fit_gbt(fm, GbtParams())


def test_max_depth_respected():
    fm = random_matrix(np.random.default_rng(3), 400, 3)
    model = fit_gbt(fm, GbtParams(n_trees=20, max_depth=2, min_samples_leaf=5))
    assert all(depth(t) <= 2 for t in model.trees)


def test_refit_is_identical():
    fm = random_matrix(np.random.default_rng(4), 300, 3)
    params = GbtParams(n_trees=25, max_depth=3, min_samples_leaf=10)
    m1 = fit_gbt(fm, params)
    m2 = fit_gbt(fm, params)
    assert m1 == m2


def test_training_loss_non_increasing():
    for seed in range(5):
        fm = random_matrix(np.random.default_rng(seed), 250, 3)
        model = fit_gbt(fm, GbtParams(n_trees=40, max_depth=3, min_samples_leaf=10))
        mses = staged_mse(model, fm.X, fm.y)
        assert np.all(np.diff(mses) <= 0)


# ------------------------------------------------------------------ prediction


def test_zero_tree_ensemble_predicts_base():
    model = TreeEnsemble(2.5, (), 0.1, 2)
    np.testing.assert_array_equal(predict_gbt(model, np.zeros((4, 2))), np.full(4, 2.5))


def test_single_stump_prediction():
    stump = TreeNode(feature=0, threshold=0.5, left=TreeNode(value=-1.0), right=TreeNode(value=2.0))
    model = TreeEnsemble(10.0, (stump,), 0.5, 1)
    out = predict_gbt(model, np.array([[0.2], [0.9]]))
    np.testing.assert_allclose(out, [10.0 + 0.5 * -1.0, 10.0 + 0.5 * 2.0])


def test_boundary_value_goes_left():
    stump = TreeNode(feature=0, threshold=0.5, left=TreeNode(value=-1.0), right=TreeNode(value=2.0))
    model = TreeEnsemble(0.0, (stump,), 1.0, 1)
    assert predict_gbt(model, np.array([[0.5]]))[0] == -1.0


def test_column_count_mismatch_rejected():
    model = TreeEnsemble(0.0, (), 0.1, 2)
    with pytest.raises(ValueError, match="columns"):
        predict_gbt(model, np.zeros((3, 5)))


def test_unused_feature_has_no_effect():
    rng = np.random.default_rng(5)
    X = rng.uniform(-1, 1, size=(500, 3))
    y = 2 * X[:, 0] - X[:, 1]  # feature 2 never informative
    model = fit_gbt(matrix(X, y), GbtParams(n_trees=30, max_depth=3, min_samples_leaf=20))
    used = set()

    def collect(node):
        if not node.is_leaf:
            used.add(node.feature)
            collect(node.left)
            collect(node.right)

    for t in model.trees:
        collect(t)
    unused = set(range(3)) - used
    assert unused, "expected at least one unused feature in this setup"
    f = unused.pop()
    X2 = X.copy()
    X2[:, f] = rng.uniform(-100, 100, size=500)
    np.testing.assert_array_equal(predict_gbt(model, X), predict_gbt(model, X2))


# ------------------------------------------------------------- split search


def splits(node):
    if node.is_leaf:
        return []
    return [(node.feature, node.threshold)] + splits(node.left) + splits(node.right)


def leaf_row_counts(node, X):
    if node.is_leaf:
        return [len(X)]
    goes_left = X[:, node.feature] <= node.threshold
    return leaf_row_counts(node.left, X[goes_left]) + leaf_row_counts(node.right, X[~goes_left])


def ensemble_json(model, feature_names):
    """The model as the JSON text its pinned digest was taken from; json
    writes each float as its shortest round-trip repr."""
    def node(n):
        if n.is_leaf:
            return {"value": n.value}
        return {"feature": n.feature, "threshold": n.threshold, "left": node(n.left), "right": node(n.right)}

    return json.dumps({"format": "regime-xai-tree-ensemble", "base_score": model.base_score,
                       "learning_rate": model.learning_rate, "feature_names": list(feature_names),
                       "trees": [node(t) for t in model.trees]}, indent=1)


def seeded_matrix(seed, n, k, decimals=None):
    # elementwise arithmetic only, so no BLAS build can move the last bits
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, k))
    if decimals is not None:
        X = np.round(X, decimals)
    y = (X * rng.normal(size=k)).sum(axis=1) + np.sin(3 * X[:, 0]) + 0.3 * rng.standard_normal(n)
    return matrix(X, y if decimals is None else np.round(y, decimals))


def test_identical_columns_split_on_the_lower_feature():
    rng = np.random.default_rng(7)
    x = rng.uniform(-1, 1, size=300)
    model = fit_gbt(matrix(np.column_stack([x, x]), np.sin(3 * x)),
                    GbtParams(n_trees=10, max_depth=3, min_samples_leaf=5))
    used = [f for t in model.trees for f, _ in splits(t)]
    assert used and set(used) == {0}


def test_equal_gain_cuts_split_at_the_lower_threshold():
    # residuals 0.5, -0.5, -0.5, 0.5: the cuts after rows 1 and 3 both gain 1/3
    model = fit_gbt(matrix([[0.0], [1.0], [2.0], [3.0]], [1.0, 0.0, 0.0, 1.0]),
                    GbtParams(n_trees=1, max_depth=1, min_samples_leaf=1))
    assert splits(model.trees[0]) == [(0, 0.0)]


@pytest.mark.parametrize("min_leaf", [1, 7, 25])
def test_every_leaf_holds_min_samples_leaf_training_rows(min_leaf):
    fm = seeded_matrix(8, 400, 3, decimals=1)
    model = fit_gbt(fm, GbtParams(n_trees=15, max_depth=5, min_samples_leaf=min_leaf))
    counts = [c for t in model.trees for c in leaf_row_counts(t, fm.X)]
    assert len(counts) > len(model.trees) and min(counts) >= min_leaf


@pytest.mark.parametrize(
    "fm, params, digest",
    [
        (seeded_matrix(11, 700, 5, decimals=1), GbtParams(n_trees=20, max_depth=6, min_samples_leaf=1),
         "d087457c3dcb7c5203e4dc88545189821618e4108eac769929428a2839511989"),
        (seeded_matrix(12, 1500, 6), GbtParams(n_trees=20, max_depth=4, min_samples_leaf=20),
         "7a2afe83fd40307f022f9c59634a831842b76938f6cec1f3f014bf30016eee63"),
        # most nodes above max_depth stop because they hold fewer than 2 * min_samples_leaf rows
        (seeded_matrix(16, 300, 4, decimals=1), GbtParams(n_trees=20, max_depth=6, min_samples_leaf=40),
         "735ca0f0199b6e5a46b508874524b6ffc712346b1cf26f7d51f9997c8dd3da47"),
    ],
    ids=["ties-depth6-leaf1", "depth4-leaf20", "leaf-limited-depth6-leaf40"],
)
def test_fitted_ensemble_json_is_pinned(fm, params, digest):
    # any change to the split arithmetic, its tie-breaks or the leaf values moves these digests
    assert hashlib.sha256(ensemble_json(fit_gbt(fm, params), fm.feature_names).encode()).hexdigest() == digest


# ------------------------------------------------------- presorted split search


def reference_fit(fm, params):
    """The exact greedy fit with a stable argsort of each node's own rows. A
    stable sort keeps equal values in row order, as fit_gbt's filtered
    presort does, so fit_gbt must equal this oracle bit for bit."""
    X, y, min_leaf = fm.X, fm.y, params.min_samples_leaf
    if np.all(y == y[0]):
        return TreeEnsemble(float(y[0]), (), params.learning_rate, X.shape[1])

    def best_split(Xn, r):
        n, total = len(r), r.sum()
        order = np.argsort(Xn, axis=0, kind="stable")
        xs = np.take_along_axis(Xn, order, axis=0)
        cum = np.cumsum(r[order], axis=0)[:-1]
        i = np.arange(1, n)[:, None]
        valid = (xs[:-1] != xs[1:]) & (i >= min_leaf) & (n - i >= min_leaf)
        gains = np.where(valid, cum**2 / i + (total - cum) ** 2 / (n - i) - total * total / n, -np.inf)
        f, j = divmod(int(np.argmax(gains.T)), n - 1)
        return (f, float(xs[j, f])) if gains[j, f] > 0 else None

    def build(rows, depth):
        r = residual[rows]
        split = None
        if depth < params.max_depth and len(rows) >= 2 * min_leaf and np.any(r != r[0]):
            split = best_split(X[rows], r)
        if split is None:
            fitted[rows] = value = float(r.mean())
            return TreeNode(value=value)
        f, thr = split
        goes_left = X[rows, f] <= thr
        return TreeNode(feature=f, threshold=thr, left=build(rows[goes_left], depth + 1),
                        right=build(rows[~goes_left], depth + 1))

    base = float(y.mean())
    residual, fitted, trees = y - base, np.empty(len(y)), []
    for _ in range(params.n_trees):
        if np.max(np.abs(residual)) == 0.0:
            break
        trees.append(build(np.arange(len(y)), 0))
        residual = residual - params.learning_rate * fitted
    return TreeEnsemble(base, tuple(trees), params.learning_rate, X.shape[1])


def oracle_matrix(seed, n, k, decimals):
    """seeded_matrix plus a copy of column 0 and a constant column, the
    columns shuffled so the copy may come before or after its original."""
    fm = seeded_matrix(seed, n, k, decimals)
    X = np.column_stack([fm.X, fm.X[:, 0], np.full(n, 0.5)])
    return matrix(X[:, np.random.default_rng(seed).permutation(k + 2)], fm.y)


@settings(max_examples=60, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(40, 2000),
    k=st.integers(1, 5),
    decimals=st.sampled_from([None, 1]),
    max_depth=st.integers(1, 6),
    min_leaf=st.integers(1, 25),
)
def test_presorted_fit_equals_a_sort_at_every_node(seed, n, k, decimals, max_depth, min_leaf):
    fm = oracle_matrix(seed, n, k, decimals)
    params = GbtParams(n_trees=5, max_depth=max_depth, min_samples_leaf=min_leaf, learning_rate=0.3)
    assert repr(fit_gbt(fm, params)) == repr(reference_fit(fm, params))


@pytest.mark.parametrize("n_trees, max_depth", [(1, 1), (5, 3), (20, 6)])
def test_one_fit_sorts_each_column_once(monkeypatch, n_trees, max_depth):
    calls = []
    argsort = np.argsort

    def counted(*args, **kwargs):
        calls.append(1)
        return argsort(*args, **kwargs)

    monkeypatch.setattr(np, "argsort", counted)
    model = fit_gbt(seeded_matrix(13, 600, 4, decimals=1),
                    GbtParams(n_trees=n_trees, max_depth=max_depth, min_samples_leaf=5))
    assert sum(len(splits(t)) for t in model.trees) >= n_trees * max_depth
    assert len(calls) == 1


@pytest.mark.parametrize("max_depth, partitions_per_tree", [(1, 0), (2, 2)])
def test_a_split_partitions_the_order_only_for_a_child_that_can_split(monkeypatch, max_depth, partitions_per_tree):
    # A stump's children are leaves, so it partitions no order. A depth-2
    # tree partitions its root's order once for each child; here both of
    # them hold at least 2 * min_samples_leaf rows, and their children are
    # leaves.
    build_tree = gbt._build_tree
    partitions = []

    def counted(X, residual, rows, order, depth, params, fitted):
        if depth > 0 and order is not None:
            partitions.append(order.shape)
        return build_tree(X, residual, rows, order, depth, params, fitted)

    monkeypatch.setattr(gbt, "_build_tree", counted)
    model = fit_gbt(seeded_matrix(13, 600, 4, decimals=1),
                    GbtParams(n_trees=5, max_depth=max_depth, min_samples_leaf=5))
    assert sum(len(splits(t)) for t in model.trees) >= 5 * max_depth
    assert len(partitions) == 5 * partitions_per_tree


@pytest.mark.parametrize("seed", [14, 15])
def test_every_node_total_is_its_residuals_summed_in_row_order(monkeypatch, seed):
    # The oracle property above compares trees, and a node total that drifts
    # in its last bit (say, one summed in column 0's sorted order) moves a
    # split only where two gains nearly tie. This checks each total itself.
    best_split = gbt._best_split
    totals = []

    def checked(X, residual, order, total, min_leaf):
        totals.append(total)
        assert total == residual[np.sort(order[0])].sum()  # bit for bit
        return best_split(X, residual, order, total, min_leaf)

    monkeypatch.setattr(gbt, "_best_split", checked)
    fit_gbt(seeded_matrix(seed, 600, 4), GbtParams(n_trees=5, max_depth=4, min_samples_leaf=5))
    assert len(totals) >= 5 * 7  # every tree searched at least its first three levels
