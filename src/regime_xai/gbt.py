"""Gradient-boosted regression trees with squared loss.

Trees are plain axis-aligned structures exposed in full so SHAP values can be
computed directly from the node records. Fitting is exact greedy: every stage
fits a depth-limited tree to the current residuals using variance-reduction
splits with deterministic tie-breaking (lowest feature index, then lowest
threshold), so a given dataset and parameter set always yields the same
ensemble. The shrinkage is fixed; tree count, depth and leaf size are settings.

X never changes during a fit, so each column is sorted once per fit (as in
SLIQ and XGBoost's exact greedy mode) and each split filters that order with
np.compress, only for a child that can still split. A filtered stable sort
keeps equal values in row order, as a stable sort of the node's own rows
would, so the splits and their tie-breaks are the same.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from regime_xai.timeseries import FeatureMatrix

LEARNING_RATE = 0.1  # shrinkage of every boosting stage


@dataclass(frozen=True)
class TreeNode:
    """Regression tree node. Internal nodes route left iff x[feature] <= threshold."""

    value: float = 0.0
    feature: int | None = None
    threshold: float = 0.0
    left: TreeNode | None = None
    right: TreeNode | None = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


@dataclass(frozen=True)
class TreeEnsemble:
    """Additive ensemble: prediction = base_score + learning_rate * sum of trees.
    n_features is the width of the fitted matrix; the names live with the data."""

    base_score: float
    trees: tuple[TreeNode, ...]
    learning_rate: float
    n_features: int


@dataclass(frozen=True)
class GbtParams:
    n_trees: int = 300
    max_depth: int = 4
    min_samples_leaf: int = 20

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")


def _eval_into(node: TreeNode, X: np.ndarray, idx: np.ndarray, out: np.ndarray) -> None:
    """out[idx] = the tree's output on rows idx of X; boundary x[feature] ==
    threshold goes left."""
    if node.is_leaf:
        out[idx] = node.value
        return
    goes_left = X[idx, node.feature] <= node.threshold
    _eval_into(node.left, X, idx[goes_left], out)
    _eval_into(node.right, X, idx[~goes_left], out)


def _best_split(X: np.ndarray, residual: np.ndarray, order: np.ndarray, total: float, min_leaf: int):
    """Exact greedy variance-reduction split of one node, all features at once.

    order[f] holds the node's rows sorted by column f, equal values in row
    order; total is the sum of the node's residuals. Each column is scanned
    with one prefix sum. Returns (feature, threshold) of the first largest
    gain in feature-major order, which breaks ties by lowest feature, then
    lowest threshold; None when no valid cut gains more than zero.
    """
    k, n = order.shape
    parent_term = total * total / n
    xs = X[order, np.arange(k)[:, None]]
    cum = np.cumsum(residual[order], axis=1)[:, :-1]
    # cut i puts the first i sorted rows left, at threshold xs[f, i - 1]
    i = np.arange(1, n)
    gains = cum**2 / i + (total - cum) ** 2 / (n - i) - parent_term
    # no cut between equal values, nor one that leaves fewer than min_leaf rows on a side
    gains[xs[:, :-1] == xs[:, 1:]] = -np.inf
    gains[:, : min_leaf - 1] = gains[:, n - min_leaf :] = -np.inf
    f, j = divmod(int(np.argmax(gains)), n - 1)
    return (f, float(xs[f, j])) if gains[f, j] > 0 else None


def _searchable(n_rows: int, depth: int, params: GbtParams) -> bool:
    """Whether a node at depth with n_rows rows may split: it is above
    max_depth and holds two leaves' worth of rows."""
    return depth < params.max_depth and n_rows >= 2 * params.min_samples_leaf


def _build_tree(X: np.ndarray, residual: np.ndarray, rows: np.ndarray, order: np.ndarray | None, depth: int,
                params: GbtParams, fitted: np.ndarray) -> TreeNode:
    """Fit the subtree for rows, ascending indices into X and residual.

    order[f] is rows sorted by X[:, f], or None for a node that cannot split
    (see _searchable). A split marks its left rows in a mask as long as X and,
    for each child that can still split, filters the whole order by that mark
    with np.compress, so the child gets its order still sorted; a child that
    cannot split gets no order. The right child's order is made only once
    the left subtree is fitted, so a path holds one order per level. Rows
    are split the same way and stay ascending. A leaf writes its value, the
    mean residual of its rows, into fitted[rows] as it is made, so fitted
    ends up holding the tree's output on every training row.
    """
    r = residual[rows]
    split = None
    if order is not None and np.any(r != r[0]):
        split = _best_split(X, residual, order, r.sum(), params.min_samples_leaf)
    if split is None:
        fitted[rows] = value = float(r.mean())
        return TreeNode(value=value)
    f, thr = split
    goes_left = X[rows, f] <= thr
    n_left, k = int(np.count_nonzero(goes_left)), len(order)
    split_left = _searchable(n_left, depth + 1, params)
    split_right = _searchable(len(rows) - n_left, depth + 1, params)
    if split_left or split_right:
        mark = np.zeros(len(X), dtype=bool)
        mark[rows] = goes_left
        keep = mark[order].ravel()
    left = _build_tree(X, residual, np.compress(goes_left, rows),
                       np.compress(keep, order).reshape(k, -1) if split_left else None, depth + 1, params, fitted)
    right = _build_tree(X, residual, np.compress(~goes_left, rows),
                        np.compress(~keep, order).reshape(k, -1) if split_right else None, depth + 1, params, fitted)
    return TreeNode(feature=f, threshold=thr, left=left, right=right)


def fit_gbt(train: FeatureMatrix, params: GbtParams) -> TreeEnsemble:
    """Fit a boosted ensemble of depth-limited regression trees to squared loss.

    Each stage fits the residuals y - F(X) with leaf values equal to the mean
    residual in the leaf. All-identical targets yield a base-score-only
    ensemble. Fitting is deterministic: ties break by feature, then threshold.
    """
    X, y = train.X, train.y
    if len(y) == 0:
        raise ValueError("empty training set")
    if np.all(y == y[0]):
        return TreeEnsemble(float(y[0]), (), LEARNING_RATE, X.shape[1])

    base = float(y.mean())
    residual = y - base
    rows = np.arange(len(y))
    order = np.argsort(X.T, axis=1, kind="stable") if _searchable(len(y), 0, params) else None
    fitted = np.empty(len(y))
    trees: list[TreeNode] = []
    for _ in range(params.n_trees):
        trees.append(_build_tree(X, residual, rows, order, 0, params, fitted))
        residual = residual - LEARNING_RATE * fitted
    return TreeEnsemble(base, tuple(trees), LEARNING_RATE, X.shape[1])


def predict_gbt(model: TreeEnsemble, X) -> np.ndarray:
    """base_score + learning_rate * sum of tree outputs, per row."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ValueError(
            f"X has {X.shape[1] if X.ndim == 2 else 'bad'} columns, model expects {model.n_features}"
        )
    out = np.full(X.shape[0], model.base_score)
    rows, leaf = np.arange(X.shape[0]), np.empty(X.shape[0])
    for tree in model.trees:
        _eval_into(tree, X, rows, leaf)
        out += model.learning_rate * leaf
    return out

