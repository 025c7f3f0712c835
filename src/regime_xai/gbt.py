"""Gradient-boosted regression trees with squared loss.

Trees are plain axis-aligned structures exposed in full so SHAP values can be
computed directly from the node records. Fitting is exact greedy: every stage
fits a depth-limited tree to the current residuals using variance-reduction
splits with deterministic tie-breaking (lowest feature index, then lowest
threshold), so a given dataset and parameter set always yields the same
ensemble.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from regime_xai.timeseries import FeatureMatrix


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
    """Additive ensemble: prediction = base_score + learning_rate * sum of trees."""

    base_score: float
    trees: tuple[TreeNode, ...]
    learning_rate: float
    feature_names: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "trees", tuple(self.trees))
        object.__setattr__(self, "feature_names", tuple(self.feature_names))

    @property
    def n_features(self) -> int:
        return len(self.feature_names)


@dataclass(frozen=True)
class GbtParams:
    n_trees: int = 300
    max_depth: int = 4
    min_samples_leaf: int = 20
    learning_rate: float = 0.1

    def __post_init__(self):
        if self.n_trees < 1 or self.max_depth < 1 or self.min_samples_leaf < 1:
            raise ValueError("n_trees, max_depth and min_samples_leaf must be >= 1")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError(f"learning_rate must be in (0, 1], got {self.learning_rate}")


def _eval_tree(node: TreeNode, X: np.ndarray) -> np.ndarray:
    """Vectorized tree evaluation; boundary x[feature] == threshold goes left."""
    out = np.empty(X.shape[0])
    _eval_into(node, X, np.arange(X.shape[0]), out)
    return out


def _eval_into(node: TreeNode, X: np.ndarray, idx: np.ndarray, out: np.ndarray) -> None:
    if node.is_leaf:
        out[idx] = node.value
        return
    goes_left = X[idx, node.feature] <= node.threshold
    _eval_into(node.left, X, idx[goes_left], out)
    _eval_into(node.right, X, idx[~goes_left], out)


def _best_split(X: np.ndarray, residual: np.ndarray, min_leaf: int):
    """Exact greedy variance-reduction split.

    Returns (gain, feature, threshold) or None. Iterating features and
    thresholds in ascending order with strict improvement gives the
    lowest-feature, lowest-threshold tie-break.
    """
    n = len(residual)
    total = residual.sum()
    best = None
    best_gain = 0.0
    parent_term = total * total / n
    for f in range(X.shape[1]):
        order = np.argsort(X[:, f], kind="stable")
        xs = X[order, f]
        cum = np.cumsum(residual[order])
        # candidate split after position i: left = [0..i], threshold = xs[i]
        i = np.arange(n - 1)
        valid = (xs[:-1] != xs[1:]) & (i + 1 >= min_leaf) & (n - i - 1 >= min_leaf)
        if not valid.any():
            continue
        left_term = cum[:-1] ** 2 / (i + 1)
        right_term = (total - cum[:-1]) ** 2 / (n - i - 1)
        gains = np.where(valid, left_term + right_term - parent_term, -np.inf)
        j = int(np.argmax(gains))
        if gains[j] > best_gain:
            best_gain = float(gains[j])
            best = (best_gain, f, float(xs[j]))
    return best


def _build_tree(X: np.ndarray, residual: np.ndarray, depth: int, params: GbtParams) -> TreeNode:
    if (
        depth >= params.max_depth
        or len(residual) < 2 * params.min_samples_leaf
        or np.all(residual == residual[0])
    ):
        return TreeNode(value=float(residual.mean()))
    split = _best_split(X, residual, params.min_samples_leaf)
    if split is None:
        return TreeNode(value=float(residual.mean()))
    _, f, thr = split
    goes_left = X[:, f] <= thr
    left = _build_tree(X[goes_left], residual[goes_left], depth + 1, params)
    right = _build_tree(X[~goes_left], residual[~goes_left], depth + 1, params)
    return TreeNode(feature=f, threshold=thr, left=left, right=right)


def fit_gbt(train: FeatureMatrix, params: GbtParams | None = None) -> TreeEnsemble:
    """Fit a boosted ensemble of depth-limited regression trees to squared loss.

    Each stage fits the residuals y - F(X) with leaf values equal to the mean
    residual in the leaf. All-identical targets yield a base-score-only
    ensemble. Fitting is deterministic: ties break by feature, then threshold.
    """
    params = params or GbtParams()
    X, y = train.X, train.y
    if len(y) == 0:
        raise ValueError("empty training set")
    if np.all(y == y[0]):
        return TreeEnsemble(float(y[0]), (), params.learning_rate, train.feature_names)

    base = float(y.mean())
    residual = y - base
    trees: list[TreeNode] = []
    for _ in range(params.n_trees):
        if np.max(np.abs(residual)) == 0.0:
            break
        tree = _build_tree(X, residual, 0, params)
        residual = residual - params.learning_rate * _eval_tree(tree, X)
        trees.append(tree)
    return TreeEnsemble(base, tuple(trees), params.learning_rate, train.feature_names)


def predict_gbt(model: TreeEnsemble, X) -> np.ndarray:
    """base_score + learning_rate * sum of tree outputs, per row."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ValueError(
            f"X has {X.shape[1] if X.ndim == 2 else 'bad'} columns, model expects {model.n_features}"
        )
    out = np.full(X.shape[0], model.base_score)
    for tree in model.trees:
        out += model.learning_rate * _eval_tree(tree, X)
    return out


# ------------------------------------------------------------- serialization
#
# Interchange format: JSON object with base_score, learning_rate,
# feature_names and nested node records ({"feature", "threshold", "left",
# "right"} or {"value"}). Floats survive the round trip exactly because
# json emits repr-quality decimal strings.


def _node_to_dict(node: TreeNode) -> dict:
    if node.is_leaf:
        return {"value": node.value}
    return {
        "feature": node.feature,
        "threshold": node.threshold,
        "left": _node_to_dict(node.left),
        "right": _node_to_dict(node.right),
    }


def _node_from_dict(obj: dict, n_features: int) -> TreeNode:
    if "value" in obj:
        return TreeNode(value=float(obj["value"]))
    feature = int(obj["feature"])
    if not 0 <= feature < n_features:
        raise ValueError(f"node feature index {feature} out of range for {n_features} features")
    return TreeNode(
        feature=feature,
        threshold=float(obj["threshold"]),
        left=_node_from_dict(obj["left"], n_features),
        right=_node_from_dict(obj["right"], n_features),
    )


def ensemble_to_json(model: TreeEnsemble) -> str:
    payload = {
        "format": "regime-xai-tree-ensemble",
        "base_score": model.base_score,
        "learning_rate": model.learning_rate,
        "feature_names": list(model.feature_names),
        "trees": [_node_to_dict(t) for t in model.trees],
    }
    return json.dumps(payload, indent=1)


def ensemble_from_json(text: str) -> TreeEnsemble:
    obj = json.loads(text)
    if obj.get("format") != "regime-xai-tree-ensemble":
        raise ValueError(f"not a tree-ensemble file (format={obj.get('format')!r})")
    names = tuple(obj["feature_names"])
    trees = tuple(_node_from_dict(t, len(names)) for t in obj["trees"])
    return TreeEnsemble(float(obj["base_score"]), trees, float(obj["learning_rate"]), names)
