"""SHAP attributions for the toolkit's models, three ways.

All engines share one interventional value function: the value of a feature
coalition S at a point x is the mean model output over a background set with
the features in S taken from x and the rest from the background row. On top
of that,

* exact_shap enumerates all 2^n coalitions (the brute-force oracle),
* explain_dataset's tree engine computes the same numbers for tree
  ensembles without enumeration: for each leaf, a point is encoded by which
  of the leaf's path conditions it meets, and each pair of explained-row and
  background codes is a coalition game in which only the path features the
  pair disagrees on are not null players, so its Shapley values are the
  enumeration's weights _subset_weights(p + q) for those p + q features.
  One numpy pass covers all leaves, each path padded to the longest; the
  cost per leaf grows with rows plus background rows plus the pairs of
  distinct row and background codes, never more than their product,
* kernel_shap returns exact_shap's values while its coalition budget covers
  every coalition (n <= 11); above that it solves the weighted least-squares
  formulation over sampled coalitions, with the two known constraints
  (intercept and total) eliminated exactly so the attributions always sum to
  the prediction.

Per-feature importances are the mean absolute attributions normalized to
sum to one.
"""

from __future__ import annotations

import ctypes
import math
import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from regime_xai.gbt import TreeEnsemble, TreeNode, predict_gbt
from regime_xai.mlp import MlpNet, predict_mlp
from regime_xai.seeds import derive_seed

LOCAL_ACCURACY_TOL = 1e-6


class LocalAccuracyError(RuntimeError):
    """An engine produced attributions that do not sum to the prediction."""


class SingularSystemError(RuntimeError):
    """The kernel regression system is rank-deficient."""


@dataclass(frozen=True, eq=False)
class Background:
    """Reference rows the value function averages over."""

    rows: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[0] < 1:
            raise ValueError(f"background must be a non-empty 2D matrix, got shape {rows.shape}")
        object.__setattr__(self, "rows", rows)

    @property
    def size(self) -> int:
        return self.rows.shape[0]

    @property
    def n_features(self) -> int:
        return self.rows.shape[1]

    @classmethod
    def subsample(cls, X, size: int, seed: int) -> Background:
        """Uniform subsample without replacement, in row order (all rows if X is small)."""
        X = np.asarray(X, dtype=np.float64)
        idx = np.sort(np.random.default_rng(seed).choice(X.shape[0], size=min(size, X.shape[0]), replace=False))
        return cls(X[idx])


@dataclass(frozen=True, eq=False)
class Explanation:
    """Per-row SHAP vectors plus the shared base value.

    Column j of phi belongs to column j of the explained matrix; the names
    live with the data (FeatureMatrix, PeriodResult). max_residual is the
    worst |phi0 + phi[i].sum() - f(x_i)| over the rows, which explain_dataset
    keeps below 1e-6 (local accuracy).
    """

    phi: np.ndarray
    phi0: float
    max_residual: float

    def __len__(self) -> int:
        return self.phi.shape[0]


# ------------------------------------------------------------ value function


def _subset_weights(n: int) -> np.ndarray:
    """Classic Shapley weights |S|! (n-|S|-1)! / n! indexed by |S| = 0..n-1."""
    fact = [math.factorial(k) for k in range(n + 1)]
    return np.array([fact[s] * fact[n - s - 1] / fact[n] for s in range(n)])


def _mask_values(model_fn, x, bg: Background, masks: np.ndarray, n: int) -> np.ndarray:
    """v(S) for each bitmask: mean model output over per-row hybrids.

    The hybrids of a chunk of masks are built in place: every mask gets a
    copy of the background rows, then x[j] is written into column j of the
    copies of each mask that has bit j set. model_fn sees the chunk's
    hybrids as one matrix, mask after mask, background row after row.

    A chunk is the largest power of two of masks whose hybrids fit in 4,096
    rows (at least one mask), so a model call's buffers stay small. The
    power of two keeps the bits: OpenBLAS computes a tile's leftover rows
    with another kernel, and with at most 256 background rows a full chunk
    has a multiple of 16 rows, so every row comes out as it would in one
    call over all the hybrids.
    """
    B = bg.size
    values = np.empty(len(masks))
    chunk = 1 << max(0, (4096 // B).bit_length() - 1)
    for start in range(0, len(masks), chunk):
        part = masks[start : start + chunk]
        hybrid = np.empty((len(part), B, n))
        hybrid[...] = bg.rows
        m, j = np.nonzero((part[:, None] >> np.arange(n)) & 1)
        hybrid[m, :, j] = x[j, None]
        preds = model_fn(hybrid.reshape(-1, n)).reshape(len(part), B)
        values[start : start + chunk] = preds.mean(axis=1)
    return values


def exact_shap(model_fn, x, bg: Background) -> tuple[np.ndarray, float]:
    """Brute-force Shapley values by full coalition enumeration (n <= 20).

    phi[j] sums w(|S|) (v(S + j) - v(S)) over the coalitions S without j in
    ascending order of their bitmask; they are the masks k < 2^(n-1) with a
    0 bit inserted at position j, and |S| is the popcount of k. All n sums
    are taken in one pass over an (n, 2^(n-1)) array.
    """
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    if n > 20:
        raise ValueError(f"exact enumeration is limited to 20 features, got {n}")
    if bg.n_features != n:
        raise ValueError("background width does not match the explained row")

    v = _mask_values(model_fn, x, bg, np.arange(1 << n, dtype=np.int64), n)
    k = np.arange(1 << (n - 1), dtype=np.int64)
    w = _subset_weights(n)[((k[:, None] >> np.arange(n - 1)) & 1).sum(axis=1)]
    bit = 1 << np.arange(n, dtype=np.int64)[:, None]
    without = ((k & -bit) << 1) | (k & (bit - 1))
    phi = np.sum(w * (v[without | bit] - v[without]), axis=1)
    return phi, float(v[0])


# ------------------------------------------------------------------ TreeSHAP


def _tree_leaves(node: TreeNode, bounds: dict, out: list) -> None:
    """Append (value, features, lo, hi) for every reachable leaf below node.

    bounds maps each distinct path feature f to an interval (lo, hi]: a point
    meets all of the path's conditions on f iff lo < x[f] <= hi. A feature
    that repeats on the path narrows its interval. A contradictory path
    leaves it empty, and the subtree is dropped because no point reaches it.
    """
    if node.is_leaf:
        if bounds:
            lo, hi = zip(*bounds.values())
            out.append((node.value, np.fromiter(bounds, np.intp), np.array(lo), np.array(hi)))
        return
    f, t = node.feature, node.threshold
    lo, hi = bounds.get(f, (-np.inf, np.inf))
    for child, child_lo, child_hi in ((node.left, lo, min(hi, t)), (node.right, max(lo, t), hi)):
        if child_lo < child_hi:
            _tree_leaves(child, {**bounds, f: (child_lo, child_hi)}, out)


# Leaves, rows and pairs of codes are taken a block at a time, so that no
# array of the pass holds many more than this many elements (a block holds at
# least one item). It bounds memory only: every sum runs in the same order
# whatever the blocks, so it changes no bits.
_BLOCK_ELEMENTS = 1 << 14


def _blocks(sizes: np.ndarray):
    """Consecutive slices of range(len(sizes)) whose sizes add up to at most
    _BLOCK_ELEMENTS, or to one item's size where that alone is more."""
    ends = np.cumsum(sizes)
    start = 0
    while start < len(ends):
        base = ends[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, base + _BLOCK_ELEMENTS, side="right")))
        yield slice(start, stop)
        start = stop


def _path_codes(columns: np.ndarray, feats: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """codes[leaf, i]: bit k says whether point i, column i of columns (one
    row per feature), meets the leaf's slot k, in the narrowest signed
    integer that holds every code."""
    n_leaf, depth = feats.shape
    codes = np.empty((n_leaf, columns.shape[1]), np.min_scalar_type(-(1 << depth)))
    place = (1 << np.arange(depth)).astype(codes.dtype)
    for points in _blocks(np.full(columns.shape[1], n_leaf * depth)):
        v = columns[:, points][feats]
        codes[:, points] = place @ ((v > lo[..., None]) & (v <= hi[..., None]))
    return codes


def _distinct(codes: np.ndarray):
    """Each leaf's distinct codes, in leaf order and ascending within a leaf:
    their leaves, codes and counts, and the index of each point's code among
    them (shaped like codes)."""
    # a stable sort of 8- or 16-bit integers is a radix sort
    order = np.argsort(codes, axis=1, kind="stable")
    order += np.arange(0, codes.size, codes.shape[1])[:, None]
    sorted_codes = codes.ravel()[order]
    new = np.ones(codes.shape, bool)
    new[:, 1:] = sorted_codes[:, 1:] != sorted_codes[:, :-1]
    first = np.flatnonzero(new)
    index = np.empty(codes.shape, np.intp)
    index.ravel()[order] = (np.cumsum(new) - 1).reshape(codes.shape)
    return first // codes.shape[1], sorted_codes.ravel()[first], np.diff(first, append=codes.size), index


def _tree_shap_matrix(model: TreeEnsemble, X: np.ndarray, bg: Background) -> np.ndarray:
    """SHAP values for every row of X under the tree engine.

    For a leaf and a (row x, background row z) pair, the leaf's value enters
    a coalition's prediction iff the p path features x meets and z does not
    are in the coalition, the q ones z meets and x does not are out, and the
    pair is dead when some path feature is met by neither. Every other
    feature is a null player, so the game's Shapley values are those of its
    p + q players alone, the enumeration's weights _subset_weights(p + q):
    w(p - 1) of the leaf value for each required-in feature and -w(p) for
    each required-out one. The game depends only on the codes saying which
    path conditions x and z meet. Every path is padded to the longest, D
    slots, with (-inf, inf) conditions that every point meets, so a padded
    slot joins no game, and all leaves go through one pass:

    * the background rows and the explained rows are coded, and each leaf's
      distinct codes are found by sorting, with how often each background
      code occurs;
    * each row code that occurs is paired with each background code of its
      leaf, and the pairs' weighted terms are added up in ascending order of
      the background code into the leaf value's coefficient per slot;
    * each explained row reads the coefficients of its codes, and np.add.at
      adds them to the row's phi one by one in leaf order, so no row's bits
      depend on the rows beside it or on the blocks.

    Cost per leaf: D comparisons per row and per background row and a sort
    of their codes, a few integer operations per pair of distinct row and
    background codes, and D multiply-adds per live pair. The pairs are at
    most rows times background rows, and at most 4^D, but no table over all
    2^D codes is built, so deep paths cost no more than the codes that
    occur. Leaves, rows and pairs go in blocks of about _BLOCK_ELEMENTS
    array elements.
    """
    if not (np.isfinite(X).all() and np.isfinite(bg.rows).all()):
        raise ValueError("the tree engine needs finite rows and background rows")
    leaves: list = []
    for tree in model.trees:
        _tree_leaves(tree, {}, leaves)
    phi = np.zeros(X.shape[0] * model.n_features)
    if not leaves:
        return phi.reshape(X.shape[0], model.n_features)
    values, paths, lows, highs = zip(*leaves)
    lengths = np.fromiter(map(len, paths), np.intp, len(paths))
    depth = int(lengths.max())
    if depth > 63:  # a leaf's codes are signed integers of at most 64 bits
        raise ValueError(f"the tree engine is limited to leaf paths of 63 distinct features, got {depth}")
    # a padded slot reads feature 0 against (-inf, inf)
    real = np.arange(depth) < lengths[:, None]
    feats = np.zeros(real.shape, np.intp)
    feats[real] = np.concatenate(paths)
    lo = np.full(real.shape, -np.inf)
    lo[real] = np.concatenate(lows)
    hi = np.full(real.shape, np.inf)
    hi[real] = np.concatenate(highs)
    values = np.array(values)
    # w[k, s] = _subset_weights(k)[s] up to the longest path, 0 for s >= k
    w = np.zeros((depth + 1, depth + 1))
    for k in range(1, depth + 1):
        w[k, :k] = _subset_weights(k)
    every_slot = (1 << depth) - 1
    columns, bg_columns = np.ascontiguousarray(X.T), np.ascontiguousarray(bg.rows.T)

    for leaf in _blocks(np.full(len(values), X.shape[0] + bg.size)):
        args = feats[leaf], lo[leaf], hi[leaf]
        z_leaf, b, z_count, _ = _distinct(_path_codes(bg_columns, *args))
        x_leaf, a, _, x_index = _distinct(_path_codes(columns, *args))
        bit = np.arange(depth, dtype=a.dtype)
        z_first = np.searchsorted(z_leaf, np.arange(len(values[leaf])))
        n_pairs = np.diff(z_first, append=len(z_leaf))[x_leaf]
        coef = np.zeros((len(a), depth))
        for xs in _blocks(n_pairs * depth):
            # each row code of the block against its leaf's background codes;
            # a dead pair adds 0, so only the live ones are kept
            m = n_pairs[xs]
            i = np.repeat(np.arange(xs.start, xs.stop), m)
            j = np.repeat(z_first[x_leaf[xs]] - np.cumsum(m) + m, m) + np.arange(len(i))
            live = (a[i] | b[j]) == every_slot
            i, j = i[live], j[live]
            # axes (path slot, pair)
            need_in = ((a[i] & ~b[j]) >> bit[:, None]) & 1
            need_out = ((b[j] & ~a[i]) >> bit[:, None]) & 1
            p, q = need_in.sum(axis=0), need_out.sum(axis=0)
            # p = 0 reads w[q, -1] and q = 0 reads w[p, p]: both 0
            g = need_in * w[p + q, p - 1] - need_out * w[p + q, p]
            np.add.at(coef, i, (z_count[j] * g).T)
        coef = (coef * values[leaf][x_leaf, None]).ravel()
        # the block's path slots in leaf order, and the phi column of each
        l, k = np.nonzero(real[leaf])
        column = feats[leaf][l, k]
        for rows in _blocks(np.full(X.shape[0], len(l))):
            terms = coef[x_index[l, rows].T * depth + k]
            cells = np.arange(rows.start, rows.stop)[:, None] * model.n_features + column
            np.add.at(phi, cells.ravel(), terms.ravel())
    return model.learning_rate * phi.reshape(X.shape[0], model.n_features) / bg.size


# ---------------------------------------------------------------- KernelSHAP


def _coalition_budget(n: int) -> int:
    """Coalitions kernel_shap may evaluate for one row of n features.

    When the budget covers all 2^n - 2 proper nonempty coalitions (n <= 11)
    kernel_shap enumerates instead of sampling; otherwise it draws this many
    paired samples.
    """
    return 2 * n + 2048


def kernel_shap(
    model_fn,
    x,
    bg: Background,
    seed: int,
) -> tuple[np.ndarray, float]:
    """SHAP values from the Shapley-kernel weighted least squares problem.

    When the budget, which follows from n alone (_coalition_budget), covers
    all 2^n - 2 proper nonempty coalitions, the regression over all of them
    has the Shapley values as its solution, so they are computed by
    enumeration: the result is exact_shap's. Otherwise coalition sizes are
    sampled from the kernel weight distribution, subsets are paired with
    their complements, and the intercept (base value) and the coefficient
    total (prediction minus base) are eliminated exactly, so local accuracy
    holds by construction.
    """
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    if bg.n_features != n:
        raise ValueError("background width does not match the explained row")
    budget = _coalition_budget(n)
    if (1 << n) - 2 <= budget:
        return exact_shap(model_fn, x, bg)
    fx = float(model_fn(x[None, :])[0])
    phi0 = float(np.mean(model_fn(bg.rows)))

    # one draw of budget // 2 sizes and one uniform subset of each size
    # (the features whose rank in a random row is below the size); each
    # subset is paired with its complement, repeats add to the weight
    full = (1 << n) - 1
    rng = np.random.default_rng(seed)
    size_mass = np.array([(n - 1) / (s * (n - s)) for s in range(1, n)])
    sizes = 1 + rng.choice(n - 1, size=budget // 2, p=size_mass / size_mass.sum())
    half = np.argsort(rng.random((len(sizes), n)), axis=1) < sizes[:, None]
    drawn = half @ (1 << np.arange(n, dtype=np.int64))
    masks, counts = np.unique(np.concatenate([drawn, full ^ drawn]), return_counts=True)
    Z = (masks[:, None] >> np.arange(n)) & 1
    weights = counts.astype(np.float64)

    y = _mask_values(model_fn, x, bg, masks, n)

    # eliminate the intercept (= phi0) and pivot feature n-1 (= remainder)
    target = y - phi0 - Z[:, -1] * (fx - phi0)
    design = Z[:, :-1] - Z[:, -1:]
    sw = np.sqrt(weights)
    coef, _, rank, _ = np.linalg.lstsq(design * sw[:, None], target * sw, rcond=None)
    if rank < n - 1:
        raise SingularSystemError(f"coalition design has rank {rank} < {n - 1}")
    phi = np.append(coef, (fx - phi0) - coef.sum())
    return phi, phi0


# ------------------------------------------------------------ dataset driver


def _openblas_threads():
    """The get and set functions of the OpenBLAS that numpy links, or None
    when numpy links another BLAS."""
    try:
        blas = ctypes.CDLL(np._core._multiarray_umath.__file__)
        return blas.scipy_openblas_get_num_threads64_, blas.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return None


def _kernel_shap_matrix(predict, X: np.ndarray, bg: Background, seed: int) -> np.ndarray:
    """kernel_shap for every row of X, each row with its own seed derived
    from (seed, row index), so no row's result depends on the others.

    The rows are cut into one contiguous share per CPU, at most one per row:
    the CPUs are those of the process's affinity mask (taskset limits it),
    or os.cpu_count() where the platform has no mask. The shares run on a
    thread pool, each predicting through predict(rows, work) with a work
    dict of its own. OpenBLAS is held at one thread while the pool runs, so
    the shares do not compete with BLAS threads for the cores; with another
    BLAS there is one share. phi comes back in row order, and when rows
    fail, the first failing row's error is raised.
    """
    # imported here: the pool's modules add 0.2 MiB to the peak memory of a
    # run that explains no row with this engine
    from concurrent.futures import ThreadPoolExecutor

    blas = _openblas_threads()
    get_threads, set_threads = blas or (lambda: 1, lambda threads: None)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(cpus, len(X)) if blas else 1

    def explain(k):
        model_fn = partial(predict, work={})
        rows = range(len(X) * k // workers, len(X) * (k + 1) // workers)
        return [kernel_shap(model_fn, X[i], bg, seed=derive_seed(seed, i))[0] for i in rows]

    threads = get_threads()
    set_threads(1)
    try:
        with ThreadPoolExecutor(workers) as pool:
            return np.vstack([phi for share in pool.map(explain, range(workers)) for phi in share])
    finally:
        set_threads(threads)


def explain_dataset(
    model,
    X,
    bg: Background,
    method: str,
    seed: int = 0,
) -> Explanation:
    """Explain every row of X with TreeSHAP (method "tree", for a
    TreeEnsemble) or KernelSHAP (method "kernel", for an MlpNet).

    Local accuracy is verified per row at 1e-6; a violation, or a residual
    that is not finite, raises LocalAccuracyError: an engine that cannot
    reproduce its own model's prediction is broken, not inaccurate.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("X must be 2D")
    if bg.n_features != X.shape[1]:
        raise ValueError(f"background has {bg.n_features} columns, X has {X.shape[1]}")
    # One of the two branches on the model kind (experiment.run_window has
    # the other). The predict functions are looked up at call time, so a
    # profiler that rebinds these module names sees each call.
    if method == "tree":
        if not isinstance(model, TreeEnsemble):
            raise ValueError("tree method requires a TreeEnsemble")
        model_fn = partial(predict_gbt, model)
        engine = partial(_tree_shap_matrix, model)
    elif method == "kernel":
        if not isinstance(model, MlpNet):
            raise ValueError("kernel method requires an MlpNet")
        predict = partial(predict_mlp, model)
        model_fn = partial(predict, work={})
        engine = partial(_kernel_shap_matrix, predict, seed=seed)
    else:
        raise ValueError(f"unknown method {method!r}")

    phi0 = float(np.mean(model_fn(bg.rows)))
    if X.shape[0] == 0:
        return Explanation(np.empty((0, X.shape[1])), phi0, 0.0)
    # predicting first checks the width of X before an engine reads its columns
    predictions = model_fn(X)
    phi = engine(X, bg)

    residuals = np.abs(phi0 + phi.sum(axis=1) - predictions)
    # a NaN residual counts as the worst, so it cannot slip past the test
    worst = int(np.argmax(np.where(np.isnan(residuals), np.inf, residuals)))
    if not residuals[worst] < LOCAL_ACCURACY_TOL:
        raise LocalAccuracyError(
            f"row {worst}: |phi0 + sum(phi) - f(x)| = {residuals[worst]:.3e} "
            f"exceeds {LOCAL_ACCURACY_TOL:g} under method {method!r}"
        )
    return Explanation(phi, phi0, float(residuals[worst]))


def feature_importance(explanation: Explanation) -> np.ndarray:
    """Mean absolute SHAP value per feature, normalized to sum to one: each
    feature's nonnegative share.

    An all-zero explanation has no signal to normalize; it yields an all-zero
    vector (PeriodResult.degenerate_windows names such windows).
    """
    if len(explanation) == 0:
        raise ValueError("cannot compute importances from an empty explanation")
    mean_abs = np.abs(explanation.phi).mean(axis=0)
    total = mean_abs.sum()
    return mean_abs / total if total else mean_abs
