"""Random forest of Gini-split decision trees.

Trees are grown to purity (or until fewer than two samples remain) on
bootstrap resamples, inspecting sqrt(D) randomly chosen non-constant
features per node.  A resample is an array of row indices into the one
float64 training matrix, and each node holds its share of them, so no
tree copies the rows.  Tree t draws from a generator seeded with
(master seed XOR t), so training is reproducible and independent of how
trees are scheduled across workers.

Model container ("CLEF" format, version 1, little-endian):

    offset  type       field
    0       4 bytes    magic b"CLEF"
    4       u32        format version (1)
    8       u64        training seed
    16      u32        n_trees
    20      u32        n_features
    24      u32        mtry (features inspected per node)
    28      u32        n_classes (always 2)
    then per tree:
            u32        n_nodes
            i32[n]     split feature (-1 at leaves)
            f64[n]     split threshold (rows with value <= threshold go left)
            i32[n]     left child index (-1 at leaves)
            i32[n]     right child index (-1 at leaves)
            i64[n*2]   per-node class counts, row-major (class 0, class 1)
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import core, util

MAGIC = b"CLEF"
FORMAT_VERSION = 1
DEFAULT_TREES = 500
_SEED_MASK = 0xFFFFFFFFFFFFFFFF
# Container fields after the magic: version, seed, n_trees, n_features,
# mtry, n_classes.
_HEADER = struct.Struct("<IQIIII")


@dataclass
class DecisionTree:
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    counts: np.ndarray

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    def predict_p1(self, X: np.ndarray) -> np.ndarray:
        """Class-1 training fraction of the leaf each row lands in."""
        node = np.zeros(len(X), dtype=np.int32)
        while True:
            f = self.feature[node]
            rows = np.nonzero(f >= 0)[0]
            if rows.size == 0:
                break
            at = node[rows]
            go_left = X[rows, f[rows]] <= self.threshold[at]
            node[rows] = np.where(go_left, self.left[at], self.right[at])
        c = self.counts[node]
        return c[:, 1] / c.sum(axis=1)


@dataclass
class RandomForestModel:
    trees: list[DecisionTree]
    seed: int
    n_features: int
    mtry: int

    @property
    def n_trees(self) -> int:
        return len(self.trees)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Posterior pairs [p(c=0), p(c=1)]: the class-1 leaf fractions
        averaged over trees in index order."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[None, :]
        if X.shape[1] != self.n_features:
            raise ValueError(
                f"row has {X.shape[1]} features, model expects {self.n_features}")
        acc = np.zeros(len(X), dtype=np.float64)
        for tree in self.trees:
            acc += tree.predict_p1(X)
        p1 = acc / self.n_trees
        return np.stack([1.0 - p1, p1], axis=1)


def _best_split(X, y_float, rows, perm, mtry):
    """Best Gini split of the node holding `rows` (indices into X, with
    repeats from the bootstrap) over the first mtry non-constant features
    in `perm` order.  Returns (feature, threshold) or None when every
    feature is constant on this node."""
    m = rows.size
    yn = y_float[rows]
    n1_total = yn.sum()
    best = None
    best_score = np.inf
    seen_nonconst = 0
    start = 0
    n_feat = len(perm)
    nL = np.arange(1, m, dtype=np.float64)[:, None]
    nR = m - nL
    while start < n_feat and seen_nonconst < mtry:
        cand = perm[start:start + (mtry - seen_nonconst)]
        start += len(cand)
        V = X[rows[:, None], cand[None, :]]
        order = np.argsort(V, axis=0, kind="stable")
        sv = np.take_along_axis(V, order, axis=0)
        nonconst = sv[0] < sv[-1]
        seen_nonconst += int(nonconst.sum())
        if not nonconst.any():
            continue
        pos = np.cumsum(yn[order], axis=0)
        n1L = pos[:-1]
        n0L = nL - n1L
        n1R = n1_total - n1L
        n0R = nR - n1R
        # Weighted Gini, scaled by node size (constant factor per node).
        score = (nL - (n0L ** 2 + n1L ** 2) / nL) \
            + (nR - (n0R ** 2 + n1R ** 2) / nR)
        score = np.where(sv[1:] > sv[:-1], score, np.inf)
        i, j = np.unravel_index(np.argmin(score), score.shape)
        if score[i, j] < best_score:
            best_score = float(score[i, j])
            a, b = sv[i, j], sv[i + 1, j]
            thr = 0.5 * (a + b)
            if thr >= b:  # float midpoint collapsed onto the upper value
                thr = a
            best = (int(cand[j]), float(thr))
    return best


def _grow_tree(X, y, seed, mtry):
    n = len(y)
    rng = np.random.Generator(np.random.PCG64(seed))
    boot = rng.integers(0, n, size=n)
    y_float = y.astype(np.float64)

    feature, threshold, left, right, counts = [], [], [], [], []

    def new_node():
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        counts.append((0, 0))
        return len(feature) - 1

    stack = [(new_node(), boot)]
    while stack:
        node_id, rows = stack.pop()
        c1 = int(y[rows].sum())
        c0 = rows.size - c1
        counts[node_id] = (c0, c1)
        if c0 == 0 or c1 == 0 or rows.size < 2:
            continue
        perm = rng.permutation(X.shape[1])
        split = _best_split(X, y_float, rows, perm, mtry)
        if split is None:
            continue
        f, thr = split
        go_left = X[rows, f] <= thr
        lid = new_node()
        rid = new_node()
        feature[node_id] = f
        threshold[node_id] = thr
        left[node_id] = lid
        right[node_id] = rid
        stack.append((rid, rows[~go_left]))
        stack.append((lid, rows[go_left]))

    return DecisionTree(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int32),
        right=np.asarray(right, dtype=np.int32),
        counts=np.asarray(counts, dtype=np.int64),
    )


def train_random_forest(
    X: np.ndarray,
    y: np.ndarray,
    trees: int = DEFAULT_TREES,
    seed: int = 0,
    mtry: int | None = None,
    jobs: int = 1,
) -> RandomForestModel:
    """Fit a forest on rows X with binary labels y.

    Needs at least two rows of each class.  `jobs` only distributes tree
    growth over workers; the model is identical for any value.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or len(X) != len(y):
        raise ValueError("X must be (n, d) with matching labels")
    n1 = int(y.sum())
    if n1 < 2 or len(y) - n1 < 2:
        raise ValueError(
            f"need at least two training rows per class, have "
            f"{len(y) - n1} {core.LABELS[0]} and {n1} {core.LABELS[1]}")
    if trees < 1:
        raise ValueError("tree count must be positive")
    if mtry is None:
        mtry = max(1, int(math.sqrt(X.shape[1])))

    seed = int(seed) & _SEED_MASK
    grown = util.run_parallel(
        lambda t: _grow_tree(X, y, (seed ^ t) & _SEED_MASK, mtry),
        range(trees), jobs)
    return RandomForestModel(trees=grown, seed=seed,
                             n_features=X.shape[1], mtry=mtry)


# ---------------------------------------------------------------------------
# Model container
# ---------------------------------------------------------------------------


def save_forest(model: RandomForestModel, path: str | Path) -> None:
    parts = [MAGIC,
             _HEADER.pack(FORMAT_VERSION, model.seed, model.n_trees,
                          model.n_features, model.mtry, 2)]
    for tree in model.trees:
        parts.append(struct.pack("<I", tree.n_nodes))
        parts.append(tree.feature.astype("<i4").tobytes())
        parts.append(tree.threshold.astype("<f8").tobytes())
        parts.append(tree.left.astype("<i4").tobytes())
        parts.append(tree.right.astype("<i4").tobytes())
        parts.append(tree.counts.astype("<i8").tobytes())
    Path(path).write_bytes(b"".join(parts))


def load_forest(path: str | Path) -> RandomForestModel:
    data = Path(path).read_bytes()
    if data[:4] != MAGIC:
        raise ValueError(f"not a forest model file: magic {data[:4]!r}")
    view = memoryview(data)
    pos = 4

    def take(size: int) -> memoryview:
        nonlocal pos
        if pos + size > len(data):
            raise ValueError(
                f"truncated model file: {size} bytes needed at offset {pos}, "
                f"{len(data) - pos} left")
        pos += size
        return view[pos - size:pos]

    version, seed, n_trees, n_features, mtry, n_classes = \
        _HEADER.unpack(take(_HEADER.size))
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version}")
    if n_classes != 2:
        raise ValueError(f"unsupported class count {n_classes}")
    trees = []
    for _ in range(n_trees):
        (n_nodes,) = struct.unpack("<I", take(4))
        feature = np.frombuffer(take(4 * n_nodes), "<i4").astype(np.int32)
        threshold = np.frombuffer(take(8 * n_nodes), "<f8").astype(np.float64)
        left = np.frombuffer(take(4 * n_nodes), "<i4").astype(np.int32)
        right = np.frombuffer(take(4 * n_nodes), "<i4").astype(np.int32)
        counts = np.frombuffer(take(16 * n_nodes), "<i8").astype(
            np.int64).reshape(n_nodes, 2)
        trees.append(DecisionTree(feature, threshold, left, right, counts))
        _check_tree(trees[-1], n_features, len(trees) - 1)
    if pos != len(data):
        raise ValueError(f"trailing bytes in model file at offset {pos}")
    if not trees:
        raise ValueError("model file holds no trees")
    return RandomForestModel(trees=trees, seed=seed,
                             n_features=n_features, mtry=mtry)


def _check_tree(tree: DecisionTree, n_features: int, index: int) -> None:
    """Refuse a loaded tree that `predict_p1` could not walk: a split on
    a feature the model lacks or at a non-finite threshold, a child that
    is not a later node (a cycle would never end), or a leaf with
    negative or no class counts."""
    n = tree.n_nodes
    if n == 0:
        raise ValueError(f"tree {index} has no nodes")
    node = np.arange(n)
    leaf = tree.feature == -1
    inner_ok = ((tree.feature >= 0) & (tree.feature < n_features)
                & np.isfinite(tree.threshold)
                & (tree.left > node) & (tree.left < n)
                & (tree.right > node) & (tree.right < n))
    leaf_ok = ((tree.left == -1) & (tree.right == -1)
               & (tree.counts.sum(axis=1) > 0))
    bad = ~np.where(leaf, leaf_ok, inner_ok) | (tree.counts < 0).any(axis=1)
    if bad.any():
        raise ValueError(f"tree {index}: node {int(np.argmax(bad))} is "
                         f"malformed")
