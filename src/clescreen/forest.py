"""Random forest of Gini-split decision trees.

Trees are grown to purity (or until fewer than two samples remain) on
bootstrap resamples, inspecting sqrt(D) randomly chosen non-constant
features per node.  A resample is an array of row indices into the one
float64 training matrix, and each node holds its share of them, so no
tree copies the rows.  Tree t draws from a generator seeded with
(master seed XOR t), so training is reproducible and independent of how
trees are scheduled across workers.  Trees are grown a block at a time:
the block's roots, which all hold one resample's worth of rows, are split
in one batched search, and each tree then grows depth-first below its
root.  Prediction walks every tree at once through one table of all the
forest's nodes.

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


# Float64 values per (B, m, k) split temporary (128 KB): the roots of as
# many trees as fit (B roots of m rows, k candidate features each) are
# split in one batch.  On the bench cohort an RF-LBP fold splits 22 roots
# (72 rows, 10 candidates) at a time, an RF-GLCM fold 136 (24 rows, 5
# candidates), and a forest-PPF root (80 candidates of ~1,500 rows) is
# split alone.
_SPLIT_BLOCK_VALUES = 1 << 14
# (row, tree) pairs per block of RandomForestModel.predict_proba, which
# bounds its walk's index arrays at 256 KB each.
_PREDICT_BLOCK_PAIRS = 1 << 15


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


@dataclass
class RandomForestModel:
    trees: list[DecisionTree]
    seed: int
    n_features: int
    mtry: int

    @property
    def n_trees(self) -> int:
        return len(self.trees)

    def _table(self):
        """Every tree's nodes in one table, children as table indices:
        (feature, threshold, left, right, class-1 leaf fraction, roots)."""
        sizes = [tree.n_nodes for tree in self.trees]
        roots = np.cumsum([0] + sizes[:-1])
        offset = np.repeat(roots, sizes)

        def joined(field):
            return np.concatenate([getattr(t, field) for t in self.trees])

        feature = joined("feature")
        counts = joined("counts")
        leaf = feature < 0
        value = np.zeros(len(feature))
        value[leaf] = counts[leaf, 1] / counts[leaf].sum(axis=1)
        return (feature, joined("threshold"), joined("left") + offset,
                joined("right") + offset, value, roots)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Posterior pairs [p(c=0), p(c=1)]: the class-1 leaf fractions
        averaged over trees in index order.  Rows walk every tree at
        once, a block of rows at a time."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[None, :]
        if X.shape[1] != self.n_features:
            raise ValueError(
                f"row has {X.shape[1]} features, model expects {self.n_features}")
        feature, threshold, left, right, value, roots = self._table()
        trees = self.n_trees
        step = max(1, _PREDICT_BLOCK_PAIRS // trees)
        p1 = np.empty(len(X), dtype=np.float64)
        for lo in range(0, len(X), step):
            block = X[lo:lo + step]
            # Pair r * trees + t is row r's node in tree t.
            node = np.tile(roots, len(block))
            live = np.flatnonzero(feature[node] >= 0)
            while live.size:
                at = node[live]
                go_left = block[live // trees, feature[at]] <= threshold[at]
                at = np.where(go_left, left[at], right[at])
                node[live] = at
                live = live[feature[at] >= 0]
            # A running sum adds the votes in tree-index order, so the
            # mean is bit-identical to accumulating one tree at a time.
            votes = value[node].reshape(len(block), trees)
            p1[lo:lo + step] = np.cumsum(votes, axis=1)[:, -1]
        p1 /= trees
        return np.stack([1.0 - p1, p1], axis=1)


def _best_split(X, y_float, rows, n1, perms, mtry):
    """Best Gini split of each of B nodes of m rows each.  `rows` (B, m)
    holds node b's indices into X (with repeats from the bootstrap), n1[b]
    of them of class 1, and node b inspects the first mtry features in
    `perms[b]` order that are not constant on it.  Returns one (feature,
    threshold, left rows, left class-1 rows) tuple per node, feature -1
    where every feature is constant on the node."""
    n_feat = perms.shape[1]
    # Round one searches every node's first mtry candidates together.
    k = min(mtry, n_feat)
    best, *split, seen = _split_round(X, y_float, rows, n1, perms[:, :k])
    split[0][best == np.inf] = -1
    # Constant candidates are replaced by the next ones in order, a node
    # at a time; a later round wins only by scoring strictly lower.
    for b in np.flatnonzero(seen < mtry) if k < n_feat else ():
        start, seen_b = k, int(seen[b])
        while start < n_feat and seen_b < mtry:
            cand = perms[b:b + 1, start:start + mtry - seen_b]
            start += cand.shape[1]
            score, *found, n = _split_round(X, y_float, rows[b:b + 1],
                                            n1[b:b + 1], cand)
            seen_b += int(n[0])
            if score[0] < best[b]:
                best[b] = score[0]
                for field, value in zip(split, found):
                    field[b] = value[0]
    return list(zip(*(field.tolist() for field in split)))


def _split_round(X, y_float, rows, n1, cand):
    """One round of `_best_split` over the (B, k) candidate features
    `cand`.  Per node: the lowest split score (inf where none splits),
    its feature, threshold and left row and class-1 counts, and the
    number of non-constant candidates."""
    n_nodes, m = rows.shape
    k = cand.shape[1]
    node = np.arange(n_nodes)
    V = X[rows[:, :, None], cand[:, None, :]]
    # The sort need not be stable: a position inside a run of equal
    # values never splits, and the class counts up to the end of a run do
    # not depend on the order within it.
    ranked = rows.ravel()[V.argsort(axis=1) + (node * m)[:, None, None]]
    sv = X.ravel()[ranked * X.shape[1] + cand[:, None, :]]
    nonconst = sv[:, 0] < sv[:, -1]
    # Split after sorted position i: i + 1 rows go left.
    n1L = np.cumsum(y_float[ranked[:, :-1]], axis=1)
    nL = np.arange(1, m, dtype=np.float64)[:, None]
    nR = m - nL
    n0L = nL - n1L
    n1R = n1[:, None, None] - n1L
    n0R = nR - n1R
    # Weighted Gini, scaled by node size (constant factor per node).
    score = (nL - (n0L ** 2 + n1L ** 2) / nL) \
        + (nR - (n0R ** 2 + n1R ** 2) / nR)
    score[~((sv[:, 1:] > sv[:, :-1])
            & nonconst.any(axis=1)[:, None, None])] = np.inf
    # Row-major argmin: the lowest split position, then the earliest
    # candidate.
    score = score.reshape(n_nodes, -1)
    at = score.argmin(axis=1)
    sv = sv.reshape(n_nodes, -1)
    a, b = sv[node, at], sv[node, at + k]
    thr = 0.5 * (a + b)
    # A float midpoint that collapsed onto the upper value.
    thr = np.where(thr >= b, a, thr)
    return (score[node, at], cand[node, at % k], thr, at // k + 1,
            n1L.reshape(n_nodes, -1)[node, at].astype(np.int64),
            nonconst.sum(axis=1))


def _grow_block(X, y, y_float, seeds, mtry):
    """The trees grown from `seeds`, one each.  Tree t draws its
    bootstrap and then its root's feature order from PCG64(seeds[t]); the
    roots, all holding len(y) rows, are split in one batch."""
    n, d = X.shape
    rngs = [np.random.Generator(np.random.PCG64(s)) for s in seeds]
    boots = np.stack([rng.integers(0, n, size=n) for rng in rngs])
    c1 = y[boots].sum(axis=1)
    impure = np.flatnonzero((c1 > 0) & (c1 < n))
    roots = [(-1, 0.0, 0, 0)] * len(seeds)
    if impure.size:
        perms = np.stack([rngs[b].permutation(d) for b in impure])
        for b, split in zip(impure.tolist(), _best_split(
                X, y_float, boots[impure], c1[impure], perms, mtry)):
            roots[b] = split
    return [_grow_tree(X, y_float, rng, boot, count, root, mtry)
            for rng, boot, count, root in zip(rngs, boots, c1.tolist(),
                                              roots)]


def _grow_tree(X, y_float, rng, boot, c1, root_split, mtry):
    """Tree grown depth-first from the root holding `boot`, c1 of them of
    class 1, whose split is given as `_best_split` returns it; every later
    node draws its feature order from `rng`.  The left child of a split
    holds its node's rows up to the threshold in sorted order, so the
    split gives both children's counts, and only a child holding both
    classes has its rows gathered and is split in turn."""
    feature, threshold, left, right, counts = [], [], [], [], []

    def new_node(c0, c1):
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        counts.append((c0, c1))
        return len(feature) - 1

    stack = [(new_node(boot.size - c1, c1), boot, root_split)]
    while stack:
        node_id, rows, split = stack.pop()
        c0, c1 = counts[node_id]
        if split is None:
            (split,) = _best_split(X, y_float, rows[None], np.array([c1]),
                                   rng.permutation(X.shape[1])[None], mtry)
        f, thr, n_left, c1_left = split
        if f < 0:
            continue
        lid = new_node(n_left - c1_left, c1_left)
        rid = new_node(c0 - n_left + c1_left, c1 - c1_left)
        feature[node_id] = f
        threshold[node_id] = thr
        left[node_id] = lid
        right[node_id] = rid
        if min(counts[lid]) > 0 or min(counts[rid]) > 0:
            go_left = X[rows, f] <= thr
            for child, part in ((rid, ~go_left), (lid, go_left)):
                if min(counts[child]) > 0:
                    stack.append((child, rows[part], None))

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

    Needs at least two rows of each class.  Trees are grown a block at a
    time (see `_SPLIT_BLOCK_VALUES`), and `jobs` only distributes the
    blocks over workers; the model is identical for any value.
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
    seeds = [(seed ^ t) & _SEED_MASK for t in range(trees)]
    block = max(1, _SPLIT_BLOCK_VALUES // (len(y) * min(mtry, X.shape[1])))
    y_float = y.astype(np.float64)
    grown = util.run_parallel(
        lambda lo: _grow_block(X, y, y_float, seeds[lo:lo + block], mtry),
        range(0, trees, block), jobs)
    return RandomForestModel(trees=[t for part in grown for t in part],
                             seed=seed, n_features=X.shape[1], mtry=mtry)


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
    """Refuse a loaded tree that `predict_proba` could not walk: a split on
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
