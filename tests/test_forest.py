"""From-scratch random forest: determinism, prediction, serialization."""

import struct

import numpy as np
import pytest

from clescreen import forest
from clescreen.forest import (DEFAULT_TREES, DecisionTree, RandomForestModel,
                              load_forest, save_forest, train_random_forest)


def separable_1d(n_per_class=50, seed=0):
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(-2.0, -0.1, n_per_class)
    x1 = rng.uniform(0.1, 2.0, n_per_class)
    X = np.concatenate([x0, x1])[:, None]
    y = np.concatenate([np.zeros(n_per_class, int), np.ones(n_per_class, int)])
    return X, y


@pytest.fixture(scope="module")
def separable_model():
    X, y = separable_1d()
    return X, y, train_random_forest(X, y, trees=DEFAULT_TREES, seed=7)


class TestTraining:
    def test_separable_training_accuracy_is_one(self, separable_model):
        X, y, model = separable_model
        pred = model.predict_proba(X)[:, 1] >= 0.5
        assert np.array_equal(pred.astype(int), y)

    def test_vote_fraction_deep_in_class0(self, separable_model):
        _X, _y, model = separable_model
        assert model.predict_proba(np.array([-1.0]))[0, 0] >= 0.95

    def test_unanimous_vote_far_in_class1(self, separable_model):
        _X, _y, model = separable_model
        assert model.predict_proba(np.array([5.0]))[0].tolist() == [0.0, 1.0]

    def test_same_seed_bit_identical(self, tmp_path):
        X, y = separable_1d(seed=3)
        a = train_random_forest(X, y, trees=24, seed=11)
        b = train_random_forest(X, y, trees=24, seed=11)
        pa, pb = tmp_path / "a.clef", tmp_path / "b.clef"
        save_forest(a, pa)
        save_forest(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_distinct_seeds_differ(self):
        X, y = separable_1d(seed=3)
        a = train_random_forest(X, y, trees=8, seed=1)
        b = train_random_forest(X, y, trees=8, seed=2)
        assert any(not np.array_equal(ta.threshold, tb.threshold)
                   for ta, tb in zip(a.trees, b.trees))

    def test_jobs_do_not_change_model(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(80, 6))
        y = (X[:, 0] + 0.3 * rng.normal(size=80) > 0).astype(int)
        # Blocks of three trees (80 rows x 2 candidates each), so that two
        # workers share six blocks.
        monkeypatch.setattr(forest, "_SPLIT_BLOCK_VALUES", 3 * 80 * 2)
        a = train_random_forest(X, y, trees=16, seed=4, jobs=1)
        b = train_random_forest(X, y, trees=16, seed=4, jobs=2)
        pa, pb = tmp_path / "a.clef", tmp_path / "b.clef"
        save_forest(a, pa)
        save_forest(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_single_class_rejected(self):
        X = np.zeros((10, 2))
        with pytest.raises(ValueError, match="per class"):
            train_random_forest(X, np.ones(10, int), trees=4)

    def test_mtry_defaults_to_sqrt(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(30, 108))
        y = (X[:, 0] > 0).astype(int)
        model = train_random_forest(X, y, trees=2, seed=0)
        assert model.mtry == 10

    def test_noisy_labels_give_calibrated_leaves(self):
        # Duplicate rows with mixed labels: no split separates them, so
        # leaves keep mixed counts and probabilities stay interior.
        X = np.zeros((40, 3))
        y = np.array([0, 1] * 20)
        model = train_random_forest(X, y, trees=32, seed=9)
        p = model.predict_proba(np.zeros((1, 3)))[0, 1]
        assert 0.2 < p < 0.8


class TestPrediction:
    def test_pairs_sum_to_one(self, separable_model):
        _X, _y, model = separable_model
        rng = np.random.default_rng(8)
        probs = model.predict_proba(rng.uniform(-3, 3, (50, 1)))
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert np.all(probs >= 0.0) and np.all(probs <= 1.0)

    def test_tree_order_invariance(self, separable_model):
        _X, _y, model = separable_model
        import dataclasses
        shuffled = dataclasses.replace(model, trees=model.trees[::-1])
        q = np.random.default_rng(9).uniform(-2, 2, (20, 1))
        assert np.allclose(model.predict_proba(q), shuffled.predict_proba(q))

    def test_removing_tree_bounded_shift(self, separable_model):
        # Averaging bound oracle: dropping one of T trees moves the mean
        # by at most 1/T.
        import dataclasses
        _X, _y, model = separable_model
        q = np.random.default_rng(10).uniform(-2, 2, (30, 1))
        base = model.predict_proba(q)[:, 1]
        t = model.n_trees
        for k in (0, t // 2, t - 1):
            reduced = dataclasses.replace(
                model, trees=model.trees[:k] + model.trees[k + 1:])
            delta = np.abs(reduced.predict_proba(q)[:, 1] - base)
            assert np.all(delta <= 1.0 / t + 1e-12)

    def test_dimension_mismatch(self, separable_model):
        _X, _y, model = separable_model
        with pytest.raises(ValueError, match="features"):
            model.predict_proba(np.zeros((3, 2)))


class TestSerialization:
    def test_round_trip(self, tmp_path):
        X, y = separable_1d(seed=12)
        model = train_random_forest(X, y, trees=12, seed=5)
        path = tmp_path / "m.clef"
        save_forest(model, path)
        assert path.read_bytes()[:4] == b"CLEF"
        loaded = load_forest(path)
        assert loaded.seed == model.seed
        assert loaded.n_trees == model.n_trees
        assert loaded.mtry == model.mtry
        for ta, tb in zip(model.trees, loaded.trees):
            assert np.array_equal(ta.feature, tb.feature)
            assert np.array_equal(ta.threshold, tb.threshold)
            assert np.array_equal(ta.counts, tb.counts)
        q = np.random.default_rng(13).uniform(-2, 2, (20, 1))
        assert np.array_equal(model.predict_proba(q), loaded.predict_proba(q))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "notamodel"
        path.write_bytes(b"NOPE" + bytes(32))
        with pytest.raises(ValueError, match="magic"):
            load_forest(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        X, y = separable_1d(seed=14)
        model = train_random_forest(X, y, trees=2, seed=5)
        path = tmp_path / "m.clef"
        save_forest(model, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match="trailing"):
            load_forest(path)

    def test_truncated_file_rejected(self, tmp_path):
        # Cuts inside the header, a node count, and a node array.
        X, y = separable_1d(seed=14)
        model = train_random_forest(X, y, trees=2, seed=5)
        path = tmp_path / "m.clef"
        save_forest(model, path)
        data = path.read_bytes()
        for cut in (6, 31, 34, 40, len(data) - 1):
            path.write_bytes(data[:cut])
            with pytest.raises(ValueError, match="truncated .* at offset"):
                load_forest(path)

    @pytest.mark.parametrize("field, node, fmt, value, match", [
        ("feature", 0, "<i", 1, "node 0"),  # the model has one feature
        ("feature", 0, "<i", -2, "node 0"),
        ("threshold", 0, "<d", float("nan"), "node 0"),
        ("left", 0, "<i", 0, "node 0"),  # a cycle: predict would not end
        ("right", 0, "<i", 10 ** 6, "node 0"),
        ("counts", 1, "<qq", (0, 0), "node 1"),  # a leaf with no rows
        ("counts", 0, "<qq", (-1, 3), "node 0"),
        ("n_trees", None, "<I", 0, "no trees"),
    ])
    def test_unwalkable_tree_rejected(self, tmp_path, field, node, fmt,
                                      value, match):
        # One tree on separable data: a root split with two leaves, each
        # node's fields at their offsets in the container.
        X, y = separable_1d(seed=14)
        model = train_random_forest(X, y, trees=1, seed=5)
        assert model.trees[0].feature[0] == 0 and model.trees[0].n_nodes == 3
        path = tmp_path / "m.clef"
        save_forest(model, path)
        data = bytearray(path.read_bytes())
        n = 3
        start = {"feature": 36, "threshold": 36 + 4 * n,
                 "left": 36 + 12 * n, "right": 36 + 16 * n,
                 "counts": 36 + 20 * n}
        if field == "n_trees":
            struct.pack_into(fmt, data, 16, value)
            data = data[:32]
        else:
            size = struct.calcsize(fmt)
            values = value if isinstance(value, tuple) else (value,)
            struct.pack_into(fmt, data, start[field] + node * size, *values)
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match=match):
            load_forest(path)


# ---------------------------------------------------------------------------
# Oracle: the one-tree-at-a-time grower and per-tree predictor, frozen
# ---------------------------------------------------------------------------


def _oracle_best_split(X, y_float, rows, perm, mtry):
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
        score = (nL - (n0L ** 2 + n1L ** 2) / nL) \
            + (nR - (n0R ** 2 + n1R ** 2) / nR)
        score = np.where(sv[1:] > sv[:-1], score, np.inf)
        i, j = np.unravel_index(np.argmin(score), score.shape)
        if score[i, j] < best_score:
            best_score = float(score[i, j])
            a, b = sv[i, j], sv[i + 1, j]
            thr = 0.5 * (a + b)
            if thr >= b:
                thr = a
            best = (int(cand[j]), float(thr))
    return best


def _oracle_tree(X, y, seed, mtry):
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
        split = _oracle_best_split(X, y_float, rows, perm, mtry)
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
    return DecisionTree(np.asarray(feature, dtype=np.int32),
                        np.asarray(threshold, dtype=np.float64),
                        np.asarray(left, dtype=np.int32),
                        np.asarray(right, dtype=np.int32),
                        np.asarray(counts, dtype=np.int64))


def _oracle_forest(X, y, trees, seed, mtry):
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    return RandomForestModel(
        trees=[_oracle_tree(X, y, seed ^ t, mtry) for t in range(trees)],
        seed=seed, n_features=X.shape[1], mtry=mtry)


def _oracle_predict_p1(model, X):
    acc = np.zeros(len(X), dtype=np.float64)
    for tree in model.trees:
        node = np.zeros(len(X), dtype=np.int32)
        while True:
            f = tree.feature[node]
            rows = np.nonzero(f >= 0)[0]
            if rows.size == 0:
                break
            at = node[rows]
            go_left = X[rows, f[rows]] <= tree.threshold[at]
            node[rows] = np.where(go_left, tree.left[at], tree.right[at])
        c = tree.counts[node]
        acc += c[:, 1] / c.sum(axis=1)
    return acc / model.n_trees


def _oracle_case(rng, n):
    """Rows with ties, duplicate rows, signed zeros, constant columns and
    adjacent floats, and labels with at least two rows per class."""
    d = int(rng.integers(1, 12))
    X = rng.integers(-2, int(rng.integers(1, 5)), size=(n, d)) * 0.5
    X[rng.random((n, d)) < 0.1] = -0.0
    X[:, rng.random(d) < 0.3] = 1.5
    dup = rng.random(n) < 0.2
    X[dup] = X[0]
    X += rng.normal(size=(n, d)) * (rng.random(d) < 0.3)
    # Adjacent floats whose midpoint rounds up onto the upper one.
    low = np.nextafter(1.0, 2.0)
    X[:, rng.integers(d)] = np.where(rng.random(n) < 0.5, low,
                                     np.nextafter(low, 2.0))
    y = rng.integers(0, 2, n)
    y[:2], y[2:4] = 0, 1
    # mtry below, at and above the number of non-constant columns.
    varying = int((X.min(axis=0) < X.max(axis=0)).sum())
    mtry = int(rng.choice([1, max(1, varying), varying + 2, d]))
    return X, y, mtry


class TestOracle:
    """The batched split search and the packed prediction against the
    frozen per-tree grower: equal CLEF bytes and equal posteriors."""

    @pytest.mark.parametrize("block", ["one", "some", "all"])
    def test_forests_equal_oracle(self, tmp_path, monkeypatch, block):
        rng = np.random.default_rng({"one": 1, "some": 2, "all": 3}[block])
        for n in (4, 5, 9, 30, 77, 300):
            X, y, mtry = _oracle_case(rng, n)
            trees = int(rng.integers(1, 12))
            per_tree = n * min(mtry, X.shape[1])
            monkeypatch.setattr(forest, "_SPLIT_BLOCK_VALUES", {
                "one": per_tree, "some": 3 * per_tree,
                "all": trees * per_tree}[block])
            seed = int(rng.integers(0, 2 ** 63))
            got = train_random_forest(X, y, trees=trees, seed=seed,
                                      mtry=mtry, jobs=1)
            want = _oracle_forest(X, y, trees, seed, mtry)
            save_forest(got, tmp_path / "got.clef")
            save_forest(want, tmp_path / "want.clef")
            assert ((tmp_path / "got.clef").read_bytes()
                    == (tmp_path / "want.clef").read_bytes()), (n, mtry)
            q = np.concatenate([X, rng.integers(-2, 4, X.shape) * 0.5])
            assert np.array_equal(got.predict_proba(q)[:, 1],
                                  _oracle_predict_p1(want, q))

    def test_predict_over_several_row_blocks(self):
        rng = np.random.default_rng(4)
        X, y, mtry = _oracle_case(rng, 60)
        model = train_random_forest(X, y, trees=7, seed=5, mtry=mtry)
        rows = 2 * (forest._PREDICT_BLOCK_PAIRS // model.n_trees) + 3
        q = rng.integers(-2, 4, (rows, X.shape[1])) * 0.5
        assert np.array_equal(model.predict_proba(q)[:, 1],
                              _oracle_predict_p1(model, q))
