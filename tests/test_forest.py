"""From-scratch random forest: determinism, prediction, serialization."""

import struct

import numpy as np
import pytest

from clescreen.forest import (DEFAULT_TREES, load_forest, save_forest,
                              train_random_forest)


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

    def test_jobs_do_not_change_model(self, tmp_path):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(80, 6))
        y = (X[:, 0] + 0.3 * rng.normal(size=80) > 0).astype(int)
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
