"""Rotation augmentation, class balancing, and the logistic baseline."""

import tracemalloc
import warnings

import numpy as np
import pytest

from clescreen.classify import (LogisticModel, augment_rotations,
                                balance_classes, logistic_loss_grad,
                                logistic_working_bytes, sample_space,
                                train_logistic, train_logistic_folds)
from clescreen.core import CARCINOGENIC, NORMAL, DatasetManifest
from conftest import make_record


def manifest_of(records):
    return DatasetManifest(records=records, root_path=".")


class TestAugmentRotations:
    def _originals(self, n=10):
        return manifest_of([
            make_record(frame=i,
                        label=CARCINOGENIC if i % 2 else NORMAL)
            for i in range(n)])

    def test_k_zero_unchanged(self):
        man = self._originals()
        out = augment_rotations(man, k=0, seed=1)
        assert out.records == man.records

    def test_two_fold_counts(self):
        out = augment_rotations(self._originals(10), k=2, seed=1)
        assert len(out.records) == 30
        assert sum(r.is_augmented for r in out.records) == 20

    def test_lineage_and_angle_range(self):
        out = augment_rotations(self._originals(4), k=2, seed=1)
        for rec in out.records:
            if rec.is_augmented:
                assert rec.augmented_from == rec.frame
                assert 0.0 <= rec.rotation_deg < 360.0
            else:
                assert rec.rotation_deg is None

    def test_same_seed_identical_angles(self):
        a = augment_rotations(self._originals(), k=2, seed=9)
        b = augment_rotations(self._originals(), k=2, seed=9)
        assert [r.rotation_deg for r in a.records] == \
            [r.rotation_deg for r in b.records]

    def test_different_seed_differs(self):
        a = augment_rotations(self._originals(), k=2, seed=9)
        b = augment_rotations(self._originals(), k=2, seed=10)
        assert [r.rotation_deg for r in a.records] != \
            [r.rotation_deg for r in b.records]

    def test_angles_independent_of_record_order(self):
        records = self._originals(6).records
        a = augment_rotations(manifest_of(records), k=1, seed=3)
        b = augment_rotations(manifest_of(records[::-1]), k=1, seed=3)
        angles_a = {(r.patient, r.frame): r.rotation_deg
                    for r in a.records if r.is_augmented}
        angles_b = {(r.patient, r.frame): r.rotation_deg
                    for r in b.records if r.is_augmented}
        assert angles_a == angles_b

    def test_augmented_input_rejected(self):
        man = augment_rotations(self._originals(), k=1, seed=1)
        with pytest.raises(ValueError, match="originals"):
            augment_rotations(man, k=1, seed=1)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            augment_rotations(self._originals(), k=-1, seed=1)


def _train_set(n0_orig, n0_aug, n1_orig, n1_aug=0):
    """Row-aligned (labels, augmented flags), class 0 rows first."""
    labels, augmented = [], []
    for label, n, aug in ((0, n0_orig, False), (0, n0_aug, True),
                          (1, n1_orig, False), (1, n1_aug, True)):
        labels += [label] * n
        augmented += [aug] * n
    return np.array(labels), np.array(augmented)


class TestBalanceClasses:
    def test_already_balanced_unchanged(self):
        labels, augmented = _train_set(3, 0, 3)
        kept = balance_classes(labels, augmented, seed=1)
        assert np.array_equal(kept, np.arange(6))

    def test_removes_augmented_majority_first(self):
        # class0: 4 originals + 6 augmented vs class1: 7 -> drop 3
        # augmented class-0 rows.
        labels, augmented = _train_set(4, 6, 7)
        kept = balance_classes(labels, augmented, seed=1)
        n0 = int((labels[kept] == 0).sum())
        n1 = int((labels[kept] == 1).sum())
        assert n0 == n1 == 7
        kept0 = kept[labels[kept] == 0]
        assert int((~augmented[kept0]).sum()) == 4  # originals intact

    def test_last_resort_removes_originals_with_warning(self):
        # class0: 10 originals + 1 augmented vs class1: 5 -> drop the one
        # augmented row plus 4 originals.
        labels, augmented = _train_set(10, 1, 5)
        with pytest.warns(UserWarning, match="exhausted"):
            kept = balance_classes(labels, augmented, seed=1)
        n0 = int((labels[kept] == 0).sum())
        n1 = int((labels[kept] == 1).sum())
        assert n0 == n1 == 5
        kept0 = kept[labels[kept] == 0]
        assert not augmented[kept0].any()

    def test_single_class_rejected(self):
        labels, augmented = _train_set(4, 0, 0)
        with pytest.raises(ValueError, match="both classes"):
            balance_classes(labels, augmented, seed=1)

    def test_only_removes_rows(self):
        labels, augmented = _train_set(5, 5, 7)
        kept = balance_classes(labels, augmented, seed=2)
        assert np.all(np.diff(kept) > 0)  # ascending, no row twice
        assert kept.min() >= 0 and kept.max() < len(labels)

    def test_deterministic_given_seed(self):
        labels, augmented = _train_set(4, 6, 7)
        a = balance_classes(labels, augmented, seed=5)
        b = balance_classes(labels, augmented, seed=5)
        assert np.array_equal(a, b)
        # Pinned draws: a change here changes every fold's training rows.
        assert balance_classes(labels, augmented, seed=1).tolist() == \
            [0, 1, 2, 3, 5, 7, 9, 10, 11, 12, 13, 14, 15, 16]

    def test_alignment_validated(self):
        with pytest.raises(ValueError, match="align"):
            balance_classes(np.zeros(3), np.zeros(2, dtype=bool))


def numeric_gradient(w, b, X, y, l2, eps=1e-6):
    """Central finite differences on the loss."""
    def loss_at(wv, bv):
        return logistic_loss_grad(wv, bv, X, y, l2)[0]

    gw = np.zeros_like(w)
    for i in range(len(w)):
        up, dn = w.copy(), w.copy()
        up[i] += eps
        dn[i] -= eps
        gw[i] = (loss_at(up, b) - loss_at(dn, b)) / (2 * eps)
    gb = (loss_at(w, b + eps) - loss_at(w, b - eps)) / (2 * eps)
    return gw, gb


class TestLogistic:
    def test_zero_weights_posterior_half(self):
        model = LogisticModel(weights=np.zeros(4), bias=0.0,
                              losses=np.array([]))
        rng = np.random.default_rng(1)
        probs = model.predict_proba(rng.normal(size=(10, 4)))
        assert np.all(probs == 0.5)

    def test_two_gaussian_toy_accuracy(self):
        # Bayes-boundary oracle: classes at +/- mu with unit covariance;
        # the optimal boundary is x0 = 0 and its accuracy is known to be
        # far above 0.9 at this separation.
        rng = np.random.default_rng(2)
        n = 300
        X0 = rng.normal(loc=(-1.6, 0.0), size=(n, 2))
        X1 = rng.normal(loc=(+1.6, 0.0), size=(n, 2))
        X = np.vstack([X0, X1])
        y = np.concatenate([np.zeros(n), np.ones(n)])
        model = train_logistic(X, y, epochs=300, rate=0.5)
        acc = np.mean((model.predict_proba(X)[:, 1] >= 0.5) == y)
        assert acc >= 0.9

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n, d = 12, 5
            X = rng.normal(size=(n, d))
            y = rng.integers(0, 2, n).astype(float)
            w = rng.normal(size=d)
            b = float(rng.normal())
            l2 = float(rng.uniform(0, 0.1))
            _, gw, gb = logistic_loss_grad(w, b, X, y, l2)
            nw, nb = numeric_gradient(w, b, X, y, l2)
            denom = max(np.max(np.abs(nw)), abs(nb), 1e-8)
            assert np.max(np.abs(gw - nw)) / denom < 1e-5
            assert abs(gb - nb) / denom < 1e-5

    def test_loss_decreases_monotonically_small_rate(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(60, 3))
        y = (X[:, 0] > 0).astype(float)
        model = train_logistic(X, y, epochs=50, rate=0.05)
        assert np.all(np.diff(model.losses) <= 1e-12)

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_non_finite_loss_raises(self):
        X = np.array([[np.nan, 1.0]])
        with pytest.raises(FloatingPointError, match="non-finite"):
            train_logistic(X, np.array([1.0]), epochs=2, rate=0.1)

    def test_posterior_pairs_sum_to_one(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(40, 4))
        y = (X[:, 1] > 0).astype(float)
        model = train_logistic(X, y, epochs=20, rate=0.3)
        probs = model.predict_proba(rng.normal(size=(16, 4)))
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_dimension_mismatch(self):
        model = LogisticModel(weights=np.zeros(4), bias=0.0,
                              losses=np.array([]))
        with pytest.raises(ValueError, match="features"):
            model.predict_proba(np.zeros((2, 3)))


def _folds_of(rng, n, k=3):
    """`k` random ascending row subsets of two thirds of `n` rows."""
    return [np.sort(rng.choice(n, 2 * n // 3, replace=False))
            for _ in range(k)]


def frozen_fold_loop(X, y, fold_rows, epochs, rate, l2):
    """The per-fold descent that `train_logistic_folds` replaced, kept as
    its oracle: each fold descends in pixel space on its own `X[rows]`
    copy, one `logistic_loss_grad` per epoch.  Returns (weights, bias,
    loss trace) per fold."""
    out = []
    for rows in fold_rows:
        X_f, y_f = X[rows], y[rows]
        w = np.zeros(X.shape[1], dtype=np.float64)
        b = 0.0
        losses = np.empty(epochs + 1, dtype=np.float64)
        for e in range(epochs + 1):
            loss, gw, gb = logistic_loss_grad(w, b, X_f, y_f, l2)
            losses[e] = loss
            if e < epochs:
                w -= rate * gw
                b -= rate * gb
        out.append((w, b, losses))
    return out


class TestLogisticFolds:
    def test_space_chosen_from_shape(self):
        assert sample_space((5, 6))
        assert not sample_space((6, 6))
        assert not sample_space((7, 6))

    def assert_matches_fold_loop(self, shapes, seed, epochs, rate, l2):
        # The joint descent is the per-fold loop up to float32
        # reassociation: its masked sums and matrix-matrix products add
        # in another order, and the sample-space form reaches the
        # logits through the Gram matrix.
        rng = np.random.default_rng(seed)
        for n, d in shapes:
            X = rng.normal(size=(n, d)).astype(np.float32)
            y = (X[:, 0] + rng.normal(size=n) > 0).astype(np.float32)
            folds = _folds_of(rng, n)
            models = train_logistic_folds(X, y, folds, epochs=epochs,
                                          rate=rate, l2=l2)
            oracle = frozen_fold_loop(X, y, folds, epochs, rate, l2)
            for model, (w, b, losses) in zip(models, oracle):
                assert np.allclose(model.losses, losses, rtol=0, atol=1e-6)
                assert np.abs(model.weights - w).max() \
                    <= 1e-5 * np.abs(w).max()
                assert abs(model.bias - b) <= 1e-6
                ref = LogisticModel(weights=w, bias=b, losses=losses)
                assert np.allclose(model.predict_proba(X),
                                   ref.predict_proba(X), rtol=0, atol=1e-6)

    def test_sample_space_matches_pixel_space(self):
        # Fewer rows than columns: the Gram-matrix descent.
        self.assert_matches_fold_loop(((40, 300), (90, 91)), seed=6,
                                      epochs=30, rate=0.02, l2=0.05)

    def test_pixel_space_matches_fold_loop(self):
        # At least as many rows as columns: the descent over X itself.
        self.assert_matches_fold_loop(((50, 50), (80, 6), (300, 40)),
                                      seed=7, epochs=12, rate=0.1, l2=1e-3)

    @pytest.mark.parametrize("shape", [(20, 60), (60, 20)])
    def test_train_logistic_is_the_one_fold_case(self, shape):
        rng = np.random.default_rng(10)
        X = rng.normal(size=shape).astype(np.float32)
        y = (X[:, 0] > 0).astype(np.float32)
        model = train_logistic(X, y, epochs=8, rate=0.1, l2=1e-3)
        (fold,) = train_logistic_folds(X, y, [np.arange(shape[0])],
                                       epochs=8, rate=0.1, l2=1e-3)
        assert np.array_equal(model.losses, fold.losses)
        assert np.array_equal(model.weights, fold.weights)
        assert model.bias == fold.bias

    def test_sample_space_weights_span_fold_rows(self):
        # Rows outside the fold take no part: changing them changes
        # nothing but G's unused entries.
        rng = np.random.default_rng(8)
        X = rng.normal(size=(30, 100)).astype(np.float32)
        y = (X[:, 1] > 0).astype(np.float32)
        rows = np.arange(0, 30, 2)
        model = train_logistic_folds(X, y, [rows], epochs=5, rate=0.05)[0]
        X2 = X.copy()
        X2[1::2] = rng.normal(size=(15, 100))
        other = train_logistic_folds(X2, y, [rows], epochs=5, rate=0.05)[0]
        assert np.allclose(model.weights, other.weights, rtol=0, atol=1e-6)
        assert np.allclose(model.losses, other.losses, rtol=0, atol=1e-6)

    def test_pixel_space_ignores_rows_outside_every_fold(self):
        # Outside every fold a row's mask is 0, so its error is exactly 0
        # and it adds exact zeros to the loss and gradient sums.
        rng = np.random.default_rng(11)
        X = rng.normal(size=(60, 20)).astype(np.float32)
        y = (X[:, 1] > 0).astype(np.float32)
        folds = [np.arange(0, 40, 2), np.arange(1, 40, 2)]
        models = train_logistic_folds(X, y, folds, epochs=5, rate=0.05)
        X2, y2 = X.copy(), y.copy()
        X2[40:] = 100 * rng.normal(size=(20, 20))
        y2[40:] = 1 - y2[40:]
        others = train_logistic_folds(X2, y2, folds, epochs=5, rate=0.05)
        for model, other in zip(models, others):
            assert np.array_equal(model.weights, other.weights)
            assert np.array_equal(model.losses, other.losses)
            assert model.bias == other.bias

    def test_overflowing_rows_stay_out_of_other_folds(self):
        # Rows outside every fold, finite but near the float32 limit,
        # overflow the logits (0 x inf before masking); the folds train
        # bit for bit as without them, and numpy warns of nothing.
        rng = np.random.default_rng(11)
        X = rng.normal(size=(60, 20)).astype(np.float32)
        y = (X[:, 1] > 0).astype(np.float32)
        folds = [np.arange(0, 40, 2), np.arange(1, 40, 2)]
        models = train_logistic_folds(X, y, folds, epochs=5, rate=0.5)
        X2 = X.copy()
        X2[40:] = np.float32(3e38) * np.sign(rng.normal(size=(20, 20)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            others = train_logistic_folds(X2, y, folds, epochs=5, rate=0.5)
        for model, other in zip(models, others):
            assert np.array_equal(model.weights, other.weights)
            assert np.array_equal(model.losses, other.losses)
            assert model.bias == other.bias

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape, folds", [
        ((400, 3000), 4), ((3000, 400), 4), ((64, 5000), 12),
        ((5000, 64), 12)])
    def test_working_bytes_bound_allocations(self, shape, folds, dtype):
        # The closed form the memory check uses covers the tracemalloc
        # peak of training, in both spaces.
        rng = np.random.default_rng(13)
        X = rng.normal(size=shape).astype(dtype)
        y = (X[:, 0] > 0).astype(dtype)
        fold_rows = _folds_of(rng, shape[0], folds)
        tracemalloc.start()
        try:
            train_logistic_folds(X, y, fold_rows, epochs=3, rate=0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= logistic_working_bytes(shape, folds, dtype)

    @pytest.mark.parametrize("shape", [(20, 60), (60, 20)])
    def test_diverging_rate_raises_in_both_spaces(self, shape):
        rng = np.random.default_rng(9)
        X = rng.normal(size=shape).astype(np.float32)
        y = (X[:, 0] > 0).astype(np.float32)
        with pytest.raises(FloatingPointError, match="non-finite.*rate=1e"):
            train_logistic_folds(X, y, [np.arange(shape[0])], epochs=10,
                                 rate=1e30, l2=1e-3)

    @pytest.mark.parametrize("shape", [(20, 60), (60, 20)])
    def test_divergence_names_its_fold(self, shape):
        # Fold 1 alone holds rows 1e15 times larger, so at this rate only
        # its logits overflow; fold 0's loss stays finite.
        rng = np.random.default_rng(12)
        n = shape[0]
        X = rng.normal(size=shape).astype(np.float32)
        X[n // 2:] *= 1e15
        y = (X[:, 0] > 0).astype(np.float32)
        with pytest.raises(FloatingPointError,
                           match=r"non-finite loss \S+ at epoch \d+ in fold "
                                 r"1 \(rate=1"):
            train_logistic_folds(X, y, [np.arange(n // 2), np.arange(n)],
                                 epochs=10, rate=1e10, l2=1e-3)

    @pytest.mark.parametrize("shape, scale, row", [
        ((20, 60), 1e20, 10), ((60, 20), np.inf, 30)])
    def test_non_finite_row_names_its_folds(self, shape, scale, row):
        # The second half of the rows is scaled so that A (X @ X.T in
        # sample space, X in pixel space) has non-finite rows; only fold 1
        # holds them.  The error names the first such row and fold 1 alone,
        # before any epoch and without a numpy warning.
        rng = np.random.default_rng(12)
        n = shape[0]
        X = rng.normal(size=shape).astype(np.float32)
        X[n // 2:] *= np.float32(scale)
        y = (X[:, 0] > 0).astype(np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError,
                               match=rf"non-finite row {row} of .*, held by "
                                     rf"folds \[1\]$"):
                train_logistic_folds(X, y, [np.arange(n // 2), np.arange(n)],
                                     epochs=3, rate=0.1)
