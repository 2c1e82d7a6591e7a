"""Fold planning, metrics, ROC/AUC, and the cross-validation driver."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clescreen import evaluation
from clescreen.core import CARCINOGENIC, NORMAL, DatasetManifest
from clescreen.classify import augment_rotations
from clescreen.evaluation import (ConfigError, InsufficientPatients,
                                  RunConfig, confusion_metrics, lopo_folds,
                                  mann_whitney_auc, prepare_record_image,
                                  prepare_records, record_patch_coords,
                                  represent, results_csv, roc_auc, roc_csv,
                                  roc_points, run_cv, summary_dict)
from clescreen.features import (LbpConfig, glcm, haralick_features,
                                lbp_histogram)
from clescreen.patching import whiten_values
from clescreen.synth import SynthConfig, generate_dataset
from conftest import make_record


def auc_pair_oracle(labels, probs):
    """Exhaustive pair counting with 0.5 credit for ties."""
    pos = [p for p, l in zip(probs, labels) if l == 1]
    neg = [p for p, l in zip(probs, labels) if l == 0]
    wins = sum(1.0 if p > n else 0.5 if p == n else 0.0
               for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


def auc_loop(labels, probs):
    """Average-rank AUC with an explicit scan over tie groups."""
    labels = np.asarray(labels).astype(int)
    probs = np.asarray(probs, dtype=float)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    order = np.argsort(probs, kind="stable")
    sorted_probs = probs[order]
    ranks = np.empty(len(probs), dtype=float)
    i = 0
    while i < len(probs):
        j = i
        while j < len(probs) and sorted_probs[j] == sorted_probs[i]:
            j += 1
        ranks[order[i:j]] = 0.5 * (i + j - 1) + 1.0
        i = j
    rank_sum_pos = float(ranks[labels == 1].sum())
    u = rank_sum_pos - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def roc_loop(labels, probs):
    """ROC sweep with an explicit scan over tie groups."""
    labels = np.asarray(labels).astype(int)
    probs = np.asarray(probs, dtype=float)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    order = np.argsort(-probs, kind="stable")
    sl = labels[order]
    ss = probs[order]
    points = [(0.0, 0.0, float("inf"))]
    tp = fp = 0
    i = 0
    while i < len(ss):
        j = i
        while j < len(ss) and ss[j] == ss[i]:
            j += 1
        tp += int(sl[i:j].sum())
        fp += (j - i) - int(sl[i:j].sum())
        points.append((fp / n_neg, tp / n_pos, float(ss[i])))
        i = j
    return points


def trapezoid_area(points):
    area = 0.0
    for (x0, y0, _), (x1, y1, _) in zip(points, points[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return area


class TestLopoFolds:
    def _manifest(self, sizes):
        records = []
        for p, n in sizes.items():
            for f in range(n):
                records.append(make_record(
                    patient=p, frame=f,
                    label=CARCINOGENIC if f % 2 else NORMAL))
        return DatasetManifest(records=records, root_path=".")

    def test_twelve_patients_twelve_folds(self):
        man = self._manifest({f"p{i:02d}": 4 for i in range(12)})
        assert len(lopo_folds(man)) == 12

    def test_single_patient_rejected(self):
        with pytest.raises(InsufficientPatients):
            lopo_folds(self._manifest({"p0": 5}))

    def test_partition_oracle(self):
        # Test sides must partition the originals: disjoint and complete.
        man = self._manifest({"a": 5, "b": 7, "c": 9})
        records = man.records
        folds = lopo_folds(man)
        sizes = [len(f.test_idx) for f in folds]
        assert sorted(sizes) == [5, 7, 9]
        seen = []
        for fold in folds:
            for i in fold.test_idx:
                assert records[i].patient == fold.test_patient
                seen.append(records[i].key())
            for i in fold.train_idx:
                assert records[i].patient != fold.test_patient
        assert sorted(seen) == sorted(r.key() for r in man.records)

    def test_augmented_records_only_train(self):
        man = augment_rotations(self._manifest({"a": 3, "b": 3}), k=2, seed=1)
        records = man.records
        for fold in lopo_folds(man):
            assert not any(records[i].is_augmented for i in fold.test_idx)
            aug_train = [i for i in fold.train_idx if records[i].is_augmented]
            assert len(aug_train) == 6  # 3 originals x 2 copies, other patient


class TestConfusionMetrics:
    def test_constructed_counts(self):
        # Arithmetic oracle: TP=866 FN=134 TN=900 FP=100.
        labels = np.array([1] * 1000 + [0] * 1000)
        probs = np.concatenate([
            np.full(866, 0.9), np.full(134, 0.1),   # positives
            np.full(900, 0.1), np.full(100, 0.9),   # negatives
        ])
        acc, sens, spec = confusion_metrics(labels, probs, 0.5)
        assert sens == pytest.approx(0.866)
        assert spec == pytest.approx(0.900)
        assert acc == pytest.approx(0.883)

    def test_all_correct(self):
        labels = np.array([0, 0, 1, 1])
        probs = np.array([0.1, 0.2, 0.8, 0.9])
        assert confusion_metrics(labels, probs) == (1.0, 1.0, 1.0)

    def test_all_predicted_positive(self):
        labels = np.array([0, 1, 0, 1])
        probs = np.full(4, 0.9)
        acc, sens, spec = confusion_metrics(labels, probs)
        assert sens == 1.0 and spec == 0.0 and acc == 0.5

    def test_threshold_is_inclusive(self):
        labels = np.array([1, 0])
        probs = np.array([0.5, 0.4999])
        acc, sens, spec = confusion_metrics(labels, probs, 0.5)
        assert acc == 1.0

    def test_accuracy_identity(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 2, 200)
        probs = rng.uniform(size=200)
        acc, sens, spec = confusion_metrics(labels, probs, 0.37)
        n_pos = labels.sum()
        n_neg = 200 - n_pos
        assert acc == pytest.approx((sens * n_pos + spec * n_neg) / 200)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            confusion_metrics(np.array([]), np.array([]))


class TestRocAuc:
    def test_perfect_separation(self):
        labels = np.array([0, 0, 1, 1])
        probs = np.array([0.1, 0.2, 0.7, 0.9])
        _, auc = roc_auc(labels, probs)
        assert auc == 1.0

    def test_all_tied_is_half(self):
        labels = np.array([0, 1, 0, 1])
        probs = np.full(4, 0.5)
        _, auc = roc_auc(labels, probs)
        assert auc == 0.5

    def test_known_pair_count(self):
        # 3 of 4 pairs ordered correctly.
        labels = np.array([0, 0, 1, 1])
        probs = np.array([0.1, 0.4, 0.35, 0.8])
        _, auc = roc_auc(labels, probs)
        assert auc == pytest.approx(0.75)

    def test_endpoints(self):
        labels = np.array([0, 1, 1, 0, 1])
        probs = np.array([0.2, 0.3, 0.3, 0.8, 0.9])
        pts = roc_points(labels, probs)
        assert pts[0][:2] == (0.0, 0.0)
        assert pts[0][2] == float("inf")
        assert pts[-1][:2] == (1.0, 1.0)

    def test_sweep_equals_pair_count_with_ties(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(4, 40))
            labels = rng.integers(0, 2, n)
            if labels.sum() in (0, n):
                continue
            probs = rng.choice([0.1, 0.25, 0.5, 0.5, 0.8, 0.9], size=n)
            auc = mann_whitney_auc(labels, probs)
            assert auc == pytest.approx(auc_pair_oracle(labels, probs),
                                        abs=1e-9)
            assert trapezoid_area(roc_points(labels, probs)) == \
                pytest.approx(auc, abs=1e-9)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both classes"):
            roc_auc(np.array([1, 1]), np.array([0.5, 0.6]))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 4)),
                    min_size=0, max_size=40))
    def test_tie_groups_match_loop_scan(self, pairs):
        # Few distinct integer scores, so most groups are ties; both
        # classes always present.
        pairs = [(0, 2), (1, 2)] + pairs
        labels = np.array([label for label, _ in pairs])
        probs = np.array([float(score) for _, score in pairs])
        assert mann_whitney_auc(labels, probs) == auc_loop(labels, probs)
        assert roc_points(labels, probs) == roc_loop(labels, probs)


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("synthdata")
    config = SynthConfig(n_patients=4, images_per_patient=6, image_size=320,
                         class_mix=0.5, seed=9)
    return generate_dataset(config, out, jobs=2)


def patch_descriptor(patch, descriptor):
    """One patch's descriptor through the single-patch functions."""
    if isinstance(descriptor, LbpConfig):
        return np.concatenate([lbp_histogram(patch, r, p)
                               for r, p in descriptor.scales])
    return haralick_features(glcm(patch, descriptor))


class TestFeatureMatrix:
    def test_rows_match_patches_cut_from_raster(self, small_dataset):
        # Oracle: each row is the mean and deviation of the single-patch
        # descriptors of the admitted patches cut straight out of the
        # prepared raster.
        records = small_dataset.records[:3]
        for method in ("RF-LBP@0.5x", "RF-GLCM@0.5x"):
            config = RunConfig(method=method, jobs=2)
            prepared = prepare_records(small_dataset, records, config)
            matrix, owner = represent(prepared, config)
            assert matrix.shape == (3, len(config.descriptor.row_names()))
            assert owner.tolist() == [0, 1, 2]
            for rec, (img, coords), row in zip(records, prepared, matrix):
                assert coords == record_patch_coords(
                    *prepare_record_image(small_dataset, rec, 0.5), config)
                per_patch = np.stack([
                    patch_descriptor(
                        img.pixels[c.c3:c.c4, c.c1:c.c2].astype(np.float64),
                        config.descriptor)
                    for c in coords])
                assert np.array_equal(row, np.concatenate(
                    [per_patch.mean(axis=0), per_patch.std(axis=0)]))

    def test_ppf_rows_are_whitened_patches(self, small_dataset):
        # Oracle: one float32 row per admitted patch, whitened on its own,
        # grouped by record in record order.
        config = RunConfig(method="PPF@0.5x", jobs=1)
        prepared = prepare_records(small_dataset, small_dataset.records[:3],
                                   config)
        X, owner = represent(prepared, config)
        expected = [
            whiten_values(img.pixels[c.c3:c.c4, c.c1:c.c2])[0].ravel()
            for img, coords in prepared for c in coords]
        assert X.dtype == np.float32
        assert np.array_equal(X, np.stack(expected).astype(np.float32))
        assert owner.tolist() == [i for i, (_img, coords) in
                                  enumerate(prepared) for _c in coords]

    def test_wholeimage_builds_no_patch_grid(self, small_dataset):
        config = RunConfig(method="WHOLEIMAGE@0.55x", jobs=2)
        prepared = prepare_records(small_dataset, small_dataset.records[:3],
                                   config)
        assert [coords for _img, coords in prepared] == [[], [], []]
        X, owner = represent(prepared, config)
        assert X.shape == (3, config.target_size ** 2)
        assert X.dtype == np.float32
        assert owner.tolist() == [0, 1, 2]


class TestRunCv:
    def test_rf_lbp_report_structure_and_determinism(self, small_dataset):
        config = RunConfig(method="RF-LBP@0.5x", seed=5, trees=30, jobs=2)
        a = run_cv(small_dataset, config)
        b = run_cv(small_dataset, RunConfig(method="RF-LBP@0.5x", seed=5,
                                            trees=30, jobs=1))
        assert [r.p for r in a.results] == [r.p for r in b.results]
        assert a.n_images == 24
        keys = [(r.patient, r.sequence, r.frame) for r in a.results]
        assert len(set(keys)) == 24  # each original scored exactly once
        assert 0.0 <= a.auc <= 1.0
        assert a.patch_accuracy is None

    # RF-LBP is covered by test_rf_lbp_report_structure_and_determinism.
    @pytest.mark.parametrize("overrides", [
        {"method": "RF-GLCM@0.5x", "trees": 20},
        {"method": "PPF@0.5x", "epochs": 8},
        {"method": "PPF@0.5x", "patch_classifier": "forest", "trees": 12},
        {"method": "WHOLEIMAGE@0.55x", "epochs": 4,
         "wholeimage_baseline": True},
    ], ids=["rf-glcm", "ppf-logistic", "ppf-forest", "wholeimage"])
    def test_outputs_identical_across_jobs(self, small_dataset, overrides):
        outputs = []
        for jobs in (1, 2):
            report = run_cv(small_dataset,
                            RunConfig(seed=5, jobs=jobs, **overrides))
            outputs.append((results_csv(report), roc_csv(report),
                            json.dumps(summary_dict(report), sort_keys=True)))
        assert outputs[0] == outputs[1]

    def test_ppf_logistic_runs_and_audits(self, small_dataset):
        config = RunConfig(method="PPF@0.5x", seed=5, epochs=8, jobs=2)
        report = run_cv(small_dataset, config)
        assert report.patch_accuracy is not None
        assert 0.0 <= report.patch_accuracy <= 1.0
        for row in report.results:
            assert 0.0 <= row.p <= 1.0
        for audit in report.fold_audits:
            assert audit.n_augmented_in_test == 0
            assert audit.test_patient not in audit.train_patients
            for key in audit.train_keys:
                assert key[0] != audit.test_patient
            for key in audit.test_keys:
                assert key[3] is None  # originals only

    def test_ppf_forest_patch_classifier(self, small_dataset):
        config = RunConfig(method="PPF@0.5x", seed=5, trees=12,
                           patch_classifier="forest", jobs=2)
        report = run_cv(small_dataset, config)
        assert report.patch_accuracy is not None

    def test_wholeimage_refused_without_baseline(self, small_dataset):
        config = RunConfig(method="WHOLEIMAGE@0.55x", seed=5)
        with pytest.raises(ValueError, match="baseline"):
            run_cv(small_dataset, config)

    def test_wholeimage_baseline_runs(self, small_dataset):
        config = RunConfig(method="WHOLEIMAGE@0.55x", seed=5, epochs=4,
                           wholeimage_baseline=True, jobs=2)
        report = run_cv(small_dataset, config)
        assert report.n_images == 24
        assert report.patch_accuracy is None

    def test_unknown_method_rejected(self, small_dataset):
        with pytest.raises(ConfigError, match="unknown method"):
            run_cv(small_dataset, RunConfig(method="RF-XYZ@1.0x"))

    def test_single_patient_aborts(self, tmp_path):
        config = SynthConfig(n_patients=1, images_per_patient=4,
                             image_size=320, seed=3)
        manifest = generate_dataset(config, tmp_path)
        with pytest.raises(InsufficientPatients):
            run_cv(manifest, RunConfig(method="RF-LBP@0.5x", trees=4))

    def test_single_patient_fails_before_preparing(self, monkeypatch):
        # No frame is read: the records point at files that do not exist.
        manifest = DatasetManifest(
            records=[make_record(patient="p0", frame=f,
                                 label=CARCINOGENIC if f % 2 else NORMAL)
                     for f in range(6)],
            root_path="nowhere")
        prepared = []
        monkeypatch.setattr(evaluation, "prepare_records",
                            lambda *args: prepared.append(args))
        with pytest.raises(InsufficientPatients):
            run_cv(manifest, RunConfig(method="RF-LBP@0.5x", jobs=1))
        assert prepared == []

    def test_ppf_refused_when_memory_is_short(self, small_dataset,
                                              monkeypatch):
        # Refused after preparing and before the patch cache exists, with
        # the predicted need (cache + largest fold copy) and what is free.
        prepared = []
        real_prepare = evaluation.prepare_records
        monkeypatch.setattr(
            evaluation, "prepare_records",
            lambda *args: prepared.append(real_prepare(*args)) or prepared[0])
        monkeypatch.setattr(evaluation, "represent",
                            lambda *args: pytest.fail("cache allocated"))
        monkeypatch.setattr(evaluation, "mem_available", lambda: 3 << 20)
        with pytest.raises(ConfigError) as info:
            run_cv(small_dataset, RunConfig(method="PPF@0.5x", seed=5,
                                            jobs=1))
        n_patches = sum(len(coords) for _img, coords in prepared[0])
        cache_mib = n_patches * 80 * 80 * 4 // (1 << 20)
        message = str(info.value)
        assert f"patch cache {cache_mib} MiB" in message
        assert message.endswith("but only 3 MiB is available")

    def test_ppf_memory_check_arithmetic(self, monkeypatch):
        # Two records of 3 and 5 patches; the largest fold keeps both.
        prepared = [(None, [None] * 3), (None, [None] * 5)]
        kept = [np.array([1]), np.array([0, 1])]
        config = RunConfig(method="PPF@0.5x", patch_size=512)
        need = (8 + 8) * 512 * 512 * 4  # 16 MiB
        for available, refused in ((need, False), (need - 1, True),
                                   (None, False)):
            monkeypatch.setattr(evaluation, "mem_available",
                                lambda: available)
            if refused:
                with pytest.raises(ConfigError,
                                   match=r"needs about 16 MiB \(patch cache "
                                         r"8 MiB \+ largest fold copy 8 "
                                         r"MiB\) but only 15 MiB"):
                    evaluation._check_ppf_memory(prepared, kept, config)
            else:
                evaluation._check_ppf_memory(prepared, kept, config)
        # A forest fold holds X[rows], its float64 copy and the float64
        # bootstrap resample (5x the float32 rows), and min(jobs, folds)
        # forest folds run at once.
        for jobs, folds, need_mib in ((4, 2, 8 + 2 * 5 * 8),
                                      (1, 1, 8 + 5 * 8)):
            config = RunConfig(method="PPF@0.5x", patch_size=512,
                               patch_classifier="forest", jobs=jobs)
            need = need_mib << 20
            monkeypatch.setattr(evaluation, "mem_available", lambda: need)
            evaluation._check_ppf_memory(prepared, kept, config)
            monkeypatch.setattr(evaluation, "mem_available",
                                lambda: need - 1)
            with pytest.raises(ConfigError,
                               match=rf"needs about {need_mib} MiB \(patch "
                                     rf"cache 8 MiB \+ {folds} forest fold "
                                     rf"copies {need_mib - 8} MiB\) but only "
                                     rf"{need_mib - 1} MiB"):
                evaluation._check_ppf_memory(prepared, kept, config)

    def test_rf_runs_one_record_pass_and_one_fold_pass(self, small_dataset,
                                                       monkeypatch):
        # Frames are prepared and described in the same workers, and the
        # folds are fitted in the second pool: the parent maps exactly
        # twice, over the 72 records and over the 4 folds.
        calls = []
        real = evaluation.run_parallel

        def counting(fn, items, jobs):
            calls.append((len(items), jobs))
            return real(fn, items, jobs)

        monkeypatch.setattr(evaluation, "run_parallel", counting)
        for method in ("RF-LBP@0.5x", "RF-GLCM@0.5x"):
            calls.clear()
            run_cv(small_dataset, RunConfig(method=method, seed=5, trees=6,
                                            jobs=2))
            assert calls == [(72, 2), (4, 2)]

    @pytest.mark.parametrize("method", ["RF-LBP@0.5x", "PPF@0.5x",
                                        "WHOLEIMAGE@0.55x"])
    def test_single_patient_reads_no_frame(self, monkeypatch, method):
        manifest = DatasetManifest(
            records=[make_record(patient="p0", frame=f,
                                 label=CARCINOGENIC if f % 2 else NORMAL)
                     for f in range(6)],
            root_path="nowhere")
        read = []
        monkeypatch.setattr(evaluation, "prepare_record_image",
                            lambda *args: read.append(args))
        with pytest.raises(InsufficientPatients):
            run_cv(manifest, RunConfig(method=method, jobs=2,
                                       wholeimage_baseline=True))
        assert read == []

    def test_balancing_decisions_recorded(self, small_dataset):
        config = RunConfig(method="RF-LBP@0.5x", seed=5, trees=10, jobs=2)
        report = run_cv(small_dataset, config)
        for audit in report.fold_audits:
            # mix 0.5 on even counts: folds may already be balanced, but
            # any removal must be an augmented row of a train patient
            for key in audit.balancing_removed:
                assert key[0] != audit.test_patient
