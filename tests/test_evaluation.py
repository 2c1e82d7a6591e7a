"""Fold planning, metrics, ROC/AUC, and the cross-validation driver."""

import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from clescreen import core, evaluation, features, util, wholeimage
from clescreen.core import (CARCINOGENIC, NORMAL, ArtifactRect, CleImage,
                            DatasetManifest)
from clescreen.classify import augment_rotations
from clescreen.evaluation import (METHODS, ConfigError,
                                  InsufficientPatients, RunConfig,
                                  confusion_metrics,
                                  describe_records, lopo_folds,
                                  plan_records,
                                  prepare_record_image, record_patch_coords,
                                  results_csv, roc_auc, roc_csv,
                                  run_cv, summary_dict)
from clescreen.features import (GlcmConfig, LbpConfig, glcm,
                                haralick_features, lbp_histogram)
from clescreen.patching import patch_grid, resize_half, whiten_values
from clescreen.synth import SynthConfig, generate_dataset
from clescreen.wholeimage import rotate
from conftest import fit_options, make_record


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


def frozen_average_rank_auc(labels, probs):
    """The vectorized average-rank AUC, computed from its own ascending
    sort as the AUC was before `roc_auc` took the AUC from the
    steps of the ROC ranking, kept unchanged as the oracle."""
    labels = np.asarray(labels).astype(int)
    probs = np.asarray(probs, dtype=float)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    order = np.argsort(probs, kind="stable")
    sorted_probs = probs[order]
    cuts = np.flatnonzero(sorted_probs[1:] != sorted_probs[:-1]) + 1
    starts = np.concatenate([[0], cuts])
    ends = np.concatenate([cuts, [len(sorted_probs)]])
    ranks = np.empty(len(probs), dtype=float)
    ranks[order] = np.repeat(0.5 * (starts + ends - 1) + 1.0, ends - starts)
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
        pts = roc_auc(labels, probs)[0]
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
            auc = roc_auc(labels, probs)[1]
            assert auc == pytest.approx(auc_pair_oracle(labels, probs),
                                        abs=1e-9)
            assert trapezoid_area(roc_auc(labels, probs)[0]) == \
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
        assert roc_auc(labels, probs)[1] == auc_loop(labels, probs)
        assert roc_auc(labels, probs)[0] == roc_loop(labels, probs)

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(2, 300), distinct=st.sampled_from([1, 2, 3, 5, 8,
                                                            None]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_auc_equals_frozen_average_rank_form(self, n, distinct, seed):
        # Bit for bit, on mostly tie-heavy scores: `distinct` values drawn
        # over and over, or (None) continuous ones.
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 2, n)
        labels[:2] = (0, 1)
        probs = (rng.uniform(size=n) if distinct is None
                 else rng.choice(rng.uniform(size=distinct), size=n))
        want = frozen_average_rank_auc(labels, probs)
        assert roc_auc(labels, probs)[1].hex() == want.hex()

    def test_one_sort_serves_curve_and_auc(self, monkeypatch):
        sorts = []
        real = np.argsort
        monkeypatch.setattr(np, "argsort",
                            lambda *a, **k: sorts.append(1) or real(*a, **k))
        roc, auc = roc_auc(np.array([0, 1, 1, 0]),
                           np.array([0.2, 0.2, 0.9, 0.4]))
        assert len(sorts) == 1
        assert auc == 0.625 and roc[-1][:2] == (1.0, 1.0)


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
                               for r, p in features.LBP_SCALES])
    return haralick_features(glcm(patch, descriptor))


class TestFeatureMatrix:
    def test_rows_match_patches_cut_from_raster(self, small_dataset):
        # Oracle: each row is the mean and deviation of the single-patch
        # descriptors of the admitted patches cut straight out of the
        # prepared raster.
        records = small_dataset.records[:3]
        for method in ("RF-LBP@0.5x", "RF-GLCM@0.5x"):
            config = RunConfig(method=method, jobs=2)
            plan = plan_records(small_dataset, records, config)
            matrix, owner = describe_records(small_dataset, records, config,
                                             plan)
            assert matrix.shape == (3, len(config.descriptor.row_names()))
            assert owner.tolist() == [0, 1, 2]
            for rec, layout, row in zip(records, plan, matrix):
                img, rects = prepare_record_image(small_dataset, rec, 0.5)
                coords = layout.coords
                assert coords == record_patch_coords(
                    (img.width, img.height), img.mask_center,
                    img.mask_radius, rects, config)
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
        records = small_dataset.records[:3]
        plan = plan_records(small_dataset, records, config)
        X, owner = describe_records(small_dataset, records, config, plan)
        expected = [
            whiten_values(img.pixels[c.c3:c.c4, c.c1:c.c2])[0].ravel()
            for rec, layout in zip(records, plan)
            for img in [prepare_record_image(small_dataset, rec, 0.5)[0]]
            for c in layout.coords]
        assert X.dtype == np.float32
        assert np.array_equal(X, np.stack(expected).astype(np.float32))
        assert owner.tolist() == [i for i, layout in enumerate(plan)
                                  for _c in layout.coords]

    def test_wholeimage_builds_no_patch_grid(self, small_dataset):
        config = RunConfig(method="WHOLEIMAGE@0.55x", jobs=2)
        records = small_dataset.records[:3]
        plan = plan_records(small_dataset, records, config)
        assert [layout.coords for layout in plan] == [[], [], []]
        X, owner = describe_records(small_dataset, records, config, plan)
        assert X.shape == (3, config.target_size ** 2)
        assert X.dtype == np.float32
        assert owner.tolist() == [0, 1, 2]

    # Every method's rows, written out apart from the method table:
    # (row kind, texture descriptor, scale).
    EXPECTED = {
        "RF-LBP@1.0x": ("texture", LbpConfig(), 1.0),
        "RF-LBP@0.5x": ("texture", LbpConfig(), 0.5),
        "RF-GLCM@1.0x": ("texture", GlcmConfig(), 1.0),
        "RF-GLCM@0.5x": ("texture", GlcmConfig(), 0.5),
        "PPF@1.0x": ("patch", None, 1.0),
        "PPF@0.5x": ("patch", None, 0.5),
        "WHOLEIMAGE@0.55x": ("raster", None, 1.0),
    }

    @pytest.mark.parametrize("method", METHODS)
    def test_every_method_gives_its_rows(self, small_dataset, method):
        # A table entry with another method's layout, descriptor or scale
        # changes the frame size, the rows or their columns and dtype.
        kind, descriptor, scale = self.EXPECTED[method]
        config = RunConfig(method=method, jobs=1)
        records = small_dataset.records[:3]
        plan = plan_records(small_dataset, records, config)
        X, owner = describe_records(small_dataset, records, config, plan)
        want = []
        for rec, layout in zip(records, plan):
            img, rects = prepare_record_image(small_dataset, rec, scale)
            assert layout.dims == (img.width, img.height)
            if kind == "raster":
                raster = wholeimage.preprocess(img, config.target_size)[2]
                want.append([whiten_values(
                    raster.astype(np.float64).ravel())[0]])
                continue
            coords = record_patch_coords(
                (img.width, img.height), img.mask_center, img.mask_radius,
                rects, config)
            if kind == "patch":
                want.append([
                    whiten_values(img.pixels[c.c3:c.c4, c.c1:c.c2])[0].ravel()
                    for c in coords])
            else:
                want.append([features.image_row(img.pixels, coords,
                                                descriptor)])
        columns = (len(descriptor.row_names()) if kind == "texture"
                   else config.patch_size ** 2 if kind == "patch"
                   else config.target_size ** 2)
        dtype = np.float64 if kind == "texture" else np.float32
        assert X.shape == (sum(map(len, want)), columns)
        assert X.dtype == dtype
        assert owner.tolist() == [i for i, rows in enumerate(want)
                                  for _row in rows]
        assert np.array_equal(X, np.concatenate(want).astype(dtype))

    @pytest.mark.parametrize("method", METHODS)
    def test_descriptor_follows_the_table(self, method):
        # LbpConfig() for RF-LBP, GlcmConfig at the run's levels for
        # RF-GLCM, and None for every method without a texture descriptor.
        descriptor = self.EXPECTED[method][1]
        if isinstance(descriptor, GlcmConfig):
            descriptor = GlcmConfig(levels=64)
        config = RunConfig(method=method, glcm_levels=64)
        assert config.descriptor == descriptor


class TestPlan:
    """The plan reads headers only; it must give every record the patch
    coords and frame size of the frame `prepare_record_image` prepares."""

    @settings(max_examples=120, deadline=None)
    @given(h=st.one_of(st.integers(1, 4), st.integers(30, 97)),
           w=st.one_of(st.integers(1, 4), st.integers(30, 97)),
           sidecar=st.booleans(), cx=st.integers(-6, 6),
           cy=st.integers(-6, 6), shrink=st.floats(0.5, 1.0),
           angle=st.one_of(st.none(), st.sampled_from([90.0, 45.0]),
                           st.floats(0.0, 360.0)),
           rects=st.lists(st.tuples(st.integers(-5, 100),
                                    st.integers(-5, 100),
                                    st.integers(1, 30), st.integers(1, 30)),
                          max_size=2),
           method=st.sampled_from(["PPF@0.5x", "PPF@1.0x", "RF-GLCM@0.5x",
                                   "RF-LBP@1.0x", "WHOLEIMAGE@0.55x"]),
           patch_size=st.sampled_from([8, 12, 15, 24]),
           overlap=st.sampled_from([0.0, 0.5, 0.75]),
           admission=st.sampled_from([0.3, 0.97, 1.0]))
    def test_plan_matches_prepared_frame(self, h, w, sidecar, cx, cy,
                                         shrink, angle, rects, method,
                                         patch_size, overlap, admission):
        record = make_record(
            file="f.pgm",
            artifacts=[ArtifactRect(x, y, x + dx, y + dy)
                       for x, y, dx, dy in rects],
            augmented_from=None if angle is None else 0,
            rotation_deg=angle)
        config = RunConfig(method=method, patch_size=patch_size,
                           overlap=overlap, admission_fraction=admission)
        scale = config.scale
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            core.save_image(CleImage(
                np.zeros((h, w), dtype=np.uint16),
                *core.default_mask(w, h)), root / record.file)
            if sidecar:
                # Off-center masks on quarter-pixel positions.
                center = ((w - 1) / 2 + cx / 4, (h - 1) / 2 + cy / 4)
                radius = shrink * min(center[0] + 1, w + 1 - center[0],
                                      center[1] + 1, h + 1 - center[1])
                assume(radius > 0)
                (root / "f.mask.json").write_text(json.dumps(
                    {"center": list(center), "radius": radius}))
            manifest = DatasetManifest(records=[record], root_path=root)
            img, prepared_rects = prepare_record_image(manifest, record,
                                                       scale)
            if method.startswith("WHOLEIMAGE"):
                want = []
            else:
                try:
                    want = record_patch_coords(
                        (img.width, img.height), img.mask_center,
                        img.mask_radius, prepared_rects, config)
                except ValueError:  # a frame smaller than a patch
                    want = []
            if method.startswith("WHOLEIMAGE") or want:
                [layout] = plan_records(manifest, [record], config)
                assert layout.coords == want
                assert layout.dims == (img.width, img.height)
                row_layout = evaluation._METHOD_SPEC[method][0]
                assert evaluation._row_counts([layout], row_layout).tolist() \
                    == [len(want) if method.startswith("PPF") else 1]
            else:
                with pytest.raises(ValueError, match="f.pgm"):
                    plan_records(manifest, [record], config)

    def test_header_beyond_file_refused_before_planning(self, tmp_path,
                                                        monkeypatch):
        (tmp_path / "f.pgm").write_bytes(b"P5\n1000000000 1000000000\n"
                                         b"65535\n\0\0")
        monkeypatch.setattr(evaluation, "record_patch_coords",
                            lambda *args: pytest.fail("grid planned"))
        manifest = DatasetManifest(records=[make_record(file="f.pgm")],
                                   root_path=tmp_path)
        with pytest.raises(core.PgmError, match="truncated payload"):
            plan_records(manifest, manifest.records,
                         RunConfig(method="PPF@0.5x"))


class TestRestrictedRotation:
    """A patch method rotates an augmented copy only over the row hulls of
    its grid; everything the grid reads must equal the full rotation."""

    @settings(max_examples=80, deadline=None)
    @given(h=st.integers(30, 97), w=st.integers(30, 97),
           cx=st.integers(-6, 6), cy=st.integers(-6, 6),
           shrink=st.floats(0.5, 1.0),
           angle=st.one_of(st.sampled_from([0.0, 90.0, 180.0, 45.0]),
                           st.floats(0.0, 360.0)),
           scale=st.sampled_from([1.0, 0.5]),
           patch_size=st.sampled_from([8, 12, 15, 24]),
           overlap=st.sampled_from([0.0, 0.25, 0.5, 0.75]),
           admission=st.sampled_from([0.3, 0.8, 0.97, 1.0]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_spans_match_full_rotation(self, h, w, cx, cy, shrink, angle,
                                       scale, patch_size, overlap,
                                       admission, seed):
        # Off-center masks on quarter-pixel positions, odd and even sizes.
        center = ((w - 1) / 2 + cx / 4, (h - 1) / 2 + cy / 4)
        radius = shrink * min(center[0] + 1, w + 1 - center[0],
                              center[1] + 1, h + 1 - center[1])
        rng = np.random.default_rng(seed)
        img = CleImage(pixels=rng.integers(0, 65536, size=(h, w),
                                           dtype=np.uint16),
                       mask_center=center, mask_radius=radius)
        # The grid of the frame prepared at `scale`.
        dims = (w, h) if scale == 1.0 else (w // 2, h // 2)
        assume(patch_size <= min(dims))
        coords = patch_grid(dims, (center[0] * scale, center[1] * scale),
                            radius * scale, patch_size, overlap, admission)
        spans = evaluation._read_spans(coords, h, scale)
        full = rotate(img, angle)
        part = rotate(img, angle, spans)
        inside = np.zeros((h, w), dtype=bool)
        for y, (lo, hi) in enumerate(spans):
            inside[y, lo:hi] = True
        assert np.array_equal(part.pixels[inside], full.pixels[inside])
        assert not part.pixels[~inside].any()
        # Every pixel of every admitted patch of the prepared frame.
        if scale == 0.5:
            full, part = resize_half(full), resize_half(part)
        assert coords == patch_grid((full.width, full.height),
                                    full.mask_center, full.mask_radius,
                                    patch_size, overlap, admission)
        for c in coords:
            assert np.array_equal(part.pixels[c.c3:c.c4, c.c1:c.c2],
                                  full.pixels[c.c3:c.c4, c.c1:c.c2])

    def test_rows_equal_full_rotation(self, small_dataset, monkeypatch):
        # Rotated copies (one with an artifact) of 4 frames, described
        # with the rotation restricted and with it forced to the full frame.
        originals = [dataclasses.replace(r, artifacts=[])
                     for r in small_dataset.records[:4]]
        originals[1] = dataclasses.replace(
            originals[1], artifacts=[ArtifactRect(0, 150, 20, 170)])
        manifest = augment_rotations(
            DatasetManifest(records=originals,
                            root_path=small_dataset.root_path), k=2, seed=4)
        records = manifest.records
        restricted = []
        real_rotate = wholeimage.rotate

        def recording(image, angle_deg, spans=None):
            restricted.append(spans is not None)
            return real_rotate(image, angle_deg, spans)

        for method in ("RF-LBP@0.5x", "RF-GLCM@0.5x", "PPF@0.5x",
                       "RF-GLCM@1.0x"):
            config = RunConfig(method=method, jobs=1)
            monkeypatch.setattr(wholeimage, "rotate", recording)
            restricted.clear()
            plan = plan_records(manifest, records, config)
            got = describe_records(manifest, records, config, plan)
            assert restricted == [True] * 8
            monkeypatch.setattr(evaluation, "_read_spans",
                                lambda *args: None)
            want = describe_records(manifest, records, config, plan)
            assert restricted[8:] == [False] * 8
            monkeypatch.undo()
            assert np.array_equal(got[0], want[0]), method
            assert np.array_equal(got[1], want[1])


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
        {"method": "WHOLEIMAGE@0.55x", "epochs": 4},
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

    def test_wholeimage_baseline_runs(self, small_dataset):
        config = RunConfig(method="WHOLEIMAGE@0.55x", seed=5, epochs=4,
                           jobs=2)
        report = run_cv(small_dataset, config)
        assert report.n_images == 24
        assert report.patch_accuracy is None

    def test_unknown_method_rejected(self, small_dataset):
        with pytest.raises(ConfigError, match="unknown method"):
            run_cv(small_dataset, RunConfig(method="RF-XYZ@1.0x"))

    @pytest.mark.parametrize("method", ["RF-LBP@1.0x", "RF-LBP@0.5x"])
    def test_lbp_patch_floor_is_largest_ring(self, method):
        # 2 * 5 + 1: the radius-5 ring must fit inside every patch.
        assert features.LBP_MIN_PATCH == 11
        RunConfig(method=method, patch_size=11).validate()
        with pytest.raises(ConfigError, match=r"patch_size >= 11 .* got 10"):
            RunConfig(method=method, patch_size=10).validate()
        RunConfig(method="RF-GLCM@0.5x", patch_size=10).validate()

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
        monkeypatch.setattr(evaluation, "plan_records",
                            lambda *args: prepared.append(args))
        with pytest.raises(InsufficientPatients):
            run_cv(manifest, RunConfig(method="RF-LBP@0.5x", jobs=1))
        assert prepared == []

    def test_ppf_refused_when_memory_is_short(self, small_dataset,
                                              monkeypatch):
        # Refused after planning and before any frame is read or the
        # patch cache exists, with the predicted need (cache + Gram
        # matrices, about 1.8 MiB for these 72 patches) and what is
        # free.
        prepared = []
        real_plan = evaluation.plan_records
        monkeypatch.setattr(
            evaluation, "plan_records",
            lambda *args: prepared.append(real_plan(*args)) or prepared[0])
        monkeypatch.setattr(core, "load_image",
                            lambda *args: pytest.fail("frame read"))
        monkeypatch.setattr(evaluation, "_shared_rows",
                            lambda *args: pytest.fail("cache allocated"))
        monkeypatch.setattr(evaluation, "mem_available", lambda: 1 << 20)
        with pytest.raises(ConfigError) as info:
            run_cv(small_dataset, RunConfig(method="PPF@0.5x", seed=5,
                                            jobs=1))
        n_patches = sum(len(layout.coords) for layout in prepared[0])
        cache_mib = n_patches * 80 * 80 * 4 // (1 << 20)
        message = str(info.value)
        assert f"patch cache {cache_mib} MiB" in message
        assert message.endswith("but only 1 MiB is available")

    def test_ppf_memory_check_arithmetic(self, monkeypatch):
        # Two records of 768 and 1280 patches of 32 x 32 px; the largest
        # fold keeps both.  More rows than columns, so the two logistic
        # folds descend over the rows themselves and copy none: 8 float32
        # 2048 x 2 and 4 float64 1024 x 2 matrices, 192 KiB.
        rows = [768, 1280]
        kept = [np.array([1]), np.array([0, 1])]
        config = RunConfig(method="PPF@0.5x", patch_size=32)
        need = 8 * 512 * 512 * 4 + (8 * 4 * 2048 + 4 * 8 * 1024) * 2
        for available, refused in ((need, False), (need - 1, True),
                                   (None, False)):
            monkeypatch.setattr(evaluation, "mem_available",
                                lambda: available)
            if refused:
                with pytest.raises(ConfigError,
                                   match=r"needs about 8 MiB \(patch cache "
                                         r"8 MiB \+ logistic folds 0 "
                                         r"MiB\) but only 8 MiB"):
                    evaluation._check_memory(rows, kept, config)
            else:
                evaluation._check_memory(rows, kept, config)
        # A forest fold holds X[rows], its float64 copy and the split
        # temporaries (3.26x the float32 rows), and min(jobs, folds,
        # cores) forest folds run at once.
        # need = 8 MiB + folds * 8 MiB * 3.26 in whole bytes (60.16 and
        # 34.08 MiB).
        for jobs, cores, folds, need, copies_mib in (
                (4, 8, 2, 63_082_332, 52), (1, 8, 1, 35_735_470, 26),
                (4, 1, 1, 35_735_470, 26)):
            monkeypatch.setattr(util, "default_jobs", lambda: cores)
            config = RunConfig(method="PPF@0.5x", patch_size=32,
                               patch_classifier="forest", jobs=jobs)
            monkeypatch.setattr(evaluation, "mem_available", lambda: need)
            evaluation._check_memory(rows, kept, config)
            monkeypatch.setattr(evaluation, "mem_available",
                                lambda: need - 1)
            need_mib = need >> 20
            with pytest.raises(ConfigError,
                               match=rf"needs about {need_mib} MiB \(patch "
                                     rf"cache 8 MiB \+ {folds} forest fold "
                                     rf"copies {copies_mib} MiB\) but only "
                                     rf"{need_mib} MiB"):
                evaluation._check_memory(rows, kept, config)

    def test_glcm_memory_check_counts_record_workers(self, monkeypatch):
        # RF-GLCM: every record-pass worker holds the GLCM working set of
        # the largest record (121 patches of 80 px at 16 levels, about
        # 8.4 MiB).  The record pass ends before the fold pass starts,
        # so the larger of the two passes is checked; 8 one-row records
        # make the forest folds the smaller one here.
        monkeypatch.setattr(util, "default_jobs", lambda: 8)
        rows = [1] * 8
        kept = [np.arange(4), np.arange(4, 8)]
        config = RunConfig(method="RF-GLCM@1.0x", jobs=3)
        worker = features.glcm_working_bytes(80, 80, 121, config.descriptor)
        need = 8 * 30 * 8 + 3 * worker  # row matrix + three workers
        monkeypatch.setattr(evaluation, "mem_available", lambda: need)
        evaluation._check_memory(rows, kept, config, 121)
        monkeypatch.setattr(evaluation, "mem_available", lambda: need - 1)
        with pytest.raises(ConfigError,
                           match=rf"needs about {need >> 20} MiB \(row "
                                 rf"matrix 0 MiB \+ 3 GLCM record workers "
                                 rf"{3 * worker >> 20} MiB\)"):
            evaluation._check_memory(rows, kept, config, 121)
        # RF-LBP holds no GLCM buffers: only its forest folds count.
        lbp = RunConfig(method="RF-LBP@1.0x", jobs=3)
        evaluation._check_memory(rows, kept, lbp, 121)

    def test_run_cv_checks_glcm_memory_for_largest_record(
            self, small_dataset, monkeypatch):
        checked = []

        def check(rows, kept, config, patches=0):
            checked.append(patches)
            raise ConfigError("stop")

        monkeypatch.setattr(evaluation, "_check_memory", check)
        config = RunConfig(method="RF-GLCM@0.5x", jobs=1)
        with pytest.raises(ConfigError, match="stop"):
            run_cv(small_dataset, config)
        plan = plan_records(small_dataset, small_dataset.records, config)
        assert checked == [max(len(p.coords) for p in plan)]

    def test_sample_space_memory_check_counts_gram_matrices(self,
                                                            monkeypatch):
        # 2048 patches of 64 x 64 px: fewer rows than columns, so the two
        # logistic folds descend over the 2048 x 2048 Gram matrix (16
        # MiB) and copy no rows, adding 8 float32 2048 x 2 and 4 float64
        # 4096 x 2 matrices (384 KiB).
        rows = [1024, 1024]
        kept = [np.array([1]), np.array([0])]
        config = RunConfig(method="PPF@0.5x", patch_size=64)
        need = ((32 + 16) << 20) + (8 * 4 * 2048 + 4 * 8 * 4096) * 2
        monkeypatch.setattr(evaluation, "mem_available", lambda: need)
        evaluation._check_memory(rows, kept, config)
        monkeypatch.setattr(evaluation, "mem_available", lambda: need - 1)
        with pytest.raises(ConfigError,
                           match=r"needs about 48 MiB \(patch cache 32 MiB "
                                 r"\+ logistic folds 16 MiB\) but only 48 "
                                 r"MiB"):
            evaluation._check_memory(rows, kept, config)

    def test_rf_runs_one_record_pass_and_one_fold_pass(self, small_dataset,
                                                       monkeypatch):
        # Frames are prepared and described in the same workers, and the
        # folds are fitted in the second pool (logistic folds in this
        # process): the parent maps exactly twice, over the 72 records and
        # over the 4 folds.
        calls = []
        real = evaluation.run_parallel

        def counting(fn, items, jobs):
            calls.append((len(items), jobs))
            return real(fn, items, jobs)

        monkeypatch.setattr(evaluation, "run_parallel", counting)
        for method, fold_jobs in (("RF-LBP@0.5x", 2), ("RF-GLCM@0.5x", 2),
                                  ("PPF@0.5x", 1)):
            calls.clear()
            run_cv(small_dataset, RunConfig(method=method, seed=5, jobs=2,
                                            **fit_options(method, 6, 4)))
            assert calls == [(72, 2), (4, fold_jobs)]

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
            run_cv(manifest, RunConfig(method=method, jobs=2))
        assert read == []

    def test_balancing_decisions_recorded(self, small_dataset):
        config = RunConfig(method="RF-LBP@0.5x", seed=5, trees=10, jobs=2)
        report = run_cv(small_dataset, config)
        for audit in report.fold_audits:
            # mix 0.5 on even counts: folds may already be balanced, but
            # any removal must be an augmented row of a train patient
            for key in audit.balancing_removed:
                assert key[0] != audit.test_patient


class TestStages:
    """`run_cv` is the calls of its four stages, each looked up through
    `evaluation` at call time, so a tracer that replaces one sees it."""

    STAGES = ("plan_run", "describe_records", "score_folds", "build_report")

    @staticmethod
    def documents(report):
        return (results_csv(report), roc_csv(report),
                json.dumps(summary_dict(report), indent=1, sort_keys=True))

    @pytest.mark.parametrize("overrides", [
        {"method": "RF-LBP@0.5x"},
        {"method": "RF-GLCM@1.0x"},
        {"method": "PPF@0.5x"},
        {"method": "PPF@0.5x", "patch_classifier": "forest"},
        {"method": "WHOLEIMAGE@0.55x"},
    ], ids=["rf-lbp", "rf-glcm-full", "ppf-logistic", "ppf-forest",
            "wholeimage"])
    def test_stages_by_hand_equal_run_cv(self, small_dataset, monkeypatch,
                                         overrides):
        config = RunConfig(seed=5, jobs=1, **overrides, **fit_options(
            overrides["method"], 6, 4,
            overrides.get("patch_classifier", "logistic")))
        calls = []

        def counting(name, stage):
            def counted(*args):
                calls.append(name)
                return stage(*args)
            return counted

        for name in self.STAGES:
            monkeypatch.setattr(evaluation, name,
                                counting(name, getattr(evaluation, name)))
        report = evaluation.run_cv(small_dataset, config)
        monkeypatch.undo()
        assert calls == list(self.STAGES)

        run = evaluation.plan_run(small_dataset, config)
        X, owner = evaluation.describe_records(
            run.manifest, run.manifest.records, config, run.plans)
        outcomes = evaluation.score_folds(run, config, X, owner)
        by_hand = evaluation.build_report(run, config, outcomes)
        assert self.documents(by_hand) == self.documents(report)


class TestTracedRoutes:
    """perfbench's tracer (`perfbench/tracer.py`) replaces each stage
    function as a module attribute.  A route that bound one at import
    time would count 0 calls in both traced runs that perfbench compares,
    and still pass; so each route must reach every stage it runs through
    the tracer.  Logistic folds train through `train_logistic_folds`,
    which the tracer does not wrap; their models' `predict_proba` shows
    the route."""

    STAGES = ("core.load_image", "wholeimage.rotate", "patching.resize_half",
              "evaluation.record_patch_coords", "features.lbp_patch_matrix",
              "features.glcm_patch_matrix", "patching.whiten_values",
              "fusion.fuse", "forest.train_random_forest",
              "forest.RandomForestModel.predict_proba",
              "classify.LogisticModel.predict_proba")
    FRAMES = {"core.load_image", "wholeimage.rotate"}
    FOREST = {"forest.train_random_forest",
              "forest.RandomForestModel.predict_proba"}
    PATCHES = {"evaluation.record_patch_coords", "patching.whiten_values",
               "fusion.fuse"}
    LOGISTIC = {"classify.LogisticModel.predict_proba"}

    @pytest.mark.parametrize("overrides, reached", [
        ({"method": "RF-LBP@0.5x"},
         FRAMES | FOREST | {"patching.resize_half",
                            "evaluation.record_patch_coords",
                            "features.lbp_patch_matrix"}),
        ({"method": "RF-GLCM@1.0x"},
         FRAMES | FOREST | {"evaluation.record_patch_coords",
                            "features.glcm_patch_matrix"}),
        ({"method": "PPF@0.5x"},
         FRAMES | PATCHES | LOGISTIC | {"patching.resize_half"}),
        ({"method": "PPF@0.5x", "patch_classifier": "forest"},
         FRAMES | PATCHES | FOREST | {"patching.resize_half"}),
        ({"method": "WHOLEIMAGE@0.55x"},
         FRAMES | LOGISTIC | {"patching.whiten_values"}),
    ], ids=["rf-lbp", "rf-glcm-full", "ppf-logistic", "ppf-forest",
            "wholeimage"])
    def test_route_reaches_its_stages_through_the_tracer(
            self, small_dataset, monkeypatch, overrides, reached):
        monkeypatch.syspath_prepend(
            str(Path(__file__).resolve().parents[1] / "perfbench"))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            evaluation.run_cv(small_dataset, RunConfig(
                seed=5, jobs=1, **overrides, **fit_options(
                    overrides["method"], 6, 4,
                    overrides.get("patch_classifier", "logistic"))))
        finally:
            tracer.uninstall()
        assert {stage for stage in self.STAGES
                if tracer.counts[f"{stage}.calls"] > 0} == reached
