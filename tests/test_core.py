"""Image IO, manifest validation, and dataset statistics."""

import json

import numpy as np
import pytest

from clescreen.core import (CARCINOGENIC, NORMAL, SITE_ALVEOLAR, SITE_LABIUM,
                            SITE_PALATE, SITE_TUMOR, CleImage, DatasetManifest,
                            ManifestError, PgmError, dataset_stats,
                            load_image, load_manifest,
                            save_image, save_manifest)
from conftest import make_image, make_record


def write_pgm(path, width, height, maxval, payload: bytes,
              header_extra=b""):
    path.write_bytes(b"P5\n" + header_extra
                     + f"{width} {height}\n{maxval}\n".encode() + payload)


class TestLoadImage:
    def test_single_zero_pixel(self, tmp_path):
        p = tmp_path / "a.pgm"
        write_pgm(p, 1, 1, 65535, b"\x00\x00")
        img = load_image(p)
        assert img.pixels.tolist() == [[0]]

    def test_8bit_full_scale_widens(self, tmp_path):
        p = tmp_path / "a.pgm"
        write_pgm(p, 1, 1, 255, b"\xff")
        assert load_image(p).pixels[0, 0] == 65535  # 255 * 257

    def test_8bit_widening_is_linear(self, tmp_path):
        p = tmp_path / "a.pgm"
        write_pgm(p, 3, 1, 255, bytes([0, 100, 200]))
        assert load_image(p).pixels.ravel().tolist() == [0, 25700, 51400]

    def test_big_endian_sample_order(self, tmp_path):
        p = tmp_path / "a.pgm"
        write_pgm(p, 1, 1, 65535, b"\x01\x02")
        assert load_image(p).pixels[0, 0] == 0x0102

    def test_comments_in_header(self, tmp_path):
        p = tmp_path / "a.pgm"
        write_pgm(p, 1, 1, 65535, b"\x00\x2a", header_extra=b"# acquired\n")
        assert load_image(p).pixels[0, 0] == 42

    def test_default_mask_is_inscribed_circle(self, tmp_path):
        p = tmp_path / "a.pgm"
        write_pgm(p, 4, 6, 255, bytes(24))
        img = load_image(p)
        assert img.mask_center == (2.0, 3.0)
        assert img.mask_radius == 2.0

    def test_sidecar_mask_overrides(self, tmp_path):
        p = tmp_path / "a.pgm"
        write_pgm(p, 8, 8, 255, bytes(64))
        (tmp_path / "a.mask.json").write_text(
            json.dumps({"center": [3.5, 4.5], "radius": 3.0}))
        img = load_image(p)
        assert img.mask_center == (3.5, 4.5)
        assert img.mask_radius == 3.0

    @pytest.mark.parametrize("meta", [
        {"radius": 3.0},
        {"center": [3.5, 4.5]},
        {"center": "middle", "radius": 3.0},
        {"center": [3.5, 4.5, 1.0], "radius": 3.0},
        {"center": [3.5, None], "radius": 3.0},
        {"center": [3.5, 4.5], "radius": "3"},
        [3.5, 4.5, 3.0],
    ])
    def test_malformed_sidecar_rejected(self, tmp_path, meta):
        p = tmp_path / "a.pgm"
        write_pgm(p, 8, 8, 255, bytes(64))
        (tmp_path / "a.mask.json").write_text(json.dumps(meta))
        with pytest.raises(PgmError, match="a.mask.json"):
            load_image(p)

    @pytest.mark.parametrize("text", [
        '{"center": [NaN, 4.5], "radius": 3.0}',
        '{"center": [3.5, 4.5], "radius": NaN}',
        '{"center": [3.5, -Infinity], "radius": 3.0}',
        '{"center": [3.5, 4.5], "radius": 1' + "0" * 400 + '}',
    ])
    def test_non_finite_sidecar_rejected(self, tmp_path, text):
        # json reads NaN and Infinity as floats, and a NaN circle would
        # pass every fit comparison and admit no patch; a 401-digit radius
        # does not convert to a float.
        p = tmp_path / "a.pgm"
        write_pgm(p, 8, 8, 255, bytes(64))
        (tmp_path / "a.mask.json").write_text(text)
        with pytest.raises(PgmError, match="a.mask.json: .* finite"):
            load_image(p)

    def test_bad_magic_rejected_with_position(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P6\n1 1\n255\n\x00")
        with pytest.raises(PgmError, match="byte 0"):
            load_image(p)

    def test_truncated_payload_reports_position(self, tmp_path):
        p = tmp_path / "a.pgm"
        write_pgm(p, 2, 2, 65535, b"\x00\x00\x00")
        with pytest.raises(PgmError, match="truncated"):
            load_image(p)

    def test_unsupported_maxval(self, tmp_path):
        p = tmp_path / "a.pgm"
        write_pgm(p, 1, 1, 1000, b"\x00\x00")
        with pytest.raises(PgmError, match="maxval 1000"):
            load_image(p)

    def test_nonnumeric_header(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P5\nx 1\n255\n\x00")
        with pytest.raises(PgmError, match="integer width"):
            load_image(p)


class TestRoundTrip:
    def test_write_load_write_identity_100_random_rasters(self, tmp_path):
        # Oracle: serialization round-trip must be byte identity for
        # canonical 16-bit graymaps.
        rng = np.random.default_rng(123)
        for i in range(100):
            w = int(rng.integers(1, 24))
            h = int(rng.integers(1, 24))
            pixels = rng.integers(0, 65536, size=(h, w)).astype(np.uint16)
            img = CleImage(pixels=pixels, mask_center=(w / 2, h / 2),
                           mask_radius=min(w, h) / 2)
            p = tmp_path / f"r{i}.pgm"
            save_image(img, p)
            first = p.read_bytes()
            reloaded = load_image(p)
            assert np.array_equal(reloaded.pixels, pixels)
            p2 = tmp_path / f"r{i}b.pgm"
            save_image(reloaded, p2)
            assert p2.read_bytes() == first


class TestCleImageInvariants:
    def test_mask_must_fit(self):
        with pytest.raises(ValueError, match="does not fit"):
            CleImage(pixels=np.zeros((10, 10), dtype=np.uint16),
                     mask_center=(5.0, 5.0), mask_radius=8.0)

    def test_one_pixel_slack_accepted(self):
        # 578/580 px calibration variants can touch the border.
        CleImage(pixels=np.zeros((10, 10), dtype=np.uint16),
                 mask_center=(5.0, 5.0), mask_radius=5.9)

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(ValueError, match="radius"):
            CleImage(pixels=np.zeros((4, 4), dtype=np.uint16),
                     mask_center=(2.0, 2.0), mask_radius=0.0)


class TestManifest:
    def _write(self, tmp_path, records, root="imgs"):
        man = DatasetManifest(records=records, root_path=tmp_path / root)
        path = tmp_path / "manifest.json"
        save_manifest(man, path, root=root)
        return path

    def _touch_images(self, tmp_path, records, root="imgs"):
        d = tmp_path / root
        d.mkdir(exist_ok=True)
        for rec in records:
            save_image(make_image(size=8), d / rec.file)

    def test_empty_manifest_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"root": ".", "records": []}))
        with pytest.raises(ManifestError, match="empty manifest"):
            load_manifest(path)

    def test_duplicate_key_rejected(self, tmp_path):
        records = [make_record(frame=1), make_record(frame=1)]
        path = self._write(tmp_path, records)
        self._touch_images(tmp_path, records)
        with pytest.raises(ManifestError, match="duplicate key"):
            load_manifest(path)

    def test_valid_three_record_manifest(self, tmp_path):
        records = [make_record(frame=i) for i in range(3)]
        path = self._write(tmp_path, records)
        self._touch_images(tmp_path, records)
        man = load_manifest(path)
        assert len(man.records) == 3
        assert man.records[1].frame == 1

    def test_label_site_contradiction(self, tmp_path):
        records = [make_record(label=NORMAL, site=SITE_TUMOR)]
        path = self._write(tmp_path, records)
        self._touch_images(tmp_path, records)
        with pytest.raises(ManifestError, match="contradicts"):
            load_manifest(path)

    def test_label_override_allows_mismatch(self, tmp_path):
        records = [make_record(label=NORMAL, site=SITE_TUMOR,
                               label_override=True)]
        path = self._write(tmp_path, records)
        self._touch_images(tmp_path, records)
        assert load_manifest(path).records[0].label_override

    def test_dangling_file_reference(self, tmp_path):
        records = [make_record()]
        path = self._write(tmp_path, records)
        (tmp_path / "imgs").mkdir()
        with pytest.raises(ManifestError, match="missing image file"):
            load_manifest(path)

    @pytest.mark.parametrize("change", [
        {"records": 5},
        {"records": {"0": {}}},
        {"records": ["p0_s0_0.pgm"]},
        {"root": 5},
    ], ids=["records-number", "records-object", "record-string",
            "root-number"])
    def test_malformed_structure_rejected(self, tmp_path, change):
        # A valid one-record manifest with one structural field broken.
        records = [make_record()]
        path = self._write(tmp_path, records)
        self._touch_images(tmp_path, records)
        doc = json.loads(path.read_text())
        doc.update(change)
        path.write_text(json.dumps(doc))
        with pytest.raises(ManifestError):
            load_manifest(path)

    def test_augmented_needs_both_lineage_fields(self, tmp_path):
        rec = make_record()
        rec.rotation_deg = 45.0  # no augmented_from
        path = self._write(tmp_path, [rec])
        self._touch_images(tmp_path, [rec])
        with pytest.raises(ManifestError, match="augmented"):
            load_manifest(path)

    def test_same_frame_distinct_rotation_not_duplicate(self, tmp_path):
        records = [make_record(frame=0),
                   make_record(frame=0, augmented_from=0, rotation_deg=10.0),
                   make_record(frame=0, augmented_from=0, rotation_deg=20.0)]
        path = self._write(tmp_path, records)
        self._touch_images(tmp_path, records)
        assert len(load_manifest(path).records) == 3


class TestDatasetStats:
    def _manifest(self, records):
        return DatasetManifest(records=records, root_path=".")

    def test_reference_cohort_percentages(self):
        # Site counts 1951/1317/811 normals and 3815 carcinogenic frames
        # over a 7894-image cohort.
        counts = {SITE_ALVEOLAR: 1951, SITE_LABIUM: 1317, SITE_PALATE: 811,
                  SITE_TUMOR: 3815}
        records = []
        i = 0
        for site, n in counts.items():
            label = CARCINOGENIC if site == SITE_TUMOR else NORMAL
            for _ in range(n):
                records.append(make_record(patient=f"p{i % 12}", frame=i,
                                           label=label, site=site))
                i += 1
        report = dataset_stats(self._manifest(records))
        assert report.total == 7894
        expected = {SITE_ALVEOLAR: 24.71, SITE_LABIUM: 16.68,
                    SITE_PALATE: 10.27, SITE_TUMOR: 48.33}
        for site, pct in expected.items():
            assert abs(round(report.percentages[site], 2) - pct) <= 0.005

    def test_single_record_is_100_percent(self):
        report = dataset_stats(self._manifest([make_record()]))
        assert report.percentages[SITE_ALVEOLAR] == 100.0

    def test_patient_mean_and_population_std(self):
        # Direct arithmetic oracle: counts {10, 20, 30} -> mean 20,
        # population sigma sqrt(200/3) = 8.16497.
        records = []
        i = 0
        for p, n in (("a", 10), ("b", 20), ("c", 30)):
            for _ in range(n):
                records.append(make_record(patient=p, frame=i))
                i += 1
        report = dataset_stats(self._manifest(records))
        assert report.patient_mean == pytest.approx(20.0)
        assert report.patient_std == pytest.approx(8.1650, abs=5e-5)

    def test_percentages_sum_to_100(self):
        rng = np.random.default_rng(5)
        records = [make_record(patient=f"p{rng.integers(4)}", frame=i,
                               label=(CARCINOGENIC if rng.integers(2) else NORMAL))
                   for i in range(137)]
        report = dataset_stats(self._manifest(records))
        assert abs(sum(report.percentages.values()) - 100.0) < 0.02

    def test_invariant_under_reordering(self):
        records = [make_record(patient=f"p{i % 5}", frame=i,
                               label=(CARCINOGENIC if i % 3 == 0 else NORMAL))
                   for i in range(60)]
        a = dataset_stats(self._manifest(records))
        b = dataset_stats(self._manifest(list(reversed(records))))
        assert a == b

    def test_augmented_records_excluded(self):
        records = [make_record(frame=0),
                   make_record(frame=0, augmented_from=0, rotation_deg=33.0)]
        report = dataset_stats(self._manifest(records))
        assert report.total == 1

    def test_csv_shape(self):
        records = [make_record(frame=0),
                   make_record(frame=1, label=CARCINOGENIC)]
        text = dataset_stats(self._manifest(records)).to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "site,count,percent"
        assert lines[1].startswith(f"{SITE_ALVEOLAR},1,50.00")
        assert lines[-1].startswith("#patients mean=")
