"""Texture descriptors: riu2 binary patterns, co-occurrence statistics."""

import math
from fractions import Fraction

import numpy as np
import pytest

from clescreen.core import ArtifactRect
from clescreen.evaluation import RunConfig, feature_matrix, record_patch_coords
from clescreen.features import (GlcmConfig, HARALICK_NAMES, LbpConfig,
                                glcm, haralick_features, image_row,
                                lbp_histogram, lbp_patch_matrix, quantize)
from clescreen.patching import PatchCoords, resize_half
from conftest import make_image


def side_by_side(stack: np.ndarray):
    """A raster holding the (n, h, w) patches of `stack` left to right,
    and the coords that cut them back out, in stack order."""
    n, h, w = stack.shape
    coords = [PatchCoords(i * w, (i + 1) * w, 0, h) for i in range(n)]
    return np.concatenate(list(stack), axis=1), coords


def lbp_reference(patch: np.ndarray, radius: int, neighbors: int) -> np.ndarray:
    """Exhaustive code oracle with exact rational interpolation.

    Neighbor samples are evaluated in exact arithmetic (Fraction), so tie
    handling is unambiguous; the production kernel must agree everywhere
    its float error is smaller than the sample-center gap, and exactly on
    ties (its difference-form interpolation reproduces constants exactly).
    """
    h, w = patch.shape
    hist = np.zeros(neighbors + 2)
    for y in range(radius, h - radius):
        for x in range(radius, w - radius):
            center = Fraction(float(patch[y, x]))
            bits = []
            for k in range(neighbors):
                ang = 2.0 * math.pi * k / neighbors
                sx = radius * math.cos(ang)
                sy = radius * math.sin(ang)
                if abs(sx - round(sx)) < 1e-9:
                    sx = float(round(sx))
                if abs(sy - round(sy)) < 1e-9:
                    sy = float(round(sy))
                x0, y0 = math.floor(sx), math.floor(sy)
                tx = Fraction(sx) - x0
                ty = Fraction(sy) - y0
                v = 0
                for (ay, ax, wgt) in (
                        (0, 0, (1 - tx) * (1 - ty)), (0, 1, tx * (1 - ty)),
                        (1, 0, (1 - tx) * ty), (1, 1, tx * ty)):
                    if wgt:
                        v += Fraction(float(patch[y + y0 + ay, x + x0 + ax])) * wgt
                bits.append(1 if v >= center else 0)
            u = sum(bits[k] != bits[(k + 1) % neighbors]
                    for k in range(neighbors))
            code = sum(bits) if u <= 2 else neighbors + 1
            hist[code] += 1
    return hist / hist.sum()


class TestLbpCodes:
    def test_constant_patch_all_ones_bin(self):
        # Ties count as 1: every neighbor equals the center, giving the
        # all-ones uniform pattern, code P.
        for radius, neighbors in ((1, 8), (3, 16), (5, 24)):
            h = lbp_histogram(np.full((16, 16), 123.0), radius, neighbors)
            assert h[neighbors] == 1.0
            assert h.sum() == pytest.approx(1.0)

    def test_bright_center_codes_zero(self):
        patch = np.zeros((3, 3))
        patch[1, 1] = 5.0
        h = lbp_histogram(patch, 1, 8)
        assert h[0] == 1.0  # single valid center, no neighbor >= center

    def test_step_edge_is_uniform_everywhere(self):
        patch = np.zeros((12, 12))
        patch[:, 6:] = 100.0
        for radius, neighbors in ((1, 8), (3, 16)):
            h = lbp_histogram(patch, radius, neighbors)
            assert h[neighbors + 1] == 0.0  # no catch-all mass
            assert np.allclose(h, lbp_reference(patch, radius, neighbors))

    def test_matches_exact_oracle_on_random_patches(self):
        rng = np.random.default_rng(42)
        for _ in range(4):
            patch = rng.integers(0, 256, size=(9, 9)).astype(np.float64)
            for radius, neighbors in ((1, 8), (3, 16)):
                got = lbp_histogram(patch, radius, neighbors)
                want = lbp_reference(patch, radius, neighbors)
                assert np.array_equal(got, want)

    def test_rotation_invariance_on_grid_exact_turns(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            patch = rng.integers(0, 65536, size=(11, 11)).astype(np.float64)
            base = lbp_histogram(patch, 1, 8)
            for k in (1, 2, 3):
                assert np.array_equal(
                    base, lbp_histogram(np.rot90(patch, k), 1, 8))

    def test_monotone_rescale_invariance(self):
        rng = np.random.default_rng(8)
        patch = rng.integers(0, 4096, size=(10, 10)).astype(np.float64)
        for radius, neighbors in ((1, 8), (3, 16), (5, 24)):
            if patch.shape[0] < 2 * radius + 1:
                continue
            base = lbp_histogram(patch, radius, neighbors)
            scaled = lbp_histogram(3.0 * patch + 250.0, radius, neighbors)
            assert np.array_equal(base, scaled)

    def test_patch_too_small(self):
        with pytest.raises(ValueError, match="too small"):
            lbp_histogram(np.zeros((5, 5)), 3, 16)


class TestLbpImageVector:
    def test_dimension_count(self):
        # 3 scales of P+2 bins, mean and std halves: 2 * (10+18+26) = 108.
        rng = np.random.default_rng(1)
        stack = rng.uniform(0, 65535, (3, 16, 16))
        names = LbpConfig().row_names()
        assert len(image_row(*side_by_side(stack), LbpConfig())) == 108
        assert len(names) == 108
        assert names[0] == "mean:lbp:r1n8:b0"
        assert names[54].startswith("std:")

    def test_single_patch_std_is_zero(self):
        rng = np.random.default_rng(2)
        patch = rng.uniform(0, 65535, (16, 16))
        row = image_row(*side_by_side(patch[None]), LbpConfig())
        assert np.all(row[54:] == 0.0)
        concat = np.concatenate([
            lbp_histogram(patch, r, p) for r, p in LbpConfig().scales])
        assert np.allclose(row[:54], concat)

    def test_duplicate_patches_match_single(self):
        rng = np.random.default_rng(3)
        patch = rng.uniform(0, 65535, (16, 16))
        one = image_row(*side_by_side(patch[None]), LbpConfig())
        two = image_row(*side_by_side(np.stack([patch, patch.copy()])),
                        LbpConfig())
        assert np.allclose(one, two)

    def test_empty_patch_list_rejected(self):
        # A frame whose every grid patch touches an artifact has no rows.
        img = make_image(size=160)
        config = RunConfig(method="RF-LBP@1.0x", jobs=1)
        with pytest.raises(ValueError, match="no admissible patches"):
            feature_matrix([(img, [ArtifactRect(0, 0, 160, 160)])], config)

    def test_batch_matrix_matches_per_patch(self):
        rng = np.random.default_rng(4)
        stack = rng.integers(0, 65536, size=(5, 16, 16)).astype(np.float64)
        mat = lbp_patch_matrix(*side_by_side(stack))
        for i in range(5):
            concat = np.concatenate([
                lbp_histogram(stack[i], r, p) for r, p in LbpConfig().scales])
            assert np.array_equal(mat[i], concat)

    @pytest.mark.parametrize("scale", [0.5, 1.0])
    def test_frame_raster_matches_cut_patches(self, scale):
        # Oracle: the single-patch histogram of each admitted patch cut
        # out of the frame.  Few gray levels make neighbor ties common.
        rng = np.random.default_rng(5)
        size = int(320 / scale)
        img = make_image(size=size)
        img.pixels[:] = rng.integers(0, 6, size=(size, size)) * 9000
        if scale == 0.5:
            img = resize_half(img)
        config = RunConfig(method=f"RF-LBP@{scale:.1f}x", jobs=1)
        side = img.width
        artifact = [ArtifactRect(0, 0, side // 2, side // 3)]
        coords = record_patch_coords(img, artifact, config)
        assert 0 < len(coords) < len(record_patch_coords(img, [], config))
        mat = lbp_patch_matrix(img.pixels, coords)
        assert mat.shape == (len(coords), LbpConfig().n_features)
        for row, c in zip(mat, coords):
            patch = img.pixels[c.c3:c.c4, c.c1:c.c2].astype(np.float64)
            start = 0
            for r, p in LbpConfig().scales:
                assert np.array_equal(row[start:start + p + 2],
                                      lbp_histogram(patch, r, p))
                start += p + 2

    def test_patch_too_small_for_radius_on_large_frame(self):
        # The frame could code every center, but each patch is too small.
        pixels = np.zeros((40, 40))
        coords = [PatchCoords(0, 8, 0, 8), PatchCoords(8, 16, 0, 8)]
        with pytest.raises(ValueError,
                           match=r"patch 8x8 too small for radius 5 "
                                 r"\(needs >= 11\)"):
            lbp_patch_matrix(pixels, coords)


class TestQuantize:
    def test_full_range_mapping(self):
        v = np.array([0.0, 15.0])
        assert quantize(v, 16).tolist() == [0, 15]

    def test_constant_maps_to_zero(self):
        assert np.all(quantize(np.full((4, 4), 9.0), 16) == 0)

    def test_max_value_lands_in_top_level(self):
        v = np.linspace(0, 65535, 100)
        q = quantize(v, 16)
        assert q.min() == 0 and q.max() == 15
        assert np.all(np.diff(q) >= 0)


class TestGlcm:
    def test_constant_patch_single_entry(self):
        m = glcm(np.full((8, 8), 3.0))
        assert m[0, 0] == 1.0
        assert m.sum() == 1.0

    def test_checkerboard_hand_count(self):
        # 2x2 checkerboard of quantized levels {0, 15}, offset (1, 0) only,
        # symmetric: pairs (0,15) and (15,0), plus transposes -> 0.5 each.
        patch = np.array([[0.0, 15.0], [15.0, 0.0]])
        cfg = GlcmConfig(levels=16, offsets=((1, 0),), symmetric=True)
        m = glcm(patch, cfg)
        assert m[0, 15] == 0.5
        assert m[15, 0] == 0.5
        assert m.sum() == 1.0

    def test_symmetry_nonnegativity_normalization(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            patch = rng.integers(0, 65536, size=(12, 12)).astype(np.float64)
            m = glcm(patch)
            assert np.all(m >= 0.0)
            assert abs(m.sum() - 1.0) <= 1e-12
            assert np.array_equal(m, m.T)

    def test_offset_counting_against_loop_oracle(self):
        rng = np.random.default_rng(23)
        patch = rng.integers(0, 4, size=(6, 6)).astype(np.float64)
        cfg = GlcmConfig(levels=4, offsets=((-1, 1),), symmetric=False)
        m = glcm(patch, cfg)
        q = quantize(patch, 4)
        counts = np.zeros((4, 4))
        for y in range(6):
            for x in range(6):
                yy, xx = y + 1, x - 1
                if 0 <= yy < 6 and 0 <= xx < 6:
                    counts[q[y, x], q[yy, xx]] += 1
        assert np.allclose(m, counts / counts.sum())


class TestHaralick:
    def test_names_and_length(self):
        assert len(HARALICK_NAMES) == 15
        m = np.zeros((16, 16))
        m[4, 4] = 1.0
        assert len(haralick_features(m)) == 15

    def test_single_diagonal_entry(self):
        m = np.zeros((16, 16))
        m[4, 4] = 1.0
        f = dict(zip(HARALICK_NAMES, haralick_features(m)))
        assert f["energy"] == 1.0
        assert f["entropy"] == 0.0
        assert f["contrast"] == 0.0
        assert f["homogeneity"] == 1.0
        assert f["correlation"] == 0.0  # degenerate marginals
        assert f["dissimilarity"] == 0.0
        assert f["glcm_mean"] == 4.0

    def test_checkerboard_closed_forms(self):
        m = np.zeros((16, 16))
        m[0, 15] = m[15, 0] = 0.5
        f = dict(zip(HARALICK_NAMES, haralick_features(m)))
        assert abs(f["contrast"] - 225.0) < 1e-9
        assert abs(f["energy"] - 0.5) < 1e-9
        assert abs(f["entropy"] - math.log(2.0)) < 1e-9
        assert abs(f["correlation"] - (-1.0)) < 1e-9
        assert abs(f["dissimilarity"] - 15.0) < 1e-9

    def test_uniform_matrix_energy(self):
        L = 16
        f = dict(zip(HARALICK_NAMES,
                     haralick_features(np.full((L, L), 1.0 / L ** 2))))
        assert abs(f["energy"] - 1.0 / L ** 2) < 1e-12

    def test_bounds_on_random_patches(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            patch = rng.integers(0, 65536, size=(14, 14)).astype(np.float64)
            f = dict(zip(HARALICK_NAMES, haralick_features(glcm(patch))))
            assert -1.0 - 1e-12 <= f["correlation"] <= 1.0 + 1e-12
            assert 0.0 < f["energy"] <= 1.0
            assert f["entropy"] >= 0.0

    def test_finite_on_degenerate_inputs(self):
        rng = np.random.default_rng(32)
        cases = [np.full((8, 8), 5.0),
                 np.zeros((8, 8)),
                 rng.integers(0, 2, size=(8, 8)).astype(np.float64)]
        for patch in cases:
            f = haralick_features(glcm(patch))
            assert np.all(np.isfinite(f))


class TestGlcmImageVector:
    def test_dimension_count(self):
        rng = np.random.default_rng(41)
        stack = rng.uniform(0, 65535, (4, 12, 12))
        # 2 * 15: mean and std of each statistic.
        assert len(image_row(*side_by_side(stack), GlcmConfig())) == 30
        assert GlcmConfig().row_names()[0] == "mean:glcm16:energy"

    def test_single_patch_std_zero(self):
        rng = np.random.default_rng(42)
        row = image_row(*side_by_side(rng.uniform(0, 65535, (1, 12, 12))),
                        GlcmConfig())
        assert np.all(row[15:] == 0.0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(43)
        pixels, coords = side_by_side(rng.uniform(0, 65535, (5, 12, 12)))
        a = image_row(pixels, coords, GlcmConfig())
        b = image_row(pixels, coords[::-1], GlcmConfig())
        assert np.allclose(a, b)

    def test_no_nan_on_constant_patches(self):
        row = image_row(*side_by_side(np.stack([np.full((12, 12), 7.0),
                                                np.full((12, 12), 9.0)])),
                        GlcmConfig())
        assert np.all(np.isfinite(row))
