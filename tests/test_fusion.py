"""Patch-probability fusion maps and the scalar image probability."""

import numpy as np
import pytest

from clescreen.fusion import build_maps, fuse, image_probability
from clescreen.patching import PatchCoords, patch_grid


def oracle_probability(patches, dims):
    """Per-pixel brute force: average covering-patch probabilities per
    pixel, then average over covered pixels."""
    w, h = dims
    per_pixel = [[[] for _ in range(w)] for _ in range(h)]
    for coords, p in patches:
        for y in range(coords.c3, coords.c4):
            for x in range(coords.c1, coords.c2):
                per_pixel[y][x].append(p)
    covered = [sum(ps) / len(ps) for row in per_pixel for ps in row if ps]
    return sum(covered) / len(covered)


def random_layout(rng, max_patches=12, w=24, h=20):
    n = int(rng.integers(1, max_patches + 1))
    patches = []
    for _ in range(n):
        pw = int(rng.integers(1, w))
        ph = int(rng.integers(1, h))
        x = int(rng.integers(0, w - pw + 1))
        y = int(rng.integers(0, h - ph + 1))
        patches.append((PatchCoords(x, x + pw, y, y + ph),
                        float(rng.uniform())))
    return patches, (w, h)


class TestBuildMaps:
    def test_single_covering_patch(self):
        maps = build_maps([(PatchCoords(0, 4, 0, 3), 0.7)], (4, 3))
        assert np.all(maps.pa == 1)
        assert np.all(maps.pc == 1)
        assert np.allclose(maps.pm, 0.7)

    def test_two_overlapping_columns(self):
        patches = [(PatchCoords(0, 2, 0, 2), 0.4),
                   (PatchCoords(1, 3, 0, 2), 1.0)]
        maps = build_maps(patches, (3, 2))
        assert np.allclose(maps.pm[:, 0], 0.4)
        assert np.allclose(maps.pm[:, 1], 0.7)
        assert np.allclose(maps.pm[:, 2], 1.0)
        assert maps.pc[0].tolist() == [1, 2, 1]

    def test_zero_patches(self):
        maps = build_maps([], (4, 4))
        assert np.all(maps.pa == 0)
        assert np.all(maps.pm == 0.0)
        assert np.all(maps.pc == 1)  # floored at 1
        with pytest.raises(ValueError, match="no admissible patches"):
            image_probability(maps)

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            build_maps([(PatchCoords(0, 5, 0, 2), 0.5)], (4, 4))

    def test_probability_range_validated(self):
        with pytest.raises(ValueError, match="outside"):
            build_maps([(PatchCoords(0, 2, 0, 2), 1.2)], (4, 4))

    def test_pm_zero_wherever_inactive(self):
        maps = build_maps([(PatchCoords(0, 2, 0, 2), 0.9)], (6, 6))
        assert np.all(maps.pm[maps.pa == 0] == 0.0)


class TestImageProbability:
    def test_column_case(self):
        patches = [(PatchCoords(0, 2, 0, 2), 0.4),
                   (PatchCoords(1, 3, 0, 2), 1.0)]
        out = fuse(patches, (3, 2))
        assert out.p == pytest.approx((2 * 0.4 + 2 * 0.7 + 2 * 1.0) / 6)
        assert out.n_active == 6
        assert out.n_patches == 2

    def test_constant_probability_any_layout(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            patches, dims = random_layout(rng)
            q = float(rng.uniform())
            patches = [(c, q) for c, _ in patches]
            assert fuse(patches, dims).p == pytest.approx(q, abs=1e-12)

    def test_area_weighting_not_patch_mean(self):
        # 2x2 patch at p=0 and disjoint 1x2 patch at p=1: area-weighted
        # fusion gives 1/3, not the unweighted patch mean 0.5.
        patches = [(PatchCoords(0, 2, 0, 2), 0.0),
                   (PatchCoords(3, 4, 0, 2), 1.0)]
        assert fuse(patches, (4, 2)).p == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            patches, dims = random_layout(rng)
            got = fuse(patches, dims).p
            want = oracle_probability(patches, dims)
            assert abs(got - want) < 1e-9

    def test_bounds_and_monotonicity(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            patches, dims = random_layout(rng)
            ps = [p for _, p in patches]
            base = fuse(patches, dims).p
            assert min(ps) - 1e-12 <= base <= max(ps) + 1e-12
            k = int(rng.integers(len(patches)))
            bumped = list(patches)
            c, p = bumped[k]
            bumped[k] = (c, min(1.0, p + 0.2))
            assert fuse(bumped, dims).p >= base - 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(13)
        patches, dims = random_layout(rng)
        a = build_maps(patches, dims)
        b = build_maps(patches[::-1], dims)
        assert np.array_equal(a.pm, b.pm)
        assert np.array_equal(a.pc, b.pc)

    def test_complement_fusion_is_exact(self):
        # Carrying only the positive-class probability loses nothing.
        rng = np.random.default_rng(14)
        for _ in range(10):
            patches, dims = random_layout(rng)
            p = fuse(patches, dims).p
            flipped = [(c, 1.0 - q) for c, q in patches]
            assert abs(fuse(flipped, dims).p - (1.0 - p)) <= 1e-12

    def test_standard_layout_point_symmetric(self):
        coords = patch_grid((288, 288), (144.0, 144.0), 144.0)
        assert len(coords) == 21
        maps = build_maps([(c, 0.5) for c in coords], (288, 288))
        assert np.array_equal(maps.pa, maps.pa[::-1, ::-1])
        assert np.array_equal(maps.pc, maps.pc[::-1, ::-1])

