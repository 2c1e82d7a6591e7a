"""Texture descriptors: riu2 binary patterns, co-occurrence statistics."""

import math
import tracemalloc
from fractions import Fraction

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from clescreen import features
from clescreen.core import ArtifactRect, DatasetManifest, save_image
from clescreen.evaluation import (RunConfig, describe_records,
                                  plan_records, record_patch_coords)
from clescreen.features import (GlcmConfig, HARALICK_NAMES, LbpConfig,
                                glcm, glcm_patch_matrix, haralick_features,
                                image_row, lbp_histogram, lbp_patch_matrix,
                                quantize)
from clescreen.patching import PatchCoords, resize_half
from conftest import make_image, make_record


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


def parent_ring_sample(stack, radius, ch, cw, dx, dy):
    """The earlier ring sampler, kept as the oracle: strided 2-D windows,
    each neighbor interpolated from its own four pixel windows."""

    def window(oy, ox):
        return stack[:, radius + oy: radius + oy + ch,
                     radius + ox: radius + ox + cw]

    if abs(dx - round(dx)) < 1e-9:
        dx = float(round(dx))
    if abs(dy - round(dy)) < 1e-9:
        dy = float(round(dy))
    ix, iy = math.floor(dx), math.floor(dy)
    tx, ty = dx - ix, dy - iy
    if tx == 0.0 and ty == 0.0:
        return window(iy, ix)
    v00 = window(iy, ix)
    if ty == 0.0:
        return v00 + tx * (window(iy, ix + 1) - v00)
    if tx == 0.0:
        return v00 + ty * (window(iy + 1, ix) - v00)
    v01 = window(iy, ix + 1)
    v10 = window(iy + 1, ix)
    v11 = window(iy + 1, ix + 1)
    return v00 + tx * (v01 - v00) + ty * (v10 - v00) \
        + tx * ty * (v11 + v00 - v01 - v10)


def parent_lbp_codes(stack, radius, neighbors):
    """The earlier riu2 coder over `parent_ring_sample`."""
    n, h, w = stack.shape
    ch, cw = h - 2 * radius, w - 2 * radius
    center = stack[:, radius: radius + ch, radius: radius + cw]
    ones = np.zeros((n, ch, cw), dtype=np.int16)
    transitions = np.zeros((n, ch, cw), dtype=np.int16)
    first = prev = None
    for k in range(neighbors):
        angle = 2.0 * math.pi * k / neighbors
        sample = parent_ring_sample(stack, radius, ch, cw,
                                    radius * math.cos(angle),
                                    radius * math.sin(angle))
        s = sample >= center
        ones += s
        if prev is None:
            first = s
        else:
            transitions += prev != s
        prev = s
    transitions += prev != first
    return np.where(transitions <= 2, ones, neighbors + 1)


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

    @settings(max_examples=150, deadline=None)
    @given(radius=st.integers(1, 6), neighbors=st.integers(4, 30),
           n=st.integers(1, 3), levels=st.sampled_from([2, 3, 4, 5, 6, 0]),
           band=st.sampled_from([1 << 15, 64, 7]),
           seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    def test_matches_parent_ring_sampler(self, radius, neighbors, n, levels,
                                         band, seed, data):
        # Codes equal the strided-window coder's exactly: same float
        # operations per sample.  Counts that are not a multiple of 4 snap
        # only neighbor 0 (and P/2 when even) to a pixel; few gray levels
        # make ties common, levels 0 draws from the full 16-bit range, and
        # small bands split the span into many passes.
        h = data.draw(st.integers(2 * radius + 1, 40), label="h")
        w = data.draw(st.integers(2 * radius + 1, 40), label="w")
        rng = np.random.default_rng(seed)
        if levels:
            stack = rng.integers(0, levels, size=(n, h, w)) \
                * (65535 // (levels - 1))
        else:
            stack = rng.integers(0, 65536, size=(n, h, w))
        stack = stack.astype(np.float64)
        with mock.patch.object(features, "_LBP_BAND", band):
            got = features._lbp_codes(stack, radius, neighbors)
        assert got.shape == (n, h - 2 * radius, w - 2 * radius)
        assert np.array_equal(got, parent_lbp_codes(stack, radius, neighbors))

    @settings(max_examples=60, deadline=None)
    @given(scales=st.lists(st.tuples(st.integers(1, 5), st.integers(4, 26)),
                           min_size=1, max_size=4),
           n=st.integers(1, 2), band=st.sampled_from([1 << 15, 64, 7]),
           seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    def test_scales_share_difference_rasters(self, scales, n, band, seed,
                                             data):
        # One set of difference rasters serves every scale; each scale's
        # codes still equal the parent coder's run on its own.
        reach = 2 * max(r for r, _p in scales) + 1
        h = data.draw(st.integers(reach, 36), label="h")
        w = data.draw(st.integers(reach, 36), label="w")
        rng = np.random.default_rng(seed)
        stack = (rng.integers(0, 4, size=(n, h, w)) * 21845).astype(
            np.float64)
        with mock.patch.object(features, "_LBP_BAND", band):
            got = features._lbp_scale_codes(stack, scales)
        assert len(got) == len(scales)
        for codes, (radius, neighbors) in zip(got, scales):
            assert np.array_equal(
                codes, parent_lbp_codes(stack, radius, neighbors))

    def test_center_tied_to_a_sample_in_documented_order(self):
        # Float-valued 7x7 patches at radius 3, 16 neighbors (one center
        # each).  The center is set to the exact sample of one fractional
        # neighbor, computed in the documented order, and every other
        # neighbor reads pixels far above it.  A tie counts as 1, so that
        # neighbor's bit, and the uniform code (16 or 15), shows whether
        # the coder's sample is the same float down to the last bit.
        radius, neighbors = 3, 16
        ring = [features._ring_offset(radius, neighbors, k)
                for k in range(neighbors)]
        fractional = [k for k, (_iy, _ix, ty, tx) in enumerate(ring)
                      if tx and ty]
        rng = np.random.default_rng(2024)
        stack = 1e9 + rng.uniform(0.0, 1.0, size=(4000, 7, 7))
        for patch, k in zip(stack, rng.choice(fractional, size=len(stack))):
            iy, ix, ty, tx = ring[k]
            cell = patch[radius + iy:radius + iy + 2,
                         radius + ix:radius + ix + 2]
            cell[:] = rng.uniform(0.0, 1000.0, size=(2, 2))
            patch[radius, radius] = documented_sample(cell, ty, tx)
        want = []
        for patch in stack:
            # Axis-aligned neighbors at the rim weigh the padding by 0.
            padded = np.pad(patch, ((0, 1), (0, 1)), mode="edge")
            bits = [documented_sample(padded[radius + iy:radius + iy + 2,
                                             radius + ix:radius + ix + 2],
                                      ty, tx) >= patch[radius, radius]
                    for iy, ix, ty, tx in ring]
            u = sum(bits[k] != bits[k - 1] for k in range(neighbors))
            want.append(sum(bits) if u <= 2 else neighbors + 1)
        codes = features._lbp_codes(stack, radius, neighbors)
        assert codes.shape == (len(stack), 1, 1)
        assert set(want) == {neighbors}  # every tie held, all ones
        assert codes[:, 0, 0].tolist() == want


def documented_sample(cell, ty: float, tx: float) -> float:
    """Bilinear sample of the 2x2 `cell` at fractional offset (ty, tx),
    in the documented order ((v00 + tx*Dh) + ty*Dv) + (tx*ty)*C."""
    (v00, v01), (v10, v11) = cell.tolist()
    dh, dv = v01 - v00, v10 - v00
    cross = ((v11 + v00) - v01) - v10
    return ((v00 + tx * dh) + ty * dv) + (tx * ty) * cross


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

    def test_empty_patch_list_rejected(self, tmp_path):
        # A frame whose every grid patch touches an artifact has no rows.
        img = make_image(size=160)
        config = RunConfig(method="RF-LBP@1.0x", jobs=1)
        rect = ArtifactRect(0, 0, 160, 160)
        assert record_patch_coords((160, 160), img.mask_center,
                                   img.mask_radius, [rect], config) == []
        record = make_record(artifacts=[rect])
        save_image(img, tmp_path / record.file)
        manifest = DatasetManifest(records=[record], root_path=tmp_path)
        with pytest.raises(ValueError, match="no admissible patches"):
            describe_records(manifest, [record], config,
                             plan_records(manifest, [record], config))

    def test_no_coords_rejected(self):
        with pytest.raises(ValueError, match="no patches to describe"):
            lbp_patch_matrix(np.zeros((16, 16)), [])

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
        geometry = ((side, side), img.mask_center, img.mask_radius)
        coords = record_patch_coords(*geometry, artifact, config)
        assert 0 < len(coords) < len(record_patch_coords(*geometry, [],
                                                         config))
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


# One-patch co-occurrence code as it stood before the batched path; the
# oracle for TestBatchedGlcm.


def loop_quantize(values, levels):
    v = np.asarray(values, dtype=np.float64)
    lo, hi = float(v.min()), float(v.max())
    if hi <= lo:
        return np.zeros(v.shape, dtype=np.int64)
    q = np.floor((v - lo) / (hi - lo) * levels)
    return np.clip(q, 0, levels - 1).astype(np.int64)


def loop_glcm(patch, config):
    q = loop_quantize(patch, config.levels)
    h, w = q.shape
    L = config.levels
    acc = np.zeros((L, L), dtype=np.float64)
    for dx, dy in config.offsets:
        ys = slice(max(0, -dy), h - max(0, dy))
        xs = slice(max(0, -dx), w - max(0, dx))
        ys2 = slice(max(0, dy), h - max(0, -dy))
        xs2 = slice(max(0, dx), w - max(0, -dx))
        a = q[ys, xs].ravel()
        b = q[ys2, xs2].ravel()
        m = np.bincount(a * L + b, minlength=L * L).reshape(L, L)
        m = m.astype(np.float64)
        if config.symmetric:
            m = m + m.T
        acc += m
    total = acc.sum()
    if total == 0:
        raise ValueError("patch too small for GLCM offsets")
    return acc / total


def loop_xlogx(p):
    out = np.zeros_like(p)
    nz = p > 0
    out[nz] = p[nz] * np.log(p[nz])
    return out


def loop_haralick(matrix):
    P = np.asarray(matrix, dtype=np.float64)
    L = P.shape[0]
    i = np.arange(L, dtype=np.float64)
    ii, jj = np.meshgrid(i, i, indexing="ij")
    px = P.sum(axis=1)
    py = P.sum(axis=0)
    mu_x = float((i * px).sum())
    mu_y = float((i * py).sum())
    var_x = float(((i - mu_x) ** 2 * px).sum())
    var_y = float(((i - mu_y) ** 2 * py).sum())

    p_sum = np.bincount((ii + jj).astype(np.int64).ravel(),
                        weights=P.ravel(), minlength=2 * L - 1)
    p_diff = np.bincount(np.abs(ii - jj).astype(np.int64).ravel(),
                         weights=P.ravel(), minlength=L)
    k_sum = np.arange(2 * L - 1, dtype=np.float64)
    k_diff = np.arange(L, dtype=np.float64)

    energy = float((P ** 2).sum())
    contrast = float((k_diff ** 2 * p_diff).sum())
    denom = math.sqrt(var_x * var_y)
    correlation = 0.0 if denom == 0.0 else \
        float(((ii * jj * P).sum() - mu_x * mu_y) / denom)
    homogeneity = float((P / (1.0 + (ii - jj) ** 2)).sum())
    sum_average = float((k_sum * p_sum).sum())
    sum_variance = float(((k_sum - sum_average) ** 2 * p_sum).sum())
    sum_entropy = float(-loop_xlogx(p_sum).sum())
    entropy = float(-loop_xlogx(P).sum())
    mu_diff = float((k_diff * p_diff).sum())
    difference_variance = float(((k_diff - mu_diff) ** 2 * p_diff).sum())
    difference_entropy = float(-loop_xlogx(p_diff).sum())

    hx = float(-loop_xlogx(px).sum())
    hy = float(-loop_xlogx(py).sum())
    pxy = np.outer(px, py)
    nz = P > 0
    hxy1 = float(-(P[nz] * np.log(pxy[nz])).sum())
    hxy2 = float(-loop_xlogx(pxy).sum())
    hmax = max(hx, hy)
    imc1 = 0.0 if hmax == 0.0 else (entropy - hxy1) / hmax
    imc2 = math.sqrt(max(0.0, 1.0 - math.exp(-2.0 * (hxy2 - entropy))))

    return np.array([
        energy, contrast, correlation, var_x, homogeneity,
        sum_average, sum_variance, sum_entropy, entropy,
        difference_variance, difference_entropy, imc1, imc2,
        mu_diff, mu_x,
    ])


IMC1 = HARALICK_NAMES.index("info_corr_1")


def imc1_scale(matrix):
    """hxy1 / max(hx, hy), the operand whose summation order the batched
    path changes (hxy1 = hx + hy), or 0 when both entropies vanish."""
    hx = -loop_xlogx(matrix.sum(axis=1)).sum()
    hy = -loop_xlogx(matrix.sum(axis=0)).sum()
    return 0.0 if max(hx, hy) == 0.0 else (hx + hy) / max(hx, hy)


def assert_matches_loop(got, patches, config):
    """`got` rows equal the one-patch loop oracle's statistics of
    `patches` bit for bit, info_corr_1 within 1e-12 of its scale."""
    matrices = [loop_glcm(patch, config) for patch in patches]
    expected = np.stack([loop_haralick(m) for m in matrices])
    exact = [k for k in range(len(HARALICK_NAMES)) if k != IMC1]
    assert np.array_equal(got[:, exact], expected[:, exact])
    bound = 1e-12 * np.array([imc1_scale(m) for m in matrices])
    assert np.all(np.abs(got[:, IMC1] - expected[:, IMC1]) <= bound)
    return matrices


class TestBatchedGlcm:
    """glcm_patch_matrix works a block of patches at a time through
    buffers it reuses for every block, and a stack of blocks per Haralick
    call; every statistic equals the one-patch loop bit for bit, except
    info_corr_1, whose hxy1 sum runs over a patch's whole L x L matrix
    rather than its nonzero entries only.  That column is held to 1e-12
    relative to hxy1 / max(hx, hy)."""

    @settings(max_examples=120, deadline=None)
    @given(levels=st.integers(2, 256), h=st.integers(2, 24),
           w=st.integers(2, 24), block=st.integers(2, 6),
           kinds=st.lists(st.sampled_from(["noise", "constant",
                                           "two-level"]),
                          min_size=1, max_size=14),
           symmetric=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_one_patch_loop(self, levels, h, w, block, kinds,
                                    symmetric, seed):
        assume(len(kinds) % block != 0)
        rng = np.random.default_rng(seed)
        patches = []
        for kind in kinds:
            if kind == "noise":
                patch = rng.integers(0, 65536, size=(h, w))
            elif kind == "constant":
                patch = np.full((h, w), int(rng.integers(0, 65536)))
            else:
                patch = rng.choice(rng.integers(0, 65536, size=2), (h, w))
            patches.append(patch.astype(np.uint16))
        pixels, coords = side_by_side(np.stack(patches))
        config = GlcmConfig(levels=levels, symmetric=symmetric)
        # `block` patches per block: the last block is a partial one.
        budget = block * max(h * w, levels * levels)
        with mock.patch.object(features, "_GLCM_BLOCK_VALUES", budget):
            assert features._glcm_sizes(h, w, levels)[0] == block
            got = glcm_patch_matrix(pixels, coords, config)
        matrices = assert_matches_loop(got, patches, config)
        # The one-patch functions are the batched path's n = 1 case.
        for patch, m, row in zip(patches, matrices, got):
            assert np.array_equal(quantize(patch, levels),
                                  loop_quantize(patch, levels))
            assert np.array_equal(glcm(patch, config), m)
            assert np.array_equal(haralick_features(m), row)

    def test_reused_buffers_across_blocks_and_stacks(self):
        # 4 levels, 6 x 7 patches: 3 patches per block and 6 (two blocks)
        # per Haralick stack, so 8 patches fill one stack and leave a
        # partial block in a second.  The constant patches land in buffer
        # slots that held noisy windows one block earlier.
        rng = np.random.default_rng(31)
        patches = [rng.integers(0, 65536, size=(6, 7)) for _ in range(8)]
        patches[4] = np.full((6, 7), 40000)
        patches[6] = np.full((6, 7), 7)
        pixels, coords = side_by_side(np.stack(patches).astype(np.uint16))
        config = GlcmConfig(levels=4)
        blocks, stacks = [], []
        real_count = features._GlcmCounter.count
        real_haralick = features._haralick_stack

        def count(counter, pixels, corners, out):
            blocks.append((len(corners), counter.window.shape[0]))
            real_count(counter, pixels, corners, out)

        def haralick(P):
            stacks.append(len(P))
            return real_haralick(P)

        with mock.patch.object(features, "_GLCM_BLOCK_VALUES", 3 * 42), \
                mock.patch.object(features._GlcmCounter, "count", count), \
                mock.patch.object(features, "_haralick_stack", haralick):
            assert features._glcm_sizes(6, 7, 4) == (3, 6)
            got = glcm_patch_matrix(pixels, coords, config)
        assert blocks == [(3, 3), (3, 3), (2, 3)]
        assert stacks == [6, 2]
        matrices = assert_matches_loop(got, patches, config)
        for k in (4, 6):
            assert matrices[k][0, 0] == 1.0
            assert np.array_equal(glcm(patches[k], config), matrices[k])

    def test_back_to_back_calls_change_shape(self):
        # Every call sizes its own buffers: a call with other levels,
        # patch size or offsets after a larger one matches the loop.
        rng = np.random.default_rng(37)
        for (h, w), config in (
                ((9, 5), GlcmConfig(levels=64)),
                ((4, 11), GlcmConfig(levels=3, offsets=((1, 0),))),
                ((9, 5), GlcmConfig(levels=16, offsets=((0, 2), (-2, 1)),
                                    symmetric=False)),
                ((3, 3), GlcmConfig(levels=256)),
                ((9, 5), GlcmConfig(levels=64))):
            patches = [rng.integers(0, 65536, size=(h, w)) for _ in range(7)]
            pixels, coords = side_by_side(
                np.stack(patches).astype(np.uint16))
            with mock.patch.object(features, "_GLCM_BLOCK_VALUES",
                                   2 * max(h * w, config.levels ** 2)):
                got = glcm_patch_matrix(pixels, coords, config)
            assert_matches_loop(got, patches, config)

    @pytest.mark.parametrize("n, side, levels", [
        (121, 80, 16), (40, 80, 256), (30, 24, 64), (500, 16, 16),
        (3, 8, 2)])
    def test_working_bytes_bound_allocations(self, n, side, levels):
        # The closed-form prediction the memory check uses covers the
        # tracemalloc peak of one call, and is within 25 % of it at the
        # paper's 80 px, 16-level patches.
        rng = np.random.default_rng(41)
        pixels = rng.integers(0, 65536, size=(side, n * side)).astype(
            np.uint16)
        coords = [PatchCoords(k * side, (k + 1) * side, 0, side)
                  for k in range(n)]
        config = GlcmConfig(levels=levels)
        tracemalloc.start()
        try:
            glcm_patch_matrix(pixels, coords, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        predicted = features.glcm_working_bytes(side, side, n, config)
        assert peak <= predicted
        if (side, levels) == (80, 16):
            assert predicted <= 1.25 * peak

    def test_working_bytes_closed_form(self):
        # 121 patches of 80 px at 16 levels: 20 per block, all 121 in one
        # Haralick stack.  Pairs per patch over the four offsets:
        # 2 * 80 * 79 + 2 * 79 * 79.
        pairs = 2 * 80 * 79 + 2 * 79 * 79
        expected = 8 * (20 * (3 * 6400 + pairs) + 6 * 121 * 256 + 121 * 15) \
            + (1 << 18)
        assert features.glcm_working_bytes(80, 80, 121, GlcmConfig()) \
            == expected
        # One patch sizes one-patch buffers.
        assert features.glcm_working_bytes(80, 80, 1, GlcmConfig()) == \
            8 * (3 * 6400 + pairs + 6 * 256 + 15) + (1 << 18)

    def test_patch_too_small_for_offsets(self):
        config = GlcmConfig(offsets=((1, 0),))
        with pytest.raises(ValueError,
                           match="patch too small for GLCM offsets"):
            glcm(np.zeros((3, 1)), config)
        with pytest.raises(ValueError,
                           match="patch too small for GLCM offsets"):
            glcm_patch_matrix(np.zeros((3, 4)), [PatchCoords(0, 1, 0, 3),
                                                 PatchCoords(2, 3, 0, 3)],
                              config)

    def test_mixed_patch_sizes_rejected(self):
        coords = [PatchCoords(0, 4, 0, 4), PatchCoords(4, 9, 0, 4)]
        with pytest.raises(ValueError, match="share one size"):
            glcm_patch_matrix(np.zeros((4, 9)), coords)
