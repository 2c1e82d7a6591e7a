"""Percentile compression, maximum-square crop, resampling, rotation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clescreen.core import CleImage
from clescreen.wholeimage import (SquareCrop, _bilinear_sample, _edge_pad,
                                  max_square_crop,
                                  max_square_side, nearest_rank_percentile,
                                  percentile_compress, resize_to, rotate)
from conftest import make_image


def compress_oracle(image: CleImage):
    """Sort-based nearest-rank oracle applied pixel by pixel."""
    cx, cy = image.mask_center
    yy, xx = np.ogrid[:image.height, :image.width]
    strict = (xx - cx) ** 2 + (yy - cy) ** 2 < image.mask_radius ** 2
    vals = np.sort(image.pixels[strict].ravel())
    n = len(vals)
    p_lo = vals[max(1, math.ceil(0.005 * n)) - 1]
    p_hi = vals[max(1, math.ceil(0.995 * n)) - 1]
    if p_hi == p_lo:
        return np.zeros_like(image.pixels, dtype=np.uint8), True
    scaled = 255.0 / (p_hi - p_lo) * (image.pixels.astype(float) - p_lo)
    out = np.clip(np.floor(scaled + 0.5), 0, 255).astype(np.uint8)
    out[~strict] = 0
    return out, False


class TestPercentileCompress:
    def test_constant_image_degenerate(self):
        img = make_image(size=160, fill=4000)
        comp = percentile_compress(img)
        assert comp.degenerate
        assert np.all(comp.pixels == 0)

    def test_two_level_endpoints(self):
        img = make_image(size=160, fill=0)
        px = img.pixels.copy()
        yy, xx = np.ogrid[:160, :160]
        strict = (xx - 80.0) ** 2 + (yy - 80.0) ** 2 < 80.0 ** 2
        px[strict] = 0
        px[strict & (xx >= 80)] = 65535  # >= 200 px on each level
        img = CleImage(pixels=px, mask_center=(80.0, 80.0), mask_radius=80.0)
        comp = percentile_compress(img)
        assert comp.p_low == 0.0 and comp.p_high == 65535.0
        assert set(np.unique(comp.pixels[strict])) == {0, 255}

    def test_ramp_nearest_rank(self):
        # In-circle values form a linear ramp; the percentile must sit at
        # sorted rank ceil(q * n) exactly.
        img = make_image(size=160, fill=0)
        cx, cy = img.mask_center
        yy, xx = np.ogrid[:160, :160]
        strict = (xx - cx) ** 2 + (yy - cy) ** 2 < img.mask_radius ** 2
        n = int(strict.sum())
        ramp = np.linspace(0, 65535, n).astype(np.uint16)
        px = img.pixels.copy()
        px[strict] = ramp
        img = CleImage(pixels=px, mask_center=img.mask_center,
                       mask_radius=img.mask_radius)
        comp = percentile_compress(img)
        vals = np.sort(ramp)
        assert comp.p_low == vals[math.ceil(0.005 * n) - 1]
        assert comp.p_high == vals[math.ceil(0.995 * n) - 1]
        # extremes clamp to the endpoints
        assert comp.pixels[strict].min() == 0
        assert comp.pixels[strict].max() == 255

    def test_matches_oracle_on_random_images(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            img = make_image(size=168, rng=rng)
            comp = percentile_compress(img)
            expect, degenerate = compress_oracle(img)
            assert not degenerate
            assert np.array_equal(comp.pixels, expect)

    def test_outside_circle_is_zero(self):
        img = make_image(size=160, rng=np.random.default_rng(5))
        comp = percentile_compress(img)
        yy, xx = np.ogrid[:160, :160]
        outside = (xx - 80.0) ** 2 + (yy - 80.0) ** 2 >= 80.0 ** 2
        assert np.all(comp.pixels[outside] == 0)

    def test_monotone_inside_circle(self):
        rng = np.random.default_rng(6)
        img = make_image(size=160, rng=rng)
        comp = percentile_compress(img)
        strict = img.inside_mask(strict=True)
        a = img.pixels[strict].astype(int)
        b = comp.pixels[strict].astype(int)
        order = np.argsort(a, kind="stable")
        assert np.all(np.diff(b[order]) >= 0)

    def test_nearest_rank_small_population(self):
        assert nearest_rank_percentile(np.array([3.0]), 99.5) == 3.0
        assert nearest_rank_percentile(np.array([1.0, 2.0]), 0.5) == 1.0


class TestMaxSquareCrop:
    def test_side_for_full_res_radius(self):
        assert max_square_side(288) == 407
        assert 0.545 <= 224 / 407 <= 0.555

    def test_side_floor(self):
        assert max_square_side(100) == 141
        assert max_square_side(144) == 203

    def test_corners_within_radius_plus_one(self):
        # Geometric oracle over random radii.
        rng = np.random.default_rng(12)
        for _ in range(40):
            r = float(rng.uniform(10, 500))
            size = int(2 * math.ceil(r)) + 4
            center = (size / 2.0, size / 2.0)
            crop = max_square_crop(np.zeros((size, size), np.uint8), center, r)
            ox, oy = crop.origin
            for cxn, cyn in ((ox, oy), (ox + crop.side, oy),
                             (ox, oy + crop.side),
                             (ox + crop.side, oy + crop.side)):
                d = math.hypot(cxn - center[0], cyn - center[1])
                assert d <= r + 1.0

    def test_discarded_area_fraction(self):
        # side^2 / (pi r^2) -> 2/pi; about 36 % of the circle is lost.
        assert abs((1 - 2 / math.pi) - 0.36) < 0.005
        r = 288.0
        side = max_square_side(r)
        assert abs(side ** 2 / (math.pi * r * r) - 2 / math.pi) < 0.005

    def test_crop_contents(self):
        rng = np.random.default_rng(3)
        px = rng.integers(0, 256, size=(600, 600)).astype(np.uint8)
        crop = max_square_crop(px, (300.0, 300.0), 288.0)
        ox, oy = crop.origin
        assert np.array_equal(crop.pixels,
                              px[oy:oy + crop.side, ox:ox + crop.side])

    def test_malformed_mask_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            max_square_crop(np.zeros((100, 100), np.uint8), (50.0, 50.0), 80.0)

    def test_tiny_radius_rejected(self):
        with pytest.raises(ValueError, match="too small"):
            max_square_crop(np.zeros((10, 10), np.uint8), (5.0, 5.0), 1.0)


class TestResizeTo:
    def test_constant_preserved(self):
        crop = SquareCrop(side=448, origin=(0, 0),
                          pixels=np.full((448, 448), 77, dtype=np.uint8))
        out = resize_to(crop, 224)
        assert out.shape == (224, 224)
        assert np.all(out == 77)

    def test_range_containment(self):
        rng = np.random.default_rng(17)
        px = rng.integers(40, 200, size=(407, 407)).astype(np.uint8)
        out = resize_to(px, 224)
        assert out.min() >= px.min()
        assert out.max() <= px.max()

    def test_gradient_round_trip_within_two(self):
        # Round-trip tolerance oracle on a smooth field.
        side = 224
        base = np.fromfunction(
            lambda y, x: 40 + 0.3 * x + 0.2 * y, (side, side))
        base = np.clip(np.floor(base + 0.5), 0, 255).astype(np.uint8)
        up = resize_to(base, 448)
        back = resize_to(up, 224)
        assert np.max(np.abs(back.astype(int) - base.astype(int))) <= 2



def rotate_reference(image: CleImage, angle_deg: float) -> np.ndarray:
    """Whole-frame rotation in one pass: the inverse map of every output
    pixel at once, sampled by 2-D fancy indexing."""
    theta = math.radians(angle_deg % 360.0)
    if theta == 0.0:
        return image.pixels.copy()
    c, s = math.cos(theta), math.sin(theta)
    cx, cy = image.mask_center
    h, w = image.pixels.shape
    dx = np.arange(w, dtype=np.float64) - cx
    dy = np.arange(h, dtype=np.float64) - cy
    px = cx + c * dx[None, :] + s * dy[:, None]
    py = cy - s * dx[None, :] + c * dy[:, None]
    valid = (px >= -0.5) & (px <= w - 0.5) & (py >= -0.5) & (py <= h - 0.5)
    x0f, y0f = np.floor(px), np.floor(py)
    tx, ty = px - x0f, py - y0f
    x0 = np.clip(x0f.astype(np.int64), 0, w - 1)
    x1 = np.clip(x0f.astype(np.int64) + 1, 0, w - 1)
    y0 = np.clip(y0f.astype(np.int64), 0, h - 1)
    y1 = np.clip(y0f.astype(np.int64) + 1, 0, h - 1)
    src = image.pixels.astype(np.float64)
    v00, v01 = src[y0, x0], src[y0, x1]
    v10, v11 = src[y1, x0], src[y1, x1]
    out = v00 + tx * (v01 - v00) + ty * (v10 - v00) \
        + tx * ty * (v11 + v00 - v01 - v10)
    out = np.where(valid, out, 0.0)
    return np.clip(np.floor(out + 0.5), 0, 65535).astype(np.uint16)


class TestRotate:
    def test_zero_angle_identity(self):
        img = make_image(size=160, rng=np.random.default_rng(1))
        out = rotate(img, 0.0)
        assert np.array_equal(out.pixels, img.pixels)

    def test_full_turn_identity(self):
        img = make_image(size=160, rng=np.random.default_rng(1))
        assert np.array_equal(rotate(img, 360.0).pixels, img.pixels)

    @pytest.mark.parametrize("angle", [0.0, 360.0])
    def test_no_turn_keeps_spans_about_non_dyadic_center(self, angle):
        # No turn samples each pixel at cx + (x - cx), within rounding of
        # x, so every pixel in the spans keeps its value and every other
        # pixel is 0.
        rng = np.random.default_rng(3)
        img = CleImage(pixels=rng.integers(0, 65536, size=(576, 576),
                                           dtype=np.uint16),
                       mask_center=(287.123, 286.9), mask_radius=280.0)
        spans = np.zeros((576, 2), dtype=np.intp)
        spans[40:500] = (13, 561)
        spans[100:140] = (0, 576)
        spans[300] = (575, 576)
        out = rotate(img, angle, spans)
        inside = np.zeros(img.pixels.shape, dtype=bool)
        for y, (lo, hi) in enumerate(spans):
            inside[y, lo:hi] = True
        assert np.array_equal(out.pixels[inside], img.pixels[inside])
        assert not out.pixels[~inside].any()

    def test_four_quarter_turns_identity_inside_circle(self):
        img = make_image(size=160, rng=np.random.default_rng(2))
        out = img
        for _ in range(4):
            out = rotate(out, 90.0)
        strict = img.inside_mask(strict=True)
        assert np.array_equal(out.pixels[strict], img.pixels[strict])

    def test_quarter_turn_is_exact_permutation(self):
        img = make_image(size=160, rng=np.random.default_rng(2))
        out = rotate(img, 90.0)
        strict = img.inside_mask(strict=True)
        # the multiset of in-circle values is preserved exactly
        assert sorted(out.pixels[strict]) == sorted(img.pixels[strict])

    def test_half_turn_reverses_indices(self):
        # Permutation oracle: with an integer center, 180 degrees maps
        # index (y, x) to (2cy - y, 2cx - x), i.e. full index reversal.
        px = np.arange(9, dtype=np.uint16).reshape(3, 3) * 100
        img = CleImage(pixels=px, mask_center=(1.0, 1.0), mask_radius=1.0)
        out = rotate(img, 180.0)
        assert np.array_equal(out.pixels, px[::-1, ::-1])

    def test_out_of_source_zero_fill(self):
        img = make_image(size=160, fill=50000)
        out = rotate(img, 45.0)
        assert out.pixels[0, 0] == 0  # corner leaves the source raster

    def test_mask_unchanged(self):
        img = make_image(size=160, fill=100)
        out = rotate(img, 123.4)
        assert out.mask_center == img.mask_center
        assert out.mask_radius == img.mask_radius

    def test_smooth_mass_preserved_within_one_percent(self):
        size = 160
        base = np.fromfunction(
            lambda y, x: 20000 + 60 * x + 40 * y, (size, size))
        img = CleImage(pixels=base.astype(np.uint16),
                       mask_center=(80.0, 80.0), mask_radius=80.0)
        out = rotate(img, 37.0)
        strict = img.inside_mask(strict=True)
        a = float(img.pixels[strict].sum())
        b = float(out.pixels[strict].sum())
        assert abs(a - b) / a < 0.01

    @pytest.mark.parametrize("shape", [(301, 577), (70, 130)])
    @pytest.mark.parametrize("angle", [0.0, 90.0, 137.5, 270.0])
    def test_row_bands_match_whole_frame_reference(self, shape, angle):
        # Heights that are not a multiple of the band leave a short last
        # band; the off-center mask makes the map asymmetric.
        h, w = shape
        rng = np.random.default_rng(11)
        img = CleImage(pixels=rng.integers(0, 65536, size=shape,
                                           dtype=np.uint16),
                       mask_center=(w * 0.41, h * 0.57),
                       mask_radius=min(h, w) * 0.4)
        out = rotate(img, angle)
        assert out.pixels.dtype == np.uint16
        assert np.array_equal(out.pixels, rotate_reference(img, angle))


def parent_bilinear_sample(src, px, py):
    """The earlier sampler, kept as the oracle: four clipped coordinate
    arrays gathered from the unpadded raster."""
    h, w = src.shape
    valid = (px >= -0.5) & (px <= w - 0.5) & (py >= -0.5) & (py <= h - 0.5)
    x0f = np.floor(px)
    y0f = np.floor(py)
    tx = px - x0f
    ty = py - y0f
    xi = x0f.astype(np.int64)
    yi = y0f.astype(np.int64)
    x0 = np.clip(xi, 0, w - 1)
    x1 = np.clip(xi + 1, 0, w - 1)
    row0 = np.clip(yi, 0, h - 1) * w
    row1 = np.clip(yi + 1, 0, h - 1) * w
    flat = src.astype(np.float64, copy=False).ravel()
    v00 = flat.take(row0 + x0)
    v01 = flat.take(row0 + x1)
    v10 = flat.take(row1 + x0)
    v11 = flat.take(row1 + x1)
    out = v00 + tx * (v01 - v00) + ty * (v10 - v00) \
        + tx * ty * (v11 + v00 - v01 - v10)
    return np.where(valid, out, 0.0)


def parent_rotate(image, angle_deg):
    """The earlier `rotate` over the whole frame at once."""
    theta = math.radians(angle_deg % 360.0)
    if theta == 0.0:
        return image.pixels.copy()
    c, s = math.cos(theta), math.sin(theta)
    cx, cy = image.mask_center
    h, w = image.pixels.shape
    dx = np.arange(w, dtype=np.float64) - cx
    dy = np.arange(h, dtype=np.float64) - cy
    sx = cx + c * dx[None, :] + s * dy[:, None]
    sy = cy - s * dx[None, :] + c * dy[:, None]
    sampled = parent_bilinear_sample(image.pixels.astype(np.float64), sx, sy)
    return np.clip(np.floor(sampled + 0.5), 0, 65535).astype(np.uint16)


def parent_resize_to(src, target):
    """The earlier `resize_to` on a raster."""
    side = src.shape[0]
    pos = (np.arange(target, dtype=np.float64) + 0.5) * (side / target) - 0.5
    pos = np.clip(pos, 0.0, side - 1.0)
    px, py = np.meshgrid(pos, pos)
    out = parent_bilinear_sample(src.astype(np.float64), px, py)
    return np.clip(np.floor(out + 0.5), 0, 255).astype(np.uint8)


class TestPaddedGatherMatchesParentSampler:
    """The edge-padded gather reads the same four pixels as the clipped
    coordinate arrays, so every output equals the earlier sampler's."""

    @settings(max_examples=60, deadline=None)
    @given(h=st.integers(1, 23), w=st.integers(1, 23),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_positions_on_and_beyond_the_border(self, h, w, seed):
        rng = np.random.default_rng(seed)
        src = rng.integers(0, 65536, size=(h, w)).astype(np.float64)

        def axis(n):
            # Exactly on the +-0.5 border, one ulp either side of it,
            # pixel centers, and anywhere from well outside to inside.
            edges = np.array([-0.5, n - 0.5, 0.0, n - 1.0])
            near = np.concatenate([np.nextafter(edges, -np.inf),
                                   np.nextafter(edges, np.inf)])
            return np.concatenate([edges, near,
                                   rng.uniform(-3.0, n + 2.0, 40)])

        px, py = np.meshgrid(axis(w), axis(h))
        got = _bilinear_sample(_edge_pad(src), px, py)
        assert np.array_equal(got, parent_bilinear_sample(src, px, py))

    @settings(max_examples=60, deadline=None)
    @given(h=st.integers(2, 61), w=st.integers(2, 61),
           cx=st.integers(-4, 4), cy=st.integers(-4, 4),
           angle=st.one_of(st.sampled_from([90.0, 180.0, 270.0, 45.0]),
                           st.floats(0.0, 360.0)),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_rotate(self, h, w, cx, cy, angle, seed):
        # Off-center masks on half- and quarter-pixel positions: quarter
        # turns then map border pixels onto (or within rounding of) the
        # +-0.5 limit.
        rng = np.random.default_rng(seed)
        img = CleImage(pixels=rng.integers(0, 65536, size=(h, w),
                                           dtype=np.uint16),
                       mask_center=((w - 1) / 2 + cx / 4,
                                    (h - 1) / 2 + cy / 4),
                       mask_radius=(min(h, w) - 1) / 2)
        assert np.array_equal(rotate(img, angle).pixels,
                              parent_rotate(img, angle))

    @settings(max_examples=60, deadline=None)
    @given(side=st.integers(2, 61), target=st.integers(1, 90),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_resize_to(self, side, target, seed):
        rng = np.random.default_rng(seed)
        src = rng.integers(0, 256, size=(side, side)).astype(np.uint8)
        assert np.array_equal(resize_to(src, target),
                              parent_resize_to(src, target))
