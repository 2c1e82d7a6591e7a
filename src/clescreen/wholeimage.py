"""Whole-frame preprocessing: dynamic-range compression to 8 bit, the
maximum inscribed square crop, resampling to a fixed input size, and
rotation about the view center.

The 16-bit frames are compressed with a percentile scaling rule computed
over the circular view area, then the largest axis-aligned square inside
the circle (side sqrt(2) * r) is cropped around the center and resampled
to the classifier input size.  Rotation is applied before cropping when
augmenting, since the circular view has no natural orientation.

`rotate` also serves the patch methods' augmented copies.  They read
only the pixels under their patches, so they pass the patches' column
span per row and get a frame that is 0 outside it.  `rotate` and
`resize_to` share one bilinear sampler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CleImage

TARGET_SIZE = 224
P_LOW = 0.5
P_HIGH = 99.5
# Output rows `rotate` maps per pass.
_ROTATE_BAND = 64


@dataclass
class CompressedImage:
    """8-bit raster plus the percentile window that produced it."""

    pixels: np.ndarray
    p_low: float
    p_high: float
    degenerate: bool = False


@dataclass
class SquareCrop:
    side: int
    origin: tuple[int, int]
    pixels: np.ndarray


def _round_half_up(values: np.ndarray) -> np.ndarray:
    return np.floor(values + 0.5)


def nearest_rank_percentile(values: np.ndarray, q: float) -> float:
    """q-th percentile by the nearest-rank rule: the value at sorted
    position ceil(q/100 * n), 1-indexed."""
    v = np.sort(np.asarray(values).ravel())
    if v.size == 0:
        raise ValueError("empty percentile population")
    rank = max(1, math.ceil(q / 100.0 * v.size))
    return float(v[rank - 1])


def percentile_compress(image: CleImage) -> CompressedImage:
    """Compress 16-bit dynamics into 8 bit by percentile scaling.

    out = clamp(round(255 / (Ph - Pl) * (in - Pl)), 0, 255), with Pl, Ph
    the 0.5th and 99.5th nearest-rank percentiles of the pixels strictly
    inside the view circle.  Pixels outside the circle are set to 0.  A
    constant view area (Ph == Pl) yields an all-zero, degenerate output.
    """
    inside = image.inside_mask(strict=True)
    population = image.pixels[inside]
    if population.size == 0:
        raise ValueError("mask circle contains no pixels")
    p_lo = nearest_rank_percentile(population, P_LOW)
    p_hi = nearest_rank_percentile(population, P_HIGH)
    out = np.zeros(image.pixels.shape, dtype=np.uint8)
    if p_hi == p_lo:
        return CompressedImage(pixels=out, p_low=p_lo, p_high=p_hi,
                               degenerate=True)
    scaled = 255.0 / (p_hi - p_lo) * (image.pixels.astype(np.float64) - p_lo)
    clamped = np.clip(_round_half_up(scaled), 0.0, 255.0).astype(np.uint8)
    out[inside] = clamped[inside]
    return CompressedImage(pixels=out, p_low=p_lo, p_high=p_hi)


def max_square_side(radius: float) -> int:
    """Side of the largest axis-aligned square inscribed in the circle."""
    return math.floor(math.sqrt(2.0) * radius)


def max_square_crop(pixels8: np.ndarray, mask_center: tuple[float, float],
                    mask_radius: float) -> SquareCrop:
    """Extract the maximum square area around the view center.

    The crop covers 2/pi (~64 %) of the circle; everything nearer the rim
    is discarded.  Corner-to-center distance stays within radius + 1 px
    (integer-origin rounding slack)."""
    if mask_radius < 2:
        raise ValueError(f"mask radius {mask_radius} too small to crop")
    h, w = pixels8.shape
    side = max_square_side(mask_radius)
    cx, cy = mask_center
    ox = int(math.floor(cx - side / 2.0 + 0.5))
    oy = int(math.floor(cy - side / 2.0 + 0.5))
    if ox < 0 or oy < 0 or ox + side > w or oy + side > h:
        raise ValueError(
            f"square crop [{ox}, {ox + side}) x [{oy}, {oy + side}) exceeds "
            f"{w}x{h} raster; malformed mask")
    return SquareCrop(side=side, origin=(ox, oy),
                      pixels=pixels8[oy:oy + side, ox:ox + side].copy())


def _edge_pad(src: np.ndarray) -> np.ndarray:
    """`src` as float64 with a one-pixel border repeating its edge, the
    raster `_bilinear_sample` gathers from."""
    return np.pad(src, 1, mode="edge").astype(np.float64)


def _bilinear_sample(padded: np.ndarray, px: np.ndarray,
                     py: np.ndarray) -> np.ndarray:
    """Sample the raster that `padded` (from `_edge_pad`) borders at float
    positions with bilinear weights.

    Pixel (x, y) is the point at integer coordinates (x, y).  Positions
    within half a pixel of the border read the edge copies, which is the
    edge sample; anything farther out is 0.  The difference form
    ((v00 + tx*Dh) + ty*Dv) + (tx*ty)*C keeps interpolation exact on
    locally constant data.  It is evaluated in place in the four gathered
    arrays, so a call allocates few temporaries the size of `px`.
    """
    h, w = padded.shape[0] - 2, padded.shape[1] - 2
    valid = (px >= -0.5) & (px <= w - 0.5) & (py >= -0.5) & (py <= h - 0.5)
    x0 = np.floor(px)
    y0 = np.floor(py)
    tx = px - x0
    ty = py - y0
    # Flat index of the cell's top-left pixel v00 in the padded raster,
    # (y0 + 1) * row + (x0 + 1); clipping only keeps positions that read
    # 0 in bounds.
    row = w + 2
    y0 += 1.0
    y0 *= row
    x0 += 1.0
    y0 += x0
    k = y0.astype(np.intp)
    flat = padded.ravel()
    v00 = flat.take(k, mode="clip", out=x0)
    v01 = flat[1:].take(k, mode="clip", out=y0)
    v10 = flat[row:].take(k, mode="clip")
    v11 = flat[row + 1:].take(k, mode="clip")
    # C = ((v11 + v00) - v01) - v10, then Dh = v01 - v00, Dv = v10 - v00.
    v11 += v00
    v11 -= v01
    v11 -= v10
    v01 -= v00
    v10 -= v00
    v01 *= tx
    v00 += v01
    v10 *= ty
    v00 += v10
    tx *= ty
    v11 *= tx
    v00 += v11
    v00[~valid] = 0.0
    return v00


def resize_to(crop: SquareCrop | np.ndarray, target: int = TARGET_SIZE) -> np.ndarray:
    """Bilinear resample a square 8-bit raster to target x target.

    Output intensities cannot leave the input range: every sample is a
    convex combination of input pixels, and rounding stays inside integer
    bounds."""
    src = crop.pixels if isinstance(crop, SquareCrop) else crop
    side = src.shape[0]
    if side < 2:
        raise ValueError("source side must be >= 2")
    scale = side / float(target)
    pos = (np.arange(target, dtype=np.float64) + 0.5) * scale - 0.5
    pos = np.clip(pos, 0.0, side - 1.0)
    px, py = np.meshgrid(pos, pos)
    out = _bilinear_sample(_edge_pad(src), px, py)
    return np.clip(_round_half_up(out), 0, 255).astype(np.uint8)


def preprocess(image: CleImage, target: int = TARGET_SIZE
               ) -> tuple[CompressedImage, SquareCrop, np.ndarray]:
    """The whole-frame chain: percentile compression to 8 bit, the
    maximum square crop around the view center, and bilinear resampling
    to target x target.  Returns all three stages."""
    compressed = percentile_compress(image)
    crop = max_square_crop(compressed.pixels, image.mask_center,
                           image.mask_radius)
    return compressed, crop, resize_to(crop, target)


def _span_runs(spans: np.ndarray) -> list[tuple[int, int, int, int]]:
    """(r0, r1, lo, hi) for each run of at most `_ROTATE_BAND` consecutive
    rows that share one non-empty column span [lo, hi) of `spans`."""
    changed = (spans[1:] != spans[:-1]).any(axis=1)
    cuts = (np.flatnonzero(changed) + 1).tolist()
    runs = []
    for start, end in zip([0, *cuts], [*cuts, len(spans)]):
        lo, hi = spans[start].tolist()
        if lo < hi:
            runs += [(r0, min(r0 + _ROTATE_BAND, end), lo, hi)
                     for r0 in range(start, end, _ROTATE_BAND)]
    return runs


def rotate(image: CleImage, angle_deg: float,
           spans: np.ndarray | None = None) -> CleImage:
    """Rotate about the mask center with bilinear interpolation.

    Pixels whose source position falls outside the raster become 0; the
    mask circle itself is rotation invariant and is kept unchanged.

    `spans`, a (height, 2) integer array, limits the work to the pixels
    a caller reads: columns [lo, hi) of each row.  Each of those pixels
    equals the full rotation's, and every other pixel is 0.  None
    rotates the whole frame.
    """
    h, w = image.pixels.shape
    runs = _span_runs(np.tile([0, w], (h, 1)) if spans is None
                      else np.asarray(spans))
    out = np.zeros((h, w), dtype=np.uint16)
    theta = math.radians(angle_deg % 360.0)
    c = math.cos(theta)
    s = math.sin(theta)
    cx, cy = image.mask_center
    padded = _edge_pad(image.pixels)
    dx = np.arange(w, dtype=np.float64) - cx
    dy = np.arange(h, dtype=np.float64) - cy
    # Inverse map: output pixel (x, y) samples the source at
    # sx = (cx + c*dx) + s*dy, sy = (cy - s*dx) + c*dy, one run of rows at
    # a time so the temporaries stay cache-sized.
    x_of_dx, y_of_dx = cx + c * dx, cy - s * dx
    x_of_dy, y_of_dy = s * dy, c * dy
    for r0, r1, lo, hi in runs:
        sx = x_of_dx[None, lo:hi] + x_of_dy[r0:r1, None]
        sy = y_of_dx[None, lo:hi] + y_of_dy[r0:r1, None]
        sampled = _bilinear_sample(padded, sx, sy)
        out[r0:r1, lo:hi] = np.clip(_round_half_up(sampled), 0, 65535)
    return CleImage(pixels=out, mask_center=image.mask_center,
                    mask_radius=image.mask_radius)
