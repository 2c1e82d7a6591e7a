"""Patch extraction over the circular field of view.

The recognition pipeline divides each (optionally half-size) frame into
80x80 px patches on a 50 %-overlap lattice centered on the raster middle.
A patch enters the task only if nearly all of its pixels lie inside the
circular view area and it touches no annotated artifact rectangle.
Admitted patches are standardized to zero mean and unit deviation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import ArtifactRect, CleImage, default_mask

DEFAULT_PATCH_SIZE = 80
DEFAULT_OVERLAP = 0.5
DEFAULT_ADMISSION_FRACTION = 0.97


@dataclass(frozen=True)
class PatchCoords:
    """Corner quadruple: columns [c1, c2), rows [c3, c4), half-open."""

    c1: int
    c2: int
    c3: int
    c4: int

    def __post_init__(self) -> None:
        if not (self.c1 < self.c2 and self.c3 < self.c4):
            raise ValueError(f"degenerate patch coords {self}")


def half_geometry(dims: tuple, center: tuple, radius: float) -> tuple:
    """(width, height), mask center and radius of a frame of `dims` =
    (width, height) after `resize_half`: odd sizes first drop a trailing
    row or column, a 1x1 frame stays as it is, and the center and radius
    halve along with the raster."""
    if dims == (1, 1):
        return dims, center, radius
    return ((dims[0] // 2, dims[1] // 2), (center[0] / 2.0, center[1] / 2.0),
            radius / 2.0)


def resize_half(image: CleImage) -> CleImage:
    """Downscale by 2 with exact 2x2 area averaging (round half up), to
    the geometry `half_geometry` gives."""
    px = image.pixels
    (w, h), center, radius = half_geometry(
        (px.shape[1], px.shape[0]), image.mask_center, image.mask_radius)
    if (h, w) == px.shape:
        return image
    h, w = 2 * h, 2 * w
    # Sum the four phases into one half-size buffer, so only a quarter
    # of the frame is ever widened.
    s = px[0:h:2, 0:w:2].astype(np.uint32)
    s += px[0:h:2, 1:w:2]
    s += px[1:h:2, 0:w:2]
    s += px[1:h:2, 1:w:2]
    s += 2
    s //= 4
    return CleImage(pixels=s.astype(np.uint16), mask_center=center,
                    mask_radius=radius)


def _lattice(dim: int, patch_size: int, stride: int) -> list[int]:
    """Largest odd-count row of patch origins, centered on the raster.

    An odd count puts the middle patch squarely on the raster center, which
    keeps the layout point-symmetric about it.
    """
    k = (dim - patch_size) // stride + 1
    if k % 2 == 0:
        k -= 1
    k = max(k, 1)
    span = (k - 1) * stride + patch_size
    start = (dim - span) // 2
    return [start + i * stride for i in range(k)]


def patch_grid(
    dims: tuple[int, int],
    mask_center: tuple[float, float] | None = None,
    mask_radius: float | None = None,
    patch_size: int = DEFAULT_PATCH_SIZE,
    overlap: float = DEFAULT_OVERLAP,
    admission_fraction: float = DEFAULT_ADMISSION_FRACTION,
) -> list[PatchCoords]:
    """Admitted patch coordinates for a raster of `dims` = (width, height).

    A patch is admitted iff at least `admission_fraction` of its pixels lie
    inside the mask circle (pixel (x, y) counts as inside when its squared
    distance to the center is <= radius**2).  `mask_radius=None` disables
    the circle test.  Output is row-major over the lattice.  Each layout
    is built once and memoized; every call returns a new list.
    """
    center = None if mask_center is None else tuple(mask_center)
    return list(_admitted_grid(tuple(dims), center, mask_radius, patch_size,
                               overlap, admission_fraction))


@functools.lru_cache(maxsize=64)
def _admitted_grid(dims, mask_center, mask_radius, patch_size, overlap,
                   admission_fraction) -> tuple[PatchCoords, ...]:
    w, h = dims
    if patch_size > min(w, h):
        raise ValueError(f"patch size {patch_size} exceeds raster {w}x{h}")
    if not 0.0 <= overlap < 1.0:
        raise ValueError(f"overlap must be in [0, 1), got {overlap}")
    stride = max(1, int(round(patch_size * (1.0 - overlap))))
    xs = _lattice(w, patch_size, stride)
    ys = _lattice(h, patch_size, stride)

    if mask_radius is None:
        return tuple(PatchCoords(x, x + patch_size, y, y + patch_size)
                     for y in ys for x in xs)

    if mask_center is None:
        mask_center, _ = default_mask(w, h)
    cx, cy = mask_center
    dx2 = (np.arange(w, dtype=np.float64) - cx) ** 2
    dy2 = (np.arange(h, dtype=np.float64) - cy) ** 2
    # Summed-area table of the inside test, per-patch inside counts in
    # O(1): sat[y][x] counts the inside pixels of rows [0, y) and columns
    # [0, x).  Only the rows that patch corners read are kept, and the
    # sums build up one raster row at a time.
    corners = set(ys) | {y + patch_size for y in ys}
    sat, above = {}, np.zeros(w + 1, dtype=np.int64)
    for y in range(h + 1):
        if y in corners:
            sat[y] = above.copy()
        if y < h:
            above[1:] += np.cumsum(dx2 + dy2[y] <= mask_radius ** 2)

    need = admission_fraction * patch_size * patch_size - 1e-9
    coords = []
    for y in ys:
        for x in xs:
            count = (sat[y + patch_size][x + patch_size]
                     - sat[y][x + patch_size] - sat[y + patch_size][x]
                     + sat[y][x])
            if count >= need:
                coords.append(PatchCoords(x, x + patch_size, y, y + patch_size))
    return tuple(coords)


def scale_rect(rect: ArtifactRect, factor: float) -> ArtifactRect:
    """Rescale an artifact rectangle with outward rounding, so exclusion
    at reduced resolution is never less conservative than at full."""
    return ArtifactRect(
        x0=math.floor(rect.x0 * factor),
        y0=math.floor(rect.y0 * factor),
        x1=math.ceil(rect.x1 * factor),
        y1=math.ceil(rect.y1 * factor),
    )


def rotate_rect(rect: ArtifactRect, center: tuple[float, float],
                angle_deg: float, dims: tuple[int, int]) -> ArtifactRect | None:
    """Axis-aligned cover of an artifact rectangle after the image content
    rotates by `angle_deg` about `center`.

    The bounding box of the four rotated corners is rounded outward and
    padded by one pixel (bilinear interpolation can smear artifact signal
    that far), then clipped to the raster; None means the artifact left
    the raster entirely.
    """
    theta = math.radians(angle_deg)
    c, s = math.cos(theta), math.sin(theta)
    cx, cy = center
    xs, ys = [], []
    for x, y in ((rect.x0, rect.y0), (rect.x0, rect.y1),
                 (rect.x1, rect.y0), (rect.x1, rect.y1)):
        dx, dy = x - cx, y - cy
        xs.append(cx + c * dx - s * dy)
        ys.append(cy + s * dx + c * dy)
    w, h = dims
    x0 = max(0, math.floor(min(xs)) - 1)
    y0 = max(0, math.floor(min(ys)) - 1)
    x1 = min(w, math.ceil(max(xs)) + 1)
    y1 = min(h, math.ceil(max(ys)) + 1)
    if x0 >= x1 or y0 >= y1:
        return None
    return ArtifactRect(x0=x0, y0=y0, x1=x1, y1=y1)


def exclude_artifacts(
    coords: list[PatchCoords], rects: list[ArtifactRect]
) -> list[PatchCoords]:
    """Drop every patch whose half-open rectangle intersects any artifact
    rectangle; relative order is preserved.  Rects must already be in the
    same coordinate frame as the coords (see `scale_rect`)."""
    if not rects:
        return list(coords)
    kept = []
    for c in coords:
        hit = any(c.c1 < r.x1 and r.x0 < c.c2 and c.c3 < r.y1 and r.y0 < c.c4
                  for r in rects)
        if not hit:
            kept.append(c)
    return kept


def whiten_values(values: np.ndarray) -> tuple[np.ndarray, bool]:
    """Standardize to zero mean, unit population deviation.

    A constant block carries no texture information; it maps to all zeros
    and is flagged degenerate rather than rejected, so patch counts stay
    stable downstream.
    """
    v = np.asarray(values, dtype=np.float64)
    mean = v.mean()
    std = v.std()
    if std == 0.0:
        return np.zeros_like(v), True
    return (v - mean) / std, False
