"""Fusing per-patch class posteriors into one image probability.

Each admitted patch casts its cancerous-class probability over the pixels
it covers.  Per pixel, covering patches are averaged (patch count map);
per image, the probability map is averaged over all covered pixels (patch
activity map).  Because the two classes' posteriors are complementary,
only the cancerous-class probability is carried.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .patching import PatchCoords


@dataclass
class FusionMaps:
    """pa: 0/1 coverage, pc: covering-patch count (floored at 1),
    pm: per-pixel mean patch probability, 0 outside coverage."""

    pa: np.ndarray
    pc: np.ndarray
    pm: np.ndarray
    n_patches: int


@dataclass
class ImageProbability:
    p: float
    n_active: int
    n_patches: int


def build_maps(patches, dims: tuple[int, int]) -> FusionMaps:
    """Accumulate (coords, probability) pairs into activity, count, and
    probability maps over a (width, height) frame.

    Patch rectangles are half-open, so pixels on shared patch edges are
    counted exactly once per covering patch.
    """
    w, h = dims
    cover = np.zeros((h, w), dtype=np.int32)
    weighted = np.zeros((h, w), dtype=np.float64)
    checked = []
    for coords, p in patches:
        if not isinstance(coords, PatchCoords):
            coords = PatchCoords(*coords)
        if coords.c1 < 0 or coords.c3 < 0 or coords.c2 > w or coords.c4 > h:
            raise ValueError(f"patch {coords} outside {w}x{h} frame")
        p = float(p)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"patch probability {p} outside [0, 1]")
        checked.append((coords, p))
    # Canonical accumulation order makes the maps exactly invariant under
    # patch permutation (float addition is order sensitive).
    checked.sort(key=lambda cp: (cp[0].c3, cp[0].c1, cp[0].c4, cp[0].c2, cp[1]))
    n = len(checked)
    for coords, p in checked:
        cover[coords.c3:coords.c4, coords.c1:coords.c2] += 1
        weighted[coords.c3:coords.c4, coords.c1:coords.c2] += p
    pa = (cover >= 1).astype(np.uint8)
    pc = np.maximum(cover, 1)
    pm = pa * (weighted / pc)
    return FusionMaps(pa=pa, pc=pc.astype(np.int32), pm=pm, n_patches=n)


def image_probability(maps: FusionMaps) -> ImageProbability:
    """Scalar image probability: the probability map summed over the frame,
    divided by the number of covered pixels."""
    n_active = int(maps.pa.sum())
    if n_active == 0:
        raise ValueError("no admissible patches: activity map is empty")
    p = float(maps.pm.sum()) / n_active
    return ImageProbability(p=p, n_active=n_active, n_patches=maps.n_patches)


def fuse(patches, dims: tuple[int, int]) -> ImageProbability:
    """Convenience: build maps and reduce to the scalar in one step."""
    return image_probability(build_maps(patches, dims))
