"""Textural features of image patches.

Two descriptor families, both computed on raw (unwhitened) intensities
since they are comparison- or range-based:

* rotation-invariant uniform local binary pattern histograms at three
  radius/neighbor scales, and
* 16-level gray-level co-occurrence matrices with the classic 13-feature
  statistics set plus the dissimilarity and matrix-mean extensions.

An image is summarized by the per-dimension mean and population standard
deviation of its patch features.  Descriptors take the frame raster and
the patch coordinates, so LBP codes each center once per scale however
many overlapping patches contain it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LBP_SCALES = ((1, 8), (3, 16), (5, 24))

GLCM_OFFSETS = ((1, 0), (1, 1), (0, 1), (-1, 1))

HARALICK_NAMES = (
    "energy",
    "contrast",
    "correlation",
    "sum_squares_variance",
    "homogeneity",
    "sum_average",
    "sum_variance",
    "sum_entropy",
    "entropy",
    "difference_variance",
    "difference_entropy",
    "info_corr_1",
    "info_corr_2",
    "dissimilarity",
    "glcm_mean",
)


class _Descriptor:
    """Column layout shared by the descriptor configs."""

    def row_names(self) -> tuple[str, ...]:
        """Names of the `image_row` columns: mean:<name> for every
        descriptor dimension, then std:<name>."""
        names = self.names()
        return (tuple(f"mean:{n}" for n in names)
                + tuple(f"std:{n}" for n in names))


@dataclass(frozen=True)
class LbpConfig(_Descriptor):
    scales: tuple[tuple[int, int], ...] = LBP_SCALES

    def __post_init__(self) -> None:
        for radius, neighbors in self.scales:
            if radius < 1 or neighbors < 4:
                raise ValueError(f"bad LBP scale ({radius}, {neighbors})")

    @property
    def n_features(self) -> int:
        return sum(p + 2 for _, p in self.scales)

    def names(self) -> tuple[str, ...]:
        return tuple(f"lbp:r{r}n{p}:b{j}"
                     for r, p in self.scales for j in range(p + 2))


@dataclass(frozen=True)
class GlcmConfig(_Descriptor):
    levels: int = 16
    offsets: tuple[tuple[int, int], ...] = GLCM_OFFSETS
    symmetric: bool = True

    def __post_init__(self) -> None:
        if not 2 <= self.levels <= 256:
            raise ValueError(f"levels must be in [2, 256], got {self.levels}")

    def names(self) -> tuple[str, ...]:
        return tuple(f"glcm{self.levels}:{n}" for n in HARALICK_NAMES)


# ---------------------------------------------------------------------------
# Local binary patterns
# ---------------------------------------------------------------------------


def _ring_sample(stack: np.ndarray, radius: int, ch: int, cw: int,
                 dx: float, dy: float) -> np.ndarray:
    """Sample every center's neighbor at offset (dx, dy), batched over the
    patch stack.  Near-integer offsets snap to exact pixels; fractional
    ones use difference-form bilinear interpolation, which returns the
    exact pixel value on locally constant data (so equal neighbors always
    tie with the center)."""

    def window(oy: int, ox: int) -> np.ndarray:
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


def _lbp_codes(stack: np.ndarray, radius: int, neighbors: int) -> np.ndarray:
    """Rotation-invariant uniform codes for every valid center.

    Neighbors on the radius circle are compared against the center with
    ties counting as 1.  Patterns with at most two circular transitions
    code as their number of ones (0..P); the rest share the catch-all
    code P + 1.
    """
    n, h, w = stack.shape
    if h < 2 * radius + 1 or w < 2 * radius + 1:
        raise ValueError(
            f"patch {h}x{w} too small for radius {radius} (needs "
            f">= {2 * radius + 1})")
    ch, cw = h - 2 * radius, w - 2 * radius
    center = stack[:, radius: radius + ch, radius: radius + cw]
    ones = np.zeros((n, ch, cw), dtype=np.int16)
    transitions = np.zeros((n, ch, cw), dtype=np.int16)
    first = prev = None
    for k in range(neighbors):
        angle = 2.0 * math.pi * k / neighbors
        sample = _ring_sample(stack, radius, ch, cw,
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


def _histogram_rows(codes: np.ndarray, n_bins: int) -> np.ndarray:
    n = codes.shape[0]
    flat = codes.reshape(n, -1)
    offsets = (np.arange(n) * n_bins)[:, None]
    counts = np.bincount((flat + offsets).ravel(),
                         minlength=n * n_bins).reshape(n, n_bins)
    return counts / flat.shape[1]


def lbp_histogram(patch, radius: int, neighbors: int) -> np.ndarray:
    """Normalized riu2 histogram (neighbors + 2 bins) of one patch."""
    stack = np.asarray(patch, dtype=np.float64)[None]
    codes = _lbp_codes(stack, radius, neighbors)
    return _histogram_rows(codes, neighbors + 2)[0]


def lbp_patch_matrix(pixels: np.ndarray, coords,
                     config: LbpConfig = LbpConfig()) -> np.ndarray:
    """(len(coords), D) concatenated multi-scale histograms of the patches
    `coords` cut from `pixels`.

    Every center is coded once per scale, on the frame region that bounds
    the patches; each patch then histograms its interior window of that
    code raster.  A center sees the same neighbor pixels either way, so
    the codes equal those of the patches cut out one by one.
    """
    y0 = min(c.c3 for c in coords)
    x0 = min(c.c1 for c in coords)
    region = np.asarray(pixels[y0:max(c.c4 for c in coords),
                               x0:max(c.c2 for c in coords)],
                        dtype=np.float64)
    parts = []
    for r, p in config.scales:
        for c in coords:
            h, w = c.c4 - c.c3, c.c2 - c.c1
            if h < 2 * r + 1 or w < 2 * r + 1:
                raise ValueError(
                    f"patch {h}x{w} too small for radius {r} (needs "
                    f">= {2 * r + 1})")
        codes = _lbp_codes(region[None], r, p)[0]
        windows = np.stack([codes[c.c3 - y0: c.c4 - y0 - 2 * r,
                                  c.c1 - x0: c.c2 - x0 - 2 * r]
                            for c in coords])
        parts.append(_histogram_rows(windows, p + 2))
    return np.concatenate(parts, axis=1)


# ---------------------------------------------------------------------------
# Gray-level co-occurrence
# ---------------------------------------------------------------------------


def quantize(values: np.ndarray, levels: int) -> np.ndarray:
    """Uniform quantization into `levels` bins over the array's own
    [min, max]; a constant array maps to level 0 everywhere."""
    v = np.asarray(values, dtype=np.float64)
    lo, hi = float(v.min()), float(v.max())
    if hi <= lo:
        return np.zeros(v.shape, dtype=np.int64)
    q = np.floor((v - lo) / (hi - lo) * levels)
    return np.clip(q, 0, levels - 1).astype(np.int64)


def glcm(patch, config: GlcmConfig = GlcmConfig()) -> np.ndarray:
    """Co-occurrence matrix of quantized gray levels, pooled over the
    configured pixel offsets.  Symmetric mode adds the transpose.  The
    returned matrix sums to 1."""
    q = quantize(patch, config.levels)
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


def _xlogx(p: np.ndarray) -> np.ndarray:
    out = np.zeros_like(p)
    nz = p > 0
    out[nz] = p[nz] * np.log(p[nz])
    return out


def haralick_features(matrix: np.ndarray) -> np.ndarray:
    """The 13 classic co-occurrence statistics plus dissimilarity and the
    matrix mean, in HARALICK_NAMES order.

    Entropies use natural logs with 0*log(0) = 0.  Correlation is defined
    as 0 when a marginal variance vanishes, and the second information
    measure clamps its radicand at 0, so outputs are always finite.
    """
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
    sum_entropy = float(-_xlogx(p_sum).sum())
    entropy = float(-_xlogx(P).sum())
    mu_diff = float((k_diff * p_diff).sum())
    difference_variance = float(((k_diff - mu_diff) ** 2 * p_diff).sum())
    difference_entropy = float(-_xlogx(p_diff).sum())

    hx = float(-_xlogx(px).sum())
    hy = float(-_xlogx(py).sum())
    pxy = np.outer(px, py)
    nz = P > 0  # px(i)*py(j) > 0 wherever P(i,j) > 0
    hxy1 = float(-(P[nz] * np.log(pxy[nz])).sum())
    hxy2 = float(-_xlogx(pxy).sum())
    hmax = max(hx, hy)
    imc1 = 0.0 if hmax == 0.0 else (entropy - hxy1) / hmax
    imc2 = math.sqrt(max(0.0, 1.0 - math.exp(-2.0 * (hxy2 - entropy))))

    return np.array([
        energy, contrast, correlation, var_x, homogeneity,
        sum_average, sum_variance, sum_entropy, entropy,
        difference_variance, difference_entropy, imc1, imc2,
        mu_diff, mu_x,
    ])


def glcm_patch_matrix(pixels: np.ndarray, coords,
                      config: GlcmConfig = GlcmConfig()) -> np.ndarray:
    """(len(coords), 15) statistics of the patches `coords` cut from
    `pixels`."""
    return np.stack([haralick_features(glcm(pixels[c.c3:c.c4, c.c1:c.c2],
                                            config))
                     for c in coords])


# ---------------------------------------------------------------------------
# Patch-to-image aggregation
# ---------------------------------------------------------------------------


def image_row(pixels: np.ndarray, coords,
              config: LbpConfig | GlcmConfig) -> np.ndarray:
    """One image's feature row from the patches `coords` (a non-empty
    sequence of `PatchCoords`) of its raster `pixels`: the per-dimension
    mean of the patch descriptors, then their population standard
    deviation (columns named by `config.row_names()`)."""
    if isinstance(config, LbpConfig):
        per_patch = lbp_patch_matrix(pixels, coords, config)
    else:
        per_patch = glcm_patch_matrix(pixels, coords, config)
    return np.concatenate([per_patch.mean(axis=0), per_patch.std(axis=0)])
