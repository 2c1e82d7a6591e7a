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

LBP codes work on the flattened raster.  Its horizontal, vertical and
cross pixel differences are computed once, so a fractional ring neighbor
costs three multiplies and three adds per center, and every neighbor is
read as one contiguous span (the centers' rows plus the 2*radius columns
between them, whose codes are dropped).  The float operations per sample
are those of the difference-form bilinear formula, so codes equal the
per-window ones bit for bit.

GLCM matrices are counted a block of equal-sized patches at a time
through buffers each call allocates once and reuses for every block: a
float64 window buffer that patch windows are copied into and quantized
in place, an intp level buffer, and one intp pair-code buffer in which
every offset writes its own slice, so a block takes one `bincount`.  The
statistics are evaluated once per stack of blocks, at 16 levels a whole
record.  The integer and float operations are those of the one-patch
`quantize`, `glcm` and `haralick_features`, which are the n = 1 case.
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


# Centers `_lbp_codes` codes per pass (256 KB per float64 temporary), so
# a pass's spans and temporaries stay in a core's L2 cache: about 15 %
# faster than whole spans on 288 px frames; 16K was no faster.
_LBP_BAND = 1 << 15


def _ring_offset(radius: int, neighbors: int, k: int
                 ) -> tuple[int, int, float, float]:
    """(iy, ix, ty, tx): the whole and fractional parts of neighbor k's
    offset on the radius circle.  Near-integer offsets snap to exact
    pixels, so their fractional part is 0."""
    angle = 2.0 * math.pi * k / neighbors
    dx, dy = radius * math.cos(angle), radius * math.sin(angle)
    if abs(dx - round(dx)) < 1e-9:
        dx = float(round(dx))
    if abs(dy - round(dy)) < 1e-9:
        dy = float(round(dy))
    ix, iy = math.floor(dx), math.floor(dy)
    return iy, ix, dy - iy, dx - ix


def _lbp_codes(stack: np.ndarray, radius: int, neighbors: int) -> np.ndarray:
    """Rotation-invariant uniform codes for every valid center.

    Neighbors on the radius circle are compared against the center with
    ties counting as 1.  Patterns with at most two circular transitions
    code as their number of ones (0..P); the rest share the catch-all
    code P + 1.  The one-scale case of `_lbp_scale_codes`.
    """
    return _lbp_scale_codes(stack, ((radius, neighbors),))[0]


def _lbp_scale_codes(stack: np.ndarray, scales) -> list[np.ndarray]:
    """`_lbp_codes(stack, radius, neighbors)` for each (radius, neighbors)
    of `scales`.

    A fractional neighbor is the difference-form bilinear sample
    ((v00 + tx*Dh) + ty*Dv) + (tx*ty)*C, which returns the exact pixel
    value on locally constant data (so equal neighbors always tie with
    the center).  The horizontal, vertical and cross differences Dh, Dv
    and C do not depend on the radius, so they are computed once per
    stack, on the flattened rasters, for every scale.  Each neighbor is
    then one contiguous span per raster: the centers' rows with the
    2*radius columns between them, which are computed and dropped.  The
    span is coded in bands of `_LBP_BAND` centers per pass.
    """
    n, h, w = stack.shape
    for radius, _neighbors in scales:
        if h < 2 * radius + 1 or w < 2 * radius + 1:
            raise ValueError(
                f"patch {h}x{w} too small for radius {radius} (needs "
                f">= {2 * radius + 1})")
    flat = np.ascontiguousarray(stack, dtype=np.float64).reshape(n, h * w)
    # Indexed like `flat` by the top-left pixel v00 of a bilinear cell.
    dh = flat[:, 1:] - flat[:, :-1]
    dv = flat[:, w:] - flat[:, :-w]
    cross = ((flat[:, w + 1:] + flat[:, :-w - 1]) - flat[:, 1:-w]) \
        - flat[:, w:-1]
    return [_lbp_span_codes(flat, dh, dv, cross, w, radius, neighbors)
            for radius, neighbors in scales]


def _lbp_span_codes(flat, dh, dv, cross, w: int, radius: int,
                    neighbors: int) -> np.ndarray:
    """One scale's (n, h - 2r, w - 2r) codes of the flattened (n, h*w)
    stack `flat` with difference rasters `dh`, `dv`, `cross`."""
    n = flat.shape[0]
    ch, cw = flat.shape[1] // w - 2 * radius, w - 2 * radius
    span = (ch - 1) * w + cw
    ring = [_ring_offset(radius, neighbors, k) for k in range(neighbors)]
    # Codes are at most neighbors + 1, so this type holds every count.
    codes = np.zeros((n, ch * w), dtype=np.min_scalar_type(neighbors + 1))
    step = max(1, _LBP_BAND // n)
    for lo in range(0, span, step):
        m = min(step, span - lo)

        def at(raster: np.ndarray, oy: int, ox: int) -> np.ndarray:
            # The (oy, ox) neighbors in `raster` of this band's centers.
            start = (radius + oy) * w + radius + ox + lo
            return raster[:, start:start + m]

        center = at(flat, 0, 0)
        ones = codes[:, lo:lo + m]
        transitions = np.zeros_like(ones)
        sample, term = np.empty((n, m)), np.empty((n, m))
        first, prev, bits = (np.empty((n, m), dtype=bool) for _ in range(3))
        for k, (iy, ix, ty, tx) in enumerate(ring):
            value = at(flat, iy, ix)
            if tx:
                np.multiply(at(dh, iy, ix), tx, out=sample)
                value = np.add(value, sample, out=sample)
            if ty:
                np.multiply(at(dv, iy, ix), ty, out=term)
                value = np.add(value, term, out=sample)
                if tx:
                    np.multiply(at(cross, iy, ix), tx * ty, out=term)
                    np.add(value, term, out=sample)
            np.greater_equal(value, center, out=bits)
            ones += bits
            if k == 0:
                first[:] = bits
            else:
                np.not_equal(prev, bits, out=prev)
                transitions += prev
            prev, bits = bits, prev
        np.not_equal(prev, first, out=prev)
        transitions += prev
        np.copyto(ones, neighbors + 1, where=transitions > 2)
    return codes.reshape(n, ch, w)[:, :, :cw]


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
    the patches, from difference rasters computed once for all scales;
    each patch then histograms its interior window of that code raster.
    A center sees the same neighbor pixels either way, so the codes equal
    those of the patches cut out one by one.
    """
    if not coords:
        raise ValueError("no patches to describe")
    y0 = min(c.c3 for c in coords)
    x0 = min(c.c1 for c in coords)
    region = np.asarray(pixels[y0:max(c.c4 for c in coords),
                               x0:max(c.c2 for c in coords)],
                        dtype=np.float64)
    for r, _p in config.scales:
        for c in coords:
            h, w = c.c4 - c.c3, c.c2 - c.c1
            if h < 2 * r + 1 or w < 2 * r + 1:
                raise ValueError(
                    f"patch {h}x{w} too small for radius {r} (needs "
                    f">= {2 * r + 1})")
    parts = []
    for (r, p), codes in zip(config.scales,
                             _lbp_scale_codes(region[None], config.scales)):
        windows = np.stack([codes[0, c.c3 - y0: c.c4 - y0 - 2 * r,
                                  c.c1 - x0: c.c2 - x0 - 2 * r]
                            for c in coords])
        parts.append(_histogram_rows(windows, p + 2))
    return np.concatenate(parts, axis=1)


# ---------------------------------------------------------------------------
# Gray-level co-occurrence
# ---------------------------------------------------------------------------


# Float64 values per block temporary (1 MB).  glcm_patch_matrix counts as
# many patches at a time as keep both their (n, h, w) windows and their
# (n, L, L) matrices within it, and runs `_haralick_stack` on as many whole
# blocks as keep their matrices within it: 80 px patches at 16 levels go
# 20 per block and up to 500 per Haralick call (a whole 576 px frame), and
# patches at 256 levels two at a time.  20 patches per block beat 10
# (2**16 values): perfbench cv-glcm-full `cv_s` 0.49-0.54 s against
# 0.54-0.59 s in three alternating pairs on a 2-core machine.
_GLCM_BLOCK_VALUES = 1 << 17


def _glcm_sizes(h: int, w: int, levels: int) -> tuple[int, int]:
    """(block, stack): the h x w patches `glcm_patch_matrix` counts per
    block, and the matrices, a whole number of blocks, it passes to each
    `_haralick_stack` call."""
    block = max(1, _GLCM_BLOCK_VALUES // max(h * w, levels * levels))
    return block, block * max(1, _GLCM_BLOCK_VALUES // (levels * levels)
                              // block)


def glcm_working_bytes(h: int, w: int, n: int, config: GlcmConfig) -> int:
    """Bytes `glcm_patch_matrix` allocates at most for n h x w patches:
    its block buffers (float64 windows, two planes of intp levels, the
    intp pair codes of every offset), its stack of matrices, at most five
    times that stack for the counts or `_haralick_stack`'s temporaries
    (the tracemalloc peak of Haralick on a (2, 256, 256) stack is 4.2
    times the stack), its output rows, and 256 KB for small arrays and
    numpy's iteration buffers (8192 values per strided operand)."""
    block, stack = (min(k, n) for k in _glcm_sizes(h, w, config.levels))
    pairs = sum(max(0, h - abs(dy)) * max(0, w - abs(dx))
                for dx, dy in config.offsets)
    return 8 * (block * (3 * h * w + pairs) + 6 * stack * config.levels ** 2
                + n * len(HARALICK_NAMES)) + (1 << 18)


def _quantize_into(window: np.ndarray, levels: int,
                   out: np.ndarray) -> np.ndarray:
    """`quantize` applied to each window[k] on its own [min, max], written
    to `out`; `window` is overwritten."""
    axes = tuple(range(1, window.ndim))
    lo = window.min(axis=axes, keepdims=True)
    span = window.max(axis=axes, keepdims=True) - lo
    # A constant window is 0 everywhere after this subtraction.
    window -= lo
    np.divide(window, span, out=window, where=span > 0)
    window *= levels
    np.floor(window, out=window)
    np.clip(window, 0, levels - 1, out=window)
    np.copyto(out, window, casting="unsafe")
    return out


def quantize(values: np.ndarray, levels: int) -> np.ndarray:
    """Uniform quantization into `levels` bins over the array's own
    [min, max]; a constant array maps to level 0 everywhere."""
    window = np.array(values, dtype=np.float64)[None]
    return _quantize_into(window, levels,
                          np.empty(window.shape, dtype=np.intp))[0]


class _GlcmCounter:
    """Co-occurrence matrices of up to `block` h x w patches at a time,
    through buffers allocated once and reused by every block: the float64
    windows, quantized in place; the intp levels, whose plane 0 holds each
    patch's gray levels and plane 1 the a-side codes level*L + k*L*L of
    the k-th patch of the block; and the intp pair codes
    a-side + b-side level, each offset in its own slice, which one
    bincount counts."""

    def __init__(self, h: int, w: int, block: int, config: GlcmConfig):
        L = config.levels
        self.config = config
        self.window = np.empty((block, h, w))
        self.levels = np.empty((2, block, h, w), dtype=np.intp)
        self.base = (np.arange(block, dtype=np.intp) * (L * L))[:, None, None]
        # The a-side and b-side top-left corners and the window size of
        # each offset that pairs any pixels.
        self.pairs = [((max(0, -dy), max(0, -dx)), (max(0, dy), max(0, dx)),
                       (h - abs(dy), w - abs(dx)))
                      for dx, dy in config.offsets
                      if h > abs(dy) and w > abs(dx)]
        self.codes = np.empty(
            block * sum(rows * cols for _a, _b, (rows, cols) in self.pairs),
            dtype=np.intp)

    def count(self, pixels: np.ndarray, corners, out: np.ndarray) -> None:
        """Write to `out` (n, L, L) the matrices of the n windows of
        `pixels` whose top-left corners are `corners` (y, x)."""
        n, L = len(corners), self.config.levels
        h, w = self.window.shape[1:]
        window = self.window[:n]
        for k, (y, x) in enumerate(corners):
            window[k] = pixels[y:y + h, x:x + w]
        q = _quantize_into(window, L, self.levels[0, :n])
        a = np.multiply(q, L, out=self.levels[1, :n])
        a += self.base[:n]
        end = 0
        for (ya, xa), (yb, xb), (rows, cols) in self.pairs:
            size = n * rows * cols
            np.add(a[:, ya:ya + rows, xa:xa + cols],
                   q[:, yb:yb + rows, xb:xb + cols],
                   out=self.codes[end:end + size].reshape(n, rows, cols))
            end += size
        counts = np.bincount(self.codes[:end],
                             minlength=n * L * L).reshape(n, L, L)
        if self.config.symmetric:
            counts = counts + counts.transpose(0, 2, 1)
        total = counts.sum(axis=(1, 2))
        if (total == 0).any():
            raise ValueError("patch too small for GLCM offsets")
        np.divide(counts, total.astype(np.float64)[:, None, None], out=out)


def glcm(patch, config: GlcmConfig = GlcmConfig()) -> np.ndarray:
    """Co-occurrence matrix of quantized gray levels, pooled over the
    configured pixel offsets.  Symmetric mode adds the transpose.  The
    returned matrix sums to 1."""
    patch = np.asarray(patch)
    out = np.empty((1, config.levels, config.levels))
    _GlcmCounter(*patch.shape, 1, config).count(patch, [(0, 0)], out)
    return out[0]


def _xlogx(p: np.ndarray) -> np.ndarray:
    out = np.log(p, out=np.zeros_like(p), where=p > 0)
    out *= p
    return out


def _haralick_stack(P: np.ndarray) -> np.ndarray:
    """(n, 15) `haralick_features` of the (n, L, L) matrices `P`."""
    n, L, _ = P.shape
    i = np.arange(L, dtype=np.float64)
    ii, jj = np.meshgrid(i, i, indexing="ij")
    px = P.sum(axis=2)
    py = P.sum(axis=1)
    mu_x = (i * px).sum(axis=1)
    mu_y = (i * py).sum(axis=1)
    var_x = ((i - mu_x[:, None]) ** 2 * px).sum(axis=1)
    var_y = ((i - mu_y[:, None]) ** 2 * py).sum(axis=1)

    def binned(index: np.ndarray, bins: int) -> np.ndarray:
        # Per patch, P summed into `bins` bins by the (L, L) `index`.
        shifted = index.astype(np.int64).ravel() \
            + (np.arange(n) * bins)[:, None]
        return np.bincount(shifted.ravel(), weights=P.ravel(),
                           minlength=n * bins).reshape(n, bins)

    p_sum = binned(ii + jj, 2 * L - 1)
    p_diff = binned(np.abs(ii - jj), L)
    k_sum = np.arange(2 * L - 1, dtype=np.float64)
    k_diff = np.arange(L, dtype=np.float64)

    energy = (P ** 2).sum(axis=(1, 2))
    contrast = (k_diff ** 2 * p_diff).sum(axis=1)
    denom = np.sqrt(var_x * var_y)
    correlation = np.divide((ii * jj * P).sum(axis=(1, 2)) - mu_x * mu_y,
                            denom, out=np.zeros(n), where=denom != 0.0)
    homogeneity = (P / (1.0 + (ii - jj) ** 2)).sum(axis=(1, 2))
    sum_average = (k_sum * p_sum).sum(axis=1)
    sum_variance = ((k_sum - sum_average[:, None]) ** 2 * p_sum).sum(axis=1)
    sum_entropy = -_xlogx(p_sum).sum(axis=1)
    entropy = -_xlogx(P).sum(axis=(1, 2))
    mu_diff = (k_diff * p_diff).sum(axis=1)
    difference_variance = \
        ((k_diff - mu_diff[:, None]) ** 2 * p_diff).sum(axis=1)
    difference_entropy = -_xlogx(p_diff).sum(axis=1)

    hx = -_xlogx(px).sum(axis=1)
    hy = -_xlogx(py).sum(axis=1)
    pxy = px[:, :, None] * py[:, None, :]
    # px(i)*py(j) > 0 wherever P(i,j) > 0
    cross = np.log(pxy, out=np.zeros_like(P), where=P > 0)
    cross *= P
    hxy1 = -cross.sum(axis=(1, 2))
    hxy2 = -_xlogx(pxy).sum(axis=(1, 2))
    hmax = np.maximum(hx, hy)
    imc1 = np.divide(entropy - hxy1, hmax, out=np.zeros(n),
                     where=hmax != 0.0)
    # math.exp, not np.exp: numpy's SIMD exp can differ in the last bit,
    # which the square root turns into a large error when imc2 is near 0.
    decay = np.fromiter(map(math.exp, (-2.0 * (hxy2 - entropy)).tolist()),
                        dtype=np.float64, count=n)
    imc2 = np.sqrt(np.maximum(0.0, 1.0 - decay))

    return np.stack([
        energy, contrast, correlation, var_x, homogeneity,
        sum_average, sum_variance, sum_entropy, entropy,
        difference_variance, difference_entropy, imc1, imc2,
        mu_diff, mu_x,
    ], axis=1)


def haralick_features(matrix: np.ndarray) -> np.ndarray:
    """The 13 classic co-occurrence statistics plus dissimilarity and the
    matrix mean, in HARALICK_NAMES order.

    Entropies use natural logs with 0*log(0) = 0.  Correlation is defined
    as 0 when a marginal variance vanishes, and the second information
    measure clamps its radicand at 0, so outputs are always finite.
    """
    return _haralick_stack(np.asarray(matrix, dtype=np.float64)[None])[0]


def glcm_patch_matrix(pixels: np.ndarray, coords,
                      config: GlcmConfig = GlcmConfig()) -> np.ndarray:
    """(len(coords), 15) statistics of the equal-sized patches `coords`
    cut from `pixels`, counted a block of patches at a time through one
    `_GlcmCounter` and evaluated a stack of blocks at a time.  Each row
    equals `haralick_features(glcm(patch, config))` of its patch."""
    if not coords:
        raise ValueError("no patches to describe")
    h, w = coords[0].c4 - coords[0].c3, coords[0].c2 - coords[0].c1
    if any((c.c4 - c.c3, c.c2 - c.c1) != (h, w) for c in coords):
        raise ValueError("GLCM patches must share one size")
    L = config.levels
    block, stack = _glcm_sizes(h, w, L)
    counter = _GlcmCounter(h, w, min(block, len(coords)), config)
    matrices = np.empty((min(stack, len(coords)), L, L))
    out = np.empty((len(coords), len(HARALICK_NAMES)))
    for lo in range(0, len(coords), stack):
        part = coords[lo:lo + stack]
        for k in range(0, len(part), block):
            corners = [(c.c3, c.c1) for c in part[k:k + block]]
            counter.count(pixels, corners, matrices[k:k + len(corners)])
        out[lo:lo + len(part)] = _haralick_stack(matrices[:len(part)])
    return out


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
