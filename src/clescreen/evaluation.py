"""Leave-one-patient-out cross-validation and result reporting.

Folds are partitioned by patient so intra-video correlation never leaks
between training and test sides; rotated copies only ever train.  Per-fold
scores are concatenated into one result vector over all original records,
from which threshold metrics are computed; one descending ranking of it
gives both the ROC curve and the tie-aware Mann-Whitney AUC.  Every
random draw derives from the master seed plus the fold's patient id, so
runs are reproducible and independent of worker count.

`run_cv` is four stages, each a module attribute looked up at call
time, so a tracer that replaces one sees it; one `RunPlan` passes
between them.  `plan_run` decides everything before a frame is read:
it validates the config, adds the rotated copies, plans the folds and
their balancing, plans every record from its image header
(`plan_records`: the admitted patches and size of its prepared frame,
hence its rows) and checks memory.  Then come two forked passes.  The
record pass is `describe_records`: the worker that prepares a record
writes its rows into one matrix in a shared mapping, so no frame or row
crosses the process boundary.  The fold pass, in `score_folds`, fits and
scores one fold per worker, each forest splitting its roots a block of
trees at a time.  With more jobs than folds, the extra cores sit idle in
the fold pass.  Logistic folds (logistic-PPF, the whole-image baseline)
train and score in this process, since OpenBLAS already uses every core:
`classify.train_logistic_folds` trains them all in one masked descent
over the rows, or over their Gram matrix when they are fewer than the
columns, and copies no fold's rows.  `build_report` gathers the fold
outcomes into the `EvalReport`.

The method table (`_METHOD_SPEC`) maps each method to its row layout,
texture descriptor class and scale, and every per-kind rule of the two
passes is read from the layout.  There are three layouts: a float64
texture row per record (RF-*), a whitened float32 patch per admitted
patch (PPF) and a whitened float32 raster per record (whole-image).  A
layout gives a record's row count, a row's columns and dtype, whether a
forest fits the rows (texture always, raster never, patches per
`patch_classifier`), the `RunConfig` fields it reads, the rows' name in
the memory message, and the fill that writes a prepared record's rows.
A layout plans a patch grid if and only if it reads `patch_size`.  A
fill looks up each stage function through its module at call time
(`patching.whiten_values`, `features.image_row`,
`wholeimage.preprocess`), never bound at import time, so a tracer that
replaces those module attributes sees every call.

One read table, in `RunConfig.validate`, names the fields each method
reads: the five every method reads, its layout's, its classifier's
(`trees` for a forest; `epochs`, `rate` and `l2` for a logistic fit) and
its descriptor's (`glcm_levels` for RF-GLCM).  `validate` refuses any
other field set to a value other than its default, so no option a run
ignores is echoed into `summary.json` as if it had applied.

A patch method rotates an augmented copy only over the column hull of
its planned patches in each row, so such a prepared frame is 0 outside
those row hulls.  Nothing reads there: PPF whitens the patches,
GLCM gathers the patch windows, and LBP histograms each patch's interior
window, whose rings stay inside the patch.
"""

from __future__ import annotations

import dataclasses
import math
import mmap
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import classify, core, features, forest, fusion, patching, wholeimage
from .util import (default_jobs, mem_available, pool_size, run_parallel,
                   stable_seed)


class ConfigError(ValueError):
    """Invalid run configuration."""


class InsufficientPatients(ValueError):
    """Too few patients to form leave-one-patient-out folds."""


def _fill_texture(img, coords, out, config) -> None:
    out[0] = features.image_row(img.pixels, coords, config.descriptor)


def _fill_patches(img, coords, out, config) -> None:
    for row, c in zip(out, coords):
        row[:] = patching.whiten_values(
            img.pixels[c.c3:c.c4, c.c1:c.c2])[0].ravel()


def _fill_raster(img, coords, out, config) -> None:
    _compressed, _crop, raster = wholeimage.preprocess(img, config.target_size)
    out[0] = patching.whiten_values(raster.astype(np.float64).ravel())[0]


class _Layout(NamedTuple):
    """How a method kind lays out its classifier rows.

    A record has one row per admitted patch if `per_patch` (and its patch
    posteriors are fused), else one.  `format(config)` gives a row's
    (columns, dtype).  `forest(config)` tells whether a forest fits the rows,
    else a logistic model.  `reads` names the `RunConfig` fields the layout
    reads; a layout that reads `patch_size` plans a patch grid.  `matrix`
    names the rows in the memory message.
    `fill(img, coords, out, config)` writes the rows `out` of a prepared
    frame `img` with planned `coords`; it looks up each stage function
    through its module at call time, so a tracer that replaces a module
    attribute sees every call."""

    per_patch: bool
    reads: tuple[str, ...]
    matrix: str
    format: object
    forest: object
    fill: object


# A texture row per record (RF-*), a whitened float32 patch per admitted
# patch (PPF) and a whitened float32 raster per record (whole-image).
_GRID = ("patch_size", "overlap", "admission_fraction")
_TEXTURE = _Layout(
    per_patch=False, reads=_GRID, matrix="row matrix",
    format=lambda c: (len(c.descriptor.row_names()), np.dtype(np.float64)),
    forest=lambda c: True, fill=_fill_texture)
_PATCHES = _Layout(
    per_patch=True, reads=(*_GRID, "patch_classifier"), matrix="patch cache",
    format=lambda c: (c.patch_size ** 2, np.dtype(np.float32)),
    forest=lambda c: c.patch_classifier == "forest", fill=_fill_patches)
_RASTER = _Layout(
    per_patch=False, reads=("target_size",), matrix="row matrix",
    format=lambda c: (c.target_size ** 2, np.dtype(np.float32)),
    forest=lambda c: False, fill=_fill_raster)

# Method name: (layout, texture descriptor class or None, scale).
_METHOD_SPEC = {
    "RF-LBP@1.0x": (_TEXTURE, features.LbpConfig, 1.0),
    "RF-LBP@0.5x": (_TEXTURE, features.LbpConfig, 0.5),
    "RF-GLCM@1.0x": (_TEXTURE, features.GlcmConfig, 1.0),
    "RF-GLCM@0.5x": (_TEXTURE, features.GlcmConfig, 0.5),
    "PPF@1.0x": (_PATCHES, None, 1.0),
    "PPF@0.5x": (_PATCHES, None, 0.5),
    "WHOLEIMAGE@0.55x": (_RASTER, None, 1.0),
}
METHODS = tuple(_METHOD_SPEC)
PATCH_CLASSIFIERS = ("logistic", "forest")

# Values accepted for each annotated RunConfig field type: an int may
# stand in for a float, but a bool (an int subclass) for neither.
_FIELD_TYPES = {"int": numbers.Integral, "float": numbers.Real, "str": str}


def _finite(value: numbers.Real) -> bool:
    """Whether `value` is a finite float; an int beyond the float range
    is not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


@dataclass
class RunConfig:
    method: str = "RF-LBP@0.5x"
    seed: int = 42
    patch_size: int = patching.DEFAULT_PATCH_SIZE
    overlap: float = patching.DEFAULT_OVERLAP
    admission_fraction: float = patching.DEFAULT_ADMISSION_FRACTION
    trees: int = forest.DEFAULT_TREES
    k_aug: int = 2
    threshold: float = 0.5
    jobs: int = field(default_factory=default_jobs)
    patch_classifier: str = "logistic"
    epochs: int = 100
    rate: float = 0.01
    l2: float = 1e-3
    glcm_levels: int = 16
    target_size: int = wholeimage.TARGET_SIZE

    def validate(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if (not isinstance(value, _FIELD_TYPES[f.type])
                    or isinstance(value, bool)):
                raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
            if f.type == "float" and not _finite(value):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
        if self.method not in _METHOD_SPEC:
            raise ConfigError(
                f"unknown method {self.method!r}; choose from "
                f"{', '.join(METHODS)}")
        if not 0.0 <= self.threshold <= 1.0:
            raise ConfigError("threshold must be in [0, 1]")
        if min(self.trees, self.epochs, self.jobs) < 1 or self.k_aug < 0:
            raise ConfigError("trees/epochs/jobs must be >= 1 and k_aug >= 0")
        if self.rate <= 0:
            raise ConfigError("rate must be positive")
        if not 0.0 < self.admission_fraction <= 1.0:
            raise ConfigError("admission_fraction must be in (0, 1]")
        if self.patch_classifier not in PATCH_CLASSIFIERS:
            raise ConfigError(
                f"unknown patch classifier {self.patch_classifier!r}")
        if not 0.0 <= self.overlap < 1.0:
            raise ConfigError("overlap must be in [0, 1)")
        if self.patch_size < 2 or self.target_size < 2:
            raise ConfigError("patch_size and target_size must be >= 2")
        try:
            features.GlcmConfig(levels=self.glcm_levels)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.l2 < 0:
            raise ConfigError("l2 must be >= 0")
        layout, descriptor_cls, _scale = _METHOD_SPEC[self.method]
        if (descriptor_cls is features.LbpConfig
                and self.patch_size < features.LBP_MIN_PATCH):
            raise ConfigError(
                f"{self.method} needs patch_size >= {features.LBP_MIN_PATCH} "
                f"for its largest LBP ring, got {self.patch_size}")
        # The read table: the fields every method reads, its layout's, its
        # classifier's and its descriptor's.  Any other field away from its
        # default is refused rather than echoed into summary.json as if it
        # had applied.
        reads = {"method", "seed", "jobs", "threshold", "k_aug", *layout.reads,
                 *(("trees",) if layout.forest(self)
                   else ("epochs", "rate", "l2")),
                 *(("glcm_levels",) if descriptor_cls is features.GlcmConfig
                   else ())}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.name not in reads and value != f.default:
                raise ConfigError(f"{self.method} does not read {f.name}, "
                                  f"got {f.name} {value!r}")

    @property
    def scale(self) -> float:
        return _METHOD_SPEC[self.method][2]

    @property
    def descriptor(self) -> features.LbpConfig | features.GlcmConfig | None:
        """Texture descriptor of a feature method (RF-LBP or RF-GLCM), or
        None for a method the table gives no descriptor."""
        descriptor_cls = _METHOD_SPEC[self.method][1]
        if descriptor_cls is features.GlcmConfig:
            return features.GlcmConfig(levels=self.glcm_levels)
        return None if descriptor_cls is None else descriptor_cls()


# ---------------------------------------------------------------------------
# Fold planning
# ---------------------------------------------------------------------------


@dataclass
class Fold:
    """One LOPO fold as ascending row indices into `manifest.records`."""

    test_patient: str
    train_idx: np.ndarray
    test_idx: np.ndarray


def lopo_folds(manifest: core.DatasetManifest) -> list[Fold]:
    """One fold per patient: that patient's originals test, everything of
    every other patient (originals plus rotated copies) trains."""
    patients = manifest.patients()
    if len(patients) < 2:
        raise InsufficientPatients(
            f"leave-one-patient-out needs >= 2 patients, got {len(patients)}")
    patient_of = np.array([r.patient for r in manifest.records])
    augmented = np.array([r.is_augmented for r in manifest.records],
                         dtype=bool)
    return [Fold(test_patient=patient,
                 train_idx=np.flatnonzero(patient_of != patient),
                 test_idx=np.flatnonzero((patient_of == patient) & ~augmented))
            for patient in patients]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def confusion_metrics(labels: np.ndarray, probs: np.ndarray,
                      threshold: float = 0.5) -> tuple[float, float, float]:
    """(accuracy, sensitivity, specificity) predicting 1 iff p >= threshold."""
    labels = np.asarray(labels).astype(int)
    probs = np.asarray(probs, dtype=float)
    if len(labels) == 0:
        raise ValueError("empty result vector")
    if not np.all(np.isfinite(probs)):
        raise ValueError("non-finite probabilities")
    pred = probs >= threshold
    pos = labels == 1
    tp = int(np.sum(pred & pos))
    tn = int(np.sum(~pred & ~pos))
    fn = int(np.sum(~pred & pos))
    fp = int(np.sum(pred & ~pos))
    acc = (tp + tn) / len(labels)
    sens = tp / (tp + fn) if tp + fn else 0.0
    spec = tn / (tn + fp) if tn + fp else 0.0
    return acc, sens, spec


def roc_auc(labels: np.ndarray, probs: np.ndarray):
    """ROC sweep plus AUC, both from one descending ranking of the scores.

    The sweep is (fpr, tpr, threshold) per distinct score, from (0, 0) at
    threshold +inf down to (1, 1); tied scores collapse into one step.
    The AUC is the probability that a random positive outranks a random
    negative, ties credited 0.5: each of the neg_g negatives of step g
    beats the tp_above_g positives above it and ties its pos_g, so
    u = sum_g neg_g (tp_above_g + pos_g / 2).  2u is an exact integer, so
    the AUC equals the average-rank statistic to the bit, and it is the
    trapezoidal area under the sweep.
    """
    labels = np.asarray(labels).astype(int)
    probs = np.asarray(probs, dtype=float)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("ROC and AUC need both classes present")
    order = np.argsort(-probs, kind="stable")
    ss = probs[order]
    cuts = np.flatnonzero(ss[1:] != ss[:-1]) + 1
    ends = np.append(cuts, len(ss))
    # Counts at or above each step's threshold: everything up to its end.
    tp = np.cumsum(labels[order])[ends - 1]
    fp = ends - tp
    above = np.concatenate([[0], tp[:-1]])
    twice_u = int((np.diff(fp, prepend=0) * (tp + above)).sum())
    roc = [(0.0, 0.0, float("inf"))] + list(zip(
        (fp / n_neg).tolist(), (tp / n_pos).tolist(),
        ss[np.concatenate([[0], cuts])].tolist()))
    return roc, twice_u / 2.0 / (n_pos * n_neg)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass
class ResultRow:
    patient: str
    sequence: str
    frame: int
    label: int
    p: float


@dataclass
class FoldAudit:
    """Provenance trail of one fold, for leakage auditing."""

    test_patient: str
    fold_seed: int
    train_patients: tuple[str, ...]
    train_keys: list[tuple]
    test_keys: list[tuple]
    balancing_removed: list[tuple]
    n_augmented_in_test: int


@dataclass
class EvalReport:
    method: str
    seed: int
    threshold: float
    results: list[ResultRow]
    accuracy: float
    sensitivity: float
    specificity: float
    roc: list[tuple[float, float, float]]
    auc: float
    n_images: int
    patch_accuracy: float | None
    fold_audits: list[FoldAudit]
    fold_seeds: dict[str, int]
    config: dict


# ---------------------------------------------------------------------------
# Record preparation
# ---------------------------------------------------------------------------


def prepare_record_image(manifest: core.DatasetManifest,
                         record: core.ImageRecord, scale: float,
                         coords: list | None = None
                         ) -> tuple[core.CleImage, list]:
    """Load a record at pipeline scale: rotate augmented copies about the
    view center, then downscale.  Artifact rectangles follow the same
    transforms (conservatively, by outward rounding).

    Given the planned patch `coords` of the prepared frame, an augmented
    copy rotates only the pixels they read (`_read_spans`), and every
    other pixel of the prepared frame is 0.  Without them (None or empty,
    as on the whole-image route), the whole frame rotates."""
    img = core.load_image(manifest.image_path(record))
    rects = _prepared_rects(record, (img.width, img.height), img.mask_center,
                            scale)
    if record.is_augmented:
        spans = _read_spans(coords, img.height, scale) if coords else None
        img = wholeimage.rotate(img, record.rotation_deg, spans)
    if scale == 0.5:
        img = patching.resize_half(img)
    return img, rects


def _prepared_rects(record: core.ImageRecord, dims: tuple[int, int],
                    center: tuple[float, float], scale: float) -> list:
    """The artifact rectangles of `record`, whose source frame has `dims`
    and mask `center`, in the frame that `prepare_record_image` gives."""
    rects = list(record.artifacts)
    if record.is_augmented:
        rects = [r for r in (patching.rotate_rect(rc, center,
                                                  record.rotation_deg, dims)
                             for rc in rects) if r is not None]
    if scale == 0.5:
        return [patching.scale_rect(r, 0.5) for r in rects]
    if scale != 1.0:
        raise ValueError(f"unsupported scale {scale}")
    return rects


def _read_spans(coords, height: int, scale: float) -> np.ndarray:
    """Column range [lo, hi) per row of a source frame `height` rows high
    that the patches `coords` of that frame prepared at `scale` read: the
    hull of the patches covering the row, or [0, 0).  At 0.5x, prepared
    row y reads source rows 2y and 2y + 1, columns [2 c1, 2 c2)."""
    f = 2 if scale == 0.5 else 1
    lo = np.full(height, np.iinfo(np.intp).max, dtype=np.intp)
    hi = np.zeros(height, dtype=np.intp)
    for c in coords:
        rows = slice(f * c.c3, f * c.c4)
        np.minimum(lo[rows], f * c.c1, out=lo[rows])
        np.maximum(hi[rows], f * c.c2, out=hi[rows])
    return np.where((lo < hi)[:, None], np.stack([lo, hi], axis=1), 0)


def record_patch_coords(dims: tuple[int, int], center: tuple[float, float],
                        radius: float, rects, config: RunConfig):
    """Admitted patch coordinates of a prepared frame of size `dims` with
    mask circle (`center`, `radius`), artifact-free, in grid order.  This
    ordering defines patch_index everywhere."""
    coords = patching.patch_grid(
        dims, center, radius, patch_size=config.patch_size,
        overlap=config.overlap, admission_fraction=config.admission_fraction)
    return patching.exclude_artifacts(coords, rects)


class RecordPlan(NamedTuple):
    """The admitted patch coords of a record's prepared frame in grid
    order (none on the whole-image route) and its (width, height)."""

    coords: list[patching.PatchCoords]
    dims: tuple[int, int]


def plan_records(manifest: core.DatasetManifest,
                 records: list[core.ImageRecord],
                 config: RunConfig) -> list[RecordPlan]:
    """Every record's `RecordPlan`, from its header, mask sidecar and
    artifacts alone: `prepare_record_image`'s frame, halved at 0.5x by
    `patching.half_geometry`, the rule `resize_half` follows."""
    layout, _, scale = _METHOD_SPEC[config.method]
    plan = []
    for record in records:
        path = manifest.image_path(record)
        width, height, (center, radius) = core.read_geometry(path)
        rects = _prepared_rects(record, (width, height), center, scale)
        if scale == 0.5:
            (width, height), center, radius = patching.half_geometry(
                (width, height), center, radius)
        coords = []
        if "patch_size" in layout.reads:  # else the frame may be tiny
            try:
                coords = record_patch_coords((width, height), center, radius,
                                             rects, config)
            except ValueError as exc:  # a frame smaller than a patch
                raise ValueError(f"{path}: {exc}") from None
            if not coords:
                raise ValueError(f"{path}: no admissible patches")
        plan.append(RecordPlan(coords, (width, height)))
    return plan


def _row_counts(plan: list[RecordPlan], layout: _Layout) -> np.ndarray:
    """Each planned record's rows under `layout`."""
    return np.array([len(p.coords) if layout.per_patch else 1 for p in plan])


def _shared_rows(n: int, columns: int, dtype: np.dtype) -> np.ndarray:
    """An `n` x `columns` matrix in an anonymous shared mapping, so that
    what forked workers write into it is seen by this process."""
    buffer = mmap.mmap(-1, max(n * columns * dtype.itemsize, 1))
    return np.frombuffer(buffer, dtype, n * columns).reshape(n, columns)


def describe_records(manifest: core.DatasetManifest,
                     records: list[core.ImageRecord], config: RunConfig,
                     plan: list[RecordPlan]) -> tuple[np.ndarray, np.ndarray]:
    """Classifier rows of `records` and the ascending record index
    `owner[j]` of row j: per record one texture row (RF-*, named by
    `config.descriptor.row_names()`) or whitened float32 raster
    (whole-image); per admitted patch, in grid order, one whitened
    float32 patch (PPF).  The rows are allocated once, from the records'
    `plan_records` plan, in a shared mapping that the worker preparing a
    record writes its rows into, so no frame or row crosses the process
    boundary."""
    layout, _, scale = _METHOD_SPEC[config.method]
    counts = _row_counts(plan, layout)
    ends = np.cumsum(counts)
    X = _shared_rows(int(counts.sum()), *layout.format(config))

    def fill(i: int) -> None:
        coords = plan[i].coords
        img, _rects = prepare_record_image(manifest, records[i], scale, coords)
        layout.fill(img, coords, X[ends[i] - counts[i]:ends[i]], config)

    run_parallel(fill, range(len(records)), config.jobs)
    return X, np.repeat(np.arange(len(records)), counts)


def _check_memory(rows, kept: list[np.ndarray], config: RunConfig,
                  patches: int = 0) -> None:
    """Refuse a run whose row matrix plus what its folds train on alive
    at once would not fit in the memory available now.  `rows[i]` is
    record i's row count and `kept[f]` holds fold f's kept record
    indices.  Logistic folds train together and copy no rows: they hold
    `classify.logistic_working_bytes`, the Gram matrix in sample space
    plus their coefficients and temporaries.  A forest fold holds
    `X[rows]`, the float64 copy `train_random_forest` makes and its
    split temporaries (3.26x the float32 rows: the tracemalloc peak of
    one forest on 1000 x 6400 rows while the caller holds `X[rows]`;
    such a root is split alone), and as many forest folds run at once
    as the fold pass has workers (`pool_size`).
    For RF-GLCM, each record-pass worker holds
    `features.glcm_working_bytes` for a record of `patches` patches (the
    most of any record); the record pass ends before the fold pass
    starts, so the larger of the two passes is checked.
    Nothing is checked where available memory cannot be read."""
    available = mem_available()
    if available is None:
        return
    layout, descriptor_cls, _scale = _METHOD_SPEC[config.method]
    columns, dtype = layout.format(config)
    row_bytes = columns * dtype.itemsize
    counts = np.asarray(rows, dtype=np.int64)
    n = int(counts.sum())
    cache = n * row_bytes
    if layout.forest(config):
        fold_rows = max(int(counts[k].sum()) for k in kept)
        folds = pool_size(config.jobs, len(kept))
        fold_bytes = fold_rows * row_bytes * folds * 326 // 100
        what = f"{folds} forest fold copies"
    else:
        fold_bytes = classify.logistic_working_bytes((n, columns), len(kept),
                                                     dtype)
        what = "logistic folds"
    if descriptor_cls is features.GlcmConfig:
        workers = pool_size(config.jobs, len(counts))
        side = config.patch_size
        record_bytes = workers * features.glcm_working_bytes(
            side, side, patches, config.descriptor)
        if record_bytes > fold_bytes:
            fold_bytes = record_bytes
            what = f"{workers} GLCM record workers"
    if cache + fold_bytes > available:
        mib = 1 << 20
        raise ConfigError(
            f"{config.method} needs about {(cache + fold_bytes) // mib} MiB "
            f"({layout.matrix} {cache // mib} MiB + {what} "
            f"{fold_bytes // mib} MiB) but only {available // mib} MiB is "
            f"available")


def _fit_logistic(config: RunConfig, X: np.ndarray, y: np.ndarray,
                  fold_rows: list[np.ndarray]) -> list:
    """Every fold's logistic model, for logistic-PPF and the whole-image
    baseline; a diverging descent is a configuration error."""
    try:
        return classify.train_logistic_folds(
            X, y.astype(np.float32), fold_rows, epochs=config.epochs,
            rate=config.rate, l2=config.l2)
    except FloatingPointError as exc:
        raise ConfigError(f"logistic fit diverged: {exc}; choose a "
                          f"smaller rate") from None


# ---------------------------------------------------------------------------
# Cross-validation driver
# ---------------------------------------------------------------------------


class RunPlan(NamedTuple):
    """What a run decides before it reads a frame: the manifest with its
    rotated copies, each record's label and rotated-copy flag, the LOPO
    folds, each fold's seed by test patient, each fold's kept training
    record indices (after balancing) and each record's `RecordPlan`."""

    manifest: core.DatasetManifest
    labels: np.ndarray
    is_augmented: np.ndarray
    folds: list[Fold]
    fold_seeds: dict[str, int]
    kept: list[np.ndarray]
    plans: list[RecordPlan]


def plan_run(manifest: core.DatasetManifest, config: RunConfig) -> RunPlan:
    """Validate `config`, add the rotated copies, plan the folds and
    their balancing, plan every record and check memory, all from labels
    and image headers: a cohort too small for LOPO, or a run that cannot
    fit, fails before any frame is read."""
    config.validate()
    augmented = classify.augment_rotations(
        manifest, k=config.k_aug, seed=stable_seed(config.seed, "augment"))
    records = augmented.records
    labels = np.array([classify.record_label(r) for r in records], dtype=np.int64)
    is_augmented = np.array([r.is_augmented for r in records])
    folds = lopo_folds(augmented)
    fold_seeds = {fold.test_patient: stable_seed(config.seed, "fold",
                                                 fold.test_patient)
                  for fold in folds}
    kept = [fold.train_idx[classify.balance_classes(
        labels[fold.train_idx], is_augmented[fold.train_idx],
        seed=stable_seed(fold_seeds[fold.test_patient], "balance"))]
        for fold in folds]
    for fold in folds:
        if is_augmented[fold.test_idx].any():
            raise RuntimeError(
                f"augmented record in test fold {fold.test_patient}")
    plans = plan_records(augmented, records, config)
    _check_memory(_row_counts(plans, _METHOD_SPEC[config.method][0]), kept,
                  config, max(len(p.coords) for p in plans))
    return RunPlan(augmented, labels, is_augmented, folds, fold_seeds, kept,
                   plans)


def score_folds(run: RunPlan, config: RunConfig, X: np.ndarray,
                owner: np.ndarray) -> list[tuple[np.ndarray, int, int]]:
    """Each fold fitted on the rows (of `describe_records`) of its kept
    records and scored on its held-out originals: (p per test record,
    patch hits, patches scored) per fold, in fold order.

    Logistic folds train here, before the fold pass: OpenBLAS already
    spreads their matrix products over every core, and forked workers
    would each start its threads (on a 2-core machine, forking the 4
    PPF@0.5x folds of a 4-patient cohort onto 2 workers took run_cv from
    1.8 s to 3.9 s); they are then scored here too.  Forest folds grow
    and score on `config.jobs` forked workers that inherit X, so only
    probabilities come back."""
    layout = _METHOD_SPEC[config.method][0]
    fold_rows = [np.flatnonzero(np.isin(owner, k)) for k in run.kept]
    models = (None if layout.forest(config)
              else _fit_logistic(config, X, run.labels[owner], fold_rows))

    def fold_pass(f: int) -> tuple[np.ndarray, int, int]:
        test_idx, rows = run.folds[f].test_idx, fold_rows[f]
        if models is None:
            model = forest.train_random_forest(
                X[rows], run.labels[owner[rows]], trees=config.trees,
                seed=run.fold_seeds[run.folds[f].test_patient], jobs=1)
        else:
            model = models[f]
        if not layout.per_patch:
            return model.predict_proba(X[test_idx])[:, 1], 0, 0
        # Fuse each test record's patch posteriors.
        probs = np.empty(len(test_idx), dtype=np.float64)
        hits = total = 0
        for n, i in enumerate(test_idx):
            lo, hi = np.searchsorted(owner, (i, i + 1))
            pp = model.predict_proba(X[lo:hi])[:, 1]
            probs[n] = fusion.fuse(list(zip(run.plans[i].coords, pp)),
                                   run.plans[i].dims).p
            hits += int(((pp >= config.threshold).astype(int)
                         == run.labels[i]).sum())
            total += len(pp)
        return probs, hits, total

    return run_parallel(fold_pass, range(len(run.folds)),
                        config.jobs if models is None else 1)


def build_report(run: RunPlan, config: RunConfig,
                 outcomes: list[tuple[np.ndarray, int, int]]) -> EvalReport:
    """The `EvalReport` of `score_folds`' outcomes: the held-out scores
    concatenated in fold order, their metrics, ROC and AUC, and each
    fold's provenance audit."""
    records = run.manifest.records
    results: list[ResultRow] = []
    audits: list[FoldAudit] = []
    for fold, kept_idx, (probs, _hits, _total) in zip(run.folds, run.kept,
                                                      outcomes):
        test_idx = fold.test_idx
        removed_idx = np.setdiff1d(fold.train_idx, kept_idx,
                                   assume_unique=True)
        for i, p in zip(test_idx, probs):
            rec = records[i]
            results.append(ResultRow(
                patient=rec.patient, sequence=rec.sequence, frame=rec.frame,
                label=int(run.labels[i]), p=float(p)))
        audits.append(FoldAudit(
            test_patient=fold.test_patient,
            fold_seed=run.fold_seeds[fold.test_patient],
            train_patients=tuple(sorted({records[i].patient
                                         for i in kept_idx})),
            train_keys=[records[i].key() for i in kept_idx],
            test_keys=[records[i].key() for i in test_idx],
            balancing_removed=[records[i].key() for i in removed_idx],
            n_augmented_in_test=int(run.is_augmented[test_idx].sum()),
        ))
    patch_hits = sum(hits for _p, hits, _total in outcomes)
    patch_total = sum(total for _p, _hits, total in outcomes)

    y_all = np.array([r.label for r in results])
    p_all = np.array([r.p for r in results])
    acc, sens, spec = confusion_metrics(y_all, p_all, config.threshold)
    roc, auc = roc_auc(y_all, p_all)
    return EvalReport(
        method=config.method,
        seed=config.seed,
        threshold=config.threshold,
        results=results,
        accuracy=acc,
        sensitivity=sens,
        specificity=spec,
        roc=roc,
        auc=auc,
        n_images=len(results),
        patch_accuracy=(patch_hits / patch_total if patch_total else None),
        fold_audits=audits,
        fold_seeds=run.fold_seeds,
        config=dataclasses.asdict(config),
    )


def run_cv(manifest: core.DatasetManifest, config: RunConfig) -> EvalReport:
    """Run the configured method under leave-one-patient-out CV.

    Per fold: balance the training records (augmented majority rows go
    first), fit the method's classifier, score the held-out patient's
    originals, and concatenate in fold order.  Returns the full report
    with metrics, ROC/AUC, and a per-fold provenance audit.  The stages
    are `plan_run`, `describe_records`, `score_folds` and `build_report`.
    """
    run = plan_run(manifest, config)
    X, owner = describe_records(run.manifest, run.manifest.records, config,
                                run.plans)
    return build_report(run, config, score_folds(run, config, X, owner))


# ---------------------------------------------------------------------------
# Output documents
# ---------------------------------------------------------------------------


def results_csv(report: EvalReport) -> str:
    lines = [f"method,patient,sequence,frame,label,p_image,pred@{report.threshold:g}"]
    for r in report.results:
        label = core.LABELS[r.label]
        pred = int(r.p >= report.threshold)
        lines.append(f"{report.method},{r.patient},{r.sequence},{r.frame},"
                     f"{label},{r.p!r},{pred}")
    return "\n".join(lines) + "\n"


def roc_csv(report: EvalReport) -> str:
    lines = ["threshold,fpr,tpr"]
    for fpr, tpr, thr in report.roc:
        lines.append(f"{thr!r},{fpr!r},{tpr!r}")
    return "\n".join(lines) + "\n"


def summary_dict(report: EvalReport) -> dict:
    # `jobs` is execution infrastructure with no effect on results; keeping
    # it out of the echo makes outputs byte-identical across worker counts.
    config = {k: v for k, v in report.config.items() if k != "jobs"}
    return {
        "method": report.method,
        "accuracy": report.accuracy,
        "sensitivity": report.sensitivity,
        "specificity": report.specificity,
        "auc": report.auc,
        "n_images": report.n_images,
        "seed": report.seed,
        "threshold": report.threshold,
        "patch_accuracy": report.patch_accuracy,
        "fold_seeds": dict(sorted(report.fold_seeds.items())),
        "config": config,
    }
