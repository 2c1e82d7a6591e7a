"""Leave-one-patient-out cross-validation and result reporting.

Folds are partitioned by patient so intra-video correlation never leaks
between training and test sides; rotated copies only ever train.  Per-fold
scores are concatenated into one result vector over all original records,
from which threshold metrics, the ROC curve, and the tie-aware
Mann-Whitney AUC are computed.  Every random draw derives from the master
seed plus the fold's patient id, so runs are reproducible and independent
of worker count.

A run plans every record from its image header (`plan_records`): the
admitted patches and size of its prepared frame, hence its rows.  Then
it makes two forked passes.  The record pass is `describe_records`: the
worker that prepares a record writes its rows into one matrix in a
shared mapping, so no frame or row crosses the process boundary.  The
fold pass fits and scores one fold per worker, each forest splitting
its roots a block of trees at a time.  With more jobs than folds, the
extra cores sit idle in the fold pass.  Logistic folds (logistic-PPF,
the whole-image baseline) train and score in this process, since
OpenBLAS already uses every core: `classify.train_logistic_folds` trains
them all, from one Gram matrix of the rows when they are fewer than the
columns, else one fold copy at a time.

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

_METHOD_SPEC = {
    "RF-LBP@1.0x": ("features", "lbp", 1.0),
    "RF-LBP@0.5x": ("features", "lbp", 0.5),
    "RF-GLCM@1.0x": ("features", "glcm", 1.0),
    "RF-GLCM@0.5x": ("features", "glcm", 0.5),
    "PPF@1.0x": ("ppf", None, 1.0),
    "PPF@0.5x": ("ppf", None, 0.5),
    "WHOLEIMAGE@0.55x": ("wholeimage", None, 1.0),
}
METHODS = tuple(_METHOD_SPEC)

# Values accepted for each annotated RunConfig field type: an int may
# stand in for a float, but a bool (an int subclass) only for a bool.
_FIELD_TYPES = {"bool": bool, "int": numbers.Integral, "float": numbers.Real,
                "str": str}


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
    wholeimage_baseline: bool = False
    target_size: int = wholeimage.TARGET_SIZE

    def validate(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if (not isinstance(value, _FIELD_TYPES[f.type])
                    or (isinstance(value, bool) and f.type != "bool")):
                raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
            if f.type == "float" and not _finite(value):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
        if self.method not in _METHOD_SPEC:
            raise ConfigError(
                f"unknown method {self.method!r}; choose from "
                f"{', '.join(METHODS)}")
        if not 0.0 <= self.threshold <= 1.0:
            raise ConfigError("threshold must be in [0, 1]")
        if self.trees < 1 or self.k_aug < 0 or self.epochs < 1:
            raise ConfigError("trees/epochs must be >= 1 and k_aug >= 0")
        if self.rate <= 0:
            raise ConfigError("rate must be positive")
        if not 0.0 < self.admission_fraction <= 1.0:
            raise ConfigError("admission_fraction must be in (0, 1]")
        if self.patch_classifier not in ("logistic", "forest"):
            raise ConfigError(
                f"unknown patch classifier {self.patch_classifier!r}")
        if not 0.0 <= self.overlap < 1.0:
            raise ConfigError("overlap must be in [0, 1)")
        if self.patch_size < 2 or self.target_size < 2:
            raise ConfigError("patch_size and target_size must be >= 2")
        if not 2 <= self.glcm_levels <= 256:
            raise ConfigError("glcm_levels must be in [2, 256]")
        if self.l2 < 0:
            raise ConfigError("l2 must be >= 0")

    @property
    def scale(self) -> float:
        return _METHOD_SPEC[self.method][2]

    @property
    def descriptor(self) -> features.LbpConfig | features.GlcmConfig:
        """Texture descriptor of a feature method (RF-LBP or RF-GLCM)."""
        if _METHOD_SPEC[self.method][1] == "lbp":
            return features.LbpConfig()
        return features.GlcmConfig(levels=self.glcm_levels)


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


def _tie_groups(sorted_values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(starts, ends) of the runs of equal values in a sorted array, as
    half-open index ranges."""
    cuts = np.flatnonzero(sorted_values[1:] != sorted_values[:-1]) + 1
    starts = np.concatenate([[0], cuts])
    ends = np.concatenate([cuts, [len(sorted_values)]])
    return starts, ends


def mann_whitney_auc(labels: np.ndarray, probs: np.ndarray) -> float:
    """Probability that a random positive outranks a random negative,
    crediting ties 0.5 (average-rank form of the pair statistic)."""
    labels = np.asarray(labels).astype(int)
    probs = np.asarray(probs, dtype=float)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both classes present")
    order = np.argsort(probs, kind="stable")
    starts, ends = _tie_groups(probs[order])
    ranks = np.empty(len(probs), dtype=float)
    # Every member of a tie group gets the group's average 1-based rank.
    ranks[order] = np.repeat(0.5 * (starts + ends - 1) + 1.0, ends - starts)
    rank_sum_pos = float(ranks[labels == 1].sum())
    u = rank_sum_pos - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def roc_points(labels: np.ndarray, probs: np.ndarray) -> list[tuple[float, float, float]]:
    """(fpr, tpr, threshold) sweeping thresholds down the distinct scores.

    Tied scores collapse into a single step, so the trapezoidal area under
    this curve equals the tie-aware pair statistic.  Starts at (0, 0) with
    threshold +inf and ends at (1, 1).
    """
    labels = np.asarray(labels).astype(int)
    probs = np.asarray(probs, dtype=float)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("ROC needs both classes present")
    order = np.argsort(-probs, kind="stable")
    ss = probs[order]
    starts, ends = _tie_groups(ss)
    # Counts above each step's threshold: everything up to its group end.
    tp = np.cumsum(labels[order])[ends - 1]
    fp = ends - tp
    return [(0.0, 0.0, float("inf"))] + list(zip(
        (fp / n_neg).tolist(), (tp / n_pos).tolist(), ss[starts].tolist()))


def roc_auc(labels: np.ndarray, probs: np.ndarray):
    """ROC sweep plus AUC; the AUC is the Mann-Whitney statistic, which
    coincides with the trapezoidal area under the tie-aware curve."""
    return roc_points(labels, probs), mann_whitney_auc(labels, probs)


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
    other pixel of the prepared frame is 0.  Without them, as on the
    whole-image route, the whole frame rotates."""
    img = core.load_image(manifest.image_path(record))
    rects = _prepared_rects(record, (img.width, img.height), img.mask_center,
                            scale)
    if record.is_augmented:
        spans = None if coords is None else _read_spans(coords, img.height,
                                                        scale)
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
    `resize_half`'s rule (odd sizes drop a row or column; 1x1 stays)."""
    kind, _, scale = _METHOD_SPEC[config.method]
    plan = []
    for record in records:
        path = manifest.image_path(record)
        width, height, (center, radius) = core.read_geometry(path)
        rects = _prepared_rects(record, (width, height), center, scale)
        if scale == 0.5 and (width, height) != (1, 1):
            width, height = width // 2, height // 2
            center, radius = (center[0] / 2.0, center[1] / 2.0), radius / 2.0
        if kind == "wholeimage":  # builds no grid, so the frame may be tiny
            plan.append(RecordPlan([], (width, height)))
            continue
        try:
            coords = record_patch_coords((width, height), center, radius,
                                         rects, config)
        except ValueError as exc:  # a frame smaller than a patch
            raise ValueError(f"{path}: {exc}") from None
        if not coords:
            raise ValueError(f"{path}: no admissible patches")
        plan.append(RecordPlan(coords, (width, height)))
    return plan


def _row_counts(plan: list[RecordPlan], config: RunConfig) -> np.ndarray:
    """Each planned record's rows: one per admitted patch for PPF, else
    one."""
    if _METHOD_SPEC[config.method][0] == "ppf":
        return np.array([len(p.coords) for p in plan], dtype=np.intp)
    return np.ones(len(plan), dtype=np.intp)


def _row_format(config: RunConfig) -> tuple[int, np.dtype]:
    """(columns, dtype) of a float64 texture row (RF-*), or of a whitened
    float32 patch (PPF) or raster (whole-image)."""
    kind = _METHOD_SPEC[config.method][0]
    if kind == "features":
        return len(config.descriptor.row_names()), np.dtype(np.float64)
    side = config.patch_size if kind == "ppf" else config.target_size
    return side * side, np.dtype(np.float32)


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
    kind, _, scale = _METHOD_SPEC[config.method]
    counts = _row_counts(plan, config)
    ends = np.cumsum(counts)
    X = _shared_rows(int(counts.sum()), *_row_format(config))

    def fill(i: int) -> None:
        coords, out = plan[i].coords, X[ends[i] - counts[i]:ends[i]]
        img, _rects = prepare_record_image(
            manifest, records[i], scale,
            None if kind == "wholeimage" else coords)
        if kind == "ppf":
            for row, c in zip(out, coords):
                row[:] = patching.whiten_values(
                    img.pixels[c.c3:c.c4, c.c1:c.c2])[0].ravel()
        elif kind == "features":
            out[0] = features.image_row(img.pixels, coords, config.descriptor)
        else:
            _compressed, _crop, raster = wholeimage.preprocess(
                img, config.target_size)
            out[0] = patching.whiten_values(
                raster.astype(np.float64).ravel())[0]

    run_parallel(fill, range(len(records)), config.jobs)
    return X, np.repeat(np.arange(len(records)), counts)


def _uses_forest(config: RunConfig) -> bool:
    kind = _METHOD_SPEC[config.method][0]
    return kind == "features" or (kind == "ppf"
                                  and config.patch_classifier == "forest")


def _check_memory(rows, kept: list[np.ndarray], config: RunConfig,
                  patches: int = 0) -> None:
    """Refuse a run whose row matrix plus what its folds train on alive
    at once would not fit in the memory available now.  `rows[i]` is
    record i's row count and `kept[f]` holds fold f's kept record
    indices.  Logistic folds train one at a time: on a row matrix with
    fewer rows than columns, from its Gram matrix and the fold's slice of
    it (`classify.sample_space`), else each on its `X[rows]` copy.  A
    forest fold holds `X[rows]`, the float64 copy `train_random_forest`
    makes and its split temporaries (3.26x the float32 rows: the
    tracemalloc peak of one forest on 1000 x 6400 rows while the caller
    holds `X[rows]`; such a root is split alone), and as many
    forest folds run at once as the fold pass has workers (`pool_size`).
    For RF-GLCM, each record-pass worker holds
    `features.glcm_working_bytes` for a record of `patches` patches (the
    most of any record); the record pass ends before the fold pass
    starts, so the larger of the two passes is checked.
    Nothing is checked where available memory cannot be read."""
    available = mem_available()
    if available is None:
        return
    columns, dtype = _row_format(config)
    row_bytes = columns * dtype.itemsize
    counts = np.asarray(rows, dtype=np.int64)
    n = int(counts.sum())
    cache = n * row_bytes
    fold_rows = max(int(counts[k].sum()) for k in kept)
    if _uses_forest(config):
        folds = pool_size(config.jobs, len(kept))
        fold_bytes = fold_rows * row_bytes * folds * 326 // 100
        what = f"{folds} forest fold copies"
    elif classify.sample_space((n, columns)):
        fold_bytes = (n * n + fold_rows * fold_rows) * dtype.itemsize
        what = "Gram matrix and largest fold Gram"
    else:
        fold_bytes, what = fold_rows * row_bytes, "largest fold copy"
    if _METHOD_SPEC[config.method][1] == "glcm":
        workers = pool_size(config.jobs, len(counts))
        side = config.patch_size
        record_bytes = workers * features.glcm_working_bytes(
            side, side, patches, config.descriptor)
        if record_bytes > fold_bytes:
            fold_bytes = record_bytes
            what = f"{workers} GLCM record workers"
    if cache + fold_bytes > available:
        mib = 1 << 20
        matrix = ("patch cache" if _METHOD_SPEC[config.method][0] == "ppf"
                  else "row matrix")
        raise ConfigError(
            f"{config.method} needs about {(cache + fold_bytes) // mib} MiB "
            f"({matrix} {cache // mib} MiB + {what} "
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


def run_cv(manifest: core.DatasetManifest, config: RunConfig) -> EvalReport:
    """Run the configured method under leave-one-patient-out CV.

    Per fold: balance the training records (augmented majority rows go
    first), fit the method's classifier, score the held-out patient's
    originals, and concatenate in fold order.  Returns the full report
    with metrics, ROC/AUC, and a per-fold provenance audit.
    """
    config.validate()
    kind = _METHOD_SPEC[config.method][0]
    if kind == "wholeimage" and not config.wholeimage_baseline:
        raise ValueError(
            "method WHOLEIMAGE@0.55x has no in-scope trained network; "
            "inject patch probabilities via `fuse --probs` or pass the "
            "in-repo baseline flag (--wholeimage-baseline)")

    augmented = classify.augment_rotations(
        manifest, k=config.k_aug, seed=stable_seed(config.seed, "augment"))
    records = augmented.records
    labels = np.array([classify.record_label(r) for r in records], dtype=np.int64)
    is_augmented = np.array([r.is_augmented for r in records])
    # Planned before any frame is read, so a cohort too small for LOPO
    # fails at once.
    folds = lopo_folds(augmented)

    fold_seeds = {fold.test_patient: stable_seed(config.seed, "fold",
                                                 fold.test_patient)
                  for fold in folds}
    # Balancing reads labels only, so every fold's kept records are known
    # before any frame is prepared.
    kept = [fold.train_idx[classify.balance_classes(
        labels[fold.train_idx], is_augmented[fold.train_idx],
        seed=stable_seed(fold_seeds[fold.test_patient], "balance"))]
        for fold in folds]

    for fold in folds:
        if is_augmented[fold.test_idx].any():
            raise RuntimeError(
                f"augmented record in test fold {fold.test_patient}")

    # Record pass.  The plan reads headers only, so a run that cannot fit
    # is refused before any frame is read.
    plan = plan_records(augmented, records, config)
    _check_memory(_row_counts(plan, config), kept, config,
                  max(len(p.coords) for p in plan))
    X, owner = describe_records(augmented, records, config, plan)

    fold_rows = [np.flatnonzero(np.isin(owner, k)) for k in kept]
    # Logistic folds train here, before the fold pass: OpenBLAS already
    # spreads their matrix products over every core, and forked workers
    # would each start its threads (on a 2-core machine, forking the 4
    # PPF@0.5x folds of a 4-patient cohort onto 2 workers took run_cv
    # from 1.8 s to 3.9 s).
    models = (None if _uses_forest(config)
              else _fit_logistic(config, X, labels[owner], fold_rows))

    def fold_pass(f: int) -> tuple[np.ndarray, int, int]:
        """Fold f fitted on its kept rows (a forest grows its trees in
        this worker: folds are what runs in parallel) and scored on its
        held-out originals: (p per test record, patch hits, patches
        scored)."""
        test_idx, rows = folds[f].test_idx, fold_rows[f]
        if models is None:
            model = forest.train_random_forest(
                X[rows], labels[owner[rows]], trees=config.trees,
                seed=fold_seeds[folds[f].test_patient], jobs=1)
        else:
            model = models[f]
        if kind != "ppf":  # one row per record
            return model.predict_proba(X[test_idx])[:, 1], 0, 0
        # Fuse each test record's patch posteriors.
        probs = np.empty(len(test_idx), dtype=np.float64)
        hits = total = 0
        for n, i in enumerate(test_idx):
            lo, hi = np.searchsorted(owner, (i, i + 1))
            pp = model.predict_proba(X[lo:hi])[:, 1]
            probs[n] = fusion.fuse(list(zip(plan[i].coords, pp)),
                                   plan[i].dims).p
            hits += int(((pp >= config.threshold).astype(int)
                         == labels[i]).sum())
            total += len(pp)
        return probs, hits, total

    # Fold pass.  Forest folds run on `config.jobs` forked workers that
    # inherit X, so only probabilities come back; logistic folds are
    # scored here.
    outcomes = run_parallel(fold_pass, range(len(folds)),
                            config.jobs if _uses_forest(config) else 1)

    results: list[ResultRow] = []
    audits: list[FoldAudit] = []
    for fold, kept_idx, (probs, _hits, _total) in zip(folds, kept,
                                                      outcomes):
        test_idx = fold.test_idx
        removed_idx = np.setdiff1d(fold.train_idx, kept_idx,
                                   assume_unique=True)
        for i, p in zip(test_idx, probs):
            rec = records[i]
            results.append(ResultRow(
                patient=rec.patient, sequence=rec.sequence, frame=rec.frame,
                label=int(labels[i]), p=float(p)))
        audits.append(FoldAudit(
            test_patient=fold.test_patient,
            fold_seed=fold_seeds[fold.test_patient],
            train_patients=tuple(sorted({records[i].patient
                                         for i in kept_idx})),
            train_keys=[records[i].key() for i in kept_idx],
            test_keys=[records[i].key() for i in test_idx],
            balancing_removed=[records[i].key() for i in removed_idx],
            n_augmented_in_test=int(is_augmented[test_idx].sum()),
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
        fold_seeds=fold_seeds,
        config=dataclasses.asdict(config),
    )


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
