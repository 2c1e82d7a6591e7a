"""Leave-one-patient-out cross-validation and result reporting.

Folds are partitioned by patient so intra-video correlation never leaks
between training and test sides; rotated copies only ever train.  Per-fold
scores are concatenated into one result vector over all original records,
from which threshold metrics, the ROC curve, and the tie-aware
Mann-Whitney AUC are computed.  Every random draw derives from the master
seed plus the fold's patient id, so runs are reproducible and independent
of worker count.

A run makes two forked passes, and only rows and probabilities cross the
process boundary.  The record pass prepares each record and, for RF-* and
the whole-image baseline, describes it in the same worker, so frames
never reach this process; PPF brings its frames back and fills one patch
cache here.  The fold pass fits and scores one fold per worker, each
forest growing its trees in turn.  Logistic folds (logistic-PPF, the
whole-image baseline) run in this process, since OpenBLAS already uses
every core.  With more jobs than folds, the extra cores sit idle in the
fold pass.
"""

from __future__ import annotations

import dataclasses
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import classify, core, features, forest, fusion, patching, wholeimage
from .util import default_jobs, mem_available, run_parallel, stable_seed


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
                         record: core.ImageRecord,
                         scale: float) -> tuple[core.CleImage, list]:
    """Load a record at pipeline scale: rotate augmented copies about the
    view center, then downscale.  Artifact rectangles follow the same
    transforms (conservatively, by outward rounding)."""
    img = core.load_image(manifest.image_path(record))
    rects = list(record.artifacts)
    if record.is_augmented:
        dims = (img.width, img.height)
        rects = [r for r in
                 (patching.rotate_rect(rc, img.mask_center,
                                       record.rotation_deg, dims)
                  for rc in rects) if r is not None]
        img = wholeimage.rotate(img, record.rotation_deg)
    if scale == 0.5:
        img = patching.resize_half(img)
        rects = [patching.scale_rect(r, 0.5) for r in rects]
    elif scale != 1.0:
        raise ValueError(f"unsupported scale {scale}")
    return img, rects


def record_patch_coords(img: core.CleImage, rects, config: RunConfig):
    """Admitted patch coordinates of a prepared record, artifact-free,
    in grid order.  This ordering defines patch_index everywhere."""
    coords = patching.patch_grid(
        (img.width, img.height), img.mask_center, img.mask_radius,
        patch_size=config.patch_size, overlap=config.overlap,
        admission_fraction=config.admission_fraction)
    return patching.exclude_artifacts(coords, rects)


def _prepare(manifest: core.DatasetManifest, record: core.ImageRecord,
             config: RunConfig) -> tuple[core.CleImage, list]:
    """(frame, admitted patch coords) of one record at the method's scale.
    The whole-image method builds no grid, so its frame may be tiny."""
    kind, _, scale = _METHOD_SPEC[config.method]
    img, rects = prepare_record_image(manifest, record, scale)
    if kind == "wholeimage":
        return img, []
    return img, record_patch_coords(img, rects, config)


def prepare_records(manifest: core.DatasetManifest,
                    records: list[core.ImageRecord], config: RunConfig
                    ) -> list[tuple[core.CleImage, list[patching.PatchCoords]]]:
    """(frame, admitted patch coords) of every record at the method's
    scale, on `config.jobs` worker processes, in record order."""
    return run_parallel(lambda record: _prepare(manifest, record, config),
                        records, config.jobs)


def _describe(img: core.CleImage, coords: list, config: RunConfig,
              index: int, out: np.ndarray | None = None) -> np.ndarray:
    """Classifier rows of record `index`, prepared as (`img`, `coords`):
    one texture row (RF-*) or whitened float32 raster (whole-image), or
    one whitened float32 patch per admitted patch, in grid order, written
    into the `(len(coords), patch_size**2)` block `out` (PPF)."""
    kind = _METHOD_SPEC[config.method][0]
    if kind != "wholeimage" and not coords:
        raise ValueError(f"record {index} has no admissible patches")
    if kind == "ppf":
        for row, c in zip(out, coords):
            row[:] = patching.whiten_values(
                img.pixels[c.c3:c.c4, c.c1:c.c2])[0].ravel()
        return out
    if kind == "features":
        return features.image_row(img.pixels, coords, config.descriptor)
    _compressed, _crop, raster = wholeimage.preprocess(img, config.target_size)
    white, _ = patching.whiten_values(raster.astype(np.float64).ravel())
    return white.astype(np.float32)


def _rows_per_record(prepared_at, n: int, config: RunConfig
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Stacked `_describe` rows of records 0..n-1, each prepared by
    `prepared_at(i)` and described in the same worker, and owner
    `arange(n)`."""
    return (np.stack(run_parallel(
        lambda i: _describe(*prepared_at(i), config, i), range(n),
        config.jobs)), np.arange(n))


def represent(prepared: list[tuple[core.CleImage, list]],
              config: RunConfig) -> tuple[np.ndarray, np.ndarray]:
    """Classifier rows of prepared records and the ascending record index
    `owner[j]` of row j: per record one texture row (RF-*, named by
    `config.descriptor.row_names()`) or whitened float32 raster
    (whole-image); per admitted patch, in grid order, one whitened
    float32 patch (PPF)."""
    if _METHOD_SPEC[config.method][0] != "ppf":
        return _rows_per_record(prepared.__getitem__, len(prepared), config)
    counts = np.array([len(c) for _img, c in prepared], dtype=np.intp)
    # One preallocated PPF cache, filled here: stacking per-record blocks
    # would double it, and pickling rows back from workers costs more
    # than whitening them.
    X = np.empty((counts.sum(), config.patch_size ** 2), dtype=np.float32)
    ends = np.cumsum(counts)
    for i, (img, coords) in enumerate(prepared):
        _describe(img, coords, config, i, out=X[ends[i] - counts[i]:ends[i]])
    return X, np.repeat(np.arange(len(prepared)), counts)


def describe_records(manifest: core.DatasetManifest,
                     records: list[core.ImageRecord], config: RunConfig
                     ) -> tuple[np.ndarray, np.ndarray]:
    """`represent(prepare_records(manifest, records, config), config)` in
    one pass: for RF-* and the whole-image baseline, the worker that
    prepares a record also describes it, so only its row comes back and
    no frame is held here.  PPF fills its patch cache from the prepared
    frames in this process."""
    if _METHOD_SPEC[config.method][0] == "ppf":
        return represent(prepare_records(manifest, records, config), config)
    return _rows_per_record(
        lambda i: _prepare(manifest, records[i], config), len(records),
        config)


def _uses_forest(config: RunConfig) -> bool:
    kind = _METHOD_SPEC[config.method][0]
    return kind == "features" or (kind == "ppf"
                                  and config.patch_classifier == "forest")


def _check_ppf_memory(prepared: list[tuple[core.CleImage, list]],
                      kept: list[np.ndarray], config: RunConfig) -> None:
    """Refuse a PPF run whose float32 patch cache plus the fold copies
    alive at once would not fit in the memory available now.  `kept[f]`
    holds fold f's kept record indices.  A logistic fold holds its
    float32 `X[rows]`, one fold at a time.  A forest fold also holds the
    float64 copy `train_random_forest` makes and the float64 bootstrap
    resample of the tree it grows (5x the float32 rows), and up to
    `min(jobs, folds)` forest folds run at once.  Nothing is checked
    where available memory cannot be read."""
    available = mem_available()
    if available is None:
        return
    row_bytes = config.patch_size ** 2 * np.dtype(np.float32).itemsize
    counts = np.array([len(c) for _img, c in prepared], dtype=np.int64)
    cache = int(counts.sum()) * row_bytes
    largest = max(int(counts[k].sum()) for k in kept) * row_bytes
    if _uses_forest(config):
        folds = min(max(1, config.jobs), len(kept))
        fold_copy, what = 5 * largest * folds, f"{folds} forest fold copies"
    else:
        fold_copy, what = largest, "largest fold copy"
    if cache + fold_copy > available:
        mib = 1 << 20
        raise ConfigError(
            f"{config.method} needs about {(cache + fold_copy) // mib} MiB "
            f"(patch cache {cache // mib} MiB + {what} "
            f"{fold_copy // mib} MiB) but only {available // mib} MiB is "
            f"available")


def _fit(config: RunConfig, X: np.ndarray, y: np.ndarray, seed: int):
    """One fold's classifier: the random forest for texture features and
    forest-PPF, the logistic model for logistic-PPF and the whole-image
    baseline.  The forest grows its trees in this process: folds are
    what runs in parallel."""
    if _uses_forest(config):
        return forest.train_random_forest(X, y, trees=config.trees,
                                          seed=seed, jobs=1)
    return classify.train_logistic(X, y.astype(np.float32),
                                   epochs=config.epochs, rate=config.rate,
                                   l2=config.l2)


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

    # Record pass.  PPF keeps the frames: folds fuse over their patches,
    # and the cache is refused before it exists if it cannot fit.
    if kind == "ppf":
        prepared = prepare_records(augmented, records, config)
        _check_ppf_memory(prepared, kept, config)
        X, owner = represent(prepared, config)
    else:
        X, owner = describe_records(augmented, records, config)

    def fold_pass(f: int) -> tuple[np.ndarray, int, int]:
        """Fold f fitted on its kept rows and scored on its held-out
        originals: (p per test record, patch hits, patches scored)."""
        test_idx = folds[f].test_idx
        rows = np.flatnonzero(np.isin(owner, kept[f]))
        model = _fit(config, X[rows], labels[owner[rows]],
                     fold_seeds[folds[f].test_patient])
        if kind != "ppf":  # one row per record
            return model.predict_proba(X[test_idx])[:, 1], 0, 0
        # Fuse each test record's patch posteriors.
        probs = np.empty(len(test_idx), dtype=np.float64)
        hits = total = 0
        for n, i in enumerate(test_idx):
            lo, hi = np.searchsorted(owner, (i, i + 1))
            pp = model.predict_proba(X[lo:hi])[:, 1]
            img, coords = prepared[i]
            probs[n] = fusion.fuse(list(zip(coords, pp)),
                                   (img.width, img.height)).p
            hits += int(((pp >= config.threshold).astype(int)
                         == labels[i]).sum())
            total += len(pp)
        return probs, hits, total

    # Fold pass.  Forest folds run on `config.jobs` forked workers that
    # inherit X, so only probabilities come back.  Logistic folds run here
    # one after another: OpenBLAS already spreads their matrix products
    # over every core, and forked workers would each start its threads
    # (on a 2-core machine, forking the 4 PPF@0.5x folds of a 4-patient
    # cohort onto 2 workers took run_cv from 1.8 s to 3.9 s).
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
