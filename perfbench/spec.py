"""What the clescreen benchmark runs and reports.

This module is the single source of the workload and metric definitions.
`run.py` reports exactly the metrics listed here, and running this file
rewrites `BENCHMARK.json` at the repository root from them:

    python3 perfbench/spec.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

RUN_SECONDS = 20

# Seed used when a claim is developed, and a seed kept out of tuning so a
# later claim can be confirmed on inputs it was not fitted to.
DEFAULT_SEED = 42
HELDOUT_SEED = 7331

# Every workload runs on one seeded synthetic cohort of this shape.  It is
# small enough that one LOPO-CV takes seconds, so a run can repeat it and
# report a median, while every layer named below still does real work.
COHORT = {"n_patients": 4, "images_per_patient": 9, "image_size": 576}
SETUP_REPEATS = 3

# name -> (method, k_aug, why)
WORKLOADS = {
    "cv-lbp-aug": (
        "RF-LBP@0.5x", 2,
        "paper's main route: rotated copies make rotate, resize_half and LBP "
        "ring sampling dominate; forest grows with patients; no whitening, "
        "logistic model or fusion"),
    "cv-ppf-aug": (
        "PPF@0.5x", 2,
        "same prep, then the whitened float32 patch cache, per-fold copies, "
        "full-batch logistic descent and per-pixel fusion; largest memory; "
        "no texture features or forest"),
    "cv-glcm-full": (
        "RF-GLCM@1.0x", 0,
        "originals only, so rotate and resize_half never run; 121 full-scale "
        "patches per frame make GLCM/Haralick calls and patch_grid dominate; "
        "small forest"),
}

# (name, unit, better, bound)
END_TO_END = [
    ("cv_s", "s", "lower", 0.2),
    ("images_per_s", "1/s", "higher", 0.2),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("accuracy", "ratio", "higher", 0.24),
    ("auc", "ratio", "higher", 0.2),
]

# (name, unit, better)
PER_LAYER = [
    ("synth.generate_dataset.s", "s", "lower"),
    ("evaluation.run_cv.s", "s", "lower"),
    ("evaluation.run_cv.self_s", "s", "lower"),
    ("core.load_image.s", "s", "lower"),
    ("core.load_image.calls", "count", "lower"),
    ("core.load_image.mb", "MB", "lower"),
    ("wholeimage.rotate.s", "s", "lower"),
    ("wholeimage.rotate.calls", "count", "lower"),
    ("patching.resize_half.s", "s", "lower"),
    ("patching.resize_half.calls", "count", "lower"),
    ("evaluation.record_patch_coords.s", "s", "lower"),
    ("patches.admitted", "count", "lower"),
    ("patching.whiten_values.s", "s", "lower"),
    ("patching.whiten_values.calls", "count", "lower"),
    ("features.lbp_patch_matrix.s", "s", "lower"),
    ("features.lbp_patch_matrix.patches", "count", "lower"),
    ("features.glcm_patch_matrix.s", "s", "lower"),
    ("features.glcm_patch_matrix.patches", "count", "lower"),
    ("classify.balance_classes.s", "s", "lower"),
    ("classify.balance.rows_kept", "count", "higher"),
    ("classify.balance.rows_removed", "count", "lower"),
    ("classify.balance.kept_ratio", "ratio", "higher"),
    ("classify.train_logistic.s", "s", "lower"),
    ("classify.train_logistic.row_epochs", "count", "lower"),
    ("classify.train_logistic.input_mb", "MB", "lower"),
    ("classify.LogisticModel.predict_proba.s", "s", "lower"),
    ("forest.train_random_forest.s", "s", "lower"),
    ("forest.trees", "count", "lower"),
    ("forest.nodes", "count", "lower"),
    ("forest.RandomForestModel.predict_proba.s", "s", "lower"),
    ("fusion.fuse.s", "s", "lower"),
    ("fusion.fuse.patches", "count", "lower"),
    ("evaluation.roc_auc.s", "s", "lower"),
    ("util.parallel_efficiency", "ratio", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
]


def originals_count() -> int:
    return COHORT["n_patients"] * COHORT["images_per_patient"]


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, (_m, _k, why) in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


if __name__ == "__main__":
    out = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    out.write_text(json.dumps(benchmark_json(), indent=2) + "\n")
    print(f"wrote {out}", file=sys.stderr)
