"""Acceptance criteria for the whole pipeline.

Each test prints one `ACCEPTANCE <name>: PASS/FAIL` line (visible with
`pytest -s` or in captured output).  The end-to-end criteria generate the
default 12-patient x 60-image synthetic cohort at seed 42 and run full
leave-one-patient-out evaluations, so this module dominates the suite's
runtime.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from clescreen.cli import main as cli_main
from clescreen.core import (CARCINOGENIC, NORMAL, SITE_ALVEOLAR, SITE_LABIUM,
                            SITE_PALATE, SITE_TUMOR, DatasetManifest,
                            ImageRecord, dataset_stats)
from clescreen.classify import logistic_loss_grad
from clescreen.evaluation import RunConfig, roc_auc, run_cv
from clescreen.features import (HARALICK_NAMES, glcm, haralick_features,
                                _lbp_codes, _histogram_rows)
from clescreen.fusion import build_maps, image_probability
from clescreen.patching import PatchCoords, patch_grid
from clescreen.synth import SynthConfig, generate_dataset
from clescreen.wholeimage import max_square_side

pytestmark = pytest.mark.slow

def _report(name: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name} failed: {detail}"


# ---------------------------------------------------------------------------
# Data-independent criteria
# ---------------------------------------------------------------------------


def test_patch_grid_geometry():
    t_best = math.inf
    for _ in range(20):
        t0 = time.perf_counter()
        coords = patch_grid((288, 288), (144.0, 144.0), 144.0,
                            patch_size=80, overlap=0.5)
        t_best = min(t_best, time.perf_counter() - t0)
    ok = len(coords) == 21 and t_best < 0.010
    _report("patch-grid-geometry", ok,
            f"(21-patch layout: {len(coords)} patches, "
            f"{t_best * 1000:.2f} ms)")


def test_reference_cohort_statistics():
    counts = {SITE_ALVEOLAR: 1951, SITE_LABIUM: 1317, SITE_PALATE: 811,
              SITE_TUMOR: 3815}
    records = []
    i = 0
    for site, n in counts.items():
        label = CARCINOGENIC if site == SITE_TUMOR else NORMAL
        for _ in range(n):
            records.append(ImageRecord(
                patient=f"p{i % 12}", sequence="s0", frame=i, label=label,
                site=site, file=f"{i}.pgm"))
            i += 1
    report = dataset_stats(DatasetManifest(records=records, root_path="."))
    expected = {SITE_ALVEOLAR: 24.71, SITE_LABIUM: 16.68,
                SITE_PALATE: 10.27, SITE_TUMOR: 48.33}
    errs = [abs(report.percentages[s] - expected[s]) for s in expected]
    ok = report.total == 7894 and max(errs) <= 0.005
    _report("cohort-statistics", ok,
            f"(percentage errors <= {max(errs):.4f})")


def _oracle_maps(patches, dims):
    """Explicit per-patch indicator construction, per-pixel average."""
    w, h = dims
    stack = np.full((len(patches), h, w), np.nan)
    for i, (c, p) in enumerate(patches):
        stack[i, c.c3:c.c4, c.c1:c.c2] = p
    count = (~np.isnan(stack)).sum(axis=0)
    covered = count > 0
    per_pixel = np.zeros((h, w))
    per_pixel[covered] = np.nansum(stack, axis=0)[covered] / count[covered]
    return per_pixel, covered


def _random_layouts(rng, n_layouts, max_patches=50):
    for _ in range(n_layouts):
        w = int(rng.integers(8, 49))
        h = int(rng.integers(8, 49))
        n = int(rng.integers(1, max_patches + 1))
        patches = []
        for _ in range(n):
            pw = int(rng.integers(1, w + 1))
            ph = int(rng.integers(1, h + 1))
            x = int(rng.integers(0, w - pw + 1))
            y = int(rng.integers(0, h - ph + 1))
            patches.append((PatchCoords(x, x + pw, y, y + ph),
                            float(rng.uniform())))
        yield patches, (w, h)


def test_fusion_oracle_1000_layouts():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for patches, dims in _random_layouts(rng, 1000):
        maps = build_maps(patches, dims)
        got = image_probability(maps)
        per_pixel, covered = _oracle_maps(patches, dims)
        want = float(per_pixel[covered].mean())
        worst = max(worst, abs(got.p - want))
        assert abs(got.p - want) < 1e-9
        probs = [p for _, p in patches]
        assert min(probs) - 1e-12 <= got.p <= max(probs) + 1e-12
        k = int(rng.integers(len(patches)))
        bumped = list(patches)
        c, p = bumped[k]
        bumped[k] = (c, min(1.0, p + float(rng.uniform(0, 0.5))))
        assert image_probability(build_maps(bumped, dims)).p >= got.p - 1e-12
    _report("fusion-oracle", True,
            f"(1000 layouts, worst |error| = {worst:.2e}; bounds and "
            f"monotonicity hold)")


def test_fusion_complement():
    rng = np.random.default_rng(77)
    worst = 0.0
    for patches, dims in _random_layouts(rng, 200):
        p = image_probability(build_maps(patches, dims)).p
        flipped = [(c, 1.0 - q) for c, q in patches]
        q = image_probability(build_maps(flipped, dims)).p
        worst = max(worst, abs(q - (1.0 - p)))
        assert abs(q - (1.0 - p)) <= 1e-12
    _report("fusion-complement", True,
            f"(200 layouts, worst |1-p deviation| = {worst:.2e})")


def test_max_square_geometry():
    sides = {r: max_square_side(r) for r in (100, 144, 288)}
    ok = (sides[100] == 141 and sides[144] == 203 and sides[288] == 407
          and 0.545 <= 224 / 407 <= 0.555
          and abs((1 - 2 / math.pi) - 0.36) < 0.005)
    _report("max-square-geometry", ok,
            f"(sides {sides}, prescale {224 / 407:.4f}, discarded "
            f"{1 - 2 / math.pi:.4f})")


def test_lbp_rotation_invariance_200_patches():
    rng = np.random.default_rng(11)
    stack = rng.integers(0, 65536, size=(200, 80, 80)).astype(np.float64)
    hist = _histogram_rows(_lbp_codes(stack, 1, 8), 10)
    ok = True
    for k in (1, 2, 3):
        rotated = np.rot90(stack, k, axes=(1, 2)).copy()
        hist_rot = _histogram_rows(_lbp_codes(rotated, 1, 8), 10)
        ok = ok and np.array_equal(hist, hist_rot)
    _report("lbp-rotation-invariance", ok,
            "(200 patches x 3 grid rotations, exact equality)")


def test_glcm_properties_200_patches():
    rng = np.random.default_rng(12)
    corr = []
    for _ in range(200):
        patch = rng.integers(0, 65536, size=(80, 80)).astype(np.float64)
        m = glcm(patch)
        assert np.all(m >= 0.0)
        assert abs(m.sum() - 1.0) <= 1e-12
        assert np.array_equal(m, m.T)
        f = dict(zip(HARALICK_NAMES, haralick_features(m)))
        corr.append(f["correlation"])
        assert -1.0 - 1e-12 <= f["correlation"] <= 1.0 + 1e-12

    checker = np.zeros((16, 16))
    checker[0, 15] = checker[15, 0] = 0.5
    f = dict(zip(HARALICK_NAMES, haralick_features(checker)))
    closed = (abs(f["contrast"] - 225.0) < 1e-9
              and abs(f["energy"] - 0.5) < 1e-9
              and abs(f["entropy"] - math.log(2.0)) < 1e-9)
    _report("glcm-properties", closed,
            f"(200 patches symmetric/normalized, correlation in "
            f"[{min(corr):.3f}, {max(corr):.3f}], checkerboard closed "
            f"forms exact)")


def test_auc_correctness_100_score_sets():
    def trapezoid(points):
        return sum((x1 - x0) * (y0 + y1) / 2.0
                   for (x0, y0, _), (x1, y1, _) in zip(points, points[1:]))

    def pair_count(labels, scores):
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        wins = (pos[:, None] > neg[None, :]).sum() \
            + 0.5 * (pos[:, None] == neg[None, :]).sum()
        return wins / (len(pos) * len(neg))

    rng = np.random.default_rng(13)
    done = 0
    worst = 0.0
    while done < 100:
        n = int(rng.integers(4, 200))
        labels = rng.integers(0, 2, n)
        if labels.sum() in (0, n):
            continue
        if done % 2:  # force heavy ties on half the sets
            scores = rng.choice(np.linspace(0, 1, 7), size=n)
        else:
            scores = rng.uniform(size=n)
        sweep = trapezoid(roc_auc(labels, scores)[0])
        mw = roc_auc(labels, scores)[1]
        oracle = pair_count(labels, scores)
        worst = max(worst, abs(sweep - oracle), abs(mw - oracle))
        assert abs(sweep - oracle) < 1e-9
        assert abs(mw - oracle) < 1e-9
        done += 1

    labels = np.array([0, 1, 1, 0, 1])
    tied = roc_auc(labels, np.full(5, 0.3))[1]
    _report("auc-correctness", tied == 0.5,
            f"(100 score sets, worst |error| = {worst:.2e}; all-tied "
            f"input = {tied})")


def test_logistic_gradient_50_draws():
    rng = np.random.default_rng(14)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(5, 40))
        d = int(rng.integers(2, 30))
        X = rng.normal(size=(n, d))
        y = rng.integers(0, 2, n).astype(float)
        w = rng.normal(size=d)
        b = float(rng.normal())
        l2 = float(rng.uniform(0, 0.2))
        _, gw, gb = logistic_loss_grad(w, b, X, y, l2)

        eps = 1e-6
        num_w = np.zeros(d)
        for i in range(d):
            up, dn = w.copy(), w.copy()
            up[i] += eps
            dn[i] -= eps
            num_w[i] = (logistic_loss_grad(up, b, X, y, l2)[0]
                        - logistic_loss_grad(dn, b, X, y, l2)[0]) / (2 * eps)
        num_b = (logistic_loss_grad(w, b + eps, X, y, l2)[0]
                 - logistic_loss_grad(w, b - eps, X, y, l2)[0]) / (2 * eps)
        scale = max(np.max(np.abs(num_w)), abs(num_b), 1e-8)
        rel = max(np.max(np.abs(gw - num_w)), abs(gb - num_b)) / scale
        worst = max(worst, rel)
        assert rel < 1e-5
    _report("logistic-gradient", True,
            f"(50 draws, worst relative error = {worst:.2e})")


# ---------------------------------------------------------------------------
# End-to-end criteria on the default synthetic cohort
# ---------------------------------------------------------------------------

_JOBS = os.cpu_count() or 1
_TIMINGS: dict[str, float] = {}


def _timed(key):
    class _Ctx:
        def __enter__(self):
            self.t0 = time.perf_counter()

        def __exit__(self, *exc):
            _TIMINGS[key] = time.perf_counter() - self.t0

    return _Ctx()


@pytest.fixture(scope="session")
def default_cohort(tmp_path_factory):
    out = tmp_path_factory.mktemp("cohort_default")
    with _timed("generate-default"):
        manifest = generate_dataset(SynthConfig(seed=42), out, jobs=_JOBS)
    assert len(manifest.records) == 720
    return manifest


@pytest.fixture(scope="session")
def hard_cohort(tmp_path_factory):
    out = tmp_path_factory.mktemp("cohort_hard")
    with _timed("generate-hard"):
        manifest = generate_dataset(SynthConfig(seed=42, hard=True), out,
                                    jobs=_JOBS)
    return manifest


@pytest.fixture(scope="session")
def rf_lbp_report(default_cohort):
    with _timed("rf-lbp"):
        return run_cv(default_cohort,
                      RunConfig(method="RF-LBP@0.5x", seed=42, jobs=_JOBS))


@pytest.fixture(scope="session")
def ppf_report(default_cohort):
    with _timed("ppf-default"):
        return run_cv(default_cohort,
                      RunConfig(method="PPF@0.5x", seed=42, jobs=_JOBS))


@pytest.fixture(scope="session")
def ppf_hard_report(hard_cohort):
    with _timed("ppf-hard"):
        return run_cv(hard_cohort,
                      RunConfig(method="PPF@0.5x", seed=42, jobs=_JOBS))


def test_end_to_end_rf_lbp(rf_lbp_report):
    r = rf_lbp_report
    ok = r.accuracy >= 0.90 and r.auc >= 0.95
    _report("end-to-end-rf-lbp", ok,
            f"(accuracy {r.accuracy:.4f} >= 0.90, AUC {r.auc:.4f} >= 0.95)")


def test_end_to_end_fusion_gain(ppf_report):
    r = ppf_report
    ok = r.accuracy >= r.patch_accuracy
    _report("end-to-end-fusion-gain", ok,
            f"(fused {r.accuracy:.4f} >= patch {r.patch_accuracy:.4f}, "
            f"gain {r.accuracy - r.patch_accuracy:+.4f}, AUC {r.auc:.4f})")


def test_end_to_end_hard_fusion_gain(ppf_hard_report):
    r = ppf_hard_report
    gain = r.accuracy - r.patch_accuracy
    ok = gain >= 0.02
    _report("end-to-end-hard-fusion-gain", ok,
            f"(fused {r.accuracy:.4f} vs patch {r.patch_accuracy:.4f}, "
            f"gain {gain:+.4f} >= +0.02)")


def test_leakage_audit(rf_lbp_report, ppf_report):
    violations = 0
    for report in (rf_lbp_report, ppf_report):
        assert len(report.fold_audits) == 12
        for audit in report.fold_audits:
            for key in audit.train_keys:
                violations += key[0] == audit.test_patient
            for key in audit.balancing_removed:
                violations += key[0] == audit.test_patient
            violations += audit.test_patient in audit.train_patients
            violations += audit.n_augmented_in_test
            for key in audit.test_keys:
                violations += key[3] is not None  # rotation => augmented
    _report("leakage-audit", violations == 0,
            f"({violations} tainted records across 24 folds)")


def test_end_to_end_runtime(rf_lbp_report, ppf_report, ppf_hard_report):
    total = sum(_TIMINGS.values())
    # Budget is stated for 8 laptop cores; scale the allowance when this
    # machine has fewer.
    budget = 600.0 * max(1.0, 8.0 / _JOBS)
    detail = ", ".join(f"{k} {v:.0f}s" for k, v in sorted(_TIMINGS.items()))
    _report("end-to-end-runtime", total < budget,
            f"(total {total:.0f}s on {_JOBS} cores, budget {budget:.0f}s; "
            f"{detail})")


def test_determinism_across_jobs(tmp_path):
    data = tmp_path / "ds"
    rc = cli_main(["synth", "--out", str(data), "--patients", "4",
                   "--images-per-patient", "8", "--size", "320",
                   "--seed", "33", "--jobs", str(_JOBS)])
    assert rc == 0
    outputs = []
    for jobs, name in ((1, "a"), (2, "b")):
        out = tmp_path / name
        rc = cli_main(["cv", "--data", str(data), "--method", "RF-LBP@0.5x",
                       "--trees", "80", "--seed", "42", "--jobs", str(jobs),
                       "--out", str(out)])
        assert rc == 0
        outputs.append({f: (out / f).read_bytes()
                        for f in ("results.csv", "roc.csv", "summary.json")})
    identical = outputs[0] == outputs[1]
    _report("determinism-across-jobs", identical,
            "(results.csv, roc.csv, summary.json byte-identical for "
            "--jobs 1 vs 2)")
