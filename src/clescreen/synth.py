"""Deterministic generator of labeled circular-field test images.

Normal frames imitate intact epithelium: a Voronoi tessellation of cell
bodies with bright intercellular borders.  Carcinogenic frames break that
structure: borders are fragmented and dimmed, a diffuse bright glow (the
contrast agent pooling in disorganized tissue) spreads over the view, and
dark cell clusters punch holes in the texture.  Per-patient style
parameters (cell size, brightness, noise) make leave-one-patient-out
evaluation non-trivial; every pixel derives from the master seed plus
(patient, frame), so regenerated datasets are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.ndimage import distance_transform_edt

from .core import (CARCINOGENIC, NORMAL, SITE_ALVEOLAR, SITE_LABIUM,
                   SITE_PALATE, SITE_TUMOR, CleImage, DatasetManifest,
                   ImageRecord, default_mask, save_image, save_manifest)
from .util import rng_from, run_parallel

_NORMAL_SITES = (SITE_ALVEOLAR, SITE_LABIUM, SITE_PALATE)


@dataclass
class SynthConfig:
    n_patients: int = 12
    images_per_patient: int = 60
    image_size: int = 576
    class_mix: float = 0.483
    seed: int = 42
    patient_style_jitter: float = 1.0
    hard: bool = False

    def validate(self) -> None:
        if self.n_patients < 1 or self.images_per_patient < 1:
            raise ValueError("patient and image counts must be >= 1")
        if not 0.0 < self.class_mix < 1.0:
            raise ValueError("class_mix must be in (0, 1)")
        if self.image_size < 160:
            raise ValueError("image_size must be >= 160")


@dataclass
class PatientStyle:
    cell_diam: float
    border_width: float
    border_gain: float
    body_base: float
    noise_sigma: float
    cell_shade: float


def patient_style(config: SynthConfig, patient: str) -> PatientStyle:
    rng = rng_from(config.seed, "patient", patient)
    j = config.patient_style_jitter

    def draw(lo: float, hi: float) -> float:
        mid = 0.5 * (lo + hi)
        return mid + j * (rng.uniform(lo, hi) - mid)

    return PatientStyle(
        cell_diam=draw(20.0, 34.0),
        border_width=draw(2.2, 3.6),
        border_gain=draw(20000.0, 34000.0),
        body_base=draw(9000.0, 15000.0),
        noise_sigma=draw(900.0, 1800.0),
        cell_shade=draw(0.05, 0.12),
    )


def _low_freq_field(rng: np.random.Generator, size: int, cells: int = 7) -> np.ndarray:
    """Smooth random field in [0, 1]: a coarse grid, bilinearly upsampled."""
    grid = rng.uniform(0.0, 1.0, size=(cells, cells))
    pos = np.linspace(0.0, cells - 1.0, size)
    x0 = np.clip(pos.astype(np.int64), 0, cells - 2)
    t = pos - x0
    rows = grid[x0][:, x0] * np.outer(1 - t, 1 - t) \
        + grid[x0][:, x0 + 1] * np.outer(1 - t, t) \
        + grid[x0 + 1][:, x0] * np.outer(t, 1 - t) \
        + grid[x0 + 1][:, x0 + 1] * np.outer(t, t)
    return rows


def _render(size: int, style: PatientStyle, carcinogenic: bool,
            hard: bool, rng: np.random.Generator):
    """One frame plus measurement info for generator self-tests."""
    n_cells = max(24, int((size / style.cell_diam) ** 2 * rng.uniform(0.9, 1.1)))
    pts = rng.uniform(0.0, size, size=(n_cells, 2))
    ix = np.clip(pts[:, 0].astype(np.int64), 0, size - 1)
    iy = np.clip(pts[:, 1].astype(np.int64), 0, size - 1)
    seed_mask = np.zeros((size, size), dtype=bool)
    id_raster = np.zeros((size, size), dtype=np.int64)
    seed_mask[iy, ix] = True
    id_raster[iy, ix] = np.arange(n_cells)

    ny, nx = distance_transform_edt(~seed_mask, return_distances=False,
                                    return_indices=True)
    cell_id = id_raster[ny, nx]
    boundary = np.zeros((size, size), dtype=bool)
    boundary[:-1] |= cell_id[:-1] != cell_id[1:]
    boundary[:, :-1] |= cell_id[:, :-1] != cell_id[:, 1:]
    dist_b = distance_transform_edt(~boundary)
    border_field = np.exp(-((dist_b / style.border_width) ** 2))

    shades = rng.uniform(1.0 - style.cell_shade, 1.0 + style.cell_shade,
                         size=n_cells)
    body = style.body_base * shades[cell_id]

    noise_mult = rng.uniform(0.85, 1.2) * (1.2 if hard else 1.0)
    if carcinogenic:
        if hard:
            gain_mult = rng.uniform(0.55, 0.85)
            keep_frac = rng.uniform(0.45, 0.65)
            dome_amp = rng.uniform(9000.0, 16000.0)
            n_clusters = int(rng.integers(2, 6))
            depth_range = (0.20, 0.45)
        else:
            gain_mult = rng.uniform(0.25, 0.50)
            keep_frac = rng.uniform(0.15, 0.35)
            dome_amp = rng.uniform(16000.0, 26000.0)
            n_clusters = int(rng.integers(3, 9))
            depth_range = (0.35, 0.65)
        field = _low_freq_field(rng, size)
        border_mult = (field <= np.quantile(field, keep_frac)).astype(np.float64)
    else:
        gain_mult = rng.uniform(0.9, 1.1)
        dome_amp = rng.uniform(0.0, 5000.0) if hard else 0.0
        n_clusters = 0
        depth_range = (0.0, 0.0)
        border_mult = np.ones((size, size), dtype=np.float64)

    intensity = body + style.border_gain * gain_mult * border_field * border_mult

    if n_clusters:
        yy, xx = np.ogrid[:size, :size]
        for _ in range(n_clusters):
            cx, cy = rng.uniform(0.2 * size, 0.8 * size, size=2)
            rad = rng.uniform(0.03, 0.09) * size
            depth = rng.uniform(*depth_range)
            d2 = (xx - cx) ** 2 + (yy - cy) ** 2
            intensity *= 1.0 - depth * np.exp(-(d2 / rad ** 2))

    if dome_amp > 0.0:
        dcx = size / 2.0 + rng.uniform(-0.15, 0.15) * size
        dcy = size / 2.0 + rng.uniform(-0.15, 0.15) * size
        dome_r = rng.uniform(0.9, 1.3) * (size / 2.0)
        yy, xx = np.ogrid[:size, :size]
        d2 = (xx - dcx) ** 2 + (yy - dcy) ** 2
        intensity = intensity + dome_amp * np.maximum(0.0, 1.0 - d2 / dome_r ** 2)

    intensity = intensity + rng.normal(0.0, style.noise_sigma * noise_mult,
                                       size=(size, size))

    center, radius = default_mask(size, size)
    yy, xx = np.ogrid[:size, :size]
    inside = (xx - center[0]) ** 2 + (yy - center[1]) ** 2 <= radius ** 2
    pixels = np.clip(intensity, 0.0, 65535.0)
    pixels[~inside] = 0.0
    image = CleImage(pixels=np.floor(pixels + 0.5).astype(np.uint16),
                     mask_center=center, mask_radius=radius)
    info = {
        "border_fraction": float(((border_field * border_mult > 0.5) & inside).sum()
                                 / inside.sum()),
        "dome_amp": float(dome_amp),
        "gain_mult": float(gain_mult),
    }
    return image, info


def render_frame(config: SynthConfig, patient: str, frame: int,
                 carcinogenic: bool):
    """Render one frame of a patient's recording, deterministically."""
    style = patient_style(config, patient)
    rng = rng_from(config.seed, "image", patient, frame)
    return _render(config.image_size, style, carcinogenic, config.hard, rng)


def plan_records(config: SynthConfig) -> list[ImageRecord]:
    """Record layout: per patient, round(images * mix) carcinogenic frames
    followed by normals cycling through the three physiological sites."""
    records = []
    for p in range(config.n_patients):
        patient = f"p{p:02d}"
        n_carc = round(config.images_per_patient * config.class_mix)
        n_carc = min(max(n_carc, 1), config.images_per_patient - 1)
        for frame in range(config.images_per_patient):
            if frame < n_carc:
                label, site = CARCINOGENIC, SITE_TUMOR
                sequence = "s3"
            else:
                site = _NORMAL_SITES[(frame - n_carc) % 3]
                label = NORMAL
                sequence = f"s{(frame - n_carc) % 3}"
            records.append(ImageRecord(
                patient=patient, sequence=sequence, frame=frame,
                label=label, site=site,
                file=f"{patient}/{patient}_{sequence}_f{frame:04d}.pgm"))
    return records


def generate_dataset(config: SynthConfig, out_dir: str | Path,
                     jobs: int = 1) -> DatasetManifest:
    """Write the PGM files and manifest for a full synthetic dataset."""
    config.validate()
    out_dir = Path(out_dir)
    images_dir = out_dir / "images"
    images_dir.mkdir(parents=True, exist_ok=True)
    records = plan_records(config)

    def write(rec: ImageRecord) -> None:
        image, _info = render_frame(config, rec.patient, rec.frame,
                                    rec.label == CARCINOGENIC)
        path = images_dir / rec.file
        path.parent.mkdir(parents=True, exist_ok=True)
        save_image(image, path)

    run_parallel(write, records, jobs)
    manifest = DatasetManifest(records=records, root_path=images_dir)
    save_manifest(manifest, out_dir / "manifest.json", root="images")
    return manifest


def class_margins(config: SynthConfig, n_per_class: int = 10) -> dict:
    """Generator self-test probe: per-class means of the border-pixel
    fraction and in-circle brightness over a small rendered batch."""
    stats: dict[str, dict[str, float]] = {}
    for label_name, carc in ((NORMAL, False), (CARCINOGENIC, True)):
        fracs, means = [], []
        for i in range(n_per_class):
            patient = f"probe{i % max(1, config.n_patients)}"
            style = patient_style(config, patient)
            rng = rng_from(config.seed, "probe", label_name, i)
            image, info = _render(config.image_size, style, carc,
                                  config.hard, rng)
            fracs.append(info["border_fraction"])
            inside = image.inside_mask()
            means.append(float(image.pixels[inside].mean()))
        stats[label_name] = {
            "border_fraction": float(np.mean(fracs)),
            "mean_intensity": float(np.mean(means)),
        }
    return stats
