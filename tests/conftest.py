import numpy as np
import pytest

from clescreen.core import (CARCINOGENIC, NORMAL, SITE_ALVEOLAR, SITE_LABIUM,
                            SITE_PALATE, SITE_TUMOR, CleImage, DatasetManifest,
                            ImageRecord, default_mask, save_image)

NORMAL_SITES = (SITE_ALVEOLAR, SITE_LABIUM, SITE_PALATE)


def make_record(patient="p0", sequence="s0", frame=0, label=NORMAL,
                site=None, file=None, **kw):
    if site is None:
        site = SITE_TUMOR if label == CARCINOGENIC else SITE_ALVEOLAR
    if file is None:
        file = f"{patient}_{sequence}_{frame}.pgm"
    return ImageRecord(patient=patient, sequence=sequence, frame=frame,
                       label=label, site=site, file=file, **kw)


def fit_options(method, trees, epochs, patch_classifier="logistic"):
    """The classifier option a run of `method` reads, as RunConfig
    keywords: `trees` for a forest (RF-*, or PPF with the forest patch
    classifier), `epochs` for a logistic fit."""
    if method.startswith("RF-") or patch_classifier == "forest":
        return {"trees": trees}
    return {"epochs": epochs}


def make_image(size=160, fill=1000, rng=None):
    if rng is not None:
        pixels = rng.integers(0, 65536, size=(size, size)).astype(np.uint16)
    else:
        pixels = np.full((size, size), fill, dtype=np.uint16)
    center, radius = default_mask(size, size)
    return CleImage(pixels=pixels, mask_center=center, mask_radius=radius)


@pytest.fixture
def disk_dataset(tmp_path):
    """Tiny on-disk dataset: 3 patients x 4 frames of flat images."""
    images = tmp_path / "images"
    images.mkdir()
    records = []
    rng = np.random.default_rng(7)
    for p in range(3):
        for f in range(4):
            label = CARCINOGENIC if f % 2 else NORMAL
            rec = make_record(patient=f"p{p}", sequence="s0", frame=f,
                              label=label)
            save_image(make_image(size=176, rng=rng), images / rec.file)
            records.append(rec)
    return DatasetManifest(records=records, root_path=images)
