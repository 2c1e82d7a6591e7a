"""Domain types, image and manifest IO, and dataset statistics.

Images are circular-field 16-bit grayscale frames stored as binary
portable graymaps (PGM "P5").  A dataset is described by a JSON manifest
listing one record per frame with patient/sequence provenance, class
label, anatomical site, artifact rectangles, and (for rotated copies)
augmentation lineage.
"""

from __future__ import annotations

import contextlib
import json
import mmap
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

NORMAL = "normal"
CARCINOGENIC = "carcinogenic"
LABELS = (NORMAL, CARCINOGENIC)

SITE_ALVEOLAR = "alveolar_ridge"
SITE_LABIUM = "inner_labium"
SITE_PALATE = "hard_palate"
SITE_TUMOR = "tumor_region"
SITES = (SITE_ALVEOLAR, SITE_LABIUM, SITE_PALATE, SITE_TUMOR)


class PgmError(ValueError):
    """Malformed or unsupported portable graymap."""


class ManifestError(ValueError):
    """Invalid dataset manifest."""


@dataclass
class CleImage:
    """16-bit grayscale raster with a circular field-of-view mask.

    `pixels` is a (height, width) uint16 array.  The mask circle is given
    by a sub-pixel `mask_center` (x, y) and `mask_radius` in pixels; the
    circle must fit inside the raster up to 1 px slack (the acquisition
    hardware produces 576, 578, or 580 px frames whose calibrated circle
    can touch the border).
    """

    pixels: np.ndarray
    mask_center: tuple[float, float]
    mask_radius: float

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    def __post_init__(self) -> None:
        if self.pixels.ndim != 2:
            raise ValueError("pixels must be a 2-D raster")
        if self.pixels.dtype != np.uint16:
            raise ValueError(f"pixels must be uint16, got {self.pixels.dtype}")
        check_mask(self.width, self.height, self.mask_center, self.mask_radius)

    def inside_mask(self, strict: bool = False) -> np.ndarray:
        """Boolean raster of pixels whose integer coordinate lies in the circle."""
        cx, cy = self.mask_center
        yy, xx = np.ogrid[: self.height, : self.width]
        d2 = (xx - cx) ** 2 + (yy - cy) ** 2
        r2 = self.mask_radius ** 2
        return d2 < r2 if strict else d2 <= r2


def check_mask(width: int, height: int, center: tuple[float, float],
               radius: float) -> None:
    """Raise ValueError unless the mask circle has a positive radius and
    fits a `width` x `height` raster up to 1 px slack."""
    if radius <= 0:
        raise ValueError("mask_radius must be positive")
    cx, cy = center
    slack = 1.0
    if (cx - radius < -slack or cx + radius > width + slack
            or cy - radius < -slack or cy + radius > height + slack):
        raise ValueError(
            f"mask circle (center=({cx}, {cy}), r={radius}) does not fit a "
            f"{width}x{height} raster")


def default_mask(width: int, height: int) -> tuple[tuple[float, float], float]:
    """Inscribed circle: center at the raster middle, radius min(w, h)/2."""
    return (width / 2.0, height / 2.0), min(width, height) / 2.0


@dataclass(frozen=True)
class ArtifactRect:
    """Half-open axis-aligned artifact annotation [x0, x1) x [y0, y1)."""

    x0: int
    y0: int
    x1: int
    y1: int

    def __post_init__(self) -> None:
        if not (self.x0 < self.x1 and self.y0 < self.y1):
            raise ValueError(f"degenerate artifact rect {self}")
        # Far beyond any raster; rotating such a corner overflows a float.
        if max(map(abs, (self.x0, self.y0, self.x1, self.y1))) >= 1 << 31:
            raise ValueError(f"artifact rect {self} beyond 2**31 pixels")


@dataclass
class ImageRecord:
    """One frame of a recording, or a rotated copy of one.

    Rotated copies carry `augmented_from` (the source frame index) and
    `rotation_deg`; originals carry neither.  Identity within a manifest is
    the tuple (patient, sequence, frame, rotation_deg).
    """

    patient: str
    sequence: str
    frame: int
    label: str
    site: str
    file: str
    artifacts: list[ArtifactRect] = field(default_factory=list)
    augmented_from: int | None = None
    rotation_deg: float | None = None
    label_override: bool = False

    @property
    def is_augmented(self) -> bool:
        return self.rotation_deg is not None

    def key(self) -> tuple[str, str, int, float | None]:
        return (self.patient, self.sequence, self.frame, self.rotation_deg)


@dataclass
class DatasetManifest:
    records: list[ImageRecord]
    root_path: Path

    def image_path(self, record: ImageRecord) -> Path:
        return self.root_path / record.file

    def patients(self) -> list[str]:
        return sorted({r.patient for r in self.records})

    def originals(self) -> list[ImageRecord]:
        return [r for r in self.records if not r.is_augmented]


# ---------------------------------------------------------------------------
# PGM IO
# ---------------------------------------------------------------------------

_WHITESPACE = b" \t\r\n\x0b\x0c"


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    """Next header token after `pos`, skipping whitespace and # comments."""
    n = len(data)
    while pos < n:
        c = data[pos : pos + 1]
        if c in b"#":
            while pos < n and data[pos : pos + 1] != b"\n":
                pos += 1
        elif c in _WHITESPACE:
            pos += 1
        else:
            break
    if pos >= n:
        raise PgmError(f"unexpected end of header at byte {pos}")
    start = pos
    while pos < n and data[pos : pos + 1] not in _WHITESPACE:
        pos += 1
    return data[start:pos], pos


def _int_token(data: bytes, pos: int, what: str) -> tuple[int, int]:
    tok, end = _next_token(data, pos)
    try:
        return int(tok), end
    except ValueError:
        raise PgmError(
            f"expected integer {what} at byte {end - len(tok)}, got {tok!r}"
        ) from None


def _parse_header(data) -> tuple[int, int, int, int]:
    """(width, height, bytes per sample, payload offset) of the P5 graymap
    `data` (bytes, or a read-only mapping of the file), checking that the
    payload the header announces is all there."""
    magic, pos = _next_token(data, 0)
    if magic != b"P5":
        raise PgmError(f"not a binary graymap: magic {magic!r} at byte 0")
    width, pos = _int_token(data, pos, "width")
    height, pos = _int_token(data, pos, "height")
    maxval, pos = _int_token(data, pos, "maxval")
    if width <= 0 or height <= 0:
        raise PgmError(f"bad dimensions {width}x{height}")
    if maxval not in (255, 65535):
        raise PgmError(f"unsupported maxval {maxval} at byte {pos}")
    if pos >= len(data) or data[pos : pos + 1] not in _WHITESPACE:
        raise PgmError(f"missing whitespace after maxval at byte {pos}")
    pos += 1
    bytes_per = 2 if maxval == 65535 else 1
    need = width * height * bytes_per
    have = min(need, len(data) - pos)
    if have != need:
        raise PgmError(f"truncated payload at byte {pos + have}: "
                       f"need {need} bytes, have {have}")
    return width, height, bytes_per, pos


def _sidecar_mask(path: Path, width: int, height: int) -> tuple:
    """The mask of the graymap at `path`: its sidecar's, else the
    inscribed circle."""
    sidecar = path.with_suffix(".mask.json")
    if not sidecar.exists():
        return default_mask(width, height)
    try:
        meta = json.loads(sidecar.read_text())
        (cx, cy), radius = meta["center"], meta["radius"]
    except (ValueError, KeyError, TypeError):
        cx = cy = radius = None
    # Rejects NaN, infinities and integers beyond the float range.
    if not all(type(v) in (int, float) and abs(v) <= sys.float_info.max
               for v in (cx, cy, radius)):
        raise PgmError(f"{sidecar}: mask sidecar needs finite numeric "
                       f"\"center\": [x, y] and \"radius\"")
    return (cx, cy), float(radius)


def read_geometry(path: str | Path) -> tuple[int, int, tuple]:
    """(width, height, mask) of the graymap at `path` as `load_image`
    reads them, from its header and mask sidecar; the payload is never
    decoded, but its length is checked against the file's."""
    path = Path(path)
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size  # mmap refuses an empty file
        with (mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) if size
              else contextlib.nullcontext(b"")) as data:
            width, height, _bytes_per, _pos = _parse_header(data)
    mask = _sidecar_mask(path, width, height)
    check_mask(width, height, *mask)
    return width, height, mask


def load_image(path: str | Path) -> CleImage:
    """Read a binary P5 graymap as a 16-bit circular-field image.

    Accepts maxval 65535 (two big-endian bytes per sample) or maxval 255;
    8-bit samples are widened by x257 so full scale maps to 65535.  The
    mask defaults to the inscribed circle unless a sidecar
    `<stem>.mask.json` with {"center": [x, y], "radius": r} sits next to
    the file.
    """
    path = Path(path)
    data = path.read_bytes()
    width, height, bytes_per, pos = _parse_header(data)
    payload = data[pos : pos + width * height * bytes_per]
    if bytes_per == 2:
        pixels = np.frombuffer(payload, dtype=">u2").astype(np.uint16)
    else:
        pixels = np.frombuffer(payload, dtype=np.uint8).astype(np.uint16) * 257
    center, radius = _sidecar_mask(path, width, height)
    return CleImage(pixels=pixels.reshape(height, width),
                    mask_center=center, mask_radius=radius)


def save_image(image: CleImage | np.ndarray, path: str | Path) -> None:
    """Write a CleImage, or a 2-D uint8 or uint16 raster, as canonical P5
    with the maxval of its dtype: 255, or 65535 with big-endian samples.
    Every graymap the program writes goes through here."""
    pixels = image.pixels if isinstance(image, CleImage) else image
    maxval = {np.uint8: 255, np.uint16: 65535}.get(pixels.dtype.type)
    if maxval is None:
        raise ValueError(f"cannot write {pixels.dtype} samples as a graymap")
    h, w = pixels.shape
    Path(path).write_bytes(f"P5\n{w} {h}\n{maxval}\n".encode("ascii")
                           + pixels.astype(pixels.dtype.newbyteorder(">"))
                           .tobytes())


# ---------------------------------------------------------------------------
# Manifest IO
# ---------------------------------------------------------------------------


def _record_from_json(obj: dict, index: int) -> ImageRecord:
    if not isinstance(obj, dict):
        raise ManifestError(f"record {index}: expected an object")
    for name in ("patient", "sequence"):
        if name in obj and not isinstance(obj[name], str):
            raise ManifestError(f"record {index}: {name} must be a string, "
                                f"got {json.dumps(obj[name])}")
    try:
        rects = [ArtifactRect(*map(int, r)) for r in obj.get("artifacts", [])]
        rec = ImageRecord(
            patient=obj["patient"],
            sequence=obj["sequence"],
            frame=int(obj["frame"]),
            label=str(obj["label"]),
            site=str(obj["site"]),
            file=str(obj["file"]),
            artifacts=rects,
            augmented_from=(int(obj["augmented_from"])
                            if "augmented_from" in obj else None),
            rotation_deg=(float(obj["rotation_deg"])
                          if "rotation_deg" in obj else None),
            label_override=bool(obj.get("label_override", False)),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ManifestError(f"record {index}: {exc}") from exc
    return rec


def _record_to_json(rec: ImageRecord) -> dict:
    obj: dict = {
        "patient": rec.patient,
        "sequence": rec.sequence,
        "frame": rec.frame,
        "label": rec.label,
        "site": rec.site,
        "file": rec.file,
        "artifacts": [[r.x0, r.y0, r.x1, r.y1] for r in rec.artifacts],
    }
    if rec.augmented_from is not None:
        obj["augmented_from"] = rec.augmented_from
    if rec.rotation_deg is not None:
        obj["rotation_deg"] = rec.rotation_deg
    if rec.label_override:
        obj["label_override"] = True
    return obj


def validate_manifest(manifest: DatasetManifest) -> None:
    """Raise `ManifestError` naming the first bad record.  Patient and
    sequence ids must be safe as CSV fields and parts of file names."""
    records = manifest.records
    if not records:
        raise ManifestError("empty manifest")
    seen: dict[tuple, int] = {}
    for i, rec in enumerate(records):
        for name in ("patient", "sequence"):
            value = getattr(rec, name)
            if value in ("", ".", "..") or not all(
                    c.isprintable() and c not in ",/\\" for c in value):
                raise ManifestError(
                    f"record {i}: {name} {value!r} is not a valid id (it "
                    f"must be non-empty, not . or .., and hold no ',', '/', "
                    f"'\\' or unprintable character)")
        if rec.label not in LABELS:
            raise ManifestError(f"record {i}: unknown label {rec.label!r}")
        if rec.site not in SITES:
            raise ManifestError(f"record {i}: unknown site {rec.site!r}")
        key = rec.key()
        if key in seen:
            raise ManifestError(
                f"record {i}: duplicate key {key} (first at record {seen[key]})")
        seen[key] = i
        if (rec.augmented_from is None) != (rec.rotation_deg is None):
            raise ManifestError(
                f"record {i}: augmented records need both augmented_from "
                f"and rotation_deg, originals neither")
        if not rec.label_override:
            tumor = rec.site == SITE_TUMOR
            carcin = rec.label == CARCINOGENIC
            if tumor != carcin:
                raise ManifestError(
                    f"record {i}: label {rec.label!r} contradicts site "
                    f"{rec.site!r}")
        path = manifest.image_path(rec)
        try:
            present = path.is_file()
        except OSError as exc:  # say, a name beyond the OS limit
            raise ManifestError(
                f"record {i}: cannot check image file {path}: "
                f"{exc.strerror or exc}") from None
        if not present:
            raise ManifestError(f"record {i}: missing image file {path}")


def load_manifest(path: str | Path) -> DatasetManifest:
    """Read and validate a manifest.  A malformed one raises
    `ManifestError` naming `path`."""
    path = Path(path)
    try:
        return _read_manifest(path)
    except ManifestError as exc:
        raise ManifestError(f"{path}: {exc}") from None


def _read_manifest(path: Path) -> DatasetManifest:
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ManifestError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("records"), list):
        raise ManifestError("manifest must be an object with a 'records' list")
    root = doc.get("root", ".")
    if not isinstance(root, str):
        raise ManifestError("manifest 'root' must be a path string")
    root = Path(root)
    if not root.is_absolute():
        root = path.parent / root
    records = [_record_from_json(o, i) for i, o in enumerate(doc["records"])]
    manifest = DatasetManifest(records=records, root_path=root)
    validate_manifest(manifest)
    return manifest


def save_manifest(manifest: DatasetManifest, path: str | Path,
                  root: str | None = None) -> None:
    path = Path(path)
    doc = {
        "root": root if root is not None else str(manifest.root_path),
        "records": [_record_to_json(r) for r in manifest.records],
    }
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Dataset statistics
# ---------------------------------------------------------------------------


@dataclass
class StatsReport:
    """Per-site counts over original (non-augmented) records."""

    site_counts: dict[str, int]
    class_counts: dict[str, int]
    total: int
    percentages: dict[str, float]
    patient_mean: float
    patient_std: float

    def to_csv(self) -> str:
        lines = ["site,count,percent"]
        for site in SITES:
            if site in self.site_counts:
                lines.append(
                    f"{site},{self.site_counts[site]},"
                    f"{self.percentages[site]:.2f}")
        lines.append(
            f"#patients mean={self.patient_mean:.4f} std={self.patient_std:.4f}")
        return "\n".join(lines) + "\n"


def dataset_stats(manifest: DatasetManifest) -> StatsReport:
    """Site/class counts, percentages of total, and per-patient image
    count mean and population standard deviation.  Augmented records are
    excluded; they describe no additional acquisitions.
    """
    originals = manifest.originals()
    if not originals:
        raise ManifestError("empty manifest")
    site_counts: dict[str, int] = {}
    class_counts: dict[str, int] = {}
    per_patient: dict[str, int] = {}
    for rec in originals:
        site_counts[rec.site] = site_counts.get(rec.site, 0) + 1
        class_counts[rec.label] = class_counts.get(rec.label, 0) + 1
        per_patient[rec.patient] = per_patient.get(rec.patient, 0) + 1
    total = len(originals)
    percentages = {s: 100.0 * c / total for s, c in site_counts.items()}
    counts = np.array(sorted(per_patient.values()), dtype=float)
    return StatsReport(
        site_counts=dict(sorted(site_counts.items())),
        class_counts=dict(sorted(class_counts.items())),
        total=total,
        percentages=percentages,
        patient_mean=float(counts.mean()),
        patient_std=float(counts.std()),  # population std
    )
