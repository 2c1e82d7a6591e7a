"""Command-line entry point wiring the pipeline stages together.

Exit codes: 0 success, 2 usage error, 3 invalid configuration (a run
predicted not to fit in memory included) or out of memory, 4 IO failure,
5 insufficient patients for cross-validation,
6 malformed data (manifest, image, or probability file), 7 a worker
process died (for example, killed when the machine ran out of memory).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from concurrent.futures import BrokenExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .core import (LABELS, DatasetManifest, ManifestError, PgmError,
                   dataset_stats, load_manifest, save_image)
from .evaluation import (ConfigError, InsufficientPatients, METHODS,
                         PATCH_CLASSIFIERS, RunConfig, confusion_metrics,
                         describe_records, plan_records, prepare_record_image,
                         results_csv, roc_auc, roc_csv, run_cv, summary_dict)
from .forest import load_forest, save_forest, train_random_forest
from .fusion import fuse
from .util import default_jobs
from . import wholeimage

_EXIT_CONFIG = 3
_EXIT_IO = 4
_EXIT_PATIENTS = 5
_EXIT_DATA = 6
_EXIT_WORKER = 7


def _manifest_path(path: str) -> Path:
    p = Path(path)
    return p / "manifest.json" if p.is_dir() else p


def _load_data(path: str) -> DatasetManifest:
    return load_manifest(_manifest_path(path))


def _load_originals(path: str, command: str) -> DatasetManifest:
    """The manifest at `path` for a command whose output names a record
    by (patient, sequence, frame): a rotated copy shares that key with
    its original, so a manifest listing one is malformed data."""
    manifest = _load_data(path)
    for n, rec in enumerate(manifest.records):
        if rec.is_augmented:
            raise ManifestError(
                f"{_manifest_path(path)}: record {n} ({rec.patient},"
                f"{rec.sequence},{rec.frame}) is a rotated copy "
                f"(rotation_deg {rec.rotation_deg!r}); {command} takes "
                f"original frames only")
    return manifest


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _read_csv(path: str, columns: tuple[str, ...]
              ) -> tuple[list[str], list[list[str]]]:
    """Header and rows of an input CSV.  The header must begin with
    `columns` and every row must have as many fields as the header;
    anything else is malformed data."""
    try:
        lines = Path(path).read_text().splitlines()
    except UnicodeDecodeError as exc:
        raise ManifestError(f"{path}: not UTF-8 text at byte {exc.start}"
                            ) from None
    if not lines:
        raise ManifestError(f"{path}: empty file, expected a header")
    header = lines[0].split(",")
    if header[:len(columns)] != list(columns):
        raise ManifestError(
            f"{path}: header must begin with {','.join(columns)}")
    rows = [line.split(",") for line in lines[1:]]
    for n, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise ManifestError(f"{path}: line {n} has {len(row)} fields, "
                                f"the header has {len(header)}")
    return header, rows


def _field(path: str, line: int, column: str, text: str, kind: type):
    """`text` from `column` of CSV line `line` converted by `kind` (int
    or float); a value that does not convert, and a float that is not
    finite (nan, inf, or beyond the float range), is malformed data."""
    try:
        value = kind(text)
    except ValueError:
        value = None
    if value is None or (kind is float and not math.isfinite(value)):
        what = "finite float" if kind is float else kind.__name__
        raise ManifestError(f"{path}: line {line}: {column} {text!r} is not "
                            f"a valid {what}")
    return value


def _probability(path: str, line: int, column: str, text: str) -> float:
    """`_field` for a probability: a finite float in [0, 1]."""
    value = _field(path, line, column, text, float)
    if not 0.0 <= value <= 1.0:
        raise ManifestError(f"{path}: line {line}: {column} {text!r} is "
                            f"outside [0, 1]")
    return value


def _checked_config(**values) -> RunConfig:
    """A validated RunConfig of a command's options, defaults elsewhere."""
    config = RunConfig(**values)
    config.validate()
    return config


def _label_value(label: str, path: str) -> int:
    """Class index of a label column entry (0 normal, 1 carcinogenic)."""
    if label not in LABELS:
        raise ManifestError(f"{path}: unknown label {label!r}")
    return LABELS.index(label)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    # Imported here so that no other command loads scipy.
    from .synth import SynthConfig, generate_dataset

    _checked_config(jobs=args.jobs)
    config = SynthConfig(**{f.name: getattr(args, f.name)
                            for f in dataclasses.fields(SynthConfig)})
    try:
        config.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    manifest = generate_dataset(config, args.out, jobs=args.jobs)
    print(f"wrote {len(manifest.records)} images under {args.out}")
    return 0


def cmd_stats(args) -> int:
    manifest = _load_data(args.data)
    text = dataset_stats(manifest).to_csv()
    if args.out:
        _write(Path(args.out), text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_preprocess(args) -> int:
    config = _checked_config(
        method=("WHOLEIMAGE@0.55x" if args.mode == "wholeimage"
                else f"PPF@{args.scale:.1f}x"),
        target_size=args.target, jobs=1)
    manifest = _load_originals(args.data, "preprocess")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    records = manifest.records
    if args.mode == "wholeimage":
        sidecar = ["patient,sequence,frame,p_low,p_high,side,origin_x,origin_y"]
        for rec in records:
            img, _rects = prepare_record_image(manifest, rec, config.scale)
            comp, crop, raster = wholeimage.preprocess(img, config.target_size)
            save_image(raster, out / f"{rec.patient}_{rec.sequence}_"
                                      f"f{rec.frame:04d}.pgm")
            sidecar.append(
                f"{rec.patient},{rec.sequence},{rec.frame},{comp.p_low!r},"
                f"{comp.p_high!r},{crop.side},{crop.origin[0]},{crop.origin[1]}")
        _write(out / "preprocess.csv", "\n".join(sidecar) + "\n")
    else:
        lines = ["patient,sequence,frame,patch_index,c1,c2,c3,c4"]
        for rec, (coords, _dims) in zip(
                records, plan_records(manifest, records, config)):
            for j, c in enumerate(coords):
                lines.append(f"{rec.patient},{rec.sequence},{rec.frame},{j},"
                             f"{c.c1},{c.c2},{c.c3},{c.c4}")
        _write(out / "patches.csv", "\n".join(lines) + "\n")
    return 0


def cmd_featurize(args) -> int:
    manifest = _load_data(args.data)
    config = _checked_config(
        method=f"RF-{args.features.upper()}@{args.scale:.1f}x", jobs=args.jobs)
    header = ("patient,sequence,frame,label,rotation_deg,"
              + ",".join(config.descriptor.row_names()))
    records = manifest.records
    rows, _owner = describe_records(manifest, records, config,
                                    plan_records(manifest, records, config))
    lines = [header]
    for rec, row in zip(records, rows):
        values = ",".join(repr(float(v)) for v in row)
        lines.append(f"{rec.patient},{rec.sequence},{rec.frame},{rec.label},"
                     f"{float(rec.rotation_deg or 0.0)!r},{values}")
    _write(Path(args.out), "\n".join(lines) + "\n")
    return 0


def _read_feature_csv(path: str):
    """Key columns, feature rows and labels of a feature CSV.  The key is
    (patient, sequence, frame, label), and also `rotation_deg` where the
    header has it after `label`, as `featurize` writes it; older CSVs
    without it still load."""
    header, rows = _read_csv(path, ("patient", "sequence", "frame", "label"))
    if not rows:
        raise ManifestError(f"{path}: no feature rows")
    keys = 5 if header[4:5] == ["rotation_deg"] else 4
    meta = [(r[0], r[1], _field(path, n, "frame", r[2], int), r[3],
             *(_field(path, n, "rotation_deg", v, float) for v in r[4:keys]))
            for n, r in enumerate(rows, start=2)]
    X = np.asarray([[_field(path, n, name, v, float)
                     for name, v in zip(header[keys:], r[keys:])]
                    for n, r in enumerate(rows, start=2)], dtype=np.float64)
    y = np.array([_label_value(m[3], path) for m in meta], dtype=np.int64)
    return header[:keys], meta, X, y


def cmd_train(args) -> int:
    _checked_config(trees=args.trees, seed=args.seed, jobs=args.jobs)
    _keys, _meta, X, y = _read_feature_csv(args.features)
    try:
        model = train_random_forest(X, y, trees=args.trees, seed=args.seed,
                                    jobs=args.jobs)
    except ValueError as exc:  # too few rows of a class
        raise ManifestError(f"{args.features}: {exc}") from None
    save_forest(model, args.out)
    print(f"saved {model.n_trees}-tree model ({model.n_features} features) "
          f"to {args.out}")
    return 0


def cmd_predict(args) -> int:
    keys, meta, X, _y = _read_feature_csv(args.features)
    try:
        model = load_forest(args.model)
    except ValueError as exc:  # a malformed model file
        raise ManifestError(f"{args.model}: {exc}") from None
    if X.shape[1] != model.n_features:
        raise ManifestError(f"{args.features}: rows have {X.shape[1]} "
                            f"features, {args.model} expects "
                            f"{model.n_features}")
    probs = model.predict_proba(X)[:, 1]
    lines = [",".join(keys) + ",p_image"]
    for key, p in zip(meta, probs):
        lines.append(",".join(map(str, key)) + f",{float(p)!r}")
    _write(Path(args.out), "\n".join(lines) + "\n")
    return 0


def cmd_fuse(args) -> int:
    config = _checked_config(method=f"PPF@{args.scale:.1f}x", jobs=1)
    manifest = _load_originals(args.data, "fuse")
    probs: dict[tuple, dict[int, float]] = {}
    known = {(rec.patient, rec.sequence, rec.frame)
             for rec in manifest.records}
    _header, rows = _read_csv(
        args.probs, ("patient", "sequence", "frame", "patch_index", "p_c1"))
    for n, row in enumerate(rows, start=2):
        patient, sequence, frame, idx, p = row[:5]
        key = (patient, sequence, _field(args.probs, n, "frame", frame, int))
        if key not in known:
            raise ManifestError(
                f"{args.probs}: line {n}: no manifest record for "
                f"{','.join(map(str, key))}")
        patches = probs.setdefault(key, {})
        idx = _field(args.probs, n, "patch_index", idx, int)
        if idx in patches:
            raise ManifestError(
                f"{args.probs}: duplicate row for {patient},{sequence},"
                f"{frame} patch_index {idx}")
        patches[idx] = _probability(args.probs, n, "p_c1", p)

    records = [rec for rec in manifest.records
               if (rec.patient, rec.sequence, rec.frame) in probs]
    if not records:
        raise ManifestError(f"{args.probs}: no probability rows")
    out_lines = ["patient,sequence,frame,label,p_image"]
    for rec, (coords, dims) in zip(records,
                                   plan_records(manifest, records, config)):
        key = (rec.patient, rec.sequence, rec.frame)
        pairs = []
        for idx, p in sorted(probs[key].items()):
            if not 0 <= idx < len(coords):
                raise ManifestError(
                    f"{args.probs}: patch_index {idx} out of range for "
                    f"{key} ({len(coords)} admitted patches)")
            pairs.append((coords[idx], p))
        fused = fuse(pairs, dims)
        out_lines.append(f"{rec.patient},{rec.sequence},{rec.frame},"
                         f"{rec.label},{fused.p!r}")
    _write(Path(args.out), "\n".join(out_lines) + "\n")
    return 0


def _build_run_config(args) -> RunConfig:
    values = dataclasses.asdict(RunConfig())
    if args.config:
        try:
            doc = json.loads(Path(args.config).read_text())
        except ValueError as exc:  # not UTF-8, or not JSON
            raise ConfigError(f"{args.config}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"{args.config}: expected a JSON object")
        if "config" in doc and isinstance(doc["config"], dict):
            doc = doc["config"]  # accept a summary.json verbatim
        # Earlier versions needed this flag to run the whole-image
        # baseline and wrote it into every summary; the method alone
        # selects the baseline now.
        doc.pop("wholeimage_baseline", None)
        unknown = set(doc) - set(values)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        values.update(doc)
    for name in values:
        flag = getattr(args, name)
        if flag is not None:
            values[name] = flag
    return _checked_config(**values)


def cmd_cv(args) -> int:
    config = _build_run_config(args)
    manifest = _load_data(args.data)
    report = run_cv(manifest, config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write(out / "results.csv", results_csv(report))
    _write(out / "roc.csv", roc_csv(report))
    _write(out / "summary.json",
           json.dumps(summary_dict(report), indent=1, sort_keys=True) + "\n")
    print(f"{report.method}: accuracy={report.accuracy:.4f} "
          f"sensitivity={report.sensitivity:.4f} "
          f"specificity={report.specificity:.4f} auc={report.auc:.4f}")
    return 0


def cmd_report(args) -> int:
    _checked_config(threshold=args.threshold)
    header, rows = _read_csv(args.results, ())
    if "label" not in header or "p_image" not in header:
        raise ManifestError(f"{args.results}: missing label/p_image columns")
    if not rows:
        raise ManifestError(f"{args.results}: no result rows")
    li, pi = header.index("label"), header.index("p_image")
    labels = np.array([_label_value(r[li], args.results) for r in rows])
    probs = np.array([_probability(args.results, n, "p_image", r[pi])
                      for n, r in enumerate(rows, start=2)])
    if labels.min() == labels.max():
        raise ManifestError(f"{args.results}: all {len(labels)} rows are "
                            f"{LABELS[labels[0]]}; ROC needs both classes")
    acc, sens, spec = confusion_metrics(labels, probs, args.threshold)
    _roc, auc = roc_auc(labels, probs)
    doc = {"accuracy": acc, "sensitivity": sens, "specificity": spec,
           "auc": auc, "n_images": int(len(labels)),
           "threshold": args.threshold}
    text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    if args.out:
        _write(Path(args.out), text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


_FLAG_TYPES = {"int": int, "float": float, "str": str}
_CHOICES = {"method": METHODS, "patch_classifier": PATCH_CLASSIFIERS}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clescreen",
        description="Patch-based screening pipeline for circular-field "
                    "endomicroscopy images.",
        epilog="exit codes: 0 ok, 2 usage, 3 invalid config or out of "
               "memory, 4 IO failure, 5 insufficient patients, 6 malformed "
               "data, 7 worker died.  preprocess and fuse name each output "
               "row or file by (patient, sequence, frame), so they take "
               "original frames only: a manifest listing a rotated copy "
               "(augmented_from, rotation_deg) is malformed data (6).",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labeled dataset")
    p.add_argument("--out", required=True)
    # One flag per SynthConfig field, `dest` the field's name.
    p.add_argument("--patients", dest="n_patients", type=int, default=12)
    p.add_argument("--images-per-patient", type=int, default=60)
    p.add_argument("--size", dest="image_size", type=int, default=576)
    p.add_argument("--mix", dest="class_mix", type=float, default=0.483)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--style-jitter", dest="patient_style_jitter", type=float,
                   default=1.0)
    p.add_argument("--hard", action="store_true",
                   help="shrink the class margin")
    p.add_argument("--jobs", type=int, default=default_jobs())
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("stats", help="dataset statistics CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("preprocess", help="emit preprocessed rasters")
    p.add_argument("--data", required=True)
    p.add_argument("--mode", choices=("wholeimage", "patches"),
                   default="wholeimage")
    p.add_argument("--scale", type=float, choices=(1.0, 0.5), default=0.5)
    p.add_argument("--target", type=int, default=wholeimage.TARGET_SIZE)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("featurize", help="texture feature CSV per image")
    p.add_argument("--data", required=True)
    p.add_argument("--features", choices=("lbp", "glcm"), default="lbp")
    p.add_argument("--scale", type=float, choices=(1.0, 0.5), default=0.5)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=default_jobs())
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("train", help="fit a random forest on a feature CSV")
    p.add_argument("--features", required=True)
    p.add_argument("--trees", type=int, default=RunConfig.trees)
    p.add_argument("--seed", type=int, default=RunConfig.seed)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=default_jobs())
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="score a feature CSV with a model")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("fuse", help="fuse externally computed patch "
                                    "probabilities into image scores")
    p.add_argument("--data", required=True)
    p.add_argument("--probs", required=True,
                   help="CSV patient,sequence,frame,patch_index,p_c1")
    p.add_argument("--scale", type=float, choices=(1.0, 0.5), default=0.5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("cv", help="leave-one-patient-out cross-validation")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="JSON config (or a previous summary.json); "
                                    "explicit flags win")
    # One flag per RunConfig field.  Its default is None, so a --config
    # value applies unless the flag is given.
    for f in dataclasses.fields(RunConfig):
        p.add_argument(f"--{f.name.replace('_', '-')}", dest=f.name,
                       type=_FLAG_TYPES[f.type], choices=_CHOICES.get(f.name))
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("report", help="recompute metrics from a results CSV")
    p.add_argument("--results", required=True)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)

    return parser


def _fail(message: str, code: int) -> int:
    """Print `message` as one stderr line and return exit `code`.  Line
    breaks and other unprintable characters (say, in a file name from a
    manifest) are escaped."""
    line = "".join(c if c.isprintable() else repr(c)[1:-1] for c in message)
    print(f"clescreen: {line}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        return _fail(f"invalid configuration: {exc}", _EXIT_CONFIG)
    except InsufficientPatients as exc:
        return _fail(str(exc), _EXIT_PATIENTS)
    except (ManifestError, PgmError) as exc:
        return _fail(f"bad data: {exc}", _EXIT_DATA)
    except OSError as exc:
        return _fail(f"IO error: {exc}", _EXIT_IO)
    except ValueError as exc:
        return _fail(str(exc), _EXIT_DATA)
    except MemoryError as exc:
        return _fail(f"out of memory: {str(exc) or 'allocation failed'}; try "
                     f"a smaller input or fewer --jobs", _EXIT_CONFIG)
    except BrokenExecutor:
        return _fail("a worker process died, most likely killed (for "
                     "example by running out of memory); try fewer --jobs",
                     _EXIT_WORKER)


if __name__ == "__main__":
    sys.exit(main())
