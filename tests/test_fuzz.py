"""Malformed inputs end in a documented exit code.

Hypothesis corrupts one file of a tiny valid cohort (a frame's PGM file,
its `<stem>.mask.json` sidecar, or `manifest.json`) and runs `cv` and
`stats` on it, hands `cv` a malformed `--config` file, or hands `train`
and `predict` a malformed feature CSV, `predict` a malformed CLEF model,
`fuse` a malformed probability CSV and `report` a malformed results CSV.
Each run must exit 0, 3, 4, 5 or 6, print exactly one line to stderr
when it fails and nothing when it succeeds, and never raise.
"""

import contextlib
import dataclasses
import io
import json
import shutil
import struct
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from clescreen.cli import main
from clescreen.core import (CARCINOGENIC, NORMAL, DatasetManifest,
                            save_image, save_manifest)
from clescreen.evaluation import METHODS, RunConfig
from conftest import make_image, make_record

SIZE = 176
DOCUMENTED = {0, 3, 4, 5, 6}


@pytest.fixture(scope="module")
def cohort(tmp_path_factory):
    """2 patients x 2 frames of 176 px noise, enough for a 2-tree RF-GLCM
    cross-validation at full scale."""
    root = tmp_path_factory.mktemp("fuzz_cohort")
    rng = np.random.default_rng(5)
    records = [make_record(patient=f"p{p}", frame=f,
                           label=CARCINOGENIC if f else NORMAL)
               for p in range(2) for f in range(2)]
    for rec in records:
        save_image(make_image(size=SIZE, rng=rng), root / rec.file)
    save_manifest(DatasetManifest(records=records, root_path=root),
                  root / "manifest.json", root=".")
    # The valid files the table and model commands read: a feature CSV,
    # a model trained on it, one probability per admitted full-scale
    # patch, and the results CSV of a cross-validation.
    features = str(root / "features.csv")
    assert main(["featurize", "--data", str(root), "--features", "glcm",
                 "--scale", "1.0", "--out", features, "--jobs", "1"]) == 0
    assert main(["train", "--features", features, "--trees", "2",
                 "--out", str(root / "model.clef"), "--jobs", "1"]) == 0
    patches = tmp_path_factory.mktemp("fuzz_patches")
    assert main(["preprocess", "--data", str(root), "--mode", "patches",
                 "--scale", "1.0", "--out", str(patches)]) == 0
    lines = (patches / "patches.csv").read_text().splitlines()
    (root / "probs.csv").write_text("\n".join(
        ["patient,sequence,frame,patch_index,p_c1"]
        + [f"{','.join(line.split(',')[:4])},{(n % 7) / 6!r}"
           for n, line in enumerate(lines[1:])]) + "\n")
    cv_out = tmp_path_factory.mktemp("fuzz_cv")
    assert main(["cv", "--data", str(root), "--method", "RF-GLCM@1.0x",
                 "--trees", "2", "--out", str(cv_out), "--jobs", "1"]) == 0
    shutil.copy(cv_out / "results.csv", root / "results.csv")
    return root, records[0].file


def run_cli(cohort, name: str, content: bytes,
            commands=("cv", "stats")):
    """Exit code, stderr lines and warnings of each of `commands` (`cv`,
    `stats`, `cv --config <name>` or a table or model command reading
    `name`) on a copy of the cohort whose file `name` holds `content`."""
    root, _frame = cohort
    outcomes = []
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "data"
        shutil.copytree(root, data)
        (data / name).write_bytes(content)
        cv_out = str(Path(tmp) / "cv")
        for command in commands:
            args = {"cv": ["cv", "--data", str(data), "--method",
                           "RF-GLCM@1.0x", "--trees", "2", "--out", cv_out,
                           "--jobs", "1"],
                    "stats": ["stats", "--data", str(data),
                              "--out", str(Path(tmp) / "stats.csv")],
                    "cv --config": ["cv", "--data", str(data), "--config",
                                    str(data / name), "--out", cv_out],
                    "train": ["train", "--features", str(data / name),
                              "--trees", "2", "--jobs", "1",
                              "--out", str(Path(tmp) / "model.clef")],
                    "predict": ["predict", "--model",
                                str(data / "model.clef"), "--features",
                                str(data / name),
                                "--out", str(Path(tmp) / "pred.csv")],
                    "predict --model": ["predict", "--model",
                                        str(data / name), "--features",
                                        str(data / "features.csv"), "--out",
                                        str(Path(tmp) / "pred.csv")],
                    "fuse": ["fuse", "--data", str(data), "--probs",
                             str(data / name), "--scale", "1.0",
                             "--out", str(Path(tmp) / "fused.csv")],
                    "report": ["report", "--results", str(data / name),
                               "--out", str(Path(tmp) / "report.json")],
                    }[command]
            err = io.StringIO()
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()), \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                rc = main(args)
            outcomes.append((rc, err.getvalue().splitlines(),
                             [str(w.message) for w in caught]))
    return outcomes


def check(outcomes) -> None:
    for rc, lines, caught in outcomes:
        assert rc in DOCUMENTED, (rc, lines)
        assert caught == []
        assert not any("Traceback" in line for line in lines)
        assert len(lines) == (0 if rc == 0 else 1), lines


def pgm_bytes(width, height, maxval, payload: bytes, magic=b"P5",
              sep=b"\n") -> bytes:
    return (magic + sep + str(width).encode() + b" " + str(height).encode()
            + sep + str(maxval).encode() + b"\n" + payload)


TOKENS = st.one_of(
    st.integers(-3, 300).map(str),
    st.sampled_from(["", "0", "1e2", "0x10", "+176", "1_76", "nan", "9" * 40,
                     "176#", "-0"]),
    st.text(alphabet="0123456789 #\t\n\r\x0bx-", max_size=6))


@st.composite
def malformed_pgms(draw):
    valid = pgm_bytes(SIZE, SIZE, 65535,
                      np.full(SIZE * SIZE, 1000, ">u2").tobytes())
    kind = draw(st.sampled_from(["truncate", "overwrite", "header",
                                 "sized"]))
    if kind == "truncate":
        return valid[:draw(st.integers(0, len(valid) - 1))]
    if kind == "overwrite":
        at = draw(st.integers(0, 24))
        junk = draw(st.binary(min_size=1, max_size=6))
        return valid[:at] + junk + valid[at + len(junk):]
    magic = draw(st.sampled_from([b"P5", b"P2", b"P6", b"p5", b"", b"P5#"]))
    sep = draw(st.sampled_from([b"\n", b" ", b"\t", b"\n# note\n", b""]))
    width, height = draw(TOKENS), draw(TOKENS)
    maxval = draw(st.sampled_from(["0", "1", "255", "256", "65535", "65536",
                                   "-1", ""]) | TOKENS)
    if kind == "header":
        return pgm_bytes(width, height, maxval,
                         draw(st.binary(max_size=64)), magic, sep)
    # A well-formed header of an arbitrary (small) raster with the exact
    # payload it announces: an image the pipeline must cope with.
    width, height = draw(st.integers(1, 200)), draw(st.integers(1, 200))
    maxval = draw(st.sampled_from([255, 65535]))
    size = width * height * (2 if maxval == 65535 else 1)
    fill = draw(st.integers(0, 255))
    return pgm_bytes(width, height, maxval, bytes([fill]) * size)


NUMBERS = st.one_of(st.integers(-1000, 1000), st.integers(),
                    st.floats(allow_nan=True, allow_infinity=True),
                    st.floats(0.0, float(SIZE)))
JSON = st.recursive(
    st.none() | st.booleans() | NUMBERS | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner,
                                     max_size=3)),
    max_leaves=6)


@st.composite
def malformed_sidecars(draw):
    kind = draw(st.sampled_from(["fields", "json", "bytes"]))
    if kind == "bytes":
        return draw(st.binary(max_size=48))
    if kind == "json":
        doc = draw(JSON)
    else:
        doc = {"center": draw(st.lists(NUMBERS, max_size=3) | JSON),
               "radius": draw(NUMBERS | JSON)}
    return json.dumps(doc).encode()


_FUZZ = settings(max_examples=100, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


@_FUZZ
@given(content=malformed_pgms())
def test_malformed_pgm_exit_codes(cohort, content):
    check(run_cli(cohort, cohort[1], content))


@_FUZZ
@given(content=malformed_sidecars())
def test_malformed_mask_sidecar_exit_codes(cohort, content):
    check(run_cli(cohort, Path(cohort[1]).with_suffix(".mask.json").name,
                  content))


RECORD_FIELDS = ("patient", "sequence", "frame", "label", "site", "file",
                 "artifacts", "augmented_from", "rotation_deg",
                 "label_override")
# Numbers that do not fit the field they land in: non-finite, beyond the
# float range, fractional or negative.
ODD_NUMBERS = st.sampled_from([float("nan"), float("inf"), float("-inf"),
                               10 ** 400, -10 ** 400, 1e308, 0.5, -1])
RECTS = st.lists(st.lists(ODD_NUMBERS | st.integers(-5, SIZE + 5),
                          min_size=4, max_size=4), min_size=1, max_size=2)


@st.composite
def malformed_manifests(draw, valid: bytes):
    kind = draw(st.sampled_from(["truncate", "overwrite", "json", "records",
                                 "top", "drop", "field", "field", "field"]))
    if kind == "truncate":
        return valid[:draw(st.integers(0, len(valid) - 1))]
    if kind == "overwrite":
        at = draw(st.integers(0, len(valid) - 1))
        junk = draw(st.binary(min_size=1, max_size=6))
        return valid[:at] + junk + valid[at + len(junk):]
    if kind == "json":
        return json.dumps(draw(JSON)).encode()
    doc = json.loads(valid)
    if kind == "records":
        # Some of the records, in any order, possibly repeated.
        doc["records"] = draw(st.lists(st.sampled_from(doc["records"]),
                                       max_size=6))
    elif kind == "top":
        doc[draw(st.sampled_from(["root", "records"]))] = draw(JSON)
    else:
        record = draw(st.sampled_from(doc["records"]))
        key = draw(st.sampled_from(RECORD_FIELDS))
        if kind == "drop":
            record.pop(key, None)
        else:
            record[key] = draw(st.one_of(ODD_NUMBERS, RECTS, NUMBERS, JSON))
    return json.dumps(doc).encode()


# Each generated defect is applied to every one of these small valid
# configs, so no run is long or forks more than two workers, and both
# classifiers and the logistic descent see it.  Their methods have a grid
# that fits the cohort's 176 px frames.
BASES = ({"method": "RF-GLCM@1.0x", "trees": 2, "jobs": 1},
         {"method": "PPF@1.0x", "epochs": 2, "jobs": 2},
         {"method": "WHOLEIMAGE@0.55x", "epochs": 2, "jobs": 1})
FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}
NON_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf"),
                              10 ** 400, -10 ** 400])
OUT_OF_RANGE = {
    "method": st.text(max_size=12).filter(lambda t: t not in METHODS),
    "patch_classifier": st.text(max_size=8).filter(
        lambda t: t not in ("logistic", "forest")),
    "trees": st.integers(max_value=0),
    "k_aug": st.integers(max_value=-1),
    "epochs": st.integers(max_value=0),
    "patch_size": st.integers(max_value=1),
    "target_size": st.integers(max_value=1),
    "glcm_levels": st.integers(max_value=1) | st.integers(min_value=257),
    "rate": st.floats(max_value=0.0) | st.integers(max_value=0),
    "l2": st.floats(max_value=0.0, exclude_max=True),
    "threshold": (st.floats(max_value=0.0, exclude_max=True)
                  | st.floats(min_value=1.0, exclude_min=True)),
    "overlap": (st.floats(max_value=0.0, exclude_max=True)
                | st.floats(min_value=1.0)),
    "admission_fraction": (st.floats(max_value=0.0)
                           | st.floats(min_value=1.0, exclude_min=True)),
}


def wrong_types(kind: str):
    """Values of any JSON type but `kind` (an int passes as a float)."""
    other = [st.none(), st.lists(st.integers(), max_size=2),
             st.dictionaries(st.text(max_size=3), st.integers(), max_size=2)]
    if kind != "str":
        other.append(st.text(max_size=4))
    if kind != "bool":
        other.append(st.booleans())
    if kind in ("int", "str", "bool"):
        other.append(st.floats(allow_nan=True, allow_infinity=True))
    if kind in ("str", "bool"):
        other.append(st.integers())
    return st.one_of(other)


@st.composite
def config_defects(draw):
    """One way to break a config: `(key, value)` to set (None for none),
    whether to wrap the config as a summary.json does, and how many bytes
    to keep of its text (None for all)."""
    kind = draw(st.sampled_from(["type", "range", "non-finite", "key",
                                 "truncate"]))
    entry, cut = None, None
    if kind == "type":
        name = draw(st.sampled_from(sorted(FIELD_TYPES)))
        entry = name, draw(wrong_types(FIELD_TYPES[name]))
    elif kind == "range":
        name = draw(st.sampled_from(sorted(OUT_OF_RANGE)))
        entry = name, draw(OUT_OF_RANGE[name])
    elif kind == "non-finite":
        entry = (draw(st.sampled_from(sorted(
            n for n, t in FIELD_TYPES.items() if t == "float"))),
            draw(NON_FINITE))
    elif kind == "key":
        entry = (draw(st.text(min_size=1, max_size=8).filter(
            lambda k: k not in FIELD_TYPES)), draw(JSON))
    else:
        cut = draw(st.integers(0, 200))
    return entry, draw(st.booleans()), cut


def config_text(base: dict, defect) -> bytes:
    entry, wrap, cut = defect
    doc = dict(base, **dict([entry] if entry else []))
    text = json.dumps({"config": doc} if wrap else doc).encode()
    return text if cut is None else text[:min(cut, len(text) - 1)]


@_FUZZ
@given(data=st.data())
def test_malformed_manifest_exit_codes(cohort, data):
    valid = (cohort[0] / "manifest.json").read_bytes()
    check(run_cli(cohort, "manifest.json",
                  data.draw(malformed_manifests(valid))))


@_FUZZ
@given(defect=config_defects())
def test_malformed_config_exit_codes(cohort, defect):
    for base in BASES:
        check(run_cli(cohort, "run.json", config_text(base, defect),
                      commands=("cv --config",)))


# Cell values a table may hold where a number or a label belongs.
CELLS = st.one_of(
    st.sampled_from(["", "nan", "NaN", "inf", "-inf", "1e400", "-1e400",
                     "9" * 400, "-0", "0x1", " 1", "1_0", "1.5", "-1", "2",
                     "carcinogenic", "normal", "Normal"]),
    st.integers().map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(max_size=6))


@st.composite
def malformed_tables(draw, valid: bytes):
    """`valid` CSV text truncated, overwritten with bytes, with one cell
    or header field replaced, or with a row dropped, repeated or added."""
    kind = draw(st.sampled_from(["truncate", "overwrite", "cell", "cell",
                                 "cell", "header", "rows"]))
    if kind == "truncate":
        return valid[:draw(st.integers(0, len(valid) - 1))]
    if kind == "overwrite":
        at = draw(st.integers(0, len(valid) - 1))
        junk = draw(st.binary(min_size=1, max_size=6))
        return valid[:at] + junk + valid[at + len(junk):]
    lines = [line.split(",") for line in valid.decode().splitlines()]
    if kind == "header":
        lines[0][draw(st.integers(0, len(lines[0]) - 1))] = draw(CELLS)
    elif kind == "cell":
        row = lines[draw(st.integers(1, len(lines) - 1))]
        row[draw(st.integers(0, len(row) - 1))] = draw(CELLS)
    else:
        body = draw(st.lists(st.sampled_from(lines[1:]) | st.lists(
            CELLS, max_size=len(lines[0]) + 1), max_size=6))
        lines = lines[:1] + body
    return ("\n".join(",".join(row) for row in lines) + "\n").encode()


@_FUZZ
@given(data=st.data())
def test_malformed_feature_csv_exit_codes(cohort, data):
    valid = (cohort[0] / "features.csv").read_bytes()
    check(run_cli(cohort, "features.csv",
                  data.draw(malformed_tables(valid)),
                  commands=("train", "predict")))


@_FUZZ
@given(data=st.data())
def test_malformed_probability_csv_exit_codes(cohort, data):
    valid = (cohort[0] / "probs.csv").read_bytes()
    check(run_cli(cohort, "probs.csv", data.draw(malformed_tables(valid)),
                  commands=("fuse",)))


@_FUZZ
@given(data=st.data())
def test_malformed_results_csv_exit_codes(cohort, data):
    valid = (cohort[0] / "results.csv").read_bytes()
    check(run_cli(cohort, "results.csv", data.draw(malformed_tables(valid)),
                  commands=("report",)))


# 32-bit words that break a CLEF field: counts, sizes, feature and node
# indices out of range, and the bit patterns of extreme floats.
WORDS = st.one_of(
    st.sampled_from([0, 1, 2, 3, -1, -2, 2 ** 31 - 1, -2 ** 31,
                     0x7FF00000, 0x7FF80000, -0x100000]),
    st.integers(-2 ** 31, 2 ** 31 - 1))


@st.composite
def malformed_models(draw, valid: bytes):
    """`valid` CLEF bytes truncated, extended, overwritten with bytes, or
    with one 32-bit word after the magic replaced."""
    kind = draw(st.sampled_from(["truncate", "append", "overwrite", "word",
                                 "word", "word"]))
    if kind == "truncate":
        return valid[:draw(st.integers(0, len(valid) - 1))]
    if kind == "append":
        return valid + draw(st.binary(min_size=1, max_size=16))
    if kind == "overwrite":
        at = draw(st.integers(0, len(valid) - 1))
        junk = draw(st.binary(min_size=1, max_size=8))
        return valid[:at] + junk + valid[at + len(junk):]
    at = 4 + 4 * draw(st.integers(0, (len(valid) - 8) // 4))
    return valid[:at] + struct.pack("<i", draw(WORDS)) + valid[at + 4:]


@_FUZZ
@given(data=st.data())
def test_malformed_model_exit_codes(cohort, data):
    valid = (cohort[0] / "model.clef").read_bytes()
    check(run_cli(cohort, "model.clef", data.draw(malformed_models(valid)),
                  commands=("predict --model",)))
