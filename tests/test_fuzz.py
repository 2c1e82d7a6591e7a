"""Malformed image files and mask sidecars end in a documented exit code.

Hypothesis corrupts one frame of a tiny valid cohort (its PGM file or its
`<stem>.mask.json` sidecar) and runs `cv` and `stats` on it.  Each run
must exit 0, 3, 4, 5 or 6, print exactly one line to stderr when it
fails and nothing when it succeeds, and never raise.
"""

import contextlib
import io
import json
import shutil
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
    return root, records[0].file


def run_cli(cohort, name: str, content: bytes):
    """Exit code and stderr lines of `cv` and of `stats` on a copy of the
    cohort whose file `name` holds `content`."""
    root, _frame = cohort
    outcomes = []
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "data"
        shutil.copytree(root, data)
        (data / name).write_bytes(content)
        for args in (["cv", "--data", str(data), "--method", "RF-GLCM@1.0x",
                      "--trees", "2", "--out", str(Path(tmp) / "cv"),
                      "--jobs", "1"],
                     ["stats", "--data", str(data),
                      "--out", str(Path(tmp) / "stats.csv")]):
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
