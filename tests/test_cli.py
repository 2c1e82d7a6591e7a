"""End-to-end command-line behavior: subcommands, files, exit codes."""

import argparse
import dataclasses
import json
import os
import resource
import subprocess
import sys

import numpy as np
import pytest

from clescreen import core, evaluation, features, forest
from clescreen.cli import build_parser, main
from clescreen.core import (CARCINOGENIC, NORMAL, DatasetManifest,
                            load_manifest, save_image, save_manifest)
from clescreen.evaluation import (METHODS, RunConfig, prepare_record_image,
                                  record_patch_coords)
from clescreen.fusion import fuse
from conftest import fit_options, make_image, make_record


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_ds")
    rc = main(["synth", "--out", str(out), "--patients", "3",
               "--images-per-patient", "4", "--size", "320",
               "--seed", "21", "--jobs", "2"])
    assert rc == 0
    return out


def edited_manifest(dataset, tmp_path, change: dict):
    """A copy of `dataset`'s manifest whose record 0 has `change` applied,
    reading the frames where they are."""
    doc = json.loads((dataset / "manifest.json").read_text())
    doc["root"] = str(dataset / doc["root"])
    doc["records"][0].update(change)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture
def tiny_frames(tmp_path):
    """3 patients x 4 frames of 64 px, smaller than one 80 px patch."""
    rng = np.random.default_rng(11)
    records = [make_record(patient=f"p{p}", frame=f,
                           label=CARCINOGENIC if f % 2 else NORMAL)
               for p in range(3) for f in range(4)]
    (tmp_path / "imgs").mkdir()
    for rec in records:
        save_image(make_image(size=64, rng=rng), tmp_path / "imgs" / rec.file)
    save_manifest(DatasetManifest(records=records, root_path=tmp_path),
                  tmp_path / "manifest.json", root="imgs")
    return tmp_path


class TestSynthStats:
    def test_stats_to_stdout(self, dataset, capsys):
        assert main(["stats", "--data", str(dataset)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("site,count,percent")
        assert "#patients mean=" in out

    def test_stats_to_file(self, dataset, tmp_path):
        path = tmp_path / "stats.csv"
        assert main(["stats", "--data", str(dataset), "--out", str(path)]) == 0
        assert path.read_text().startswith("site,count,percent")

    def test_synth_rejects_bad_config(self, tmp_path):
        rc = main(["synth", "--out", str(tmp_path / "x"), "--size", "100"])
        assert rc == 3

    def test_synth_flags_fill_every_config_field(self, tmp_path,
                                                 monkeypatch):
        # Each flag lands in its SynthConfig field, and the flag defaults
        # are the dataclass's.
        from clescreen import synth
        seen = []
        monkeypatch.setattr(
            synth, "generate_dataset",
            lambda config, out, jobs: seen.append((config, jobs))
            or DatasetManifest(records=[], root_path=tmp_path))
        assert main(["synth", "--out", str(tmp_path), "--patients", "3",
                     "--images-per-patient", "5", "--size", "200", "--mix",
                     "0.3", "--seed", "9", "--style-jitter", "0.5", "--hard",
                     "--jobs", "1"]) == 0
        assert main(["synth", "--out", str(tmp_path), "--jobs", "1"]) == 0
        assert seen == [(synth.SynthConfig(
            n_patients=3, images_per_patient=5, image_size=200,
            class_mix=0.3, seed=9, patient_style_jitter=0.5, hard=True), 1),
            (synth.SynthConfig(), 1)]

    def test_out_of_memory_exit_code(self, tmp_path):
        # A 200000 px frame cannot be rendered.  The address space of the
        # child alone is capped, so the allocation fails at once instead
        # of being attempted for real.
        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(
                       [os.path.join(os.path.dirname(__file__), "..", "src"),
                        os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "clescreen", "synth", "--out",
             str(tmp_path / "big"), "--patients", "2",
             "--images-per-patient", "1", "--size", "200000", "--jobs", "1"],
            capture_output=True, text=True, env=env,
            preexec_fn=cap_address_space, timeout=120)
        err = proc.stderr.splitlines()
        assert proc.returncode == 3, proc.stderr
        assert len(err) == 1 and err[0].startswith("clescreen: out of memory")

    def test_missing_manifest_is_data_error(self, tmp_path):
        rc = main(["stats", "--data", str(tmp_path / "nowhere")])
        assert rc in (4, 6)

    @pytest.mark.parametrize("change", [
        {"frame": float("inf")},
        {"frame": float("-inf")},
        {"augmented_from": float("inf"), "rotation_deg": 10.0},
        {"artifacts": [[0, 0, float("inf"), 5]]},
    ], ids=["frame", "negative-frame", "augmented-from", "artifact"])
    def test_non_finite_manifest_value_exit_code(self, dataset, tmp_path,
                                                 capsys, change):
        path = edited_manifest(dataset, tmp_path, change)
        capsys.readouterr()
        assert main(["stats", "--data", str(path)]) == 6
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "record 0" in err[0]

    def test_artifact_beyond_float_range_exit_code(self, dataset, tmp_path,
                                                  capsys):
        # Rotating a corner this far away would overflow a float.
        path = edited_manifest(dataset, tmp_path,
                               {"artifacts": [[0, 0, 10 ** 400, 5]]})
        capsys.readouterr()
        assert main(["cv", "--data", str(path), "--method", "RF-GLCM@0.5x",
                     "--trees", "2", "--out", str(tmp_path / "cv"),
                     "--jobs", "1"]) == 6
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "record 0" in err[0]

    def test_error_with_line_break_in_file_name_is_one_line(
            self, dataset, tmp_path, capsys):
        path = edited_manifest(dataset, tmp_path, {"file": "a\nb\u2028c"})
        capsys.readouterr()
        assert main(["stats", "--data", str(path)]) == 6
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "a\\nb\\u2028c" in err[0]

    def test_file_name_beyond_os_limit_exit_code(self, dataset, tmp_path,
                                                 capsys):
        # A 300-character name exceeds the usual 255-byte limit, so the
        # file check itself fails rather than finding no file.
        path = edited_manifest(dataset, tmp_path, {"file": "f" * 300})
        capsys.readouterr()
        assert main(["stats", "--data", str(path)]) == 6
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert f"{path}: record 0: cannot check image file" in err[0]

    def test_manifest_error_names_the_manifest(self, dataset, tmp_path,
                                               capsys):
        path = edited_manifest(dataset, tmp_path, {"file": "absent.pgm"})
        capsys.readouterr()
        assert main(["stats", "--data", str(path)]) == 6
        err = capsys.readouterr().err.splitlines()
        assert err == [f"clescreen: bad data: {path}: record 0: missing "
                       f"image file {dataset / 'images' / 'absent.pgm'}"]

    @pytest.mark.parametrize("field", ["patient", "sequence"])
    @pytest.mark.parametrize("value", ["", ".", "..", "p,00", "../escaped",
                                       "a\\b", "tab\there", "nul\x00"],
                             ids=["empty", "dot", "dot-dot", "comma",
                                  "slash", "backslash", "tab", "nul"])
    def test_unsafe_id_is_data_error(self, dataset, tmp_path, capsys, field,
                                     value):
        path = edited_manifest(dataset, tmp_path, {field: value})
        capsys.readouterr()
        assert main(["stats", "--data", str(path)]) == 6
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"clescreen: bad data: {path}: record 0: "
                                 f"{field} ")
        assert "is not a valid id" in err[0]

    @pytest.mark.parametrize("field", ["patient", "sequence"])
    @pytest.mark.parametrize("value, shown", [(None, "null"), (5, "5"),
                                              (True, "true")],
                             ids=["null", "number", "bool"])
    def test_non_string_id_is_data_error(self, dataset, tmp_path, capsys,
                                         field, value, shown):
        # Once loaded as "None", "5" or "True", such an id passed as a
        # patient of its own.
        path = edited_manifest(dataset, tmp_path, {field: value})
        capsys.readouterr()
        assert main(["stats", "--data", str(path)]) == 6
        err = capsys.readouterr().err.splitlines()
        assert err == [f"clescreen: bad data: {path}: record 0: {field} "
                       f"must be a string, got {shown}"]

    def test_comma_in_patient_refused_before_results(self, dataset,
                                                     tmp_path):
        # A comma would shift the results.csv fields that `report` reads.
        path = edited_manifest(dataset, tmp_path, {"patient": "p,00"})
        out = tmp_path / "cv"
        assert main(["cv", "--data", str(path), "--method", "RF-GLCM@0.5x",
                     "--trees", "2", "--jobs", "1", "--out", str(out)]) == 6
        assert not out.exists()

    def test_dot_dot_patient_writes_nothing_outside_out(self, dataset,
                                                        tmp_path):
        path = edited_manifest(dataset, tmp_path, {"patient": "../escaped"})
        out = tmp_path / "x" / "deep"
        assert main(["preprocess", "--data", str(path), "--mode",
                     "wholeimage", "--out", str(out)]) == 6
        assert not (tmp_path / "x").exists()


class TestFeaturePath:
    def test_featurize_train_predict(self, dataset, tmp_path):
        feat = tmp_path / "feat.csv"
        assert main(["featurize", "--data", str(dataset), "--features",
                     "lbp", "--scale", "0.5", "--out", str(feat),
                     "--jobs", "2"]) == 0
        header = feat.read_text().splitlines()[0].split(",")
        assert header[:5] == ["patient", "sequence", "frame", "label",
                              "rotation_deg"]
        assert len(header) == 5 + 108
        assert header[5] == "mean:lbp:r1n8:b0"

        model = tmp_path / "model.clef"
        assert main(["train", "--features", str(feat), "--trees", "20",
                     "--seed", "3", "--out", str(model), "--jobs", "2"]) == 0
        assert model.read_bytes()[:4] == b"CLEF"

        pred = tmp_path / "pred.csv"
        assert main(["predict", "--model", str(model), "--features",
                     str(feat), "--out", str(pred)]) == 0
        lines = pred.read_text().splitlines()
        assert lines[0] == "patient,sequence,frame,label,rotation_deg,p_image"
        assert len(lines) == 13  # 12 images
        assert all(line.split(",")[4] == "0.0" for line in lines[1:])

    def test_rotated_copy_keeps_its_angle(self, dataset, tmp_path):
        # Feature rows are keyed by (patient, sequence, frame, label,
        # rotation_deg), so an original and its 30-degree copy stay two
        # rows through featurize and predict.
        feat = tmp_path / "feat.csv"
        assert main(["featurize", "--data", str(dataset), "--features",
                     "glcm", "--out", str(feat), "--jobs", "1"]) == 0
        model = tmp_path / "model.clef"
        assert main(["train", "--features", str(feat), "--trees", "5",
                     "--out", str(model), "--jobs", "1"]) == 0
        doc = json.loads((dataset / "manifest.json").read_text())
        doc["root"] = str(dataset / doc["root"])
        first = doc["records"][0]
        doc["records"] = [first, dict(first, augmented_from=first["frame"],
                                      rotation_deg=30.0)]
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(doc))
        pair = tmp_path / "pair.csv"
        assert main(["featurize", "--data", str(manifest), "--features",
                     "glcm", "--out", str(pair), "--jobs", "1"]) == 0
        key = [first["patient"], first["sequence"], str(first["frame"]),
               first["label"]]
        rows = [line.split(",") for line in pair.read_text().splitlines()]
        assert [row[:5] for row in rows[1:]] == [key + ["0.0"],
                                                 key + ["30.0"]]
        assert rows[1][5:] != rows[2][5:]
        pred = tmp_path / "pred.csv"
        assert main(["predict", "--model", str(model), "--features",
                     str(pair), "--out", str(pred)]) == 0
        rows = [line.split(",") for line in pred.read_text().splitlines()]
        assert rows[0] == ["patient", "sequence", "frame", "label",
                           "rotation_deg", "p_image"]
        assert [row[:5] for row in rows[1:]] == [key + ["0.0"],
                                                 key + ["30.0"]]

    def test_feature_csv_without_angle_still_loads(self, tmp_path):
        feat = tmp_path / "feat.csv"
        feat.write_text("patient,sequence,frame,label,f0\n"
                        "p0,s0,0,normal,0.1\np0,s0,1,normal,0.2\n"
                        "p0,s0,2,carcinogenic,0.8\n"
                        "p0,s0,3,carcinogenic,0.9\n")
        model, pred = tmp_path / "model.clef", tmp_path / "pred.csv"
        assert main(["train", "--features", str(feat), "--trees", "3",
                     "--out", str(model), "--jobs", "1"]) == 0
        assert main(["predict", "--model", str(model), "--features",
                     str(feat), "--out", str(pred)]) == 0
        lines = pred.read_text().splitlines()
        assert lines[0] == "patient,sequence,frame,label,p_image"
        assert lines[1].startswith("p0,s0,0,normal,")

    def test_predict_feature_count_mismatch_names_files(self, tmp_path,
                                                        capsys):
        feat = tmp_path / "feat.csv"
        feat.write_text("patient,sequence,frame,label,f0,f1\n"
                        "p0,s0,0,normal,0.1,0.5\np0,s0,1,normal,0.2,0.4\n"
                        "p0,s0,2,carcinogenic,0.8,0.3\n"
                        "p0,s0,3,carcinogenic,0.9,0.2\n")
        model = tmp_path / "model.clef"
        assert main(["train", "--features", str(feat), "--trees", "2",
                     "--out", str(model), "--jobs", "1"]) == 0
        narrow = tmp_path / "narrow.csv"
        narrow.write_text("patient,sequence,frame,label,f0\n"
                          "p1,s0,0,normal,0.3\n")
        capsys.readouterr()
        assert main(["predict", "--model", str(model), "--features",
                     str(narrow), "--out", str(tmp_path / "p.csv")]) == 6
        assert capsys.readouterr().err.splitlines() == [
            f"clescreen: bad data: {narrow}: rows have 1 features, {model} "
            f"expects 2"]

    def test_unknown_label_rejected(self, tmp_path, capsys):
        feat = tmp_path / "feat.csv"
        feat.write_text("patient,sequence,frame,label,f0\n"
                        "p00,s0,0,normal,0.5\np00,s0,1,carcinogenc,0.7\n")
        results = tmp_path / "results.csv"
        results.write_text("patient,label,p_image\np00,normal,0.2\n"
                           "p01,carcinogenc,0.9\n")
        capsys.readouterr()
        assert main(["train", "--features", str(feat), "--trees", "2",
                     "--out", str(tmp_path / "m.clef")]) == 6
        assert main(["report", "--results", str(results)]) == 6
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all("'carcinogenc'" in line for line in err)

    @pytest.mark.parametrize("command, text", [
        ("train", "patient,sequence,frame,label,f0\np00,s0\n"),
        ("predict", "patient,sequence,frame,label,f0\np00,s0,0,normal\n"),
        ("train", "frame,patient,sequence,label,f0\n"),
        ("report", ""),
        ("report", "patient,label,p_image\np00,normal\n"),
        ("report", "patient,p_image\np00,0.5\n"),
        ("train", "patient,sequence,frame,label,f0\np00,s0,x,normal,0.5\n"),
        ("train", "patient,sequence,frame,label,f0\np00,s0,0,normal,0.5\n"
                  "p00,s0,1,normal,high\n"),
        ("fuse", "patient,sequence,frame,patch_index,p_c1\np00,s0,0,0,abc\n"),
        ("fuse", "patient,sequence,frame,patch_index,p_c1\np00,s0,0,one,0.5\n"),
        ("report", "patient,label,p_image\n"),
        ("report", "patient,label,p_image\np00,normal,0.2\np01,normal,?\n"),
        ("train", "patient,sequence,frame,label,f0\np00,s0,0,normal,0.5\n"
                  "p00,s0,1,normal,nan\n"),
        ("predict", "patient,sequence,frame,label,f0\np00,s0,0,normal,"
                    "1e400\n"),
        ("predict", "patient,sequence,frame,label,f0\n"),
        ("fuse", "patient,sequence,frame,patch_index,p_c1\np00,s3,0,0,1.5\n"),
    ], ids=["train-short-row", "predict-short-row", "train-bad-header",
            "report-empty", "report-short-row", "report-no-label",
            "train-bad-frame", "train-bad-feature", "fuse-bad-p",
            "fuse-bad-index", "report-no-rows", "report-bad-p",
            "train-nan-feature", "predict-infinite-feature",
            "predict-no-rows", "fuse-p-above-one"])
    def test_malformed_csv_exit_code(self, dataset, tmp_path, capsys,
                                     command, text):
        csv = tmp_path / "in.csv"
        csv.write_text(text)
        args = {"train": ["train", "--features", str(csv), "--trees", "2",
                          "--out", str(tmp_path / "m.clef")],
                "predict": ["predict", "--model", str(tmp_path / "m.clef"),
                            "--features", str(csv),
                            "--out", str(tmp_path / "p.csv")],
                "fuse": ["fuse", "--data", str(dataset), "--probs", str(csv),
                         "--out", str(tmp_path / "f.csv")],
                "report": ["report", "--results", str(csv)]}[command]
        capsys.readouterr()
        assert main(args) == 6
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and str(csv) in err[0]

    def test_train_names_class_counts(self, tmp_path, capsys):
        feat = tmp_path / "feat.csv"
        feat.write_text("patient,sequence,frame,label,f0\n"
                        "p00,s0,0,normal,0.5\np00,s0,1,carcinogenic,0.7\n"
                        "p00,s0,2,carcinogenic,0.9\n"
                        "p00,s0,3,carcinogenic,0.1\n")
        capsys.readouterr()
        assert main(["train", "--features", str(feat), "--trees", "2",
                     "--out", str(tmp_path / "m.clef")]) == 6
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and str(feat) in err[0]
        assert "1 normal and 3 carcinogenic" in err[0]
        assert not (tmp_path / "m.clef").exists()

    def test_glcm_featurize_dimensions(self, dataset, tmp_path):
        feat = tmp_path / "feat_glcm.csv"
        assert main(["featurize", "--data", str(dataset), "--features",
                     "glcm", "--out", str(feat), "--jobs", "2"]) == 0
        header = feat.read_text().splitlines()[0].split(",")
        assert len(header) == 5 + 30


class TestPreprocess:
    def test_wholeimage_mode(self, dataset, tmp_path):
        out = tmp_path / "pre"
        assert main(["preprocess", "--data", str(dataset), "--mode",
                     "wholeimage", "--out", str(out)]) == 0
        sidecar = (out / "preprocess.csv").read_text().splitlines()
        assert sidecar[0] == \
            "patient,sequence,frame,p_low,p_high,side,origin_x,origin_y"
        assert len(sidecar) == 13
        pgms = sorted(out.glob("*.pgm"))
        assert len(pgms) == 12
        assert pgms[0].read_bytes().startswith(b"P5\n224 224\n255\n")

    def test_wholeimage_mode_on_frames_smaller_than_a_patch(
            self, tiny_frames, tmp_path):
        out = tmp_path / "pre"
        assert main(["preprocess", "--data", str(tiny_frames), "--mode",
                     "wholeimage", "--out", str(out)]) == 0
        assert len(list(out.glob("*.pgm"))) == 12

    def test_patches_mode(self, dataset, tmp_path):
        out = tmp_path / "pre2"
        assert main(["preprocess", "--data", str(dataset), "--mode",
                     "patches", "--scale", "0.5", "--out", str(out)]) == 0
        lines = (out / "patches.csv").read_text().splitlines()
        assert lines[0] == "patient,sequence,frame,patch_index,c1,c2,c3,c4"
        assert len(lines) > 12


class TestRotatedCopies:
    @pytest.mark.parametrize("command", [
        ["fuse", "--probs", "PROBS"],
        ["preprocess", "--mode", "wholeimage"],
        ["preprocess", "--mode", "patches"],
    ], ids=["fuse", "preprocess-wholeimage", "preprocess-patches"])
    def test_manifest_with_rotated_copy_refused(self, dataset, tmp_path,
                                                capsys, command):
        # A rotated copy of record 0 shares its (patient, sequence,
        # frame): fuse would emit the frame twice from one probability
        # row, and preprocess would write the copy over the original's
        # file.  Both refuse the manifest, naming the record.
        doc = json.loads((dataset / "manifest.json").read_text())
        doc["root"] = str(dataset / doc["root"])
        first = doc["records"][0]
        doc["records"].append(dict(first, augmented_from=first["frame"],
                                   rotation_deg=30.0))
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(doc))
        probs = tmp_path / "probs.csv"
        probs.write_text("patient,sequence,frame,patch_index,p_c1\n"
                         f"{first['patient']},{first['sequence']},"
                         f"{first['frame']},0,0.9\n")
        out = tmp_path / "out"
        args = [str(probs) if a == "PROBS" else a for a in command]
        capsys.readouterr()
        rc = main(args + ["--data", str(manifest), "--out", str(out)])
        assert rc == 6
        n = len(doc["records"]) - 1
        assert capsys.readouterr().err.splitlines() == [
            f"clescreen: bad data: {manifest}: record {n} ({first['patient']},"
            f"{first['sequence']},{first['frame']}) is a rotated copy "
            f"(rotation_deg 30.0); {command[0]} takes original frames only"]
        assert not out.exists()


class TestOptionValidation:
    @pytest.mark.parametrize("command, option, value", [
        ("preprocess", "--target", "0"),
        ("preprocess", "--target", "-3"),
        ("train", "--trees", "0"),
        ("report", "--threshold", "7"),
        ("cv", "--jobs", "0"),
        ("cv", "--jobs", "-3"),
        ("train", "--jobs", "0"),
        ("synth", "--jobs", "0"),
    ])
    def test_bad_option_is_config_error(self, dataset, tmp_path, capsys,
                                        command, option, value):
        # Every other input is valid, so only the option can fail.
        feat = tmp_path / "feat.csv"
        feat.write_text("patient,sequence,frame,label,f0\n"
                        "p00,s0,0,normal,0.5\np00,s0,1,carcinogenic,0.7\n")
        results = tmp_path / "results.csv"
        results.write_text("patient,label,p_image\np00,normal,0.2\n"
                           "p01,carcinogenic,0.9\n")
        out = tmp_path / "out"
        args = {"preprocess": ["--data", str(dataset), "--out", str(out)],
                "train": ["--features", str(feat), "--out", str(out)],
                "report": ["--results", str(results), "--out", str(out)],
                "cv": ["--data", str(dataset), "--out", str(out)],
                "synth": ["--out", str(out), "--patients", "2",
                          "--images-per-patient", "3", "--size", "200"],
                }[command]
        capsys.readouterr()
        assert main([command, *args, option, value]) == 3
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not out.exists()


class TestCv:
    def test_one_flag_per_config_field(self):
        # The flags are built from the dataclass: one per field, named
        # after it, with its type, and choices where the field has them.
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        flags = {a.dest: a for a in sub.choices["cv"]._actions
                 if a.dest not in ("help", "data", "out", "config")}
        fields = dataclasses.fields(RunConfig)
        assert list(flags) == [f.name for f in fields]
        choices = {"method": METHODS,
                   "patch_classifier": evaluation.PATCH_CLASSIFIERS}
        for f in fields:
            flag = flags[f.name]
            assert flag.option_strings == [f"--{f.name.replace('_', '-')}"]
            assert flag.type is {"int": int, "float": float, "str": str}[
                f.type]
            assert flag.choices == choices.get(f.name)
            assert flag.default is None

    @pytest.mark.parametrize("method, option, key, value", [
        ("PPF@0.5x", "--l2", "l2", 0.01),
        ("WHOLEIMAGE@0.55x", "--target-size", "target_size", 64),
    ], ids=["l2", "target-size"])
    def test_flag_equals_config_key(self, dataset, tmp_path, method, option,
                                    key, value):
        # Fields once settable only through --config have flags now.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"method": method, key: value}))
        common = ["--data", str(dataset), "--k-aug", "0", "--epochs", "3",
                  "--jobs", "1"]
        assert main(["cv", *common, "--method", method, option, str(value),
                     "--out", str(tmp_path / "flag")]) == 0
        assert main(["cv", *common, "--config", str(config),
                     "--out", str(tmp_path / "config")]) == 0
        summary = json.loads((tmp_path / "flag" / "summary.json").read_text())
        assert summary["config"][key] == value
        for name in ("results.csv", "roc.csv", "summary.json"):
            assert (tmp_path / "flag" / name).read_bytes() == \
                (tmp_path / "config" / name).read_bytes()

    def test_cv_writes_outputs(self, dataset, tmp_path):
        out = tmp_path / "cv"
        rc = main(["cv", "--data", str(dataset), "--method", "RF-LBP@0.5x",
                   "--trees", "20", "--seed", "5", "--out", str(out),
                   "--jobs", "2"])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["method"] == "RF-LBP@0.5x"
        assert summary["n_images"] == 12
        assert set(summary["fold_seeds"]) == {"p00", "p01", "p02"}
        results = (out / "results.csv").read_text().splitlines()
        assert results[0] == "method,patient,sequence,frame,label,p_image,pred@0.5"
        assert len(results) == 13
        roc = (out / "roc.csv").read_text().splitlines()
        assert roc[0] == "threshold,fpr,tpr"

    def test_rerun_from_summary_config_reproduces(self, dataset, tmp_path):
        out1 = tmp_path / "cv1"
        out2 = tmp_path / "cv2"
        assert main(["cv", "--data", str(dataset), "--method", "RF-LBP@0.5x",
                     "--trees", "12", "--seed", "5", "--out", str(out1),
                     "--jobs", "2"]) == 0
        assert main(["cv", "--data", str(dataset), "--config",
                     str(out1 / "summary.json"), "--out", str(out2),
                     "--jobs", "1"]) == 0
        for name in ("results.csv", "roc.csv", "summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize("method", METHODS)
    def test_every_summary_config_round_trips(self, dataset, tmp_path,
                                              method):
        # A summary echoes every config field, the unused ones at their
        # defaults, so each method's summary is a valid --config.
        first, second = tmp_path / "cv1", tmp_path / "cv2"
        fit = [arg for name, value in fit_options(method, 3, 2).items()
               for arg in (f"--{name}", str(value))]
        assert main(["cv", "--data", str(dataset), "--method", method,
                     "--k-aug", "0", *fit,
                     "--out", str(first), "--jobs", "1"]) == 0
        assert main(["cv", "--data", str(dataset), "--config",
                     str(first / "summary.json"), "--out", str(second),
                     "--jobs", "1"]) == 0
        for name in ("results.csv", "roc.csv", "summary.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    @pytest.mark.parametrize("method, fit, legacy, as_summary", [
        ("WHOLEIMAGE@0.55x", {"epochs": 2}, True, False),
        ("RF-LBP@0.5x", {"trees": 3}, False, True),
    ], ids=["wholeimage-config", "rf-lbp-summary"])
    def test_legacy_wholeimage_baseline_key_is_dropped(
            self, dataset, tmp_path, method, fit, legacy, as_summary):
        # Earlier versions wrote `wholeimage_baseline` into every summary,
        # true only for the whole-image baseline.  Such a file still
        # loads, and runs as the same config without the key.
        config = {"method": method, "k_aug": 0, **fit}
        for run, doc in (("current", config),
                         ("legacy", {**config, "wholeimage_baseline": legacy})):
            path = tmp_path / f"{run}.json"
            path.write_text(json.dumps({"config": doc} if as_summary
                                       else doc))
            assert main(["cv", "--data", str(dataset), "--config", str(path),
                         "--out", str(tmp_path / run), "--jobs", "1"]) == 0
        for name in ("results.csv", "roc.csv", "summary.json"):
            assert (tmp_path / "current" / name).read_bytes() == \
                (tmp_path / "legacy" / name).read_bytes()

    @pytest.mark.parametrize("argv, config, message", [
        (["cv", "--method", "RF-LBP@0.5x", "--patch-classifier", "forest"],
         None, "RF-LBP@0.5x does not read patch_classifier, got "
               "patch_classifier 'forest'"),
        (["cv", "--method", "WHOLEIMAGE@0.55x", "--patch-classifier",
          "forest"],
         None, "WHOLEIMAGE@0.55x does not read patch_classifier, got "
               "patch_classifier 'forest'"),
        (["cv", "--method", "PPF@0.5x", "--glcm-levels", "32"],
         None, "PPF@0.5x does not read glcm_levels, got glcm_levels 32"),
        (["cv", "--method", "RF-LBP@1.0x", "--glcm-levels", "8"],
         None, "RF-LBP@1.0x does not read glcm_levels, got glcm_levels 8"),
        (["cv", "--method", "PPF@0.5x", "--trees", "7"],
         None, "PPF@0.5x does not read trees, got trees 7"),
        (["cv", "--method", "RF-LBP@0.5x", "--epochs", "3"],
         None, "RF-LBP@0.5x does not read epochs, got epochs 3"),
        (["cv", "--method", "RF-GLCM@1.0x", "--rate", "0.5"],
         None, "RF-GLCM@1.0x does not read rate, got rate 0.5"),
        (["cv"], {"method": "RF-GLCM@0.5x", "l2": 0.1},
         "RF-GLCM@0.5x does not read l2, got l2 0.1"),
        (["cv"], {"method": "PPF@1.0x", "target_size": 100},
         "PPF@1.0x does not read target_size, got target_size 100"),
        (["cv", "--method", "WHOLEIMAGE@0.55x", "--patch-size", "40"],
         None, "WHOLEIMAGE@0.55x does not read patch_size, got "
               "patch_size 40"),
        (["cv", "--method", "WHOLEIMAGE@0.55x", "--overlap", "0.25"],
         None, "WHOLEIMAGE@0.55x does not read overlap, got overlap 0.25"),
        (["cv", "--method", "WHOLEIMAGE@0.55x", "--admission-fraction",
          "0.5"],
         None, "WHOLEIMAGE@0.55x does not read admission_fraction, got "
               "admission_fraction 0.5"),
        (["cv"], {"method": "PPF@0.5x", "trees": 300},
         "PPF@0.5x does not read trees, got trees 300"),
        (["preprocess", "--mode", "patches", "--target", "100"],
         None, "PPF@0.5x does not read target_size, got target_size 100"),
    ], ids=["patch-classifier-on-rf-lbp", "patch-classifier-on-wholeimage",
            "glcm-levels-on-ppf", "glcm-levels-on-rf-lbp", "ppf-trees-7",
            "epochs-on-rf-lbp", "rate-on-rf-glcm", "config-l2-on-rf-glcm",
            "config-target-size-on-ppf", "patch-size-on-wholeimage", "overlap-on-wholeimage",
            "admission-fraction-on-wholeimage", "rf-summary-trees-for-ppf",
            "preprocess-patches-target-100"])
    def test_option_the_method_ignores_is_refused(self, dataset, tmp_path,
                                                  capsys, argv, config,
                                                  message):
        # Echoed into summary.json, it would read as if it took effect.
        out = tmp_path / "out"
        extra = []
        if config is not None:
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config))
            extra = ["--config", str(path)]
        capsys.readouterr()
        assert main([*argv, *extra, "--data", str(dataset), "--out",
                     str(out)]) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"clescreen: invalid configuration: {message}"]
        assert not out.exists()

    # The fields each route reads, written out here rather than taken from
    # the program's own table: 9 for RF-LBP and the whole-image baseline,
    # 10 for RF-GLCM and forest-PPF, 12 for logistic-PPF.
    COMMON = {"method", "seed", "jobs", "threshold", "k_aug"}
    GRID = {"patch_size", "overlap", "admission_fraction"}
    LOGISTIC = {"epochs", "rate", "l2"}
    # A valid value other than its default for every field but `method`.
    OTHER = {"seed": 7, "jobs": 3, "threshold": 0.4, "k_aug": 1,
             "patch_size": 24, "overlap": 0.25, "admission_fraction": 0.5,
             "patch_classifier": "forest", "trees": 7, "epochs": 3,
             "rate": 0.02, "l2": 0.01, "glcm_levels": 32,
             "target_size": 100}

    @pytest.mark.parametrize("base, reads", [
        ({"method": "RF-LBP@1.0x"}, COMMON | GRID | {"trees"}),
        ({"method": "RF-LBP@0.5x"}, COMMON | GRID | {"trees"}),
        ({"method": "RF-GLCM@1.0x"}, COMMON | GRID | {"trees", "glcm_levels"}),
        ({"method": "RF-GLCM@0.5x"}, COMMON | GRID | {"trees", "glcm_levels"}),
        ({"method": "PPF@1.0x"}, COMMON | GRID | {"patch_classifier"}
         | LOGISTIC),
        ({"method": "PPF@0.5x"}, COMMON | GRID | {"patch_classifier"}
         | LOGISTIC),
        ({"method": "PPF@1.0x", "patch_classifier": "forest"},
         COMMON | GRID | {"patch_classifier", "trees"}),
        ({"method": "PPF@0.5x", "patch_classifier": "forest"},
         COMMON | GRID | {"patch_classifier", "trees"}),
        ({"method": "WHOLEIMAGE@0.55x"}, COMMON | {"target_size"} | LOGISTIC),
    ], ids=["rf-lbp-1.0", "rf-lbp-0.5", "rf-glcm-1.0", "rf-glcm-0.5",
            "ppf-logistic-1.0", "ppf-logistic-0.5", "ppf-forest-1.0",
            "ppf-forest-0.5", "wholeimage"])
    def test_each_method_reads_only_its_fields(self, dataset, tmp_path,
                                               capsys, base, reads):
        # Every field is either read (and valid at a value other than its
        # default) or refused through main with one stderr line.
        assert set(self.OTHER) | {"method"} == {
            f.name for f in dataclasses.fields(RunConfig)}
        for name in sorted(reads - {"method"}):
            RunConfig(**{**base, name: self.OTHER[name]}).validate()
        out = tmp_path / "out"
        path = tmp_path / "config.json"
        for name in sorted(set(self.OTHER) - reads):
            value = self.OTHER[name]
            path.write_text(json.dumps({**base, name: value}))
            capsys.readouterr()
            assert main(["cv", "--data", str(dataset), "--config", str(path),
                         "--out", str(out)]) == 3, name
            assert capsys.readouterr().err.splitlines() == [
                f"clescreen: invalid configuration: {base['method']} does "
                f"not read {name}, got {name} {value!r}"]
            assert not out.exists()

    def test_single_patient_exit_code(self, tmp_path):
        ds = tmp_path / "one"
        assert main(["synth", "--out", str(ds), "--patients", "1",
                     "--images-per-patient", "3", "--size", "320",
                     "--seed", "2"]) == 0
        rc = main(["cv", "--data", str(ds), "--method", "RF-LBP@0.5x",
                   "--trees", "4", "--out", str(tmp_path / "cvout")])
        assert rc == 5

    def test_ppf_beyond_available_memory_exit_code(self, dataset, tmp_path,
                                                   monkeypatch, capsys):
        # 36 patches of 80 x 80 px, fewer rows than columns: the cache
        # (0.88 MiB) plus the Gram matrices (7 KiB) exceed 512 KiB.
        monkeypatch.setattr(evaluation, "mem_available", lambda: 1 << 19)
        out = tmp_path / "cvppf"
        rc = main(["cv", "--data", str(dataset), "--method", "PPF@0.5x",
                   "--out", str(out), "--jobs", "1"])
        assert rc == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert "MiB" in err[0] and "only 0 MiB is available" in err[0]
        assert not out.exists()

    def test_wholeimage_beyond_available_memory_exit_code(
            self, dataset, tmp_path, monkeypatch, capsys):
        # Rows of 60000^2 float32 cannot fit: refused from the plan,
        # before any frame is read or resampled.
        monkeypatch.setattr(evaluation, "mem_available", lambda: 4 << 30)
        monkeypatch.setattr(core, "load_image",
                            lambda *args: pytest.fail("frame read"))
        cfg = tmp_path / "big.json"
        cfg.write_text(json.dumps({"target_size": 60000}))
        out = tmp_path / "cvw"
        rc = main(["cv", "--data", str(dataset), "--method",
                   "WHOLEIMAGE@0.55x", "--config", str(cfg), "--out",
                   str(out), "--jobs", "1"])
        err = capsys.readouterr().err.splitlines()
        assert rc == 3
        # 36 rows (12 frames, 24 rotated copies) of 13.4 GiB, in 3 folds.
        # Fewer rows than columns, so the folds descend over the 36 x 36
        # Gram matrix and copy no rows; nearly all they add is their
        # weights, counted as 4 float64 matrices of 60000^2 x 3.
        assert err == ["clescreen: invalid configuration: WHOLEIMAGE@0.55x "
                       "needs about 823974 MiB (row matrix 494384 MiB + "
                       "logistic folds 329589 MiB) but only 4096 MiB is "
                       "available"]
        assert not out.exists()

    def test_lbp_patch_below_largest_ring_refused_before_reading(
            self, dataset, tmp_path, capsys, monkeypatch):
        read = []
        monkeypatch.setattr(evaluation, "prepare_record_image",
                            lambda *args: read.append(args))
        out = tmp_path / "cv"
        capsys.readouterr()
        assert main(["cv", "--data", str(dataset), "--method", "RF-LBP@0.5x",
                     "--patch-size", "8", "--out", str(out)]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "clescreen: invalid configuration: RF-LBP@0.5x needs "
            "patch_size >= 11 for its largest LBP ring, got 8"]
        assert read == [] and not out.exists()

    def test_bad_config_key_exit_code(self, dataset, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"metod": "RF-LBP@0.5x"}))
        rc = main(["cv", "--data", str(dataset), "--config", str(cfg),
                   "--out", str(tmp_path / "cvb")])
        assert rc == 3

    @pytest.mark.parametrize("doc, code", [
        ({"overlap": 1.5}, 3),
        ({"overlap": -0.1}, 3),
        ({"patch_size": 1}, 3),
        ({"glcm_levels": 1}, 3),
        ({"glcm_levels": 257}, 3),
        ({"l2": -1e-3}, 3),
        ({"target_size": 1}, 3),
        # Larger than the 160 px raster at 0.5x: a property of the data.
        ({"patch_size": 200}, 6),
        ({"trees": "5"}, 3),
        ({"threshold": True}, 3),
        ({"seed": True}, 3),
        ('{"trees": 2,', 3),  # malformed JSON
        ({"l2": float("nan")}, 3),
        ({"l2": float("inf")}, 3),
        ({"rate": float("nan")}, 3),
        ({"rate": 10 ** 400}, 3),  # beyond the float range
        # Finite, but the logistic descent diverges.
        ({"method": "PPF@0.5x", "rate": 1e30, "epochs": 3}, 3),
    ])
    def test_bad_config_value_exit_code(self, dataset, tmp_path, capsys,
                                        doc, code):
        cfg = tmp_path / "bad.json"
        cfg.write_text(doc if isinstance(doc, str) else json.dumps(
            {"method": "RF-LBP@0.5x", "trees": 2, **doc}))
        capsys.readouterr()
        rc = main(["cv", "--data", str(dataset), "--config", str(cfg),
                   "--out", str(tmp_path / "cvb"), "--jobs", "1"])
        assert rc == code
        assert len(capsys.readouterr().err.splitlines()) == 1

    @pytest.mark.parametrize("levels", [1, 257])
    def test_glcm_levels_message_comes_from_the_descriptor(
            self, dataset, tmp_path, capsys, levels):
        # `GlcmConfig` owns the level rule; the run reports its message.
        with pytest.raises(ValueError) as descriptor_error:
            features.GlcmConfig(levels=levels)
        capsys.readouterr()
        rc = main(["cv", "--data", str(dataset), "--method", "RF-GLCM@0.5x",
                   "--glcm-levels", str(levels), "--out",
                   str(tmp_path / "cvg"), "--jobs", "1"])
        assert rc == 3
        assert capsys.readouterr().err.splitlines() == [
            f"clescreen: invalid configuration: {descriptor_error.value}"]

    def test_diverged_logistic_fit_names_rate(self, dataset, tmp_path,
                                              capsys):
        out = tmp_path / "cvr"
        rc = main(["cv", "--data", str(dataset), "--method", "PPF@0.5x",
                   "--rate", "1e30", "--out", str(out), "--jobs", "1"])
        err = capsys.readouterr().err.splitlines()
        assert rc == 3
        assert len(err) == 1 and "rate" in err[0]
        assert not out.exists()

    def test_frame_smaller_than_a_patch_named(self, tmp_path, capsys):
        # One 64 px frame among 176 px frames: its grid cannot hold an
        # 80 px patch, and the error names its image file.
        rng = np.random.default_rng(11)
        records = [make_record(patient=f"p{p}", frame=f,
                               label=CARCINOGENIC if f % 2 else NORMAL)
                   for p in range(2) for f in range(2)]
        for n, rec in enumerate(records):
            save_image(make_image(size=64 if n == 3 else 176, rng=rng),
                       tmp_path / rec.file)
        save_manifest(DatasetManifest(records=records, root_path=tmp_path),
                      tmp_path / "manifest.json", root=".")
        rc = main(["cv", "--data", str(tmp_path), "--method", "RF-GLCM@1.0x",
                   "--trees", "2", "--out", str(tmp_path / "cv"),
                   "--jobs", "1"])
        err = capsys.readouterr().err.splitlines()
        assert rc == 6
        assert len(err) == 1 and records[3].file in err[0]

    def test_wholeimage_baseline_on_frames_smaller_than_a_patch(
            self, tiny_frames, tmp_path):
        out = tmp_path / "cvw"
        assert main(["cv", "--data", str(tiny_frames), "--method",
                     "WHOLEIMAGE@0.55x", "--epochs", "2", "--out", str(out),
                     "--jobs", "1"]) == 0
        assert len((out / "results.csv").read_text().splitlines()) == 13

    def test_unknown_flag_usage_error(self, dataset, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["cv", "--data", str(dataset), "--method", "RF-XYZ",
                  "--out", str(tmp_path / "x")])
        assert exc.value.code == 2

    def test_dead_worker_exit_code(self, dataset, tmp_path, capsys,
                                   monkeypatch):
        # One of the two forked workers dies on its first record, as an
        # out-of-memory kill would end it.
        parent = os.getpid()
        first = load_manifest(dataset / "manifest.json").records[0]
        prepare = evaluation.prepare_record_image

        def dying(manifest, record, *rest):
            if os.getpid() != parent and record == first:
                os._exit(1)
            return prepare(manifest, record, *rest)

        monkeypatch.setattr(evaluation, "prepare_record_image", dying)
        out = tmp_path / "cv"
        rc = main(["cv", "--data", str(dataset), "--method", "RF-GLCM@0.5x",
                   "--trees", "4", "--out", str(out), "--jobs", "2"])
        err = capsys.readouterr().err
        assert rc == 7
        assert len(err.splitlines()) == 1
        assert "worker process died" in err
        assert "Traceback" not in err
        assert not (out / "results.csv").exists()


class TestFoldPass:
    @pytest.mark.parametrize("options", [
        ["--method", "RF-LBP@0.5x", "--trees", "12"],
        ["--method", "RF-GLCM@0.5x", "--trees", "12"],
        ["--method", "PPF@0.5x", "--epochs", "6"],
        ["--method", "PPF@0.5x", "--patch-classifier", "forest",
         "--trees", "8"],
        ["--method", "WHOLEIMAGE@0.55x", "--epochs", "4"],
    ], ids=["rf-lbp", "rf-glcm", "ppf-logistic", "ppf-forest", "wholeimage"])
    def test_outputs_identical_across_jobs(self, dataset, tmp_path, options):
        for jobs in ("1", "2"):
            assert main(["cv", "--data", str(dataset), "--seed", "5",
                         "--out", str(tmp_path / jobs), "--jobs", jobs,
                         *options]) == 0
        for name in ("results.csv", "roc.csv", "summary.json"):
            assert (tmp_path / "1" / name).read_bytes() == \
                (tmp_path / "2" / name).read_bytes()

    def test_dead_fold_worker_exit_code(self, dataset, tmp_path, capsys,
                                        monkeypatch):
        # Every fold's forest grows in a forked worker, and each worker
        # dies on its first fold, as an out-of-memory kill would end it.
        parent = os.getpid()
        train = forest.train_random_forest

        def dying(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(1)
            return train(*args, **kwargs)

        monkeypatch.setattr(forest, "train_random_forest", dying)
        out = tmp_path / "cv"
        rc = main(["cv", "--data", str(dataset), "--method", "RF-LBP@0.5x",
                   "--trees", "4", "--out", str(out), "--jobs", "2"])
        err = capsys.readouterr().err
        assert rc == 7
        assert len(err.splitlines()) == 1
        assert "worker process died" in err
        assert "Traceback" not in err
        assert not (out / "results.csv").exists()


class TestFuse:
    def test_path_equivalence_with_in_process_fusion(self, dataset, tmp_path):
        # Oracle: fusing a CSV of patch probabilities through the CLI must
        # equal calling the fusion library on the same numbers.
        manifest = load_manifest(dataset / "manifest.json")
        config = RunConfig(method="PPF@0.5x")
        rng = np.random.default_rng(3)
        rows = ["patient,sequence,frame,patch_index,p_c1"]
        expected = {}
        for rec in manifest.records[:5]:
            img, rects = prepare_record_image(manifest, rec, 0.5)
            coords = record_patch_coords((img.width, img.height),
                                         img.mask_center, img.mask_radius,
                                         rects, config)
            probs = rng.uniform(size=len(coords))
            for j, p in enumerate(probs):
                rows.append(f"{rec.patient},{rec.sequence},{rec.frame},{j},"
                            f"{float(p)!r}")
            expected[(rec.patient, rec.sequence, rec.frame)] = fuse(
                list(zip(coords, probs)), (img.width, img.height)).p
        probs_csv = tmp_path / "probs.csv"
        probs_csv.write_text("\n".join(rows) + "\n")

        out = tmp_path / "fused.csv"
        assert main(["fuse", "--data", str(dataset), "--probs",
                     str(probs_csv), "--scale", "0.5", "--out",
                     str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "patient,sequence,frame,label,p_image"
        assert len(lines) == 6
        for line in lines[1:]:
            patient, sequence, frame, _label, p = line.split(",")
            assert float(p) == pytest.approx(
                expected[(patient, sequence, int(frame))], abs=1e-15)

    def test_out_of_range_index_rejected(self, dataset, tmp_path):
        probs_csv = tmp_path / "probs.csv"
        probs_csv.write_text(
            "patient,sequence,frame,patch_index,p_c1\np00,s3,0,999,0.5\n")
        rc = main(["fuse", "--data", str(dataset), "--probs", str(probs_csv),
                   "--out", str(tmp_path / "f.csv")])
        assert rc == 6

    def test_columns_after_p_c1_ignored(self, dataset, tmp_path):
        # The header need only begin with the five probability columns.
        outputs = []
        for extra in ("", ",note"):
            probs_csv = tmp_path / "probs.csv"
            probs_csv.write_text(
                f"patient,sequence,frame,patch_index,p_c1{extra}\n"
                f"p00,s3,0,0,0.9{extra}\np00,s3,1,0,0.2{extra}\n")
            out = tmp_path / "f.csv"
            assert main(["fuse", "--data", str(dataset), "--probs",
                         str(probs_csv), "--out", str(out)]) == 0
            outputs.append(out.read_text())
        assert outputs[0] == outputs[1]

    def test_unmatched_row_rejected(self, dataset, tmp_path, capsys):
        # One row's patient renamed to a patient the manifest lacks.
        probs_csv = tmp_path / "probs.csv"
        probs_csv.write_text(
            "patient,sequence,frame,patch_index,p_c1\n"
            "p00,s3,0,0,0.9\nzz,s3,0,1,0.2\np00,s3,0,2,0.4\n")
        out = tmp_path / "f.csv"
        capsys.readouterr()
        rc = main(["fuse", "--data", str(dataset), "--probs", str(probs_csv),
                   "--out", str(out)])
        assert rc == 6
        assert capsys.readouterr().err.splitlines() == [
            f"clescreen: bad data: {probs_csv}: line 3: no manifest record "
            f"for zz,s3,0"]
        assert not out.exists()

    def test_duplicate_row_rejected(self, dataset, tmp_path):
        probs_csv = tmp_path / "probs.csv"
        probs_csv.write_text(
            "patient,sequence,frame,patch_index,p_c1\n"
            "p00,s3,0,0,0.9\np00,s3,0,0,0.1\n")
        rc = main(["fuse", "--data", str(dataset), "--probs", str(probs_csv),
                   "--out", str(tmp_path / "f.csv")])
        assert rc == 6


class TestReport:
    def test_report_recomputes_metrics(self, dataset, tmp_path, capsys):
        out = tmp_path / "cvr"
        assert main(["cv", "--data", str(dataset), "--method", "RF-LBP@0.5x",
                     "--trees", "12", "--seed", "5", "--out", str(out),
                     "--jobs", "2"]) == 0
        capsys.readouterr()
        assert main(["report", "--results", str(out / "results.csv")]) == 0
        doc = json.loads(capsys.readouterr().out)
        summary = json.loads((out / "summary.json").read_text())
        assert doc["accuracy"] == pytest.approx(summary["accuracy"])
        assert doc["auc"] == pytest.approx(summary["auc"])
        assert doc["n_images"] == 12

    def test_single_class_results_rejected(self, tmp_path, capsys):
        results = tmp_path / "results.csv"
        results.write_text("patient,label,p_image\np0,normal,0.2\n"
                           "p1,normal,0.7\n")
        capsys.readouterr()
        assert main(["report", "--results", str(results)]) == 6
        assert capsys.readouterr().err.splitlines() == [
            f"clescreen: bad data: {results}: all 2 rows are normal; ROC "
            f"needs both classes"]

    def test_probability_outside_unit_interval_rejected(self, tmp_path,
                                                         capsys):
        results = tmp_path / "results.csv"
        results.write_text("patient,label,p_image\np0,normal,0.2\n"
                           "p1,carcinogenic,5.0\n")
        capsys.readouterr()
        assert main(["report", "--results", str(results)]) == 6
        assert capsys.readouterr().err.splitlines() == [
            f"clescreen: bad data: {results}: line 3: p_image '5.0' is "
            f"outside [0, 1]"]
