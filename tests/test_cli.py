"""End-to-end command-line behavior: subcommands, files, exit codes."""

import json

import numpy as np
import pytest

from clescreen.cli import main
from clescreen.core import load_manifest
from clescreen.evaluation import RunConfig, prepare_record_image, record_patch_coords
from clescreen.fusion import fuse


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_ds")
    rc = main(["synth", "--out", str(out), "--patients", "3",
               "--images-per-patient", "4", "--size", "320",
               "--seed", "21", "--jobs", "2"])
    assert rc == 0
    return out


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

    def test_missing_manifest_is_data_error(self, tmp_path):
        rc = main(["stats", "--data", str(tmp_path / "nowhere")])
        assert rc in (4, 6)


class TestFeaturePath:
    def test_featurize_train_predict(self, dataset, tmp_path):
        feat = tmp_path / "feat.csv"
        assert main(["featurize", "--data", str(dataset), "--features",
                     "lbp", "--scale", "0.5", "--out", str(feat),
                     "--jobs", "2"]) == 0
        header = feat.read_text().splitlines()[0].split(",")
        assert header[:4] == ["patient", "sequence", "frame", "label"]
        assert len(header) == 4 + 108
        assert header[4] == "mean:lbp:r1n8:b0"

        model = tmp_path / "model.clef"
        assert main(["train", "--features", str(feat), "--trees", "20",
                     "--seed", "3", "--out", str(model), "--jobs", "2"]) == 0
        assert model.read_bytes()[:4] == b"CLEF"

        pred = tmp_path / "pred.csv"
        assert main(["predict", "--model", str(model), "--features",
                     str(feat), "--out", str(pred)]) == 0
        lines = pred.read_text().splitlines()
        assert lines[0] == "patient,sequence,frame,label,p_image"
        assert len(lines) == 13  # 12 images

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
    ], ids=["train-short-row", "predict-short-row", "train-bad-header",
            "report-empty", "report-short-row", "report-no-label",
            "train-bad-frame", "train-bad-feature", "fuse-bad-p",
            "fuse-bad-index", "report-no-rows", "report-bad-p"])
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

    def test_glcm_featurize_dimensions(self, dataset, tmp_path):
        feat = tmp_path / "feat_glcm.csv"
        assert main(["featurize", "--data", str(dataset), "--features",
                     "glcm", "--out", str(feat), "--jobs", "2"]) == 0
        header = feat.read_text().splitlines()[0].split(",")
        assert len(header) == 4 + 30


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

    def test_patches_mode(self, dataset, tmp_path):
        out = tmp_path / "pre2"
        assert main(["preprocess", "--data", str(dataset), "--mode",
                     "patches", "--scale", "0.5", "--out", str(out)]) == 0
        lines = (out / "patches.csv").read_text().splitlines()
        assert lines[0] == "patient,sequence,frame,patch_index,c1,c2,c3,c4"
        assert len(lines) > 12


class TestCv:
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

    def test_single_patient_exit_code(self, tmp_path):
        ds = tmp_path / "one"
        assert main(["synth", "--out", str(ds), "--patients", "1",
                     "--images-per-patient", "3", "--size", "320",
                     "--seed", "2"]) == 0
        rc = main(["cv", "--data", str(ds), "--method", "RF-LBP@0.5x",
                   "--trees", "4", "--out", str(tmp_path / "cvout")])
        assert rc == 5

    def test_wholeimage_without_source_is_config_error(self, dataset, tmp_path):
        rc = main(["cv", "--data", str(dataset), "--method",
                   "WHOLEIMAGE@0.55x", "--out", str(tmp_path / "cvw")])
        assert rc == 6 or rc == 3

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
        ({"wholeimage_baseline": 1}, 3),
        ({"seed": True}, 3),
        ('{"trees": 2,', 3),  # malformed JSON
    ])
    def test_bad_config_value_exit_code(self, dataset, tmp_path, doc, code):
        cfg = tmp_path / "bad.json"
        cfg.write_text(doc if isinstance(doc, str) else json.dumps(
            {"method": "RF-LBP@0.5x", "trees": 2, **doc}))
        rc = main(["cv", "--data", str(dataset), "--config", str(cfg),
                   "--out", str(tmp_path / "cvb"), "--jobs", "1"])
        assert rc == code

    def test_unknown_flag_usage_error(self, dataset, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["cv", "--data", str(dataset), "--method", "RF-XYZ",
                  "--out", str(tmp_path / "x")])
        assert exc.value.code == 2


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
            coords = record_patch_coords(img, rects, config)
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
