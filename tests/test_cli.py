"""Command-line workflow tests: exit codes, determinism, CLI/API agreement."""

import dataclasses
import hashlib
import os

import numpy as np
import pytest

from peduncle import classifiers as cls
from peduncle import cloud as pc
from peduncle import config as cfgmod
from peduncle import evaluate as ev
from peduncle import pipeline as pl
from peduncle import scenegen as sg
from peduncle import workflows as wf
from peduncle.cli import load_scores, main
from peduncle.errors import FormatError

SMALL_CFG = """
image_width = 160
image_height = 120
fx = 140.0
fy = 140.0
cx = 79.5
cy = 59.5
pepper_center = 0.0 0.01 0.33
svm_max_train = 400
svm_max_passes = 40
cnn_epochs = 1
cnn_batch = 8
cnn_lr = 0.03
cnn_patches_per_scene = 8
cnn_stride = 4
thresholds = 11
"""

TINY_NET = """
input 16 16 3
conv 3 3 3 4 1 1
relu
pool 2 2
conv 3 3 4 4 1 1
relu
conv 3 3 4 4 1 1
relu
pool 2 2
inception 2 2 2 2
relu
conv 3 3 6 4 1 1
relu
inception 2 2 2 2
relu
conv 3 3 6 4 1 1
relu
conv 1 1 4 4 1 0
relu
fc 64 2
"""


def tree_hashes(directory):
    out = {}
    for root, _, names in os.walk(directory):
        for name in sorted(names):
            path = os.path.join(root, name)
            rel = os.path.relpath(path, directory)
            with open(path, "rb") as fh:
                out[rel] = hashlib.sha256(fh.read()).hexdigest()
    return out


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Scenes plus trained models, produced through the CLI itself."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "small.cfg"
    cfg.write_text(SMALL_CFG)
    net = root / "tiny.spec"
    net.write_text(TINY_NET)
    scenes = root / "scenes"
    rc = main(
        ["gen-scene", "--config", str(cfg), "--out", str(scenes), "--count", "4",
         "--train", "2", "--seed", "5"]
    )
    assert rc == 0
    manifest = str(scenes / "manifest.txt")
    models = root / "models"
    assert main(["train-nb", "--config", str(cfg), "--scenes", manifest,
                 "--split", "train", "--out", str(models)]) == 0
    feats = root / "feats"
    assert main(["extract-features", "--config", str(cfg), "--scenes", manifest,
                 "--split", "train", "--out", str(feats)]) == 0
    assert main(["train-svm", "--config", str(cfg), "--features", str(feats / "features.txt"),
                 "--out", str(models)]) == 0
    assert main(["train-cnn", "--config", str(cfg), "--scenes", manifest, "--split", "train",
                 "--netspec", str(net), "--out", str(models)]) == 0
    return {"root": root, "cfg": str(cfg), "manifest": manifest, "models": str(models)}


class TestGenScene:
    def test_same_seed_same_bytes(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(SMALL_CFG)
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            rc = main(["gen-scene", "--config", str(cfg), "--out", str(out),
                       "--count", "2", "--seed", "7"])
            assert rc == 0
        assert tree_hashes(a) == tree_hashes(b)

    def test_config_echoed(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(SMALL_CFG)
        out = tmp_path / "x"
        main(["gen-scene", "--config", str(cfg), "--out", str(out), "--count", "1", "--seed", "1"])
        echoed = cfgmod.load_config(out / "config.cfg")
        assert echoed["image_width"] == "160"


class TestExitCodes:
    def test_usage_error_is_1(self):
        assert main(["score", "--bogus-flag"]) == 1
        assert main(["no-such-command"]) == 1

    def test_data_error_is_2(self, workdir, tmp_path):
        rc = main(["train-svm", "--features", str(tmp_path / "missing.txt"),
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_no_pepper_is_3(self, workdir, tmp_path):
        # a scene whose pepper is green: the red-prior model finds nothing
        params = sg.SceneParams(
            seed=99, image_w=160, image_h=120, fx=140.0, fy=140.0, cx=79.5, cy=59.5,
            pepper_center=(0.0, 0.01, 0.33), pepper_color="green",
        )
        scene_dir = tmp_path / "green"
        scene_dir.mkdir()
        files = sg.save_scene(scene_dir, "g0000", sg.generate(params))
        (scene_dir / "manifest.txt").write_text(f"g0000 99 {' '.join(files)}\n")
        cfg = cfgmod.merged_config(workdir["cfg"])
        cfgmod.write_config(scene_dir / "config.cfg", cfg)
        rc = main(["filter", "--config", workdir["cfg"], "--scenes",
                   str(scene_dir / "manifest.txt"), "--models", workdir["models"],
                   "--detector", "pfh-svm", "--out", str(tmp_path / "f")])
        assert rc == 3
        diag = (tmp_path / "f" / "g0000_diag.csv").read_text()
        assert "NoPepperFound" in diag

    def test_raster_with_trailing_bytes_is_2(self, workdir, tmp_path):
        entry = [e for e in sg.load_manifest(workdir["manifest"]) if e["split"] == "eval"][0]
        scene = sg.load_benchmark_scene(workdir["manifest"], entry)
        scene_dir = _write_scenes(tmp_path / "scenes", workdir["cfg"], [scene])
        with open(scene_dir / "s0000_rgb.ppm", "ab") as fh:
            fh.write(b"\n")
        rc = main(["score", "--config", workdir["cfg"], "--scenes",
                   str(scene_dir / "manifest.txt"), "--models", workdir["models"],
                   "--detector", "pfh-svm", "--out", str(tmp_path / "s")])
        assert rc == 2


def _write_scenes(scene_dir, cfg_path, scenes):
    """Save scenes as s0000, s0001, ... with a manifest and the scene config."""
    scene_dir.mkdir()
    lines = []
    for i, scene in enumerate(scenes):
        files = sg.save_scene(scene_dir, f"s{i:04d}", scene)
        lines.append(f"s{i:04d} {i} {' '.join(files)}\n")
    (scene_dir / "manifest.txt").write_text("".join(lines))
    cfgmod.write_config(scene_dir / "config.cfg", cfgmod.merged_config(cfg_path))
    return scene_dir


class TestFilterCommand:
    def test_scene_without_projection_is_a_miss_in_the_batch(self, workdir, tmp_path):
        entry = [e for e in sg.load_manifest(workdir["manifest"]) if e["split"] == "eval"][0]
        normal = sg.load_benchmark_scene(workdir["manifest"], entry)
        # a small pepper-red blob in the top rows of an otherwise green
        # scene: its region of interest lies above the first row of patch
        # centres, so the patch scorer scores nothing there
        pepper = normal.labels_img == pc.LABEL_PEPPER
        rgb = np.zeros_like(normal.rgb)
        rgb[:] = (40, 140, 40)
        rgb[0:10, 60:70] = normal.rgb[pepper][:100].reshape(10, 10, 3)
        depth = normal.depth_raw.copy()
        depth[0:10, 60:70] = 330
        labels = normal.labels_img.copy()
        labels[0:10, 60:70] = pc.LABEL_PEPPER
        top = dataclasses.replace(normal, rgb=rgb, depth_raw=depth, labels_img=labels,
                                  frame=pl.Frame.from_rasters(rgb, depth, normal.frame.intr, labels))
        scene_dir = _write_scenes(tmp_path / "scenes", workdir["cfg"], [top, normal])
        out = tmp_path / "filt"
        rc = main(["filter", "--config", workdir["cfg"], "--scenes",
                   str(scene_dir / "manifest.txt"), "--models", workdir["models"],
                   "--detector", "cnn", "--out", str(out)])
        assert rc == 3
        assert "error,EmptyProjection," in (out / "s0000_diag.csv").read_text()
        # the batch went on to the second scene
        second = (out / "s0001_diag.csv").read_text()
        assert second.startswith("1,score_threshold,") or "NoPeduncleFound" in second

    def test_writes_cluster_pose_diag(self, workdir, tmp_path):
        out = tmp_path / "filt"
        rc = main(["filter", "--config", workdir["cfg"], "--scenes", workdir["manifest"],
                   "--split", "eval", "--models", workdir["models"],
                   "--detector", "pfh-svm", "--out", str(out)])
        assert rc in (0, 3)
        names = os.listdir(out)
        assert any(n.endswith("_diag.csv") for n in names)
        diags = [n for n in names if n.endswith("_diag.csv")]
        ok = [n for n in names if n.endswith("_peduncle.cloud")]
        if ok:
            cloud = pc.load_cloud(out / ok[0])
            assert len(cloud) >= 1
            pose_file = ok[0].replace("_peduncle.cloud", "_pose.txt")
            text = (out / pose_file).read_text()
            assert text.startswith("position ") and "approach " in text
        text = (out / diags[0]).read_text()
        assert text.splitlines()[0].startswith(("1,score_threshold", "error"))

    def test_deterministic_across_runs(self, workdir, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            main(["filter", "--config", workdir["cfg"], "--scenes", workdir["manifest"],
                  "--split", "eval", "--models", workdir["models"],
                  "--detector", "pfh-svm", "--out", str(out)])
        assert tree_hashes(a) == tree_hashes(b)


class TestScoreAndCurves:
    def test_score_then_pr_curve(self, workdir, tmp_path):
        out = tmp_path / "scores"
        rc = main(["score", "--config", workdir["cfg"], "--scenes", workdir["manifest"],
                   "--split", "eval", "--models", workdir["models"],
                   "--detector", "pfh-svm", "--out", str(out)])
        assert rc == 0
        dumps = sorted(str(out / n) for n in os.listdir(out) if n.endswith(".scores"))
        assert dumps
        curve_dir = tmp_path / "curve"
        rc = main(["pr-curve", "--config", workdir["cfg"], "--scores", *dumps,
                   "--out", str(curve_dir)])
        assert rc == 0
        lines = (curve_dir / "pr.csv").read_text().strip().splitlines()
        assert lines[0] == "mode,threshold,tp,fp,fn,precision,recall,f1"
        assert len(lines) == 12  # 11 thresholds

    def test_missed_scene_dump_equals_library_curve(self, workdir, tmp_path):
        entry = [e for e in sg.load_manifest(workdir["manifest"]) if e["split"] == "eval"][0]
        normal = sg.load_benchmark_scene(workdir["manifest"], entry)
        rgb = np.zeros_like(normal.rgb)
        rgb[:] = (40, 140, 40)
        green = dataclasses.replace(normal, rgb=rgb, frame=pl.Frame.from_rasters(
            rgb, normal.depth_raw, normal.frame.intr, normal.labels_img))
        scene_dir = _write_scenes(tmp_path / "scenes", workdir["cfg"], [normal, green])
        out = tmp_path / "scores"
        assert main(["score", "--config", workdir["cfg"], "--scenes",
                     str(scene_dir / "manifest.txt"), "--models", workdir["models"],
                     "--detector", "pfh-svm", "--out", str(out)]) == 0
        curve_dir = tmp_path / "curve"
        assert main(["pr-curve", "--config", workdir["cfg"], "--scores",
                     str(out / "s0000.scores"), str(out / "s0001.scores"),
                     "--out", str(curve_dir)]) == 0

        cfg = cfgmod.merged_config(workdir["cfg"])
        nb = cls.load_nb(os.path.join(workdir["models"], "nb.model"))
        svm = cls.load_svm(os.path.join(workdir["models"], "svm.model"))
        det = pl.PfhSvmDetector(svm, int(cfg["normal_k"]), int(cfg["fpfh_k"]))
        evals = [wf.score_scene(s, det, nb) for s in (normal, green)]
        thresholds = ev.default_thresholds(int(cfg["thresholds"]))
        curve = wf.pooled_raw_curve(evals, thresholds)
        expected_path = tmp_path / "expected.csv"
        ev.write_pr_csv(expected_path, [curve])
        assert (curve_dir / "pr.csv").read_text() == expected_path.read_text()
        # the green scene's positives are misses at every threshold, 0.0 included
        n_missed = int((green.cloud.labels == pc.LABEL_PEDUNCLE).sum())
        alone = wf.pooled_raw_curve(evals[:1], thresholds)
        assert n_missed > 0
        assert all(p.fn - a.fn == n_missed for a, p in zip(alone.points, curve.points))

    @pytest.mark.parametrize(
        "line",
        [
            "0.1 0.2", "0.1 0.2 0.3 zero 1", "0.1 0.2 0.3 0.4 1 7",
            "0.1 0.2 0.3 nan 1", "0.1 0.2 0.3 -inf 1", "inf 0.2 0.3 0.4 0",
        ],
    )
    def test_malformed_score_line_is_data_error(self, workdir, tmp_path, line):
        path = tmp_path / "bad.scores"
        path.write_text(f"scores v1 2\n0.0 0.0 1.0 0.5 1\n{line}\n")
        rc = main(["pr-curve", "--config", workdir["cfg"], "--scores", str(path),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        with pytest.raises(FormatError):
            load_scores(path)


class TestEvalCommand:
    def test_csv_matches_library_api(self, workdir, tmp_path):
        out = tmp_path / "eval"
        rc = main(["eval", "--config", workdir["cfg"], "--scenes", workdir["manifest"],
                   "--split", "eval", "--models", workdir["models"],
                   "--detector", "pfh-svm", "--mode", "both", "--out", str(out)])
        assert rc == 0
        csv_lines = (out / "pr.csv").read_text().strip().splitlines()

        # recompute through the library
        entries = [e for e in sg.load_manifest(workdir["manifest"]) if e["split"] == "eval"]
        scenes = [sg.load_benchmark_scene(workdir["manifest"], e) for e in entries]
        cfg = cfgmod.merged_config(workdir["cfg"])
        nb = cls.load_nb(os.path.join(workdir["models"], "nb.model"))
        svm = cls.load_svm(os.path.join(workdir["models"], "svm.model"))
        detector = pl.PfhSvmDetector(svm, int(cfg["normal_k"]), int(cfg["fpfh_k"]))
        raw, filtered, _ = wf.evaluate_detector(
            scenes, detector, nb, ev.default_thresholds(int(cfg["thresholds"]))
        )
        expected = []
        for curve in (raw, filtered):
            for p in curve.points:
                expected.append(
                    f"{curve.mode},{p.threshold!r},{p.tp},{p.fp},{p.fn},"
                    f"{p.precision!r},{p.recall!r},{p.f1!r}"
                )
        assert csv_lines[1:] == expected
        summary = (out / "summary.txt").read_text()
        assert f"raw {ev.summary_line(raw)}" in summary
        assert f"filtered {ev.summary_line(filtered)}" in summary

    def test_cnn_eval_runs(self, workdir, tmp_path):
        out = tmp_path / "evalc"
        rc = main(["eval", "--config", workdir["cfg"], "--scenes", workdir["manifest"],
                   "--split", "eval", "--models", workdir["models"],
                   "--detector", "cnn", "--mode", "raw", "--out", str(out)])
        assert rc == 0
        assert (out / "pr.csv").exists()


class TestThroughputCommand:
    def test_report_written(self, workdir, tmp_path):
        out = tmp_path / "tp"
        rc = main(["throughput", "--config", workdir["cfg"], "--scenes", workdir["manifest"],
                   "--split", "eval", "--models", workdir["models"],
                   "--detector", "pfh-svm", "--repeats", "3", "--out", str(out)])
        assert rc == 0
        text = (out / "throughput.txt").read_text()
        assert "median_rate" in text
        rate = float([l for l in text.splitlines() if l.startswith("median_rate")][0].split()[1])
        assert rate > 0
