"""Command-line workflow tests: exit codes, determinism, CLI/API agreement."""

import dataclasses
import hashlib
import inspect
import os
import shutil
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import degraded_captures, load_cloud_per_row
from scipy import ndimage

from peduncle import classifiers as cls
from peduncle import cloud as pc
from peduncle import config as cfgmod
from peduncle import evaluate as ev
from peduncle import minicnn as mc
from peduncle import pipeline as pl
from peduncle import rasters
from peduncle import scenegen as sg
from peduncle import cli
from peduncle import workflows as wf
from peduncle.cli import load_scores, main
from peduncle.errors import FormatError, NoPeduncleFound

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
        merged = tmp_path / "merged.cfg"
        cfgmod.write_config(merged, cfgmod.merged_config(cfg))
        assert (out / "config.cfg").read_bytes() == merged.read_bytes()


class TestRerunFromConfig:
    @settings(max_examples=5)
    @given(
        center=st.tuples(st.floats(-0.04, 0.04), st.floats(-0.02, 0.03), st.floats(0.3, 0.4)),
        thresholds=st.integers(1, 60),
        svm_max_train=st.integers(60, 400),
    )
    def test_every_output_directory_reruns_its_command(self, center, thresholds, svm_max_train):
        """Each command of a C7-style chain, rerun with the config.cfg of its
        output directory and the same other inputs, writes the same bytes."""
        with tempfile.TemporaryDirectory() as tmp:
            first, again = Path(tmp) / "first", Path(tmp) / "again"
            cfg = Path(tmp) / "c.cfg"
            cfg.write_text(
                f"{SMALL_CFG}pepper_center = {' '.join(map(repr, center))}\n"
                f"thresholds = {thresholds}\nsvm_max_train = {svm_max_train}\n"
            )
            manifest = str(first / "scenes" / "manifest.txt")
            chain = [
                ("scenes", ["gen-scene", "--count", "2", "--train", "1", "--seed", "3"]),
                ("models", ["train-nb", "--scenes", manifest, "--split", "train"]),
                ("feats", ["extract-features", "--scenes", manifest, "--split", "train"]),
                ("models", ["train-svm", "--features", str(first / "feats" / "features.txt")]),
                ("scores", ["score", "--scenes", manifest, "--split", "eval",
                            "--models", str(first / "models"), "--detector", "pfh-svm"]),
            ]
            for out, argv in chain:
                assert main([*argv, "--config", str(cfg), "--out", str(first / out)]) == 0
            for out, argv in chain:
                assert main([*argv, "--config", str(first / out / "config.cfg"), "--out", str(again / out)]) == 0
            for out in ("scenes", "models", "feats", "scores"):
                assert tree_hashes(again / out) == tree_hashes(first / out), out


class TestOutIsNotTheSceneDirectory:
    """A scene directory's config.cfg holds the camera its scenes are read
    with, so no command may echo its own configuration there."""

    @pytest.mark.parametrize("command", ["train-nb", "eval"])
    @pytest.mark.parametrize("spelling", ["same", "symlink"])
    def test_out_in_the_scene_directory_is_2(self, workdir, tmp_path, command, spelling):
        scene_dir = tmp_path / "scenes"
        shutil.copytree(os.path.dirname(workdir["manifest"]), scene_dir)
        before = tree_hashes(scene_dir)
        out = scene_dir
        if spelling == "symlink":
            out = tmp_path / "link"
            out.symlink_to(scene_dir, target_is_directory=True)
        inputs = {
            "train-nb": ["--split", "train"],
            "eval": ["--split", "eval", "--models", workdir["models"], "--detector", "pfh-svm"],
        }
        assert main([command, "--scenes", str(scene_dir / "manifest.txt"), "--out", str(out),
                     *inputs[command]]) == 2
        assert tree_hashes(scene_dir) == before


class TestFiveRasterLayout:
    """Scene directories written before the annotation masks were derived
    hold two more rasters per scene, `<id>_pos.pgm` and `<id>_neg.pgm`
    (8-bit P5, 0 / 255), and list all five on each manifest line."""

    @staticmethod
    def stored_masks(labels_img):
        """The rule those mask files were written with."""
        pos = labels_img == pc.LABEL_PEDUNCLE
        ring = ndimage.binary_dilation(pos, iterations=2) & ~pos
        return pos, ~pos & ~ring

    def test_loads_the_same_scenes_and_trains_the_same_net(self, workdir, tmp_path):
        scene_dir = tmp_path / "scenes"
        shutil.copytree(os.path.dirname(workdir["manifest"]), scene_dir)
        lines = []
        for entry in sg.load_manifest(workdir["manifest"]):
            files = sg.scene_files(entry["id"])
            labels = rasters.read_labels(scene_dir / files[0])
            for suffix, mask in zip(("pos", "neg"), self.stored_masks(labels)):
                files.append(f"{entry['id']}_{suffix}.pgm")
                h, w = mask.shape
                (scene_dir / files[-1]).write_bytes(
                    f"P5 {w} {h} 255\n".encode() + np.where(mask, 255, 0).astype(np.uint8).tobytes()
                )
            lines.append(f"{entry['id']} {entry['seed']} {' '.join(files)}\n")
        manifest = scene_dir / "manifest.txt"
        manifest.write_text("".join(lines))

        base = sg.scene_params(cfgmod.merged_config(workdir["cfg"]))
        draws = sg.benchmark_params(len(lines), 5, base)
        for entry, params in zip(sg.load_manifest(manifest), draws):
            loaded = sg.load_benchmark_scene(manifest, entry)
            fresh = sg.generate(params)
            for field in ("rgb", "depth_raw", "labels_img"):
                a, b = getattr(loaded, field), getattr(fresh, field)
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), field
            for field in ("points", "colors", "labels"):
                a, b = getattr(loaded.cloud, field), getattr(fresh.cloud, field)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field
            pos, neg = self.stored_masks(loaded.labels_img)
            masks = sg.annotation_masks(loaded.labels_img)
            assert np.array_equal(masks[0], pos) and np.array_equal(masks[1], neg)

        out = tmp_path / "models"
        assert main(["train-cnn", "--config", workdir["cfg"], "--scenes", str(manifest),
                     "--split", "train", "--netspec", str(workdir["root"] / "tiny.spec"),
                     "--out", str(out)]) == 0
        with open(os.path.join(workdir["models"], "net.weights"), "rb") as fh:
            assert (out / "net.weights").read_bytes() == fh.read()


class TestExitCodes:
    def test_usage_error_is_1(self):
        assert main(["score", "--bogus-flag"]) == 1
        assert main(["no-such-command"]) == 1

    def test_data_error_is_2(self, workdir, tmp_path):
        rc = main(["train-svm", "--features", str(tmp_path / "missing.txt"),
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_data_error_keeps_an_existing_out(self, workdir, tmp_path):
        out = tmp_path / "o"
        out.mkdir()
        (out / "keep.txt").write_text("earlier run")
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{SMALL_CFG}cnn_batch = 0\n")
        assert main(["train-cnn", "--config", str(cfg), "--scenes", workdir["manifest"],
                     "--split", "train", "--netspec", str(workdir["root"] / "tiny.spec"),
                     "--out", str(out)]) == 2
        assert sorted(os.listdir(out)) == ["config.cfg", "keep.txt"]
        assert (out / "keep.txt").read_text() == "earlier run"

    @pytest.mark.parametrize("n_out", [1, 3])
    def test_head_without_two_classes_is_2(self, workdir, tmp_path, n_out):
        shipped = resources.files("peduncle").joinpath("data/default_net.spec").read_text()
        spec = tmp_path / "net.spec"
        spec.write_text(shipped.replace("fc 512 2", f"fc 512 {n_out}"))
        out = tmp_path / "models"
        assert main(["train-cnn", "--config", workdir["cfg"], "--scenes", workdir["manifest"],
                     "--split", "train", "--netspec", str(spec), "--out", str(out)]) == 2
        assert not out.exists()

    def test_netspec_with_a_zero_stride_is_2(self, workdir, tmp_path):
        spec = tmp_path / "net.spec"
        spec.write_text(TINY_NET.replace("pool 2 2", "pool 2 0", 1))
        out = tmp_path / "models"
        assert main(["train-cnn", "--config", workdir["cfg"], "--scenes", workdir["manifest"],
                     "--split", "train", "--netspec", str(spec), "--out", str(out)]) == 2
        assert not out.exists()
        models = tmp_path / "zero"
        shutil.copytree(workdir["models"], models)
        (models / "net.spec").write_text(spec.read_text())
        out = tmp_path / "scores"
        assert main(["score", "--config", workdir["cfg"], "--scenes", workdir["manifest"],
                     "--models", str(models), "--detector", "cnn", "--out", str(out)]) == 2
        assert not out.exists()

    def test_svm_model_of_another_width_is_2(self, workdir, tmp_path):
        models = tmp_path / "models"
        shutil.copytree(workdir["models"], models)
        model = cls.load_svm(models / "svm.model")
        cls.save_svm(models / "svm.model", dataclasses.replace(
            model, support_vectors=model.support_vectors[:, :35],
            feature_means=model.feature_means[:35], feature_scales=model.feature_scales[:35],
        ))
        out = tmp_path / "scores"
        assert main(["score", "--config", workdir["cfg"], "--scenes", workdir["manifest"],
                     "--models", str(models), "--detector", "pfh-svm", "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("model", ["nb", "svm"])
    def test_model_parameter_outside_its_domain_is_2(self, workdir, tmp_path, model):
        """A negated NB variance (read, no pepper would be found) or SVM
        gamma (read, every point would score 1.0)."""
        models = tmp_path / "models"
        shutil.copytree(workdir["models"], models)
        if model == "nb":
            nb = cls.load_nb(models / "nb.model")
            nb.variances[0, 0] = -nb.variances[0, 0]
            cls.save_nb(models / "nb.model", nb)
        else:
            svm = cls.load_svm(models / "svm.model")
            cls.save_svm(models / "svm.model", dataclasses.replace(svm, gamma=-svm.gamma))
        out = tmp_path / "scores"
        assert main(["score", "--config", workdir["cfg"], "--scenes", workdir["manifest"],
                     "--models", str(models), "--detector", "pfh-svm", "--out", str(out)]) == 2
        assert not out.exists()

    def test_non_numeric_features_is_2(self, tmp_path):
        feats = tmp_path / "features.txt"
        feats.write_text("features v1 1 36\n" + "x " * 36 + "1\n")
        assert main(["train-svm", "--features", str(feats), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

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

    @pytest.mark.parametrize("reason", NoPeduncleFound.REASONS)
    def test_every_miss_reason_is_3(self, monkeypatch, capsys, tmp_path, reason):
        def miss(args, cfg):
            raise NoPeduncleFound(reason, "nothing here")

        monkeypatch.setattr(cli, "cmd_pr_curve", miss)
        assert main(["pr-curve", "--scores", "x.scores", "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == f"{reason}: nothing here\n"

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

    @pytest.mark.parametrize("key,value", [("fx", "inf"), ("fy", "-inf"), ("cy", "nan")])
    def test_non_finite_camera_intrinsic_is_2(self, workdir, tmp_path, key, value):
        scene_dir = _write_scenes(tmp_path / "scenes", workdir["cfg"], [_eval_scene(workdir)])
        cfg = cfgmod.load_config(scene_dir / "config.cfg")
        cfgmod.write_config(scene_dir / "config.cfg", {**cfg, key: value})
        out = tmp_path / "s"
        rc = main(["score", "--config", workdir["cfg"], "--scenes", str(scene_dir / "manifest.txt"),
                   "--models", workdir["models"], "--detector", "pfh-svm", "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "suffix,read,write",
        [
            ("labels.pgm", rasters.read_labels, rasters.write_labels),
            ("rgb.ppm", rasters.read_ppm, rasters.write_ppm),
            ("depth.pgm", rasters.read_pgm16, rasters.write_pgm16),
        ],
        ids=["labels", "rgb", "depth"],
    )
    def test_scene_rasters_of_different_sizes_are_2(self, workdir, tmp_path, suffix, read, write):
        entry = [e for e in sg.load_manifest(workdir["manifest"]) if e["split"] == "train"][0]
        scene = sg.load_benchmark_scene(workdir["manifest"], entry)
        scene_dir = _write_scenes(tmp_path / "scenes", workdir["cfg"], [scene])
        path = scene_dir / f"s0000_{suffix}"
        write(path, read(path)[:50])
        out = tmp_path / "o"
        rc = main(["train-cnn", "--config", workdir["cfg"], "--scenes",
                   str(scene_dir / "manifest.txt"), "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    def test_non_finite_cnn_weight_is_2(self, workdir, tmp_path):
        models = tmp_path / "models"
        models.mkdir()
        for name in ("nb.model", "net.spec"):
            (models / name).write_bytes(open(os.path.join(workdir["models"], name), "rb").read())
        net = mc.Network.from_netspec(mc.load_netspec(models / "net.spec"))
        net.load_weights(os.path.join(workdir["models"], "net.weights"))
        _, _, p, _ = next(iter(net.parameters()))
        p.flat[0] = np.nan
        net.save_weights(models / "net.weights")
        # every input is read before anything is written, so a bad model
        # leaves no output directory behind
        for command in ("score", "filter", "eval", "throughput"):
            out = tmp_path / command
            rc = main([command, "--config", workdir["cfg"], "--scenes", workdir["manifest"],
                       "--models", str(models), "--detector", "cnn", "--out", str(out)])
            assert rc == 2
            assert not out.exists()

    @pytest.mark.parametrize(
        "command,key,value",
        [
            ("gen-scene", "pepper_center", "0.0 abc 0.33"),
            ("gen-scene", "pepper_center", "0.0 0.01"),
            ("gen-scene", "pepper_center", "0.0 0.01 0.33 0.5"),
            ("gen-scene", "pepper_center", "0.0 nan 0.33"),
            ("gen-scene", "pepper_center", "0.5 0.01 0.33"),
            ("gen-scene", "image_width", "8"),
            ("gen-scene", "image_width", "0"),
            ("gen-scene", "fx", "0"),
            ("gen-scene", "depth_scale", "0"),
            ("pr-curve", "thresholds", "0"),
            ("pr-curve", "thresholds", "-1"),
            ("eval", "thresholds", "0"),
            ("filter", "box_vertical", "symetric"),
            ("eval", "box_vertical", "below"),
            # found only after config.cfg is written
            ("filter", "min_cluster", "0"),
            ("filter", "max_cluster", "1"),
            ("filter", "cluster_tol", "0"),
            ("filter", "pepper_min_points", "0"),
            ("filter", "pepper_cluster_tol", "-1"),
            ("score", "cnn_stride", "0"),
            ("filter", "cnn_stride", "0"),
            ("eval", "cnn_stride", "0"),
            ("extract-features", "normal_k", "2"),
            ("extract-features", "fpfh_k", "1"),
            ("train-cnn", "cnn_batch", "0"),
            ("train-cnn", "cnn_patches_per_scene", "0"),
            # settings that are not finite: a NaN limit fails every comparison
            *((command, key, value) for command in ("filter", "eval") for key, value in (
                ("score_threshold", "nan"),
                ("pepper_posterior_threshold", "nan"),
                ("h_offset", "nan"),
                ("h_offset", "inf"),
                ("cluster_tol", "inf"),
            )),
            # training settings that would write a useless model
            ("train-svm", "svm_c", "0"),
            ("train-svm", "svm_c", "-1"),
            ("train-svm", "svm_gamma", "-5"),
            ("train-svm", "svm_gamma", "nan"),
            ("train-svm", "svm_tol", "nan"),
            ("train-svm", "svm_max_passes", "-3"),
            ("train-cnn", "cnn_epochs", "0"),
            ("train-cnn", "cnn_epochs", "-2"),
            ("train-cnn", "cnn_lr", "nan"),
            ("train-cnn", "cnn_lr", "inf"),
            ("train-cnn", "cnn_lr", "-0.5"),
        ],
    )
    def test_bad_config_value_is_2(self, workdir, tmp_path, command, key, value):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{SMALL_CFG}{key} = {value}\n")
        scores = tmp_path / "a.scores"
        scores.write_text("scores v1 2\n0.0 0.0 1.0 0.5 1\n0.0 0.0 1.0 0.25 0\n")
        scenes = ["--scenes", workdir["manifest"], "--split", "eval"]
        detector = "cnn" if key == "cnn_stride" else "pfh-svm"
        inputs = {
            "gen-scene": ["--count", "1"],
            "pr-curve": ["--scores", str(scores)],
            "extract-features": scenes,
            "train-cnn": [*scenes, "--netspec", str(workdir["root"] / "tiny.spec")],
            "train-svm": ["--features", str(workdir["root"] / "feats" / "features.txt")],
        }
        for name in ("score", "filter", "eval"):
            inputs[name] = [*scenes, "--models", workdir["models"], "--detector", detector]
        out = tmp_path / "o" / "run"
        assert main([command, "--config", str(cfg), "--out", str(out), *inputs[command]]) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_threshold_flag_is_2(self, workdir, tmp_path, value):
        out = tmp_path / "o"
        assert main(["filter", "--config", workdir["cfg"], "--scenes", workdir["manifest"],
                     "--split", "eval", "--models", workdir["models"], "--detector", "pfh-svm",
                     "--threshold", value, "--out", str(out)]) == 2
        assert not out.exists()


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


def _eval_scene(workdir):
    entry = [e for e in sg.load_manifest(workdir["manifest"]) if e["split"] == "eval"][0]
    return sg.load_benchmark_scene(workdir["manifest"], entry)


def _green_scene(normal):
    """normal with every pixel recoloured green: no pepper to find."""
    rgb = np.zeros_like(normal.rgb)
    rgb[:] = (40, 140, 40)
    return sg.LabeledScene.from_rasters(rgb, normal.depth_raw, normal.frame.intr, normal.labels_img)


def _top_row_blob_scene(normal):
    """A small pepper-red blob in the top rows of an otherwise green scene:
    its region of interest lies above the first row of patch centres, so
    the patch scorer scores nothing there (EmptyProjection)."""
    pepper = normal.labels_img == pc.LABEL_PEPPER
    rgb = np.zeros_like(normal.rgb)
    rgb[:] = (40, 140, 40)
    rgb[0:10, 60:70] = normal.rgb[pepper][:100].reshape(10, 10, 3)
    depth = normal.depth_raw.copy()
    depth[0:10, 60:70] = 330
    labels = normal.labels_img.copy()
    labels[0:10, 60:70] = pc.LABEL_PEPPER
    return sg.LabeledScene.from_rasters(rgb, depth, normal.frame.intr, labels)


def signature_defaults(fn) -> dict:
    return {k: p.default for k, p in inspect.signature(fn).parameters.items()}


class TestShippedConfig:
    """The shipped config files hold the library's defaults, so a command
    run with them computes what the library's defaulted calls compute."""

    def test_detection_keys_are_the_library_defaults(self):
        assert cli._detection_params(cfgmod.default_config()) == pl.FilterParams()

    def test_feature_training_and_sweep_keys_are_the_signature_defaults(self):
        cfg = cfgmod.default_config()
        svm = cls.SvmParams()
        collect = signature_defaults(wf.collect_svm_training)
        pfh = signature_defaults(pl.PfhSvmDetector)
        cnn = signature_defaults(wf.train_cnn_from_scenes)
        expected = {
            "normal_k": [collect["normal_k"], pfh["normal_k"]],
            "fpfh_k": [collect["fpfh_k"], pfh["fpfh_k"]],
            "svm_kernel": [svm.kernel],
            "svm_c": [svm.c],
            "svm_gamma": [svm.gamma],
            "svm_tol": [svm.tol],
            "svm_max_passes": [svm.max_passes],
            "svm_max_train": [collect["max_total"]],
            "cnn_stride": [signature_defaults(pl.CnnDetector)["stride"]],
            "cnn_epochs": [cnn["epochs"]],
            "cnn_batch": [cnn["batch"]],
            "cnn_lr": [cnn["lr"]],
            "cnn_patches_per_scene": [cnn["per_scene"]],
            "thresholds": [signature_defaults(ev.default_thresholds)["n"]],
        }
        got = {key: [type(v)(cfg[key]) for v in values] for key, values in expected.items()}
        assert got == expected

    def test_camera_keys_are_the_scene_defaults(self):
        assert sg.scene_params(cfgmod.default_config()) == sg.SceneParams()

    def test_benchmark_config_is_the_benchmark_camera_and_sweep(self):
        """run_benchmark reads its camera and sweep from benchmark_config;
        test_acceptance checks that C6's curves have its thresholds."""
        cfg = cfgmod.default_config()
        cfg.update(cfgmod.parse_config(resources.files("peduncle").joinpath("data/benchmark.cfg").read_text()))
        assert cfgmod.benchmark_config() == cfg
        assert sg.scene_params(cfg) == sg.benchmark_base()


class TestExtractFeatures:
    def test_cli_svm_equals_library_svm(self, workdir, tmp_path):
        """extract-features -> train-svm trains on the sample
        workflows.collect_svm_training draws, so the model files match."""
        entries = [e for e in sg.load_manifest(workdir["manifest"]) if e["split"] == "train"]
        scenes = [sg.load_benchmark_scene(workdir["manifest"], e) for e in entries]
        cfg = cfgmod.merged_config(workdir["cfg"])
        feats, y = wf.collect_svm_training(
            scenes, int(cfg["normal_k"]), int(cfg["fpfh_k"]),
            max_total=int(cfg["svm_max_train"]), seed=0,
        )
        params = cls.SvmParams(
            kernel=cfg["svm_kernel"], c=float(cfg["svm_c"]), gamma=float(cfg["svm_gamma"]),
            tol=float(cfg["svm_tol"]), max_passes=int(cfg["svm_max_passes"]), seed=0,
        )
        path = tmp_path / "svm.model"
        cls.save_svm(path, cls.svm_train(feats, y, params))
        assert len(y) == int(cfg["svm_max_train"])
        assert path.read_bytes() == open(os.path.join(workdir["models"], "svm.model"), "rb").read()


class TestFilterCommand:
    def test_scene_without_projection_is_a_miss_in_the_batch(self, workdir, tmp_path):
        normal = _eval_scene(workdir)
        scene_dir = _write_scenes(tmp_path / "scenes", workdir["cfg"], [_top_row_blob_scene(normal), normal])
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
            cloud = load_cloud_per_row(out / ok[0])
            assert len(cloud) >= 1
            pose_file = ok[0].replace("_peduncle.cloud", "_pose.txt")
            text = (out / pose_file).read_text()
            assert text.startswith("position ") and "approach " in text
        text = (out / diags[0]).read_text()
        assert text.splitlines()[0].startswith(("1,score_threshold", "error"))

    def test_one_scene_reads_that_scene_alone(self, workdir, tmp_path):
        """`--scene` reads only the chosen scene's rasters: another scene's
        corrupt raster does not stop it."""
        normal = _eval_scene(workdir)
        scene_dir = _write_scenes(tmp_path / "scenes", workdir["cfg"], [normal, normal])
        (scene_dir / "s0000_rgb.ppm").write_bytes(b"P6 garbage")
        out = tmp_path / "filt"
        rc = main(["filter", "--config", workdir["cfg"], "--scenes", str(scene_dir / "manifest.txt"),
                   "--models", workdir["models"], "--detector", "pfh-svm", "--scene", "s0001",
                   "--out", str(out)])
        assert rc in (0, 3)
        assert (out / "s0001_diag.csv").exists() and not (out / "s0000_diag.csv").exists()

    def test_scene_not_in_the_manifest_is_2(self, workdir, tmp_path, capsys):
        out = tmp_path / "filt"
        rc = main(["filter", "--config", workdir["cfg"], "--scenes", workdir["manifest"],
                   "--models", workdir["models"], "--detector", "pfh-svm", "--scene", "nope",
                   "--out", str(out)])
        assert rc == 2 and not out.exists()
        assert capsys.readouterr().err == "error: scene 'nope' not in manifest\n"

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

    def test_missed_scene_dump_equals_library_curve(self, workdir, tmp_path, capsys):
        normal = _eval_scene(workdir)
        green = _green_scene(normal)
        scene_dir = _write_scenes(tmp_path / "scenes", workdir["cfg"], [normal, green])
        out = tmp_path / "scores"
        assert main(["score", "--config", workdir["cfg"], "--scenes",
                     str(scene_dir / "manifest.txt"), "--models", workdir["models"],
                     "--detector", "pfh-svm", "--out", str(out)]) == 0
        # the missed scene was never scored: the log names the miss, and the
        # dump holds one miss row per ground-truth peduncle point
        assert capsys.readouterr().err.splitlines()[1] == "s0001: NoPepperFound"
        n_missed = int((green.cloud.labels == pc.LABEL_PEDUNCLE).sum())
        assert n_missed > 0
        assert (out / "s0001.scores").read_text() == f"scores v1 {n_missed}\n" + "0.0 0.0 1.0 -1.0 1\n" * n_missed
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
        alone = wf.pooled_raw_curve(evals[:1], thresholds)
        assert all(p.fn - a.fn == n_missed for a, p in zip(alone.points, curve.points))

    @pytest.mark.parametrize(
        "line",
        [
            "0.1 0.2", "0.1 0.2 0.3 zero 1", "0.1 0.2 0.3 0.4 1 7",
            "0.1 0.2 0.3 nan 1", "0.1 0.2 0.3 -inf 1", "inf 0.2 0.3 0.4 0",
            "0.1 0.2 0.3 0.4 1\n0.1 0.2 0.3 0.4 1", "0.1 0.2 0.3 0.4 1\ntrailing",
            "\n0.1 0.2 0.3 0.4 1",
            # values no dump holds: labels are -1 / 0 / 1, scores lie in
            # [0, 1] or are exactly the miss score -1
            "0.1 0.2 0.3 0.4 7", "0.1 0.2 0.3 0.4 -2", "0.1 0.2 0.3 1.5 1",
            "0.1 0.2 0.3 -0.5 0", "0.1 0.2 0.3 -1.0000001 1",
        ],
    )
    def test_malformed_score_line_is_data_error(self, workdir, tmp_path, line):
        path = tmp_path / "bad.scores"
        path.write_text(f"scores v1 2\n0.0 0.0 1.0 0.5 1\n{line}\n")
        rc = main(["pr-curve", "--config", workdir["cfg"], "--scores", str(path),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert not (tmp_path / "o").exists()
        with pytest.raises(FormatError):
            load_scores(path)

    def test_scores_count_larger_than_the_file_is_data_error(self, tmp_path):
        path = tmp_path / "bad.scores"
        path.write_text("scores v1 1000000000000\n0.0 0.0 1.0 0.5 1\n")
        with pytest.raises(FormatError):
            load_scores(path)
        assert main(["pr-curve", "--scores", str(path), "--out", str(tmp_path / "o")]) == 2


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
        raw, filtered, _ = wf.evaluate_detectors(
            scenes, {"pfh-svm": detector}, nb, ev.default_thresholds(int(cfg["thresholds"]))
        )["pfh-svm"]
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

    def test_pr_csv_is_the_multi_detector_entry(self, workdir, tmp_path, capsys):
        """`eval` for one detector writes the bytes of that detector's entry
        of one evaluate_detectors call over both, and logs its notes."""
        entries = [e for e in sg.load_manifest(workdir["manifest"]) if e["split"] == "eval"]
        scenes = [sg.load_benchmark_scene(workdir["manifest"], e) for e in entries]
        cfg = cfgmod.merged_config(workdir["cfg"])
        nb = cls.load_nb(os.path.join(workdir["models"], "nb.model"))
        detectors = {name: cli._load_detector(name, workdir["models"], cfg) for name in ("pfh-svm", "cnn")}
        curves = wf.evaluate_detectors(
            scenes, detectors, nb, cli._thresholds(cfg), cli._detection_params(cfg)
        )
        for name, (raw, filtered, notes) in curves.items():
            out = tmp_path / name
            assert main(["eval", "--config", workdir["cfg"], "--scenes", workdir["manifest"],
                         "--split", "eval", "--models", workdir["models"],
                         "--detector", name, "--out", str(out)]) == 0
            logged = [*notes, "wrote pr.csv + summary.txt (both)"]
            assert capsys.readouterr().err.splitlines() == logged
            ev.write_pr_csv(tmp_path / f"{name}.csv", [raw, filtered])
            assert (out / "pr.csv").read_bytes() == (tmp_path / f"{name}.csv").read_bytes()
            summary = f"raw {ev.summary_line(raw)}\nfiltered {ev.summary_line(filtered)}\n"
            assert (out / "summary.txt").read_text() == summary

    def test_raw_mode_runs_no_filtered_sweep(self, workdir, tmp_path, monkeypatch, capsys):
        sweeps = []
        sweep = ev.eval_filtered
        monkeypatch.setattr(ev, "eval_filtered", lambda *a, **kw: sweeps.append(a) or sweep(*a, **kw))
        logs = {}
        for mode in ("raw", "both"):
            assert main(["eval", "--config", workdir["cfg"], "--scenes", workdir["manifest"],
                         "--split", "eval", "--models", workdir["models"],
                         "--detector", "pfh-svm", "--mode", mode, "--out", str(tmp_path / mode)]) == 0
            logs[mode] = capsys.readouterr().err.splitlines()
        assert len(sweeps) == 1
        both = (tmp_path / "both" / "pr.csv").read_text().splitlines()
        raw = (tmp_path / "raw" / "pr.csv").read_text().splitlines()
        assert raw == [line for line in both if not line.startswith("filtered,")]
        assert logs["raw"][:-1] == logs["both"][:-1]

    def test_no_scene_with_a_pepper_is_3(self, workdir, tmp_path, capsys):
        green = _green_scene(_eval_scene(workdir))
        scene_dir = _write_scenes(tmp_path / "scenes", workdir["cfg"], [green])
        for mode in ("raw", "both"):
            assert main(["eval", "--config", workdir["cfg"], "--scenes", str(scene_dir / "manifest.txt"),
                         "--models", workdir["models"], "--detector", "pfh-svm", "--mode", mode,
                         "--out", str(tmp_path / mode)]) == 3
            assert capsys.readouterr().err.splitlines()[-1] == "NoPepperFound: all 1 scenes missed before scoring"
            assert not (tmp_path / mode / "pr.csv").exists()

    def test_note_names_a_miss_after_the_pepper(self, workdir, tmp_path, capsys):
        """A scene whose pepper was found but whose region of interest
        scored nothing is noted as such, not as a scene without a pepper."""
        normal = _eval_scene(workdir)
        scene_dir = _write_scenes(tmp_path / "scenes", workdir["cfg"], [_top_row_blob_scene(normal), normal])
        assert main(["eval", "--config", workdir["cfg"], "--scenes", str(scene_dir / "manifest.txt"),
                     "--models", workdir["models"], "--detector", "cnn", "--mode", "raw",
                     "--out", str(tmp_path / "e")]) == 0
        assert capsys.readouterr().err.splitlines()[0] == "scene 0: pepper found, then EmptyProjection"

    def test_scenes_are_read_as_they_are_scored(self, workdir, tmp_path, monkeypatch, capsys):
        """`eval` reads each scene when it is scored: a corrupt last scene
        stops it after the first is scored, with exit 2 and no fresh --out.
        A split the manifest lacks stops it before any scene is scored."""
        normal = _eval_scene(workdir)
        scene_dir = _write_scenes(tmp_path / "scenes", workdir["cfg"], [normal, normal])
        (scene_dir / "s0001_rgb.ppm").write_bytes(b"P6 garbage")
        scored = []
        score = wf.score_scene_all
        monkeypatch.setattr(wf, "score_scene_all", lambda scene, *a: scored.append(scene) or score(scene, *a))
        for split, count in (("train", 0), ("eval", 1)):
            out = tmp_path / split / "e"
            assert main(["eval", "--config", workdir["cfg"], "--scenes", str(scene_dir / "manifest.txt"),
                         "--split", split, "--models", workdir["models"], "--detector", "pfh-svm",
                         "--out", str(out)]) == 2
            assert len(scored) == count and not (tmp_path / split).exists()
            assert capsys.readouterr().err.startswith("error: ")

    def test_cnn_eval_runs(self, workdir, tmp_path):
        out = tmp_path / "evalc"
        rc = main(["eval", "--config", workdir["cfg"], "--scenes", workdir["manifest"],
                   "--split", "eval", "--models", workdir["models"],
                   "--detector", "cnn", "--mode", "raw", "--out", str(out)])
        assert rc == 0
        assert (out / "pr.csv").exists()


class TestSceneWithoutDepth:
    """A scene whose depth raster holds no valid pixel has an empty cloud:
    it is a NoPepperFound miss, and the batch goes on with the other scene."""

    @pytest.fixture
    def scene_dir(self, workdir, tmp_path):
        normal = _eval_scene(workdir)
        no_depth = sg.LabeledScene.from_rasters(
            normal.rgb, np.zeros_like(normal.depth_raw), normal.frame.intr, normal.labels_img
        )
        return _write_scenes(tmp_path / "scenes", workdir["cfg"], [normal, no_depth])

    def run(self, workdir, scene_dir, command, out, *extra):
        return main([command, "--config", workdir["cfg"], "--scenes", str(scene_dir / "manifest.txt"),
                     "--models", workdir["models"], "--detector", "pfh-svm", *extra, "--out", str(out)])

    def test_score_writes_an_empty_dump(self, workdir, scene_dir, tmp_path):
        out = tmp_path / "scores"
        assert self.run(workdir, scene_dir, "score", out) == 0
        assert (out / "s0001.scores").read_text() == "scores v1 0\n"
        assert len(load_scores(out / "s0000.scores")[0]) > 0

    def test_filter_notes_the_miss_and_goes_on(self, workdir, scene_dir, tmp_path):
        out = tmp_path / "filt"
        assert self.run(workdir, scene_dir, "filter", out) == 3
        assert (out / "s0001_diag.csv").read_text().startswith("error,NoPepperFound,")
        first = (out / "s0000_diag.csv").read_text()
        assert first.startswith("1,score_threshold,") or "NoPeduncleFound" in first

    def test_eval_notes_the_miss(self, workdir, scene_dir, tmp_path, capsys):
        assert self.run(workdir, scene_dir, "eval", tmp_path / "e", "--mode", "both") == 0
        assert "scene 1: no pepper detected" in capsys.readouterr().err.splitlines()
        assert (tmp_path / "e" / "pr.csv").exists()


class TestDegradedCaptures:
    """filter and eval over a manifest of broken captures
    (oracles.degraded_captures) exit 0 or 3 with either detector: every
    capture is detected or missed, and filter reports each one."""

    @pytest.fixture(scope="class")
    def manifest(self, workdir, tmp_path_factory):
        captures = [scene for _, scene in degraded_captures(_eval_scene(workdir))]
        scene_dir = _write_scenes(tmp_path_factory.mktemp("degraded") / "scenes", workdir["cfg"], captures)
        return scene_dir / "manifest.txt"

    @pytest.mark.parametrize("detector", ["pfh-svm", "cnn"])
    def test_detected_or_missed(self, workdir, manifest, tmp_path, detector):
        for command in ("filter", "eval"):
            out = tmp_path / command
            assert main([command, "--config", workdir["cfg"], "--scenes", str(manifest), "--models",
                         workdir["models"], "--detector", detector, "--out", str(out)]) in (0, 3)
        reports = sorted(p.name for p in (tmp_path / "filter").glob("*_diag.csv"))
        assert reports == [f"s{i:04d}_diag.csv" for i in range(5)]


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

    def test_only_scored_points_count(self, workdir, tmp_path):
        """A scene missed before scoring adds none of its unscored positives."""
        normal = _eval_scene(workdir)
        scene_dir = _write_scenes(tmp_path / "scenes", workdir["cfg"], [_green_scene(normal), normal])
        out = tmp_path / "tp"
        assert main(["throughput", "--config", workdir["cfg"], "--scenes", str(scene_dir / "manifest.txt"),
                     "--models", workdir["models"], "--detector", "pfh-svm", "--repeats", "1",
                     "--out", str(out)]) == 0
        cfg = cfgmod.merged_config(workdir["cfg"])
        nb = cls.load_nb(os.path.join(workdir["models"], "nb.model"))
        det = cli._load_detector("pfh-svm", workdir["models"], cfg)
        units = len(wf.score_scene(normal, det, nb).scored)
        assert f"units {units}\n" in (out / "throughput.txt").read_text()

    def test_no_scene_with_a_pepper_is_3(self, workdir, tmp_path, capsys):
        green = _green_scene(_eval_scene(workdir))
        scene_dir = _write_scenes(tmp_path / "scenes", workdir["cfg"], [green, green])
        out = tmp_path / "tp"
        assert main(["throughput", "--config", workdir["cfg"], "--scenes", str(scene_dir / "manifest.txt"),
                     "--models", workdir["models"], "--detector", "pfh-svm", "--repeats", "1",
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err.splitlines()[-1] == "NoPepperFound: all 2 scenes missed before scoring"
        assert not (out / "throughput.txt").exists()

    @pytest.mark.parametrize("repeats", ["0", "-2"])
    def test_no_repeat_is_invalid_before_scoring(self, workdir, tmp_path, monkeypatch, repeats):
        scored = []
        monkeypatch.setattr(wf, "score_scene", lambda *a, **kw: scored.append(a))
        out = tmp_path / "tp"
        rc = main(["throughput", "--config", workdir["cfg"], "--scenes", workdir["manifest"],
                   "--split", "eval", "--models", workdir["models"],
                   "--detector", "pfh-svm", "--repeats", repeats, "--out", str(out)])
        assert rc == 2
        assert scored == [] and not out.exists()
