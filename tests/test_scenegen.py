"""Synthetic scene generator tests: determinism, label/mask consistency,
raster geometry and the benchmark manifest machinery."""

import hashlib
import os

import numpy as np
import pytest

from peduncle import cloud as pc
from peduncle import features as ft
from peduncle import pipeline as pl
from peduncle import rasters
from peduncle import scenegen as sg
from peduncle.errors import FormatError


def small_params(seed=0, **kw):
    base = dict(
        seed=seed,
        image_w=160,
        image_h=120,
        fx=140.0,
        fy=140.0,
        cx=79.5,
        cy=59.5,
        pepper_center=(0.0, 0.01, 0.33),
    )
    base.update(kw)
    return sg.SceneParams(**base)


def file_hashes(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


class TestGenerate:
    def test_fixed_seed_bit_identical(self):
        a = sg.generate(small_params(3))
        b = sg.generate(small_params(3))
        np.testing.assert_array_equal(a.rgb, b.rgb)
        np.testing.assert_array_equal(a.depth_raw, b.depth_raw)
        np.testing.assert_array_equal(a.cloud.points, b.cloud.points)
        np.testing.assert_array_equal(a.labels_img, b.labels_img)

    def test_different_seeds_differ(self):
        a = sg.generate(small_params(1))
        b = sg.generate(small_params(2))
        assert not np.array_equal(a.rgb, b.rgb)

    def test_scene_has_all_materials(self):
        scene = sg.generate(small_params(5))
        labs = scene.cloud.labels
        assert (labs == pc.LABEL_PEPPER).sum() > 100
        assert (labs == pc.LABEL_PEDUNCLE).sum() > 20
        assert (labs == pc.LABEL_BACKGROUND).sum() > 1000

    def test_zero_noise_reprojects_exactly(self):
        scene = sg.generate(small_params(7, noise_sigma=0.0))
        uv = pl.reproject_to_pixels(scene.cloud.points, scene.frame.intr)
        np.testing.assert_allclose(uv[:, 0], scene.frame.pixels[:, 1], atol=1e-6)
        np.testing.assert_allclose(uv[:, 1], scene.frame.pixels[:, 0], atol=1e-6)

    def test_depth_positive_and_finite(self):
        scene = sg.generate(small_params(9))
        assert (scene.cloud.points[:, 2] > 0).all()
        assert np.isfinite(scene.cloud.points).all()

    def test_clean_scene_green_in_roi_is_peduncle(self):
        # no leaves, no stem, red pepper: saturated green above the fruit
        # can only be the peduncle
        scene = sg.generate(
            small_params(23, leaf_count=0, stem=False, noise_sigma=0.0, pepper_color="red")
        )
        pepper_px = scene.frame.pixels[scene.cloud.labels == pc.LABEL_PEPPER]
        roi = pl.compute_roi(pl.pixel_bbox(pepper_px), scene.rgb.shape[1], scene.rgb.shape[0])
        window = scene.labels_img[roi.y_min : roi.y_max, roi.x_min : roi.x_max]
        hsv = ft.rgb_to_hsv_array(
            scene.rgb[roi.y_min : roi.y_max, roi.x_min : roi.x_max].reshape(-1, 3)
        ).reshape(window.shape + (3,))
        green = (hsv[:, :, 1] >= 0.4) & (hsv[:, :, 0] >= 80) & (hsv[:, :, 0] <= 160)
        assert green.sum() > 20
        assert (window[green] == pc.LABEL_PEDUNCLE).all()

    def test_peduncle_above_pepper_top(self):
        scene = sg.generate(small_params(11, peduncle_flatten=0.0, noise_sigma=0.0))
        labs = scene.cloud.labels
        ped_y = scene.cloud.points[labs == pc.LABEL_PEDUNCLE, 1]
        pepper_y = scene.cloud.points[labs == pc.LABEL_PEPPER, 1]
        # camera y grows downward: the peduncle median sits above (smaller y)
        assert np.median(ped_y) < np.median(pepper_y)


class TestMasks:
    def test_peduncle_points_project_into_positive_mask(self):
        scene = sg.generate(small_params(13))
        ped = scene.cloud.labels == pc.LABEL_PEDUNCLE
        px = scene.frame.pixels[ped]
        assert scene.pos_mask[px[:, 0], px[:, 1]].all()

    def test_background_points_never_positive(self):
        scene = sg.generate(small_params(15))
        bg = scene.cloud.labels == pc.LABEL_BACKGROUND
        px = scene.frame.pixels[bg]
        assert not scene.pos_mask[px[:, 0], px[:, 1]].any()

    def test_masks_disjoint_with_unannotated_ring(self):
        scene = sg.generate(small_params(17))
        assert not (scene.pos_mask & scene.neg_mask).any()
        ring = ~scene.pos_mask & ~scene.neg_mask
        assert ring.sum() > 0  # the annotation gap exists

    def test_green_on_green_hue_overlap(self):
        scene = sg.generate(small_params(19, leaf_count=4))
        hsv = ft.rgb_to_hsv_array(scene.cloud.colors)
        labs = scene.cloud.labels
        ped_h = hsv[labs == pc.LABEL_PEDUNCLE, 0]
        green_bg = (labs == pc.LABEL_BACKGROUND) & (hsv[:, 1] > 0.4)
        bg_h = hsv[green_bg, 0]
        assert len(bg_h) > 50
        lo, hi = np.percentile(ped_h, [10, 90])
        overlap = ((bg_h >= lo) & (bg_h <= hi)).mean()
        assert overlap > 0.3  # color alone cannot separate them


class TestSceneFiles:
    def test_save_load_roundtrip(self, tmp_path):
        scene = sg.generate(small_params(21))
        files = sg.save_scene(tmp_path, "s0", scene)
        assert len(files) == 5
        loaded = sg.load_scene(tmp_path, "s0", scene.frame.intr)
        np.testing.assert_array_equal(loaded.rgb, scene.rgb)
        np.testing.assert_array_equal(loaded.depth_raw, scene.depth_raw)
        np.testing.assert_array_equal(loaded.cloud.points, scene.cloud.points)
        np.testing.assert_array_equal(loaded.cloud.labels, scene.cloud.labels)
        np.testing.assert_array_equal(loaded.pos_mask, scene.pos_mask)
        np.testing.assert_array_equal(loaded.labels_img, scene.labels_img)

    def test_raster_roundtrips(self, tmp_path):
        rng = np.random.default_rng(23)
        rgb = rng.integers(0, 256, (12, 17, 3)).astype(np.uint8)
        depth = rng.integers(0, 65536, (12, 17)).astype(np.uint16)
        mask = rng.uniform(size=(12, 17)) > 0.5
        rasters.write_ppm(tmp_path / "a.ppm", rgb)
        rasters.write_pgm16(tmp_path / "a.pgm", depth)
        rasters.write_mask(tmp_path / "m.pgm", mask)
        np.testing.assert_array_equal(rasters.read_ppm(tmp_path / "a.ppm"), rgb)
        np.testing.assert_array_equal(rasters.read_pgm16(tmp_path / "a.pgm"), depth)
        np.testing.assert_array_equal(rasters.read_mask(tmp_path / "m.pgm"), mask)

    @pytest.mark.parametrize(
        "header",
        [b"P6 x 2 255\n", b"P6 3 -2 255\n", b"P6 3 2 2.5e2\n", b"P6 10000000000 10000000000 255\n"],
    )
    def test_bad_header_field_is_format_error(self, tmp_path, header):
        path = tmp_path / "a.ppm"
        path.write_bytes(header + bytes(18))
        with pytest.raises(FormatError):
            rasters.read_ppm(path)

    def test_negative_pgm_width_is_format_error(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_bytes(b"P5 -3 2 65535\n" + bytes(12))
        with pytest.raises(FormatError):
            rasters.read_pgm16(path)

    @pytest.mark.parametrize(
        "write,read,image",
        [
            (rasters.write_ppm, rasters.read_ppm, np.zeros((2, 3, 3), dtype=np.uint8)),
            (rasters.write_pgm16, rasters.read_pgm16, np.zeros((2, 3), dtype=np.uint16)),
            (rasters.write_mask, rasters.read_mask, np.zeros((2, 3), dtype=bool)),
        ],
    )
    def test_trailing_bytes_are_format_error(self, tmp_path, write, read, image):
        path = tmp_path / "r.pnm"
        write(path, image)
        read(path)
        with open(path, "ab") as fh:
            fh.write(b"\x00")
        with pytest.raises(FormatError):
            read(path)


class TestBenchmark:
    def test_manifest_of_one(self, tmp_path):
        manifest = sg.make_benchmark(tmp_path, 1, master_seed=5, base=small_params())
        entries = sg.load_manifest(manifest)
        assert len(entries) == 1
        assert entries[0]["split"] == "train"

    def test_split_ids(self, tmp_path):
        manifest = sg.make_benchmark(tmp_path, 5, master_seed=6, n_train=2, base=small_params())
        entries = sg.load_manifest(manifest)
        assert [e["split"] for e in entries] == ["train", "train", "eval", "eval", "eval"]

    def test_different_master_seeds_differ(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        sg.make_benchmark(d1, 2, master_seed=1, base=small_params())
        sg.make_benchmark(d2, 2, master_seed=2, base=small_params())
        assert file_hashes(d1) != file_hashes(d2)

    def test_regeneration_bit_exact(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        sg.make_benchmark(d1, 3, master_seed=9, base=small_params())
        sg.make_benchmark(d2, 3, master_seed=9, base=small_params())
        h1, h2 = file_hashes(d1), file_hashes(d2)
        assert h1 == h2

    def test_loaded_scene_matches_generated(self, tmp_path):
        manifest = sg.make_benchmark(tmp_path, 2, master_seed=11, base=small_params())
        entries = sg.load_manifest(manifest)
        params = sg.benchmark_params(2, 11, small_params())
        fresh = sg.generate(params[1])
        loaded = sg.load_benchmark_scene(manifest, entries[1])
        np.testing.assert_array_equal(loaded.rgb, fresh.rgb)
        np.testing.assert_array_equal(loaded.cloud.points, fresh.cloud.points)
