"""Synthetic scene generator tests: determinism, label/mask consistency,
raster geometry and the benchmark manifest machinery."""

import hashlib
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from oracles import (
    generate_reference,
    hsv_to_rgb_six_tables,
    nearest_splats_lexsort,
    reproject_to_pixels,
    same_bytes,
)
from scipy import ndimage

from peduncle import cloud as pc
from peduncle import config as cfgmod
from peduncle import features as ft
from peduncle import pipeline as pl
from peduncle import rasters
from peduncle import scenegen as sg
from peduncle.errors import FormatError, InvalidInput


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


def small_cfg(**kw):
    """The shipped defaults with small_params()'s camera and pepper centre."""
    camera = dict(
        image_width="160", image_height="120", fx="140.0", fy="140.0", cx="79.5", cy="59.5",
        pepper_center="0.0 0.01 0.33",
    )
    return {**cfgmod.default_config(), **camera, **kw}


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
        uv = reproject_to_pixels(scene.cloud.points, scene.frame.intr)
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

    def test_wall_in_front_of_every_splat_leaves_the_wall(self):
        scene = sg.generate(small_params(25, wall_offset=-0.2, noise_sigma=0.0))
        assert (scene.labels_img == pc.LABEL_BACKGROUND).all()
        assert (scene.depth_raw == round(0.13 / scene.frame.intr.depth_scale)).all()

    def test_peduncle_above_pepper_top(self):
        scene = sg.generate(small_params(11, peduncle_flatten=0.0, noise_sigma=0.0))
        labs = scene.cloud.labels
        ped_y = scene.cloud.points[labs == pc.LABEL_PEDUNCLE, 1]
        pepper_y = scene.cloud.points[labs == pc.LABEL_PEPPER, 1]
        # camera y grows downward: the peduncle median sits above (smaller y)
        assert np.median(ped_y) < np.median(pepper_y)


# hues on and beside every sector edge, at and just below 360, negative, and
# the tiny negatives whose remainder rounds up to 360
_EDGE_HUES = [60.0 * k for k in range(-2, 8)] + [
    np.nextafter(60.0 * k, -np.inf) for k in range(1, 7)
] + [-0.0, -1e-300, -5e-324, -45.0, -359.5]
_hues = st.one_of(st.sampled_from(_EDGE_HUES), st.floats(-720.0, 720.0))
_sats = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
_vals = st.one_of(st.sampled_from([0.02, 1.0]), st.floats(0.02, 1.0))


class TestRenderingAgainstReference:
    """The z-buffer and the colour conversion against the lexsort and
    six-table forms they replaced, and whole C6 scenes against both."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), size=st.integers(1, 6), n=st.integers(0, 60))
    def test_nearest_splats_equal_lexsort_first(self, data, size, n):
        # few pixels and few depths: many splats per pixel and exact ties in z
        flat = data.draw(hnp.arrays(np.int64, n, elements=st.integers(0, size - 1)))
        depths = st.sampled_from([0.1, 0.2, 0.3]) | st.floats(0.06, 1.0)
        z = data.draw(hnp.arrays(np.float64, n, elements=depths))
        pix, win = sg._nearest_splats(flat, z, size)
        ref_pix, ref_win = nearest_splats_lexsort(flat, z)
        np.testing.assert_array_equal(pix, ref_pix)
        np.testing.assert_array_equal(win, ref_win)

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.tuples(_hues, _sats, _vals), min_size=1, max_size=40))
    def test_hsv_to_rgb_equals_six_tables(self, rows):
        h, s, v = (np.array(c, dtype=np.float64) for c in zip(*rows))
        assert same_bytes(sg._hsv_to_rgb_array(h, s, v), hsv_to_rgb_six_tables(h, s, v))

    @pytest.mark.parametrize("draw", [0, 40, 199])
    def test_c6_draw_equals_reference(self, draw):
        params = sg.benchmark_params(200, 20240, sg.benchmark_base())[draw]
        scene = sg.generate(params)
        for field, ref in zip(("rgb", "depth_raw", "labels_img"), generate_reference(params)):
            assert same_bytes(getattr(scene, field), ref), field


class TestMasks:
    def test_peduncle_points_project_into_positive_mask(self):
        scene = sg.generate(small_params(13))
        ped = scene.cloud.labels == pc.LABEL_PEDUNCLE
        px = scene.frame.pixels[ped]
        assert sg.annotation_masks(scene.labels_img)[0][px[:, 0], px[:, 1]].all()

    def test_background_points_never_positive(self):
        scene = sg.generate(small_params(15))
        bg = scene.cloud.labels == pc.LABEL_BACKGROUND
        px = scene.frame.pixels[bg]
        assert not sg.annotation_masks(scene.labels_img)[0][px[:, 0], px[:, 1]].any()

    def test_masks_disjoint_with_unannotated_ring(self):
        scene = sg.generate(small_params(17))
        pos, neg = sg.annotation_masks(scene.labels_img)
        assert not (pos & neg).any()
        ring = ~pos & ~neg
        assert ring.sum() > 0  # the annotation gap exists
        # negative is exactly the pixels more than two 4-connected steps
        # from a peduncle pixel
        steps = ndimage.distance_transform_cdt(~pos, metric="taxicab")
        np.testing.assert_array_equal(pos, scene.labels_img == pc.LABEL_PEDUNCLE)
        np.testing.assert_array_equal(neg, steps > 2)

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
        """The loaded scene equals the generated one bit for bit."""
        scene = sg.generate(small_params(21))
        sg.save_scene(tmp_path, "s0", scene)
        loaded = sg.load_scene(tmp_path, "s0", scene.frame.intr)
        for field in ("rgb", "depth_raw", "labels_img"):
            a, b = getattr(loaded, field), getattr(scene, field)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), field
        for field in ("points", "colors", "labels"):
            a, b = getattr(loaded.cloud, field), getattr(scene.cloud, field)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field
        assert loaded.frame.pixels.tobytes() == scene.frame.pixels.tobytes()

    def test_files_are_the_three_rasters(self, tmp_path):
        files = sg.save_scene(tmp_path, "s0", sg.generate(small_params(24)))
        assert files == ["s0_labels.pgm", "s0_rgb.ppm", "s0_depth.pgm"]
        assert sorted(os.listdir(tmp_path)) == sorted(files)
        with open(tmp_path / "s0_labels.pgm", "rb") as fh:
            assert fh.read(13) == b"P5 160 120 3\n"

    def test_raster_roundtrips(self, tmp_path):
        rng = np.random.default_rng(23)
        rgb = rng.integers(0, 256, (12, 17, 3)).astype(np.uint8)
        depth = rng.integers(0, 65536, (12, 17)).astype(np.uint16)
        rasters.write_ppm(tmp_path / "a.ppm", rgb)
        rasters.write_pgm16(tmp_path / "a.pgm", depth)
        np.testing.assert_array_equal(rasters.read_ppm(tmp_path / "a.ppm"), rgb)
        np.testing.assert_array_equal(rasters.read_pgm16(tmp_path / "a.pgm"), depth)

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
        "read,magic,maxval",
        [(rasters.read_ppm, b"P6", 255), (rasters.read_pgm16, b"P5", 65535), (rasters.read_labels, b"P5", 3)],
        ids=["ppm", "pgm16", "labels"],
    )
    @pytest.mark.parametrize(
        "header,message",
        [
            (b"P3 3 2 255\n", "not a {magic} raster"),
            (b"", "not a {magic} raster"),
            (b"{magic} 3 2", "truncated raster header"),
            (b"{magic} 3 # comment", "truncated raster header"),
            (b"{magic} garbage", "raster header field b'garbage' is not a non-negative integer"),
            (b"{magic} 3 -2 255\n", "raster header field b'-2' is not a non-negative integer"),
            (b"{magic} 3 2 7\n", "expected a {magic} raster with maxval {maxval}, got 7"),
        ],
        ids=["magic", "empty", "truncated", "truncated-comment", "field", "negative", "maxval"],
    )
    def test_header_fault_names_the_file(self, tmp_path, read, magic, maxval, header, message):
        path = tmp_path / "r.pnm"
        path.write_bytes(header.replace(b"{magic}", magic))
        with pytest.raises(FormatError) as fault:
            read(path)
        assert str(fault.value) == f"{path}: " + message.format(magic=magic.decode(), maxval=maxval)

    @pytest.mark.parametrize(
        "write,image",
        [(rasters.write_ppm, np.zeros((2, 3))), (rasters.write_ppm, np.zeros((2, 3, 4))),
         (rasters.write_pgm16, np.zeros((2, 3, 3))), (rasters.write_labels, np.zeros((2, 3, 1)))],
        ids=["ppm-grey", "ppm-rgba", "pgm16-rgb", "labels-3d"],
    )
    def test_pixels_of_another_shape_are_not_written(self, tmp_path, write, image):
        with pytest.raises(InvalidInput, match="pixels of shape"):
            write(tmp_path / "r.pnm", image)
        assert not (tmp_path / "r.pnm").exists()

    @pytest.mark.parametrize(
        "write,read,image",
        [
            (rasters.write_ppm, rasters.read_ppm, np.zeros((2, 3, 3), dtype=np.uint8)),
            (rasters.write_pgm16, rasters.read_pgm16, np.zeros((2, 3), dtype=np.uint16)),
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


class TestLabelImage:
    @settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(labels=hnp.arrays(np.uint8, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=9),
                             elements=st.integers(0, 3)))
    def test_roundtrip(self, tmp_path, labels):
        path = tmp_path / "l.pgm"
        rasters.write_labels(path, labels)
        got = rasters.read_labels(path)
        assert got.dtype == np.uint8 and got.shape == labels.shape
        assert np.array_equal(got, labels)
        assert got.flags.writeable

    @pytest.mark.parametrize(
        "data",
        [
            b"P6 3 2 3\n" + bytes(6),
            b"P2 3 2 3\n" + bytes(6),
            b"P5 3 2 255\n" + bytes(6),
            b"P5 3 2 65535\n" + bytes(12),
            b"P5 3 2 3\n" + bytes([0, 1, 2, 3, 4, 0]),
            b"P5 3 2 3\n" + bytes([0, 1, 2, 3, 255, 0]),
            b"P5 3 2 3\n" + bytes(5),
            b"P5 3 2 3\n" + bytes(7),
            b"P5 3 2",
            b"",
        ],
        ids=["magic-P6", "magic-P2", "maxval-255", "maxval-65535", "label-4", "label-255",
             "truncated", "trailing", "header-truncated", "empty"],
    )
    def test_malformed_file_is_format_error(self, tmp_path, data):
        path = tmp_path / "l.pgm"
        path.write_bytes(data)
        with pytest.raises(FormatError):
            rasters.read_labels(path)


class TestBenchmark:
    def test_manifest_of_one(self, tmp_path):
        manifest = sg.make_benchmark(tmp_path, 1, 5, None, small_cfg())
        entries = sg.load_manifest(manifest)
        assert len(entries) == 1
        assert entries[0]["split"] == "train"

    @pytest.mark.parametrize("seed", ["x", "1.5", "1e3"])
    def test_manifest_seed_not_an_integer_is_format_error(self, tmp_path, seed):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(f"train0000 {seed} train0000_labels.pgm\n")
        with pytest.raises(FormatError):
            sg.load_manifest(manifest)

    def test_draw_off_the_image_is_rejected_before_writing(self, tmp_path):
        # the base pepper projects one pixel inside the right edge; a later
        # draw's jitter moves it off the image
        cfg = small_cfg(pepper_center="0.187 0.01 0.33")
        sg.scene_params(cfg).validate()
        with pytest.raises(InvalidInput, match="pepper centre"):
            sg.make_benchmark(tmp_path / "out", 4, 3, None, cfg)
        assert not (tmp_path / "out").exists()

    def test_split_ids(self, tmp_path):
        manifest = sg.make_benchmark(tmp_path, 5, 6, 2, small_cfg())
        entries = sg.load_manifest(manifest)
        assert [e["split"] for e in entries] == ["train", "train", "eval", "eval", "eval"]

    def test_different_master_seeds_differ(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        sg.make_benchmark(d1, 2, 1, None, small_cfg())
        sg.make_benchmark(d2, 2, 2, None, small_cfg())
        assert file_hashes(d1) != file_hashes(d2)

    def test_regeneration_bit_exact(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        sg.make_benchmark(d1, 3, 9, None, small_cfg())
        sg.make_benchmark(d2, 3, 9, None, small_cfg())
        h1, h2 = file_hashes(d1), file_hashes(d2)
        assert h1 == h2

    def test_loaded_scene_matches_generated(self, tmp_path):
        manifest = sg.make_benchmark(tmp_path, 2, 11, None, small_cfg())
        entries = sg.load_manifest(manifest)
        params = sg.benchmark_params(2, 11, small_params())
        fresh = sg.generate(params[1])
        loaded = sg.load_benchmark_scene(manifest, entries[1])
        np.testing.assert_array_equal(loaded.rgb, fresh.rgb)
        np.testing.assert_array_equal(loaded.cloud.points, fresh.cloud.points)
