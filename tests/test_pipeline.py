"""Detection-flow tests: ROI rule, 3D box derivation, projection, the five
filtering steps and cutting-pose estimation."""

import warnings
from importlib import resources

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    PEPPER_RED,
    cnn_score_frame_reference,
    csgraph_clusters,
    degraded_captures,
    nb_posterior_rows,
    pfh_svm_score_frame_reference,
    point_features_reference,
    reproject_to_pixels,
    rgb_to_hsv_rows,
    union_find_clusters,
)

from peduncle import classifiers as cls
from peduncle import cloud as pc
from peduncle import evaluate as ev
from peduncle import features as ft
from peduncle import minicnn as mc
from peduncle import pipeline as pl
from peduncle import scenegen as sg
from peduncle import workflows as wf
from peduncle.errors import InvalidInput, NoPeduncleFound


def red_green_nb():
    """NB model separating red pepper colors from green/dull everything else."""
    rng = np.random.default_rng(0)
    red = np.column_stack(
        [rng.normal(5, 5, 300) % 360, rng.uniform(0.7, 0.95, 300), rng.uniform(0.4, 0.8, 300)]
    )
    other = np.vstack(
        [
            np.column_stack(
                [rng.normal(112, 10, 200), rng.uniform(0.4, 0.8, 200), rng.uniform(0.3, 0.7, 200)]
            ),
            np.column_stack(
                [rng.normal(95, 20, 100), rng.uniform(0.1, 0.3, 100), rng.uniform(0.1, 0.3, 100)]
            ),
        ]
    )
    return cls.nb_fit(red, other)


def red_colors(rng, n):
    from peduncle import scenegen as sg

    return sg._hsv_to_rgb_array(
        rng.normal(5, 4, n) % 360, rng.uniform(0.75, 0.9, n), rng.uniform(0.5, 0.7, n)
    )


def green_colors(rng, n):
    from peduncle import scenegen as sg

    return sg._hsv_to_rgb_array(
        rng.normal(112, 6, n), rng.uniform(0.5, 0.75, n), rng.uniform(0.4, 0.6, n)
    )


def camera(**fields):
    """Camera intrinsics with the given fields replaced."""
    return pl.CameraIntrinsics(**{"fx": 100.0, "fy": 100.0, "cx": 50.0, "cy": 40.0, "depth_scale": 0.001, **fields})


@pytest.mark.parametrize(
    "make,field",
    [
        (pl.FilterParams, "score_threshold"),
        (pl.FilterParams, "pepper_posterior_threshold"),
        (pl.FilterParams, "cluster_tol"),
        (pl.FilterParams, "pepper_cluster_tol"),
        (pl.PeduncleBoxParams, "h_offset"),
        # fx = fy = inf would put every pixel at x = y = 0
        *((camera, field) for field in ("fx", "fy", "cx", "cy", "depth_scale")),
    ],
)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_detection_setting_rejected(make, field, bad):
    with pytest.raises(InvalidInput, match=f"{field} must be finite"):
        make(**{field: bad})


@pytest.mark.parametrize("up", [(3, 1), (-1, 1), (1, 0), (1, 2), (1,), (1, -1, 0)])
def test_up_outside_the_axes_rejected(up):
    with pytest.raises(InvalidInput, match="up must be"):
        pl.FilterParams(up=up)


def test_every_parsed_up_is_accepted():
    for text in ("x", "-x", "y", "-y", "z", "-z"):
        assert pl.FilterParams(up=pl.parse_up_axis(text)).up == pl.parse_up_axis(text)


@pytest.mark.parametrize("threshold", [0.01, 0.5, 0.99])
def test_one_posterior_threshold_drives_pepper_and_step_3(threshold):
    """FilterParams.pepper_posterior_threshold is the locate step's pepper
    cut and filter step 3's: the pepper points (one cluster at a wide
    tolerance) are exactly the points step 3 drops."""
    rng = np.random.default_rng(11)
    colors = rng.integers(0, 256, (300, 3)).astype(np.uint8)
    cloud = pc.PointCloud(rng.uniform(-0.01, 0.01, (300, 3)) + [0.0, 0.0, 0.4], colors)
    nb = red_green_nb()
    fp = pl.FilterParams(pepper_posterior_threshold=threshold, pepper_cluster_tol=1.0, pepper_min_points=1)
    pepper, box = pl.detect_pepper(cloud, nb, fp)
    (not_pepper, _), _, _ = pl.threshold_clusters(pl.ScoredCloud(cloud, np.ones(300)), box, nb, [0.0], fp)
    post = cls.nb_posterior(nb, ft.rgb_to_hsv_array(colors))
    assert pepper.tolist() == np.flatnonzero(post >= threshold).tolist() and 0 < len(pepper) < 300
    assert pepper.tolist() == np.flatnonzero(~not_pepper).tolist()


class TestComputeRoi:
    def test_worked_example(self):
        box = pl.Roi2(100, 150, 200, 250)
        roi = pl.compute_roi(box, 640, 480)
        assert (roi.x_min, roi.y_min, roi.x_max, roi.y_max) == (100, 100, 200, 200)

    def test_area_preserved_when_unclipped(self):
        box = pl.Roi2(50, 200, 130, 300)
        roi = pl.compute_roi(box, 640, 480)
        assert roi.x_max - roi.x_min == box.x_max - box.x_min
        assert roi.y_max - roi.y_min == box.y_max - box.y_min

    def test_clipped_at_top(self):
        box = pl.Roi2(10, 5, 60, 65)
        roi = pl.compute_roi(box, 640, 480)
        assert roi.y_min == 0 and roi.y_max == 35
        assert roi.x_min == 10 and roi.x_max == 60

    @settings(max_examples=200)
    @given(data=st.data(), w=st.integers(1, 700), h=st.integers(1, 500))
    def test_a_box_inside_the_image_keeps_a_region(self, data, w, h):
        """Whatever pixel box inside the image a pepper has, its region of
        interest is non-empty and inside the image: its last row,
        y_max - height // 2, is at least y_min + 1. So RoiOutOfImage comes
        only from a box off the image."""
        x_min = data.draw(st.integers(0, w - 1))
        x_max = data.draw(st.integers(x_min + 1, w))
        y_min = data.draw(st.integers(0, h - 1))
        y_max = data.draw(st.integers(y_min + 1, h))
        box = pl.Roi2(x_min, y_min, x_max, y_max)
        roi = pl.compute_roi(box, w, h)
        assert (roi.x_min, roi.x_max) == (x_min, x_max)
        assert (roi.y_min, roi.y_max) == (max(y_min - box.height // 2, 0), y_max - box.height // 2)
        assert 0 <= roi.y_min < roi.y_max <= h

    def test_fully_clipped_raises(self):
        # box outside the image horizontally (violating its own pre-condition)
        box = pl.Roi2(700, 100, 760, 160)
        with pytest.raises(NoPeduncleFound) as miss:
            pl.compute_roi(box, 640, 480)
        assert miss.value.reason == "RoiOutOfImage" and miss.value.survivors == []


class TestMarginToScore:
    def test_margin_past_the_exponent_range(self):
        """exp(1000) overflows to inf, silently: the score is +0.0."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            score = pl.margin_to_score(np.array([-1000.0, 0.0, 1000.0]))
        assert score.tolist() == [0.0, 0.5, 1.0] and not np.signbit(score[0])


class TestMissType:
    def test_reason_is_one_of_four(self):
        assert NoPeduncleFound.REASONS == (
            "NoPepperFound", "RoiOutOfImage", "EmptyProjection", "NoPeduncleFound"
        )
        miss = NoPeduncleFound("RoiOutOfImage", "off the image")
        assert (miss.reason, str(miss), miss.survivors) == ("RoiOutOfImage", "off the image", [])
        with pytest.raises(ValueError):
            NoPeduncleFound("NoCamera", "not a miss reason")


class TestPeduncleBbox3:
    def test_max_rule_width_wins(self):
        box = pc.BoundingBox3([0.0, 0.0, 0.0], [0.08, 0.10, 0.07])
        out = pl.peduncle_bbox3(box, pl.PeduncleBoxParams(h_offset=0.05), up=(1, -1))
        # horizontal axes are x and z; extents 0.08 and 0.07 -> both become 0.08
        assert out.max[0] - out.min[0] == pytest.approx(0.08)
        assert out.max[2] - out.min[2] == pytest.approx(0.08)
        # centered on the pepper's horizontal center
        assert (out.max[0] + out.min[0]) / 2 == pytest.approx(0.04)
        assert (out.max[2] + out.min[2]) / 2 == pytest.approx(0.035)

    def test_vertical_span_zup_example(self):
        # pepper top at height 0.30 with z-up, offset 0.05 -> span [0.25, 0.35]
        box = pc.BoundingBox3([0.0, 0.0, 0.10], [0.08, 0.07, 0.30])
        out = pl.peduncle_bbox3(box, pl.PeduncleBoxParams(h_offset=0.05), up=(2, 1))
        assert out.min[2] == pytest.approx(0.25)
        assert out.max[2] == pytest.approx(0.35)

    def test_square_footprint_unchanged(self):
        box = pc.BoundingBox3([0.0, 0.0, 0.0], [0.06, 0.09, 0.06])
        out = pl.peduncle_bbox3(box, up=(1, -1))
        assert out.max[0] - out.min[0] == pytest.approx(0.06)
        assert out.max[2] - out.min[2] == pytest.approx(0.06)

    def test_camera_minus_y_up(self):
        # camera coords, y down: pepper top is min y
        box = pc.BoundingBox3([-0.04, -0.05, 0.30], [0.04, 0.05, 0.38])
        out = pl.peduncle_bbox3(box, pl.PeduncleBoxParams(h_offset=0.05), up=(1, -1))
        assert out.min[1] == pytest.approx(-0.10)
        assert out.max[1] == pytest.approx(0.0)

    def test_one_sided_span(self):
        box = pc.BoundingBox3([0.0, 0.0, 0.0], [0.08, 0.07, 0.30])
        out = pl.peduncle_bbox3(
            box, pl.PeduncleBoxParams(h_offset=0.05, symmetric=False), up=(2, 1)
        )
        assert out.min[2] == pytest.approx(0.30)
        assert out.max[2] == pytest.approx(0.35)


TINY_NET = (
    "input 16 16 3\nconv 3 3 3 4 1 1\nrelu\npool 2 2\nconv 3 3 4 4 1 1\nrelu\n"
    "conv 3 3 4 4 1 1\nrelu\npool 2 2\ninception 2 2 2 2\nrelu\nconv 3 3 6 4 1 1\n"
    "relu\ninception 2 2 2 2\nrelu\nconv 3 3 6 4 1 1\nrelu\nconv 1 1 4 4 1 0\nrelu\n"
    "fc 64 2\n"
)


def tiny_cnn_detector():
    return pl.CnnDetector(mc.Network.from_netspec(mc.parse_netspec(TINY_NET), seed=3))


def linear_svm(rng):
    """A hand-built two-vector linear SVM over 36-D features."""
    return cls.SvmModel(
        kernel="linear", gamma=1.0, c=1.0, bias=0.1,
        dual_coefs=np.array([1.0, -1.0]), support_vectors=rng.normal(size=(2, 36)),
        feature_means=np.zeros(36), feature_scales=np.ones(36),
    )


def blank_frame(depth, intr):
    rgb = np.zeros(depth.shape + (3,), dtype=np.uint8)
    return pl.Frame.from_rasters(rgb, depth, intr)


def cloud_rows(frame, scored):
    """The frame.cloud rows a scored cloud came from, found by pixel."""
    w = frame.depth_raw.shape[1]
    flat = frame.pixels[:, 0] * w + frame.pixels[:, 1]
    rows = np.searchsorted(flat, scored.pixels[:, 0] * w + scored.pixels[:, 1])
    assert np.array_equal(frame.pixels[rows], scored.pixels)
    return rows


class TestProjection:
    INTR = pl.CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, depth_scale=0.001)

    def test_principal_point(self):
        depth = np.zeros((480, 640), dtype=np.uint16)
        depth[240, 320] = 1000
        cloud, _ = pl.unproject_depth(depth, self.INTR)
        np.testing.assert_allclose(cloud.points[0], [0.0, 0.0, 1.0])

    def test_unit_tangent(self):
        depth = np.zeros((480, 640), dtype=np.uint16)
        depth[240, 820 % 640] = 0  # keep a single pixel: (cx + fx) is off-image for 640
        intr = pl.CameraIntrinsics(fx=100.0, fy=100.0, cx=320.0, cy=240.0, depth_scale=0.001)
        depth[240, 420] = 1000
        cloud, _ = pl.unproject_depth(depth, intr)
        np.testing.assert_allclose(cloud.points[0], [1.0, 0.0, 1.0])

    def test_forward_backward_consistency(self):
        rng = np.random.default_rng(1)
        depth = np.zeros((480, 640), dtype=np.uint16)
        n = 200
        vs = rng.integers(0, 480, n)
        us = rng.integers(0, 640, n)
        depth[vs, us] = rng.integers(200, 3000, n).astype(np.uint16)
        cloud, pixels = pl.unproject_depth(depth, self.INTR)
        uv = reproject_to_pixels(cloud.points, self.INTR)
        np.testing.assert_allclose(uv[:, 0], pixels[:, 1], atol=1e-6)
        np.testing.assert_allclose(uv[:, 1], pixels[:, 0], atol=1e-6)

    @pytest.mark.parametrize(
        "rgb_shape,labels_shape",
        [((6, 7, 3), None), ((3, 3, 3), None), ((4, 5), None), ((4, 5, 3), (2, 2)), ((4, 5, 3), (5, 4))],
        ids=["larger-rgb", "smaller-rgb", "grey-rgb", "smaller-labels", "transposed-labels"],
    )
    def test_raster_sizes_checked(self, rgb_shape, labels_shape):
        depth = np.full((4, 5), 500, dtype=np.uint16)
        labels = None if labels_shape is None else np.zeros(labels_shape, dtype=np.uint8)
        with pytest.raises(InvalidInput, match="to match depth"):
            pl.Frame.from_rasters(np.zeros(rgb_shape, dtype=np.uint8), depth, self.INTR, labels)
        frame = pl.Frame.from_rasters(np.zeros((4, 5, 3), dtype=np.uint8), depth, self.INTR, np.ones((4, 5)))
        assert len(frame.cloud) == 20 and frame.cloud.labels.tolist() == [1] * 20

    def test_invalid_depth_dropped(self):
        depth = np.zeros((10, 10), dtype=np.uint16)
        depth[5, 5] = 700
        frame = blank_frame(depth, self.INTR)
        rows = pl.roi_rows(frame, pl.Roi2(0, 0, 10, 10))
        scored = pl.scored_cloud(frame, rows, np.full(len(rows), 0.7))
        assert len(scored) == 1
        assert scored.pixels.tolist() == [[5, 5]]

    def test_all_invalid_raises(self):
        depth = np.zeros((24, 24), dtype=np.uint16)
        depth[20:, 20:] = 600          # valid depth, but outside the region of interest
        frame = blank_frame(depth, self.INTR)
        for det in (pl.PfhSvmDetector(linear_svm(np.random.default_rng(0))), tiny_cnn_detector()):
            with pytest.raises(NoPeduncleFound) as miss:
                det.score_frame(frame, pl.Roi2(0, 0, 12, 12))
            assert miss.value.reason == "EmptyProjection" and miss.value.survivors == []

    def test_scores_carried(self):
        rng = np.random.default_rng(6)
        depth = np.zeros((24, 24), dtype=np.uint16)
        depth[9, 11] = 500
        depth[14, 6] = 650
        rgb = rng.integers(0, 256, (24, 24, 3)).astype(np.uint8)
        frame = pl.Frame.from_rasters(rgb, depth, self.INTR)
        det = tiny_cnn_detector()
        roi = pl.Roi2(0, 0, 24, 24)
        scored = det.score_frame(frame, roi)
        dense = mc.densify_score_map(mc.score_map(rgb, det._infer_net, det.stride, roi), 16, 16, det.stride)
        assert scored.pixels.tolist() == [[9, 11], [14, 6]]
        assert scored.scores.tolist() == [dense.scores[9, 11], dense.scores[14, 6]]
        assert len(set(scored.scores.tolist())) == 2


class TestDepthHoles:
    """A C6 frame with any share of its depth pixels dropped, up to 99.5%,
    is detected or missed, never an error: sparse regions of interest reach
    the neighbor queries with few points and scattered neighborhoods."""

    @pytest.fixture(scope="class")
    def frame(self):
        return sg.generate(sg.benchmark_params(41, 20240, sg.benchmark_base())[40]).frame

    @pytest.mark.parametrize("make", [lambda: pl.PfhSvmDetector(linear_svm(np.random.default_rng(2))),
                                      tiny_cnn_detector], ids=["pfh-svm", "cnn"])
    @settings(max_examples=12, deadline=None)
    @given(share=st.floats(0.0, 0.995), seed=st.integers(0, 2**32 - 1))
    # the pepper still found, with a region of interest of 25 points (fewer
    # than the 30 normals need) and of 31 (every point a neighbor)
    @example(share=0.97, seed=0)
    @example(share=0.97, seed=3)
    def test_detected_or_missed(self, frame, make, share, seed):
        depth = frame.depth_raw.copy()
        depth[np.random.default_rng(seed).random(depth.shape) < share] = 0
        holed = pl.Frame.from_rasters(frame.rgb, depth, frame.intr)
        try:
            result = pl.run_detection(holed, red_green_nb(), make())
        except NoPeduncleFound:
            return
        assert len(result.filter_result.cluster) > 0 and np.isfinite(result.pose.position).all()


class TestDegradedCaptures:
    """A C6 capture that went wrong (oracles.degraded_captures: black,
    white or pepper-red RGB, the top half of the depth lost, the pepper
    moved to row 0) is detected or missed, never an error, with either
    detector; a pepper found in the frame never has its region of
    interest off the image."""

    @pytest.fixture(scope="class")
    def captures(self):
        params = sg.benchmark_params(46, 20240, sg.benchmark_base())[40:]
        return [capture for p in params for capture in degraded_captures(sg.generate(p))]

    @pytest.mark.parametrize("make", [lambda: pl.PfhSvmDetector(linear_svm(np.random.default_rng(2))),
                                      tiny_cnn_detector], ids=["pfh-svm", "cnn"])
    def test_detected_or_missed(self, captures, make):
        detector, nb = make(), red_green_nb()
        for name, scene in captures:
            try:
                result = pl.run_detection(scene.frame, nb, detector)
            except NoPeduncleFound as exc:
                assert exc.reason != "RoiOutOfImage", name
                continue
            assert len(result.filter_result.cluster) > 0 and np.isfinite(result.pose.position).all(), name


class TestOneScoringPath:
    """Both detectors hand the filter rows of frame.cloud; the CNN's scored
    cloud equals its previous depth re-projection byte for byte."""

    @pytest.fixture(scope="class")
    def frames(self, tmp_path_factory):
        params = sg.benchmark_params(43, 20240, sg.benchmark_base())[40:43]
        scenes = [sg.generate(p) for p in params]
        scene_dir = tmp_path_factory.mktemp("saved")
        sg.save_scene(scene_dir, "s0040", scenes[0])
        loaded = sg.load_scene(scene_dir, "s0040", params[0].intrinsics())
        return [s.frame for s in scenes] + [loaded.frame]

    @pytest.fixture(scope="class")
    def detectors(self):
        spec = mc.parse_netspec(resources.files("peduncle").joinpath("data/default_net.spec").read_text())
        return [
            pl.PfhSvmDetector(linear_svm(np.random.default_rng(2))),
            pl.CnnDetector(mc.Network.from_netspec(spec, seed=4)),
        ]

    @staticmethod
    def truth_roi(frame):
        pepper = frame.cloud.labels == pc.LABEL_PEPPER
        return pl.compute_roi(pl.pixel_bbox(frame.pixels[pepper]), *frame.depth_raw.shape[::-1])

    def test_scored_cloud_is_a_subset_of_frame_cloud(self, frames, detectors):
        for frame in frames:
            roi = self.truth_roi(frame)
            v, u = frame.pixels[:, 0], frame.pixels[:, 1]
            in_roi = (u >= roi.x_min) & (u < roi.x_max) & (v >= roi.y_min) & (v < roi.y_max)
            for det in detectors:
                scored = det.score_frame(frame, roi)
                rows = cloud_rows(frame, scored)
                assert len(rows) > 100 and np.all(np.diff(rows) > 0)
                assert in_roi[rows].all()
                if det.name == "pfh-svm":
                    assert np.array_equal(rows, np.flatnonzero(in_roi))
                want = frame.cloud.subset(rows)
                for got, ref in ((scored.cloud.points, want.points), (scored.cloud.colors, want.colors),
                                 (scored.cloud.labels, want.labels)):
                    assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
                assert scored.scores.shape == (len(rows),)

    def test_pfh_svm_matches_previous_path(self, frames):
        # an rbf model over real ROI features, with enough support vectors
        # for many kernel blocks
        rng = np.random.default_rng(5)
        rows = pl.roi_rows(frames[0], self.truth_roi(frames[0]))
        feats, valid = point_features_reference(frames[0].cloud.subset(rows))
        feats = feats[valid]
        means, scales = feats.mean(axis=0), np.where(feats.std(axis=0) > 0, feats.std(axis=0), 1.0)
        svs = (feats[rng.choice(len(feats), 400, replace=False)] - means) / scales
        model = cls.SvmModel(
            kernel="rbf", gamma=1.0 / 36.0, c=10.0, bias=-0.2,
            dual_coefs=rng.normal(size=400), support_vectors=svs + rng.normal(0, 0.1, svs.shape),
            feature_means=means, feature_scales=scales,
        )
        det = pl.PfhSvmDetector(model)
        for frame in frames:
            roi = self.truth_roi(frame)
            got = det.score_frame(frame, roi)
            ref = pfh_svm_score_frame_reference(det, frame, roi)
            assert np.unique(got.scores).size > 100
            pairs = (
                (got.cloud.points, ref.cloud.points), (got.cloud.colors, ref.cloud.colors),
                (got.cloud.labels, ref.cloud.labels), (got.scores, ref.scores), (got.pixels, ref.pixels),
            )
            for a, b in pairs:
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_cnn_matches_previous_projection(self, frames, detectors):
        det = detectors[1]
        for frame in frames:
            roi = self.truth_roi(frame)
            got = det.score_frame(frame, roi)
            ref = cnn_score_frame_reference(det, frame, roi)
            pairs = (
                (got.cloud.points, ref.cloud.points), (got.cloud.colors, ref.cloud.colors),
                (got.cloud.labels, ref.cloud.labels), (got.scores, ref.scores), (got.pixels, ref.pixels),
            )
            for a, b in pairs:
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestDetectPepper:
    def test_red_ellipsoid_on_green(self):
        rng = np.random.default_rng(2)
        d = rng.normal(size=(600, 3))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        pepper_pts = d * [0.03, 0.04, 0.03] + [0.0, 0.0, 0.4]
        bg_pts = rng.uniform(-0.2, 0.2, (400, 3)) + [0.0, 0.0, 0.55]
        pts = np.vstack([pepper_pts, bg_pts])
        colors = np.vstack([red_colors(rng, 600), green_colors(rng, 400)])
        labels = np.concatenate(
            [np.full(600, pc.LABEL_PEPPER, np.uint8), np.full(400, pc.LABEL_BACKGROUND, np.uint8)]
        )
        cloud = pc.PointCloud(pts, colors, labels)
        idx, box = pl.detect_pepper(cloud, red_green_nb())
        frac = (labels[idx] == pc.LABEL_PEPPER).mean()
        assert frac >= 0.95
        assert box.contains(pepper_pts).mean() > 0.95

    def test_threshold_above_max_posterior(self):
        rng = np.random.default_rng(3)
        cloud = pc.PointCloud(
            rng.uniform(0, 0.1, (50, 3)), green_colors(rng, 50)
        )
        with pytest.raises(NoPeduncleFound) as miss:
            pl.detect_pepper(cloud, red_green_nb(), pl.FilterParams(pepper_posterior_threshold=1.0))
        assert miss.value.reason == "NoPepperFound" and miss.value.survivors == []
        assert str(miss.value) == "no point above the pepper posterior threshold"

    def test_speckle_below_min_points(self):
        rng = np.random.default_rng(3)
        pts = np.vstack([rng.normal(0, 0.002, (24, 3)) + [0.0, 0.0, 0.4], rng.uniform(0, 0.1, (20, 3))])
        cloud = pc.PointCloud(pts, np.vstack([red_colors(rng, 24), green_colors(rng, 20)]))
        with pytest.raises(NoPeduncleFound) as miss:
            pl.detect_pepper(cloud, red_green_nb(), pl.FilterParams(pepper_min_points=25))
        assert miss.value.reason == "NoPepperFound" and miss.value.survivors == []
        assert str(miss.value) == "no pepper cluster above the minimum size"
        idx, _ = pl.detect_pepper(cloud, red_green_nb(), pl.FilterParams(pepper_min_points=24))
        assert idx.tolist() == list(range(24))

    def test_fewer_points_than_min_points_is_a_miss(self):
        rng = np.random.default_rng(3)
        cloud = pc.PointCloud(rng.normal(0, 0.002, (3, 3)) + [0.0, 0.0, 0.4], red_colors(rng, 3))
        with pytest.raises(NoPeduncleFound) as miss:
            pl.detect_pepper(cloud, red_green_nb(), pl.FilterParams(pepper_min_points=4))
        assert miss.value.reason == "NoPepperFound"
        assert str(miss.value) == "no pepper cluster above the minimum size"

    def test_largest_blob_wins(self):
        rng = np.random.default_rng(4)
        small = rng.normal(0, 0.004, (25, 3)) + [0.1, 0.0, 0.4]
        large = rng.normal(0, 0.008, (80, 3)) + [-0.1, 0.0, 0.4]
        pts = np.vstack([small, large])
        cloud = pc.PointCloud(pts, red_colors(rng, 105))
        idx, box = pl.detect_pepper(cloud, red_green_nb())
        assert idx.min() >= 25  # all indices from the large blob
        assert box.contains(large).mean() > 0.9


LEAF_GREEN = (40, 150, 40)


@st.composite
def blob_clouds(draw):
    """Blobs of distinct sizes, each well inside the clustering tolerance
    and 10 cm from the next, some pepper red and some green, plus green
    scatter, rows in a random order. Distinct sizes leave the largest
    cluster free of index tie-breaks."""
    sizes = draw(st.lists(st.integers(1, 30), min_size=1, max_size=4, unique=True))
    red = draw(st.lists(st.booleans(), min_size=len(sizes), max_size=len(sizes)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_scatter = draw(st.integers(0, 20))
    pts = [rng.uniform(-0.002, 0.002, (n, 3)) + [0.1 * b, 0.0, 0.4] for b, n in enumerate(sizes)]
    pts.append(rng.uniform(-0.3, 0.3, (n_scatter, 3)) + [0.0, 0.0, 0.8])
    colors = [np.tile(PEPPER_RED if r else LEAF_GREEN, (n, 1)) for n, r in zip(sizes, red)]
    colors.append(np.tile(LEAF_GREEN, (n_scatter, 1)))
    rows = rng.permutation(sum(sizes) + n_scatter)
    return pc.PointCloud(np.vstack(pts)[rows], np.vstack(colors).astype(np.uint8)[rows])


class TestDetectPepperPointOrder:
    def test_palette_separates(self):
        post = cls.nb_posterior(red_green_nb(), ft.rgb_to_hsv_array(np.array([PEPPER_RED, LEAF_GREEN], np.uint8)))
        assert post[0] > 0.99 and post[1] < 0.01

    @settings(max_examples=80)
    @given(cloud=blob_clouds(), min_points=st.integers(1, 5), data=st.data())
    def test_permuted_rows_give_permuted_pepper(self, cloud, min_points, data):
        perm = np.array(data.draw(st.permutations(range(len(cloud)))), dtype=np.intp)
        nb, params = red_green_nb(), pl.FilterParams(pepper_min_points=min_points)
        moved = cloud.subset(perm)
        try:
            want, box = pl.detect_pepper(cloud, nb, params)
        except NoPeduncleFound as miss:
            with pytest.raises(NoPeduncleFound) as moved_miss:
                pl.detect_pepper(moved, nb, params)
            assert str(moved_miss.value) == str(miss)
            return
        got, moved_box = pl.detect_pepper(moved, nb, params)
        assert got.tolist() == np.sort(np.argsort(perm)[want]).tolist()
        assert moved_box.min.tobytes() == box.min.tobytes() and moved_box.max.tobytes() == box.max.tobytes()


# a pepper's box: its peduncle box spans x in [-0.03, 0.03], y in
# [-0.05, 0.05] (up is camera -y, the top is y = 0) and z in [0.37, 0.43]
PEPPER_BOX = pc.BoundingBox3([-0.03, 0.0, 0.37], [0.03, 0.06, 0.43])


@st.composite
def scored_blob_scenes(draw):
    """A scored cloud around PEPPER_BOX: blobs of distinct sizes (2 to
    30 points, each within a 1.6 mm cube, so connected at the 3 mm cluster
    tolerance, and 1 cm from the next), each with one score and one colour
    and either inside the peduncle box or 7 cm deeper, plus single points
    1 cm apart inside the box with scores and colours of their own. Every
    cluster at every threshold is a whole blob or a single point, so sizes
    of 2 or more never tie. Returns (scored cloud, eval labels, blobs as
    (rows, score, red, in box) tuples)."""
    sizes = draw(st.lists(st.integers(2, 30), min_size=1, max_size=5, unique=True))
    levels = st.sampled_from([0.2, 0.4, 0.6, 0.8])
    scores = [draw(levels) for _ in sizes]
    red = [draw(st.booleans()) for _ in sizes]
    inside = [draw(st.booleans()) for _ in sizes]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lattice = rng.choice(36, draw(st.integers(0, 20)), replace=False)
    pts = [rng.uniform(-0.0008, 0.0008, (n, 3)) + [-0.02 + 0.01 * b, -0.02, 0.4 if i else 0.47]
           for b, (n, i) in enumerate(zip(sizes, inside))]
    pts.append(np.column_stack([-0.025 + 0.01 * (lattice % 6), np.full(len(lattice), 0.03),
                                0.375 + 0.01 * (lattice // 6)]))
    scatter_red = rng.random(len(lattice)) < 0.3
    colors = [np.tile(PEPPER_RED if r else LEAF_GREEN, (n, 1)) for n, r in zip(sizes, red)]
    colors.append(np.where(scatter_red[:, None], PEPPER_RED, LEAF_GREEN))
    starts = np.cumsum([0, *sizes])
    blobs = [(np.arange(a, b), sc, r, i) for a, b, sc, r, i in zip(starts, starts[1:], scores, red, inside)]
    scores = np.concatenate([np.repeat(scores, sizes), rng.random(len(lattice))])
    cloud = pc.PointCloud(np.vstack(pts), np.vstack(colors).astype(np.uint8))
    labels = rng.integers(-1, 2, len(cloud))
    return pl.ScoredCloud(cloud, scores), labels, blobs


class TestFilterPointOrder:
    """Permuting the scored rows permutes the cluster and leaves the
    survivor counts and the swept PR counts unchanged."""

    @settings(max_examples=100, deadline=None)
    @given(scene=scored_blob_scenes(), min_cluster=st.integers(2, 6),
           threshold=st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9]), data=st.data())
    def test_permuted_rows_give_permuted_cluster(self, scene, min_cluster, threshold, data):
        scored, labels, blobs = scene
        perm = np.array(data.draw(st.permutations(range(len(scored)))), dtype=np.intp)
        moved = pl.ScoredCloud(scored.cloud.subset(perm), scored.scores[perm])
        nb, fp = red_green_nb(), pl.FilterParams(score_threshold=threshold, min_cluster=min_cluster)
        fits = [rows for rows, score, red, inside in blobs
                if score >= threshold and not red and inside and len(rows) >= min_cluster]
        if not fits:
            misses = []
            for cloud in (scored, moved):
                with pytest.raises(NoPeduncleFound) as miss:
                    pl.filter_detections(cloud, PEPPER_BOX, nb, fp)
                misses.append(miss.value.survivors)
            assert misses[0] == misses[1] and misses[0][4][2] == 0
        else:
            want = pl.filter_detections(scored, PEPPER_BOX, nb, fp)
            got = pl.filter_detections(moved, PEPPER_BOX, nb, fp)
            assert want.cluster.tolist() == max(fits, key=len).tolist()
            assert got.cluster.tolist() == np.sort(np.argsort(perm)[want.cluster]).tolist()
            assert got.survivors == want.survivors
        thresholds = [0.7, 0.1, 0.5, 0.9, 0.3, 0.0]
        sweep = [ev.eval_filtered([ev.SceneEval(s, PEPPER_BOX, lab)], nb, thresholds, fp)[0].points
                 for s, lab in ((scored, labels), (moved, labels[perm]))]
        assert sweep[0] == sweep[1]


# a pepper on the 2**-12 m lattice, in lattice steps: its peduncle box (up is
# camera -y, half-extent max(240, 200) / 2, h_offset 208 steps) spans x in
# [-120, 120], y in [-208, 208] and z in [1520, 1760]
LATTICE = 2.0**-12
LATTICE_PEPPER = np.array([[-120, 0, 1540], [120, 240, 1740]])
LATTICE_FACES = ((-120, 120), (-208, 208), (1520, 1760))


@st.composite
def lattice_scored_scenes(draw):
    """A scored cloud in whole lattice steps around LATTICE_PEPPER: blobs
    of 1 to 30 points within 6 steps of a centre, each with one score and
    one colour. A centre coordinate is a box face, one step either side of
    it, or anywhere from 12 steps outside the box to 12 inside, so points
    sit on, just inside and just outside every face. Returns (integer
    points, colours, scores, eval labels)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.lists(st.integers(1, 30), min_size=1, max_size=8))
    centres = []
    for _ in sizes:
        centre = []
        for lo, hi in LATTICE_FACES:
            face = draw(st.sampled_from([lo, hi]))
            centre.append(draw(st.one_of(st.sampled_from([face - 1, face, face + 1]),
                                         st.integers(lo - 12, hi + 12))))
        centres.append(centre)
    pts = np.vstack([c + rng.integers(-6, 7, (n, 3)) for c, n in zip(centres, sizes)])
    red = rng.random(len(sizes)) < 0.25
    colors = np.repeat(np.where(red[:, None], PEPPER_RED, LEAF_GREEN), sizes, axis=0).astype(np.uint8)
    scores = np.repeat(rng.choice([0.2, 0.4, 0.6, 0.8], len(sizes)), sizes)
    return pts, colors, scores, rng.integers(-1, 2, len(pts))


def quarter_turns(pts, turns):
    """Integer points turned by `turns` quarter turns about the y (up) axis."""
    x, y, z = pts.T
    for _ in range(turns):
        x, z = z, -x
    return np.column_stack([x, y, z])


class TestFilterRigidMotion:
    """Quarter turns about the up axis and lattice translations of the
    scored points and the pepper's box together leave the filter's
    cluster and survivors, and the swept PR counts, unchanged. On the
    2**-12 lattice, with a dyadic tolerance and box offset, every box bound
    and squared distance is exact, so the results must be identical."""

    @settings(max_examples=150)
    @given(scene=lattice_scored_scenes(), turns=st.integers(1, 3),
           shift=st.tuples(*[st.integers(-4096, 4096)] * 3), min_cluster=st.integers(1, 6),
           threshold=st.sampled_from([0.1, 0.3, 0.5, 0.7]))
    def test_moved_scene_gives_the_same_cluster(self, scene, turns, shift, min_cluster, threshold):
        pts, colors, scores, labels = scene
        nb = red_green_nb()
        fp = pl.FilterParams(score_threshold=threshold, cluster_tol=12 * LATTICE, min_cluster=min_cluster,
                             box=pl.PeduncleBoxParams(h_offset=208 * LATTICE))
        results, sweeps = [], []
        for move in (lambda p: p, lambda p: quarter_turns(p, turns) + shift):
            scored = pl.ScoredCloud(pc.PointCloud(move(pts) * LATTICE, colors), scores)
            pepper = pc.compute_bbox(pc.PointCloud(move(LATTICE_PEPPER) * LATTICE))
            try:
                result = pl.filter_detections(scored, pepper, nb, fp)
                results.append((result.cluster.tolist(), result.survivors))
            except NoPeduncleFound as miss:
                results.append((None, miss.survivors))
            scene_eval = ev.SceneEval(scored, pepper, labels)
            sweeps.append(ev.eval_filtered([scene_eval], nb, [0.0, 0.3, 0.5, 0.7, 0.9], fp)[0].points)
        assert results[0] == results[1]
        assert sweeps[0] == sweeps[1]


@st.composite
def lattice_pepper_clouds(draw):
    """Integer points (lattice steps) and colours: blobs of 1 to 30 points
    within 6 steps of a centre in a 60-step cube, so that blobs sometimes
    touch at a 12-step tolerance, each pepper red or green, plus green
    scatter within 200 steps."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.lists(st.integers(1, 30), min_size=1, max_size=6))
    red = draw(st.lists(st.booleans(), min_size=len(sizes), max_size=len(sizes)))
    n_scatter = draw(st.integers(0, 20))
    pts = [rng.integers(-30, 31, 3) + rng.integers(-6, 7, (n, 3)) for n in sizes]
    pts.append(rng.integers(-200, 201, (n_scatter, 3)))
    colors = [np.tile(PEPPER_RED if r else LEAF_GREEN, (n, 1)) for n, r in zip(sizes, red)]
    colors.append(np.tile(LEAF_GREEN, (n_scatter, 1)))
    return np.vstack(pts) + [0, 0, 1600], np.vstack(colors).astype(np.uint8)


class TestDetectPepperRigidMotion:
    """Quarter turns about the up axis and lattice translations of the cloud
    leave the pepper rows unchanged and move the pepper box with the cloud.
    On the 2**-12 lattice, with a dyadic tolerance, every squared distance
    and box bound is exact, so both must be identical."""

    @settings(max_examples=120)
    @given(scene=lattice_pepper_clouds(), turns=st.integers(1, 3),
           shift=st.tuples(*[st.integers(-4096, 4096)] * 3), min_points=st.integers(1, 5))
    def test_moved_cloud_gives_the_same_pepper_and_the_moved_box(self, scene, turns, shift, min_points):
        pts, colors = scene
        nb, params = red_green_nb(), pl.FilterParams(pepper_cluster_tol=12 * LATTICE, pepper_min_points=min_points)

        def move(p):
            return quarter_turns(p, turns) + shift

        cloud, moved = (pc.PointCloud(p * LATTICE, colors) for p in (pts, move(pts)))
        try:
            want, box = pl.detect_pepper(cloud, nb, params)
        except NoPeduncleFound as miss:
            with pytest.raises(NoPeduncleFound) as moved_miss:
                pl.detect_pepper(moved, nb, params)
            assert str(moved_miss.value) == str(miss)
            return
        got, moved_box = pl.detect_pepper(moved, nb, params)
        assert got.tolist() == want.tolist()
        corners = np.array([box.min, box.max]) / LATTICE
        assert np.array_equal(corners, np.rint(corners))
        corners = move(corners.astype(np.int64))
        assert moved_box.min.tobytes() == (corners.min(axis=0) * LATTICE).tobytes()
        assert moved_box.max.tobytes() == (corners.max(axis=0) * LATTICE).tobytes()


class TestDetectPepperOnC6:
    def test_pinned_to_dense_cluster_oracle(self):
        """On C6 evaluation draws 40-45, with the pepper model fitted on the
        40 training draws, the pepper points are byte for byte the first
        cluster of the dense-distance and the union-find oracles over the
        same candidates, which see every pair within the tolerance where
        the library sees connecting_pairs' sparse edge list. The box is
        their min / max, and the region of interest is their pixel box
        shifted up by half its height and clipped to the image."""
        params = sg.benchmark_params(46, 20240, sg.benchmark_base())
        nb = wf.train_nb_from_scenes(sg.generate(p) for p in params[:40])
        fp = pl.FilterParams()
        for p in params[40:]:
            frame = sg.generate(p).frame
            cloud = frame.cloud
            got, box, roi = pl.locate_pepper(frame, nb, fp)
            post = nb_posterior_rows(nb, rgb_to_hsv_rows(cloud.colors))
            assert cls.nb_posterior(nb, ft.rgb_to_hsv_array(cloud.colors)).tobytes() == post.tobytes()
            candidates = np.flatnonzero(post >= fp.pepper_posterior_threshold)
            want = csgraph_clusters(cloud.points, candidates, fp.pepper_cluster_tol, fp.pepper_min_points, len(cloud))[0]
            assert len(want) > 500
            assert want == union_find_clusters(
                cloud.points, candidates, fp.pepper_cluster_tol, fp.pepper_min_points, len(cloud)
            )[0]
            assert got.dtype == np.intp and got.tobytes() == np.asarray(want, dtype=np.intp).tobytes()
            assert box.min.tobytes() == cloud.points[got].min(axis=0).tobytes()
            assert box.max.tobytes() == cloud.points[got].max(axis=0).tobytes()
            v, u = frame.pixels[got, 0], frame.pixels[got, 1]
            half = (v.max() + 1 - v.min()) // 2
            h, w = frame.depth_raw.shape
            want_roi = (max(u.min(), 0), max(v.min() - half, 0), min(u.max() + 1, w), min(v.max() + 1 - half, h))
            assert (roi.x_min, roi.y_min, roi.x_max, roi.y_max) == want_roi


class TestFilterDetections:
    def build_scene(self):
        """Scored cloud with planted violators, and the box of a pepper at
        origin top 0.4m.

        Camera coords (y down): pepper spans y in [-0.05, 0.05]; peduncle
        sits above (y < -0.05).
        """
        rng = np.random.default_rng(5)
        pepper_pts = rng.uniform(-0.04, 0.04, (200, 3)) * [1, 1, 0.2] + [0.0, 0.0, 0.4]
        pepper_pts[:, 1] = rng.uniform(-0.05, 0.05, 200)

        peduncle = rng.uniform(-0.001, 0.001, (30, 3)) + [0.0, 0.0, 0.4]
        peduncle[:, 1] = np.linspace(-0.09, -0.055, 30)  # tight 3.5 cm stalk
        leaf = rng.uniform(-0.01, 0.01, (20, 3)) + [0.0, -0.08, 0.55]  # outside box depth
        red_bits = rng.uniform(-0.002, 0.002, (10, 3)) + [0.01, -0.06, 0.4]
        tiny = np.array([[0.03, -0.06, 0.4], [0.0301, -0.0601, 0.4], [0.0302, -0.0602, 0.4]])
        low_score = rng.uniform(-0.01, 0.01, (40, 3)) + [-0.02, -0.07, 0.4]

        pts = np.vstack([peduncle, leaf, red_bits, tiny, low_score])
        colors = np.vstack(
            [
                green_colors(rng, 30),
                green_colors(rng, 20),
                red_colors(rng, 10),
                green_colors(rng, 3),
                green_colors(rng, 40),
            ]
        )
        scores = np.concatenate([np.full(30, 0.9), np.full(20, 0.95), np.full(10, 0.9),
                                 np.full(3, 0.9), np.full(40, 0.1)])
        scored = pl.ScoredCloud(pc.PointCloud(pts, colors), scores)
        return scored, pc.compute_bbox(pc.PointCloud(pepper_pts))

    def test_steps_remove_planted_violators(self):
        scored, pepper_box = self.build_scene()
        fp = pl.FilterParams(score_threshold=0.5, cluster_tol=0.003, min_cluster=5)
        result = pl.filter_detections(scored, pepper_box, red_green_nb(), fp)
        names = [name for _, name, _ in result.survivors]
        counts = [c for _, _, c in result.survivors]
        assert names == [
            "score_threshold",
            "project_to_3d",
            "hsv_pepper_removal",
            "bbox3",
            "largest_cluster",
        ]
        # step 1 cuts the 40 low-score points: 63 remain
        assert counts[0] == counts[1] == 63
        # step 3 cuts the 10 red points: 53
        assert counts[2] == 53
        # step 4 cuts the 20-point leaf blob (wrong depth): 33
        assert counts[3] == 33
        # step 5 drops the 3-point crumb, keeps the 30-point peduncle
        assert counts[4] == 30
        assert np.array_equal(result.cluster, np.arange(30))

    def test_score_at_the_threshold_passes(self):
        """Step 1 keeps the points scoring at least the threshold: at a
        threshold of exactly the peduncle's 0.9 the peduncle survives."""
        scored, pepper_box = self.build_scene()
        fp = pl.FilterParams(score_threshold=0.9, cluster_tol=0.003, min_cluster=5)
        result = pl.filter_detections(scored, pepper_box, red_green_nb(), fp)
        assert [c for _, _, c in result.survivors] == [63, 63, 53, 33, 30]
        assert np.array_equal(result.cluster, np.arange(30))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_score_rejected(self, bad):
        scored, pepper_box = self.build_scene()
        scored.scores[3] = bad
        with pytest.raises(InvalidInput):
            pl.filter_detections(scored, pepper_box, red_green_nb(), pl.FilterParams())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_score_rejected_by_filtered_sweep(self, bad):
        scored, pepper_box = self.build_scene()
        scored.scores[3] = bad
        labels = np.zeros(len(scored), dtype=np.int64)
        labels[:30] = ev.POSITIVE
        with pytest.raises(InvalidInput):
            ev.eval_filtered([ev.SceneEval(scored, pepper_box, labels)], red_green_nb())

    def test_threshold_above_everything(self):
        scored, pepper_box = self.build_scene()
        fp = pl.FilterParams(score_threshold=0.99)
        with pytest.raises(NoPeduncleFound) as miss:
            pl.filter_detections(scored, pepper_box, red_green_nb(), fp)
        assert miss.value.reason == "NoPeduncleFound"
        assert [name for _, name, _ in miss.value.survivors][-1] == "largest_cluster"
        assert miss.value.survivors[0][2] == 0 and miss.value.survivors[4][2] == 0

    @pytest.mark.parametrize("case", ["empty grid", "nothing in box", "thresholds above scores"])
    def test_nothing_to_cluster(self, case):
        """No threshold, no point passing the colour and box masks, or no
        point scoring at the lowest threshold: no cluster, every positive a
        false negative, and the filter at each threshold reports 0 survivors
        at step 5."""
        scored, pepper_box = self.build_scene()
        nb = red_green_nb()
        thresholds = {"empty grid": [], "thresholds above scores": [1.0, 0.96, 0.99]}.get(case, [0.0, 0.5, 0.9])
        if case == "nothing in box":
            pepper_box = pc.BoundingBox3(pepper_box.min + [0.0, 0.0, 1.0], pepper_box.max + [0.0, 0.0, 1.0])
        _, clusters, which = pl.threshold_clusters(scored, pepper_box, nb, thresholds)
        assert all(c is None for c in clusters) and len(which) == len(thresholds)
        labels = np.zeros(len(scored), dtype=np.int64)
        labels[:30] = ev.POSITIVE
        curve, notes = ev.eval_filtered([ev.SceneEval(scored, pepper_box, labels)], nb, thresholds)
        assert [(p.threshold, p.tp, p.fp, p.fn, p.tn) for p in curve.points] == \
               [(t, 0, 0, 30, len(scored) - 30) for t in thresholds] and notes == []
        for t in thresholds:
            with pytest.raises(NoPeduncleFound) as miss:
                pl.filter_detections(scored, pepper_box, nb, pl.FilterParams(score_threshold=t))
            assert miss.value.survivors[4] == (5, "largest_cluster", 0)

    def test_survivors_nonincreasing(self):
        scored, pepper_box = self.build_scene()
        result = pl.filter_detections(scored, pepper_box, red_green_nb(), pl.FilterParams())
        counts = [c for _, _, c in result.survivors[:4]]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_monotone_in_threshold_before_clustering(self):
        scored, pepper_box = self.build_scene()
        nb = red_green_nb()
        prev = None
        for t in (0.05, 0.5, 0.92, 0.97):
            try:
                res = pl.filter_detections(
                    scored, pepper_box, nb, pl.FilterParams(score_threshold=t, min_cluster=1)
                )
                survivors = res.survivors
            except NoPeduncleFound as exc:
                survivors = exc.survivors
            step4 = survivors[3][2]
            if prev is not None:
                assert step4 <= prev
            prev = step4

    def test_cluster_points_inside_box_and_not_pepper(self):
        scored, pepper_box = self.build_scene()
        nb = red_green_nb()
        result = pl.filter_detections(scored, pepper_box, nb, pl.FilterParams())
        from peduncle import features as ft

        pts = scored.cloud.points[result.cluster]
        box = pl.peduncle_bbox3(pepper_box)
        assert box.contains(pts).all()
        post = cls.nb_posterior(nb, ft.rgb_to_hsv_array(scored.cloud.colors[result.cluster]))
        assert (post < 0.5).all()

    def test_deterministic(self):
        scored, pepper_box = self.build_scene()
        nb = red_green_nb()
        a = pl.filter_detections(scored, pepper_box, nb, pl.FilterParams())
        b = pl.filter_detections(scored, pepper_box, nb, pl.FilterParams())
        np.testing.assert_array_equal(a.cluster, b.cluster)
        assert a.survivors == b.survivors

    def test_diagnostics_format(self):
        scored, pepper_box = self.build_scene()
        result = pl.filter_detections(scored, pepper_box, red_green_nb(), pl.FilterParams())
        text = pl.format_diagnostics(result.survivors)
        lines = text.strip().split("\n")
        assert len(lines) == 5
        assert lines[0] == "1,score_threshold,63"
        assert all(len(line.split(",")) == 3 for line in lines)


class TestCuttingPose:
    def test_centroid_position(self):
        rng = np.random.default_rng(6)
        pts = rng.normal(size=(40, 3)) * 0.01 + [0.05, -0.1, 0.4]
        pose = pl.cutting_pose(pts)
        np.testing.assert_allclose(pose.position, pts.mean(axis=0))
        assert np.linalg.norm(pose.approach_axis) == pytest.approx(1.0)

    def test_straight_ahead_gives_forward(self):
        pts = np.tile([0.0, -0.3, 0.0], (5, 1))  # directly above the camera
        pose = pl.cutting_pose(pts, up=(1, -1))
        np.testing.assert_allclose(pose.approach_axis, [0.0, 0.0, 1.0])

    def test_horizontal_projection(self):
        pts = np.tile([0.3, -0.2, 0.4], (4, 1))
        pose = pl.cutting_pose(pts, up=(1, -1))
        assert pose.approach_axis[1] == 0.0
        np.testing.assert_allclose(
            pose.approach_axis, np.array([0.3, 0.0, 0.4]) / np.linalg.norm([0.3, 0.0, 0.4])
        )

    def test_empty_raises(self):
        with pytest.raises(InvalidInput, match="empty cluster"):
            pl.cutting_pose(np.zeros((0, 3)))


class TestUpAxis:
    def test_parse(self):
        assert pl.parse_up_axis("-y") == (1, -1)
        assert pl.parse_up_axis("+z") == (2, 1)
        assert pl.parse_up_axis("x") == (0, 1)

    def test_bad_axis(self):
        from peduncle.errors import InvalidInput

        with pytest.raises(InvalidInput):
            pl.parse_up_axis("w")
