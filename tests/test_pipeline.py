"""Detection-flow tests: ROI rule, 3D box derivation, projection, the five
filtering steps and cutting-pose estimation."""

import numpy as np
import pytest

from peduncle import classifiers as cls
from peduncle import cloud as pc
from peduncle import evaluate as ev
from peduncle import minicnn as mc
from peduncle import pipeline as pl
from peduncle.errors import (
    EmptyInput,
    EmptyProjection,
    InvalidInput,
    NoPeduncleFound,
    NoPepperFound,
    RoiOutOfImage,
)


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


class TestComputeRoi:
    def test_worked_example(self):
        box = pl.Roi2(100, 150, 200, 250)
        roi = pl.compute_roi(box, 640, 480)
        assert (roi.x_min, roi.y_min, roi.x_max, roi.y_max) == (100, 100, 200, 200)

    def test_area_preserved_when_unclipped(self):
        box = pl.Roi2(50, 200, 130, 300)
        roi = pl.compute_roi(box, 640, 480)
        assert roi.width == box.width and roi.height == box.height
        assert roi.area == box.area

    def test_clipped_at_top(self):
        box = pl.Roi2(10, 5, 60, 65)
        roi = pl.compute_roi(box, 640, 480)
        assert roi.y_min == 0 and roi.y_max == 35
        assert roi.x_min == 10 and roi.x_max == 60

    def test_fully_clipped_raises(self):
        # box outside the image horizontally (violating its own pre-condition)
        box = pl.Roi2(700, 100, 760, 160)
        with pytest.raises(RoiOutOfImage):
            pl.compute_roi(box, 640, 480)


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


class TestProjection:
    INTR = pl.CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, depth_scale=0.001)

    def test_principal_point(self):
        depth = np.zeros((480, 640), dtype=np.uint16)
        depth[240, 320] = 1000
        sm = mc.ScoreMap(np.zeros((480, 640)), depth > 0)
        scored = pl.project_to_3d(sm, depth, self.INTR)
        np.testing.assert_allclose(scored.cloud.points[0], [0.0, 0.0, 1.0])

    def test_unit_tangent(self):
        depth = np.zeros((480, 640), dtype=np.uint16)
        depth[240, 820 % 640] = 0  # keep a single pixel: (cx + fx) is off-image for 640
        intr = pl.CameraIntrinsics(fx=100.0, fy=100.0, cx=320.0, cy=240.0, depth_scale=0.001)
        depth[240, 420] = 1000
        sm = mc.ScoreMap(np.zeros((480, 640)), depth > 0)
        scored = pl.project_to_3d(sm, depth, intr)
        np.testing.assert_allclose(scored.cloud.points[0], [1.0, 0.0, 1.0])

    def test_forward_backward_consistency(self):
        rng = np.random.default_rng(1)
        depth = np.zeros((480, 640), dtype=np.uint16)
        n = 200
        vs = rng.integers(0, 480, n)
        us = rng.integers(0, 640, n)
        depth[vs, us] = rng.integers(200, 3000, n).astype(np.uint16)
        sm = mc.ScoreMap(rng.uniform(size=(480, 640)), depth > 0)
        scored = pl.project_to_3d(sm, depth, self.INTR)
        uv = pl.reproject_to_pixels(scored.cloud.points, self.INTR)
        np.testing.assert_allclose(uv[:, 0], scored.pixels[:, 1], atol=1e-6)
        np.testing.assert_allclose(uv[:, 1], scored.pixels[:, 0], atol=1e-6)

    def test_invalid_depth_dropped(self):
        depth = np.zeros((10, 10), dtype=np.uint16)
        depth[5, 5] = 700
        mask = np.ones((10, 10), dtype=bool)
        sm = mc.ScoreMap(np.full((10, 10), 0.7), mask)
        scored = pl.project_to_3d(sm, depth, self.INTR)
        assert len(scored) == 1

    def test_all_invalid_raises(self):
        depth = np.zeros((6, 6), dtype=np.uint16)
        sm = mc.ScoreMap(np.ones((6, 6)), np.ones((6, 6), dtype=bool))
        with pytest.raises(EmptyProjection):
            pl.project_to_3d(sm, depth, self.INTR)

    def test_scores_carried(self):
        depth = np.zeros((4, 4), dtype=np.uint16)
        depth[1, 2] = 500
        sm = mc.ScoreMap(np.zeros((4, 4)), depth > 0)
        sm.scores[1, 2] = 0.83
        scored = pl.project_to_3d(sm, depth, self.INTR)
        assert scored.scores[0] == 0.83


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
        idx, box = pl.detect_pepper(cloud, red_green_nb(), pl.PepperDetectParams())
        frac = (labels[idx] == pc.LABEL_PEPPER).mean()
        assert frac >= 0.95
        assert box.contains(pepper_pts).mean() > 0.95

    def test_threshold_above_max_posterior(self):
        rng = np.random.default_rng(3)
        cloud = pc.PointCloud(
            rng.uniform(0, 0.1, (50, 3)), green_colors(rng, 50)
        )
        with pytest.raises(NoPepperFound):
            pl.detect_pepper(cloud, red_green_nb(), pl.PepperDetectParams(posterior_threshold=1.0))

    def test_largest_blob_wins(self):
        rng = np.random.default_rng(4)
        small = rng.normal(0, 0.004, (25, 3)) + [0.1, 0.0, 0.4]
        large = rng.normal(0, 0.008, (80, 3)) + [-0.1, 0.0, 0.4]
        pts = np.vstack([small, large])
        cloud = pc.PointCloud(pts, red_colors(rng, 105))
        idx, box = pl.detect_pepper(cloud, red_green_nb(), pl.PepperDetectParams())
        assert idx.min() >= 25  # all indices from the large blob
        assert box.contains(large).mean() > 0.9


class TestFilterDetections:
    def build_scene(self):
        """Scored cloud with planted violators around a pepper at origin top 0.4m.

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
        return scored, pepper_pts

    def test_steps_remove_planted_violators(self):
        scored, pepper_pts = self.build_scene()
        fp = pl.FilterParams(score_threshold=0.5, cluster_tol=0.003, min_cluster=5)
        result = pl.filter_detections(scored, pepper_pts, red_green_nb(), fp)
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_score_rejected(self, bad):
        scored, pepper_pts = self.build_scene()
        scored.scores[3] = bad
        with pytest.raises(InvalidInput):
            pl.filter_detections(scored, pepper_pts, red_green_nb(), pl.FilterParams())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_score_rejected_by_filtered_sweep(self, bad):
        scored, pepper_pts = self.build_scene()
        scored.scores[3] = bad
        labels = np.zeros(len(scored), dtype=np.int64)
        labels[:30] = ev.POSITIVE
        with pytest.raises(InvalidInput):
            ev.eval_filtered([ev.SceneEval(scored, pepper_pts, labels)], red_green_nb())

    def test_threshold_above_everything(self):
        scored, pepper_pts = self.build_scene()
        fp = pl.FilterParams(score_threshold=0.99)
        with pytest.raises(NoPeduncleFound):
            pl.filter_detections(scored, pepper_pts, red_green_nb(), fp)

    def test_survivors_nonincreasing(self):
        scored, pepper_pts = self.build_scene()
        result = pl.filter_detections(scored, pepper_pts, red_green_nb(), pl.FilterParams())
        counts = [c for _, _, c in result.survivors[:4]]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_monotone_in_threshold_before_clustering(self):
        scored, pepper_pts = self.build_scene()
        nb = red_green_nb()
        prev = None
        for t in (0.05, 0.5, 0.92, 0.97):
            try:
                res = pl.filter_detections(
                    scored, pepper_pts, nb, pl.FilterParams(score_threshold=t, min_cluster=1)
                )
                survivors = res.survivors
            except NoPeduncleFound as exc:
                survivors = exc.survivors
            step4 = survivors[3][2]
            if prev is not None:
                assert step4 <= prev
            prev = step4

    def test_cluster_points_inside_box_and_not_pepper(self):
        scored, pepper_pts = self.build_scene()
        nb = red_green_nb()
        result = pl.filter_detections(scored, pepper_pts, nb, pl.FilterParams())
        from peduncle import features as ft

        pts = scored.cloud.points[result.cluster]
        assert result.box.contains(pts).all()
        post = cls.nb_posterior(nb, ft.rgb_to_hsv_array(scored.cloud.colors[result.cluster]))
        assert (post < 0.5).all()

    def test_deterministic(self):
        scored, pepper_pts = self.build_scene()
        nb = red_green_nb()
        a = pl.filter_detections(scored, pepper_pts, nb, pl.FilterParams())
        b = pl.filter_detections(scored, pepper_pts, nb, pl.FilterParams())
        np.testing.assert_array_equal(a.cluster, b.cluster)
        assert a.survivors == b.survivors

    def test_diagnostics_format(self):
        scored, pepper_pts = self.build_scene()
        result = pl.filter_detections(scored, pepper_pts, red_green_nb(), pl.FilterParams())
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
        with pytest.raises(EmptyInput):
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
