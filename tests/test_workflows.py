"""Training-data extraction and per-scene scoring workflow tests."""

import numpy as np
import pytest
from oracles import collect_svm_training_reference, eval_filtered_per_threshold

from peduncle import classifiers as cls
from peduncle import cloud as pc
from peduncle import config as cfgmod
from peduncle import evaluate as ev
from peduncle import features as ft
from peduncle import minicnn as mc
from peduncle import pipeline as pl
from peduncle import scenegen as sg
from peduncle import workflows as wf
from peduncle.errors import NoPeduncleFound


@pytest.fixture(scope="module")
def scenes():
    params = sg.benchmark_params(6, 77, sg.benchmark_base())
    return [sg.generate(p) for p in params]


@pytest.fixture(scope="module")
def nb(scenes):
    return wf.train_nb_from_scenes(scenes[:3])


@pytest.fixture(scope="module")
def svm(scenes):
    feats, y = wf.collect_svm_training(scenes[:3], per_scene=120, max_total=400, seed=8)
    return cls.svm_train(feats, y, cls.SvmParams())


TINY_SPEC = (
    "input 16 16 3\nconv 3 3 3 4 1 1\nrelu\npool 2 2\nconv 3 3 4 4 1 1\nrelu\n"
    "conv 3 3 4 4 1 1\nrelu\npool 2 2\ninception 2 2 2 2\nrelu\nconv 3 3 6 4 1 1\n"
    "relu\ninception 2 2 2 2\nrelu\nconv 3 3 6 4 1 1\nrelu\nconv 1 1 4 4 1 0\nrelu\n"
    "fc 64 2\n"
)


def recolored_green(scene):
    """The same scene with every pixel one foliage green: no pepper is found."""
    rgb = np.zeros_like(scene.rgb)
    rgb[:] = (40, 140, 40)
    return sg.LabeledScene.from_rasters(rgb, scene.depth_raw, scene.frame.intr, scene.labels_img)


class TestNbTraining:
    def test_peduncle_not_mistaken_for_pepper(self, scenes, nb):
        for scene in scenes[3:]:
            labs = scene.cloud.labels
            ped = labs == pc.LABEL_PEDUNCLE
            post = cls.nb_posterior(nb, ft.rgb_to_hsv_array(scene.cloud.colors[ped]))
            assert (post >= 0.5).mean() < 0.05

    def test_red_pepper_surface_recognized(self, scenes, nb):
        # mixed peppers carry a green shoulder that legitimately reads as
        # non-pepper; check recognition on the red body only
        scene = scenes[4]
        labs = scene.cloud.labels
        hsv = ft.rgb_to_hsv_array(scene.cloud.colors)
        red_body = (labs == pc.LABEL_PEPPER) & ((hsv[:, 0] < 60) | (hsv[:, 0] > 300))
        assert red_body.sum() > 200
        post = cls.nb_posterior(nb, hsv[red_body])
        assert (post >= 0.5).mean() > 0.9


class TestPatchSampling:
    def test_shapes_labels_and_normalization(self, scenes):
        patches, labels = wf.sample_training_patches(scenes[:2], (64, 64), per_scene=12, seed=3)
        assert patches.shape[1:] == (3, 64, 64)
        assert patches.min() >= 0.0 and patches.max() <= 1.0
        assert set(np.unique(labels)) <= {0, 1}
        assert labels.sum() >= 1 and (labels == 0).sum() >= 1

    def test_deterministic(self, scenes):
        a = wf.sample_training_patches(scenes[:2], (64, 64), per_scene=10, seed=5)
        b = wf.sample_training_patches(scenes[:2], (64, 64), per_scene=10, seed=5)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_positive_centers_on_peduncle_pixels(self, scenes):
        scene = scenes[0]
        patches, labels = wf.sample_training_patches([scene], (64, 64), per_scene=20, seed=7)
        # reconstruct: a positive patch's center pixel color must appear at a
        # positive-mask pixel with the same color
        imgf = scene.rgb.astype(np.float64) / 255.0
        pos_centers = {tuple(np.round(imgf[v, u], 8)) for v, u in zip(*np.nonzero(sg.annotation_masks(scene.labels_img)[0]))}
        for patch, lab in zip(patches, labels):
            if lab == 1:
                center = tuple(np.round(patch[:, 32, 32], 8))
                assert center in pos_centers


class TestSvmCollection:
    def test_balanced_and_capped(self, scenes):
        feats, y = wf.collect_svm_training(scenes[:2], per_scene=80, max_total=120, seed=1)
        assert feats.shape[1] == 36
        assert len(y) <= 120
        assert (y > 0).any() and (y < 0).any()

    def test_features_finite(self, scenes):
        feats, _ = wf.collect_svm_training(scenes[:1], per_scene=60, max_total=60, seed=2)
        assert np.isfinite(feats).all()


class TestSvmSampleMatchesReference:
    """The sample equals the reference's, which draws rows of point_features
    over whole clouds, byte for byte."""

    @staticmethod
    def check(scenes, **kwargs):
        got = wf.collect_svm_training(scenes, **kwargs)
        want = collect_svm_training_reference(scenes, **kwargs)
        assert got[0].shape == want[0].shape and got[0].tobytes() == want[0].tobytes()
        assert got[1].shape == want[1].shape and got[1].tobytes() == want[1].tobytes()
        return got

    def test_c6_training_draws(self):
        cfg = cfgmod.default_config()
        params = sg.benchmark_params(40, 20240, sg.benchmark_base())
        self.check(
            [sg.generate(params[i]) for i in (0, 7, 23)],
            normal_k=cfgmod.cfg_int(cfg, "normal_k"),
            fpfh_k=cfgmod.cfg_int(cfg, "fpfh_k"),
            max_total=cfgmod.cfg_int(cfg, "svm_max_train"),
        )

    @pytest.mark.parametrize(
        "n_scenes,per_scene,max_total,seed", [(3, 120, 400, 8), (1, 60, 60, 2), (2, 300, 2000, 0)]
    )
    def test_workflow_scenes(self, scenes, n_scenes, per_scene, max_total, seed):
        self.check(scenes[:n_scenes], per_scene=per_scene, max_total=max_total, seed=seed)

    def test_max_total_subsamples(self, scenes):
        _, y = self.check(scenes[:2], per_scene=80, max_total=120, seed=1)
        assert len(y) == 120

    def test_class_short_of_half(self, scenes):
        # more peduncle rows asked for than the scene has labelled
        per_scene = 2 * int(np.sum(scenes[3].cloud.labels == pc.LABEL_PEDUNCLE)) + 2
        _, y = self.check(scenes[3:4], fpfh_k=12, per_scene=per_scene, max_total=10**6, seed=5)
        assert 0 < np.sum(y > 0) < per_scene // 2 == np.sum(y < 0)


class TestSceneScoring:
    def test_scored_points_lie_in_roi(self, scenes, nb):
        feats, y = wf.collect_svm_training(scenes[:3], per_scene=150, max_total=500, seed=4)
        svm = cls.svm_train(feats, y, cls.SvmParams())
        det = pl.PfhSvmDetector(svm)
        rec = wf.score_scene(scenes[4], det, nb)
        assert rec.pepper_box is not None
        assert len(rec.scored) > 100
        assert rec.scored.scores.min() >= 0.0 and rec.scored.scores.max() <= 1.0
        assert rec.eval_labels.shape == rec.scored.scores.shape

    def test_failed_pepper_detection_yields_all_misses(self, scenes, nb):
        green = sg.generate(
            sg.SceneParams(
                seed=5, image_w=224, image_h=168, fx=194.0, fy=194.0, cx=111.5, cy=83.5,
                pepper_center=(0.0, 0.01, 0.32), pepper_color="green",
            )
        )
        class NullDetector:
            def score_frame(self, frame, roi):
                raise AssertionError("should not be called")

        rec = wf.score_scene(green, NullDetector(), nb)
        assert rec.pepper_box is None and rec.miss == "NoPepperFound"
        assert len(rec.scored) == len(rec.eval_labels) == 0
        n_pos = int((green.cloud.labels == pc.LABEL_PEDUNCLE).sum())
        assert rec.unscored_positives == n_pos > 0

    def test_cnn_detector_roundtrip(self, scenes, nb):
        spec = mc.parse_netspec(
            "input 16 16 3\nconv 3 3 3 4 1 1\nrelu\npool 2 2\nconv 3 3 4 4 1 1\nrelu\n"
            "conv 3 3 4 4 1 1\nrelu\npool 2 2\ninception 2 2 2 2\nrelu\nconv 3 3 6 4 1 1\n"
            "relu\ninception 2 2 2 2\nrelu\nconv 3 3 6 4 1 1\nrelu\nconv 1 1 4 4 1 0\nrelu\n"
            "fc 64 2\n"
        )
        net = mc.Network.from_netspec(spec, seed=9)
        det = pl.CnnDetector(net, stride=4)
        rec = wf.score_scene(scenes[5], det, nb)
        assert len(rec.scored) > 50
        # dense fill: scored points sit on every ROI pixel with valid depth,
        # not only on the stride grid
        vs = np.unique(rec.scored.pixels[:, 0])
        assert np.all(np.diff(vs) == 1)

    def test_float32_inference_matches_float64_closely(self, scenes, nb):
        spec = mc.parse_netspec(
            "input 16 16 3\nconv 3 3 3 4 1 1\nrelu\npool 2 2\nconv 3 3 4 4 1 1\nrelu\n"
            "conv 3 3 4 4 1 1\nrelu\npool 2 2\ninception 2 2 2 2\nrelu\nconv 3 3 6 4 1 1\n"
            "relu\ninception 2 2 2 2\nrelu\nconv 3 3 6 4 1 1\nrelu\nconv 1 1 4 4 1 0\nrelu\n"
            "fc 64 2\n"
        )
        net = mc.Network.from_netspec(spec, seed=10)
        frame = scenes[3].frame
        _, _, roi = pl.locate_pepper(frame, nb)
        scored = pl.CnnDetector(net).score_frame(frame, roi)
        sm64 = mc.densify_score_map(mc.score_map(frame.rgb, net, 4, roi), 16, 16, 4)
        v, u = scored.pixels[:, 0], scored.pixels[:, 1]
        assert sm64.mask[v, u].all()
        assert np.abs(scored.scores - sm64.scores[v, u]).max() < 1e-5


class TestEvaluateDetector:
    def test_curves_and_micro_identity(self, scenes, nb, svm):
        det = pl.PfhSvmDetector(svm)
        thresholds = ev.default_thresholds(11)
        curves = wf.evaluate_detectors(scenes[3:], {"pfh-svm": det}, nb, thresholds)
        assert list(curves) == ["pfh-svm"]
        raw, filtered, notes = curves["pfh-svm"]
        assert len(raw.points) == len(filtered.points) == 11
        assert raw.mode == "raw" and filtered.mode == "filtered"
        # recall of the raw curve is nonincreasing
        recalls = [p.recall for p in raw.points]
        assert all(a >= b - 1e-12 for a, b in zip(recalls, recalls[1:]))

    def test_generator_equals_list_and_separate_runs(self, scenes, nb, svm):
        """Scenes may come from a generator; scoring several detectors in one
        pass gives each the curves a run of its own gives."""
        dets = {
            "cnn": pl.CnnDetector(mc.Network.from_netspec(mc.parse_netspec(TINY_SPEC), seed=9)),
            "pfh-svm": pl.PfhSvmDetector(svm),
        }
        chosen = [scenes[3], recolored_green(scenes[4]), scenes[5]]
        thresholds = ev.default_thresholds(21)
        from_list = wf.evaluate_detectors(chosen, dets, nb, thresholds)
        from_gen = wf.evaluate_detectors((s for s in chosen), dets, nb, thresholds)
        assert list(from_list) == list(from_gen) == ["cnn", "pfh-svm"]
        for name, det in dets.items():
            alone = wf.evaluate_detectors(iter(chosen), {name: det}, nb, thresholds)[name]
            for got in (from_gen[name], alone):
                raw, filtered, notes = got
                assert raw.points == from_list[name][0].points and raw.mode == "raw"
                assert filtered.points == from_list[name][1].points and filtered.mode == "filtered"
                assert notes == from_list[name][2] == ["scene 1: no pepper detected"]
            raw, filtered, notes = wf.evaluate_detectors(chosen, {name: det}, nb, thresholds, filtered=False)[name]
            assert raw.points == from_list[name][0].points and filtered is None
            assert notes == from_list[name][2]

    def test_no_scene_scored_is_a_miss(self, scenes, nb, svm):
        """Without a scored point there is no curve: the miss is raised with
        the scenes' reason, in either mode."""
        green = recolored_green(scenes[4])
        assert wf.score_scene(green, pl.PfhSvmDetector(svm), nb).miss == "NoPepperFound"
        for filtered in (True, False):
            with pytest.raises(NoPeduncleFound, match="all 2 scenes missed") as exc:
                wf.evaluate_detectors([green, green], {"pfh-svm": pl.PfhSvmDetector(svm)}, nb, filtered=filtered)
            assert exc.value.reason == "NoPepperFound"


class TestMissedScenes:
    def test_missed_positives_are_false_negatives_at_every_threshold(self, scenes, nb, svm):
        det = pl.PfhSvmDetector(svm)
        normal = wf.score_scene(scenes[4], det, nb)
        green = wf.score_scene(recolored_green(scenes[4]), det, nb)
        assert green.pepper_box is None
        n_missed = int((scenes[4].cloud.labels == pc.LABEL_PEDUNCLE).sum())
        assert n_missed > 0
        # thresholds at or below every score, as well as inside [0, 1]
        thresholds = np.array([-2.0, -1.0, 0.0, 0.5])
        for curve in (wf.pooled_raw_curve, lambda evals, t: ev.eval_filtered(evals, nb, t)[0]):
            alone = curve([normal], thresholds)
            pooled = curve([normal, green], thresholds)
            for a, p in zip(alone.points, pooled.points):
                assert (p.tp, p.fp, p.fn, p.tn) == (a.tp, a.fp, a.fn + n_missed, a.tn)

    def test_positives_all_in_missed_scenes_still_give_a_curve(self):
        """A pool whose scored rows are all negatives has a raw curve when a
        missed scene holds positives: none found, all missed."""
        n = 5
        scored = ev.SceneEval(
            pl.ScoredCloud(pc.PointCloud(np.zeros((3, 3))), np.array([0.0, 0.4, 1.0])),
            None, np.full(3, ev.NEGATIVE),
        )
        missed = ev.SceneEval(
            pl.ScoredCloud(pc.PointCloud(np.empty((0, 3))), np.empty(0)),
            None, np.empty(0, dtype=np.int64), "NoPepperFound", n,
        )
        curve = wf.pooled_raw_curve([scored, missed], np.array([-2.0, -1.0, 0.0, 0.5, 1.0]))
        assert [(p.tp, p.fn) for p in curve.points] == [(0, n)] * 5
        assert [p.fp for p in curve.points] == [3, 3, 3, 1, 1]

    def test_scoring_all_detectors_equals_one_at_a_time(self, scenes, nb, svm):
        dets = [pl.PfhSvmDetector(svm), pl.CnnDetector(mc.Network.from_netspec(
            mc.parse_netspec(TINY_SPEC), seed=9))]
        for scene in (scenes[3], recolored_green(scenes[3])):
            together = wf.score_scene_all(scene, dets, nb)
            for det, rec in zip(dets, together):
                one = wf.score_scene(scene, det, nb)
                assert np.array_equal(rec.scored.scores, one.scored.scores)
                assert np.array_equal(rec.scored.cloud.points, one.scored.cloud.points)
                assert np.array_equal(rec.eval_labels, one.eval_labels)
                assert rec.unscored_positives == one.unscored_positives


class TestFilteredSweep:
    @pytest.mark.parametrize("detector", ["pfh-svm", "cnn"])
    def test_one_pass_sweep_equals_per_threshold_filter(self, scenes, nb, svm, detector):
        if detector == "pfh-svm":
            det = pl.PfhSvmDetector(svm)
        else:
            det = pl.CnnDetector(mc.Network.from_netspec(mc.parse_netspec(TINY_SPEC), seed=9))
        evals = [wf.score_scene(s, det, nb) for s in (scenes[3], scenes[4], scenes[5])]
        evals.append(wf.score_scene(recolored_green(scenes[5]), det, nb))
        # an unsorted grid not starting at 0, whose node set is the points
        # scoring at least its lowest threshold, and the full grid
        for thresholds in ([0.7, 0.3, 0.5], ev.default_thresholds(101)):
            for fp in (pl.FilterParams(), pl.FilterParams(min_cluster=40, max_cluster=400)):
                got, notes = ev.eval_filtered(evals, nb, thresholds, fp)
                want = eval_filtered_per_threshold(evals, nb, thresholds, fp)
                assert got.points == want.points
                assert notes == ["scene 3: no pepper detected"]
        # the sweep reaches clusters at some thresholds and none at others
        assert len({p.tp for p in got.points}) > 1
