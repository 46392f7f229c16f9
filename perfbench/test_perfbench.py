"""Tests of the benchmark itself: each independent check rejects a corrupted
output, each workload runs to the end at a tiny size, and BENCHMARK.json
names exactly the metrics the runs print.

    python3 -m pytest -q perfbench
"""

import dataclasses
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import models  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from peduncle import classifiers as cls  # noqa: E402
from peduncle import evaluate as ev  # noqa: E402
from peduncle import minicnn as mc  # noqa: E402
from peduncle import pipeline as pl  # noqa: E402
from peduncle import scenegen as sg  # noqa: E402
from peduncle import workflows as wf  # noqa: E402

TINY = workloads.Sizes(detect_frames=1, sweep_scenes=1, train_scenes=1, cli_scenes=1, thresholds=11)
# every frame yields a cluster at threshold 0, whatever the small models score
ANY_SCORE = pl.FilterParams(score_threshold=0.0)


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("models"))
    models.build(out, draws=range(38, 40), cnn_schedule=dict(epochs=2, lr=0.03, per_scene=8))
    return out


@pytest.fixture(scope="module")
def trained(model_dir):
    return models.load(model_dir)


@pytest.fixture(scope="module")
def scene():
    return sg.generate(workloads.c6_params(workloads.eval_draws(1))[0])


# ---------------------------------------------------------------------------
# detect
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def detection(trained, scene):
    nb, svm, _ = trained
    return pl.run_detection(scene.frame, nb, pl.PfhSvmDetector(svm), ANY_SCORE)


def _check_detection(scene, nb, det, **change):
    fields = dict(pepper_idx=det.pepper_indices, scored=det.scored, cluster=det.filter_result.cluster, pose=det.pose)
    fields.update(change)
    checks.check_detection(scene.frame, nb, "pfh-svm", fp=ANY_SCORE, h_offset=0.05, **fields)


def test_detection_passes_as_computed(trained, scene, detection):
    _check_detection(scene, trained[0], detection)


def test_detection_cluster_with_a_point_dropped_fails(trained, scene, detection):
    with pytest.raises(checks.CheckFailed, match="brute force"):
        _check_detection(scene, trained[0], detection, cluster=detection.filter_result.cluster[1:])


def test_detection_cluster_point_below_threshold_fails(trained, scene, detection):
    scores = detection.scored.scores.copy()
    scores[detection.filter_result.cluster[0]] = -1.0
    scored = pl.ScoredCloud(detection.scored.cloud, scores, detection.scored.pixels)
    with pytest.raises(checks.CheckFailed, match="below the threshold"):
        _check_detection(scene, trained[0], detection, scored=scored)


def test_detection_cluster_point_outside_box_fails(trained, scene, detection):
    pts = detection.scored.cloud.points.copy()
    pts[detection.filter_result.cluster[0], 2] += 1.0
    cloud = dataclasses.replace(detection.scored.cloud, points=pts)
    scored = pl.ScoredCloud(cloud, detection.scored.scores, detection.scored.pixels)
    with pytest.raises(checks.CheckFailed, match="outside the 3D box"):
        _check_detection(scene, trained[0], detection, scored=scored)


def test_detection_bad_pose_fails(trained, scene, detection):
    pose = detection.pose
    moved = pl.CuttingPose(pose.position + 1e-6, pose.approach_axis)
    with pytest.raises(checks.CheckFailed, match="cluster mean"):
        _check_detection(scene, trained[0], detection, pose=moved)
    tilted = pl.CuttingPose(pose.position, np.array([0.6, 0.8, 0.0]))
    with pytest.raises(checks.CheckFailed, match="horizontal"):
        _check_detection(scene, trained[0], detection, pose=tilted)


def test_detection_scored_count_fails(trained, scene, detection):
    keep = np.arange(1, len(detection.scored))
    scored = pl.ScoredCloud(detection.scored.cloud.subset(keep), detection.scored.scores[keep])
    with pytest.raises(checks.CheckFailed, match="ROI has"):
        _check_detection(scene, trained[0], detection, scored=scored)


def test_detection_missed_cluster_fails(trained, scene, detection):
    with pytest.raises(checks.CheckFailed, match="no peduncle reported"):
        _check_detection(scene, trained[0], detection, cluster=None, pose=None)


def test_pepper_posterior_matches_library(trained, scene):
    nb = trained[0]
    colors = scene.cloud.colors[::97]
    from peduncle import features as ft

    np.testing.assert_allclose(
        checks.pepper_posterior(nb, colors), cls.nb_posterior(nb, ft.rgb_to_hsv_array(colors)), atol=1e-9
    )


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def sweep(trained, scene):
    nb, svm, _ = trained
    evals = [wf.score_scene(scene, pl.PfhSvmDetector(svm), nb)]
    thresholds = ev.default_thresholds(11)
    raw = wf.pooled_raw_curve(evals, thresholds)
    filtered, _ = ev.eval_filtered(evals, nb, thresholds)
    return raw, filtered, evals[0].scored.scores, evals[0].eval_labels, thresholds


def _shift(curve, i, **delta):
    points = list(curve.points)
    p = points[i]
    points[i] = dataclasses.replace(p, **{k: getattr(p, k) + v for k, v in delta.items()})
    return ev.PrCurve(points, curve.mode)


def test_sweep_passes_as_computed(sweep):
    checks.check_sweep(*sweep)


def test_sweep_miscounted_threshold_row_fails(sweep):
    raw, filtered, *rest = sweep
    with pytest.raises(checks.CheckFailed, match="recount"):
        checks.check_sweep(_shift(raw, 5, tp=1, fn=-1), filtered, *rest)


def test_sweep_changing_positives_fail(sweep):
    raw, filtered, *rest = sweep
    with pytest.raises(checks.CheckFailed, match="tp\\+fn"):
        checks.check_sweep(raw, _shift(filtered, 3, fn=1), *rest)


def test_sweep_filter_adding_detections_fails(sweep):
    raw, filtered, *rest = sweep
    i = len(raw.points) - 1
    bump = raw.points[i].fp - filtered.points[i].fp + 1
    with pytest.raises(checks.CheckFailed, match="added detections"):
        checks.check_sweep(raw, _shift(filtered, i, fp=bump, tn=-bump), *rest)


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def svm_fit():
    rng = np.random.default_rng(5)
    x = np.vstack([rng.normal(0, 1, (40, 4)) + 1.0, rng.normal(0, 1, (40, 4)) - 1.0])
    y = np.r_[np.ones(40), -np.ones(40)]
    return cls.svm_train(x, y, cls.SvmParams(c=1.0, gamma=0.25)), x, y


def test_svm_passes_as_trained(svm_fit):
    checks.check_svm(*svm_fit)


def test_svm_corrupted_duals_fail(svm_fit):
    model, x, y = svm_fit
    coefs = model.dual_coefs.copy()
    coefs[0] = np.sign(coefs[0]) * model.c * 2
    with pytest.raises(checks.CheckFailed, match="outside"):
        checks.check_svm(dataclasses.replace(model, dual_coefs=coefs), x, y)
    coefs = model.dual_coefs.copy()
    coefs[0] *= 0.5
    with pytest.raises(checks.CheckFailed, match="sum"):
        checks.check_svm(dataclasses.replace(model, dual_coefs=coefs), x, y)
    with pytest.raises(checks.CheckFailed, match="KKT"):
        checks.check_svm(dataclasses.replace(model, bias=model.bias + 0.5), x, y)


def test_cnn_checks():
    net = mc.Network.from_netspec(models.shipped_spec(), seed=1)
    patches = np.random.default_rng(2).random((4, 3, 64, 64))
    checks.check_cnn(net, [0.7, 0.4], patches)
    for losses, match in (([0.4, 0.7], "did not fall"), ([0.7, float("nan"), 0.4], "history")):
        with pytest.raises(checks.CheckFailed, match=match):
            checks.check_cnn(net, losses, patches)
    text = mc.serialize_netspec(models.shipped_spec())
    narrower = mc.parse_netspec(text.replace("conv 1 1 64 32 1 0", "conv 1 1 64 16 1 0").replace("fc 512 2", "fc 256 2"))
    with pytest.raises(checks.CheckFailed, match="parameters"):
        checks.check_cnn(mc.Network.from_netspec(narrower, seed=1), [0.7, 0.4], patches)


def test_epoch_losses_parse_the_training_log():
    log = ["training on 8 patches (4 positive)", "epoch 1/2: loss 0.6931", "epoch 2/2: loss 0.5000"]
    assert checks.epoch_losses(log) == [0.6931, 0.5]


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


def test_scene_equality_detects_one_changed_value(scene, tmp_path):
    sg.save_scene(str(tmp_path), "s", scene)
    loaded = sg.load_scene(str(tmp_path), "s", scene.params.intrinsics())
    checks.check_scene_equal(loaded, scene)
    loaded.rgb[0, 0, 0] ^= 1
    with pytest.raises(checks.CheckFailed, match="rgb"):
        checks.check_scene_equal(loaded, scene)
    loaded.rgb[0, 0, 0] ^= 1
    loaded.cloud.points[0, 0] = np.nextafter(loaded.cloud.points[0, 0], 1.0)
    with pytest.raises(checks.CheckFailed, match="points"):
        checks.check_scene_equal(loaded, scene)


def test_pr_csv_detects_one_changed_count(sweep, tmp_path):
    raw = sweep[0]
    path = str(tmp_path / "pr.csv")
    ev.write_pr_csv(path, [raw])
    checks.check_pr_csv(path, raw)
    with pytest.raises(checks.CheckFailed, match="differs"):
        checks.check_pr_csv(path, _shift(raw, 2, fp=1))


# ---------------------------------------------------------------------------
# tracer and the workloads end to end
# ---------------------------------------------------------------------------


def test_busy_and_self_time_per_setup_plus_round():
    t = tracing.Tracer()
    # round(0..10) > a(0..10) > b(1..4) > b(2..3); a > c(5..9); a second
    # round(20..22) > a(20..22); a warm-up span outside both is ignored
    t.spans = [["bench.round", 0, 10, -1], ["cloud.knn_batch", 0, 10, 0], ["features.fpfh", 1, 4, 1],
               ["features.fpfh", 2, 3, 2], ["minicnn.score_map", 5, 9, 1], ["cloud.knn_batch", 11, 12, -1],
               ["bench.round", 20, 22, -1], ["cloud.knn_batch", 20, 22, 6], ["bench.setup", 30, 31, -1],
               ["minicnn.score_map", 30, 31, 8]]
    m = t.layer_metrics([1.0])
    assert m["cloud.knn_batch.s"] == 6 and m["cloud.knn_batch.self_s"] == 2.5
    assert m["cloud.knn_batch.calls"] == 1
    assert m["features.fpfh.s"] == 1.5 and m["features.fpfh.self_s"] == 1.5
    assert m["minicnn.score_map.s"] == 2 + 1


def _benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", ["detect", "sweep", "train", "cli"])
def test_workload_runs_at_tiny_size(name, model_dir, tmp_path):
    result = run.run_workload(name, 3, 0, 0, TINY, model_dir, str(tmp_path / "work"))
    assert result["correct"], result["detail"]["problem"]
    assert result["attempted"] >= 2 and result["failed"] == 0
    spec = {m["name"]: m["unit"] for m in _benchmark_json()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert all(v["value"] > 0 for k, v in result["metrics"].items() if not k.startswith("f1."))


def test_traced_run_reports_every_layer_metric(model_dir, tmp_path):
    spans = tmp_path / "spans.jsonl"
    result = run.run_workload("detect", 0, 0, 1, TINY, model_dir, str(tmp_path / "work"), str(spans))
    assert result["correct"], result["detail"]["problem"]
    spec = {m["name"]: m["unit"] for m in _benchmark_json()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert result["metrics"]["pipeline.run_detection.calls"]["value"] == 2
    assert result["metrics"]["minicnn.forward.conv.s"]["value"] > 0
    names = {json.loads(line)["name"] for line in spans.read_text().splitlines()}
    assert {"bench.setup", "bench.round", "pipeline.score_frame.cnn", "minicnn.forward.inception"} <= names
    # the library is unwrapped again
    assert pl.run_detection.__module__ == "peduncle.pipeline" and not hasattr(pl.run_detection, "__wrapped__")
