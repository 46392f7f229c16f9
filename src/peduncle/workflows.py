"""Training and evaluation workflows wiring the library modules together.

These functions are the single implementation behind both the command-line
interface and the end-to-end verification suite, so CLI results and
library results are identical by construction. Evaluation is one
procedure, evaluate_detectors: `peduncle eval` calls it with one detector
and the fixed-seed benchmark (run_benchmark) with three.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import classifiers as cls
from . import cloud as pc
from . import evaluate as ev
from . import features as ft
from . import minicnn as mc
from . import pipeline as pl
from . import scenegen as sg
from .errors import InvalidInput, NoPeduncleFound


# ---------------------------------------------------------------------------
# model training
# ---------------------------------------------------------------------------

# HSV saturation from which a pixel is plant material (foliage, peduncles),
# not dull background: the hard negatives of the colour model and the CNN
_SATURATED = 0.35


def _at_most(rng, rows, cap):
    """rows when there are at most cap of them, else cap of them drawn
    without replacement, in ascending order."""
    if rows.size > cap:
        return np.sort(rng.choice(rows, cap, replace=False))
    return rows


def train_nb_from_scenes(scenes, seed: int = 0) -> cls.NaiveBayesHsv:
    """Fit the pepper HSV model from labeled scene clouds.

    Each scene gives up to 4000 pepper points and 4000 others. The
    non-pepper class is sampled half from saturated material (foliage,
    peduncles) and half from the dull background, otherwise the abundant
    background pixels would dominate the class and leave green plant matter
    closer to the pepper model than to its own.
    """
    rng = np.random.default_rng(seed)
    pepper, other = [], []
    for scene in scenes:
        labs = scene.cloud.labels
        hsv = ft.rgb_to_hsv_array(scene.cloud.colors)
        pepper.append(hsv[_at_most(rng, np.flatnonzero(labs == pc.LABEL_PEPPER), 4000)])
        non = labs != pc.LABEL_PEPPER
        saturated = non & (hsv[:, 1] >= _SATURATED)
        other.append(hsv[_at_most(rng, np.flatnonzero(saturated), 2000)])
        other.append(hsv[_at_most(rng, np.flatnonzero(non & ~saturated), 2000)])
    if not pepper or not other:
        raise InvalidInput("scenes supply no pepper/non-pepper samples")
    return cls.nb_fit(np.vstack(pepper), np.vstack(other))


def collect_svm_training(
    scenes,
    normal_k: int = 30,
    fpfh_k: int = 30,
    per_scene: int = 300,
    max_total: int = 2000,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Class-balanced (features, +-1 labels) sample across training scenes.

    Each scene gives up to per_scene // 2 positive and as many negative
    points (evaluate.labels_to_eval; ignored points never), drawn among the
    points whose features are valid; the pooled sample is then cut to
    max_total rows. Normals and valid flags cover every point, but
    histograms only the drawn rows and their neighbors
    (features.PointGeometry), with the same output as drawing rows of
    point_features.
    """
    rng = np.random.default_rng(seed)
    feats_all, y_all = [], []
    for scene in scenes:
        geometry = ft.PointGeometry.of(scene.cloud, normal_k, fpfh_k)
        valid = geometry.valid()
        labels = ev.labels_to_eval(scene.cloud.labels)
        pos = _at_most(rng, np.flatnonzero((labels == ev.POSITIVE) & valid), per_scene // 2)
        neg = _at_most(rng, np.flatnonzero((labels == ev.NEGATIVE) & valid), per_scene // 2)
        feats_all.append(geometry.features(np.concatenate([pos, neg]))[0])
        y_all += [np.ones(pos.size), -np.ones(neg.size)]
    keep = _at_most(rng, np.arange(sum(map(len, y_all))), max_total)
    feats, y = np.vstack(feats_all)[keep], np.concatenate(y_all)[keep]
    if not (y > 0).any() or not (y < 0).any():
        raise InvalidInput("training sample lost one of the classes")
    return feats, y


def sample_training_patches(
    scenes, patch_hw: tuple[int, int], per_scene: int = 30, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Balanced (patches (N, 3, ph, pw) in [0, 1], labels {0, 1}) from the
    annotated positive / negative masks; unannotated pixels are never used.
    Centers are drawn where minicnn.patch_centers puts one at stride 1.

    Half of each scene's negatives are drawn from saturated (plant-like)
    material when available, so the scorer sees the hard green-on-green
    cases and not just flat background.
    """
    ph, pw = patch_hw
    rng = np.random.default_rng(seed)
    patches, labels = [], []
    for scene in scenes:
        pos_mask, neg_mask = sg.annotation_masks(scene.labels_img)
        h, w = pos_mask.shape
        valid = np.zeros((h, w), dtype=bool)
        valid[np.ix_(*mc.patch_centers(h, w, ph, pw, 1))] = True
        half = per_scene // 2

        def draw(mask, most):
            """Up to `most` centers drawn from mask's valid pixels, in draw
            order (an empty draw leaves rng as it was)."""
            vv, uu = np.nonzero(mask & valid)
            sel = rng.choice(vv.size, min(most, vv.size), replace=False)
            return vv[sel], uu[sel]

        pos = draw(pos_mask, half)
        saturated = ft.rgb_to_hsv_array(scene.rgb.reshape(-1, 3))[:, 1].reshape(h, w) >= _SATURATED
        hard = draw(neg_mask & saturated, (half + 1) // 2)
        easy = draw(neg_mask & ~saturated, half - len(hard[0]))
        cy, cx = (np.concatenate(axis) for axis in zip(pos, hard, easy))
        windows = sliding_window_view(scene.rgb.astype(np.float64) / 255.0, (ph, pw), axis=(0, 1))
        patches.append(windows[cy - ph // 2, cx - pw // 2])
        labels.append(np.repeat([1, 0], [len(pos[0]), len(cy) - len(pos[0])]))
    if not sum(map(len, labels)):
        raise InvalidInput("no annotated patch centers available")
    return np.concatenate(patches), np.concatenate(labels).astype(np.intp)


def train_cnn_from_scenes(
    scenes,
    spec: mc.NetworkSpec,
    epochs: int = 6,
    batch: int = 16,
    lr: float = 0.02,
    lr_decay: float = 1.0,
    per_scene: int = 30,
    seed: int = 0,
    log=None,
) -> mc.Network:
    net = mc.Network.from_netspec(spec, seed=seed)
    patches, labels = sample_training_patches(scenes, (spec.input_h, spec.input_w), per_scene, seed)
    if log is not None:
        log(f"training on {len(labels)} patches ({int(labels.sum())} positive)")
    mc.train_network(
        net, patches, labels, epochs=epochs, batch=batch, lr=lr, lr_decay=lr_decay,
        seed=seed, log=log,
    )
    return net


# ---------------------------------------------------------------------------
# per-scene scoring and evaluation
# ---------------------------------------------------------------------------


def score_scene(scene, detector, nb: cls.NaiveBayesHsv, fp: pl.FilterParams = pl.FilterParams()) -> ev.SceneEval:
    """Detect the pepper, score the region of interest, attach truth labels.

    Scenes where no pepper is found (or nothing in the region of interest
    is scored) yield an all-miss record: their ground-truth peduncle
    points carry ev.MISS_SCORE, so they count as false negatives at every
    threshold.
    """
    return score_scene_all(scene, [detector], nb, fp)[0]


def score_scene_all(
    scene, detectors, nb: cls.NaiveBayesHsv, fp: pl.FilterParams = pl.FilterParams()
) -> list[ev.SceneEval]:
    """score_scene for each detector in turn, locating the pepper once."""
    frame = scene.frame
    try:
        _, pepper_box, roi = pl.locate_pepper(frame, nb, fp)
    except NoPeduncleFound as exc:
        return [_all_miss(frame, exc.reason) for _ in detectors]
    records = []
    for detector in detectors:
        try:
            scored = detector.score_frame(frame, roi)
        except NoPeduncleFound as exc:
            records.append(_all_miss(frame, exc.reason))
            continue
        labels = ev.labels_to_eval(scored.cloud.labels)
        records.append(ev.SceneEval(scored, pepper_box, labels))
    return records


def _all_miss(frame, reason: str) -> ev.SceneEval:
    n_pos = int(np.sum(frame.cloud.labels == pc.LABEL_PEDUNCLE))
    empty = pl.ScoredCloud(
        pc.PointCloud(np.zeros((n_pos, 3)) + [0.0, 0.0, 1.0]),
        np.full(n_pos, ev.MISS_SCORE),
    )
    return ev.SceneEval(empty, None, np.full(n_pos, ev.POSITIVE, dtype=np.int64), reason)


def require_a_scored_scene(records) -> None:
    """Raise NoPeduncleFound, with the first scene's reason, when every one
    of the score_scene records missed before scoring."""
    misses = [rec.miss for rec in records]
    if misses and all(misses):
        raise NoPeduncleFound(misses[0], f"all {len(misses)} scenes missed before scoring")


def pooled_raw_curve(scene_evals, thresholds=None) -> ev.PrCurve:
    """Raw (pre-filter) curve over the pooled scored points of all scenes."""
    scores = np.concatenate([s.scored.scores for s in scene_evals])
    labels = np.concatenate([s.eval_labels for s in scene_evals])
    return ev.pr_curve(scores, labels, thresholds)


def evaluate_detectors(
    scenes,
    detectors: dict,
    nb: cls.NaiveBayesHsv,
    thresholds=None,
    fp: pl.FilterParams = pl.FilterParams(),
    log=None,
    filtered: bool = True,
) -> dict:
    """{name: (raw_curve, filtered_curve, notes)} for a {name: detector}
    dict over any iterable of scenes, each scored once (score_scene_all).
    One `fp` drives both the pepper search and the sweep through the
    filter. Curves are formed in dict order; a detector's records are
    dropped once its curves are done. Without `filtered` the sweep is
    skipped and the filtered curve is None.

    Raises NoPeduncleFound (require_a_scored_scene) when no scene reached
    scoring: there is no curve without a scored point."""
    evals = {name: [] for name in detectors}
    for i, scene in enumerate(scenes):
        for name, rec in zip(detectors, score_scene_all(scene, detectors.values(), nb, fp)):
            evals[name].append(rec)
        if log is not None and (i + 1) % 25 == 0:
            log(f"scored {i + 1} scenes")
    results = {}
    for name in detectors:
        records = evals.pop(name)
        require_a_scored_scene(records)
        raw = pooled_raw_curve(records, thresholds)
        if filtered:
            results[name] = (raw, *ev.eval_filtered(records, nb, thresholds, fp))
        else:
            results[name] = (raw, None, ev.miss_notes(records))
    return results


# ---------------------------------------------------------------------------
# the standard desk-scale benchmark
# ---------------------------------------------------------------------------


def run_benchmark(
    master_seed: int = 20240,
    n_scenes: int = 200,
    n_train: int = 40,
    n_thresholds: int = 26,
    cnn_epochs: int = 8,
    cnn_lr: float = 0.03,
    cnn_lr_decay: float = 0.85,
    cnn_patches_per_scene: int = 24,
    seed: int = 0,
    log=None,
) -> dict:
    """Train and evaluate both detectors on the fixed-seed synthetic set.

    The CNN is trained twice: on the full training split and on its first
    half, to measure the effect of doubling the training scenes. Each
    evaluation scene is generated once and scored by all three detectors;
    only the scored regions of interest are kept.

    Returns curves keyed by detector ('pfh-svm', 'cnn', 'cnn-half'), each a
    {'raw': PrCurve, 'filtered': PrCurve, 'notes': list} dict, plus the
    trained models.
    """

    def say(msg):
        if log is not None:
            log(msg)

    params = sg.benchmark_params(n_scenes, master_seed, sg.benchmark_base())
    train_params, eval_params = params[:n_train], params[n_train:]
    thresholds = ev.default_thresholds(n_thresholds)

    say(f"generating {n_train} training scenes")
    train_scenes = [sg.generate(p) for p in train_params]

    say("fitting the pepper color model")
    nb = train_nb_from_scenes(train_scenes, seed=seed)

    say("extracting geometry features for the margin classifier")
    feats, y = collect_svm_training(train_scenes, per_scene=300, max_total=2000, seed=seed)
    svm = cls.svm_train(feats, y, cls.SvmParams(seed=seed))
    say(f"svm trained on {len(y)} rows, {len(svm.dual_coefs)} support vectors")

    spec = mc.default_netspec()
    say("training the patch scorer on the full training split")
    cnn_full = train_cnn_from_scenes(
        train_scenes, spec, epochs=cnn_epochs, lr=cnn_lr, lr_decay=cnn_lr_decay,
        per_scene=cnn_patches_per_scene, seed=seed, log=log,
    )
    say("training the patch scorer on half the training split")
    cnn_half = train_cnn_from_scenes(
        train_scenes[: n_train // 2], spec, epochs=cnn_epochs, lr=cnn_lr, lr_decay=cnn_lr_decay,
        per_scene=cnn_patches_per_scene, seed=seed, log=log,
    )
    del train_scenes

    detectors = {
        "pfh-svm": pl.PfhSvmDetector(svm),
        "cnn": pl.CnnDetector(cnn_full),
        "cnn-half": pl.CnnDetector(cnn_half),
    }
    results = {"models": {"nb": nb, "svm": svm, "cnn": cnn_full, "cnn-half": cnn_half}}
    say(f"scoring {len(eval_params)} scenes with {', '.join(detectors)}")
    eval_scenes = (sg.generate(p) for p in eval_params)
    curves = evaluate_detectors(eval_scenes, detectors, nb, thresholds, log=log)
    for name, (raw, filtered, notes) in curves.items():
        results[name] = {"raw": raw, "filtered": filtered, "notes": notes}
        say(
            f"{name}: raw best F1 {raw.best.f1:.3f} @ {raw.best.threshold:.2f}, "
            f"filtered best F1 {filtered.best.f1:.3f} @ {filtered.best.threshold:.2f}"
        )
    return results
