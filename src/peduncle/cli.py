"""Command-line front end.

Every command validates its flags, echoes the merged configuration into the
output directory, writes machine-readable results to files only, and keeps
human-readable progress on the error stream. Exit codes: 0 success, 1 usage
error, 2 data error, 3 operational non-detection (no pepper, a region of
interest without scored depth, no peduncle). main merges the configuration
once for the command. A command that exits 2 removes the output directory,
and any parent of it, that the call created, so a failed run leaves no
partial results behind.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

import numpy as np

from . import classifiers as cls
from . import cloud as pc
from . import config as cfgmod
from . import evaluate as ev
from . import features as ft
from . import minicnn as mc
from . import pipeline as pl
from . import scenegen as sg
from . import workflows as wf
from ._textio import open_text, read_rows, write_rows
from .errors import FormatError, InvalidInput, NoPeduncleFound, PeduncleError


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _echo_config(out_dir: str, cfg: dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    cfgmod.write_config(os.path.join(out_dir, "config.cfg"), cfg)


def _detection_params(cfg: dict, threshold: float | None = None) -> pl.FilterParams:
    """The configuration's detection parameters, as the FilterParams of
    pipeline.run_detection, workflows.score_scene and
    workflows.evaluate_detectors. `threshold` overrides score_threshold."""
    box_vertical = cfgmod.cfg_str(cfg, "box_vertical")
    if box_vertical not in ("symmetric", "above"):
        raise FormatError(f"config key 'box_vertical' must be symmetric or above, not {box_vertical!r}")
    return pl.FilterParams(
        score_threshold=threshold if threshold is not None else cfgmod.cfg_float(cfg, "score_threshold"),
        pepper_posterior_threshold=cfgmod.cfg_float(cfg, "pepper_posterior_threshold"),
        cluster_tol=cfgmod.cfg_float(cfg, "cluster_tol"),
        min_cluster=cfgmod.cfg_int(cfg, "min_cluster"),
        max_cluster=cfgmod.cfg_int(cfg, "max_cluster"),
        pepper_cluster_tol=cfgmod.cfg_float(cfg, "pepper_cluster_tol"),
        pepper_min_points=cfgmod.cfg_int(cfg, "pepper_min_points"),
        box=pl.PeduncleBoxParams(
            h_offset=cfgmod.cfg_float(cfg, "h_offset"), symmetric=box_vertical == "symmetric"
        ),
        up=pl.parse_up_axis(cfgmod.cfg_str(cfg, "up_axis")),
    )


def _thresholds(cfg: dict) -> np.ndarray:
    """The configuration's threshold grid; FormatError unless it has at least one point."""
    n = cfgmod.cfg_int(cfg, "thresholds")
    if n < 1:
        raise FormatError(f"config key 'thresholds' must be at least 1, got {n}")
    return ev.default_thresholds(n)


def _scene_entries(manifest: str, split: str | None, scene: str | None = None) -> list[dict]:
    """The manifest entries of the split, or of the one scene id `scene` in
    it; FormatError when none is selected."""
    entries = sg.load_manifest(manifest)
    if split:
        entries = [e for e in entries if e["split"] == split]
    if not entries:
        raise FormatError(f"manifest has no scenes for split {split!r}")
    if scene:
        entries = [e for e in entries if e["id"] == scene]
        if not entries:
            raise FormatError(f"scene {scene!r} not in manifest")
    return entries


def _load_scenes(manifest: str, split: str | None, scene: str | None = None):
    """(scenes, manifest entries) of _scene_entries, every selected scene
    read before the call returns."""
    entries = _scene_entries(manifest, split, scene)
    return [sg.load_benchmark_scene(manifest, e) for e in entries], entries


def _detection(args, cfg: dict, threshold: float | None = None):
    """(pepper model, detector, FilterParams) of a detection command, from
    --models and the configuration (`threshold` as in _detection_params)."""
    nb = cls.load_nb(os.path.join(args.models, "nb.model"))
    return nb, _load_detector(args.detector, args.models, cfg), _detection_params(cfg, threshold)


def _load_detector(name: str, models_dir: str, cfg: dict):
    if name == "pfh-svm":
        model = cls.load_svm(os.path.join(models_dir, "svm.model"))
        return pl.PfhSvmDetector(
            model, cfgmod.cfg_int(cfg, "normal_k"), cfgmod.cfg_int(cfg, "fpfh_k")
        )
    if name == "cnn":
        spec = mc.load_netspec(os.path.join(models_dir, "net.spec"))
        net = mc.Network.from_netspec(spec)
        net.load_weights(os.path.join(models_dir, "net.weights"))
        return pl.CnnDetector(net, cfgmod.cfg_int(cfg, "cnn_stride"))
    raise FormatError(f"unknown detector {name!r} (expected pfh-svm or cnn)")


def _write_curves(out_dir: str, curves: list) -> None:
    """pr.csv with the curves' points and summary.txt with one best-F1 line per curve."""
    ev.write_pr_csv(os.path.join(out_dir, "pr.csv"), curves)
    with open(os.path.join(out_dir, "summary.txt"), "w", newline="\n") as fh:
        for curve in curves:
            fh.write(f"{curve.mode} {ev.summary_line(curve)}\n")


# Dump score of an unscored positive: the CLI's thresholds lie in [0, 1].
MISS_SCORE = -1.0


def save_scores(path, rec: ev.SceneEval) -> None:
    """Score dump of a scene record: `scores v1 <count>`, `x y z score label`
    per scored point, then `0.0 0.0 1.0 -1.0 1` per unscored positive."""
    misses = np.tile([0.0, 0.0, 1.0, MISS_SCORE], (rec.unscored_positives, 1))
    floats = np.vstack([np.column_stack([rec.scored.cloud.points, rec.scored.scores]), misses])
    labels = np.concatenate([rec.eval_labels, np.full(rec.unscored_positives, ev.POSITIVE)])
    write_rows(path, f"scores v1 {len(floats)}", floats, labels[:, None])


def load_scores(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a score dump written by save_scores.

    Raises FormatError on a bad header or score line, a non-numeric or
    non-finite value, a score outside [0, 1] other than MISS_SCORE,
    a label other than -1, 0 or 1, a count the file cannot hold, or data
    after the last line.
    """
    with open_text(path) as fh:
        header = fh.readline().split()
        if len(header) != 3 or header[:2] != ["scores", "v1"] or not header[2].isdecimal():
            raise FormatError(f"{path}: not a scores v1 file")
        values, labels = read_rows(fh, path, int(header[2]), 4, 1, "score")
    scores, labels = values[:, 3].copy(), labels[:, 0]
    for bad, what in (
        (~np.isfinite(values).all(axis=1), "non-finite value"),
        (((scores < 0) | (scores > 1)) & (scores != MISS_SCORE), "score outside [0, 1]"),
        (~np.isin(labels, (ev.IGNORED, ev.NEGATIVE, ev.POSITIVE)), "label other than -1, 0 or 1"),
    ):
        if bad.any():
            raise FormatError(f"{path}: {what} on score line {np.argmax(bad) + 1}")
    return scores, labels


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_gen_scene(args, cfg: dict) -> int:
    base = sg.scene_params(cfg)
    manifest = sg.make_benchmark(args.out, args.count, args.seed, args.train, base)
    _log(f"wrote {args.count} scene(s), manifest {manifest}")
    return 0


def cmd_extract_features(args, cfg: dict) -> int:
    """Dump the SVM training sample that workflows.collect_svm_training
    draws; negatives are written with the background label."""
    scenes, _ = _load_scenes(args.scenes, args.split)
    _echo_config(args.out, cfg)
    feats, y = wf.collect_svm_training(
        scenes,
        cfgmod.cfg_int(cfg, "normal_k"),
        cfgmod.cfg_int(cfg, "fpfh_k"),
        max_total=cfgmod.cfg_int(cfg, "svm_max_train"),
        seed=args.seed,
    )
    out_path = os.path.join(args.out, "features.txt")
    ft.save_features(out_path, feats, np.where(y > 0, pc.LABEL_PEDUNCLE, pc.LABEL_BACKGROUND))
    _log(f"wrote {out_path} ({len(y)} rows, {int((y > 0).sum())} positive)")
    return 0


def cmd_train_svm(args, cfg: dict) -> int:
    feats, labels = ft.load_features(args.features)
    params = cls.SvmParams(
        kernel=cfgmod.cfg_str(cfg, "svm_kernel"),
        c=cfgmod.cfg_float(cfg, "svm_c"),
        gamma=cfgmod.cfg_float(cfg, "svm_gamma"),
        tol=cfgmod.cfg_float(cfg, "svm_tol"),
        max_passes=cfgmod.cfg_int(cfg, "svm_max_passes"),
        seed=args.seed,
    )
    _echo_config(args.out, cfg)
    labels = ev.labels_to_eval(labels)
    keep = labels != ev.IGNORED
    y = np.where(labels[keep] == ev.POSITIVE, 1.0, -1.0)
    _log(f"training svm on {keep.sum()} rows ({int((y > 0).sum())} positive)")
    model = cls.svm_train(feats[keep], y, params)
    out_path = os.path.join(args.out, "svm.model")
    cls.save_svm(out_path, model)
    _log(f"wrote {out_path} ({len(model.dual_coefs)} support vectors)")
    return 0


def cmd_train_nb(args, cfg: dict) -> int:
    scenes, _ = _load_scenes(args.scenes, args.split)
    _echo_config(args.out, cfg)
    model = wf.train_nb_from_scenes(scenes, seed=args.seed)
    out_path = os.path.join(args.out, "nb.model")
    cls.save_nb(out_path, model)
    _log(f"wrote {out_path}")
    return 0


def cmd_train_cnn(args, cfg: dict) -> int:
    scenes, _ = _load_scenes(args.scenes, args.split)
    spec = mc.load_netspec(args.netspec) if args.netspec else mc.default_netspec()
    _echo_config(args.out, cfg)
    net = wf.train_cnn_from_scenes(
        scenes,
        spec,
        epochs=cfgmod.cfg_int(cfg, "cnn_epochs"),
        batch=cfgmod.cfg_int(cfg, "cnn_batch"),
        lr=cfgmod.cfg_float(cfg, "cnn_lr"),
        per_scene=cfgmod.cfg_int(cfg, "cnn_patches_per_scene"),
        seed=args.seed,
        log=_log,
    )
    mc.save_netspec(os.path.join(args.out, "net.spec"), spec)
    net.save_weights(os.path.join(args.out, "net.weights"))
    _log(f"wrote net.spec + net.weights ({net.param_count()} parameters)")
    return 0


def cmd_score(args, cfg: dict) -> int:
    scenes, entries = _load_scenes(args.scenes, args.split)
    nb, detector, fp = _detection(args, cfg)
    _echo_config(args.out, cfg)
    for scene, entry in zip(scenes, entries):
        rec = wf.score_scene(scene, detector, nb, fp)
        save_scores(os.path.join(args.out, f"{entry['id']}.scores"), rec)
        _log(f"{entry['id']}: {rec.miss or f'{len(rec.scored)} scored points'}")
    return 0


def cmd_filter(args, cfg: dict) -> int:
    scenes, entries = _load_scenes(args.scenes, args.split, args.scene)
    nb, detector, fp = _detection(args, cfg, args.threshold)
    _echo_config(args.out, cfg)
    missed = 0
    for scene, entry in zip(scenes, entries):
        try:
            result = pl.run_detection(scene.frame, nb, detector, fp)
            survivors, error = result.filter_result.survivors, ""
        except NoPeduncleFound as exc:
            missed += 1
            result, survivors, error = None, exc.survivors, f"error,{exc.reason},{exc}\n"
            _log(f"{entry['id']}: {exc.reason}: {exc}")
        with open(os.path.join(args.out, f"{entry['id']}_diag.csv"), "w", newline="\n") as fh:
            fh.write(pl.format_diagnostics(survivors) + error)
        if result is None:
            continue
        fr = result.filter_result
        cluster_cloud = result.scored.cloud.subset(fr.cluster)
        pc.save_cloud(os.path.join(args.out, f"{entry['id']}_peduncle.cloud"), cluster_cloud)
        pose = result.pose
        with open(os.path.join(args.out, f"{entry['id']}_pose.txt"), "w", newline="\n") as fh:
            fh.write(
                "position " + " ".join(repr(float(v)) for v in pose.position) + "\n"
                "approach " + " ".join(repr(float(v)) for v in pose.approach_axis) + "\n"
            )
        _log(f"{entry['id']}: peduncle cluster of {len(fr.cluster)} points")
    return 3 if missed else 0


def cmd_eval(args, cfg: dict) -> int:
    """Curves over the split's scenes, read one at a time as they are scored:
    a bad scene file exits 2 part-way, and main removes the fresh --out."""
    entries = _scene_entries(args.scenes, args.split)
    nb, detector, fp = _detection(args, cfg)
    thresholds = _thresholds(cfg)
    _echo_config(args.out, cfg)
    scenes = (sg.load_benchmark_scene(args.scenes, e) for e in entries)
    raw, filtered, notes = wf.evaluate_detectors(
        scenes, {args.detector: detector}, nb, thresholds, fp, log=_log, filtered=args.mode != "raw"
    )[args.detector]
    for note in notes:
        _log(note)
    _write_curves(args.out, {"raw": [raw], "filtered": [filtered], "both": [raw, filtered]}[args.mode])
    _log(f"wrote pr.csv + summary.txt ({args.mode})")
    return 0


def cmd_pr_curve(args, cfg: dict) -> int:
    scores, labels = zip(*(load_scores(path) for path in args.scores))
    thresholds = _thresholds(cfg)
    _echo_config(args.out, cfg)
    _write_curves(args.out, [ev.pr_curve(np.concatenate(scores), np.concatenate(labels), thresholds)])
    return 0


def cmd_throughput(args, cfg: dict) -> int:
    if args.repeats < 1:     # before the scoring pass that counts the points
        raise InvalidInput(f"repeats must be positive, got {args.repeats}")
    scenes, _ = _load_scenes(args.scenes, args.split)
    nb, detector, fp = _detection(args, cfg)
    _echo_config(args.out, cfg)
    records = [wf.score_scene(scene, detector, nb, fp) for scene in scenes]
    wf.require_a_scored_scene(records)
    units = sum(len(rec.scored) for rec in records)

    def work():
        for scene in scenes:
            wf.score_scene(scene, detector, nb, fp)

    report = ev.throughput(work, units, repeats=args.repeats)
    with open(os.path.join(args.out, "throughput.txt"), "w", newline="\n") as fh:
        fh.write(f"detector {args.detector}\n")
        fh.write(f"units {report['units']}\n")
        fh.write(f"repeats {report['repeats']}\n")
        fh.write(f"median_rate {report['median_rate']!r}\n")
        fh.write(f"min_rate {report['min_rate']!r}\n")
        fh.write(f"max_rate {report['max_rate']!r}\n")
        # rates from the original greenhouse deployment of this two-system
        # design, for context only; hardware and data differ
        fh.write("context_rate cnn 1704\n")
        fh.write("context_rate pfh-svm 1248\n")
    _log(f"median rate: {report['median_rate']:.0f} points/s over {units} points")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="peduncle",
        description="Peduncle detection pipelines, evaluation and synthetic scenes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scenes=False, models=False, detector=False):
        p.add_argument("--config", default=None, help="key = value config file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", required=True, help="output directory")
        if scenes:
            p.add_argument("--scenes", required=True, help="scene manifest path")
            p.add_argument("--split", default=None, choices=("train", "eval"))
        if models:
            p.add_argument("--models", required=True, help="directory with trained models")
        if detector:
            p.add_argument("--detector", required=True, choices=("pfh-svm", "cnn"))

    p = sub.add_parser("gen-scene", help="generate synthetic scenes + manifest")
    common(p)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--train", type=int, default=None, help="scenes marked as training split")
    p.set_defaults(fn=cmd_gen_scene)

    p = sub.add_parser("extract-features", help="dump per-point descriptors")
    common(p, scenes=True)
    p.set_defaults(fn=cmd_extract_features)

    p = sub.add_parser("train-svm", help="train the margin classifier from a feature dump")
    common(p)
    p.add_argument("--features", required=True)
    p.set_defaults(fn=cmd_train_svm)

    p = sub.add_parser("train-nb", help="fit the pepper HSV model")
    common(p, scenes=True)
    p.set_defaults(fn=cmd_train_nb)

    p = sub.add_parser("train-cnn", help="train the patch scorer")
    common(p, scenes=True)
    p.add_argument("--netspec", default=None, help="layer spec file (default: shipped)")
    p.set_defaults(fn=cmd_train_cnn)

    p = sub.add_parser("score", help="score scenes, writing per-scene dumps")
    common(p, scenes=True, models=True, detector=True)
    p.set_defaults(fn=cmd_score)

    p = sub.add_parser("filter", help="full detection incl. 3D filtering + pose")
    common(p, scenes=True, models=True, detector=True)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--scene", default=None, help="process one scene id only")
    p.set_defaults(fn=cmd_filter)

    p = sub.add_parser("eval", help="precision/recall curves over scenes")
    common(p, scenes=True, models=True, detector=True)
    p.add_argument("--mode", default="both", choices=("raw", "filtered", "both"))
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("pr-curve", help="curve from existing score dumps")
    common(p)
    p.add_argument("--scores", nargs="+", required=True)
    p.set_defaults(fn=cmd_pr_curve)

    p = sub.add_parser("throughput", help="measure scoring rate")
    common(p, scenes=True, models=True, detector=True)
    p.add_argument("--repeats", type=int, default=5)
    p.set_defaults(fn=cmd_throughput)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    # --out, or its outermost parent not there yet: what a failed call removes if it made it
    fresh = os.path.abspath(args.out)
    while not os.path.exists(os.path.dirname(fresh)):
        fresh = os.path.dirname(fresh)
    out_existed = os.path.exists(fresh)
    try:
        return args.fn(args, cfgmod.merged_config(args.config))
    except NoPeduncleFound as exc:
        _log(f"{exc.reason}: {exc}")
        return 3
    except (PeduncleError, OSError) as exc:
        _log(f"error: {exc}")
        if not out_existed:
            shutil.rmtree(fresh, ignore_errors=True)
        return 2


if __name__ == "__main__":
    sys.exit(main())
