"""Command-line front end.

Every command validates its flags, echoes the merged configuration into the
output directory, writes machine-readable results to files only, and keeps
human-readable progress on the error stream. Exit codes: 0 success, 1 usage
error, 2 data error, 3 operational non-detection (no pepper, a region of
interest off the image or without scored depth, no peduncle).
"""

from __future__ import annotations

import argparse
import math
import os
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
from .errors import (
    EmptyProjection,
    FormatError,
    NoPeduncleFound,
    NoPepperFound,
    PeduncleError,
    RoiOutOfImage,
)


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _echo_config(out_dir: str, cfg: dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    cfgmod.write_config(os.path.join(out_dir, "config.cfg"), cfg)


def _intrinsics(cfg: dict) -> pl.CameraIntrinsics:
    return pl.CameraIntrinsics(
        cfgmod.cfg_float(cfg, "fx"),
        cfgmod.cfg_float(cfg, "fy"),
        cfgmod.cfg_float(cfg, "cx"),
        cfgmod.cfg_float(cfg, "cy"),
        cfgmod.cfg_float(cfg, "depth_scale"),
    )


def _filter_params(cfg: dict, threshold: float | None = None) -> pl.FilterParams:
    return pl.FilterParams(
        score_threshold=(
            threshold if threshold is not None else cfgmod.cfg_float(cfg, "score_threshold")
        ),
        pepper_posterior_threshold=cfgmod.cfg_float(cfg, "pepper_posterior_threshold"),
        cluster_tol=cfgmod.cfg_float(cfg, "cluster_tol"),
        min_cluster=cfgmod.cfg_int(cfg, "min_cluster"),
        max_cluster=cfgmod.cfg_int(cfg, "max_cluster"),
    )


def _pepper_params(cfg: dict) -> pl.PepperDetectParams:
    return pl.PepperDetectParams(
        posterior_threshold=cfgmod.cfg_float(cfg, "pepper_posterior_threshold"),
        cluster_tol=cfgmod.cfg_float(cfg, "pepper_cluster_tol"),
        min_points=cfgmod.cfg_int(cfg, "pepper_min_points"),
    )


def _box_params(cfg: dict) -> pl.PeduncleBoxParams:
    return pl.PeduncleBoxParams(
        h_offset=cfgmod.cfg_float(cfg, "h_offset"),
        symmetric=cfgmod.cfg_str(cfg, "box_vertical") == "symmetric",
    )


def _load_scenes(manifest: str, split: str | None):
    entries = sg.load_manifest(manifest)
    if split:
        entries = [e for e in entries if e["split"] == split]
    if not entries:
        raise FormatError(f"manifest has no scenes for split {split!r}")
    return [sg.load_benchmark_scene(manifest, e) for e in entries], entries


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


def save_scores(path, scored: pl.ScoredCloud, eval_labels: np.ndarray) -> None:
    """Score dump: `scores v1 <count>` then `x y z score label` per point."""
    lines = [f"scores v1 {len(scored)}"]
    for p, s, lab in zip(scored.cloud.points, scored.scores, eval_labels):
        lines.append(
            f"{float(p[0])!r} {float(p[1])!r} {float(p[2])!r} {float(s)!r} {int(lab)}"
        )
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_scores(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a score dump written by save_scores; FormatError on any bad line,
    a non-finite value included."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 3 or header[:2] != ["scores", "v1"] or not header[2].isdigit():
            raise FormatError(f"{path}: not a scores v1 file")
        count = int(header[2])
        scores = np.empty(count)
        labels = np.empty(count, dtype=np.int64)
        for i in range(count):
            fields = fh.readline().split()
            if len(fields) != 5:
                raise FormatError(f"{path}: score line {i + 1} needs 5 fields")
            try:
                values = [float(v) for v in fields[:4]]
                labels[i] = int(fields[4])
            except ValueError as exc:
                raise FormatError(f"{path}: non-numeric field on score line {i + 1}") from exc
            if not all(map(math.isfinite, values)):
                raise FormatError(f"{path}: non-finite value on score line {i + 1}")
            scores[i] = values[3]
    return scores, labels


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_gen_scene(args) -> int:
    cfg = cfgmod.merged_config(args.config)
    center = tuple(float(v) for v in cfgmod.cfg_str(cfg, "pepper_center").split())
    base = sg.SceneParams(
        image_w=cfgmod.cfg_int(cfg, "image_width"),
        image_h=cfgmod.cfg_int(cfg, "image_height"),
        fx=cfgmod.cfg_float(cfg, "fx"),
        fy=cfgmod.cfg_float(cfg, "fy"),
        cx=cfgmod.cfg_float(cfg, "cx"),
        cy=cfgmod.cfg_float(cfg, "cy"),
        depth_scale=cfgmod.cfg_float(cfg, "depth_scale"),
        pepper_center=center,
    )
    os.makedirs(args.out, exist_ok=True)
    manifest = sg.make_benchmark(args.out, args.count, args.seed, args.train, base)
    _log(f"wrote {args.count} scene(s), manifest {manifest}")
    return 0


def cmd_extract_features(args) -> int:
    cfg = cfgmod.merged_config(args.config)
    scenes, _ = _load_scenes(args.scenes, args.split)
    _echo_config(args.out, cfg)
    rng = np.random.default_rng(args.seed)
    rows, labs = [], []
    per_scene = cfgmod.cfg_int(cfg, "svm_max_train") // max(len(scenes), 1)
    for i, scene in enumerate(scenes):
        feats, labels, valid = wf.extract_scene_features(
            scene, cfgmod.cfg_int(cfg, "normal_k"), cfgmod.cfg_int(cfg, "fpfh_k")
        )
        pos = np.flatnonzero((labels == pc.LABEL_PEDUNCLE) & valid)
        neg = np.flatnonzero((labels != pc.LABEL_PEDUNCLE) & (labels != pc.LABEL_UNLABELED) & valid)
        half = max(per_scene // 2, 1)
        if pos.size > half:
            pos = np.sort(rng.choice(pos, half, replace=False))
        if neg.size > half:
            neg = np.sort(rng.choice(neg, half, replace=False))
        keep = np.concatenate([pos, neg])
        rows.append(feats[keep])
        labs.append(labels[keep])
        _log(f"scene {i + 1}/{len(scenes)}: kept {keep.size} feature rows")
    out_path = os.path.join(args.out, "features.txt")
    ft.save_features(out_path, np.vstack(rows), np.concatenate(labs))
    _log(f"wrote {out_path}")
    return 0


def cmd_train_svm(args) -> int:
    cfg = cfgmod.merged_config(args.config)
    _echo_config(args.out, cfg)
    feats, labels = ft.load_features(args.features)
    keep = labels != pc.LABEL_UNLABELED
    y = np.where(labels[keep] == pc.LABEL_PEDUNCLE, 1.0, -1.0)
    params = cls.SvmParams(
        kernel=cfgmod.cfg_str(cfg, "svm_kernel"),
        c=cfgmod.cfg_float(cfg, "svm_c"),
        gamma=cfgmod.cfg_float(cfg, "svm_gamma"),
        tol=cfgmod.cfg_float(cfg, "svm_tol"),
        max_passes=cfgmod.cfg_int(cfg, "svm_max_passes"),
        seed=args.seed,
    )
    _log(f"training svm on {keep.sum()} rows ({int((y > 0).sum())} positive)")
    model = cls.svm_train(feats[keep], y, params)
    out_path = os.path.join(args.out, "svm.model")
    cls.save_svm(out_path, model)
    _log(f"wrote {out_path} ({len(model.dual_coefs)} support vectors)")
    return 0


def cmd_train_nb(args) -> int:
    cfg = cfgmod.merged_config(args.config)
    scenes, _ = _load_scenes(args.scenes, args.split)
    _echo_config(args.out, cfg)
    model = wf.train_nb_from_scenes(scenes, seed=args.seed)
    out_path = os.path.join(args.out, "nb.model")
    cls.save_nb(out_path, model)
    _log(f"wrote {out_path}")
    return 0


def cmd_train_cnn(args) -> int:
    cfg = cfgmod.merged_config(args.config)
    scenes, _ = _load_scenes(args.scenes, args.split)
    _echo_config(args.out, cfg)
    if args.netspec:
        spec = mc.load_netspec(args.netspec)
    else:
        from importlib import resources

        spec = mc.parse_netspec(
            resources.files("peduncle").joinpath("data/default_net.spec").read_text()
        )
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


def cmd_score(args) -> int:
    cfg = cfgmod.merged_config(args.config)
    scenes, entries = _load_scenes(args.scenes, args.split)
    _echo_config(args.out, cfg)
    nb = cls.load_nb(os.path.join(args.models, "nb.model"))
    detector = _load_detector(args.detector, args.models, cfg)
    for scene, entry in zip(scenes, entries):
        rec = wf.score_scene(scene, detector, nb, _pepper_params(cfg))
        save_scores(os.path.join(args.out, f"{entry['id']}.scores"), rec.scored, rec.eval_labels)
        _log(f"{entry['id']}: {len(rec.scored)} scored points")
    return 0


def cmd_filter(args) -> int:
    cfg = cfgmod.merged_config(args.config)
    scenes, entries = _load_scenes(args.scenes, args.split)
    if args.scene:
        pairs = [(s, e) for s, e in zip(scenes, entries) if e["id"] == args.scene]
        if not pairs:
            raise FormatError(f"scene {args.scene!r} not in manifest")
    else:
        pairs = list(zip(scenes, entries))
    _echo_config(args.out, cfg)
    nb = cls.load_nb(os.path.join(args.models, "nb.model"))
    detector = _load_detector(args.detector, args.models, cfg)
    missed = 0
    for scene, entry in pairs:
        try:
            result = pl.run_detection(
                scene.frame,
                nb,
                detector,
                _filter_params(cfg, args.threshold),
                _pepper_params(cfg),
                _box_params(cfg),
                pl.parse_up_axis(cfgmod.cfg_str(cfg, "up_axis")),
            )
        except (NoPepperFound, RoiOutOfImage, EmptyProjection, NoPeduncleFound) as exc:
            missed += 1
            with open(os.path.join(args.out, f"{entry['id']}_diag.csv"), "w", newline="\n") as fh:
                if getattr(exc, "survivors", None):
                    fh.write(pl.format_diagnostics(exc.survivors))
                fh.write(f"error,{type(exc).__name__},{exc}\n")
            _log(f"{entry['id']}: {type(exc).__name__}: {exc}")
            continue
        fr = result.filter_result
        with open(os.path.join(args.out, f"{entry['id']}_diag.csv"), "w", newline="\n") as fh:
            fh.write(pl.format_diagnostics(fr.survivors))
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


def cmd_eval(args) -> int:
    cfg = cfgmod.merged_config(args.config)
    scenes, _ = _load_scenes(args.scenes, args.split)
    _echo_config(args.out, cfg)
    nb = cls.load_nb(os.path.join(args.models, "nb.model"))
    detector = _load_detector(args.detector, args.models, cfg)
    thresholds = ev.default_thresholds(cfgmod.cfg_int(cfg, "thresholds"))
    raw, filtered, notes = wf.evaluate_detector(
        scenes,
        detector,
        nb,
        thresholds,
        _filter_params(cfg),
        _box_params(cfg),
        pl.parse_up_axis(cfgmod.cfg_str(cfg, "up_axis")),
        _pepper_params(cfg),
        log=_log,
    )
    for note in notes:
        _log(note)
    curves = {"raw": [raw], "filtered": [filtered], "both": [raw, filtered]}[args.mode]
    ev.write_pr_csv(os.path.join(args.out, "pr.csv"), curves)
    with open(os.path.join(args.out, "summary.txt"), "w", newline="\n") as fh:
        for curve in curves:
            fh.write(f"{curve.mode} {ev.summary_line(curve)}\n")
    _log(f"wrote pr.csv + summary.txt ({args.mode})")
    return 0


def cmd_pr_curve(args) -> int:
    cfg = cfgmod.merged_config(args.config)
    _echo_config(args.out, cfg)
    scores = []
    labels = []
    for path in args.scores:
        s, l = load_scores(path)
        scores.append(s)
        labels.append(l)
    curve = ev.pr_curve(
        np.concatenate(scores),
        np.concatenate(labels),
        ev.default_thresholds(cfgmod.cfg_int(cfg, "thresholds")),
    )
    ev.write_pr_csv(os.path.join(args.out, "pr.csv"), [curve])
    with open(os.path.join(args.out, "summary.txt"), "w", newline="\n") as fh:
        fh.write(f"raw {ev.summary_line(curve)}\n")
    return 0


def cmd_throughput(args) -> int:
    cfg = cfgmod.merged_config(args.config)
    scenes, _ = _load_scenes(args.scenes, args.split)
    _echo_config(args.out, cfg)
    nb = cls.load_nb(os.path.join(args.models, "nb.model"))
    detector = _load_detector(args.detector, args.models, cfg)
    pepper_params = _pepper_params(cfg)
    units = 0
    for scene in scenes:
        units += len(wf.score_scene(scene, detector, nb, pepper_params).scored)
    if units == 0:
        raise FormatError("workload scored no points")

    def work():
        for scene in scenes:
            wf.score_scene(scene, detector, nb, pepper_params)

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
    try:
        return args.fn(args)
    except (NoPepperFound, NoPeduncleFound) as exc:
        _log(f"{type(exc).__name__}: {exc}")
        return 3
    except (PeduncleError, OSError) as exc:
        _log(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
