"""The benchmark's four workloads.

Each workload object has ``setup`` (everything before the timed phase; the
runner repeats it and reports the median), ``warmup``, ``round`` (one whole
round of the same operations; the runner repeats rounds until the run's
seconds are used up), ``check`` (the independent checks of checks.py, run
after timing) and ``metrics``. All inputs are scenes of the C6 distribution
(``scenegen.benchmark_params(n, 20240, benchmark_base())``) taken in order;
the seed only permutes the order in which a round visits them, so every run
does the same work and the figures of different seeds are comparable.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import statistics
import time
from dataclasses import dataclass

import numpy as np

import checks
import models
from peduncle import classifiers as cls
from peduncle import config as cfgmod
from peduncle import evaluate as ev
from peduncle import pipeline as pl
from peduncle import scenegen as sg
from peduncle import workflows as wf
from peduncle.cli import main as cli_main
from peduncle.errors import NoPeduncleFound, PeduncleError

DETECTORS = ("pfh-svm", "cnn")
FILTER = pl.FilterParams()              # shipped threshold 0.5
BOX = pl.PeduncleBoxParams()


@dataclass(frozen=True)
class Sizes:
    detect_frames: int = 6      # C6 eval draws per detect round
    sweep_scenes: int = 4       # C6 eval draws pooled by the sweep
    train_scenes: int = 1       # C6 training draws per training
    cli_scenes: int = 2         # scenes per gen-scene call
    thresholds: int = 101       # the CLI's default grid


FULL = Sizes()


class HostClock:
    """Host-speed calibration.

    On a shared 2-core virtual machine the same code ran up to 1.8 times
    slower in one eight-second window than in another, and CPU time tracked
    wall time, so no statistic taken inside a short run removes the drift. The clock runs a fixed reference job (an interpreter loop, a
    numpy sort, a random gather and a float32 matmul; no library code)
    between operations. ``factor(start, end)`` is the median time of the job
    within a few seconds of that interval over ``NOMINAL_S``: a time divided
    by it is in seconds of a host that runs the job in ``NOMINAL_S``. The
    raw intervals and the samples go into each run's result file.
    """

    NOMINAL_S = 0.012
    PER_SAMPLE = 3          # jobs per sample() call
    WINDOW_S = 2.0
    NEAREST = 6

    def __init__(self):
        rng = np.random.default_rng(0)
        self._array = rng.random(1_000_000)
        self._index = rng.integers(0, len(self._array), 300_000)
        self._a = rng.random((512, 1152)).astype(np.float32)
        self._b = rng.random((1152, 64)).astype(np.float32)
        self.samples = []        # (midpoint, seconds)
        self.spent = 0.0
        for _ in range(2):
            self._job()

    def _job(self):
        acc = 0
        for i in range(40_000):
            acc += i * i % 7
        np.sort(self._array[:200_000])
        self._array[self._index].sum()
        self._a @ self._b
        return acc

    def sample(self):
        for _ in range(self.PER_SAMPLE):
            start = time.perf_counter()
            self._job()
            end = time.perf_counter()
            self.samples.append((0.5 * (start + end), end - start))
            self.spent += end - start

    def factor(self, start: float, end: float) -> float:
        """Median job time over the samples taken within WINDOW_S of the
        interval [start, end], or its NEAREST samples when fewer."""
        near = [s for t, s in self.samples if start - self.WINDOW_S <= t <= end + self.WINDOW_S]
        if len(near) < self.NEAREST:
            mid = 0.5 * (start + end)
            near = [s for _, s in sorted(self.samples, key=lambda ts: abs(ts[0] - mid))[: self.NEAREST]]
        return statistics.median(near) / self.NOMINAL_S


def c6_params(draws):
    params = sg.benchmark_params(max(draws) + 1, models.MASTER_SEED, sg.benchmark_base())
    return [params[i] for i in draws]


def eval_draws(n: int):
    return range(models.C6_TRAIN, models.C6_TRAIN + n)


def alternate(k: int):
    """The detectors, with the one that goes first alternating with k, so a
    slow stretch of the host hits both."""
    return DETECTORS if k % 2 == 0 else DETECTORS[::-1]


def f1_score(tp: int, fp: int, fn: int) -> float:
    return 2.0 * tp / (2.0 * tp + fp + fn) if tp else 0.0


class Workload:
    def __init__(self, seed: int, sizes: Sizes, model_dir: str, work_dir: str):
        self.sizes, self.model_dir, self.work_dir = sizes, model_dir, work_dir
        self.rng = np.random.default_rng(seed)
        self.clock = HostClock()
        self.op_times = {d: [] for d in DETECTORS}
        self.attempted = 0
        self.failed = 0

    def warmup(self):
        pass

    def check(self):
        pass

    def close(self):
        pass

    def timed(self, name, key, fn, *args):
        """Run one operation on input ``key``, record its interval, then
        sample the host clock."""
        start = time.perf_counter()
        out = fn(*args)
        self.op_times[name].append((key, start, time.perf_counter()))
        self.clock.sample()
        return out

    def metrics(self) -> dict:
        """op_p50_ms, points_per_s and f1 per detector. Each operation's
        time is divided by the host clock's factor around it; op_p50_ms is
        the median over the inputs of each input's mean over the rounds."""
        out = {}
        for d in DETECTORS:
            per_input = {}
            for key, start, end in self.op_times[d]:
                per_input.setdefault(key, []).append((end - start) / self.clock.factor(start, end))
            t = [v for times in per_input.values() for v in times]
            out[f"op_p50_ms.{d}"] = 1000.0 * statistics.median(statistics.mean(v) for v in per_input.values())
            out[f"points_per_s.{d}"] = self.points_per_op[d] * len(t) / sum(t)
            out[f"f1.{d}"] = self.f1[d]
        return out


class Detect(Workload):
    """The robot's loop: run_detection per frame, detectors interleaved."""

    def __init__(self, *args):
        super().__init__(*args)
        self.order = self.rng.permutation(self.sizes.detect_frames)
        self.outcomes = {}       # (frame, detector) -> first round's (output, cluster bytes)

    def setup(self):
        self.nb, svm, net = models.load(self.model_dir)
        self.detectors = {"pfh-svm": pl.PfhSvmDetector(svm), "cnn": pl.CnnDetector(net)}
        self.scenes = [sg.generate(p) for p in c6_params(eval_draws(self.sizes.detect_frames))]

    def _detect(self, frame, name):
        try:
            return pl.run_detection(frame, self.nb, self.detectors[name], FILTER)
        except NoPeduncleFound:
            return None

    def warmup(self):
        frame = self.scenes[self.order[0]].frame
        for name in DETECTORS:
            with contextlib.suppress(PeduncleError):
                self._detect(frame, name)

    def round(self, r: int):
        for k, i in enumerate(self.order):
            for name in alternate(k + r):
                self.attempted += 1
                try:
                    out = self.timed(name, int(i), self._detect, self.scenes[i].frame, name)
                except PeduncleError:
                    self.failed += 1
                    continue
                digest = None if out is None else out.filter_result.cluster.tobytes()
                first = self.outcomes.setdefault((int(i), name), (out, digest))
                checks.require(first[1] == digest, f"frame {i} {name}: output differs between rounds")

    def check(self):
        self.points_per_op = {d: 0 for d in DETECTORS}
        tally = {d: [0, 0, 0] for d in DETECTORS}
        for (i, name), (out, _) in sorted(self.outcomes.items()):
            frame = self.scenes[i].frame
            if out is None:
                # recompute what the library scored before it found no peduncle
                pepper_idx, _ = pl.detect_pepper(frame.cloud, self.nb)
                h, w = frame.depth_raw.shape
                roi = pl.compute_roi(pl.pixel_bbox(frame.pixels[pepper_idx]), w, h)
                scored, cluster, pose = self.detectors[name].score_frame(frame, roi), None, None
            else:
                pepper_idx, scored = out.pepper_indices, out.scored
                cluster, pose = out.filter_result.cluster, out.pose
            checks.check_detection(frame, self.nb, name, pepper_idx, scored, cluster, pose, FILTER, BOX.h_offset)
            labels = scored.cloud.labels
            pos = labels == checks.LABEL_PEDUNCLE
            picked = np.zeros(len(labels), dtype=bool)
            if cluster is not None:
                picked[cluster] = True
            t = tally[name]
            t[0] += int(np.sum(picked & pos))
            t[1] += int(np.sum(picked & ~pos & (labels != checks.LABEL_UNLABELED)))
            t[2] += int(np.sum(~picked & pos))
            self.points_per_op[name] += len(scored)
        for name in DETECTORS:
            self.points_per_op[name] /= self.sizes.detect_frames
        self.f1 = {d: f1_score(*tally[d]) for d in DETECTORS}


class Sweep(Workload):
    """Raw and filtered PR curves over pre-scored scenes."""

    def setup(self):
        self.nb, svm, net = models.load(self.model_dir)
        detectors = {"pfh-svm": pl.PfhSvmDetector(svm), "cnn": pl.CnnDetector(net)}
        scenes = [sg.generate(p) for p in c6_params(eval_draws(self.sizes.sweep_scenes))]
        order = self.rng.permutation(len(scenes))
        self.evals = {d: [wf.score_scene(scenes[i], detectors[d], self.nb) for i in order] for d in DETECTORS}
        self.thresholds = ev.default_thresholds(self.sizes.thresholds)
        self.curves = {}

    def _curves(self, name):
        raw = wf.pooled_raw_curve(self.evals[name], self.thresholds)
        filtered, _ = ev.eval_filtered(self.evals[name], self.nb, self.thresholds)
        return raw, filtered

    def round(self, r: int):
        for name in alternate(r):
            self.attempted += 1
            raw, filtered = self.timed(name, 0, self._curves, name)
            got = (checks.counts(raw), checks.counts(filtered))
            first = self.curves.setdefault(name, (raw, filtered))
            checks.require(
                all(np.array_equal(a, b) for a, b in zip(got, map(checks.counts, first))),
                f"{name}: curves differ between rounds",
            )

    def check(self):
        self.points_per_op, self.f1 = {}, {}
        for name, (raw, filtered) in self.curves.items():
            evals = self.evals[name]
            scores = np.concatenate([e.scored.scores for e in evals])
            labels = np.concatenate([e.eval_labels for e in evals])
            checks.check_sweep(raw, filtered, scores, labels, self.thresholds)
            self.points_per_op[name] = len(scores)
            self.f1[name] = filtered.best.f1


class Train(Workload):
    """SVM sample extraction + SMO, then CNN training, shipped settings.

    The training scenes and seeds are fixed, so this workload's input does
    not depend on the seed."""

    def setup(self):
        self.scenes = [sg.generate(p) for p in c6_params(range(self.sizes.train_scenes))]
        self.spec = models.shipped_spec()
        cfg = cfgmod.default_config()
        self.svm_args = dict(
            normal_k=cfgmod.cfg_int(cfg, "normal_k"), fpfh_k=cfgmod.cfg_int(cfg, "fpfh_k"),
            max_total=cfgmod.cfg_int(cfg, "svm_max_train"), seed=models.TRAIN_SEED,
        )
        self.svm_params = cls.SvmParams(
            kernel=cfgmod.cfg_str(cfg, "svm_kernel"), c=cfgmod.cfg_float(cfg, "svm_c"),
            gamma=cfgmod.cfg_float(cfg, "svm_gamma"), tol=cfgmod.cfg_float(cfg, "svm_tol"),
            max_passes=cfgmod.cfg_int(cfg, "svm_max_passes"), seed=models.TRAIN_SEED,
        )
        self.cnn_args = dict(
            epochs=cfgmod.cfg_int(cfg, "cnn_epochs"), batch=cfgmod.cfg_int(cfg, "cnn_batch"),
            lr=cfgmod.cfg_float(cfg, "cnn_lr"), per_scene=cfgmod.cfg_int(cfg, "cnn_patches_per_scene"),
            seed=models.TRAIN_SEED,
        )
        self.out = {}

    def _train(self, name):
        if name == "pfh-svm":
            feats, y = wf.collect_svm_training(self.scenes, **self.svm_args)
            return feats, y, cls.svm_train(feats, y, self.svm_params)
        log = []
        net = wf.train_cnn_from_scenes(self.scenes, self.spec, log=log.append, **self.cnn_args)
        return log, net

    def round(self, r: int):
        for name in alternate(r):
            self.attempted += 1
            self.out.setdefault(name, self.timed(name, 0, self._train, name))

    def check(self):
        feats, y, svm = self.out["pfh-svm"]
        checks.check_svm(svm, feats, y)
        log, net = self.out["cnn"]
        patches, labels = wf.sample_training_patches(
            self.scenes, (self.spec.input_h, self.spec.input_w), self.cnn_args["per_scene"], models.TRAIN_SEED
        )
        checks.check_cnn(net, checks.epoch_losses(log), patches)
        pred_svm = cls.svm_score_batch(svm, feats) > 0
        pred_cnn = checks.softmax(net.forward(patches)).argmax(axis=1) == 1
        self.f1 = {
            d: f1_score(int(np.sum(p & t)), int(np.sum(p & ~t)), int(np.sum(~p & t)))
            for d, p, t in (("pfh-svm", pred_svm, y > 0), ("cnn", pred_cnn, labels == 1))
        }
        self.points_per_op = {
            "pfh-svm": sum(len(s.cloud) for s in self.scenes),
            "cnn": len(labels) * self.cnn_args["epochs"],
        }


class Cli(Workload):
    """gen-scene -> score -> pr-curve through peduncle.cli.main, in-process."""

    def setup(self):
        shutil.rmtree(self.work_dir, ignore_errors=True)
        self.models = os.path.join(self.work_dir, "models")
        os.makedirs(self.models)
        for f in models.FILES:
            shutil.copyfile(os.path.join(self.model_dir, f), os.path.join(self.models, f))
        base = sg.benchmark_base()
        self.cfg = os.path.join(self.work_dir, "camera.cfg")
        cfgmod.write_config(self.cfg, {
            "image_width": str(base.image_w), "image_height": str(base.image_h),
            "fx": repr(base.fx), "fy": repr(base.fy), "cx": repr(base.cx), "cy": repr(base.cy),
            "depth_scale": repr(base.depth_scale),
            "pepper_center": " ".join(repr(v) for v in base.pepper_center),
        })
        # the reference scenes the reloaded ones must equal
        self.reference = [sg.generate(p) for p in c6_params(range(self.sizes.cli_scenes))]
        self.ids = [f"eval{i:04d}" for i in range(self.sizes.cli_scenes)]
        self.dump_order = self.rng.permutation(self.sizes.cli_scenes)
        self.codes = []

    def _cli(self, *argv):
        self.attempted += 1
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli_main([str(a) for a in argv])
        self.codes.append(code)
        self.failed += code != 0

    def round(self, r: int):
        out = os.path.join(self.work_dir, "run")
        shutil.rmtree(out, ignore_errors=True)
        scenes = os.path.join(out, "scenes")
        self._cli("gen-scene", "--config", self.cfg, "--out", scenes, "--count", self.sizes.cli_scenes,
                  "--train", 0, "--seed", models.MASTER_SEED)
        self.clock.sample()
        for name in alternate(r):
            self.timed(name, 0, self._score_and_curve, name, out)

    def _score_and_curve(self, name, out):
        dumps = os.path.join(out, f"dumps-{name}")
        self._cli("score", "--config", self.cfg, "--scenes", os.path.join(out, "scenes", "manifest.txt"),
                  "--models", self.models, "--detector", name, "--out", dumps)
        self._cli("pr-curve", "--config", self.cfg, "--out", os.path.join(out, f"pr-{name}"), "--scores",
                  *(os.path.join(dumps, f"{self.ids[i]}.scores") for i in self.dump_order))

    def check(self):
        checks.require(self.codes and all(c == 0 for c in self.codes), f"exit codes {sorted(set(self.codes))}")
        out = os.path.join(self.work_dir, "run")
        manifest = os.path.join(out, "scenes", "manifest.txt")
        entries = sg.load_manifest(manifest)
        checks.require([e["id"] for e in entries] == self.ids, "manifest lists other scenes")
        for entry, ref in zip(entries, self.reference):
            checks.check_scene_equal(sg.load_benchmark_scene(manifest, entry), ref)
        nb, svm, net = models.load(self.model_dir)
        detectors = {"pfh-svm": pl.PfhSvmDetector(svm), "cnn": pl.CnnDetector(net)}
        thresholds = ev.default_thresholds(cfgmod.cfg_int(cfgmod.default_config(), "thresholds"))
        self.points_per_op, self.f1 = {}, {}
        for name in DETECTORS:
            evals = [wf.score_scene(self.reference[i], detectors[name], nb) for i in self.dump_order]
            curve = wf.pooled_raw_curve(evals, thresholds)
            checks.check_pr_csv(os.path.join(out, f"pr-{name}", "pr.csv"), curve)
            scores = np.concatenate([e.scored.scores for e in evals])
            labels = np.concatenate([e.eval_labels for e in evals])
            checks.require(np.array_equal(checks.counts(curve), checks.recount(scores, labels, thresholds)),
                           f"{name}: in-memory raw curve differs from recount")
            self.points_per_op[name] = len(scores)
            self.f1[name] = curve.best.f1

    def close(self):
        shutil.rmtree(self.work_dir, ignore_errors=True)


WORKLOADS = {"detect": Detect, "sweep": Sweep, "train": Train, "cli": Cli}
