"""Span tracer for the benchmark's traced run.

The library carries no instrumentation of its own, so the tracer wraps it
from the outside: every public function of each ``peduncle`` module, the
two detectors' ``score_frame``, and ``forward`` / ``backward`` of every CNN
layer class. Each wrapped call records a span (name, start, end, parent)
in memory; ``write`` saves them when the run ends. Calls made while the
tracer is inactive (the benchmark's own checks) pass straight through.

Wrapping replaces module attributes, so calls between library functions
(which look names up in their module at call time) are traced as well.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import statistics
import time
from collections import defaultdict

PHASES = ("bench.setup", "bench.round")
MODULES = (
    "cloud", "features", "classifiers", "minicnn", "pipeline",
    "evaluate", "workflows", "scenegen", "rasters", "config", "cli",
)
LAYER_KINDS = {"Conv2d": "conv", "MaxPool": "pool", "Relu": "relu", "Inception": "inception", "Fc": "fc"}
DETECTORS = {"PfhSvmDetector": "pfh-svm", "CnnDetector": "cnn"}
# several raster readers / writers count as one layer each
ALIASES = {
    "rasters.read_ppm": "rasters.read", "rasters.read_pgm16": "rasters.read", "rasters.read_mask": "rasters.read",
    "rasters.write_ppm": "rasters.write", "rasters.write_pgm16": "rasters.write", "rasters.write_mask": "rasters.write",
}

# Per-layer metrics: busy time (.s) and self time (.self_s) of each span
# below, call counts (.calls) of those in CALLED, plus the work counts in
# COUNTS. Chosen as the layers an optimisation is most likely to move; see
# README.md for the end-to-end metric each should move.
SPANS = (
    "cloud.knn_batch", "cloud.estimate_normals", "cloud.euclidean_cluster",
    "cloud.save_cloud", "cloud.load_cloud",
    "features.fpfh", "features.rgb_to_hsv_array",
    "classifiers.svm_score_batch", "classifiers.svm_train", "classifiers.nb_posterior",
    "minicnn.score_map", "minicnn.densify_score_map", "minicnn.train_network",
    *(f"minicnn.{d}.{k}" for d in ("forward", "backward") for k in LAYER_KINDS.values()),
    "pipeline.unproject_depth", "pipeline.detect_pepper", "pipeline.score_frame.pfh-svm",
    "pipeline.score_frame.cnn", "pipeline.project_to_3d", "pipeline.filter_detections",
    "pipeline.run_detection",
    "evaluate.eval_filtered", "evaluate.pr_curve",
    "workflows.collect_svm_training", "workflows.sample_training_patches",
    "workflows.score_scene", "workflows.train_cnn_from_scenes",
    "scenegen.generate", "scenegen.save_scene", "scenegen.load_scene",
    "rasters.read", "rasters.write",
    "cli.cmd_gen_scene", "cli.cmd_score", "cli.cmd_pr_curve", "cli.save_scores", "cli.load_scores",
)
# call counts only where the number of calls is itself a cost
CALLED = (
    "cloud.knn_batch", "cloud.euclidean_cluster", "features.rgb_to_hsv_array",
    "classifiers.svm_score_batch", "classifiers.nb_posterior", "minicnn.forward.conv",
    "minicnn.backward.conv", "pipeline.filter_detections", "pipeline.run_detection",
    "workflows.score_scene", "scenegen.generate", "rasters.read",
)
# work counts: span -> (metric, unit, count from bound arguments and result)
COUNTS = {
    "features.fpfh": ("features.fpfh.points", "points", lambda a, r: len(r[0])),
    "cloud.knn_batch": ("cloud.knn_batch.queries", "count", lambda a, r: len(r)),
    "cloud.euclidean_cluster": ("cloud.euclidean_cluster.points", "points", lambda a, r: len(a["subset"])),
    "classifiers.svm_score_batch": (
        "classifiers.svm_score_batch.kernel_evals", "count", lambda a, r: len(r) * len(a["model"].dual_coefs)
    ),
    "classifiers.svm_train": ("classifiers.svm_train.rows", "count", lambda a, r: len(a["labels"])),
    "minicnn.score_map": ("minicnn.score_map.patches", "count", lambda a, r: int(r.mask.sum())),
    "minicnn.train_network": ("minicnn.train_network.patches", "count", lambda a, r: len(a["labels"]) * len(r)),
}
COUNT_UNITS = {metric: unit for metric, unit, _ in COUNTS.values()}


def per_layer_metric_names() -> list[str]:
    names = [f"{s}.{m}" for s in SPANS for m in ("s", "self_s")]
    return names + [f"{s}.calls" for s in CALLED] + list(COUNT_UNITS) + ["bench.round_s"]


def metric_unit(name: str) -> str:
    if name in COUNT_UNITS:
        return COUNT_UNITS[name]
    return "count" if name.endswith(".calls") else "s"


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = defaultdict(int)   # (phase, metric) -> work count
        self.active = False
        self._phase = None
        self._stack = []
        self._undo = []

    # -- recording ---------------------------------------------------------

    def span(self, name, fn, args, kwargs, count=None, sig=None):
        if not self.active:
            return fn(*args, **kwargs)
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
        if count is not None:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            metric, _, fn_count = count
            self.counts[self._phase, metric] += fn_count(bound.arguments, result)
        return result

    @contextlib.contextmanager
    def phase(self, name):
        """A span for one of the benchmark's own phases (set-up, round)."""
        if not self.active:
            yield
            return
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        self._phase = name
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
            self._phase = None

    # -- installing wrappers -------------------------------------------------

    def _wrap(self, fn, name):
        count = COUNTS.get(name)
        sig = inspect.signature(fn) if count is not None else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.span(name, fn, args, kwargs, count, sig)

        return wrapper

    def _wrap_method(self, cls, attr, name):
        fn = cls.__dict__[attr]
        self._undo.append((cls, attr, fn))
        setattr(cls, attr, self._wrap(fn, name))

    def install(self):
        """Wrap the library in place; ``uninstall`` restores it."""
        import importlib

        for short in MODULES:
            mod = importlib.import_module(f"peduncle.{short}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                self._undo.append((mod, attr, obj))
                setattr(mod, attr, self._wrap(obj, ALIASES.get(name, name)))
        mc = importlib.import_module("peduncle.minicnn")
        for cls_name, kind in LAYER_KINDS.items():
            cls = getattr(mc, cls_name)
            self._wrap_method(cls, "forward", f"minicnn.forward.{kind}")
            self._wrap_method(cls, "backward", f"minicnn.backward.{kind}")
        pl = importlib.import_module("peduncle.pipeline")
        for cls_name, det in DETECTORS.items():
            self._wrap_method(getattr(pl, cls_name), "score_frame", f"pipeline.score_frame.{det}")

    def uninstall(self):
        for owner, attr, obj in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo.clear()

    # -- reporting -------------------------------------------------------------

    def layer_metrics(self, round_times) -> dict:
        """Busy time, self time and calls per span name, plus work counts,
        each as the cost of one set-up plus one round: totals inside the
        set-up spans over their number, plus totals inside the round spans
        over theirs. The number of rounds depends on the host's speed; these
        figures do not. Spans outside both (the warm-up) are left out.

        Busy time sums the spans of a name that have no ancestor of the same
        name, so recursion is not counted twice; self time subtracts the
        time covered by direct children.
        """
        busy, self_s, calls = defaultdict(float), defaultdict(float), defaultdict(float)
        child = [0.0] * len(self.spans)
        phase = [None] * len(self.spans)
        runs = defaultdict(int)
        for i, (name, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += end - start
                phase[i] = phase[parent]
            elif name in PHASES:
                phase[i] = name
                runs[name] += 1
        for i, (name, start, end, parent) in enumerate(self.spans):
            if phase[i] is None or parent < 0:
                continue
            share = 1.0 / runs[phase[i]]
            calls[name] += share
            self_s[name] += ((end - start) - child[i]) * share
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                busy[name] += (end - start) * share
        out = {}
        for s in SPANS:
            out[f"{s}.s"] = busy[s]
            out[f"{s}.self_s"] = self_s[s]
        for s in CALLED:
            out[f"{s}.calls"] = calls[s]
        for metric in COUNT_UNITS:
            out[metric] = sum(self.counts[p, metric] / runs[p] for p in PHASES if runs[p])
        out["bench.round_s"] = statistics.median(round_times)
        return out

    def write(self, path):
        """Spans as JSON lines: name, start and end (seconds), parent index."""
        with open(path, "w", newline="\n") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"i": i, "name": name, "start": start, "end": end, "parent": parent}) + "\n")
