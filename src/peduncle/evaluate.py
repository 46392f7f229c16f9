"""Precision / recall / F1 computation for raw scores and for the filtered
pipeline, plus wall-clock throughput measurement.

Counts are pooled (micro-averaged) over scenes: a raw curve counts the
concatenated scores of every scene, from one sort per class, and the
filtered sweep sums per-scene counts, which is the same thing. The sweep
clusters through the deployed filter's own steps 3-5 (threshold_clusters).
Filtered-mode curves are reported exactly as measured, not forced monotone.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np

from . import classifiers as cls
from . import cloud as pc
from . import pipeline as pl
from .errors import InvalidInput

POSITIVE = 1
NEGATIVE = 0
IGNORED = -1

# Score of a point no detector scored (its scene was missed before scoring):
# detector scores and thresholds lie in [0, 1], so it clears no threshold.
MISS_SCORE = -1.0


def labels_to_eval(labels: np.ndarray) -> np.ndarray:
    """Cloud labels -> {POSITIVE, NEGATIVE, IGNORED} evaluation labels."""
    labels = np.asarray(labels)
    out = np.full(labels.shape, NEGATIVE, dtype=np.int64)
    out[labels == pc.LABEL_PEDUNCLE] = POSITIVE
    out[labels == pc.LABEL_UNLABELED] = IGNORED
    return out


@dataclass(frozen=True)
class PrPoint:
    threshold: float
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp > 0 else 0.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn > 0 else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2.0 * p * r / (p + r) if p + r > 0 else 0.0


@dataclass
class PrCurve:
    points: list
    mode: str = "raw"          # "raw" | "filtered"

    @property
    def best(self) -> PrPoint:
        """Highest-F1 operating point; ties resolved to the lowest threshold."""
        return max(self.points, key=lambda p: (p.f1, -p.threshold))


def default_thresholds(n: int = 101) -> np.ndarray:
    return np.linspace(0.0, 1.0, n)


def pr_curve(scores, labels, thresholds=None) -> PrCurve:
    """PrPoint per threshold over one pooled score/label set. A POSITIVE or
    NEGATIVE point is predicted when its score >= threshold, so a class's
    misses at a threshold are its sorted scores below it. InvalidInput on a
    non-finite score, a length mismatch, or a missing class."""
    scores, labels = np.asarray(scores, dtype=np.float64), np.asarray(labels)
    if scores.shape != labels.shape:
        raise InvalidInput(f"scores of shape {scores.shape} for labels of shape {labels.shape}")
    pl.require_finite_scores(scores)
    pos, neg = np.sort(scores[labels == POSITIVE]), np.sort(scores[labels == NEGATIVE])
    if not len(pos) or not len(neg):
        raise InvalidInput("need at least one positive and one negative label")
    grid = np.asarray(default_thresholds() if thresholds is None else thresholds, dtype=np.float64)
    fn = np.searchsorted(pos, grid, "left").tolist()
    tn = np.searchsorted(neg, grid, "left").tolist()
    return PrCurve([PrPoint(float(t), len(pos) - f, len(neg) - n, f, n) for t, f, n in zip(grid, fn, tn)])


@dataclass
class SceneEval:
    """Per-scene inputs the filtered sweep needs: scored cloud, pepper box, labels."""

    scored: pl.ScoredCloud
    pepper_box: pc.BoundingBox3 | None     # None on an all-miss record
    eval_labels: np.ndarray                # aligned with scored rows
    miss: str | None = None                # NoPeduncleFound reason of an all-miss record


def miss_notes(scenes: list[SceneEval]) -> list[str]:
    """A note for each scene missed before scoring, saying why."""
    why = {"NoPepperFound": "no pepper detected"}
    return [f"scene {i}: {why.get(s.miss, f'pepper found, then {s.miss}')}"
            for i, s in enumerate(scenes) if s.miss is not None]


def eval_filtered(
    scenes: list[SceneEval], nb: cls.NaiveBayesHsv, thresholds=None, fp: pl.FilterParams = pl.FilterParams()
) -> tuple[PrCurve, list[str]]:
    """Sweep the score threshold through the full filtering stage.

    Predictions at each threshold are membership of the cluster that
    filter_detections returns there, from one pipeline.threshold_clusters
    call per scene for the whole grid; scenes where no peduncle (or no
    pepper) is found contribute zero predictions, so their positives all
    count as misses. Per-scene failures are recorded, never raised; a
    non-finite score in a scene that reaches the filter raises InvalidInput.
    """
    if thresholds is None:
        thresholds = default_thresholds()
    thresholds = np.asarray(thresholds, dtype=np.float64)
    counts = np.zeros((len(thresholds), 4), dtype=np.int64)   # tp, fp, fn, tn
    for scene in scenes:
        pos, neg = scene.eval_labels == POSITIVE, scene.eval_labels == NEGATIVE
        n_pos, n_neg = int(pos.sum()), int(neg.sum())
        if scene.pepper_box is None or len(scene.scored) == 0:
            counts += (0, 0, n_pos, n_neg)
            continue
        _, clusters, which = pl.threshold_clusters(scene.scored, scene.pepper_box, nb, thresholds, fp)
        # one bincount per class over every distinct cluster's members
        members = np.concatenate([np.empty(0, np.intp)] + [c for c in clusters if c is not None])
        owner = np.repeat(np.arange(len(clusters)), [0 if c is None else len(c) for c in clusters])
        hits = np.column_stack(
            [np.bincount(owner[m[members]], minlength=len(clusters)) for m in (pos, neg)]
        )[which]                                                         # (tp, fp) per threshold
        counts += np.column_stack([hits, (n_pos, n_neg) - hits])
    points = [PrPoint(float(t), *(int(v) for v in c)) for t, c in zip(thresholds, counts)]
    return PrCurve(points, "filtered"), miss_notes(scenes)


def throughput(work_fn, units: int, repeats: int = 5) -> dict:
    """Median wall-clock rate (units per second) over repeated runs; an
    even number of runs reports the mean of the two middle rates.

    Reported, never asserted: desk-scale rates are not comparable across
    hardware.
    """
    if units < 1:
        raise InvalidInput("workload must be positive")
    if repeats < 1:
        raise InvalidInput(f"repeats must be positive, got {repeats}")
    rates = []
    for _ in range(repeats):
        start = time.perf_counter()
        work_fn()
        elapsed = time.perf_counter() - start
        rates.append(units / elapsed if elapsed > 0 else float("inf"))
    rates.sort()
    return {
        "units": units,
        "repeats": len(rates),
        "median_rate": statistics.median(rates),
        "min_rate": rates[0],
        "max_rate": rates[-1],
    }


def write_pr_csv(path, curves: list[PrCurve]) -> None:
    """Plot-ready CSV: mode,threshold,tp,fp,fn,precision,recall,f1."""
    lines = ["mode,threshold,tp,fp,fn,precision,recall,f1"]
    for curve in curves:
        for p in curve.points:
            lines.append(
                f"{curve.mode},{p.threshold!r},{p.tp},{p.fp},{p.fn},"
                f"{p.precision!r},{p.recall!r},{p.f1!r}"
            )
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def summary_line(curve: PrCurve) -> str:
    best = curve.best
    return f"best_f1 {best.f1!r} at {best.threshold!r}"
