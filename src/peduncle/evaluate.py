"""Precision / recall / F1 computation for raw scores and for the filtered
pipeline, plus wall-clock throughput measurement.

Counts are pooled (micro-averaged) over scenes: per-scene confusion counts
are summed before precision and recall are formed, which is identical to
evaluating one concatenated prediction set. Filtered-mode curves are
reported exactly as measured; they are not forced monotone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import classifiers as cls
from . import cloud as pc
from . import pipeline as pl
from .errors import EmptyEvaluation

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


def confusion(scores, labels, threshold: float) -> tuple[int, int, int, int]:
    """(tp, fp, fn, tn) over labeled points; prediction is score >= threshold.

    Raises EmptyEvaluation when every point is ignored.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    keep = labels != IGNORED
    if not keep.any():
        raise EmptyEvaluation("no labeled points")
    s, l = scores[keep], labels[keep]
    pred = s >= threshold
    tp = int(np.sum(pred & (l == POSITIVE)))
    fp = int(np.sum(pred & (l == NEGATIVE)))
    fn = int(np.sum(~pred & (l == POSITIVE)))
    tn = int(np.sum(~pred & (l == NEGATIVE)))
    return tp, fp, fn, tn


def pr_curve(scores, labels, thresholds=None, mode: str = "raw") -> PrCurve:
    """PrPoint per threshold over one pooled score/label set; InvalidInput
    on a non-finite score."""
    if thresholds is None:
        thresholds = default_thresholds()
    pl.require_finite_scores(np.asarray(scores, dtype=np.float64))
    labels = np.asarray(labels)
    if not np.any(labels == POSITIVE) or not np.any(labels == NEGATIVE):
        raise EmptyEvaluation("need at least one positive and one negative label")
    points = [PrPoint(float(t), *confusion(scores, labels, float(t))) for t in thresholds]
    return PrCurve(points, mode)


@dataclass
class SceneEval:
    """Per-scene inputs the filtered sweep needs (scoring already done)."""

    scored: pl.ScoredCloud
    pepper_points: np.ndarray | None       # None when pepper detection failed
    eval_labels: np.ndarray                # aligned with scored rows


def eval_filtered(
    scenes: list[SceneEval],
    nb: cls.NaiveBayesHsv,
    thresholds=None,
    fp: pl.FilterParams = pl.FilterParams(),
    box_params: pl.PeduncleBoxParams = pl.PeduncleBoxParams(),
    up: tuple[int, int] = pl.UP_DEFAULT,
) -> tuple[PrCurve, list[str]]:
    """Sweep the score threshold through the full filtering stage.

    Predictions at each threshold are membership of the cluster that
    pipeline.filter_detections returns; scenes where no peduncle (or no
    pepper) is found contribute zero predictions, so their positives all
    count as misses. Per-scene failures are recorded, never raised; a
    non-finite score in a scene that reaches the filter raises InvalidInput.

    Steps 3 and 4 of the filter and the <=tol graph over their survivors do
    not depend on the threshold, so each scene builds them once; a threshold
    then keeps the nodes scoring at least t and the edges between two kept
    nodes. The kept sets are nested, so an unchanged count means an
    unchanged set and the previous cluster is reused.
    """
    if thresholds is None:
        thresholds = default_thresholds()
    thresholds = np.asarray(thresholds, dtype=np.float64)
    counts = np.zeros((len(thresholds), 4), dtype=np.int64)   # tp, fp, fn, tn
    notes: list[str] = []
    for i, scene in enumerate(scenes):
        pos = scene.eval_labels == POSITIVE
        neg = scene.eval_labels == NEGATIVE
        n_pos, n_neg = int(pos.sum()), int(neg.sum())
        if scene.pepper_points is None:
            notes.append(f"scene {i}: no pepper detected")
        if scene.pepper_points is None or len(scene.scored) == 0:
            counts += (0, 0, n_pos, n_neg)
            continue
        pl.require_finite_scores(scene.scored.scores)
        not_pepper, in_box, _ = pl.color_box_masks(
            scene.scored, scene.pepper_points, nb, fp, box_params, up
        )
        nodes = np.flatnonzero(not_pepper & in_box)
        pairs = pc.radius_pairs(scene.scored.cloud.points[nodes], fp.cluster_tol)
        node_scores = scene.scored.scores[nodes]
        n_kept, row = -1, None
        for k, t in enumerate(thresholds):
            kept = node_scores >= t
            count = int(kept.sum())
            if count != n_kept:
                n_kept = count
                best = pc.largest_cluster(
                    n_kept, pc.induced_pairs(pairs, kept), fp.min_cluster, fp.max_cluster
                )
                tp = fp_count = 0
                if best is not None:
                    cluster = nodes[kept][best]
                    tp, fp_count = int(pos[cluster].sum()), int(neg[cluster].sum())
                row = (tp, fp_count, n_pos - tp, n_neg - fp_count)
            counts[k] += row
    points = [PrPoint(float(t), *(int(v) for v in c)) for t, c in zip(thresholds, counts)]
    return PrCurve(points, "filtered"), notes


def throughput(work_fn, units: int, repeats: int = 5) -> dict:
    """Median wall-clock rate (units per second) over repeated runs.

    Reported, never asserted: desk-scale rates are not comparable across
    hardware.
    """
    if units < 1:
        raise EmptyEvaluation("workload must be positive")
    rates = []
    for _ in range(max(repeats, 1)):
        start = time.perf_counter()
        work_fn()
        elapsed = time.perf_counter() - start
        rates.append(units / elapsed if elapsed > 0 else float("inf"))
    rates.sort()
    return {
        "units": units,
        "repeats": len(rates),
        "median_rate": rates[len(rates) // 2],
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
