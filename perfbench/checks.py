"""Independent checks of the benchmark's outputs.

Each check recomputes what it verifies by a route of its own instead of
calling the library code under test: HSV through the standard library's
``colorsys``, the pepper posterior through ``scipy.stats.norm``, the 3D box
from the rule in the project README, clusters from dense pairwise distances
and ``scipy.sparse.csgraph``, SVM margins from a ``cdist`` Gram matrix, and
PR counts by sorting. A failed check raises ``CheckFailed``.
"""

from __future__ import annotations

import colorsys
import math
import re

import numpy as np
from scipy import special, stats
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial.distance import cdist

LABEL_UNLABELED = 0
LABEL_PEDUNCLE = 1
UP_AXIS, UP_SIGN = 1, -1          # camera -y is world-up
HORIZONTAL = (0, 2)
SHIPPED_PARAM_COUNT = 77390


class CheckFailed(Exception):
    pass


def require(cond, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


# ---------------------------------------------------------------------------
# detect
# ---------------------------------------------------------------------------


def pepper_posterior(nb, colors: np.ndarray) -> np.ndarray:
    """P(pepper | colour) of the Gaussian naive Bayes model, per RGB row."""
    hsv = np.array([colorsys.rgb_to_hsv(*(c / 255.0)) for c in np.asarray(colors, dtype=np.float64)])
    hsv = hsv.reshape(-1, 3)
    hue = hsv[:, 0] * 2.0 * math.pi
    f = np.column_stack([np.cos(hue), np.sin(hue), hsv[:, 1], hsv[:, 2]])
    log_post = np.column_stack(
        [
            stats.norm.logpdf(f, nb.means[c], np.sqrt(nb.variances[c])).sum(axis=1) + math.log(nb.priors[c])
            for c in range(2)
        ]
    )
    return special.expit(log_post[:, 0] - log_post[:, 1])


def peduncle_box(pepper_points: np.ndarray, h_offset: float) -> tuple[np.ndarray, np.ndarray]:
    """README rule: both horizontal extents max(width, length) of the pepper
    box around its horizontal centre; vertically +-h_offset around its top."""
    lo, hi = pepper_points.min(axis=0), pepper_points.max(axis=0)
    half = max(hi[a] - lo[a] for a in HORIZONTAL) / 2.0
    box_lo, box_hi = np.empty(3), np.empty(3)
    for a in HORIZONTAL:
        mid = 0.5 * (lo[a] + hi[a])
        box_lo[a], box_hi[a] = mid - half, mid + half
    top = lo[UP_AXIS] if UP_SIGN < 0 else hi[UP_AXIS]
    box_lo[UP_AXIS], box_hi[UP_AXIS] = top - h_offset, top + h_offset
    return box_lo, box_hi


def components(points: np.ndarray, tol: float) -> np.ndarray:
    """Component label per point of the graph joining pairs <= tol apart,
    from dense distances computed in row blocks."""
    n = len(points)
    if n == 0:
        return np.zeros(0, dtype=np.intp)
    rows, cols = [], []
    for start in range(0, n, 512):
        d2 = cdist(points[start : start + 512], points, "sqeuclidean")
        r, c = np.nonzero(d2 <= tol * tol)
        rows.append(r + start)
        cols.append(c)
    r, c = np.concatenate(rows), np.concatenate(cols)
    graph = coo_matrix((np.ones(len(r)), (r, c)), shape=(n, n)).tocsr()
    return connected_components(graph, directed=False)[1]


def roi_valid_depth(frame, pepper_idx: np.ndarray) -> int:
    """Valid-depth pixels in the ROI: the pepper's pixel box shifted up by
    half its height, clipped to the image."""
    v, u = frame.pixels[pepper_idx, 0], frame.pixels[pepper_idx, 1]
    h, w = frame.depth_raw.shape
    shift = (v.max() + 1 - v.min()) // 2
    y0, y1 = max(v.min() - shift, 0), min(v.max() + 1 - shift, h)
    x0, x1 = max(u.min(), 0), min(u.max() + 1, w)
    return int(np.count_nonzero(frame.depth_raw[y0:y1, x0:x1] > 0))


def check_detection(frame, nb, detector: str, pepper_idx, scored, cluster, pose, fp, h_offset: float) -> None:
    """One run_detection output. ``cluster`` and ``pose`` are None for a
    frame the library reported as NoPeduncleFound; the check then confirms
    that no component of the survivors fits the size limits."""
    pepper_idx = np.asarray(pepper_idx)
    pts, scores = scored.cloud.points, scored.scores
    expected_count = roi_valid_depth(frame, pepper_idx)
    if detector == "pfh-svm":
        require(len(scored) == expected_count, f"pfh-svm scored {len(scored)} points, ROI has {expected_count}")
    else:
        require(0 < len(scored) <= expected_count, f"cnn scored {len(scored)} points, ROI has {expected_count}")

    box_lo, box_hi = peduncle_box(frame.cloud.points[pepper_idx], h_offset)
    inside = np.all((pts >= box_lo) & (pts <= box_hi), axis=1)
    survivors = np.flatnonzero(
        (scores >= fp.score_threshold)
        & (pepper_posterior(nb, scored.cloud.colors) < fp.pepper_posterior_threshold)
        & inside
    )
    labels = components(pts[survivors], fp.cluster_tol)
    sizes = np.bincount(labels) if len(labels) else np.zeros(0, dtype=np.intp)
    fits = np.flatnonzero((sizes >= fp.min_cluster) & (sizes <= fp.max_cluster))
    if cluster is None:
        require(fits.size == 0, f"{detector}: no peduncle reported, but a cluster fits the size limits")
        return
    cluster = np.asarray(cluster)
    require(fits.size > 0, f"{detector}: cluster reported, none fits the size limits")
    require(np.all(scores[cluster] >= fp.score_threshold), f"{detector}: cluster point below the threshold")
    require(np.all(inside[cluster]), f"{detector}: cluster point outside the 3D box")
    # largest component; ties go to the one holding the smallest index
    best = fits[sizes[fits] == sizes[fits].max()]
    first_member = [survivors[labels == b].min() for b in best]
    expect = np.sort(survivors[labels == best[int(np.argmin(first_member))]])
    require(np.array_equal(np.sort(cluster), expect),
            f"{detector}: cluster of {len(cluster)} points, brute force gives {len(expect)}")
    mean = pts[cluster].mean(axis=0)
    require(np.allclose(pose.position, mean, rtol=0.0, atol=1e-12), f"{detector}: pose is not the cluster mean")
    axis = np.asarray(pose.approach_axis)
    require(abs(np.linalg.norm(axis) - 1.0) <= 1e-9, f"{detector}: approach axis is not a unit vector")
    require(axis[UP_AXIS] == 0.0, f"{detector}: approach axis is not horizontal")


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def recount(scores, labels, thresholds) -> np.ndarray:
    """(tp, fp, fn, tn) rows per threshold by sorting (label -1 ignored)."""
    scores, labels = np.asarray(scores, dtype=np.float64), np.asarray(labels)
    pos, neg = np.sort(scores[labels == 1]), np.sort(scores[labels == 0])
    t = np.asarray(thresholds, dtype=np.float64)
    tp = len(pos) - np.searchsorted(pos, t, side="left")
    fp = len(neg) - np.searchsorted(neg, t, side="left")
    return np.column_stack([tp, fp, len(pos) - tp, len(neg) - fp])


def counts(curve) -> np.ndarray:
    return np.array([[p.tp, p.fp, p.fn, p.tn] for p in curve.points])


def check_sweep(raw, filtered, scores, labels, thresholds) -> None:
    """Raw curve equals a sort recount; tp+fn is constant; filtering only
    removes detections."""
    require([p.threshold for p in raw.points] == [float(t) for t in thresholds], "raw thresholds differ")
    require(np.array_equal(counts(raw), recount(scores, labels, thresholds)), "raw counts differ from recount")
    for name, c in (("raw", counts(raw)), ("filtered", counts(filtered))):
        require(len(set(c[:, 0] + c[:, 2])) == 1, f"{name}: tp+fn changes with the threshold")
    r, f = counts(raw), counts(filtered)
    require(r[0, 0] + r[0, 2] == f[0, 0] + f[0, 2], "raw and filtered disagree on the positives")
    require(np.all(f[:, 0] <= r[:, 0]) and np.all(f[:, 1] <= r[:, 1]), "filtering added detections")


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def svm_alphas(model, features) -> np.ndarray:
    """Per training row alpha, by matching standardised rows to the stored
    support vectors (each stored vector is used once)."""
    xs = (np.asarray(features, dtype=np.float64) - model.feature_means) / model.feature_scales
    pool = {}
    for sv, coef in zip(model.support_vectors, model.dual_coefs):
        pool.setdefault(sv.tobytes(), []).append(abs(coef))
    alphas = np.zeros(len(xs))
    for i, row in enumerate(xs):
        if pool.get(row.tobytes()):
            alphas[i] = pool[row.tobytes()].pop()
    require(not any(pool.values()), "a support vector matches no training row")
    return alphas


def check_svm(model, features, y) -> None:
    """Dual feasibility and the KKT conditions within the model's tol."""
    require(model.kernel == "rbf", f"unexpected kernel {model.kernel}")
    coefs = np.asarray(model.dual_coefs)
    alphas = np.abs(coefs)
    require(np.all(alphas >= 0) and np.all(alphas <= model.c * (1 + 1e-12)), "alpha outside [0, C]")
    require(abs(coefs.sum()) <= 1e-9 * max(1.0, model.c * len(coefs)), f"sum(alpha*y) = {coefs.sum():.3g}")
    a = svm_alphas(model, features)
    xs = (np.asarray(features, dtype=np.float64) - model.feature_means) / model.feature_scales
    gram = np.exp(-model.gamma * cdist(xs, model.support_vectors, "sqeuclidean"))
    margin = np.asarray(y, dtype=np.float64) * (gram @ coefs + model.bias)
    at_zero = a <= 1e-10
    at_c = a >= model.c - 1e-10 * max(model.c, 1.0)
    viol = np.where(at_zero, np.maximum(0.0, 1.0 - margin),
                    np.where(at_c, np.maximum(0.0, margin - 1.0), np.abs(margin - 1.0)))
    require(viol.max() <= model.tol, f"KKT violation {viol.max():.3g} above tol {model.tol}")


def epoch_losses(log_lines) -> list[float]:
    return [float(m.group(1)) for line in log_lines if (m := re.match(r"epoch \d+/\d+: loss (\S+)$", line))]


def softmax(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def check_cnn(net, losses, patches) -> None:
    """Finite, falling loss; the shipped size; float32 inference within
    1e-4 of float64."""
    require(len(losses) >= 2 and all(math.isfinite(v) for v in losses), f"loss history {losses}")
    require(losses[-1] < losses[0], f"loss did not fall: {losses[0]} -> {losses[-1]}")
    n_params = sum(int(np.prod(p.shape)) for _, _, p, _ in net.parameters())
    require(n_params == SHIPPED_PARAM_COUNT, f"{n_params} parameters")
    p64 = softmax(net.forward(np.asarray(patches, dtype=np.float64)))
    p32 = softmax(net.cast(np.float32).forward(np.asarray(patches, dtype=np.float32)))
    require(np.max(np.abs(p64 - p32)) <= 1e-4, f"float32 inference off by {np.max(np.abs(p64 - p32)):.3g}")


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


def check_scene_equal(loaded, generated) -> None:
    """A scene read back from its five files equals the generated one bit for bit."""
    for field in ("rgb", "depth_raw", "pos_mask", "neg_mask"):
        a, b = getattr(loaded, field), getattr(generated, field)
        require(a.dtype == b.dtype and np.array_equal(a, b), f"reloaded {field} differs")
    for field in ("points", "colors", "labels"):
        a, b = getattr(loaded.cloud, field), getattr(generated.cloud, field)
        require(a.dtype == b.dtype and a.tobytes() == b.tobytes(), f"reloaded cloud {field} differs")


def read_pr_csv(path) -> np.ndarray:
    """(threshold, tp, fp, fn) rows of a pr.csv file."""
    rows = []
    with open(path) as fh:
        require(fh.readline().strip() == "mode,threshold,tp,fp,fn,precision,recall,f1", f"{path}: bad header")
        for line in fh:
            f = line.strip().split(",")
            rows.append((float(f[1]), int(f[2]), int(f[3]), int(f[4])))
    return np.array(rows)


def check_pr_csv(path, curve) -> None:
    """pr-curve's file equals the in-memory raw curve."""
    want = np.array([[p.threshold, p.tp, p.fp, p.fn] for p in curve.points])
    require(np.array_equal(read_pr_csv(path), want), f"{path} differs from the in-memory curve")
