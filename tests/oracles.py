"""Independent reference implementations used to check the library.

Everything here is deliberately naive (loops, direct formulas, generic
solvers) and shares no code with the paths it validates, except
eval_filtered_per_threshold, which takes the colour posterior and the
peduncle box from the library, the previous CNN kernels, which plug into
the library's layers, the previous CNN scoring path, which reuses the
library's score map, the per-patch score map, which runs the library's
network on every patch, the previous max-pool training forward, which
gathers windows with the library's window helpers, the previous pfh-svm
scoring path, which reuses the library's binning and descriptor assembly
(its pair angles, normals, neighbor tables and colors come from the
previous row forms below), the previous row forms of the per-point kernels,
where nb_posterior_rows takes the library's hsv_nb_features, the previous
SVM training sample, which draws rows of the library's point_features, the
per-row file readers and writers, which build the library's own objects,
knn, which takes its candidates from a kd-tree, spfh, which
takes the library's histogram binning, kkt_violations, which scores with
the library's svm_score_batch, and generate_reference, which draws a scene
with the library's samplers and colour draws. ranked_clusters is not an
oracle: it lists every cluster the library's largest_clusters would pick in
turn, for comparison with the oracles. Nor are same_bytes, the
byte-equality check the pinned tests share, normals_with_knn and
fpfh_with_knn, which call the library with the neighbor table knn_batch
gives for a cloud's own points, degraded_captures, the broken
captures of a scene that the detection and CLI tests share, and
row_chunks, which sets the library's thread count and chunk sizes.
"""

import contextlib
import math
import os
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.spatial import cKDTree

from peduncle import _rows
from peduncle import classifiers as cls
from peduncle import cloud as pc
from peduncle import evaluate as ev
from peduncle import features as ft
from peduncle import minicnn as mc
from peduncle import pipeline as pl
from peduncle import scenegen as sg
from peduncle.errors import FormatError, InvalidInput, NoPeduncleFound

# knn widens its kd-tree lookup by this relative slack and then filters
# with exact squared distances, as the library does.
_SLACK = 1e-9


class DegeneratePair(Exception):
    """Point pair whose separation is parallel to the source normal."""


class EmptyHistogram(Exception):
    """Every angle pair of a histogram neighborhood degenerated."""


def same_bytes(a, b) -> bool:
    """Equal dtype, shape and bytes."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# a saturated pepper red: hue 1.7 degrees, saturation 0.875, value 0.78
PEPPER_RED = (200, 30, 25)


def degraded_captures(scene) -> list:
    """(name, LabeledScene) for five broken captures of a scene with a
    pepper: its RGB all black, all white or all pepper red; the top half of
    its depth lost; and every raster shifted up until the pepper touches
    row 0, the rows shifted in from below black, without depth and
    unlabelled."""
    rgb, depth, labels, intr = scene.rgb, scene.depth_raw, scene.labels_img, scene.frame.intr

    def capture(rgb=rgb, depth=depth, labels=labels):
        return sg.LabeledScene.from_rasters(rgb, depth, intr, labels)

    top_lost = depth.copy()
    top_lost[: len(depth) // 2] = 0
    shift = int(np.flatnonzero((labels == pc.LABEL_PEPPER).any(axis=1))[0])
    shifted = [np.zeros_like(a) for a in (rgb, depth, labels)]
    for moved, a in zip(shifted, (rgb, depth, labels)):
        moved[: len(a) - shift] = a[shift:]
    return [
        ("black", capture(np.zeros_like(rgb))),
        ("white", capture(np.full_like(rgb, 255))),
        ("pepper-red", capture(np.broadcast_to(np.array(PEPPER_RED, dtype=rgb.dtype), rgb.shape).copy())),
        ("top-half-depth-lost", capture(depth=top_lost)),
        ("pepper-at-row-0", capture(*shifted)),
    ]


def brute_knn(points, q, k):
    d2 = ((points - q) ** 2).sum(axis=1)
    order = np.lexsort((np.arange(len(points)), d2))
    return order[:k]


def knn(points, q, k: int) -> np.ndarray:
    """Indices of the k nearest of the (N, 3) points to the point q,
    nondecreasing distance, ties by index: the k-th distance from a kd-tree,
    then every point within it, ordered on exact squared distances.

    Raises InvalidInput when k exceeds the cloud size.
    """
    points = np.asarray(points, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64).reshape(3)
    n = len(points)
    if k < 1:
        raise InvalidInput("k must be >= 1")
    if k > n:
        raise InvalidInput(f"k={k} exceeds cloud size {n}")
    if k == n:
        cand = np.arange(n)
    else:
        tree = cKDTree(points)
        dk, _ = tree.query(q, k=k)
        dk = float(np.max(np.atleast_1d(dk)))
        cand = np.asarray(tree.query_ball_point(q, dk * (1.0 + _SLACK) + 1e-300), dtype=np.intp)
        if cand.shape[0] < k:   # paranoia fallback, never expected
            cand = np.arange(n)
    d = points[cand] - q
    d2 = np.einsum("ij,ij->i", d, d)
    order = np.lexsort((cand, d2))
    return cand[order[:k]]


def normals_with_knn(cloud: pc.PointCloud, k: int, viewpoint):
    """The library's estimate_normals over the table knn_batch gives for
    the cloud's own points."""
    return pc.estimate_normals(cloud, k, viewpoint, pc.knn_batch(cloud.points, cloud.points, k))


def fpfh_with_knn(points, normals, k: int, valid=None):
    """The library's fpfh over the table knn_batch gives for the points
    themselves; every normal counts as valid when valid is None."""
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    valid = np.ones(n, dtype=bool) if valid is None else valid
    return ft.fpfh(points, normals, k, valid, pc.knn_batch(points, points, min(k + 1, n)))


def brute_radius_pairs(points, r):
    """(E, 2) pairs i < j within distance r (inclusive), in row-major order,
    from dense blocks of squared distances."""
    from scipy.spatial.distance import cdist

    out = [np.zeros((0, 2), dtype=np.intp)]
    for start in range(0, len(points), 512):
        i, j = np.nonzero(cdist(points[start : start + 512], points, "sqeuclidean") <= r * r)
        i += start
        out.append(np.column_stack([i, j])[i < j])
    return np.concatenate(out)


def ranked_clusters(points, subset, tol, min_size, max_size):
    """Every cluster the library ranks, in rank order: largest_clusters over
    radius_pairs of the ascending subset, then again with the clusters
    already taken out of the kept mask. Removing whole components leaves
    the others unchanged, so this lists the components with a size in
    [min_size, max_size], largest first, ties by smallest member, as
    union_find_clusters and csgraph_clusters list them."""
    rows = np.sort(np.asarray(subset, dtype=np.intp))
    pairs = pc.radius_pairs(points[rows], tol) if len(rows) else np.zeros((0, 2), dtype=np.intp)
    keep = np.ones((1, len(rows)), dtype=bool)
    clusters = []
    while keep.any():
        (best,) = pc.largest_clusters(pairs, keep, min_size, max_size)
        if best is None:
            break
        clusters.append(rows[best].tolist())
        keep[0, best] = False
    return clusters


def union_find_partition(pairs, n: int) -> np.ndarray:
    """Each of the n nodes' smallest fellow member in the graph of the
    (E, 2) pairs, by pure-python union-find."""
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in np.asarray(pairs).tolist():
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    return np.array([find(i) for i in range(n)], dtype=np.intp)


def union_find_clusters(points, subset, tol, min_size, max_size):
    """Pure-python union-find over the <=tol adjacency graph, its pairs
    from dense row blocks of squared distances."""
    pts = points[subset]
    n = len(pts)
    pairs = []
    for start in range(0, n, 256):
        d2 = ((pts[start : start + 256, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
        i, j = np.nonzero(d2 <= tol * tol)
        i += start
        pairs.append(np.column_stack([i, j])[i < j])
    root = union_find_partition(np.concatenate(pairs) if pairs else np.zeros((0, 2), dtype=np.intp), n)
    groups = {}
    for i in range(n):
        groups.setdefault(root[i], []).append(subset[i])
    clusters = [sorted(g) for g in groups.values() if min_size <= len(g) <= max_size]
    clusters.sort(key=lambda g: (-len(g), g[0]))
    return clusters


def csgraph_clusters(points, subset, tol, min_size, max_size):
    """Connected components via scipy's graph machinery (larger inputs)."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    pts = points[subset]
    # the dense adjacency in row blocks, so a few thousand points stay small
    adjacency = np.concatenate([
        ((pts[start : start + 256, None, :] - pts[None, :, :]) ** 2).sum(axis=2) <= tol * tol
        for start in range(0, len(pts), 256)
    ]) if len(pts) else np.zeros((0, 0), dtype=bool)
    n_comp, labels = connected_components(csr_matrix(adjacency), directed=False)
    clusters = []
    for c in range(n_comp):
        members = np.asarray(subset)[labels == c]
        if min_size <= len(members) <= max_size:
            clusters.append(sorted(members.tolist()))
    clusters.sort(key=lambda g: (-len(g), g[0]))
    return clusters


def eval_filtered_per_threshold(scenes, nb, thresholds, fp=pl.FilterParams()):
    """Filtered PR curve from the five-step filter written out afresh for
    every scene and threshold: the colour posterior, the peduncle box and
    the first of csgraph_clusters (dense distances) over the points passing
    all three tests, each threshold clustered from scratch. No clustering
    code is shared with the library's threshold_clusters, so it checks the
    threshold-free masks, the node set at the lowest threshold, the
    subgraph each threshold keeps, the one-call clustering of all kept sets
    and the reuse of unchanged ones."""
    counts = np.zeros((len(thresholds), 4), dtype=np.int64)   # tp, fp, fn, tn
    for scene in scenes:
        pos, neg = scene.eval_labels == ev.POSITIVE, scene.eval_labels == ev.NEGATIVE
        if scene.pepper_box is None or len(scene.scored) == 0:
            counts += (0, 0, int(pos.sum()), int(neg.sum()))
            continue
        points = scene.scored.cloud.points
        post = cls.nb_posterior(nb, ft.rgb_to_hsv_array(scene.scored.cloud.colors))
        box = pl.peduncle_bbox3(scene.pepper_box, fp.box, fp.up)
        passes = (post < fp.pepper_posterior_threshold) & box.contains(points)
        for k, t in enumerate(thresholds):
            rows = np.flatnonzero(passes & (scene.scored.scores >= t))
            clusters = csgraph_clusters(points, rows, fp.cluster_tol, fp.min_cluster, fp.max_cluster)
            pred = np.zeros(len(scene.scored), dtype=bool)
            pred[clusters[0] if clusters else []] = True
            counts[k] += (np.sum(pred & pos), np.sum(pred & neg), np.sum(~pred & pos), np.sum(~pred & neg))
    points = [ev.PrPoint(float(t), *(int(v) for v in c)) for t, c in zip(thresholds, counts)]
    return ev.PrCurve(points, "filtered")


def project_to_3d(
    score_map: mc.ScoreMap,
    depth_raw,
    intr: pl.CameraIntrinsics,
    rgb=None,
    labels=None,
) -> pl.ScoredCloud:
    """Lift scored pixels with valid depth into a scored point cloud.

    Zero-depth pixels are dropped; raises NoPeduncleFound (reason
    EmptyProjection) when nothing survives.
    """
    depth_raw = np.asarray(depth_raw)
    v, u = np.nonzero(score_map.mask & (depth_raw > 0))
    if len(v) == 0:
        raise NoPeduncleFound("EmptyProjection", "no scored pixel carries valid depth")
    z = depth_raw[v, u].astype(np.float64) * intr.depth_scale
    x = (u.astype(np.float64) - intr.cx) * z / intr.fx
    y = (v.astype(np.float64) - intr.cy) * z / intr.fy
    colors = None if rgb is None else np.asarray(rgb)[v, u]
    labs = None if labels is None else np.asarray(labels)[v, u]
    cloud = pc.PointCloud(np.column_stack([x, y, z]), colors, labs)
    return pl.ScoredCloud(cloud, score_map.scores[v, u], np.column_stack([v, u]).astype(np.intp))


def reproject_to_pixels(points: np.ndarray, intr: pl.CameraIntrinsics) -> np.ndarray:
    """(N, 3) camera-frame points -> (N, 2) float (u, v) pixel coordinates."""
    p = np.asarray(points, dtype=np.float64)
    u = p[:, 0] * intr.fx / p[:, 2] + intr.cx
    v = p[:, 1] * intr.fy / p[:, 2] + intr.cy
    return np.column_stack([u, v])


def cnn_score_frame_reference(detector: pl.CnnDetector, frame: pl.Frame, roi: pl.Roi2) -> pl.ScoredCloud:
    """The CNN detector's previous scoring path: the densified score map cut
    to the region of interest, a label image rebuilt from the cloud, and
    every scored pixel lifted again through the depth image."""
    ph, pw = detector._infer_net.input_hw
    sm = mc.score_map(frame.rgb, detector._infer_net, detector.stride, roi)
    sm = mc.densify_score_map(sm, ph, pw, detector.stride)
    window = np.zeros(sm.mask.shape, dtype=bool)
    window[roi.y_min : roi.y_max, roi.x_min : roi.x_max] = True
    mask = sm.mask & window
    sm = mc.ScoreMap(np.where(mask, sm.scores, 0.0), mask)
    labels = None
    if frame.cloud.labels is not None:
        h, w = frame.depth_raw.shape
        lab_img = np.zeros((h, w), dtype=np.uint8)
        lab_img[frame.pixels[:, 0], frame.pixels[:, 1]] = frame.cloud.labels
        labels = lab_img
    return project_to_3d(sm, frame.depth_raw, frame.intr, frame.rgb, labels)


class DarbouxAngles(NamedTuple):
    alpha: float     # in [-1, 1]
    phi: float       # in [-1, 1]
    theta: float     # in (-pi, pi]


def darboux_angles(p_s, n_s, p_t, n_t) -> DarbouxAngles:
    """Darboux-frame angles for an ordered (source, target) point/normal pair.

    The caller is responsible for picking the source as the point whose
    normal makes the smaller angle with the separation vector. Raises
    DegeneratePair when the separation is parallel to the source normal.
    """
    p_s = np.asarray(p_s, dtype=np.float64)
    n_s = np.asarray(n_s, dtype=np.float64)
    p_t = np.asarray(p_t, dtype=np.float64)
    n_t = np.asarray(n_t, dtype=np.float64)
    d = p_t - p_s
    dist = np.linalg.norm(d)
    if dist == 0.0:
        raise DegeneratePair("coincident points")
    u = n_s
    cx = np.cross(d, u)
    cx_norm = np.linalg.norm(cx)
    if cx_norm < ft._CROSS_EPS:
        raise DegeneratePair("separation parallel to source normal")
    v = cx / cx_norm
    w = np.cross(u, v)
    alpha = float(np.dot(v, n_t))
    phi = float(np.dot(u, d) / dist)
    theta = float(np.arctan2(np.dot(w, n_t), np.dot(u, n_t)))
    return DarbouxAngles(alpha, phi, theta)


def spfh(points, normals, i: int, neighbors) -> np.ndarray:
    """Simplified histogram of point i against its neighbor set (33 bins),
    from the library's pair angles and binning.

    Degenerate pairs are excluded from the count; raises EmptyHistogram if
    every pair degenerates.
    """
    neighbors = np.asarray(neighbors, dtype=np.intp)
    if neighbors.shape[0] == 0:
        raise EmptyHistogram("empty neighbor set")
    points = np.asarray(points, dtype=np.float64)
    normals = np.asarray(normals, dtype=np.float64)
    ps = np.broadcast_to(points[i], (len(neighbors), 3))
    ns = np.broadcast_to(normals[i], (len(neighbors), 3))
    alpha, phi, theta, valid = pair_angles_rows(ps, ns, points[neighbors], normals[neighbors])
    if not np.any(valid):
        raise EmptyHistogram(f"all pairs of point {i} degenerate")
    hist, _ = ft._histogram_pairs(np.zeros(len(neighbors), dtype=np.intp), alpha, phi, theta, valid, 1)
    return hist[0]


def naive_spfh(points, normals, i, neighbors):
    """Loop-based 33-bin histogram with its own binning and normalization."""
    hist = np.zeros(33)
    count = 0
    for j in neighbors:
        d = points[j] - points[i]
        dist = np.linalg.norm(d)
        if dist == 0:
            continue
        if np.dot(normals[i], d / dist) >= np.dot(normals[j], -d / dist):
            s, t = i, j
        else:
            s, t = j, i
        try:
            ang = darboux_angles(points[s], normals[s], points[t], normals[t])
        except DegeneratePair:
            continue
        for value, lo, hi, off in (
            (ang.alpha, -1.0, 1.0, 0),
            (ang.phi, -1.0, 1.0, 11),
            (ang.theta, -np.pi, np.pi, 22),
        ):
            b = int(np.floor((value - lo) / (hi - lo) * 11))
            hist[off + min(max(b, 0), 10)] += 1
        count += 1
    if count == 0:
        raise EmptyHistogram("all pairs degenerate")
    for off in (0, 11, 22):
        hist[off : off + 11] *= 100.0 / count
    return hist


def naive_fpfh(points, normals, k):
    """Direct-formula descriptor over the whole cloud, one pair at a time."""
    n = len(points)
    nbrs = []
    for i in range(n):
        row = knn(points, points[i], min(k + 1, n))
        nbrs.append([j for j in row if j != i][:k])
    own = np.zeros((n, 33))
    ok = np.zeros(n, dtype=bool)
    for i in range(n):
        try:
            own[i] = naive_spfh(points, normals, i, nbrs[i])
            ok[i] = True
        except EmptyHistogram:
            pass
    out = own.copy()
    for i in range(n):
        if not ok[i]:
            continue
        acc = np.zeros(33)
        cnt = 0
        for j in nbrs[i]:
            w = np.linalg.norm(points[i] - points[j])
            if w == 0 or not ok[j]:
                continue
            acc += own[j] / w
            cnt += 1
        if cnt:
            out[i] = own[i] + acc / cnt
    return out, ok


# The pfh-svm scoring path before its shared neighbor query, streamed
# histograms and cache-sized kernel blocks, kept as it was: the library's
# descriptors, neighbor tables and Gram matrices must match it bit for bit.


def kernel_reference(kind, gamma, a, b):
    """Gram matrix in blocks of up to 4,000,000 broadcast elements."""
    if kind not in ("linear", "rbf"):
        raise InvalidInput(f"unknown kernel {kind!r}")
    n, m = a.shape[0], b.shape[0]
    out = np.empty((n, m))
    chunk = max(1, 4_000_000 // max(m * a.shape[1], 1))
    for start in range(0, n, chunk):
        ac = a[start : start + chunk]
        if kind == "linear":
            out[start : start + chunk] = np.einsum("ik,jk->ij", ac, b)
        else:
            d = ac[:, None, :] - b[None, :, :]
            out[start : start + chunk] = np.exp(-gamma * np.einsum("ijk,ijk->ij", d, d))
    return out


def _histogram_pairs_reference(src_idx, alpha, phi, theta, valid, n_points):
    hist = np.zeros((n_points, ft.FPFH_DIM))
    counts = np.zeros(n_points)
    s = src_idx[valid]
    np.add.at(hist, (s, ft._bin_index(alpha[valid], -1.0, 1.0)), 1.0)
    np.add.at(hist, (s, 11 + ft._bin_index(phi[valid], -1.0, 1.0)), 1.0)
    np.add.at(hist, (s, 22 + ft._bin_index(theta[valid], -np.pi, np.pi)), 1.0)
    np.add.at(counts, s, 1.0)
    has = counts > 0
    for block in range(3):
        sl = slice(11 * block, 11 * (block + 1))
        hist[has, sl] *= (100.0 / counts[has])[:, None]
    return hist, has


def fpfh_reference(points, normals, k, valid_normals=None):
    """Descriptors from the cloud's own (k + 1)-neighbor query, self
    stripped row by row, histograms by np.add.at and the neighbor average
    as one reduction over an (N, k, 33) gather."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if k < 2:
        raise InvalidInput("fpfh needs k >= 2")
    if valid_normals is None:
        valid_normals = np.ones(n, dtype=bool)
    raw = knn_batch_rows(points, points, min(k + 1, n))
    nbrs = np.empty((n, min(k, n - 1)), dtype=np.intp)
    for row in range(n):
        r = raw[row][raw[row] != row]
        nbrs[row] = r[: nbrs.shape[1]]
    kk = nbrs.shape[1]
    src = np.repeat(np.arange(n, dtype=np.intp), kk)
    tgt = nbrs.ravel()
    pair_ok = valid_normals[src] & valid_normals[tgt]
    alpha, phi, theta, valid = pair_angles_rows(points[src], normals[src], points[tgt], normals[tgt])
    valid &= pair_ok
    own, own_ok = _histogram_pairs_reference(src, alpha, phi, theta, valid, n)
    diff = points[nbrs] - points[:, None, :]
    omega = np.linalg.norm(diff, axis=2)
    contrib = own_ok[nbrs] & (omega > 0.0) & valid_normals[:, None] & own_ok[:, None]
    weights = np.where(contrib, 1.0 / np.where(omega > 0, omega, 1.0), 0.0)
    counts = contrib.sum(axis=1)
    weighted = np.einsum("nk,nkd->nd", weights, own[nbrs])
    scale = np.where(counts > 0, counts, 1.0)
    out = own + weighted / scale[:, None]
    out_valid = own_ok & valid_normals
    out[~out_valid] = 0.0
    return out, out_valid


# The per-point kernels before they worked on columns: colour, posterior,
# pair, Darboux-angle, neighbor-distance, neighbor-average and normal
# kernels over (N, 3) and (N, k, 3) rows. The library's column forms must
# equal them byte for byte; fpfh_reference's (N, k, 3) omega norm and
# (N, k, 33) average are the row forms of fpfh's distances and sparse
# product.


def pair_angles_rows(ps, ns, pt, nt):
    """features._pair_angles over (M, 3) rows, each three-term dot an
    np.einsum("ij,ij->i") call and the frame built with np.cross and
    np.linalg.norm."""
    d = pt - ps
    dist = np.linalg.norm(d, axis=1)
    ok = dist > 0.0
    dhat = np.where(ok[:, None], d / np.where(ok, dist, 1.0)[:, None], 0.0)
    swap = np.einsum("ij,ij->i", ns, dhat) < np.einsum("ij,ij->i", nt, -dhat)
    src_n = np.where(swap[:, None], nt, ns)
    tgt_n = np.where(swap[:, None], ns, nt)
    d = np.where(swap[:, None], -d, d)
    cx = np.cross(d, src_n)
    cx_norm = np.linalg.norm(cx, axis=1)
    valid = ok & (cx_norm >= ft._CROSS_EPS)
    safe = np.where(valid, cx_norm, 1.0)
    v = cx / safe[:, None]
    w = np.cross(src_n, v)
    alpha = np.einsum("ij,ij->i", v, tgt_n)
    phi = np.einsum("ij,ij->i", src_n, d) / np.where(ok, dist, 1.0)
    theta = np.arctan2(np.einsum("ij,ij->i", w, tgt_n), np.einsum("ij,ij->i", src_n, tgt_n))
    return alpha, phi, theta, valid


def neighbor_sum_rows(weights, nbrs, own):
    """features._neighbor_sum one neighbor column at a time, onto zeros."""
    out = np.zeros((len(nbrs), own.shape[1]))
    for j in range(nbrs.shape[1]):
        out += weights[:, j, None] * own[nbrs[:, j]]
    return out


def rgb_to_hsv_rows(rgb):
    """(N, 3) uint8 RGB to (N, 3) float64 [h_deg, s, v], each hue formula
    on its own rows."""
    rgbf = np.asarray(rgb, dtype=np.float64) / 255.0
    v = rgbf.max(axis=1)
    mn = rgbf.min(axis=1)
    delta = v - mn
    s = np.where(v > 0, delta / np.where(v > 0, v, 1.0), 0.0)
    h = np.zeros(len(rgbf))
    rn, gn, bn = rgbf[:, 0], rgbf[:, 1], rgbf[:, 2]
    safe = np.where(delta > 0, delta, 1.0)
    is_r = (v == rn) & (delta > 0)
    is_g = (v == gn) & (delta > 0) & ~is_r
    is_b = (delta > 0) & ~is_r & ~is_g
    h[is_r] = 60.0 * (((gn - bn)[is_r] / safe[is_r]) % 6.0)
    h[is_g] = 60.0 * ((bn - rn)[is_g] / safe[is_g] + 2.0)
    h[is_b] = 60.0 * ((rn - gn)[is_b] / safe[is_b] + 4.0)
    h[h >= 360.0] -= 360.0
    return np.column_stack([h, s, v])


def nb_posterior_rows(model: cls.NaiveBayesHsv, hsv):
    """P(pepper | hsv) for one triple or an (N, 3) batch, from (N, 4)
    feature rows and (N, 2) class rows."""
    single = np.asarray(hsv).ndim == 1
    f = cls.hsv_nb_features(hsv)
    log_lik = np.empty((len(f), 2))
    for c in range(2):
        z = (f - model.means[c]) ** 2 / model.variances[c]
        log_lik[:, c] = -0.5 * (z + np.log(2.0 * np.pi * model.variances[c])).sum(axis=1)
    log_post = log_lik + np.log(model.priors)
    log_post -= log_post.max(axis=1, keepdims=True)
    post = np.exp(log_post)
    post /= post.sum(axis=1, keepdims=True)
    return float(post[0, 0]) if single else post[:, 0]


def radius_pairs_rows(points, tol):
    """radius_pairs with the pair endpoints gathered by fancy indexing."""
    points = np.ascontiguousarray(points, dtype=np.float64)
    pairs = cKDTree(points).query_pairs(tol * (1.0 + _SLACK), output_type="ndarray")
    d = points[pairs[:, 0]] - points[pairs[:, 1]]
    return pairs[np.einsum("ij,ij->i", d, d) <= tol * tol].astype(np.intp, copy=False)


def knn_batch_rows(points, queries, k: int) -> np.ndarray:
    """(M, k) table of the k points with the smallest (d2, index) for each
    query, in that order, by brute force without the kd-tree: d2 is the
    row-form np.einsum("mnj,mnj->mn") and ties go by np.lexsort.

    Queries go in blocks of 64 in x order, each over the slab of points
    whose x lies within `reach` of the block's. Rounding is monotone, so a
    point's d2 is at least the square of its x difference; once reach
    exceeds the square root of every query's k-th d2 by a relative 1e-6
    plus a margin far above the rounding of x, each point outside the slab
    is strictly farther than the k-th and the slab's answer is the whole
    cloud's.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    queries = np.ascontiguousarray(queries, dtype=np.float64)
    n = len(points)
    if k < 1:
        raise InvalidInput("k must be >= 1")
    if k > n:
        raise InvalidInput(f"k={k} exceeds cloud size {n}")
    by_x = np.argsort(points[:, 0], kind="stable")
    xs = points[by_x, 0]
    out = np.empty((len(queries), k), dtype=np.intp)
    margin = 1e-12 * (1.0 + np.abs(xs).max())
    reach = 0.0
    q_by_x = np.argsort(queries[:, 0], kind="stable")
    for block in np.array_split(q_by_x, max(1, -(-len(queries) // 64))):
        q = queries[block]
        lo = np.searchsorted(xs, q[:, 0].min() - reach, side="left")
        hi = np.searchsorted(xs, q[:, 0].max() + reach, side="right")
        # at least k points, so that the first k-th d2 bounds the true one
        lo = max(0, min(lo, hi - k))
        hi = max(hi, lo + k)
        while True:
            cand = by_x[lo:hi]
            diff = points[cand][None, :, :] - q[:, None, :]
            d2 = np.einsum("mnj,mnj->mn", diff, diff)
            kth = np.partition(d2, k - 1, axis=1)[:, k - 1]
            need = math.sqrt(kth.max()) * (1.0 + 1e-6) + margin
            if need <= reach or hi - lo == n:
                break
            reach = need
            lo = np.searchsorted(xs, q[:, 0].min() - reach, side="left")
            hi = np.searchsorted(xs, q[:, 0].max() + reach, side="right")
        reach = need
        row, col = np.nonzero(d2 <= kth[:, None])
        order = np.lexsort((cand[col], d2[row, col], row))
        start = np.searchsorted(row[order], np.arange(len(q)))
        out[block] = cand[col[order][start[:, None] + np.arange(k)]]
    return out


def estimate_normals_rows(cloud: pc.PointCloud, k: int, viewpoint, neighbors=None):
    """estimate_normals with the mean and covariance reduced over an
    (N, k, 3) gather of the neighborhoods."""
    if k < 3:
        raise InvalidInput("normal estimation needs k >= 3")
    if len(cloud) < k:
        raise InvalidInput(f"cloud of {len(cloud)} points cannot supply k={k}")
    viewpoint = np.asarray(viewpoint, dtype=np.float64).reshape(3)
    if neighbors is None:
        neighbors = knn_batch_rows(cloud.points, cloud.points, k)
    neigh = cloud.points[neighbors]
    mean = neigh.mean(axis=1, keepdims=True)
    d = neigh - mean
    cov = np.einsum("nki,nkj->nij", d, d) / k
    evals, evecs = np.linalg.eigh(cov)
    normals = evecs[:, :, 0]
    valid = evals[:, 1] > (1e-9 * np.maximum(evals[:, 2], 0.0) + 1e-18)
    to_view = viewpoint[None, :] - cloud.points
    flip = np.einsum("ni,ni->n", normals, to_view) < 0.0
    normals[flip] = -normals[flip]
    norms = np.linalg.norm(normals, axis=1)
    normals = normals / np.where(norms > 0, norms, 1.0)[:, None]
    normals[~valid] = 0.0
    return normals, valid


def neighbor_tables_reference(points, normal_k, fpfh_k):
    """The two exact tables, each computed on its own: (knn_batch_rows at
    normal_k, knn_batch_rows at min(fpfh_k + 1, N))."""
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    return (
        knn_batch_rows(points, points, normal_k),
        knn_batch_rows(points, points, min(fpfh_k + 1, n)),
    )


def point_features_reference(cloud, normal_k=30, fpfh_k=30):
    """Normals from their own query, then fpfh_reference."""
    normals, n_valid = estimate_normals_rows(cloud, normal_k, (0.0, 0.0, 0.0))
    hists, h_valid = fpfh_reference(cloud.points, normals, fpfh_k, n_valid)
    return ft.assemble_features(rgb_to_hsv_rows(cloud.colors), hists), n_valid & h_valid


# The SVM training sample before it formed histograms only for the drawn
# rows: point_features over the whole cloud, then rows of it. The library's
# sample must match it bit for bit.


def collect_svm_training_reference(
    scenes,
    normal_k: int = 30,
    fpfh_k: int = 30,
    per_scene: int = 300,
    max_total: int = 2000,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Class-balanced (features, +-1 labels) sample across training scenes."""
    rng = np.random.default_rng(seed)
    feats_all, y_all = [], []
    for scene in scenes:
        feats, valid = ft.point_features(scene.cloud, normal_k, fpfh_k)
        labels = scene.cloud.labels
        pos = np.flatnonzero((labels == pc.LABEL_PEDUNCLE) & valid)
        neg = np.flatnonzero((labels != pc.LABEL_PEDUNCLE) & (labels != pc.LABEL_UNLABELED) & valid)
        half = per_scene // 2
        if pos.size > half:
            pos = np.sort(rng.choice(pos, half, replace=False))
        if neg.size > half:
            neg = np.sort(rng.choice(neg, half, replace=False))
        feats_all.append(feats[pos])
        y_all.append(np.ones(pos.size))
        feats_all.append(feats[neg])
        y_all.append(-np.ones(neg.size))
    feats = np.vstack(feats_all)
    y = np.concatenate(y_all)
    if len(y) > max_total:
        keep = np.sort(rng.choice(len(y), max_total, replace=False))
        feats, y = feats[keep], y[keep]
    if not (y > 0).any() or not (y < 0).any():
        raise InvalidInput("training sample lost one of the classes")
    return feats, y


def kkt_violations(model: cls.SvmModel, features: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-sample KKT violation magnitudes of a trained model on its data.

    Zero within tol everywhere certifies dual optimality:
      alpha == 0  ->  y*f >= 1,   alpha == C  ->  y*f <= 1,
      0 < alpha < C  ->  y*f == 1.
    """
    y = np.asarray(labels, dtype=np.float64).reshape(-1)
    margins = y * cls.svm_score_batch(model, features)
    # recover per-sample alpha by matching rows against stored SVs
    xs = (np.asarray(features, dtype=np.float64) - model.feature_means) / model.feature_scales
    alphas = np.zeros(len(xs))
    sv_map = {}
    for r, coef in zip(model.support_vectors, model.dual_coefs):
        sv_map.setdefault(r.tobytes(), []).append(abs(coef))
    for i, row in enumerate(xs):
        stack = sv_map.get(row.tobytes())
        if stack:
            alphas[i] = stack.pop()
    viol = np.zeros(len(xs))
    at_zero = alphas <= 1e-10
    at_c = alphas >= model.c - 1e-10 * max(model.c, 1.0)
    interior = ~at_zero & ~at_c
    viol[at_zero] = np.maximum(0.0, 1.0 - margins[at_zero])
    viol[at_c] = np.maximum(0.0, margins[at_c] - 1.0)
    viol[interior] = np.abs(margins[interior] - 1.0)
    return viol


def svm_score_batch_reference(model, feats):
    xs = (np.asarray(feats, dtype=np.float64) - model.feature_means) / model.feature_scales
    k = kernel_reference(model.kernel, model.gamma, xs, model.support_vectors)
    return np.einsum("ij,j->i", k, model.dual_coefs) + model.bias


def pfh_svm_score_frame_reference(detector, frame, roi):
    """PfhSvmDetector.score_frame composed from the reference pieces."""
    rows = pl.roi_rows(frame, roi)
    scores = np.zeros(len(rows))
    if len(rows) > detector.normal_k:
        feats, valid = point_features_reference(frame.cloud.subset(rows), detector.normal_k, detector.fpfh_k)
        if valid.any():
            scores[valid] = pl.margin_to_score(svm_score_batch_reference(detector.model, feats[valid]))
    return pl.scored_cloud(frame, rows, scores)


def conv_reference(x, w, b, stride, pad):
    """Direct 6-loop cross-correlation."""
    bs, cin, h, ww = x.shape
    cout, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (ww + 2 * pad - kw) // stride + 1
    out = np.zeros((bs, cout, oh, ow))
    for n in range(bs):
        for co in range(cout):
            for i in range(oh):
                for j in range(ow):
                    patch = xp[n, :, i * stride : i * stride + kh, j * stride : j * stride + kw]
                    out[n, co, i, j] = (patch * w[co]).sum() + b[co]
    return out


# minicnn.score_map before its shared trunk: the whole network on every
# patch. The shared-trunk score map must match it bit for bit.


def score_map_per_patch(image: np.ndarray, net: mc.Network, stride: int = 4, roi=None, batch: int = 128) -> mc.ScoreMap:
    """Positive-class softmax probability at every stride-spaced patch center.

    Pixels never scored (outside the grid, outside the valid patch region,
    or outside an optional region of interest) hold score 0 and are not in
    the mask. Raises InvalidInput when the image cannot fit one patch.
    """
    if stride < 1:
        raise InvalidInput("stride must be >= 1")
    if net.input_hw is None:
        raise InvalidInput("network has no declared input patch size")
    ph, pw = net.input_hw
    img = np.asarray(image)
    h, w = img.shape[:2]
    if h < ph or w < pw:
        raise InvalidInput(f"image {h}x{w} smaller than patch {ph}x{pw}")
    ys, xs = mc.patch_centers(h, w, ph, pw, stride)
    if roi is not None:
        ys = ys[(roi.y_min <= ys) & (ys < roi.y_max)]
        xs = xs[(roi.x_min <= xs) & (xs < roi.x_max)]
    out = mc.ScoreMap(np.zeros((h, w)), np.zeros((h, w), dtype=bool))
    if len(ys) == 0 or len(xs) == 0:
        return out
    cy, cx = np.repeat(ys, len(xs)), np.tile(xs, len(ys))     # row-major grid
    dtype = next((p.dtype for _, _, p, _ in net.parameters()), np.float64)
    # only the pixels some patch covers; patch (cy, cx) starts at crop
    # pixel (cy - ys[0], cx - xs[0])
    crop = img[ys[0] - ph // 2 : ys[-1] - ph // 2 + ph, xs[0] - pw // 2 : xs[-1] - pw // 2 + pw]
    imgf = crop.astype(dtype) / dtype.type(255.0)
    patches_at = sliding_window_view(imgf, (ph, pw), axis=(0, 1)).transpose(0, 1, 3, 4, 2)
    for start in range(0, len(cy), batch):
        ry, rx = cy[start : start + batch], cx[start : start + batch]
        patches = patches_at[ry - ys[0], rx - xs[0]].transpose(0, 3, 1, 2)
        out.scores[ry, rx] = mc.softmax(net.forward(patches))[:, 1]
    out.mask[cy, cx] = True
    return out


# The tensor kernels minicnn used before its window-view rewrite, kept as
# they were: the new kernels must match them bit for bit.


def im2col_reference(x, kh, kw, stride, pad, pad_value=0.0):
    b, c, h, w = x.shape
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    if oh <= 0 or ow <= 0:
        raise InvalidInput(f"kernel {kh}x{kw} does not fit input {h}x{w} (pad {pad})")
    if pad:
        xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)), constant_values=pad_value)
    else:
        xp = x
    cols = np.empty((b, c, kh, kw, oh, ow), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride]
    return cols.transpose(0, 4, 5, 1, 2, 3).reshape(b * oh * ow, c * kh * kw), oh, ow


def col2im_reference(dcols, x_shape, kh, kw, stride, pad, oh, ow):
    b, c, h, w = x_shape
    dxp = np.zeros((b, c, h + 2 * pad, w + 2 * pad))
    dcols = dcols.reshape(b, oh, ow, c, kh, kw).transpose(0, 3, 4, 5, 1, 2)
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride] += dcols[:, :, i, j]
    return dxp[:, :, pad : pad + h, pad : pad + w] if pad else dxp


def conv_input_grad_reference(dyr, w, x_shape, stride, pad, oh, ow):
    """minicnn's convolution input gradient as it was before the window
    sums ran a block of samples at a time: the product with the weights in
    (c, kh, kw) column order, then col2im_reference."""
    c_out, _, kh, kw = w.shape
    dcols = dyr @ w.reshape(c_out, -1)
    return col2im_reference(dcols, x_shape, kh, kw, stride, pad, oh, ow)


class MaxPoolReference:
    def __init__(self, spec, pad: int = 0):
        self.spec = spec
        self.pad = pad
        self.params = {}
        self.grads = {}
        self._cache = None

    def forward(self, x, train=False):
        k, stride = self.spec.k, self.spec.stride
        b, c, h, w = x.shape
        cols, oh, ow = im2col_reference(
            x.reshape(b * c, 1, h, w), k, k, stride, self.pad, pad_value=-np.inf
        )
        arg = np.argmax(cols, axis=1)
        out = cols[np.arange(len(cols)), arg].reshape(b, c, oh, ow)
        if train:
            self._cache = (arg, (b * c, 1, h, w), oh, ow, cols.shape)
        return out

    def backward(self, dy):
        arg, x_shape, oh, ow, cols_shape = self._cache
        k, stride = self.spec.k, self.spec.stride
        dcols = np.zeros(cols_shape)
        dcols[np.arange(len(dcols)), arg] = dy.reshape(-1)
        dx = col2im_reference(dcols, x_shape, k, k, stride, self.pad, oh, ow)
        b_c, _, h, w = x_shape
        return dx.reshape(dy.shape[0], dy.shape[1], h, w)


# minicnn.MaxPool's training forward before it shared the inference fold:
# gather every window, take its argmax and the element there. The forward
# value and the cached argmax must match it bit for bit.


def max_pool_gather_reference(x, k, stride, pad):
    """(output (b, c, oh, ow), argmax (b, oh, ow, c)) of a k x k max pool over
    -inf padding; the argmax is the row-major window offset i * k + j."""
    b, c, h, w = x.shape
    oh, ow = mc._out_hw(h, w, k, k, stride, pad)
    xp = mc._nhwc_padded(x, pad, -np.inf)
    flat = mc._gather_windows(xp, k, k, stride, oh, ow).reshape(b, oh, ow, c, k * k)
    arg = np.argmax(flat, axis=-1)
    out = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]
    return out.transpose(0, 3, 1, 2), arg


@contextlib.contextmanager
def reference_kernels():
    """Inside this block minicnn runs on the reference kernels: convolutions
    called and pooling layers built here use them in place of its own, and
    networks built here run their layers one by one, with no fused relu +
    pool step (see runs_layers_one_by_one)."""
    saved = mc._im2col, mc._conv_input_grad, mc.MaxPool, mc._fuses
    mc._im2col, mc._conv_input_grad, mc.MaxPool = im2col_reference, conv_input_grad_reference, MaxPoolReference
    mc._fuses = lambda prev, spec: False
    try:
        yield
    finally:
        mc._im2col, mc._conv_input_grad, mc.MaxPool, mc._fuses = saved


@contextlib.contextmanager
def row_chunks(workers: int, chunk_rows: int | None = None, min_rows: int | None = None):
    """Inside this block the library's row-parallel calls (peduncle._rows)
    run on `workers` threads, the calling thread included, with chunks of
    at most chunk_rows and at least min_rows rows where given. The block
    starts its own thread pool and shuts it down on the way out."""
    saved = _rows._WORKERS, _rows._CHUNK_ROWS, _rows._MIN_ROWS, _rows._pool
    _rows._WORKERS, _rows._pool = workers, None
    _rows._CHUNK_ROWS = saved[1] if chunk_rows is None else chunk_rows
    _rows._MIN_ROWS = saved[2] if min_rows is None else min_rows
    try:
        yield
    finally:
        pool = _rows._pool
        _rows._WORKERS, _rows._CHUNK_ROWS, _rows._MIN_ROWS, _rows._pool = saved
        if pool is not None:
            pool.shutdown()


def runs_layers_one_by_one(net: mc.Network) -> bool:
    """Whether the network runs its layers one by one, with no fused step."""
    return not any(isinstance(step, mc._ReluMaxPool) for step in net.layers)


def numerical_grad(loss_fn, array, eps=1e-6):
    """Central finite differences, elementwise."""
    g = np.zeros_like(array)
    flat, gf = array.reshape(-1), g.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + eps
        fp = loss_fn()
        flat[i] = old - eps
        fm = loss_fn()
        flat[i] = old
        gf[i] = (fp - fm) / (2 * eps)
    return g


def max_rel_error(a, b):
    denom = np.maximum(np.abs(a) + np.abs(b), 1e-8)
    return float((np.abs(a - b) / denom).max())


def param_count(spec) -> int:
    """Total learnable parameters of a NetworkSpec or a raw spec sequence,
    summed from the layer shapes: the reference for Network.param_count."""
    if isinstance(spec, mc.NetworkSpec):
        specs, c = spec.layers, spec.input_c
    else:
        specs = list(spec)
        c = next((s.c_in for s in specs if isinstance(s, mc.ConvSpec)), 0)
    total = 0
    for s in specs:
        if isinstance(s, mc.ConvSpec):
            total += s.kh * s.kw * s.c_in * s.c_out + s.c_out
            c = s.c_out
        elif isinstance(s, mc.InceptionSpec):
            total += c * s.b1 + s.b1
            total += c * s.b3r + s.b3r
            total += 3 * 3 * s.b3r * s.b3 + s.b3
            total += c * s.bp + s.bp
            c = s.c_out
        elif isinstance(s, mc.FcSpec):
            total += s.n_in * s.n_out + s.n_out
    return total


# ---------------------------------------------------------------------------
# scene rendering as it was before the z-buffer kept only its winners:
# every colour converted, and one lexsort over all splats
# ---------------------------------------------------------------------------


def hsv_to_rgb_six_tables(h, s, v) -> np.ndarray:
    """Hexcone HSV -> uint8 RGB through six stacked (n, 3) tables, one per
    60-degree sector, indexed by each row's sector."""
    h = np.asarray(h, dtype=np.float64) % 360.0
    s = np.asarray(s, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    c = v * s
    x = c * (1.0 - np.abs((h / 60.0) % 2.0 - 1.0))
    m = v - c
    sector = (h // 60.0).astype(np.intp) % 6
    zeros = np.zeros_like(c)
    lut = np.stack(
        [
            np.stack([c, x, zeros], axis=1),
            np.stack([x, c, zeros], axis=1),
            np.stack([zeros, c, x], axis=1),
            np.stack([zeros, x, c], axis=1),
            np.stack([x, zeros, c], axis=1),
            np.stack([c, zeros, x], axis=1),
        ],
        axis=0,
    )
    rgb1 = lut[sector, np.arange(len(h))]
    return np.round((rgb1 + m[:, None]) * 255.0).astype(np.uint8)


def nearest_splats_lexsort(flat, z) -> tuple[np.ndarray, np.ndarray]:
    """(pixels, winners) of a z-buffer: sort all splats by pixel, then
    depth, stably, and keep the first of each pixel."""
    order = np.lexsort((z, flat))
    sorted_flat = flat[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = sorted_flat[1:] != sorted_flat[:-1]
    return sorted_flat[first], order[first]


def generate_reference(params) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rgb, depth_raw, labels_img) of a scene, drawn with the library's
    samplers in the library's order, every colour converted with
    hsv_to_rgb_six_tables and the pixels kept by nearest_splats_lexsort."""
    params.validate()
    rng = np.random.default_rng(params.seed)
    h, w = params.image_h, params.image_w
    wall_z = params.pepper_center[2] + params.wall_offset
    batches = [sg._pepper_samples(rng, params), sg._peduncle_samples(rng, params)]
    if params.stem:
        batches.append(sg._stem_samples(rng, params))
    for i in range(params.leaf_count):
        batches.append(sg._leaf_samples(rng, params, high=(i == 0)))
    pts = np.vstack([b[0] for b in batches])
    cols = np.vstack([hsv_to_rgb_six_tables(*b[1]) for b in batches])
    labs = np.concatenate([np.full(len(b[0]), b[2], dtype=np.uint8) for b in batches])

    zbuf = np.full((h, w), wall_z)
    wall = sg._colors(rng, h * w, 95.0, 18.0, (0.1, 0.3), (0.12, 0.3), params, plant=True)
    rgb = hsv_to_rgb_six_tables(*wall).reshape(h, w, 3)
    labels_img = np.full((h, w), pc.LABEL_BACKGROUND, dtype=np.uint8)
    z = pts[:, 2]
    keep = z > sg._NEAR_PLANE
    u = np.round(pts[:, 0] * params.fx / z + params.cx).astype(np.int64)
    v = np.round(pts[:, 1] * params.fy / z + params.cy).astype(np.int64)
    keep &= (u >= 0) & (u < w) & (v >= 0) & (v < h) & (z < wall_z)
    flat, win = nearest_splats_lexsort((v * w + u)[keep], z[keep])
    vv, uu = flat // w, flat % w
    zbuf[vv, uu] = z[keep][win]
    rgb[vv, uu] = cols[keep][win]
    labels_img[vv, uu] = labs[keep][win]
    if params.noise_sigma > 0:
        zbuf = zbuf + rng.normal(0.0, params.noise_sigma, zbuf.shape)
    depth_raw = np.clip(np.round(zbuf / params.depth_scale), 1, 65535).astype(np.uint16)
    return rgb, depth_raw, labels_img


# ---------------------------------------------------------------------------
# per-row ASCII readers and writers: the library's file formats as they were
# read and written line by line, kept to pin the column-wise versions
# ---------------------------------------------------------------------------


def save_cloud_per_row(path, cloud: pc.PointCloud) -> None:
    has_labels = 1 if cloud.labels is not None else 0
    lines = [f"pcloud v1 {len(cloud)} {has_labels}"]
    for i in range(len(cloud)):
        x, y, z = (repr(float(v)) for v in cloud.points[i])
        r, g, b = (int(v) for v in cloud.colors[i])
        if has_labels:
            lines.append(f"{x} {y} {z} {r} {g} {b} {int(cloud.labels[i])}")
        else:
            lines.append(f"{x} {y} {z} {r} {g} {b}")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_cloud_per_row(path) -> pc.PointCloud:
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 4 or header[:2] != ["pcloud", "v1"] or header[3] not in ("0", "1"):
            raise FormatError(f"{path}: not a pcloud v1 file")
        has_labels = header[3] == "1"
        try:
            count = int(header[2])
            # the shortest point line, "0 0 0 0 0 0\n", takes 12 bytes
            if count * 12 > os.fstat(fh.fileno()).st_size:
                raise FormatError(f"{path}: point count larger than the file")
            pts = np.empty((count, 3), dtype=np.float64)
            ints = np.empty((count, 4 if has_labels else 3), dtype=np.int64)
            for i in range(count):
                fields = fh.readline().split()
                if len(fields) != (7 if has_labels else 6):
                    raise FormatError(f"{path}: malformed point line {i + 1}")
                pts[i] = [float(v) for v in fields[:3]]
                ints[i] = [int(v) for v in fields[3:]]
        except (ValueError, OverflowError) as exc:
            raise FormatError(f"{path}: bad count or non-numeric field") from exc
        if fh.read().strip():
            raise FormatError(f"{path}: data after the last point")
    if not np.isfinite(pts).all():
        raise FormatError(f"{path}: non-finite coordinate")
    if ((ints < 0) | (ints > 255)).any():
        raise FormatError(f"{path}: colour or label outside 0-255")
    ints = ints.astype(np.uint8)
    return pc.PointCloud(pts, ints[:, :3], ints[:, 3] if has_labels else None)


def save_scores_per_row(path, scored: pl.ScoredCloud, eval_labels: np.ndarray) -> None:
    lines = [f"scores v1 {len(scored)}"]
    for p, s, lab in zip(scored.cloud.points, scored.scores, eval_labels):
        lines.append(
            f"{float(p[0])!r} {float(p[1])!r} {float(p[2])!r} {float(s)!r} {int(lab)}"
        )
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_scores_per_row(path) -> tuple[np.ndarray, np.ndarray]:
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


def save_features_per_row(path, features: np.ndarray, labels: np.ndarray) -> None:
    features = np.asarray(features, dtype=np.float64)
    lines = [f"features v1 {len(features)} {ft.FEATURE_DIM}"]
    for row, lab in zip(features, labels):
        lines.append(" ".join(repr(float(v)) for v in row) + f" {int(lab)}")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_features_per_row(path) -> tuple[np.ndarray, np.ndarray]:
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 4 or header[0] != "features" or header[1] != "v1":
            raise FormatError(f"{path}: not a features v1 file")
        try:
            count, dim = int(header[2]), int(header[3])
            if dim != ft.FEATURE_DIM:
                raise FormatError(f"{path}: expected {ft.FEATURE_DIM} dims, found {dim}")
            # the shortest row, 36 one-digit values and a label, takes 74 bytes
            if count * 2 * (dim + 1) > os.fstat(fh.fileno()).st_size:
                raise FormatError(f"{path}: row count larger than the file")
            feats = np.empty((count, dim))
            labels = np.empty(count, dtype=np.int64)
            for i in range(count):
                fields = fh.readline().split()
                if len(fields) != dim + 1:
                    raise FormatError(f"{path}: malformed feature line {i + 1}")
                feats[i] = [float(v) for v in fields[:dim]]
                labels[i] = int(fields[dim])
        except (ValueError, OverflowError) as exc:
            raise FormatError(f"{path}: bad count or non-numeric field") from exc
        if fh.read().strip():
            raise FormatError(f"{path}: data after the last row")
    return feats, labels


def save_svm_per_row(path, model: cls.SvmModel) -> None:
    lines = [
        f"svm v1 {model.kernel} {repr(float(model.gamma))} {repr(float(model.c))} "
        f"{repr(float(model.bias))} {len(model.dual_coefs)}",
        " ".join(repr(float(v)) for v in model.feature_means),
        " ".join(repr(float(v)) for v in model.feature_scales),
    ]
    for coef, sv in zip(model.dual_coefs, model.support_vectors):
        lines.append(repr(float(coef)) + " " + " ".join(repr(float(v)) for v in sv))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_svm_per_row(path) -> cls.SvmModel:
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 7 or header[0] != "svm" or header[1] != "v1":
            raise FormatError(f"{path}: not an svm v1 file")
        kernel, gamma, c, bias, n_sv = header[2], float(header[3]), float(header[4]), float(header[5]), int(header[6])
        means = np.array([float(v) for v in fh.readline().split()])
        scales = np.array([float(v) for v in fh.readline().split()])
        coefs = np.empty(n_sv)
        svs = np.empty((n_sv, len(means)))
        for i in range(n_sv):
            fields = fh.readline().split()
            if len(fields) != len(means) + 1:
                raise FormatError(f"{path}: malformed support vector line {i + 1}")
            coefs[i] = float(fields[0])
            svs[i] = [float(v) for v in fields[1:]]
    return cls.SvmModel(kernel, gamma, c, bias, coefs, svs, means, scales)


def load_nb_per_line(path) -> cls.NaiveBayesHsv:
    with open(path) as fh:
        if fh.readline().strip() != "nbhsv v1":
            raise FormatError(f"{path}: not an nbhsv v1 file")
        priors, means, variances = [], [], []
        for _ in range(2):
            priors.append(float(fh.readline()))
            means.append([float(v) for v in fh.readline().split()])
            variances.append([float(v) for v in fh.readline().split()])
    return cls.NaiveBayesHsv(np.array(means), np.array(variances), np.array(priors))
