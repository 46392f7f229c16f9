"""Independent reference implementations used to check the library.

Everything here is deliberately naive (loops, direct formulas, generic
solvers) and shares no code with the paths it validates, except
eval_filtered_per_threshold, which reruns the library's own filter at every
threshold to check the one-pass sweep built on top of it.
"""

import numpy as np

from peduncle import classifiers as cls
from peduncle import cloud as pc
from peduncle import evaluate as ev
from peduncle import features as ft
from peduncle import pipeline as pl
from peduncle.errors import DegeneratePair, EmptyHistogram, NoPeduncleFound


def brute_knn(points, q, k):
    d2 = ((points - q) ** 2).sum(axis=1)
    order = np.lexsort((np.arange(len(points)), d2))
    return order[:k]


def brute_radius(points, q, r):
    d2 = ((points - q) ** 2).sum(axis=1)
    return np.sort(np.flatnonzero(d2 <= r * r))


def union_find_clusters(points, subset, tol, min_size, max_size):
    """Pure-python union-find over the <=tol adjacency graph (small inputs)."""
    pts = points[subset]
    n = len(pts)
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    for i in range(n):
        for j in range(i + 1, n):
            if d2[i, j] <= tol * tol:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(subset[i])
    clusters = [sorted(g) for g in groups.values() if min_size <= len(g) <= max_size]
    clusters.sort(key=lambda g: (-len(g), g[0]))
    return clusters


def csgraph_clusters(points, subset, tol, min_size, max_size):
    """Connected components via scipy's graph machinery (larger inputs)."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    pts = points[subset]
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    n_comp, labels = connected_components(csr_matrix(d2 <= tol * tol), directed=False)
    clusters = []
    for c in range(n_comp):
        members = np.asarray(subset)[labels == c]
        if min_size <= len(members) <= max_size:
            clusters.append(sorted(members.tolist()))
    clusters.sort(key=lambda g: (-len(g), g[0]))
    return clusters


def eval_filtered_per_threshold(
    scenes, nb, thresholds, fp=pl.FilterParams(), box_params=pl.PeduncleBoxParams(),
    up=pl.UP_DEFAULT,
):
    """Filtered PR curve that reruns the whole five-step filter for every
    threshold and scene. It shares the clustering with the one-pass sweep
    (the clustering has its own oracles), so it checks the sweep's
    bookkeeping: threshold-free masks, the induced subgraph per threshold
    and the reuse of unchanged kept sets."""
    points = []
    for t in np.asarray(thresholds, dtype=np.float64):
        tp = fp_count = fn = tn = 0
        for scene in scenes:
            lab = scene.eval_labels
            n_pos = int(np.sum(lab == ev.POSITIVE))
            n_neg = int(np.sum(lab == ev.NEGATIVE))
            if scene.pepper_points is None or len(scene.scored) == 0:
                fn += n_pos
                tn += n_neg
                continue
            post = cls.nb_posterior(nb, ft.rgb_to_hsv_array(scene.scored.cloud.colors))
            params = pl.FilterParams(
                score_threshold=float(t),
                pepper_posterior_threshold=fp.pepper_posterior_threshold,
                cluster_tol=fp.cluster_tol,
                min_cluster=fp.min_cluster,
                max_cluster=fp.max_cluster,
            )
            pred = np.zeros(len(scene.scored), dtype=bool)
            try:
                result = pl.filter_detections(
                    scene.scored, scene.pepper_points, nb, params, box_params, up, post
                )
                pred[result.cluster] = True
            except NoPeduncleFound:
                pass
            tp += int(np.sum(pred & (lab == ev.POSITIVE)))
            fp_count += int(np.sum(pred & (lab == ev.NEGATIVE)))
            fn += int(np.sum(~pred & (lab == ev.POSITIVE)))
            tn += int(np.sum(~pred & (lab == ev.NEGATIVE)))
        points.append(ev.PrPoint(float(t), tp, fp_count, fn, tn))
    return ev.PrCurve(points, "filtered")


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
            ang = ft.darboux_angles(points[s], normals[s], points[t], normals[t])
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
    index = pc.build_index(points)
    n = len(points)
    nbrs = []
    for i in range(n):
        row = pc.knn(index, points[i], min(k + 1, n))
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
