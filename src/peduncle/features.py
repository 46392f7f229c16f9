"""Color conversion and 33-bin point-feature histograms.

Each 3D point gets a 36-dimensional descriptor: normalized HSV (3 values)
concatenated with a fast point-feature histogram (3 Darboux-frame angles
x 11 bins). Histograms are percentage-normalized per angle block and are
invariant under rigid motion of the cloud.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

from . import cloud as pc
from ._textio import open_text, read_rows, write_rows
from .errors import FormatError, InvalidInput

FPFH_BINS_PER_FEATURE = 11
FPFH_DIM = 3 * FPFH_BINS_PER_FEATURE      # 33
FEATURE_DIM = 3 + FPFH_DIM                # 36

# Pairs whose separation is (near) parallel to the source normal have no
# well-defined Darboux frame; they are skipped, never clamped.
_CROSS_EPS = 1e-9


def rgb_to_hsv_array(rgb: np.ndarray) -> np.ndarray:
    """(N, 3) uint8 RGB to (N, 3) float64 [h_deg, s, v].

    Works on the three channel columns. Each hue formula is evaluated on
    every row and each row picks the one for its largest channel (red,
    then green, on ties), hue 0 for greys; the arithmetic per value is
    elementwise, so this equals evaluating each formula on its own rows
    only.
    """
    rgb = np.asarray(rgb)
    if rgb.ndim != 2 or rgb.shape[1] != 3:
        raise InvalidInput(f"colors must be (N, 3), got {rgb.shape}")
    rn, gn, bn = rgb.T.astype(np.float64, order="C") / 255.0
    v = np.maximum(np.maximum(rn, gn), bn)
    delta = v - np.minimum(np.minimum(rn, gn), bn)
    s = np.where(v > 0, delta / np.where(v > 0, v, 1.0), 0.0)
    safe = np.where(delta > 0, delta, 1.0)
    h = np.where(v == rn, 60.0 * (((gn - bn) / safe) % 6.0),
        np.where(v == gn, 60.0 * ((bn - rn) / safe + 2.0), 60.0 * ((rn - gn) / safe + 4.0)))
    h = np.where(delta > 0, h, 0.0)
    h[h >= 360.0] -= 360.0
    return np.column_stack([h, s, v])


def _cross(a, b):
    """Cross products of (3, ...) coordinate columns, np.cross's operations
    and order over (M, 3) rows."""
    return np.stack([a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]])


def _pair_angles(ps, ns, pt, nt):
    """Vectorized Darboux angles with the source-selection convention applied.

    Points and normals are (3, ...) coordinate columns, broadcast against
    each other. For each pair the source is the endpoint whose normal has
    the smaller angle to the separation vector (ties keep the given
    order). Returns (alpha, phi, theta, valid) where invalid pairs are
    degenerate; each value has the bytes of the same formulas over (M, 3)
    rows with np.einsum, np.cross and np.linalg.norm (see cloud.column_dot).
    """
    d = pt - ps
    dist = pc.column_norm(d)
    ok = dist > 0.0
    safe_dist = np.where(ok, dist, 1.0)
    dhat = np.where(ok, d / safe_dist, 0.0)
    # -(x·y) and x·(-y) differ at most in the sign of a zero, which < ignores
    swap = pc.column_dot(ns, dhat) < -pc.column_dot(nt, dhat)
    src_n = np.where(swap, nt, ns)
    tgt_n = np.where(swap, ns, nt)
    d = d * np.where(swap, -1.0, 1.0)       # -d where swapped, exactly
    cx = _cross(d, src_n)
    cx_norm = pc.column_norm(cx)
    valid = ok & (cx_norm >= _CROSS_EPS)
    v = cx / np.where(valid, cx_norm, 1.0)
    w = _cross(src_n, v)
    alpha = pc.column_dot(v, tgt_n)
    phi = pc.column_dot(src_n, d) / safe_dist
    theta = np.arctan2(pc.column_dot(w, tgt_n), pc.column_dot(src_n, tgt_n))
    return alpha, phi, theta, valid


def _bin_index(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Half-open equal-width bins with the final bin closed at hi."""
    b = np.floor((x - lo) / (hi - lo) * FPFH_BINS_PER_FEATURE).astype(np.intp)
    return np.clip(b, 0, FPFH_BINS_PER_FEATURE - 1)


def _histogram_pairs(src_idx, alpha, phi, theta, valid, n_points) -> tuple[np.ndarray, np.ndarray]:
    """Accumulate angle triples into per-point 33-bin histograms, sum 100 per block."""
    s = src_idx[valid]
    row = s * FPFH_DIM
    bins = np.concatenate([
        row + _bin_index(alpha[valid], -1.0, 1.0),
        row + 11 + _bin_index(phi[valid], -1.0, 1.0),
        row + 22 + _bin_index(theta[valid], -np.pi, np.pi),
    ])
    # integer counts, so the result does not depend on the order of the adds
    hist = np.bincount(bins, minlength=n_points * FPFH_DIM).reshape(n_points, FPFH_DIM).astype(np.float64)
    counts = np.bincount(s, minlength=n_points).astype(np.float64)
    has = counts > 0
    for block in range(3):
        sl = slice(11 * block, 11 * (block + 1))
        hist[has, sl] *= (100.0 / counts[has])[:, None]
    return hist, has


def _without_self(neighbors: np.ndarray, rows: np.ndarray, kk: int) -> np.ndarray:
    """The first kk neighbors of each of `rows` other than the row itself.

    Self is in a row at most once (and absent when duplicates crowd it
    out); the entries after it move up one column.
    """
    table = neighbors[rows]
    past_self = np.cumsum(table == rows[:, None], axis=1)[:, :kk]
    return np.take_along_axis(table, np.arange(kk) + past_self, axis=1)


def fpfh(
    points: np.ndarray,
    normals: np.ndarray,
    k: int,
    valid_normals: np.ndarray,
    neighbors: np.ndarray,
    rows: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Fast point-feature histograms for the points `rows` of (N, 3) points
    (every point when None).

    Each point's own simplified histogram is combined with the
    distance-weighted average of its k neighbors' histograms:

        out(p) = SPFH(p) + mean_i [ SPFH(p_i) / ||p - p_i|| ]

    Neighbors at zero distance (duplicates) or with invalid normals are
    skipped from both the histograms and the average. Points whose own
    histogram has no valid pair are flagged invalid; `valid_normals` flags
    the usable normals. `neighbors` is the (N, min(k + 1, N)) table
    knn_batch(points, points, min(k + 1, N)), the first columns of any
    wider knn_batch table. A row holds the point itself unless k + 1
    duplicates of lower index crowd it out, and its first min(k, N - 1)
    other points are the neighbors. Simplified histograms are formed only
    for the rows and their neighbors, and each output row is the same
    bytes as that row of the every-point call.

    Returns (descriptors (R, 33), valid (R,) bool), R = len(rows) or N.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if k < 2:
        raise InvalidInput("fpfh needs k >= 2")
    normals = np.asarray(normals, dtype=np.float64)
    if normals.shape != (n, 3):
        raise InvalidInput(f"normals must be ({n}, 3), got {normals.shape}")
    if np.shape(valid_normals) != (n,):
        raise InvalidInput(f"valid_normals must be ({n},), got {np.shape(valid_normals)}")
    if neighbors.shape != (n, min(k + 1, n)):
        raise InvalidInput(f"neighbor table must be ({n}, {min(k + 1, n)}), got {neighbors.shape}")
    rows = np.arange(n) if rows is None else np.arange(n)[rows]
    kk = min(k, n - 1)
    columns = np.ascontiguousarray(points.T)
    normal_columns = np.ascontiguousarray(normals.T)

    # simplified histograms of the rows and every point in their tables (a
    # row is missing from its own table when duplicates crowd it out)
    need = np.zeros(n, dtype=bool)
    need[neighbors[rows]] = True
    need[rows] = True
    # each source's (3, S, 1) columns broadcast against its (3, S, kk) targets
    spfh_rows = np.flatnonzero(need)
    spfh_nbrs = _without_self(neighbors, spfh_rows, kk)
    src = spfh_rows[:, None]
    alpha, phi, theta, valid = _pair_angles(
        pc.take_columns(columns, src), pc.take_columns(normal_columns, src),
        pc.take_columns(columns, spfh_nbrs), pc.take_columns(normal_columns, spfh_nbrs),
    )
    valid &= valid_normals[src] & valid_normals[spfh_nbrs]
    own, own_ok = _histogram_pairs(np.broadcast_to(src, valid.shape), alpha, phi, theta, valid, n)

    nbrs = spfh_nbrs[np.searchsorted(spfh_rows, rows)]       # (R, kk)
    diff = pc.take_columns(columns, nbrs)
    diff -= pc.take_columns(columns, rows)[:, :, None]
    omega = pc.column_norm(diff)
    row_ok = own_ok[rows] & valid_normals[rows]
    contrib = own_ok[nbrs] & (omega > 0.0) & row_ok[:, None]
    weights = np.where(contrib, 1.0 / np.where(omega > 0, omega, 1.0), 0.0)
    counts = contrib.sum(axis=1)
    scale = np.where(counts > 0, counts, 1.0)
    out = own[rows] + _neighbor_sum(weights, nbrs, own) / scale[:, None]
    out[~row_ok] = 0.0
    return out, row_ok


def _neighbor_sum(weights: np.ndarray, nbrs: np.ndarray, own: np.ndarray) -> np.ndarray:
    """sum_j weights[r, j] * own[nbrs[r, j]] for each row r, as one sparse
    product.

    scipy adds each row's stored entries in order onto zero, so every row is
    the sum 0 + w0 x0 + w1 x1 + ... in neighbor order, zero weights included:
    the bytes of a reduction over the (R, kk, 33) gather, without it.
    """
    r, kk = nbrs.shape
    matrix = csr_matrix((weights.ravel(), nbrs.ravel(), np.arange(r + 1) * kk), shape=(r, len(own)))
    return matrix @ own


def _fpfh_valid(
    points: np.ndarray, normals: np.ndarray, k: int, valid_normals: np.ndarray, neighbors: np.ndarray
) -> np.ndarray:
    """fpfh's valid flags for every point, without the histograms;
    `neighbors` is fpfh's table.

    A point is valid when its normal is and at least one of its pairs is.
    The pairs are tried one neighbor column at a time over the points not
    yet settled; for nearly every point the first neighbor settles it.
    """
    n = points.shape[0]
    columns = np.ascontiguousarray(points.T)
    normal_columns = np.ascontiguousarray(normals.T)
    valid = np.zeros(n, dtype=bool)
    past_self = np.zeros(n, dtype=bool)
    todo = np.flatnonzero(valid_normals)
    for j in range(min(k, n - 1)):
        if todo.size == 0:
            break
        # column j of _without_self, for the points still open
        past_self[todo] |= neighbors[todo, j] == todo
        t = neighbors[todo, j + past_self[todo]]
        ok = _pair_angles(
            pc.take_columns(columns, todo), pc.take_columns(normal_columns, todo),
            pc.take_columns(columns, t), pc.take_columns(normal_columns, t),
        )[3] & valid_normals[t]
        valid[todo[ok]] = True
        todo = todo[~ok]
    return valid


def assemble_features(hsv_arr: np.ndarray, fpfh_arr: np.ndarray) -> np.ndarray:
    """(N, 3) [h_deg, s, v] + (N, 33) histograms -> (N, 36) descriptors."""
    hsv_arr = np.asarray(hsv_arr, dtype=np.float64)
    out = np.empty((len(hsv_arr), FEATURE_DIM))
    out[:, 0] = hsv_arr[:, 0] / 360.0
    out[:, 1:3] = hsv_arr[:, 1:3]
    out[:, 3:] = fpfh_arr
    return out


def neighbor_tables(cloud: pc.PointCloud, normal_k: int, fpfh_k: int) -> tuple[np.ndarray, np.ndarray]:
    """(normal table, fpfh table) for point_features from one kd-tree and
    one query.

    They are knn_batch(points, points, normal_k) and knn_batch(points,
    points, min(fpfh_k + 1, N)): both are prefixes of the query at the
    larger width, since knn_batch keeps the (squared distance, index)
    order.
    """
    fpfh_width = min(fpfh_k + 1, len(cloud))
    table = pc.knn_batch(cloud.points, cloud.points, max(normal_k, fpfh_width))
    return table[:, :normal_k], table[:, :fpfh_width]


@dataclass(frozen=True)
class PointGeometry:
    """A cloud's normals and histogram neighbor table: everything
    point_features computes over every point before it forms a histogram.

    Normals face the camera origin. valid() and features(rows) split
    point_features in two, so a caller that keeps a few rows forms
    histograms only for those rows and their neighbors.
    """

    cloud: pc.PointCloud
    fpfh_k: int
    normals: np.ndarray
    normals_ok: np.ndarray
    neighbors: np.ndarray     # (N, min(fpfh_k + 1, N)) fpfh table

    @classmethod
    def of(cls, cloud: pc.PointCloud, normal_k: int, fpfh_k: int) -> "PointGeometry":
        """Normals and histogram neighbors from one neighbor query
        (neighbor_tables)."""
        if normal_k < 3:
            raise InvalidInput("normal estimation needs k >= 3")
        if len(cloud) < normal_k:
            raise InvalidInput(f"cloud of {len(cloud)} points cannot supply k={normal_k}")
        if fpfh_k < 2:
            raise InvalidInput("fpfh needs k >= 2")
        normal_nbrs, fpfh_nbrs = neighbor_tables(cloud, normal_k, fpfh_k)
        normals, normals_ok = pc.estimate_normals(cloud, normal_k, (0.0, 0.0, 0.0), normal_nbrs)
        return cls(cloud, fpfh_k, normals, normals_ok, fpfh_nbrs)

    def valid(self) -> np.ndarray:
        """point_features' valid flags for every point, without histograms."""
        return _fpfh_valid(self.cloud.points, self.normals, self.fpfh_k, self.normals_ok, self.neighbors)

    def features(self, rows: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(features (R, 36), valid (R,)) of the points `rows` (every point
        when None): those rows of point_features, byte for byte."""
        hists, valid = fpfh(self.cloud.points, self.normals, self.fpfh_k, self.normals_ok, self.neighbors, rows)
        colors = self.cloud.colors if rows is None else self.cloud.colors[rows]
        return assemble_features(rgb_to_hsv_array(colors), hists), valid


def point_features(cloud: pc.PointCloud, normal_k: int = 30, fpfh_k: int = 30):
    """(features (N, 36), valid (N,)) for every point of a cloud.

    valid flags points with a usable normal and histogram. Normals and
    histograms share one neighbor query (PointGeometry).
    """
    return PointGeometry.of(cloud, normal_k, fpfh_k).features()


def save_features(path, features: np.ndarray, labels: np.ndarray) -> None:
    """ASCII dump: `features v1 <count> 36`, then 36 decimals + label per line."""
    features = np.asarray(features, dtype=np.float64)
    write_rows(path, f"features v1 {len(features)} {FEATURE_DIM}", features, np.asarray(labels)[:, None])


def load_features(path) -> tuple[np.ndarray, np.ndarray]:
    """Read the dump written by save_features.

    Raises FormatError on a bad header or feature line, a non-numeric or
    non-finite value, a row count the file cannot hold, or data after the
    last row.
    """
    with open_text(path) as fh:
        header = fh.readline().split()
        if len(header) != 4 or header[0] != "features" or header[1] != "v1":
            raise FormatError(f"{path}: not a features v1 file")
        try:
            count, dim = int(header[2]), int(header[3])
        except ValueError as exc:
            raise FormatError(f"{path}: bad row count or dimension") from exc
        if dim != FEATURE_DIM:
            raise FormatError(f"{path}: expected {FEATURE_DIM} dims, found {dim}")
        feats, labels = read_rows(fh, path, count, dim, 1, "feature")
    bad = ~np.isfinite(feats).all(axis=1)
    if bad.any():
        raise FormatError(f"{path}: non-finite value on feature line {np.argmax(bad) + 1}")
    return feats, labels[:, 0]
