"""Point-cloud container, spatial queries, normal estimation and clustering.

Clouds are immutable numpy snapshots. radius_pairs and largest_clusters
are exact: identical to a brute-force scan, ties broken by ascending point
index; largest_clusters takes any number of kept sets over one edge list
in one connected_components call. connecting_pairs is a sparse edge list
with the connected components of radius_pairs': enough for a kept set that
keeps every node, not for one that drops nodes.
knn_batch(points, queries, k) is exact as well: each row holds the k
points with the smallest (exact squared distance, index), in that order,
so a table is the prefix of any wider one. Each call builds one kd-tree
over the points and queries it at k + 1 + k // 4; a row is kept once its
last squared distance clears the k-th by more than _SLACK, so no point the
tree left out can tie into it, and the other rows are queried again at
twice the width. Rows the kd-tree returns with exact squared
distances already nondecreasing (99.8% of a full C6 cloud's rows) take one
sort of (run of equal distances, index) keys; the others one lexsort.
Point geometry works on (3, M) coordinate columns (take_columns,
column_dot, column_norm) with the floating-point operations, in the order,
of numpy's row reductions over (M, 3), so every value keeps its bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from ._textio import write_rows
from .errors import InvalidInput

LABEL_UNLABELED = 0
LABEL_PEDUNCLE = 1
LABEL_PEPPER = 2
LABEL_BACKGROUND = 3
LABEL_NAMES = {
    LABEL_UNLABELED: "unlabeled",
    LABEL_PEDUNCLE: "peduncle",
    LABEL_PEPPER: "pepper",
    LABEL_BACKGROUND: "background",
}

# Candidate lookups are inflated by this relative slack, then filtered with
# the same squared-distance arithmetic the brute-force oracle uses, so
# boundary points can never be missed to kd-tree internal rounding.
_SLACK = 1e-9

# Nearest neighbours each point links to in connecting_pairs before the
# range search: enough that a C6 pepper cloud's graph falls into a few
# large components, few enough to leave it sparse.
_LINK_NEIGHBORS = 3

# Row x edge entries one largest_clusters graph call covers: a long threshold
# grid over a dense box is split into several calls rather than holding a
# copy of a large edge list for every row at once.
_BLOCK_EDGES = 1 << 18


@dataclass
class PointCloud:
    """XYZ points in meters, parallel RGB colors and optional labels."""

    points: np.ndarray                 # (N, 3) float64, meters
    colors: np.ndarray | None = None   # (N, 3) uint8
    labels: np.ndarray | None = None   # (N,) uint8, see LABEL_* constants

    def __post_init__(self):
        self.points = np.ascontiguousarray(self.points, dtype=np.float64)
        if self.points.ndim != 2 or self.points.shape[1] != 3:
            raise InvalidInput(f"points must be (N, 3), got {self.points.shape}")
        if not np.all(np.isfinite(self.points)):
            raise InvalidInput("point coordinates must be finite")
        n = self.points.shape[0]
        if self.colors is None:
            self.colors = np.zeros((n, 3), dtype=np.uint8)
        else:
            self.colors = np.ascontiguousarray(self.colors, dtype=np.uint8)
            if self.colors.shape != (n, 3):
                raise InvalidInput(f"colors must be ({n}, 3), got {self.colors.shape}")
        if self.labels is not None:
            self.labels = np.ascontiguousarray(self.labels, dtype=np.uint8)
            if self.labels.shape != (n,):
                raise InvalidInput(f"labels must be ({n},), got {self.labels.shape}")

    def __len__(self) -> int:
        return self.points.shape[0]

    def subset(self, indices: np.ndarray) -> "PointCloud":
        """New cloud holding only the given point rows."""
        idx = np.asarray(indices, dtype=np.intp)
        return PointCloud(
            self.points[idx],
            self.colors[idx],
            None if self.labels is None else self.labels[idx],
        )


@dataclass(frozen=True)
class BoundingBox3:
    """Axis-aligned box; min <= max componentwise."""

    min: np.ndarray
    max: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "min", np.asarray(self.min, dtype=np.float64))
        object.__setattr__(self, "max", np.asarray(self.max, dtype=np.float64))
        if np.any(self.min > self.max):
            raise InvalidInput("box min must not exceed max")

    @property
    def extents(self) -> np.ndarray:
        return self.max - self.min

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.min + self.max)

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Boolean inclusion mask (boundary counts as inside)."""
        p = np.atleast_2d(np.asarray(points, dtype=np.float64))
        return np.all((p >= self.min) & (p <= self.max), axis=1)


def take_columns(columns: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """(3, *idx.shape) coordinates of the points idx, from (3, N)
    coordinate columns, one contiguous take per coordinate."""
    out = np.empty((len(columns),) + np.shape(idx))
    for column, dst in zip(columns, out):
        column.take(idx, out=dst)
    return out


def column_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of (3, ...) coordinate columns, the same bytes as
    np.einsum("ij,ij->i") (and "mkj,mkj->mk") over the rows.

    numpy 2.4's einsum adds a three-term row as ((0 + x0 y0) + x2 y2) +
    x1 y1, from its SIMD lane layout; the leading 0.0 turns a sum of three
    -0.0 products into +0.0. A numpy that changes that order fails
    tests/test_cloud.py::TestColumnKernels before any digest moves.
    """
    return ((0.0 + a[0] * b[0]) + a[2] * b[2]) + a[1] * b[1]


def column_norm(a: np.ndarray) -> np.ndarray:
    """Euclidean lengths of (3, ...) coordinate columns, the same bytes as
    np.linalg.norm(axis=-1) over the rows: sqrt((x^2 + y^2) + z^2)."""
    return np.sqrt((a[0] * a[0] + a[1] * a[1]) + a[2] * a[2])


def knn_batch(points: np.ndarray, queries: np.ndarray, k: int) -> np.ndarray:
    """(M, k) indices into the (N, 3) points of the nearest neighbors of M
    query points at once.

    Each row holds the k points with the smallest (exact squared distance,
    index), in that order, so knn_batch(k) is the first k columns of
    knn_batch(k') for every k' >= k.

    Raises InvalidInput for an empty cloud and unless the queries are
    (M, 3) and finite.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    n = len(points)
    if n == 0:
        raise InvalidInput("cannot index an empty cloud")
    queries = np.ascontiguousarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] != 3:
        raise InvalidInput(f"queries must be (M, 3), got {queries.shape}")
    if not np.all(np.isfinite(queries)):
        raise InvalidInput("query coordinates must be finite")
    if k < 1:
        raise InvalidInput("k must be >= 1")
    if k > n:
        raise InvalidInput(f"k={k} exceeds cloud size {n}")
    tree = cKDTree(points)
    columns = np.ascontiguousarray(points.T)
    out = np.empty((len(queries), k), dtype=np.intp)
    rows = np.arange(len(queries))
    width = min(k + 1 + k // 4, n)
    while rows.size:
        idx, d2 = _sorted_query(tree, columns, queries[rows], width)
        # every point the tree left out is at least as far as the row's last
        settled = (width == n) | (d2[:, -1] > d2[:, k - 1] * (1.0 + _SLACK) ** 2)
        out[rows[settled]] = idx[settled, :k]
        rows = rows[~settled]
        width = min(2 * width, n)
    return out


def _sorted_query(tree: cKDTree, columns: np.ndarray, queries: np.ndarray, width: int):
    """The kd-tree's width nearest points of each query and their exact
    squared distances from the (3, N) coordinate columns, each row sorted
    by (squared distance, index)."""
    idx = tree.query(queries, k=width)[1].reshape(len(queries), width)
    # column_dot(diff, diff) one coordinate at a time, in its order, without
    # holding a (3, M, width) gather
    d2 = np.zeros(idx.shape)
    term = np.empty(idx.shape)
    for c in (0, 2, 1):
        columns[c].take(idx, out=term)
        term -= queries[:, c, None]
        term *= term
        d2 += term
    # Where the tree's order already leaves d2 nondecreasing, only the runs
    # of equal d2 need index order: one sort by run * size + index.
    key = np.zeros(idx.shape, dtype=np.int64)
    np.cumsum(d2[:, 1:] > d2[:, :-1], axis=1, out=key[:, 1:])
    key *= columns.shape[1]
    key += idx
    order = np.argsort(key, axis=1)
    rest = np.flatnonzero(~np.all(d2[:, 1:] >= d2[:, :-1], axis=1))
    order[rest] = np.lexsort((idx[rest], d2[rest]), axis=1)
    d2[rest] = np.take_along_axis(d2[rest], order[rest], axis=1)    # the others are in order
    return np.take_along_axis(idx, order, axis=1), d2


def estimate_normals(
    cloud: PointCloud, k: int, viewpoint, neighbors: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-point unit surface normals from k-neighborhood covariance.

    The normal is the eigenvector with the smallest eigenvalue, sign-flipped
    to face the viewpoint. Neighborhoods with rank < 2 covariance are
    flagged invalid (normal row zeroed) instead of fabricating a direction.
    `neighbors` is the (N, k) table knn_batch(cloud.points, cloud.points, k).

    Returns (normals (N, 3), valid (N,) bool).
    """
    if k < 3:
        raise InvalidInput("normal estimation needs k >= 3")
    if len(cloud) < k:
        raise InvalidInput(f"cloud of {len(cloud)} points cannot supply k={k}")
    viewpoint = np.asarray(viewpoint, dtype=np.float64).reshape(3)
    if neighbors.shape != (len(cloud), k):
        raise InvalidInput(f"neighbor table must be ({len(cloud)}, {k}), got {neighbors.shape}")
    # (k, N) tables of the neighbors' x, y and z, the point itself too. Sums
    # run over neighbor rows 0..k-1, the order of a mean and an
    # einsum("nki,nkj->nij") over an (N, k, 3) gather.
    n = len(cloud)
    columns = np.ascontiguousarray(cloud.points.T)
    rows = np.ascontiguousarray(neighbors.T)
    tables = [col.take(rows) for col in columns]
    for table in tables:
        mean = np.zeros(n)
        for row in table:
            mean += row
        mean /= k
        table -= mean
    cov = np.empty((n, 3, 3))
    prod = np.empty(n)
    for i in range(3):
        for j in range(i, 3):
            acc = np.zeros(n)
            for a, b in zip(tables[i], tables[j]):
                acc += np.multiply(a, b, out=prod)
            acc /= k
            cov[:, i, j] = acc
            cov[:, j, i] = acc
    evals, evecs = np.linalg.eigh(cov)              # ascending eigenvalues
    normals = evecs[:, :, 0]
    # rank >= 2 requires genuine spread along the two larger eigendirections
    valid = evals[:, 1] > (1e-9 * np.maximum(evals[:, 2], 0.0) + 1e-18)
    to_view = viewpoint[None, :] - cloud.points
    flip = np.einsum("ni,ni->n", normals, to_view) < 0.0
    normals[flip] = -normals[flip]
    norms = np.linalg.norm(normals, axis=1)
    normals = normals / np.where(norms > 0, norms, 1.0)[:, None]
    normals[~valid] = 0.0
    return normals, valid


def compute_bbox(cloud: PointCloud, subset=None) -> BoundingBox3:
    """Componentwise min/max box over a subset (default: whole cloud)."""
    pts = cloud.points if subset is None else cloud.points[np.asarray(subset, dtype=np.intp)]
    if pts.shape[0] == 0:
        raise InvalidInput("bounding box of an empty subset")
    return BoundingBox3(pts.min(axis=0), pts.max(axis=0))


def _within(points: np.ndarray, pairs: np.ndarray, tol: float) -> np.ndarray:
    """The (E, 2) row pairs whose squared distance is at most tol**2: the
    exact test that decides every pair a kd-tree proposes at the inflated
    radius tol * (1 + _SLACK)."""
    d = points.take(pairs[:, 0], axis=0)
    d -= points.take(pairs[:, 1], axis=0)
    return pairs[np.einsum("ij,ij->i", d, d) <= tol * tol].astype(np.intp, copy=False)


def radius_pairs(points: np.ndarray, tol: float) -> np.ndarray:
    """(E, 2) row pairs i < j whose squared distance is at most tol**2.

    The edge list of the <=tol adjacency graph: the kd-tree proposes pairs
    within a slightly inflated radius and the exact squared-distance test
    decides, so the result equals a brute-force scan.
    """
    if not tol > 0:
        raise InvalidInput("cluster tolerance must be positive")
    points = np.ascontiguousarray(points, dtype=np.float64)
    return _within(points, cKDTree(points).query_pairs(tol * (1.0 + _SLACK), output_type="ndarray"), tol)


def connecting_pairs(points: np.ndarray, tol: float) -> np.ndarray:
    """(E, 2) row pairs i != j, each within tol (radius_pairs' exact test),
    whose graph has the connected components of radius_pairs(points, tol).

    A sparse edge list for a graph whose every node is kept: each point's
    _LINK_NEIGHBORS nearest neighbours within tol give a graph H, and every
    point outside H's largest component is range-searched against the whole
    cloud. A <=tol pair joining two components of H has an end outside the
    largest one, so the search finds it. Pairs may repeat, in either order.
    """
    if not tol > 0:
        raise InvalidInput("cluster tolerance must be positive")
    points = np.ascontiguousarray(points, dtype=np.float64)
    n = len(points)
    if n < 2:
        return np.zeros((0, 2), dtype=np.intp)
    reach = tol * (1.0 + _SLACK)
    tree = cKDTree(points)
    k = min(_LINK_NEIGHBORS + 1, n)
    near = tree.query(points, k=k, distance_upper_bound=reach)[1]
    rows = np.broadcast_to(np.arange(n)[:, None], (n, k))
    linked = (near < n) & (near != rows)           # misses come back as n
    h = _within(points, np.column_stack([rows[linked], near[linked]]), tol)
    labels = connected_components(
        coo_matrix((np.ones(len(h)), (h[:, 0], h[:, 1])), shape=(n, n)), directed=False
    )[1]
    outside = np.flatnonzero(labels != np.argmax(np.bincount(labels)))
    if outside.size == 0:
        return h
    found = cKDTree(points[outside]).sparse_distance_matrix(tree, reach, output_type="ndarray")
    reached = np.column_stack([outside[found["i"]], found["j"]])
    return np.concatenate([h, _within(points, reached[reached[:, 0] != reached[:, 1]], tol)])


def largest_clusters(
    pairs: np.ndarray, kept: np.ndarray, min_size: int, max_size: int
) -> list[np.ndarray | None]:
    """For each row of the (K, n) bool matrix `kept`: the ascending nodes of
    the largest connected component with a size in [min_size, max_size] of
    the graph of the row's kept nodes and the edges `pairs` between two of
    them, ties to the component with the smallest member node; None when no
    size fits. Nodes the row does not keep are never members.

    Over points[rows] with pairs = radius_pairs(points[rows], tol) and
    ascending rows, rows[result[k]] is the largest Euclidean cluster of the
    points row k keeps, ties to the one holding the smallest point index.
    A row that keeps every node depends only on the components of `pairs`,
    so connecting_pairs(points[rows], tol) gives it the same cluster.

    The rows are one block-diagonal graph, copy k of the n nodes holding the
    edges with both ends kept in row k, labelled by one connected_components
    call; rows split over several calls where rows x edges would exceed
    _BLOCK_EDGES. A block that keeps every node takes `pairs` without a
    gather.
    """
    if min_size < 1:
        raise InvalidInput("min_size must be >= 1")
    if min_size > max_size:
        raise InvalidInput("min_size must not exceed max_size")
    kept = np.asarray(kept, dtype=bool)
    if kept.ndim != 2:
        raise InvalidInput(f"kept must be (K, n), got shape {kept.shape}")
    n = kept.shape[1]
    clusters = []
    step = max(1, _BLOCK_EDGES // max(len(pairs), 1))
    for start in range(0, len(kept), step):
        block = kept[start : start + step]
        k = len(block)
        flat = np.flatnonzero(block)              # kept (row, node) pairs, ascending
        if flat.size == 0:
            clusters += [None] * k
            continue
        if flat.size == block.size:
            ends = (pairs.T[:, None, :] + n * np.arange(k)[:, None]).reshape(2, -1)
        else:
            copy, edge = np.nonzero(block[:, pairs[:, 0]] & block[:, pairs[:, 1]])
            ends = pairs[edge].T + n * copy
        graph = coo_matrix((np.ones(ends.shape[1]), (ends[0], ends[1])), shape=(k * n, k * n))
        labels = connected_components(graph, directed=False)[1][flat]
        row, node = np.divmod(flat, n)
        comps, first, sizes = np.unique(labels, return_index=True, return_counts=True)
        comp_row, comp_node = row[first], node[first]    # node: the smallest member
        fits = np.flatnonzero((sizes >= min_size) & (sizes <= max_size))
        order = fits[np.lexsort((comp_node[fits], -sizes[fits], comp_row[fits]))]
        lead = order[np.unique(comp_row[order], return_index=True)[1]]   # each row's best
        best = np.full(k, -1)
        best[comp_row[lead]] = comps[lead]
        members = labels == best[row]
        counts = np.bincount(row[members], minlength=k)
        parts = np.split(node[members], np.cumsum(counts)[:-1])
        clusters += [part if count else None for part, count in zip(parts, counts)]
    return clusters


def save_cloud(path, cloud: PointCloud) -> None:
    """Write the ASCII cloud format: header then `x y z r g b [label]` lines."""
    has_labels = 1 if cloud.labels is not None else 0
    ints = cloud.colors if cloud.labels is None else np.column_stack([cloud.colors, cloud.labels])
    write_rows(path, f"pcloud v1 {len(cloud)} {has_labels}", cloud.points, ints)
