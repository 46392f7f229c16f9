"""Deployed detection flow: one locate step (pepper, 3D box, region of
interest), depth projection, five-step 3D filtering, cutting-pose estimation.

One FilterParams carries every setting of the flow: the pepper's colour
threshold and cluster, the 3D box above it, the world-up axis and the
peduncle's score threshold and cluster. A run is a pure function of
(frame, models, FilterParams): identical inputs give bit-identical
clusters, and independent frames may be processed concurrently.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields

import numpy as np

from . import classifiers as cls
from . import cloud as pc
from . import features as ft
from . import minicnn as mc
from .errors import InvalidInput, NoPeduncleFound


def _require_finite_fields(params) -> None:
    """InvalidInput unless every number field of a parameter dataclass is
    finite (a NaN limit fails every comparison, so it would pass as a
    silent miss)."""
    for field in fields(params):
        value = getattr(params, field.name)
        if isinstance(value, numbers.Real) and not np.isfinite(value):
            raise InvalidInput(f"{field.name} must be finite, got {value!r}")


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole model; depth_scale converts stored depth units to meters."""

    fx: float
    fy: float
    cx: float
    cy: float
    depth_scale: float = 0.001

    def __post_init__(self):
        _require_finite_fields(self)
        if self.fx <= 0 or self.fy <= 0 or self.depth_scale <= 0:
            raise InvalidInput("fx, fy and depth_scale must be positive")


@dataclass(frozen=True)
class Roi2:
    """Half-open pixel rectangle [x_min, x_max) x [y_min, y_max), y grows down."""

    x_min: int
    y_min: int
    x_max: int
    y_max: int

    def __post_init__(self):
        if self.x_min >= self.x_max or self.y_min >= self.y_max:
            raise InvalidInput("roi min must be strictly below max")

    @property
    def height(self) -> int:
        return self.y_max - self.y_min


@dataclass(frozen=True)
class PeduncleBoxParams:
    """Vertical offset (meters) around the pepper top; 50 mm is the average
    peduncle length for the target varieties."""

    h_offset: float = 0.05
    symmetric: bool = True    # False: span [top, top + h_offset] only

    def __post_init__(self):
        _require_finite_fields(self)
        if self.h_offset <= 0:
            raise InvalidInput("h_offset must be positive")


UP_DEFAULT = (1, -1)        # camera -y: image-up for an upright eye-in-hand camera
_UP_AXES = [(axis, sign) for axis in range(3) for sign in (1, -1)]


@dataclass(frozen=True)
class FilterParams:
    """The detection flow's settings. The pepper is the largest cluster,
    at pepper_cluster_tol and of at least pepper_min_points (a real fruit
    is thousands of points; the limit rejects colour speckle), of the
    points whose pepper posterior reaches pepper_posterior_threshold; filter
    step 3 drops the points of that one cut (_pepper_colored). `box` and
    `up` (axis, sign) place the 3D box above it (step 4); the rest are the
    peduncle's score threshold (step 1) and cluster (step 5)."""

    score_threshold: float = 0.5
    pepper_posterior_threshold: float = 0.5
    cluster_tol: float = 0.003
    min_cluster: int = 5
    max_cluster: int = 25000
    pepper_cluster_tol: float = 0.01
    pepper_min_points: int = 25
    box: PeduncleBoxParams = PeduncleBoxParams()
    up: tuple[int, int] = UP_DEFAULT

    def __post_init__(self):
        _require_finite_fields(self)
        if self.up not in _UP_AXES:
            raise InvalidInput(f"up must be (axis 0-2, sign +-1), got {self.up!r}")


@dataclass(frozen=True)
class CuttingPose:
    position: np.ndarray
    approach_axis: np.ndarray


@dataclass
class ScoredCloud:
    """3D points carrying classifier scores (and pixel provenance if known)."""

    cloud: pc.PointCloud
    scores: np.ndarray
    pixels: np.ndarray | None = None     # (N, 2) int (v, u)

    def __len__(self) -> int:
        return len(self.cloud)


@dataclass
class FilterResult:
    cluster: np.ndarray                      # indices into the scored cloud
    survivors: list                          # (step, name, count) tuples


@dataclass
class Frame:
    """One registered RGB-D capture plus its unprojected cloud."""

    rgb: np.ndarray                 # (H, W, 3) uint8
    depth_raw: np.ndarray           # (H, W) uint16
    intr: CameraIntrinsics
    cloud: pc.PointCloud            # valid-depth pixels, row-major order
    pixels: np.ndarray              # (N, 2) int (v, u) per cloud row

    @classmethod
    def from_rasters(cls, rgb, depth_raw, intr, labels=None) -> "Frame":
        """Raises InvalidInput unless rgb is (H, W, 3) and labels, when
        given, (H, W) for the (H, W) depth raster."""
        rgb, depth_raw = np.asarray(rgb), np.asarray(depth_raw)
        if rgb.shape != depth_raw.shape + (3,):
            raise InvalidInput(f"rgb must be {depth_raw.shape + (3,)} to match depth, got {rgb.shape}")
        if labels is not None and np.shape(labels) != depth_raw.shape:
            raise InvalidInput(f"labels must be {depth_raw.shape} to match depth, got {np.shape(labels)}")
        cloud, pixels = unproject_depth(depth_raw, intr, rgb, labels)
        return cls(rgb, depth_raw, intr, cloud, pixels)


def parse_up_axis(text: str) -> tuple[int, int]:
    """'-y' -> (axis 1, sign -1): the world-up direction in camera coordinates."""
    t = text.strip().lower()
    sign = -1 if t.startswith("-") else 1
    name = t.lstrip("+-")
    if name not in ("x", "y", "z"):
        raise InvalidInput(f"bad up axis {text!r}")
    return "xyz".index(name), sign


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------


def unproject_depth(depth_raw, intr: CameraIntrinsics, rgb=None, labels=None):
    """Full-frame pinhole unprojection of valid (> 0) depth pixels.

    Returns (cloud, pixels (N, 2) as (v, u)), both in row-major pixel order.
    """
    depth_raw = np.asarray(depth_raw)
    v, u = np.nonzero(depth_raw > 0)
    z = depth_raw[v, u].astype(np.float64) * intr.depth_scale
    x = (u.astype(np.float64) - intr.cx) * z / intr.fx
    y = (v.astype(np.float64) - intr.cy) * z / intr.fy
    colors = None if rgb is None else np.asarray(rgb)[v, u]
    labs = None if labels is None else np.asarray(labels)[v, u]
    cloud = pc.PointCloud(np.column_stack([x, y, z]), colors, labs)
    return cloud, np.column_stack([v, u]).astype(np.intp)


def pixel_bbox(pixels: np.ndarray) -> Roi2:
    """Tight half-open 2D box around (v, u) pixel coordinates."""
    px = np.asarray(pixels)
    if len(px) == 0:
        raise InvalidInput("no pixels to bound")
    return Roi2(
        int(px[:, 1].min()),
        int(px[:, 0].min()),
        int(px[:, 1].max()) + 1,
        int(px[:, 0].max()) + 1,
    )


def compute_roi(pepper_box: Roi2, image_w: int, image_h: int) -> Roi2:
    """Same-size window shifted up (decreasing y) by half the pepper height,
    clipped to the image. Raises NoPeduncleFound (reason RoiOutOfImage) when
    clipping empties it."""
    shift = pepper_box.height // 2
    x_min = max(pepper_box.x_min, 0)
    x_max = min(pepper_box.x_max, image_w)
    y_min = max(pepper_box.y_min - shift, 0)
    y_max = min(pepper_box.y_max - shift, image_h)
    if x_min >= x_max or y_min >= y_max:
        raise NoPeduncleFound("RoiOutOfImage", "region of interest clipped away entirely")
    return Roi2(x_min, y_min, x_max, y_max)


def peduncle_bbox3(
    pepper_box: pc.BoundingBox3,
    params: PeduncleBoxParams = PeduncleBoxParams(),
    up: tuple[int, int] = UP_DEFAULT,
) -> pc.BoundingBox3:
    """3D search box above a detected pepper.

    Both horizontal extents equal max(width, length) of the pepper box
    (depth is seen from one side only, so the larger measure bounds the
    fruit), centered on the pepper's horizontal center. The vertical span
    covers h_offset on both sides of the pepper top (or above only, when
    params.symmetric is false).
    """
    axis, sign = up
    horiz = [a for a in range(3) if a != axis]
    ext = pepper_box.extents
    half = max(ext[horiz[0]], ext[horiz[1]]) / 2.0
    center = pepper_box.center
    lo = np.empty(3)
    hi = np.empty(3)
    for a in horiz:
        lo[a] = center[a] - half
        hi[a] = center[a] + half
    top = pepper_box.max[axis] if sign > 0 else pepper_box.min[axis]
    if params.symmetric:
        lo_v, hi_v = top - params.h_offset, top + params.h_offset
    elif sign > 0:
        lo_v, hi_v = top, top + params.h_offset
    else:
        lo_v, hi_v = top - params.h_offset, top
    lo[axis], hi[axis] = min(lo_v, hi_v), max(lo_v, hi_v)
    return pc.BoundingBox3(lo, hi)


# ---------------------------------------------------------------------------
# detection stages
# ---------------------------------------------------------------------------


def _pepper_colored(nb: cls.NaiveBayesHsv, colors: np.ndarray, fp: FilterParams) -> np.ndarray:
    """Whether each colour's pepper posterior reaches the threshold: the
    locate step keeps these points and filter step 3 drops them."""
    return cls.nb_posterior(nb, ft.rgb_to_hsv_array(colors)) >= fp.pepper_posterior_threshold


def detect_pepper(
    cloud: pc.PointCloud, nb: cls.NaiveBayesHsv, fp: FilterParams = FilterParams()
) -> tuple[np.ndarray, pc.BoundingBox3]:
    """Pepper points: _pepper_colored's cut, then the largest Euclidean
    cluster at fp.pepper_cluster_tol of at least fp.pepper_min_points.
    Every candidate is kept, so the graph is cloud.connecting_pairs, which
    has the components of every pair within the tolerance.

    Raises NoPeduncleFound (reason NoPepperFound) when the cloud is empty
    (a frame with no valid depth), no point clears the threshold or no
    cluster survives.
    """
    if len(cloud) == 0:
        raise NoPeduncleFound("NoPepperFound", "empty cloud")
    candidates = np.flatnonzero(_pepper_colored(nb, cloud.colors, fp))
    if candidates.size == 0:
        raise NoPeduncleFound("NoPepperFound", "no point above the pepper posterior threshold")
    best = None
    if candidates.size >= fp.pepper_min_points:
        (best,) = pc.largest_clusters(
            pc.connecting_pairs(cloud.points[candidates], fp.pepper_cluster_tol),
            np.ones((1, candidates.size), dtype=bool),
            fp.pepper_min_points,
            len(cloud),
        )
    if best is None:
        raise NoPeduncleFound("NoPepperFound", "no pepper cluster above the minimum size")
    pepper = candidates[best]
    return pepper, pc.compute_bbox(cloud, pepper)


def locate_pepper(
    frame: Frame, nb: cls.NaiveBayesHsv, fp: FilterParams = FilterParams()
) -> tuple[np.ndarray, pc.BoundingBox3, Roi2]:
    """(pepper rows of frame.cloud, their 3D box, the region of interest
    above their pixel box). Raises NoPeduncleFound from either step."""
    rows, box = detect_pepper(frame.cloud, nb, fp)
    return rows, box, compute_roi(pixel_bbox(frame.pixels[rows]), *frame.depth_raw.shape[::-1])


def require_finite_scores(scores: np.ndarray) -> None:
    """Raise InvalidInput unless every score is finite (NaN fails every
    threshold comparison, so it would pass as a silent miss)."""
    if not np.all(np.isfinite(scores)):
        raise InvalidInput("non-finite detector score")


def threshold_clusters(
    scored: ScoredCloud, pepper_box: pc.BoundingBox3, nb: cls.NaiveBayesHsv, thresholds,
    fp: FilterParams = FilterParams(),
) -> tuple[tuple[np.ndarray, np.ndarray], list, list[int]]:
    """Filtering steps 3-5 at every threshold in `thresholds`.

    Returns (masks, clusters, which). The masks, steps 3 and 4, do not
    depend on the threshold: not pepper-colored (outside _pepper_colored,
    the locate step's cut) and inside the 3D
    peduncle box above `pepper_box`. The cluster at threshold t is the
    largest Euclidean cluster within the size limits of the points passing both
    and scoring at least t (ascending indices into the scored cloud), or
    None; `clusters` lists the distinct ones in threshold order and
    which[k] is threshold k's.

    The <=cluster_tol graph is built once, over the points passing both
    masks and scoring at least the lowest threshold; t keeps the nodes
    scoring at least t and the edges between them. Kept sets are nested,
    so an unchanged kept count means an unchanged cluster: each change of
    the count, in threshold order, adds one kept set, and one
    cloud.largest_clusters call clusters them all. InvalidInput on a
    non-finite score.
    """
    require_finite_scores(scored.scores)
    if len(scored) == 0:
        raise InvalidInput("empty scored cloud")
    not_pepper = ~_pepper_colored(nb, scored.cloud.colors, fp)
    in_box = peduncle_bbox3(pepper_box, fp.box, fp.up).contains(scored.cloud.points)
    thresholds = np.asarray(thresholds, dtype=np.float64)
    nodes = np.flatnonzero(not_pepper & in_box & (scored.scores >= thresholds.min(initial=np.inf)))
    pairs = pc.radius_pairs(scored.cloud.points[nodes], fp.cluster_tol)
    keep = scored.scores[nodes] >= thresholds[:, None]
    changed = np.diff(keep.sum(axis=1), prepend=-1) != 0
    found = pc.largest_clusters(pairs, keep[changed], fp.min_cluster, fp.max_cluster)
    clusters = [None if best is None else nodes[best] for best in found]
    which = (np.cumsum(changed) - 1).tolist()
    return (not_pepper, in_box), clusters, which


def filter_detections(
    scored: ScoredCloud, pepper_box: pc.BoundingBox3, nb: cls.NaiveBayesHsv, fp: FilterParams = FilterParams()
) -> FilterResult:
    """Apply the five filtering steps to a scored cloud.

    1. drop scores below the threshold, 2. points are already in 3D
    (projection precedes this call), 3. drop pepper-colored points by
    posterior, 4. drop points outside the peduncle box above pepper_box,
    5. Euclidean clustering, keeping the largest cluster (steps 3-5 are
    threshold_clusters at the one threshold). Raises NoPeduncleFound when
    no cluster survives the size limits, InvalidInput on a non-finite score.
    """
    (not_pepper, in_box), (cluster,), _ = threshold_clusters(scored, pepper_box, nb, [fp.score_threshold], fp)
    scoring = scored.scores >= fp.score_threshold
    survivors = [(1, "score_threshold", int(scoring.sum())), (2, "project_to_3d", int(scoring.sum())),
                 (3, "hsv_pepper_removal", int((scoring & not_pepper).sum())),
                 (4, "bbox3", int((scoring & not_pepper & in_box).sum())),
                 (5, "largest_cluster", 0 if cluster is None else int(cluster.size))]
    if cluster is None:
        raise NoPeduncleFound("NoPeduncleFound", "no cluster survived the size limits", survivors)
    return FilterResult(cluster, survivors)


def cutting_pose(points: np.ndarray, up: tuple[int, int] = UP_DEFAULT) -> CuttingPose:
    """Centroid of the peduncle cluster plus a horizontal approach axis.

    The axis is the horizontal projection of the direction from the camera
    (the cloud's origin) to the centroid; when that projection vanishes
    (target straight above or below the camera) the camera forward axis,
    +z, is used instead.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or len(points) == 0:
        raise InvalidInput("empty cluster")
    position = points.mean(axis=0)
    direction = position.copy()
    direction[up[0]] = 0.0
    norm = np.linalg.norm(direction)
    axis = np.array([0.0, 0.0, 1.0]) if norm < 1e-9 else direction / norm
    return CuttingPose(position, axis)


def format_diagnostics(survivors) -> str:
    """ASCII per-step report: one `step,name,survivors` line per step."""
    return "".join(f"{step},{name},{count}\n" for step, name, count in survivors)


# ---------------------------------------------------------------------------
# detectors
# ---------------------------------------------------------------------------


def margin_to_score(margin: np.ndarray) -> np.ndarray:
    """Squash SVM margins through a fixed logistic map onto (0, 1).

    Purely monotone rescaling so both detectors share the [0, 1] threshold
    grid; no calibration is fitted. Below a margin of about -709 the
    exponential overflows to inf and the score is +0.0.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-np.asarray(margin, dtype=np.float64)))


def roi_rows(frame: Frame, roi: Roi2) -> np.ndarray:
    """Ascending rows of frame.cloud whose pixel lies inside the region of
    interest: the points a detector scores."""
    v, u = frame.pixels[:, 0], frame.pixels[:, 1]
    return np.flatnonzero(
        (u >= roi.x_min) & (u < roi.x_max) & (v >= roi.y_min) & (v < roi.y_max)
    )


def scored_cloud(frame: Frame, rows: np.ndarray, scores: np.ndarray) -> ScoredCloud:
    """What every detector hands the filter: the scored rows of frame.cloud
    with their scores and pixels. Raises NoPeduncleFound (reason
    EmptyProjection) when no row is scored."""
    if len(rows) == 0:
        raise NoPeduncleFound("EmptyProjection", "no point inside the region of interest was scored")
    return ScoredCloud(frame.cloud.subset(rows), scores, frame.pixels[rows])


class PfhSvmDetector:
    """Per-point scorer: HSV + 33-bin geometry histogram into a kernel SVM."""

    name = "pfh-svm"

    def __init__(self, model: cls.SvmModel, normal_k: int = 30, fpfh_k: int = 30):
        self.model = model
        self.normal_k = normal_k
        self.fpfh_k = fpfh_k

    def score_frame(self, frame: Frame, roi: Roi2) -> ScoredCloud:
        """Score every ROI point; invalid-feature points score 0."""
        rows = roi_rows(frame, roi)
        scored = scored_cloud(frame, rows, np.zeros(len(rows)))
        if len(rows) > self.normal_k:
            feats, valid = ft.point_features(scored.cloud, self.normal_k, self.fpfh_k)
            if valid.any():
                scored.scores[valid] = margin_to_score(
                    cls.svm_score_batch(self.model, feats[valid])
                )
        return scored


class CnnDetector:
    """Strided patch scorer over the ROI-masked image.

    The strided score grid is filled back to per-pixel resolution (nearest
    scored center), and every ROI point whose pixel is then scored takes
    that pixel's score, so the 3D filtering stage sees the same dense clouds
    it would get from exhaustive per-pixel scoring.
    """

    name = "cnn"

    def __init__(self, net: mc.Network, stride: int = 4):
        self.stride = stride
        self._infer_net = net.cast(np.float32)

    def score_frame(self, frame: Frame, roi: Roi2) -> ScoredCloud:
        ph, pw = self._infer_net.input_hw
        sm = mc.score_map(frame.rgb, self._infer_net, self.stride, roi)
        sm = mc.densify_score_map(sm, ph, pw, self.stride)
        rows = roi_rows(frame, roi)
        v, u = frame.pixels[rows, 0], frame.pixels[rows, 1]
        scored = sm.mask[v, u]
        return scored_cloud(frame, rows[scored], sm.scores[v[scored], u[scored]])


@dataclass
class DetectionResult:
    pepper_indices: np.ndarray
    pepper_box: pc.BoundingBox3
    roi: Roi2
    scored: ScoredCloud
    filter_result: FilterResult
    pose: CuttingPose


def run_detection(
    frame: Frame, nb: cls.NaiveBayesHsv, detector, fp: FilterParams = FilterParams()
) -> DetectionResult:
    """Full single-frame flow: pepper, ROI, scoring, filtering, pose."""
    pepper_idx, pepper_box, roi = locate_pepper(frame, nb, fp)
    scored = detector.score_frame(frame, roi)
    result = filter_detections(scored, pepper_box, nb, fp)
    pose = cutting_pose(scored.cloud.points[result.cluster], fp.up)
    return DetectionResult(pepper_idx, pepper_box, roi, scored, result, pose)
