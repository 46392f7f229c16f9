"""Deployed detection flow: pepper localization, 2D region of interest,
depth projection, five-step 3D filtering, and cutting-pose estimation.

A run is a pure function of (frame, models, parameters): identical inputs
give bit-identical clusters, and independent frames may be processed
concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import classifiers as cls
from . import cloud as pc
from . import features as ft
from . import minicnn as mc
from .errors import (
    EmptyInput,
    EmptyProjection,
    InvalidInput,
    NoPeduncleFound,
    NoPepperFound,
    RoiOutOfImage,
)


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole model; depth_scale converts stored depth units to meters."""

    fx: float
    fy: float
    cx: float
    cy: float
    depth_scale: float = 0.001

    def __post_init__(self):
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
    def width(self) -> int:
        return self.x_max - self.x_min

    @property
    def height(self) -> int:
        return self.y_max - self.y_min

    @property
    def area(self) -> int:
        return self.width * self.height

    def contains(self, x, y) -> bool:
        return self.x_min <= x < self.x_max and self.y_min <= y < self.y_max


@dataclass(frozen=True)
class PeduncleBoxParams:
    """Vertical offset (meters) around the pepper top; 50 mm is the average
    peduncle length for the target varieties."""

    h_offset: float = 0.05
    symmetric: bool = True    # False: span [top, top + h_offset] only

    def __post_init__(self):
        if self.h_offset <= 0:
            raise InvalidInput("h_offset must be positive")


@dataclass(frozen=True)
class FilterParams:
    score_threshold: float = 0.5
    pepper_posterior_threshold: float = 0.5
    cluster_tol: float = 0.003
    min_cluster: int = 5
    max_cluster: int = 25000


@dataclass(frozen=True)
class PepperDetectParams:
    """A real fruit is thousands of points; min_points rejects color speckle."""

    posterior_threshold: float = 0.5
    cluster_tol: float = 0.01
    min_points: int = 25


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
    box: pc.BoundingBox3


@dataclass
class Frame:
    """One registered RGB-D capture plus its unprojected cloud."""

    rgb: np.ndarray                 # (H, W, 3) uint8
    depth_raw: np.ndarray           # (H, W) uint16
    intr: CameraIntrinsics
    cloud: pc.PointCloud            # valid-depth pixels, row-major order
    pixels: np.ndarray              # (N, 2) int (v, u) per cloud row
    pixel_rows: np.ndarray          # (H, W) int32 cloud row or -1

    @classmethod
    def from_rasters(cls, rgb, depth_raw, intr, labels=None) -> "Frame":
        cloud, pixels, pixel_rows = unproject_depth(depth_raw, intr, rgb, labels)
        return cls(rgb, depth_raw, intr, cloud, pixels, pixel_rows)


def parse_up_axis(text: str) -> tuple[int, int]:
    """'-y' -> (axis 1, sign -1): the world-up direction in camera coordinates."""
    t = text.strip().lower()
    sign = -1 if t.startswith("-") else 1
    name = t.lstrip("+-")
    if name not in ("x", "y", "z"):
        raise InvalidInput(f"bad up axis {text!r}")
    return "xyz".index(name), sign


UP_DEFAULT = (1, -1)        # camera -y: image-up for an upright eye-in-hand camera


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------


def unproject_depth(depth_raw, intr: CameraIntrinsics, rgb=None, labels=None):
    """Full-frame pinhole unprojection of valid (> 0) depth pixels.

    Returns (cloud, pixels (N, 2) as (v, u), pixel_rows (H, W) int32).
    """
    depth_raw = np.asarray(depth_raw)
    h, w = depth_raw.shape
    v, u = np.nonzero(depth_raw > 0)
    z = depth_raw[v, u].astype(np.float64) * intr.depth_scale
    x = (u.astype(np.float64) - intr.cx) * z / intr.fx
    y = (v.astype(np.float64) - intr.cy) * z / intr.fy
    colors = None if rgb is None else np.asarray(rgb)[v, u]
    labs = None if labels is None else np.asarray(labels)[v, u]
    cloud = pc.PointCloud(np.column_stack([x, y, z]), colors, labs)
    pixel_rows = np.full((h, w), -1, dtype=np.int32)
    pixel_rows[v, u] = np.arange(len(v), dtype=np.int32)
    return cloud, np.column_stack([v, u]).astype(np.intp), pixel_rows


def project_to_3d(
    score_map: mc.ScoreMap,
    depth_raw,
    intr: CameraIntrinsics,
    rgb=None,
    labels=None,
) -> ScoredCloud:
    """Lift scored pixels with valid depth into a scored point cloud.

    Zero-depth pixels are dropped; raises EmptyProjection when nothing
    survives.
    """
    depth_raw = np.asarray(depth_raw)
    v, u = np.nonzero(score_map.mask & (depth_raw > 0))
    if len(v) == 0:
        raise EmptyProjection("no scored pixel carries valid depth")
    z = depth_raw[v, u].astype(np.float64) * intr.depth_scale
    x = (u.astype(np.float64) - intr.cx) * z / intr.fx
    y = (v.astype(np.float64) - intr.cy) * z / intr.fy
    colors = None if rgb is None else np.asarray(rgb)[v, u]
    labs = None if labels is None else np.asarray(labels)[v, u]
    cloud = pc.PointCloud(np.column_stack([x, y, z]), colors, labs)
    return ScoredCloud(cloud, score_map.scores[v, u], np.column_stack([v, u]).astype(np.intp))


def reproject_to_pixels(points: np.ndarray, intr: CameraIntrinsics) -> np.ndarray:
    """(N, 3) camera-frame points -> (N, 2) float (u, v) pixel coordinates."""
    p = np.asarray(points, dtype=np.float64)
    u = p[:, 0] * intr.fx / p[:, 2] + intr.cx
    v = p[:, 1] * intr.fy / p[:, 2] + intr.cy
    return np.column_stack([u, v])


def pixel_bbox(pixels: np.ndarray) -> Roi2:
    """Tight half-open 2D box around (v, u) pixel coordinates."""
    px = np.asarray(pixels)
    if len(px) == 0:
        raise EmptyInput("no pixels to bound")
    return Roi2(
        int(px[:, 1].min()),
        int(px[:, 0].min()),
        int(px[:, 1].max()) + 1,
        int(px[:, 0].max()) + 1,
    )


def compute_roi(pepper_box: Roi2, image_w: int, image_h: int) -> Roi2:
    """Same-size window shifted up (decreasing y) by half the pepper height,
    clipped to the image. Raises RoiOutOfImage when clipping empties it."""
    shift = pepper_box.height // 2
    x_min = max(pepper_box.x_min, 0)
    x_max = min(pepper_box.x_max, image_w)
    y_min = max(pepper_box.y_min - shift, 0)
    y_max = min(pepper_box.y_max - shift, image_h)
    if x_min >= x_max or y_min >= y_max:
        raise RoiOutOfImage("region of interest clipped away entirely")
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


def detect_pepper(
    cloud: pc.PointCloud,
    nb: cls.NaiveBayesHsv,
    params: PepperDetectParams = PepperDetectParams(),
) -> tuple[np.ndarray, pc.BoundingBox3]:
    """Pepper points: posterior threshold, then the largest Euclidean cluster.

    Raises NoPepperFound when no point clears the threshold or no cluster
    survives.
    """
    if len(cloud) == 0:
        raise EmptyInput("empty cloud")
    hsv = ft.rgb_to_hsv_array(cloud.colors)
    post = cls.nb_posterior(nb, hsv)
    candidates = np.flatnonzero(post >= params.posterior_threshold)
    if candidates.size == 0:
        raise NoPepperFound("no point above the pepper posterior threshold")
    clusters = pc.euclidean_cluster(
        cloud, candidates, params.cluster_tol, params.min_points, len(cloud)
    )
    if not clusters:
        raise NoPepperFound("no pepper cluster above the minimum size")
    best = clusters[0].indices
    return best, pc.compute_bbox(cloud, best)


def require_finite_scores(scores: np.ndarray) -> None:
    """Raise InvalidInput unless every score is finite (NaN fails every
    threshold comparison, so it would pass as a silent miss)."""
    if not np.all(np.isfinite(scores)):
        raise InvalidInput("non-finite detector score")


def color_box_masks(
    scored: ScoredCloud,
    pepper_points: np.ndarray,
    nb: cls.NaiveBayesHsv,
    fp: FilterParams = FilterParams(),
    box_params: PeduncleBoxParams = PeduncleBoxParams(),
    up: tuple[int, int] = UP_DEFAULT,
    posterior: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, pc.BoundingBox3]:
    """The two filtering steps that do not depend on the score threshold.

    Returns (not pepper-colored, inside the 3D peduncle box, that box), the
    masks of steps 3 and 4 over every scored point.
    """
    if len(scored) == 0:
        raise EmptyInput("empty scored cloud")
    pepper_points = np.asarray(pepper_points, dtype=np.float64)
    if len(pepper_points) == 0:
        raise EmptyInput("empty pepper point set")
    if posterior is None:
        posterior = cls.nb_posterior(nb, ft.rgb_to_hsv_array(scored.cloud.colors))
    box = peduncle_bbox3(pc.compute_bbox(pc.PointCloud(pepper_points)), box_params, up)
    return posterior < fp.pepper_posterior_threshold, box.contains(scored.cloud.points), box


def filter_detections(
    scored: ScoredCloud,
    pepper_points: np.ndarray,
    nb: cls.NaiveBayesHsv,
    fp: FilterParams = FilterParams(),
    box_params: PeduncleBoxParams = PeduncleBoxParams(),
    up: tuple[int, int] = UP_DEFAULT,
    posterior: np.ndarray | None = None,
) -> FilterResult:
    """Apply the five filtering steps to a scored cloud.

    1. drop scores below the threshold, 2. points are already in 3D
    (projection precedes this call), 3. drop pepper-colored points by
    posterior, 4. drop points outside the 3D peduncle box, 5. Euclidean
    clustering, keeping the largest cluster. Raises NoPeduncleFound when no
    cluster survives the size limits, InvalidInput on a non-finite score.
    """
    require_finite_scores(scored.scores)
    not_pepper, in_box, box = color_box_masks(
        scored, pepper_points, nb, fp, box_params, up, posterior
    )
    keep = scored.scores >= fp.score_threshold
    survivors = [(1, "score_threshold", int(keep.sum()))]
    survivors.append((2, "project_to_3d", int(keep.sum())))
    keep &= not_pepper
    survivors.append((3, "hsv_pepper_removal", int(keep.sum())))
    keep &= in_box
    survivors.append((4, "bbox3", int(keep.sum())))

    candidates = np.flatnonzero(keep)
    best = pc.largest_cluster(
        len(candidates),
        pc.radius_pairs(scored.cloud.points[candidates], fp.cluster_tol),
        fp.min_cluster,
        fp.max_cluster,
    )
    if best is None:
        survivors.append((5, "largest_cluster", 0))
        exc = NoPeduncleFound("no cluster survived the size limits")
        exc.survivors = survivors
        exc.box = box
        raise exc
    cluster = candidates[best]
    survivors.append((5, "largest_cluster", int(cluster.size)))
    return FilterResult(cluster, survivors, box)


def cutting_pose(
    points: np.ndarray,
    up: tuple[int, int] = UP_DEFAULT,
    camera_origin=(0.0, 0.0, 0.0),
    camera_forward=(0.0, 0.0, 1.0),
) -> CuttingPose:
    """Centroid of the peduncle cluster plus a horizontal approach axis.

    The axis is the horizontal projection of the camera-to-centroid
    direction; when that projection vanishes (target straight above or
    below the camera) the camera forward axis is used instead.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or len(points) == 0:
        raise EmptyInput("empty cluster")
    position = points.mean(axis=0)
    direction = position - np.asarray(camera_origin, dtype=np.float64)
    direction[up[0]] = 0.0
    norm = np.linalg.norm(direction)
    if norm < 1e-9:
        axis = np.asarray(camera_forward, dtype=np.float64)
        axis = axis / np.linalg.norm(axis)
    else:
        axis = direction / norm
    return CuttingPose(position, axis)


def format_diagnostics(survivors) -> str:
    """ASCII per-step report: `step,name,survivors` lines."""
    return "\n".join(f"{step},{name},{count}" for step, name, count in survivors) + "\n"


# ---------------------------------------------------------------------------
# detectors
# ---------------------------------------------------------------------------


def margin_to_score(margin: np.ndarray) -> np.ndarray:
    """Squash SVM margins through a fixed logistic map onto (0, 1).

    Purely monotone rescaling so both detectors share the [0, 1] threshold
    grid; no calibration is fitted.
    """
    return 1.0 / (1.0 + np.exp(-np.asarray(margin, dtype=np.float64)))


class PfhSvmDetector:
    """Per-point scorer: HSV + 33-bin geometry histogram into a kernel SVM."""

    name = "pfh-svm"

    def __init__(self, model: cls.SvmModel, normal_k: int = 30, fpfh_k: int = 30):
        self.model = model
        self.normal_k = normal_k
        self.fpfh_k = fpfh_k

    def extract_features(self, cloud: pc.PointCloud, viewpoint=(0.0, 0.0, 0.0)):
        """(features (N, 36), valid (N,)) for every point of a cloud."""
        normals, n_valid = pc.estimate_normals(cloud, min(self.normal_k, len(cloud)), viewpoint)
        hists, h_valid = ft.fpfh(cloud, normals, min(self.fpfh_k, len(cloud) - 1), n_valid)
        hsv = ft.rgb_to_hsv_array(cloud.colors)
        return ft.assemble_features(hsv, hists), n_valid & h_valid

    def score_frame(self, frame: Frame, roi: Roi2) -> ScoredCloud:
        """Score every ROI point; invalid-feature points score 0."""
        in_roi = (
            (frame.pixels[:, 1] >= roi.x_min)
            & (frame.pixels[:, 1] < roi.x_max)
            & (frame.pixels[:, 0] >= roi.y_min)
            & (frame.pixels[:, 0] < roi.y_max)
        )
        rows = np.flatnonzero(in_roi)
        sub = frame.cloud.subset(rows)
        scores = np.zeros(len(rows))
        if len(rows) > self.normal_k:
            feats, valid = self.extract_features(sub)
            if valid.any():
                scores[valid] = margin_to_score(
                    cls.svm_score_batch(self.model, feats[valid])
                )
        return ScoredCloud(sub, scores, frame.pixels[rows])


class CnnDetector:
    """Strided patch scorer over the ROI-masked image.

    The strided score grid is filled back to per-pixel resolution (nearest
    scored center) before depth projection so the 3D filtering stage sees
    the same dense clouds it would get from exhaustive per-pixel scoring.
    """

    name = "cnn"

    def __init__(self, net: mc.Network, stride: int = 4, infer_dtype=np.float32):
        self.net = net
        self.stride = stride
        self._infer_net = net.cast(infer_dtype) if infer_dtype is not None else net

    def score_frame(self, frame: Frame, roi: Roi2) -> ScoredCloud:
        ph, pw = self._infer_net.input_hw
        sm = mc.score_map(frame.rgb, self._infer_net, self.stride, roi)
        sm = mc.densify_score_map(sm, ph, pw, self.stride, roi)
        labels = None
        if frame.cloud.labels is not None:
            h, w = frame.depth_raw.shape
            lab_img = np.zeros((h, w), dtype=np.uint8)
            lab_img[frame.pixels[:, 0], frame.pixels[:, 1]] = frame.cloud.labels
            labels = lab_img
        return project_to_3d(sm, frame.depth_raw, frame.intr, frame.rgb, labels)


@dataclass
class DetectionResult:
    pepper_indices: np.ndarray
    pepper_box: pc.BoundingBox3
    roi: Roi2
    scored: ScoredCloud
    filter_result: FilterResult
    pose: CuttingPose


def run_detection(
    frame: Frame,
    nb: cls.NaiveBayesHsv,
    detector,
    fp: FilterParams = FilterParams(),
    pepper_params: PepperDetectParams = PepperDetectParams(),
    box_params: PeduncleBoxParams = PeduncleBoxParams(),
    up: tuple[int, int] = UP_DEFAULT,
) -> DetectionResult:
    """Full single-frame flow: pepper, ROI, scoring, filtering, pose."""
    pepper_idx, pepper_box = detect_pepper(frame.cloud, nb, pepper_params)
    h, w = frame.depth_raw.shape
    roi = compute_roi(pixel_bbox(frame.pixels[pepper_idx]), w, h)
    scored = detector.score_frame(frame, roi)
    if len(scored) == 0:
        raise NoPeduncleFound("nothing scored inside the region of interest")
    result = filter_detections(
        scored, frame.cloud.points[pepper_idx], nb, fp, box_params, up
    )
    pose = cutting_pose(scored.cloud.points[result.cluster], up)
    return DetectionResult(pepper_idx, pepper_box, roi, scored, result, pose)
