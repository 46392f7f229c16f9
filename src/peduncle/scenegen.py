"""Deterministic synthetic RGB-D scenes with per-point and per-pixel truth.

A scene is a colored pepper ellipsoid with a curved green peduncle tube on
top, plus green distractors (planar leaves, a vertical stem) and a far
wall, all splatted into a z-buffer at the camera resolution. The peduncle
and the distractors draw from overlapping hue distributions, so color
alone cannot separate them; geometry and context have to do the work.

Everything is a pure function of SceneParams: the seed fully determines
every output byte. Each pixel shows its nearest splat, the earliest drawn
among splats at equal depth, or the wall where no splat lands. Colours are
drawn as hsv and converted to rgb only for the splats that win a pixel and
the wall pixels no splat covers; the conversion is elementwise, so this
changes no byte.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np
from scipy import ndimage

from . import cloud as pc
from . import config as cfgmod
from . import pipeline as pl
from . import rasters
from ._textio import open_text
from .errors import FormatError, InvalidInput

_NEAR_PLANE = 0.05          # splats closer than this are discarded
_MASK_GAP_PX = 2            # unannotated ring between positive and negative


@dataclass(frozen=True)
class SceneParams:
    seed: int = 0
    image_w: int = 640
    image_h: int = 480
    fx: float = 570.0
    fy: float = 570.0
    cx: float = 319.5
    cy: float = 239.5
    depth_scale: float = 0.001
    pepper_center: tuple = (0.0, 0.02, 0.45)
    pepper_axes: tuple = (0.035, 0.045, 0.035)
    pepper_color: str = "red"            # red | green | mixed
    peduncle_length: float = 0.05
    peduncle_radius: float = 0.005       # tube radius
    peduncle_arc_radius: float = 0.06    # curvature radius of the center line
    peduncle_flatten: float = 0.0        # 0 upright .. 1 flattened onto the fruit
    leaf_count: int = 3
    stem: bool = True
    noise_sigma: float = 0.0005          # gaussian depth noise, meters
    wall_offset: float = 0.25            # wall depth behind the pepper center
    green_hue_shift: float = 0.0         # per-scene hue offset of plant matter, degrees
    light_scale: float = 1.0             # per-scene brightness multiplier

    def intrinsics(self) -> pl.CameraIntrinsics:
        return pl.CameraIntrinsics(self.fx, self.fy, self.cx, self.cy, self.depth_scale)

    def validate(self) -> None:
        if self.image_w <= 0 or self.image_h <= 0:
            raise InvalidInput("image width and height must be positive")
        self.intrinsics()  # fx, fy and depth_scale must be positive
        x, y, z = self.pepper_center
        if not (
            z > _NEAR_PLANE
            and 0 <= np.round(x * self.fx / z + self.cx) < self.image_w
            and 0 <= np.round(y * self.fy / z + self.cy) < self.image_h
        ):
            raise InvalidInput(f"pepper centre {self.pepper_center} does not project inside the image")
        positive = (
            list(self.pepper_axes)
            + [self.peduncle_length, self.peduncle_radius, self.peduncle_arc_radius]
        )
        if any(v <= 0 for v in positive):
            raise InvalidInput("scene dimensions must be positive")
        if self.pepper_color not in ("red", "green", "mixed"):
            raise InvalidInput(f"unknown pepper color mode {self.pepper_color!r}")
        if self.noise_sigma < 0:
            raise InvalidInput("noise sigma must be >= 0")


def annotation_masks(labels_img: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(positive, negative) annotation masks of a label image, (H, W) bool.

    Positive is every peduncle pixel; negative is every pixel farther than
    _MASK_GAP_PX (4-connected steps) from one, which leaves an unannotated
    ring between the two.
    """
    pos = labels_img == pc.LABEL_PEDUNCLE
    return pos, ~ndimage.binary_dilation(pos, iterations=_MASK_GAP_PX)


@dataclass
class LabeledScene:
    """A camera frame plus its per-pixel truth; everything else is derived."""

    params: SceneParams | None  # None for a scene loaded from disk
    frame: pl.Frame             # rasters and the unprojected, labelled cloud
    labels_img: np.ndarray      # (H, W) uint8 per-pixel cloud.LABEL_* value

    @classmethod
    def from_rasters(cls, rgb, depth_raw, intr, labels_img, params=None) -> "LabeledScene":
        frame = pl.Frame.from_rasters(rgb, depth_raw, intr, labels_img)
        return cls(params, frame, labels_img)

    @property
    def rgb(self) -> np.ndarray:
        return self.frame.rgb

    @property
    def depth_raw(self) -> np.ndarray:
        return self.frame.depth_raw

    @property
    def cloud(self) -> pc.PointCloud:
        return self.frame.cloud

    # pos_mask / neg_mask: only perfbench/checks.py reads them; the rest calls annotation_masks
    @property
    def pos_mask(self) -> np.ndarray:
        return annotation_masks(self.labels_img)[0]

    @property
    def neg_mask(self) -> np.ndarray:
        return annotation_masks(self.labels_img)[1]


# ---------------------------------------------------------------------------
# color and surface sampling helpers
# ---------------------------------------------------------------------------


def _hsv_to_rgb_array(h, s, v) -> np.ndarray:
    """Vectorized hexcone HSV -> uint8 RGB."""
    h = np.asarray(h, dtype=np.float64) % 360.0
    s = np.asarray(s, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    c = v * s
    x = c * (1.0 - np.abs((h / 60.0) % 2.0 - 1.0))
    m = v - c
    sector = (h // 60.0).astype(np.intp) % 6
    zeros = np.zeros_like(c)
    rgb1 = np.stack(
        [
            np.choose(sector, (c, x, zeros, zeros, x, c)),
            np.choose(sector, (x, c, c, x, zeros, zeros)),
            np.choose(sector, (zeros, zeros, x, c, c, x)),
        ],
        axis=1,
    )
    return np.round((rgb1 + m[:, None]) * 255.0).astype(np.uint8)


def _colors(rng, n, h_mean, h_std, s_range, v_range, p: SceneParams, plant=False) -> np.ndarray:
    """Jittered material colors, unconverted: a (3, n) array of rows h, s
    and v. Plant hues shift and all values scale per scene."""
    if plant:
        h_mean = h_mean + p.green_hue_shift
    h = (rng.normal(h_mean, h_std, n)) % 360.0
    s = rng.uniform(*s_range, n)
    v = rng.uniform(*v_range, n)
    v = np.clip(v * p.light_scale, 0.02, 1.0)
    return np.stack([h, s, v])


def _splat_count(area_m2: float, z: float, fx: float, oversample: float = 5.0) -> int:
    """Samples needed so a surface patch has no pixel holes at depth z."""
    px_per_m = fx / max(z, _NEAR_PLANE)
    return max(64, int(area_m2 * px_per_m * px_per_m * oversample))


def _sample_ellipsoid(rng, center, axes, n):
    d = rng.normal(size=(n, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    return np.asarray(center) + d * np.asarray(axes)


def _sample_tube(rng, curve_fn, length, radius, n):
    """Random surface points of a tube swept along a 3D curve."""
    s = rng.uniform(0.0, length, n)
    psi = rng.uniform(0.0, 2.0 * np.pi, n)
    centers, tangents = curve_fn(s)
    ref = np.where(np.abs(tangents[:, 2:3]) < 0.9, [[0.0, 0.0, 1.0]], [[1.0, 0.0, 0.0]])
    e1 = np.cross(tangents, ref)
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    e2 = np.cross(tangents, e1)
    return centers + radius * (np.cos(psi)[:, None] * e1 + np.sin(psi)[:, None] * e2)


def _sample_disk(rng, center, basis_u, basis_v, n):
    r = np.sqrt(rng.uniform(0.0, 1.0, n))
    a = rng.uniform(0.0, 2.0 * np.pi, n)
    return (
        np.asarray(center)
        + (r * np.cos(a))[:, None] * basis_u
        + (r * np.sin(a))[:, None] * basis_v
    )


def _peduncle_curve(base, arc_radius, flatten, azimuth):
    """Circular-arc center line starting at the pepper top.

    flatten tilts the initial tangent away from vertical, reproducing
    peduncles pressed against the top of the fruit.
    """
    up = np.array([0.0, -1.0, 0.0])
    h_dir = np.array([np.cos(azimuth), 0.0, np.sin(azimuth)])
    tilt = flatten * np.deg2rad(75.0)
    t0 = np.cos(tilt) * up + np.sin(tilt) * h_dir
    n0 = np.cross(np.cross(t0, h_dir if abs(np.dot(t0, h_dir)) < 0.99 else up), t0)
    n0 /= np.linalg.norm(n0)

    def curve(s):
        ang = s / arc_radius
        centers = (
            np.asarray(base)
            + np.sin(ang)[:, None] * (arc_radius * t0)
            + (1.0 - np.cos(ang))[:, None] * (arc_radius * n0)
        )
        tangents = np.cos(ang)[:, None] * t0 + np.sin(ang)[:, None] * n0
        return centers, tangents

    return curve


# ---------------------------------------------------------------------------
# scene assembly
# ---------------------------------------------------------------------------


def _pepper_samples(rng, p: SceneParams):
    area = 4.0 * np.pi * max(p.pepper_axes) ** 2
    n = _splat_count(area, p.pepper_center[2], p.fx)
    pts = _sample_ellipsoid(rng, p.pepper_center, p.pepper_axes, n)
    if p.pepper_color == "red":
        cols = _colors(rng, n, 5.0, 6.0, (0.7, 0.95), (0.45, 0.8), p)
    elif p.pepper_color == "green":
        cols = _colors(rng, n, 115.0, 8.0, (0.55, 0.8), (0.3, 0.6), p, plant=True)
    else:
        # mixed ripening: green shoulder, red body, noisy boundary
        rel_y = (pts[:, 1] - p.pepper_center[1]) / p.pepper_axes[1]
        green = rel_y < rng.normal(-0.3, 0.15, n)
        cols = _colors(rng, n, 5.0, 6.0, (0.7, 0.95), (0.45, 0.8), p)
        cols[:, green] = _colors(rng, int(green.sum()), 115.0, 8.0, (0.55, 0.8), (0.3, 0.6), p, plant=True)
    return pts, cols, pc.LABEL_PEPPER


def _peduncle_samples(rng, p: SceneParams):
    base = np.asarray(p.pepper_center) - [0.0, p.pepper_axes[1], 0.0]
    curve = _peduncle_curve(base, p.peduncle_arc_radius, p.peduncle_flatten, rng.uniform(0, 2 * np.pi))
    area = 2.0 * np.pi * p.peduncle_radius * p.peduncle_length
    n = _splat_count(area, p.pepper_center[2], p.fx, oversample=8.0)
    pts = _sample_tube(rng, curve, p.peduncle_length, p.peduncle_radius, n)
    cols = _colors(rng, n, 112.0, 7.0, (0.5, 0.8), (0.35, 0.65), p, plant=True)
    return pts, cols, pc.LABEL_PEDUNCLE


def _stem_samples(rng, p: SceneParams):
    cx_, cy_, cz = p.pepper_center
    off_x = rng.uniform(-0.04, 0.04)
    off_z = rng.uniform(0.05, 0.12)
    top_y = cy_ - p.pepper_axes[1] - rng.uniform(0.10, 0.16)
    length = rng.uniform(0.25, 0.35)
    base = np.array([cx_ + off_x, top_y + length, cz + off_z])

    def curve(s):
        centers = base + np.outer(s, [0.0, -1.0, 0.0])
        tangents = np.tile([0.0, -1.0, 0.0], (len(s), 1))
        return centers, tangents

    radius = rng.uniform(0.010, 0.015)
    n = _splat_count(2.0 * np.pi * radius * length, cz + off_z, p.fx, oversample=6.0)
    pts = _sample_tube(rng, curve, length, radius, n)
    cols = _colors(rng, n, 110.0, 9.0, (0.45, 0.75), (0.3, 0.6), p, plant=True)
    return pts, cols, pc.LABEL_BACKGROUND


def _leaf_samples(rng, p: SceneParams, high: bool):
    cx_, cy_, cz = p.pepper_center
    if high:
        # distractor in the 2D region of interest but well outside the 3D box
        center = np.array(
            [
                cx_ + rng.uniform(-0.06, 0.06),
                cy_ - p.pepper_axes[1] - rng.uniform(0.02, 0.08),
                cz + rng.uniform(0.07, 0.15),
            ]
        )
    else:
        center = np.array(
            [
                cx_ + rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 0.12),
                cy_ + rng.uniform(-0.08, 0.08),
                cz + rng.uniform(-0.05, 0.12),
            ]
        )
    a = rng.uniform(0.02, 0.05)
    b = rng.uniform(0.015, 0.035)
    u = rng.normal(size=3)
    u /= np.linalg.norm(u)
    v = np.cross(u, rng.normal(size=3))
    v /= np.linalg.norm(v)
    n = _splat_count(np.pi * a * b, center[2], p.fx, oversample=6.0)
    pts = _sample_disk(rng, center, a * u, b * v, n)
    cols = _colors(rng, n, 115.0, 10.0, (0.45, 0.8), (0.3, 0.65), p, plant=True)
    return pts, cols, pc.LABEL_BACKGROUND


def _nearest_splats(flat, z, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The z-buffer rule: (pixels, winners). `pixels` are the distinct values
    of `flat` (pixel indices below `size`) in ascending order; winners[i] is
    the index of the splat that pixel i shows, the one with the least z and,
    among those equally near, the first in `flat`'s order."""
    zmin = np.full(size, np.inf)
    np.minimum.at(zmin, flat, z)
    near = np.flatnonzero(z == zmin[flat])
    pixels, first = np.unique(flat[near], return_index=True)
    return pixels, near[first]


def generate(params: SceneParams) -> LabeledScene:
    """Render one scene: z-buffered splatting, then rasters and cloud.

    The z-buffer keeps, for each pixel, the nearest splat in front of the
    wall, and among splats at equal depth the earliest drawn. Only those
    winners and the wall pixels no splat covers have their hsv colours
    converted to rgb.
    """
    params.validate()
    rng = np.random.default_rng(params.seed)
    h, w = params.image_h, params.image_w
    wall_z = params.pepper_center[2] + params.wall_offset

    batches = [_pepper_samples(rng, params), _peduncle_samples(rng, params)]
    if params.stem:
        batches.append(_stem_samples(rng, params))
    for i in range(params.leaf_count):
        batches.append(_leaf_samples(rng, params, high=(i == 0)))

    pts = np.vstack([b[0] for b in batches])
    hsv = np.hstack([b[1] for b in batches])
    labs = np.concatenate([np.full(len(b[0]), b[2], dtype=np.uint8) for b in batches])
    wall_hsv = _colors(rng, h * w, 95.0, 18.0, (0.1, 0.3), (0.12, 0.3), params, plant=True)

    z = pts[:, 2]
    keep = z > _NEAR_PLANE
    u = np.round(pts[:, 0] * params.fx / z + params.cx).astype(np.int64)
    v = np.round(pts[:, 1] * params.fy / z + params.cy).astype(np.int64)
    keep &= (u >= 0) & (u < w) & (v >= 0) & (v < h) & (z < wall_z)
    kept = np.flatnonzero(keep)
    pix, win = _nearest_splats(v[kept] * w + u[kept], z[kept], h * w)
    win = kept[win]

    zbuf = np.full(h * w, wall_z)
    zbuf[pix] = z[win]
    rgb = np.empty((h * w, 3), dtype=np.uint8)
    rgb[pix] = _hsv_to_rgb_array(*hsv[:, win])
    wall = np.ones(h * w, dtype=bool)
    wall[pix] = False
    rgb[wall] = _hsv_to_rgb_array(*wall_hsv[:, wall])
    labels_img = np.full(h * w, pc.LABEL_BACKGROUND, dtype=np.uint8)
    labels_img[pix] = labs[win]

    zbuf = zbuf.reshape(h, w)
    if params.noise_sigma > 0:
        zbuf = zbuf + rng.normal(0.0, params.noise_sigma, zbuf.shape)
    depth_raw = np.clip(np.round(zbuf / params.depth_scale), 1, 65535).astype(np.uint16)

    return LabeledScene.from_rasters(
        rgb.reshape(h, w, 3), depth_raw, params.intrinsics(), labels_img.reshape(h, w), params
    )


# ---------------------------------------------------------------------------
# on-disk scenes and the benchmark set
# ---------------------------------------------------------------------------

_SUFFIXES = ("labels.pgm", "rgb.ppm", "depth.pgm")


def scene_files(scene_id: str) -> list[str]:
    return [f"{scene_id}_{s}" for s in _SUFFIXES]


def save_scene(out_dir, scene_id: str, scene: LabeledScene) -> list[str]:
    files = scene_files(scene_id)
    rasters.write_labels(os.path.join(out_dir, files[0]), scene.labels_img)
    rasters.write_ppm(os.path.join(out_dir, files[1]), scene.rgb)
    rasters.write_pgm16(os.path.join(out_dir, files[2]), scene.depth_raw)
    return files


def load_scene(scene_dir, scene_id: str, intr: pl.CameraIntrinsics) -> LabeledScene:
    """Rebuild a LabeledScene from its three rasters (params are not recovered).

    Raises FormatError unless all three have the same height and width.
    """
    files = [os.path.join(scene_dir, f) for f in scene_files(scene_id)]
    labels_img = rasters.read_labels(files[0])
    rgb = rasters.read_ppm(files[1])
    depth_raw = rasters.read_pgm16(files[2])
    shapes = {labels_img.shape, rgb.shape[:2], depth_raw.shape}
    if len(shapes) > 1:
        raise FormatError(f"{scene_id}: scene rasters differ in size: {sorted(shapes)}")
    return LabeledScene.from_rasters(rgb, depth_raw, intr, labels_img)


def _draw_scene_params(rng, base: SceneParams, seed: int) -> SceneParams:
    """Benchmark distribution: varied fruit, curvature, clutter and color."""
    return replace(
        base,
        seed=seed,
        pepper_center=(
            base.pepper_center[0] + rng.uniform(-0.015, 0.015),
            base.pepper_center[1] + rng.uniform(-0.01, 0.01),
            base.pepper_center[2] + rng.uniform(-0.02, 0.03),
        ),
        pepper_axes=(
            rng.uniform(0.028, 0.042),
            rng.uniform(0.032, 0.048),
            rng.uniform(0.028, 0.042),
        ),
        pepper_color="red" if rng.uniform() < 0.6 else "mixed",
        peduncle_length=rng.uniform(0.04, 0.06),
        peduncle_radius=rng.uniform(0.004, 0.0065),
        peduncle_arc_radius=rng.uniform(0.04, 0.12),
        peduncle_flatten=rng.uniform(0.0, 0.6),
        leaf_count=int(rng.integers(2, 8)),
        noise_sigma=rng.uniform(0.0004, 0.0012),
        green_hue_shift=rng.normal(0.0, 7.0),
        light_scale=rng.uniform(0.8, 1.15),
    )


def scene_params(cfg: dict) -> SceneParams:
    """The configuration's camera and pepper centre as SceneParams, the one
    reader of the camera keys make_benchmark writes; FormatError on a bad key."""
    text = cfgmod.cfg_str(cfg, "pepper_center")
    try:
        center = tuple(float(v) for v in text.split())
    except ValueError:
        center = ()
    if len(center) != 3 or not np.isfinite(center).all():
        raise FormatError(f"config key 'pepper_center' must be three finite numbers, got {text!r}")
    return SceneParams(
        image_w=cfgmod.cfg_int(cfg, "image_width"),
        image_h=cfgmod.cfg_int(cfg, "image_height"),
        fx=cfgmod.cfg_float(cfg, "fx"),
        fy=cfgmod.cfg_float(cfg, "fy"),
        cx=cfgmod.cfg_float(cfg, "cx"),
        cy=cfgmod.cfg_float(cfg, "cy"),
        depth_scale=cfgmod.cfg_float(cfg, "depth_scale"),
        pepper_center=center,
    )


def benchmark_base() -> SceneParams:
    """Close-up desk-scale camera of the standard synthetic benchmark, as
    data/benchmark.cfg (the one copy of its values) sets it."""
    cfg = cfgmod.default_config()
    cfg.update(cfgmod.parse_config(resources.files("peduncle").joinpath("data/benchmark.cfg").read_text()))
    return scene_params(cfg)


def benchmark_params(
    n_scenes: int, master_seed: int, base: SceneParams | None = None
) -> list[SceneParams]:
    """The deterministic per-scene parameter draws of a benchmark set."""
    if n_scenes < 1:
        raise InvalidInput("need at least one scene")
    base = base if base is not None else SceneParams()
    rng = np.random.default_rng(master_seed)
    out = []
    for _ in range(n_scenes):
        seed = int(rng.integers(0, 2**62))
        out.append(_draw_scene_params(rng, base, seed))
    return out


def make_benchmark(
    out_dir,
    n_scenes: int,
    master_seed: int,
    n_train: int | None = None,
    base: SceneParams | None = None,
) -> str:
    """Generate a seeded scene set plus manifest; returns the manifest path.

    Scene ids carry the split (`train####` / `eval####`); the camera
    configuration is echoed to config.cfg next to the manifest so scenes
    can be reloaded without the generating code. Raises InvalidInput,
    before it creates out_dir, when any draw's parameters are invalid.
    """
    base = base if base is not None else SceneParams()
    if n_train is None:
        n_train = max(1, n_scenes // 5)
    draws = benchmark_params(n_scenes, master_seed, base)
    for params in draws:
        params.validate()  # before anything is written
    os.makedirs(out_dir, exist_ok=True)
    lines = []
    for i, params in enumerate(draws):
        scene_id = f"train{i:04d}" if i < n_train else f"eval{i - n_train:04d}"
        files = save_scene(out_dir, scene_id, generate(params))
        lines.append(f"{scene_id} {params.seed} " + " ".join(files))
    manifest = os.path.join(out_dir, "manifest.txt")
    with open(manifest, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    cfg = cfgmod.default_config()
    cfg.update(
        {
            "image_width": str(base.image_w),
            "image_height": str(base.image_h),
            "fx": repr(float(base.fx)),
            "fy": repr(float(base.fy)),
            "cx": repr(float(base.cx)),
            "cy": repr(float(base.cy)),
            "depth_scale": repr(float(base.depth_scale)),
        }
    )
    cfgmod.write_config(os.path.join(out_dir, "config.cfg"), cfg)
    return manifest


def load_manifest(path) -> list[dict]:
    """Manifest rows as {id, seed, split} dicts. The file names that follow
    the seed on each line are for readers; load_scene derives them from the id.

    Raises FormatError on a line with fewer than three fields or a seed
    that is not an integer.
    """
    entries = []
    with open_text(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            tok = line.split()
            if len(tok) < 3:
                raise FormatError(f"malformed manifest line {raw!r}")
            try:
                seed = int(tok[1])
            except ValueError as exc:
                raise FormatError(f"manifest line {raw!r}: seed is not an integer") from exc
            entries.append(
                {"id": tok[0], "seed": seed, "split": "train" if tok[0].startswith("train") else "eval"}
            )
    return entries


def load_benchmark_scene(manifest_path, entry: dict) -> LabeledScene:
    """The entry's scene, with the camera of the config.cfg beside the manifest."""
    scene_dir = os.path.dirname(os.path.abspath(manifest_path))
    cfg = cfgmod.load_config(os.path.join(scene_dir, "config.cfg"))
    return load_scene(scene_dir, entry["id"], scene_params(cfg).intrinsics())
