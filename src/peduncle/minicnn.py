"""Small from-scratch tensor engine for the inception-style patch scorer.

Tensors are plain numpy arrays of shape (batch, channels, height, width),
float64 for training so analytic gradients can be validated against central
finite differences (float32 is allowed for inference). Every layer
implements forward/backward and owns its parameter and gradient buffers.

Convolution is im2col + matmul. The input is padded once into a
channels-last (b, h, w, c) buffer; one sliding-window view over (h, w)
describes every window as (b, oh, ow, c, kh, kw). The column matrix (rows:
output pixels, columns: (c, kh, kw)) is that view copied out in a single
pass, by an np.take whose index is the same window view of one sample's
element positions. The backward pass sums into a channels-last float64
buffer, one kernel offset (i, j) at a time in row-major order. Layer
outputs are channels-first views of channels-last memory, so the next layer
reads them channels-last without a copy.

Max pooling uses the same windows (padded with -inf). A tie goes to the
first maximal element in row-major window order, -0.0 before +0.0 included:
inference folds the window view with np.maximum(element, running max),
which returns its second operand on a tie; training takes argmax over the
copied-out windows and routes the gradient to that element.

The full detector network is described by a NetworkSpec: a text file of
layer lines validated to hold exactly 8 convolutional layers (an inception
module counts as one), of which exactly 2 are inception modules, plus one
fully connected head over 2 classes. Arbitrary layer stacks (without that
shape constraint) remain available for unit-level gradient checking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import EmptyInput, FormatError, InputTooSmall, InvalidInput, ShapeError

# Weight files start with this 16-byte magic block.
WEIGHT_MAGIC = b"MINC0001" + b"\x00" * 8

# When enabled, every layer output is asserted finite (slow; for debugging).
DEBUG_CHECK_FINITE = False


def _check(x: np.ndarray) -> np.ndarray:
    if DEBUG_CHECK_FINITE and not np.all(np.isfinite(x)):
        raise InvalidInput("non-finite activation")
    return x


# ---------------------------------------------------------------------------
# layer specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvSpec:
    kh: int
    kw: int
    c_in: int
    c_out: int
    stride: int = 1
    pad: int = 0


@dataclass(frozen=True)
class PoolSpec:
    k: int
    stride: int


@dataclass(frozen=True)
class ReluSpec:
    pass


@dataclass(frozen=True)
class InceptionSpec:
    """Branch output channels: 1x1 conv, 1x1->3x3 chain (reduce, out), pool->1x1."""

    b1: int
    b3r: int
    b3: int
    bp: int

    @property
    def c_out(self) -> int:
        return self.b1 + self.b3 + self.bp


@dataclass(frozen=True)
class FcSpec:
    n_in: int
    n_out: int


LayerSpec = ConvSpec | PoolSpec | ReluSpec | InceptionSpec | FcSpec


@dataclass(frozen=True)
class NetworkSpec:
    """Validated description of the full patch-scoring network."""

    input_h: int
    input_w: int
    input_c: int
    layers: tuple

    def validate(self) -> None:
        n_conv = sum(isinstance(s, (ConvSpec, InceptionSpec)) for s in self.layers)
        n_incep = sum(isinstance(s, InceptionSpec) for s in self.layers)
        n_fc = sum(isinstance(s, FcSpec) for s in self.layers)
        if n_conv != 8 or n_incep != 2 or n_fc != 1:
            raise ShapeError(
                f"network must have 8 conv layers (2 inception) and 1 fc, "
                f"got {n_conv} conv / {n_incep} inception / {n_fc} fc"
            )
        c, h, w = trace_shapes(self.layers, self.input_c, self.input_h, self.input_w)[-1]
        if not isinstance(self.layers[-1], FcSpec):
            raise ShapeError("final layer must be the fully connected head")

    @property
    def n_classes(self) -> int:
        return next(s.n_out for s in reversed(self.layers) if isinstance(s, FcSpec))


def trace_shapes(specs, c: int, h: int, w: int) -> list[tuple[int, int, int]]:
    """(c, h, w) after each layer; raises ShapeError on inconsistent chaining."""
    shapes = []
    for spec in specs:
        if isinstance(spec, ConvSpec):
            if spec.c_in != c:
                raise ShapeError(f"conv expects {spec.c_in} channels, chain gives {c}")
            h = (h + 2 * spec.pad - spec.kh) // spec.stride + 1
            w = (w + 2 * spec.pad - spec.kw) // spec.stride + 1
            c = spec.c_out
        elif isinstance(spec, PoolSpec):
            h = (h - spec.k) // spec.stride + 1
            w = (w - spec.k) // spec.stride + 1
        elif isinstance(spec, InceptionSpec):
            c = spec.c_out      # same-padded branches keep h, w
        elif isinstance(spec, FcSpec):
            if spec.n_in != c * h * w:
                raise ShapeError(f"fc expects {spec.n_in} inputs, chain gives {c * h * w}")
            c, h, w = spec.n_out, 1, 1
        if h <= 0 or w <= 0:
            raise ShapeError("spatial size collapsed to zero")
        shapes.append((c, h, w))
    return shapes


def param_count(spec) -> int:
    """Total learnable parameters of a NetworkSpec or a raw spec sequence."""
    if isinstance(spec, NetworkSpec):
        specs, c = spec.layers, spec.input_c
    else:
        specs = list(spec)
        c = next((s.c_in for s in specs if isinstance(s, ConvSpec)), 0)
    total = 0
    for s in specs:
        if isinstance(s, ConvSpec):
            total += s.kh * s.kw * s.c_in * s.c_out + s.c_out
            c = s.c_out
        elif isinstance(s, InceptionSpec):
            total += c * s.b1 + s.b1
            total += c * s.b3r + s.b3r
            total += 3 * 3 * s.b3r * s.b3 + s.b3
            total += c * s.bp + s.bp
            c = s.c_out
        elif isinstance(s, FcSpec):
            total += s.n_in * s.n_out + s.n_out
    return total


# ---------------------------------------------------------------------------
# spec file format
# ---------------------------------------------------------------------------


def parse_netspec(text: str) -> NetworkSpec:
    """Parse the line-per-layer spec format (first line: `input H W C`)."""
    layers = []
    input_hwc = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        try:
            if tok[0] == "input":
                input_hwc = (int(tok[1]), int(tok[2]), int(tok[3]))
            elif tok[0] == "conv":
                layers.append(ConvSpec(*(int(v) for v in tok[1:7])))
            elif tok[0] == "pool":
                layers.append(PoolSpec(int(tok[1]), int(tok[2])))
            elif tok[0] == "relu":
                layers.append(ReluSpec())
            elif tok[0] == "inception":
                layers.append(InceptionSpec(*(int(v) for v in tok[1:5])))
            elif tok[0] == "fc":
                layers.append(FcSpec(int(tok[1]), int(tok[2])))
            else:
                raise FormatError(f"unknown layer {tok[0]!r}")
        except (ValueError, IndexError) as exc:
            raise FormatError(f"bad spec line {line!r}") from exc
    if input_hwc is None:
        raise FormatError("spec is missing the `input H W C` line")
    spec = NetworkSpec(input_hwc[0], input_hwc[1], input_hwc[2], tuple(layers))
    spec.validate()
    return spec


def serialize_netspec(spec: NetworkSpec) -> str:
    lines = [f"input {spec.input_h} {spec.input_w} {spec.input_c}"]
    for s in spec.layers:
        if isinstance(s, ConvSpec):
            lines.append(f"conv {s.kh} {s.kw} {s.c_in} {s.c_out} {s.stride} {s.pad}")
        elif isinstance(s, PoolSpec):
            lines.append(f"pool {s.k} {s.stride}")
        elif isinstance(s, ReluSpec):
            lines.append("relu")
        elif isinstance(s, InceptionSpec):
            lines.append(f"inception {s.b1} {s.b3r} {s.b3} {s.bp}")
        elif isinstance(s, FcSpec):
            lines.append(f"fc {s.n_in} {s.n_out}")
    return "\n".join(lines) + "\n"


def load_netspec(path) -> NetworkSpec:
    with open(path) as fh:
        return parse_netspec(fh.read())


def save_netspec(path, spec: NetworkSpec) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(serialize_netspec(spec))


# ---------------------------------------------------------------------------
# window views
# ---------------------------------------------------------------------------


def _out_hw(h, w, kh, kw, stride, pad):
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    if oh <= 0 or ow <= 0:
        raise ShapeError(f"kernel {kh}x{kw} does not fit input {h}x{w} (pad {pad})")
    return oh, ow


def _nhwc_padded(x, pad, pad_value=0.0):
    """(b, c, h, w) tensor as a (b, h + 2 pad, w + 2 pad, c) array; a view when pad is 0."""
    xn = x.transpose(0, 2, 3, 1)
    if not pad:
        return xn
    b, h, w, c = xn.shape
    xp = np.full((b, h + 2 * pad, w + 2 * pad, c), pad_value, dtype=x.dtype)
    xp[:, pad : pad + h, pad : pad + w] = xn
    return xp


def _windows(xp, kh, kw, stride, oh, ow):
    """(b, oh, ow, c, kh, kw) view of the stride-spaced windows of an NHWC array."""
    win = sliding_window_view(xp, (kh, kw), axis=(1, 2))
    return win[:, : stride * oh : stride, : stride * ow : stride]


def _gather_windows(xp, kh, kw, stride, oh, ow):
    """_windows(xp, ...) copied out as (b, oh * ow, c * kh * kw).

    The window view of one sample's element positions is the gather index,
    so np.take copies every sample in one pass.
    """
    xp = np.ascontiguousarray(xp)
    per_sample = xp.shape[1] * xp.shape[2] * xp.shape[3]
    pos = np.arange(per_sample).reshape(1, *xp.shape[1:])
    index = _windows(pos, kh, kw, stride, oh, ow).reshape(oh * ow, -1)
    return np.take(xp.reshape(len(xp), per_sample), index, axis=1)


def _im2col(x, kh, kw, stride, pad):
    """Rows are output pixels (b, oh, ow); columns run over (c, kh, kw)."""
    b, c, h, w = x.shape
    oh, ow = _out_hw(h, w, kh, kw, stride, pad)
    cols = _gather_windows(_nhwc_padded(x, pad), kh, kw, stride, oh, ow)
    return cols.reshape(b * oh * ow, c * kh * kw), oh, ow


def _sum_windows(window_grad, x_shape, kh, kw, stride, pad, oh, ow):
    """Adjoint of the window view: adds window_grad(i, j), the (b, oh, ow, c)
    gradient of every window's element (i, j), into a float64 channels-last
    buffer, kernel offsets in (i, j) order; returns it as (b, c, h, w)."""
    b, c, h, w = x_shape
    dxp = np.zeros((b, h + 2 * pad, w + 2 * pad, c))
    for i in range(kh):
        for j in range(kw):
            dxp[:, i : i + stride * oh : stride, j : j + stride * ow : stride] += window_grad(i, j)
    return dxp[:, pad : pad + h, pad : pad + w].transpose(0, 3, 1, 2)


def _col2im(dcols, x_shape, kh, kw, stride, pad, oh, ow):
    """Adjoint of _im2col."""
    dwin = dcols.reshape(x_shape[0], oh, ow, x_shape[1], kh, kw)
    return _sum_windows(lambda i, j: dwin[..., i, j], x_shape, kh, kw, stride, pad, oh, ow)


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------


class Conv2d:
    """Cross-correlation with bias; weights shaped (c_out, c_in, kh, kw)."""

    def __init__(self, spec: ConvSpec):
        self.spec = spec
        self.params = {
            "w": np.zeros((spec.c_out, spec.c_in, spec.kh, spec.kw)),
            "b": np.zeros(spec.c_out),
        }
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}
        self._cache = None

    def init_weights(self, rng):
        fan_in = self.spec.c_in * self.spec.kh * self.spec.kw
        self.params["w"][:] = rng.normal(0.0, np.sqrt(2.0 / fan_in), self.params["w"].shape)
        self.params["b"][:] = 0.0

    def forward(self, x, train=False):
        s = self.spec
        if x.ndim != 4 or x.shape[1] != s.c_in:
            raise ShapeError(f"conv expected (B,{s.c_in},H,W), got {x.shape}")
        cols, oh, ow = _im2col(x, s.kh, s.kw, s.stride, s.pad)
        w2 = self.params["w"].reshape(s.c_out, -1)
        out = cols @ w2.T
        out += self.params["b"]
        out = out.reshape(x.shape[0], oh, ow, s.c_out).transpose(0, 3, 1, 2)
        if train:
            self._cache = (cols, x.shape, oh, ow)
        return _check(out)

    def backward(self, dy):
        cols, x_shape, oh, ow = self._cache
        s = self.spec
        dyr = dy.transpose(0, 2, 3, 1).reshape(-1, s.c_out)
        self.grads["w"][:] = (dyr.T @ cols).reshape(self.params["w"].shape)
        self.grads["b"][:] = dyr.sum(axis=0)
        dcols = dyr @ self.params["w"].reshape(s.c_out, -1)
        return _col2im(dcols, x_shape, s.kh, s.kw, s.stride, s.pad, oh, ow)


class MaxPool:
    """Max over k x k windows, padded with -inf.

    A tie goes to the first maximal element in row-major window order, in
    the forward value and in the backward routing alike.
    """

    def __init__(self, spec: PoolSpec, pad: int = 0):
        self.spec = spec
        self.pad = pad
        self.params = {}
        self.grads = {}
        self._cache = None

    def forward(self, x, train=False):
        k, stride = self.spec.k, self.spec.stride
        b, c, h, w = x.shape
        oh, ow = _out_hw(h, w, k, k, stride, self.pad)
        xp = _nhwc_padded(x, self.pad, -np.inf)
        if train:
            flat = _gather_windows(xp, k, k, stride, oh, ow).reshape(b, oh, ow, c, k * k)
            arg = np.argmax(flat, axis=-1)
            out = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]
            self._cache = (arg, x.shape, oh, ow)
        else:
            # np.maximum returns its second operand on a tie, so the
            # running maximum keeps the earlier element (also for -0.0 / +0.0)
            win = _windows(xp, k, k, stride, oh, ow)
            out = win[..., 0, 0].copy()
            for i in range(k):
                for j in range(k):
                    if i or j:
                        np.maximum(win[..., i, j], out, out=out)
        return _check(out.transpose(0, 3, 1, 2))

    def backward(self, dy):
        arg, x_shape, oh, ow = self._cache
        k, stride = self.spec.k, self.spec.stride
        dyn = dy.transpose(0, 2, 3, 1)

        def routed(i, j):       # each window's gradient goes to its argmax
            return np.where(arg == i * k + j, dyn, 0.0)

        return _sum_windows(routed, x_shape, k, k, stride, self.pad, oh, ow)


class Relu:
    def __init__(self):
        self.params = {}
        self.grads = {}
        self._cache = None

    def forward(self, x, train=False):
        out = np.maximum(x, 0.0)
        if train:
            self._cache = x > 0.0
        return out

    def backward(self, dy):
        return dy * self._cache


class Inception:
    """Parallel 1x1 / 1x1->3x3 / pool->1x1 branches concatenated on channels.

    Branch convolutions carry no hidden activations; nonlinearities are
    explicit relu layers in the surrounding stack.
    """

    def __init__(self, spec: InceptionSpec, c_in: int):
        self.spec = spec
        self.c_in = c_in
        self.conv1 = Conv2d(ConvSpec(1, 1, c_in, spec.b1))
        self.conv3r = Conv2d(ConvSpec(1, 1, c_in, spec.b3r))
        self.conv3 = Conv2d(ConvSpec(3, 3, spec.b3r, spec.b3, 1, 1))
        self.pool = MaxPool(PoolSpec(3, 1), pad=1)
        self.proj = Conv2d(ConvSpec(1, 1, c_in, spec.bp))
        self._convs = [self.conv1, self.conv3r, self.conv3, self.proj]

    @property
    def params(self):
        names = ["b1", "b3r", "b3", "bp"]
        return {
            f"{n}_{k}": v for n, cv in zip(names, self._convs) for k, v in cv.params.items()
        }

    @property
    def grads(self):
        names = ["b1", "b3r", "b3", "bp"]
        return {
            f"{n}_{k}": v for n, cv in zip(names, self._convs) for k, v in cv.grads.items()
        }

    def init_weights(self, rng):
        for cv in self._convs:
            cv.init_weights(rng)

    def forward(self, x, train=False):
        y1 = self.conv1.forward(x, train)
        y2 = self.conv3.forward(self.conv3r.forward(x, train), train)
        y3 = self.proj.forward(self.pool.forward(x, train), train)
        if not (y1.shape[2:] == y2.shape[2:] == y3.shape[2:]):
            raise ShapeError("inception branch spatial sizes diverged")
        return np.concatenate([y1, y2, y3], axis=1)

    def backward(self, dy):
        s = self.spec
        d1 = dy[:, : s.b1]
        d2 = dy[:, s.b1 : s.b1 + s.b3]
        d3 = dy[:, s.b1 + s.b3 :]
        dx = self.conv1.backward(d1)
        dx += self.conv3r.backward(self.conv3.backward(d2))
        dx += self.pool.backward(self.proj.backward(d3))
        return dx


class Fc:
    def __init__(self, spec: FcSpec):
        self.spec = spec
        self.params = {"w": np.zeros((spec.n_out, spec.n_in)), "b": np.zeros(spec.n_out)}
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}
        self._cache = None

    def init_weights(self, rng):
        self.params["w"][:] = rng.normal(0.0, np.sqrt(2.0 / self.spec.n_in), self.params["w"].shape)
        self.params["b"][:] = 0.0

    def forward(self, x, train=False):
        flat = x.reshape(x.shape[0], -1)
        if flat.shape[1] != self.spec.n_in:
            raise ShapeError(f"fc expected {self.spec.n_in} inputs, got {flat.shape[1]}")
        if train:
            self._cache = (flat, x.shape)
        return _check(flat @ self.params["w"].T + self.params["b"])

    def backward(self, dy):
        flat, x_shape = self._cache
        self.grads["w"][:] = dy.T @ flat
        self.grads["b"][:] = dy.sum(axis=0)
        return (dy @ self.params["w"]).reshape(x_shape)


def build_layer(spec: LayerSpec, c_in: int):
    if isinstance(spec, ConvSpec):
        return Conv2d(spec)
    if isinstance(spec, PoolSpec):
        return MaxPool(spec)
    if isinstance(spec, ReluSpec):
        return Relu()
    if isinstance(spec, InceptionSpec):
        return Inception(spec, c_in)
    if isinstance(spec, FcSpec):
        return Fc(spec)
    raise InvalidInput(f"unknown layer spec {spec!r}")


# ---------------------------------------------------------------------------
# network
# ---------------------------------------------------------------------------


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


class Network:
    """An ordered layer stack with shared forward/backward plumbing."""

    def __init__(self, specs, input_c: int, input_hw: tuple[int, int] | None = None):
        self.specs = tuple(specs)
        self.input_c = input_c
        self.input_hw = input_hw
        self.layers = []
        c = input_c
        for s in self.specs:
            self.layers.append(build_layer(s, c))
            if isinstance(s, (ConvSpec, InceptionSpec)):
                c = s.c_out
            elif isinstance(s, FcSpec):
                c = s.n_out

    @classmethod
    def from_netspec(cls, spec: NetworkSpec, seed: int | None = None) -> "Network":
        spec.validate()
        net = cls(spec.layers, spec.input_c, (spec.input_h, spec.input_w))
        if seed is not None:
            net.init_weights(seed)
        return net

    def init_weights(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        for layer in self.layers:
            if hasattr(layer, "init_weights"):
                layer.init_weights(rng)

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x, train)
        return x

    def backward(self, dy: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            dy = layer.backward(dy)
        return dy

    def parameters(self):
        """(layer_index, name, param, grad) tuples in serialization order."""
        out = []
        for i, layer in enumerate(self.layers):
            p, g = layer.params, layer.grads
            for name in p:
                out.append((i, name, p[name], g[name]))
        return out

    def sgd_step(self, lr: float) -> None:
        for _, _, p, g in self.parameters():
            p -= lr * g

    def param_count(self) -> int:
        return sum(p.size for _, _, p, _ in self.parameters())

    def cast(self, dtype) -> "Network":
        """Clone with parameters converted to dtype (float32 inference is
        permitted; training and gradient checks stay in float64)."""

        def owners(layer):
            return layer._convs if isinstance(layer, Inception) else [layer]

        other = Network(self.specs, self.input_c, self.input_hw)
        for src_layer, dst_layer in zip(self.layers, other.layers):
            for src, dst in zip(owners(src_layer), owners(dst_layer)):
                for key in list(src.params.keys()):
                    dst.params[key] = src.params[key].astype(dtype)
                    dst.grads[key] = np.zeros_like(dst.params[key])
        return other

    def save_weights(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(WEIGHT_MAGIC)
            for _, _, p, _ in self.parameters():
                fh.write(np.ascontiguousarray(p, dtype="<f8").tobytes())

    def load_weights(self, path) -> None:
        with open(path, "rb") as fh:
            if fh.read(16) != WEIGHT_MAGIC:
                raise FormatError(f"{path}: bad weight file magic")
            for _, _, p, _ in self.parameters():
                buf = fh.read(p.size * 8)
                if len(buf) != p.size * 8:
                    raise FormatError(f"{path}: truncated weight file")
                p[:] = np.frombuffer(buf, dtype="<f8").reshape(p.shape)
            if fh.read(1):
                raise FormatError(f"{path}: trailing bytes in weight file")


# ---------------------------------------------------------------------------
# patch scoring and training
# ---------------------------------------------------------------------------


@dataclass
class ScoreMap:
    """Dense per-pixel scores; mask marks the pixels that were actually scored."""

    scores: np.ndarray     # (H, W) float64 in [0, 1]
    mask: np.ndarray       # (H, W) bool


def patch_centers(image_h: int, image_w: int, patch_h: int, patch_w: int, stride: int):
    """(cy, cx) grid of patch centers whose full patch fits the image."""
    ys = np.arange(0, image_h - patch_h + 1, stride) + patch_h // 2
    xs = np.arange(0, image_w - patch_w + 1, stride) + patch_w // 2
    return ys, xs


def score_map(image: np.ndarray, net: Network, stride: int = 4, roi=None, batch: int = 128) -> ScoreMap:
    """Positive-class softmax probability at every stride-spaced patch center.

    Pixels never scored (outside the grid, outside the valid patch region,
    or outside an optional region of interest) hold score 0 and are not in
    the mask. Raises InputTooSmall when the image cannot fit one patch.
    """
    if stride < 1:
        raise InvalidInput("stride must be >= 1")
    if net.input_hw is None:
        raise InvalidInput("network has no declared input patch size")
    ph, pw = net.input_hw
    img = np.asarray(image)
    h, w = img.shape[:2]
    if h < ph or w < pw:
        raise InputTooSmall(f"image {h}x{w} smaller than patch {ph}x{pw}")
    ys, xs = patch_centers(h, w, ph, pw, stride)
    if roi is not None:
        ys = ys[(roi.y_min <= ys) & (ys < roi.y_max)]
        xs = xs[(roi.x_min <= xs) & (xs < roi.x_max)]
    out = ScoreMap(np.zeros((h, w)), np.zeros((h, w), dtype=bool))
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
        out.scores[ry, rx] = softmax(net.forward(patches))[:, 1]
    out.mask[cy, cx] = True
    return out


def densify_score_map(
    sm: ScoreMap, patch_h: int, patch_w: int, stride: int, roi=None
) -> ScoreMap:
    """Nearest-center fill of a strided score map to per-pixel resolution.

    Strided evaluation is an efficiency trick; downstream 3D filtering
    expects per-pixel scores, so every pixel inherits the score of its
    nearest scored patch center. Pixels whose nearest center was never
    scored (or that fall outside an optional region of interest) stay
    unscored.
    """
    h, w = sm.scores.shape
    ys, xs = patch_centers(h, w, patch_h, patch_w, stride)
    row_near = ys[np.clip(np.round((np.arange(h) - patch_h // 2) / stride).astype(np.intp), 0, len(ys) - 1)]
    col_near = xs[np.clip(np.round((np.arange(w) - patch_w // 2) / stride).astype(np.intp), 0, len(xs) - 1)]
    dense_scores = sm.scores[np.ix_(row_near, col_near)]
    dense_mask = sm.mask[np.ix_(row_near, col_near)]
    if roi is not None:
        window = np.zeros((h, w), dtype=bool)
        window[roi.y_min : roi.y_max, roi.x_min : roi.x_max] = True
        dense_mask = dense_mask & window
    dense_scores = np.where(dense_mask, dense_scores, 0.0)
    return ScoreMap(dense_scores, dense_mask)


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy loss and its gradient with respect to the logits."""
    probs = softmax(logits)
    n = len(labels)
    loss = -np.mean(np.log(np.maximum(probs[np.arange(n), labels], 1e-300)))
    dlogits = probs.copy()
    dlogits[np.arange(n), labels] -= 1.0
    return float(loss), dlogits / n


def backward_and_step(net: Network, patches: np.ndarray, labels: np.ndarray, lr: float) -> float:
    """One SGD step on a batch of (B, C, H, W) patches with {0, 1} labels."""
    patches = np.asarray(patches, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.intp)
    if patches.shape[0] == 0:
        raise EmptyInput("empty training batch")
    logits = net.forward(patches, train=True)
    loss, dlogits = cross_entropy(logits, labels)
    net.backward(dlogits)
    net.sgd_step(lr)
    return loss


def train_network(
    net: Network,
    patches: np.ndarray,
    labels: np.ndarray,
    epochs: int = 6,
    batch: int = 16,
    lr: float = 0.02,
    lr_decay: float = 1.0,
    seed: int = 0,
    log=None,
) -> list[float]:
    """Shuffled mini-batch SGD with optional per-epoch learning-rate decay.

    Returns the mean loss per epoch.
    """
    rng = np.random.default_rng(seed)
    n = len(labels)
    history = []
    step_lr = lr
    for epoch in range(epochs):
        order = rng.permutation(n)
        losses = []
        for start in range(0, n, batch):
            idx = order[start : start + batch]
            losses.append(backward_and_step(net, patches[idx], labels[idx], step_lr))
        history.append(float(np.mean(losses)))
        if log is not None:
            log(f"epoch {epoch + 1}/{epochs}: loss {history[-1]:.4f}")
        step_lr *= lr_decay
    return history
