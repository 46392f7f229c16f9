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
element positions; a 1x1 convolution at stride 1 without padding takes the
channels-last rows as its columns, with no gather. The backward pass sums
into a channels-last float64 buffer, one kernel offset (i, j) at a time in
row-major order, a block of samples at a time so that the window gradients
it reads stay in cache. A training step never forms the gradient with
respect to the input patches: it stops at the first layer's parameter
gradients. Layer outputs are channels-first views of channels-last memory,
so the next layer reads them channels-last without a copy.

Max pooling uses the same windows (padded with -inf). A tie goes to the
first maximal element in row-major window order, -0.0 before +0.0 included:
the forward pass folds the window view with np.maximum(element, running
max), which returns its second operand on a tie; training also takes the
first offset equal to the maximum and routes the gradient to that element.
Where the windows are disjoint (k == stride) and a relu comes directly
before the pool, the pair is one step (_ReluMaxPool) in training and
inference: it folds the pre-relu map and runs the relu on the pooled one,
the same bytes without a full-size relu map or mask.

score_map evaluates the network on a stride grid of patches without
running the leading layers once per patch. Patch offsets are multiples of
the stride, so wherever a layer's cumulative downsampling divides the
stride, a patch's map is a window of the same layer's map over the whole
crop the patches cover (OverFeat's dense evaluation; fast scanning with
max-pooling nets), except where the patch's own zero padding reaches. The
shared trunk is the leading conv / pool run up to the first step whose
downsampling does not divide the stride; at the shipped stride 4 that is
conv1 ... conv3, computed once for the whole grid. What differs per patch
is the ring: the cells whose input window, one axis at a time, leaves the
patch or covers a ring cell one step down (for the shipped spec 1 cell
wide at conv1, 1 at pool1, 2 at conv2, 1 at pool2 and 2 at conv3). Along
each axis a ring cell depends on its patch and a clean cell only on its
absolute position, so a shared level is one array whose rows (and
columns) are the crop's clean strip followed by each patch's ring cells.
Each step gathers its windows once, by row taps x column taps, through
the same im2col columns, matmul and max fold as the per-patch path, so
each score equals that path's on the same patches in the same batches.

The full detector network is described by a NetworkSpec: a text file of
layer lines validated to hold exactly 8 convolutional layers (an inception
module counts as one), of which exactly 2 are inception modules, plus one
fully connected head over 2 classes. Arbitrary layer stacks (without that
shape constraint) remain available for unit-level gradient checking.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from importlib import resources

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._textio import open_text
from .errors import FormatError, InvalidInput

# Weight files start with this 16-byte magic block.
WEIGHT_MAGIC = b"MINC0001" + b"\x00" * 8

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
        """Raises InvalidInput unless every size is >= 1 (paddings >= 0),
        the layers chain, and the network is 8 conv layers (2 of them
        inception) ending in a 2-output fc head."""
        if min(self.input_h, self.input_w, self.input_c) < 1:
            raise InvalidInput(f"input dimensions must be >= 1, got {self.input_h} {self.input_w} {self.input_c}")
        for spec in self.layers:
            for field in fields(spec):
                value, least = getattr(spec, field.name), 0 if field.name == "pad" else 1
                if value < least:
                    kind = type(spec).__name__.removesuffix("Spec").lower()
                    raise InvalidInput(f"{kind} {field.name} must be >= {least}, got {value}")
        n_conv = sum(isinstance(s, (ConvSpec, InceptionSpec)) for s in self.layers)
        n_incep = sum(isinstance(s, InceptionSpec) for s in self.layers)
        n_fc = sum(isinstance(s, FcSpec) for s in self.layers)
        if n_conv != 8 or n_incep != 2 or n_fc != 1:
            raise InvalidInput(
                f"network must have 8 conv layers (2 inception) and 1 fc, "
                f"got {n_conv} conv / {n_incep} inception / {n_fc} fc"
            )
        trace_shapes(self.layers, self.input_c, self.input_h, self.input_w)
        if not isinstance(self.layers[-1], FcSpec):
            raise InvalidInput("final layer must be the fully connected head")
        if self.layers[-1].n_out != 2:
            raise InvalidInput(f"the head must have 2 outputs, got {self.layers[-1].n_out}")


def trace_shapes(specs, c: int, h: int, w: int) -> list[tuple[int, int, int]]:
    """(c, h, w) after each layer; raises InvalidInput on inconsistent chaining."""
    shapes = []
    for spec in specs:
        if isinstance(spec, ConvSpec):
            if spec.c_in != c:
                raise InvalidInput(f"conv expects {spec.c_in} channels, chain gives {c}")
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
                raise InvalidInput(f"fc expects {spec.n_in} inputs, chain gives {c * h * w}")
            c, h, w = spec.n_out, 1, 1
        if h <= 0 or w <= 0:
            raise InvalidInput("spatial size collapsed to zero")
        shapes.append((c, h, w))
    return shapes


# ---------------------------------------------------------------------------
# spec file format
# ---------------------------------------------------------------------------


# each layer keyword and its spec class: a spec line is the keyword, then
# the class's fields in declaration order
_LAYER_KINDS = {"conv": ConvSpec, "pool": PoolSpec, "relu": ReluSpec, "inception": InceptionSpec, "fc": FcSpec}


def parse_netspec(text: str) -> NetworkSpec:
    """Parse the line-per-layer spec format (first line: `input H W C`).

    Raises FormatError on an unknown keyword, a non-integer field, or a line
    without exactly its layer's number of tokens.
    """
    layers = []
    input_hwc = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        keyword, *values = line.split()
        kind = _LAYER_KINDS.get(keyword)
        if kind is None and keyword != "input":
            raise FormatError(f"unknown layer {keyword!r}")
        if len(values) != (3 if kind is None else len(fields(kind))):
            raise FormatError(f"bad spec line {line!r}")
        try:
            values = [int(v) for v in values]
        except ValueError as exc:
            raise FormatError(f"bad spec line {line!r}") from exc
        if kind is None:
            input_hwc = values
        else:
            layers.append(kind(*values))
    if input_hwc is None:
        raise FormatError("spec is missing the `input H W C` line")
    spec = NetworkSpec(*input_hwc, tuple(layers))
    spec.validate()
    return spec


def serialize_netspec(spec: NetworkSpec) -> str:
    keywords = {kind: keyword for keyword, kind in _LAYER_KINDS.items()}
    lines = [f"input {spec.input_h} {spec.input_w} {spec.input_c}"]
    for s in spec.layers:
        lines.append(" ".join([keywords[type(s)], *(str(getattr(s, f.name)) for f in fields(s))]))
    return "\n".join(lines) + "\n"


def load_netspec(path) -> NetworkSpec:
    with open_text(path) as fh:
        return parse_netspec(fh.read())


def default_netspec() -> NetworkSpec:
    """The network shipped with the package, data/default_net.spec."""
    return parse_netspec(resources.files("peduncle").joinpath("data/default_net.spec").read_text())


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
        raise InvalidInput(f"kernel {kh}x{kw} does not fit input {h}x{w} (pad {pad})")
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
    if kh == kw == stride == 1 and not pad:
        # every window is one pixel: the channels-last rows are the columns
        return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).reshape(b * h * w, c), h, w
    cols = _gather_windows(_nhwc_padded(x, pad), kh, kw, stride, oh, ow)
    return cols.reshape(b * oh * ow, c * kh * kw), oh, ow


# _sum_windows adds a few samples at a time, so that the window gradients
# those samples read stay in cache across the kernel offsets: about 1 MiB of
# them, half the L2 cache of the x86-64 host the block size was tuned on.
_SUM_BLOCK_BYTES = 1 << 20


def _sum_windows(window_grad, x_shape, kh, kw, stride, pad, oh, ow):
    """Adjoint of the window view: adds window_grad(s, i, j), the (b, oh,
    ow, c) gradient of element (i, j) of the windows of the samples in
    slice s, into a float64 channels-last buffer, kernel offsets in (i, j)
    order; returns it as (b, c, h, w). Samples own disjoint parts of the
    buffer, so taking them a block at a time keeps each element's order of
    adds."""
    b, c, h, w = x_shape
    dxp = np.zeros((b, h + 2 * pad, w + 2 * pad, c))
    block = max(1, _SUM_BLOCK_BYTES // (oh * ow * c * kh * kw * 8))
    for start in range(0, b, block):
        s = slice(start, start + block)
        for i in range(kh):
            for j in range(kw):
                dxp[s, i : i + stride * oh : stride, j : j + stride * ow : stride] += window_grad(s, i, j)
    return dxp[:, pad : pad + h, pad : pad + w].transpose(0, 3, 1, 2)


def _conv_input_grad(dyr, w, x_shape, stride, pad, oh, ow):
    """(b, c, h, w) gradient of a convolution's input, given its (rows,
    c_out) output gradient and its (c_out, c_in, kh, kw) weights: the
    product with the weights, then the adjoint of _im2col."""
    c_out, c_in, kh, kw = w.shape
    dwin = (dyr @ w.reshape(c_out, -1)).reshape(x_shape[0], oh, ow, c_in, kh, kw)
    return _sum_windows(lambda s, i, j: dwin[s, ..., i, j], x_shape, kh, kw, stride, pad, oh, ow)


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
            raise InvalidInput(f"conv expected (B,{s.c_in},H,W), got {x.shape}")
        cols, oh, ow = _im2col(x, s.kh, s.kw, s.stride, s.pad)
        out = self.affine(cols).reshape(x.shape[0], oh, ow, s.c_out).transpose(0, 3, 1, 2)
        if train:
            self._cache = (cols, x.shape, oh, ow)
        return out

    def affine(self, cols):
        """(rows, c_in * kh * kw) im2col columns -> (rows, c_out) outputs."""
        out = cols @ self.params["w"].reshape(self.spec.c_out, -1).T
        out += self.params["b"]
        return out

    def param_grads(self, dy):
        """Sets the weight and bias gradients; returns dy as (rows, c_out)."""
        cols = self._cache[0]
        dyr = dy.transpose(0, 2, 3, 1).reshape(-1, self.spec.c_out)
        self.grads["w"][:] = (dyr.T @ cols).reshape(self.params["w"].shape)
        self.grads["b"][:] = dyr.sum(axis=0)
        return dyr

    def backward(self, dy):
        _, x_shape, oh, ow = self._cache
        dyr = self.param_grads(dy)
        return _conv_input_grad(dyr, self.params["w"], x_shape, self.spec.stride, self.spec.pad, oh, ow)


def _max_fold(win):
    """Max over the two trailing (window) axes of win, in row-major window order.

    np.maximum returns its second operand on a tie, so the running maximum
    keeps the earlier element (also for -0.0 / +0.0).
    """
    kh, kw = win.shape[-2:]
    out = win[..., 0, 0].copy()
    for i in range(kh):
        for j in range(kw):
            if i or j:
                np.maximum(win[..., i, j], out, out=out)
    return out


def _first_argmax(win, out):
    """Per window, the first row-major offset i * k + j whose element equals
    out, counted as the offsets passed before it, in the smallest unsigned
    type that holds k * k - 1."""
    k = win.shape[-1]
    found = np.zeros(out.shape, dtype=bool)
    arg = np.zeros(out.shape, dtype=np.min_scalar_type(k * k - 1))
    for off in range(k * k - 1):
        found |= win[..., off // k, off % k] == out
        arg += ~found
    return arg


class MaxPool:
    """Max over k x k windows, padded with -inf.

    A tie goes to the first maximal element in row-major window order, in
    the forward value and in the backward routing alike. A disjoint pool
    (k == stride) directly after a relu is one _ReluMaxPool step with it.
    """

    def __init__(self, spec: PoolSpec, pad: int = 0):
        self.spec = spec
        self.pad = pad
        self.params = {}
        self.grads = {}
        self._cache = None

    def forward(self, x, train=False):
        k, stride = self.spec.k, self.spec.stride
        oh, ow = _out_hw(*x.shape[2:], k, k, stride, self.pad)
        win = _windows(_nhwc_padded(x, self.pad, -np.inf), k, k, stride, oh, ow)
        out = _max_fold(win)
        if train:
            self._cache = (_first_argmax(win, out), x.shape, oh, ow)
        return out.transpose(0, 3, 1, 2)

    def backward(self, dy):
        arg, x_shape, oh, ow = self._cache
        k, stride = self.spec.k, self.spec.stride
        dy_bits = np.asarray(dy, dtype=np.float64).transpose(0, 2, 3, 1).view(np.uint64)

        def routed(s, i, j):    # each window's gradient goes to its argmax, as _ReluMaxPool routes it
            return (dy_bits[s] * (arg[s] == i * k + j)).view(np.float64)

        return _sum_windows(routed, x_shape, k, k, stride, self.pad, oh, ow)


class Relu:
    """max(x, 0.0): +0.0 for every x <= 0, -0.0 included. Its gradient is
    dy * (x > 0), so a negative dy at x <= 0 gives -0.0. A relu directly
    before a disjoint pool runs after it instead, in one _ReluMaxPool step."""

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


class _ReluMaxPool:
    """A relu directly followed by a max pool whose windows are disjoint
    (k == stride, no padding), as one step: bit for bit Relu then MaxPool.
    relu(max(x)) equals max(relu(x)): relu is monotone and gives +0.0 for
    every x <= 0, so the relu runs on the pooled map. Where a window's
    maximum is above 0, the pool's argmax over relu(x) is the first maximal
    x; elsewhere every relu output is +0.0 and the argmax is offset 0. The
    gradient at the argmax is (0.0 + dy) * (max > 0), as the pool's add into
    zeros and the relu's mask give it, and +0.0 elsewhere.
    """

    def __init__(self, spec: PoolSpec):
        self.spec, self.params, self.grads, self._cache = spec, {}, {}, None

    def forward(self, x, train=False):
        k = self.spec.k
        oh, ow = _out_hw(*x.shape[2:], k, k, k, 0)
        win = _windows(_nhwc_padded(x, 0), k, k, k, oh, ow)
        top = _max_fold(win)
        if train:
            live = top > 0.0
            arg = _first_argmax(win, top)
            arg *= live
            self._cache = (arg, live, x.shape)
        return np.maximum(top, 0.0).transpose(0, 3, 1, 2)

    def backward(self, dy):
        arg, live, (b, c, h, w) = self._cache
        k = self.spec.k
        _, oh, ow, _ = arg.shape
        g = np.asarray((0.0 + dy.transpose(0, 2, 3, 1)) * live, dtype=np.float64)
        dx = np.zeros((b, h, w, c))
        # g where the slot is the window's argmax, else +0.0: the float64 bit
        # patterns times 1 or 0 keep every value's bits (-0.0 included), with
        # no per-element branch (np.where's, on a random mask, is 2-3x slower)
        g_bits, dx_bits = g.view(np.uint64), dx.view(np.uint64)
        for i in range(k):
            for j in range(k):
                np.multiply(g_bits, arg == i * k + j, out=dx_bits[:, i : i + k * oh : k, j : j + k * ow : k])
        return dx.transpose(0, 3, 1, 2)


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
        self.convs = [self.conv1, self.conv3r, self.conv3, self.proj]

    @property
    def params(self):
        names = ["b1", "b3r", "b3", "bp"]
        return {
            f"{n}_{k}": v for n, cv in zip(names, self.convs) for k, v in cv.params.items()
        }

    @property
    def grads(self):
        names = ["b1", "b3r", "b3", "bp"]
        return {
            f"{n}_{k}": v for n, cv in zip(names, self.convs) for k, v in cv.grads.items()
        }

    def init_weights(self, rng):
        for cv in self.convs:
            cv.init_weights(rng)

    def forward(self, x, train=False):
        y1 = self.conv1.forward(x, train)
        y2 = self.conv3.forward(self.conv3r.forward(x, train), train)
        y3 = self.proj.forward(self.pool.forward(x, train), train)
        if not (y1.shape[2:] == y2.shape[2:] == y3.shape[2:]):
            raise InvalidInput("inception branch spatial sizes diverged")
        return np.concatenate([y1, y2, y3], axis=1)

    def _branch_grads(self, dy):
        s = self.spec
        return dy[:, : s.b1], dy[:, s.b1 : s.b1 + s.b3], dy[:, s.b1 + s.b3 :]

    def param_grads(self, dy):
        """Sets the branch convolutions' gradients, without the input gradient."""
        d1, d2, d3 = self._branch_grads(dy)
        self.conv1.param_grads(d1)
        self.conv3r.param_grads(self.conv3.backward(d2))
        self.proj.param_grads(d3)

    def backward(self, dy):
        d1, d2, d3 = self._branch_grads(dy)
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
            raise InvalidInput(f"fc expected {self.spec.n_in} inputs, got {flat.shape[1]}")
        if train:
            self._cache = (flat, x.shape)
        return flat @ self.params["w"].T + self.params["b"]

    def param_grads(self, dy):
        self.grads["w"][:] = dy.T @ self._cache[0]
        self.grads["b"][:] = dy.sum(axis=0)

    def backward(self, dy):
        self.param_grads(dy)
        return (dy @ self.params["w"]).reshape(self._cache[1])


def _fuses(prev, spec) -> bool:
    """Whether a relu (prev) and the max pool after it run as one
    _ReluMaxPool step: the pool's windows are disjoint (k == stride)."""
    return isinstance(prev, ReluSpec) and isinstance(spec, PoolSpec) and spec.k == spec.stride


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
    """One list of steps, the layers of the specs with each relu + pool pair
    that _fuses as one _ReluMaxPool step, run by training and inference."""

    def __init__(self, specs, input_c: int, input_hw: tuple[int, int] | None = None):
        self.specs = tuple(specs)
        self.input_c = input_c
        self.input_hw = input_hw
        self.layers = []
        c = input_c
        for prev, s in zip((None, *self.specs), self.specs):
            if _fuses(prev, s):
                self.layers[-1] = _ReluMaxPool(s)
            else:
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
        """Sets every parameter gradient; returns the input gradient."""
        for layer in reversed(self.layers):
            dy = layer.backward(dy)
        return dy

    def param_grads(self, dy: np.ndarray) -> None:
        """Sets every parameter gradient as backward does, but stops at the
        first step with parameters: no gradient below it, the input
        gradient included, is formed."""
        steps = self.layers
        owners = [i for i, layer in enumerate(steps) if layer.params]
        if not owners:
            return
        for layer in reversed(steps[owners[0] + 1 :]):
            dy = layer.backward(dy)
        steps[owners[0]].param_grads(dy)

    def parameters(self):
        """(step_index, name, param, grad) tuples in serialization order;
        nothing reads the step index."""
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
            return layer.convs if isinstance(layer, Inception) else [layer]

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
                values = np.frombuffer(buf, dtype="<f8")
                if not np.isfinite(values).all():
                    raise FormatError(f"{path}: non-finite weight")
                p[:] = values.reshape(p.shape)
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


def shared_depth(layers, stride: int) -> int:
    """How many leading steps of net.layers score_map runs once over the
    crop at this stride.

    That is the leading run of conv, pool and fused relu + pool steps (a
    relu on its own, an inception module or the fc head ends it), cut before
    the first step whose cumulative downsampling (the product of the strides
    up to it) does not divide the patch stride, so each patch's map at the
    shared depth starts on a whole cell of the crop's map.
    """
    down = 1
    for i, layer in enumerate(layers):
        if not isinstance(layer, (Conv2d, MaxPool, _ReluMaxPool)):
            return i
        down *= layer.spec.stride
        if stride % down:
            return i
    return len(layers)


def _window(layer):
    """(kh, kw, stride, pad) of a shared step."""
    s = layer.spec
    if isinstance(s, ConvSpec):
        return s.kh, s.kw, s.stride, s.pad
    return s.k, s.k, s.stride, 0


def _clean_span(lo, hi, k, stride, pad):
    """Output cells of one axis whose k-wide input window (starting at
    cell * stride - pad) lies inside the clean input cells [lo, hi)."""
    first = -(-(lo + pad) // stride)
    return first, max(first, (hi + pad - k) // stride + 1)


class _Axis:
    """One axis of a shared level over a line of g patches, q cells apart.

    Along the axis a patch's map has n cells; those in [lo, hi) are clean
    (they equal the crop's map at the patch's offset), the others are its
    ring. The level's positions are first the crop map's clean strip,
    cells lo ... (g - 1) * q + hi - 1, then each patch's ring cells, patch
    by patch; position `length` is the zero padding.
    """

    def __init__(self, n, lo, hi, q, g):
        self.n, self.lo, self.hi, self.q, self.g = n, lo, hi, q, g
        self.strip = (g - 1) * q + hi - lo if hi > lo else 0
        self.ring = n - (hi - lo)
        self.length = self.strip + g * self.ring

    def after(self, k, step, pad):
        """The axis of the level that k-wide windows (starting at cell *
        step - pad) make of this one."""
        return _Axis((self.n + 2 * pad - k) // step + 1, *_clean_span(self.lo, self.hi, k, step, pad),
                     self.q // step, self.g)

    def index(self, patch, pos):
        """Level position of cell pos of the patch's map (broadcast), the
        padding outside the map."""
        clean = pos - self.lo + patch * self.q
        ring = self.strip + patch * self.ring + np.where(pos < self.lo, pos, pos - (self.hi - self.lo))
        return np.where((pos < 0) | (pos >= self.n), self.length,
                        np.where((self.lo <= pos) & (pos < self.hi), clean, ring))

    def taps(self, src, k, step, pad):
        """(length, k) positions of the level src that the windows of this
        level's positions read. A strip cell's window lies in src's strip
        (absolute cells); a ring cell's reads its own patch's cells."""
        t = np.arange(k)
        strip = (self.lo + np.arange(self.strip))[:, None] * step - pad + t - src.lo
        pos = np.arange(self.n)
        ring = pos[(pos < self.lo) | (pos >= self.hi)]
        patch = np.arange(self.g)[:, None, None]
        return np.concatenate([strip, src.index(patch, ring[:, None] * step - pad + t).reshape(-1, k)])


def _take_cells(level, rows, cols):
    """level[rows, cols] of a (rows, columns, c) level, for broadcasting
    position arrays, as one np.take of its cells."""
    return np.take(level.reshape(-1, level.shape[2]), rows * level.shape[1] + cols, axis=0)


class _SharedTrunk:
    """The first shared_depth(net.layers, stride) steps of a network, run
    once over the crop that a grid of patches covers, with each patch's own
    maps read from it.

    A patch's map at every shared step equals the crop's map at the
    patch's offset except on a ring where the patch's own zero padding
    reaches. Along each axis the ring cells depend on the patch and the
    clean ones on the absolute position only, so each level is one
    (rows, columns, c) array whose row and column positions are both laid
    out by an _Axis: the crop's clean strip, then every patch's ring. Its
    cells are the crop's clean map, each ring row's clean cells once per
    patch row, each ring column's once per patch column, and the corners
    per patch. A step gathers the windows of the whole level below, padded
    with one zero row and column, once by row taps x column taps, and
    applies the step's own arithmetic: the same (c, kh, kw) im2col columns
    through Conv2d.affine, or the same max fold (then the relu, for a fused
    relu + pool step).

    The cells equal the per-patch ones as long as BLAS computes each row of
    a product independently of the others. OpenBLAS does so within one
    kernel, but (measured with 0.3.31 on AVX-512 x86-64) takes a
    small-matrix kernel that rounds differently, for inner sizes of 32 and
    up, when rows x outputs is at most about 1200. The shipped network's
    shared products stay above that size even for a one-patch grid (4096
    rows at conv1, 1024 at conv2, 256 at conv3), but its fc head (512 -> 2)
    does not, so a patch's score can depend on its position in the batch.
    Every score equals the per-patch path on the same patches in the same
    batches.
    """

    def __init__(self, net: Network, stride: int, crop: np.ndarray):
        ph, pw = net.input_hw
        self.depth = shared_depth(net.layers, stride)
        ny, nx = (crop.shape[0] - ph) // stride + 1, (crop.shape[1] - pw) // stride + 1
        self.axes = [(_Axis(ph, 0, ph, stride, ny), _Axis(pw, 0, pw, stride, nx))]
        level = crop
        for layer in net.layers[: self.depth]:
            kh, kw, step, pad = _window(layer)
            ay, ax = self.axes[-1]
            by, bx = ay.after(kh, step, pad), ax.after(kw, step, pad)
            rows, cols = by.taps(ay, kh, step, pad), bx.taps(ax, kw, step, pad)
            padded = np.pad(level, ((0, 1), (0, 1), (0, 0)))
            win = _take_cells(padded, rows[:, None, :, None], cols[None, :, None, :]).transpose(0, 1, 4, 2, 3)
            if isinstance(layer, Conv2d):
                level = layer.affine(win.reshape(by.length * bx.length, -1)).reshape(by.length, bx.length, -1)
            else:
                level = _max_fold(win)
                if isinstance(layer, _ReluMaxPool):
                    level = np.maximum(level, 0.0)
            self.axes.append((by, bx))
        self.level = level

    def patch_maps(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """(b, c, h, w) output of the shared steps on the patches in grid
        rows i and columns j."""
        ay, ax = self.axes[-1]
        rows = ay.index(i[:, None, None], np.arange(ay.n)[:, None])
        cols = ax.index(j[:, None, None], np.arange(ax.n))
        return _take_cells(self.level, rows, cols).transpose(0, 3, 1, 2)


def score_map(image: np.ndarray, net: Network, stride: int = 4, roi=None, batch: int = 128) -> ScoreMap:
    """Positive-class softmax probability at every stride-spaced patch center.

    Pixels never scored (outside the grid, outside the valid patch region,
    or outside an optional region of interest) hold score 0 and are not in
    the mask. Raises InvalidInput when the image cannot fit one patch.

    The leading steps of net.layers (shared_depth) run once over the crop
    the patches cover. Each patch's map after them is the crop's map at the
    patch's offset, except on a ring of cells whose receptive field reaches
    the patch's own zero padding; the ring is derived from the steps'
    windows and recomputed once per patch row, patch column or patch, as
    it depends (see _SharedTrunk). The remaining steps run per patch
    in batches of `batch`. Every score is bit-identical to the per-patch
    path on the same patches in the same batches, as far as BLAS computes
    each row of a product on its own (see _SharedTrunk for where OpenBLAS
    does not).
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
    trunk = _SharedTrunk(net, stride, crop.astype(dtype) / dtype.type(255.0))
    for start in range(0, len(cy), batch):
        ry, rx = cy[start : start + batch], cx[start : start + batch]
        x = trunk.patch_maps((ry - ys[0]) // stride, (rx - xs[0]) // stride)
        for layer in net.layers[trunk.depth :]:
            x = layer.forward(x)
        out.scores[ry, rx] = softmax(x)[:, 1]
    out.mask[cy, cx] = True
    return out


def densify_score_map(sm: ScoreMap, patch_h: int, patch_w: int, stride: int) -> ScoreMap:
    """Nearest-center fill of a strided score map to per-pixel resolution.

    Strided evaluation is an efficiency trick; downstream 3D filtering
    expects per-pixel scores, so every pixel inherits the score of its
    nearest scored patch center. Pixels whose nearest center was never
    scored stay unscored.
    """
    h, w = sm.scores.shape
    ys, xs = patch_centers(h, w, patch_h, patch_w, stride)
    row_near = ys[np.clip(np.round((np.arange(h) - patch_h // 2) / stride).astype(np.intp), 0, len(ys) - 1)]
    col_near = xs[np.clip(np.round((np.arange(w) - patch_w // 2) / stride).astype(np.intp), 0, len(xs) - 1)]
    dense_scores = sm.scores[np.ix_(row_near, col_near)]
    dense_mask = sm.mask[np.ix_(row_near, col_near)]
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


def _training_input(patches, labels) -> tuple[np.ndarray, np.ndarray]:
    """(float64 patches, intp labels); raises InvalidInput unless there is
    one label per patch, every label is 0 or 1 and every patch value is
    finite."""
    patches = np.asarray(patches, dtype=np.float64)
    labels = np.asarray(labels)
    if labels.ndim != 1 or len(patches) != len(labels):
        raise InvalidInput(f"{len(patches)} patches but labels of shape {labels.shape}")
    if not ((labels == 0) | (labels == 1)).all():
        raise InvalidInput("training labels must be 0 or 1")
    if not np.isfinite(patches).all():
        raise InvalidInput("non-finite value in the training patches")
    return patches, labels.astype(np.intp)


def backward_and_step(net: Network, patches: np.ndarray, labels: np.ndarray, lr: float) -> float:
    """One SGD step on a batch of (B, C, H, W) patches with {0, 1} labels.

    Raises InvalidInput, before any weight moves, on an empty batch or
    unless there is one label per patch, every label is 0 or 1 and every
    patch value is finite.
    """
    patches, labels = _training_input(patches, labels)
    if len(patches) == 0:
        raise InvalidInput("empty training batch")
    logits = net.forward(patches, train=True)
    loss, dlogits = cross_entropy(logits, labels)
    net.param_grads(dlogits)
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

    Returns the mean loss per epoch. Raises InvalidInput when batch or
    epochs is below 1, when lr or lr_decay is not finite and positive, and
    on the input backward_and_step rejects; every setting, patch and label
    is checked before the first step, so bad input moves no weight.
    """
    if batch < 1:
        raise InvalidInput("batch must be >= 1")
    if epochs < 1:
        raise InvalidInput(f"epochs must be >= 1, got {epochs}")
    for name, value in (("lr", lr), ("lr_decay", lr_decay)):
        if not (np.isfinite(value) and value > 0):
            raise InvalidInput(f"{name} must be finite and positive, got {value!r}")
    patches, labels = _training_input(patches, labels)
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
