"""Tensor engine tests: forward oracles, finite-difference gradients,
parameter counting, patch scoring and weight serialization."""

import os
import subprocess
import sys
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from oracles import (
    MaxPoolReference,
    conv_input_grad_reference,
    conv_reference,
    im2col_reference,
    max_pool_gather_reference,
    max_rel_error,
    numerical_grad,
    param_count,
    reference_kernels,
    runs_layers_one_by_one,
    score_map_per_patch,
)

from peduncle import cloud as pc
from peduncle import minicnn as mc
from peduncle import pipeline as pl
from peduncle import scenegen as sg
from peduncle.errors import FormatError, InvalidInput


def tiny_net(seed=0):
    specs = [
        mc.ConvSpec(3, 3, 2, 3, 1, 1),
        mc.ReluSpec(),
        mc.PoolSpec(2, 2),
        mc.InceptionSpec(2, 2, 3, 2),
        mc.ReluSpec(),
        mc.FcSpec(7 * 4 * 4, 2),
    ]
    net = mc.Network(specs, input_c=2, input_hw=(8, 8))
    net.init_weights(seed)
    assert net.param_count() < 5000
    return net


DEFAULT_SPEC_TEXT = """
input 16 16 3
conv 3 3 3 4 1 1
relu
pool 2 2
conv 3 3 4 4 1 1
relu
conv 3 3 4 4 1 1
relu
pool 2 2
inception 2 2 2 2
relu
conv 3 3 6 4 1 1
relu
inception 2 2 2 2
relu
conv 3 3 6 4 1 1
relu
conv 1 1 4 4 1 0
relu
fc 64 2
"""


class TestConv:
    def test_identity_1x1(self):
        cv = mc.Conv2d(mc.ConvSpec(1, 1, 1, 1))
        cv.params["w"][:] = 1.0
        x = np.random.default_rng(0).normal(size=(2, 1, 5, 5))
        np.testing.assert_array_equal(cv.forward(x), x)

    def test_all_ones_3x3_interior(self):
        cv = mc.Conv2d(mc.ConvSpec(3, 3, 1, 1, 1, 0))
        cv.params["w"][:] = 1.0
        x = np.ones((1, 1, 6, 6))
        out = cv.forward(x)
        np.testing.assert_array_equal(out, np.full((1, 1, 4, 4), 9.0))

    def test_matches_reference(self):
        rng = np.random.default_rng(1)
        for stride, pad, kh, kw in [(1, 0, 3, 3), (2, 1, 3, 4), (1, 2, 5, 3)]:
            cv = mc.Conv2d(mc.ConvSpec(kh, kw, 3, 4, stride, pad))
            cv.init_weights(rng)
            x = rng.normal(size=(2, 3, 9, 10))
            got = cv.forward(x)
            want = conv_reference(x, cv.params["w"], cv.params["b"], stride, pad)
            assert np.abs(got - want).max() < 1e-6

    def test_shape_mismatch(self):
        cv = mc.Conv2d(mc.ConvSpec(3, 3, 2, 4))
        with pytest.raises(InvalidInput, match="conv expected"):
            cv.forward(np.zeros((1, 3, 8, 8)))


class TestInception:
    def test_single_branch_equivalence(self):
        rng = np.random.default_rng(2)
        inc = mc.Inception(mc.InceptionSpec(3, 2, 4, 2), c_in=5)
        inc.init_weights(rng)
        x = rng.normal(size=(2, 5, 6, 6))
        out = inc.forward(x)
        # branch outputs equal running the same convs separately
        b1 = inc.conv1.forward(x)
        b3 = inc.conv3.forward(inc.conv3r.forward(x))
        bp = inc.proj.forward(inc.pool.forward(x))
        np.testing.assert_array_equal(out[:, :3], b1)
        np.testing.assert_array_equal(out[:, 3:7], b3)
        np.testing.assert_array_equal(out[:, 7:], bp)

    def test_output_channel_count(self):
        spec = mc.InceptionSpec(4, 3, 6, 5)
        assert spec.c_out == 15
        inc = mc.Inception(spec, c_in=8)
        x = np.zeros((1, 8, 5, 5))
        assert inc.forward(x).shape == (1, 15, 5, 5)

    def test_spatial_size_preserved(self):
        inc = mc.Inception(mc.InceptionSpec(1, 1, 1, 1), c_in=2)
        x = np.random.default_rng(3).normal(size=(1, 2, 7, 9))
        assert inc.forward(x).shape[2:] == (7, 9)


class TestParamCount:
    """Network.param_count against hand sums and the shape-based oracle."""

    @staticmethod
    def counts(specs, input_c):
        return mc.Network(specs, input_c=input_c).param_count(), param_count(specs)

    def test_single_conv(self):
        assert self.counts([mc.ConvSpec(3, 3, 2, 4)], 2) == (76, 76)

    def test_fc(self):
        assert self.counts([mc.FcSpec(10, 2)], 10) == (22, 22)

    def test_pool_relu_free(self):
        assert self.counts([mc.PoolSpec(2, 2), mc.ReluSpec()], 3) == (0, 0)

    def test_default_spec_hand_sum(self):
        from importlib import resources

        spec = mc.parse_netspec(
            resources.files("peduncle").joinpath("data/default_net.spec").read_text()
        )
        # per-layer hand summation
        expected = (
            (3 * 3 * 3 * 16 + 16)
            + (3 * 3 * 16 * 24 + 24)
            + (3 * 3 * 24 * 32 + 32)
            + ((32 * 16 + 16) + (32 * 12 + 12) + (3 * 3 * 12 * 16 + 16) + (32 * 8 + 8))
            + (3 * 3 * 40 * 48 + 48)
            + ((48 * 24 + 24) + (48 * 16 + 16) + (3 * 3 * 16 * 24 + 24) + (48 * 16 + 16))
            + (3 * 3 * 64 * 64 + 64)
            + (1 * 1 * 64 * 32 + 32)
            + (512 * 2 + 2)
        )
        assert param_count(spec) == expected == 77390
        net = mc.Network.from_netspec(spec)
        assert net.param_count() == expected

    def test_network_matches_spec_count(self):
        net = tiny_net()
        assert net.param_count() == param_count(net.specs)


class TestNetworkSpecFile:
    def test_parse_validate_roundtrip(self):
        spec = mc.parse_netspec(DEFAULT_SPEC_TEXT)
        assert spec.input_h == 16 and spec.layers[-1].n_out == 2
        text = mc.serialize_netspec(spec)
        again = mc.parse_netspec(text)
        assert again == spec

    def test_wrong_conv_count_rejected(self):
        bad = DEFAULT_SPEC_TEXT.replace("conv 1 1 4 4 1 0\nrelu\n", "")
        with pytest.raises(InvalidInput, match="8 conv layers"):
            mc.parse_netspec(bad.replace("fc 64 2", "fc 256 2"))

    @pytest.mark.parametrize("n_out", [1, 3])
    def test_head_without_two_classes_rejected(self, n_out):
        text = resources.files("peduncle").joinpath("data/default_net.spec").read_text()
        with pytest.raises(InvalidInput, match="2 outputs"):
            mc.parse_netspec(text.replace("fc 512 2", f"fc 512 {n_out}"))

    @pytest.mark.parametrize(
        "line,bad,message",
        [
            ("pool 2 2", "pool 2 0", "pool stride must be >= 1"),
            ("pool 2 2", "pool 0 2", "pool k must be >= 1"),
            ("conv 3 3 3 4 1 1", "conv 3 3 3 4 0 1", "conv stride must be >= 1"),
            ("conv 3 3 3 4 1 1", "conv 0 3 3 4 1 1", "conv kh must be >= 1"),
            ("conv 3 3 3 4 1 1", "conv 3 0 3 4 1 1", "conv kw must be >= 1"),
            ("conv 3 3 3 4 1 1", "conv 3 3 3 4 1 -1", "conv pad must be >= 0"),
            ("conv 3 3 3 4 1 1", "conv 3 3 0 4 1 1", "conv c_in must be >= 1"),
            ("inception 2 2 2 2", "inception 0 2 2 4", "inception b1 must be >= 1"),
            ("inception 2 2 2 2", "inception 2 0 2 2", "inception b3r must be >= 1"),
            ("fc 64 2", "fc 0 2", "fc n_in must be >= 1"),
            ("input 16 16 3", "input 0 16 3", "input dimensions must be >= 1"),
        ],
    )
    def test_sizes_below_one_rejected(self, line, bad, message):
        with pytest.raises(InvalidInput, match=message):
            mc.parse_netspec(DEFAULT_SPEC_TEXT.replace(line, bad, 1))

    def test_channel_chain_mismatch_rejected(self):
        bad = DEFAULT_SPEC_TEXT.replace("conv 3 3 4 4 1 1", "conv 3 3 5 4 1 1", 1)
        with pytest.raises(InvalidInput, match="conv expects 5 channels"):
            mc.parse_netspec(bad)

    def test_bad_line_rejected(self):
        bad = [
            "input 8 8 3\nconv nope\n",
            DEFAULT_SPEC_TEXT.replace("conv 3 3 3 4 1 1", "conv 3 3 3 4 1 1 99", 1),
            DEFAULT_SPEC_TEXT.replace("relu", "relu extra", 1),
            DEFAULT_SPEC_TEXT.replace("pool 2 2", "pool 2 2 7", 1),
            DEFAULT_SPEC_TEXT.replace("pool 2 2", "pool 2", 1),
            DEFAULT_SPEC_TEXT.replace("input 16 16 3", "input 16 16 3 1", 1),
            DEFAULT_SPEC_TEXT.replace("inception 2 2 2 2", "inception 2 2 2 2 2", 1),
            DEFAULT_SPEC_TEXT.replace("fc 64 2", "fc 64 2 junk", 1),
        ]
        for text in bad:
            assert text != DEFAULT_SPEC_TEXT
            with pytest.raises(FormatError):
                mc.parse_netspec(text)


class TestGradients:
    def test_each_layer_type_in_isolation(self):
        rng = np.random.default_rng(4)
        cases = [
            ([mc.ConvSpec(3, 3, 2, 3, 1, 1)], (2, 2, 6, 6)),
            ([mc.ConvSpec(3, 3, 2, 2, 2, 0)], (2, 2, 7, 7)),
            ([mc.PoolSpec(2, 2)], (2, 3, 6, 6)),
            ([mc.ReluSpec()], (2, 3, 5, 5)),
            ([mc.InceptionSpec(2, 2, 2, 2)], (2, 3, 5, 5)),
            ([mc.FcSpec(18, 4)], (3, 2, 3, 3)),
        ]
        for specs, shape in cases:
            net = mc.Network(specs, input_c=shape[1], input_hw=shape[2:])
            net.init_weights(7)
            x = rng.normal(size=shape)
            labels = rng.integers(0, 2, shape[0])
            head = mc.Fc(mc.FcSpec(int(np.prod(net.forward(x).shape[1:])), 2))
            head.init_weights(np.random.default_rng(8))

            def loss_fn():
                logits = head.forward(net.forward(x, train=True), train=True)
                return mc.cross_entropy(logits, labels)[0]

            logits = head.forward(net.forward(x, train=True), train=True)
            _, dl = mc.cross_entropy(logits, labels)
            net.backward(head.backward(dl))
            for _, name, p, g in net.parameters():
                assert max_rel_error(numerical_grad(loss_fn, p), g) < 1e-3, (specs, name)

    def test_end_to_end_small_net(self):
        rng = np.random.default_rng(5)
        net = tiny_net(seed=1)
        x = rng.normal(size=(3, 2, 8, 8))
        labels = np.array([0, 1, 1])

        def loss_fn():
            return mc.cross_entropy(net.forward(x, train=True), labels)[0]

        _, dl = mc.cross_entropy(net.forward(x, train=True), labels)
        dx = net.backward(dl)
        for _, name, p, g in net.parameters():
            assert max_rel_error(numerical_grad(loss_fn, p), g) < 1e-3, name
        assert max_rel_error(numerical_grad(loss_fn, x), dx) < 1e-3

    def test_conv_relu_pool_conv_on_odd_map(self):
        """Parameter and input gradients through training's fused relu +
        pool step, on a map whose last row and column lie in no window."""
        rng = np.random.default_rng(43)
        specs = [mc.ConvSpec(3, 3, 2, 3, 1, 1), mc.ReluSpec(), mc.PoolSpec(2, 2), mc.ConvSpec(3, 3, 3, 2, 1, 1)]
        net = mc.Network([*specs, mc.FcSpec(2 * 3 * 4, 2)], input_c=2, input_hw=(7, 9))
        net.init_weights(44)
        assert not runs_layers_one_by_one(net)
        x = rng.normal(size=(2, 2, 7, 9))
        labels = np.array([0, 1])

        def loss_fn():
            return mc.cross_entropy(net.forward(x, train=True), labels)[0]

        _, dl = mc.cross_entropy(net.forward(x, train=True), labels)
        dx = net.backward(dl)
        for _, name, p, g in net.parameters():
            assert max_rel_error(numerical_grad(loss_fn, p), g) < 1e-3, name
        assert max_rel_error(numerical_grad(loss_fn, x), dx) < 1e-3

    def test_zero_learning_rate_freezes_weights(self):
        rng = np.random.default_rng(6)
        net = tiny_net(seed=2)
        before = [p.copy() for _, _, p, _ in net.parameters()]
        mc.backward_and_step(net, rng.normal(size=(4, 2, 8, 8)), np.array([0, 1, 0, 1]), lr=0.0)
        for old, (_, _, p, _) in zip(before, net.parameters()):
            np.testing.assert_array_equal(old, p)

    def test_single_example_closed_form_loss(self):
        # logistic head only: loss must equal -log softmax(correct)
        net = mc.Network([mc.FcSpec(4, 2)], input_c=1, input_hw=(2, 2))
        net.init_weights(3)
        x = np.random.default_rng(7).normal(size=(1, 1, 2, 2))
        logits = net.forward(x)[0]
        z = logits - logits.max()
        expected = -np.log(np.exp(z[1]) / np.exp(z).sum())
        loss = mc.backward_and_step(net, x, np.array([1]), lr=0.0)
        assert loss == pytest.approx(float(expected), abs=1e-12)


class TestScoreMap:
    def test_two_patch_tiling(self):
        spec = mc.parse_netspec(DEFAULT_SPEC_TEXT)
        net = mc.Network.from_netspec(spec)
        img = np.random.default_rng(8).integers(0, 256, (16, 32, 3)).astype(np.uint8)
        sm = mc.score_map(img, net, stride=16)
        assert sm.mask.sum() == 2

    def test_zero_weights_give_half(self):
        spec = mc.parse_netspec(DEFAULT_SPEC_TEXT)
        net = mc.Network.from_netspec(spec)  # zero weights
        img = np.random.default_rng(9).integers(0, 256, (24, 24, 3)).astype(np.uint8)
        sm = mc.score_map(img, net, stride=4)
        assert sm.mask.any()
        np.testing.assert_array_equal(sm.scores[sm.mask], 0.5)
        assert sm.scores[~sm.mask].sum() == 0.0

    def test_scores_in_unit_interval(self):
        spec = mc.parse_netspec(DEFAULT_SPEC_TEXT)
        net = mc.Network.from_netspec(spec, seed=11)
        img = np.random.default_rng(10).integers(0, 256, (20, 28, 3)).astype(np.uint8)
        sm = mc.score_map(img, net, stride=4)
        assert (sm.scores[sm.mask] >= 0).all() and (sm.scores[sm.mask] <= 1).all()

    def test_too_small_image(self):
        spec = mc.parse_netspec(DEFAULT_SPEC_TEXT)
        net = mc.Network.from_netspec(spec)
        with pytest.raises(InvalidInput, match="smaller than patch"):
            mc.score_map(np.zeros((8, 8, 3), dtype=np.uint8), net, stride=4)

    def test_batch_invariance(self):
        spec = mc.parse_netspec(DEFAULT_SPEC_TEXT)
        net = mc.Network.from_netspec(spec, seed=12)
        img = np.random.default_rng(11).integers(0, 256, (24, 40, 3)).astype(np.uint8)
        a = mc.score_map(img, net, stride=8, batch=128)
        b = mc.score_map(img, net, stride=8, batch=1)
        assert np.abs(a.scores - b.scores).max() < 1e-6
        np.testing.assert_array_equal(a.mask, b.mask)

    def test_translation_consistency(self):
        """Rolling the image by one stride along either axis moves the score
        of every patch that reads no wrapped pixels one grid step along it.

        A moved patch also moves in its batch, and the fc head's product
        (64 -> 2 here) is small enough for OpenBLAS's small-matrix kernel,
        whose rounding depends on the row's position (see _SharedTrunk), so
        the scores are held to a tolerance instead of to the byte."""
        spec = mc.parse_netspec(DEFAULT_SPEC_TEXT)
        net = mc.Network.from_netspec(spec, seed=13)
        stride, h, w = 4, 32, 48
        img = np.random.default_rng(12).integers(0, 256, (h, w, 3)).astype(np.uint8)
        a = mc.score_map(img, net, stride=stride)
        ys, xs = mc.patch_centers(h, w, 16, 16, stride)
        for axis in (0, 1):
            b = mc.score_map(np.roll(img, stride, axis=axis), net, stride=stride)
            moved = 0
            for cy in ys:
                for cx in xs:
                    to = (cy + stride, cx) if axis == 0 else (cy, cx + stride)
                    # the moved patch reads [to - 8, to + 8) along the axis;
                    # the rolled image's pixels [0, stride) are the wrapped ones
                    if to[axis] + 8 > (h, w)[axis] or to[axis] - 8 < stride:
                        continue
                    assert b.mask[to]
                    assert b.scores[to] == pytest.approx(a.scores[cy, cx], abs=1e-9)
                    moved += 1
            assert moved == (len(ys) - (axis == 0)) * (len(xs) - (axis == 1))

    def test_densify_nearest_fill(self):
        sm = mc.ScoreMap(np.zeros((20, 20)), np.zeros((20, 20), dtype=bool))
        ys, xs = mc.patch_centers(20, 20, 8, 8, 4)
        rng = np.random.default_rng(13)
        for cy in ys:
            for cx in xs:
                sm.scores[cy, cx] = rng.uniform()
                sm.mask[cy, cx] = True
        dense = mc.densify_score_map(sm, 8, 8, 4)
        assert dense.mask.all()
        # each center keeps its own score
        for cy in ys:
            for cx in xs:
                assert dense.scores[cy, cx] == sm.scores[cy, cx]
        # a pixel one step right of a center copies that center
        assert dense.scores[ys[0], xs[0] + 1] == sm.scores[ys[0], xs[0]]


class TestWeightsFile:
    def test_roundtrip_bit_identical(self, tmp_path):
        spec = mc.parse_netspec(DEFAULT_SPEC_TEXT)
        net = mc.Network.from_netspec(spec, seed=14)
        path = tmp_path / "w.bin"
        net.save_weights(path)
        other = mc.Network.from_netspec(spec)
        other.load_weights(path)
        for (_, _, p1, _), (_, _, p2, _) in zip(net.parameters(), other.parameters()):
            np.testing.assert_array_equal(p1, p2)
        img = np.random.default_rng(15).integers(0, 256, (16, 16, 3)).astype(np.uint8)
        a = mc.score_map(img, net, stride=16)
        b = mc.score_map(img, other, stride=16)
        np.testing.assert_array_equal(a.scores, b.scores)

    def test_magic_is_16_bytes(self, tmp_path):
        assert len(mc.WEIGHT_MAGIC) == 16
        spec = mc.parse_netspec(DEFAULT_SPEC_TEXT)
        net = mc.Network.from_netspec(spec)
        path = tmp_path / "w.bin"
        net.save_weights(path)
        with open(path, "rb") as fh:
            assert fh.read(16) == mc.WEIGHT_MAGIC

    def test_truncated_rejected(self, tmp_path):
        spec = mc.parse_netspec(DEFAULT_SPEC_TEXT)
        net = mc.Network.from_netspec(spec)
        path = tmp_path / "w.bin"
        net.save_weights(path)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(FormatError):
            net.load_weights(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "w.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        spec = mc.parse_netspec(DEFAULT_SPEC_TEXT)
        with pytest.raises(FormatError):
            mc.Network.from_netspec(spec).load_weights(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_rejected(self, tmp_path, bad):
        spec = mc.parse_netspec(DEFAULT_SPEC_TEXT)
        net = mc.Network.from_netspec(spec, seed=16)
        _, _, p, _ = list(net.parameters())[-1]
        p.flat[-1] = bad
        path = tmp_path / "w.bin"
        net.save_weights(path)
        with pytest.raises(FormatError):
            mc.Network.from_netspec(spec).load_weights(path)


class TestTraining:
    def test_loss_decreases_on_separable_patches(self):
        rng = np.random.default_rng(16)
        net = tiny_net(seed=4)
        pos = rng.normal(0.8, 0.05, (20, 2, 8, 8))
        neg = rng.normal(0.2, 0.05, (20, 2, 8, 8))
        patches = np.concatenate([pos, neg])
        labels = np.concatenate([np.ones(20, dtype=np.intp), np.zeros(20, dtype=np.intp)])
        history = mc.train_network(net, patches, labels, epochs=8, batch=8, lr=0.05, seed=0)
        assert history[-1] < history[0]
        preds = np.argmax(net.forward(patches), axis=1)
        assert (preds == labels).mean() > 0.9

    def test_empty_batch_raises(self):
        net = tiny_net()
        with pytest.raises(InvalidInput, match="empty training batch"):
            mc.backward_and_step(net, np.zeros((0, 2, 8, 8)), np.zeros(0, dtype=int), 0.1)


class TestDebugMode:
    def test_cast_float32_scores_close(self):
        net = tiny_net(seed=6)
        net32 = net.cast(np.float32)
        x = np.random.default_rng(20).normal(size=(2, 2, 8, 8))
        a = net.forward(x)
        b = net32.forward(x.astype(np.float32))
        assert b.dtype == np.float32
        assert np.abs(a - b).max() < 1e-4


# ---------------------------------------------------------------------------
# window-view kernels against the previous kernels, bit for bit
# ---------------------------------------------------------------------------

DTYPES = [np.float32, np.float64]


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


def assert_fused_step_matches_reference(x, k, draw_dy):
    """The fused relu + k x k disjoint pool step on x equals Relu then the
    reference pool byte for byte: the forward value, where each window's
    gradient goes and the input gradient for the dy that draw_dy(shape)
    gives."""
    relu, ref = mc.Relu(), MaxPoolReference(mc.PoolSpec(k, k))
    want = ref.forward(relu.forward(x, train=True), train=True)
    step = mc._ReluMaxPool(mc.PoolSpec(k, k))
    assert_same_bytes(step.forward(x, train=True), want)
    # the reference's argmax runs over (b, c, oh, ow) windows
    ref_arg = ref._cache[0].reshape(want.shape).transpose(0, 2, 3, 1)
    assert_same_bytes(step._cache[0], ref_arg.astype(np.min_scalar_type(k * k - 1)))
    dy = draw_dy(want.shape)
    assert_same_bytes(step.backward(dy), relu.backward(ref.backward(dy)))


def signed_zeros(x, rng):
    """x with each exact zero given a random sign."""
    zero = x == 0
    x[zero] = np.where(rng.random(int(zero.sum())) < 0.5, -0.0, 0.0)
    return x


def tie_heavy(shape, rng, dtype):
    """Few distinct values: constant planes, rows of exact zeros and -0.0
    next to +0.0, so most pooling windows hold a tie."""
    x = rng.choice([-1.0, 0.0, 0.0, 1.0], size=shape)
    x[:, 0] = 0.5                    # a constant plane per sample
    x[:, :, 1::3] = 0.0              # rows of zeros
    x = signed_zeros(x, rng)
    x[0, -1] = -0.0                  # a plane of negative zeros
    return x.astype(dtype)


def pool_inputs(shape, dtype):
    rng = np.random.default_rng(31)
    yield rng.normal(size=shape).astype(dtype)
    yield tie_heavy(shape, rng, dtype)


# (k, stride, pad, input shape): the shipped 2x2/2 pools (even and odd
# sizes), the inception 3x3/1 pool with -inf padding, and 3x3/2
POOL_CASES = [
    (2, 2, 0, (2, 3, 8, 8)),
    (2, 2, 0, (2, 3, 7, 9)),
    (3, 1, 1, (2, 3, 6, 7)),
    (3, 2, 0, (2, 2, 9, 7)),
]


def assert_conv_matches_reference(spec, x):
    """Conv2d forward output, input gradient and parameter gradients equal
    those of the reference kernels byte for byte."""

    def run():
        cv = mc.Conv2d(spec)
        cv.init_weights(np.random.default_rng(35))
        for key in cv.params:
            cv.params[key] = cv.params[key].astype(x.dtype)
        y = cv.forward(x, train=True)
        dx = cv.backward(np.linspace(-1, 1, y.size).reshape(y.shape).astype(x.dtype))
        return y, dx, cv.grads["w"], cv.grads["b"]

    new = run()
    with reference_kernels():
        ref = run()
    for got, want in zip(new, ref):
        assert_same_bytes(got, want)


class TestKernelsMatchReference:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("k,stride,pad,shape", POOL_CASES)
    def test_pool_forward_backward(self, dtype, k, stride, pad, shape):
        rng = np.random.default_rng(32)
        for x in pool_inputs(shape, dtype):
            new = mc.MaxPool(mc.PoolSpec(k, stride), pad=pad)
            ref = MaxPoolReference(mc.PoolSpec(k, stride), pad=pad)
            want = ref.forward(x, train=True)
            assert_same_bytes(new.forward(x), want)
            assert_same_bytes(new.forward(x, train=True), want)
            for dy in (rng.normal(size=want.shape), tie_heavy(want.shape, rng, np.float64)):
                dy = dy.astype(dtype)
                assert_same_bytes(new.backward(dy), ref.backward(dy))

    @settings(max_examples=300)
    @given(data=st.data(), k=st.integers(2, 3), stride=st.integers(1, 2), pad=st.integers(0, 1),
           dtype=st.sampled_from(DTYPES))
    def test_pool_matches_gather_path_on_ties(self, data, k, stride, pad, dtype):
        """One value path for training and inference: the forward value and
        the training argmax equal the previous gather + argmax path, and the
        backward pass the reference layer's, byte for byte."""
        dims = st.integers(max(k - 2 * pad, 1), 7)
        shape = (data.draw(st.integers(1, 2)), data.draw(st.integers(1, 3)), data.draw(dims), data.draw(dims))
        ties = st.sampled_from([-1.0, -0.0, 0.0, 0.5])
        x = data.draw(hnp.arrays(dtype, shape, elements=ties))
        want, want_arg = max_pool_gather_reference(x, k, stride, pad)
        pool = mc.MaxPool(mc.PoolSpec(k, stride), pad=pad)
        assert_same_bytes(pool.forward(x), want)
        assert_same_bytes(pool.forward(x, train=True), want)
        assert_same_bytes(pool._cache[0], want_arg.astype(np.min_scalar_type(k * k - 1)))
        ref = MaxPoolReference(mc.PoolSpec(k, stride), pad=pad)
        ref.forward(x, train=True)
        dy = data.draw(hnp.arrays(dtype, want.shape, elements=st.sampled_from([-1.0, -0.0, 0.0, 2.0])))
        assert_same_bytes(pool.backward(dy), ref.backward(dy))

    @settings(max_examples=300)
    @given(data=st.data(), k=st.integers(2, 3), dtype=st.sampled_from(DTYPES))
    def test_fused_relu_pool_matches_reference(self, data, k, dtype):
        """Training's relu + disjoint pool step equals Relu then the
        reference pool byte for byte: the forward value, where each window's
        gradient goes and the input gradient, on tie-heavy maps (windows
        whose maximum is <= 0 included) whose last rows or columns may lie in
        no window."""
        dims = st.integers(k, 3 * k + 1)
        shape = (data.draw(st.integers(1, 2)), data.draw(st.integers(1, 3)), data.draw(dims), data.draw(dims))
        x = data.draw(hnp.arrays(dtype, shape, elements=st.sampled_from([-1.0, -0.0, 0.0, 0.5])))

        def dy(shape):
            return data.draw(hnp.arrays(dtype, shape, elements=st.sampled_from([-1.0, -0.0, 0.0, 2.0])))

        assert_fused_step_matches_reference(x, k, dy)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_fused_relu_pool_matches_reference_at_k17(self, dtype):
        """A 17 x 17 window has offsets past 255: the maximum at (16, 16) of
        a -1 map is offset 288, and its gradient goes there."""
        x = np.full((1, 1, 17, 17), -1.0, dtype=dtype)
        x[0, 0, 16, 16] = 5.0
        assert_fused_step_matches_reference(x, 17, lambda shape: np.full(shape, 2.0, dtype=dtype))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_network_forward_same_bytes_in_training(self, dtype):
        net = mc.Network.from_netspec(mc.parse_netspec(DEFAULT_SPEC_TEXT), seed=36).cast(dtype)
        rng = np.random.default_rng(37)
        for x in (rng.normal(size=(4, 3, 16, 16)), tie_heavy((4, 3, 16, 16), rng, np.float64)):
            x = x.astype(dtype)
            assert_same_bytes(net.forward(x, train=True), net.forward(x))

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize(
        "kh,kw,stride,pad", [(3, 3, 1, 1), (3, 3, 2, 0), (1, 1, 1, 0), (3, 4, 2, 1), (5, 3, 1, 2)]
    )
    def test_im2col_col2im(self, dtype, kh, kw, stride, pad):
        """_im2col, and its adjoint through the weights (the convolution's
        input gradient), equal the reference kernels."""
        rng = np.random.default_rng(33)
        for x in (rng.normal(size=(2, 3, 9, 10)).astype(dtype), tie_heavy((2, 3, 9, 10), rng, dtype)):
            cols, oh, ow = mc._im2col(x, kh, kw, stride, pad)
            want, oh_ref, ow_ref = im2col_reference(x, kh, kw, stride, pad)
            assert (oh, ow) == (oh_ref, ow_ref)
            assert_same_bytes(cols, want)
            dyr = signed_zeros(np.round(rng.normal(size=(len(want), 5)), 1), rng).astype(dtype)
            w = rng.normal(size=(5, 3, kh, kw)).astype(dtype)
            assert_same_bytes(
                mc._conv_input_grad(dyr, w, x.shape, stride, pad, oh, ow),
                conv_input_grad_reference(dyr, w, x.shape, stride, pad, oh, ow),
            )

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("stride,pad", [(2, 0), (1, 0), (2, 1)])
    def test_conv_layer_forward_backward(self, dtype, stride, pad):
        x = np.random.default_rng(34).normal(size=(3, 4, 9, 8)).astype(dtype)
        assert_conv_matches_reference(mc.ConvSpec(3, 3, 4, 5, stride, pad), x)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_pointwise_conv_forward_backward(self, dtype):
        """1x1 convolutions take their columns by a reshape, on channels-first
        memory and on the channels-last views the layers hand on."""
        x = np.random.default_rng(38).normal(size=(3, 4, 9, 8)).astype(dtype)
        spec = mc.ConvSpec(1, 1, 4, 5, 1, 0)
        assert_conv_matches_reference(spec, x)
        channels_last = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
        assert_conv_matches_reference(spec, channels_last)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_shipped_network_on_c6_frame(self, dtype):
        """The shipped spec scoring a C6 evaluation frame's region of
        interest: score_map equals the reference kernels run on the same
        patches stacked one by one, in the same batches."""
        spec = mc.parse_netspec(resources.files("peduncle").joinpath("data/default_net.spec").read_text())
        scene = sg.generate(sg.benchmark_params(41, 20240, sg.benchmark_base())[40])
        h, w = scene.rgb.shape[:2]
        # the region of interest the pipeline derives from the pepper's pixels
        pepper_px = np.argwhere(scene.labels_img == pc.LABEL_PEPPER)
        roi = pl.compute_roi(pl.pixel_bbox(pepper_px), w, h)
        net = mc.Network.from_netspec(spec, seed=17).cast(dtype)
        got = mc.score_map(scene.rgb, net, stride=4, roi=roi)

        ys, xs = mc.patch_centers(h, w, 64, 64, 4)
        centers = [
            (cy, cx) for cy in ys for cx in xs
            if roi.x_min <= cx < roi.x_max and roi.y_min <= cy < roi.y_max
        ]
        assert len(centers) > 128        # more than one batch
        with reference_kernels():
            ref_net = mc.Network.from_netspec(spec, seed=17).cast(dtype)
            want = np.zeros((h, w))
            imgf = scene.rgb.astype(dtype) / dtype(255.0)
            for start in range(0, len(centers), 128):
                chunk = centers[start : start + 128]
                patches = np.stack(
                    [imgf[cy - 32 : cy + 32, cx - 32 : cx + 32] for cy, cx in chunk]
                ).transpose(0, 3, 1, 2)
                logits = ref_net.forward(patches)
                assert_same_bytes(net.forward(patches), logits)
                for (cy, cx), p in zip(chunk, mc.softmax(logits)[:, 1]):
                    want[cy, cx] = p
        assert got.mask.sum() == len(centers)
        assert_same_bytes(got.scores, want)

    def test_training_matches_reference(self):
        """Two epochs of the shipped spec on tie-heavy patches: the same
        loss history and the same weight bytes."""
        spec = mc.parse_netspec(resources.files("peduncle").joinpath("data/default_net.spec").read_text())
        rng = np.random.default_rng(36)
        patches = np.round(rng.uniform(size=(8, 3, 64, 64)) * 4) / 4
        patches[:, :, 20:40] = 0.5
        labels = np.array([0, 1] * 4)

        def train():
            net = mc.Network.from_netspec(spec, seed=37)
            history = mc.train_network(net, patches, labels, epochs=2, batch=4, lr=0.05, seed=3)
            return net, history

        net, history = train()
        with reference_kernels():
            ref_net, ref_history = train()
        assert not runs_layers_one_by_one(net) and runs_layers_one_by_one(ref_net)
        assert history == ref_history
        for (_, _, p, g), (_, _, rp, rg) in zip(net.parameters(), ref_net.parameters()):
            assert_same_bytes(p, rp)
            assert_same_bytes(g, rg)

    @pytest.mark.parametrize("batch", [16, 14])
    def test_shipped_step_matches_reference(self, batch):
        """One float64 step of the shipped spec at the batch sizes the train
        workload's 30 patches split into, on tie-heavy patches: the same
        loss, gradient bytes and weight bytes as the reference kernels."""
        rng = np.random.default_rng(39)
        patches = tie_heavy((batch, 3, 64, 64), rng, np.float64)
        labels = np.arange(batch) % 2

        def step():
            net = mc.Network.from_netspec(shipped_spec(), seed=38)
            return net, mc.backward_and_step(net, patches, labels, lr=0.05)

        net, loss = step()
        with reference_kernels():
            ref_net, ref_loss = step()
        assert not runs_layers_one_by_one(net) and runs_layers_one_by_one(ref_net)
        assert loss == ref_loss
        for (_, _, p, g), (_, _, rp, rg) in zip(net.parameters(), ref_net.parameters()):
            assert_same_bytes(g, rg)
            assert_same_bytes(p, rp)


# (layer specs, fc inputs, conv input gradients a step forms) of small nets
# whose first layer is a strided padded conv, a pool, a relu, an inception or
# a relu fused with the pool after it, on (3, 2, 8, 8) input: a step forms
# only the input gradients that some parameter gradient reads (the
# inception's 3x3 branch's)
FIRST_LAYER_CASES = [
    ([mc.ConvSpec(3, 3, 2, 3, 2, 1), mc.ReluSpec()], 3 * 4 * 4, 0),
    ([mc.PoolSpec(2, 2), mc.ConvSpec(3, 3, 2, 3, 1, 1)], 3 * 4 * 4, 0),
    ([mc.ReluSpec(), mc.ConvSpec(3, 3, 2, 3, 1, 1)], 3 * 8 * 8, 0),
    ([mc.InceptionSpec(2, 2, 3, 2), mc.ReluSpec()], 7 * 8 * 8, 1),
    ([mc.ReluSpec(), mc.PoolSpec(2, 2), mc.ConvSpec(3, 3, 2, 3, 1, 1)], 3 * 4 * 4, 0),
]


class TestTrainingStep:
    @pytest.mark.parametrize("specs,fc_in,formed", FIRST_LAYER_CASES)
    def test_step_stops_at_the_first_parameters(self, monkeypatch, specs, fc_in, formed):
        """The step's parameter gradients equal those of the full backward
        pass, and the full pass still returns the reference input gradient."""
        rng = np.random.default_rng(40)
        x = tie_heavy((3, 2, 8, 8), rng, np.float64)
        labels = np.array([0, 1, 1])

        def build():
            net = mc.Network([*specs, mc.FcSpec(fc_in, 2)], input_c=2, input_hw=(8, 8))
            net.init_weights(41)
            return net

        def backward(net):
            _, dl = mc.cross_entropy(net.forward(x, train=True), labels)
            return net.backward(dl)

        calls = []
        input_grad = mc._conv_input_grad
        monkeypatch.setattr(mc, "_conv_input_grad", lambda *a: calls.append(a[2]) or input_grad(*a))
        stepped = build()
        mc.backward_and_step(stepped, x, labels, lr=0.0)
        assert len(calls) == formed
        full = build()
        dx = backward(full)
        for (_, _, _, g), (_, _, _, want) in zip(stepped.parameters(), full.parameters()):
            assert_same_bytes(g, want)
        with reference_kernels():
            ref_net = build()
            ref_dx = backward(ref_net)
        assert runs_layers_one_by_one(ref_net)
        assert_same_bytes(dx, ref_dx)

    def test_shipped_step_forms_no_patch_gradient(self, monkeypatch):
        shapes = []
        input_grad = mc._conv_input_grad
        monkeypatch.setattr(mc, "_conv_input_grad", lambda *a: shapes.append(a[2]) or input_grad(*a))
        net = mc.Network.from_netspec(shipped_spec(), seed=38)
        patches = np.random.default_rng(42).uniform(size=(2, 3, 64, 64))
        mc.backward_and_step(net, patches, np.array([0, 1]), lr=0.05)
        assert shapes and (2, 3, 64, 64) not in shapes


class TestTrainingInput:
    """Bad training input raises InvalidInput before any weight moves."""

    @staticmethod
    def assert_rejected(train, patches, labels):
        net = tiny_net(seed=9)
        before = [p.copy() for _, _, p, _ in net.parameters()]
        with pytest.raises(InvalidInput):
            train(net, patches, labels)
        for old, (_, _, p, _) in zip(before, net.parameters()):
            assert_same_bytes(p, old)

    TRAINERS = [
        lambda net, x, y: mc.backward_and_step(net, x, y, lr=0.1),
        lambda net, x, y: mc.train_network(net, x, y, epochs=1, batch=2),
    ]

    @pytest.mark.parametrize("train", TRAINERS, ids=["step", "train_network"])
    @pytest.mark.parametrize(
        "labels", [[0, 1, -1, 0], [0, 1, 0.5, 0], [0, 1, 2, 0], [0, 1, np.nan, 0]], ids=["-1", "0.5", "2", "nan"]
    )
    def test_label_outside_0_1(self, train, labels):
        x = np.random.default_rng(43).uniform(size=(4, 2, 8, 8))
        self.assert_rejected(train, x, np.array(labels))

    @pytest.mark.parametrize("train", TRAINERS, ids=["step", "train_network"])
    @pytest.mark.parametrize("n_labels", [3, 5])
    def test_unequal_counts(self, train, n_labels):
        x = np.random.default_rng(44).uniform(size=(4, 2, 8, 8))
        self.assert_rejected(train, x, np.arange(n_labels) % 2)

    @pytest.mark.parametrize("train", TRAINERS, ids=["step", "train_network"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_patch(self, train, bad):
        """Also when train_network would reach the patch only in its last
        batch (batch 2, seed 0)."""
        x = np.random.default_rng(45).uniform(size=(4, 2, 8, 8))
        x[np.random.default_rng(0).permutation(4)[-1], 1, 7, 7] = bad
        self.assert_rejected(train, x, np.array([0, 1, 0, 1]))

    @pytest.mark.parametrize("batch", [0, -1])
    def test_batch_below_one(self, batch):
        x = np.random.default_rng(46).uniform(size=(4, 2, 8, 8))
        self.assert_rejected(
            lambda net, x, y: mc.train_network(net, x, y, epochs=1, batch=batch), x, np.array([0, 1, 0, 1])
        )

    @pytest.mark.parametrize(
        "schedule",
        [{"epochs": 0}, {"epochs": -2}, {"lr": np.nan}, {"lr": np.inf}, {"lr": -0.5}, {"lr": 0.0},
         {"lr_decay": 0.0}, {"lr_decay": np.nan}],
        ids=["epochs0", "epochs-2", "lr-nan", "lr-inf", "lr-neg", "lr0", "decay0", "decay-nan"],
    )
    def test_schedule_outside_its_range(self, schedule):
        """No epoch, a non-finite step or a step uphill trains nothing useful."""
        x = np.random.default_rng(47).uniform(size=(4, 2, 8, 8))
        self.assert_rejected(
            lambda net, x, y: mc.train_network(net, x, y, **{"epochs": 1, "batch": 2, **schedule}),
            x, np.array([0, 1, 0, 1]),
        )


# ---------------------------------------------------------------------------
# shared-trunk score map against the per-patch path, bit for bit
# ---------------------------------------------------------------------------


def shipped_spec():
    return mc.parse_netspec(resources.files("peduncle").joinpath("data/default_net.spec").read_text())


def assert_same_score_map(img, net, stride, roi, batch):
    got = mc.score_map(img, net, stride, roi, batch)
    want = score_map_per_patch(img, net, stride, roi, batch)
    np.testing.assert_array_equal(got.mask, want.mask)
    assert_same_bytes(got.scores, want.scores)
    return int(got.mask.sum())


def c6_frame():
    """C6 eval draw 40's image and the region of interest above its pepper."""
    scene = sg.generate(sg.benchmark_params(41, 20240, sg.benchmark_base())[40])
    h, w = scene.rgb.shape[:2]
    return scene.rgb, pl.compute_roi(pl.pixel_bbox(np.argwhere(scene.labels_img == pc.LABEL_PEPPER)), w, h)


def c6_frame_matches_per_patch():
    """dtypes at which score_map of the shipped spec on C6 eval draw 40's
    region of interest equals the per-patch path byte for byte."""
    rgb, roi = c6_frame()
    same = []
    for dtype in DTYPES:
        net = mc.Network.from_netspec(shipped_spec(), seed=17).cast(dtype)
        got = mc.score_map(rgb, net, 4, roi)
        want = score_map_per_patch(rgb, net, 4, roi)
        if got.scores.tobytes() == want.scores.tobytes() and (got.mask == want.mask).all():
            same.append(np.dtype(dtype).name)
    return same


@st.composite
def patch_grids(draw):
    """(rows, columns) of a patch grid: one patch, one row, one column, more
    than one batch of 128, or a few of each."""
    n, m, big = draw(st.integers(2, 7)), draw(st.integers(2, 7)), draw(st.integers(11, 13))
    return draw(st.sampled_from([(1, 1), (1, n), (n, 1), (big, 128 // big + 1), (n, m)]))


class TestSharedTrunk:
    def test_shared_depth_rule(self):
        shipped = mc.Network.from_netspec(shipped_spec()).layers
        # conv1 relu+pool1 conv2 relu+pool2 conv3 relu+pool3 inception ...
        assert [mc.shared_depth(shipped, s) for s in range(1, 9)] == [1, 3, 1, 5, 1, 3, 1, 6]
        assert [mc.shared_depth(shipped, s) for s in (12, 16)] == [5, 6]
        # conv relu+pool conv, then a relu on its own, which ends the run
        test_spec = mc.Network.from_netspec(mc.parse_netspec(DEFAULT_SPEC_TEXT)).layers
        assert [mc.shared_depth(test_spec, s) for s in (1, 2, 3, 4, 8)] == [1, 3, 1, 3, 3]
        # a strided conv ahead of the first pool: nothing is shared at an odd stride
        strided = (mc.ConvSpec(3, 3, 3, 4, 2, 1), mc.ReluSpec(), mc.PoolSpec(2, 2), mc.FcSpec(4, 2))
        assert [mc.shared_depth(mc.Network(strided, 3).layers, s) for s in (1, 2, 4)] == [0, 1, 2]

    def test_ring_widths_of_the_shipped_spec(self):
        net = mc.Network.from_netspec(shipped_spec(), seed=1).cast(np.float32)
        crop = np.zeros((76, 80, 3), dtype=np.float32)
        trunk = mc._SharedTrunk(net, 4, crop)
        assert trunk.depth == 5
        rings = [
            (type(lv.layer).__name__, lv.size, [(lo, n - hi) for (lo, hi), n in zip(lv.clean, lv.size)])
            for lv in trunk.levels[1:]
            if not isinstance(lv.layer, mc.Relu)
        ]
        assert rings == [
            ("Conv2d", (64, 64), [(1, 1), (1, 1)]),
            ("_ReluMaxPool", (32, 32), [(1, 1), (1, 1)]),
            ("Conv2d", (32, 32), [(2, 2), (2, 2)]),
            ("_ReluMaxPool", (16, 16), [(1, 1), (1, 1)]),
            ("Conv2d", (16, 16), [(2, 2), (2, 2)]),
        ]

    def test_ring_cells_on_the_c6_frame(self):
        """Each band is computed once per patch row or column and only the
        corners per patch: on C6 eval draw 40's 13 x 12 grid, the ring cells
        recomputed at conv1, pool1, conv2, pool2 and conv3 are about a fifth
        of the per-patch rings' 156 x (252, 124, 240, 60, 112)."""
        rgb, roi = c6_frame()
        net = mc.Network.from_netspec(shipped_spec(), seed=17).cast(np.float32)
        ys, xs = mc.patch_centers(*rgb.shape[:2], 64, 64, 4)
        ys = ys[(roi.y_min <= ys) & (ys < roi.y_max)]
        xs = xs[(roi.x_min <= xs) & (xs < roi.x_max)]
        assert (len(ys), len(xs)) == (13, 12)
        crop = rgb[ys[0] - 32 : ys[-1] + 32, xs[0] - 32 : xs[-1] + 32]
        trunk = mc._SharedTrunk(net, 4, crop.astype(np.float32) / np.float32(255.0))
        levels = [lv for lv in trunk.levels[1:] if not isinstance(lv.layer, mc.Relu)]
        assert [len(lv.ring_taps) for lv in levels] == [6020, 3272, 7592, 1898, 4844]

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("stride", range(1, 9))
    @pytest.mark.parametrize("spec_name", ["shipped", "test"])
    def test_matches_per_patch(self, spec_name, stride, dtype):
        """A 13 x 14 patch grid (more than one 128-patch batch) over the
        whole image, then 4 x 4 patches on the image's left and bottom edges
        at batch 128 and at batch 1.

        The 16 x 16 test network's convolutions are small enough for
        OpenBLAS's small-matrix kernel, which rounds differently from its
        large one (see _SharedTrunk): with 16 patches or one, the per-patch
        path's own scores move with the batch size, so there the scores
        are held to a few units of rounding instead of to the byte."""
        spec = shipped_spec() if spec_name == "shipped" else mc.parse_netspec(DEFAULT_SPEC_TEXT)
        net = mc.Network.from_netspec(spec, seed=40 + stride).cast(dtype)
        h = spec.input_h + 12 * stride
        w = spec.input_w + 13 * stride
        img = np.random.default_rng(stride).integers(0, 256, (h, w, 3)).astype(np.uint8)
        assert assert_same_score_map(img, net, stride, None, 128) == 13 * 14
        ys, xs = mc.patch_centers(h, w, spec.input_h, spec.input_w, stride)
        edge = pl.Roi2(0, int(ys[-4]), int(xs[3]) + 1, h)     # 4 x 4 patches
        for batch in (128, 1):
            if spec_name == "shipped":
                assert assert_same_score_map(img, net, stride, edge, batch) == 16
            else:
                got = mc.score_map(img, net, stride, edge, batch)
                want = score_map_per_patch(img, net, stride, edge, batch)
                np.testing.assert_array_equal(got.mask, want.mask)
                eps = np.finfo(dtype).eps
                np.testing.assert_allclose(got.scores, want.scores, rtol=0, atol=16 * eps)

    @settings(max_examples=40)
    @given(grid=patch_grids(), stride=st.integers(1, 8), margins=st.tuples(*[st.integers(0, 2)] * 4),
           slack=st.tuples(st.integers(0, 7), st.integers(0, 7)), levels=st.sampled_from([256, 3, 2]),
           seed=st.integers(0, 2**16), batch=st.sampled_from([1, 128]), dtype=st.sampled_from(DTYPES))
    def test_shipped_spec_matches_per_patch(self, grid, stride, margins, slack, levels, seed, batch, dtype):
        """score_map of the shipped network equals the per-patch path byte
        for byte, for regions of interest anywhere in the image (on its
        edges too) whose patch grid is one patch, one row, one column or
        more than one batch, on images with few grey levels and a saturated
        block."""
        (ny, nx), (top, bottom, left, right) = grid, margins
        spec = shipped_spec()
        rng = np.random.default_rng(seed)
        h = spec.input_h + (top + ny + bottom - 1) * stride + slack[0] % stride
        w = spec.input_w + (left + nx + right - 1) * stride + slack[1] % stride
        img = (rng.integers(0, levels, (h, w, 3)) * 255 // (levels - 1)).astype(np.uint8)
        y, x = rng.integers(0, h), rng.integers(0, w)
        img[y : y + 24, x : x + 32] = rng.choice([0, 255])
        ys, xs = mc.patch_centers(h, w, spec.input_h, spec.input_w, stride)
        roi = pl.Roi2(int(xs[left]), int(ys[top]), int(xs[left + nx - 1]) + 1, int(ys[top + ny - 1]) + 1)
        net = mc.Network.from_netspec(spec, seed=seed % 7).cast(dtype)
        assert assert_same_score_map(img, net, stride, roi, batch) == ny * nx

    def test_tie_heavy_image(self):
        """Flat regions and saturated pixels give exact ties and zeros in
        every layer; the ring cells must still match."""
        spec = shipped_spec()
        net = mc.Network.from_netspec(spec, seed=3).cast(np.float32)
        img = np.zeros((100, 104, 3), dtype=np.uint8)
        img[:, 40:] = 255
        img[30:60, :, 1] = 128
        assert_same_score_map(img, net, 4, None, 128)

    def test_c6_frame_at_one_and_two_blas_threads(self):
        """The equalities rest on each matmul row being computed alone; run
        the C6-frame check in fresh processes at one and at two BLAS
        threads, whatever this process runs with."""
        tests_dir = os.path.dirname(os.path.abspath(__file__))
        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(mc.__file__)))
        code = "import test_minicnn as t; print(' '.join(t.c6_frame_matches_per_patch()))"
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join([src_dir, tests_dir, env.get("PYTHONPATH", "")])
            run = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=600
            )
            assert run.returncode == 0, run.stderr
            assert run.stdout.split() == ["float32", "float64"], (threads, run.stdout)
