"""Tensor engine tests: forward oracles, finite-difference gradients,
parameter counting, patch scoring and weight serialization."""

from importlib import resources

import numpy as np
import pytest
from oracles import (
    MaxPoolReference,
    col2im_reference,
    conv_reference,
    im2col_reference,
    max_rel_error,
    numerical_grad,
    reference_kernels,
)

from peduncle import cloud as pc
from peduncle import minicnn as mc
from peduncle import pipeline as pl
from peduncle import scenegen as sg
from peduncle.errors import FormatError, InputTooSmall, ShapeError


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
        with pytest.raises(ShapeError):
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
    def test_single_conv(self):
        assert mc.param_count([mc.ConvSpec(3, 3, 2, 4)]) == 76

    def test_fc(self):
        assert mc.param_count([mc.FcSpec(10, 2)]) == 22

    def test_pool_relu_free(self):
        assert mc.param_count([mc.PoolSpec(2, 2), mc.ReluSpec()]) == 0

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
        assert mc.param_count(spec) == expected == 77390
        net = mc.Network.from_netspec(spec)
        assert net.param_count() == expected

    def test_network_matches_spec_count(self):
        net = tiny_net()
        assert net.param_count() == mc.param_count(net.specs)


class TestNetworkSpecFile:
    def test_parse_validate_roundtrip(self):
        spec = mc.parse_netspec(DEFAULT_SPEC_TEXT)
        assert spec.input_h == 16 and spec.n_classes == 2
        text = mc.serialize_netspec(spec)
        again = mc.parse_netspec(text)
        assert again == spec

    def test_wrong_conv_count_rejected(self):
        bad = DEFAULT_SPEC_TEXT.replace("conv 1 1 4 4 1 0\nrelu\n", "")
        with pytest.raises(ShapeError):
            mc.parse_netspec(bad.replace("fc 64 2", "fc 256 2"))

    def test_channel_chain_mismatch_rejected(self):
        bad = DEFAULT_SPEC_TEXT.replace("conv 3 3 4 4 1 1", "conv 3 3 5 4 1 1", 1)
        with pytest.raises(ShapeError):
            mc.parse_netspec(bad)

    def test_bad_line_rejected(self):
        with pytest.raises(FormatError):
            mc.parse_netspec("input 8 8 3\nconv nope\n")


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
        with pytest.raises(InputTooSmall):
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
        spec = mc.parse_netspec(DEFAULT_SPEC_TEXT)
        net = mc.Network.from_netspec(spec, seed=13)
        rng = np.random.default_rng(12)
        stride = 4
        img = rng.integers(0, 256, (32, 48, 3)).astype(np.uint8)
        shifted = np.roll(img, stride, axis=1)
        a = mc.score_map(img, net, stride=stride)
        b = mc.score_map(shifted, net, stride=stride)
        ys, xs = mc.patch_centers(32, 48, 16, 16, stride)
        # interior columns: score at (cy, cx) must reappear at (cy, cx + stride)
        for cy in ys:
            for cx in xs[:-1]:
                if cx + stride > 48 - 16 + 16 // 2:
                    continue
                if img[:, : cx - 8 + 16].shape[1] - (cx - 8) < 16:
                    continue
                if cx - 8 >= stride:  # shifted patch fully inside the rolled image
                    assert b.scores[cy, cx + stride] == pytest.approx(
                        a.scores[cy, cx], abs=1e-9
                    )

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
        from peduncle.errors import EmptyInput

        net = tiny_net()
        with pytest.raises(EmptyInput):
            mc.backward_and_step(net, np.zeros((0, 2, 8, 8)), np.zeros(0, dtype=int), 0.1)


class TestDebugMode:
    def test_nonfinite_activation_caught_when_enabled(self):
        from peduncle.errors import InvalidInput

        net = tiny_net(seed=5)
        bad = np.full((1, 2, 8, 8), np.inf)
        mc.DEBUG_CHECK_FINITE = True
        try:
            with np.errstate(invalid="ignore"), pytest.raises(InvalidInput):
                net.forward(bad)
        finally:
            mc.DEBUG_CHECK_FINITE = False

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

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize(
        "kh,kw,stride,pad", [(3, 3, 1, 1), (3, 3, 2, 0), (1, 1, 1, 0), (3, 4, 2, 1), (5, 3, 1, 2)]
    )
    def test_im2col_col2im(self, dtype, kh, kw, stride, pad):
        rng = np.random.default_rng(33)
        for x in (rng.normal(size=(2, 3, 9, 10)).astype(dtype), tie_heavy((2, 3, 9, 10), rng, dtype)):
            cols, oh, ow = mc._im2col(x, kh, kw, stride, pad)
            want, oh_ref, ow_ref = im2col_reference(x, kh, kw, stride, pad)
            assert (oh, ow) == (oh_ref, ow_ref)
            assert_same_bytes(cols, want)
            dcols = signed_zeros(np.round(rng.normal(size=want.shape), 1), rng).astype(dtype)
            assert_same_bytes(
                mc._col2im(dcols, x.shape, kh, kw, stride, pad, oh, ow),
                col2im_reference(dcols, x.shape, kh, kw, stride, pad, oh, ow),
            )

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("stride,pad", [(2, 0), (1, 0), (2, 1)])
    def test_conv_layer_forward_backward(self, dtype, stride, pad):
        rng = np.random.default_rng(34)
        x = rng.normal(size=(3, 4, 9, 8)).astype(dtype)

        def run():
            cv = mc.Conv2d(mc.ConvSpec(3, 3, 4, 5, stride, pad))
            cv.init_weights(np.random.default_rng(35))
            for key in cv.params:
                cv.params[key] = cv.params[key].astype(dtype)
            y = cv.forward(x, train=True)
            dx = cv.backward(np.linspace(-1, 1, y.size).reshape(y.shape).astype(dtype))
            return y, dx, cv.grads["w"], cv.grads["b"]

        new = run()
        with reference_kernels():
            ref = run()
        for got, want in zip(new, ref):
            assert_same_bytes(got, want)

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
        centers = [(cy, cx) for cy in ys for cx in xs if roi.contains(cx, cy)]
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
        assert history == ref_history
        for (_, _, p, g), (_, _, rp, rg) in zip(net.parameters(), ref_net.parameters()):
            assert_same_bytes(p, rp)
            assert_same_bytes(g, rg)
