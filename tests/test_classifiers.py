"""SVM (SMO) and HSV naive Bayes tests.

Solver optimality is checked two ways: KKT conditions on the trained
model, and the dual objective value against an independent general-purpose
constrained optimizer on small problems.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import kernel_reference, kkt_violations, nb_posterior_rows, svm_score_batch_reference
from scipy.optimize import minimize

from peduncle import classifiers as cls
from peduncle.errors import FormatError, InvalidInput


def make_blobs(rng, n_per, centers, spread):
    xs, ys = [], []
    for i, c in enumerate(centers):
        xs.append(rng.normal(0, spread, (n_per, len(c))) + c)
        ys.append(np.full(n_per, 1.0 if i % 2 == 0 else -1.0))
    return np.vstack(xs), np.concatenate(ys)


def dual_objective(alpha, q):
    return alpha.sum() - 0.5 * alpha @ q @ alpha


def solve_dual_reference(x, y, params):
    """Independent dual solve with SLSQP (small problems only)."""
    means = x.mean(axis=0)
    stds = x.std(axis=0)
    scales = np.where(stds > 1e-12, stds, 1.0)
    xs = (x - means) / scales
    k = cls._kernel(params.kernel, params.gamma, xs, xs)
    q = k * np.outer(y, y)
    n = len(y)
    res = minimize(
        lambda a: -dual_objective(a, q),
        x0=np.full(n, min(params.c / 2, 0.1)),
        jac=lambda a: -(np.ones(n) - q @ a),
        bounds=[(0.0, params.c)] * n,
        constraints=[{"type": "eq", "fun": lambda a: a @ y, "jac": lambda a: y}],
        method="SLSQP",
        options={"maxiter": 500, "ftol": 1e-12},
    )
    assert res.success
    return dual_objective(res.x, q), q


def model_alphas(model, x, y):
    """Recover the dense alpha vector from a trained model's SV list."""
    xs = (x - model.feature_means) / model.feature_scales
    alphas = np.zeros(len(x))
    used = np.zeros(len(model.support_vectors), dtype=bool)
    for i, row in enumerate(xs):
        for j, sv in enumerate(model.support_vectors):
            if not used[j] and np.array_equal(row, sv):
                alphas[i] = abs(model.dual_coefs[j])
                used[j] = True
                break
    return alphas


class TestSvmTrain:
    def test_separable_blobs_linear(self):
        rng = np.random.default_rng(0)
        x, y = make_blobs(rng, 40, [[2.0, 2.0], [-2.0, -2.0]], 0.3)
        model = cls.svm_train(x, y, cls.SvmParams(kernel="linear", c=1.0))
        scores = cls.svm_score_batch(model, x)
        assert (np.sign(scores) == y).all()
        assert kkt_violations(model, x, y).max() <= 1e-3

    def test_xor_rbf(self):
        rng = np.random.default_rng(1)
        x, y = make_blobs(
            rng, 20, [[1, 1], [1, -1], [-1, -1], [-1, 1]], 0.15
        )
        params = cls.SvmParams(kernel="rbf", gamma=1.0, c=10.0)
        model = cls.svm_train(x, y, params)
        assert (np.sign(cls.svm_score_batch(model, x)) == y).all()
        # dual objective against the independent reference solver
        ref_obj, q = solve_dual_reference(x, y, params)
        alphas = model_alphas(model, x, y)
        got_obj = dual_objective(alphas, q)
        assert got_obj == pytest.approx(ref_obj, abs=1e-3 * max(abs(ref_obj), 1.0))

    def test_duplicated_dataset_same_decision_function(self):
        # hard-margin regime (no alpha at C) and tight tolerance: duplicating
        # every point then leaves the unique decision function unchanged
        rng = np.random.default_rng(2)
        x, y = make_blobs(rng, 25, [[1.5, 0.5], [-1.5, -1.5]], 0.25)
        params = cls.SvmParams(kernel="rbf", gamma=0.5, c=50.0, tol=1e-10, max_passes=2000)
        m1 = cls.svm_train(x, y, params)
        m2 = cls.svm_train(np.vstack([x, x]), np.concatenate([y, y]), params)
        probe = rng.uniform(-3, 3, (60, 2))
        s1 = cls.svm_score_batch(m1, probe)
        s2 = cls.svm_score_batch(m2, probe)
        assert np.abs(s1 - s2).max() < 1e-6

    def test_kkt_on_varied_datasets(self):
        rng = np.random.default_rng(3)
        for trial in range(6):
            dim = int(rng.integers(2, 6))
            centers = [rng.normal(0, 2, dim), rng.normal(0, 2, dim)]
            x, y = make_blobs(rng, 30, centers, 0.8)
            kernel = "linear" if trial % 2 else "rbf"
            params = cls.SvmParams(kernel=kernel, gamma=1.0 / dim, c=2.0)
            model = cls.svm_train(x, y, params)
            assert kkt_violations(model, x, y).max() <= params.tol

    def test_dual_feasibility(self):
        rng = np.random.default_rng(4)
        x, y = make_blobs(rng, 35, [[1, 1, 1], [-1, -1, -1]], 1.0)
        params = cls.SvmParams(c=3.0)
        model = cls.svm_train(x, y, params)
        alphas = np.abs(model.dual_coefs)
        assert np.all(alphas >= -1e-12) and np.all(alphas <= params.c + 1e-9)
        # sum alpha_i y_i == 0 within tolerance
        assert abs(model.dual_coefs.sum()) <= 1e-8

    def test_single_class_rejected(self):
        with pytest.raises(InvalidInput, match="both classes"):
            cls.svm_train(np.zeros((5, 2)), np.ones(5))

    def test_nonfinite_rejected(self):
        x = np.zeros((4, 2))
        x[0, 0] = np.nan
        with pytest.raises(InvalidInput):
            cls.svm_train(x, np.array([1.0, -1, 1, -1]))


@pytest.fixture(scope="module")
def trained():
    rng = np.random.default_rng(5)
    x, y = make_blobs(rng, 60, [[1.2, 0.0], [-1.2, 0.0]], 0.9)
    params = cls.SvmParams(kernel="rbf", gamma=0.7, c=1.0)
    return cls.svm_train(x, y, params), x, y, params


@pytest.mark.parametrize(
    "bad",
    [{"kernel": "poly"}, {"c": 0.0}, {"c": -1.0}, {"gamma": -5.0}, {"gamma": np.nan}, {"tol": np.nan},
     {"tol": 0.0}, {"c": np.inf}, {"max_passes": 0}, {"max_passes": -3}],
    ids=["kernel", "c0", "c-1", "gamma-5", "gamma-nan", "tol-nan", "tol0", "c-inf", "passes0", "passes-3"],
)
def test_svm_params_outside_their_range_rejected(bad):
    with pytest.raises(InvalidInput, match=next(iter(bad))):
        cls.SvmParams(**bad)


class TestSvmScore:

    def test_interior_sv_sits_on_margin(self, trained):
        model, x, y, params = trained
        interior = (np.abs(model.dual_coefs) > 1e-7) & (
            np.abs(model.dual_coefs) < model.c - 1e-7
        )
        assert interior.any()
        raw = model.support_vectors[interior] * model.feature_scales + model.feature_means
        scores = cls.svm_score_batch(model, raw)
        np.testing.assert_allclose(np.abs(scores), 1.0, atol=params.tol)

    def test_linear_kernel_affine(self):
        rng = np.random.default_rng(6)
        x, y = make_blobs(rng, 30, [[2, 1], [-2, -1]], 0.5)
        model = cls.svm_train(x, y, cls.SvmParams(kernel="linear", c=1.0))
        f1, f2 = rng.normal(size=2), rng.normal(size=2)
        s = lambda f: cls.svm_score_batch(model, f[None, :])[0]
        # affine: f(a) + f(b) - f(0) == f(a + b)
        lhs = s(f1) + s(f2) - s(np.zeros(2))
        assert lhs == pytest.approx(s(f1 + f2), abs=1e-9)

    def test_batch_equals_single(self, trained):
        model, x, _, _ = trained
        batch = cls.svm_score_batch(model, x[:20])
        singles = np.array([cls.svm_score_batch(model, f[None, :])[0] for f in x[:20]])
        np.testing.assert_array_equal(batch, singles)

    def test_training_permutation_probe_stability(self):
        rng = np.random.default_rng(7)
        x, y = make_blobs(rng, 40, [[1.5, 1.5], [-1.5, -1.5]], 0.7)
        params = cls.SvmParams(kernel="rbf", gamma=0.5, c=2.0, tol=1e-10, max_passes=2000)
        m1 = cls.svm_train(x, y, params)
        perm = rng.permutation(len(y))
        m2 = cls.svm_train(x[perm], y[perm], params)
        probe = rng.uniform(-3, 3, (50, 2))
        assert np.abs(
            cls.svm_score_batch(m1, probe) - cls.svm_score_batch(m2, probe)
        ).max() < 1e-6

    def test_feature_scaling_leaves_labels_unchanged(self):
        rng = np.random.default_rng(8)
        x, y = make_blobs(rng, 40, [[1, 2], [-1, -2]], 0.8)
        params = cls.SvmParams(kernel="rbf", gamma=0.5, c=2.0)
        m1 = cls.svm_train(x, y, params)
        scale = np.array([7.5, 0.2])
        m2 = cls.svm_train(x * scale, y, params)
        probe = rng.uniform(-3, 3, (80, 2))
        l1 = np.sign(cls.svm_score_batch(m1, probe))
        l2 = np.sign(cls.svm_score_batch(m2, probe * scale))
        assert (l1 == l2).all()


class TestSvmFile:
    def test_roundtrip_scores_identical(self, tmp_path):
        rng = np.random.default_rng(9)
        x, y = make_blobs(rng, 30, [[1, 1], [-1, -1]], 0.5)
        model = cls.svm_train(x, y, cls.SvmParams())
        path = tmp_path / "svm.model"
        cls.save_svm(path, model)
        loaded = cls.load_svm(path)
        probe = rng.normal(size=(40, 2))
        np.testing.assert_array_equal(
            cls.svm_score_batch(model, probe), cls.svm_score_batch(loaded, probe)
        )


    @pytest.mark.parametrize(
        "text",
        [
            "svm v1 rbf x 1.0 0.25 1\n0.0 0.0\n1.0 1.0\n0.5 1.0 2.0\n",
            "svm v1 rbf 0.5 1.0 0.25 -1\n0.0 0.0\n1.0 1.0\n",
            "svm v1 rbf 0.5 1.0 0.25 1000000000000\n0.0 0.0\n1.0 1.0\n0.5 1.0 2.0\n",
            "svm v1 rbf 0.5 1.0 0.25 1\n0.0 0.0\n1.0\n0.5 1.0 2.0\n",
            "svm v1 rbf nan 1.0 0.25 1\n0.0 0.0\n1.0 1.0\n0.5 1.0 2.0\n",
            "svm v1 rbf 0.5 1.0 0.25 1\n0.0 inf\n1.0 1.0\n0.5 1.0 2.0\n",
            "svm v1 rbf 0.5 1.0 0.25 1\n0.0 0.0\n1.0 1.0\nnan 1.0 2.0\n",
            "svm v1 rbf 0.5 1.0 0.25 1\n0.0 0.0\n1.0 1.0\n0.5 1.0 2.0\n-0.5 3.0 4.0\n",
            "svm v1 rbf 0.5 1.0 0.25 1\n0.0 0.0\n1.0 1.0\n0.5 1.0 2.0\ntrailing\n",
        ],
        ids=["gamma-word", "count-negative", "count-huge", "scales-short", "gamma-nan", "mean-inf",
             "coef-nan", "extra-vector", "trailing-text"],
    )
    def test_malformed_file_is_format_error(self, tmp_path, text):
        path = tmp_path / "svm.model"
        path.write_text(text)
        with pytest.raises(FormatError):
            cls.load_svm(path)


class TestNaiveBayes:
    def test_zero_overlap_classes(self):
        rng = np.random.default_rng(10)
        red = np.column_stack(
            [rng.normal(0, 3, 100) % 360, rng.uniform(0.8, 0.9, 100), rng.uniform(0.5, 0.7, 100)]
        )
        green = np.column_stack(
            [rng.normal(120, 3, 100), rng.uniform(0.8, 0.9, 100), rng.uniform(0.5, 0.7, 100)]
        )
        model = cls.nb_fit(red, green)
        assert cls.nb_posterior(model, [1.0, 0.85, 0.6]) > 0.999
        assert cls.nb_posterior(model, [120.0, 0.85, 0.6]) < 0.001

    def test_symmetric_midpoint(self):
        a = np.array([[60.0, 0.4, 0.5], [60.0, 0.6, 0.5]])
        b = np.array([[60.0, 0.4, 0.9], [60.0, 0.6, 0.9]])
        model = cls.nb_fit(a, b)
        assert cls.nb_posterior(model, [60.0, 0.5, 0.7]) == pytest.approx(0.5, abs=1e-9)

    def test_ml_estimates_match_moments(self):
        rng = np.random.default_rng(11)
        a = np.column_stack([rng.uniform(0, 360, 200), rng.uniform(0, 1, 200), rng.uniform(0, 1, 200)])
        b = np.column_stack([rng.uniform(0, 360, 150), rng.uniform(0, 1, 150), rng.uniform(0, 1, 150)])
        model = cls.nb_fit(a, b)
        fa = cls.hsv_nb_features(a)
        np.testing.assert_allclose(model.means[0], fa.mean(axis=0), atol=1e-9)
        np.testing.assert_allclose(
            model.variances[0], np.maximum(fa.var(axis=0), cls.VARIANCE_FLOOR), atol=1e-9
        )
        np.testing.assert_allclose(model.priors, [200 / 350, 150 / 350], atol=1e-12)

    def test_hue_wraparound_continuous(self):
        rng = np.random.default_rng(12)
        red = np.column_stack(
            [(rng.normal(0, 8, 200)) % 360, rng.uniform(0.7, 0.95, 200), rng.uniform(0.4, 0.8, 200)]
        )
        other = np.column_stack(
            [rng.normal(110, 15, 200), rng.uniform(0.3, 0.8, 200), rng.uniform(0.2, 0.7, 200)]
        )
        model = cls.nb_fit(red, other)
        lo = cls.nb_posterior(model, [0.1, 0.8, 0.6])
        hi = cls.nb_posterior(model, [359.9, 0.8, 0.6])
        assert abs(lo - hi) < 1e-6
        assert lo > 0.99

    def test_posterior_normalized(self):
        rng = np.random.default_rng(13)
        a = np.column_stack([rng.uniform(0, 360, 50), rng.uniform(0, 1, 50), rng.uniform(0, 1, 50)])
        b = np.column_stack([rng.uniform(0, 360, 60), rng.uniform(0, 1, 60), rng.uniform(0, 1, 60)])
        model = cls.nb_fit(a, b)
        # posterior of pepper + posterior of other must be exactly 1
        hsv = np.column_stack([rng.uniform(0, 360, 30), rng.uniform(0, 1, 30), rng.uniform(0, 1, 30)])
        p = cls.nb_posterior(model, hsv)
        swapped = cls.NaiveBayesHsv(model.means[::-1].copy(), model.variances[::-1].copy(), model.priors[::-1].copy())
        q = cls.nb_posterior(swapped, hsv)
        np.testing.assert_allclose(p + q, 1.0, atol=1e-12)

    def test_degenerate_training(self):
        with pytest.raises(InvalidInput, match="at least 2 samples"):
            cls.nb_fit(np.array([[0.0, 1, 1]]), np.array([[120.0, 1, 1], [121.0, 1, 1]]))

    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(14)
        a = np.column_stack([rng.uniform(0, 360, 40), rng.uniform(0, 1, 40), rng.uniform(0, 1, 40)])
        b = np.column_stack([rng.uniform(0, 360, 40), rng.uniform(0, 1, 40), rng.uniform(0, 1, 40)])
        model = cls.nb_fit(a, b)
        path = tmp_path / "nb.model"
        cls.save_nb(path, model)
        loaded = cls.load_nb(path)
        hsv = np.column_stack([rng.uniform(0, 360, 20), rng.uniform(0, 1, 20), rng.uniform(0, 1, 20)])
        np.testing.assert_array_equal(cls.nb_posterior(model, hsv), cls.nb_posterior(loaded, hsv))

    @pytest.mark.parametrize(
        "text",
        [
            "nbhsv v1\n0.5\n1 0 0.5 0.5\n0.1 0.1 0.1 0.1\n0.5\n",
            "nbhsv v1\n0.5\n1 0 0.5 0.5\n0.1 0.1 0.1 0.1\n0.5\n-1 0 0.5 0.5\n",
            "nbhsv v1\n0.5\n1 0 0.5\n0.1 0.1 0.1 0.1\n0.5\n-1 0 0.5 0.5\n0.1 0.1 0.1 0.1\n",
            "nbhsv v1\n0.5\n1 0 0.5\n0.1 0.1 0.1\n0.5\n-1 0 0.5\n0.1 0.1 0.1\n",
            "nbhsv v1\nnan\n1 0 0.5 0.5\n0.1 0.1 0.1 0.1\n0.5\n-1 0 0.5 0.5\n0.1 0.1 0.1 0.1\n",
            "nbhsv v1\n0.5\n1 0 0.5 0.5\n0.1 0.1 0.1 inf\n0.5\n-1 0 0.5 0.5\n0.1 0.1 0.1 0.1\n",
            "nbhsv v1\n0.5\n1 0 0.5 0.5\n0.1 0.1 0.1 0.1\n0.5\n-1 0 0.5 0.5\n0.1 0.1 0.1 0.1\n0.5\n",
            "nbhsv v1\n0.5\n1 0 0.5 x\n0.1 0.1 0.1 0.1\n0.5\n-1 0 0.5 0.5\n0.1 0.1 0.1 0.1\n",
        ],
        ids=["truncated-prior", "truncated-variances", "ragged-means", "three-wide", "prior-nan",
             "variance-inf", "trailing-data", "mean-word"],
    )
    def test_malformed_file_is_format_error(self, tmp_path, text):
        path = tmp_path / "nb.model"
        path.write_text(text)
        with pytest.raises(FormatError):
            cls.load_nb(path)


@st.composite
def nb_models(draw):
    """Class means anywhere on the feature ranges, variances from the floor
    (posteriors of 0 or 1) to wide (posteriors in between), priors from
    lopsided to even."""
    unit = st.floats(0.0, 1.0)
    means = [[draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)), draw(unit), draw(unit)] for _ in range(2)]
    variances = []
    for _ in range(2):
        level = draw(st.sampled_from([cls.VARIANCE_FLOOR, 1e-4, 0.01, 0.3, 4.0]))
        variances.append([level * draw(st.sampled_from([1.0, 1.5, 3.0])) for _ in range(4)])
    prior = draw(st.floats(1e-9, 1.0 - 1e-9))
    return cls.NaiveBayesHsv(np.array(means), np.array(variances), np.array([prior, 1.0 - prior]))


class TestPosteriorColumnsPinned:
    """The column form equals the previous row form byte for byte."""

    @settings(max_examples=150)
    @given(
        model=nb_models(),
        rows=st.lists(
            st.tuples(st.floats(-720.0, 720.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
            min_size=1,
            max_size=30,
        ),
    )
    def test_batch_and_single(self, model, rows):
        hsv = np.array(rows)
        got, want = cls.nb_posterior(model, hsv), nb_posterior_rows(model, hsv)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        got_one, want_one = cls.nb_posterior(model, hsv[0]), nb_posterior_rows(model, hsv[0])
        assert type(got_one) is float and np.float64(got_one).tobytes() == np.float64(want_one).tobytes()


class TestKernelBlocksPinned:
    """_kernel in cache-sized blocks gives the reference's Gram matrix bit
    for bit: one row, many blocks, and support-vector counts from 1 to more
    than one block's worth (a row block then holds a single row)."""

    @pytest.mark.parametrize("kind", ["rbf", "linear"])
    @pytest.mark.parametrize("n_rows", [1, 2, 600])
    @pytest.mark.parametrize("n_sv", [1, 5, 37, 1820, 1821, 2100])
    def test_matches_reference(self, kind, n_rows, n_sv):
        rng = np.random.default_rng(n_rows * 7919 + n_sv)
        a = rng.normal(size=(n_rows, 36))
        b = rng.normal(size=(n_sv, 36))
        got = cls._kernel(kind, 1.0 / 36.0, a, b)
        want = kernel_reference(kind, 1.0 / 36.0, a, b)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_block_edges_match_reference(self):
        # row counts on either side of a multiple of the block height
        rng = np.random.default_rng(11)
        b = rng.normal(size=(300, 36))
        rows = max(1, cls._KERNEL_BLOCK // (300 * 36))
        for n_rows in (rows - 1, rows, rows + 1, 3 * rows, 3 * rows + 1):
            a = rng.normal(size=(n_rows, 36))
            got = cls._kernel("rbf", 0.5, a, b)
            assert got.tobytes() == kernel_reference("rbf", 0.5, a, b).tobytes()

    def test_svm_scores_match_reference(self):
        rng = np.random.default_rng(12)
        x, y = make_blobs(rng, 150, [np.zeros(36), np.full(36, 0.6)], 1.0)
        model = cls.svm_train(x, y, cls.SvmParams(max_passes=20))
        probe = rng.normal(0.3, 1.0, (900, 36))
        got = cls.svm_score_batch(model, probe)
        assert got.tobytes() == svm_score_batch_reference(model, probe).tobytes()
