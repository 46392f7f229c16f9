"""End-to-end acceptance suite.

Each criterion prints one `ACCEPTANCE <id>: PASS|FAIL` line. The heavy
fixed-seed benchmark (criterion 6) runs once per session and its results
are shared across the tests that need them.
"""

import time

import contract
import numpy as np
import pytest
from oracles import (
    brute_knn,
    brute_radius_pairs,
    csgraph_clusters,
    fpfh_with_knn,
    kkt_violations,
    max_rel_error,
    naive_fpfh,
    normals_with_knn,
    numerical_grad,
    ranked_clusters,
    union_find_partition,
)

from peduncle import classifiers as cls
from peduncle import cloud as pc
from peduncle import minicnn as mc
from peduncle import pipeline as pl
from peduncle import scenegen as sg


class criterion:
    """Prints the one-line verdict for a criterion block."""

    def __init__(self, cid, detail=""):
        self.cid = cid
        self.detail = detail

    def __enter__(self):
        return self

    def note(self, text):
        self.detail = text

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        suffix = f" ({self.detail})" if self.detail else ""
        print(f"\nACCEPTANCE {self.cid}: {status}{suffix}")
        return False


# ---------------------------------------------------------------------------
# 1. oracle equivalence: batched knn / radius pairs / clustering vs brute force
# ---------------------------------------------------------------------------


def test_c1_spatial_query_oracle_equivalence():
    with criterion("C1 spatial-query oracle equivalence") as c:
        start = time.perf_counter()
        rng = np.random.default_rng(101)
        for _ in range(100):
            n = int(rng.integers(10, 5001))
            pts = rng.uniform(-0.3, 0.3, (n, 3))
            for _ in range(5):
                q = rng.uniform(-0.35, 0.35, 3)
                k = int(rng.integers(1, min(n, 60) + 1))
                assert np.array_equal(pc.knn_batch(pts, q[None, :], k)[0], brute_knn(pts, q, k))
            r = float(rng.uniform(0.005, 0.05))  # cluster-tolerance scale
            pairs = pc.radius_pairs(pts, r)
            pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
            brute = brute_radius_pairs(pts, r)
            assert np.array_equal(pairs, brute)
            # the detector's sparse edge list: the same components, and on
            # these mostly isolated points nearly every point range-searched
            assert np.array_equal(
                union_find_partition(pc.connecting_pairs(pts, r), n), union_find_partition(brute, n)
            )
        for trial in range(50):
            blobs = [
                rng.normal(rng.uniform(0, 0.04, 3), 0.0011, (int(rng.integers(4, 60)), 3))
                for _ in range(int(rng.integers(3, 9)))
            ]
            pts = np.vstack(blobs + [rng.uniform(0, 0.04, (int(rng.integers(50, 300)), 3))])
            subset = np.sort(
                rng.choice(len(pts), int(rng.uniform(0.5, 1.0) * len(pts)), replace=False)
            )
            got = ranked_clusters(pts, subset, 0.003, 5, 25000)
            want = csgraph_clusters(pts, subset, 0.003, 5, 25000)
            assert got == want
        elapsed = time.perf_counter() - start
        c.note(f"100 query clouds + 50 clustering clouds in {elapsed:.0f}s")
        assert elapsed < 120


# ---------------------------------------------------------------------------
# 2. descriptor correctness: direct formula + rigid-motion invariance
# ---------------------------------------------------------------------------


def test_c2_fpfh_direct_formula_and_invariance():
    with criterion("C2 descriptor oracle + rigid invariance") as c:
        from scipy.spatial.transform import Rotation

        start = time.perf_counter()
        rng = np.random.default_rng(202)
        worst = 0.0
        for n, k in ((120, 6), (300, 10), (500, 12)):
            pts = rng.uniform(0, 0.07, (n, 3))
            cloud = pc.PointCloud(pts)
            normals, valid = normals_with_knn(cloud, min(10, n), (0.0, 0.0, 1.0))
            got, got_ok = fpfh_with_knn(pts, normals, k, valid)
            want, want_ok = naive_fpfh(pts, normals, k)
            assert np.array_equal(got_ok, want_ok & valid)
            worst = max(worst, float(np.abs(got[got_ok] - want[got_ok]).max()))
        assert worst <= 1e-6

        pts = rng.uniform(0, 0.08, (250, 3))
        vp = np.array([0.0, 0.0, -0.4])
        cloud = pc.PointCloud(pts)
        normals, valid = normals_with_knn(cloud, 10, vp)
        base, base_ok = fpfh_with_knn(pts, normals, 10, valid)
        inv_worst = 0.0
        for trial in range(20):
            rot = Rotation.random(random_state=1000 + trial).as_matrix()
            shift = rng.normal(scale=0.4, size=3)
            moved = pc.PointCloud(pts @ rot.T + shift)
            m_norm, m_valid = normals_with_knn(moved, 10, rot @ vp + shift)
            got, got_ok = fpfh_with_knn(moved.points, m_norm, 10, m_valid)
            assert np.array_equal(base_ok, got_ok)
            inv_worst = max(inv_worst, float(np.abs(got[got_ok] - base[base_ok]).max()))
        assert inv_worst <= 1e-6
        elapsed = time.perf_counter() - start
        c.note(f"oracle diff {worst:.2e}, motion diff {inv_worst:.2e}, {elapsed:.0f}s")
        assert elapsed < 120


# ---------------------------------------------------------------------------
# 3. margin-classifier optimality
# ---------------------------------------------------------------------------


def test_c3_svm_kkt_and_separable_accuracy():
    with criterion("C3 solver optimality") as c:
        start = time.perf_counter()
        rng = np.random.default_rng(303)
        worst_violation = 0.0
        for trial in range(10):
            dim = int(rng.integers(2, 8))
            n_per = int(rng.integers(20, 60))
            gap = 2.5 if trial % 2 == 0 else 0.8
            c1 = rng.normal(0, 1, dim)
            c2 = c1 + gap * rng.normal(0, 1, dim) / np.linalg.norm(rng.normal(0, 1, dim))
            x = np.vstack(
                [rng.normal(0, 0.4, (n_per, dim)) + c1, rng.normal(0, 0.4, (n_per, dim)) + c2]
            )
            y = np.r_[np.ones(n_per), -np.ones(n_per)]
            params = cls.SvmParams(
                kernel="rbf" if trial % 3 else "linear",
                gamma=1.0 / dim,
                c=float(rng.uniform(0.5, 20.0)),
            )
            model = cls.svm_train(x, y, params)
            worst_violation = max(
                worst_violation, float(kkt_violations(model, x, y).max())
            )
            assert worst_violation <= params.tol
        # separable data reaches 100% training accuracy
        x = np.vstack(
            [rng.normal(0, 0.3, (50, 2)) + [3, 3], rng.normal(0, 0.3, (50, 2)) - [3, 3]]
        )
        y = np.r_[np.ones(50), -np.ones(50)]
        model = cls.svm_train(x, y, cls.SvmParams(kernel="linear", c=5.0))
        accuracy = float((np.sign(cls.svm_score_batch(model, x)) == y).mean())
        assert accuracy == 1.0
        elapsed = time.perf_counter() - start
        c.note(f"max violation {worst_violation:.1e}, separable acc {accuracy:.0%}, {elapsed:.0f}s")
        assert elapsed < 60


# ---------------------------------------------------------------------------
# 4. network numerical validity
# ---------------------------------------------------------------------------


def test_c4_network_gradients_counts_roundtrip(tmp_path):
    with criterion("C4 network numerics") as c:
        start = time.perf_counter()
        rng = np.random.default_rng(404)
        worst = 0.0

        # per-layer checks
        layer_cases = [
            ([mc.ConvSpec(3, 3, 2, 3, 1, 1)], (2, 2, 6, 6)),
            ([mc.ConvSpec(2, 4, 3, 2, 2, 1)], (2, 3, 7, 7)),
            ([mc.PoolSpec(2, 2)], (2, 3, 6, 6)),
            ([mc.PoolSpec(3, 2)], (1, 2, 7, 7)),
            ([mc.ReluSpec()], (2, 3, 5, 5)),
            ([mc.InceptionSpec(2, 2, 2, 2)], (2, 3, 5, 5)),
            ([mc.FcSpec(18, 4)], (3, 2, 3, 3)),
        ]
        for specs, shape in layer_cases:
            net = mc.Network(specs, input_c=shape[1], input_hw=shape[2:])
            net.init_weights(11)
            head = mc.Fc(mc.FcSpec(int(np.prod(net.forward(np.zeros(shape)).shape[1:])), 2))
            head.init_weights(np.random.default_rng(12))
            x = rng.normal(size=shape)
            labels = rng.integers(0, 2, shape[0])

            def loss_fn():
                return mc.cross_entropy(
                    head.forward(net.forward(x, train=True), train=True), labels
                )[0]

            _, dl = mc.cross_entropy(
                head.forward(net.forward(x, train=True), train=True), labels
            )
            dx = net.backward(head.backward(dl))
            for _, _, p, g in net.parameters():
                worst = max(worst, max_rel_error(numerical_grad(loss_fn, p), g))
            worst = max(worst, max_rel_error(numerical_grad(loss_fn, x), dx))

        # end-to-end stack under 5k parameters
        specs = [
            mc.ConvSpec(3, 3, 2, 3, 1, 1),
            mc.ReluSpec(),
            mc.PoolSpec(2, 2),
            mc.InceptionSpec(2, 2, 3, 2),
            mc.ReluSpec(),
            mc.FcSpec(7 * 4 * 4, 2),
        ]
        net = mc.Network(specs, input_c=2, input_hw=(8, 8))
        net.init_weights(13)
        assert net.param_count() < 5000
        x = rng.normal(size=(3, 2, 8, 8))
        labels = np.array([0, 1, 1])

        def loss_fn():
            return mc.cross_entropy(net.forward(x, train=True), labels)[0]

        _, dl = mc.cross_entropy(net.forward(x, train=True), labels)
        net.backward(dl)
        for _, _, p, g in net.parameters():
            worst = max(worst, max_rel_error(numerical_grad(loss_fn, p), g))
        assert worst < 1e-3

        # parameter counting: the stated case plus hand sums for 3 small specs
        def count(specs, input_c):
            return mc.Network(specs, input_c=input_c).param_count()

        assert count([mc.ConvSpec(3, 3, 2, 4)], 2) == 3 * 3 * 2 * 4 + 4 == 76
        assert count([mc.FcSpec(10, 2)], 10) == 22
        assert (
            count([mc.ConvSpec(1, 1, 4, 8), mc.ReluSpec(), mc.FcSpec(8, 2)], 4)
            == (4 * 8 + 8) + (8 * 2 + 2)
        )
        assert count(
            [mc.ConvSpec(3, 3, 2, 3, 1, 1), mc.InceptionSpec(2, 2, 3, 2)], 2
        ) == (3 * 3 * 2 * 3 + 3) + ((3 * 2 + 2) + (3 * 2 + 2) + (3 * 3 * 2 * 3 + 3) + (3 * 2 + 2))

        # weight save -> load -> score round trip is bit-identical
        from importlib import resources

        spec = mc.parse_netspec(
            resources.files("peduncle").joinpath("data/default_net.spec").read_text()
        )
        net_a = mc.Network.from_netspec(spec, seed=5)
        path = tmp_path / "w.bin"
        net_a.save_weights(path)
        net_b = mc.Network.from_netspec(spec)
        net_b.load_weights(path)
        img = rng.integers(0, 256, (64, 96, 3)).astype(np.uint8)
        sa = mc.score_map(img, net_a, stride=32)
        sb = mc.score_map(img, net_b, stride=32)
        assert np.array_equal(sa.scores, sb.scores)
        elapsed = time.perf_counter() - start
        c.note(f"max grad rel err {worst:.1e}, {elapsed:.0f}s")
        assert elapsed < 120


# ---------------------------------------------------------------------------
# 5. geometry rules (worked examples, exact)
# ---------------------------------------------------------------------------


def test_c5_geometry_rules():
    with criterion("C5 geometry rules") as c:
        roi = pl.compute_roi(pl.Roi2(100, 150, 200, 250), 640, 480)
        assert (roi.x_min, roi.y_min, roi.x_max, roi.y_max) == (100, 100, 200, 200)

        # horizontal extents: max(width, length), exact up to one float ulp
        box = pc.BoundingBox3([0.0, 0.0, 0.0], [0.08, 0.10, 0.07])
        out = pl.peduncle_bbox3(box, pl.PeduncleBoxParams(h_offset=0.05), up=(1, -1))
        assert out.max[0] - out.min[0] == pytest.approx(0.08, abs=1e-15)
        assert out.max[2] - out.min[2] == pytest.approx(0.08, abs=1e-15)

        # vertical span from the pepper top with the 50 mm default offset
        assert pl.PeduncleBoxParams().h_offset == 0.05
        box = pc.BoundingBox3([0.0, 0.0, 0.10], [0.08, 0.07, 0.30])
        out = pl.peduncle_bbox3(box, pl.PeduncleBoxParams(), up=(2, 1))
        assert out.min[2] == pytest.approx(0.25, abs=1e-15)
        assert out.max[2] == pytest.approx(0.35, abs=1e-15)
        c.note("ROI shift and 3D box extents exact")


# ---------------------------------------------------------------------------
# 6. directional reproduction on the fixed-seed benchmark
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def benchmark_results():
    start = time.perf_counter()
    results = contract.run_c6()
    results["elapsed"] = time.perf_counter() - start
    return results


def test_c6a_filtering_improves_both_detectors(benchmark_results):
    with criterion("C6a filtering improves both detectors") as c:
        r = benchmark_results
        svm_raw = r["pfh-svm"]["raw"].best.f1
        svm_filt = r["pfh-svm"]["filtered"].best.f1
        cnn_raw = r["cnn"]["raw"].best.f1
        cnn_filt = r["cnn"]["filtered"].best.f1
        c.note(
            f"pfh-svm {svm_raw:.3f}->{svm_filt:.3f}, cnn {cnn_raw:.3f}->{cnn_filt:.3f}, "
            f"benchmark {r['elapsed']:.0f}s"
        )
        assert svm_filt > svm_raw
        assert cnn_filt > cnn_raw
        assert r["elapsed"] < 1800


def test_c6b_more_training_scenes_do_not_hurt(benchmark_results):
    with criterion("C6b doubling training scenes") as c:
        r = benchmark_results
        half = r["cnn-half"]["raw"].best.f1
        full = r["cnn"]["raw"].best.f1
        c.note(f"pre-filter best F1 {half:.3f} (half) vs {full:.3f} (full)")
        assert full >= half - 0.02


def test_c6c_counts_match_the_committed_contract(benchmark_results):
    with criterion("C6c per-threshold counts as committed") as c:
        contract.assert_matches(contract.C6_COUNTS, contract.c6_counts(benchmark_results))
        c.note("tp/fp/fn/tn of six curves at 26 thresholds")


# ---------------------------------------------------------------------------
# 7. determinism: CLI runs are bit-reproducible
# ---------------------------------------------------------------------------


def test_c7_cli_bit_reproducible(tmp_path):
    with criterion("C7 CLI determinism") as c:
        cfg = tmp_path / "c.cfg"
        cfg.write_text(contract.C7_CONFIG)
        hashes = []
        for run in ("a", "b"):
            contract.run_c7(tmp_path / run, cfg)
            hashes.append(contract.tree_hashes(tmp_path / run))
        assert hashes[0] == hashes[1]
        contract.assert_matches(contract.C7_DIGESTS, hashes[0])
        c.note(f"{len(hashes[0])} files hash-identical across runs and with the committed digests")


# ---------------------------------------------------------------------------
# 8. filtering semantics: each step removes exactly the planted violators
# ---------------------------------------------------------------------------


def test_c8_filter_steps_remove_planted_violators():
    with criterion("C8 per-step filtering semantics") as c:
        rng = np.random.default_rng(808)

        def hsv_colors(h_mean, h_std, s_rng, v_rng, n):
            return sg._hsv_to_rgb_array(
                rng.normal(h_mean, h_std, n) % 360,
                rng.uniform(*s_rng, n),
                rng.uniform(*v_rng, n),
            )

        red_train = np.column_stack(
            [rng.normal(5, 5, 300) % 360, rng.uniform(0.7, 0.95, 300), rng.uniform(0.4, 0.8, 300)]
        )
        other_train = np.column_stack(
            [rng.normal(110, 12, 300), rng.uniform(0.3, 0.8, 300), rng.uniform(0.2, 0.7, 300)]
        )
        nb = cls.nb_fit(red_train, other_train)

        pepper_pts = rng.uniform(-0.04, 0.04, (150, 3)) + [0.0, 0.0, 0.4]
        peduncle = rng.uniform(-0.001, 0.001, (30, 3)) + [0.0, 0.0, 0.4]
        peduncle[:, 1] = np.linspace(-0.085, -0.055, 30)
        leaf_blob = rng.uniform(-0.008, 0.008, (20, 3)) + [0.0, -0.08, 0.58]
        red_points = rng.uniform(-0.002, 0.002, (10, 3)) + [0.01, -0.06, 0.4]
        crumb = np.array(
            [[0.03, -0.06, 0.4], [0.0301, -0.0601, 0.4], [0.0302, -0.0602, 0.4]]
        )
        low_score = rng.uniform(-0.01, 0.01, (40, 3)) + [-0.02, -0.07, 0.4]

        pts = np.vstack([peduncle, leaf_blob, red_points, crumb, low_score])
        colors = np.vstack(
            [
                hsv_colors(112, 6, (0.5, 0.75), (0.4, 0.6), 30),
                hsv_colors(112, 6, (0.5, 0.75), (0.4, 0.6), 20),
                hsv_colors(5, 4, (0.75, 0.9), (0.5, 0.7), 10),
                hsv_colors(112, 6, (0.5, 0.75), (0.4, 0.6), 3),
                hsv_colors(112, 6, (0.5, 0.75), (0.4, 0.6), 40),
            ]
        )
        scores = np.concatenate(
            [np.full(30, 0.9), np.full(20, 0.95), np.full(10, 0.9), np.full(3, 0.9),
             np.full(40, 0.1)]
        )
        scored = pl.ScoredCloud(pc.PointCloud(pts, colors), scores)
        result = pl.filter_detections(
            scored, pc.compute_bbox(pc.PointCloud(pepper_pts)), nb,
            pl.FilterParams(score_threshold=0.5, cluster_tol=0.003, min_cluster=5),
        )
        counts = [count for _, _, count in result.survivors]
        # step 1 removes exactly the 40 low-score points
        assert counts[0] == 63 and counts[1] == 63
        # step 3 removes exactly the 10 pepper-colored points
        assert counts[2] == 53
        # step 4 removes exactly the 20-point out-of-box leaf blob
        assert counts[3] == 33
        # step 5 removes the 3-point crumb and returns the full peduncle
        assert counts[4] == 30
        assert np.array_equal(result.cluster, np.arange(30))
        c.note("survivors 63/63/53/33/30 as planted")
