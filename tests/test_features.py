"""Color conversion, Darboux angles and histogram descriptor tests.

The vectorized descriptor path is checked against a naive per-pair oracle
that reuses only the scalar angle function plus its own binning, weighting
and normalization loops.
"""

import colorsys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    DegeneratePair,
    EmptyHistogram,
    darboux_angles,
    fpfh_reference,
    fpfh_with_knn,
    naive_fpfh,
    naive_spfh,
    neighbor_sum_rows,
    neighbor_tables_reference,
    normals_with_knn,
    pair_angles_rows,
    point_features_reference,
    rgb_to_hsv_rows,
    row_chunks,
    same_bytes,
    spfh,
)

from peduncle import cloud as pc
from peduncle import features as ft
from peduncle import pipeline as pl
from peduncle import scenegen as sg
from peduncle.errors import FormatError, InvalidInput


def hsv(r, g, b):
    return ft.rgb_to_hsv_array(np.array([[r, g, b]], dtype=np.uint8))[0].tolist()


class TestHsv:
    def test_pure_red(self):
        assert hsv(255, 0, 0) == [0.0, 1.0, 1.0]

    def test_pure_green(self):
        assert hsv(0, 255, 0) == [120.0, 1.0, 1.0]

    def test_achromatic_forces_zero_hue(self):
        assert hsv(128, 128, 128) == [0.0, 0.0, 128 / 255]

    def test_roundtrip_within_one_unit(self):
        # back through the scene generator's vectorized inverse
        rgb = np.random.default_rng(0).integers(0, 256, (300, 3)).astype(np.uint8)
        h = ft.rgb_to_hsv_array(rgb)
        back = sg._hsv_to_rgb_array(h[:, 0], h[:, 1], h[:, 2])
        assert np.abs(back.astype(int) - rgb.astype(int)).max() <= 1

    def test_array_matches_scalar(self):
        rng = np.random.default_rng(1)
        rgb = rng.integers(0, 256, (100, 3)).astype(np.uint8)
        arr = ft.rgb_to_hsv_array(rgb)
        for row, c in zip(arr, rgb):
            h, s, v = colorsys.rgb_to_hsv(*(c / 255.0))
            np.testing.assert_allclose(row, [h * 360.0, s, v], atol=1e-12)


class TestHsvColumnsPinned:
    """The column form equals the previous row form byte for byte."""

    def test_every_color(self):
        # all 2**24 colors, greys, channel ties and black included
        code = np.arange(1 << 24, dtype=np.uint32)
        for start in range(0, 1 << 24, 1 << 18):
            c = code[start : start + (1 << 18)]
            rgb = np.stack([c >> 16, c >> 8, c], axis=1).astype(np.uint8)
            assert same_bytes(ft.rgb_to_hsv_array(rgb), rgb_to_hsv_rows(rgb))

    @settings(max_examples=100)
    @given(
        levels=st.lists(st.integers(0, 255), min_size=1, max_size=3),
        picks=st.lists(st.tuples(*[st.integers(0, 2)] * 3), min_size=0, max_size=40),
        layout=st.sampled_from(["C", "F", "strided"]),
    )
    def test_tied_channels_in_any_layout(self, levels, picks, layout):
        # few distinct levels per color, so channels tie two or three ways
        rgb = np.array([[levels[i % len(levels)] for i in p] for p in picks], dtype=np.uint8).reshape(-1, 3)
        if layout == "F":
            rgb = np.asfortranarray(rgb)
        elif layout == "strided":
            rgb = np.repeat(rgb, 2, axis=0)[::2]
        assert same_bytes(ft.rgb_to_hsv_array(rgb), rgb_to_hsv_rows(rgb))

    @pytest.mark.parametrize("shape", [(3,), (4, 4), (2, 3, 3)])
    def test_rejects_other_shapes(self, shape):
        with pytest.raises(InvalidInput):
            ft.rgb_to_hsv_array(np.zeros(shape, dtype=np.uint8))


class TestDarboux:
    def test_coplanar_equal_normals(self):
        a = darboux_angles([0, 0, 0], [0, 0, 1], [1, 0, 0], [0, 0, 1])
        assert abs(a.alpha) < 1e-12 and abs(a.phi) < 1e-12 and abs(a.theta) < 1e-12

    def test_quarter_turn_theta(self):
        a = darboux_angles([0, 0, 0], [0, 0, 1], [1, 0, 0], [1, 0, 0])
        assert abs(a.alpha) < 1e-12 and abs(a.phi) < 1e-12
        assert abs(a.theta - np.pi / 2) < 1e-12

    def test_degenerate_pair_raises(self):
        with pytest.raises(DegeneratePair):
            darboux_angles([0, 0, 0], [0, 0, 1], [0, 0, 0.01], [0, 1, 0])
        with pytest.raises(DegeneratePair):
            darboux_angles([0, 0, 0], [0, 0, 1], [0, 0, 0], [0, 0, 1])

    def test_ranges_and_rigid_invariance(self):
        rng = np.random.default_rng(7)
        from scipy.spatial.transform import Rotation

        for _ in range(100):
            p_s = rng.normal(size=3)
            p_t = p_s + rng.normal(size=3)
            n_s = rng.normal(size=3)
            n_s /= np.linalg.norm(n_s)
            n_t = rng.normal(size=3)
            n_t /= np.linalg.norm(n_t)
            try:
                base = darboux_angles(p_s, n_s, p_t, n_t)
            except DegeneratePair:
                continue
            assert -1 <= base.alpha <= 1 and -1 <= base.phi <= 1
            assert -np.pi < base.theta <= np.pi
            rot = Rotation.random(random_state=int(rng.integers(2**31))).as_matrix()
            shift = rng.normal(size=3)
            moved = darboux_angles(rot @ p_s + shift, rot @ n_s, rot @ p_t + shift, rot @ n_t)
            np.testing.assert_allclose(
                [moved.alpha, moved.phi, moved.theta],
                [base.alpha, base.phi, base.theta],
                atol=1e-9,
            )


_S2, _S3 = 1 / np.sqrt(2.0), 1 / np.sqrt(3.0)
_BASE_NORMALS = np.array([
    [1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0], [_S2, _S2, 0], [_S2, 0, -_S2], [0, -_S2, _S2],
    [_S3, _S3, _S3], [_S3, -_S3, _S3], [0.6, 0.8, 0], [0, 0.6, -0.8], [0, 0, 0],
])
# negation puts -0.0 into the zero components, and the zero normal twice
LATTICE_NORMALS = np.concatenate([_BASE_NORMALS, -_BASE_NORMALS])


@st.composite
def lattice_pairs(draw):
    """(ps, ns, pt, nt) rows of point pairs on a {-1, 0, 1}^3 lattice.

    Separations have zero components or zero length; normals come from a
    set with axis, diagonal and zero normals and -0.0 components. A
    target normal is drawn on its own, equal to the source's, antiparallel
    to it (an exact swap tie: ns.d == nt.(-d)) or zero.
    """
    n = draw(st.integers(1, 30))
    scale = draw(st.sampled_from([1.0, 0.01, 0.003]))
    corner = st.tuples(st.integers(-1, 1), st.integers(-1, 1), st.integers(-1, 1))
    pair = st.tuples(corner, corner, st.integers(0, len(LATTICE_NORMALS) - 1),
                     st.sampled_from(["own", "same", "antiparallel", "zero"]),
                     st.integers(0, len(LATTICE_NORMALS) - 1))
    rows = draw(st.lists(pair, min_size=n, max_size=n))
    ps = np.array([r[0] for r in rows], dtype=np.float64) * scale
    pt = np.array([r[1] for r in rows], dtype=np.float64) * scale
    ns = LATTICE_NORMALS[[r[2] for r in rows]]
    nt = np.array([
        {"own": LATTICE_NORMALS[j], "same": ns[i], "antiparallel": -ns[i], "zero": np.zeros(3)}[rel]
        for i, (_, _, _, rel, j) in enumerate(rows)
    ])
    return ps, ns, pt, nt


class TestPairAnglesColumns:
    """_pair_angles on (3, M) columns equals its (M, 3) row form byte for
    byte in all four outputs, on the pairs where signs and ties decide."""

    @staticmethod
    def check(ps, ns, pt, nt):
        got = ft._pair_angles(ps.T, ns.T, pt.T, nt.T)
        want = pair_angles_rows(ps, ns, pt, nt)
        for name, g, w in zip(("alpha", "phi", "theta", "valid"), got, want):
            assert same_bytes(g, w), name

    @settings(max_examples=300)
    @given(lattice_pairs())
    def test_lattice_pairs(self, pairs):
        self.check(*pairs)

    def test_zero_target_normal_gives_positive_zeros(self):
        # both of theta's dots add three -0.0 products; einsum's sum is +0.0,
        # so theta is arctan2(+0.0, +0.0) = 0, not the pi that -0.0 would give
        ps = np.zeros((1, 3))
        pt = np.array([[-1.0, -1.0, -1.0]])
        ns = np.array([[-1.0, -0.0, -0.0]])
        self.check(ps, ns, pt, np.zeros((1, 3)))

    def test_random_pairs(self):
        rng = np.random.default_rng(21)
        ps, pt = rng.normal(size=(2, 5000, 3)) * 0.01
        ns, nt = rng.normal(size=(2, 5000, 3))
        ns /= np.linalg.norm(ns, axis=1, keepdims=True)
        nt /= np.linalg.norm(nt, axis=1, keepdims=True)
        self.check(ps, ns, pt, nt)


class TestNeighborSum:
    """The one-product neighbor average adds each row in neighbor order
    onto zero, like the column-by-column loop, zero weights and empty
    shapes included."""

    @settings(max_examples=100)
    @given(r=st.integers(0, 12), kk=st.integers(0, 8), n=st.integers(1, 15), seed=st.integers(0, 2**32 - 1))
    def test_matches_the_loop(self, r, kk, n, seed):
        rng = np.random.default_rng(seed)
        weights = np.where(rng.uniform(size=(r, kk)) < 0.3, 0.0, rng.uniform(1.0, 400.0, (r, kk)))
        nbrs = rng.integers(0, n, (r, kk))
        own = rng.uniform(0.0, 100.0, (n, ft.FPFH_DIM)) * (rng.uniform(size=(n, 1)) < 0.8)
        assert same_bytes(ft._neighbor_sum(weights, nbrs, own), neighbor_sum_rows(weights, nbrs, own))


class TestSpfh:
    def test_plane_grid_single_bins(self):
        g = np.stack(np.meshgrid(np.arange(5) * 0.01, np.arange(5) * 0.01), -1).reshape(-1, 2)
        points = np.column_stack([g, np.zeros(len(g))])
        normals = np.tile([0.0, 0.0, 1.0], (len(g), 1))
        center = 12
        nbrs = [j for j in range(len(g)) if j != center]
        hist = spfh(points, normals, center, nbrs)
        # all angles zero: one bin per block carries the full 100
        for off in (0, 11, 22):
            block = hist[off : off + 11]
            assert block.sum() == pytest.approx(100.0)
            nz = np.flatnonzero(block)
            assert len(nz) == 1 and block[nz[0]] == pytest.approx(100.0)
        # alpha = phi = 0 falls in bin 5 of [-1, 1]; theta = 0 in bin 5 of (-pi, pi]
        assert hist[5] == pytest.approx(100.0)
        assert hist[11 + 5] == pytest.approx(100.0)
        assert hist[22 + 5] == pytest.approx(100.0)

    def test_two_theta_bins_split_50_50(self):
        # neighbor 1 lands at theta = pi/2, neighbor 2 at theta = 0
        points = np.array([[0.0, 0, 0], [0.01, 0, 0], [-0.01, 0, 0]])
        normals = np.array([[0.0, 0, 1], [1.0, 0, 0], [0.0, -1, 0]])
        hist = spfh(points, normals, 0, [1, 2])
        theta = hist[22:]
        nz = np.flatnonzero(theta)
        assert len(nz) == 2
        np.testing.assert_allclose(theta[nz], [50.0, 50.0])

    def test_block_sums_100(self):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(30, 3))
        normals = rng.normal(size=(30, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        hist = spfh(points, normals, 0, list(range(1, 30)))
        for off in (0, 11, 22):
            assert hist[off : off + 11].sum() == pytest.approx(100.0, abs=1e-9)

    def test_matches_naive(self):
        rng = np.random.default_rng(4)
        points = rng.normal(size=(40, 3)) * 0.02
        normals = rng.normal(size=(40, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        for i in (0, 7, 39):
            nbrs = [j for j in range(40) if j != i]
            np.testing.assert_allclose(
                spfh(points, normals, i, nbrs), naive_spfh(points, normals, i, nbrs), atol=1e-9
            )

    def test_empty_histogram(self):
        points = np.array([[0.0, 0, 0], [0.0, 0, 0.01]])
        normals = np.array([[0.0, 0, 1], [0.0, 0, 1]])
        with pytest.raises(EmptyHistogram):
            spfh(points, normals, 0, [1])


class TestFpfh:
    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(0, 0.05, (120, 3))
        cloud = pc.PointCloud(pts)
        normals, valid = normals_with_knn(cloud, 8, [0, 0, 1.0])
        got, got_ok = fpfh_with_knn(pts, normals, 8, valid)
        want, want_ok = naive_fpfh(pts, normals, 8)
        np.testing.assert_array_equal(got_ok, want_ok & valid)
        np.testing.assert_allclose(got[got_ok], want[got_ok], atol=1e-6)

    def test_hand_expanded_three_points(self):
        points = np.array([[0.0, 0.0, 0.0], [0.02, 0.0, 0.0], [0.0, 0.03, 0.0]])
        normals = np.array([[0.0, 0, 1], [0.0, 1, 0], [1.0, 0, 0]]) / 1.0
        got, ok = fpfh_with_knn(points, normals, 2)
        assert ok.all()
        own = [naive_spfh(points, normals, i, [j for j in range(3) if j != i]) for i in range(3)]
        w01 = np.linalg.norm(points[0] - points[1])
        w02 = np.linalg.norm(points[0] - points[2])
        expected0 = own[0] + 0.5 * (own[1] / w01 + own[2] / w02)
        np.testing.assert_allclose(got[0], expected0, atol=1e-9)

    def test_plane_grid_same_nonzero_bins(self):
        g = np.stack(np.meshgrid(np.arange(8) * 0.01, np.arange(8) * 0.01), -1).reshape(-1, 2)
        pts = np.column_stack([g, np.zeros(len(g))])
        normals = np.tile([0.0, 0.0, 1.0], (len(pts), 1))
        out, ok = fpfh_with_knn(pts, normals, 6)
        assert ok.all()
        # constant angles: the weighted sum keeps exactly the single-bin pattern
        for row in out:
            for off in (0, 11, 22):
                nz = np.flatnonzero(row[off : off + 11])
                assert len(nz) == 1

    def test_rigid_motion_invariance(self):
        from scipy.spatial.transform import Rotation

        rng = np.random.default_rng(6)
        pts = rng.uniform(0, 0.08, (250, 3))
        cloud = pc.PointCloud(pts)
        vp = np.array([0.0, 0.0, -0.5])
        normals, valid = normals_with_knn(cloud, 10, vp)
        base, base_ok = fpfh_with_knn(pts, normals, 10, valid)
        for trial in range(20):
            rot = Rotation.random(random_state=trial).as_matrix()
            shift = rng.normal(scale=0.5, size=3)
            moved = pc.PointCloud(pts @ rot.T + shift)
            m_normals, m_valid = normals_with_knn(moved, 10, rot @ vp + shift)
            got, got_ok = fpfh_with_knn(moved.points, m_normals, 10, m_valid)
            assert np.array_equal(base_ok, got_ok)
            assert np.abs(got[got_ok] - base[base_ok]).max() <= 1e-6

    @pytest.mark.parametrize("shape", [(40, 3), (20, 3), (30, 2), (30,), (30, 3, 1)])
    def test_rejects_normals_of_another_shape(self, shape):
        pts = lattice(4)[:30]
        normals = np.resize([0.0, 0.0, 1.0], shape)
        with pytest.raises(InvalidInput, match="normals must be"):
            fpfh_with_knn(pts, normals, 4)

    @pytest.mark.parametrize("shape", [(40,), (20,), (30, 1)])
    def test_rejects_valid_flags_of_another_shape(self, shape):
        pts = lattice(4)[:30]
        normals = np.tile([0.0, 0.0, 1.0], (30, 1))
        with pytest.raises(InvalidInput, match="valid_normals must be"):
            fpfh_with_knn(pts, normals, 4, np.ones(shape, dtype=bool))

    def test_duplicate_neighbors_skipped(self):
        pts = np.array([[0.0, 0, 0], [0.0, 0, 0], [0.01, 0, 0], [0.0, 0.01, 0]])
        normals = np.tile([0.0, 0.0, 1.0], (4, 1))
        out, ok = fpfh_with_knn(pts, normals, 3)
        assert np.isfinite(out).all()


@pytest.fixture(scope="module")
def c6_frame():
    """C6 evaluation draw 40 and its ground-truth region of interest."""
    frame = sg.generate(sg.benchmark_params(41, 20240, sg.benchmark_base())[40]).frame
    pepper = frame.cloud.labels == pc.LABEL_PEPPER
    roi = pl.compute_roi(pl.pixel_bbox(frame.pixels[pepper]), *frame.depth_raw.shape[::-1])
    return frame, pl.roi_rows(frame, roi)


def lattice(n_side, scale=1.0):
    """Integer grid points: every distance is tied many times over."""
    g = np.stack(np.meshgrid(*[np.arange(n_side)] * 3, indexing="ij"), -1).reshape(-1, 3)
    return g.astype(np.float64) * scale


@st.composite
def lattice_clouds(draw):
    """Points drawn from a small lattice, with duplicates, in any order."""
    side = draw(st.integers(1, 4))
    grid = lattice(side, draw(st.sampled_from([1.0, 0.25, 0.01, 0.003])))
    picks = draw(st.lists(st.integers(0, len(grid) - 1), min_size=3, max_size=70))
    return pc.PointCloud(grid[picks])


class TestSharedNeighborTables:
    """One query serves normals and histograms; both tables equal the exact
    (d2, index) tables at their own widths, ties and duplicates included."""

    @pytest.mark.parametrize("relation", ["below", "equal", "above"])
    @settings(max_examples=60)
    @given(cloud=lattice_clouds(), fpfh_k=st.integers(2, 40), delta=st.integers(1, 12))
    def test_lattice_tables_match_two_queries(self, relation, cloud, fpfh_k, delta):
        n = len(cloud)
        width = min(fpfh_k + 1, n)
        normal_k = {"below": width - delta, "equal": width, "above": width + delta}[relation]
        normal_k = min(max(normal_k, 1), n)
        got = ft.neighbor_tables(cloud, normal_k, fpfh_k)
        want = neighbor_tables_reference(cloud.points, normal_k, fpfh_k)
        assert same_bytes(got[0], want[0]) and same_bytes(got[1], want[1])

    @pytest.mark.parametrize("copies", [2, 5, 9])
    def test_duplicate_stacks_match_two_queries(self, copies):
        # every point repeated: zero-distance ties at every table boundary
        cloud = pc.PointCloud(np.repeat(lattice(3, 0.01), copies, axis=0))
        for normal_k, fpfh_k in ((3, 2), (copies, copies), (copies + 1, 3), (10, 12)):
            got = ft.neighbor_tables(cloud, normal_k, fpfh_k)
            want = neighbor_tables_reference(cloud.points, normal_k, fpfh_k)
            assert same_bytes(got[0], want[0]) and same_bytes(got[1], want[1])

    @pytest.mark.parametrize("normal_k,fpfh_k", [(30, 30), (31, 30), (45, 30), (8, 30), (30, 8)])
    def test_c6_roi_tables_match_two_queries(self, c6_frame, normal_k, fpfh_k):
        frame, rows = c6_frame
        cloud = frame.cloud.subset(rows)
        got = ft.neighbor_tables(cloud, normal_k, fpfh_k)
        want = neighbor_tables_reference(cloud.points, normal_k, fpfh_k)
        assert same_bytes(got[0], want[0]) and same_bytes(got[1], want[1])


class TestPinnedToReference:
    """The streamed histograms equal the previous descriptor path bit for
    bit: shared query, vectorised self strip, bincount histograms and the
    per-column neighbor average."""

    @staticmethod
    def check(points, normals, k, valid=None):
        got = fpfh_with_knn(points, normals, k, valid)
        want = fpfh_reference(points, normals, k, valid)
        assert same_bytes(got[0], want[0]) and same_bytes(got[1], want[1])

    def test_c6_roi(self, c6_frame):
        frame, rows = c6_frame
        cloud = frame.cloud.subset(rows)
        normals, valid = normals_with_knn(cloud, 30, (0.0, 0.0, 0.0))
        self.check(cloud.points, normals, 30, valid)

    def test_c6_full_cloud(self, c6_frame):
        frame, _ = c6_frame
        normals, valid = normals_with_knn(frame.cloud, 30, (0.0, 0.0, 0.0))
        self.check(frame.cloud.points, normals, 30, valid)

    @pytest.mark.parametrize("k", [2, 6, 26, 40])
    def test_tie_heavy_lattice(self, k):
        pts = lattice(4, 0.01)
        normals, valid = normals_with_knn(pc.PointCloud(pts), 7, (0.0, 0.0, -1.0))
        self.check(pts, normals, k, valid)

    def test_invalid_normals_and_duplicates(self):
        rng = np.random.default_rng(17)
        pts = rng.uniform(0, 0.05, (150, 3))
        pts[40:60] = pts[0]                    # a stack of zero-distance duplicates
        pts[100:103] = pts[99]
        normals = rng.normal(size=(150, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        valid = rng.uniform(size=150) > 0.2
        normals[~valid] = 0.0
        for k in (3, 12, 30):
            self.check(pts, normals, k, valid)
            self.check(pts, normals, k)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_clouds_smaller_than_k(self, n):
        pts = lattice(2)[:n]
        normals = np.tile([0.0, 0.6, 0.8], (n, 1))
        self.check(pts, normals, 8)

    def test_point_features_on_c6_roi(self, c6_frame):
        # and with its kNN rows in chunks of 300 on 1 to 3 threads
        frame, rows = c6_frame
        cloud = frame.cloud.subset(rows)
        for normal_k, fpfh_k in ((30, 30), (12, 20), (40, 10)):
            want = point_features_reference(cloud, normal_k, fpfh_k)
            runs = [ft.point_features(cloud, normal_k, fpfh_k)]
            for workers in (1, 2, 3):
                with row_chunks(workers, chunk_rows=300):
                    runs.append(ft.point_features(cloud, normal_k, fpfh_k))
            for got in runs:
                assert same_bytes(got[0], want[0]) and same_bytes(got[1], want[1])


class TestRowRestricted:
    """fpfh over any row subset equals those rows of the every-point call
    byte for byte, and the early-exit validity pass equals its valid flags
    on every point."""

    @staticmethod
    def check(points, normals, k, valid, row_sets):
        table = pc.knn_batch(points, points, min(k + 1, len(points)))
        full, full_ok = ft.fpfh(points, normals, k, valid, table)
        assert same_bytes(ft._fpfh_valid(points, normals, k, valid, table), full_ok)
        for rows in row_sets:
            rows = np.asarray(rows, dtype=np.intp)   # negative rows count from the end
            got, got_ok = ft.fpfh(points, normals, k, valid, table, rows)
            assert same_bytes(got, full[rows]) and same_bytes(got_ok, full_ok[rows])

    @settings(max_examples=80)
    @given(cloud=lattice_clouds(), k=st.integers(2, 40), normal_k=st.integers(3, 10), data=st.data())
    def test_lattice_clouds(self, cloud, k, normal_k, data):
        # duplicates give zero-distance neighbors and invalid normals
        n = len(cloud)
        normals, valid = normals_with_knn(cloud, min(normal_k, n), (0.0, 0.0, -1.0))
        valid &= ~np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        some = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
        one = [data.draw(st.integers(0, n - 1))]
        self.check(cloud.points, normals, k, valid, [[], one, np.arange(n), some])

    def test_c6_roi(self, c6_frame):
        frame, rows = c6_frame
        cloud = frame.cloud.subset(rows)
        normals, valid = normals_with_knn(cloud, 30, (0.0, 0.0, 0.0))
        n = len(cloud)
        rng = np.random.default_rng(3)
        subsets = [[], [n // 2], np.arange(n), np.sort(rng.choice(n, 300, replace=False)), rng.integers(-n, n, 500)]
        for k in (2, 30):
            self.check(cloud.points, normals, k, valid, subsets)

    def test_point_geometry_on_c6_roi(self, c6_frame):
        frame, rows = c6_frame
        cloud = frame.cloud.subset(rows)
        feats, valid = ft.point_features(cloud, 30, 30)
        geometry = ft.PointGeometry.of(cloud, 30, 30)
        assert same_bytes(geometry.valid(), valid)
        rng = np.random.default_rng(4)
        for rows in ([], [0], np.sort(rng.choice(len(cloud), 300, replace=False))):
            rows = np.asarray(rows, dtype=np.intp)
            got, got_ok = geometry.features(rows)
            assert same_bytes(got, feats[rows]) and same_bytes(got_ok, valid[rows])


class TestAssemble:
    def test_layout(self):
        out = ft.assemble_features(np.array([[0.0, 1.0, 1.0]]), np.zeros((1, 33)))
        assert out.shape == (1, 36)
        np.testing.assert_array_equal(out[0, :3], [0.0, 1.0, 1.0])
        np.testing.assert_array_equal(out[0, 3:], np.zeros(33))

    def test_length_always_36(self):
        rng = np.random.default_rng(8)
        for n in range(1, 11):
            hsv = np.column_stack([rng.uniform(0, 360, n), rng.uniform(size=n), rng.uniform(size=n)])
            out = ft.assemble_features(hsv, rng.uniform(0, 100, (n, 33)))
            assert out.shape == (n, 36)

    def test_roundtrip_slices(self):
        bins = np.random.default_rng(9).uniform(0, 100, (1, 33))
        out = ft.assemble_features(np.array([[90.0, 0.25, 0.75]]), bins)[0]
        assert out[0] == 90.0 / 360.0 and out[1] == 0.25 and out[2] == 0.75
        np.testing.assert_array_equal(out[3:], bins[0])


class TestFeatureFile:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(10)
        feats = rng.normal(size=(12, 36))
        labels = rng.integers(0, 4, 12)
        path = tmp_path / "f.txt"
        ft.save_features(path, feats, labels)
        got_f, got_l = ft.load_features(path)
        np.testing.assert_array_equal(got_f, feats)
        np.testing.assert_array_equal(got_l, labels)

    @pytest.mark.parametrize(
        "text",
        [
            "nope v1 1 36\n" + "0 " * 36 + "1\n",
            "features v1 1 35\n" + "0 " * 35 + "1\n",
            "features v1 x 36\n" + "0 " * 36 + "1\n",
            "features v1 1 y\n" + "0 " * 36 + "1\n",
            "features v1 -1 36\n",
            "features v1 100000000000 36\n" + "0 " * 36 + "1\n",
            "features v1 2 36\n" + "0 " * 36 + "1\n",
            "features v1 1 36\n" + "x " * 36 + "1\n",
            "features v1 1 36\n" + "0 " * 36 + "one\n",
            "features v1 1 36\n" + "0 " * 36 + "99999999999999999999\n",
            "features v1 1 36\n" + "0 " * 35 + "1\n",
            "features v1 1 36\n" + "0 " * 36 + "1\n" + "0 " * 36 + "1\n",
            "features v1 1 36\n" + "0 " * 35 + "nan 1\n",
            "features v1 1 36\n" + "inf " + "0 " * 35 + "1\n",
            "features v1 2 36\n" + "0 " * 36 + "1\n" + "0 " * 20 + "-inf " + "0 " * 15 + "1\n",
            "features v1 1 36\n" + "1e999 " + "0 " * 35 + "1\n",
        ],
    )
    def test_malformed_file_is_format_error(self, tmp_path, text):
        path = tmp_path / "f.txt"
        path.write_text(text)
        with pytest.raises(FormatError):
            ft.load_features(path)
