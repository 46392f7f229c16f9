"""Spatial container and query tests, with brute-force reference checks."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    brute_knn,
    brute_radius_pairs,
    csgraph_clusters,
    estimate_normals_rows,
    knn,
    knn_batch_rows,
    load_cloud_per_row,
    normals_with_knn,
    radius_pairs_rows,
    ranked_clusters,
    same_bytes,
    union_find_clusters,
    union_find_partition,
)
from scipy.sparse.csgraph import connected_components

from peduncle import cloud as pc
from peduncle import pipeline as pl
from peduncle import scenegen as sg
from peduncle.errors import FormatError, InvalidInput


class TestIndexQueries:
    def test_single_point_identity(self):
        cloud = pc.PointCloud(np.array([[0.1, 0.2, 0.3]]))
        assert pc.knn_batch(cloud.points, [[0.1, 0.2, 0.3]], 1).tolist() == [[0]]

    def test_collinear_ordering(self):
        cloud = pc.PointCloud(np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]]))
        assert pc.knn_batch(cloud.points, [[0, 0, 0]], 2).tolist() == [[0, 1]]

    def test_unit_square_corner(self):
        corners = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float)
        assert pc.knn_batch(corners, [[0, 0, 0]], 1).tolist() == [[0]]

    def test_tie_break_lowest_index(self):
        # both points tie, so both make the row, ordered by index
        cloud = pc.PointCloud(np.array([[1.0, 0, 0], [-1.0, 0, 0]]))
        assert pc.knn_batch(cloud.points, [[0, 0, 0]], 2).tolist() == [[0, 1]]
        # same cloud, swapped storage order
        cloud2 = pc.PointCloud(np.array([[-1.0, 0, 0], [1.0, 0, 0]]))
        assert pc.knn_batch(cloud2.points, [[0, 0, 0]], 2).tolist() == [[0, 1]]
        # the oracle picks the lowest index among points tied at the k-th distance
        assert knn(cloud.points, [0, 0, 0], 1).tolist() == [0]

    def test_knn_matches_brute_force(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = int(rng.integers(5, 1200))
            pts = rng.uniform(-0.2, 0.2, (n, 3))
            for _ in range(10):
                q = rng.uniform(-0.25, 0.25, 3)
                k = int(rng.integers(1, min(n, 40) + 1))
                assert np.array_equal(pc.knn_batch(pts, q[None, :], k)[0], brute_knn(pts, q, k))

    def test_radius_matches_brute_force(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(5, 1200))
            pts = rng.uniform(-0.1, 0.1, (n, 3))
            for _ in range(3):
                r = float(rng.uniform(0.005, 0.1))
                got = pc.radius_pairs(pts, r)
                got = got[np.lexsort((got[:, 1], got[:, 0]))]
                assert np.array_equal(got, brute_radius_pairs(pts, r))

    def test_radius_inclusive_boundary(self):
        pts = np.array([[0.0, 0, 0], [0.5, 0, 0], [2.0, 0, 0]])
        assert pc.radius_pairs(pts, 1.0).tolist() == [[0, 1]]
        assert pc.radius_pairs(pts, 0.5).tolist() == [[0, 1]]
        assert pc.radius_pairs(pts, 0.1).tolist() == []

    def test_knn_batch_matches_single(self):
        rng = np.random.default_rng(14)
        pts = rng.uniform(0, 0.3, (400, 3))
        queries = rng.uniform(0, 0.3, (25, 3))
        batch = pc.knn_batch(pts, queries, 9)
        for row, q in zip(batch, queries):
            assert np.array_equal(row, knn(pts, q, 9))

    def test_errors(self):
        with pytest.raises(InvalidInput, match="exceeds cloud size"):
            pc.knn_batch(np.zeros((3, 3)), [[0, 0, 0]], 4)
        with pytest.raises(InvalidInput):
            pc.radius_pairs(np.zeros((3, 3)), -1.0)
        with pytest.raises(InvalidInput, match="empty cloud"):
            pc.knn_batch(np.zeros((0, 3)), [[0, 0, 0]], 1)

    @pytest.mark.parametrize(
        "queries", [[0.0, 0.0, 0.0], [[0.0, 0.0]], [[[0.0, 0.0, 0.0]]]], ids=["one-point", "two-wide", "3d"]
    )
    def test_query_shape_checked(self, queries):
        with pytest.raises(InvalidInput, match=r"\(M, 3\)"):
            pc.knn_batch(np.eye(3), queries, 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_rejected(self, bad):
        with pytest.raises(InvalidInput, match="finite"):
            pc.knn_batch(np.eye(3), [[0.0, 0.0, 0.0], [0.0, bad, 0.0]], 1)


class TestNormals:
    def test_plane_normals_face_viewpoint(self):
        g = np.stack(np.meshgrid(np.linspace(0, 0.1, 10), np.linspace(0, 0.1, 10)), -1)
        pts = np.column_stack([g.reshape(-1, 2), np.zeros(100)])
        cloud = pc.PointCloud(pts)
        up, valid = normals_with_knn(cloud, 6, [0, 0, 1.0])
        assert valid.all()
        np.testing.assert_allclose(up, np.tile([0, 0, 1.0], (100, 1)), atol=1e-6)
        down, _ = normals_with_knn(cloud, 6, [0, 0, -1.0])
        np.testing.assert_allclose(down, np.tile([0, 0, -1.0], (100, 1)), atol=1e-6)

    def test_sphere_normals_radial(self):
        rng = np.random.default_rng(5)
        d = rng.normal(size=(4000, 3))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        center = np.array([0.0, 0.0, 0.5])
        cloud = pc.PointCloud(center + 0.05 * d)
        normals, valid = normals_with_knn(cloud, 12, center)
        assert valid.all()
        # oriented toward the center, so compare against -d
        cos = np.einsum("ij,ij->i", normals, -d)
        assert np.all(np.degrees(np.arccos(np.clip(cos, -1, 1))) < 5.0)

    def test_unit_norm_and_viewpoint_halfspace(self):
        rng = np.random.default_rng(6)
        pts = rng.uniform(0, 0.2, (300, 3))
        cloud = pc.PointCloud(pts)
        vp = np.array([0.0, 0.0, 1.0])
        normals, valid = normals_with_knn(cloud, 10, vp)
        norms = np.linalg.norm(normals[valid], axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-9)
        dots = np.einsum("ij,ij->i", normals[valid], vp - pts[valid])
        assert np.all(dots >= 0.0)

    def test_degenerate_line_flagged(self):
        pts = np.column_stack([np.linspace(0, 1, 20), np.zeros(20), np.zeros(20)])
        _, valid = normals_with_knn(pc.PointCloud(pts), 5, [0, 0, 1.0])
        assert not valid.any()


@st.composite
def tied_clouds(draw):
    """Points from a line, plane or cube lattice, with duplicates, in any
    order: exact distance ties everywhere, and collinear or planar
    neighborhoods."""
    shape = draw(st.sampled_from([(8, 1, 1), (4, 4, 1), (3, 3, 3)]))
    scale = draw(st.sampled_from([1.0, 0.25, 0.01, 0.003]))
    grid = np.stack(np.meshgrid(*[np.arange(n) for n in shape], indexing="ij"), -1).reshape(-1, 3)
    picks = draw(st.lists(st.integers(0, len(grid) - 1), min_size=3, max_size=60))
    offset = draw(st.sampled_from([0.0, 0.5, -2.0]))
    return pc.PointCloud(grid[picks] * scale + offset), scale


class TestColumnFormsPinned:
    """estimate_normals and radius_pairs equal their previous row forms
    byte for byte, and knn_batch the brute-force table on C6's clouds."""

    @settings(max_examples=120)
    @given(case=tied_clouds(), k_is_n=st.booleans(), view=st.sampled_from([(0.0, 0.0, 0.0), (0.0, 0.0, 5.0)]))
    def test_lattice_clouds(self, case, k_is_n, view):
        cloud, scale = case
        k = len(cloud) if k_is_n else 3
        got = normals_with_knn(cloud, k, view)
        want = estimate_normals_rows(cloud, k, view)
        assert same_bytes(got[0], want[0]) and same_bytes(got[1], want[1])
        # lattice distances put pairs exactly at the tolerance
        for tol in (scale, scale * np.sqrt(2.0), scale * 1.5, scale * np.sqrt(6.0)):
            assert same_bytes(pc.radius_pairs(cloud.points, tol), radius_pairs_rows(cloud.points, tol))

    @pytest.mark.parametrize("draw", [0, 40])
    def test_c6_full_clouds(self, draw):
        cloud = sg.generate(sg.benchmark_params(draw + 1, 20240, sg.benchmark_base())[draw]).frame.cloud
        for k in (31, 30):
            table = pc.knn_batch(cloud.points, cloud.points, k)
            assert same_bytes(table, knn_batch_rows(cloud.points, cloud.points, k))
        got = pc.estimate_normals(cloud, 30, (0.0, 0.0, 0.0), table)
        want = estimate_normals_rows(cloud, 30, (0.0, 0.0, 0.0), table)
        assert same_bytes(got[0], want[0]) and same_bytes(got[1], want[1])
        pepper = cloud.points[cloud.labels == pc.LABEL_PEPPER]
        assert same_bytes(pc.radius_pairs(pepper, 0.01), radius_pairs_rows(pepper, 0.01))


class TestTieExactKnn:
    """knn_batch keeps the k smallest (d2, index), whichever points tie at
    the k-th distance, so a narrower table is a prefix of a wider one."""

    @settings(max_examples=80)
    @given(case=tied_clouds())
    def test_lattice_clouds_every_k(self, case):
        cloud, scale = case
        for queries in (cloud.points, cloud.points + scale / 2):
            for k in range(1, len(cloud) + 1):
                assert same_bytes(pc.knn_batch(cloud.points, queries, k), knn_batch_rows(cloud.points, queries, k))

    @settings(max_examples=60)
    @given(case=tied_clouds(), data=st.data())
    def test_narrower_table_is_a_prefix(self, case, data):
        cloud, _ = case
        k = data.draw(st.integers(1, len(cloud)))
        table = pc.knn_batch(cloud.points, cloud.points, k)
        for j in range(1, k + 1):
            assert same_bytes(table[:, :j], pc.knn_batch(cloud.points, cloud.points, j))

    def test_every_point_tied(self):
        # one stack of copies: no row settles before the query covers the cloud
        points = np.tile([0.1, 0.2, 0.3], (20, 1))
        for k in (1, 7, 20):
            table = pc.knn_batch(points, [[0.1, 0.2, 0.3], [0.0, 0.0, 0.0]], k)
            assert table.tolist() == [list(range(k))] * 2


def awkward_rows(seed, n):
    """(n, 3) random rows with every magnitude from subnormal to 1e150, and
    rows of signed zeros: the values where the order of a sum shows."""
    rng = np.random.default_rng(seed)
    scale = rng.choice([5e-324, 1e-310, 1e-300, 1e-8, 1.0, 1e8, 1e150], size=(n, 3))
    rows = rng.normal(size=(n, 3)) * scale
    zeros = np.array(list(itertools.product([0.0, -0.0], repeat=3)))
    ones = np.array(list(itertools.product([1.0, -1.0], repeat=3)))
    return np.concatenate([rows, zeros, zeros, ones * 5e-324]), np.concatenate([rows, zeros[::-1], ones, zeros])


class TestColumnKernels:
    """The column kernels reproduce numpy's row reductions on this numpy.

    column_dot is written in the order numpy 2.4's einsum adds a three-term
    row. A numpy that adds in another order fails here, with its version
    named, rather than as an unexplained C6 count or C7 digest change.
    """

    def test_column_dot_is_einsum(self):
        a, b = awkward_rows(11, 100_000)
        got = pc.column_dot(a.T, b.T)
        for subscripts, x, y in (("ij,ij->i", a, b), ("mkj,mkj->mk", a.reshape(-1, 4, 3), b.reshape(-1, 4, 3))):
            want = np.einsum(subscripts, x, y).ravel()
            differ = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
            assert differ.size == 0, (
                f"numpy {np.__version__}: np.einsum({subscripts!r}) no longer adds a row as "
                f"((0 + x0 y0) + x2 y2) + x1 y1; {differ.size} of {len(got)} rows differ, first "
                f"{a[differ[0]].tolist()} . {b[differ[0]].tolist()} = {want[differ[0]]!r}, "
                f"column_dot {got[differ[0]]!r}"
            )

    def test_column_norm_is_linalg_norm(self):
        a, _ = awkward_rows(12, 100_000)
        want = np.linalg.norm(a, axis=1)
        got = pc.column_norm(a.T)
        assert same_bytes(got, want), f"numpy {np.__version__}: np.linalg.norm(axis=1) changed its order"

    def test_take_columns_is_a_row_gather(self):
        a, _ = awkward_rows(13, 1000)
        idx = np.random.default_rng(14).integers(0, len(a), (37, 5))
        assert same_bytes(pc.take_columns(np.ascontiguousarray(a.T), idx), np.moveaxis(a[idx], -1, 0).copy())


class TestBoxCentroid:
    def test_single_point_box(self):
        cloud = pc.PointCloud(np.array([[1.0, 2.0, 3.0]]))
        box = pc.compute_bbox(cloud, [0])
        assert box.min.tolist() == [1, 2, 3] and box.max.tolist() == [1, 2, 3]

    def test_two_point_box(self):
        cloud = pc.PointCloud(np.array([[0.0, 0, 0], [1.0, 2.0, 3.0]]))
        box = pc.compute_bbox(cloud)
        assert box.min.tolist() == [0, 0, 0] and box.max.tolist() == [1, 2, 3]

    def test_box_contains_subset(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(80, 3))
        cloud = pc.PointCloud(pts)
        subset = rng.choice(80, 30, replace=False)
        box = pc.compute_bbox(cloud, subset)
        assert box.contains(pts[subset]).all()
        np.testing.assert_array_equal(box.min, pts[subset].min(axis=0))
        np.testing.assert_array_equal(box.max, pts[subset].max(axis=0))

    # the cluster centroid the library reports is the cutting pose position

    def test_centroid_examples(self):
        pair = pl.cutting_pose(np.array([[0.0, 0, 0], [2.0, 0, 0]]))
        np.testing.assert_array_equal(pair.position, [1, 0, 0])
        single = pl.cutting_pose(np.array([[0.3, -0.1, 2.0]]))
        np.testing.assert_array_equal(single.position, [0.3, -0.1, 2.0])

    def test_centroid_extended_precision_oracle(self):
        rng = np.random.default_rng(9)
        pts = rng.uniform(-5, 5, (500, 3))
        got = pl.cutting_pose(pts).position
        import math

        expected = [math.fsum(pts[:, a]) / len(pts) for a in range(3)]
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_empty_subset_errors(self):
        cloud = pc.PointCloud(np.zeros((4, 3)))
        with pytest.raises(InvalidInput, match="empty subset"):
            pc.compute_bbox(cloud, [])
        with pytest.raises(InvalidInput, match="empty cluster"):
            pl.cutting_pose(cloud.points[[]])


class TestClustering:
    def test_two_separated_groups(self):
        rng = np.random.default_rng(1)
        a = rng.normal(0, 0.0005, (10, 3))
        b = rng.normal(0, 0.0005, (10, 3)) + 0.1
        pts = np.vstack([a, b])
        assert [len(c) for c in ranked_clusters(pts, np.arange(20), 0.01, 1, 100)] == [10, 10]
        # equal sizes: the group holding the smallest index wins
        (best,) = pc.largest_clusters(pc.radius_pairs(pts, 0.01), np.ones((1, 20), dtype=bool), 1, 100)
        assert best.tolist() == list(range(10))

    def test_chain_links_transitively(self):
        pts = np.column_stack([np.arange(6) * 0.9 * 0.003, np.zeros(6), np.zeros(6)])
        (best,) = pc.largest_clusters(pc.radius_pairs(pts, 0.003), np.ones((1, 6), dtype=bool), 1, 100)
        assert best.tolist() == list(range(6))

    def test_matches_union_find_oracle(self):
        rng = np.random.default_rng(2)
        for trial in range(8):
            blobs = [
                rng.normal(rng.uniform(0, 0.05, 3), 0.0012, (int(rng.integers(3, 40)), 3))
                for _ in range(6)
            ]
            pts = np.vstack(blobs + [rng.uniform(0, 0.05, (40, 3))])
            subset = np.sort(rng.choice(len(pts), int(0.8 * len(pts)), replace=False))
            got = ranked_clusters(pts, subset, 0.003, 5, 25000)
            want = union_find_clusters(pts, subset, 0.003, 5, 25000)
            assert got == want

    def test_partition_property(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(0, 0.02, (120, 3))
        subset = np.arange(120)
        clusters = ranked_clusters(pts, subset, 0.004, 1, 10_000)
        all_idx = np.concatenate(clusters)
        assert len(np.unique(all_idx)) == len(all_idx)
        assert np.array_equal(np.sort(all_idx), subset)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(8)
        pts = rng.uniform(0, 0.03, (60, 3))
        ref = ranked_clusters(pts, np.arange(60), 0.005, 1, 100)
        perm = rng.permutation(60)
        got = ranked_clusters(pts[perm], np.arange(60), 0.005, 1, 100)
        # map permuted indices back and canonicalize
        back = [sorted(perm[c].tolist()) for c in got]
        back.sort(key=lambda g: (-len(g), g[0]))
        assert back == ref


@st.composite
def lattice_clouds(draw):
    """Small clouds on an integer lattice scaled by the tolerance, so many
    pairs sit exactly tol apart and repeated lattice cells give duplicate
    points; optional jitter moves some points just off the lattice. The
    subset is an unsorted selection of rows."""
    tol = draw(st.sampled_from([0.003, 1.0 / 256, 0.01]))
    n = draw(st.integers(1, 40))
    cells = np.array(draw(st.lists(st.tuples(*[st.integers(0, 4)] * 3), min_size=n, max_size=n)))
    pts = cells * tol
    jitter = draw(st.lists(st.floats(-0.6, 0.6), min_size=n, max_size=n))
    jittered = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    pts[:, 0] += np.where(jittered, jitter, 0.0) * tol
    subset = draw(st.lists(st.integers(0, n - 1), min_size=0, max_size=n, unique=True))
    min_size = draw(st.integers(1, 4))
    max_size = min_size + draw(st.integers(0, n))
    return pts, np.asarray(subset, dtype=np.intp), tol, min_size, max_size


@settings(max_examples=200)
@given(lattice_clouds())
def test_clusters_equal_union_find_oracle(case):
    pts, subset, tol, min_size, max_size = case
    want = union_find_clusters(pts, subset, tol, min_size, max_size)
    assert ranked_clusters(pts, subset, tol, min_size, max_size) == want
    # the one call the detector makes: ascending rows, every one kept
    rows = np.sort(subset)
    keep = np.ones((1, len(rows)), dtype=bool)
    (best,) = pc.largest_clusters(pc.radius_pairs(pts[rows], tol), keep, min_size, max_size)
    assert (None if best is None else rows[best].tolist()) == (want[0] if want else None)


@st.composite
def pair_clouds(draw):
    """Clouds of 0-60 points for connecting_pairs: lattice cells scaled by
    the tolerance (duplicate points, pairs exactly tol apart), a collinear
    run whose step sits below, at or just past the tolerance, and uniform
    scatter, in shuffled rows."""
    tol = draw(st.sampled_from([0.003, 1.0 / 256, 0.01]))
    cells = np.array(draw(st.lists(st.tuples(*[st.integers(0, 4)] * 3), max_size=30)), dtype=float)
    step = draw(st.sampled_from([0.5, 0.9, 1.0, 1.0 + 1e-12, 1.5]))
    run = np.arange(draw(st.integers(0, 15)))[:, None] * step * np.array([[1.0, 0.0, 0.0]])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scatter = rng.uniform(0, 4, (draw(st.integers(0, 15)), 3))
    pts = np.vstack([cells.reshape(-1, 3), run + [0.0, 2.0, 1.0], scatter]) * tol
    return pts[rng.permutation(len(pts))], tol


def assert_connects(pts, tol):
    """connecting_pairs lists only pairs brute_radius_pairs lists, and its
    graph has the partition of radius_pairs'."""
    got = pc.connecting_pairs(pts, tol)
    assert got.dtype == np.intp and got.shape[1:] == (2,)
    assert not np.any(got[:, 0] == got[:, 1])
    brute = {tuple(pair) for pair in brute_radius_pairs(pts, tol).tolist()}
    assert {tuple(pair) for pair in np.sort(got, axis=1).tolist()} <= brute
    want = union_find_partition(pc.radius_pairs(pts, tol), len(pts))
    assert union_find_partition(got, len(pts)).tolist() == want.tolist()
    return got


@settings(max_examples=200)
@given(pair_clouds())
def test_connecting_pairs_keep_the_components(case):
    assert_connects(*case)


class TestConnectingPairs:
    @staticmethod
    def clumps():
        """Clumps A (rows 0-5) and B (rows 6-11), each a center with five
        points 0.25-0.36 tol behind it, joined only by the centers' pair at
        0.9 tol; then c, d exactly tol apart and e tol * (1 + 1e-12) past d."""
        back = np.array([[-0.25, 0, 0], [-0.25, 0.25, 0], [-0.25, -0.25, 0], [-0.25, 0, 0.25], [-0.25, 0, -0.25]])
        a = np.vstack([[0.0, 0, 0], back])
        b = np.vstack([[0.9, 0, 0], back * [-1, 1, 1] + [0.9, 0, 0]])
        line = np.array([[0.0, 5, 0], [0, 6, 0], [0, 7 + 1e-12, 0]])
        return np.vstack([a, b, line])

    def test_worked_example(self):
        pts = self.clumps()
        # neither center has the other among its three nearest neighbours
        near = pc.knn_batch(pts, pts, 4)
        assert 6 not in near[0] and 0 not in near[6]
        got = assert_connects(pts, 1.0)
        assert union_find_partition(got, len(pts)).tolist() == [0] * 12 + [12, 12, 14]
        assert [0, 6] in np.sort(got, axis=1).tolist()
        assert [12, 13] in np.sort(got, axis=1).tolist()

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_tiny_clouds(self, n):
        pts = np.array([[0.0, 0, 0], [0.5, 0, 0], [2.0, 0, 0]])[:n]
        got = assert_connects(pts, 1.0)
        assert {tuple(pair) for pair in np.sort(got, axis=1).tolist()} == ({(0, 1)} if n >= 2 else set())

    def test_errors(self):
        with pytest.raises(InvalidInput):
            pc.connecting_pairs(np.zeros((3, 3)), 0.0)


class TestGraphHelpers:
    def test_largest_cluster_matches_first_cluster(self):
        rng = np.random.default_rng(21)
        pts = rng.uniform(0, 0.03, (150, 3))
        pairs = pc.radius_pairs(pts, 0.004)
        for lo, hi in ((1, 150), (5, 20), (3, 3), (200, 300)):
            clusters = csgraph_clusters(pts, np.arange(150), 0.004, lo, hi)
            (best,) = pc.largest_clusters(pairs, np.ones((1, 150), dtype=bool), lo, hi)
            if clusters:
                assert best.dtype == np.intp and best.tolist() == clusters[0]
            else:
                assert best is None

    def test_induced_pairs_equal_pairs_of_the_kept_points(self):
        """A row keeps the edges between two of its kept points: its
        clusters are those of the kept points alone, not renumbered."""
        rng = np.random.default_rng(22)
        pts = rng.uniform(0, 0.02, (120, 3))
        keep = rng.uniform(size=(3, 120)) < [[0.6], [0.3], [0.9]]
        for lo, hi in ((1, 120), (4, 30)):
            got = pc.largest_clusters(pc.radius_pairs(pts, 0.004), keep, lo, hi)
            for row, best in zip(keep, got):
                want = csgraph_clusters(pts, np.flatnonzero(row), 0.004, lo, hi)
                assert (None if best is None else best.tolist()) == (want[0] if want else None)

    def test_size_window_validated(self):
        none = np.zeros((0, 2), dtype=np.intp)
        with pytest.raises(InvalidInput):
            pc.largest_clusters(none, np.ones((1, 3), dtype=bool), 0, 3)
        with pytest.raises(InvalidInput):
            pc.largest_clusters(none, np.ones((1, 3), dtype=bool), 4, 3)
        with pytest.raises(InvalidInput):
            pc.largest_clusters(none, np.ones(3, dtype=bool), 1, 3)
        with pytest.raises(InvalidInput):
            pc.radius_pairs(np.zeros((2, 3)), 0.0)


class TestLargestClusters:
    """One components pass over many kept sets."""

    def test_empty_inputs(self):
        none = np.zeros((0, 2), dtype=np.intp)
        assert pc.largest_clusters(none, np.zeros((0, 4), dtype=bool), 1, 4) == []
        assert pc.largest_clusters(none, np.zeros((3, 0), dtype=bool), 1, 4) == [None] * 3
        pairs = np.array([[0, 1], [1, 2]])
        assert pc.largest_clusters(pairs, np.zeros((2, 3), dtype=bool), 1, 4) == [None, None]

    def test_only_kept_nodes_are_members(self):
        # nodes 0-1-2 chained, 3 and 4 isolated; a row keeping 2 and 4 has
        # two singletons (2 wins the tie), and never the unkept 0 or 1
        pairs = np.array([[0, 1], [1, 2]])
        kept = np.array([[0, 0, 1, 0, 1], [1, 1, 1, 1, 1], [1, 0, 1, 1, 0], [0, 0, 0, 0, 0]], dtype=bool)
        got = pc.largest_clusters(pairs, kept, 1, 5)
        assert [None if c is None else c.tolist() for c in got] == [[2], [0, 1, 2], [0], None]
        got = pc.largest_clusters(pairs, kept, 2, 5)
        assert [None if c is None else c.tolist() for c in got] == [None, [0, 1, 2], None, None]

    def test_tied_sizes_go_to_the_smallest_member(self):
        # components {0, 3} and {1, 2}: equal sizes, the one holding 0 wins;
        # without node 0 the row's largest is {1, 2}
        pairs = np.array([[1, 2], [0, 3]])
        kept = np.array([[1, 1, 1, 1], [0, 1, 1, 1]], dtype=bool)
        got = pc.largest_clusters(pairs, kept, 1, 4)
        assert [c.tolist() for c in got] == [[0, 3], [1, 2]]

    def test_several_calls_equal_one(self, monkeypatch):
        rng = np.random.default_rng(23)
        pts = rng.uniform(0, 0.03, (150, 3))
        pairs = pc.radius_pairs(pts, 0.004)
        kept = rng.uniform(size=(12, 150)) < rng.uniform(size=(12, 1))
        kept[3], kept[7] = True, False
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return connected_components(*args, **kwargs)

        monkeypatch.setattr(pc, "connected_components", counted)
        want = pc.largest_clusters(pairs, kept, 2, 60)
        assert len(calls) == 1
        for cap, n_calls in ((1, 11), (len(pairs), 11), (5 * len(pairs), 3)):
            monkeypatch.setattr(pc, "_BLOCK_EDGES", cap)
            calls.clear()
            got = pc.largest_clusters(pairs, kept, 2, 60)
            assert len(calls) == n_calls
            assert [None if c is None else c.tolist() for c in got] == \
                   [None if c is None else c.tolist() for c in want]


@st.composite
def kept_rows(draw):
    """A lattice cloud and K rows of kept masks, in no nesting order."""
    pts, _, tol, min_size, max_size = draw(lattice_clouds())
    k = draw(st.integers(0, 5))
    kept = np.array(draw(st.lists(st.lists(st.booleans(), min_size=len(pts), max_size=len(pts)),
                                  min_size=k, max_size=k)), dtype=bool).reshape(k, len(pts))
    return pts, kept, tol, min_size, max_size


@settings(max_examples=200)
@given(kept_rows())
def test_largest_clusters_equal_union_find_per_row(case):
    pts, kept, tol, min_size, max_size = case
    got = pc.largest_clusters(pc.radius_pairs(pts, tol), kept, min_size, max_size)
    assert len(got) == len(kept)
    for row, best in zip(kept, got):
        want = union_find_clusters(pts, np.flatnonzero(row), tol, min_size, max_size)
        assert (None if best is None else best.tolist()) == (want[0] if want else None)


class TestCloudFile:
    """The cluster cloud `filter` writes. The library only writes the
    format; tests read it back with the per-row oracle reader, so that
    reader must take every valid file and reject every malformed one."""

    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(11)
        cloud = pc.PointCloud(
            rng.normal(size=(25, 3)),
            rng.integers(0, 256, (25, 3)).astype(np.uint8),
            rng.integers(0, 4, 25).astype(np.uint8),
        )
        path = tmp_path / "c.cloud"
        pc.save_cloud(path, cloud)
        loaded = load_cloud_per_row(path)
        np.testing.assert_array_equal(loaded.points, cloud.points)
        np.testing.assert_array_equal(loaded.colors, cloud.colors)
        np.testing.assert_array_equal(loaded.labels, cloud.labels)

    def test_roundtrip_without_labels(self, tmp_path):
        cloud = pc.PointCloud(np.array([[0.125, -3.5, 2.0]]), np.array([[1, 2, 3]], dtype=np.uint8))
        path = tmp_path / "c.cloud"
        pc.save_cloud(path, cloud)
        loaded = load_cloud_per_row(path)
        assert loaded.labels is None
        np.testing.assert_array_equal(loaded.points, cloud.points)

    @pytest.mark.parametrize(
        "text",
        [
            "nope v1 1 0\n0 0 0 0 0 0\n",
            "pcloud v1 1 2\n0 0 0 0 0 0\n",
            "pcloud v1 x 0\n0 0 0 0 0 0\n",
            "pcloud v1 -1 0\n",
            "pcloud v1 100000000000 0\n0 0 0 0 0 0\n",
            "pcloud v1 2 0\n0 0 0 0 0 0\n",
            "pcloud v1 1 0\n0 zero 0 0 0 0\n",
            "pcloud v1 1 0\n0 0 0 0 0.5 0\n",
            "pcloud v1 1 1\n0 0 0 0 0 0 one\n",
            "pcloud v1 1 0\n0 0 0 0 0 99999999999999999999\n",
            "pcloud v1 1 0\n0 0 0 300 0 0\n",
            "pcloud v1 1 0\n0 0 0 0 -1 0\n",
            "pcloud v1 1 1\n0 0 0 0 0 0 256\n",
            "pcloud v1 1 0\nnan 0 0 0 0 0\n",
            "pcloud v1 1 0\n0 -inf 0 0 0 0\n",
            "pcloud v1 1 0\n0 0 1e999 0 0 0\n",
            "pcloud v1 1 0\n0 0 0 0 0 0\n0 0 0 0 0 0\n",
            "pcloud v1 1 1\n0 0 0 0 0 0 1\ntrailing\n",
        ],
        ids=[
            "magic", "label-flag", "count-word", "count-negative", "count-huge", "truncated", "coord-word",
            "colour-decimal", "label-word", "colour-overflow", "colour-300", "colour-negative",
            "label-256", "coord-nan", "coord-inf", "coord-1e999", "extra-point", "trailing-text",
        ],
    )
    def test_header_validation(self, tmp_path, text):
        path = tmp_path / "bad.cloud"
        path.write_text(text)
        with pytest.raises(FormatError):
            load_cloud_per_row(path)
