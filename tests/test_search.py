import numpy as np
import pytest

from indoorseg.errors import InputError
from indoorseg.labels import Label
from indoorseg.search import (
    cluster_tables,
    search_positions,
    write_positions,
)

from conftest import make_cloud


def table_cloud(points_xy, z=0.7, extra_label=None, extra_points=None):
    """Gravity-aligned cloud whose table points are the given 2D set."""
    pts = np.column_stack([points_xy[:, 0], points_xy[:, 1],
                           np.full(points_xy.shape[0], z)])
    labels = np.full(pts.shape[0], int(Label.TABLE), dtype=np.uint8)
    if extra_points is not None:
        pts = np.vstack([pts, extra_points])
        labels = np.concatenate([
            labels, np.full(len(extra_points), int(extra_label), dtype=np.uint8)])
    return make_cloud(pts, labels=labels)


def rect_grid(w, h, step=0.02, center=(0.0, 0.0)):
    xs = np.arange(-w / 2, w / 2 + 1e-9, step) + center[0]
    ys = np.arange(-h / 2, h / 2 + 1e-9, step) + center[1]
    gx, gy = np.meshgrid(xs, ys)
    return np.column_stack([gx.ravel(), gy.ravel()])


class TestClusterTables:
    def test_no_table_points(self, rng):
        cloud = make_cloud(rng.uniform(0, 1, (100, 3)),
                           labels=np.zeros(100, dtype=np.uint8))
        assert cluster_tables(cloud) == []

    def test_needs_labels_and_gravity_frame(self, rng):
        with pytest.raises(InputError):
            cluster_tables(make_cloud(rng.uniform(0, 1, (10, 3))))
        with pytest.raises(InputError):
            cluster_tables(make_cloud(rng.uniform(0, 1, (10, 3)),
                                      labels=np.zeros(10, dtype=np.uint8),
                                      frame="camera"))

    def test_two_distant_tables_two_clusters(self):
        """Pairwise-gap oracle: the two point sets are 3 m apart, far above
        the 0.05 m linkage radius, so they cannot merge."""
        a = rect_grid(1.0, 0.6)
        b = rect_grid(1.0, 0.6, center=(4.0, 0.0))
        cloud = table_cloud(np.vstack([a, b]))
        clusters = cluster_tables(cloud, radius=0.05, min_points=200)
        assert len(clusters) == 2
        gap = np.min(np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2))
        assert gap > 0.05

    def test_cluster_ids_follow_each_clusters_first_point(self, rng):
        """Three tables with their points shuffled together: cluster ids go
        in the order of each table's first point index, as scipy's
        components number them, and each id keeps its table's points."""
        centers = [(4.0, 0.0), (0.0, 0.0), (8.0, 0.0)]
        tables = [rect_grid(1.0, 0.6, center=c) for c in centers]
        order = rng.permutation(sum(len(t) for t in tables))
        points = np.vstack(tables)[order]
        table_of = np.repeat(np.arange(3), [len(t) for t in tables])[order]
        clusters = cluster_tables(table_cloud(points), radius=0.05, min_points=200)
        firsts = sorted(range(3), key=lambda t: np.flatnonzero(table_of == t)[0])
        assert [c.id for c in clusters] == [0, 1, 2]
        for cluster, table in zip(clusters, firsts):
            np.testing.assert_allclose(cluster.centroid_2d, centers[table], atol=1e-9)

    def test_min_points_filter(self):
        small = rect_grid(0.2, 0.2, step=0.04)
        cloud = table_cloud(small)
        assert cluster_tables(cloud, min_points=200) == []
        assert len(cluster_tables(cloud, min_points=5)) == 1

    def test_rectangle_axes_match_analytic_pca(self):
        """A dense uniform 2.0 x 1.0 rectangle has principal axes along x/y
        with half extents 1.0 and 0.5."""
        cloud = table_cloud(rect_grid(2.0, 1.0, step=0.01))
        (cluster,) = cluster_tables(cloud, min_points=100)
        assert abs(abs(cluster.axis_major[0]) - 1.0) <= 1e-3
        assert cluster.half_extent_major == pytest.approx(1.0, abs=1e-3)
        assert cluster.half_extent_minor == pytest.approx(0.5, abs=1e-3)
        assert abs(cluster.axis_major @ cluster.axis_minor) <= 1e-9


class TestSearchPositions:
    def test_rectangle_with_security_distance(self):
        cloud = table_cloud(rect_grid(2.0, 1.0, step=0.01))
        (cluster,) = cluster_tables(cloud, min_points=100)
        positions = search_positions(cluster, distance=0.4)
        assert len(positions) == 2
        got = sorted((round(p.position_2d[0], 2), round(p.position_2d[1], 2))
                     for p in positions)
        assert got == [(0.0, -0.9), (0.0, 0.9)]

    def test_zero_distance_on_boundary(self):
        cloud = table_cloud(rect_grid(2.0, 1.0, step=0.01))
        (cluster,) = cluster_tables(cloud, min_points=100)
        positions = search_positions(cluster, distance=0.0)
        for p in positions:
            assert abs(abs(p.position_2d[1]) - 0.5) <= 1e-3

    def test_negative_distance_rejected(self):
        cloud = table_cloud(rect_grid(1.0, 1.0))
        (cluster,) = cluster_tables(cloud, min_points=100)
        with pytest.raises(InputError):
            search_positions(cluster, distance=-0.1)

    def test_nan_distance_and_radius_rejected(self):
        cloud = table_cloud(rect_grid(1.0, 1.0))
        (cluster,) = cluster_tables(cloud, min_points=100)
        with pytest.raises(InputError):
            search_positions(cluster, distance=float("nan"))
        with pytest.raises(InputError):
            cluster_tables(cloud, radius=float("nan"), min_points=100)

    def test_heading_points_at_centroid(self):
        cloud = table_cloud(rect_grid(2.0, 1.0, center=(3.0, -1.0)))
        (cluster,) = cluster_tables(cloud, min_points=100)
        for p in search_positions(cluster, distance=0.5):
            to_center = cluster.centroid_2d - p.position_2d
            to_center /= np.linalg.norm(to_center)
            np.testing.assert_allclose(p.heading, to_center, atol=1e-9)

    def test_positions_outside_convex_hull(self, rng):
        # rectangle and disk: positions must clear every cluster point by d
        disk_r = 0.6
        angles = rng.uniform(0, 2 * np.pi, 4000)
        radii = disk_r * np.sqrt(rng.uniform(0, 1, 4000))
        disk = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
        for pts in (rect_grid(1.6, 0.9), disk):
            cloud = table_cloud(pts)
            (cluster,) = cluster_tables(cloud, min_points=100)
            for p in search_positions(cluster, distance=0.4):
                gap = np.linalg.norm(pts - p.position_2d, axis=1).min()
                assert gap >= 0.4 - 0.05  # slack: extent vs hull sampling

    def test_circular_table_tie_break(self, rng):
        angles = rng.uniform(0, 2 * np.pi, 6000)
        radii = 0.5 * np.sqrt(rng.uniform(0, 1, 6000))
        disk = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
        cloud = table_cloud(disk)
        (cluster,) = cluster_tables(cloud, min_points=100)
        positions = search_positions(cluster, distance=0.3)
        for p in positions:
            d = np.linalg.norm(p.position_2d - cluster.centroid_2d)
            assert d == pytest.approx(cluster.half_extent_minor + 0.3, abs=1e-9)

    def test_rigid_transform_equivariance(self):
        pts = rect_grid(2.0, 1.0, step=0.01)
        cloud = table_cloud(pts)
        (cluster,) = cluster_tables(cloud, min_points=100)
        base = search_positions(cluster, distance=0.4)

        theta = 0.7
        c, s = np.cos(theta), np.sin(theta)
        rot = np.array([[c, -s], [s, c]])
        shift = np.array([2.5, -1.0])
        moved = table_cloud(pts @ rot.T + shift)
        (cluster2,) = cluster_tables(moved, min_points=100)
        got = search_positions(cluster2, distance=0.4)

        expected = sorted(tuple(np.round(p.position_2d @ rot.T + shift, 6))
                          for p in base)
        actual = sorted(tuple(np.round(p.position_2d, 6)) for p in got)
        np.testing.assert_allclose(actual, expected, atol=1e-6)


def test_write_positions(tmp_path):
    cloud = table_cloud(rect_grid(2.0, 1.0, step=0.02))
    (cluster,) = cluster_tables(cloud, min_points=100)
    positions = search_positions(cluster, distance=0.4)
    path = tmp_path / "positions.txt"
    write_positions(positions, path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 2
    fields = lines[0].split()
    assert len(fields) == 5
    assert fields[0] == "0"
    floats = [float(v) for v in fields[1:]]
    assert all(np.isfinite(floats))
