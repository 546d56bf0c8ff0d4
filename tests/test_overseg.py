import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from scipy.spatial import cKDTree

from indoorseg import overseg
from indoorseg.cloud import FRAME_CAMERA, FRAME_GRAVITY, up_vector
from indoorseg.errors import InputError
from indoorseg.overseg import canonicalize_hemisphere, compute_normals, oversegment
from indoorseg.pipeline import PipelineConfig
from indoorseg.synth import SceneSpec, generate_scene

from conftest import assign_voxels_whole, make_cloud, patch_members, sample_plane


class TestComputeNormals:
    def test_horizontal_plane_normals_point_up(self, rng):
        cloud = make_cloud(sample_plane(rng, 2000, z=0.3), frame=FRAME_GRAVITY)
        cloud = compute_normals(cloud, k=10)
        np.testing.assert_allclose(cloud.normals, np.tile([0, 0, 1.0], (2000, 1)),
                                   atol=1e-6)
        assert not cloud.normal_flags.any()

    def test_camera_frame_normals_face_sensor(self, rng):
        # vertical plane at z = 2 in front of the camera; normals must point
        # back toward the origin (negative z component)
        pts = np.zeros((1500, 3))
        pts[:, 0] = rng.uniform(-1, 1, 1500)
        pts[:, 1] = rng.uniform(-1, 1, 1500)
        pts[:, 2] = 2.0
        cloud = make_cloud(pts, frame=FRAME_CAMERA)
        cloud = compute_normals(cloud, k=10)
        assert (cloud.normals[:, 2] < 0).all()

    def test_collinear_points_flagged(self):
        pts = np.zeros((30, 3))
        pts[:, 0] = np.linspace(0, 1, 30)
        cloud = make_cloud(pts, frame=FRAME_GRAVITY)
        cloud = compute_normals(cloud, k=5)
        assert cloud.normal_flags.all()
        np.testing.assert_array_equal(cloud.normals,
                                      np.tile([0, 0, 1.0], (30, 1)))

    def test_sphere_normals_radial(self, rng):
        """Analytic oracle: on a sphere the normal is the radial direction."""
        n = 20000
        v = rng.normal(size=(n, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        center = np.array([0.5, 0.5, 1.5])
        cloud = make_cloud(center + 0.5 * v, frame=FRAME_GRAVITY)
        cloud = compute_normals(cloud, k=10)
        radial = cloud.positions - center
        radial /= np.linalg.norm(radial, axis=1, keepdims=True)
        cos = np.abs(np.einsum("ij,ij->i", cloud.normals, radial))
        angles_deg = np.degrees(np.arccos(np.clip(cos, -1, 1)))
        assert np.quantile(angles_deg, 0.99) <= 2.0

    def test_too_few_points(self):
        cloud = make_cloud([[0, 0, 0], [1, 1, 1]])
        with pytest.raises(InputError):
            compute_normals(cloud, k=15)


def reference_normals(cloud, k):
    """The straightforward form of `compute_normals`: one kNN query over all
    points, neighbor columns gathered from the (N, 3) array, an (N, 3, 3)
    covariance tensor and its closed-form smallest eigenpair."""
    pos = cloud.positions
    n = len(cloud)
    _, idx = cKDTree(pos, leafsize=32, balanced_tree=False).query(pos, k=k)
    s1 = np.zeros((n, 3))
    s2 = np.zeros((n, 6))  # xx, yy, zz, xy, xz, yz
    for col in range(k):
        g = pos[idx[:, col]] - pos
        s1 += g
        s2[:, 0] += g[:, 0] * g[:, 0]
        s2[:, 1] += g[:, 1] * g[:, 1]
        s2[:, 2] += g[:, 2] * g[:, 2]
        s2[:, 3] += g[:, 0] * g[:, 1]
        s2[:, 4] += g[:, 0] * g[:, 2]
        s2[:, 5] += g[:, 1] * g[:, 2]
    s1 /= float(k)
    s2 /= float(k)
    cov = np.empty((n, 3, 3))
    cov[:, 0, 0] = s2[:, 0] - s1[:, 0] * s1[:, 0]
    cov[:, 1, 1] = s2[:, 1] - s1[:, 1] * s1[:, 1]
    cov[:, 2, 2] = s2[:, 2] - s1[:, 2] * s1[:, 2]
    cov[:, 0, 1] = cov[:, 1, 0] = s2[:, 3] - s1[:, 0] * s1[:, 1]
    cov[:, 0, 2] = cov[:, 2, 0] = s2[:, 4] - s1[:, 0] * s1[:, 2]
    cov[:, 1, 2] = cov[:, 2, 1] = s2[:, 5] - s1[:, 1] * s1[:, 2]

    a00, a01, a02 = cov[:, 0, 0], cov[:, 0, 1], cov[:, 0, 2]
    a11, a12, a22 = cov[:, 1, 1], cov[:, 1, 2], cov[:, 2, 2]
    q = (a00 + a11 + a22) / 3.0
    b00, b11, b22 = a00 - q, a11 - q, a22 - q
    p2 = b00**2 + b11**2 + b22**2 + 2.0 * (a01**2 + a02**2 + a12**2)
    p = np.sqrt(np.maximum(p2 / 6.0, 0.0))
    nonzero = p > 0
    p_safe = np.where(nonzero, p, 1.0)
    det_b = (b00 * (b11 * b22 - a12 * a12)
             - a01 * (a01 * b22 - a12 * a02)
             + a02 * (a01 * a12 - b11 * a02))
    r = np.clip(det_b / (2.0 * p_safe**3), -1.0, 1.0)
    phi = np.arccos(r) / 3.0
    l2 = np.where(nonzero, q + 2.0 * p * np.cos(phi), q)
    l0 = np.where(nonzero, q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0), q)
    l1 = np.where(nonzero, 3.0 * q - l0 - l2, q)

    shifted = cov.copy()
    for i in range(3):
        shifted[:, i, i] -= l0
    crosses = [np.cross(shifted[:, i], shifted[:, j]) for i, j in ((0, 1), (0, 2), (1, 2))]
    norms = np.stack([np.einsum("ij,ij->i", c, c) for c in crosses], axis=1)
    best = np.argmax(norms, axis=1)
    vec = np.choose(best[:, None], crosses)
    best_norm = norms[np.arange(n), best]
    vec_ok = best_norm > np.maximum(l2, 1e-30) ** 2 * 1e-24
    vec = vec / np.sqrt(np.maximum(best_norm, 1e-300))[:, None]
    degenerate = (~vec_ok) | (l1 <= np.maximum(l2 * 1e-6, 1e-16))

    if cloud.frame == FRAME_CAMERA:
        toward = np.einsum("ij,ij->i", vec, pos)
        vec[(toward > 0) | ((toward == 0) & (vec[:, 1] > 0))] *= -1.0
    else:
        vec = canonicalize_hemisphere(vec)
    vec[degenerate] = up_vector(cloud.frame)
    return vec, degenerate


class TestNormalsOracle:
    @pytest.mark.parametrize("frame", [FRAME_GRAVITY, FRAME_CAMERA])
    def test_matches_reference_bit_for_bit(self, frame, monkeypatch):
        scene = generate_scene(SceneSpec(
            seed=3, room_extent=(3.6, 3.0, 2.2), points_per_m2=150.0,
            furniture_counts={"table": 1, "chair": 1, "cabinet": 0, "object": 1}))
        # a collinear run of points far from the room gives degenerate normals
        line = np.zeros((40, 3))
        line[:, 0] = np.linspace(10.0, 10.5, 40)
        pos = np.vstack([scene.positions, line])
        if frame == FRAME_CAMERA:
            pos = pos[:, [1, 2, 0]] * [1.0, -1.0, 1.0] + [0.0, 1.2, 0.3]
        cloud = make_cloud(pos, frame=frame)
        # several short query chunks, so the tree-order scatter is exercised
        monkeypatch.setattr(overseg, "_KNN_CHUNK", 997)
        assert len(cloud) > 2 * 997
        got = compute_normals(cloud, k=15)
        normals, flags = reference_normals(cloud, k=15)
        assert flags[-40:].all() and not flags.all()
        np.testing.assert_array_equal(got.normals, normals)
        np.testing.assert_array_equal(got.normal_flags, flags)


def _small_scene(frame):
    """A furnished synthetic room, in the camera frame if asked."""
    cloud = generate_scene(SceneSpec(
        seed=5, room_extent=(3.6, 3.0, 2.2), points_per_m2=1000.0,
        furniture_counts={"table": 1, "chair": 2, "cabinet": 1, "object": 2}))
    if frame == FRAME_CAMERA:
        pos = cloud.positions[:, [1, 2, 0]] * [1.0, -1.0, 1.0] + [0.0, 1.2, 0.3]
        cloud = cloud.with_(positions=pos, frame=FRAME_CAMERA)
    return cloud


def _serial(fn, starts):
    """`overseg._prefetched` without the helper thread."""
    for start in starts:
        yield start, fn(start)


def _assert_same_graph(got, want):
    for name in ("point_to_patch", "edges", "centroids"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


class TestStreaming:
    """Normals and seed assignment stream over `_KNN_CHUNK` slices with the
    next kNN query prefetched; none of that may change a single bit."""

    PARAMS = PipelineConfig(voxel_resolution=0.025, seed_resolution=0.15)

    @pytest.mark.parametrize("frame", [FRAME_GRAVITY, FRAME_CAMERA])
    def test_short_slices_match_whole_array_assignment(self, frame, monkeypatch):
        cloud = _small_scene(frame)
        want_cloud = compute_normals(cloud, k=15)
        with monkeypatch.context() as m:
            m.setattr(overseg, "_assign_voxels", assign_voxels_whole)
            want = oversegment(want_cloud, self.PARAMS)

        # many short slices of points and of voxels, the last one partial
        monkeypatch.setattr(overseg, "_KNN_CHUNK", 997)
        got_cloud = compute_normals(cloud, k=15)
        voxels = np.unique(np.floor(cloud.positions / self.PARAMS.voxel_resolution), axis=0)
        assert len(cloud) % 997 and len(voxels) % 997 and len(voxels) > 4 * 997
        assert got_cloud.normals.tobytes() == want_cloud.normals.tobytes()
        assert got_cloud.normal_flags.tobytes() == want_cloud.normal_flags.tobytes()
        got = oversegment(got_cloud, self.PARAMS)
        assert len(got) > 50 and got.edges.shape[0] > 50
        _assert_same_graph(got, want)

    def test_same_bytes_without_the_prefetch_thread(self, monkeypatch):
        cloud = _small_scene(FRAME_CAMERA)
        monkeypatch.setattr(overseg, "_KNN_CHUNK", 997)
        threaded = compute_normals(cloud, k=15)
        threaded_graph = oversegment(threaded, self.PARAMS)
        monkeypatch.setattr(overseg, "_prefetched", _serial)
        serial = compute_normals(cloud, k=15)
        assert serial.normals.tobytes() == threaded.normals.tobytes()
        assert serial.normal_flags.tobytes() == threaded.normal_flags.tobytes()
        _assert_same_graph(oversegment(serial, self.PARAMS), threaded_graph)

    def test_prefetched_yields_every_start_in_order(self):
        starts = range(0, 50, 7)
        assert list(overseg._prefetched(lambda s: s * s, starts)) == \
            [(s, s * s) for s in starts]
        assert list(overseg._prefetched(lambda s: s, [])) == []

    def test_normals_peak_memory_stays_bounded(self):
        """A (k, N) neighbour table alone would take 37 MB here: the bound
        keeps whole-cloud neighbour tables and gathers out of this stage."""
        cloud = generate_scene(SceneSpec(seed=77, points_per_m2=4000.0,
                                         max_points=307200))
        assert len(cloud) > 250_000
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            compute_normals(cloud, k=15)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert peak < 64e6, f"compute_normals peaked at {peak / 1e6:.1f} MB"


class TestSeeds:
    @settings(max_examples=100, deadline=None)
    @given(centroids=arrays(np.float64, st.tuples(st.integers(1, 300), st.just(3)),
                            elements=st.floats(-3.0, 3.0)),
           seed_res=st.floats(0.02, 2.0))
    def test_nearest_seed_within_sqrt3_seed_resolutions(self, centroids, seed_res):
        """Every voxel's own coarse cell holds a seed, so the nearest seed is
        always inside `_assign_voxels`' 2-seed-resolution query bound."""
        seeds = centroids[overseg._select_seeds(centroids, seed_res)]
        gaps = np.linalg.norm(centroids[:, None, :] - seeds[None, :, :], axis=2)
        assert gaps.min(axis=1).max() <= np.sqrt(3.0) * seed_res * (1 + 1e-9)


def _dense_plane_cloud(rng, extent=1.0, density=12000, z=0.0):
    n = int(extent * extent * density)
    cloud = make_cloud(sample_plane(rng, n, extent=extent, z=z), frame=FRAME_GRAVITY)
    return compute_normals(cloud, k=10)


class TestOversegment:
    def test_requires_normals(self, rng):
        cloud = make_cloud(sample_plane(rng, 100))
        with pytest.raises(InputError):
            oversegment(cloud, PipelineConfig())

    def test_empty_cloud_empty_graph(self):
        cloud = make_cloud(np.zeros((0, 3)))
        graph = oversegment(cloud, PipelineConfig())
        assert len(graph.patches) == 0
        assert graph.edges.shape == (0, 2)
        assert graph.edges.dtype == np.int64
        assert graph.centroids.shape == (0, 3)

    def test_bad_resolutions(self, rng):
        with pytest.raises(InputError):
            PipelineConfig(voxel_resolution=0.1, seed_resolution=0.1)

    def test_few_points_all_discarded(self, rng):
        pts = sample_plane(rng, 5, extent=0.02)
        cloud = compute_normals(make_cloud(pts, frame=FRAME_GRAVITY), k=3)
        graph = oversegment(cloud, PipelineConfig(min_patch_points=10))
        assert len(graph.patches) == 0
        assert graph.edges.shape == (0, 2)
        assert graph.edges.dtype == np.int64

    def test_single_patch_has_no_edges(self, rng):
        pts = sample_plane(rng, 400, extent=0.05)
        cloud = compute_normals(make_cloud(pts, frame=FRAME_GRAVITY), k=10)
        graph = oversegment(cloud, PipelineConfig(seed_resolution=0.5))
        assert len(graph.patches) == 1
        assert graph.edges.shape == (0, 2)
        assert graph.edges.dtype == np.int64

    def test_adjacency_matches_brute_force_voxel_scan(self, rng):
        """Every pair of distinct kept patches owning two voxels that touch
        (26-connectivity) is an edge, and no other pair is. The cloud fills
        the surface of a box, so occupied voxels lie on every face of the
        voxel grid, where a neighbour probe leaves the occupied range."""
        size = np.array([0.4, 0.3, 0.2])
        pts = rng.uniform(0.0, 1.0, (6000, 3)) * size
        face = rng.integers(0, 3, 6000)
        pts[np.arange(6000), face] = rng.integers(0, 2, 6000) * size[face]
        cloud = compute_normals(make_cloud(pts, frame=FRAME_GRAVITY), k=10)
        params = PipelineConfig(voxel_resolution=0.02, seed_resolution=0.06,
                               min_patch_points=5)
        graph = oversegment(cloud, params)

        ijk = np.floor(cloud.positions / params.voxel_resolution).astype(np.int64)
        vox, first = np.unique(ijk, axis=0, return_index=True)
        for axis in range(3):
            assert (vox[:, axis] == vox[:, axis].min()).sum() > 1
            assert (vox[:, axis] == vox[:, axis].max()).sum() > 1
        vox_patch = graph.point_to_patch[first]
        touch = np.abs(vox[:, None, :] - vox[None, :, :]).max(axis=2) == 1
        a, b = np.nonzero(np.triu(touch))
        pa, pb = vox_patch[a], vox_patch[b]
        keep = (pa != pb) & (pa >= 0) & (pb >= 0)
        expected = {(int(min(x, y)), int(max(x, y))) for x, y in zip(pa[keep], pb[keep])}
        assert len(graph.patches) > 10 and len(expected) > 10
        assert {(int(a), int(b)) for a, b in graph.edges} == expected
        assert graph.edges.shape == (len(expected), 2)
        np.testing.assert_array_equal(graph.edges, np.array(sorted(expected)))

    def test_partition_and_adjacency_invariants(self, rng):
        cloud = _dense_plane_cloud(rng)
        graph = oversegment(cloud, PipelineConfig())
        members = patch_members(graph)
        assert all(m.shape[0] for m in members)  # no empty patch
        assert graph.point_to_patch.shape == (len(cloud),)
        assert graph.point_to_patch.min() >= -1
        assert graph.point_to_patch.max() == len(graph) - 1
        assert graph.patches == range(len(graph))
        # edges: a < b, unique, valid ids
        e = graph.edges
        assert (e[:, 0] < e[:, 1]).all()
        assert np.unique(e, axis=0).shape[0] == e.shape[0]
        assert e.max(initial=-1) < len(graph.patches)
        assert graph.centroids.shape == (len(graph), 3)
        for p, m in enumerate(members):
            np.testing.assert_allclose(
                graph.centroids[p], cloud.positions[m].mean(axis=0), atol=1e-9)

    def test_refresh_patch_stats_follows_the_moved_cloud(self, rng):
        cloud = _dense_plane_cloud(rng)
        graph = oversegment(cloud, PipelineConfig())
        c, s = np.cos(0.3), np.sin(0.3)
        rot = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
        moved = cloud.with_(positions=cloud.positions @ rot.T + [0.5, -1.0, 2.0],
                            normals=cloud.normals @ rot.T)
        refreshed = overseg.refresh_patch_stats(graph, moved)
        assert refreshed.point_to_patch is graph.point_to_patch
        assert refreshed.edges is graph.edges
        np.testing.assert_allclose(refreshed.centroids,
                                   graph.centroids @ rot.T + [0.5, -1.0, 2.0], atol=1e-9)

    def test_determinism(self, rng):
        cloud = _dense_plane_cloud(rng)
        g1 = oversegment(cloud, PipelineConfig())
        g2 = oversegment(cloud, PipelineConfig())
        assert len(g1.patches) == len(g2.patches)
        np.testing.assert_array_equal(g1.edges, g2.edges)
        np.testing.assert_array_equal(g1.point_to_patch, g2.point_to_patch)

    def test_two_distant_squares_never_connect(self, rng):
        """Pairwise-distance oracle: patches from different squares are at
        least 5 m apart, so no adjacency edge may cross between them."""
        a = sample_plane(rng, 4000, extent=0.5, z=0.0)
        b = sample_plane(rng, 4000, extent=0.5, z=0.0)
        b[:, 0] += 5.5
        cloud = compute_normals(make_cloud(np.vstack([a, b]), frame=FRAME_GRAVITY), k=10)
        graph = oversegment(cloud, PipelineConfig())
        assert len(graph.patches) >= 2
        members = patch_members(graph)
        group = np.array([cloud.positions[m][:, 0].max() > 2.5 for m in members])
        for i, j in graph.edges:
            assert group[i] == group[j]
        # oracle on the adjacency contract: adjacent patches come within
        # voxel_resolution * sqrt(3) of each other
        for i, j in graph.edges[:20]:
            pi = cloud.positions[members[i]]
            pj = cloud.positions[members[j]]
            gap = np.min(np.linalg.norm(pi[:, None, :] - pj[None, :, :], axis=2))
            assert gap <= PipelineConfig().voxel_resolution * np.sqrt(3) + 1e-12

    def test_compactness_on_uniform_plane(self, rng):
        """Exhaustive scan: every point within 2 seed resolutions of its
        patch centroid."""
        cloud = _dense_plane_cloud(rng)
        graph = oversegment(cloud, PipelineConfig(seed_resolution=0.1))
        for p, m in enumerate(patch_members(graph)):
            d = np.linalg.norm(cloud.positions[m] - graph.centroids[p], axis=1)
            assert d.max() <= 2 * 0.1

    def test_purity_on_noise_free_scene(self):
        spec = SceneSpec(seed=17, noise_sigma=0.0, room_extent=(4.2, 3.4, 2.3),
                         points_per_m2=3000.0)
        cloud = generate_scene(spec)
        cloud = compute_normals(cloud, k=15)
        graph = oversegment(cloud, PipelineConfig(voxel_resolution=0.02))
        pure = 0
        for m in patch_members(graph):
            hist = np.bincount(cloud.labels[m], minlength=8)
            if hist.max() / hist.sum() >= 0.9:
                pure += 1
        assert pure / len(graph.patches) >= 0.95

    def test_min_patch_points_respected(self, rng):
        cloud = _dense_plane_cloud(rng)
        graph = oversegment(cloud, PipelineConfig(min_patch_points=50))
        assert len(graph) > 0
        assert (np.bincount(graph.point_to_patch[graph.point_to_patch >= 0]) >= 50).all()
