import functools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from scipy.spatial import cKDTree

from indoorseg import overseg
from indoorseg.cloud import FRAME_CAMERA, FRAME_GRAVITY, Intrinsics, ingest_depth_frame, up_vector
from indoorseg.errors import InputError
from indoorseg.overseg import (
    canonicalize_hemisphere,
    compute_normals,
    oversegment,
    voxel_grid,
)
from indoorseg.pipeline import PipelineConfig
from indoorseg.synth import SceneSpec, generate_scene

from conftest import (
    assign_voxels_whole,
    grid_of,
    make_cloud,
    patch_members,
    peak_bytes,
    sample_plane,
    voxel_pairs_reference,
)


class TestComputeNormals:
    def test_horizontal_plane_normals_point_up(self, rng):
        cloud = make_cloud(sample_plane(rng, 2000, z=0.3), frame=FRAME_GRAVITY)
        cloud = compute_normals(cloud, grid_of(cloud), k=10)
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
        cloud = compute_normals(cloud, grid_of(cloud), k=10)
        assert (cloud.normals[:, 2] < 0).all()

    def test_collinear_points_flagged(self):
        pts = np.zeros((30, 3))
        pts[:, 0] = np.linspace(0, 1, 30)
        cloud = make_cloud(pts, frame=FRAME_GRAVITY)
        cloud = compute_normals(cloud, grid_of(cloud), k=5)
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
        cloud = compute_normals(cloud, grid_of(cloud), k=10)
        radial = cloud.positions - center
        radial /= np.linalg.norm(radial, axis=1, keepdims=True)
        cos = np.abs(np.einsum("ij,ij->i", cloud.normals, radial))
        angles_deg = np.degrees(np.arccos(np.clip(cos, -1, 1)))
        assert np.quantile(angles_deg, 0.99) <= 2.0

    def test_too_few_points(self):
        cloud = make_cloud([[0, 0, 0], [1, 1, 1]])
        with pytest.raises(InputError):
            compute_normals(cloud, grid_of(cloud), k=15)


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
        got = overseg._knn_normals(cloud, 15)
        normals, flags = reference_normals(cloud, k=15)
        assert flags[-40:].all() and not flags.all()
        np.testing.assert_array_equal(got.normals, normals)
        np.testing.assert_array_equal(got.normal_flags, flags)


def _box_corner_scene(rng, density=3000.0):
    """A floor and a wall meeting at x = 0, and a 0.3 m box standing on the
    floor: planes, their edges and the box's edges and corners."""
    def rect(origin, u, v):
        n = int(density * np.linalg.norm(u) * np.linalg.norm(v))
        a, b = rng.uniform(size=(2, n, 1))
        return origin + a * u + b * v

    ex, ey, ez = np.eye(3)
    lo, hi = np.array([0.4, 0.4, 0.0]), np.array([0.7, 0.7, 0.0])
    return np.vstack([
        rect(np.zeros(3), ex, ey), rect(np.zeros(3), ey, ez),
        rect(lo + 0.3 * ez, 0.3 * ex, 0.3 * ey),
        rect(lo, 0.3 * ex, 0.3 * ez), rect(lo, 0.3 * ey, 0.3 * ez),
        rect(hi - 0.3 * ey, 0.3 * ey, 0.3 * ez), rect(hi - 0.3 * ex, 0.3 * ex, 0.3 * ez)])


def _in_frame(pos, frame):
    """``pos`` as seen by a camera 1.2 m up, looking along +x (as `_small_scene`)."""
    if frame == FRAME_CAMERA:
        pos = pos[:, [1, 2, 0]] * [1.0, -1.0, 1.0] + [0.0, 1.2, 0.3]
    return make_cloud(pos, frame=frame)


def reference_voxel_normals(cloud, resolution):
    """Per voxel, the covariance of the points in its 27-neighbourhood
    (`np.cov`, found by comparing integer voxel coordinates),
    `np.linalg.eigh`'s smallest eigenvector, `compute_normals`' rank test
    and orientation rule (camera frame: toward the sensor from the
    neighbourhood mean); broadcast to the points."""
    pos = cloud.positions
    ijk = np.floor(pos / resolution).astype(np.int64)
    voxels, inverse = np.unique(ijk, axis=0, return_inverse=True)
    normals = np.empty((len(voxels), 3))
    flags = np.empty(len(voxels), dtype=bool)
    for v, key in enumerate(voxels):
        near = pos[np.abs(ijk - key).max(axis=1) <= 1]
        values, vectors = np.linalg.eigh(np.cov(near.T, bias=True))
        normal = vectors[:, 0]
        if cloud.frame == FRAME_CAMERA:
            toward = normal @ near.mean(axis=0)
            if toward > 0 or (toward == 0 and normal[1] > 0):
                normal = -normal
        else:
            normal = canonicalize_hemisphere(normal[None])[0]
        flags[v] = values[1] <= max(values[2] * 1e-6, 1e-16)
        normals[v] = up_vector(cloud.frame) if flags[v] else normal
    return normals[inverse.ravel()], flags[inverse.ravel()]


class _NoQuery(cKDTree):
    def query(self, *args, **kwargs):
        raise AssertionError("kNN query on a cloud dense on its voxel grid")


class TestVoxelNormals:
    """Dense clouds take their normals from the 27-voxel neighbourhoods of
    the shared grid; sparse ones keep the kNN."""

    RES = 0.05

    @pytest.mark.parametrize("frame", [FRAME_GRAVITY, FRAME_CAMERA])
    def test_matches_brute_force_neighbourhoods(self, frame, rng, monkeypatch):
        cloud = _in_frame(_box_corner_scene(rng), frame)
        grid = voxel_grid(cloud.positions, self.RES)
        # several eigenpair slices, the last one partial
        monkeypatch.setattr(overseg, "_KNN_CHUNK", 97)
        assert grid.keys.shape[0] > 2 * 97 and grid.keys.shape[0] % 97
        got = compute_normals(cloud, grid, k=15)
        normals, flags = reference_voxel_normals(cloud, self.RES)
        np.testing.assert_array_equal(got.normal_flags, flags)
        if frame == FRAME_CAMERA:
            np.testing.assert_allclose(got.normals, normals, rtol=0, atol=1e-9)
        else:
            # a wall's normal has z = 0 up to rounding, so either sign can be
            # the upper-hemisphere one: compare up to sign, check the rule
            gap = np.minimum(np.abs(got.normals - normals), np.abs(got.normals + normals))
            assert gap.max() <= 1e-9
            np.testing.assert_array_equal(got.normals, canonicalize_hemisphere(got.normals))

    def test_sparse_cloud_keeps_the_knn(self):
        # 1000 pts/m^2 at voxel 0.025: 7 points in the median neighbourhood
        cloud = _small_scene(FRAME_CAMERA)
        grid = voxel_grid(cloud.positions, 0.025)
        got = compute_normals(cloud, grid, k=15)
        want = overseg._knn_normals(cloud, 15)
        assert got.normals.tobytes() == want.normals.tobytes()
        assert got.normal_flags.tobytes() == want.normal_flags.tobytes()

    def test_dense_cloud_makes_no_knn_query(self, rng, monkeypatch):
        monkeypatch.setattr(overseg, "cKDTree", _NoQuery)
        cloud = _in_frame(_box_corner_scene(rng), FRAME_CAMERA)
        got = compute_normals(cloud, grid_of(cloud, self.RES), k=15)
        assert not got.normal_flags.any()
        with pytest.raises(AssertionError, match="kNN query"):
            overseg._knn_normals(cloud, 15)

    def test_rank_one_neighbourhood_gets_up_and_a_flag(self, rng):
        """A dense line beside a dense plane: the line's neighbourhoods are
        collinear, so its points get the up vector and a flag."""
        plane = sample_plane(rng, 4000, extent=1.0)
        line = np.zeros((400, 3))
        line[:, 0] = np.linspace(3.0, 3.4, 400)
        cloud = make_cloud(np.vstack([plane, line]), frame=FRAME_GRAVITY)
        got = compute_normals(cloud, grid_of(cloud, self.RES), k=15)
        assert got.normal_flags[4000:].all() and not got.normal_flags[:4000].any()
        np.testing.assert_array_equal(got.normals[4000:], np.tile([0, 0, 1.0], (400, 1)))
        np.testing.assert_allclose(np.abs(got.normals[:4000, 2]), 1.0, atol=1e-9)

    @pytest.mark.parametrize("density", [1000.0, 3000.0])
    def test_oversegment_on_the_shared_grid(self, density):
        cloud = generate_scene(SceneSpec(
            seed=5, room_extent=(3.6, 3.0, 2.2), points_per_m2=density,
            furniture_counts={"table": 1, "chair": 2, "cabinet": 1, "object": 2}))
        config = PipelineConfig(voxel_resolution=0.025, seed_resolution=0.15)
        grid = grid_of(cloud, config.voxel_resolution)
        cloud = compute_normals(cloud, grid, k=15)
        # the normals leave the grid as it was
        _assert_same_graph(oversegment(cloud, config, grid),
                           _oversegment(cloud, config))


# a furnished room (x, y, z up, metres) and three boxes standing in it
_ROOM = ((0.0, -2.0, 0.0), (5.0, 2.2, 2.6))
_BOXES = (((2.0, -0.6, 0.0), (3.0, 0.4, 0.75)), ((1.2, 0.8, 0.0), (1.6, 1.2, 0.45)),
          ((3.8, -1.9, 0.0), (4.4, -1.1, 1.8)))


@functools.lru_cache(maxsize=None)
def _depth_frame(noise):
    """A 640x480 depth image of `_ROOM`, back-projected by
    `ingest_depth_frame`, and the true normal of every point (camera frame).

    The camera has NYU-like intrinsics and stands 1.2 m up, pitched 15
    degrees down and turned 10 degrees aside, so the depth runs from 1.2 to
    5.1 m and the point spacing grows with it. With ``noise`` the depth
    carries Kinect-like axial noise, 1.2 mm + 1.9 mm * (z - 0.4 m)^2 (one
    sigma), before the millimetre quantization of the raw image.
    """
    intr = Intrinsics(fx=525.0, fy=525.0, cx=319.5, cy=239.5, depth_scale=0.001)
    pitch, yaw = np.radians(15.0), np.radians(10.0)
    ahead = np.array([np.cos(pitch) * np.cos(yaw), np.cos(pitch) * np.sin(yaw), -np.sin(pitch)])
    right = np.array([np.sin(yaw), -np.cos(yaw), 0.0])
    to_room = np.stack([right, np.cross(ahead, right), ahead], axis=1)
    eye = np.array([0.3, 0.2, 1.2])
    v, u = np.mgrid[0:480, 0:640]
    # a ray per pixel, scaled to unit camera-frame depth
    rays = np.stack([(u.ravel() - intr.cx) / intr.fx, (v.ravel() - intr.cy) / intr.fy,
                     np.ones(u.size)], axis=1) @ to_room.T
    rows = np.arange(u.size)
    with np.errstate(divide="ignore"):
        lo, hi = ((np.array(c) - eye) / rays for c in _ROOM)
        # leave the room through the nearest wall ...
        exits = np.where(rays > 0, hi, lo)
        depth, axis = exits.min(axis=1), exits.argmin(axis=1)
        for box in _BOXES:
            # ... unless a box is hit first
            lo, hi = ((np.array(c) - eye) / rays for c in box)
            enter = np.minimum(lo, hi)
            near, near_axis = enter.max(axis=1), enter.argmax(axis=1)
            hit = (near <= np.maximum(lo, hi).min(axis=1)) & (near > 0) & (near < depth)
            depth[hit], axis[hit] = near[hit], near_axis[hit]
    normal = np.zeros_like(rays)
    normal[rows, axis] = -np.sign(rays[rows, axis])
    if noise:
        depth = depth + np.random.default_rng(0).normal(size=depth.shape) * (
            0.0012 + 0.0019 * (depth - 0.4) ** 2)
    raw = np.round(depth / intr.depth_scale).astype(np.uint16).reshape(480, 640)
    cloud = ingest_depth_frame(raw, np.full((480, 640, 3), 128, dtype=np.uint8), None, intr)
    return cloud, (normal @ to_room)[raw.ravel() > 0]


def _degrees(a, b):
    """Per row, the angle between two unit normal arrays, sign ignored."""
    return np.degrees(np.arccos(np.minimum(np.abs(np.einsum("ij,ij->i", a, b)), 1.0)))


class TestDepthFrames:
    """One point per pixel: the density falls with range. The path each
    frame takes, and how far its normals are from the truth and from the
    kNN's, at the default (0.01) and benchmark (0.025) voxel sizes."""

    @pytest.mark.parametrize("noise, resolution, voxel_path", [
        (False, 0.01, True), (False, 0.025, True), (True, 0.01, False), (True, 0.025, True)])
    def test_path(self, noise, resolution, voxel_path, monkeypatch):
        cloud, _ = _depth_frame(noise)
        knn = overseg._knn_normals(cloud, 15)
        if voxel_path:
            monkeypatch.setattr(overseg, "cKDTree", _NoQuery)
        got = compute_normals(cloud, grid_of(cloud, resolution), k=15)
        same = got.normals.tobytes() == knn.normals.tobytes()
        assert same != voxel_path

    def test_noise_free_frame_at_the_default_voxel(self):
        """The median neighbourhood barely reaches k (16 points): the far,
        sparse voxels' neighbourhoods are too small or collinear, and 7.7%
        of the points get the up vector and a flag, against none on the
        kNN. The rest stay within half a degree of the kNN's normals."""
        cloud, truth = _depth_frame(False)
        got = compute_normals(cloud, grid_of(cloud), k=15)
        knn = overseg._knn_normals(cloud, 15)
        assert not knn.normal_flags.any()
        assert got.normal_flags.mean() < 0.08
        kept = ~got.normal_flags
        assert np.median(_degrees(got.normals[kept], knn.normals[kept])) < 0.6
        assert np.median(_degrees(got.normals[kept], truth[kept])) < 0.5

    @pytest.mark.parametrize("noise", [False, True])
    def test_benchmark_voxel_beats_the_knn(self, noise):
        """At 0.025 every neighbourhood spans 7.5 cm, where the kNN's 15
        points span a few: noise-free, the median error is 0.05 degrees
        against 0.43; with the noise, 3.5 against 22."""
        cloud, truth = _depth_frame(noise)
        got = compute_normals(cloud, grid_of(cloud, 0.025), k=15)
        knn = overseg._knn_normals(cloud, 15)
        assert got.normal_flags.mean() < 0.002
        assert (np.median(_degrees(got.normals, truth))
                < 0.5 * np.median(_degrees(knn.normals, truth)))


def _small_scene(frame):
    """A furnished synthetic room, in the camera frame if asked."""
    cloud = generate_scene(SceneSpec(
        seed=5, room_extent=(3.6, 3.0, 2.2), points_per_m2=1000.0,
        furniture_counts={"table": 1, "chair": 2, "cabinet": 1, "object": 2}))
    if frame == FRAME_CAMERA:
        pos = cloud.positions[:, [1, 2, 0]] * [1.0, -1.0, 1.0] + [0.0, 1.2, 0.3]
        cloud = cloud.with_(positions=pos, frame=FRAME_CAMERA)
    return cloud


def _recorded(fn, calls):
    """``fn``, appending each result to ``calls``."""
    def call(*args):
        calls.append(fn(*args))
        return calls[-1]
    return call


def _assert_same_graph(got, want):
    for name in ("point_to_patch", "edges", "centroids"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


class TestStreaming:
    """Normals and seed scores stream over `_KNN_CHUNK` slices; that may
    change neither a single bit nor the stage's memory bound."""

    PARAMS = PipelineConfig(voxel_resolution=0.025, seed_resolution=0.15)
    # at 0.08 m seeds, some 10% of this scene's voxels have fewer than 12
    # seeds in reach, so the ~valid mask decides many more scores
    FEW_SEEDS = replace(PARAMS, seed_resolution=0.08)

    @pytest.mark.parametrize("frame, params", [
        pytest.param(FRAME_GRAVITY, PARAMS, id=FRAME_GRAVITY),
        pytest.param(FRAME_CAMERA, PARAMS, id=FRAME_CAMERA),
        # a zero weight times an out-of-reach candidate's infinite distance
        # is NaN, which the ~valid mask must overwrite. Without distance,
        # seeds reach across the room and most patches are tiny
        pytest.param(FRAME_CAMERA, replace(PARAMS, w_spatial=0.0, min_patch_points=3),
                     id="w_spatial=0"),
        pytest.param(FRAME_CAMERA, replace(PARAMS, w_normal=0.0), id="w_normal=0"),
        pytest.param(FRAME_CAMERA, replace(PARAMS, w_color=0.0), id="w_color=0"),
        pytest.param(FRAME_CAMERA, FEW_SEEDS, id="few_seeds_in_reach"),
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_short_slices_match_whole_array_assignment(self, frame, params, monkeypatch):
        """The streamed, per-channel scoring against `assign_voxels_whole`'s
        `einsum`s, bit for bit, at the default and at zero weights."""
        cloud = _small_scene(frame)
        want_cloud = overseg._knn_normals(cloud, 15)
        if params is self.FEW_SEEDS:
            assert np.mean(_seeds_in_reach(want_cloud, params) < 12) > 0.05
        want_assign, got_assign = [], []
        with monkeypatch.context() as m:
            m.setattr(overseg, "_assign_voxels", _recorded(assign_voxels_whole, want_assign))
            want = _oversegment(want_cloud, params)

        # many short slices of points and of voxels, the last one partial
        monkeypatch.setattr(overseg, "_KNN_CHUNK", 997)
        monkeypatch.setattr(overseg, "_assign_voxels",
                            _recorded(overseg._assign_voxels, got_assign))
        got_cloud = overseg._knn_normals(cloud, 15)
        voxels = np.unique(np.floor(cloud.positions / self.PARAMS.voxel_resolution), axis=0)
        assert len(cloud) % 997 and len(voxels) % 997 and len(voxels) > 4 * 997
        assert got_cloud.normals.tobytes() == want_cloud.normals.tobytes()
        assert got_cloud.normal_flags.tobytes() == want_cloud.normal_flags.tobytes()
        got = _oversegment(got_cloud, params)
        assert got_assign[0].dtype == want_assign[0].dtype
        assert got_assign[0].tobytes() == want_assign[0].tobytes()
        assert len(got) > 50 and got.edges.shape[0] > 50
        _assert_same_graph(got, want)

    def test_normals_peak_memory_stays_bounded(self):
        """A (k, N) neighbour table alone would take 37 MB here: the bound
        keeps whole-cloud neighbour tables and gathers out of this stage."""
        cloud = generate_scene(SceneSpec(seed=77, points_per_m2=4000.0,
                                         max_points=307200))
        assert len(cloud) > 250_000
        peak = peak_bytes(lambda: overseg._knn_normals(cloud, 15))
        assert peak < 64e6, f"compute_normals peaked at {peak / 1e6:.1f} MB"

    def test_voxel_normals_peak_memory_stays_bounded(self, monkeypatch):
        """The same bound on the voxel grid, where this cloud is dense: no
        (V, 27) neighbour gathers either."""
        cloud = generate_scene(SceneSpec(seed=77, points_per_m2=4000.0,
                                         max_points=307200))
        grid = voxel_grid(cloud.positions, 0.025)
        monkeypatch.setattr(overseg, "cKDTree", _NoQuery)
        peak = peak_bytes(lambda: compute_normals(cloud, grid, k=15))
        assert peak < 64e6, f"compute_normals peaked at {peak / 1e6:.1f} MB"

    def test_oversegment_peak_memory_stays_bounded(self):
        """The seed query and its scores go slice by slice, and the normal
        sums column by column: one whole query's (V, k) distances and
        candidates (36 MB here), or a canonicalized (N, 3) copy of the
        normals held beside them, would break this bound."""
        config = PipelineConfig()
        cloud = generate_scene(SceneSpec())
        grid = voxel_grid(cloud.positions, config.voxel_resolution)
        cloud = compute_normals(cloud, grid, k=config.normals_k)
        assert grid.keys.shape[0] > 4 * overseg._KNN_CHUNK
        peak = peak_bytes(lambda: oversegment(cloud, config, grid))
        assert peak < 56e6, f"oversegment peaked at {peak / 1e6:.1f} MB"


def reference_seed_scores(dist, cand, seed_normal, seed_lab, vox_normal, vox_lab, config):
    """`overseg._seed_scores` on (N, 3) float32 arrays, with the (v, k, 3)
    gathers and `einsum`s of `assign_voxels_whole`."""
    valid = np.isfinite(dist)
    d_spatial = (np.where(valid, dist, 0.0)
                 / (np.sqrt(3.0) * config.seed_resolution)).astype(np.float32)
    dots = np.abs(np.einsum("vkc,vc->vk", seed_normal[cand], vox_normal))
    d_normal = 1.0 - np.minimum(dots, 1.0)
    diff = seed_lab[cand] - vox_lab[:, None, :]
    d_color = np.sqrt(np.einsum("vkc,vkc->vk", diff, diff)) / 100.0
    score = (np.float32(config.w_spatial) * d_spatial
             + np.float32(config.w_normal) * d_normal
             + np.float32(config.w_color) * d_color)
    score[~valid] = np.inf
    return score


class TestSeedScoresOracle:
    """Scores decide few argmins by their last bit, so the assignment
    oracle alone would miss a change in rounding: compare the scores. A
    weight of one on a single term gives that term's bits exactly."""

    @pytest.mark.parametrize("weights", [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                                         (0.0, 0.0, 1.0), (0.4, 1.0, 0.2)],
                             ids=["spatial", "normal", "color", "default"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_per_channel_sums_match_einsum(self, weights, monkeypatch):
        calls = []
        monkeypatch.setattr(overseg, "_assign_voxels",
                            lambda *args: calls.append(args) or assign_voxels_whole(*args))
        cloud = overseg._knn_normals(_small_scene(FRAME_CAMERA), 15)
        _oversegment(cloud, TestStreaming.PARAMS)
        centroids, normals, lab, seeds, config = calls[0]
        config = replace(config, **dict(zip(("w_spatial", "w_normal", "w_color"), weights)))
        dist, cand = cKDTree(centroids[seeds]).query(
            centroids, k=12, distance_upper_bound=2.0 * config.seed_resolution)
        assert not np.isfinite(dist).all()
        cand = np.where(np.isfinite(dist), cand, 0)
        normals, lab = normals.astype(np.float32), lab.astype(np.float32)
        got = overseg._seed_scores(
            dist, cand, *(np.ascontiguousarray(a[seeds].T) for a in (normals, lab)),
            *(np.ascontiguousarray(a.T) for a in (normals, lab)), config)
        want = reference_seed_scores(dist, cand, normals[seeds], lab[seeds], normals, lab,
                                     config)
        assert got.dtype == want.dtype == np.float32
        assert got.tobytes() == want.tobytes()


def _seeds_in_reach(cloud, params):
    """Per voxel, the seeds within `_assign_voxels`' 2-seed-resolution bound."""
    grid = grid_of(cloud, params.voxel_resolution)
    counts = np.bincount(grid.vox_of_point).astype(np.float64)
    centroids = overseg.group_sums(grid.vox_of_point, cloud.positions,
                                   counts.shape[0]) / counts[:, None]
    seeds = centroids[overseg._select_seeds(centroids, params.seed_resolution)]
    reach = cKDTree(seeds).query_ball_point(centroids, 2.0 * params.seed_resolution,
                                            return_length=True)
    return np.asarray(reach)


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


def reference_select_seeds(vox_centroid, seed_res):
    """`overseg._select_seeds` as a stable `np.lexsort` on (cell, distance)."""
    floored = np.floor(vox_centroid / seed_res)
    cell = floored.astype(np.int64)
    cell -= cell.min(axis=0)
    ckeys = overseg._pack_grid(cell, cell.max(axis=0) + 2)
    dist = np.linalg.norm(vox_centroid - (floored + 0.5) * seed_res, axis=1)
    order = np.lexsort((dist, ckeys))
    firsts = np.ones(order.shape[0], dtype=bool)
    firsts[1:] = ckeys[order][1:] != ckeys[order][:-1]
    return np.sort(order[firsts])


def reference_canonicalize_hemisphere(normals):
    """`canonicalize_hemisphere` as a boolean-indexed ``*= -1.0``."""
    n = normals.copy()
    flip = (n[:, 2] < 0) | ((n[:, 2] == 0) & ((n[:, 1] < 0) | ((n[:, 1] == 0) & (n[:, 0] < 0))))
    n[flip] *= -1.0
    return n


class TestCanonicalizeHemisphere:
    def test_signed_zeros_and_nan_match_the_indexed_multiply(self):
        """Every row over {±0.0, ±1.0, ±inf, ±NaN}^3, byte for byte: a flip
        turns 0.0 into -0.0 and back, and keeps a NaN's sign bit, as
        multiplying by -1.0 does."""
        values = np.array([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, -np.nan])
        rows = np.stack(np.meshgrid(values, values, values, indexing="ij"),
                        axis=-1).reshape(-1, 3)
        before = rows.copy()
        got = canonicalize_hemisphere(rows)
        assert got.tobytes() == reference_canonicalize_hemisphere(rows).tobytes()
        assert rows.tobytes() == before.tobytes()
        # a flipped row's z is negative or zero, never NaN, so its sign bit
        # shows the flip; flipped rows hold signed zeros and NaNs
        flipped = np.signbit(got[:, 2]) != np.signbit(rows[:, 2])
        assert (flipped & (rows == 0).any(axis=1)).any()
        assert (flipped & np.isnan(rows).any(axis=1)).any()


def _lattice_pairs(ijk, resolution=1.0):
    """`voxel_grid` and `voxel_pairs_reference` pairs of voxel centres at
    integer lattice coordinates ``ijk``."""
    positions = (np.asarray(ijk, dtype=np.float64) + 0.5) * resolution
    return (voxel_grid(positions, resolution).pairs,
            voxel_pairs_reference(positions, resolution))


class TestVoxelGridPairs:
    """`voxel_grid`'s four column probes against one `searchsorted` per
    offset: the same pairs, in the same order, of the same dtype."""

    @settings(max_examples=300, deadline=None)
    @given(raw=arrays(np.int64, st.tuples(st.integers(1, 150), st.just(3)),
                      elements=st.integers(0, 63)),
           span=st.tuples(*[st.integers(1, 8)] * 3), shift=st.integers(-6, 2),
           resolution=st.sampled_from([0.025, 0.5, 1.0]))
    def test_matches_per_offset_searchsorted(self, raw, span, shift, resolution):
        """Spans from one to eight voxels per axis: full and gapped
        columns, lone voxels, negative coordinates, one-voxel clouds, and
        probes past the last key."""
        got, want = _lattice_pairs(raw % np.array(span) + shift, resolution)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_gapped_column_and_lone_voxel(self):
        # voxels 0..5 in key order; (0, 0, 2) is a gap and (5, 5, 5) is alone
        ijk = [(0, 0, 0), (0, 0, 1), (0, 0, 3), (0, 1, 2), (1, 0, 0), (5, 5, 5)]
        got, want = _lattice_pairs(ijk)
        assert got.tobytes() == want.tobytes()
        # (0,0,1): 0-1; (0,1,-1): 2-3; (0,1,1): 1-3; (1,0,-1): 1-4; (1,0,0): 0-4
        np.testing.assert_array_equal(got, [[0, 1], [2, 3], [1, 3], [1, 4], [0, 4]])

    @pytest.mark.parametrize("ijk", [[(0, 0, 0)], [(-3, 7, -2)] * 4, [(0, 0, 0), (2, 0, 0)]],
                             ids=["one_voxel", "one_voxel_repeated", "no_neighbours"])
    def test_clouds_without_pairs(self, ijk):
        got, want = _lattice_pairs(ijk)
        assert got.shape == (0, 2) and got.dtype == want.dtype == np.int32

    def test_frame_voxels(self):
        cloud = _small_scene(FRAME_CAMERA)
        got = voxel_grid(cloud.positions, 0.025).pairs
        want = voxel_pairs_reference(cloud.positions, 0.025)
        assert got.shape[0] > 100_000
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestSelectSeedsOracle:
    @settings(max_examples=200, deadline=None)
    @given(centroids=arrays(np.float64, st.tuples(st.integers(1, 200), st.just(3)),
                            elements=st.sampled_from([-0.35, -0.1, 0.0, 0.05, 0.1, 0.2,
                                                      0.25, 0.3, 0.45, 0.6])),
           repeats=st.integers(1, 3), seed_res=st.sampled_from([0.1, 0.2, 0.5]))
    def test_matches_lexsort(self, centroids, repeats, seed_res):
        """Few distinct coordinates, repeated centroids: many tied distances
        within a cell, and cells of one voxel."""
        centroids = np.repeat(centroids, repeats, axis=0)
        np.testing.assert_array_equal(overseg._select_seeds(centroids, seed_res),
                                      reference_select_seeds(centroids, seed_res))

    def test_ties_take_the_lowest_index_and_lone_voxels_seed_their_cell(self):
        # cells of 0.5 m along x, centers at 0.25, 0.75 and 1.25
        x = np.array([0.125, 0.375, 0.625, 0.75, 1.375, 0.375])
        centroids = np.column_stack([x, np.full(6, 0.25), np.full(6, 0.25)])
        seeds = overseg._select_seeds(centroids, 0.5)
        # cell 0: voxels 0, 1 and 5 tie; cell 1: voxel 3 is nearer than 2;
        # cell 2: voxel 4 alone
        np.testing.assert_array_equal(seeds, [0, 3, 4])
        np.testing.assert_array_equal(seeds, reference_select_seeds(centroids, 0.5))

    def test_frame_voxels_match_lexsort(self):
        cloud = _small_scene(FRAME_CAMERA)
        grid = voxel_grid(cloud.positions, 0.025)
        counts = np.bincount(grid.vox_of_point).astype(np.float64)
        centroids = overseg.group_sums(grid.vox_of_point, cloud.positions,
                                       counts.shape[0]) / counts[:, None]
        np.testing.assert_array_equal(overseg._select_seeds(centroids, 0.15),
                                      reference_select_seeds(centroids, 0.15))


def _dense_plane_cloud(rng, extent=1.0, density=12000, z=0.0):
    n = int(extent * extent * density)
    cloud = make_cloud(sample_plane(rng, n, extent=extent, z=z), frame=FRAME_GRAVITY)
    return compute_normals(cloud, grid_of(cloud), k=10)


def _oversegment(cloud, config):
    """`oversegment` on the cloud's own grid."""
    return oversegment(cloud, config, grid_of(cloud, config.voxel_resolution))


class TestOversegment:
    def test_requires_normals(self, rng):
        cloud = make_cloud(sample_plane(rng, 100))
        with pytest.raises(InputError):
            _oversegment(cloud, PipelineConfig())

    def test_empty_cloud_empty_graph(self):
        cloud = make_cloud(np.zeros((0, 3)))
        graph = _oversegment(cloud, PipelineConfig())
        assert len(graph.patches) == 0
        assert graph.edges.shape == (0, 2)
        assert graph.edges.dtype == np.int64
        assert graph.centroids.shape == (0, 3)

    def test_bad_resolutions(self, rng):
        with pytest.raises(InputError):
            PipelineConfig(voxel_resolution=0.1, seed_resolution=0.1)

    def test_few_points_all_discarded(self, rng):
        pts = sample_plane(rng, 5, extent=0.02)
        cloud = make_cloud(pts, frame=FRAME_GRAVITY)
        cloud = compute_normals(cloud, grid_of(cloud), k=3)
        graph = _oversegment(cloud, PipelineConfig(min_patch_points=10))
        assert len(graph.patches) == 0
        assert graph.edges.shape == (0, 2)
        assert graph.edges.dtype == np.int64

    def test_single_patch_has_no_edges(self, rng):
        pts = sample_plane(rng, 400, extent=0.05)
        cloud = make_cloud(pts, frame=FRAME_GRAVITY)
        cloud = compute_normals(cloud, grid_of(cloud), k=10)
        graph = _oversegment(cloud, PipelineConfig(seed_resolution=0.5))
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
        cloud = make_cloud(pts, frame=FRAME_GRAVITY)
        cloud = compute_normals(cloud, grid_of(cloud), k=10)
        params = PipelineConfig(voxel_resolution=0.02, seed_resolution=0.06,
                               min_patch_points=5)
        graph = _oversegment(cloud, params)

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
        graph = _oversegment(cloud, PipelineConfig())
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
        graph = _oversegment(cloud, PipelineConfig())
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
        g1 = _oversegment(cloud, PipelineConfig())
        g2 = _oversegment(cloud, PipelineConfig())
        assert len(g1.patches) == len(g2.patches)
        np.testing.assert_array_equal(g1.edges, g2.edges)
        np.testing.assert_array_equal(g1.point_to_patch, g2.point_to_patch)

    def test_two_distant_squares_never_connect(self, rng):
        """Pairwise-distance oracle: patches from different squares are at
        least 5 m apart, so no adjacency edge may cross between them."""
        a = sample_plane(rng, 4000, extent=0.5, z=0.0)
        b = sample_plane(rng, 4000, extent=0.5, z=0.0)
        b[:, 0] += 5.5
        cloud = make_cloud(np.vstack([a, b]), frame=FRAME_GRAVITY)
        cloud = compute_normals(cloud, grid_of(cloud), k=10)
        graph = _oversegment(cloud, PipelineConfig())
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
        graph = _oversegment(cloud, PipelineConfig(seed_resolution=0.1))
        for p, m in enumerate(patch_members(graph)):
            d = np.linalg.norm(cloud.positions[m] - graph.centroids[p], axis=1)
            assert d.max() <= 2 * 0.1

    def test_purity_on_noise_free_scene(self):
        spec = SceneSpec(seed=17, noise_sigma=0.0, room_extent=(4.2, 3.4, 2.3),
                         points_per_m2=3000.0)
        cloud = generate_scene(spec)
        config = PipelineConfig(voxel_resolution=0.02)
        grid = grid_of(cloud, config.voxel_resolution)
        cloud = compute_normals(cloud, grid, k=15)
        graph = oversegment(cloud, config, grid)
        pure = 0
        for m in patch_members(graph):
            hist = np.bincount(cloud.labels[m], minlength=8)
            if hist.max() / hist.sum() >= 0.9:
                pure += 1
        assert pure / len(graph.patches) >= 0.95

    def test_min_patch_points_respected(self, rng):
        cloud = _dense_plane_cloud(rng)
        graph = _oversegment(cloud, PipelineConfig(min_patch_points=50))
        assert len(graph) > 0
        assert (np.bincount(graph.point_to_patch[graph.point_to_patch >= 0]) >= 50).all()
