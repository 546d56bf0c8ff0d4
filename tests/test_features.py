import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indoorseg.cloud import FRAME_GRAVITY
from indoorseg.colorspace import srgb_to_lab
from indoorseg.errors import FeatureError, InputError
from indoorseg.features import FEATURE_DIM, feature_matrix
from indoorseg.overseg import PatchGraph, canonicalize_hemisphere, \
    compute_normals, oversegment, refresh_patch_stats
from indoorseg.pipeline import PipelineConfig

from conftest import grid_of, make_cloud, patch_members, sample_plane

# Per-patch reference implementations of the feature groups: one patch at a
# time, straight from the definitions in the features module docstring.
# ``indices`` selects the patch's points (default: the whole cloud).


def _members(cloud, indices):
    return np.arange(len(cloud)) if indices is None else np.asarray(indices)


def spectral_features(cloud, indices=None) -> tuple[float, float, float]:
    """(pointness, surfaceness, linearness) from the patch scatter matrix."""
    pts = cloud.positions[_members(cloud, indices)]
    if pts.shape[0] < 3:
        raise FeatureError(f"spectral features need >= 3 points, got {pts.shape[0]}")
    centered = pts - pts.mean(axis=0)
    cov = centered.T @ centered / pts.shape[0]
    l0, l1, l2 = np.linalg.eigvalsh(cov)
    return max(float(l0), 0.0), max(float(l1 - l0), 0.0), max(float(l2 - l1), 0.0)


def height_features(cloud, indices=None) -> tuple[float, float, float]:
    """(centroid height, lowest height, highest height); gravity frame only."""
    if cloud.frame != FRAME_GRAVITY:
        raise InputError("height features require a gravity-aligned cloud")
    z = cloud.positions[_members(cloud, indices), 2]
    lo, hi = float(z.min()), float(z.max())
    return min(max(float(z.mean()), lo), hi), lo, hi


def normal_features(cloud, indices=None) -> tuple[float, float]:
    """(mean-normal angle to the ground plane, circular std of point angles)."""
    if cloud.normals is None:
        raise InputError("normal features require per-point normals")
    normals = cloud.normals[_members(cloud, indices)]
    canon = canonicalize_hemisphere(normals)
    mean_vec = canon.sum(axis=0)
    norm = np.linalg.norm(mean_vec)
    if norm < 1e-12:
        return 0.0, 4.0
    mean_angle = float(np.arcsin(np.clip(abs(mean_vec[2]) / norm, 0.0, 1.0)))

    theta = np.arcsin(np.clip(np.abs(normals[:, 2]), 0.0, 1.0))
    resultant = np.array([np.cos(2.0 * theta).mean(), np.sin(2.0 * theta).mean()])
    r = min(max(float(np.linalg.norm(resultant)), np.exp(-8.0)), 1.0)
    return mean_angle, float(np.sqrt(-2.0 * np.log(r)))


def color_features(cloud, indices=None) -> tuple[np.ndarray, np.ndarray]:
    """Mean and population std of the member colors in CIELAB."""
    lab = srgb_to_lab(cloud.colors[_members(cloud, indices)])
    return lab.mean(axis=0), lab.std(axis=0)


def srgb_to_lab_oracle(rgb):
    """Scalar reference implementation, written separately from the library
    conversion: sRGB EOTF, XYZ (D65), then the CIE f() with the linear tail."""
    def lin(c):
        c = c / 255.0
        return c / 12.92 if c <= 0.04045 else ((c + 0.055) / 1.055) ** 2.4
    r, g, b = (lin(c) for c in rgb)
    x = 0.4124564 * r + 0.3575761 * g + 0.1804375 * b
    y = 0.2126729 * r + 0.7151522 * g + 0.0721750 * b
    z = 0.0193339 * r + 0.1191920 * g + 0.9503041 * b
    def f(t):
        return t ** (1.0 / 3.0) if t > (6 / 29) ** 3 else t / (3 * (6 / 29) ** 2) + 4 / 29
    fx, fy, fz = f(x / 0.95047), f(y / 1.0), f(z / 1.08883)
    return np.array([116 * fy - 16, 500 * (fx - fy), 200 * (fy - fz)])


class TestSpectral:
    def test_identical_points_zero(self):
        cloud = make_cloud(np.tile([1.0, 2.0, 3.0], (10, 1)))
        assert spectral_features(cloud) == (0.0, 0.0, 0.0)

    def test_plane_has_no_pointness(self, rng):
        cloud = make_cloud(sample_plane(rng, 200, z=0.4))
        pointness, _, _ = spectral_features(cloud)
        assert pointness <= 1e-12

    def test_sum_matches_independent_eigenvalue_oracle(self, rng):
        pts = rng.normal(size=(100, 3)) * [0.2, 0.1, 0.02] + [1.0, 2.0, 0.5]
        cloud = make_cloud(pts)
        f = spectral_features(cloud)
        # oracle via SVD of the centered coordinates (different decomposition path)
        centered = pts - pts.mean(axis=0)
        sv = np.linalg.svd(centered, compute_uv=False)
        lam2 = (sv[0] ** 2) / pts.shape[0]
        assert abs(sum(f) - lam2) <= 1e-9

    def test_too_few_points(self):
        cloud = make_cloud([[0, 0, 0], [1, 1, 1]])
        with pytest.raises(FeatureError):
            spectral_features(cloud)


class TestHeights:
    def test_floor_patch_zero(self, rng):
        cloud = make_cloud(sample_plane(rng, 50, z=0.0))
        assert height_features(cloud) == (0.0, 0.0, 0.0)

    def test_order(self, rng):
        cloud = make_cloud(rng.uniform(-1, 3, size=(200, 3)))
        mid, lo, hi = height_features(cloud)
        assert lo <= mid <= hi

    def test_requires_gravity_frame(self, rng):
        cloud = make_cloud(sample_plane(rng, 50), frame="camera")
        with pytest.raises(InputError):
            height_features(cloud)


class TestNormalFeatures:
    def test_horizontal_patch(self, rng):
        cloud = make_cloud(sample_plane(rng, 40),
                           normals=np.tile([0.0, 0.0, 1.0], (40, 1)))
        angle, circ = normal_features(cloud)
        assert abs(angle - math.pi / 2) <= 1e-12
        assert circ <= 1e-9

    def test_vertical_wall_patch(self, rng):
        cloud = make_cloud(sample_plane(rng, 40),
                           normals=np.tile([1.0, 0.0, 0.0], (40, 1)))
        angle, _ = normal_features(cloud)
        assert abs(angle) <= 1e-12

    def test_two_population_circular_std(self):
        """Frozen from the definitional formula: half the normals at angle 0,
        half at pi/4 -> R = sqrt(0.5), circ std = sqrt(ln 2)."""
        n = 40
        normals = np.zeros((n, 3))
        normals[:20] = [1.0, 0.0, 0.0]                      # theta = 0
        normals[20:] = [math.sqrt(0.5), 0.0, math.sqrt(0.5)]  # theta = pi/4
        cloud = make_cloud(np.zeros((n, 3)) + [0, 0, 1.0], normals=normals)
        _, circ = normal_features(cloud)
        assert abs(circ - math.sqrt(math.log(2.0))) <= 1e-12

    def test_zero_sum_normals(self):
        # hemisphere canonicalization flips the first normal (z just below
        # zero), so the canonical sum cancels to ~0 and the guard kicks in
        normals = np.array([[1.0, 0.0, -1e-18], [1.0, 0.0, 1e-18]] * 5)
        cloud = make_cloud(np.zeros((10, 3)), normals=normals)
        angle, circ = normal_features(cloud)
        assert angle == 0.0
        assert circ == 4.0


class TestColorFeatures:
    def test_white(self):
        cloud = make_cloud(np.zeros((20, 3)), colors=np.full((20, 3), 255))
        mean, std = color_features(cloud)
        assert abs(mean[0] - 100.0) <= 0.01
        assert abs(mean[1]) <= 0.01 and abs(mean[2]) <= 0.01
        np.testing.assert_allclose(std, 0.0, atol=1e-9)

    def test_black(self):
        cloud = make_cloud(np.zeros((20, 3)), colors=np.zeros((20, 3)))
        mean, std = color_features(cloud)
        assert abs(mean[0]) <= 1e-9
        np.testing.assert_allclose(std, 0.0, atol=1e-9)

    def test_red_green_mix_matches_colorimetry_oracle(self):
        colors = np.array([[255, 0, 0]] * 10 + [[0, 255, 0]] * 10)
        cloud = make_cloud(np.zeros((20, 3)), colors=colors)
        mean, std = color_features(cloud)
        lab_red = srgb_to_lab_oracle([255, 0, 0])
        lab_green = srgb_to_lab_oracle([0, 255, 0])
        expected_std_l = abs(lab_red[0] - lab_green[0]) / 2.0
        assert abs(std[0] - expected_std_l) <= 1e-3
        np.testing.assert_allclose(mean, (lab_red + lab_green) / 2.0, atol=1e-3)


def _rows(graph, cloud):
    """`feature_matrix` of ``graph`` with its centroids taken on ``cloud``."""
    return feature_matrix(refresh_patch_stats(graph, cloud), cloud)


class TestExtract:
    def _scene_graph(self, rng, n=6000):
        pts = np.vstack([
            sample_plane(rng, n // 2, extent=1.0, z=0.0),
            sample_plane(rng, n // 2, extent=1.0, z=0.7),
        ])
        colors = rng.integers(0, 256, size=(n, 3)).astype(np.uint8)
        cloud = make_cloud(pts, colors=colors, frame=FRAME_GRAVITY)
        grid = grid_of(cloud)
        cloud = compute_normals(cloud, grid, k=10)
        graph = oversegment(cloud, PipelineConfig(), grid)
        return cloud, graph

    def test_empty_graph(self):
        cloud = make_cloud(np.zeros((0, 3)))
        graph = PatchGraph(point_to_patch=np.zeros(0, dtype=np.int64),
                           edges=np.zeros((0, 2), dtype=np.int64),
                           sizes=np.zeros(0, dtype=np.int64))
        ids, mat = feature_matrix(graph, cloud)
        assert ids.shape == (0,) and ids.dtype == np.int64
        assert mat.shape == (0, FEATURE_DIM)

    def test_patch_under_three_points_raises(self, rng):
        pts = np.vstack([rng.uniform(0, 1, (5, 3)), rng.uniform(2, 3, (2, 3))])
        cloud = make_cloud(pts, frame=FRAME_GRAVITY,
                           normals=np.tile([0.0, 0.0, 1.0], (7, 1)))
        graph = PatchGraph(point_to_patch=np.array([0, 0, 0, 0, 0, 1, 1]),
                           edges=np.array([[0, 1]]), sizes=np.array([5, 2]),
                           centroids=np.stack([pts[:5].mean(axis=0), pts[5:].mean(axis=0)]))
        with pytest.raises(FeatureError, match="patch 1 has 2 points"):
            feature_matrix(graph, cloud)

    def test_graph_without_centroids_raises(self, rng):
        """The centroids are the graph's: `oversegment`'s graph has none
        until `refresh_patch_stats` takes them on the aligned cloud."""
        cloud, graph = self._scene_graph(rng)
        with pytest.raises(InputError, match="patch centroids"):
            feature_matrix(graph, cloud)

    def test_rows_match_per_patch_oracles(self, rng):
        cloud, graph = self._scene_graph(rng)
        ids, mat = _rows(graph, cloud)
        members = patch_members(graph)
        np.testing.assert_array_equal(ids, np.arange(len(graph)))
        assert ids.shape[0] > 20
        expected = np.array([
            np.concatenate([spectral_features(cloud, members[p]),
                            height_features(cloud, members[p]),
                            normal_features(cloud, members[p]),
                            *color_features(cloud, members[p])])
            for p in ids])
        np.testing.assert_allclose(mat, expected, rtol=0, atol=1e-12)
        # lowest and highest point heights are exact
        np.testing.assert_array_equal(mat[:, 4:6], expected[:, 4:6])

    def test_floor_patch_values(self, rng):
        cloud = make_cloud(sample_plane(rng, 3000, z=0.0), frame=FRAME_GRAVITY)
        grid = grid_of(cloud)
        cloud = compute_normals(cloud, grid, k=10)
        graph = oversegment(cloud, PipelineConfig(), grid)
        ids, mat = _rows(graph, cloud)
        assert mat.shape[0] > 0
        np.testing.assert_allclose(mat[:, 3], 0.0, atol=1e-9)   # centroid height
        np.testing.assert_allclose(mat[:, 6], math.pi / 2, atol=1e-6)

    def test_invariants_on_every_vector(self, rng):
        cloud, graph = self._scene_graph(rng)
        _, mat = _rows(graph, cloud)
        assert (mat[:, 0] >= 0).all() and (mat[:, 1] >= 0).all() and (mat[:, 2] >= 0).all()
        assert (mat[:, 4] <= mat[:, 3]).all() and (mat[:, 3] <= mat[:, 5]).all()
        assert ((mat[:, 6] >= 0) & (mat[:, 6] <= math.pi / 2 + 1e-12)).all()
        assert (mat[:, 7] >= 0).all()
        assert ((mat[:, 8] >= 0) & (mat[:, 8] <= 100)).all()
        assert (mat[:, 11:14] >= 0).all()

    def test_yaw_rotation_invariance(self, rng):
        cloud, graph = self._scene_graph(rng)
        _, mat = _rows(graph, cloud)
        yaw = 1.234
        c, s = math.cos(yaw), math.sin(yaw)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        rotated = cloud.with_(positions=cloud.positions @ rot.T,
                              normals=cloud.normals @ rot.T)
        _, mat_rot = _rows(graph, rotated)
        np.testing.assert_allclose(mat_rot, mat, atol=1e-6)

    def test_z_shift_moves_only_heights(self, rng):
        cloud, graph = self._scene_graph(rng)
        _, mat = _rows(graph, cloud)
        shifted = cloud.with_(positions=cloud.positions + [0.0, 0.0, 0.25])
        _, mat_shift = _rows(graph, shifted)
        np.testing.assert_allclose(mat_shift[:, 3:6] - mat[:, 3:6], 0.25, atol=1e-9)
        keep = [0, 1, 2, 6, 7, 8, 9, 10, 11, 12, 13]
        np.testing.assert_allclose(mat_shift[:, keep], mat[:, keep], atol=1e-9)

    def test_xy_translation_invariance(self, rng):
        cloud, graph = self._scene_graph(rng)
        _, mat = _rows(graph, cloud)
        shifted = cloud.with_(positions=cloud.positions + [3.0, -2.0, 0.0])
        _, mat_shift = _rows(graph, shifted)
        np.testing.assert_allclose(mat_shift, mat, atol=1e-8)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_eigen_sum_identity_random_patches(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 60))
    scale = 10.0 ** rng.uniform(-3, 0.5)
    pts = rng.normal(size=(n, 3)) * scale + rng.uniform(-5, 5, size=3)
    cloud = make_cloud(pts)
    f0, f1, f2 = spectral_features(cloud)
    centered = pts - pts.mean(axis=0)
    lam2 = np.linalg.eigvalsh(centered.T @ centered / n)[-1]
    assert f0 + f1 + f2 == pytest.approx(lam2, abs=1e-9)
    assert f0 >= 0 and f1 >= 0 and f2 >= 0
