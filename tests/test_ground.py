import numpy as np
import pytest

from indoorseg.cloud import FRAME_CAMERA, FRAME_GRAVITY
from indoorseg.errors import FrameDiscardError, InputError
from indoorseg.ground import (
    DEFAULT_RANSAC_THRESHOLD,
    GroundPlane,
    estimate_ground_plane,
    gravity_align,
    load_camera_pose,
    plane_from_pose,
)
from indoorseg.labels import Label
from indoorseg.synth import SceneSpec, generate_scene

from conftest import make_cloud


def camera_floor_cloud(rng, n=2000, height=1.3, outlier_frac=0.0):
    """Floor plane y = height in the camera frame (y points down)."""
    pts = np.zeros((n, 3))
    pts[:, 0] = rng.uniform(-2, 2, n)
    pts[:, 2] = rng.uniform(0.5, 4.0, n)
    pts[:, 1] = height
    n_out = int(outlier_frac * n)
    if n_out:
        pts[:n_out] = rng.uniform([-2, -1.5, 0.5], [2, 1.5, 4.0], size=(n_out, 3))
    labels = np.full(n, int(Label.FLOOR), dtype=np.uint8)
    return make_cloud(pts, labels=labels, frame=FRAME_CAMERA)


class TestEstimate:
    def test_exact_plane(self, rng):
        cloud = camera_floor_cloud(rng, height=1.3)
        plane = estimate_ground_plane(cloud, min_floor_points=100, seed=0)
        assert abs(plane.camera_height - 1.3) <= 1e-6
        np.testing.assert_allclose(plane.normal, [0.0, -1.0, 0.0], atol=1e-6)
        assert plane.inlier_count == len(cloud)

    def test_robust_to_outliers(self, rng):
        cloud = camera_floor_cloud(rng, n=3000, height=1.1, outlier_frac=0.3)
        plane = estimate_ground_plane(cloud, min_floor_points=100, seed=3)
        angle = np.degrees(np.arccos(np.clip(-plane.normal[1], -1, 1)))
        assert angle <= 0.5
        assert abs(plane.camera_height - 1.1) <= 0.01

    def test_discard_rule(self, rng):
        cloud = camera_floor_cloud(rng, n=100)
        with pytest.raises(FrameDiscardError):
            estimate_ground_plane(cloud, min_floor_points=500)

    def test_needs_labels(self, rng):
        cloud = make_cloud(rng.uniform(0, 1, (600, 3)), frame=FRAME_CAMERA)
        with pytest.raises(InputError):
            estimate_ground_plane(cloud)

    def test_deterministic(self, rng):
        cloud = camera_floor_cloud(rng, n=2500, outlier_frac=0.2)
        p1 = estimate_ground_plane(cloud, min_floor_points=100, seed=7)
        p2 = estimate_ground_plane(cloud, min_floor_points=100, seed=7)
        np.testing.assert_array_equal(p1.normal, p2.normal)
        assert p1.offset == p2.offset

    @pytest.mark.parametrize("seed", range(8))
    def test_gravity_frame_floor_normal_points_up(self, seed):
        # the floor passes within microns of a gravity-frame cloud's origin,
        # so the offset's sign is noise; the frame's up vector must decide
        cloud = generate_scene(SceneSpec(seed=seed, points_per_m2=500.0))
        plane = estimate_ground_plane(cloud)
        assert abs(plane.offset) <= DEFAULT_RANSAC_THRESHOLD
        assert plane.normal @ [0.0, 0.0, 1.0] > 0


class TestAlign:
    def test_floor_inliers_land_in_band(self, rng):
        cloud = camera_floor_cloud(rng, height=1.3)
        plane = estimate_ground_plane(cloud, min_floor_points=100)
        aligned = gravity_align(cloud, plane)
        assert aligned.frame == FRAME_GRAVITY
        assert np.abs(aligned.positions[:, 2]).max() <= 0.02 + 1e-9

    def test_camera_origin_maps_to_camera_height(self, rng):
        cloud = camera_floor_cloud(rng, height=1.3)
        plane = estimate_ground_plane(cloud, min_floor_points=100)
        extended = make_cloud(np.vstack([cloud.positions, [[0.0, 0.0, 0.0]]]),
                              frame=FRAME_CAMERA)
        aligned = gravity_align(extended, plane)
        assert abs(aligned.positions[-1, 2] - plane.camera_height) <= 1e-9

    def test_rigid_distances_preserved(self, rng):
        cloud = camera_floor_cloud(rng, n=2000, height=0.9)
        plane = estimate_ground_plane(cloud, min_floor_points=100)
        aligned = gravity_align(cloud, plane)
        i = rng.integers(0, len(cloud), 1000)
        j = rng.integers(0, len(cloud), 1000)
        before = np.linalg.norm(cloud.positions[i] - cloud.positions[j], axis=1)
        after = np.linalg.norm(aligned.positions[i] - aligned.positions[j], axis=1)
        np.testing.assert_allclose(after, before, atol=1e-9)

    def test_heights_equal_signed_distance(self, rng):
        cloud = camera_floor_cloud(rng, n=1500, height=1.0, outlier_frac=0.3)
        plane = estimate_ground_plane(cloud, min_floor_points=100)
        aligned = gravity_align(cloud, plane)
        np.testing.assert_allclose(aligned.positions[:, 2],
                                   plane.signed_height(cloud.positions), atol=1e-9)

    def test_idempotent_on_aligned_cloud(self, rng):
        pts = rng.uniform(0, 3, size=(500, 3))
        cloud = make_cloud(pts, frame=FRAME_GRAVITY)
        identity = GroundPlane(normal=np.array([0.0, 0.0, 1.0]), offset=0.0,
                               camera_height=0.0, inlier_count=0)
        aligned = gravity_align(cloud, identity)
        np.testing.assert_allclose(aligned.positions, pts, atol=1e-9)

    def test_normals_rotated_with_cloud(self, rng):
        cloud = camera_floor_cloud(rng, height=1.2)
        cloud = cloud.with_(normals=np.tile([0.0, -1.0, 0.0], (len(cloud), 1)))
        plane = estimate_ground_plane(cloud, min_floor_points=100)
        aligned = gravity_align(cloud, plane)
        np.testing.assert_allclose(aligned.normals,
                                   np.tile([0, 0, 1.0], (len(cloud), 1)), atol=1e-6)


class TestPose:
    def test_level_camera(self):
        plane = plane_from_pose(camera_height=1.1, pitch=0.0, roll=0.0)
        np.testing.assert_allclose(plane.normal, [0, -1.0, 0], atol=1e-12)
        assert plane.camera_height == 1.1

    def test_pitch_down_90_looks_at_floor(self):
        plane = plane_from_pose(camera_height=1.0, pitch=np.pi / 2, roll=0.0)
        np.testing.assert_allclose(plane.normal, [0, 0, -1.0], atol=1e-12)

    def test_pose_alignment_consistency(self, rng):
        # synthesize a tilted camera view of a floor and align via the pose
        pitch = 0.3
        plane = plane_from_pose(camera_height=1.4, pitch=pitch, roll=0.0)
        # points on the ground plane: signed height 0
        base = rng.uniform(-2, 2, size=(300, 3))
        shift = (plane.signed_height(base))[:, None] * plane.normal[None, :]
        on_plane = base - shift
        cloud = make_cloud(on_plane, frame=FRAME_CAMERA)
        aligned = gravity_align(cloud, plane)
        np.testing.assert_allclose(aligned.positions[:, 2], 0.0, atol=1e-9)

    def test_pose_file(self, tmp_path):
        path = tmp_path / "pose.txt"
        path.write_text("height 1.2\npitch 0.1\nroll 0.0\n")
        plane = load_camera_pose(path)
        assert plane.camera_height == 1.2
        path.write_text("height 1.2\n")
        with pytest.raises(InputError):
            load_camera_pose(path)
