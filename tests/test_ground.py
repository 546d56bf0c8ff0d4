import numpy as np
import pytest

from indoorseg import ground
from indoorseg.cloud import FRAME_CAMERA, FRAME_GRAVITY, up_vector
from indoorseg.errors import FrameDiscardError, InputError
from indoorseg.ground import (
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
        assert abs(plane.offset - 1.3) <= 1e-6
        np.testing.assert_allclose(plane.normal, [0.0, -1.0, 0.0], atol=1e-6)
        assert plane.inlier_count == len(cloud)

    def test_robust_to_outliers(self, rng):
        cloud = camera_floor_cloud(rng, n=3000, height=1.1, outlier_frac=0.3)
        plane = estimate_ground_plane(cloud, min_floor_points=100, seed=3)
        angle = np.degrees(np.arccos(np.clip(-plane.normal[1], -1, 1)))
        assert angle <= 0.5
        assert abs(plane.offset - 1.1) <= 0.01

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

    def test_scoring_block_does_not_change_the_plane(self, rng, monkeypatch):
        """The hypotheses are scored over blocks of floor points; a block of
        one point gives the same plane and inliers, bit for bit."""
        cloud = camera_floor_cloud(rng, n=4000, height=1.2, outlier_frac=0.2)
        # a noisy floor, so many points lie near the threshold of some plane
        noisy = cloud.positions + rng.normal(0.0, 0.01, cloud.positions.shape)
        cloud = cloud.with_(positions=noisy)
        want = estimate_ground_plane(cloud, min_floor_points=100, seed=5)
        assert 0 < want.inlier_count < len(cloud)
        assert len(cloud) > ground._SCORE_BLOCK // 200
        monkeypatch.setattr(ground, "_SCORE_BLOCK", 1)
        got = estimate_ground_plane(cloud, min_floor_points=100, seed=5)
        assert got.normal.tobytes() == want.normal.tobytes()
        assert got.offset == want.offset
        assert got.inlier_count == want.inlier_count

    def test_collinear_floor_discarded(self, rng):
        # every RANSAC triple of points on one line spans no plane
        pts = np.zeros((600, 3))
        pts[:, 0] = rng.uniform(-2, 2, 600)
        pts[:, 1] = 1.3
        cloud = make_cloud(pts, labels=np.full(600, int(Label.FLOOR), dtype=np.uint8),
                           frame=FRAME_CAMERA)
        with pytest.raises(FrameDiscardError, match="degenerate"):
            estimate_ground_plane(cloud, min_floor_points=100)

    @pytest.mark.parametrize("up", [1.0, -1.0], ids=["upright", "rolled_180"])
    def test_camera_frame_floor_normal_points_at_the_camera(self, rng, up):
        """The floor at y = 1.3 (camera y down) or at y = -1.3 (the camera
        rolled 180 degrees). Both clouds have the same centred points, so
        `eigh` returns the same normal for both, and exactly one of the two
        fits has to flip it. Both must put the camera 1.3 m above the floor."""
        cloud = camera_floor_cloud(rng, height=up * 1.3)
        plane = estimate_ground_plane(cloud, min_floor_points=100)
        assert abs(plane.offset - 1.3) <= 1e-9
        np.testing.assert_allclose(plane.normal, [0.0, -up, 0.0], atol=1e-9)
        # the camera origin, and a point 0.8 m above the floor
        probes = np.vstack([cloud.positions, [[0.0, 0.0, 0.0], [0.3, up * 0.5, 2.0]]])
        aligned = gravity_align(make_cloud(probes, frame=FRAME_CAMERA), plane)
        assert np.abs(aligned.positions[:-2, 2]).max() <= 1e-9
        np.testing.assert_allclose(aligned.positions[-2:, 2], [1.3, 0.8], atol=1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_gravity_frame_floor_normal_points_up(self, seed):
        # the floor passes within microns of a gravity-frame cloud's origin,
        # so the offset's sign is noise; the frame's up vector must decide
        cloud = generate_scene(SceneSpec(seed=seed, points_per_m2=500.0))
        plane = estimate_ground_plane(cloud)
        assert abs(plane.offset) <= 0.02  # the default fit threshold
        assert plane.normal @ [0.0, 0.0, 1.0] > 0


    def test_floor_through_the_origin_takes_the_frames_up_vector(self, rng):
        """A floor through the origin, normal along (0, 1, 1), fitted once as
        a gravity-frame and once as a camera-frame cloud. Both fits see the
        same points, so `eigh` returns the same normal for both, and exactly
        one of them has to flip it to point along its frame's up vector."""
        y = rng.uniform(-2, 2, 600)
        pts = np.column_stack([rng.uniform(-2, 2, 600), y, -y])
        labels = np.full(600, int(Label.FLOOR), dtype=np.uint8)
        planes = {}
        for frame in (FRAME_GRAVITY, FRAME_CAMERA):
            cloud = make_cloud(pts, labels=labels, frame=frame)
            planes[frame] = estimate_ground_plane(cloud, min_floor_points=100)
            assert planes[frame].normal @ up_vector(frame) > 0
            assert abs(planes[frame].offset) <= 1e-12
        np.testing.assert_array_equal(planes[FRAME_CAMERA].normal, -planes[FRAME_GRAVITY].normal)


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
        assert abs(aligned.positions[-1, 2] - plane.offset) <= 1e-9

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
                                   cloud.positions @ plane.normal + plane.offset, atol=1e-9)

    def test_idempotent_on_aligned_cloud(self, rng):
        pts = rng.uniform(0, 3, size=(500, 3))
        cloud = make_cloud(pts, frame=FRAME_GRAVITY)
        identity = GroundPlane(normal=np.array([0.0, 0.0, 1.0]), offset=0.0,
                               inlier_count=0)
        aligned = gravity_align(cloud, identity)
        np.testing.assert_allclose(aligned.positions, pts, atol=1e-9)

    def test_normals_rotated_with_cloud(self, rng):
        cloud = camera_floor_cloud(rng, height=1.2)
        cloud = cloud.with_(normals=np.tile([0.0, -1.0, 0.0], (len(cloud), 1)))
        plane = estimate_ground_plane(cloud, min_floor_points=100)
        aligned = gravity_align(cloud, plane)
        np.testing.assert_allclose(aligned.normals,
                                   np.tile([0, 0, 1.0], (len(cloud), 1)), atol=1e-6)


    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_floor_normal_along_camera_x(self, sign):
        """A camera rolled 90 degrees: the floor normal is the camera's x-axis,
        which then has nothing left off the normal to give the yaw, so the
        camera's y-axis gives it."""
        plane = GroundPlane(normal=np.array([sign, 0.0, 0.0]), offset=1.2, inlier_count=0)
        rotation, translation = ground.alignment_transform(plane)
        np.testing.assert_allclose(rotation, [[0.0, 1.0, 0.0], [0.0, 0.0, sign],
                                              [sign, 0.0, 0.0]], atol=1e-12)
        assert np.linalg.det(rotation) == pytest.approx(1.0)
        floor = np.array([[-sign * 1.2, 0.3, 2.0], [-sign * 1.2, -1.0, 4.0]])
        aligned = gravity_align(make_cloud(np.vstack([floor, [[0.0, 0.0, 0.0]]]),
                                           frame=FRAME_CAMERA), plane)
        np.testing.assert_allclose(aligned.positions[:, 2], [0.0, 0.0, 1.2], atol=1e-12)


class TestPose:
    def test_level_camera(self):
        plane = plane_from_pose(camera_height=1.1, pitch=0.0, roll=0.0)
        np.testing.assert_allclose(plane.normal, [0, -1.0, 0], atol=1e-12)
        assert plane.offset == 1.1

    def test_pitch_down_90_looks_at_floor(self):
        plane = plane_from_pose(camera_height=1.0, pitch=np.pi / 2, roll=0.0)
        np.testing.assert_allclose(plane.normal, [0, 0, -1.0], atol=1e-12)

    def test_pose_alignment_consistency(self, rng):
        # synthesize a tilted camera view of a floor and align via the pose
        pitch = 0.3
        plane = plane_from_pose(camera_height=1.4, pitch=pitch, roll=0.0)
        # points on the ground plane: signed height 0
        base = rng.uniform(-2, 2, size=(300, 3))
        shift = (base @ plane.normal + plane.offset)[:, None] * plane.normal[None, :]
        on_plane = base - shift
        cloud = make_cloud(on_plane, frame=FRAME_CAMERA)
        aligned = gravity_align(cloud, plane)
        np.testing.assert_allclose(aligned.positions[:, 2], 0.0, atol=1e-9)

    def test_negative_height_rejected(self):
        with pytest.raises(InputError, match="camera height must be >= 0"):
            plane_from_pose(camera_height=-0.1, pitch=0.0, roll=0.0)
        assert plane_from_pose(camera_height=0.0, pitch=0.0, roll=0.0).offset == 0.0

    def test_pose_file(self, tmp_path):
        path = tmp_path / "pose.txt"
        path.write_text("height 1.2\npitch 0.1\nroll 0.0\n")
        plane = load_camera_pose(path)
        assert plane.offset == 1.2
        path.write_text("height 1.2\n")
        with pytest.raises(InputError):
            load_camera_pose(path)
