import numpy as np
import pytest

from indoorseg.cloud import (
    FRAME_CAMERA,
    Intrinsics,
    PointCloud,
    ingest_depth_frame,
    read_key_values,
)
from indoorseg.errors import EmptyCloudError, InputError

from conftest import make_cloud

INTR = Intrinsics(fx=525.0, fy=525.0, cx=319.5, cy=239.5, depth_scale=0.001)


def project_to_pixels(cloud: PointCloud, intrinsics: Intrinsics) -> np.ndarray:
    """Inverse of ingestion: (u, v) pixel coordinates of camera-frame points."""
    if cloud.frame != FRAME_CAMERA:
        raise InputError("projection requires a camera-frame cloud")
    z = cloud.positions[:, 2]
    u = cloud.positions[:, 0] * intrinsics.fx / z + intrinsics.cx
    v = cloud.positions[:, 1] * intrinsics.fy / z + intrinsics.cy
    return np.column_stack([u, v])


def _frame(depth_mm, h=480, w=640):
    depth = np.zeros((h, w), dtype=np.uint16)
    for (v, u), z in depth_mm.items():
        depth[v, u] = z
    rgb = np.zeros((h, w, 3), dtype=np.uint8)
    return depth, rgb


class TestIngest:
    def test_principal_point_projects_to_optical_axis(self):
        # integer pixel closest to the principal point, exactly on-axis intrinsics
        intr = Intrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0)
        depth, rgb = _frame({(240, 320): 1000})
        cloud = ingest_depth_frame(depth, rgb, None, intr)
        assert len(cloud) == 1
        np.testing.assert_allclose(cloud.positions[0], [0.0, 0.0, 1.0], atol=1e-12)

    def test_unit_focal_offset(self):
        intr = Intrinsics(fx=100.0, fy=100.0, cx=320.0, cy=240.0)
        depth, rgb = _frame({(240, 420): 1000})  # u = cx + fx
        cloud = ingest_depth_frame(depth, rgb, None, intr)
        np.testing.assert_allclose(cloud.positions[0], [1.0, 0.0, 1.0], atol=1e-12)

    def test_invalid_depth_dropped(self):
        depth, rgb = _frame({(10, 10): 1000, (20, 20): 0})
        cloud = ingest_depth_frame(depth, rgb, None, INTR)
        assert len(cloud) == 1

    def test_dimension_mismatch(self):
        depth = np.ones((10, 10), dtype=np.uint16)
        rgb = np.zeros((10, 11, 3), dtype=np.uint8)
        with pytest.raises(InputError):
            ingest_depth_frame(depth, rgb, None, INTR)
        with pytest.raises(InputError, match=r"depth image must be 2-D, got shape \(10, 10, 1\)"):
            ingest_depth_frame(depth[:, :, None], rgb[:, :10], None, INTR)
        labels = np.zeros((11, 10), dtype=np.uint8)
        rgb_ok = np.zeros((10, 10, 3), dtype=np.uint8)
        with pytest.raises(InputError):
            ingest_depth_frame(depth, rgb_ok, labels, INTR)

    def test_all_invalid_is_empty_cloud_error(self):
        depth = np.zeros((5, 5), dtype=np.uint16)
        rgb = np.zeros((5, 5, 3), dtype=np.uint8)
        with pytest.raises(EmptyCloudError):
            ingest_depth_frame(depth, rgb, None, INTR)

    def test_labels_copied_and_total(self, rng):
        depth = rng.integers(500, 4000, size=(48, 64)).astype(np.uint16)
        depth[rng.random((48, 64)) < 0.2] = 0
        rgb = rng.integers(0, 256, size=(48, 64, 3)).astype(np.uint8)
        labels = rng.integers(0, 8, size=(48, 64)).astype(np.uint8)
        cloud = ingest_depth_frame(depth, rgb, labels, INTR)
        assert cloud.labels is not None
        assert cloud.labels.max() <= 7
        assert len(cloud) == int((depth > 0).sum())
        assert cloud.frame == FRAME_CAMERA

    def test_colors_out_of_range_rejected(self):
        depth, rgb = _frame({(2, 3): 1000, (4, 5): 1200})
        for bad in (300, -1, 2.7):
            image = rgb.astype(type(bad))
            image[4, 5, 1] = bad
            with pytest.raises(InputError, match="integers in 0..255"):
                ingest_depth_frame(depth, image, None, INTR)
        # a normalised [0, 1] image would otherwise cast to an all-black cloud
        with pytest.raises(InputError, match="integers in 0..255"):
            ingest_depth_frame(depth, np.full(rgb.shape, 0.5), None, INTR)
        rgb[2, 3] = [0, 128, 255]
        cloud = ingest_depth_frame(depth, rgb, None, INTR)
        np.testing.assert_array_equal(cloud.colors, [[0, 128, 255], [0, 0, 0]])
        assert cloud.colors.dtype == np.uint8

    def test_labels_out_of_range_rejected(self):
        depth, rgb = _frame({(2, 3): 1000, (4, 5): 1200}, h=8, w=8)
        labels = np.zeros((8, 8), dtype=np.int64)
        labels[4, 5] = 256  # a uint8 cast would wrap it to floor (0)
        with pytest.raises(InputError, match="label ids"):
            ingest_depth_frame(depth, rgb, labels, INTR)
        labels[4, 5] = 3
        cloud = ingest_depth_frame(depth, rgb, labels, INTR)
        np.testing.assert_array_equal(cloud.labels, [0, 3])
        assert cloud.labels.dtype == np.uint8

    def test_backprojection_invertible(self, rng):
        depth = rng.integers(400, 5000, size=(60, 80)).astype(np.uint16)
        rgb = np.zeros((60, 80, 3), dtype=np.uint8)
        cloud = ingest_depth_frame(depth, rgb, None, INTR)
        uv = project_to_pixels(cloud, INTR)
        v_idx, u_idx = np.nonzero(depth > 0)
        np.testing.assert_allclose(uv[:, 0], u_idx, atol=1e-6)
        np.testing.assert_allclose(uv[:, 1], v_idx, atol=1e-6)


class TestPointCloudType:
    def test_rejects_nonfinite_positions(self):
        with pytest.raises(InputError):
            make_cloud([[0.0, 0.0, np.nan]])

    def test_rejects_denormalized_normals(self):
        with pytest.raises(InputError):
            make_cloud([[0.0, 0.0, 0.0]], normals=[[0.0, 0.0, 0.5]])

    def test_rejects_label_out_of_range(self):
        with pytest.raises(InputError):
            make_cloud([[0.0, 0.0, 0.0]], labels=[8])

    @pytest.mark.parametrize("bad", [np.array([256, 257]), [256, 0], [-1, 0], [2.7, 1],
                                     np.array([8, 0], dtype=np.uint8)])
    def test_rejects_labels_before_the_uint8_cast(self, bad):
        with pytest.raises(InputError, match="label ids must be integers in 0..7"):
            PointCloud(positions=np.zeros((2, 3)), colors=np.zeros((2, 3)), labels=bad)

    def test_accepts_integral_labels_of_any_type(self):
        for labels in ([7, 0], np.array([7.0, 0.0]), np.array([7, 0], dtype=np.int16)):
            cloud = PointCloud(positions=np.zeros((2, 3)), colors=np.zeros((2, 3)),
                               labels=labels)
            np.testing.assert_array_equal(cloud.labels, [7, 0])
            assert cloud.labels.dtype == np.uint8

    def test_rejects_color_out_of_range(self):
        for bad in ([[300, 0, 0]], [[0, -1, 255]], [[0.0, np.nan, 0.0]],
                    [[2.7, 0.5, 0.99]], [[0.2, 1.0, 0.0]]):
            with pytest.raises(InputError, match="integers in 0..255"):
                PointCloud(positions=[[0.0, 0.0, 0.0]], colors=bad)
        for given in ([[0, 128, 255]], [[0.0, 128.0, 255.0]]):
            cloud = PointCloud(positions=[[0.0, 0.0, 0.0]], colors=given)
            np.testing.assert_array_equal(cloud.colors, [[0, 128, 255]])
            assert cloud.colors.dtype == np.uint8

    @pytest.mark.parametrize("field, value, message", [
        ("positions", np.zeros((2, 2)), r"positions must have shape \(N, 3\), got \(2, 2\)"),
        ("colors", np.zeros((2, 4), dtype=np.uint8),
         r"colors must have shape \(2, 3\), got \(2, 4\)"),
        ("labels", [[0, 1]], r"labels must have shape \(2,\), got \(1, 2\)"),
        ("normals", np.eye(3), r"normals must have shape \(2, 3\), got \(3, 3\)"),
        ("normal_flags", [True, False, True], r"normal_flags must have shape \(2,\)"),
        ("frame", "world", "frame must be one of .*, got 'world'"),
    ], ids=["positions", "colors", "labels", "normals", "normal_flags", "frame"])
    def test_rejects_wrong_shape_or_frame(self, field, value, message):
        fields = {"positions": np.zeros((2, 3)), "colors": np.zeros((2, 3), dtype=np.uint8)}
        PointCloud(**fields)
        with pytest.raises(InputError, match=message):
            PointCloud(**{**fields, field: value})

    def test_arrays_frozen(self):
        cloud = make_cloud([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        with pytest.raises(ValueError):
            cloud.positions[0, 0] = 5.0



class TestIntrinsics:
    def test_validation(self):
        with pytest.raises(InputError):
            Intrinsics(fx=0.0, fy=1.0, cx=0.0, cy=0.0)
        with pytest.raises(InputError):
            Intrinsics(fx=1.0, fy=1.0, cx=0.0, cy=0.0, depth_scale=0.0)

    def test_load(self, tmp_path):
        path = tmp_path / "intr.txt"
        path.write_text("fx 525.0\nfy=525.0\ncx 319.5\ncy 239.5\ndepth_scale 0.001\n")
        intr = Intrinsics.load(path)
        assert intr.fx == 525.0
        assert intr.depth_scale == 0.001

    def test_load_missing_key(self, tmp_path):
        path = tmp_path / "intr.txt"
        path.write_text("fx 525.0\n")
        with pytest.raises(InputError):
            Intrinsics.load(path)

    def test_load_ignores_other_keys(self, tmp_path):
        path = tmp_path / "intr.txt"
        path.write_text("# kinect\nfx 525.0\nfy 520.0  # measured\ncx 319.5\ncy 239.5\nk1 0.2\n")
        assert Intrinsics.load(path) == Intrinsics(fx=525.0, fy=520.0, cx=319.5, cy=239.5)


class TestReadKeyValues:
    @pytest.mark.parametrize("line", ["fy abc", "fy", "fy 1 2", "fy nan", "fy=inf"])
    def test_bad_line_names_file_and_line(self, tmp_path, line):
        path = tmp_path / "kv.txt"
        path.write_text(f"fx 1.0\n{line}\n")
        with pytest.raises(InputError, match=f"kv.txt:2: expected 'key number', got '{line}'"):
            read_key_values(path, ())

    def test_missing_keys_named(self, tmp_path):
        path = tmp_path / "kv.txt"
        path.write_text("a=1\n\n  # only a comment\nb 2e-3\n")
        assert read_key_values(path, ("a", "b")) == {"a": 1.0, "b": 0.002}
        with pytest.raises(InputError, match=r"missing keys \['c', 'd'\]"):
            read_key_values(path, ("d", "a", "c"))
