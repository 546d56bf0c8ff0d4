import numpy as np
import pytest

from indoorseg.cloud import FRAME_GRAVITY, PointCloud
from indoorseg.errors import PlyParseError
from indoorseg.ply_io import read_cloud, write_cloud
from indoorseg.synth import SceneSpec, generate_scene

from conftest import make_cloud


def random_cloud(rng, n, with_labels=True, frame="camera"):
    # float32-representable positions so binary round-trips are exact
    positions = rng.uniform(-5, 5, size=(n, 3)).astype(np.float32).astype(np.float64)
    colors = rng.integers(0, 256, size=(n, 3)).astype(np.uint8)
    labels = rng.integers(0, 8, size=n).astype(np.uint8) if with_labels else None
    return make_cloud(positions, colors, labels, frame=frame)


def test_round_trip_three_points(tmp_path, rng):
    cloud = random_cloud(rng, 3)
    path = tmp_path / "c.ply"
    write_cloud(cloud, path)
    back = read_cloud(path)
    np.testing.assert_array_equal(back.positions, cloud.positions)
    np.testing.assert_array_equal(back.colors, cloud.colors)
    np.testing.assert_array_equal(back.labels, cloud.labels)


def test_frame_comment_round_trips(tmp_path, rng):
    cloud = random_cloud(rng, 4, frame=FRAME_GRAVITY)
    path = tmp_path / "c.ply"
    write_cloud(cloud, path)
    assert read_cloud(path).frame == FRAME_GRAVITY
    assert read_cloud(path, frame="camera").frame == "camera"


def test_missing_label_property(tmp_path, rng):
    cloud = random_cloud(rng, 5, with_labels=False)
    path = tmp_path / "c.ply"
    write_cloud(cloud, path)
    back = read_cloud(path)
    assert back.labels is None


def test_truncated_body_is_parse_error(tmp_path, rng):
    cloud = random_cloud(rng, 10)
    path = tmp_path / "c.ply"
    write_cloud(cloud, path)
    raw = path.read_bytes()
    # drop one vertex record (16 bytes: 3 float32 + 3 + 1 uint8)
    path.write_bytes(raw[:-16])
    with pytest.raises(PlyParseError, match="truncated"):
        read_cloud(path)


def test_header_declares_more_than_body_ascii(tmp_path):
    path = tmp_path / "c.ply"
    path.write_text(
        "ply\nformat ascii 1.0\nelement vertex 10\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property uchar red\nproperty uchar green\nproperty uchar blue\n"
        "end_header\n" + "0 0 0 1 2 3\n" * 9)
    with pytest.raises(PlyParseError, match="truncated"):
        read_cloud(path)


def test_malformed_header_reports_offset(tmp_path):
    path = tmp_path / "c.ply"
    content = b"ply\nformat ascii 1.0\nelement face 3\nend_header\n"
    path.write_bytes(content)
    with pytest.raises(PlyParseError) as exc:
        read_cloud(path)
    assert exc.value.offset == content.index(b"element face")


ASCII_HEADER = ("ply\nformat ascii 1.0\nelement vertex {}\n"
                "property float x\nproperty float y\nproperty float z\n"
                "property uchar red\nproperty uchar green\nproperty uchar blue\n"
                "property uchar label\nend_header\n")


@pytest.mark.parametrize("row", ["0 0 0 300 2 3 1", "0 0 0 1 -1 3 1", "0 0 0 1 2 3 256"])
def test_ascii_field_outside_uchar_range(tmp_path, row):
    path = tmp_path / "c.ply"
    header = ASCII_HEADER.format(2)
    path.write_text(header + "1 1 1 4 5 6 0\n" + row + "\n")
    with pytest.raises(PlyParseError, match="vertex 1: colour or label outside 0..255") as exc:
        read_cloud(path)
    assert exc.value.offset == len(header) + len("1 1 1 4 5 6 0\n")


@pytest.mark.parametrize("row, message", [
    ("0 0 0 1 2 3", "vertex 1: expected 7 fields, got 6"),
    ("0 0 0 1 2 3 4 5", "vertex 1: expected 7 fields, got 8"),
    ("0 x 0 1 2 3 1", "vertex 1: bad numeric field"),
    ("0 0 0 1.5 2 3 1", "vertex 1: bad numeric field"),
    # a blank line, and a Latin-1 no-break space that `bytes.split` does
    # not split on
    ("", "vertex 1: expected 7 fields, got 0"),
    ("0\xa0 0 0 1 2 3 1", "vertex 1: bad numeric field"),
])
def test_ascii_bad_vertex_line_reports_index_and_offset(tmp_path, row, message):
    """The body is long enough for the size pre-check (2 * 7 * 3 - 1 bytes),
    so the error comes from the vertex line itself, at that line's start."""
    path = tmp_path / "c.ply"
    header, first = ASCII_HEADER.format(3), "10 10 10 40 50 60 0\n"
    path.write_bytes((header + first + row + "\n20 20 20 70 80 90 1\n").encode("latin-1"))
    with pytest.raises(PlyParseError, match=message) as exc:
        read_cloud(path)
    assert exc.value.offset == len(header) + len(first)


def test_ascii_count_the_body_cannot_hold(tmp_path):
    """Rejected before the vertex array is allocated (136 TiB here)."""
    path = tmp_path / "c.ply"
    path.write_text(ASCII_HEADER.format(10**13) + "0 0 0 1 2 3 1\n")
    with pytest.raises(PlyParseError, match="truncated: header declares 10000000000000"):
        read_cloud(path)


def test_ascii_shortest_lines_still_read(tmp_path):
    """The size bound admits one-digit fields and a last line with no newline."""
    path = tmp_path / "c.ply"
    path.write_text(ASCII_HEADER.format(2) + "0 0 0 1 2 3 1\n1 1 1 4 5 6 7")
    cloud = read_cloud(path)
    np.testing.assert_array_equal(cloud.colors, [[1, 2, 3], [4, 5, 6]])
    np.testing.assert_array_equal(cloud.labels, [1, 7])


HEADER_CASE_BASE = ("ply\nformat ascii 1.0\nelement vertex 1\n"
                    "property float x\nproperty float y\nproperty float z\n"
                    "property uchar red\nproperty uchar green\nproperty uchar blue\n"
                    "end_header\n1.250000 2.500000 3.750000 10 20 30\n")


def read_cloud_text(tmp_path, content):
    path = tmp_path / "c.ply"
    path.write_text(content)
    return read_cloud(path)


@pytest.mark.parametrize("old, new, message, at", [
    ("ply\n", "ply\ncomment " + "x" * 65536 + "\n", "header longer than 64 KiB",
     "format"),
    ("format ascii", "format binary_big_endian",
     "unsupported format line 'format binary_big_endian 1.0'", "format"),
    ("vertex 1", "vertex one", "bad vertex count 'element vertex one'", "element"),
    ("vertex 1", "vertex -1", "negative vertex count", "element"),
    ("float y", "float y z", "bad property line 'property float y z'", "property float y"),
    ("1.0\n", "1.0\nproperty float w\n", "property outside vertex element", "property float w"),
    ("format ascii 1.0\n", "", "missing format line", "ply"),
    ("element vertex 1\nproperty float x\nproperty float y\nproperty float z\n"
     "property uchar red\nproperty uchar green\nproperty uchar blue\n", "",
     "missing vertex element", "ply"),
    ("float z", "uchar z", "property z must be float, got uchar", "property uchar z"),
    ("uchar green", "float green", "property green must be uchar, got float",
     "property float green"),
    # 36 body bytes pass the size pre-check for 3 vertices (2 * 6 * 3 - 1)
    ("vertex 1", "vertex 3", "payload truncated: header declares 3 vertices, body has 1",
     None),
], ids=["header_over_64k", "format", "count_not_int", "count_negative", "property_line",
        "property_before_element",
        "no_format", "no_vertex_element", "position_type", "colour_type", "ascii_lines_short"])
def test_header_and_body_errors_report_offset(tmp_path, old, new, message, at):
    """Each error names its line's start as the offset (the file's start for
    a missing line, its end for a short body)."""
    assert read_cloud_text(tmp_path, HEADER_CASE_BASE).colors.tolist() == [[10, 20, 30]]
    content = HEADER_CASE_BASE.replace(old, new)
    with pytest.raises(PlyParseError, match=message) as exc:
        read_cloud_text(tmp_path, content)
    assert exc.value.offset == (len(content) if at is None else content.index(at))


def test_not_a_ply(tmp_path):
    path = tmp_path / "c.ply"
    path.write_bytes(b"hello\nworld\nend_header\n")
    with pytest.raises(PlyParseError):
        read_cloud(path)


def test_unknown_property_rejected(tmp_path):
    path = tmp_path / "c.ply"
    path.write_text(
        "ply\nformat ascii 1.0\nelement vertex 1\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property float nx\n"
        "property uchar red\nproperty uchar green\nproperty uchar blue\n"
        "end_header\n0 0 0 0 1 2 3\n")
    with pytest.raises(PlyParseError, match="dialect"):
        read_cloud(path)


def test_ascii_read_matches_binary(tmp_path):
    path = tmp_path / "c.ply"
    path.write_text(
        "ply\nformat ascii 1.0\ncomment frame gravity_aligned\nelement vertex 2\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property uchar red\nproperty uchar green\nproperty uchar blue\n"
        "property uchar label\n"
        "end_header\n1.5 -2.25 0.125 10 20 30 3\n0 0 1 255 0 0 7\n")
    cloud = read_cloud(path)
    assert cloud.frame == FRAME_GRAVITY
    np.testing.assert_array_equal(cloud.positions[0], [1.5, -2.25, 0.125])
    np.testing.assert_array_equal(cloud.labels, [3, 7])


def test_empty_cloud_round_trips(tmp_path):
    cloud = PointCloud(positions=np.zeros((0, 3)), colors=np.zeros((0, 3), np.uint8))
    path = tmp_path / "empty.ply"
    write_cloud(cloud, path)
    assert len(read_cloud(path)) == 0


def test_write_read_write_byte_identical_1000_clouds(tmp_path, rng):
    """write -> read -> write must reproduce the first file exactly."""
    a = tmp_path / "a.ply"
    b = tmp_path / "b.ply"
    for i in range(1000):
        cloud = random_cloud(rng, int(rng.integers(1, 6)),
                             with_labels=bool(rng.integers(0, 2)))
        write_cloud(cloud, a)
        write_cloud(read_cloud(a), b)
        assert a.read_bytes() == b.read_bytes(), f"cloud {i} differs"


def test_ascii_and_binary_files_of_one_cloud_read_the_same(tmp_path):
    """A synthetic room, written binary and as ASCII with each float32's
    shortest text: both read to identical arrays."""
    cloud = generate_scene(SceneSpec(seed=3, room_extent=(3.6, 3.0, 2.2),
                                     points_per_m2=400.0))
    binary = tmp_path / "b.ply"
    write_cloud(cloud, binary)
    raw = binary.read_bytes()
    end = raw.index(b"end_header\n") + len(b"end_header\n")
    data = np.frombuffer(raw, offset=end, dtype=[
        ("x", "<f4"), ("y", "<f4"), ("z", "<f4"),
        ("r", "u1"), ("g", "u1"), ("b", "u1"), ("label", "u1")])
    # numpy prints each float32 as its shortest round-tripping text
    lines = [" ".join(map(str, row)) for row in data]
    ascii_path = tmp_path / "a.ply"
    ascii_path.write_bytes(raw[:end].replace(b"binary_little_endian", b"ascii")
                           + ("\n".join(lines) + "\n").encode())
    a, b = read_cloud(ascii_path), read_cloud(binary)
    assert len(a) == len(cloud) > 10_000
    for name in ("positions", "colors", "labels"):
        got, want = getattr(a, name), getattr(b, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
