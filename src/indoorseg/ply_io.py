"""PLY reader/writer for the package's cloud dialect.

Vertices carry ``x y z`` (float32, meters), ``red green blue`` (uint8) and
an optional ``label`` (uint8). ASCII and binary_little_endian files are
read; the writer always emits binary_little_endian.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

import numpy as np

from .cloud import PointCloud
from .errors import PlyParseError

_FLOAT_NAMES = {"float", "float32"}
_UCHAR_NAMES = {"uchar", "uint8"}

_BASE_PROPS = ("x", "y", "z", "red", "green", "blue")


def _vertex_dtype(with_label: bool) -> np.dtype:
    fields = [("x", "<f4"), ("y", "<f4"), ("z", "<f4"),
              ("red", "u1"), ("green", "u1"), ("blue", "u1")]
    if with_label:
        fields.append(("label", "u1"))
    return np.dtype(fields)


def write_cloud(cloud: PointCloud, path: str | Path) -> None:
    """Write a cloud as binary_little_endian PLY (deterministic bytes).

    The coordinate frame rides along as a header comment so a reread cloud
    lands in the frame it was written from.
    """
    with_label = cloud.labels is not None
    header = ["ply", "format binary_little_endian 1.0",
              f"comment frame {cloud.frame}",
              f"element vertex {len(cloud)}",
              "property float x", "property float y", "property float z",
              "property uchar red", "property uchar green", "property uchar blue"]
    if with_label:
        header.append("property uchar label")
    header.append("end_header")

    data = np.empty(len(cloud), dtype=_vertex_dtype(with_label))
    pos32 = cloud.positions.astype("<f4")
    data["x"], data["y"], data["z"] = pos32[:, 0], pos32[:, 1], pos32[:, 2]
    data["red"], data["green"], data["blue"] = (
        cloud.colors[:, 0], cloud.colors[:, 1], cloud.colors[:, 2])
    if with_label:
        data["label"] = cloud.labels
    with open(path, "wb") as f:
        f.write(("\n".join(header) + "\n").encode("ascii"))
        f.write(data.tobytes())


def read_cloud(path: str | Path, frame: Optional[str] = None) -> PointCloud:
    """Read a PLY file of the package dialect.

    The frame comes from an explicit argument, else the file's frame
    comment, else defaults to "camera". Raises PlyParseError (with the
    byte offset) on malformed headers, a payload shorter than the header
    promises, or an ASCII colour or label outside 0..255.
    """
    path = Path(path)
    raw = path.read_bytes()
    vertex_count, with_label, is_binary, body_offset, file_frame = _parse_header(raw)
    if frame is None:
        frame = file_frame if file_frame is not None else "camera"

    if is_binary:
        dtype = _vertex_dtype(with_label)
        need = vertex_count * dtype.itemsize
        if len(raw) - body_offset < need:
            raise PlyParseError(
                f"payload truncated: header declares {vertex_count} vertices "
                f"({need} bytes), body has {len(raw) - body_offset}",
                offset=len(raw))
        data = np.frombuffer(raw, dtype=dtype, count=vertex_count, offset=body_offset)
    else:
        data = _parse_ascii_body(raw, body_offset, vertex_count, with_label)

    positions = np.column_stack(
        [data["x"], data["y"], data["z"]]).astype(np.float64)
    colors = np.column_stack([data["red"], data["green"], data["blue"]])
    labels = data["label"].copy() if with_label else None
    return PointCloud(positions=positions, colors=colors, labels=labels, frame=frame)


def _parse_header(raw: bytes) -> tuple[int, bool, bool, int, Optional[str]]:
    offset = 0
    lines = []
    while True:
        end = raw.find(b"\n", offset)
        if end < 0:
            raise PlyParseError("header has no end_header line", offset=len(raw))
        line = raw[offset:end].decode("ascii", errors="replace").strip()
        lines.append((line, offset))
        offset = end + 1
        if line == "end_header":
            break
        if offset > 65536:
            raise PlyParseError("header longer than 64 KiB", offset=offset)

    if not lines or lines[0][0] != "ply":
        raise PlyParseError("missing 'ply' magic", offset=0)

    fmt = None
    vertex_count = None
    file_frame = None
    props: list[tuple[str, str, int]] = []
    in_vertex_element = False
    for line, off in lines[1:-1]:
        words = line.split()
        if not words or words[0] == "comment":
            if len(words) == 3 and words[:2] == ["comment", "frame"]:
                file_frame = words[2]
            continue
        if words[0] == "format":
            if len(words) != 3 or words[1] not in ("ascii", "binary_little_endian"):
                raise PlyParseError(f"unsupported format line {line!r}", offset=off)
            fmt = words[1]
        elif words[0] == "element":
            if len(words) != 3 or words[1] != "vertex":
                raise PlyParseError(f"unsupported element {line!r}", offset=off)
            try:
                vertex_count = int(words[2])
            except ValueError:
                raise PlyParseError(f"bad vertex count {line!r}", offset=off) from None
            if vertex_count < 0:
                raise PlyParseError("negative vertex count", offset=off)
            in_vertex_element = True
        elif words[0] == "property":
            if not in_vertex_element:
                raise PlyParseError("property outside vertex element", offset=off)
            if len(words) != 3:
                raise PlyParseError(f"bad property line {line!r}", offset=off)
            props.append((words[2], words[1], off))
        else:
            raise PlyParseError(f"unexpected header line {line!r}", offset=off)

    if fmt is None:
        raise PlyParseError("missing format line", offset=0)
    if vertex_count is None:
        raise PlyParseError("missing vertex element", offset=0)

    names = [p[0] for p in props]
    if names not in (list(_BASE_PROPS), list(_BASE_PROPS) + ["label"]):
        raise PlyParseError(
            f"vertex properties {names} do not match dialect {_BASE_PROPS} [+ label]",
            offset=props[0][2] if props else 0)
    for name, type_name, off in props[:3]:
        if type_name not in _FLOAT_NAMES:
            raise PlyParseError(f"property {name} must be float, got {type_name}", offset=off)
    for name, type_name, off in props[3:]:
        if type_name not in _UCHAR_NAMES:
            raise PlyParseError(f"property {name} must be uchar, got {type_name}", offset=off)

    return vertex_count, len(props) == 7, fmt == "binary_little_endian", offset, file_frame


def _parse_ascii_body(raw: bytes, body_offset: int, vertex_count: int,
                      with_label: bool) -> np.ndarray:
    n_fields = 7 if with_label else 6
    # every field takes a digit and a separator: checked before allocating
    if vertex_count * 2 * n_fields - 1 > len(raw) - body_offset:
        raise PlyParseError(f"payload truncated: header declares {vertex_count} vertices, "
                            f"too many for {len(raw) - body_offset} bytes", offset=len(raw))
    data = np.empty(vertex_count, dtype=_vertex_dtype(with_label))
    offset = body_offset
    for i in range(vertex_count):
        end = raw.find(b"\n", offset)
        if end < 0:
            end = len(raw)
        line = raw[offset:end].split()
        if len(line) == 0 and offset >= len(raw):
            raise PlyParseError(
                f"payload truncated: header declares {vertex_count} vertices, "
                f"body has {i}", offset=offset)
        if len(line) != n_fields:
            raise PlyParseError(
                f"vertex {i}: expected {n_fields} fields, got {len(line)}", offset=offset)
        try:
            values = ([np.float32(line[j]) for j in range(3)]
                      + [int(line[j]) for j in range(3, n_fields)])
        except ValueError:
            raise PlyParseError(f"vertex {i}: bad numeric field", offset=offset) from None
        if not all(0 <= v <= 255 for v in values[3:]):
            raise PlyParseError(f"vertex {i}: colour or label outside 0..255", offset=offset)
        data[i] = tuple(values)
        offset = end + 1
    return data
