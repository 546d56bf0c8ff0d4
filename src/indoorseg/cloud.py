"""Point-cloud container and depth-frame ingestion.

A cloud stores points column-wise in numpy arrays (positions, colors,
optional labels and normals). Arrays are frozen after construction so a
cloud can be shared across threads without copying.

Camera frame convention: x right, y down, z forward (depth). The
gravity-aligned frame has the ground plane at z = 0 and +z pointing up.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import EmptyCloudError, InputError, read_text
from .labels import NUM_LABELS

FRAME_CAMERA = "camera"
FRAME_GRAVITY = "gravity_aligned"
_VALID_FRAMES = (FRAME_CAMERA, FRAME_GRAVITY)
_UP_CAMERA = np.array([0.0, -1.0, 0.0])
_UP_GRAVITY = np.array([0.0, 0.0, 1.0])

DEFAULT_DEPTH_SCALE = 0.001  # Kinect raw units are millimeters


def up_vector(frame: str) -> np.ndarray:
    """The unit vector pointing away from the floor in the given frame."""
    return _UP_CAMERA if frame == FRAME_CAMERA else _UP_GRAVITY


@dataclass(frozen=True)
class Intrinsics:
    """Pinhole camera intrinsics plus the raw-depth-to-meters scale."""

    fx: float
    fy: float
    cx: float
    cy: float
    depth_scale: float = DEFAULT_DEPTH_SCALE

    def __post_init__(self):
        if not (self.fx > 0 and self.fy > 0):
            raise InputError(f"focal lengths must be positive, got fx={self.fx}, fy={self.fy}")
        if not self.depth_scale > 0:
            raise InputError(f"depth_scale must be positive, got {self.depth_scale}")

    @classmethod
    def load(cls, path: str | Path) -> "Intrinsics":
        values = read_key_values(path, ("fx", "fy", "cx", "cy"))
        return cls(**{f.name: values[f.name] for f in fields(cls) if f.name in values})


def read_key_values(path: str | Path, required: Sequence[str]) -> dict[str, float]:
    """The `key value` (or `key=value`) lines of a text file, with `#`
    comments, as finite numbers; every key in ``required`` must be there."""
    values = {}
    for lineno, raw_line in enumerate(read_text(path).splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            key, text = line.replace("=", " ").split()
            values[key] = float(text)
            if not np.isfinite(values[key]):
                raise ValueError
        except ValueError:
            raise InputError(
                f"{path}:{lineno}: expected 'key number', got {raw_line!r}") from None
    missing = set(required) - values.keys()
    if missing:
        raise InputError(f"{path}: missing keys {sorted(missing)}")
    return values


def _freeze(arr: Optional[np.ndarray]) -> Optional[np.ndarray]:
    if arr is not None:
        arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class PointCloud:
    """Column-wise point cloud; immutable after construction.

    positions: (N, 3) float64 meters. colors: (N, 3) uint8. labels: optional
    (N,) uint8 ids in 0..7. normals: optional (N, 3) float64 unit vectors.
    normal_flags: optional (N,) bool, True where normal estimation degenerated.
    """

    positions: np.ndarray
    colors: np.ndarray
    labels: Optional[np.ndarray] = None
    normals: Optional[np.ndarray] = None
    normal_flags: Optional[np.ndarray] = None
    frame: str = FRAME_CAMERA

    def __post_init__(self):
        positions = np.ascontiguousarray(self.positions, dtype=np.float64)
        if positions.ndim != 2 or positions.shape[1] != 3:
            raise InputError(f"positions must have shape (N, 3), got {positions.shape}")
        if not np.isfinite(positions).all():
            raise InputError("positions contain non-finite values")
        n = positions.shape[0]
        colors = self.colors
        if getattr(colors, "dtype", None) != np.uint8:
            colors = np.asarray(colors)
            if colors.size and not ((colors >= 0) & (colors <= 255)).all():
                raise InputError("color values must lie in 0..255")
        colors = np.ascontiguousarray(colors, dtype=np.uint8)
        if colors.shape != (n, 3):
            raise InputError(f"colors must have shape ({n}, 3), got {colors.shape}")
        object.__setattr__(self, "positions", _freeze(positions))
        object.__setattr__(self, "colors", _freeze(colors))
        if self.labels is not None:
            # checked before the cast, which would wrap 256 to 0 and cut 2.7 to 2
            labels = np.asarray(self.labels)
            valid = labels.max(initial=0) < NUM_LABELS if labels.dtype == np.uint8 \
                else np.isin(labels, np.arange(NUM_LABELS)).all()
            if not valid:
                raise InputError(f"label ids must be integers in 0..{NUM_LABELS - 1}")
            labels = np.ascontiguousarray(labels, dtype=np.uint8)
            if labels.shape != (n,):
                raise InputError(f"labels must have shape ({n},), got {labels.shape}")
            object.__setattr__(self, "labels", _freeze(labels))
        if self.normals is not None:
            normals = np.ascontiguousarray(self.normals, dtype=np.float64)
            if normals.shape != (n, 3):
                raise InputError(f"normals must have shape ({n}, 3), got {normals.shape}")
            if normals.size:
                # row-wise, with no (N, 3) temporary of squares
                norms = np.sqrt(np.einsum("ij,ij->i", normals, normals))
                if np.abs(norms - 1.0).max() > 1e-6:
                    raise InputError("normals must be unit length within 1e-6")
            object.__setattr__(self, "normals", _freeze(normals))
        if self.normal_flags is not None:
            flags = np.ascontiguousarray(self.normal_flags, dtype=bool)
            if flags.shape != (n,):
                raise InputError(f"normal_flags must have shape ({n},)")
            object.__setattr__(self, "normal_flags", _freeze(flags))
        if self.frame not in _VALID_FRAMES:
            raise InputError(f"frame must be one of {_VALID_FRAMES}, got {self.frame!r}")

    def __len__(self) -> int:
        return self.positions.shape[0]

    def with_(self, **kwargs) -> "PointCloud":
        """Return a copy with the given fields replaced (re-validated)."""
        return replace(self, **kwargs)


def ingest_depth_frame(
    depth_image: np.ndarray,
    rgb_image: np.ndarray,
    label_image: Optional[np.ndarray],
    intrinsics: Intrinsics,
) -> PointCloud:
    """Back-project a raw depth frame into a camera-frame cloud.

    Pixel (u, v) with metric depth z maps to ((u-cx)*z/fx, (v-cy)*z/fy, z).
    Raw depth 0 marks invalid pixels; those are dropped. Label values, when
    given, must already be reduced to the 8-label set.
    """
    depth_image = np.asarray(depth_image)
    rgb_image = np.asarray(rgb_image)
    if depth_image.ndim != 2:
        raise InputError(f"depth image must be 2-D, got shape {depth_image.shape}")
    h, w = depth_image.shape
    if rgb_image.shape != (h, w, 3):
        raise InputError(
            f"rgb image shape {rgb_image.shape} does not match depth shape {(h, w)}"
        )
    if label_image is not None:
        label_image = np.asarray(label_image)
        if label_image.shape != (h, w):
            raise InputError(
                f"label image shape {label_image.shape} does not match depth shape {(h, w)}"
            )

    valid = (depth_image > 0) & np.isfinite(depth_image)
    if not valid.any():
        raise EmptyCloudError("every pixel has invalid depth")

    v_idx, u_idx = np.nonzero(valid)
    z = depth_image[v_idx, u_idx].astype(np.float64) * intrinsics.depth_scale
    x = (u_idx - intrinsics.cx) * z / intrinsics.fx
    y = (v_idx - intrinsics.cy) * z / intrinsics.fy
    positions = np.column_stack([x, y, z])
    # uncast, so PointCloud rejects out-of-range values instead of wrapping them
    colors = rgb_image[v_idx, u_idx]
    labels = label_image[v_idx, u_idx] if label_image is not None else None
    return PointCloud(
        positions=positions,
        colors=colors,
        labels=labels,
        frame=FRAME_CAMERA,
    )
