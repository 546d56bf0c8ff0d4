"""Ground-plane recovery and gravity alignment.

The plane is {p : normal . p + offset = 0} with the normal oriented so the
camera origin sits at positive height; ``signed_height`` is then the height
of a point above the floor. Alignment maps the plane to z = 0 with +z up
and a canonical yaw (the camera x-axis projects onto the new x-axis).

Pose convention (robot mode): pitch rotates the camera about its x-axis
(positive = looking down), roll about its optical axis; the file stores
``height`` in meters and ``pitch``/``roll`` in radians.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cloud import FRAME_CAMERA, FRAME_GRAVITY, PointCloud, read_key_values
from .errors import FrameDiscardError, InputError
from .labels import Label

DEFAULT_MIN_FLOOR_POINTS = 500
DEFAULT_RANSAC_ITERS = 200
DEFAULT_RANSAC_THRESHOLD = 0.02


@dataclass(frozen=True)
class GroundPlane:
    normal: np.ndarray
    offset: float
    camera_height: float
    inlier_count: int

    def signed_height(self, points: np.ndarray) -> np.ndarray:
        return points @ self.normal + self.offset


def estimate_ground_plane(
    cloud: PointCloud,
    min_floor_points: int = DEFAULT_MIN_FLOOR_POINTS,
    iterations: int = DEFAULT_RANSAC_ITERS,
    threshold: float = DEFAULT_RANSAC_THRESHOLD,
    seed: int = 0,
) -> GroundPlane:
    """RANSAC plane fit over floor-labeled points, refined on the inliers.

    Raises FrameDiscardError when fewer than ``min_floor_points`` points
    carry the floor label.
    """
    if cloud.labels is None:
        raise InputError("ground-plane estimation needs ground-truth labels")
    floor = cloud.positions[cloud.labels == int(Label.FLOOR)]
    if floor.shape[0] < min_floor_points:
        raise FrameDiscardError(
            f"only {floor.shape[0]} floor points, need {min_floor_points}")

    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x67726E64]))
    m = floor.shape[0]
    triples = rng.integers(0, m, size=(iterations, 3))
    p1 = floor[triples[:, 0]]
    normals = np.cross(floor[triples[:, 1]] - p1, floor[triples[:, 2]] - p1)
    norms = np.linalg.norm(normals, axis=1)
    usable = norms > 1e-12
    if not usable.any():
        raise FrameDiscardError("floor points are degenerate; no plane found")
    normals = normals[usable] / norms[usable, None]
    offsets = -np.einsum("ij,ij->i", normals, p1[usable])

    # score all hypotheses at once, chunked over points to bound memory.
    # Every chunk's distances are built in place in one reused buffer, so the
    # scoring holds one (chunk, hypotheses) float block instead of three; the
    # float ops are those of `np.abs(block @ normals.T + offsets)`
    counts = np.zeros(normals.shape[0], dtype=np.int64)
    chunk = max(1, int(4e6) // normals.shape[0])
    buffer = np.empty((min(chunk, m), normals.shape[0]))
    for start in range(0, m, chunk):
        block = floor[start:start + chunk]
        dist = np.matmul(block, normals.T, out=buffer[:block.shape[0]])
        dist += offsets
        np.abs(dist, out=dist)
        counts += (dist <= threshold).sum(axis=0)
    best = int(np.argmax(counts))
    best_normal, best_offset = normals[best], float(offsets[best])

    inliers = floor[np.abs(floor @ best_normal + best_offset) <= threshold]
    center = inliers.mean(axis=0)
    centered = inliers - center
    cov = centered.T @ centered / inliers.shape[0]
    eigvals, eigvecs = np.linalg.eigh(cov)
    normal = eigvecs[:, 0]
    offset = -float(normal @ center)

    # orient so the camera origin has positive height; an origin within the
    # fit threshold of the plane (a gravity-frame cloud's floor passes through
    # it) gives no reliable sign, so the frame's up vector decides instead
    if abs(offset) <= threshold:
        up = np.array([0.0, -1.0, 0.0]) if cloud.frame == FRAME_CAMERA \
            else np.array([0.0, 0.0, 1.0])
        if normal @ up < 0:
            normal, offset = -normal, -offset
    elif offset < 0:
        normal, offset = -normal, -offset

    inlier_count = int((np.abs(floor @ normal + offset) <= threshold).sum())
    return GroundPlane(normal=normal, offset=float(offset),
                       camera_height=max(float(offset), 0.0),
                       inlier_count=inlier_count)


def alignment_transform(plane: GroundPlane) -> tuple[np.ndarray, np.ndarray]:
    """Rotation R and translation t with (R p + t).z = signed height."""
    e_z = plane.normal / np.linalg.norm(plane.normal)
    x_axis = np.array([1.0, 0.0, 0.0])
    e_x = x_axis - (x_axis @ e_z) * e_z
    if np.linalg.norm(e_x) < 1e-9:
        y_axis = np.array([0.0, 1.0, 0.0])
        e_x = y_axis - (y_axis @ e_z) * e_z
    e_x = e_x / np.linalg.norm(e_x)
    e_y = np.cross(e_z, e_x)
    rotation = np.stack([e_x, e_y, e_z])
    translation = np.array([0.0, 0.0, plane.offset])
    return rotation, translation


def gravity_align(cloud: PointCloud, plane: GroundPlane) -> PointCloud:
    """Rigidly move the cloud so that the plane becomes z = 0, +z up."""
    rotation, translation = alignment_transform(plane)
    positions = cloud.positions @ rotation.T + translation
    normals = cloud.normals @ rotation.T if cloud.normals is not None else None
    return cloud.with_(positions=positions, normals=normals, frame=FRAME_GRAVITY)


def plane_from_pose(camera_height: float, pitch: float, roll: float) -> GroundPlane:
    """Ground plane implied by a known camera pose (robot mode)."""
    if camera_height < 0:
        raise InputError("camera height must be >= 0")
    cos_t, sin_t = np.cos(pitch), np.sin(pitch)
    cos_f, sin_f = np.cos(roll), np.sin(roll)
    normal = np.array([sin_f * cos_t, -cos_f * cos_t, -sin_t])
    normal /= np.linalg.norm(normal)
    return GroundPlane(normal=normal, offset=float(camera_height),
                       camera_height=float(camera_height), inlier_count=0)


def load_camera_pose(path: str | Path) -> GroundPlane:
    """Read a pose file with keys height, pitch, roll."""
    values = read_key_values(path, ("height", "pitch", "roll"))
    return plane_from_pose(values["height"], values["pitch"], values["roll"])
