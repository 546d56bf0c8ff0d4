"""Per-patch descriptors: a fixed 14-entry vector per patch.

Index contract (version 1, frozen; model files depend on it):

    0  pointness: smallest scatter eigenvalue (m^2)
    1  surfaceness: middle minus smallest eigenvalue (m^2)
    2  linearness: largest minus middle eigenvalue (m^2)
    3  centroid height (m)
    4  lowest point height (m)
    5  highest point height (m)
    6  angle of the mean normal to the ground plane (rad, 0..pi/2)
    7  circular standard deviation of per-point normal angles (rad)
    8-10  mean CIELAB L, a, b
    11-13 standard deviation of CIELAB L, a, b

The scatter matrix is the population covariance of member positions, so
the three spectral entries always sum to its largest eigenvalue. Normal
angles are axial (a plane flipped upside down is the same plane), hence
the circular statistics run on doubled angles, and the mean resultant
length is clamped at e^-8, capping the dispersion at 4.0 rad.
"""

from __future__ import annotations

import logging

import numpy as np

from .cloud import FRAME_GRAVITY, PointCloud
from .colorspace import srgb_to_lab
from .errors import FeatureError, InputError
from .overseg import Patch, PatchGraph, canonicalize_hemisphere, eigvals_3x3

log = logging.getLogger(__name__)

FEATURE_DIM = 14
FEATURE_CONTRACT_VERSION = 1

FEATURE_NAMES = (
    "pointness", "surfaceness", "linearness",
    "centroid_height", "min_height", "max_height",
    "normal_angle", "normal_circ_std",
    "mean_l", "mean_a", "mean_b", "std_l", "std_a", "std_b",
)

_CIRC_STD_MAX = 4.0  # sqrt(-2 ln e^-8)
_R_CLAMP = np.exp(-8.0)


def spectral_features(patch: Patch, cloud: PointCloud) -> tuple[float, float, float]:
    """(pointness, surfaceness, linearness) from the patch scatter matrix."""
    pts = cloud.positions[patch.point_indices]
    return _spectral_from_points(pts)


def _spectral_from_points(pts: np.ndarray) -> tuple[float, float, float]:
    if pts.shape[0] < 3:
        raise FeatureError(f"spectral features need >= 3 points, got {pts.shape[0]}")
    centered = pts - pts.mean(axis=0)
    cov = centered.T @ centered / pts.shape[0]
    l0, l1, l2 = np.linalg.eigvalsh(cov)
    return max(float(l0), 0.0), max(float(l1 - l0), 0.0), max(float(l2 - l1), 0.0)


def height_features(patch: Patch, cloud: PointCloud) -> tuple[float, float, float]:
    """(centroid height, lowest height, highest height); gravity frame only."""
    if cloud.frame != FRAME_GRAVITY:
        raise InputError("height features require a gravity-aligned cloud")
    z = cloud.positions[patch.point_indices, 2]
    lo, hi = float(z.min()), float(z.max())
    return min(max(float(z.mean()), lo), hi), lo, hi


def normal_features(patch: Patch, cloud: PointCloud) -> tuple[float, float]:
    """(mean-normal angle to the ground plane, circular std of point angles)."""
    if cloud.normals is None:
        raise InputError("normal features require per-point normals")
    normals = cloud.normals[patch.point_indices]
    canon = canonicalize_hemisphere(normals)
    mean_vec = canon.sum(axis=0)
    norm = np.linalg.norm(mean_vec)
    if norm < 1e-12:
        return 0.0, _CIRC_STD_MAX
    mean_angle = float(np.arcsin(np.clip(abs(mean_vec[2]) / norm, 0.0, 1.0)))

    theta = np.arcsin(np.clip(np.abs(normals[:, 2]), 0.0, 1.0))
    resultant = np.array([np.cos(2.0 * theta).mean(), np.sin(2.0 * theta).mean()])
    r = max(float(np.linalg.norm(resultant)), _R_CLAMP)
    r = min(r, 1.0)
    circ_std = float(np.sqrt(-2.0 * np.log(r)))
    return mean_angle, circ_std


def color_features(patch: Patch, cloud: PointCloud) -> tuple[np.ndarray, np.ndarray]:
    """Mean and population std of the member colors in CIELAB."""
    lab = srgb_to_lab(cloud.colors[patch.point_indices])
    return lab.mean(axis=0), lab.std(axis=0)


def extract_features(graph: PatchGraph, cloud: PointCloud) -> list[tuple[int, np.ndarray]]:
    """One 14-entry vector per patch, in patch-id order.

    Patches that cannot produce features (fewer than 3 points) are skipped
    with a logged warning count rather than failing the whole frame. All
    patches are reduced together with grouped array operations, so the cost
    is a handful of passes over the cloud rather than per-patch slicing.
    """
    n_patches = len(graph.patches)
    if n_patches == 0:
        return []
    if cloud.frame != FRAME_GRAVITY:
        raise InputError("feature extraction requires a gravity-aligned cloud")
    if cloud.normals is None:
        raise InputError("feature extraction requires per-point normals")

    member = graph.point_to_patch >= 0
    pid = graph.point_to_patch[member]
    pos = cloud.positions[member]
    normals = cloud.normals[member]
    lab = srgb_to_lab(cloud.colors[member])

    sizes = np.bincount(pid, minlength=n_patches).astype(np.float64)
    valid = sizes >= 3
    sizes_safe = np.maximum(sizes, 1.0)

    def group_mean(values: np.ndarray) -> np.ndarray:
        return np.stack([
            np.bincount(pid, weights=values[:, c], minlength=n_patches)
            for c in range(values.shape[1])
        ], axis=1) / sizes_safe[:, None]

    # spectral: centered second moments -> batched 3x3 eigenvalues
    mean_pos = group_mean(pos)
    d = pos - mean_pos[pid]
    l0, l1, l2 = eigvals_3x3(*(
        np.bincount(pid, weights=d[:, i] * d[:, j], minlength=n_patches) / sizes_safe
        for i, j in ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))))
    spectral = np.stack([np.maximum(l0, 0.0),
                         np.maximum(l1 - l0, 0.0),
                         np.maximum(l2 - l1, 0.0)], axis=1)

    # heights: reduceat over the patch-sorted order
    order = np.argsort(pid, kind="stable")
    starts = np.searchsorted(pid[order], np.arange(n_patches))
    z_sorted = pos[order, 2]
    min_h = np.minimum.reduceat(z_sorted, starts)
    max_h = np.maximum.reduceat(z_sorted, starts)
    mid_h = np.clip(mean_pos[:, 2], min_h, max_h)

    # normal angles (axial statistics on the angle to the ground plane)
    canon = canonicalize_hemisphere(normals)
    normal_sum = np.stack([
        np.bincount(pid, weights=canon[:, c], minlength=n_patches) for c in range(3)
    ], axis=1)
    sum_norm = np.linalg.norm(normal_sum, axis=1)
    zero_sum = sum_norm < 1e-12
    angle = np.arcsin(np.clip(np.abs(normal_sum[:, 2]) / np.maximum(sum_norm, 1e-300),
                              0.0, 1.0))
    theta = np.arcsin(np.clip(np.abs(normals[:, 2]), 0.0, 1.0))
    r_cos = np.bincount(pid, weights=np.cos(2.0 * theta), minlength=n_patches) / sizes_safe
    r_sin = np.bincount(pid, weights=np.sin(2.0 * theta), minlength=n_patches) / sizes_safe
    r = np.clip(np.hypot(r_cos, r_sin), _R_CLAMP, 1.0)
    circ = np.sqrt(-2.0 * np.log(r))
    angle[zero_sum] = 0.0
    circ[zero_sum] = _CIRC_STD_MAX

    # color moments
    mean_lab = group_mean(lab)
    dl = lab - mean_lab[pid]
    var_lab = np.stack([
        np.bincount(pid, weights=dl[:, c] ** 2, minlength=n_patches) for c in range(3)
    ], axis=1) / sizes_safe[:, None]
    std_lab = np.sqrt(np.maximum(var_lab, 0.0))

    matrix = np.concatenate([
        spectral,
        np.stack([mid_h, min_h, max_h], axis=1),
        np.stack([angle, circ], axis=1),
        mean_lab,
        std_lab,
    ], axis=1)

    skipped = int((~valid).sum())
    if skipped:
        log.warning("skipped %d patches too small for features", skipped)
    return [(p, matrix[p]) for p in np.nonzero(valid)[0]]


def feature_matrix(graph: PatchGraph, cloud: PointCloud) -> tuple[np.ndarray, np.ndarray]:
    """(patch ids, (P, 14) matrix) convenience form of extract_features."""
    pairs = extract_features(graph, cloud)
    if not pairs:
        return np.zeros(0, dtype=np.int64), np.zeros((0, FEATURE_DIM))
    ids = np.array([p for p, _ in pairs], dtype=np.int64)
    return ids, np.stack([v for _, v in pairs])
