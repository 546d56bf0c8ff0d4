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

Patches and feature rows share one index space: row p describes patch p.
Every patch has at least 3 points (`PipelineConfig.min_patch_points`
enforces it), so every patch has a scatter matrix and a row.
"""

from __future__ import annotations

import numpy as np

from .cloud import FRAME_GRAVITY, PointCloud
from .colorspace import srgb_to_lab
from .errors import FeatureError, InputError
from .overseg import PatchGraph, eigvals_3x3, group_sums, hemisphere_sign

FEATURE_DIM = 14
FEATURE_CONTRACT_VERSION = 1

_CIRC_STD_MAX = 4.0  # sqrt(-2 ln e^-8)
_R_CLAMP = np.exp(-8.0)


def feature_matrix(graph: PatchGraph, cloud: PointCloud) -> tuple[np.ndarray, np.ndarray]:
    """(patch ids, (P, 14) matrix): row p is the 14-entry vector of patch p.

    The ids are always ``arange(P)``. They stay in the return value because
    the benchmark's tracer (``perfbench/tracing.py``) counts the rows from
    its first entry. A patch with fewer than 3 points raises FeatureError.
    All patches are reduced together with grouped array operations, so the
    cost is a handful of passes over the cloud rather than per-patch slicing.
    """
    n_patches = len(graph)
    if n_patches == 0:
        return np.zeros(0, dtype=np.int64), np.zeros((0, FEATURE_DIM))
    if cloud.frame != FRAME_GRAVITY:
        raise InputError("feature extraction requires a gravity-aligned cloud")
    if cloud.normals is None:
        raise InputError("feature extraction requires per-point normals")

    member = graph.point_to_patch >= 0
    pid = graph.point_to_patch[member]
    sizes = np.bincount(pid, minlength=n_patches).astype(np.float64)
    if sizes.min() < 3:
        raise FeatureError(f"patch {int(np.argmin(sizes))} has {int(sizes.min())} points; "
                           "its scatter features need at least 3")

    # the member copies (positions, normals, Lab) set this step's peak: each
    # is made when its features need it and dropped after them, and
    # positions and Lab are centred in place, one column at a time
    pos = cloud.positions[member]
    mean_pos = group_sums(pid, pos, n_patches) / sizes[:, None]

    # heights: every patch has a point, so no infinity survives
    min_h = np.full(n_patches, np.inf)
    max_h = np.full(n_patches, -np.inf)
    np.minimum.at(min_h, pid, pos[:, 2])
    np.maximum.at(max_h, pid, pos[:, 2])
    mid_h = np.clip(mean_pos[:, 2], min_h, max_h)

    # spectral: centered second moments -> batched 3x3 eigenvalues
    for c in range(3):
        pos[:, c] -= mean_pos[:, c][pid]
    l0, l1, l2 = eigvals_3x3(*(
        np.bincount(pid, weights=pos[:, i] * pos[:, j], minlength=n_patches) / sizes
        for i, j in ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))))
    del pos
    spectral = np.stack([np.maximum(l0, 0.0),
                         np.maximum(l1 - l0, 0.0),
                         np.maximum(l2 - l1, 0.0)], axis=1)

    # normal angles (axial statistics on the angle to the ground plane)
    normals = cloud.normals[member]
    normal_sum = group_sums(pid, normals, n_patches, hemisphere_sign(normals))
    sum_norm = np.linalg.norm(normal_sum, axis=1)
    zero_sum = sum_norm < 1e-12
    angle = np.arcsin(np.clip(np.abs(normal_sum[:, 2]) / np.maximum(sum_norm, 1e-300),
                              0.0, 1.0))
    theta = np.arcsin(np.clip(np.abs(normals[:, 2]), 0.0, 1.0))
    del normals
    r_cos = np.bincount(pid, weights=np.cos(2.0 * theta), minlength=n_patches) / sizes
    r_sin = np.bincount(pid, weights=np.sin(2.0 * theta), minlength=n_patches) / sizes
    del theta
    r = np.clip(np.hypot(r_cos, r_sin), _R_CLAMP, 1.0)
    circ = np.sqrt(-2.0 * np.log(r))
    angle[zero_sum] = 0.0
    circ[zero_sum] = _CIRC_STD_MAX

    # color moments
    lab = srgb_to_lab(cloud.colors[member])
    mean_lab = group_sums(pid, lab, n_patches) / sizes[:, None]
    for c in range(3):
        lab[:, c] -= mean_lab[:, c][pid]
    var_lab = np.stack([np.bincount(pid, weights=col * col, minlength=n_patches)
                        for col in lab.T], axis=1) / sizes[:, None]
    del lab
    std_lab = np.sqrt(np.maximum(var_lab, 0.0))

    return np.arange(n_patches, dtype=np.int64), np.concatenate([
        spectral,
        np.stack([mid_h, min_h, max_h], axis=1),
        np.stack([angle, circ], axis=1),
        mean_lab,
        std_lab,
    ], axis=1)
