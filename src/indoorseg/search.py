"""Robot search positions next to detected tables.

Table-labeled points are grouped by single-linkage Euclidean clustering,
each large cluster is projected onto the ground plane and described by its
2D principal axes, and the two search positions sit on the second
principal axis just outside the cluster, separated from the table edge by
a security distance. Headings point back at the cluster centroid.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .cloud import FRAME_GRAVITY, PointCloud
from .errors import InputError
from .labels import Label
from .overseg import connected_components


@dataclass(frozen=True)
class TableCluster:
    id: int
    centroid_2d: np.ndarray
    axis_major: np.ndarray   # e1, unit
    axis_minor: np.ndarray   # e2, unit, orthogonal to e1
    half_extent_major: float
    half_extent_minor: float


@dataclass(frozen=True)
class SearchPosition:
    position_2d: np.ndarray
    heading: np.ndarray      # unit vector toward the cluster centroid
    source_cluster: int


def cluster_tables(cloud: PointCloud, radius: float = 0.05,
                   min_points: int = 200) -> list[TableCluster]:
    """Single-linkage clusters of table-labeled points; small ones dropped."""
    if cloud.frame != FRAME_GRAVITY:
        raise InputError("table clustering requires a gravity-aligned cloud")
    if cloud.labels is None:
        raise InputError("table clustering requires a labeled cloud")
    if not radius > 0:
        raise InputError("radius must be positive")

    pts = cloud.positions[cloud.labels == int(Label.TABLE)]
    if pts.shape[0] == 0:
        return []

    # imported here: a run that finds no table never loads scipy
    from scipy.spatial import cKDTree
    pairs = cKDTree(pts).query_pairs(radius, output_type="ndarray")
    comp = connected_components(pts.shape[0], *pairs.T)

    clusters: list[TableCluster] = []
    order = np.argsort(comp, kind="stable")
    starts = np.searchsorted(comp[order], np.arange(comp.max() + 2))
    for c in range(comp.max() + 1):
        members = order[starts[c]:starts[c + 1]]
        if members.shape[0] < min_points:
            continue
        xy = pts[members, :2]
        e1, e2, h1, h2, center = _principal_axes_2d(xy)
        clusters.append(TableCluster(
            id=len(clusters),
            centroid_2d=center,
            axis_major=e1, axis_minor=e2,
            half_extent_major=h1, half_extent_minor=h2))
    return clusters


def _principal_axes_2d(xy: np.ndarray):
    """2D PCA with deterministic axis signs; isotropic clusters tie-break to
    the eigenvector closest to +x, oriented toward +y."""
    center = xy.mean(axis=0)
    centered = xy - center
    cov = centered.T @ centered / xy.shape[0]
    eigvals, eigvecs = np.linalg.eigh(cov)  # ascending

    if abs(eigvals[1] - eigvals[0]) <= 1e-12 * max(abs(eigvals[1]), 1e-30):
        v_a, v_b = eigvecs[:, 0], eigvecs[:, 1]
        e2 = v_a if abs(v_a[0]) >= abs(v_b[0]) else v_b
        e2 = _orient(e2, toward_y=True)
        e1 = np.array([e2[1], -e2[0]])
        e1 = _orient(e1, toward_y=False)
    else:
        e1 = _orient(eigvecs[:, 1], toward_y=False)
        e2 = np.array([-e1[1], e1[0]])
        e2 = _orient(e2, toward_y=True)

    h1 = float(np.abs(centered @ e1).max())
    h2 = float(np.abs(centered @ e2).max())
    return e1, e2, h1, h2, center


def _orient(v: np.ndarray, toward_y: bool) -> np.ndarray:
    primary, secondary = (1, 0) if toward_y else (0, 1)
    if v[primary] < 0 or (v[primary] == 0 and v[secondary] < 0):
        return -v
    return v


def search_positions(cluster: TableCluster, distance: float) -> list[SearchPosition]:
    """Two positions on the minor axis, ``distance`` outside the table edge."""
    if not distance >= 0:
        raise InputError("security distance must be >= 0")
    reach = cluster.half_extent_minor + distance
    out = []
    for sign in (+1.0, -1.0):
        out.append(SearchPosition(
            position_2d=cluster.centroid_2d + sign * reach * cluster.axis_minor,
            heading=-sign * cluster.axis_minor,
            source_cluster=cluster.id))
    return out


def write_positions(positions: Sequence[SearchPosition], path: str | Path) -> None:
    """Text lines: cluster_id x y heading_x heading_y (meters, gravity frame)."""
    lines = [
        f"{p.source_cluster} {p.position_2d[0]:.6f} {p.position_2d[1]:.6f} "
        f"{p.heading[0]:.6f} {p.heading[1]:.6f}"
        for p in positions
    ]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))
