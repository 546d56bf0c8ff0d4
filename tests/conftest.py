import numpy as np
import pytest

from indoorseg.cloud import FRAME_GRAVITY, PointCloud


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def make_cloud(positions, colors=None, labels=None, normals=None,
               frame=FRAME_GRAVITY) -> PointCloud:
    positions = np.asarray(positions, dtype=np.float64)
    n = positions.shape[0]
    if colors is None:
        colors = np.full((n, 3), 128, dtype=np.uint8)
    return PointCloud(positions=positions, colors=np.asarray(colors, dtype=np.uint8),
                      labels=None if labels is None else np.asarray(labels, dtype=np.uint8),
                      normals=None if normals is None else np.asarray(normals, dtype=np.float64),
                      frame=frame)


def sample_plane(rng, n, extent=1.0, z=0.0):
    """Random points on a horizontal square plane."""
    pts = np.zeros((n, 3))
    pts[:, 0] = rng.uniform(0.0, extent, n)
    pts[:, 1] = rng.uniform(0.0, extent, n)
    pts[:, 2] = z
    return pts


def patch_members(graph) -> list:
    """Point indices of every patch, derived from ``graph.point_to_patch``."""
    order = np.argsort(graph.point_to_patch, kind="stable")
    bounds = np.searchsorted(graph.point_to_patch[order], np.arange(len(graph) + 1))
    return [order[bounds[p]:bounds[p + 1]] for p in range(len(graph))]
