"""Normal estimation and supervoxel-style oversegmentation.

The clustering voxelizes the cloud, seeds patch centers on a coarse grid,
assigns every occupied voxel to the best seed within reach of a combined
spatial / normal / color distance, and finally splits any spatially
disconnected assignment into separate patches so that every surviving
patch is connected at voxel granularity (26-connectivity). The same voxel
adjacency yields the patch adjacency graph consumed by the MRF stage.

The result, `PatchGraph`, is three arrays: the point-to-patch map, the
patch adjacency edges and the patch sizes; `refresh_patch_stats` adds the
centroids on the cloud's final frame, the frame's one average of patch
positions. Every consumer reduces over ``point_to_patch`` directly.

Both stages share one `VoxelGrid`: the occupied voxels, the voxel of
every point, each voxel's point count (the frame's one count of them)
and the voxel adjacency pairs. On a cloud dense enough for it
(see `compute_normals`) the normals come from each voxel's
27-neighbourhood on that grid, in the spirit of VCCS (Papon et al.,
"Voxel Cloud Connectivity Segmentation", CVPR 2013); a sparser cloud
takes them from its k nearest neighbours.

Normals stream in fixed slices of ``_KNN_CHUNK``, so no (k, N) neighbour
table is built. The kNN normals walk the cloud in the kd-tree's own point
order: query, moments, eigenpair and orientation run on one slice and go
straight into the output arrays. The seed assignment needs no kd-tree:
`_select_seeds` puts one seed in each occupied coarse cell, so a voxel's
nearest seeds lie in the rings of cells around its own (`_assign_voxels`),
and blocks of (voxel, seed) pairs are scored without any (V, k) candidate
table or (V, k, 3) gather. The seed scores gather one block per channel
from per-channel float32 rows and sum the channels in order, as a length-3
`einsum` would. The per-voxel normal sums take the canonicalized normals
one column at a time, from a per-point ±1.0 `hemisphere_sign`, with no
flipped (N, 3) copy. Everything runs on the caller's thread. A dense cloud
starts no thread at all and loads no scipy module; only a sparse cloud's
kNN query runs scipy's own workers in parallel, and a query's result does
not depend on them, so the output is the same bytes whatever the thread
count.

The voxel grid keeps one empty layer on every side, so every 26-neighbour
of an occupied voxel lies inside the grid and its packed key is the
voxel's key plus a constant per offset. Keys are packed with the third
axis fastest, so the three neighbours in one neighbouring column are three
consecutive keys: `voxel_grid` finds them with one `searchsorted` probe
per column, and the empty layer keeps a probe's -1 and +1 keys in its
column. A grid whose keys would not fit int64 is an input error.

Reductions and gathers run along long contiguous axes, not across the
short rows of (n, 3) arrays: grid bounds, row norms and the eigenpair's
pick among its cross products are taken one column at a time, each in the
float order of the row-wise form it replaces, so the bits do not move. The
voxel pairs are one contiguous pair of intp endpoint rows per frame
(`VoxelGrid.pairs`); the neighbourhood sums, the same-seed split and
`connected_components` index with them without a copy.
"""

from __future__ import annotations

import itertools
import sys
import types
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .cloud import FRAME_CAMERA, PointCloud, up_vector
from .colorspace import srgb_to_lab
from .errors import InputError

if TYPE_CHECKING:  # pipeline imports this module
    from .pipeline import PipelineConfig

# points (or voxels) per kNN query or eigenpair slice; a seed search block
# holds twice as many (voxel, seed) pairs
_KNN_CHUNK = 1 << 15
_SEEDS_SCORED = 12  # candidate seeds per voxel: its nearest within reach

# the (di, dj, dk) offsets of the 3x3x3 and 5x5x5 blocks of coarse cells
# around a cell, the seed search's two rings
_RING_1 = np.array(list(itertools.product(range(-1, 2), repeat=3)))
_RING_2 = np.array(list(itertools.product(range(-2, 3), repeat=3)))


class _LazyKDTree:
    """scipy's cKDTree, loaded when the first tree is built; `query` and
    `indices` are the built tree's."""

    def __init__(self, *args, **kwargs):
        from scipy.spatial import cKDTree
        self._tree = cKDTree(*args, **kwargs)

    def query(self, *args, **kwargs):
        return self._tree.query(*args, **kwargs)

    @property
    def indices(self):
        return self._tree.indices


class _Module(types.ModuleType):
    """This module, with ``cKDTree`` as a property: the kd-tree class set
    on the module, else scipy's cKDTree once scipy.spatial is loaded, else
    `_LazyKDTree`. Only sparse clouds' kNN normals build a tree, so a dense
    cloud's run never loads scipy, and reading the name (as the benchmark's
    tracer does to wrap it) loads nothing either. Setting `_LazyKDTree`, or
    scipy's class once loaded, unsets the class, so putting back what was
    read (a monkeypatch undo, the tracer's uninstall) leaves nothing set,
    even when scipy loaded in between."""

    @property
    def cKDTree(self):
        if _kd_tree_set is not None:
            return _kd_tree_set
        # mid-import (another thread) scipy.spatial has no cKDTree yet
        return getattr(sys.modules.get("scipy.spatial"), "cKDTree", None) or _LazyKDTree

    @cKDTree.setter
    def cKDTree(self, value):
        global _kd_tree_set
        _kd_tree_set = None
        if value is not _LazyKDTree and value is not self.cKDTree:
            _kd_tree_set = value


_kd_tree_set = None
sys.modules[__name__].__class__ = _Module


@dataclass(frozen=True)
class PatchGraph:
    """Patches as arrays, plus their symmetric, irreflexive adjacency.

    ``point_to_patch`` maps every cloud point to its patch id, -1 where the
    point belongs to no surviving patch. ``edges`` is an (E, 2) int array
    with edges[i, 0] < edges[i, 1], sorted and unique. ``sizes`` is the (P,)
    point count of each patch. ``centroids``, (P, 3) mean positions, is None
    until `refresh_patch_stats` takes it on the cloud's final frame.
    """

    point_to_patch: np.ndarray
    edges: np.ndarray
    sizes: np.ndarray
    centroids: np.ndarray | None = None

    def __len__(self) -> int:
        return self.sizes.shape[0]

    @property
    def patches(self) -> range:
        """The patch ids, ``range(P)``. Kept because the benchmark
        (``perfbench/harness.py``, ``perfbench/tracing.py``) counts patches
        as ``len(graph.patches)``."""
        return range(len(self))


def group_sums(ids: np.ndarray, values: np.ndarray, n: int,
               scale: np.ndarray | None = None) -> np.ndarray:
    """(n, C) per-group column sums of the (N, C) ``values``: row g sums the
    rows whose id is g, each times its entry of the (N,) ``scale`` if one is
    given. One `bincount` per column, so no scaled (N, C) copy is built."""
    return np.stack([np.bincount(ids, weights=col if scale is None else col * scale,
                                 minlength=n)
                     for col in values.T], axis=1)


def hemisphere_sign(normals: np.ndarray) -> np.ndarray:
    """(N,) -1.0 where a normal points into the lower (-z) hemisphere, 1.0
    elsewhere; ties on z are broken on y, then on x."""
    x, y, z = normals.T
    flip = (z < 0) | ((z == 0) & ((y < 0) | ((y == 0) & (x < 0))))
    return np.where(flip, -1.0, 1.0)


def canonicalize_hemisphere(normals: np.ndarray) -> np.ndarray:
    """Flip normals into the upper (+z) hemisphere; ties broken on y then x.

    Multiplying by the `hemisphere_sign`, not negating: x * -1.0 keeps a
    NaN's sign bit and turns 0.0 into -0.0 and back, and x * 1.0 is x, so
    a row's bits are those of a boolean-indexed ``*= -1.0``, and a sum of
    ``normals[:, c] * sign`` adds up exactly the canonicalized values.
    """
    return normals * hemisphere_sign(normals)[:, None]


def compute_normals(cloud: PointCloud, grid: VoxelGrid, k: int = 15) -> PointCloud:
    """Per-point unit normals from a neighbourhood's scatter matrix.

    The normal is the eigenvector of the smallest eigenvalue. In the camera
    frame it is flipped to point toward the sensor origin; in the gravity
    frame it is flipped into the upper hemisphere. Neighborhoods of rank < 2
    get the frame's up vector and a True entry in ``normal_flags``.

    ``grid`` is the cloud's `voxel_grid`. When the median point's
    27-neighbourhood on it (its voxel and the 26 around it) holds at least k
    points, every point takes its voxel's normal, computed from the points of
    that 27-neighbourhood (`_voxel_normals`). A sparser cloud takes each
    point's normal from its k nearest neighbours (`_knn_normals`).
    """
    n_points = len(cloud)
    if n_points < k:
        raise InputError(f"cloud has {n_points} points, need at least k={k}")
    reach = grid.counts.astype(np.float64)
    grid.add_neighbours(reach)
    if np.median(reach[grid.vox_of_point]) >= k:
        return _voxel_normals(cloud, grid, reach)
    return _knn_normals(cloud, k)


def _knn_normals(cloud: PointCloud, k: int) -> PointCloud:
    """`compute_normals` over each point's k nearest neighbours."""
    n_points = len(cloud)
    # looked up on the module, so a kd-tree class set on it is the one used
    tree = sys.modules[__name__].cKDTree(cloud.positions, leafsize=32, balanced_tree=False)
    # everything below runs in the tree's own point order: a slice of
    # neighbouring queries walks the same leaves, and the neighbours' entries
    # sit close together in the per-axis arrays
    order = tree.indices
    rank = np.empty(n_points, dtype=np.intp)
    rank[order] = np.arange(n_points)
    xyz = np.take(cloud.positions.T, order, axis=1)
    x, y, z = xyz
    normals = np.empty((n_points, 3))
    flags = np.empty(n_points, dtype=bool)

    for start in range(0, n_points, _KNN_CHUNK):
        here = slice(start, start + _KNN_CHUNK)
        points = np.ascontiguousarray(xyz[:, here].T)
        idx = tree.query(points, k=k, workers=-1)[1].reshape(-1, k)
        # accumulate neighbor moments in query-point-local coordinates, one
        # neighbor rank at a time on contiguous per-axis arrays
        xs, ys, zs = x[here], y[here], z[here]
        moments = np.zeros((9, idx.shape[0]))
        sx, sy, sz, sxx, syy, szz, sxy, sxz, syz = moments
        for row in rank.take(idx.T):
            gx, gy, gz = x[row] - xs, y[row] - ys, z[row] - zs
            sx += gx
            sy += gy
            sz += gz
            sxx += gx * gx
            syy += gy * gy
            szz += gz * gz
            sxy += gx * gy
            sxz += gx * gz
            syz += gy * gz
        moments /= float(k)
        vec, degenerate = _oriented_normals(moments, points, cloud.frame)
        normals[order[here]] = vec
        flags[order[here]] = degenerate
    return cloud.with_(normals=normals, normal_flags=flags)


def _voxel_normals(cloud: PointCloud, grid: VoxelGrid, reach: np.ndarray) -> PointCloud:
    """`compute_normals` over each voxel's 27-neighbourhood, ``reach`` points.

    Per-voxel moment sums (Σx and Σxxᵀ about the cloud mean) are added up
    over the neighbourhoods by `VoxelGrid.add_neighbours`; the
    eigenpair, the rank test and the orientation (toward the sensor from
    the neighbourhood mean) are `compute_normals`' own. Every point gets its
    voxel's normal and flag.
    """
    vox = grid.vox_of_point
    n_vox = grid.keys.shape[0]
    pos = cloud.positions
    origin = pos.mean(axis=0)

    def centred(i):
        return pos[:, i] - origin[i]

    moments = np.empty((9, n_vox))
    # rows x, y, z, xx, yy, zz, xy, xz, yz; each centred on the fly, so at
    # most two centred axes and one product are alive at a time
    for row, (i, j) in zip(moments, ((0, -1), (1, -1), (2, -1), (0, 0), (1, 1), (2, 2),
                                     (0, 1), (0, 2), (1, 2))):
        row[:] = np.bincount(vox, weights=centred(i) if j < 0 else centred(i) * centred(j),
                             minlength=n_vox)
    grid.add_neighbours(moments)
    vox_normal = np.empty((n_vox, 3))
    vox_flag = np.empty(n_vox, dtype=bool)
    for start in range(0, n_vox, _KNN_CHUNK):
        here = slice(start, start + _KNN_CHUNK)
        means = moments[:, here] / reach[here]
        vox_normal[here], vox_flag[here] = _oriented_normals(
            means, means[:3].T + origin, cloud.frame)
    del moments
    return cloud.with_(normals=vox_normal[vox], normal_flags=vox_flag[vox])


def _oriented_normals(means, points: np.ndarray, frame: str):
    """Unit normals and rank-deficiency flags from neighbourhood mean moments.

    ``means`` holds nine rows, E[x], E[y], E[z], E[xx], E[yy], E[zz],
    E[xy], E[xz], E[yz], one column per neighbourhood; ``points`` (one per
    column) orient camera-frame normals toward the sensor at the origin.
    """
    sx, sy, sz, sxx, syy, szz, sxy, sxz, syz = means
    cov = (sxx - sx * sx, sxy - sx * sy, sxz - sx * sz,
           syy - sy * sy, syz - sy * sz, szz - sz * sz)
    l0, l1, l2, vec, vec_ok = _smallest_eigenpair_3x3(*cov)
    # the closed-form eigenvalues carry ~1e-8 relative rounding error, so
    # the rank test needs a matching tolerance
    degenerate = (~vec_ok) | (l1 <= np.maximum(l2 * 1e-6, 1e-16))

    if frame == FRAME_CAMERA:
        # flip toward the sensor at the origin
        toward = np.einsum("ij,ij->i", vec, points)
        flip = (toward > 0) | ((toward == 0) & (vec[:, 1] > 0))
        vec[flip] *= -1.0
    else:
        vec = canonicalize_hemisphere(vec)
    vec[degenerate] = up_vector(frame)
    return vec, degenerate


def eigvals_3x3(a00, a01, a02, a11, a12, a22):
    """Closed-form ascending eigenvalues (l0, l1, l2) of a batch of symmetric
    3x3 matrices, given as their six upper-triangle component arrays."""
    q = (a00 + a11 + a22) / 3.0
    b00, b11, b22 = a00 - q, a11 - q, a22 - q
    p2 = b00**2 + b11**2 + b22**2 + 2.0 * (a01**2 + a02**2 + a12**2)
    p = np.sqrt(np.maximum(p2 / 6.0, 0.0))
    nonzero = p > 0
    p_safe = np.where(nonzero, p, 1.0)
    det_b = (b00 * (b11 * b22 - a12 * a12)
             - a01 * (a01 * b22 - a12 * a02)
             + a02 * (a01 * a12 - b11 * a02))
    r = np.clip(det_b / (2.0 * p_safe**3), -1.0, 1.0)
    phi = np.arccos(r) / 3.0
    l2 = q + 2.0 * p * np.cos(phi)
    l0 = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
    l1 = 3.0 * q - l0 - l2
    return (np.where(nonzero, l0, q), np.where(nonzero, l1, q),
            np.where(nonzero, l2, q))


def _smallest_eigenpair_3x3(a00, a01, a02, a11, a12, a22):
    """`eigvals_3x3` plus the smallest-eigenvalue unit eigenvector, the
    largest cross product of two rows of A - l0 I. Returns (l0, l1, l2, vec,
    vec_ok); vec_ok is False where the null direction is not unique."""
    l0, l1, l2 = eigvals_3x3(a00, a01, a02, a11, a12, a22)
    rows = ((a00 - l0, a01, a02), (a01, a11 - l0, a12), (a02, a12, a22 - l0))
    vec = best_norm = None
    for i, j in ((0, 1), (0, 2), (1, 2)):
        (u0, u1, u2), (v0, v1, v2) = rows[i], rows[j]
        # `np.cross`'s products and differences, one column at a time
        cross = np.empty((l0.shape[0], 3))
        for col, (p, q, r, s) in enumerate(((u1, v2, u2, v1), (u2, v0, u0, v2),
                                            (u0, v1, u1, v0))):
            np.multiply(p, q, out=cross[:, col])
            cross[:, col] -= r * s
        # einsum, not a plain sum of products: the latter rounds differently
        norm = np.einsum("ij,ij->i", cross, cross)
        if vec is None:
            vec, best_norm = cross, norm
            continue
        # `np.argmax`'s pick: the first of equal norms stays (the norms of
        # finite moments hold no NaN, which argmax would take first)
        take = norm > best_norm
        np.copyto(vec, cross, where=take[:, None])
        np.copyto(best_norm, norm, where=take)
    scale = np.maximum(l2, 1e-30) ** 2
    vec_ok = best_norm > (scale * 1e-24)
    length = np.sqrt(np.maximum(best_norm, 1e-300))
    vec /= length[:, None]
    return l0, l1, l2, vec, vec_ok


def _pack_grid(ijk: np.ndarray, dims: np.ndarray) -> np.ndarray:
    """int64 keys of cells ``ijk`` (n, 3) on a grid of ``dims`` cells, the
    third axis fastest. InputError when the grid has too many cells for
    its keys, and the largest int64 left free as a sentinel, to fit int64."""
    if int(dims[0]) * int(dims[1]) * int(dims[2]) >= np.iinfo(np.int64).max:
        raise InputError(f"a grid of {' x '.join(str(int(d)) for d in dims)} cells "
                         f"is too large for int64 keys")
    return (ijk[:, 0] * dims[1] + ijk[:, 1]) * dims[2] + ijk[:, 2]


def _grid_keys(floored: np.ndarray, pad: int) -> tuple[np.ndarray, np.ndarray]:
    """The `_pack_grid` keys of cells ``floored`` ((n, 3) floats, already
    floored) on the grid that holds them with ``pad`` empty layers on every
    side, and that grid's dims."""
    # one column at a time: a reduction across the rows of (n, 3) is ~10x slower
    low = np.array([col.min() for col in floored.T])
    high = np.array([col.max() for col in floored.T])
    if not max(-low.min(), high.max()) < 2.0 ** 62:
        raise InputError("coordinates too large for the grid's int64 cells")
    ijk = floored.astype(np.int64)
    ijk -= low.astype(np.int64) - pad
    dims = (high - low).astype(np.int64) + 2 * pad + 1
    return _pack_grid(ijk, dims), dims


class _Cells(NamedTuple):
    """Each voxel's coarse seed cell, as a key packed on a grid of
    ``dims``."""

    keys: np.ndarray
    dims: np.ndarray


# the neighbouring (di, dj) columns of the positive half-space. With dk in
# (-1, 0, 1) each gives three of the 13 positive half-space 26-connectivity
# offsets; (0, 0, 1), the 13th, lies in the voxel's own column
_COLUMNS = ((0, 1), (1, -1), (1, 0), (1, 1))


@dataclass(frozen=True)
class VoxelGrid:
    """The occupied voxels of a cloud and their 26-connectivity.

    ``keys`` are the voxels' packed grid keys, ascending, so voxel v is the
    v-th occupied key; ``vox_of_point`` maps every point to its voxel, and
    ``counts`` holds each voxel's number of points.
    ``pairs`` (2, M) intp lists each adjacent voxel pair once: row 0 holds
    the voxels and row 1 their neighbours, each row contiguous, so the
    endpoints index without a copy. The pairs are (voxel, neighbour) for
    the 13 positive half-space offsets, one offset's block after another,
    each block ascending in voxel. The offsets come in the order (0, 0, 1),
    then (di, dj, -1), (di, dj, 0), (di, dj, 1) for each (di, dj) of
    ``_COLUMNS``.
    """

    keys: np.ndarray
    vox_of_point: np.ndarray
    counts: np.ndarray
    pairs: np.ndarray

    def add_neighbours(self, values: np.ndarray) -> None:
        """Sum per-voxel float ``values``, (V,) or one row per quantity
        (C, V) and contiguous, over each voxel's 27-neighbourhood (itself
        and its occupied 26-neighbours), in place."""
        n_vox = self.keys.shape[0]
        a, b = self.pairs
        for row in values.reshape(-1, n_vox):
            added = np.bincount(a, weights=row.take(b), minlength=n_vox)
            added += np.bincount(b, weights=row.take(a), minlength=n_vox)
            row += added


def voxel_grid(positions: np.ndarray, resolution: float) -> VoxelGrid:
    """The `VoxelGrid` of ``positions`` (N, 3) at ``resolution`` meters.

    Keys are packed with k fastest, so a voxel's column neighbours
    (di, dj, -1..1) hold three consecutive keys around one probe key. One
    `searchsorted` per column of ``_COLUMNS`` finds the probe's position in
    the sorted keys; the dk = -1, 0 and +1 neighbours are then the keys just
    below, at, and just above it, and (0, 0, 1) is the voxel's next key.
    """
    n_points = positions.shape[0]
    if n_points == 0:
        empty = np.zeros(0, dtype=np.int64)
        return VoxelGrid(keys=empty, vox_of_point=empty.astype(np.intp), counts=empty,
                         pairs=np.zeros((2, 0), dtype=np.intp))
    # one empty layer on every side of the grid: a neighbour of an occupied
    # voxel is then always inside it, so its key is the voxel's plus a delta
    # (and the dk = -1 and +1 keys of a probe never wrap into another column).
    # Per-point arrays are deleted once used up: they set this step's peak
    keys, dims = _grid_keys(np.floor(positions / resolution), 1)
    uniq_keys, vox_of_point, counts = np.unique(keys, return_inverse=True,
                                                return_counts=True)
    del keys
    n_vox = uniq_keys.shape[0]
    voxels, neighbours = [], []  # per offset block

    def block(hit, loc):
        hit = np.flatnonzero(hit)
        voxels.append(hit)
        neighbours.append(loc[hit])

    # the keys and one sentinel above them, which matches no probe; a probe
    # lies above its voxel's own key, so the key below it is a real one
    padded = np.append(uniq_keys, np.iinfo(np.int64).max)
    block(padded[1:] == uniq_keys + 1, np.arange(1, n_vox + 1))
    for di, dj in _COLUMNS:
        probe = uniq_keys + (di * dims[1] + dj) * dims[2]
        at = np.searchsorted(uniq_keys, probe)  # the first key >= probe
        found = padded[at] == probe
        above = at + found  # the first key > probe
        block(uniq_keys[at - 1] == probe - 1, at - 1)
        block(found, at)
        block(padded[above] == probe + 1, above)
    pairs = np.empty((2, sum(v.shape[0] for v in voxels)), dtype=np.intp)
    np.concatenate(voxels, out=pairs[0])
    np.concatenate(neighbours, out=pairs[1])
    return VoxelGrid(keys=uniq_keys, vox_of_point=vox_of_point, counts=counts, pairs=pairs)


def oversegment(cloud: PointCloud, config: PipelineConfig, grid: VoxelGrid) -> PatchGraph:
    """Cluster a cloud (with normals) into compact patches plus adjacency.

    Reads the config's resolutions, distance weights and
    ``min_patch_points``. Smaller patches are discarded; their points map to
    -1 in ``point_to_patch``. ``grid`` is the cloud's `voxel_grid` at
    ``config.voxel_resolution``. The graph has no centroids.
    """
    if len(cloud) == 0:
        return PatchGraph(point_to_patch=np.zeros(0, dtype=np.int64),
                          edges=np.zeros((0, 2), dtype=np.int64),
                          sizes=np.zeros(0, dtype=np.int64))
    if cloud.normals is None:
        raise InputError("oversegment requires per-point normals (run compute_normals)")

    vox_of_point = grid.vox_of_point
    n_vox = grid.keys.shape[0]
    vox_centroid = group_sums(vox_of_point, cloud.positions, n_vox) / grid.counts[:, None]

    # the canonicalized normals' sums, one column at a time
    sign = hemisphere_sign(cloud.normals)
    vox_normal = group_sums(vox_of_point, cloud.normals, n_vox, sign)
    norm = _row_norms(vox_normal)
    weak = norm < 1e-12
    if weak.any():
        starts = np.cumsum(grid.counts) - grid.counts  # each voxel's first in a stable sort
        first = np.argsort(vox_of_point, kind="stable")[starts[weak]]
        vox_normal[weak] = cloud.normals[first] * sign[first, None]
        norm = _row_norms(vox_normal)
    del sign
    vox_normal /= np.maximum(norm, 1e-300)[:, None]

    lab = srgb_to_lab(cloud.colors)
    vox_lab = group_sums(vox_of_point, lab, n_vox) / grid.counts[:, None]
    del lab

    seed_vox, cells = _select_seeds(vox_centroid, config.seed_resolution)
    assign = _assign_voxels(vox_centroid, vox_normal, vox_lab, seed_vox, cells, config)
    del vox_centroid, vox_normal, vox_lab, cells

    # the voxel adjacency pairs, split by whether both ends went to the same
    # seed: only same-seed pairs join voxels into patches, and two touching
    # voxels of one seed end up in one patch, so only the others (border
    # pairs) can link two patches
    vox_a, vox_b = grid.pairs
    same = assign.take(vox_a) == assign.take(vox_b)
    del assign
    # each side's pairs by index: a boolean-mask copy takes ~3x as long
    joined, border = np.flatnonzero(same), np.flatnonzero(~same)
    del same

    # split spatially disconnected assignments into separate patches
    comp = connected_components(n_vox, vox_a.take(joined), vox_b.take(joined))
    border_a, border_b = vox_a.take(border), vox_b.take(border)
    del joined, border

    point_comp = comp[vox_of_point]
    del vox_of_point
    n_comp = comp.max() + 1
    comp_sizes = np.bincount(point_comp, minlength=n_comp)
    keep = comp_sizes >= config.min_patch_points

    # renumber surviving patches by their smallest member point index
    first_point = np.full(n_comp, len(cloud), dtype=np.int64)
    np.minimum.at(first_point, point_comp, np.arange(len(cloud)))
    kept_comps = np.nonzero(keep)[0]
    kept_comps = kept_comps[np.argsort(first_point[kept_comps], kind="stable")]
    n_patches = kept_comps.shape[0]
    comp_to_patch = np.full(n_comp, -1, dtype=np.int64)
    comp_to_patch[kept_comps] = np.arange(n_patches)

    point_to_patch = comp_to_patch[point_comp]
    del point_comp

    # dedupe patch pairs as packed keys a * P + b; their sort order is (a, b)
    patch_a = comp_to_patch[comp[border_a]]
    patch_b = comp_to_patch[comp[border_b]]
    cross = (patch_a != patch_b) & (patch_a >= 0) & (patch_b >= 0)
    ea = np.minimum(patch_a[cross], patch_b[cross])
    eb = np.maximum(patch_a[cross], patch_b[cross])
    edge_keys = np.unique(ea * n_patches + eb)
    edges = np.stack([edge_keys // n_patches, edge_keys % n_patches], axis=1)

    return PatchGraph(point_to_patch=point_to_patch, edges=edges,
                      sizes=comp_sizes[kept_comps])


def _select_seeds(vox_centroid: np.ndarray, seed_res: float) -> tuple[np.ndarray, _Cells]:
    """One seed voxel per occupied coarse cell: the voxel nearest the cell
    center, the lowest index on a tie.

    Returns the seed voxels, ascending, and the voxels' `_Cells`: the cell
    grid keeps two empty layers on every side, so the 5x5x5 block around an
    occupied cell lies inside it and each of the block's keys is the cell's
    key plus a constant per offset."""
    floored = vox_centroid / seed_res
    np.floor(floored, out=floored)
    cells = _Cells(*_grid_keys(floored, 2))
    # the distance to the cell center, built in place: no (V, 3) temporary
    # beside ``floored``
    offset = floored
    offset += 0.5
    offset *= seed_res
    np.subtract(vox_centroid, offset, out=offset)
    dist = _row_norms(offset)
    del floored, offset
    # a stable sort keeps each cell's voxels in index order, so the first
    # voxel at its cell's least distance is the lowest index among ties
    order = np.argsort(cells.keys, kind="stable")
    sorted_keys = cells.keys[order]
    firsts = np.ones(sorted_keys.shape[0], dtype=bool)
    firsts[1:] = sorted_keys[1:] != sorted_keys[:-1]
    starts = np.flatnonzero(firsts)
    sorted_dist = dist[order]
    least = np.minimum.reduceat(sorted_dist, starts)
    at_least = sorted_dist == least[np.cumsum(firsts) - 1]
    position = np.where(at_least, np.arange(order.shape[0]), order.shape[0])
    return np.sort(order[np.minimum.reduceat(position, starts)]), cells


def _assign_voxels(vox_centroid, vox_normal, vox_lab, seed_vox, cells, config) -> np.ndarray:
    """The best-scoring (`_seed_scores`) of each voxel's 12 nearest seeds
    within 2 seed resolutions (s), the nearest of them on a tied score.

    Seeds are searched in rings of coarse cells, with no kd-tree.
    `_select_seeds` puts exactly one seed in every occupied cell
    (``cells``), so every seed nearer than r * s to a voxel lies in the
    (2r + 1)^3 cells around the voxel's own, and the own cell's seed is
    less than sqrt(3) s away: every voxel has a seed in reach.

    Ring 1 scores each voxel against the seeds of its 3x3x3 block nearer
    than r1, a hair under s. A voxel is settled there when it has at most
    12 of them, so all of them are among its 12 nearest, and its best score
    is below ``w_spatial`` times r1's spatial term: every other seed is at
    least r1 away, and no score is less than its spatial term. r1's margin
    grows with the coordinates, so no rounding brings a seed outside the
    block within r1. Ring 2 settles the rest from their 5x5x5 blocks: the
    12 nearest seeds in reach, then the best score among them. Where
    ``w_spatial`` is 0 no voxel can settle in ring 1, so ring 2 takes all.

    This is the assignment of one scipy kd-tree query for the 12 nearest
    seeds within 2 s, scored the same way: squared distances are summed as
    the kd-tree sums them and compared with the squared radii, as it
    compares them, and of equal scores the nearest seed wins, as the first
    in the kd-tree's distance order does. Two cases may still differ. Seeds
    at exactly equal distances are ordered by seed index here (ring 1) or
    by `np.argpartition` (ring 2), and by its traversal in the kd-tree;
    such exact ties need lattice-like centroids.
    And a seed outside the 5x5x5 block can round to within 2 s only when a
    centroid lies within rounding (about 1e-16 of its coordinates) of a
    cell face.

    Voxels go in blocks of about 2 * ``_KNN_CHUNK`` (voxel, seed) pairs,
    sorted by the size of their cell's pool of seeds, so a block's pools
    are about equally wide and no (V, 12) candidate table is built. Only
    ring 1's near seeds and ring 2's 12 nearest are scored.
    """
    n_vox, n_seeds = vox_centroid.shape[0], seed_vox.shape[0]
    k = min(_SEEDS_SCORED, n_seeds)
    seed_res = config.seed_resolution
    seed_keys = cells.keys[seed_vox]
    by_key = np.argsort(seed_keys)
    sorted_keys = seed_keys[by_key]
    home = by_key[np.searchsorted(sorted_keys, cells.keys)]  # the seed of each voxel's cell
    pairs = 2 * _KNN_CHUNK  # per block

    def pools(rows, offsets):
        """(len(rows), W) the seeds in the ``offsets`` block around the
        cells of seeds ``rows``, ascending, padded with ``n_seeds``; and
        each row's seed count."""
        deltas = _pack_grid(offsets, cells.dims)
        table = np.empty((rows.shape[0], offsets.shape[0]), dtype=np.int32)
        step = max(1, _KNN_CHUNK // offsets.shape[0])
        for start in range(0, rows.shape[0], step):
            probe = seed_keys[rows[start:start + step], None] + deltas
            at = np.searchsorted(sorted_keys, probe)
            np.minimum(at, n_seeds - 1, out=at)
            block = np.where(sorted_keys[at] == probe, by_key[at], n_seeds)
            block.sort(axis=1)
            table[start:start + step] = block
        width = (table < n_seeds).sum(axis=1)
        return table[:, :width.max()], width

    # one column past the seeds pads the pools: infinitely far, with
    # finite (discarded) normal and colour terms
    seed_xyz = np.full((3, n_seeds + 1), np.inf)
    seed_xyz[:, :n_seeds] = vox_centroid[seed_vox].T
    seed_normal = np.zeros((3, n_seeds + 1), dtype=np.float32)
    seed_normal[:, :n_seeds] = vox_normal[seed_vox].T
    seed_lab = np.zeros((3, n_seeds + 1), dtype=np.float32)
    seed_lab[:, :n_seeds] = vox_lab[seed_vox].T
    # distances are O(1); float32 keeps the big gathers cheap. One
    # contiguous row per channel, converted once
    normal_rows = vox_normal.T.astype(np.float32, order="C")
    lab_rows = vox_lab.T.astype(np.float32, order="C")

    def blocks(vox, row, table, width):
        """Voxels ``vox`` against their pools ``table[row]``, sorted by
        pool width: per block, the voxels, their (v, w) candidates and
        squared distances (inf on the padding)."""
        order = np.argsort(width[row], kind="stable")
        vox, row = vox[order], row[order]
        step = max(1, pairs // max(table.shape[1], 1))
        for start in range(0, vox.shape[0], step):
            here = slice(start, start + step)
            rows = row[here]
            cand = table[rows, :width[rows[-1]]].astype(np.intp)
            yield vox[here], cand, _squared_distances(vox_centroid[vox[here]], seed_xyz, cand)

    def best(vox, cand, sq):
        """Per voxel, its least score and that score's candidate: of equal
        scores the nearest, and of equal distances the first."""
        dist = np.sqrt(sq)
        score = _seed_scores(dist, cand, seed_normal, seed_lab,
                             normal_rows[:, vox], lab_rows[:, vox], config)
        least = score.min(axis=1)
        tied = np.where(score == least[:, None], dist, np.inf)
        return least, cand[np.arange(cand.shape[0]), tied.argmin(axis=1)]

    assign = np.full(n_vox, -1, dtype=np.intp)
    todo = np.arange(n_vox)
    # the margin covers the rounding of the cells and of the distances
    largest = max(-vox_centroid.min(), vox_centroid.max(), seed_res)
    ring_1 = seed_res * max(0.0, 1.0 - 1e-12 * largest / seed_res)
    ring_1_sq = ring_1 * ring_1
    # the least score of a seed outside ring 1: `_seed_scores`' float32
    # spatial term at the least distance, and every other term is >= 0
    bound = (np.float32(np.sqrt(ring_1_sq) / (np.sqrt(3.0) * seed_res))
             * np.float32(config.w_spatial))
    if bound > 0:
        table, width = pools(np.arange(n_seeds), _RING_1)
        for vox, cand, sq in blocks(todo, home, table, width):
            # score the near seeds only, moved to the front of their rows
            flat = np.flatnonzero(sq < ring_1_sq)
            rows = flat // cand.shape[1]
            near = np.bincount(rows, minlength=vox.shape[0])
            cols = np.arange(flat.shape[0]) - (np.cumsum(near) - near)[rows]
            shape = (vox.shape[0], max(near.max(), 1))
            near_cand = np.full(shape, n_seeds)
            near_cand[rows, cols] = cand.ravel()[flat]
            near_sq = np.full(shape, np.inf)
            near_sq[rows, cols] = sq.ravel()[flat]
            least, pick = best(vox, near_cand, near_sq)
            done = (near <= k) & (least < bound)
            assign[vox[done]] = pick[done]
        todo = np.flatnonzero(assign < 0)
        if not todo.shape[0]:
            return assign

    # ring 2 pools only for the cells that hold unsettled voxels
    cells_left, row = np.unique(home[todo], return_inverse=True)
    table, width = pools(cells_left, _RING_2)
    reach_sq = (2.0 * seed_res) ** 2
    for vox, cand, sq in blocks(todo, row, table, width):
        if cand.shape[1] > k:
            nearest = np.argpartition(sq, k - 1, axis=1)[:, :k]
            cand = np.take_along_axis(cand, nearest, axis=1)
            sq = np.take_along_axis(sq, nearest, axis=1)
        sq[~(sq < reach_sq)] = np.inf
        assign[vox] = best(vox, cand, sq)[1]
    return assign


def _squared_distances(points: np.ndarray, seed_xyz: np.ndarray,
                       cand: np.ndarray) -> np.ndarray:
    """(v, w) squared distances of v ``points`` (v, 3) to their candidates
    ``cand`` among the seeds ``seed_xyz`` (3, S), summed as scipy's
    kd-tree sums them, ``(dx*dx + dy*dy) + dz*dz``: the same bits."""
    total = None
    for axis in range(3):
        part = seed_xyz[axis].take(cand)
        part -= points[:, axis, None]
        part *= part
        if total is None:
            total = part
        else:
            total += part
    return total


def _seed_scores(dist, cand, seed_normal, seed_lab, vox_normal, vox_lab, config):
    """(v, k) float32 combined distances of v voxels to their k candidate
    seeds ``cand`` (in-range indices) at distances ``dist``; inf where
    ``dist`` is inf (out of reach).

    Normals and Lab colours come as float32, one contiguous row per channel
    (x, y, z; L, a, b): (3, S) for the seeds, (3, v) for the voxels. Each
    term gathers one (v, k) block per channel and sums the channels in
    order, in float32: the terms and roundings of a length-3 `einsum`. The
    terms are weighted and added up in place, in the order of
    ``w_spatial * d_spatial + w_normal * d_normal + w_color * d_color``,
    so a few (v, k) blocks are alive at a time, not one per term and
    channel.
    """
    reach = np.isfinite(dist)
    # zero, not inf, out of reach: a zero weight times inf would be NaN
    spatial = np.where(reach, dist, 0.0)
    spatial /= np.sqrt(3.0) * config.seed_resolution
    score = spatial.astype(np.float32)
    del spatial
    score *= np.float32(config.w_spatial)

    # |n . n_seed|, channel by channel
    term = seed_normal[0].take(cand)
    term *= vox_normal[0][:, None]
    part = np.empty_like(term)
    for s, v in zip(seed_normal[1:], vox_normal[1:]):
        np.multiply(s.take(cand), v[:, None], out=part)
        term += part
    np.abs(term, out=term)
    np.minimum(term, 1.0, out=term)
    np.subtract(1.0, term, out=term)
    term *= np.float32(config.w_normal)
    score += term

    # |lab - lab_seed|, channel by channel
    np.subtract(seed_lab[0].take(cand), vox_lab[0][:, None], out=term)
    term *= term
    for s, v in zip(seed_lab[1:], vox_lab[1:]):
        np.subtract(s.take(cand), v[:, None], out=part)
        part *= part
        term += part
    np.sqrt(term, out=term)
    term /= 100.0
    term *= np.float32(config.w_color)
    score += term

    score[~reach] = np.inf
    return score


def connected_components(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(n,) component labels of the undirected graph on nodes 0..n-1 with
    the edges (a[i], b[i]), numbered by each component's least node, as
    scipy's `connected_components` numbers them. The endpoint arrays are
    read, never written; contiguous intp ones gather without a copy.

    Min-label hooking with pointer jumping: every round hooks the larger
    root of each edge whose ends lie in different trees onto the smaller,
    then points every node at its root. A node only ever points at a
    smaller one, so each tree's root is its least node, and an edge whose
    ends share a root drops out for good; a round that drops none (the
    first, on a graph without loops) keeps its edges without a copy.
    """
    parent = np.arange(n)
    while a.shape[0]:
        root_a, root_b = parent.take(a), parent.take(b)
        apart = root_a != root_b
        if not apart.all():
            if not apart.any():
                break
            keep = np.flatnonzero(apart)
            a, b, root_a, root_b = a.take(keep), b.take(keep), root_a.take(keep), root_b.take(keep)
        del apart
        low = np.minimum(root_a, root_b)
        np.maximum(root_a, root_b, out=root_a)
        del root_b
        np.minimum.at(parent, root_a, low)
        del root_a, low
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
    is_root = parent == np.arange(n)
    return (np.cumsum(is_root) - 1)[parent]


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(rows, axis=1)`` of an (n, 3) float array, bit for
    bit, one column at a time: numpy sums a length-3 row as
    ``(c0 + c1) + c2``, and squares hold no -0.0 for its 0.0 start to
    change."""
    x, y, z = rows.T
    total = x * x
    total += y * y
    total += z * z
    return np.sqrt(total, out=total)


def refresh_patch_stats(graph: PatchGraph, cloud: PointCloud) -> PatchGraph:
    """The graph with its patch centroids on ``cloud``, in its final frame;
    members, sizes and adjacency carry over unchanged."""
    member = graph.point_to_patch >= 0
    pid = graph.point_to_patch[member]
    # one axis at a time: `group_sums` of an (M, 3) member copy takes twice as long
    sums = np.stack([np.bincount(pid, weights=col[member], minlength=len(graph))
                     for col in cloud.positions.T], axis=1)
    return replace(graph, centroids=sums / graph.sizes[:, None])


def dump_patch_colors(graph: PatchGraph, cloud: PointCloud, seed: int = 0) -> PointCloud:
    """Debug view: each patch gets a random color; orphan points turn black."""
    rng = np.random.default_rng(seed)
    palette = rng.integers(32, 255, size=(max(len(graph), 1), 3), dtype=np.uint8)
    colors = np.zeros((len(cloud), 3), dtype=np.uint8)
    mask = graph.point_to_patch >= 0
    colors[mask] = palette[graph.point_to_patch[mask]]
    return cloud.with_(colors=colors, normals=None, normal_flags=None)
