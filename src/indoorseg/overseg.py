"""Normal estimation and supervoxel-style oversegmentation.

The clustering voxelizes the cloud, seeds patch centers on a coarse grid,
assigns every occupied voxel to the best seed within reach of a combined
spatial / normal / color distance, and finally splits any spatially
disconnected assignment into separate patches so that every surviving
patch is connected at voxel granularity (26-connectivity). The same voxel
adjacency yields the patch adjacency graph consumed by the MRF stage.

The result, `PatchGraph`, is three arrays: the point-to-patch map, the
patch adjacency edges and the patch centroids. Patch members are not
stored; every consumer reduces over ``point_to_patch`` directly.

Both stages share one `VoxelGrid`: the occupied voxels, the voxel of
every point and the voxel adjacency pairs. On a cloud dense enough for it
(see `compute_normals`) the normals come from each voxel's
27-neighbourhood on that grid, in the spirit of VCCS (Papon et al.,
"Voxel Cloud Connectivity Segmentation", CVPR 2013); a sparser cloud
takes them from its k nearest neighbours.

Normals and seed scores stream in fixed slices of ``_KNN_CHUNK``, so no
(k, N) neighbour table or (V, k, 3) gather is ever built. The kNN normals
walk the cloud in the kd-tree's own point order: query, moments,
eigenpair and orientation run on one slice and go straight into the
output arrays. The seed assignment makes one kd-tree query for all voxels
and scores its candidates slice by slice. The seed scores gather one
(slice, k) block per channel from per-channel float32 rows and sum the
channels in order, as a length-3 `einsum` would. Everything runs on the
caller's thread; only scipy's own query workers run in parallel, and a
query's result does not depend on them, so the output is the same bytes
whatever the thread count.

The voxel grid keeps one empty layer on every side, so every 26-neighbour
of an occupied voxel lies inside the grid and its packed key is the
voxel's key plus a constant per offset. Keys are packed with the third
axis fastest, so the three neighbours in one neighbouring column are three
consecutive keys: `voxel_grid` finds them with one `searchsorted` probe
per column, and the empty layer keeps a probe's -1 and +1 keys in its
column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .cloud import FRAME_CAMERA, PointCloud, up_vector
from .colorspace import srgb_to_lab
from .errors import InputError

if TYPE_CHECKING:  # pipeline imports this module
    from .pipeline import PipelineConfig

_KNN_CHUNK = 1 << 15  # points (or voxels) per kNN query or eigenpair slice


@dataclass(frozen=True)
class PatchGraph:
    """Patches as arrays, plus their symmetric, irreflexive adjacency.

    ``point_to_patch`` maps every cloud point to its patch id, -1 where the
    point belongs to no surviving patch. ``edges`` is an (E, 2) int array
    with edges[i, 0] < edges[i, 1], sorted and unique. ``centroids`` is the
    (P, 3) mean position of each patch's points.
    """

    point_to_patch: np.ndarray
    edges: np.ndarray
    centroids: np.ndarray

    def __len__(self) -> int:
        return self.centroids.shape[0]

    @property
    def patches(self) -> range:
        """The patch ids, ``range(P)``. Kept because the benchmark
        (``perfbench/harness.py``, ``perfbench/tracing.py``) counts patches
        as ``len(graph.patches)``."""
        return range(len(self))


def group_sums(ids: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """(n, C) per-group column sums of the (N, C) ``values``: row g sums the
    rows whose id is g. One `bincount` per column."""
    return np.stack([np.bincount(ids, weights=values[:, c], minlength=n)
                     for c in range(values.shape[1])], axis=1)


def canonicalize_hemisphere(normals: np.ndarray) -> np.ndarray:
    """Flip normals into the upper (+z) hemisphere; ties broken on y then x."""
    n = normals.copy()
    flip = (n[:, 2] < 0) | ((n[:, 2] == 0) & ((n[:, 1] < 0) | ((n[:, 1] == 0) & (n[:, 0] < 0))))
    # a masked multiply in place: no gather and scatter of the flipped rows.
    # Multiply, not `np.negative`: x * -1.0 keeps a NaN's sign bit, and
    # turns 0.0 into -0.0 and back, as a boolean-indexed `*= -1.0` does
    np.multiply(n, -1.0, out=n, where=flip[:, None])
    return n


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
    reach = np.bincount(grid.vox_of_point, minlength=grid.keys.shape[0]).astype(np.float64)
    grid.add_neighbours(reach)
    if np.median(reach[grid.vox_of_point]) >= k:
        return _voxel_normals(cloud, grid, reach)
    return _knn_normals(cloud, k)


def _knn_normals(cloud: PointCloud, k: int) -> PointCloud:
    """`compute_normals` over each point's k nearest neighbours."""
    n_points = len(cloud)
    tree = cKDTree(cloud.positions, leafsize=32, balanced_tree=False)
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
    origin = cloud.positions.mean(axis=0)
    xyz = cloud.positions.T - origin[:, None]
    moments = np.empty((9, n_vox))
    # rows x, y, z, xx, yy, zz, xy, xz, yz; one product alive at a time
    for row, (i, j) in zip(moments, ((0, -1), (1, -1), (2, -1), (0, 0), (1, 1), (2, 2),
                                     (0, 1), (0, 2), (1, 2))):
        row[:] = np.bincount(vox, weights=xyz[i] if j < 0 else xyz[i] * xyz[j],
                             minlength=n_vox)
    del xyz
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
    rows = (np.stack([a00 - l0, a01, a02], axis=1),
            np.stack([a01, a11 - l0, a12], axis=1),
            np.stack([a02, a12, a22 - l0], axis=1))
    crosses = [np.cross(rows[i], rows[j]) for i, j in ((0, 1), (0, 2), (1, 2))]
    # einsum, not a plain sum of products: the latter rounds differently
    norms = np.stack([np.einsum("ij,ij->i", c, c) for c in crosses], axis=1)
    best = np.argmax(norms, axis=1)
    c01, c02, c12 = crosses
    vec = np.where(best[:, None] == 0, c01, np.where(best[:, None] == 1, c02, c12))
    best_norm = np.take_along_axis(norms, best[:, None], axis=1)[:, 0]
    scale = np.maximum(l2, 1e-30) ** 2
    vec_ok = best_norm > (scale * 1e-24)
    length = np.sqrt(np.maximum(best_norm, 1e-300))
    vec = vec / length[:, None]
    return l0, l1, l2, vec, vec_ok


def _pack_grid(ijk: np.ndarray, dims: np.ndarray) -> np.ndarray:
    return (ijk[:, 0] * dims[1] + ijk[:, 1]) * dims[2] + ijk[:, 2]


# the neighbouring (di, dj) columns of the positive half-space. With dk in
# (-1, 0, 1) each gives three of the 13 positive half-space 26-connectivity
# offsets; (0, 0, 1), the 13th, lies in the voxel's own column
_COLUMNS = ((0, 1), (1, -1), (1, 0), (1, 1))


@dataclass(frozen=True)
class VoxelGrid:
    """The occupied voxels of a cloud and their 26-connectivity.

    ``keys`` are the voxels' packed grid keys, ascending, so voxel v is the
    v-th occupied key; ``vox_of_point`` maps every point to its voxel.
    ``pairs`` (M, 2) lists each adjacent voxel pair once, as (voxel,
    neighbour) for the 13 positive half-space offsets, one offset's block
    after another, each block ascending in voxel. The offsets come in the
    order (0, 0, 1), then (di, dj, -1), (di, dj, 0), (di, dj, 1) for each
    (di, dj) of ``_COLUMNS``.
    """

    keys: np.ndarray
    vox_of_point: np.ndarray
    pairs: np.ndarray

    def add_neighbours(self, values: np.ndarray) -> None:
        """Sum per-voxel float ``values``, (V,) or one row per quantity
        (C, V) and contiguous, over each voxel's 27-neighbourhood (itself
        and its occupied 26-neighbours), in place."""
        n_vox = self.keys.shape[0]
        a, b = self.pairs.T.astype(np.intp, order="C")
        for row in values.reshape(-1, n_vox):
            added = np.bincount(a, weights=row[b], minlength=n_vox)
            added += np.bincount(b, weights=row[a], minlength=n_vox)
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
        return VoxelGrid(keys=empty, vox_of_point=empty.astype(np.intp),
                         pairs=np.zeros((0, 2), dtype=np.int32))
    # one empty layer on every side of the grid: a neighbour of an occupied
    # voxel is then always inside it, so its key is the voxel's plus a delta
    # (and the dk = -1 and +1 keys of a probe never wrap into another column).
    # Per-point arrays are deleted once used up: they set this step's peak
    ijk = np.floor(positions / resolution).astype(np.int64)
    ijk -= ijk.min(axis=0) - 1
    dims = ijk.max(axis=0) + 2
    keys = _pack_grid(ijk, dims)
    del ijk
    uniq_keys, vox_of_point = np.unique(keys, return_inverse=True)
    del keys
    n_vox = uniq_keys.shape[0]
    # voxel ids fit 32 bits for any cloud that fits in memory; the pair
    # list is the grid's largest array
    index = np.int32 if n_vox <= np.iinfo(np.int32).max else np.int64

    def block(hit, loc):
        hit = np.flatnonzero(hit)
        return np.stack([hit, loc[hit]], axis=1).astype(index)

    # the keys and one sentinel above them, which matches no probe; a probe
    # lies above its voxel's own key, so the key below it is a real one
    padded = np.append(uniq_keys, np.iinfo(np.int64).max)
    blocks = [block(padded[1:] == uniq_keys + 1, np.arange(1, n_vox + 1))]
    for di, dj in _COLUMNS:
        probe = uniq_keys + (di * dims[1] + dj) * dims[2]
        at = np.searchsorted(uniq_keys, probe)  # the first key >= probe
        found = padded[at] == probe
        above = at + found  # the first key > probe
        blocks += [block(uniq_keys[at - 1] == probe - 1, at - 1),
                   block(found, at),
                   block(padded[above] == probe + 1, above)]
    return VoxelGrid(keys=uniq_keys, vox_of_point=vox_of_point,
                     pairs=np.concatenate(blocks))


def oversegment(cloud: PointCloud, config: PipelineConfig, grid: VoxelGrid) -> PatchGraph:
    """Cluster a cloud (with normals) into compact patches plus adjacency.

    Reads the config's resolutions, distance weights and
    ``min_patch_points``. Smaller patches are discarded; their points map to
    -1 in ``point_to_patch``. ``grid`` is the cloud's `voxel_grid` at
    ``config.voxel_resolution``.
    """
    if len(cloud) == 0:
        return PatchGraph(point_to_patch=np.zeros(0, dtype=np.int64),
                          edges=np.zeros((0, 2), dtype=np.int64), centroids=np.zeros((0, 3)))
    if cloud.normals is None:
        raise InputError("oversegment requires per-point normals (run compute_normals)")

    pos = cloud.positions
    vox_of_point = grid.vox_of_point
    n_vox = grid.keys.shape[0]

    counts = np.bincount(vox_of_point, minlength=n_vox).astype(np.float64)
    vox_centroid = group_sums(vox_of_point, pos, n_vox) / counts[:, None]

    canon = canonicalize_hemisphere(cloud.normals)
    vox_normal = group_sums(vox_of_point, canon, n_vox)
    norm = np.linalg.norm(vox_normal, axis=1)
    weak = norm < 1e-12
    if weak.any():
        order = np.argsort(vox_of_point, kind="stable")
        starts = np.searchsorted(vox_of_point[order], np.arange(n_vox))
        vox_normal[weak] = canon[order[starts[weak]]]
        norm = np.linalg.norm(vox_normal, axis=1)
    del canon
    vox_normal /= np.maximum(norm, 1e-300)[:, None]

    lab = srgb_to_lab(cloud.colors)
    vox_lab = group_sums(vox_of_point, lab, n_vox) / counts[:, None]
    del lab

    seed_vox = _select_seeds(vox_centroid, config.seed_resolution)
    assign = _assign_voxels(vox_centroid, vox_normal, vox_lab, seed_vox, config)

    # the voxel adjacency pairs, split by whether both ends went to the same
    # seed: only same-seed pairs join voxels into patches, and two touching
    # voxels of one seed end up in one patch, so only the others (border
    # pairs) can link two patches
    pairs = grid.pairs
    same = assign[pairs[:, 0]] == assign[pairs[:, 1]]
    border = pairs[~same]

    # split spatially disconnected assignments into separate patches
    same_a, same_b = pairs[same].T
    graph = sparse.csr_matrix(
        (np.ones(same_a.shape[0], dtype=np.int8), (same_a, same_b)), shape=(n_vox, n_vox))
    # the pair list itself is the caller's grid's, alive until the grid is
    del same_a, same_b
    _, comp = connected_components(graph, directed=False)
    del graph

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
    patch_a = comp_to_patch[comp[border[:, 0]]]
    patch_b = comp_to_patch[comp[border[:, 1]]]
    cross = (patch_a != patch_b) & (patch_a >= 0) & (patch_b >= 0)
    ea = np.minimum(patch_a[cross], patch_b[cross])
    eb = np.maximum(patch_a[cross], patch_b[cross])
    edge_keys = np.unique(ea * n_patches + eb)
    edges = np.stack([edge_keys // n_patches, edge_keys % n_patches], axis=1)

    return PatchGraph(point_to_patch=point_to_patch, edges=edges,
                      centroids=_centroids(pos, point_to_patch, n_patches))


def _select_seeds(vox_centroid: np.ndarray, seed_res: float) -> np.ndarray:
    """One seed voxel per occupied coarse cell: the voxel nearest the cell
    center, the lowest index on a tie."""
    floored = np.floor(vox_centroid / seed_res)
    cell = floored.astype(np.int64)
    cell -= cell.min(axis=0)
    ckeys = _pack_grid(cell, cell.max(axis=0) + 2)
    dist = np.linalg.norm(vox_centroid - (floored + 0.5) * seed_res, axis=1)
    # a stable sort keeps each cell's voxels in index order, so the first
    # voxel at its cell's least distance is the lowest index among ties
    order = np.argsort(ckeys, kind="stable")
    sorted_keys = ckeys[order]
    firsts = np.ones(sorted_keys.shape[0], dtype=bool)
    firsts[1:] = sorted_keys[1:] != sorted_keys[:-1]
    starts = np.flatnonzero(firsts)
    sorted_dist = dist[order]
    least = np.minimum.reduceat(sorted_dist, starts)
    at_least = sorted_dist == least[np.cumsum(firsts) - 1]
    position = np.where(at_least, np.arange(order.shape[0]), order.shape[0])
    return np.sort(order[np.minimum.reduceat(position, starts)])


def _assign_voxels(vox_centroid, vox_normal, vox_lab, seed_vox, config) -> np.ndarray:
    """Nearest seed (in combined distance) within 2 seed resolutions.

    One kd-tree query finds every voxel's k nearest seeds within reach;
    `_seed_scores` scores them in ``_KNN_CHUNK`` slices of voxels. Every
    voxel has a seed in reach: `_select_seeds` seeds every occupied coarse
    cell, so the voxel's own cell holds a seed less than sqrt(3) seed
    resolutions away, and the nearest seed is always among the query's
    valid candidates."""
    n_vox = vox_centroid.shape[0]
    tree = cKDTree(vox_centroid[seed_vox], leafsize=32, balanced_tree=False)
    k = min(12, seed_vox.shape[0])
    dist, cand = tree.query(vox_centroid, k=k,
                            distance_upper_bound=2.0 * config.seed_resolution, workers=-1)
    dist, cand = dist.reshape(-1, k), cand.reshape(-1, k)
    # out-of-reach candidates hold the seed count; any seed will do for
    # their (discarded) scores
    cand[~np.isfinite(dist)] = 0

    # distances are O(1); float32 keeps the big gathers cheap. One
    # contiguous row per channel, converted once
    seed_normal = vox_normal[seed_vox].T.astype(np.float32, order="C")
    seed_lab = vox_lab[seed_vox].T.astype(np.float32, order="C")
    normal_rows = vox_normal.T.astype(np.float32, order="C")
    lab_rows = vox_lab.T.astype(np.float32, order="C")
    assign = np.empty(n_vox, dtype=np.intp)
    for start in range(0, n_vox, _KNN_CHUNK):
        here = slice(start, start + _KNN_CHUNK)
        score = _seed_scores(dist[here], cand[here], seed_normal, seed_lab,
                             normal_rows[:, here], lab_rows[:, here], config)
        best = np.argmin(score, axis=1)
        assign[here] = cand[here][np.arange(best.shape[0]), best]
    return assign


def _seed_scores(dist, cand, seed_normal, seed_lab, vox_normal, vox_lab, config):
    """(v, k) float32 combined distances of v voxels to their k candidate
    seeds ``cand`` (in-range indices) at kNN distances ``dist``; inf where
    ``dist`` is inf (out of reach).

    Normals and Lab colours come as float32, one contiguous row per channel
    (x, y, z; L, a, b): (3, S) for the seeds, (3, v) for the voxels. Each
    term gathers one (v, k) block per channel and sums the channels in
    order, in float32: the terms and roundings of a length-3 `einsum`.
    """
    reach = np.isfinite(dist)
    # zero, not inf, out of reach: a zero weight times inf would be NaN
    d_spatial = (np.where(reach, dist, 0.0)
                 / (np.sqrt(3.0) * config.seed_resolution)).astype(np.float32)
    n0, n1, n2 = (s.take(cand) * v[:, None] for s, v in zip(seed_normal, vox_normal))
    d_normal = 1.0 - np.minimum(np.abs(n0 + n1 + n2), 1.0)
    c0, c1, c2 = (s.take(cand) - v[:, None] for s, v in zip(seed_lab, vox_lab))
    d_color = np.sqrt(c0 * c0 + c1 * c1 + c2 * c2) / 100.0

    score = (np.float32(config.w_spatial) * d_spatial
             + np.float32(config.w_normal) * d_normal
             + np.float32(config.w_color) * d_color)
    score[~reach] = np.inf
    return score


def _centroids(positions: np.ndarray, point_to_patch: np.ndarray,
               n_patches: int) -> np.ndarray:
    """(P, 3) mean position of each patch's points."""
    member = point_to_patch >= 0
    pid = point_to_patch[member]
    sizes = np.bincount(pid, minlength=n_patches).astype(np.float64)
    return group_sums(pid, positions[member], n_patches) / sizes[:, None]


def refresh_patch_stats(graph: PatchGraph, cloud: PointCloud) -> PatchGraph:
    """Recompute the patch centroids on the rigidly moved cloud; members and
    adjacency carry over unchanged."""
    return PatchGraph(point_to_patch=graph.point_to_patch, edges=graph.edges,
                      centroids=_centroids(cloud.positions, graph.point_to_patch,
                                           len(graph)))


def dump_patch_colors(graph: PatchGraph, cloud: PointCloud, seed: int = 0) -> PointCloud:
    """Debug view: each patch gets a random color; orphan points turn black."""
    rng = np.random.default_rng(seed)
    palette = rng.integers(32, 255, size=(max(len(graph), 1), 3), dtype=np.uint8)
    colors = np.zeros((len(cloud), 3), dtype=np.uint8)
    mask = graph.point_to_patch >= 0
    colors[mask] = palette[graph.point_to_patch[mask]]
    return cloud.with_(colors=colors, normals=None, normal_flags=None)
