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

The two kNN stages stream. Normals walk the cloud in the kd-tree's own
point order, and the seed assignment walks the voxels, in fixed slices of
``_KNN_CHUNK``: query, moments, eigenpair and orientation (or seed scores)
run on one slice and go straight into the output arrays, so no (k, N)
neighbour table or (V, k, 3) gather is ever built. `_prefetched` runs the
next slice's kNN query on one helper thread while the caller does the
current slice's math. A query's result does not depend on the thread that
runs it, and slices are consumed in order, so every float op sees the same
operands in the same order: the output is byte-identical to a serial run,
whatever the thread count.

The voxel grid keeps one empty layer on every side, so every 26-neighbour
of an occupied voxel lies inside the grid and its packed key is the
voxel's key plus a constant per offset.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .cloud import FRAME_CAMERA, PointCloud
from .colorspace import srgb_to_lab
from .errors import InputError

_UP_CAMERA = np.array([0.0, -1.0, 0.0])
_UP_GRAVITY = np.array([0.0, 0.0, 1.0])
_KNN_CHUNK = 1 << 15  # points (or voxels) per kNN query slice


@dataclass(frozen=True)
class OversegParams:
    voxel_resolution: float = 0.01
    seed_resolution: float = 0.1
    w_spatial: float = 0.4
    w_normal: float = 1.0
    w_color: float = 0.2
    min_patch_points: int = 10

    def __post_init__(self):
        # written as `not x > 0` so that NaN fails them too
        if not (self.voxel_resolution > 0 and self.seed_resolution > 0):
            raise InputError("resolutions must be positive")
        if not self.seed_resolution > self.voxel_resolution:
            raise InputError(
                f"seed_resolution ({self.seed_resolution}) must exceed "
                f"voxel_resolution ({self.voxel_resolution})")
        if not all(0 <= w < float("inf") for w in (self.w_spatial, self.w_normal,
                                                   self.w_color)):
            raise InputError("w_spatial, w_normal and w_color must be finite and >= 0")
        if self.min_patch_points < 1:
            raise InputError("min_patch_points must be >= 1")


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


def up_vector(frame: str) -> np.ndarray:
    return _UP_CAMERA if frame == FRAME_CAMERA else _UP_GRAVITY


def canonicalize_hemisphere(normals: np.ndarray) -> np.ndarray:
    """Flip normals into the upper (+z) hemisphere; ties broken on y then x."""
    n = normals.copy()
    flip = (n[:, 2] < 0) | ((n[:, 2] == 0) & ((n[:, 1] < 0) | ((n[:, 1] == 0) & (n[:, 0] < 0))))
    n[flip] *= -1.0
    return n


def compute_normals(cloud: PointCloud, k: int = 15) -> PointCloud:
    """Per-point unit normals from the k-NN scatter matrix.

    The normal is the eigenvector of the smallest eigenvalue. In the camera
    frame it is flipped to point toward the sensor origin; in the gravity
    frame it is flipped into the upper hemisphere. Neighborhoods of rank < 2
    get the frame's up vector and a True entry in ``normal_flags``.
    """
    n_points = len(cloud)
    if n_points < k:
        raise InputError(f"cloud has {n_points} points, need at least k={k}")
    tree = cKDTree(cloud.positions, leafsize=32, balanced_tree=False)
    # everything below runs in the tree's own point order: a slice of
    # neighbouring queries walks the same leaves, and the neighbours' entries
    # sit close together in the per-axis arrays
    order = tree.indices
    rank = np.empty(n_points, dtype=np.intp)
    rank[order] = np.arange(n_points)
    xyz = np.take(cloud.positions.T, order, axis=1)
    x, y, z = xyz
    up = up_vector(cloud.frame)
    normals = np.empty((n_points, 3))
    flags = np.empty(n_points, dtype=bool)

    def points(here):
        return np.ascontiguousarray(xyz[:, here].T)

    def query(start):
        idx = tree.query(points(slice(start, start + _KNN_CHUNK)), k=k, workers=-1)[1]
        return idx.reshape(-1, k)

    for start, idx in _prefetched(query, range(0, n_points, _KNN_CHUNK)):
        here = slice(start, start + idx.shape[0])
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
        cov = (sxx - sx * sx, sxy - sx * sy, sxz - sx * sz,
               syy - sy * sy, syz - sy * sz, szz - sz * sz)

        l0, l1, l2, vec, vec_ok = _smallest_eigenpair_3x3(*cov)
        # the closed-form eigenvalues carry ~1e-8 relative rounding error, so
        # the rank test needs a matching tolerance
        degenerate = (~vec_ok) | (l1 <= np.maximum(l2 * 1e-6, 1e-16))

        if cloud.frame == FRAME_CAMERA:
            # flip toward the sensor at the origin
            toward = np.einsum("ij,ij->i", vec, points(here))
            flip = (toward > 0) | ((toward == 0) & (vec[:, 1] > 0))
            vec[flip] *= -1.0
        else:
            vec = canonicalize_hemisphere(vec)
        vec[degenerate] = up
        normals[order[here]] = vec
        flags[order[here]] = degenerate
    return cloud.with_(normals=normals, normal_flags=flags)


def _prefetched(fn, starts):
    """``(start, fn(start))`` for each of ``starts``, in order. The call for
    the next start runs on one helper thread while the caller works on the
    current result, so a kNN query overlaps the math on the slice before it."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        pending = None
        for start in starts:
            future = pool.submit(fn, start)
            if pending is not None:
                yield pending[0], pending[1].result()
            pending = start, future
        if pending is not None:
            yield pending[0], pending[1].result()


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


# positive-halfspace 26-connectivity offsets (13 of 26; the rest are mirrors)
_OFFSETS = np.array([
    (0, 0, 1), (0, 1, -1), (0, 1, 0), (0, 1, 1),
    (1, -1, -1), (1, -1, 0), (1, -1, 1),
    (1, 0, -1), (1, 0, 0), (1, 0, 1),
    (1, 1, -1), (1, 1, 0), (1, 1, 1),
], dtype=np.int64)


def oversegment(cloud: PointCloud, params: OversegParams = OversegParams()) -> PatchGraph:
    """Cluster a cloud (with normals) into compact patches plus adjacency.

    Patches smaller than ``params.min_patch_points`` are discarded; their
    points map to -1 in ``point_to_patch``.
    """
    if len(cloud) == 0:
        return PatchGraph(point_to_patch=np.zeros(0, dtype=np.int64),
                          edges=np.zeros((0, 2), dtype=np.int64), centroids=np.zeros((0, 3)))
    if cloud.normals is None:
        raise InputError("oversegment requires per-point normals (run compute_normals)")

    pos = cloud.positions
    res = params.voxel_resolution
    seed_res = params.seed_resolution

    # one empty layer on every side of the grid: a neighbour of an occupied
    # voxel is then always inside it, so its key is the voxel's plus a delta.
    # Per-point arrays are deleted once used up: they set this stage's peak
    ijk = np.floor(pos / res).astype(np.int64)
    ijk -= ijk.min(axis=0) - 1
    dims = ijk.max(axis=0) + 2
    keys = _pack_grid(ijk, dims)
    del ijk
    uniq_keys, vox_of_point = np.unique(keys, return_inverse=True)
    del keys
    n_vox = uniq_keys.shape[0]

    counts = np.bincount(vox_of_point, minlength=n_vox).astype(np.float64)
    vox_centroid = np.stack([
        np.bincount(vox_of_point, weights=pos[:, c], minlength=n_vox) for c in range(3)
    ], axis=1) / counts[:, None]

    canon = canonicalize_hemisphere(cloud.normals)
    vox_normal = np.stack([
        np.bincount(vox_of_point, weights=canon[:, c], minlength=n_vox) for c in range(3)
    ], axis=1)
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
    vox_lab = np.stack([
        np.bincount(vox_of_point, weights=lab[:, c], minlength=n_vox) for c in range(3)
    ], axis=1) / counts[:, None]
    del lab

    seed_vox = _select_seeds(vox_centroid, seed_res)
    assign = _assign_voxels(vox_centroid, vox_normal, vox_lab, seed_vox, params)

    # voxel adjacency (26-connectivity) as undirected index pairs, kept apart
    # by whether both ends went to the same seed: only the former join
    # voxels into patches, and two touching voxels of one seed end up in one
    # patch, so only the latter (border pairs) can link two patches
    same_a, same_b, border = [], [], []
    for delta in _pack_grid(_OFFSETS, dims):
        cand_keys = uniq_keys + delta
        loc = np.minimum(np.searchsorted(uniq_keys, cand_keys), n_vox - 1)
        hit = np.nonzero(uniq_keys[loc] == cand_keys)[0]
        nbr = loc[hit]
        same = assign[hit] == assign[nbr]
        same_a.append(hit[same])
        same_b.append(nbr[same])
        border.append(np.stack([hit[~same], nbr[~same]], axis=1))
    border = np.concatenate(border)

    # split spatially disconnected assignments into separate patches
    same_a = np.concatenate(same_a)
    same_b = np.concatenate(same_b)
    graph = sparse.csr_matrix(
        (np.ones(same_a.shape[0], dtype=np.int8), (same_a, same_b)), shape=(n_vox, n_vox))
    del same_a, same_b
    _, comp = connected_components(graph, directed=False)
    del graph

    point_comp = comp[vox_of_point]
    del vox_of_point
    n_comp = comp.max() + 1
    comp_sizes = np.bincount(point_comp, minlength=n_comp)
    keep = comp_sizes >= params.min_patch_points

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
    """One seed voxel per occupied coarse cell: the voxel nearest the cell center."""
    cell = np.floor(vox_centroid / seed_res).astype(np.int64)
    cell -= cell.min(axis=0)
    cdims = cell.max(axis=0) + 2
    ckeys = _pack_grid(cell, cdims)
    center = (np.floor(vox_centroid / seed_res) + 0.5) * seed_res
    dist = np.linalg.norm(vox_centroid - center, axis=1)
    order = np.lexsort((np.arange(ckeys.shape[0]), dist, ckeys))
    sorted_keys = ckeys[order]
    firsts = np.ones(sorted_keys.shape[0], dtype=bool)
    firsts[1:] = sorted_keys[1:] != sorted_keys[:-1]
    return np.sort(order[firsts])


def _assign_voxels(vox_centroid, vox_normal, vox_lab, seed_vox, params) -> np.ndarray:
    """Nearest seed (in combined distance) within 2 seed resolutions; voxels
    out of reach of every seed fall back to the spatially nearest seed."""
    n_vox = vox_centroid.shape[0]
    n_seeds = seed_vox.shape[0]
    seed_res = params.seed_resolution
    tree = cKDTree(vox_centroid[seed_vox], leafsize=32, balanced_tree=False)
    k = min(12, n_seeds)

    def query(start):
        dist, cand = tree.query(vox_centroid[start:start + _KNN_CHUNK], k=k,
                                distance_upper_bound=2.0 * seed_res, workers=-1)
        return dist.reshape(-1, k), cand.reshape(-1, k)

    # distances are O(1); float32 keeps the big gathers cheap
    seed_normal = vox_normal[seed_vox].astype(np.float32)
    seed_lab = vox_lab[seed_vox].astype(np.float32)
    assign = np.empty(n_vox, dtype=np.intp)
    unreached = np.empty(n_vox, dtype=bool)
    for start, (dist, cand) in _prefetched(query, range(0, n_vox, _KNN_CHUNK)):
        here = slice(start, start + dist.shape[0])
        valid = np.isfinite(dist)
        cand_safe = np.where(valid, cand, 0)
        vn = vox_normal[here].astype(np.float32)
        vl = vox_lab[here].astype(np.float32)
        d_spatial = (dist / (np.sqrt(3.0) * seed_res)).astype(np.float32)
        dots = np.abs(np.einsum("vkc,vc->vk", seed_normal[cand_safe], vn))
        d_normal = 1.0 - np.minimum(dots, 1.0)
        diff = seed_lab[cand_safe] - vl[:, None, :]
        d_color = np.sqrt(np.einsum("vkc,vkc->vk", diff, diff)) / 100.0

        score = (np.float32(params.w_spatial) * d_spatial
                 + np.float32(params.w_normal) * d_normal
                 + np.float32(params.w_color) * d_color)
        score[~valid] = np.inf
        best = np.argmin(score, axis=1)
        rows = np.arange(best.shape[0])
        assign[here] = cand_safe[rows, best]
        unreached[here] = ~valid[rows, best]

    if unreached.any():
        _, nearest = tree.query(vox_centroid[unreached], k=1, workers=-1)
        assign[unreached] = nearest
    return assign


def _centroids(positions: np.ndarray, point_to_patch: np.ndarray,
               n_patches: int) -> np.ndarray:
    """(P, 3) mean position of each patch's points."""
    member = point_to_patch >= 0
    pid = point_to_patch[member]
    pos = positions[member]
    sizes = np.bincount(pid, minlength=n_patches).astype(np.float64)
    return np.stack([
        np.bincount(pid, weights=pos[:, c], minlength=n_patches) for c in range(3)
    ], axis=1) / sizes[:, None]


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
