import numpy as np
import pytest
from scipy.spatial import cKDTree

from indoorseg import mrf
from indoorseg.cloud import FRAME_GRAVITY, PointCloud
from indoorseg.errors import InputError
from indoorseg.mrf import Labeling, MrfProblem, energy_of


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


# ------------------------------------------------------ oversegmentation oracle

def assign_voxels_whole(vox_centroid, vox_normal, vox_lab, seed_vox, params) -> np.ndarray:
    """`overseg._assign_voxels` as one whole-array pass: a single kNN query
    for every voxel and (V, k, 3) seed gathers. The streamed version must
    give the same assignment bit for bit."""
    n_vox = vox_centroid.shape[0]
    n_seeds = seed_vox.shape[0]
    seed_res = params.seed_resolution
    tree = cKDTree(vox_centroid[seed_vox], leafsize=32, balanced_tree=False)
    k = min(12, n_seeds)
    dist, cand = tree.query(vox_centroid, k=k, distance_upper_bound=2.0 * seed_res,
                            workers=-1)
    if k == 1:
        dist = dist[:, None]
        cand = cand[:, None]
    valid = np.isfinite(dist)
    cand_safe = np.where(valid, cand, 0)

    seed_normal = vox_normal[seed_vox].astype(np.float32)
    seed_lab = vox_lab[seed_vox].astype(np.float32)
    vn = vox_normal.astype(np.float32)
    vl = vox_lab.astype(np.float32)
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
    assign = cand_safe[np.arange(n_vox), best]

    unreached = ~valid[np.arange(n_vox), best]
    if unreached.any():
        _, nearest = tree.query(vox_centroid[unreached], k=1, workers=-1)
        assign[unreached] = nearest
    return assign


# ---------------------------------------------------------------- MRF oracles

_BRUTEFORCE_MAX_NODES = 12
_GRID_LIMIT = 16_000_000  # full-grid path below this many assignments
_CHUNK = 1 << 18


def exact_map_bruteforce(problem: MrfProblem) -> Labeling:
    """Exhaustive minimum-energy assignment; ties resolve to the
    lexicographically smallest assignment. Limited to 12 nodes."""
    n, num_labels = problem.unary.shape
    if n > _BRUTEFORCE_MAX_NODES:
        raise InputError(f"brute force limited to {_BRUTEFORCE_MAX_NODES} nodes, got {n}")
    if n == 0:
        return Labeling(assignment=np.zeros(0, dtype=np.int64), energy=0.0)

    total = num_labels ** n
    if total <= _GRID_LIMIT:
        assignment = _bruteforce_grid(problem, n, num_labels)
    else:
        assignment = _bruteforce_chunked(problem, n, num_labels, total)
    return Labeling(assignment=assignment, energy=energy_of(problem, assignment))


def _bruteforce_grid(problem: MrfProblem, n: int, num_labels: int) -> np.ndarray:
    """Energy over the full L^n grid via broadcasting; axis j = node j, so the
    C-order argmin is the lexicographically smallest minimizer."""
    shape = (num_labels,) * n
    energy = np.zeros(shape)
    for j in range(n):
        axis_shape = [1] * n
        axis_shape[j] = num_labels
        energy += problem.unary[j].reshape(axis_shape)
    disagree = 1.0 - np.eye(num_labels)  # symmetric, so axis order is free
    for (a, b), w in zip(problem.edges, problem.weights):
        pair_shape = [1] * n
        pair_shape[a] = num_labels
        pair_shape[b] = num_labels
        energy += (w * disagree).reshape(pair_shape)
    flat = int(np.argmin(energy))
    return np.array(np.unravel_index(flat, shape), dtype=np.int64)


def _bruteforce_chunked(problem: MrfProblem, n: int, num_labels: int,
                        total: int) -> np.ndarray:
    place = num_labels ** np.arange(n - 1, -1, -1, dtype=np.int64)
    ea, eb = (problem.edges[:, 0], problem.edges[:, 1]) if problem.edges.shape[0] \
        else (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
    best_energy = np.inf
    best_code = -1
    for start in range(0, total, _CHUNK):
        codes = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        labels = (codes[:, None] // place[None, :]) % num_labels
        energy = np.zeros(codes.shape[0])
        for j in range(n):
            energy += problem.unary[j, labels[:, j]]
        if ea.shape[0]:
            disagree = labels[:, ea] != labels[:, eb]
            energy += disagree @ problem.weights
        i = int(np.argmin(energy))  # first minimum = lexicographically smallest
        if energy[i] < best_energy:
            best_energy = float(energy[i])
            best_code = int(codes[i])
    return ((best_code // place) % num_labels).astype(np.int64)


def reference_lbp(problem: MrfProblem, max_iters: int = 50,
                  damping: float = 0.5, tol: float = 1e-5) -> Labeling:
    """Edge-major min-sum LBP: messages are ``(2E, L)`` and every step
    allocates fresh arrays. The same schedule and float operations as
    ``mrf.solve_map_lbp``, so their labelings must match bit for bit."""
    n, num_labels = problem.unary.shape
    if n == 0:
        return Labeling(assignment=np.zeros(0, dtype=np.int64), energy=0.0)

    best_assignment = np.argmin(problem.unary, axis=1)
    best_energy = energy_of(problem, best_assignment)

    n_edges = problem.edges.shape[0]
    if n_edges == 0:
        return Labeling(assignment=best_assignment, energy=best_energy)

    src = np.concatenate([problem.edges[:, 0], problem.edges[:, 1]])
    dst = np.concatenate([problem.edges[:, 1], problem.edges[:, 0]])
    w = np.concatenate([problem.weights, problem.weights])[:, None]
    unary_src = problem.unary[src]

    def sum_incoming(msgs):
        return np.stack([
            np.bincount(dst, weights=msgs[:, label], minlength=n)
            for label in range(num_labels)
        ], axis=1)

    def consider(incoming):
        nonlocal best_assignment, best_energy
        assignment = np.argmin(problem.unary + incoming, axis=1)
        energy = energy_of(problem, assignment)
        if energy < best_energy:
            best_assignment, best_energy = assignment, energy

    messages = np.zeros((2 * n_edges, num_labels))
    converged = False
    iterations = 0
    for iterations in range(1, max_iters + 1):
        incoming = sum_incoming(messages)
        if iterations > 1:
            consider(incoming)
        reverse = np.concatenate([messages[n_edges:], messages[:n_edges]])
        h = unary_src + incoming[src] - reverse
        new = np.minimum(h, h.min(axis=1, keepdims=True) + w)
        new = damping * messages + (1.0 - damping) * new
        new -= new.min(axis=1, keepdims=True)
        delta = float(np.abs(new - messages).max())
        messages = new
        if delta < tol:
            converged = True
            break

    consider(sum_incoming(messages))
    best_assignment, best_energy = mrf._local_descent(problem, best_assignment,
                                                      best_energy, dst, src, w[:, 0])
    return Labeling(assignment=best_assignment, energy=best_energy,
                    converged=converged, iterations=iterations)
