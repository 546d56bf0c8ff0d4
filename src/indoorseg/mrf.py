"""Pairwise MRF over patches and approximate MAP by min-sum loopy BP.

The energy of an assignment is the sum of per-node label costs plus, for
each undirected edge whose endpoints disagree, a distance-decayed penalty
(Potts form):

    E(Y) = sum_i unary[i][y_i] + sum_{(i,j) in edges, y_i != y_j} w_ij
    w_ij = exp(-||c_i - c_j|| / sigma)

Each undirected edge contributes once. Unary costs come from classifier
confidence: unary[i][y] = lam * (1 - p(y | x_i)).

``solve_map_lbp`` runs synchronous, damped min-sum message passing and
never returns a labeling worse than the unary-only argmin (it falls back
if the propagated one loses). ``exact_map_bruteforce`` is the exhaustive
reference for small problems.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError


@dataclass(frozen=True)
class MrfProblem:
    unary: np.ndarray    # (P, L) costs, row i = cost per label at node i
    edges: np.ndarray    # (E, 2) int, a < b, unique
    weights: np.ndarray  # (E,) pairwise penalty for disagreeing labels
    lam: float = 1.0
    sigma: float = 0.1

    @property
    def num_nodes(self) -> int:
        return self.unary.shape[0]

    @property
    def num_labels(self) -> int:
        return self.unary.shape[1]


@dataclass(frozen=True)
class Labeling:
    assignment: np.ndarray
    energy: float
    converged: bool = True
    iterations: int = 0


def build_problem(probs: np.ndarray, edges: np.ndarray, edge_lengths: np.ndarray,
                  lam: float = 1.0, sigma: float = 0.1) -> MrfProblem:
    """Unary costs from per-node label distributions, Potts weights from the
    lengths (centroid distances) of the adjacency edges."""
    if lam <= 0 or sigma <= 0:
        raise InputError("lam and sigma must be positive")
    probs = np.asarray(probs, dtype=np.float64)
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    edge_lengths = np.asarray(edge_lengths, dtype=np.float64)
    if probs.ndim != 2 or (edges.size and not 0 <= edges.min() <= edges.max() < len(probs)):
        raise InputError(f"need one prediction per edge end, got probs shape {probs.shape}")
    if edge_lengths.shape != (edges.shape[0],):
        raise InputError(f"need one length per edge, got {edge_lengths.shape} for {len(edges)}")
    if not np.isfinite(probs).all():
        raise InputError("predictions contain non-finite values")

    return MrfProblem(unary=lam * (1.0 - probs), edges=edges,
                      weights=np.exp(-edge_lengths / sigma), lam=lam, sigma=sigma)


def energy_of(problem: MrfProblem, assignment: np.ndarray) -> float:
    """Direct evaluation of the energy; the single source of truth for tests."""
    assignment = np.asarray(assignment)
    e = float(problem.unary[np.arange(problem.num_nodes), assignment].sum())
    if problem.edges.shape[0]:
        disagree = assignment[problem.edges[:, 0]] != assignment[problem.edges[:, 1]]
        e += float(problem.weights[disagree].sum())
    return e


def solve_map_lbp(problem: MrfProblem, max_iters: int = 50,
                  damping: float = 0.5, tol: float = 1e-5) -> Labeling:
    """Min-sum LBP: synchronous updates, messages normalized to min 0,
    new messages averaged with the previous ones by ``damping``.

    The belief argmin is evaluated at every iteration and the best-energy
    labeling seen is returned (messages can oscillate on loopy graphs, and
    the optimum is often visited before the schedule settles). The result
    is never worse than the unary-only argmin labeling.
    """
    n, num_labels = problem.unary.shape
    if n == 0:
        return Labeling(assignment=np.zeros(0, dtype=np.int64), energy=0.0)

    best_assignment = np.argmin(problem.unary, axis=1)
    best_energy = energy_of(problem, best_assignment)

    n_edges = problem.edges.shape[0]
    if n_edges == 0:
        return Labeling(assignment=best_assignment, energy=best_energy)

    # directed edges: d and d + n_edges are the two directions of edge d,
    # so the reverse of message block [0:E] is block [E:2E] and vice versa
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
    best_assignment, best_energy = _local_descent(problem, best_assignment,
                                                  best_energy, dst, src, w[:, 0])
    return Labeling(assignment=best_assignment, energy=best_energy,
                    converged=converged, iterations=iterations)


def _local_descent(problem, assignment, energy, dst, src, w, max_rounds=10):
    """Greedy single-node polish of an LBP labeling: flip every node to its
    conditionally best label, keep the result only while the true energy
    drops. Deterministic and monotone; cheap next to message passing."""
    n, num_labels = problem.unary.shape
    for _ in range(max_rounds):
        cost = problem.unary + np.bincount(dst, weights=w, minlength=n)[:, None]
        flat = dst * num_labels + assignment[src]
        agree = np.bincount(flat, weights=w, minlength=n * num_labels)
        cost -= agree.reshape(n, num_labels)
        candidate = np.argmin(cost, axis=1)
        if (candidate == assignment).all():
            break
        cand_energy = energy_of(problem, candidate)
        if cand_energy >= energy:
            break
        assignment, energy = candidate, cand_energy
    return assignment, energy


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
