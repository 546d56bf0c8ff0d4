"""Pairwise MRF over patches and approximate MAP by min-sum loopy BP.

The energy of an assignment is the sum of per-node label costs plus, for
each undirected edge whose endpoints disagree, a distance-decayed penalty
(Potts form):

    E(Y) = sum_i unary[i][y_i] + sum_{(i,j) in edges, y_i != y_j} w_ij
    w_ij = exp(-||c_i - c_j|| / sigma)

Each undirected edge contributes once. Unary costs come from classifier
confidence: unary[i][y] = lam * (1 - p(y | x_i)).

``solve_map_lbp`` runs synchronous, damped min-sum message passing with
the O(L) Potts message update (Felzenszwalb & Huttenlocher, "Efficient
Belief Propagation for Early Vision", IJCV 2006) and never returns a
labeling worse than the unary-only argmin (it falls back if the
propagated one loses). Messages and per-node sums are held label-major,
``(L, 2E)`` and ``(L, n)`` C-contiguous, so every per-edge minimum runs
over L contiguous rows; the loop writes into preallocated buffers.
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

    @property
    def num_nodes(self) -> int:
        return self.unary.shape[0]


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
    if not (lam > 0 and sigma > 0):
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
                      weights=np.exp(-edge_lengths / sigma))


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
    # so the reverse of message block [:, :E] is block [:, E:] and vice versa
    src = np.concatenate([problem.edges[:, 0], problem.edges[:, 1]])
    dst = np.concatenate([problem.edges[:, 1], problem.edges[:, 0]])
    w = np.concatenate([problem.weights, problem.weights])
    unary = np.ascontiguousarray(problem.unary.T)  # (L, n)
    bins = (np.arange(num_labels)[:, None] * n + dst).ravel()

    def beliefs(msgs):
        # unary plus incoming messages, (L, n); bin (label, node) sums its
        # edges in edge order, as a per-label bincount over dst would
        incoming = np.bincount(bins, weights=msgs.ravel(), minlength=num_labels * n)
        return unary + incoming.reshape(num_labels, n)

    scored = None  # the assignment `consider` scored last

    def consider(belief):
        # an assignment equal to the last one scored has its energy, which
        # was already compared with the best
        nonlocal best_assignment, best_energy, scored
        assignment = np.argmin(belief, axis=0)
        if scored is not None and np.array_equal(assignment, scored):
            return
        scored = assignment
        energy = energy_of(problem, assignment)
        if energy < best_energy:
            best_assignment, best_energy = assignment, energy

    messages = np.zeros((num_labels, 2 * n_edges))
    new = np.empty_like(messages)
    h = np.empty_like(messages)
    converged = False
    iterations = 0
    for iterations in range(1, max_iters + 1):
        belief = beliefs(messages)
        if iterations > 1:
            consider(belief)
        # not belief[:, src]: fancy indexing returns Fortran order, and
        # every row-wise reduction below would then run strided; "clip"
        # writes straight into h (the first energy_of call has indexed with
        # these edges, so src is in range)
        np.take(belief, src, axis=1, out=h, mode="clip")
        h[:, :n_edges] -= messages[:, n_edges:]
        h[:, n_edges:] -= messages[:, :n_edges]
        np.minimum(h, h.min(axis=0) + w, out=h)
        np.multiply(messages, damping, out=new)
        h *= 1.0 - damping
        new += h
        new -= new.min(axis=0)
        np.subtract(new, messages, out=h)
        delta = float(np.abs(h, out=h).max())
        messages, new = new, messages
        if delta < tol:
            converged = True
            break

    consider(beliefs(messages))
    best_assignment, best_energy = _local_descent(problem, best_assignment,
                                                  best_energy, dst, src, w)
    return Labeling(assignment=best_assignment, energy=best_energy,
                    converged=converged, iterations=iterations)


def _local_descent(problem, assignment, energy, dst, src, w, max_rounds=10):
    """Greedy single-node polish of an LBP labeling: flip every node to its
    conditionally best label, keep the result only while the true energy
    drops. Deterministic and monotone; cheap next to message passing."""
    n, num_labels = problem.unary.shape
    disagree_all = np.bincount(dst, weights=w, minlength=n)[:, None]
    for _ in range(max_rounds):
        cost = problem.unary + disagree_all
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
