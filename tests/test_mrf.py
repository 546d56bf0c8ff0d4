import itertools

import numpy as np
import pytest

from indoorseg.errors import InputError
from indoorseg.mrf import (
    MrfProblem,
    build_problem,
    energy_of,
    exact_map_bruteforce,
    solve_map_lbp,
)
NO_EDGES = np.zeros((0, 2), dtype=np.int64)


def random_problem(rng, n_nodes, n_labels, density=0.5, tree=False):
    unary = rng.uniform(0.0, 1.0, size=(n_nodes, n_labels))
    edges = []
    if tree:
        for child in range(1, n_nodes):
            edges.append((int(rng.integers(0, child)), child))
    else:
        for i, j in itertools.combinations(range(n_nodes), 2):
            if rng.random() < density:
                edges.append((i, j))
    edges = np.array(edges, dtype=np.int64).reshape(-1, 2)
    weights = rng.uniform(0.05, 1.0, size=edges.shape[0])
    return MrfProblem(unary=unary, edges=edges, weights=weights)


class TestBuildProblem:
    def test_unary_cost_extremes(self):
        probs = np.zeros((1, 7))
        probs[0, 2] = 1.0
        problem = build_problem(probs, NO_EDGES, np.zeros(0), lam=1.0, sigma=0.1)
        assert problem.unary[0, 2] == 0.0
        np.testing.assert_allclose(np.delete(problem.unary[0], 2), 1.0)

    def test_coincident_centroids_weight_one(self):
        problem = build_problem(np.full((2, 7), 1 / 7), [[0, 1]], [0.0], lam=1.0, sigma=0.1)
        assert problem.weights[0] == pytest.approx(1.0)

    def test_distance_sigma_gives_inverse_e(self):
        problem = build_problem(np.full((2, 7), 1 / 7), [[0, 1]], [0.1], lam=1.0, sigma=0.1)
        assert problem.weights[0] == pytest.approx(np.exp(-1.0), abs=1e-12)

    def test_lambda_scales_unary(self):
        probs = np.full((1, 7), 1 / 7)
        problem = build_problem(probs, NO_EDGES, np.zeros(0), lam=3.0, sigma=0.1)
        np.testing.assert_allclose(problem.unary, 3.0 * (1 - 1 / 7))

    def test_missing_prediction_rejected(self):
        with pytest.raises(InputError):
            build_problem(np.full((1, 7), 1 / 7), [[0, 1]], [0.1])
        with pytest.raises(InputError):
            build_problem(np.full(7, 1 / 7), NO_EDGES, np.zeros(0))
        bad = np.full((2, 7), 1 / 7)
        bad[1, 0] = np.nan
        with pytest.raises(InputError):
            build_problem(bad, [[0, 1]], [0.1])

    def test_edge_lengths_must_match_edges(self):
        with pytest.raises(InputError):
            build_problem(np.full((2, 7), 1 / 7), [[0, 1]], [0.1, 0.2])


class TestLbp:
    def test_single_node(self):
        unary = np.array([[0.3, 0.1, 0.7]])
        problem = MrfProblem(unary=unary, edges=np.zeros((0, 2), dtype=np.int64),
                             weights=np.zeros(0))
        out = solve_map_lbp(problem)
        assert out.assignment[0] == 1
        assert out.energy == pytest.approx(0.1)

    def test_two_node_chain_prefers_disagreement(self):
        """Frozen oracle: exhaustive enumeration of the 49 labelings of the
        7-label two-node chain gives (0, 1) with energy 0.1."""
        unary = np.ones((2, 7))
        unary[0, 0] = 0.0
        unary[1, 1] = 0.0
        problem = MrfProblem(unary=unary, edges=np.array([[0, 1]]),
                             weights=np.array([0.1]))
        brute = exact_map_bruteforce(problem)
        assert list(brute.assignment) == [0, 1]
        assert brute.energy == pytest.approx(0.1)
        lbp = solve_map_lbp(problem)
        assert list(lbp.assignment) == [0, 1]
        assert lbp.energy == pytest.approx(0.1)

    def test_strong_edge_forces_agreement(self):
        unary = np.array([[0.0, 0.4], [0.6, 0.1]])
        problem = MrfProblem(unary=unary, edges=np.array([[0, 1]]),
                             weights=np.array([5.0]))
        out = solve_map_lbp(problem)
        assert list(out.assignment) == [1, 1]
        assert out.energy == pytest.approx(0.5)

    def test_tree_exactness(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 9))
            problem = random_problem(rng, n, 7, tree=True)
            lbp = solve_map_lbp(problem)
            brute = exact_map_bruteforce(problem)
            assert lbp.energy == brute.energy

    def test_energy_consistency(self, rng):
        problem = random_problem(rng, 8, 5, density=0.6)
        out = solve_map_lbp(problem)
        assert out.energy == pytest.approx(energy_of(problem, out.assignment), abs=1e-12)

    def test_never_worse_than_unary(self, rng):
        for _ in range(25):
            problem = random_problem(rng, 10, 4, density=0.7)
            out = solve_map_lbp(problem)
            unary_energy = energy_of(problem, np.argmin(problem.unary, axis=1))
            assert out.energy <= unary_energy + 1e-12

    def test_empty_problem(self):
        problem = MrfProblem(unary=np.zeros((0, 7)),
                             edges=np.zeros((0, 2), dtype=np.int64),
                             weights=np.zeros(0))
        out = solve_map_lbp(problem)
        assert out.assignment.shape == (0,)
        assert out.energy == 0.0


class TestBruteForce:
    def test_empty_edges_separable(self, rng):
        problem = random_problem(rng, 6, 4, density=0.0)
        out = exact_map_bruteforce(problem)
        np.testing.assert_array_equal(out.assignment, np.argmin(problem.unary, axis=1))

    def test_single_node_matches_lbp(self):
        unary = np.array([[0.9, 0.2, 0.5, 0.4]])
        problem = MrfProblem(unary=unary, edges=np.zeros((0, 2), dtype=np.int64),
                             weights=np.zeros(0))
        assert exact_map_bruteforce(problem).assignment[0] == \
            solve_map_lbp(problem).assignment[0]

    def test_beats_random_sampling(self, rng):
        problem = random_problem(rng, 8, 4, density=0.5)
        best = exact_map_bruteforce(problem)
        for _ in range(1000):
            labeling = rng.integers(0, 4, size=8)
            assert best.energy <= energy_of(problem, labeling) + 1e-12

    def test_node_limit(self, rng):
        problem = random_problem(rng, 13, 2, density=0.2)
        with pytest.raises(InputError):
            exact_map_bruteforce(problem)

    def test_tie_break_lexicographic(self):
        # two nodes, all-zero unaries, no edges: every labeling ties at 0
        problem = MrfProblem(unary=np.zeros((2, 3)),
                             edges=np.zeros((0, 2), dtype=np.int64),
                             weights=np.zeros(0))
        out = exact_map_bruteforce(problem)
        assert list(out.assignment) == [0, 0]

    def test_scaling_invariance(self, rng):
        """Multiplying all unaries and weights by the same constant leaves
        the argmin assignment unchanged."""
        for _ in range(10):
            problem = random_problem(rng, 7, 3, density=0.5)
            scaled = MrfProblem(unary=2.5 * problem.unary, edges=problem.edges,
                                weights=2.5 * problem.weights)
            a = exact_map_bruteforce(problem)
            b = exact_map_bruteforce(scaled)
            np.testing.assert_array_equal(a.assignment, b.assignment)
            assert b.energy == pytest.approx(2.5 * a.energy, rel=1e-12)


class TestLoopyQuality:
    def test_loopy_energy_within_5_percent_of_optimum(self, rng):
        good = 0
        for _ in range(60):
            problem = random_problem(rng, 8, 4, density=0.5)
            lbp = solve_map_lbp(problem)
            brute = exact_map_bruteforce(problem)
            if lbp.energy <= 1.05 * brute.energy + 1e-12:
                good += 1
        assert good >= 57  # 95% of cases
