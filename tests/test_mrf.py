import itertools

import numpy as np
import pytest

from indoorseg.errors import InputError
from indoorseg.evalkit import prepare_frame
from indoorseg.mrf import (
    MrfProblem,
    build_problem,
    energy_of,
    solve_map_lbp,
)
from indoorseg.pipeline import PipelineConfig
from indoorseg.synth import SceneSpec, generate_scene

import conftest
from conftest import exact_map_bruteforce, reference_lbp
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

    @pytest.mark.parametrize("lam, sigma", [(0.0, 0.1), (1.0, -0.1),
                                            (np.nan, 0.1), (1.0, np.nan)])
    def test_lambda_and_sigma_must_be_positive(self, lam, sigma):
        with pytest.raises(InputError):
            build_problem(np.full((2, 7), 1 / 7), [[0, 1]], [0.1], lam=lam, sigma=sigma)

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


def assert_same_labeling(problem, **kwargs):
    """The label-major solver against the edge-major reference loop: same
    bytes, same energy, same schedule. Also checks that it leaves the
    problem's arrays as it found them."""
    before = [a.copy() for a in (problem.unary, problem.weights, problem.edges)]
    out = solve_map_lbp(problem, **kwargs)
    ref = reference_lbp(problem, **kwargs)
    assert out.assignment.tobytes() == ref.assignment.tobytes()
    assert out.assignment.dtype == ref.assignment.dtype
    assert out.energy == ref.energy
    assert out.iterations == ref.iterations
    assert out.converged == ref.converged
    for old, now in zip(before, (problem.unary, problem.weights, problem.edges)):
        assert old.tobytes() == now.tobytes()
    return out


class TestMatchesReferenceLoop:
    def test_seeded_random_graphs(self, rng):
        for n, labels, density in [(10, 7, 0.5), (30, 4, 0.2), (60, 7, 0.08),
                                   (200, 7, 0.02), (9, 2, 1.0)]:
            for _ in range(4):
                assert_same_labeling(random_problem(rng, n, labels, density=density))

    def test_seeded_random_trees(self, rng):
        for _ in range(10):
            assert_same_labeling(random_problem(rng, int(rng.integers(2, 40)), 7, tree=True))

    def test_isolated_nodes(self, rng):
        # nodes 3..7 touch no edge: they get no messages and keep the
        # unary argmin
        unary = rng.uniform(0.0, 1.0, size=(8, 7))
        problem = MrfProblem(unary=unary, edges=np.array([[0, 1], [1, 2], [0, 2]]),
                             weights=np.array([0.4, 0.7, 0.2]))
        out = assert_same_labeling(problem)
        np.testing.assert_array_equal(out.assignment[3:], np.argmin(unary[3:], axis=1))

    def test_single_edge(self, rng):
        for weight in (0.0, 0.05, 0.5, 5.0):
            problem = MrfProblem(unary=rng.uniform(0.0, 1.0, size=(2, 7)),
                                 edges=np.array([[0, 1]]), weights=np.array([weight]))
            assert_same_labeling(problem)

    def test_tied_unaries(self, rng):
        flat = random_problem(rng, 12, 7, density=0.4)
        assert_same_labeling(MrfProblem(unary=np.zeros_like(flat.unary),
                                        edges=flat.edges, weights=flat.weights))
        # two labels tie at every node's minimum
        unary = rng.uniform(0.5, 1.0, size=(12, 7))
        unary[:, 2] = unary[:, 5] = 0.1
        assert_same_labeling(MrfProblem(unary=unary, edges=flat.edges,
                                        weights=flat.weights))

    def test_no_damping(self, rng):
        for _ in range(5):
            assert_same_labeling(random_problem(rng, 20, 7, density=0.3), damping=0.0)

    def test_one_iteration(self, rng):
        for _ in range(5):
            out = assert_same_labeling(random_problem(rng, 20, 7, density=0.3),
                                       max_iters=1)
            assert out.iterations == 1

    def test_frame_sized_problem(self):
        """A problem of a real frame's shape: the patch graph of a small
        synthetic scene, with noisy confidences around its ground truth."""
        cloud = generate_scene(SceneSpec(
            seed=3, room_extent=(3.6, 3.0, 2.2), points_per_m2=900.0,
            furniture_counts={"table": 1, "chair": 1, "cabinet": 1, "object": 1}))
        prep = prepare_frame(cloud, PipelineConfig(voxel_resolution=0.03,
                                                   seed_resolution=0.15,
                                                   min_floor_points=200))
        rng = np.random.default_rng(7)
        probs = rng.dirichlet(np.ones(7), size=len(prep.features))
        probs[np.arange(len(probs)), prep.patch_gt] += 1.0
        probs /= probs.sum(axis=1, keepdims=True)
        problem = build_problem(probs, prep.edges, prep.edge_lengths, lam=2.0, sigma=0.1)
        assert problem.num_nodes > 100 and problem.edges.shape[0] > problem.num_nodes
        out = assert_same_labeling(problem)
        assert out.iterations > 1


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


class TestBruteForceChunked:
    """The chunked search, forced on small problems, against the full grid.

    3^5 = 243 assignments in chunks of 7: 34 full chunks and a short last
    one of 5."""

    @staticmethod
    def chunked(problem, monkeypatch):
        with monkeypatch.context() as mp:
            mp.setattr(conftest, "_GRID_LIMIT", 0)
            mp.setattr(conftest, "_CHUNK", 7)
            return exact_map_bruteforce(problem)

    def test_matches_grid_on_random_problems(self, rng, monkeypatch):
        for density in (0.0, 0.3, 0.7, 1.0):
            for _ in range(5):
                problem = random_problem(rng, 5, 3, density=density)
                grid = exact_map_bruteforce(problem)
                chunked = self.chunked(problem, monkeypatch)
                np.testing.assert_array_equal(chunked.assignment, grid.assignment)
                assert chunked.energy == grid.energy

    @pytest.mark.parametrize("first_costs, expected", [
        ([0.0, 0.0, 0.0], [0, 0, 0, 0, 0]),  # every assignment ties
        # node 0 rules out label 0: the ties start at code 81, in chunk 11,
        # and go on in every later chunk, the short last one included
        ([1.0, 0.0, 0.0], [1, 0, 0, 0, 0]),
    ])
    def test_ties_break_lexicographically_across_chunks(self, first_costs, expected,
                                                        monkeypatch):
        unary = np.zeros((5, 3))
        unary[0] = first_costs
        problem = MrfProblem(unary=unary, edges=NO_EDGES, weights=np.zeros(0))
        chunked = self.chunked(problem, monkeypatch)
        assert list(chunked.assignment) == expected
        np.testing.assert_array_equal(chunked.assignment,
                                      exact_map_bruteforce(problem).assignment)


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
