"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
summary. The desk-scale benchmark (criteria 4 and 5) trains on 20 generated
scenes and tests on 10 held-out ones with fixed seeds; its pipeline
configuration pairs the sampling density with matching voxel/seed
resolutions and is shared by both criteria.
"""

import json
import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from indoorseg.cli import main as cli_main
from indoorseg.evalkit import (
    ConfusionMatrix,
    cross_validate,
    evaluate_split,
    prepare_frames,
    score_prep,
    train_from_preps,
)
from indoorseg.features import FEATURE_DIM, feature_matrix
from indoorseg.forest import ForestParams, TrainingSet, predict_batch, save_model, \
    train_forest
from indoorseg.labels import Label
from indoorseg.mrf import MrfProblem, solve_map_lbp
from indoorseg.overseg import PatchGraph, refresh_patch_stats
from indoorseg.pipeline import PipelineConfig
from indoorseg.ply_io import read_cloud
from indoorseg.search import cluster_tables, search_positions
from indoorseg.synth import SceneSpec, generate_scene

from conftest import exact_map_bruteforce, make_cloud

BENCHMARK_CONFIG = PipelineConfig(
    voxel_resolution=0.025,
    seed_resolution=0.15,
    candidates_per_node=3,
    thresholds_per_candidate=10,
    mrf_lambda=2.0,
    mrf_sigma=0.1,
)
TRAIN_SEEDS = range(100, 120)
TEST_SEEDS = range(900, 910)


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def benchmark_preps():
    t0 = time.perf_counter()
    train = [generate_scene(SceneSpec(seed=s)) for s in TRAIN_SEEDS]
    test = [generate_scene(SceneSpec(seed=s)) for s in TEST_SEEDS]
    train_preps, d1 = prepare_frames(train, BENCHMARK_CONFIG)
    test_preps, d2 = prepare_frames(test, BENCHMARK_CONFIG)
    assert d1 == 0 and d2 == 0
    return train_preps, test_preps, time.perf_counter() - t0


def _random_tree_problem(rng, n_nodes, n_labels=7):
    unary = rng.uniform(0.0, 1.0, size=(n_nodes, n_labels))
    edges = np.array([[int(rng.integers(0, child)), child]
                      for child in range(1, n_nodes)], dtype=np.int64).reshape(-1, 2)
    weights = rng.uniform(0.05, 1.0, size=edges.shape[0])
    return MrfProblem(unary=unary, edges=edges, weights=weights)


def _random_loopy_problem(rng, n_nodes=8, n_labels=4, density=0.5):
    """Random loopy problem with the pipeline's own potential shapes:
    unary costs from random confidence vectors, Potts weights from the
    distance decay over random close-range centroids."""
    p = rng.dirichlet(np.ones(n_labels) * rng.uniform(0.3, 2.0), size=n_nodes)
    unary = 1.0 - p
    centroids = rng.uniform(0.0, 0.15, size=(n_nodes, 3))
    edges = [(i, j) for i in range(n_nodes) for j in range(i + 1, n_nodes)
             if rng.random() < density]
    edges = np.array(edges, dtype=np.int64).reshape(-1, 2)
    d = np.linalg.norm(centroids[edges[:, 0]] - centroids[edges[:, 1]], axis=1)
    return MrfProblem(unary=unary, edges=edges, weights=np.exp(-d / 0.1))


def test_criterion_1_lbp_correctness():
    """Min-sum LBP: exact on trees, near-optimal on loopy graphs."""
    rng = np.random.default_rng(20240001)
    t0 = time.perf_counter()

    # exhaustive enumeration at 7 labels is O(7^n): node counts 2..8 keep
    # the oracle inside the stated runtime budget (and below the 10-node cap)
    exact = 0
    for _ in range(100):
        problem = _random_tree_problem(rng, int(rng.integers(2, 9)))
        lbp = solve_map_lbp(problem)
        brute = exact_map_bruteforce(problem)
        if lbp.energy == brute.energy:
            exact += 1

    near = 0
    for _ in range(100):
        problem = _random_loopy_problem(rng)
        lbp = solve_map_lbp(problem)
        brute = exact_map_bruteforce(problem)
        if lbp.energy <= 1.05 * brute.energy + 1e-12:
            near += 1

    elapsed = time.perf_counter() - t0
    _report(1, exact == 100 and near >= 95 and elapsed < 10.0,
            f"tree exact {exact}/100, loopy within 5% {near}/100, {elapsed:.1f}s")


def test_criterion_2_feature_identities():
    """Eigen-sum identity, vector invariants and yaw invariance on 1000
    random patches."""
    rng = np.random.default_rng(20240002)
    t0 = time.perf_counter()

    n_patches = 1000
    sizes = rng.integers(3, 120, size=n_patches)
    points, normals, colors, owner = [], [], [], []
    for p, size in enumerate(sizes):
        scale = 10.0 ** rng.uniform(-3, 0)
        pts = rng.normal(size=(size, 3)) * scale + rng.uniform(-4, 4, size=3)
        pts[:, 2] += 5.0  # keep arbitrary heights, sign-free
        nrm = rng.normal(size=(size, 3))
        nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
        points.append(pts)
        normals.append(nrm)
        colors.append(rng.integers(0, 256, size=(size, 3)))
        owner.append(np.full(size, p))
    pts = np.vstack(points)
    cloud = make_cloud(pts, colors=np.vstack(colors), normals=np.vstack(normals))
    owner = np.concatenate(owner)

    graph = refresh_patch_stats(PatchGraph(
        point_to_patch=owner, edges=np.zeros((0, 2), dtype=np.int64), sizes=sizes), cloud)

    ids, mat = feature_matrix(graph, cloud)
    assert mat.shape == (n_patches, FEATURE_DIM)

    # eigen-sum identity against an independent eigenvalue decomposition
    max_err = 0.0
    for p in range(n_patches):
        member = cloud.positions[owner == p]
        centered = member - member.mean(axis=0)
        lam2 = np.linalg.eigvalsh(centered.T @ centered / member.shape[0])[-1]
        max_err = max(max_err, abs(mat[p, :3].sum() - lam2))
    identity_ok = max_err <= 1e-9

    invariants_ok = (
        (mat[:, :3] >= 0).all()
        and (mat[:, 4] <= mat[:, 3]).all() and (mat[:, 3] <= mat[:, 5]).all()
        and (mat[:, 6] >= 0).all() and (mat[:, 6] <= math.pi / 2 + 1e-12).all()
        and (mat[:, 7] >= 0).all()
        and (mat[:, 8] >= 0).all() and (mat[:, 8] <= 100).all()
        and (mat[:, 11:] >= 0).all()
    )

    yaw = 0.83
    c, s = math.cos(yaw), math.sin(yaw)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    rotated = cloud.with_(positions=cloud.positions @ rot.T,
                          normals=cloud.normals @ rot.T)
    _, mat_rot = feature_matrix(refresh_patch_stats(graph, rotated), rotated)
    drift = float(np.abs(mat_rot - mat).max())

    elapsed = time.perf_counter() - t0
    _report(2, identity_ok and invariants_ok and drift < 1e-6 and elapsed < 5.0,
            f"eigen-sum err {max_err:.1e}, invariants {invariants_ok}, "
            f"yaw drift {drift:.1e}, {elapsed:.1f}s")


def test_criterion_3_forest_sanity(tmp_path):
    rng = np.random.default_rng(20240003)

    # perfectly separable two-class data, depth-1 trees
    n = 400
    x = rng.uniform(0, 1, size=(n, FEATURE_DIM))
    x[: n // 2, 3] = rng.uniform(0.0, 0.4, n // 2)
    x[n // 2:, 3] = rng.uniform(0.6, 1.0, n - n // 2)
    y = np.concatenate([np.zeros(n // 2, dtype=np.int64),
                        np.ones(n - n // 2, dtype=np.int64)])
    data = TrainingSet(features=x, labels=y)
    model = train_forest(data, ForestParams(num_trees=8, max_depth=1, seed=0))
    train_acc = float((np.argmax(predict_batch(model, x), axis=1) == y).mean())

    # normalization on arbitrary inputs
    random_model = train_forest(
        TrainingSet(features=rng.uniform(-1, 1, size=(300, FEATURE_DIM)),
                    labels=rng.integers(0, 7, size=300)),
        ForestParams(seed=1))
    probs = predict_batch(random_model, rng.uniform(-2, 2, (500, FEATURE_DIM)))
    norm_err = float(np.abs(probs.sum(axis=1) - 1.0).max())
    normalized = norm_err <= 1e-9 and probs.min() >= 0

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_model(train_forest(data, ForestParams(seed=11)), a)
    save_model(train_forest(data, ForestParams(seed=11)), b)
    identical = a.read_bytes() == b.read_bytes()

    _report(3, train_acc == 1.0 and normalized and identical,
            f"separable acc {train_acc:.3f}, norm err {norm_err:.1e}, "
            f"byte-identical {identical}")


def test_criterion_4_benchmark_accuracy(benchmark_preps):
    """Desk-scale stand-in for the full-corpus evaluation (which is out of
    reach without the real dataset): fixed split, fixed seeds."""
    t0 = time.perf_counter()
    train_preps, test_preps, prep_seconds = benchmark_preps
    cm_mrf, cm_unary = evaluate_split(train_preps, test_preps, BENCHMARK_CONFIG)
    elapsed = prep_seconds + time.perf_counter() - t0
    g, ca = cm_mrf.global_accuracy(), cm_mrf.class_average()
    gu = cm_unary.global_accuracy()
    _report(4, g >= 0.90 and ca >= 0.80 and g >= gu and elapsed < 600.0,
            f"global {100 * g:.2f}% (>=90), class-avg {100 * ca:.2f}% (>=80), "
            f"mrf-unary {100 * (g - gu):+.3f} pts (>=0), {elapsed:.0f}s")


def test_criterion_5_ensemble_trend(benchmark_preps):
    """A seed's 1-, 4- and 8-tree forests are the first trees of its 16-tree
    forest (`test_forest.py::TestTraining::test_smaller_forest_is_a_prefix`),
    so one 16-tree fit per seed scores all four sizes."""
    train_preps, test_preps, _ = benchmark_preps
    scores = {num_trees: [] for num_trees in (1, 4, 8, 16)}
    for seed in range(5):
        config = PipelineConfig(**{**BENCHMARK_CONFIG.to_dict(),
                                   "num_trees": 16, "seed": seed})
        full = train_from_preps(train_preps, config)
        for num_trees, seed_scores in scores.items():
            model = replace(full, trees=full.trees[:num_trees])
            cm, cm_unary = ConfusionMatrix(), ConfusionMatrix()
            for prep in test_preps:
                score_prep(prep, model, config, cm, cm_unary)
            seed_scores.append(cm.class_average())
    means = {num_trees: float(np.mean(s)) for num_trees, s in scores.items()}
    monotone = means[1] <= means[4] <= means[8]
    saturated = abs(means[8] - means[16]) < 0.02
    _report(5, monotone and saturated,
            "mean class-avg " + " -> ".join(f"{means[k]:.4f}" for k in (1, 4, 8, 16))
            + f", |8-16| {100 * abs(means[8] - means[16]):.2f} pts")


def test_criterion_6_throughput(tmp_path):
    """Full pipeline on a 640x480-sized cloud, timed by the CLI report."""
    config_flags = ["--voxel-resolution", "0.025", "--seed-resolution", "0.15",
                    "--ground-mode", "fit"]
    scenes = tmp_path / "train"
    assert cli_main(["synth", "--out-dir", str(scenes), "--count", "3",
                     "--scene-seed", "60", "--density", "2000"] + config_flags) == 0
    model = tmp_path / "model.json"
    assert cli_main(["train", "--scenes", str(scenes), "--model", str(model)]
                    + config_flags) == 0

    big_dir = tmp_path / "big"
    assert cli_main(["synth", "--out-dir", str(big_dir), "--count", "1",
                     "--scene-seed", "77", "--density", "4000",
                     "--max-points", "307200"] + config_flags) == 0
    big = big_dir / "scene_000.ply"
    assert len(read_cloud(big)) == 307200

    out = tmp_path / "labeled.ply"
    assert cli_main(["segment", "--input", str(big), "--model", str(model),
                     "--output", str(out)] + config_flags) == 0
    timing = json.loads(
        out.with_suffix(out.suffix + ".patches.json").read_text())["timing_ms"]
    total_s = timing["total"] / 1000.0
    stages_present = all(k in timing for k in
                         ("oversegmentation", "features", "prediction", "mrf"))
    _report(6, total_s <= 5.0 and stages_present,
            f"pipeline total {total_s:.2f}s on 307200 points (<= 5s), "
            f"stages: { {k: round(v) for k, v in timing.items()} }")


def test_criterion_7_search_position_oracle():
    step = 0.01
    xs = np.arange(-1.0, 1.0 + 1e-9, step)
    ys = np.arange(-0.5, 0.5 + 1e-9, step)
    gx, gy = np.meshgrid(xs, ys)
    rect = np.column_stack([gx.ravel(), gy.ravel()])

    def positions_for(xy):
        pts = np.column_stack([xy, np.full(xy.shape[0], 0.7)])
        cloud = make_cloud(pts, labels=np.full(pts.shape[0], int(Label.TABLE),
                                               dtype=np.uint8))
        (cluster,) = cluster_tables(cloud, radius=0.05, min_points=100)
        return search_positions(cluster, distance=0.4)

    base = positions_for(rect)
    got = sorted((float(p.position_2d[0]), float(p.position_2d[1])) for p in base)
    oracle_ok = (abs(got[0][0]) <= 1e-2 and abs(got[0][1] + 0.9) <= 1e-2
                 and abs(got[1][0]) <= 1e-2 and abs(got[1][1] - 0.9) <= 1e-2)

    theta = 0.61
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    shift = np.array([1.7, -0.4])
    moved = positions_for(rect @ rot.T + shift)
    expected = sorted(tuple(p.position_2d @ rot.T + shift) for p in base)
    actual = sorted(tuple(p.position_2d) for p in moved)
    equiv_err = max(np.abs(np.array(actual) - np.array(expected)).max(), 0.0)

    _report(7, oracle_ok and equiv_err <= 1e-6,
            f"positions {np.round(got, 4).tolist()} (expect ~(0, +-0.9)), "
            f"equivariance err {equiv_err:.1e}")


def test_depth_saturation_property(benchmark_preps):
    """Deeper trees stop helping once the data is exhausted: accuracy at
    max depth 12 must sit within 2 points of max depth 10 (checked on
    global accuracy; the minority-class recalls keep moving a little
    longer at this benchmark's scale)."""
    train_preps, test_preps, _ = benchmark_preps
    scores = {}
    for depth in (10, 12):
        config = PipelineConfig(**{**BENCHMARK_CONFIG.to_dict(), "max_depth": depth})
        cm, _ = evaluate_split(train_preps, test_preps, config)
        scores[depth] = cm.global_accuracy()
    gap = abs(scores[12] - scores[10])
    print(f"depth saturation: global d10 {scores[10]:.4f} d12 {scores[12]:.4f} "
          f"gap {100 * gap:.2f} pts")
    assert gap < 0.02


@pytest.mark.skipif("NYU_PLY_DIR" not in os.environ,
                    reason="optional: set NYU_PLY_DIR to a directory of "
                           "ingested, labeled NYU Depth V2 .ply frames")
def test_criterion_8_nyu_cross_validation():
    frames = sorted(__import__("pathlib").Path(os.environ["NYU_PLY_DIR"]).glob("*.ply"))
    clouds = [read_cloud(p) for p in frames]
    config = PipelineConfig()
    report = cross_validate(clouds, config, k=5, seed=0)
    ca = 100 * report.class_average
    g = 100 * report.global_accuracy
    _report(8, abs(ca - 71.7) <= 5.0 and abs(g - 77.2) <= 5.0,
            f"class-avg {ca:.1f}% (71.7 +- 5), global {g:.1f}% (77.2 +- 5)")
