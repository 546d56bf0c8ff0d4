"""End-to-end segmentation pipeline and its resolved configuration.

Stage order: normals -> oversegmentation -> gravity alignment (pose or
label-based plane fit) -> per-patch features -> forest prediction -> MRF
smoothing -> per-point labels. Points of discarded patches come out as
`unknown`. Every stage is timed; the timing dict accompanies all results.

`run_stages` does the model-independent part and maps patch ids to
feature rows once: the point-to-row map, the adjacency edges between rows
and their centroid lengths. `classify` does the rest (predict, MRF, labels
per point) on those rows; `segment_cloud` and the evaluation harness's
`evalkit.score_prep` both call it, so inference and scoring share one path.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Optional

import numpy as np

from . import mrf
from .cloud import FRAME_GRAVITY, PointCloud
from .errors import InputError, checked_fields, read_text
from .features import feature_matrix
from .forest import ForestModel, ForestParams, predict_batch
from .ground import (
    GroundPlane,
    estimate_ground_plane,
    gravity_align,
)
from .labels import Label
from .overseg import OversegParams, PatchGraph, compute_normals, oversegment, \
    refresh_patch_stats

GROUND_MODES = ("auto", "fit", "pose", "none")


@dataclass(frozen=True)
class PipelineConfig:
    seed: int = 0
    normals_k: int = 15
    voxel_resolution: float = 0.01
    seed_resolution: float = 0.1
    w_spatial: float = 0.4
    w_normal: float = 1.0
    w_color: float = 0.2
    min_patch_points: int = 10
    ground_mode: str = "auto"
    min_floor_points: int = 500
    ransac_iterations: int = 200
    ransac_threshold: float = 0.02
    num_trees: int = 8
    max_depth: int = 8
    candidates_per_node: int = 4
    thresholds_per_candidate: int = 10
    min_samples_split: int = 2
    class_balanced: bool = False
    mrf_lambda: float = 1.0
    mrf_sigma: float = 0.1
    lbp_max_iters: int = 50
    lbp_damping: float = 0.5
    lbp_tol: float = 1e-5
    table_cluster_radius: float = 0.05
    table_min_points: int = 200
    security_distance: float = 0.4
    workers: int = 1

    def __post_init__(self):
        if self.ground_mode not in GROUND_MODES:
            raise InputError(f"ground_mode must be one of {GROUND_MODES}")
        if self.normals_k < 3:
            raise InputError("normals_k must be >= 3")
        if self.workers < 1:
            raise InputError("workers must be >= 1")
        # remaining bounds are enforced by the stage parameter types
        self.overseg_params()
        self.forest_params()
        # written as `not x > 0` so that NaN fails them too
        if not (self.ransac_threshold > 0 and self.mrf_lambda > 0 and self.mrf_sigma > 0):
            raise InputError("ransac_threshold, mrf_lambda and mrf_sigma must be positive")
        if self.lbp_max_iters < 1:
            raise InputError("lbp_max_iters must be >= 1")
        if not 0 <= self.lbp_damping < 1:
            raise InputError("lbp_damping must be in [0, 1)")
        if not 0 <= self.lbp_tol < float("inf"):
            raise InputError("lbp_tol must be finite and >= 0")
        if not (self.table_cluster_radius > 0 and self.security_distance > 0):
            raise InputError("table_cluster_radius and security_distance must be positive")
        if self.table_min_points < 1:
            raise InputError("table_min_points must be >= 1")

    def overseg_params(self) -> OversegParams:
        return _copy_fields(OversegParams, self)

    def forest_params(self) -> ForestParams:
        return _copy_fields(ForestParams, self)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict, where: str = "config") -> "PipelineConfig":
        return cls(**checked_fields(cls, data, where))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "PipelineConfig":
        try:
            data = json.loads(read_text(path))
        except json.JSONDecodeError as e:
            raise InputError(f"{path}: invalid config JSON at position {e.pos}") from None
        return cls.from_dict(data, str(path))


def _copy_fields(cls, source):
    """A ``cls`` built from the same-named fields of ``source``."""
    return cls(**{f.name: getattr(source, f.name) for f in fields(cls)})


@dataclass
class StageOutput:
    """Everything the classifier stage needs, in the gravity frame."""

    cloud: PointCloud           # aligned, with normals
    graph: PatchGraph           # centroids refreshed on the aligned cloud
    feature_ids: np.ndarray     # patch ids that produced a feature vector
    features: np.ndarray        # (F, 14)
    point_to_feature: np.ndarray  # point index -> row in features, -1 if none
    edges: np.ndarray           # (E, 2) patch adjacency between feature rows
    edge_lengths: np.ndarray    # (E,) centroid distance per edge (meters)
    timings: dict[str, float]


def _ground_mode(cloud: PointCloud, config: PipelineConfig,
                 pose_plane: Optional[GroundPlane]) -> str:
    """'none', 'pose' or 'fit'; raises InputError if that mode cannot align
    the cloud. Reads only the cloud's frame and whether it has labels."""
    mode = config.ground_mode
    if mode == "auto":
        if pose_plane is not None:
            mode = "pose"
        elif cloud.frame == FRAME_GRAVITY:
            mode = "none"
        else:
            mode = "fit"
    if mode == "none" and cloud.frame != FRAME_GRAVITY:
        raise InputError("ground_mode 'none' needs a gravity-aligned cloud")
    if mode == "pose" and pose_plane is None:
        raise InputError("ground_mode 'pose' needs a camera pose file")
    if mode == "fit" and cloud.labels is None:
        raise InputError(
            "ground_mode 'fit' fits the floor to ground-truth labels, and this cloud "
            "has none: pass the camera pose with --pose-file, or use --ground-mode none "
            "for a gravity-aligned cloud")
    return mode


def resolve_ground_plane(cloud: PointCloud, config: PipelineConfig,
                         pose_plane: Optional[GroundPlane]) -> Optional[GroundPlane]:
    """Which plane to align with; None means the cloud is already aligned."""
    mode = _ground_mode(cloud, config, pose_plane)
    if mode == "none":
        return None
    if mode == "pose":
        return pose_plane
    return estimate_ground_plane(
        cloud,
        min_floor_points=config.min_floor_points,
        iterations=config.ransac_iterations,
        threshold=config.ransac_threshold,
        seed=config.seed,
    )


def run_stages(cloud: PointCloud, config: PipelineConfig,
               pose_plane: Optional[GroundPlane] = None) -> StageOutput:
    """Normals, oversegmentation, alignment and features for one cloud."""
    timings: dict[str, float] = {}
    # reject a cloud that cannot be aligned before any work. The floor fit
    # itself stays after oversegmentation: run first, its large temporaries
    # raise glibc's mmap threshold and the normals then peak ~10 MB higher
    _ground_mode(cloud, config, pose_plane)

    t0 = time.perf_counter()
    cloud = compute_normals(cloud, k=config.normals_k)
    timings["normals"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    graph = oversegment(cloud, config.overseg_params())
    timings["oversegmentation"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    plane = resolve_ground_plane(cloud, config, pose_plane)
    if plane is not None:
        cloud = gravity_align(cloud, plane)
        graph = refresh_patch_stats(graph, cloud)
    elif cloud.frame != FRAME_GRAVITY:
        raise InputError("cloud is not gravity-aligned and no plane was resolved")
    timings["ground"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    feature_ids, features = feature_matrix(graph, cloud)
    timings["features"] = time.perf_counter() - t0

    # patch id -> feature row; the extra last entry maps patch -1 to row -1
    row_of = np.full(len(graph) + 1, -1, dtype=np.int64)
    row_of[feature_ids] = np.arange(feature_ids.shape[0])
    a, b = row_of[graph.edges[:, 0]], row_of[graph.edges[:, 1]]
    keep = (a >= 0) & (b >= 0)
    edges = np.stack([a[keep], b[keep]], axis=1)
    centroids = graph.centroids[feature_ids]

    return StageOutput(
        cloud=cloud, graph=graph, feature_ids=feature_ids, features=features,
        point_to_feature=row_of[graph.point_to_patch], edges=edges,
        edge_lengths=np.linalg.norm(centroids[edges[:, 0]] - centroids[edges[:, 1]], axis=1),
        timings=timings)


def patch_majority_labels(graph: PatchGraph, cloud: PointCloud) -> np.ndarray:
    """Ground-truth label per patch by majority vote (ties: lowest label id)."""
    if cloud.labels is None:
        raise InputError("patch labels need a ground-truth labeled cloud")
    member = graph.point_to_patch >= 0
    votes = np.bincount(graph.point_to_patch[member] * len(Label) + cloud.labels[member],
                        minlength=len(graph) * len(Label))
    return np.argmax(votes.reshape(len(graph), len(Label)), axis=1)


@dataclass
class Classification:
    distributions: np.ndarray       # (F, 7) forest output per feature row
    labeling: mrf.Labeling          # MRF MAP labeling of the feature rows
    point_labels: np.ndarray        # (N,) uint8, `unknown` for uncovered points
    unary_point_labels: np.ndarray  # same, from the unary-only argmin
    timings: dict[str, float]


def classify(frame, model: ForestModel, config: PipelineConfig) -> Classification:
    """Forest prediction, MRF smoothing and per-point labels for one frame.

    ``frame`` is a `StageOutput` or an `evalkit.FramePrep`: anything with
    ``features``, ``edges``, ``edge_lengths`` and ``point_to_feature``.
    """
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    distributions = predict_batch(model, frame.features)
    timings["prediction"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    problem = mrf.build_problem(distributions, frame.edges, frame.edge_lengths,
                                lam=config.mrf_lambda, sigma=config.mrf_sigma)
    labeling = mrf.solve_map_lbp(problem, max_iters=config.lbp_max_iters,
                                 damping=config.lbp_damping, tol=config.lbp_tol)
    timings["mrf"] = time.perf_counter() - t0

    def to_points(row_labels):
        # the extra last entry labels the uncovered points (row -1)
        return np.append(row_labels.astype(np.uint8),
                         np.uint8(Label.UNKNOWN))[frame.point_to_feature]

    return Classification(
        distributions=distributions, labeling=labeling,
        point_labels=to_points(labeling.assignment),
        unary_point_labels=to_points(np.argmin(problem.unary, axis=1)),
        timings=timings)


@dataclass
class SegmentResult(Classification):
    stage_output: StageOutput       # the frame the labels belong to


def segment_cloud(cloud: PointCloud, model: ForestModel, config: PipelineConfig,
                  pose_plane: Optional[GroundPlane] = None) -> SegmentResult:
    """Full pipeline on one cloud with a trained model."""
    stages = run_stages(cloud, config, pose_plane)
    result = classify(stages, model, config)
    timings = {**stages.timings, **result.timings}
    timings["total"] = sum(timings.values())
    return SegmentResult(
        distributions=result.distributions, labeling=result.labeling,
        point_labels=result.point_labels, unary_point_labels=result.unary_point_labels,
        timings=timings, stage_output=stages)
