"""Pointwise multi-label metrics and the cross-validation harness.

Metrics are accumulated per 3D point over 7 classes; points whose ground
truth is `unknown` never count, and points the pipeline could not cover
(discarded patches) are excluded from the matrix but tracked so coverage
can be reported. Class-average accuracy is the mean of the per-class
recalls over the classes that actually occur in the test data; global
accuracy is the fraction of counted points labeled correctly.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .cloud import PointCloud
from .errors import EvaluationError, FrameDiscardError, InputError, TrainingError
from .forest import ForestModel, TrainingSet, train_forest
from .labels import LABEL_NAMES, NUM_TRAINABLE, Label
from .overseg import PatchGraph
from .pipeline import (
    PipelineConfig,
    classify,
    patch_majority_labels,
    run_stages,
)


class ConfusionMatrix:
    """7x7 pointwise counts; rows are ground truth, columns predictions."""

    def __init__(self):
        self.counts = np.zeros((NUM_TRAINABLE, NUM_TRAINABLE), dtype=np.int64)
        self.excluded_uncovered = 0

    def add(self, ground_truth: np.ndarray, predicted: np.ndarray) -> "ConfusionMatrix":
        gt = np.asarray(ground_truth).ravel()
        pred = np.asarray(predicted).ravel()
        if gt.shape != pred.shape:
            raise InputError(
                f"ground truth has {gt.shape[0]} points, prediction {pred.shape[0]}")
        known = gt != int(Label.UNKNOWN)
        covered = pred != int(Label.UNKNOWN)
        counted = known & covered
        self.excluded_uncovered += int((known & ~covered).sum())
        if counted.any():
            flat = gt[counted].astype(np.int64) * NUM_TRAINABLE + pred[counted]
            self.counts += np.bincount(
                flat, minlength=NUM_TRAINABLE * NUM_TRAINABLE
            ).reshape(NUM_TRAINABLE, NUM_TRAINABLE)
        return self

    def merge(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        self.counts += other.counts
        self.excluded_uncovered += other.excluded_uncovered
        return self

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def per_class_accuracy(self) -> np.ndarray:
        """Per-class recall; NaN for classes with no ground-truth support."""
        support = self.counts.sum(axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            acc = np.diag(self.counts) / support
        return np.where(support > 0, acc, np.nan)

    def class_average(self) -> float:
        acc = self.per_class_accuracy()
        present = ~np.isnan(acc)
        if not present.any():
            return float("nan")
        return float(acc[present].mean())

    def global_accuracy(self) -> float:
        total = self.total
        if total == 0:
            return float("nan")
        return float(np.trace(self.counts) / total)

    def coverage(self) -> float:
        denom = self.total + self.excluded_uncovered
        if denom == 0:
            return float("nan")
        return float(self.total / denom)


def kfold_split(ids: Sequence, k: int = 5, seed: int = 0) -> list[list]:
    """Disjoint folds covering all ids, sizes within 1, fixed by the seed."""
    ids = list(ids)
    if k < 2:
        raise InputError(f"k must be >= 2, got {k}")
    if k > len(ids):
        raise InputError(f"k={k} exceeds {len(ids)} frames")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x6B666F6C]))
    perm = rng.permutation(len(ids))
    return [[ids[i] for i in chunk] for chunk in np.array_split(perm, k)]


@dataclass
class FramePrep:
    """Cached per-frame pipeline state, enough to train and score models.
    Never the cloud: per point, only ``point_gt`` and ``graph.point_to_patch``.
    Nothing here reads ``frame_id``; it stays because the benchmark
    (``perfbench/harness.py``) names its preps through ``prepare_frame``."""

    frame_id: str
    point_gt: np.ndarray          # (N,) ground-truth ids, 0..7
    graph: PatchGraph             # patches, sizes, adjacency, aligned centroids
    features: np.ndarray          # (P, 14), row p for patch p
    patch_gt: np.ndarray          # (P,) majority ground truth per patch
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def point_to_feature(self) -> np.ndarray:
        """``graph.point_to_patch``. Kept only because the benchmark
        (``perfbench/harness.py``) reads it."""
        return self.graph.point_to_patch


def prepare_frame(cloud: PointCloud, config: PipelineConfig,
                  frame_id: str = "") -> FramePrep:
    """Run the label-independent stages once; reusable across models.
    ``frame_id`` is only stored on the prep, for the benchmark's sake."""
    if cloud.labels is None:
        raise InputError("evaluation needs ground-truth labeled clouds")
    stages = run_stages(cloud, config)
    return FramePrep(
        frame_id=frame_id,
        point_gt=stages.cloud.labels.copy(),
        graph=stages.graph,
        features=stages.features,
        patch_gt=patch_majority_labels(stages.graph, stages.cloud),
        timings=stages.timings,
    )


def train_from_preps(preps: Sequence[FramePrep], config: PipelineConfig,
                     seed: Optional[int] = None) -> ForestModel:
    """Forest from the cached patches of the given frames (no `unknown`)."""
    feats, labels = [], []
    for prep in preps:
        trainable = prep.patch_gt != int(Label.UNKNOWN)
        feats.append(prep.features[trainable])
        labels.append(prep.patch_gt[trainable])
    x = np.concatenate(feats) if feats else np.zeros((0, 14))
    y = np.concatenate(labels) if labels else np.zeros(0, dtype=np.int64)
    if y.shape[0] == 0:
        raise TrainingError(
            f"no frame produced a trainable patch: every patch fell below "
            f"min_patch_points={config.min_patch_points} points or had unknown ground "
            f"truth; see the README section \"Matching resolutions to point density\"")
    params = config.forest_params()
    if seed is not None:
        params = replace(params, seed=seed)
    return train_forest(TrainingSet(features=x, labels=y), params)


def score_prep(prep: FramePrep, model: ForestModel, config: PipelineConfig,
               cm_mrf: ConfusionMatrix, cm_unary: ConfusionMatrix) -> None:
    """Classify one cached frame and accumulate both confusion matrices."""
    result = classify(prep.graph, prep.features, model, config)
    cm_mrf.add(prep.point_gt, result.point_labels)
    cm_unary.add(prep.point_gt, result.unary_point_labels)


@dataclass
class EvalReport:
    confusion: ConfusionMatrix
    confusion_unary: ConfusionMatrix
    frames_evaluated: int
    frames_discarded: int
    timing_ms: dict[str, float]

    @property
    def per_class_accuracy(self) -> np.ndarray:
        return self.confusion.per_class_accuracy()

    @property
    def class_average(self) -> float:
        return self.confusion.class_average()

    @property
    def global_accuracy(self) -> float:
        return self.confusion.global_accuracy()

    def to_dict(self) -> dict:
        per_class = {
            name: (None if np.isnan(v) else float(v))
            for name, v in zip(LABEL_NAMES[:NUM_TRAINABLE], self.per_class_accuracy)
        }
        return {
            "per_class_accuracy": per_class,
            "class_average": _none_if_nan(self.class_average),
            "global_accuracy": _none_if_nan(self.global_accuracy),
            "unary_class_average": _none_if_nan(self.confusion_unary.class_average()),
            "unary_global_accuracy": _none_if_nan(self.confusion_unary.global_accuracy()),
            "coverage": _none_if_nan(self.confusion.coverage()),
            "frames_evaluated": self.frames_evaluated,
            "frames_discarded": self.frames_discarded,
            "confusion_matrix": self.confusion.counts.tolist(),
            "timing_ms": {k: round(v, 3) for k, v in self.timing_ms.items()},
        }

    def to_text(self) -> str:
        lines = ["evaluation report", "================="]
        for name, v in zip(LABEL_NAMES[:NUM_TRAINABLE], self.per_class_accuracy):
            lines.append(f"accuracy[{name}]: " + ("-" if np.isnan(v) else f"{100 * v:.1f}%"))
        lines.append(f"class_average: {100 * self.class_average:.1f}%")
        lines.append(f"global_accuracy: {100 * self.global_accuracy:.1f}%")
        lines.append(f"unary_global_accuracy: "
                     f"{100 * self.confusion_unary.global_accuracy():.1f}%")
        lines.append(f"coverage: {100 * self.confusion.coverage():.1f}%")
        lines.append(f"frames_evaluated: {self.frames_evaluated}")
        lines.append(f"frames_discarded: {self.frames_discarded}")
        lines.append("confusion matrix (rows = truth):")
        header = "        " + "".join(f"{n[:7]:>9}" for n in LABEL_NAMES[:NUM_TRAINABLE])
        lines.append(header)
        for i, name in enumerate(LABEL_NAMES[:NUM_TRAINABLE]):
            row = "".join(f"{int(c):>9}" for c in self.confusion.counts[i])
            lines.append(f"{name[:7]:>7} {row}")
        lines.append("mean per-frame timings (ms):")
        for key, value in self.timing_ms.items():
            lines.append(f"  {key}: {value:.1f}")
        return "\n".join(lines) + "\n"

    def save(self, text_path: str | Path, json_path: str | Path) -> None:
        Path(text_path).write_text(self.to_text())
        Path(json_path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")


def _none_if_nan(v: float):
    return None if np.isnan(v) else float(v)


def prepare_frames(clouds: Sequence[PointCloud],
                   config: PipelineConfig) -> tuple[list[FramePrep], int]:
    """Prepare all frames, dropping the ones whose ground plane fit fails;
    raises EvaluationError, with the first one's reason, if all of them do."""
    preps, first_discard = [], None
    for cloud in clouds:
        try:
            preps.append(prepare_frame(cloud, config))
        except FrameDiscardError as e:
            first_discard = first_discard or e
    if first_discard is not None and not preps:
        raise EvaluationError(f"all {len(clouds)} frames were discarded without a usable "
                              f"ground plane; the first: {first_discard}")
    return preps, len(clouds) - len(preps)


def evaluate_split(train_preps: Sequence[FramePrep], test_preps: Sequence[FramePrep],
                   config: PipelineConfig) -> tuple[ConfusionMatrix, ConfusionMatrix]:
    model = train_from_preps(train_preps, config)
    cm_mrf, cm_unary = ConfusionMatrix(), ConfusionMatrix()
    for prep in test_preps:
        score_prep(prep, model, config, cm_mrf, cm_unary)
    return cm_mrf, cm_unary


def cross_validate(clouds: Sequence[PointCloud], config: PipelineConfig,
                   k: int = 5, seed: int = 0) -> EvalReport:
    """K-fold protocol: train on k-1 folds of frames, test on the held-out one."""
    if not clouds:
        raise InputError("cross_validate needs at least one cloud")
    # before the prep; kfold_split checks again against the frames kept
    if not 2 <= k <= len(clouds):
        raise InputError(f"k must be in 2..{len(clouds)} (the number of clouds), got {k}")
    t_start = time.perf_counter()
    preps, discarded = prepare_frames(clouds, config)
    folds = kfold_split(list(range(len(preps))), k=k, seed=seed)

    cm_mrf, cm_unary = ConfusionMatrix(), ConfusionMatrix()
    for fold in folds:
        test_set = set(fold)
        train_preps = [p for i, p in enumerate(preps) if i not in test_set]
        test_preps = [preps[i] for i in fold]
        fold_mrf, fold_unary = evaluate_split(train_preps, test_preps, config)
        cm_mrf.merge(fold_mrf)
        cm_unary.merge(fold_unary)

    timing_ms = mean_timings(preps)
    timing_ms["wall_total"] = (time.perf_counter() - t_start) * 1000.0
    return EvalReport(confusion=cm_mrf, confusion_unary=cm_unary,
                      frames_evaluated=len(preps), frames_discarded=discarded,
                      timing_ms=timing_ms)


def mean_timings(preps: Sequence[FramePrep]) -> dict[str, float]:
    keys = dict.fromkeys(k for p in preps for k in p.timings)
    return {
        key: 1000.0 * float(np.mean([p.timings.get(key, 0.0) for p in preps]))
        for key in keys
    }


