"""Randomized decision forest over patch feature vectors.

Trees split on randomly sampled (feature, threshold) candidates scored by
Shannon information gain, all thresholds of a feature in one binned pass;
leaves store the empirical label histogram of the training samples that
reached them. Prediction averages the leaf distributions over all trees.
There is no bagging: randomness comes only from the split sampling, each
tree drawing from its own derived stream.

Training sorts samples lexicographically first, so sample order never
affects the model. Models serialize to a versioned JSON file whose bytes
are deterministic for a given (data, params) pair.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import ModelFormatError, PredictionError, TrainingError, checked_fields, \
    read_text
from .features import FEATURE_CONTRACT_VERSION, FEATURE_DIM
from .labels import LABEL_NAMES, NUM_TRAINABLE

FORMAT_VERSION = 1

KIND_SPLIT = 0
KIND_LEAF = 1


@dataclass(frozen=True)
class ForestParams:
    num_trees: int = 8
    max_depth: int = 8
    candidates_per_node: int = 4
    thresholds_per_candidate: int = 10
    min_samples_split: int = 2
    seed: int = 0
    class_balanced: bool = False

    def __post_init__(self):
        if self.num_trees < 1 or self.max_depth < 0:
            raise TrainingError("num_trees must be >= 1 and max_depth >= 0")
        if self.candidates_per_node < 1 or self.thresholds_per_candidate < 1:
            raise TrainingError("candidate counts must be >= 1")
        if self.min_samples_split < 2:
            raise TrainingError("min_samples_split must be >= 2")


@dataclass(frozen=True)
class TrainingSet:
    features: np.ndarray  # (N, 14) float64
    labels: np.ndarray    # (N,) int, never `unknown`

    def __post_init__(self):
        features = np.ascontiguousarray(self.features, dtype=np.float64)
        labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if features.ndim != 2 or features.shape[1] != FEATURE_DIM:
            raise TrainingError(f"features must be (N, {FEATURE_DIM}), got {features.shape}")
        if features.shape[0] == 0:
            raise TrainingError("training set is empty")
        if labels.shape != (features.shape[0],):
            raise TrainingError("labels shape does not match features")
        if not np.isfinite(features).all():
            raise TrainingError("features contain non-finite values")
        if labels.min() < 0 or labels.max() >= NUM_TRAINABLE:
            raise TrainingError(
                f"labels must be in 0..{NUM_TRAINABLE - 1} (no `unknown` targets)")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.features.shape[0]


@dataclass
class FlatTree:
    """One tree as parallel node arrays; node 0 is the root."""

    kind: np.ndarray          # (n,) uint8, KIND_SPLIT or KIND_LEAF
    feature: np.ndarray       # (n,) int16, valid for splits
    threshold: np.ndarray     # (n,) float64, valid for splits
    left: np.ndarray          # (n,) int32
    right: np.ndarray         # (n,) int32
    distribution: np.ndarray  # (n, 7) float64, valid for leaves
    support: np.ndarray       # (n,) int64, valid for leaves

    def depth(self) -> int:
        depths = np.zeros(self.kind.shape[0], dtype=np.int32)
        for i in range(self.kind.shape[0]):
            if self.kind[i] == KIND_SPLIT:
                depths[self.left[i]] = depths[i] + 1
                depths[self.right[i]] = depths[i] + 1
        return int(depths.max(initial=0))


@dataclass
class ForestModel:
    trees: list[FlatTree]
    params: ForestParams
    label_names: tuple[str, ...] = tuple(LABEL_NAMES[:NUM_TRAINABLE])
    feature_contract_version: int = FEATURE_CONTRACT_VERSION
    training_meta: dict = field(default_factory=dict)

    @property
    def num_trees(self) -> int:
        return len(self.trees)


def _entropy(hist: np.ndarray) -> np.ndarray:
    """Shannon entropy in bits of each row of an (R, 7) histogram."""
    p = hist / hist.sum(axis=1, keepdims=True)
    return -(p * np.log2(np.where(p > 0, p, 1.0))).sum(axis=1)


class _TreeBuilder:
    def __init__(self, columns: np.ndarray, y: np.ndarray, params: ForestParams,
                 rng: np.random.Generator, class_weights: np.ndarray,
                 weight_sums: np.ndarray):
        self.columns = columns  # (14, N): one contiguous row per feature
        self.y = y
        self.params = params
        self.rng = rng
        self.class_weights = class_weights
        self.weight_sums = weight_sums
        self.kind: list[int] = []
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.distribution: list[np.ndarray] = []
        self.support: list[int] = []

    def _add_node(self) -> int:
        self.kind.append(KIND_LEAF)
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.distribution.append(np.zeros(NUM_TRAINABLE))
        self.support.append(0)
        return len(self.kind) - 1

    def grow(self, indices: np.ndarray, depth: int) -> int:
        node = self._add_node()
        labels = self.y[indices]
        n = indices.shape[0]

        split = None
        if depth < self.params.max_depth and n >= self.params.min_samples_split \
                and labels.min() != labels.max():
            split = self._best_split(indices, labels)

        if split is None:
            hist = np.bincount(labels, minlength=NUM_TRAINABLE).astype(np.float64)
            self.distribution[node] = hist / hist.sum()
            self.support[node] = n
            return node

        feat, thr = split
        go_left = self.columns[feat][indices] < thr
        self.kind[node] = KIND_SPLIT
        self.feature[node] = feat
        self.threshold[node] = thr
        self.left[node] = self.grow(indices[go_left], depth + 1)
        self.right[node] = self.grow(indices[~go_left], depth + 1)
        return node

    def _best_split(self, indices: np.ndarray, labels: np.ndarray):
        params = self.params
        n = indices.shape[0]
        n_feat = self.columns.shape[0]
        n_thr = params.thresholds_per_candidate
        cand_feats = np.sort(self.rng.choice(
            n_feat, size=min(params.candidates_per_node, n_feat), replace=False))

        parent_hist = np.bincount(labels, minlength=NUM_TRAINABLE) * self.class_weights
        parent_total = parent_hist.sum()
        parent_entropy = _entropy(parent_hist[None, :])[0]
        classes = np.arange(NUM_TRAINABLE)

        best = None  # (gain, feature, threshold); ties keep the earliest
        for feat in cand_feats:
            values = self.columns[feat][indices]
            lo, hi = values.min(), values.max()
            if not hi > lo:
                continue
            thresholds = np.sort(self.rng.uniform(lo, hi, size=n_thr))
            # bin b counts the thresholds <= value, so threshold j sends
            # bins 0..j left (value < threshold) and the rest right
            bins = np.searchsorted(thresholds, values, side="right")
            counts = np.bincount(bins * NUM_TRAINABLE + labels,
                                 minlength=(n_thr + 1) * NUM_TRAINABLE)
            left_counts = np.cumsum(counts.reshape(n_thr + 1, NUM_TRAINABLE)[:n_thr], axis=0)
            n_left = left_counts.sum(axis=1)
            both_sides = (n_left > 0) & (n_left < n)
            left_hist = self.weight_sums[left_counts[both_sides], classes]
            right_hist = parent_hist - left_hist
            gains = parent_entropy - (
                left_hist.sum(axis=1) * _entropy(left_hist)
                + right_hist.sum(axis=1) * _entropy(right_hist)
            ) / parent_total
            for gain, thr in zip(gains.tolist(), thresholds[both_sides].tolist()):
                if gain > 1e-12 and (best is None or gain > best[0] + 1e-15):
                    best = (gain, int(feat), thr)
        if best is None:
            return None
        return best[1], best[2]

    def finish(self) -> FlatTree:
        return FlatTree(
            kind=np.array(self.kind, dtype=np.uint8),
            feature=np.array(self.feature, dtype=np.int16),
            threshold=np.array(self.threshold, dtype=np.float64),
            left=np.array(self.left, dtype=np.int32),
            right=np.array(self.right, dtype=np.int32),
            distribution=np.stack(self.distribution),
            support=np.array(self.support, dtype=np.int64),
        )


def train_forest(data: TrainingSet, params: ForestParams = ForestParams()) -> ForestModel:
    """Grow the forest; deterministic for a given (data, params)."""
    order = np.lexsort(tuple(data.features[:, c] for c in range(FEATURE_DIM - 1, -1, -1))
                       + (data.labels,))
    x = data.features[order]
    y = data.labels[order]

    class_weights = np.ones(NUM_TRAINABLE)
    if params.class_balanced:
        counts = np.bincount(y, minlength=NUM_TRAINABLE).astype(np.float64)
        class_weights = np.where(counts > 0, counts.sum() / np.maximum(counts, 1.0), 0.0)
    # weight_sums[k, c]: k class-c weights added one at a time, as a running
    # sum over sorted samples adds them; k * w rounds differently
    weight_sums = np.zeros((x.shape[0] + 1, NUM_TRAINABLE))
    np.cumsum(np.full((x.shape[0], NUM_TRAINABLE), class_weights), axis=0, out=weight_sums[1:])

    columns = np.ascontiguousarray(x.T)
    streams = np.random.SeedSequence(params.seed).spawn(params.num_trees)
    trees = []
    for t in range(params.num_trees):
        builder = _TreeBuilder(columns, y, params, np.random.default_rng(streams[t]),
                               class_weights, weight_sums)
        builder.grow(np.arange(x.shape[0]), depth=0)
        trees.append(builder.finish())

    digest = hashlib.sha256()
    digest.update(x.tobytes())
    digest.update(y.tobytes())
    meta = {"seed": params.seed, "num_samples": int(len(data)),
            "dataset_hash": digest.hexdigest()}
    return ForestModel(trees=trees, params=params, training_meta=meta)


def predict_batch(model: ForestModel, xs: np.ndarray) -> np.ndarray:
    """(M, 7) distributions for M feature vectors (vectorized routing)."""
    if model.feature_contract_version != FEATURE_CONTRACT_VERSION:
        raise PredictionError(
            f"model feature contract v{model.feature_contract_version} != "
            f"v{FEATURE_CONTRACT_VERSION}")
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != FEATURE_DIM:
        raise PredictionError(f"feature matrix must be (M, {FEATURE_DIM}), got {xs.shape}")
    if not np.isfinite(xs).all():
        raise PredictionError("feature matrix contains non-finite values")
    m = xs.shape[0]
    acc = np.zeros((m, NUM_TRAINABLE))
    rows = np.arange(m)
    for tree in model.trees:
        node = np.zeros(m, dtype=np.int32)
        for _ in range(model.params.max_depth + 1):
            at_split = tree.kind[node] == KIND_SPLIT
            if not at_split.any():
                break
            r = rows[at_split]
            n = node[at_split]
            vals = xs[r, tree.feature[n]]
            node[at_split] = np.where(vals < tree.threshold[n], tree.left[n], tree.right[n])
        if (tree.kind[node] == KIND_SPLIT).any():
            raise PredictionError(
                f"a tree routes rows past max_depth={model.params.max_depth} "
                "without reaching a leaf")
        acc += tree.distribution[node]
    return acc / len(model.trees)


def save_model(model: ForestModel, path: str | Path) -> None:
    doc = {
        "format_version": FORMAT_VERSION,
        "feature_contract_version": model.feature_contract_version,
        "labels": list(model.label_names),
        "params": asdict(model.params),
        "training_meta": model.training_meta,
        "trees": [_tree_to_doc(t) for t in model.trees],
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def _tree_to_doc(tree: FlatTree) -> dict:
    nodes = []
    for i in range(tree.kind.shape[0]):
        if tree.kind[i] == KIND_SPLIT:
            nodes.append({"kind": "split", "feature": int(tree.feature[i]),
                          "threshold": float(tree.threshold[i]),
                          "left": int(tree.left[i]), "right": int(tree.right[i])})
        else:
            nodes.append({"kind": "leaf",
                          "distribution": [float(v) for v in tree.distribution[i]],
                          "support": int(tree.support[i])})
    return {"nodes": nodes}


def load_model(path: str | Path) -> ForestModel:
    """Parse and validate a model file; raises ModelFormatError on any defect."""
    text = read_text(path, ModelFormatError)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ModelFormatError(f"{path}: invalid JSON at position {e.pos}: {e.msg}") from None

    def need(key):
        if not isinstance(doc, dict) or key not in doc:
            raise ModelFormatError(f"{path}: missing field {key!r} in document")
        return doc[key]

    fmt = need("format_version")
    if fmt != FORMAT_VERSION:
        raise ModelFormatError(
            f"{path}: field 'format_version' is {fmt}, expected {FORMAT_VERSION}")
    contract = need("feature_contract_version")
    if contract != FEATURE_CONTRACT_VERSION:
        raise ModelFormatError(
            f"{path}: field 'feature_contract_version' is {contract}, "
            f"expected {FEATURE_CONTRACT_VERSION}")
    if need("labels") != list(LABEL_NAMES[:NUM_TRAINABLE]):
        raise ModelFormatError(f"{path}: field 'labels' does not match {LABEL_NAMES[:NUM_TRAINABLE]}")
    params = ForestParams(**checked_fields(ForestParams, need("params"), f"{path}: params",
                                           ModelFormatError, required=True))

    trees_doc = need("trees")
    if not isinstance(trees_doc, list) or len(trees_doc) != params.num_trees:
        raise ModelFormatError(
            f"{path}: field 'trees' must be a list of {params.num_trees} trees, as params say")
    trees = [_tree_from_doc(tdoc, f"{path}: tree {i}") for i, tdoc in enumerate(trees_doc)]
    for i, tree in enumerate(trees):
        if tree.depth() > params.max_depth:
            raise ModelFormatError(f"{path}: tree {i} deeper than max_depth")
    return ForestModel(trees=trees, params=params, training_meta=doc.get("training_meta", {}))


def _is_int(value) -> bool:
    return type(value) is int  # a JSON integer; bool is not one


def _tree_from_doc(tdoc, where: str) -> FlatTree:
    nodes = tdoc.get("nodes") if isinstance(tdoc, dict) else None
    if not isinstance(nodes, list) or not nodes:
        raise ModelFormatError(f"{where}: field 'nodes' missing, empty or not a list")
    n = len(nodes)
    kind = np.zeros(n, dtype=np.uint8)
    feature = np.full(n, -1, dtype=np.int16)
    threshold = np.zeros(n, dtype=np.float64)
    left = np.full(n, -1, dtype=np.int32)
    right = np.full(n, -1, dtype=np.int32)
    distribution = np.zeros((n, NUM_TRAINABLE))
    support = np.zeros(n, dtype=np.int64)
    for i, node in enumerate(nodes):
        if not isinstance(node, dict):
            raise ModelFormatError(f"{where} node {i}: not a JSON object")

        def get(key, valid):
            value = node.get(key)
            if not valid(value):
                raise ModelFormatError(f"{where} node {i}: field {key!r} missing or invalid")
            return value

        k = get("kind", lambda v: v in ("split", "leaf"))
        if k == "split":
            kind[i] = KIND_SPLIT
            feature[i] = get("feature", lambda v: _is_int(v) and 0 <= v < FEATURE_DIM)
            threshold[i] = get("threshold", lambda v: type(v) is float and np.isfinite(v))
            # the writer emits preorder, so children follow their parent
            left[i] = get("left", lambda v: _is_int(v) and i < v < n)
            right[i] = get("right", lambda v: _is_int(v) and i < v < n)
        else:
            kind[i] = KIND_LEAF
            dist = np.array(get("distribution", lambda v: isinstance(v, list)
                                and len(v) == NUM_TRAINABLE
                                and all(type(p) is float for p in v)))
            # also rejects NaN, which Python's JSON reader accepts
            if not ((dist >= 0).all() and abs(dist.sum() - 1.0) <= 1e-9):
                raise ModelFormatError(
                    f"{where} node {i}: field 'distribution' not a probability vector")
            distribution[i] = dist
            support[i] = get("support", lambda v: _is_int(v) and 1 <= v < 2 ** 63)
    split = kind == KIND_SPLIT
    parents = np.bincount(np.concatenate([left[split], right[split]]), minlength=n)
    orphan = np.nonzero(parents[1:] != 1)[0]
    if orphan.shape[0]:
        node = int(orphan[0]) + 1
        raise ModelFormatError(f"{where} node {node}: {parents[node]} parents, expected 1")
    return FlatTree(kind=kind, feature=feature, threshold=threshold, left=left,
                    right=right, distribution=distribution, support=support)
