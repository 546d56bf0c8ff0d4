"""Randomized decision forest over patch feature vectors.

Trees split on randomly sampled (feature, threshold) candidates scored by
Shannon information gain, all candidates of a node in one binned pass: a
sample's bin is the number of a candidate's sorted thresholds at or below
its value, counted by compares over a bounded slice of samples at a time.
Leaves store the empirical label histogram of the training samples that
reached them. Trees grow depth-first from an explicit stack, so depth
costs no recursion. Prediction routes every row through every tree in one
vectorized pass over the concatenated node arrays and averages the leaf
distributions over all trees. There is no bagging: randomness comes only
from the split sampling, each tree drawing from its own derived stream.

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
        if self.seed < 0:
            raise TrainingError("seed must be >= 0")


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
    training_meta: dict = field(default_factory=dict)

    @property
    def num_trees(self) -> int:
        return len(self.trees)


def _entropy(hist: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Shannon entropy in bits of each row of an (R, 7) histogram whose row
    sums are ``totals``."""
    p = hist / totals[:, None]
    return -(p * np.log2(np.where(p > 0, p, 1.0))).sum(axis=1)


def _grow_tree(columns: np.ndarray, y: np.ndarray, params: ForestParams,
               rng: np.random.Generator, class_weights: np.ndarray,
               weight_sums: np.ndarray) -> FlatTree:
    """One tree over all samples, ``columns`` holding one row per feature. Nodes
    are in preorder: a split searches before its left subtree, left before right.
    The nodes still to grow wait on an explicit stack, so depth costs no
    recursion; each writes its index into its parent's left or right slot."""
    nodes: list[list] = []  # [kind, feature, threshold, left, right, distribution, support]
    stack = [(np.arange(y.shape[0]), 0, None)]  # (indices, depth, (parent, slot) or None)
    while stack:
        indices, depth, link = stack.pop()
        if link is not None:
            nodes[link[0]][link[1]] = len(nodes)
        labels = y[indices]
        n = indices.shape[0]
        counts = np.bincount(labels, minlength=NUM_TRAINABLE)
        split = None
        if depth < params.max_depth and n >= params.min_samples_split and counts.max() < n:
            split = _best_split(columns, indices, labels, params, rng, class_weights,
                                weight_sums)
        if split is None:
            hist = counts.astype(np.float64)
            nodes.append([KIND_LEAF, -1, 0.0, -1, -1, hist / hist.sum(), n])
            continue
        feat, thr, go_left = split
        node = len(nodes)
        nodes.append([KIND_SPLIT, feat, thr, -1, -1, np.zeros(NUM_TRAINABLE), 0])
        # the left child is popped first, so its subtree takes the next indices
        stack.append((indices[~go_left], depth + 1, (node, 4)))
        stack.append((indices[go_left], depth + 1, (node, 3)))
    kind, feature, threshold, left, right, distribution, support = zip(*nodes)
    return FlatTree(np.array(kind, np.uint8), np.array(feature, np.int16),
                    np.array(threshold, np.float64), np.array(left, np.int32),
                    np.array(right, np.int32), np.stack(distribution), np.array(support, np.int64))


_BIN_BYTES = 1 << 18  # bytes of threshold compares per slice of samples


def _bin_codes(values: np.ndarray, thresholds: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """(m, n) codes ``(i * (T + 1) + bin) * 7 + label`` for candidate i's values,
    where ``bin`` counts candidate i's sorted thresholds <= the value: the
    ``searchsorted(side="right")`` index, taken as a sum of compares over a
    slice of samples at a time, so the bool temporary stays within
    ``_BIN_BYTES`` whatever T is."""
    m, n = values.shape
    n_thr = thresholds.shape[1]
    count_type = np.min_scalar_type(n_thr)  # the smallest unsigned type holding T
    codes = np.empty((m, n), dtype=np.intp)
    below = thresholds.T[:, :, None]
    step = max(1, _BIN_BYTES // (n_thr * m))
    for start in range(0, n, step):
        block = values[:, start:start + step]
        codes[:, start:start + step] = (below <= block).sum(axis=0, dtype=count_type)
    codes += np.arange(0, m * (n_thr + 1), n_thr + 1)[:, None]
    codes *= NUM_TRAINABLE
    codes += labels
    return codes


def _best_split(columns: np.ndarray, indices: np.ndarray, labels: np.ndarray,
                params: ForestParams, rng: np.random.Generator,
                class_weights: np.ndarray, weight_sums: np.ndarray):
    """(feature, threshold, go_left) of the highest-gain sampled candidate,
    or None; ``go_left`` marks the node's samples with value < threshold.

    All of the node's candidates are scored in one binned pass: their
    values form one (candidates, samples) array, a sum of threshold compares
    bins them (`_bin_codes`), and one bincount and one cumsum give the left
    histogram of every (candidate, threshold) pair."""
    n = indices.shape[0]
    n_feat = columns.shape[0]
    n_thr = params.thresholds_per_candidate
    cand_feats = rng.choice(n_feat, size=min(params.candidates_per_node, n_feat),
                            replace=False)
    cand_feats.sort()
    values = columns[cand_feats[:, None], indices]
    lo, hi = values.min(axis=1), values.max(axis=1)
    varies = hi > lo
    if not varies.all():
        if not varies.any():
            return None
        # a constant candidate draws nothing; row i holds the draws that one
        # uniform(lo, hi, n_thr) call per varying candidate makes, in order
        cand_feats, values, lo, hi = cand_feats[varies], values[varies], lo[varies], hi[varies]
    m = cand_feats.shape[0]
    thresholds = rng.uniform(lo[:, None], hi[:, None], size=(m, n_thr))
    thresholds.sort(axis=1)
    # threshold j sends bins 0..j left (value < threshold) and the rest right
    counts = np.bincount(_bin_codes(values, thresholds, labels).ravel(),
                         minlength=m * (n_thr + 1) * NUM_TRAINABLE)
    counts = counts.reshape(m, n_thr + 1, NUM_TRAINABLE)
    left_counts = np.cumsum(counts[:, :n_thr], axis=1)
    n_left = left_counts.sum(axis=2)
    both_sides = (n_left > 0) & (n_left < n)

    # candidate 0's bins hold every sample once
    parent_hist = counts[0].sum(axis=0) * class_weights
    left_hist = weight_sums[left_counts[both_sides], np.arange(NUM_TRAINABLE)]
    k = left_hist.shape[0]
    # rows: the parent, then each pair's left side, then its right side
    hists = np.concatenate([parent_hist[None, :], left_hist, parent_hist - left_hist])
    totals = hists.sum(axis=1)
    entropies = _entropy(hists, totals)
    gains = entropies[0] - (totals[1:k + 1] * entropies[1:k + 1]
                            + totals[k + 1:] * entropies[k + 1:]) / totals[0]

    best = None  # (gain, candidate row, threshold); ties keep the earliest
    for gain, row, thr in zip(gains.tolist(), np.nonzero(both_sides)[0].tolist(),
                              thresholds[both_sides].tolist()):
        if gain > 1e-12 and (best is None or gain > best[0] + 1e-15):
            best = (gain, row, thr)
    if best is None:
        return None
    _, row, thr = best
    return int(cand_feats[row]), thr, values[row] < thr


def _canonical_order(features: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """The stable permutation that sorts rows by label, then by each feature
    in turn: ``np.lexsort`` over all 15 keys. Sorting by (label, feature 0)
    gives the same permutation when no two rows tie on both keys; only when
    some do (``0.0`` and ``-0.0`` tie too) does the full sort run."""
    order = np.lexsort((features[:, 0], labels))
    first, y = features[order, 0], labels[order]
    if ((first[1:] == first[:-1]) & (y[1:] == y[:-1])).any():
        order = np.lexsort(tuple(features[:, c] for c in range(FEATURE_DIM - 1, -1, -1))
                           + (labels,))
    return order


def train_forest(data: TrainingSet, params: ForestParams = ForestParams()) -> ForestModel:
    """Grow the forest; deterministic for a given (data, params)."""
    order = _canonical_order(data.features, data.labels)
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
    trees = [_grow_tree(columns, y, params, np.random.default_rng(stream), class_weights,
                        weight_sums) for stream in streams]

    digest = hashlib.sha256()
    digest.update(x.tobytes())
    digest.update(y.tobytes())
    meta = {"seed": params.seed, "num_samples": int(len(data)),
            "dataset_hash": digest.hexdigest()}
    return ForestModel(trees=trees, params=params, training_meta=meta)


def predict_batch(model: ForestModel, xs: np.ndarray) -> np.ndarray:
    """(M, 7) distributions for M feature vectors.

    The trees' nodes are concatenated into one set of arrays, in which a
    leaf points to itself, and every (tree, row) pair moves one level per
    round in one vectorized step: at most ``max_depth + 1`` rounds for the
    whole forest. The reached leaf distributions are added in tree order."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != FEATURE_DIM:
        raise PredictionError(f"feature matrix must be (M, {FEATURE_DIM}), got {xs.shape}")
    if not np.isfinite(xs).all():
        raise PredictionError("feature matrix contains non-finite values")
    m = xs.shape[0]
    trees = model.trees
    sizes = [tree.kind.shape[0] for tree in trees]
    starts = np.cumsum([0] + sizes[:-1])
    offsets = np.repeat(starts, sizes)
    is_split = np.concatenate([tree.kind == KIND_SPLIT for tree in trees])
    # a leaf reads feature 0 of its row and goes back to itself either way
    own = np.arange(is_split.shape[0])
    left = np.where(is_split, np.concatenate([tree.left for tree in trees]) + offsets, own)
    right = np.where(is_split, np.concatenate([tree.right for tree in trees]) + offsets, own)
    feature = np.where(is_split, np.concatenate([tree.feature for tree in trees]), 0)
    threshold = np.concatenate([tree.threshold for tree in trees])

    # node[t, r]: where tree t has routed row r so far
    node = np.repeat(starts[:, None], m, axis=1)
    row_base = np.arange(0, m * FEATURE_DIM, FEATURE_DIM)
    flat = xs.ravel()
    for _ in range(model.params.max_depth + 1):
        if not is_split[node].any():
            break
        vals = flat[row_base + feature[node]]
        node = np.where(vals < threshold[node], left[node], right[node])
    if is_split[node].any():
        raise PredictionError(
            f"a tree routes rows past max_depth={model.params.max_depth} "
            "without reaching a leaf")
    distribution = np.concatenate([tree.distribution for tree in trees])
    acc = np.zeros((m, NUM_TRAINABLE))
    for leaves in node:
        acc += distribution[leaves]
    return acc / len(trees)


def save_model(model: ForestModel, path: str | Path) -> None:
    doc = {
        "format_version": FORMAT_VERSION,
        "feature_contract_version": FEATURE_CONTRACT_VERSION,
        "labels": list(LABEL_NAMES[:NUM_TRAINABLE]),
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
