import dataclasses
import gc
import json
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indoorseg import forest
from indoorseg.errors import ModelFormatError, PredictionError, TrainingError
from indoorseg.features import FEATURE_DIM
from indoorseg.forest import (
    KIND_LEAF,
    ForestParams,
    TrainingSet,
    load_model,
    predict_batch,
    save_model,
    train_forest,
)
from indoorseg.labels import NUM_TRAINABLE, Label

from conftest import peak_bytes


def _check_vector(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (FEATURE_DIM,):
        raise PredictionError(f"feature vector must have shape ({FEATURE_DIM},), got {x.shape}")
    if not np.isfinite(x).all():
        raise PredictionError("feature vector contains non-finite values")
    return x


def predict(model, x: np.ndarray) -> np.ndarray:
    """Oracle for `predict_batch`: one feature vector walked down each tree
    node by node, the mean of the reached leaves."""
    x = _check_vector(x)
    acc = np.zeros(NUM_TRAINABLE)
    for tree in model.trees:
        node = 0
        while tree.kind[node] == forest.KIND_SPLIT:
            node = tree.left[node] if x[tree.feature[node]] < tree.threshold[node] \
                else tree.right[node]
        acc += tree.distribution[node]
    return acc / len(model.trees)


def random_set(rng, n=200, classes=3):
    x = rng.uniform(-1, 1, size=(n, FEATURE_DIM))
    y = rng.integers(0, classes, size=n)
    return TrainingSet(features=x, labels=y)


def separable_set(rng, n=400):
    """Two classes split perfectly by feature 3 at 0.5."""
    x = rng.uniform(0, 1, size=(n, FEATURE_DIM))
    x[: n // 2, 3] = rng.uniform(0.0, 0.4, n // 2)
    x[n // 2:, 3] = rng.uniform(0.6, 1.0, n - n // 2)
    y = np.zeros(n, dtype=np.int64)
    y[n // 2:] = 1
    return TrainingSet(features=x, labels=y)


def peel_set(rng, scale=300):
    """Seven classes of 1-3x `scale` samples; feature c alone separates class c.

    Under class balancing every class weighs about N, so peeling off any one
    class gives the same gain up to rounding, and the split chosen depends on
    the exact weight sums (at ~4,000 samples, `count * weight` already picks
    differently from the running sum).
    """
    y = np.repeat(np.arange(NUM_TRAINABLE), rng.integers(scale, 3 * scale, NUM_TRAINABLE))
    x = rng.uniform(0.0, 0.1, size=(y.shape[0], FEATURE_DIM))
    x[np.arange(y.shape[0]), y] += 0.9
    return TrainingSet(features=x, labels=y)


def tie_heavy_set(rng, n=400, offset=0.0):
    """Features with 4 integer values; at offset 2**52 the float spacing is 1,
    so drawn thresholds land exactly on feature values."""
    x = offset + rng.integers(0, 4, size=(n, FEATURE_DIM)).astype(np.float64)
    return TrainingSet(features=x, labels=rng.integers(0, 5, size=n))


def half_constant_set(rng, n=300):
    """Every other feature is 1.0 in every row, so every node samples
    constant candidates, and some nodes sample nothing else."""
    data = random_set(rng, n=n, classes=4)
    x = data.features.copy()
    x[:, ::2] = 1.0
    return TrainingSet(features=x, labels=data.labels)


def full_lexsort(data):
    """The canonical row order: label, then features 0..13, then input order."""
    return np.lexsort(tuple(data.features[:, c] for c in range(FEATURE_DIM - 1, -1, -1))
                      + (data.labels,))


def _scalar_entropy(hist):
    total = hist.sum()
    if total <= 0:
        return 0.0
    p = hist[hist > 0] / total
    return float(-(p * np.log2(p)).sum())


def reference_best_split(columns, indices, labels, params, rng, class_weights, weight_sums):
    """The per-threshold split search: one stable sort and one running sum
    of weighted one-hot rows per candidate, two scalar entropies per
    threshold. Same RNG draws as the binned search, so the same model.
    Returns (feature, threshold, go_left) like ``forest._best_split``."""
    n_feat = columns.shape[0]
    cand_feats = np.sort(rng.choice(
        n_feat, size=min(params.candidates_per_node, n_feat), replace=False))
    parent_hist = np.bincount(labels, minlength=NUM_TRAINABLE) * class_weights
    parent_total = parent_hist.sum()
    parent_entropy = _scalar_entropy(parent_hist)
    onehot = np.zeros((labels.shape[0], NUM_TRAINABLE))
    onehot[np.arange(labels.shape[0]), labels] = 1.0
    onehot *= class_weights[labels][:, None]

    best = None
    for feat in cand_feats:
        values = columns[feat][indices]
        lo, hi = values.min(), values.max()
        if not hi > lo:
            continue
        thresholds = np.sort(rng.uniform(lo, hi, size=params.thresholds_per_candidate))
        order = np.argsort(values, kind="stable")
        cum = np.cumsum(onehot[order], axis=0)
        positions = np.searchsorted(values[order], thresholds, side="left")
        for thr, p in zip(thresholds, positions):
            if p <= 0 or p >= values.shape[0]:
                continue
            left_hist = cum[p - 1]
            right_hist = parent_hist - left_hist
            gain = parent_entropy - (
                left_hist.sum() * _scalar_entropy(left_hist)
                + right_hist.sum() * _scalar_entropy(right_hist)
            ) / parent_total
            if gain > 1e-12 and (best is None or gain > best[0] + 1e-15):
                best = (gain, int(feat), float(thr))
    if best is None:
        return None
    _, feat, thr = best
    return feat, thr, columns[feat][indices] < thr


def reference_forest(data, params):
    calls = []

    def counted(*args):
        calls.append(args)
        return reference_best_split(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(forest, "_best_split", counted)
        model = train_forest(data, params)
    # a split search bound before the patch would compare the binned search
    # with itself
    assert calls, "train_forest never called the patched forest._best_split"
    return model


def reference_bin_codes(values, thresholds, labels):
    """`forest._bin_codes` with one ``np.searchsorted(side="right")`` per
    candidate, building the (m, n) codes as the binned search first did."""
    m, n = values.shape
    n_thr = thresholds.shape[1]
    bins = np.empty((m, n), dtype=np.intp)
    for i in range(m):
        bins[i] = np.searchsorted(thresholds[i], values[i], side="right")
    bins += np.arange(0, m * (n_thr + 1), n_thr + 1)[:, None]
    return bins * NUM_TRAINABLE + labels


def reference_grow_tree(columns, y, params, rng, class_weights, weight_sums):
    """`forest._grow_tree` as a recursion: each call numbers its node, then
    grows the left subtree, then the right."""
    nodes = []

    def grow(indices, depth):
        node = len(nodes)
        nodes.append(())
        labels = y[indices]
        split = None
        if depth < params.max_depth and indices.shape[0] >= params.min_samples_split \
                and labels.min() != labels.max():
            split = forest._best_split(columns, indices, labels, params, rng, class_weights,
                                       weight_sums)
        if split is None:
            hist = np.bincount(labels, minlength=NUM_TRAINABLE).astype(np.float64)
            nodes[node] = (KIND_LEAF, -1, 0.0, -1, -1, hist / hist.sum(), indices.shape[0])
            return node
        feat, thr, go_left = split
        left = grow(indices[go_left], depth + 1)
        right = grow(indices[~go_left], depth + 1)
        nodes[node] = (forest.KIND_SPLIT, feat, thr, left, right, np.zeros(NUM_TRAINABLE), 0)
        return node

    grow(np.arange(y.shape[0]), 0)
    kind, feature, threshold, left, right, distribution, support = zip(*nodes)
    return forest.FlatTree(np.array(kind, np.uint8), np.array(feature, np.int16),
                           np.array(threshold, np.float64), np.array(left, np.int32),
                           np.array(right, np.int32), np.stack(distribution),
                           np.array(support, np.int64))


def reference_predict_batch(model, xs):
    """`predict_batch` routing one tree at a time: up to ``max_depth``
    rounds over the rows still on a split."""
    m = xs.shape[0]
    acc = np.zeros((m, NUM_TRAINABLE))
    rows = np.arange(m)
    for tree in model.trees:
        node = np.zeros(m, dtype=np.int32)
        for _ in range(model.params.max_depth):
            at_split = tree.kind[node] == forest.KIND_SPLIT
            if not at_split.any():
                break
            r = rows[at_split]
            n = node[at_split]
            vals = xs[r, tree.feature[n]]
            node[at_split] = np.where(vals < tree.threshold[n], tree.left[n], tree.right[n])
        if (tree.kind[node] == forest.KIND_SPLIT).any():
            raise PredictionError(
                f"a tree routes rows past max_depth={model.params.max_depth} "
                "without reaching a leaf")
        acc += tree.distribution[node]
    return acc / len(model.trees)


def model_bytes(model, path):
    save_model(model, path)
    return path.read_bytes()


class TestParams:
    @pytest.mark.parametrize("field, value, message", [
        ("num_trees", 0, "num_trees must be >= 1"),
        ("max_depth", -1, "max_depth >= 0"),
        ("candidates_per_node", 0, "candidate counts must be >= 1"),
        ("thresholds_per_candidate", 0, "candidate counts must be >= 1"),
        ("min_samples_split", 1, "min_samples_split must be >= 2"),
    ])
    def test_bounds_rejected(self, field, value, message):
        with pytest.raises(TrainingError, match=message):
            ForestParams(**{field: value})
        ForestParams(**{field: value + 1})


class TestTrainingSet:
    @pytest.mark.parametrize("shape", [(5, FEATURE_DIM - 1), (5,), (5, FEATURE_DIM, 1)])
    def test_rejects_feature_shape(self, shape):
        with pytest.raises(TrainingError, match=re.escape(f"got {shape}")):
            TrainingSet(features=np.zeros(shape), labels=np.zeros(5))

    @pytest.mark.parametrize("labels", [np.zeros(4), np.zeros(6), np.zeros((5, 1))])
    def test_rejects_label_shape(self, labels):
        with pytest.raises(TrainingError, match="labels shape does not match features"):
            TrainingSet(features=np.zeros((5, FEATURE_DIM)), labels=labels)

    def test_rejects_empty(self):
        with pytest.raises(TrainingError):
            TrainingSet(features=np.zeros((0, FEATURE_DIM)), labels=np.zeros(0))

    def test_rejects_unknown_targets(self, rng):
        x = rng.uniform(size=(5, FEATURE_DIM))
        with pytest.raises(TrainingError):
            TrainingSet(features=x, labels=np.full(5, int(Label.UNKNOWN)))

    def test_rejects_nonfinite(self, rng):
        x = rng.uniform(size=(5, FEATURE_DIM))
        x[2, 7] = np.inf
        with pytest.raises(TrainingError):
            TrainingSet(features=x, labels=np.zeros(5))


class TestTraining:
    def test_single_label_gives_single_leaf_trees(self, rng):
        x = rng.uniform(size=(50, FEATURE_DIM))
        data = TrainingSet(features=x, labels=np.zeros(50))
        model = train_forest(data, ForestParams(num_trees=3, seed=1))
        expected = np.zeros(7)
        expected[int(Label.FLOOR)] = 1.0
        for tree in model.trees:
            assert tree.kind.shape[0] == 1
            assert tree.kind[0] == KIND_LEAF
            np.testing.assert_array_equal(tree.distribution[0], expected)
            assert tree.support[0] == 50

    def test_perfectly_separable_depth_one(self, rng):
        data = separable_set(rng)
        model = train_forest(data, ForestParams(num_trees=8, max_depth=1, seed=0))
        probs = predict_batch(model, data.features)
        assert (np.argmax(probs, axis=1) == data.labels).all()

    def test_deterministic_byte_identical_files(self, rng, tmp_path):
        data = random_set(rng)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_model(train_forest(data, ForestParams(seed=42)), a)
        save_model(train_forest(data, ForestParams(seed=42)), b)
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_differs(self, rng, tmp_path):
        data = random_set(rng)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_model(train_forest(data, ForestParams(seed=1)), a)
        save_model(train_forest(data, ForestParams(seed=2)), b)
        assert a.read_bytes() != b.read_bytes()

    def test_sample_order_irrelevant(self, rng):
        data = random_set(rng, n=120)
        perm = rng.permutation(len(data))
        shuffled = TrainingSet(features=data.features[perm], labels=data.labels[perm])
        m1 = train_forest(data, ForestParams(seed=5))
        m2 = train_forest(shuffled, ForestParams(seed=5))
        probe = rng.uniform(-1, 1, size=(50, FEATURE_DIM))
        np.testing.assert_array_equal(predict_batch(m1, probe), predict_batch(m2, probe))

    def test_smaller_forest_is_a_prefix(self, rng):
        """Tree i's stream does not depend on num_trees, so a seed's n-tree
        forest is the first n trees of its 16-tree forest, as criterion 5
        assumes."""
        data = random_set(rng, n=300, classes=5)
        full = train_forest(data, ForestParams(num_trees=16, seed=3))
        probe = rng.uniform(-1, 1, size=(200, FEATURE_DIM))
        for n in (1, 4, 8):
            small = train_forest(data, ForestParams(num_trees=n, seed=3))
            for a, b in zip(small.trees, full.trees[:n], strict=True):
                for name in (f.name for f in dataclasses.fields(a)):
                    np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
            prefix = dataclasses.replace(full, trees=full.trees[:n])
            np.testing.assert_array_equal(predict_batch(small, probe),
                                          predict_batch(prefix, probe))

    def test_negative_seed_rejected(self):
        with pytest.raises(TrainingError, match="seed must be >= 0"):
            ForestParams(seed=-1)

    def test_training_leaves_no_reference_cycles(self, rng):
        # a cycle keeps the training arrays alive after train_forest returns,
        # until a full gc pass, and raises the process's later peak memory
        data = random_set(rng)
        gc.collect()
        gc.disable()
        try:
            train_forest(data, ForestParams(num_trees=2))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_max_depth_respected(self, rng):
        data = random_set(rng, n=500, classes=6)
        model = train_forest(data, ForestParams(num_trees=4, max_depth=3, seed=0))
        assert all(t.depth() <= 3 for t in model.trees)

    def test_tree_deeper_than_the_recursion_limit(self, tmp_path):
        """Every feature spreads exponentially and the labels alternate, so a
        uniform threshold mostly peels a few of the largest values off: one
        tree grows 1,465 levels deep, past Python's recursion limit."""
        x = np.repeat(np.exp(np.linspace(0.0, 700.0, 1500))[:, None], FEATURE_DIM, axis=1)
        data = TrainingSet(features=x, labels=np.arange(1500) % 2)
        model = train_forest(data, ForestParams(num_trees=1, max_depth=5000,
                                                candidates_per_node=1))
        assert model.trees[0].depth() > sys.getrecursionlimit()
        probs = predict_batch(model, x)
        assert (probs.argmax(axis=1) == data.labels).all()
        first = model_bytes(model, tmp_path / "deep.json")
        assert model_bytes(load_model(tmp_path / "deep.json"), tmp_path / "again.json") == first


class TestSplitSearchOracle:
    """`train_forest` writes the same model file as the per-threshold search."""

    CASES = {
        "random-3": (lambda r: random_set(r, n=300, classes=3), {}),
        "random-7-shallow": (lambda r: random_set(r, n=500, classes=7),
                             {"max_depth": 4, "candidates_per_node": 14}),
        "integers": (tie_heavy_set, {}),
        "integers-on-thresholds": (lambda r: tie_heavy_set(r, offset=2.0 ** 52), {}),
        "one-threshold": (lambda r: random_set(r, n=300, classes=4),
                          {"thresholds_per_candidate": 1}),
        "one-threshold-integers": (tie_heavy_set, {"thresholds_per_candidate": 1}),
        "balanced-random": (lambda r: random_set(r, n=400, classes=6),
                            {"class_balanced": True}),
        "balanced-peel": (peel_set, {"class_balanced": True, "num_trees": 4}),
        # a constant candidate draws no thresholds
        "half-constant-3": (half_constant_set, {"candidates_per_node": 3}),
        "half-constant-14": (half_constant_set, {"candidates_per_node": 14}),
        "one-candidate": (lambda r: random_set(r, n=300, classes=4),
                          {"candidates_per_node": 1}),
        # past 255 thresholds a bin count needs more than 8 bits
        "balanced-300-thresholds": (lambda r: random_set(r, n=300, classes=6),
                                    {"class_balanced": True, "thresholds_per_candidate": 300,
                                     "max_depth": 4}),
    }

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_model_bytes_match_reference(self, case, seed, tmp_path):
        make, overrides = self.CASES[case]
        data = make(np.random.default_rng(seed))
        params = ForestParams(seed=seed, **{"num_trees": 3, **overrides})
        assert model_bytes(train_forest(data, params), tmp_path / "fast.json") == \
            model_bytes(reference_forest(data, params), tmp_path / "reference.json")


class TestGrowOracle:
    """The stack-grown tree equals the recursive one: same preorder numbering,
    same split searches in the same order."""

    CASES = dict(TestSplitSearchOracle.CASES,
                 **{"min-samples-split-25": (lambda r: random_set(r, n=400, classes=5),
                                             {"min_samples_split": 25})})

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_model_bytes_match_recursion(self, case, tmp_path, monkeypatch):
        make, overrides = self.CASES[case]
        data = make(np.random.default_rng(7))
        params = ForestParams(seed=7, **{"num_trees": 3, **overrides})
        stacked = model_bytes(train_forest(data, params), tmp_path / "stack.json")
        monkeypatch.setattr(forest, "_grow_tree", reference_grow_tree)
        assert stacked == model_bytes(train_forest(data, params), tmp_path / "recursive.json")


@st.composite
def binning_inputs(draw):
    """Values and sorted thresholds drawn from one small pool: values equal
    to thresholds, duplicate thresholds, 0.0 against -0.0, values outside
    every threshold. ``step`` samples go to one slice of compares."""
    n_thr = draw(st.sampled_from([1, 10, 255, 256, 300]))
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 80))
    pool = np.array(draw(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6))
                    + [0.0, -0.0, 5e-324])
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    thresholds = np.sort(pool[rng.integers(0, pool.shape[0], (m, n_thr))], axis=1)
    values = pool[rng.integers(0, pool.shape[0], (m, n))]
    outside = rng.random((m, n)) < 0.1
    values[outside] = np.where(rng.random(outside.sum()) < 0.5, -2e6, 2e6)
    labels = rng.integers(0, NUM_TRAINABLE, n)
    step = draw(st.sampled_from([1, 7, n, None]))
    return values, thresholds, labels, step


class TestBinning:
    """`_bin_codes` counts the thresholds at or below each value, as
    ``np.searchsorted(side="right")`` does, in slices of samples."""

    @settings(max_examples=300, deadline=None)
    @given(inputs=binning_inputs())
    def test_matches_searchsorted(self, inputs):
        values, thresholds, labels, step = inputs
        budget = forest._BIN_BYTES if step is None else step * thresholds.size
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(forest, "_BIN_BYTES", budget)
            got = forest._bin_codes(values, thresholds, labels)
        want = reference_bin_codes(values, thresholds, labels)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_count_past_16_bits(self):
        thresholds = np.zeros((1, 2 ** 16))
        values = np.array([[1.0, -1.0, -0.0, 5e-324]])
        labels = np.array([6, 0, 3, 1])
        got = forest._bin_codes(values, thresholds, labels)
        np.testing.assert_array_equal(got // NUM_TRAINABLE, [[2 ** 16, 0, 2 ** 16, 2 ** 16]])
        assert got.tobytes() == reference_bin_codes(values, thresholds, labels).tobytes()

    def test_wide_threshold_fit_peaks_no_higher_than_searchsorted_bins(self, monkeypatch):
        """At 300 thresholds one bool compare per (threshold, candidate,
        sample) is 300 times the samples' codes; sliced, the fit's tracemalloc
        peak stays within that of the per-candidate searchsorted bins."""
        data = random_set(np.random.default_rng(0), n=20000, classes=7)
        params = ForestParams(num_trees=1, max_depth=1, candidates_per_node=FEATURE_DIM,
                              thresholds_per_candidate=300)
        sliced = peak_bytes(lambda: train_forest(data, params))
        monkeypatch.setattr(forest, "_bin_codes", reference_bin_codes)
        assert sliced <= peak_bytes(lambda: train_forest(data, params))


def duplicate_set(rng):
    """100 distinct rows, each three times, shuffled."""
    data = random_set(rng, n=100, classes=4)
    perm = rng.permutation(300)
    return TrainingSet(features=np.repeat(data.features, 3, axis=0)[perm],
                       labels=np.repeat(data.labels, 3)[perm])


def signed_zero_set(rng):
    """One label; feature 0 is 0.0 or -0.0, feature 1 falls with the row, so
    only the features after feature 0 can order the rows."""
    x = rng.uniform(-1, 1, size=(40, FEATURE_DIM))
    x[:, 0] = np.where(np.arange(40) % 2, -0.0, 0.0)
    x[:, 1] = -np.arange(40.0)
    return TrainingSet(features=x, labels=np.zeros(40, dtype=np.int64))


class TestCanonicalOrder:
    """`_canonical_order` is the full 15-key lexsort permutation."""

    CASES = {
        "random": lambda r: random_set(r, n=500, classes=7),
        "integers": tie_heavy_set,
        "duplicates": duplicate_set,
        "signed-zero": signed_zero_set,
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_full_lexsort(self, case):
        data = self.CASES[case](np.random.default_rng(0))
        np.testing.assert_array_equal(forest._canonical_order(data.features, data.labels),
                                      full_lexsort(data))

    def test_signed_zeros_need_the_full_sort(self):
        # lexsort orders 0.0 and -0.0 as equal, so the two-key order keeps the
        # input order there, and only the full sort gives the canonical one
        data = signed_zero_set(np.random.default_rng(0))
        two_keys = np.lexsort((data.features[:, 0], data.labels))
        assert not np.array_equal(two_keys, full_lexsort(data))


class TestPredict:
    def test_single_leaf_identity(self, rng):
        x = rng.uniform(size=(30, FEATURE_DIM))
        data = TrainingSet(features=x, labels=np.full(30, 2))
        model = train_forest(data, ForestParams(num_trees=1, seed=0))
        out = predict(model, rng.uniform(size=FEATURE_DIM))
        expected = np.zeros(7)
        expected[2] = 1.0
        np.testing.assert_array_equal(out, expected)

    def test_two_leaf_average(self, rng):
        # one tree trained on pure floor, one on pure wall: forests average
        x = rng.uniform(size=(40, FEATURE_DIM))
        floor = TrainingSet(features=x, labels=np.zeros(40))
        wall = TrainingSet(features=x, labels=np.ones(40))
        m_floor = train_forest(floor, ForestParams(num_trees=1, seed=0))
        m_wall = train_forest(wall, ForestParams(num_trees=1, seed=0))
        m_floor.trees.append(m_wall.trees[0])
        out = predict(m_floor, rng.uniform(size=FEATURE_DIM))
        np.testing.assert_allclose(out[:2], [0.5, 0.5])
        np.testing.assert_allclose(out[2:], 0.0)

    def test_rows_stuck_on_a_split_rejected(self, rng):
        # routing takes max_depth + 1 steps; a tree deeper than its params
        # say leaves the rows of its deepest leaves on a split node
        data = random_set(rng)
        model = train_forest(data, ForestParams(num_trees=1, seed=0))
        assert model.trees[0].depth() >= 2
        shallow = dataclasses.replace(model, params=dataclasses.replace(model.params,
                                                                        max_depth=0))
        with pytest.raises(PredictionError, match="without reaching a leaf"):
            predict_batch(shallow, data.features)

    def test_nan_rejected(self, rng):
        model = train_forest(random_set(rng), ForestParams(seed=0))
        bad = np.full(FEATURE_DIM, 0.5)
        bad[4] = np.nan
        with pytest.raises(PredictionError):
            predict(model, bad)
        with pytest.raises(PredictionError):
            predict_batch(model, bad[None, :])

    def test_batch_matches_scalar(self, rng):
        model = train_forest(random_set(rng, n=300, classes=5), ForestParams(seed=3))
        probe = rng.uniform(-1, 1, size=(40, FEATURE_DIM))
        batch = predict_batch(model, probe)
        for i in range(probe.shape[0]):
            np.testing.assert_array_equal(batch[i], predict(model, probe[i]))

    def test_matches_per_tree_routing(self, rng):
        """Trees of one leaf, trees that reach max_depth and trees that stop
        short of it, routed together; probes include the rows trained on,
        whose values the thresholds fall between, and the thresholds
        themselves."""
        data = random_set(rng, n=400, classes=6)
        model = train_forest(data, ForestParams(num_trees=5, max_depth=4, seed=2))
        single = TrainingSet(features=data.features, labels=np.full(400, 3))
        model.trees[1:1] = train_forest(single, ForestParams(num_trees=2, seed=0)).trees
        depths = [t.depth() for t in model.trees]
        assert 0 in depths and 4 in depths
        split = np.concatenate([t.kind == forest.KIND_SPLIT for t in model.trees])
        on_thresholds = np.tile(np.concatenate([t.threshold for t in model.trees])[split],
                                (FEATURE_DIM, 1)).T
        probe = np.vstack([data.features, on_thresholds, rng.uniform(-2, 2, (50, FEATURE_DIM))])
        assert predict_batch(model, probe).tobytes() == \
            reference_predict_batch(model, probe).tobytes()
        assert predict_batch(model, probe[:0]).shape == (0, NUM_TRAINABLE)

    def test_past_max_depth_rejected_like_per_tree_routing(self, rng):
        # only the last tree is deeper than the params say. Routing takes
        # max_depth rounds, so rows bound for a leaf one level too deep
        # already sit on a split after the last round
        data = random_set(rng, n=300, classes=4)
        for deep_depth in (4, 5):
            model = train_forest(data, ForestParams(num_trees=3, max_depth=3, seed=1))
            deep = train_forest(data, ForestParams(num_trees=1, max_depth=deep_depth,
                                                   seed=1)).trees[0]
            assert deep.depth() == deep_depth
            model.trees.append(deep)
            for route in (predict_batch, reference_predict_batch):
                with pytest.raises(PredictionError,
                                   match="past max_depth=3 without reaching a leaf"):
                    route(model, data.features)

    def test_rejects_feature_shape(self, rng):
        model = train_forest(random_set(rng), ForestParams(num_trees=1, seed=0))
        for bad in (np.zeros(FEATURE_DIM), np.zeros((3, FEATURE_DIM + 1))):
            with pytest.raises(PredictionError, match="feature matrix must be"):
                predict_batch(model, bad)

    def test_normalized(self, rng):
        model = train_forest(random_set(rng, n=300, classes=6), ForestParams(seed=9))
        probs = predict_batch(model, rng.uniform(-2, 2, size=(200, FEATURE_DIM)))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert (probs >= 0).all()


class TestSerialization:
    def test_round_trip_predictions_identical(self, rng, tmp_path):
        model = train_forest(random_set(rng, n=250, classes=6), ForestParams(seed=4))
        path = tmp_path / "m.json"
        save_model(model, path)
        loaded = load_model(path)
        probe = rng.uniform(-1, 1, size=(100, FEATURE_DIM))
        np.testing.assert_array_equal(predict_batch(model, probe),
                                      predict_batch(loaded, probe))

    def test_contract_version_gate(self, rng, tmp_path):
        model = train_forest(random_set(rng), ForestParams(seed=0))
        path = tmp_path / "m.json"
        save_model(model, path)
        doc = path.read_text().replace('"feature_contract_version":1',
                                       '"feature_contract_version":2')
        path.write_text(doc)
        with pytest.raises(ModelFormatError, match="feature_contract_version"):
            load_model(path)

    def test_format_version_gate(self, rng, tmp_path):
        model = train_forest(random_set(rng), ForestParams(seed=0))
        path = tmp_path / "m.json"
        save_model(model, path)
        doc = path.read_text().replace('"format_version":1', '"format_version":9')
        path.write_text(doc)
        with pytest.raises(ModelFormatError, match="format_version"):
            load_model(path)

    def test_truncated_file_reports_location(self, rng, tmp_path):
        model = train_forest(random_set(rng), ForestParams(seed=0))
        path = tmp_path / "m.json"
        save_model(model, path)
        path.write_text(path.read_text()[: path.stat().st_size // 2])
        with pytest.raises(ModelFormatError, match="position"):
            load_model(path)

    def test_bad_distribution_rejected(self, rng, tmp_path):
        model = train_forest(random_set(rng, n=20, classes=1), ForestParams(
            num_trees=1, seed=0))
        path = tmp_path / "m.json"
        save_model(model, path)
        doc = path.read_text().replace("1.0,0.0,0.0", "0.9,0.0,0.0", 1)
        path.write_text(doc)
        with pytest.raises(ModelFormatError, match="distribution"):
            load_model(path)

    def _tree_doc(self, rng, tmp_path):
        model = train_forest(random_set(rng, n=200, classes=4),
                             ForestParams(num_trees=1, seed=0))
        path = tmp_path / "m.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        nodes = doc["trees"][0]["nodes"]
        splits = [i for i, node in enumerate(nodes) if node["kind"] == "split"]
        assert 0 in splits and len(splits) > 2
        return path, doc, nodes, splits

    def test_back_pointing_child_rejected(self, rng, tmp_path):
        path, doc, nodes, splits = self._tree_doc(rng, tmp_path)
        nodes[splits[1]]["left"] = nodes[splits[1]]["right"] = 0
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="field 'left'"):
            load_model(path)

    def test_shared_child_rejected(self, rng, tmp_path):
        path, doc, nodes, splits = self._tree_doc(rng, tmp_path)
        nodes[0]["right"] = nodes[0]["left"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="parents"):
            load_model(path)

    @pytest.mark.parametrize("edit", ["drop_trees", "list_document"])
    def test_missing_document_field_rejected(self, rng, tmp_path, edit):
        path, doc, _, _ = self._tree_doc(rng, tmp_path)
        if edit == "drop_trees":
            del doc["trees"]
            message = "missing field 'trees' in document"
        else:
            doc = [doc]
            message = "missing field 'format_version' in document"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match=message):
            load_model(path)

    def test_tree_deeper_than_max_depth_rejected(self, rng, tmp_path):
        path, doc, _, _ = self._tree_doc(rng, tmp_path)
        depth = load_model(path).trees[0].depth()
        doc["params"]["max_depth"] = depth
        path.write_text(json.dumps(doc))
        load_model(path)
        doc["params"]["max_depth"] = depth - 1
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="tree 0 deeper than max_depth"):
            load_model(path)

    def test_load_save_round_trip_is_byte_identical(self, rng, tmp_path):
        model = train_forest(random_set(rng, n=250, classes=6),
                             ForestParams(num_trees=3, seed=4, class_balanced=True))
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        save_model(model, first)
        save_model(load_model(first), second)
        assert first.read_bytes() == second.read_bytes()
        assert json.loads(first.read_text())["params"] == dataclasses.asdict(model.params)

    @pytest.mark.parametrize("value", ["abc", None, True, 2.0])
    def test_wrong_param_type_rejected(self, rng, tmp_path, value):
        path, doc, _, _ = self._tree_doc(rng, tmp_path)
        doc["params"]["num_trees"] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="params: field 'num_trees' must be int"):
            load_model(path)

    def test_params_need_every_field(self, rng, tmp_path):
        path, doc, _, _ = self._tree_doc(rng, tmp_path)
        del doc["params"]["class_balanced"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="params: missing field 'class_balanced'"):
            load_model(path)
        doc["params"].update(class_balanced=False, bagging=True)
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match=r"params: unknown keys \['bagging'\]"):
            load_model(path)

    @pytest.mark.parametrize("target, key, value, message", [
        ("doc", "trees", 3, "field 'trees'"),
        ("tree", "nodes", [], "tree 0: field 'nodes'"),
        ("split", None, 7, "tree 0 node {split}: not a JSON object"),
        ("split", "feature", "x", "tree 0 node {split}: field 'feature'"),
        ("split", "feature", 3.0, "tree 0 node {split}: field 'feature'"),
        ("split", "threshold", "x", "tree 0 node {split}: field 'threshold'"),
        ("split", "right", 2 ** 40, "tree 0 node {split}: field 'right'"),
        ("leaf", "support", "x", "tree 0 node {leaf}: field 'support'"),
        ("leaf", "support", 2 ** 70, "tree 0 node {leaf}: field 'support'"),
        ("leaf", "distribution", ["x"] * 7, "tree 0 node {leaf}: field 'distribution'"),
        ("leaf", "kind", None, "tree 0 node {leaf}: field 'kind'"),
    ])
    def test_malformed_tree_names_tree_node_and_field(self, rng, tmp_path, target, key,
                                                      value, message):
        path, doc, nodes, splits = self._tree_doc(rng, tmp_path)
        index = {"split": splits[1],
                 "leaf": next(i for i, node in enumerate(nodes) if node["kind"] == "leaf")}
        if key is None:
            nodes[index[target]] = value
        else:
            containers = {"doc": doc, "tree": doc["trees"][0], "split": nodes[index["split"]],
                          "leaf": nodes[index["leaf"]]}
            containers[target][key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match=re.escape(message.format(**index))):
            load_model(path)
