import dataclasses
import json
import re

import numpy as np
import pytest

from indoorseg import forest
from indoorseg.errors import ModelFormatError, PredictionError, TrainingError
from indoorseg.features import FEATURE_CONTRACT_VERSION, FEATURE_DIM
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
    if model.feature_contract_version != FEATURE_CONTRACT_VERSION:
        raise PredictionError(
            f"model feature contract v{model.feature_contract_version} != "
            f"v{FEATURE_CONTRACT_VERSION}")
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


class ReferenceTreeBuilder(forest._TreeBuilder):
    """The per-threshold split search: one stable sort and one running sum
    of weighted one-hot rows per candidate, two scalar entropies per
    threshold. Same RNG draws as the binned search, so the same model."""

    @staticmethod
    def _entropy(hist):
        total = hist.sum()
        if total <= 0:
            return 0.0
        p = hist[hist > 0] / total
        return float(-(p * np.log2(p)).sum())

    def _best_split(self, indices, labels):
        params = self.params
        n_feat = self.columns.shape[0]
        cand_feats = np.sort(self.rng.choice(
            n_feat, size=min(params.candidates_per_node, n_feat), replace=False))
        parent_hist = np.bincount(labels, minlength=NUM_TRAINABLE) * self.class_weights
        parent_total = parent_hist.sum()
        parent_entropy = self._entropy(parent_hist)
        onehot = np.zeros((labels.shape[0], NUM_TRAINABLE))
        onehot[np.arange(labels.shape[0]), labels] = 1.0
        onehot *= self.class_weights[labels][:, None]

        best = None
        for feat in cand_feats:
            values = self.columns[feat][indices]
            lo, hi = values.min(), values.max()
            if not hi > lo:
                continue
            thresholds = np.sort(self.rng.uniform(lo, hi, size=params.thresholds_per_candidate))
            order = np.argsort(values, kind="stable")
            cum = np.cumsum(onehot[order], axis=0)
            positions = np.searchsorted(values[order], thresholds, side="left")
            for thr, p in zip(thresholds, positions):
                if p <= 0 or p >= values.shape[0]:
                    continue
                left_hist = cum[p - 1]
                right_hist = parent_hist - left_hist
                gain = parent_entropy - (
                    left_hist.sum() * self._entropy(left_hist)
                    + right_hist.sum() * self._entropy(right_hist)
                ) / parent_total
                if gain > 1e-12 and (best is None or gain > best[0] + 1e-15):
                    best = (gain, int(feat), float(thr))
        return None if best is None else best[1:]


def reference_forest(data, params):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(forest, "_TreeBuilder", ReferenceTreeBuilder)
        return train_forest(data, params)


def model_bytes(model, path):
    save_model(model, path)
    return path.read_bytes()


class TestTrainingSet:
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

    def test_max_depth_respected(self, rng):
        data = random_set(rng, n=500, classes=6)
        model = train_forest(data, ForestParams(num_trees=4, max_depth=3, seed=0))
        assert all(t.depth() <= 3 for t in model.trees)


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
    }

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_model_bytes_match_reference(self, case, seed, tmp_path):
        make, overrides = self.CASES[case]
        data = make(np.random.default_rng(seed))
        params = ForestParams(seed=seed, **{"num_trees": 3, **overrides})
        assert model_bytes(train_forest(data, params), tmp_path / "fast.json") == \
            model_bytes(reference_forest(data, params), tmp_path / "reference.json")


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
