import dataclasses
import json

import numpy as np
import pytest

from indoorseg.errors import ModelFormatError, PredictionError, TrainingError
from indoorseg.features import FEATURE_DIM
from indoorseg.forest import (
    KIND_LEAF,
    ForestParams,
    TrainingSet,
    load_model,
    predict,
    predict_batch,
    save_model,
    train_forest,
)
from indoorseg.labels import Label


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
        with pytest.raises(ModelFormatError, match="child index"):
            load_model(path)

    def test_shared_child_rejected(self, rng, tmp_path):
        path, doc, nodes, splits = self._tree_doc(rng, tmp_path)
        nodes[0]["right"] = nodes[0]["left"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="parents"):
            load_model(path)
