"""Property tests: corrupt model files and random config objects end in the
package's own errors, or in a model and config that work."""

import json
import tempfile
from functools import lru_cache
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from indoorseg.errors import InputError, PipelineError, field_types
from indoorseg.features import FEATURE_DIM
from indoorseg.forest import (
    ForestParams,
    TrainingSet,
    load_model,
    predict_batch,
    save_model,
    train_forest,
)
from indoorseg.labels import NUM_TRAINABLE
from indoorseg.pipeline import PipelineConfig

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                               max_size=4),
    max_leaves=6)


@lru_cache(maxsize=None)
def model_text() -> str:
    rng = np.random.default_rng(7)
    data = TrainingSet(features=rng.uniform(-1, 1, size=(60, FEATURE_DIM)),
                       labels=rng.integers(0, 3, size=60))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_model(train_forest(data, ForestParams(num_trees=2, max_depth=3, seed=1)), path)
        return path.read_text()


def value_paths(doc, prefix=()) -> list:
    """The key/index path of every value nested in a JSON document."""
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    paths = []
    for key, value in items:
        paths.append(prefix + (key,))
        paths.extend(value_paths(value, prefix + (key,)))
    return paths


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_model_with_one_value_replaced_or_dropped(data):
    doc = json.loads(model_text())
    path = data.draw(st.sampled_from(value_paths(doc)), label="path")
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if data.draw(st.booleans(), label="drop"):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(JSON_VALUES, label="value")

    with tempfile.TemporaryDirectory() as tmp:
        file = Path(tmp) / "model.json"
        file.write_text(json.dumps(doc))
        try:
            model = load_model(file)
            probs = predict_batch(model, np.random.default_rng(0).uniform(
                -2, 2, size=(40, FEATURE_DIM)))
        except (InputError, PipelineError):
            return
    assert probs.shape == (40, NUM_TRAINABLE)
    assert np.isfinite(probs).all()
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)


CONFIG_KEYS = st.sampled_from(sorted(field_types(PipelineConfig))) | st.text(max_size=8)


@settings(max_examples=50, deadline=None)
@given(st.dictionaries(CONFIG_KEYS, JSON_VALUES, max_size=6) | JSON_VALUES)
def test_random_config_objects(data):
    try:
        config = PipelineConfig.from_dict(data)
    except (InputError, PipelineError):
        return
    assert PipelineConfig.from_dict(config.to_dict()) == config
