"""Property tests: corrupt model and PLY files and random config objects end
in the package's own errors, or in a model, cloud and config that work."""

import json
import tempfile
from functools import lru_cache
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from indoorseg.cloud import PointCloud
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
from indoorseg.ply_io import read_cloud, write_cloud

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


@lru_cache(maxsize=None)
def small_ply(binary: bool) -> tuple[tuple[bytes, ...], bytes]:
    """(header lines, body) of a valid 3-point labeled PLY file."""
    if binary:
        cloud = PointCloud(positions=[[0.5, 1.0, 2.0], [0.0, -1.5, 0.25], [3.0, 0.0, 1.0]],
                           colors=[[10, 20, 30], [0, 255, 7], [1, 2, 3]], labels=[1, 0, 7])
        with tempfile.TemporaryDirectory() as tmp:
            write_cloud(cloud, Path(tmp) / "c.ply")
            raw = (Path(tmp) / "c.ply").read_bytes()
    else:
        raw = (b"ply\nformat ascii 1.0\ncomment frame camera\nelement vertex 3\n"
               b"property float x\nproperty float y\nproperty float z\n"
               b"property uchar red\nproperty uchar green\nproperty uchar blue\n"
               b"property uchar label\nend_header\n"
               b"0.5 1 2 10 20 30 1\n0 -1.5 0.25 0 255 7 0\n3 0 1 1 2 3 7\n")
    end = raw.index(b"end_header\n") + len(b"end_header\n")
    return tuple(raw[:end].splitlines()), raw[end:]


def stated_count(raw: bytes):
    """The vertex count the file's header states, read as the parser reads it."""
    count = None
    for line in raw.split(b"\n"):
        words = line.decode("ascii", errors="replace").split()
        if words == ["end_header"]:
            break
        if words[:2] == ["element", "vertex"] and len(words) == 3:
            count = words[2]
    return count


COUNTS = st.sampled_from([0, 1, 3, 4] + [10**e for e in range(6, 16)]) \
    | st.integers(0, 10**15)
TOKENS = st.integers(-10**20, 10**20).map(lambda v: str(v).encode()) \
    | st.text(max_size=6).map(str.encode)
HEADER_LINES = st.sampled_from(small_ply(False)[0] + small_ply(True)[0]) \
    | COUNTS.map(lambda n: b"element vertex %d" % n) | TOKENS


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_mutated_ply_files(data):
    """Header lines dropped, duplicated or replaced, vertex counts up to
    10^15 and body tokens replaced: an InputError, or the stated points."""
    binary = data.draw(st.booleans(), label="binary")
    header, body = small_ply(binary)
    header = list(header)
    for _ in range(data.draw(st.integers(0, 3), label="header edits")):
        i = data.draw(st.integers(0, len(header) - 1), label="line")
        edit = data.draw(st.sampled_from(["drop", "duplicate", "replace"]), label="edit")
        if edit == "drop":
            del header[i]
        elif edit == "duplicate":
            header.insert(i, header[i])
        else:
            header[i] = data.draw(HEADER_LINES, label="new line")
    count = data.draw(COUNTS, label="count")
    header = [b"element vertex %d" % count if line.startswith(b"element vertex")
              else line for line in header]
    for _ in range(data.draw(st.integers(0, 3), label="body edits")):
        token = data.draw(TOKENS, label="token")
        if binary:
            at = data.draw(st.integers(0, len(body)), label="at")
            body = body[:at] + token + body[at + len(token):]
        else:
            words = body.split(b" ")
            at = data.draw(st.integers(0, len(words) - 1), label="word")
            words[at] = token
            body = b" ".join(words)
    raw = b"\n".join(header) + b"\n" + body

    with tempfile.TemporaryDirectory() as tmp:
        file = Path(tmp) / "c.ply"
        file.write_bytes(raw)
        try:
            cloud = read_cloud(file)
        except InputError:
            return
    assert len(cloud) == int(stated_count(raw))
    assert cloud.colors.dtype == np.uint8
    assert np.isfinite(cloud.positions).all()
