import numpy as np
import pytest

from indoorseg.errors import InputError
from indoorseg.labels import (
    LABEL_NAMES,
    Label,
    default_mapping_path,
    load_label_mapping,
    reduce_label_array,
)


def reduce_label(raw_id: int, mapping: dict[int, Label]) -> Label:
    """Map one raw dataset label id to the 8-label set (total function)."""
    return mapping.get(int(raw_id), Label.UNKNOWN)


def test_label_set_is_fixed():
    assert len(Label) == 8
    assert LABEL_NAMES == ("floor", "wall", "ceiling", "table", "chair",
                           "cabinet", "object", "unknown")
    assert Label.UNKNOWN == 7
    assert Label.FLOOR == 0


def test_mapping_file_parses(tmp_path):
    path = tmp_path / "map.txt"
    path.write_text("# comment\n3, table\n12,cabinet  # trailing comment\n\n7,floor\n")
    mapping = load_label_mapping(path)
    assert mapping == {3: Label.TABLE, 12: Label.CABINET, 7: Label.FLOOR}


def test_mapping_rejects_bad_lines(tmp_path):
    path = tmp_path / "map.txt"
    path.write_text("3 table\n")
    with pytest.raises(InputError):
        load_label_mapping(path)
    path.write_text("x,table\n")
    with pytest.raises(InputError):
        load_label_mapping(path)
    path.write_text("3,sofa\n")
    with pytest.raises(InputError):
        load_label_mapping(path)
    path.write_bytes(b"\xff\xfe3,table\n")
    with pytest.raises(InputError, match="map.txt: not UTF-8"):
        load_label_mapping(path)


def test_reduce_listed_id_maps_directly():
    mapping = {5: Label.TABLE}
    assert reduce_label(5, mapping) is Label.TABLE
    assert reduce_label_array(np.array([5]), mapping)[0] == Label.TABLE


def test_reduce_unlisted_id_maps_to_unknown():
    mapping = {5: Label.TABLE}
    assert reduce_label(6, mapping) is Label.UNKNOWN
    assert reduce_label_array(np.array([6]), mapping)[0] == Label.UNKNOWN


def test_reduce_raw_zero_is_unknown():
    # raw id 0 is the dataset's "unlabeled" marker and is never listed
    mapping = load_label_mapping(default_mapping_path())
    assert 0 not in mapping
    assert reduce_label(0, mapping) is Label.UNKNOWN
    assert reduce_label_array(np.array([0]), mapping)[0] == Label.UNKNOWN


def test_reduce_label_array_matches_scalar(rng):
    mapping = load_label_mapping(default_mapping_path())
    raw = rng.integers(0, 50, size=(13, 17))
    reduced = reduce_label_array(raw, mapping)
    assert reduced.dtype == np.uint8
    for idx in np.ndindex(raw.shape):
        assert reduced[idx] == int(reduce_label(int(raw[idx]), mapping))


def test_shipped_mapping_loads():
    mapping = load_label_mapping(default_mapping_path())
    assert mapping[2] is Label.FLOOR
    assert mapping[22] is Label.CEILING
    assert all(isinstance(k, int) for k in mapping)
