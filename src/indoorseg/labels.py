"""The fixed 8-label set and the raw-id -> label mapping table.

The label ids are frozen: they appear verbatim in PLY files, model files,
and evaluation reports. ``unknown`` (id 7) is never a training target and
is excluded from all metrics.
"""

from __future__ import annotations

import enum
from pathlib import Path

import numpy as np

from .errors import InputError, read_text


class Label(enum.IntEnum):
    FLOOR = 0
    WALL = 1
    CEILING = 2
    TABLE = 3
    CHAIR = 4
    CABINET = 5
    OBJECT = 6
    UNKNOWN = 7


LABEL_NAMES = tuple(label.name.lower() for label in Label)
NUM_LABELS = len(Label)
NUM_TRAINABLE = NUM_LABELS - 1  # everything but `unknown`

_NAME_TO_LABEL = {name: Label(i) for i, name in enumerate(LABEL_NAMES)}


def label_from_name(name: str) -> Label:
    try:
        return _NAME_TO_LABEL[name.strip().lower()]
    except KeyError:
        raise InputError(f"unknown label name {name!r}; expected one of {LABEL_NAMES}") from None


def load_label_mapping(path: str | Path) -> dict[int, Label]:
    """Parse a ``raw_id,label_name`` text table (``#`` starts a comment).

    Raw ids absent from the table map to ``unknown`` at lookup time, so the
    table only needs to list ids with a known target.
    """
    mapping: dict[int, Label] = {}
    for lineno, raw_line in enumerate(read_text(path).splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 2:
            raise InputError(f"{path}:{lineno}: expected 'raw_id,label_name', got {raw_line!r}")
        try:
            raw_id = int(parts[0])
        except ValueError:
            raise InputError(f"{path}:{lineno}: raw id {parts[0]!r} is not an integer") from None
        if raw_id < 0:
            raise InputError(f"{path}:{lineno}: raw id must be non-negative")
        mapping[raw_id] = label_from_name(parts[1])
    return mapping


def reduce_label_array(raw_ids: np.ndarray, mapping: dict[int, Label]) -> np.ndarray:
    """Map raw dataset label ids (a label image) to the 8-label set as uint8
    ids; ids the mapping does not list become ``unknown``."""
    raw_ids = np.asarray(raw_ids)
    if raw_ids.size == 0:
        return raw_ids.astype(np.uint8)
    lookup = np.full(int(raw_ids.max()) + 1, int(Label.UNKNOWN), dtype=np.uint8)
    for raw_id, label in mapping.items():
        if raw_id < lookup.shape[0]:
            lookup[raw_id] = int(label)
    return lookup[raw_ids]


def default_mapping_path() -> Path:
    """Location of the editable NYU raw-class table shipped with the package."""
    return Path(__file__).parent / "data" / "nyu_label_mapping.txt"
