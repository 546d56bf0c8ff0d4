"""Exception hierarchy shared by all pipeline stages, and the checked reader
of parameter objects.

Two top-level families map onto CLI exit codes: ``InputError`` (exit 1)
covers bad files, parameters, and contract mismatches; ``PipelineError``
(exit 2) covers runtime failures of an otherwise well-formed run.

A parameter dataclass (`PipelineConfig`, `ForestParams`, ...) types each
field by its default. `field_types` reads that map once for the CLI flags,
and `checked_fields` checks a JSON object from a config or model file
against it. `read_text` reads a config, model or other text file and
turns bytes that are not UTF-8 into an ``InputError`` naming the file.
"""

from dataclasses import fields
from pathlib import Path


class IndoorSegError(Exception):
    """Base class for all package errors."""


class InputError(IndoorSegError):
    """Bad user input: files, parameters, format/contract mismatches."""


class PipelineError(IndoorSegError):
    """A pipeline stage failed on otherwise valid input."""


class PlyParseError(InputError):
    """Malformed PLY file. Carries the byte offset where parsing failed."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class EmptyCloudError(PipelineError):
    """Ingestion produced no valid points."""


class FrameDiscardError(PipelineError):
    """Frame rejected: not enough floor points to recover the ground plane."""


class GenerationError(PipelineError):
    """Synthetic scene generation could not place the requested furniture."""


class TrainingError(InputError):
    """Forest training received unusable data."""


class ModelFormatError(InputError):
    """Model file is corrupt, truncated, or has an incompatible version."""


class PredictionError(InputError):
    """Feature vector violates the model's feature contract."""


class FeatureError(PipelineError):
    """Patch too small or otherwise unusable for feature extraction."""


class EvaluationError(PipelineError):
    """Evaluation could not produce a report (e.g. every frame discarded)."""


# JSON value types accepted per field type: an int passes for a float field
# and is kept as it is; a bool (an int subclass) never passes for a number
_JSON_TYPES = {bool: (bool,), int: (int,), float: (int, float), str: (str,)}


def field_types(cls) -> dict:
    """Field name -> type of its default, in declaration order."""
    return {f.name: type(f.default) for f in fields(cls)}


def checked_fields(cls, data, where: str, error=InputError, required: bool = False) -> dict:
    """``data`` if it is a JSON object whose every key is a field of ``cls``
    with a value of that field's type; with ``required``, every field must
    be present. Otherwise raises ``error`` naming ``where`` and the field."""
    if not isinstance(data, dict):
        raise error(f"{where}: expected a JSON object")
    types = field_types(cls)
    unknown = sorted(set(data) - set(types))
    if unknown:
        raise error(f"{where}: unknown keys {unknown}")
    for name, kind in types.items():
        if name not in data:
            if required:
                raise error(f"{where}: missing field {name!r}")
        elif type(data[name]) not in _JSON_TYPES[kind]:
            raise error(f"{where}: field {name!r} must be {kind.__name__}, "
                        f"got {type(data[name]).__name__}")
    return data


def read_text(path, error=InputError) -> str:
    """The UTF-8 text of ``path``; raises ``error`` naming the file if its
    bytes are not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise error(f"{path}: not UTF-8 text (byte {e.start})") from None
