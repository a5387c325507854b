"""A tagged JSON codec for `swmat.model` values, used by the round-trip tests.

Every record (a `NamedTuple`) and enum defined in `swmat.model` is
registered by name, so `from_jsonable(to_jsonable(value)) == value` for any
model value.

`schema_to_dict` writes a questionnaire in the schema-file format that
`swmat.maturity.load_schema_file` reads.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Any, Mapping

import swmat.model
from swmat.model import QuestionnaireSchema

_MODEL_CLASSES: dict[str, type] = {}
_ENUM_CLASSES: dict[str, type] = {}


def _register() -> None:
    for obj in vars(swmat.model).values():
        if isinstance(obj, type) and hasattr(obj, "_fields"):
            _MODEL_CLASSES[obj.__name__] = obj
        elif isinstance(obj, type) and issubclass(obj, Enum) and obj is not Enum:
            _ENUM_CLASSES[obj.__name__] = obj


def to_jsonable(obj: Any) -> Any:
    """Encode any model value into JSON-compatible data (tagged where needed)."""
    if obj is None or isinstance(obj, (str, int, bool)):
        return obj
    if isinstance(obj, Fraction):
        return {"$frac": str(obj)}
    if isinstance(obj, Enum):
        return {"$enum": type(obj).__name__, "value": obj.value}
    if hasattr(obj, "_fields"):  # a record; before tuples, which it also is
        data: dict[str, Any] = {"$type": type(obj).__name__}
        for name in obj._fields:
            data[name] = to_jsonable(getattr(obj, name))
        return data
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, frozenset):
        return {"$set": sorted(to_jsonable(v) for v in obj)}
    if isinstance(obj, Mapping):
        return {"$map": [[to_jsonable(k), to_jsonable(v)] for k, v in obj.items()]}
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def from_jsonable(data: Any) -> Any:
    """Inverse of :func:`to_jsonable`."""
    if data is None or isinstance(data, (str, int, bool, float)):
        return data
    if isinstance(data, list):
        return tuple(from_jsonable(v) for v in data)
    if isinstance(data, dict):
        if "$frac" in data:
            return Fraction(data["$frac"])
        if "$enum" in data:
            return _ENUM_CLASSES[data["$enum"]](data["value"])
        if "$set" in data:
            return frozenset(from_jsonable(v) for v in data["$set"])
        if "$map" in data:
            return {from_jsonable(k): from_jsonable(v) for k, v in data["$map"]}
        if "$type" in data:
            cls = _MODEL_CLASSES[data["$type"]]
            kwargs = {k: from_jsonable(v) for k, v in data.items() if k != "$type"}
            return cls(**kwargs)
    raise TypeError(f"cannot deserialize {data!r}")


def _fraction_to_json(value: Fraction):
    if value.denominator == 1:
        return value.numerator
    if 10**6 % value.denominator == 0:
        return float(value)
    return str(value)


def schema_to_dict(schema: QuestionnaireSchema) -> dict:
    """A schema as the decoded JSON of a schema file; scores that are no
    short decimal are written as strings such as ``"5/3"``."""
    return {
        "questions": [
            {
                "id": q.id,
                "text": q.text,
                "category": q.category.value,
                "weight": _fraction_to_json(q.weight),
                "mode": q.mode.value,
                "options": [
                    {"key": o.key, "label": o.label, "score": _fraction_to_json(o.score)}
                    for o in q.options
                ],
            }
            for q in schema.questions
        ]
    }


_register()
