"""JSON files, and typed JSON reading and writing for the config dataclasses.

``read_json`` and ``write_json`` are the only places the toolkit opens a JSON
file: a config, its echo, a partition spec, a manifest, a party file or
``metrics.json``. A file that is not valid JSON raises a ``ValueError`` that
names it.

The dataclasses are the file format: ``from_json`` builds one from parsed
JSON by walking its fields and evaluated type hints, and ``to_json`` writes
it back in field order. Errors are ``ValueError``s that start with the path
of the offending value, such as ``parties[1].classifier.lr``. Python's
``json`` parses ``NaN``, ``Infinity`` and ``-Infinity``; no config number may
be one of them.
"""

from __future__ import annotations

import json
import math
import types
import typing
from dataclasses import MISSING, fields, is_dataclass

_JSON_NAMES = {
    bool: "boolean",
    int: "integer",
    float: "number",
    str: "string",
    list: "array",
    dict: "object",
    type(None): "null",
}


def read_json(path):
    """The parsed JSON document in ``path``; a file that does not parse
    raises a ValueError naming it."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from None


def write_json(path, doc, indent: int | None = 2) -> None:
    """``doc`` as JSON plus a final newline; ``indent=None`` writes one line."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=indent)
        fh.write("\n")


def _kind(value) -> str:
    return _JSON_NAMES.get(type(value), type(value).__name__)


def _error(path: str, msg: str) -> ValueError:
    return ValueError(f"{path}: {msg}" if path else msg)


def from_json(tp, value, path: str = ""):
    """Read parsed JSON ``value`` as ``tp``; errors name ``path``.

    ``tp`` is a dataclass, ``X | None``, ``list[T]``, ``tuple[T, ...]`` or a
    scalar. Scalars need their exact JSON type, except that an integer is
    converted where a float is expected; a boolean is never an integer,
    and a float must be finite.
    """
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        (inner,) = [a for a in args if a is not type(None)]
        return None if value is None else from_json(inner, value, path)
    if origin in (list, tuple):
        if not isinstance(value, list):
            raise _error(path, f"expected array, got {_kind(value)}")
        items = [from_json(args[0], v, f"{path}[{i}]") for i, v in enumerate(value)]
        return items if origin is list else tuple(items)
    if is_dataclass(tp):
        if not isinstance(value, dict):
            raise _error(path, f"expected object, got {_kind(value)}")
        hints = typing.get_type_hints(tp)
        prefix = f"{path}." if path else ""
        known = {f.name: f for f in fields(tp)}
        for key in value:
            if key not in known:
                raise _error(prefix + key, "unknown field")
        for f in known.values():
            if f.name not in value and f.default is MISSING and f.default_factory is MISSING:
                raise _error(prefix + f.name, "missing")
        kwargs = {k: from_json(hints[k], v, prefix + k) for k, v in value.items()}
        try:
            return tp(**kwargs)
        except (TypeError, ValueError) as err:
            raise _error(path, str(err)) from None
    if tp is float and type(value) is int:
        return float(value)
    if type(value) is not tp:
        raise _error(path, f"expected {_JSON_NAMES[tp]}, got {_kind(value)}")
    if tp is float and not math.isfinite(value):
        raise _error(path, f"expected a finite number, got {value}")
    return value


def to_json(obj, skip: tuple[str, ...] = ()):
    """JSON-ready ``obj``, with dataclass fields in declaration order.

    ``None`` fields and the top-level fields named in ``skip`` are left out.
    """
    if is_dataclass(obj):
        return {
            f.name: to_json(getattr(obj, f.name))
            for f in fields(obj)
            if f.name not in skip and getattr(obj, f.name) is not None
        }
    if isinstance(obj, (list, tuple)):
        return [to_json(v) for v in obj]
    return obj
