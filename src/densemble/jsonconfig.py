"""JSON files, and the one typed JSON reader and writer.

``read_json`` and ``write_json`` are the only places the toolkit opens a JSON
file: a config, its echo, a partition spec, a manifest, a party file or
``metrics.json``. A file that is not valid JSON raises a ``ValueError`` that
names it.

``from_json`` and ``to_json`` read and write every typed JSON document: the
config blocks, partition specs, manifests, party files and the models in
them. A record is a dataclass, whose fields and evaluated type hints are
its file format, or a model class, whose ``file_fields`` map each stored
field to its kind in file order; both are read and written by the same
rules. ``from_json`` builds one from parsed JSON and ``to_json`` writes it
back in field order. Errors are ``ValueError``s that start with the path
of the offending value, such as ``parties[1].classifier.lr``. An
``np.ndarray`` is the array object ``{"shape": [...], "data": [row-major
numbers]}``, whose keys are exactly those two, whose ``shape`` lists
non-negative integers and whose ``data`` holds as many JSON numbers as the
shape does; JSON floats carry full double precision, so a load reproduces
the exact values. Python's ``json`` parses ``NaN``, ``Infinity`` and
``-Infinity`` and integers of any size: no float field may be non-finite,
every integer must fit in int64, and an integer read as a float (accepted
where a float is expected, and in array data) must be within double range.
"""

from __future__ import annotations

import functools
import json
import math
import types
import typing
from dataclasses import MISSING, fields, is_dataclass

import numpy as np

_JSON_NAMES = {
    bool: "boolean",
    int: "integer",
    float: "number",
    str: "string",
    list: "array",
    dict: "object",
    type(None): "null",
}
_INT64 = range(-(2**63), 2**63)


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


@functools.cache
def _record(tp) -> dict | None:
    """Each field of record type ``tp``, in file order, mapped to its kind
    and whether it is required: a model's ``file_fields``, all required,
    or a dataclass's fields; None for a type that is not a record."""
    if hasattr(tp, "file_fields"):
        return {name: (kind, True) for name, kind in tp.file_fields.items()}
    if not is_dataclass(tp):
        return None
    hints = typing.get_type_hints(tp)
    # a field is required if it has neither a default nor a default factory
    return {f.name: (hints[f.name], f.default is f.default_factory is MISSING) for f in fields(tp)}


def _array(value, path: str) -> np.ndarray:
    """An array object read strictly: its keys are ``shape``, a list of
    non-negative integers, and ``data``, a list of JSON numbers (no booleans,
    strings or nested lists), one per cell, or ValueError."""
    value = from_json(dict, value, path)
    if sorted(value) != ["data", "shape"]:
        raise _error(path, f"expected keys 'data' and 'shape', got {sorted(value)}")
    shape = from_json(tuple[int, ...], value["shape"], f"{path}.shape")
    if any(s < 0 for s in shape):
        raise ValueError(f"{path}.shape: negative extent in {list(shape)}")
    data = value["data"]
    if not isinstance(data, list) or not set(map(type, data)) <= {int, float}:
        raise ValueError(f"{path}.data: expected an array of numbers")
    if len(data) != math.prod(shape):
        raise _error(path, f"shape {list(shape)} does not hold {len(data)} numbers")
    try:
        cells = np.array(data, dtype=np.float64)
    except OverflowError:
        raise ValueError(f"{path}.data: a number is out of double range") from None
    return cells.reshape(shape)


def from_json(tp, value, path: str = ""):
    """Read parsed JSON ``value`` as ``tp``; errors name ``path``.

    ``tp`` is a record (a dataclass or a class with ``file_fields``),
    ``X | None``, ``list[T]``, ``tuple[T, ...]``, ``np.ndarray`` or a
    scalar. A record is read from an object: an unknown key raises
    ``<path>.<key>: unknown field``, a required field left out
    ``<path>.<key>: missing``, its fields are read in file order, and a
    TypeError or ValueError from its constructor becomes ``<path>: <msg>``.
    Scalars need their exact JSON type, except that an integer is
    converted where a float is expected; a boolean is never an integer, an
    integer must fit in int64, and a float must be finite.
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
    if tp is np.ndarray:
        return _array(value, path)
    record = _record(tp)
    if record is not None:
        value = from_json(dict, value, path)
        prefix = f"{path}." if path else ""
        for key in value:
            if key not in record:
                raise _error(prefix + key, "unknown field")
        for name, (_, required) in record.items():
            if required and name not in value:
                raise _error(prefix + name, "missing")
        kwargs = {k: from_json(record[k][0], value[k], prefix + k) for k in record if k in value}
        try:
            return tp(**kwargs)
        except (TypeError, ValueError) as err:
            raise _error(path, str(err)) from None
    if tp is float and type(value) is int:
        try:
            return float(value)
        except OverflowError:
            raise _error(path, "integer out of double range") from None
    if type(value) is not tp:
        raise _error(path, f"expected {_JSON_NAMES[tp]}, got {_kind(value)}")
    if tp is float and not math.isfinite(value):
        raise _error(path, f"expected a finite number, got {value}")
    if tp is int and value not in _INT64:
        raise _error(path, "integer out of int64 range")
    return value


def to_json(obj, skip: tuple[str, ...] = ()):
    """JSON-ready ``obj``: a record's fields in file order, an array as its
    array object.

    ``None`` fields and the top-level fields named in ``skip`` are left out.
    """
    if isinstance(obj, np.ndarray):
        return {"shape": list(obj.shape), "data": obj.ravel().tolist()}
    record = _record(type(obj))
    if record is not None:
        items = ((name, getattr(obj, name)) for name in record if name not in skip)
        return {name: to_json(v) for name, v in items if v is not None}
    if isinstance(obj, (list, tuple)):
        return [to_json(v) for v in obj]
    return obj
