"""JSON round-trip for models, and the prediction and trace CSV writers.

One codec serves every model: ``model_to_dict`` writes ``{"type": type_tag}``
and then each of the class's ``file_fields``, and ``model_from_dict`` looks
the tag up in a family table: ``classifiers.FAMILIES`` for a party file's
``classifier`` slot, ``density.FAMILIES`` for its ``estimator`` slot, and
both for a bare model. No other class is written or read. Arrays are stored
as ``{"shape": [...], "data": [row-major floats]}`` so a load reproduces the
exact parameter values (JSON floats carry full double precision). Scalar
fields, label spaces, shard sizes and the class count are read with
``jsonconfig.from_json``, so each needs its exact JSON type: a fractional or
boolean ``shard_size``, a string ``num_classes`` or ``bandwidth`` and a
fractional label are rejected, not coerced. An array's ``shape`` must be a
list of non-negative integers and its ``data`` a flat list of JSON numbers,
as many as the shape holds: a string or boolean cell, or a ``-1`` extent for
numpy to infer, is rejected too.

Party files and manifests go through ``jsonconfig.read_json`` and
``write_json``, and the CSVs through ``datasets._write_columns``; this
module opens no file itself. No program reads a prediction or trace file
back, so their readers live with the tests.
"""

from __future__ import annotations

import os

import numpy as np

from . import classifiers, density
from .calibration import TraceRow
from .datasets import _write_columns
from .ensemble import EnsembleModel, PartyModel, build_ensemble
from .jsonconfig import from_json, read_json, write_json

_MODELS = {**classifiers.FAMILIES, **density.FAMILIES}


def _encode(value):
    if isinstance(value, np.ndarray):
        return {"shape": list(value.shape), "data": value.ravel().tolist()}
    return list(value) if isinstance(value, tuple) else value


def _decode(name: str, value):
    """An array object, a list of ints (a label space) or a float."""
    if isinstance(value, dict):
        return _decode_array(name, value)
    if isinstance(value, list):
        return from_json(tuple[int, ...], value, name)
    return from_json(float, value, name)


def _decode_array(name: str, value: dict) -> np.ndarray:
    """An array object read strictly: ``shape`` is a list of non-negative
    integers and ``data`` a list of JSON numbers (no booleans, strings or
    nested lists), one per cell, or ValueError."""
    shape = from_json(tuple[int, ...], value["shape"], f"{name}.shape")
    if any(s < 0 for s in shape):
        raise ValueError(f"{name}.shape: negative extent in {list(shape)}")
    data = value["data"]
    if not isinstance(data, list) or not set(map(type, data)) <= {int, float}:
        raise ValueError(f"{name}.data: expected an array of numbers")
    try:
        cells = np.array(data, dtype=np.float64)
    except OverflowError:
        raise ValueError(f"{name}.data: a number is out of double range") from None
    return cells.reshape(shape)


def model_to_dict(model) -> dict:
    """``{"type": type_tag, <field>: <value>, ...}`` in ``file_fields`` order."""
    if _MODELS.get(getattr(model, "type_tag", None)) is not type(model):
        raise ValueError(f"unknown model type {type(model).__name__}")
    doc = {"type": model.type_tag}
    doc.update((name, _encode(getattr(model, name))) for name in model.file_fields)
    return doc


def model_from_dict(d: dict, families: dict = _MODELS):
    """Rebuild a model of one of ``families`` (tag -> class) from
    ``model_to_dict`` output."""
    kind = d["type"]
    cls = families.get(kind)
    if cls is None:
        raise ValueError(f"unknown model type {kind!r}")
    unknown = sorted(set(d) - {"type", *cls.file_fields})
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r} in {kind!r} model")
    return cls(**{name: _decode(name, d[name]) for name in cls.file_fields})


def save_party(party: PartyModel, path) -> None:
    doc = {
        "classifier": model_to_dict(party.classifier),
        "estimator": model_to_dict(party.estimator),
        "shard_size": party.shard_size,
    }
    write_json(path, doc, indent=None)


def _malformed(path, what: str, err: Exception) -> ValueError:
    detail = f"missing key {err}" if isinstance(err, KeyError) else str(err)
    return ValueError(f"{path}: malformed {what}: {detail}")


def load_party(path) -> PartyModel:
    doc = read_json(path)
    try:
        return PartyModel(
            model_from_dict(doc["classifier"], classifiers.FAMILIES),
            model_from_dict(doc["estimator"], density.FAMILIES),
            from_json(int, doc["shard_size"], "shard_size"),
        )
    except (KeyError, TypeError, ValueError) as err:
        raise _malformed(path, "party file", err) from None


def save_ensemble(ens: EnsembleModel, out_dir) -> str:
    """Write party_<j>.json files plus an ensemble.json manifest listing them.

    Party paths in the manifest are relative to the manifest's directory.
    Returns the manifest path.
    """
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    for j, party in enumerate(ens.parties):
        name = f"party_{j}.json"
        save_party(party, os.path.join(out_dir, name))
        entries.append({"model": name, "shard_size": party.shard_size})
    manifest = {"num_classes": ens.num_classes, "parties": entries}
    path = os.path.join(out_dir, "ensemble.json")
    write_json(path, manifest)
    return path


def load_ensemble(manifest_path) -> EnsembleModel:
    """Load a manifest and its parties; party files must lie in its directory."""
    manifest = read_json(manifest_path)
    try:
        num_classes = from_json(int, manifest["num_classes"], "num_classes")
        entries = [
            (
                from_json(str, e["model"], f"parties[{i}].model"),
                from_json(int, e["shard_size"], f"parties[{i}].shard_size"),
            )
            for i, e in enumerate(manifest["parties"])
        ]
    except (KeyError, TypeError, ValueError) as err:
        raise _malformed(manifest_path, "manifest", err) from None
    base = os.path.dirname(os.path.abspath(manifest_path))
    parties = []
    for model, shard_size in entries:
        path = os.path.normpath(os.path.join(base, model))
        if os.path.isabs(model) or os.path.commonpath([base, path]) != base:
            raise ValueError(f"manifest party path {model!r} is not inside {base}")
        party = load_party(path)
        if party.shard_size != shard_size:
            raise ValueError(
                f"manifest shard_size {shard_size} disagrees with "
                f"{model} ({party.shard_size})"
            )
        parties.append(party)
    return build_ensemble(parties, num_classes=num_classes)


def write_predictions(path, labels: np.ndarray, objective: np.ndarray | None = None) -> None:
    """CSV ``query_index,label`` with optional per-class objective columns."""
    labels = np.asarray(labels, dtype=np.int64)
    header = ["query_index", "label"]
    columns = [map(str, range(len(labels))), map(str, labels.tolist())]
    if objective is not None:
        header += [f"j{k}" for k in range(objective.shape[1])]
        columns += [map(repr, col.tolist()) for col in objective.T]
    _write_columns(path, header, columns)


def write_trace(path, trace: list[TraceRow]) -> None:
    """CSV ``step,loss,test_accuracy``; accuracy cell blank when not evaluated."""
    columns = [
        [str(row.step) for row in trace],
        [repr(float(row.loss)) for row in trace],
        ["" if row.test_accuracy is None else repr(float(row.test_accuracy)) for row in trace],
    ]
    _write_columns(path, ["step", "loss", "test_accuracy"], columns)
