"""JSON round-trip for models, and the prediction and trace CSV writers.

One codec serves every model: ``model_to_dict`` writes ``{"type": type_tag}``
and then each of the class's ``file_fields``, and ``model_from_dict`` looks
the tag up in a family table: ``classifiers.FAMILIES`` for a party file's
``classifier`` slot, ``density.FAMILIES`` for its ``estimator`` slot, and
both for a bare model. No other class is written or read. ``file_fields``
maps each field, in file order, to the kind the class declares for it, and
a field is decoded by that kind alone, never by the shape of its JSON
value: ``np.ndarray`` is an array object, ``float`` a JSON number and
``tuple[int, ...]`` a list of integers (a label space). A field of another
kind, such as an array object for a label space or a bandwidth, or a plain
list for mixture weights, raises a ValueError that names the field. Arrays
are stored as ``{"shape": [...], "data": [row-major floats]}`` so a load
reproduces the exact parameter values (JSON floats carry full double
precision). Scalar fields, label spaces, shard sizes and the class count
are read with ``jsonconfig.from_json``, so each needs its exact JSON type:
a fractional or boolean ``shard_size``, a string ``num_classes`` or
``bandwidth`` and a fractional label are rejected, not coerced. An array
object has no key but ``shape`` and ``data``; its ``shape`` must be a list
of non-negative integers and its ``data`` a flat list of JSON numbers, as
many as the shape holds: a string or boolean cell, one cell too many, or a
``-1`` extent for numpy to infer, is rejected too. Every error names the
file and the dotted path of the field at fault (``classifier.W.data``,
``parties[1].shard_size``), or the model's slot for an error its class
raises, such as a shape mismatch or a NaN parameter.

Party files and manifests go through ``jsonconfig.read_json`` and
``write_json``, and the CSVs through ``datasets._write_columns``; this
module opens no file itself. No program reads a prediction or trace file
back, so their readers live with the tests.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import classifiers, density
from .calibration import TraceRow
from .datasets import _write_columns
from .ensemble import EnsembleModel, PartyModel, build_ensemble
from .jsonconfig import from_json, read_json, to_json, write_json

_MODELS = {**classifiers.FAMILIES, **density.FAMILIES}


def _encode(value):
    if isinstance(value, np.ndarray):
        return {"shape": list(value.shape), "data": value.ravel().tolist()}
    return list(value) if isinstance(value, tuple) else value


def _decode(name: str, kind, value):
    """``value`` read as field ``name`` of the declared ``kind``: an array
    object for ``np.ndarray``, else ``from_json``'s strict reading."""
    if kind is np.ndarray:
        return _decode_array(name, value)
    return from_json(kind, value, name)


def _decode_array(name: str, value) -> np.ndarray:
    """An array object read strictly: its keys are ``shape``, a list of
    non-negative integers, and ``data``, a list of JSON numbers (no booleans,
    strings or nested lists), one per cell, or ValueError."""
    value = from_json(dict, value, name)
    if sorted(value) != ["data", "shape"]:
        raise ValueError(f"{name}: expected keys 'data' and 'shape', got {sorted(value)}")
    shape = from_json(tuple[int, ...], value["shape"], f"{name}.shape")
    if any(s < 0 for s in shape):
        raise ValueError(f"{name}.shape: negative extent in {list(shape)}")
    data = value["data"]
    if not isinstance(data, list) or not set(map(type, data)) <= {int, float}:
        raise ValueError(f"{name}.data: expected an array of numbers")
    if len(data) != math.prod(shape):
        raise ValueError(f"{name}: shape {list(shape)} does not hold {len(data)} numbers")
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


def _check_keys(d: dict, keys, at: str = "") -> None:
    """ValueError naming the first key, in sorted order, that ``d`` holds
    and ``keys`` does not, or the other way round."""
    odd = sorted(d.keys() ^ set(keys))
    if odd:
        raise ValueError(f"{at}{odd[0]}: {'unknown field' if odd[0] in d else 'missing'}")


def model_from_dict(d: dict, families: dict = _MODELS, path: str = ""):
    """Rebuild a model of one of ``families`` (tag -> class) from
    ``model_to_dict`` output. A ValueError starts with the path of the
    offending value under ``path``, the model's key in its file (as in
    ``classifier.W.shape``); one that no single field causes, such as a
    shape mismatch, starts with ``path`` itself."""
    at = f"{path}." if path else ""
    d = from_json(dict, d, path)
    kind = from_json(str, d.get("type"), f"{at}type")
    cls = families.get(kind)
    if cls is None:
        raise ValueError(f"{at}type: unknown model type {kind!r}")
    _check_keys(d, ("type", *cls.file_fields), at)
    fields = {name: _decode(at + name, kind, d[name]) for name, kind in cls.file_fields.items()}
    try:
        return cls(**fields)
    except ValueError as err:
        raise ValueError(f"{path}: {err}" if path else str(err)) from None


def save_party(party: PartyModel, path) -> None:
    doc = {
        "classifier": model_to_dict(party.classifier),
        "estimator": model_to_dict(party.estimator),
        "shard_size": party.shard_size,
    }
    write_json(path, doc, indent=None)


def _malformed(path, what: str, err: ValueError) -> ValueError:
    return ValueError(f"{path}: malformed {what}: {err}")


def load_party(path) -> PartyModel:
    """A party file's models and shard size; its classifier and estimator
    must take queries of one feature dimension."""
    doc = read_json(path)
    try:
        doc = from_json(dict, doc)
        _check_keys(doc, ("classifier", "estimator", "shard_size"))
        party = PartyModel(
            model_from_dict(doc["classifier"], classifiers.FAMILIES, "classifier"),
            model_from_dict(doc["estimator"], density.FAMILIES, "estimator"),
            from_json(int, doc["shard_size"], "shard_size"),
        )
        c, e = party.classifier.dim, party.estimator.dim
        if c != e:
            raise ValueError(f"classifier dim {c} != estimator dim {e}")
    except ValueError as err:
        raise _malformed(path, "party file", err) from None
    return party


@dataclass(frozen=True)
class _ManifestEntry:
    model: str
    shard_size: int


@dataclass(frozen=True)
class _Manifest:
    """An ``ensemble.json`` document: the class count and each party's file
    (relative to the manifest's directory) with its shard size."""

    num_classes: int
    parties: list[_ManifestEntry]


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
        entries.append(_ManifestEntry(name, party.shard_size))
    path = os.path.join(out_dir, "ensemble.json")
    write_json(path, to_json(_Manifest(ens.num_classes, entries)))
    return path


def load_ensemble(manifest_path) -> EnsembleModel:
    """Load a manifest and its parties; party files must lie in its directory,
    every party must take queries of party 0's feature dimension, and
    ``num_classes`` must be 1 + the largest label of any party. A ValueError
    names the file at fault and its field; a mismatch between the manifest
    and a party file names both."""

    def malformed(field: str, detail: str) -> ValueError:
        return _malformed(manifest_path, "manifest", ValueError(f"{field}: {detail}"))

    doc = read_json(manifest_path)
    try:
        manifest = from_json(_Manifest, doc)
    except ValueError as err:
        raise _malformed(manifest_path, "manifest", err) from None
    if not manifest.parties:
        raise malformed("parties", "expected at least one party")
    base = os.path.dirname(os.path.abspath(manifest_path))
    parties = []
    for i, entry in enumerate(manifest.parties):
        path = os.path.normpath(os.path.join(base, entry.model))
        if os.path.isabs(entry.model) or os.path.commonpath([base, path]) != base:
            raise malformed(f"parties[{i}].model", f"{entry.model!r} is not inside {base}")
        if not os.path.isfile(path):
            raise malformed(f"parties[{i}].model", f"no party file {entry.model!r} in {base}")
        party = load_party(path)
        if party.shard_size != entry.shard_size:
            raise malformed(
                f"parties[{i}].shard_size",
                f"{entry.shard_size} disagrees with {entry.model} ({party.shard_size})",
            )
        if parties and party.estimator.dim != parties[0].estimator.dim:
            raise ValueError(
                f"{path}: feature dim {party.estimator.dim} differs from "
                f"party 0's ({parties[0].estimator.dim})"
            )
        parties.append(party)
    # a class no party can predict has no column any party fills, a label
    # past the count has no column at all, and a huge count would fail later
    # in numpy, naming no file; label spaces are sorted
    top, name = max(
        (p.classifier.label_space[-1], e.model) for p, e in zip(parties, manifest.parties)
    )
    if manifest.num_classes != 1 + top:
        raise malformed(
            "num_classes",
            f"{manifest.num_classes} is not 1 + the largest label of the parties, "
            f"{top} in {name}'s classifier.label_space",
        )
    return build_ensemble(parties, num_classes=manifest.num_classes)


def write_predictions(path, chunks, num_classes: int | None = None) -> None:
    """CSV ``query_index,label``, with objective columns ``j0 ... j{K-1}``
    when ``num_classes`` K is given.

    ``chunks`` yields ``(labels, objective)`` for consecutive runs of query
    rows; a whole batch is one chunk. ``objective`` is the run's (rows, K)
    objective, or None without ``num_classes``. Query indices count on across
    chunks, and each chunk's cells are formatted only when it is written, so
    the file has the same bytes however the rows are chunked.
    """
    header = ["query_index", "label"]
    if num_classes is not None:
        header += [f"j{k}" for k in range(num_classes)]
    _write_columns(path, header, _prediction_columns(chunks))


def _prediction_columns(chunks):
    """Each ``(labels, objective)`` chunk's columns of cells, its query
    indices counting on from the previous chunk's."""
    start = 0
    for labels, objective in chunks:
        labels = np.asarray(labels, dtype=np.int64)
        columns = [map(str, range(start, start + len(labels))), map(str, labels.tolist())]
        if objective is not None:
            columns += [map(repr, col.tolist()) for col in objective.T]
        yield columns
        start += len(labels)


def write_trace(path, trace: list[TraceRow]) -> None:
    """CSV ``step,loss,test_accuracy``; accuracy cell blank when not evaluated."""
    columns = [
        [str(row.step) for row in trace],
        [repr(float(row.loss)) for row in trace],
        ["" if row.test_accuracy is None else repr(float(row.test_accuracy)) for row in trace],
    ]
    _write_columns(path, ["step", "loss", "test_accuracy"], [columns])
