"""JSON round-trip for models and CSV emitters for predictions and traces.

One codec serves every model: ``model_to_dict`` writes ``{"type": type_tag}``
and then each of the class's ``file_fields``, and ``model_from_dict`` picks
the class by tag among those a party-file slot allows. Arrays are stored as
``{"shape": [...], "data": [row-major floats]}`` so a load reproduces the
exact parameter values (JSON floats carry full double precision).
"""

from __future__ import annotations

import json
import os

import numpy as np

from .calibration import TraceRow
from .classifiers import FlatClassifier
from .datasets import _write_columns
from .density import GmmModel, KdeModel
from .ensemble import EnsembleModel, PartyModel, build_ensemble


_CLASSIFIERS = tuple(FlatClassifier.__subclasses__())
_ESTIMATORS = (KdeModel, GmmModel)


def _encode(value):
    if isinstance(value, np.ndarray):
        return {"shape": list(value.shape), "data": value.ravel().tolist()}
    return list(value) if isinstance(value, tuple) else value


def _decode(value):
    """An array object, a list of ints (a label space) or a float."""
    if isinstance(value, dict):
        return np.array(value["data"], dtype=np.float64).reshape(value["shape"])
    if isinstance(value, list):
        return tuple(int(c) for c in value)
    return float(value)


def model_to_dict(model) -> dict:
    """``{"type": type_tag, <field>: <value>, ...}`` in ``file_fields`` order."""
    if type(model) not in _CLASSIFIERS + _ESTIMATORS:
        raise ValueError(f"unknown model type {type(model).__name__}")
    doc = {"type": model.type_tag}
    doc.update((name, _encode(getattr(model, name))) for name in model.file_fields)
    return doc


def model_from_dict(d: dict, classes: tuple = _CLASSIFIERS + _ESTIMATORS):
    """Rebuild a model of one of ``classes`` from ``model_to_dict`` output."""
    kind = d["type"]
    cls = {c.type_tag: c for c in classes}.get(kind)
    if cls is None:
        raise ValueError(f"unknown model type {kind!r}")
    unknown = sorted(set(d) - {"type", *cls.file_fields})
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r} in {kind!r} model")
    return cls(**{name: _decode(d[name]) for name in cls.file_fields})


def save_party(party: PartyModel, path) -> None:
    doc = {
        "classifier": model_to_dict(party.classifier),
        "estimator": model_to_dict(party.estimator),
        "shard_size": party.shard_size,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def _malformed(path, what: str, err: Exception) -> ValueError:
    detail = f"missing key {err}" if isinstance(err, KeyError) else str(err)
    return ValueError(f"{path}: malformed {what}: {detail}")


def load_party(path) -> PartyModel:
    with open(path) as fh:
        doc = json.load(fh)
    try:
        return PartyModel(
            model_from_dict(doc["classifier"], _CLASSIFIERS),
            model_from_dict(doc["estimator"], _ESTIMATORS),
            int(doc["shard_size"]),
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
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return path


def load_ensemble(manifest_path) -> EnsembleModel:
    """Load a manifest and its parties; party files must lie in its directory."""
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    try:
        num_classes = int(manifest["num_classes"])
        entries = [(e["model"], int(e["shard_size"])) for e in manifest["parties"]]
        for model, _ in entries:
            if not isinstance(model, str):
                raise TypeError(f"party model {model!r} is not a string")
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


def read_predictions(path) -> np.ndarray:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if header[:2] != ["query_index", "label"]:
            raise ValueError(f"line 1: unexpected predictions header {header}")
        labels = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if int(parts[0]) != len(labels):
                raise ValueError(f"line {lineno}: query_index out of order")
            labels.append(int(parts[1]))
    return np.array(labels, dtype=np.int64)


def write_trace(path, trace: list[TraceRow]) -> None:
    """CSV ``step,loss,test_accuracy``; accuracy cell blank when not evaluated."""
    with open(path, "w") as fh:
        fh.write("step,loss,test_accuracy\n")
        for row in trace:
            acc = "" if row.test_accuracy is None else repr(float(row.test_accuracy))
            fh.write(f"{row.step},{repr(float(row.loss))},{acc}\n")


def read_trace(path) -> list[TraceRow]:
    rows = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "step,loss,test_accuracy":
            raise ValueError(f"line 1: unexpected trace header {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: expected 3 fields, got {len(parts)}")
            acc = None if parts[2] == "" else float(parts[2])
            rows.append(TraceRow(int(parts[0]), float(parts[1]), acc))
    return rows
