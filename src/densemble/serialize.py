"""Party files and manifests, and the prediction and trace CSV writers.

A model is stored as ``{"type": type_tag}`` followed by its record: each
field its class lists in ``file_fields``, in that order, read and written
by ``jsonconfig`` as every typed JSON document is (that module states the
rules: a field is read by the kind its class declares, never by the shape
of its JSON value; an ``np.ndarray`` is an array object; an unknown or
missing key, a wrong JSON type, an integer outside int64 or a number
outside double range is rejected by its path). ``model_from_dict`` looks
the tag up in a family table: ``classifiers.FAMILIES`` for a party file's
``classifier`` slot, ``density.FAMILIES`` for its ``estimator`` slot, and
both for a bare model. No other class is written or read. A party file is
read as a ``_PartyFile`` and a manifest as a ``_Manifest``. This module adds
only the checks that span fields or files: a party's classifier and
estimator take one feature dimension; a manifest's party files lie in its
directory, agree with it on their shard sizes and take party 0's feature
dimension; and its ``num_classes`` is 1 + the largest label. Every error
names the file and the dotted path of the field at fault
(``classifier.W.data``, ``parties[1].shard_size``), or the model's slot for
an error its class raises, such as a shape mismatch or a NaN parameter.

Party files and manifests go through ``jsonconfig.read_json`` and
``write_json``, and the CSVs through ``datasets._write_columns``; this
module opens no file itself. No program reads a prediction or trace file
back, so their readers live with the tests.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import classifiers, density
from .calibration import TraceRow
from .datasets import _write_columns
from .ensemble import EnsembleModel, PartyModel, build_ensemble
from .jsonconfig import from_json, read_json, to_json, write_json

_MODELS = {**classifiers.FAMILIES, **density.FAMILIES}


def model_to_dict(model) -> dict:
    """``{"type": type_tag, <field>: <value>, ...}`` in ``file_fields`` order."""
    if _MODELS.get(getattr(model, "type_tag", None)) is not type(model):
        raise ValueError(f"unknown model type {type(model).__name__}")
    return {"type": model.type_tag, **to_json(model)}


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
    return from_json(cls, {k: v for k, v in d.items() if k != "type"}, path)


@dataclass(frozen=True)
class _PartyFile:
    """A party file: its classifier's and estimator's ``model_to_dict``
    documents and its shard size."""

    classifier: dict
    estimator: dict
    shard_size: int


def save_party(party: PartyModel, path) -> None:
    clf, est = model_to_dict(party.classifier), model_to_dict(party.estimator)
    write_json(path, to_json(_PartyFile(clf, est, party.shard_size)), indent=None)


def _malformed(path, what: str, err: ValueError) -> ValueError:
    return ValueError(f"{path}: malformed {what}: {err}")


def load_party(path) -> PartyModel:
    """A party file's models and shard size; its classifier and estimator
    must take queries of one feature dimension."""
    doc = read_json(path)
    try:
        doc = from_json(_PartyFile, doc)
        party = PartyModel(
            model_from_dict(doc.classifier, classifiers.FAMILIES, "classifier"),
            model_from_dict(doc.estimator, density.FAMILIES, "estimator"),
            doc.shard_size,
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
