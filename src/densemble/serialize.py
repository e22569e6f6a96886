"""JSON round-trip for models and CSV emitters for predictions and traces.

Arrays are stored as ``{"shape": [...], "data": [row-major floats]}`` so a
load reproduces the exact parameter values (JSON floats carry full double
precision).
"""

from __future__ import annotations

import json
import os

import numpy as np

from .calibration import TraceRow
from .classifiers import FlatClassifier
from .density import GmmModel, KdeModel
from .ensemble import EnsembleModel, PartyModel, build_ensemble


def _encode_array(a: np.ndarray) -> dict:
    a = np.asarray(a, dtype=np.float64)
    return {"shape": list(a.shape), "data": a.ravel().tolist()}


def _decode_array(d: dict) -> np.ndarray:
    return np.array(d["data"], dtype=np.float64).reshape(d["shape"])


def classifier_to_dict(clf) -> dict:
    if not isinstance(clf, FlatClassifier):
        raise ValueError(f"unknown classifier type {type(clf).__name__}")
    doc = {"type": clf.type_tag, "label_space": list(clf.label_space)}
    doc.update((name, _encode_array(getattr(clf, name))) for name in clf._names)
    return doc


def classifier_from_dict(d: dict):
    kind = d.get("type")
    cls = {c.type_tag: c for c in FlatClassifier.__subclasses__()}.get(kind)
    if cls is None:
        raise ValueError(f"unknown classifier type {kind!r}")
    space = tuple(int(c) for c in d["label_space"])
    return cls(*(_decode_array(d[name]) for name in cls._names), space)


def estimator_to_dict(est) -> dict:
    if isinstance(est, KdeModel):
        return {
            "type": "kde",
            "bandwidth": est.bandwidth,
            "points": _encode_array(est.points),
        }
    if isinstance(est, GmmModel):
        return {
            "type": "gmm",
            "weights": _encode_array(est.weights),
            "means": _encode_array(est.means),
            "variances": _encode_array(est.variances),
        }
    raise ValueError(f"unknown estimator type {type(est).__name__}")


def estimator_from_dict(d: dict):
    kind = d.get("type")
    if kind == "kde":
        return KdeModel(_decode_array(d["points"]), float(d["bandwidth"]))
    if kind == "gmm":
        return GmmModel(
            _decode_array(d["weights"]),
            _decode_array(d["means"]),
            _decode_array(d["variances"]),
        )
    raise ValueError(f"unknown estimator type {kind!r}")


def save_party(party: PartyModel, path) -> None:
    doc = {
        "classifier": classifier_to_dict(party.classifier),
        "estimator": estimator_to_dict(party.estimator),
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
            classifier_from_dict(doc["classifier"]),
            estimator_from_dict(doc["estimator"]),
            int(doc["shard_size"]),
        )
    except (KeyError, TypeError) as err:
        raise _malformed(path, "party file", err) from None


def save_ensemble(ens: EnsembleModel, out_dir, manifest_name: str = "ensemble.json") -> str:
    """Write party_<j>.json files plus a manifest listing them.

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
    path = os.path.join(out_dir, manifest_name)
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
    with open(path, "w") as fh:
        header = ["query_index", "label"]
        if objective is not None:
            header += [f"j{k}" for k in range(objective.shape[1])]
        fh.write(",".join(header) + "\n")
        for i, label in enumerate(labels):
            row = [str(i), str(int(label))]
            if objective is not None:
                row += [repr(float(v)) for v in objective[i]]
            fh.write(",".join(row) + "\n")


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
