"""Model and artifact round-trips through JSON and CSV."""

import json
import sys

import numpy as np
import pytest

from conftest import DELETE, MUTATION_VALUES, json_paths, mutated, read_predictions, read_trace
from densemble import classifiers, cli, datasets, density
from densemble.calibration import TraceRow
from densemble.classifiers import MlpClassifier, SoftmaxRegression
from densemble.datasets import generate_toy
from densemble.density import GmmModel, kde_fit
from densemble.ensemble import PartyModel, build_ensemble, evaluate_objective
from densemble.harness import ClassifierConfig, EstimatorConfig
from densemble.serialize import (
    load_ensemble,
    load_party,
    model_from_dict,
    model_to_dict,
    save_ensemble,
    save_party,
    write_predictions,
    write_trace,
)


def test_softmax_round_trip():
    rng = np.random.default_rng(0)
    clf = SoftmaxRegression(rng.normal(size=(2, 3)), rng.normal(size=2), (1, 4))
    back = model_from_dict(model_to_dict(clf))
    assert isinstance(back, SoftmaxRegression)
    assert back.label_space == (1, 4)
    assert np.array_equal(back.W, clf.W)
    assert np.array_equal(back.b, clf.b)


def test_mlp_round_trip():
    rng = np.random.default_rng(1)
    mlp = MlpClassifier.init_random(2, (0, 2, 3), 8, rng)
    back = model_from_dict(model_to_dict(mlp))
    assert isinstance(back, MlpClassifier)
    for name in ("W1", "b1", "W2", "b2"):
        assert np.array_equal(getattr(back, name), getattr(mlp, name))


def test_kde_round_trip():
    rng = np.random.default_rng(2)
    kde = kde_fit(rng.normal(size=(15, 2)), 0.37)
    back = model_from_dict(model_to_dict(kde))
    assert back.bandwidth == 0.37
    assert np.array_equal(back.points, kde.points)


def test_gmm_round_trip():
    rng = np.random.default_rng(3)
    gmm = GmmModel(np.array([0.4, 0.6]), rng.normal(size=(2, 2)), rng.uniform(0.5, 2, (2, 2)))
    back = model_from_dict(model_to_dict(gmm))
    assert np.array_equal(back.weights, gmm.weights)
    assert np.array_equal(back.means, gmm.means)
    assert np.array_equal(back.variances, gmm.variances)


def test_unknown_types_rejected():
    with pytest.raises(ValueError, match="unknown"):
        model_from_dict({"type": "forest", "label_space": [0]})
    with pytest.raises(ValueError, match="unknown"):
        model_from_dict({"type": "flow"})
    with pytest.raises(ValueError, match="unknown"):
        model_to_dict(object())

    # a classifier subclass is written only if its family table holds it,
    # whether it inherits its parent's tag or has one of its own
    class Stray(SoftmaxRegression):
        pass

    for tag in (SoftmaxRegression.type_tag, "stray"):
        Stray.type_tag = tag
        with pytest.raises(ValueError, match="unknown model type Stray"):
            model_to_dict(Stray(np.zeros((2, 2)), np.zeros(2), (0, 1)))


@pytest.mark.parametrize(
    "make,keys",
    [
        (
            lambda rng: SoftmaxRegression(rng.normal(size=(2, 2)), rng.normal(size=2), (0, 1)),
            ["type", "label_space", "W", "b"],
        ),
        (
            lambda rng: MlpClassifier.init_random(2, (0, 1), 3, rng),
            ["type", "label_space", "W1", "b1", "W2", "b2"],
        ),
        (lambda rng: kde_fit(rng.normal(size=(4, 2)), 0.5), ["type", "bandwidth", "points"]),
        (
            lambda rng: GmmModel(np.array([1.0]), np.zeros((1, 2)), np.ones((1, 2))),
            ["type", "weights", "means", "variances"],
        ),
    ],
    ids=["softmax_regression", "mlp", "kde", "gmm"],
)
def test_model_json_key_order(make, keys):
    doc = model_to_dict(make(np.random.default_rng(9)))
    assert list(doc) == keys
    assert list(json.loads(json.dumps(doc))) == keys


FAMILIES = {**classifiers.FAMILIES, **density.FAMILIES}


@pytest.mark.parametrize("tag", sorted(FAMILIES))
def test_family_table_builds_and_round_trips_each_family(tag):
    cls = FAMILIES[tag]
    assert cls.type_tag == tag
    if tag in classifiers.FAMILIES:
        cfg = ClassifierConfig(hidden=3)
    else:
        cfg = EstimatorConfig(components=2)
    shard = generate_toy(0, 30, 3)
    model = cls.from_config(cfg, shard, seed=5)
    assert type(model) is cls
    back = model_from_dict(json.loads(json.dumps(model_to_dict(model))))
    assert type(back) is cls
    for name in cls.file_fields:
        want, got = getattr(model, name), getattr(back, name)
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), name


def test_config_default_types_are_family_keys():
    assert ClassifierConfig().type in classifiers.FAMILIES
    assert EstimatorConfig().type in density.FAMILIES


def test_party_file_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    party = PartyModel(
        SoftmaxRegression(rng.normal(size=(2, 2)), rng.normal(size=2), (0, 1)),
        kde_fit(rng.normal(size=(10, 2)), 0.5),
        123,
    )
    path = tmp_path / "party.json"
    save_party(party, path)
    back = load_party(path)
    assert back.shard_size == 123
    assert np.array_equal(back.classifier.W, party.classifier.W)
    assert np.array_equal(back.estimator.points, party.estimator.points)


def test_ensemble_manifest_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    parties = [
        PartyModel(
            SoftmaxRegression(rng.normal(size=(2, 2)), rng.normal(size=2), (0, 1)),
            kde_fit(rng.normal(size=(8, 2)), 0.2),
            40,
        ),
        PartyModel(
            MlpClassifier.init_random(2, (2, 3), 6, rng),
            kde_fit(rng.normal(size=(12, 2)), 0.2),
            60,
        ),
    ]
    ens = build_ensemble(parties, num_classes=4)
    manifest = save_ensemble(ens, tmp_path / "model")
    back = load_ensemble(manifest)
    assert back.num_classes == 4
    assert np.allclose(back.priors, [0.4, 0.6], atol=1e-15)
    assert np.array_equal(back.parties[1].classifier.W1, parties[1].classifier.W1)
    X = rng.normal(size=(20, 2))
    assert np.array_equal(
        back.parties[0].estimator.log_density(X), parties[0].estimator.log_density(X)
    )


def test_manifest_shard_size_mismatch_rejected(tmp_path):
    rng = np.random.default_rng(6)
    party = PartyModel(
        SoftmaxRegression(rng.normal(size=(2, 2)), rng.normal(size=2), (0, 1)),
        kde_fit(rng.normal(size=(5, 2)), 0.2),
        10,
    )
    ens = build_ensemble([party], num_classes=2)
    manifest = save_ensemble(ens, tmp_path / "model")
    doc = json.loads((tmp_path / "model" / "ensemble.json").read_text())
    doc["parties"][0]["shard_size"] = 99
    (tmp_path / "model" / "ensemble.json").write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="disagrees"):
        load_ensemble(manifest)


@pytest.mark.parametrize("escape", ["relative", "absolute"])
def test_manifest_party_path_outside_directory_rejected(tmp_path, capsys, escape):
    rng = np.random.default_rng(7)
    party = PartyModel(
        SoftmaxRegression(rng.normal(size=(2, 2)), rng.normal(size=2), (0, 1)),
        kde_fit(rng.normal(size=(5, 2)), 0.2),
        10,
    )
    manifest = save_ensemble(build_ensemble([party], num_classes=2), tmp_path / "model")
    outside = tmp_path / "party_0.json"
    outside.write_bytes((tmp_path / "model" / "party_0.json").read_bytes())
    entry = "../party_0.json" if escape == "relative" else str(outside)
    doc = json.loads((tmp_path / "model" / "ensemble.json").read_text())
    doc["parties"][0]["model"] = entry
    (tmp_path / "model" / "ensemble.json").write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="not inside"):
        load_ensemble(manifest)
    rc = cli.main(["eval-zeroshot", "--ensemble", manifest, "--data", str(tmp_path / "x.csv")])
    assert rc == 2
    assert entry in capsys.readouterr().err


def test_predictions_round_trip(tmp_path):
    path = tmp_path / "pred.csv"
    labels = np.array([2, 0, 1, 1])
    J = np.random.default_rng(7).random((4, 3))
    write_predictions(path, [(labels, J)], 3)
    assert np.array_equal(read_predictions(path), labels)
    header = path.read_text().splitlines()[0]
    assert header == "query_index,label,j0,j1,j2"


def test_predictions_without_objective(tmp_path):
    path = tmp_path / "pred.csv"
    write_predictions(path, [(np.array([0, 1]), None)])
    assert path.read_text() == "query_index,label\n0,0\n1,1\n"



def reference_write_predictions(path, labels, objective=None):
    """The cell-by-cell writer: one ``str``/``repr`` per cell, row by row."""
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


@pytest.mark.parametrize("n", [0, 1, 7, 500])
@pytest.mark.parametrize("with_objective", [False, True])
def test_predictions_bytes_match_cell_by_cell_writer(tmp_path, n, with_objective):
    rng = np.random.default_rng(n)
    labels = rng.integers(0, 4, size=n)
    # magnitudes from subnormal to near overflow, and signed zeros
    J = rng.normal(size=(n, 4)) * 10.0 ** rng.integers(-320, 300, size=(n, 4))
    J[:, 0] = np.where(rng.random(n) < 0.3, -0.0, J[:, 0])
    J = J if with_objective else None
    write_predictions(tmp_path / "got.csv", [(labels, J)], 4 if with_objective else None)
    reference_write_predictions(tmp_path / "want.csv", labels, J)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize("with_objective", [False, True])
def test_predictions_in_chunks_have_the_bytes_of_one_chunk(tmp_path, monkeypatch, with_objective):
    # chunks of 7, 7, 0 and 3 rows, joined and written 4 lines at a time
    monkeypatch.setattr(datasets, "_CSV_BLOCK_LINES", 4)
    rng = np.random.default_rng(5)
    labels = rng.integers(0, 4, size=17)
    J = rng.normal(size=(17, 4)) * 10.0 ** rng.integers(-320, 300, size=(17, 4))
    J, K = (J, 4) if with_objective else (None, None)
    cuts = [(0, 7), (7, 14), (14, 14), (14, 17)]
    chunks = ((labels[a:b], None if J is None else J[a:b]) for a, b in cuts)
    write_predictions(tmp_path / "chunked.csv", chunks, K)
    write_predictions(tmp_path / "whole.csv", [(labels, J)], K)
    reference_write_predictions(tmp_path / "want.csv", labels, J)
    assert (tmp_path / "chunked.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()
    assert (tmp_path / "whole.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_trace_round_trip(tmp_path):
    path = tmp_path / "trace.csv"
    trace = [
        TraceRow(1, 2.5, None),
        TraceRow(2, 1.25, 0.875),
        TraceRow(3, 0.5, None),
    ]
    write_trace(path, trace)
    back = read_trace(path)
    assert back == trace
    lines = path.read_text().splitlines()
    assert lines[0] == "step,loss,test_accuracy"
    assert lines[1].endswith(",")


def reference_write_trace(path, trace):
    """The line-by-line writer: one f-string per row."""
    with open(path, "w") as fh:
        fh.write("step,loss,test_accuracy\n")
        for row in trace:
            acc = "" if row.test_accuracy is None else repr(float(row.test_accuracy))
            fh.write(f"{row.step},{repr(float(row.loss))},{acc}\n")


@pytest.mark.parametrize("n", [0, 1, 7, 500])
def test_trace_bytes_match_line_by_line_writer(tmp_path, n):
    rng = np.random.default_rng(n)
    # losses from subnormal to near overflow; accuracy evaluated on a third
    loss = rng.random(n) * 10.0 ** rng.integers(-320, 300, size=n)
    trace = [
        TraceRow(step, float(loss[step]), float(rng.random()) if step % 3 == 0 else None)
        for step in range(n)
    ]
    write_trace(tmp_path / "got.csv", trace)
    reference_write_trace(tmp_path / "want.csv", trace)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    assert read_trace(tmp_path / "got.csv") == trace


def test_trace_bad_header_rejected(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("a,b\n")
    with pytest.raises(ValueError, match="line 1"):
        read_trace(path)


@pytest.mark.parametrize(
    "row, message",
    [
        ("1", "line 3: expected 3 fields, got 1"),
        ("1,0.5", "line 3: expected 3 fields, got 2"),
        ("1,x,", "line 3: non-numeric cell in '1,x,'"),
        ("1.5,0.5,", "line 3: non-numeric cell in '1.5,0.5,'"),
        ("1,0.5,high", "line 3: non-numeric cell in '1,0.5,high'"),
    ],
)
def test_trace_bad_row_names_its_line(tmp_path, row, message):
    path = tmp_path / "trace.csv"
    path.write_text(f"step,loss,test_accuracy\n0,1.0,\n{row}\n")
    with pytest.raises(ValueError) as err:
        read_trace(path)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "row, message",
    [
        ("1", "line 3: expected 3 fields, got 1"),
        ("1,2,0.5,0.5", "line 3: expected 3 fields, got 4"),
        ("1,two,0.5", "line 3: non-integer cell in '1,two,0.5'"),
        ("1.0,2,0.5", "line 3: non-integer cell in '1.0,2,0.5'"),
        ("2,2,0.5", "line 3: query_index out of order"),
    ],
)
def test_predictions_bad_row_names_its_line(tmp_path, row, message):
    path = tmp_path / "pred.csv"
    path.write_text(f"query_index,label,j0\n0,1,0.5\n{row}\n")
    with pytest.raises(ValueError) as err:
        read_predictions(path)
    assert str(err.value) == message


def test_predictions_order_check_counts_blank_lines_across_blocks(tmp_path):
    rows = [f"{i},{i % 2}" for i in range(8)]
    path = tmp_path / "pred.csv"
    path.write_text("query_index,label\n" + "\n".join(rows[:2] + [""] + rows[2:]) + "\n")
    assert read_predictions(path).tolist() == [i % 2 for i in range(8)]
    rows[6] = "7,0"
    path.write_text("query_index,label\n" + "\n".join(rows[:2] + [""] + rows[2:]) + "\n")
    with pytest.raises(ValueError) as err:
        read_predictions(path)
    assert str(err.value) == "line 9: query_index out of order"


MALFORMED = {
    "numeric-model": ("ensemble.json", lambda doc: doc["parties"][0].update(model=5)),
    "missing-model": ("ensemble.json", lambda doc: doc["parties"][0].pop("model")),
    "missing-shard-size": ("ensemble.json", lambda doc: doc["parties"][0].pop("shard_size")),
    "party-missing-array": ("party_0.json", lambda doc: doc["classifier"].pop("W")),
    "party-array-as-number": ("party_0.json", lambda doc: doc["classifier"].update(W=3.0)),
    "party-unknown-key": ("party_0.json", lambda doc: doc["estimator"].update(extra=1)),
    "party-unknown-top-level-key": ("party_0.json", lambda doc: doc.update(extra=1)),
    "estimator-classifier-tag": (
        "party_0.json", lambda doc: doc.update(estimator=dict(doc["classifier"])),
    ),
    "estimator-not-object": ("party_0.json", lambda doc: doc.update(estimator=[])),
    "estimator-nan-point": (
        "party_0.json", lambda doc: doc["estimator"]["points"]["data"].__setitem__(3, np.nan),
    ),
    "party-fractional-shard-size": ("party_0.json", lambda doc: doc.update(shard_size=10.9)),
    "party-boolean-shard-size": ("party_0.json", lambda doc: doc.update(shard_size=True)),
    "manifest-boolean-shard-size": (
        "ensemble.json", lambda doc: doc["parties"][0].update(shard_size=True),
    ),
    "manifest-string-num-classes": ("ensemble.json", lambda doc: doc.update(num_classes="2")),
    "manifest-huge-num-classes": ("ensemble.json", lambda doc: doc.update(num_classes=2**63)),
    "manifest-unseen-class": ("ensemble.json", lambda doc: doc.update(num_classes=3)),
    "party-fractional-label": (
        "party_0.json", lambda doc: doc["classifier"].update(label_space=[0.2, 1.9]),
    ),
    "party-negative-label": (
        "party_0.json", lambda doc: doc["classifier"].update(label_space=[-1, 1]),
    ),
    "party-duplicate-label": (
        "party_0.json", lambda doc: doc["classifier"].update(label_space=[0, 0]),
    ),
    "party-unsorted-labels": (
        "party_0.json", lambda doc: doc["classifier"].update(label_space=[1, 0]),
    ),
    "party-empty-label-space": (
        "party_0.json",
        lambda doc: doc["classifier"].update(
            label_space=[], W={"shape": [0, 2], "data": []}, b={"shape": [0], "data": []}
        ),
    ),
    "party-bandwidth-underflow": (
        "party_0.json", lambda doc: doc["estimator"].update(bandwidth=1e-200),
    ),
    "party-bandwidth-overflow": (
        "party_0.json", lambda doc: doc["estimator"].update(bandwidth=1e200),
    ),
    "party-bandwidth-huge-integer": (
        "party_0.json", lambda doc: doc["estimator"].update(bandwidth=10**400),
    ),
    "estimator-string-bandwidth": (
        "party_0.json", lambda doc: doc["estimator"].update(bandwidth="0.2"),
    ),
    "array-string-cell": (
        "party_0.json", lambda doc: doc["classifier"]["b"].update(data=["0.5", 1.0]),
    ),
    "array-boolean-cell": (
        "party_0.json", lambda doc: doc["classifier"]["b"].update(data=[0.5, True]),
    ),
    "array-nested-cell": (
        "party_0.json", lambda doc: doc["classifier"]["b"].update(data=[[0.5], [1.0]]),
    ),
    "array-huge-integer-cell": (
        "party_0.json", lambda doc: doc["classifier"]["b"].update(data=[0.5, 10**400]),
    ),
    "array-negative-shape": (
        "party_0.json", lambda doc: doc["classifier"]["b"].update(shape=[-1]),
    ),
    "array-inferred-shape": (
        "party_0.json", lambda doc: doc["estimator"]["points"].update(shape=[-1, 2]),
    ),
    "array-fractional-shape": (
        "party_0.json", lambda doc: doc["classifier"]["b"].update(shape=[2.0]),
    ),
    "array-boolean-shape": (
        "party_0.json", lambda doc: doc["estimator"]["points"].update(shape=[5, True]),
    ),
    "array-shape-not-list": (
        "party_0.json", lambda doc: doc["classifier"]["b"].update(shape=2),
    ),
    "array-data-not-list": (
        "party_0.json", lambda doc: doc["classifier"]["b"].update(data="0.5,1.0"),
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_manifest_or_party_file_exits_2(tmp_path, capsys, case):
    rng = np.random.default_rng(8)
    party = PartyModel(
        SoftmaxRegression(rng.normal(size=(2, 2)), rng.normal(size=2), (0, 1)),
        kde_fit(rng.normal(size=(5, 2)), 0.2),
        10,
    )
    manifest = save_ensemble(build_ensemble([party], num_classes=2), tmp_path / "model")
    name, mutate = MALFORMED[case]
    path = tmp_path / "model" / name
    doc = json.loads(path.read_text())
    mutate(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="malformed"):
        load_ensemble(manifest)
    rc = cli.main(["eval-zeroshot", "--ensemble", manifest, "--data", str(tmp_path / "x.csv")])
    assert rc == 2
    assert name in capsys.readouterr().err


WRONG_KIND = {
    # fractional labels in an array object would truncate to (0, 1)
    "label-space-array-object": (
        "classifier", "label_space", {"shape": [2], "data": [0.5, 1.7]}
    ),
    # a 0-d array object would load as a 0-d array and save back as one
    "bandwidth-array-object": ("estimator", "bandwidth", {"shape": [], "data": [0.5]}),
    # a plain list would load as the label-space tuple (1,)
    "weights-plain-list": ("estimator", "weights", [1]),
    # an array object has exactly the keys shape and data
    "array-without-data": ("classifier", "b", {"shape": [2]}),
    "array-with-unknown-key": (
        "classifier", "b", {"shape": [2], "data": [0.5, 1.0], "dtype": "float32"}
    ),
}


@pytest.mark.parametrize("case", sorted(WRONG_KIND))
def test_model_field_of_the_wrong_kind_is_rejected(tmp_path, capsys, case):
    # every field is read as the kind its class declares, whatever the JSON
    # value looks like
    rng = np.random.default_rng(15)
    estimator = kde_fit(rng.normal(size=(5, 2)), 0.2)
    if case == "weights-plain-list":
        estimator = GmmModel(np.ones(1), np.zeros((1, 2)), np.ones((1, 2)))
    party = PartyModel(
        SoftmaxRegression(rng.normal(size=(2, 2)), rng.normal(size=2), (0, 1)), estimator, 10
    )
    manifest = save_ensemble(build_ensemble([party], num_classes=2), tmp_path / "model")
    slot, field, value = WRONG_KIND[case]
    path = tmp_path / "model" / "party_0.json"
    doc = json.loads(path.read_text())
    doc[slot][field] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"malformed party file: {slot}.{field}: expected"):
        load_ensemble(manifest)
    rc = cli.main(["eval-zeroshot", "--ensemble", manifest, "--data", str(tmp_path / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(path) in err and field in err


@pytest.mark.parametrize("case", ["classifier-vs-estimator", "party-vs-party-0"])
def test_party_of_another_feature_dimension_is_rejected(tmp_path, capsys, case):
    rng = np.random.default_rng(16)

    def party(clf_dim, est_dim):
        clf = SoftmaxRegression(rng.normal(size=(2, clf_dim)), rng.normal(size=2), (0, 1))
        return PartyModel(clf, kde_fit(rng.normal(size=(5, est_dim)), 0.2), 10)

    if case == "classifier-vs-estimator":
        parties = [party(2, 2), party(3, 2)]
    else:
        parties = [party(2, 2), party(3, 3)]
    manifest = save_ensemble(build_ensemble(parties, num_classes=2), tmp_path / "model")
    path = tmp_path / "model" / "party_1.json"
    with pytest.raises(ValueError) as err:
        load_ensemble(manifest)
    assert str(path) in str(err.value)
    (tmp_path / "x.csv").write_text("f0,f1,label\n0.5,0.5,0\n")
    rc = cli.main(["eval-zeroshot", "--ensemble", manifest, "--data", str(tmp_path / "x.csv")])
    assert rc == 2
    stderr = capsys.readouterr().err
    assert str(path) in stderr and "dim" in stderr and "matmul" not in stderr


def valid_alternative(name, path, value):
    """Whether a mutation is a valid file that may load to other scores: a
    finite number in an array cell, an integer label, a positive bandwidth,
    or the manifest without one party's entry. Each may still be rejected
    (weights that no longer sum to 1, a label out of order)."""
    # compared exactly, so an integer past the largest double is no number
    number = type(value) in (int, float) and abs(value) <= sys.float_info.max
    if path[-2:-1] == ("data",):
        return number
    if path[-2:-1] == ("label_space",):
        return type(value) is int
    if path[-1] == "bandwidth":
        return number and value > 0
    return name == "ensemble.json" and len(path) == 2 and value is DELETE


@pytest.mark.parametrize("name", ["ensemble.json", "party_0.json", "party_1.json"])
def test_mutated_party_file_or_manifest_loads_or_names_file_and_field(tmp_path, capsys, name):
    # every key and list element of the file, set to each value or deleted:
    # the ensemble loads to the same scores, is a valid alternative, or the
    # load raises a ValueError naming the file and a key on the path (the
    # CLI exits 2 with it); all four model families are covered
    rng = np.random.default_rng(21)
    parties = [
        PartyModel(
            SoftmaxRegression(rng.normal(size=(2, 2)), rng.normal(size=2), (0, 1)),
            kde_fit(rng.normal(size=(3, 2)), 0.5),
            3,
        ),
        PartyModel(
            MlpClassifier(
                rng.normal(size=(2, 2)), rng.normal(size=2),
                rng.normal(size=(2, 2)), rng.normal(size=2), (1, 2),
            ),
            GmmModel(np.array([0.25, 0.75]), rng.normal(size=(2, 2)), rng.uniform(0.5, 2.0, (2, 2))),
            4,
        ),
    ]
    manifest = save_ensemble(build_ensemble(parties, num_classes=3), tmp_path / "model")
    X = rng.normal(size=(16, 2))
    want = evaluate_objective(load_ensemble(manifest), X)
    path = tmp_path / "model" / name
    doc = json.loads(path.read_text())
    outcomes = {"same": 0, "alternative": 0, "rejected": 0}
    for p in json_paths(doc):
        for value in [*MUTATION_VALUES, DELETE]:
            path.write_text(json.dumps(mutated(doc, p, value)))
            case = f"{name} {p} {'deleted' if value is DELETE else repr(value)}"
            try:
                with np.errstate(all="ignore"):
                    got = evaluate_objective(load_ensemble(manifest), X)
            except ValueError as err:
                keys = [k for k in p if isinstance(k, str)]
                assert name in str(err) and any(k in str(err) for k in keys), (case, str(err))
                assert cli.main(["eval-zeroshot", "--ensemble", manifest, "--data", "x.csv"]) == 2
                assert str(err) in capsys.readouterr().err, case
                outcomes["rejected"] += 1
                continue
            if valid_alternative(name, p, value):
                outcomes["alternative"] += 1
                continue
            for field in ("posteriors", "loglik", "weights", "objective"):
                a, b = getattr(got, field), getattr(want, field)
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), (case, field)
            outcomes["same"] += 1
    assert outcomes["rejected"] > 100 and outcomes["alternative"] > 0, outcomes
