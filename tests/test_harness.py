"""Experiment orchestration: configs, presets, pipeline runs, sweeps, CLI."""

import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from conftest import ConstantClassifier, fast_experiment_doc, read_predictions

from densemble import cli, serialize
from densemble.calibration import CalibrationConfig
from densemble.classifiers import ClassifierStack, SoftmaxRegression
from densemble.datasets import read_csv
from densemble.density import KdeModel
from densemble.ensemble import evaluate_objective
from densemble.harness import (
    PRESET_NAMES,
    MetricsReport,
    build_parties,
    config_from_dict,
    config_to_dict,
    load_config,
    local_accuracy,
    prepare_data,
    run_experiment,
    stream_seeds,
    sweep,
    sweep_summary,
    write_metrics_csv,
    write_sweep_csv,
)


@pytest.fixture(scope="module")
def pipeline_artifacts(tmp_path_factory):
    """One full zero-shot pipeline run with artifacts, shared across tests."""
    out = tmp_path_factory.mktemp("run")
    cfg = replace(config_from_dict(fast_experiment_doc()), out_dir=str(out))
    report = run_experiment(cfg)
    return cfg, report, out


# ---------------------------------------------------------------- configs


def test_all_presets_load():
    for name in PRESET_NAMES:
        cfg = load_config(name)
        assert len(cfg.parties) == len(cfg.partition.parties)
        covered = set()
        for rule in cfg.partition.parties:
            covered.update(rule.classes)
        assert covered == set(range(cfg.data.num_classes))


def test_toy3_preset_shape():
    cfg = load_config("toy3")
    assert cfg.data.n == 2000
    assert cfg.data.num_classes == 5
    assert cfg.data.train_ratio == 0.7
    assert [r.classes for r in cfg.partition.parties] == [(0, 1), (2, 3), (3, 4)]
    assert [r.fraction for r in cfg.partition.parties] == [1.0, 0.5, 0.5]
    types = [p.classifier.type for p in cfg.parties]
    assert types == ["softmax_regression", "mlp", "mlp"]
    assert all(p.estimator.type == "kde" for p in cfg.parties)
    assert cfg.calibration is None


def test_splitd_preset_uses_gmm():
    cfg = load_config("splitD")
    assert len(cfg.parties) == 7
    assert all(p.estimator.type == "gmm" for p in cfg.parties)


def test_unknown_config_name_lists_presets():
    with pytest.raises(ValueError, match="toy3"):
        load_config("no_such_preset")


def test_load_config_from_file(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(fast_experiment_doc()))
    cfg = load_config(str(path))
    assert config_to_dict(cfg) == config_to_dict(config_from_dict(fast_experiment_doc()))


def test_config_dict_round_trip(fast_config):
    doc = config_to_dict(fast_config)
    assert config_to_dict(config_from_dict(doc)) == doc


def test_config_errors_name_the_field():
    base = fast_experiment_doc()

    doc = fast_experiment_doc()
    del doc["partition"]
    with pytest.raises(ValueError, match="partition"):
        config_from_dict(doc)

    doc = fast_experiment_doc()
    doc["parties"][1]["classifier"]["type"] = "forest"
    with pytest.raises(ValueError, match=r"parties\[1\].classifier.type"):
        config_from_dict(doc)

    doc = fast_experiment_doc()
    doc["parties"][0]["estimator"]["type"] = "histogram"
    with pytest.raises(ValueError, match=r"parties\[0\].estimator.type"):
        config_from_dict(doc)

    doc = fast_experiment_doc()
    doc["parties"][2]["classifier"]["units"] = 9
    with pytest.raises(ValueError, match=r"parties\[2\].classifier.units"):
        config_from_dict(doc)

    doc = fast_experiment_doc()
    doc["data"]["train_ratio"] = 1.5
    with pytest.raises(ValueError, match="train_ratio"):
        config_from_dict(doc)

    doc = fast_experiment_doc()
    doc["calibration"] = {"lr": 1e-3, "momentum": 0.9}
    with pytest.raises(ValueError, match="calibration.momentum"):
        config_from_dict(doc)

    doc = fast_experiment_doc()
    doc["parties"] = doc["parties"][:2]
    with pytest.raises(ValueError, match="model configs"):
        config_from_dict(doc)

    # base was never mutated by the per-case copies
    assert base == fast_experiment_doc()


def _set(*keys_and_value):
    *keys, value = keys_and_value

    def mutate(doc):
        for key in keys[:-1]:
            doc = doc[key]
        doc[keys[-1]] = value

    return mutate


MALFORMED_CONFIGS = {
    "clip-without-clip-norm": (
        _set("calibration", {"clip": {"noise_sigma": 0.1}}),
        "calibration.clip.clip_norm",
    ),
    "calibration-list": (_set("calibration", [1]), "calibration"),
    "parties-object": (_set("parties", {"0": {}}), "parties"),
    "classifier-number": (_set("parties", 0, "classifier", 3), "parties[0].classifier"),
    "data-typo": (_set("data", "num_clases", 5), "data.num_clases"),
    "top-level-typo": (_set("calibrate_from_rwa", True), "calibrate_from_rwa"),
    "clip-seed": (
        _set("calibration", {"clip": {"clip_norm": 1.0, "seed": 3}}),
        "calibration.clip.seed",
    ),
    "clip-typo": (
        _set("calibration", {"clip": {"clip_norm": 1.0, "nosie_sigma": 0.1}}),
        "calibration.clip.nosie_sigma",
    ),
    "partition-rule-typo": (
        _set("partition", "parties", 0, "fractoin", 1.0),
        "partition.parties[0].fractoin",
    ),
    "n-as-string": (_set("data", "n", "2000"), "data.n"),
    "class-outside-num-classes": (
        _set("data", "num_classes", 3),
        "partition.parties[1].classes",
    ),
    "class-not-assigned": (_set("data", "num_classes", 6), "partition"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CONFIGS))
def test_malformed_config_exits_2(case, tmp_path, capsys):
    mutate, field_path = MALFORMED_CONFIGS[case]
    doc = fast_experiment_doc()
    mutate(doc)
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["train-local", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field_path}:"), err


@pytest.mark.parametrize(
    "keys, value",
    [
        (("parties", 0, "classifier", "lr"), math.inf),
        (("parties", 1, "classifier", "lr"), -math.inf),
        (("parties", 2, "estimator", "bandwidth"), math.nan),
        (("calibration", "clip", "clip_norm"), math.inf),
        (("calibration", "clip", "noise_sigma"), math.nan),
        (("data", "train_ratio"), math.nan),
        (("partition", "parties", 1, "fraction"), math.inf),
    ],
    ids=lambda v: v[-1] if isinstance(v, tuple) else str(v),
)
def test_non_finite_config_numbers_exit_2(keys, value, tmp_path, capsys):
    # json writes and reads NaN and Infinity; the config reader rejects them
    doc = fast_experiment_doc()
    doc["calibration"] = {"clip": {"clip_norm": 1.0, "noise_sigma": 0.1}}
    _set(*keys, value)(doc)
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["train-local", "--config", str(path)]) == 2
    field_path = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys)[1:]
    message = f"error: {field_path}: expected a finite number, got {value}\n"
    assert capsys.readouterr().err == message


@pytest.mark.parametrize(
    "num_classes,message",
    [
        (3, "partition.parties[1].classes: [3] outside [0, 3)"),
        (6, "partition: classes [5] not assigned to any party"),
    ],
    ids=["outside", "not-assigned"],
)
def test_partition_rules_checked_against_num_classes(num_classes, message):
    doc = fast_experiment_doc()
    doc["data"]["num_classes"] = num_classes
    with pytest.raises(ValueError) as err:
        config_from_dict(doc)
    assert str(err.value) == message


def test_partition_spec_without_parties_exits_2(tmp_path, capsys):
    data = tmp_path / "data.csv"
    cli.main(["gen-data", "--n", "30", "--classes", "3", "--out", str(data)])
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"seed": 0}))
    argv = ["partition", "--data", str(data), "--spec", str(spec)]
    assert cli.main(argv + ["--out", str(tmp_path / "shards")]) == 2
    assert "error: parties: missing" in capsys.readouterr().err


@pytest.mark.parametrize(
    "block,key,bad",
    [
        ("classifier", "lr", -0.1),
        ("classifier", "lr", 0),
        ("classifier", "epochs", -1),
        ("classifier", "batch", 0),
        ("classifier", "hidden", 0),
        ("estimator", "bandwidth", 0),
        ("estimator", "components", 0),
    ],
)
def test_model_config_range_checked_at_load(block, key, bad):
    doc = fast_experiment_doc()
    doc["parties"][1][block][key] = bad
    with pytest.raises(ValueError, match=rf"^parties\[1\]\.{block}: {key} "):
        config_from_dict(doc)


def test_model_config_bounds_are_inclusive_where_stated():
    doc = fast_experiment_doc()
    doc["parties"][1]["classifier"].update(epochs=0, batch=1, hidden=1)
    doc["parties"][1]["estimator"].update(type="gmm", components=1)
    cfg = config_from_dict(doc)
    assert cfg.parties[1].classifier.epochs == 0
    assert cfg.parties[1].estimator.components == 1


def test_empty_calibration_block_means_default_calibration():
    doc = fast_experiment_doc()
    doc["calibration"] = {}
    assert config_from_dict(doc).calibration == CalibrationConfig()


def test_calibration_echo_key_order():
    doc = fast_experiment_doc()
    doc["calibration"] = {"clip": {"clip_norm": 2}, "steps": 3}
    echo = config_to_dict(config_from_dict(doc))
    assert list(echo) == [
        "seed", "data", "partition", "parties", "calibrate_from_raw", "calibration"
    ]
    cal = echo["calibration"]
    assert list(cal) == [
        "lr", "batch", "steps", "update_density", "density_scope", "eval_every", "clip"
    ]
    assert cal["clip"] == {"clip_norm": 2.0, "noise_sigma": 0.0, "seed": 0}
    assert type(cal["clip"]["clip_norm"]) is float


def test_config_echo_reloads_and_reruns_identically(pipeline_artifacts, tmp_path):
    _, _, out = pipeline_artifacts
    echo = json.loads((out / "config.json").read_text())
    cfg = load_config(str(out / "config.json"))
    del echo["stream_seeds"]
    assert config_to_dict(cfg) == echo
    run_experiment(replace(cfg, out_dir=str(tmp_path)))
    for name in ("metrics.csv", "predictions_ensemble.csv", "predictions_max_model.csv"):
        assert (tmp_path / name).read_bytes() == (out / name).read_bytes(), name


# ----------------------------------------------------------- seed streams


def test_stream_seeds_deterministic():
    assert stream_seeds(42, 3) == stream_seeds(42, 3)


def test_stream_seeds_shapes_and_distinctness():
    seeds = stream_seeds(0, 3)
    assert set(seeds) == {"data", "split", "partition", "init", "batching", "noise"}
    assert len(seeds["init"]) == 6
    assert len(seeds["batching"]) == 4
    scalars = [seeds["data"], seeds["split"], seeds["partition"], seeds["noise"]]
    assert len(set(scalars)) == 4
    assert stream_seeds(1, 3)["data"] != seeds["data"]


# ------------------------------------------------------------- pipelines


def test_build_party_rejects_unknown_family(fast_config):
    seeds = stream_seeds(0, 3)
    _, _, shards = prepare_data(fast_config, seeds)
    for block in ("classifier", "estimator"):
        pcfg = fast_config.parties[0]
        pcfg = replace(pcfg, **{block: replace(getattr(pcfg, block), type="forest")})
        with pytest.raises(KeyError, match="forest"):
            build_parties([pcfg], shards[:1], seeds, pretrain=False)


def test_splitd_trains_in_lockstep_and_calibrates_one_classifier_stack(monkeypatch):
    # splitD's seven softmax parties share family, shapes, shard size and
    # training settings: local training is one loop of stacked minibatch
    # steps, and a calibration step is one stacked forward and backward pass
    cfg = replace(
        load_config("splitD"), calibration=CalibrationConfig(steps=3, batch=64, eval_every=3)
    )
    batches = []
    forward = SoftmaxRegression._forward

    def counted(params, X):
        if np.ndim(X) == 3:  # one batch per classifier: a training step
            batches.append(np.shape(X))
        return forward(params, X)

    monkeypatch.setattr(SoftmaxRegression, "_forward", staticmethod(counted))
    passes = []
    for name in ("forward", "backward"):
        original = getattr(ClassifierStack, name)

        def stacked(self, X, *rest, name=name, original=original):
            passes.append((name, len(self.models), len(X)))
            return original(self, X, *rest)

        monkeypatch.setattr(ClassifierStack, name, stacked)
    report = run_experiment(cfg)
    # 200 epochs of 140 rows in batches of 32: four full batches and one of 12
    assert len(batches) == 200 * 5
    assert sorted(set(batches)) == [(7, 12, 2), (7, 32, 2)]
    assert passes == [("forward", 7, 64), ("backward", 7, 64)] * 3
    assert report.calibrated_accuracy is not None


def test_single_party_ensemble_equals_its_classifier():
    cfg = config_from_dict(
        {
            "seed": 3,
            "data": {"n": 400, "num_classes": 5, "train_ratio": 0.7},
            "partition": {
                "seed": 0,
                "parties": [{"classes": [0, 1, 2, 3, 4], "fraction": 1.0}],
            },
            "parties": [
                {
                    "classifier": {"type": "softmax_regression", "lr": 0.1, "epochs": 80},
                    "estimator": {"type": "kde", "bandwidth": 0.2},
                }
            ],
        }
    )
    report = run_experiment(cfg)
    # with one party the weighted objective is that party's posterior, so all
    # three accuracy views coincide exactly
    assert report.ensemble_accuracy == report.max_model_accuracy
    assert report.ensemble_accuracy == report.local_accuracies[0]


def test_report_fields_populated(pipeline_artifacts):
    _, report, _ = pipeline_artifacts
    assert report.seed == 0
    assert 0.0 <= report.ensemble_accuracy <= 1.0
    assert 0.0 <= report.max_model_accuracy <= 1.0
    assert len(report.local_accuracies) == 3
    assert report.calibrated_accuracy is None
    assert report.trace == []
    assert set(report.timings) == {"data", "train_local", "eval_zeroshot"}
    assert all(t >= 0.0 for t in report.timings.values())


def test_artifact_inventory(pipeline_artifacts):
    _, _, out = pipeline_artifacts
    expected = [
        "config.json",
        "train.csv",
        "test.csv",
        "shard_0.csv",
        "shard_1.csv",
        "shard_2.csv",
        "ensemble.json",
        "party_0.json",
        "party_1.json",
        "party_2.json",
        "predictions_ensemble.csv",
        "predictions_max_model.csv",
        "metrics.csv",
        "metrics.json",
    ]
    for name in expected:
        assert (out / name).is_file(), name


def test_config_echo_includes_stream_seeds(pipeline_artifacts):
    cfg, _, out = pipeline_artifacts
    echo = json.loads((out / "config.json").read_text())
    assert echo["seed"] == cfg.seed
    assert echo["stream_seeds"] == stream_seeds(cfg.seed, 3)


def test_saved_ensemble_reproduces_predictions(pipeline_artifacts):
    _, _, out = pipeline_artifacts
    ens = serialize.load_ensemble(str(out / "ensemble.json"))
    assert ens.num_classes == 5
    test_ds = read_csv(str(out / "test.csv"), num_classes=5)
    om = evaluate_objective(ens, test_ds.features)
    saved = read_predictions(str(out / "predictions_ensemble.csv"))
    assert np.array_equal(np.argmax(om.objective, axis=1), saved)


def test_metrics_match_emitted_predictions(pipeline_artifacts):
    _, report, out = pipeline_artifacts
    labels = read_csv(str(out / "test.csv"), num_classes=5).labels
    ens_pred = read_predictions(str(out / "predictions_ensemble.csv"))
    mm_pred = read_predictions(str(out / "predictions_max_model.csv"))
    assert float(np.mean(ens_pred == labels)) == report.ensemble_accuracy
    assert float(np.mean(mm_pred == labels)) == report.max_model_accuracy


def test_rerun_is_byte_identical(pipeline_artifacts, tmp_path):
    cfg, first_report, out = pipeline_artifacts
    rerun_cfg = replace(cfg, out_dir=str(tmp_path / "rerun"))
    rerun_report = run_experiment(rerun_cfg)
    assert rerun_report.ensemble_accuracy == first_report.ensemble_accuracy
    assert rerun_report.local_accuracies == first_report.local_accuracies
    for name in (
        "metrics.csv",
        "predictions_ensemble.csv",
        "predictions_max_model.csv",
        "train.csv",
        "test.csv",
        "ensemble.json",
        "party_0.json",
    ):
        assert (tmp_path / "rerun" / name).read_bytes() == (out / name).read_bytes(), name


def test_calibration_run_records_trace(tmp_path):
    doc = fast_experiment_doc()
    doc["calibration"] = {"lr": 1e-3, "batch": 32, "steps": 6, "eval_every": 3}
    cfg = replace(config_from_dict(doc), out_dir=str(tmp_path))
    report = run_experiment(cfg)
    assert report.calibrated_accuracy is not None
    assert [row.step for row in report.trace] == [1, 2, 3, 4, 5, 6]
    evaluated = [row.step for row in report.trace if row.test_accuracy is not None]
    assert evaluated == [3, 6]
    assert report.calibrated_accuracy == report.trace[-1].test_accuracy
    assert "calibrate" in report.timings
    assert (tmp_path / "trace.csv").is_file()
    metrics = (tmp_path / "metrics.csv").read_text()
    assert "calibrated," in metrics


def test_zero_step_calibration_keeps_zero_shot_accuracy():
    doc = fast_experiment_doc()
    doc["calibration"] = {"steps": 0}
    report = run_experiment(config_from_dict(doc))
    assert report.trace == []
    assert report.calibrated_accuracy == report.ensemble_accuracy


def test_each_density_scored_once_per_query_set(
    fast_config, pipeline_artifacts, monkeypatch
):
    calls = []
    log_density = KdeModel.log_density

    def counted(self, X):
        calls.append(len(X))
        return log_density(self, X)

    monkeypatch.setattr(KdeModel, "log_density", counted)
    run_experiment(fast_config)
    assert len(calls) == len(fast_config.parties)

    calls.clear()
    _, _, out = pipeline_artifacts
    argv = ["eval-zeroshot", "--ensemble", str(out / "ensemble.json")]
    assert cli.main(argv + ["--data", str(out / "test.csv")]) == 0
    assert len(calls) == len(fast_config.parties)


def test_calibrated_run_reuses_zero_shot_densities(monkeypatch):
    doc = fast_experiment_doc()
    doc["calibration"] = {"lr": 1e-3, "batch": 32, "steps": 6, "eval_every": 3}
    cfg = config_from_dict(doc)
    train_ds, test_ds, _ = prepare_data(cfg, stream_seeds(cfg.seed, len(cfg.parties)))
    calls = []
    log_density = KdeModel.log_density

    def counted(self, X):
        calls.append(len(X))
        return log_density(self, X)

    monkeypatch.setattr(KdeModel, "log_density", counted)
    run_experiment(cfg)
    # zero-shot scores the held-out set, calibrate only the training set
    assert sorted(calls) == sorted([len(test_ds), len(train_ds)] * len(cfg.parties))


def test_local_accuracy_nan_when_no_test_labels_match(pipeline_artifacts):
    _, _, out = pipeline_artifacts
    test_ds = read_csv(str(out / "test.csv"), num_classes=10)
    clf = ConstantClassifier([0.5, 0.5], label_space=(7, 8))
    assert math.isnan(local_accuracy(clf, test_ds))


# ---------------------------------------------------------------- sweeps


def test_sweep_runs_consecutive_seeds(fast_config, tmp_path):
    reports = sweep(fast_config, 3, base_seed=5, out_dir=str(tmp_path))
    assert [r.seed for r in reports] == [5, 6, 7]
    summary = sweep_summary(reports)
    assert set(summary) == {"ensemble", "max_model", "party_0", "party_1", "party_2"}
    mean, std = summary["ensemble"]
    vals = [r.ensemble_accuracy for r in reports]
    assert mean == pytest.approx(np.mean(vals))
    assert std == pytest.approx(np.std(vals))
    text = (tmp_path / "sweep.csv").read_text().splitlines()
    assert text[0] == "method,mean,std"
    assert text[1].startswith("ensemble,")


def _report(ensemble, max_model, local, calibrated=None) -> MetricsReport:
    return MetricsReport(0, ensemble, max_model, local, calibrated, [], {}, {})


def reference_write_metrics_csv(path, report):
    """The line-by-line writer: one f-string per row."""
    with open(path, "w") as fh:
        fh.write("method,accuracy\n")
        fh.write(f"ensemble,{repr(report.ensemble_accuracy)}\n")
        fh.write(f"max_model,{repr(report.max_model_accuracy)}\n")
        for j, acc in enumerate(report.local_accuracies):
            fh.write(f"party_{j},{repr(acc)}\n")
        if report.calibrated_accuracy is not None:
            fh.write(f"calibrated,{repr(report.calibrated_accuracy)}\n")


def reference_write_sweep_csv(path, reports):
    """The line-by-line writer: one f-string per method."""
    with open(path, "w") as fh:
        fh.write("method,mean,std\n")
        for name, (mean, std) in sweep_summary(reports).items():
            fh.write(f"{name},{repr(mean)},{repr(std)}\n")


@pytest.mark.parametrize("calibrated", [None, 0.8125])
def test_metrics_csv_bytes_match_line_by_line_writer(tmp_path, calibrated):
    # a party whose label space misses the test set reports nan
    report = _report(0.9833333333333333, 1 / 3, [0.5, float("nan"), 1e-300], calibrated)
    write_metrics_csv(tmp_path / "got.csv", report)
    reference_write_metrics_csv(tmp_path / "want.csv", report)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    assert "party_1,nan\n" in (tmp_path / "got.csv").read_text()


@pytest.mark.parametrize("calibrated", [False, True])
def test_sweep_csv_bytes_match_line_by_line_writer(tmp_path, calibrated):
    rng = np.random.default_rng(3)
    reports = []
    for _ in range(4):
        ensemble, max_model, calibrated_acc = rng.random(3).tolist()
        local = rng.random(3).tolist()
        reports.append(_report(ensemble, max_model, local, calibrated_acc if calibrated else None))
    write_sweep_csv(tmp_path / "got.csv", reports)
    reference_write_sweep_csv(tmp_path / "want.csv", reports)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_sweep_rejects_zero_seeds(fast_config):
    with pytest.raises(ValueError, match="at least 1"):
        sweep(fast_config, 0)


# ------------------------------------------------------------------- CLI


def test_cli_gen_data(tmp_path):
    out = tmp_path / "data.csv"
    rc = cli.main(["gen-data", "--seed", "1", "--n", "60", "--classes", "3", "--out", str(out)])
    assert rc == 0
    ds = read_csv(str(out))
    assert len(ds) == 60
    assert set(np.unique(ds.labels)) == {0, 1, 2}


def test_cli_partition(tmp_path):
    data = tmp_path / "data.csv"
    cli.main(["gen-data", "--seed", "2", "--n", "90", "--classes", "3", "--out", str(data)])
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            {
                "seed": 0,
                "parties": [
                    {"classes": [0, 1], "fraction": 1.0},
                    {"classes": [2], "fraction": 1.0},
                ],
            }
        )
    )
    out = tmp_path / "shards"
    rc = cli.main(
        ["partition", "--data", str(data), "--spec", str(spec), "--out", str(out)]
    )
    assert rc == 0
    assert len(read_csv(str(out / "shard_0.csv"))) == 60
    assert len(read_csv(str(out / "shard_1.csv"), num_classes=3)) == 30


def test_cli_train_then_eval_round_trip(tmp_path):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(fast_experiment_doc()))
    run_dir = tmp_path / "run"
    rc = cli.main(["train-local", "--config", str(cfg_path), "--out", str(run_dir)])
    assert rc == 0

    preds = tmp_path / "preds.csv"
    rc = cli.main(
        [
            "eval-zeroshot",
            "--ensemble",
            str(run_dir / "ensemble.json"),
            "--data",
            str(run_dir / "test.csv"),
            "--out",
            str(preds),
        ]
    )
    assert rc == 0
    # reloading the saved ensemble and re-reading the saved CSV loses nothing,
    # so the standalone evaluation reproduces the pipeline's predictions bytes
    assert preds.read_bytes() == (run_dir / "predictions_ensemble.csv").read_bytes()


def test_cli_calibrate_with_config_block(tmp_path):
    doc = fast_experiment_doc()
    doc["calibration"] = {"lr": 1e-3, "batch": 32, "steps": 4, "eval_every": 2}
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(doc))
    run_dir = tmp_path / "run"
    rc = cli.main(["calibrate", "--config", str(cfg_path), "--out", str(run_dir)])
    assert rc == 0
    assert (run_dir / "trace.csv").is_file()
    assert "calibrated," in (run_dir / "metrics.csv").read_text()


def test_cli_plot_boundary_and_density(pipeline_artifacts, tmp_path):
    _, _, out = pipeline_artifacts
    svg = tmp_path / "boundary.svg"
    rc = cli.main(
        [
            "plot",
            "--ensemble",
            str(out / "ensemble.json"),
            "--data",
            str(out / "test.csv"),
            "--resolution",
            "24",
            "--out",
            str(svg),
        ]
    )
    assert rc == 0
    assert svg.read_text().startswith("<svg")

    dsvg = tmp_path / "density.svg"
    rc = cli.main(
        [
            "plot",
            "--ensemble",
            str(out / "ensemble.json"),
            "--density",
            "0",
            "--resolution",
            "24",
            "--out",
            str(dsvg),
        ]
    )
    assert rc == 0
    assert dsvg.read_text().startswith("<svg")


DATA_COMMANDS = pytest.mark.parametrize(
    "command",
    [["eval-zeroshot"], ["plot", "--resolution", "8", "--out", "plot.svg"]],
    ids=["eval-zeroshot", "plot"],
)


@DATA_COMMANDS
def test_cli_header_only_data_exits_2(pipeline_artifacts, tmp_path, monkeypatch, capsys, command):
    _, _, out = pipeline_artifacts
    data = tmp_path / "empty.csv"
    data.write_text("f0,f1,label\n")
    monkeypatch.chdir(tmp_path)
    argv = [command[0], "--ensemble", str(out / "ensemble.json"), "--data", str(data)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(argv + command[1:])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {data}: no data rows\n"
    assert not (tmp_path / "plot.svg").exists()


@DATA_COMMANDS
def test_cli_wrong_feature_count_exits_2(
    pipeline_artifacts, tmp_path, monkeypatch, capsys, command
):
    _, _, out = pipeline_artifacts
    data = tmp_path / "one.csv"
    data.write_text("f0,label\n0.5,0\n-1.0,1\n")
    monkeypatch.chdir(tmp_path)
    argv = [command[0], "--ensemble", str(out / "ensemble.json"), "--data", str(data)]
    assert cli.main(argv + command[1:]) == 2
    assert capsys.readouterr().err == f"error: {data}: 1 features, ensemble expects 2\n"
    assert not (tmp_path / "plot.svg").exists()


def test_cli_sweep(tmp_path, capsys):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(fast_experiment_doc()))
    out = tmp_path / "sweep"
    rc = cli.main(["sweep", "--config", str(cfg_path), "--seeds", "2", "--out", str(out)])
    assert rc == 0
    assert (out / "sweep.csv").is_file()
    assert "ensemble" in capsys.readouterr().out


def test_cli_unknown_config_exits_2(capsys):
    rc = cli.main(["train-local", "--config", "no_such_preset"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_cli_missing_spec_exits_2(tmp_path, capsys):
    data = tmp_path / "data.csv"
    cli.main(["gen-data", "--n", "30", "--classes", "3", "--out", str(data)])
    rc = cli.main(
        [
            "partition",
            "--data",
            str(data),
            "--spec",
            str(tmp_path / "missing.json"),
            "--out",
            str(tmp_path / "shards"),
        ]
    )
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["party", "manifest", "config", "spec"])
def test_cli_truncated_json_names_its_file_and_exits_2(
    pipeline_artifacts, tmp_path, capsys, target
):
    cfg, _, out = pipeline_artifacts
    run = tmp_path / "run"
    shutil.copytree(out, run)
    spec = tmp_path / "spec.json"
    cfg.partition.save(spec)
    evaluate = ["eval-zeroshot", "--ensemble", str(run / "ensemble.json")]
    evaluate += ["--data", str(run / "test.csv")]
    split = ["partition", "--data", str(run / "train.csv"), "--spec", str(spec)]
    split += ["--out", str(tmp_path / "shards")]
    path, argv = {
        "party": (run / "party_1.json", evaluate),
        "manifest": (run / "ensemble.json", evaluate),
        "config": (run / "config.json", ["train-local", "--config", str(run / "config.json")]),
        "spec": (spec, split),
    }[target]
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "(char " in err, err


def test_cli_bad_density_index_exits_2(pipeline_artifacts, tmp_path, capsys):
    _, _, out = pipeline_artifacts
    rc = cli.main(
        [
            "plot",
            "--ensemble",
            str(out / "ensemble.json"),
            "--density",
            "9",
            "--resolution",
            "8",
            "--out",
            str(tmp_path / "x.svg"),
        ]
    )
    assert rc == 2
    assert "party range" in capsys.readouterr().err


def test_cli_eval_zeroshot_huge_finite_query_writes_no_warning(pipeline_artifacts, tmp_path):
    # a child process, so that stderr is exactly what the CLI prints
    _, _, out = pipeline_artifacts
    data = tmp_path / "huge.csv"
    data.write_text("f0,f1,label\n1e200,0.0,0\n0.0,-1e300,3\n0.5,0.5,1\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    argv = ["eval-zeroshot", "--ensemble", str(out / "ensemble.json"), "--data", str(data)]
    child = "import sys; from densemble import cli; sys.exit(cli.main())"
    proc = subprocess.run(
        [sys.executable, "-c", child, *argv],
        env=dict(os.environ, PYTHONPATH=os.path.abspath(src)),
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "ensemble accuracy" in proc.stdout
