"""The benchmark's workloads: inputs made from a seed, one operation, its check.

Each workload is a closed loop with one client: the next operation starts
when the previous one has returned. ``setup`` writes the inputs the package
sees (a config file, a trained ensemble, a query CSV) from the workload seed;
``load`` reads them into the measuring process; ``op`` is the timed
operation; ``check`` verifies its outputs and returns the op's metric samples
and the SHA-256 of its output files.

densemble is reached through module attributes only (``harness.run_experiment``,
``cli.main``), so the tracer's wrappers are the names called.
"""

from __future__ import annotations

import hashlib
import json
import os
import xml.etree.ElementTree as ET
from dataclasses import replace
from time import perf_counter

import numpy as np

from densemble import cli, harness, serialize

# Accuracy floors from the acceptance criteria. Criterion 09 asks 0.90 of each
# seed's run, so every experiment op must reach it. Criterion 01 asks 0.97 of
# the mean over seeds, not of each seed, so it applies only where one op's
# accuracy is already a mean over many queries: the 20k-row scoring batch.
PER_SEED_FLOOR = 0.90
MEAN_FLOOR = 0.97

# Criterion-09 calibration config, at 1000 steps instead of 2000: a 2000-step
# op takes ~7 s, too few per run for a steady median. Every seed tried still
# clears the 0.90 floor at 1000 steps (500 steps does not).
RAW_CALIBRATION = {"lr": 1e-3, "batch": 64, "steps": 1000, "eval_every": 100}
# splitD: pre-trained parties, GMM parameters updated every step.
SPLITD_CALIBRATION = {
    "lr": 1e-3,
    "batch": 64,
    "steps": 500,
    "eval_every": 100,
    "update_density": True,
}

# The scoring workload: one query batch of this many rows, then both plots at
# one fixed resolution. Sized so one operation takes a few seconds and every
# run of the benchmark fits its time budget.
SCORE_ROWS = 20_000
PLOT_RESOLUTION = 150
DENSITY_CHECK_ROWS = 1_000


class CheckFailed(Exception):
    """An operation's output is wrong."""


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def expected_test_rows(n: int, num_classes: int, train_ratio: float) -> int:
    """Test-set size of the harness's class-stratified split, from the config."""
    rows = 0
    for k in range(num_classes):
        count = n // num_classes + (1 if k < n % num_classes else 0)
        n_train = min(max(int(count * train_ratio + 0.5), 1), count - 1)
        rows += count - n_train
    return rows


def check_predictions(path, rows: int, num_classes: int | None) -> np.ndarray:
    """Row count, finite objective, and label = argmax of the objective."""
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    name = os.path.basename(path)
    _require(table.shape[0] == rows, f"{name}: {table.shape[0]} rows, expected {rows}")
    _require(np.array_equal(table[:, 0], np.arange(rows)), f"{path}: query_index out of order")
    labels = table[:, 1].astype(np.int64)
    if num_classes is not None:
        objective = table[:, 2:]
        _require(objective.shape[1] == num_classes, f"{path}: {objective.shape[1]} objective columns")
        _require(np.all(np.isfinite(objective)), f"{path}: non-finite objective")
        _require(np.all(objective >= 0.0), f"{path}: negative objective")
        argmax = np.argmax(objective, axis=1)
        _require(np.array_equal(labels, argmax), f"{path}: label is not the argmax")
    return labels


def check_log_density(ens, X: np.ndarray) -> None:
    for j, party in enumerate(ens.parties):
        logd = party.estimator.log_density(X)
        _require(np.all(np.isfinite(logd)), f"party {j}: non-finite log-density")


def read_features_labels(path) -> tuple[np.ndarray, np.ndarray]:
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return table[:, :-1], table[:, -1].astype(np.int64)


class ExperimentWorkload:
    """One ``harness.run_experiment`` per operation, at consecutive seeds."""

    # Set-up only writes a config: it is process start and imports.
    setup_reference = ()

    def __init__(self, name, preset, calibration, from_raw, zero_shot_floor, calibrated_floor,
                 reference):
        self.name = name
        self.reference = reference
        self.preset = preset
        self.calibration = calibration
        self.from_raw = from_raw
        self.zero_shot_floor = zero_shot_floor
        self.calibrated_floor = calibrated_floor
        self.accuracy_key = "calibrated_accuracy" if calibration else "ensemble_accuracy"
        self.op_metric = "experiment_s"

    def setup(self, work: str, seed: int) -> None:
        doc = harness.config_to_dict(harness.load_config(self.preset))
        doc["seed"] = seed
        doc["calibrate_from_raw"] = self.from_raw
        if self.calibration:
            doc["calibration"] = dict(self.calibration)
        with open(os.path.join(work, "config.json"), "w") as fh:
            json.dump(doc, fh, indent=2)
        harness.load_config(os.path.join(work, "config.json"))

    def load(self, work: str) -> None:
        self.cfg = harness.load_config(os.path.join(work, "config.json"))
        data = self.cfg.data
        self.test_rows = expected_test_rows(data.n, data.num_classes, data.train_ratio)

    def op(self, i: int, out: str):
        return harness.run_experiment(replace(self.cfg, seed=self.cfg.seed + i, out_dir=out))

    def check(self, i: int, out: str, report) -> tuple[dict, dict]:
        K = self.cfg.data.num_classes
        labels = check_predictions(os.path.join(out, "predictions_ensemble.csv"), self.test_rows, K)
        check_predictions(os.path.join(out, "predictions_max_model.csv"), self.test_rows, None)
        X, y = read_features_labels(os.path.join(out, "test.csv"))
        acc = float(np.mean(labels == y))
        _require(acc == report.ensemble_accuracy, "predictions disagree with the reported accuracy")
        if self.zero_shot_floor is not None:
            floor = self.zero_shot_floor
            _require(acc >= floor, f"zero-shot accuracy {acc:.4f} < {floor}")
        samples = {"ensemble_accuracy": acc}
        samples.update({f"stage.{k}_s": v for k, v in report.timings.items()})
        if self.calibration:
            cal = report.calibrated_accuracy
            if self.calibrated_floor is not None:
                floor = self.calibrated_floor
                _require(cal >= floor, f"calibrated accuracy {cal:.4f} < {floor}")
            steps = self.cfg.calibration.steps
            _require(len(report.trace) == steps, "calibration ran the wrong step count")
            _require(all(np.isfinite(r.loss) for r in report.trace), "non-finite calibration loss")
            samples["calibrated_accuracy"] = cal
            samples["calibrate_steps_per_s"] = len(report.trace) / report.timings["calibrate"]
        check_log_density(serialize.load_ensemble(os.path.join(out, "ensemble.json")), X)
        names = ["metrics.csv", "predictions_ensemble.csv", "predictions_max_model.csv"]
        names.append("ensemble.json")
        names += [f"party_{j}.json" for j in range(len(self.cfg.parties))]
        if self.calibration:
            names.append("trace.csv")
        return samples, {n: sha256(os.path.join(out, n)) for n in names}


class ScoreWorkload:
    """``eval-zeroshot`` on one large CSV, then both plots, through the CLI."""

    accuracy_key = "ensemble_accuracy"
    op_metric = None
    reference = ("batch",)
    # Set-up is mostly local classifier training: Python-bound numpy.
    setup_reference = ("python",)

    def __init__(self, name: str, rows: int, resolution: int):
        self.name = name
        self.rows = rows
        self.resolution = resolution

    def setup(self, work: str, seed: int) -> None:
        doc = harness.config_to_dict(harness.load_config("toy3"))
        doc["seed"] = seed
        with open(os.path.join(work, "config.json"), "w") as fh:
            json.dump(doc, fh, indent=2)
        s = str(seed)
        model = os.path.join(work, "model")
        queries = os.path.join(work, "queries.csv")
        for argv in (
            ["train-local", "--config", os.path.join(work, "config.json"), "--out", model],
            ["gen-data", "--seed", s, "--n", str(self.rows), "--classes", "5", "--out", queries],
        ):
            if cli.main(argv) != 0:
                raise RuntimeError(f"densemble {argv[0]} failed")

    def load(self, work: str) -> None:
        self.ensemble = os.path.join(work, "model", "ensemble.json")
        self.queries = os.path.join(work, "queries.csv")
        X, self.labels = read_features_labels(self.queries)
        self.density_probe = X[:DENSITY_CHECK_ROWS]
        self.num_classes = serialize.load_ensemble(self.ensemble).num_classes
        self.model_digests = {
            n: sha256(os.path.join(work, "model", n))
            for n in sorted(os.listdir(os.path.join(work, "model")))
            if n.endswith(".json") and n != "config.json" and n != "metrics.json"
        }
        self.first_digests = None

    def op(self, i: int, out: str):
        pred = os.path.join(out, "predictions.csv")
        res = str(self.resolution)
        t0 = perf_counter()
        codes = [cli.main(["eval-zeroshot", "--ensemble", self.ensemble,
                           "--data", self.queries, "--out", pred])]
        t1 = perf_counter()
        codes.append(
            cli.main(["plot", "--ensemble", self.ensemble, "--data", self.queries,
                      "--resolution", res, "--out", os.path.join(out, "boundary.svg")])
        )
        codes.append(
            cli.main(["plot", "--ensemble", self.ensemble, "--density", "0",
                      "--resolution", res, "--out", os.path.join(out, "density0.svg")])
        )
        t2 = perf_counter()
        return {"codes": codes, "score_s": t1 - t0, "plot_s": t2 - t1}

    def check(self, i: int, out: str, raw) -> tuple[dict, dict]:
        _require(raw["codes"] == [0, 0, 0], f"CLI exit codes {raw['codes']}")
        labels = check_predictions(os.path.join(out, "predictions.csv"), self.rows, self.num_classes)
        acc = float(np.mean(labels == self.labels))
        _require(acc >= MEAN_FLOOR, f"zero-shot accuracy {acc:.4f} < {MEAN_FLOOR}")
        for name in ("boundary.svg", "density0.svg"):
            root = ET.parse(os.path.join(out, name)).getroot()
            _require(root.tag.endswith("svg") and len(root) > 0, f"{name}: empty SVG")
        check_log_density(serialize.load_ensemble(self.ensemble), self.density_probe)
        names = ("predictions.csv", "boundary.svg", "density0.svg")
        digests = {n: sha256(os.path.join(out, n)) for n in names}
        # Every op scores the same inputs, so every op must write the same bytes.
        if self.first_digests is None:
            self.first_digests = digests
        _require(digests == self.first_digests, "outputs differ from the run's first operation")
        samples = {
            "ensemble_accuracy": acc,
            "score_rows_per_s": self.rows / raw["score_s"],
            "plot_s": raw["plot_s"],
        }
        return samples, {**digests, **self.model_digests}


# Why each workload exists is in BENCHMARK.json and METRICS.md: local
# training (zeroshot), KDE scoring in calibration (calibrate-raw), the GMM
# paths (splitD), and one large scoring batch plus plots (score).
WORKLOADS = {
    wl.name: wl
    for wl in (
        ExperimentWorkload(
            "toy3-zeroshot",
            "toy3",
            calibration=None,
            from_raw=False,
            zero_shot_floor=PER_SEED_FLOOR,
            calibrated_floor=None,
            reference=("python",),
        ),
        ExperimentWorkload(
            "toy3-calibrate-raw",
            "toy3",
            calibration=RAW_CALIBRATION,
            from_raw=True,
            zero_shot_floor=None,
            calibrated_floor=PER_SEED_FLOOR,
            reference=("python", "kde"),
        ),
        ExperimentWorkload(
            "splitD-gmm-calibrate",
            "splitD",
            calibration=SPLITD_CALIBRATION,
            from_raw=False,
            zero_shot_floor=PER_SEED_FLOOR,
            calibrated_floor=PER_SEED_FLOOR,
            reference=("python", "kde"),
        ),
        ScoreWorkload("toy3-score-20k", SCORE_ROWS, PLOT_RESOLUTION),
    )
}
