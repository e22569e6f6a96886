"""Experiment orchestration: configs, presets, pipelines, sweeps.

An experiment is fully described by an ``ExperimentConfig``: data geometry,
partition rules, per-party model choices, and an optional calibration block.
The config dataclasses are the JSON file format (``jsonconfig`` reads and
writes them), and each block range-checks itself in ``__post_init__``. A
party's model ``type`` must be a key of ``classifiers.FAMILIES`` or
``density.FAMILIES``, and ``build_parties`` builds each model through that
table's ``from_config``. Apart from the two config blocks' default
``type``, this module names no model family. Local training runs the
classifiers in lockstep groups: parties whose classifiers share family,
parameter shapes, shard size and training settings train as one stack, so
a preset of many like parties (splitD's seven) takes one minibatch loop.
The groups are independent, so they train on W = min(groups, CPUs)
workers: this process trains groups 0, W, 2W, ... and each other worker is
a forked child that trains its share through the same ``classifiers.train``
call and pipes each member's trained flat buffer back, which is copied into
this process's classifier. Every group runs the same code on the same
inputs and seeds wherever it runs, so the bits do not depend on W. With one
group, one CPU, no ``os.fork`` (or not on Linux), or a second live thread,
W is 1 and nothing is forked. A child's exception is raised here once every
child has been reaped; if this process raises first, it kills and reaps its
children before the error propagates. Only the pids forked here are reaped,
never any other child of the caller.
All randomness descends from one root seed, split into four named streams
(data, init, batching, noise) so reruns and sweeps are reproducible while
stages stay independently perturbable.
A run's results are one ``MetricsReport``: ``metrics.json`` holds every
report field except ``trace``, and ``metrics.csv`` and the sweep summary
read its ``accuracies()`` rows.
"""

from __future__ import annotations

import importlib.resources
import os
import pickle
import signal
import sys
import threading
import time
from dataclasses import dataclass, field, fields, replace
from functools import partial

import numpy as np

from . import classifiers, density, serialize
from .calibration import CalibrationConfig, TraceRow, calibrate
from .datasets import (
    LocalDataset,
    PartitionSpec,
    _write_columns,
    generate_toy,
    partition,
    split_train_test,
    write_csv,
)
from .ensemble import (
    ObjectiveMatrix,
    PartyModel,
    build_ensemble,
    decide,
    evaluate_objective,
    max_model_decide,
)
from .jsonconfig import from_json, read_json, to_json, write_json

PRESET_NAMES = ("toy3", "splitA", "splitB", "splitC", "splitD")


@dataclass
class DataConfig:
    n: int = 2000
    num_classes: int = 5
    train_ratio: float = 0.7

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"n must be nonnegative, got {self.n}")
        if not (0 < self.train_ratio < 1):
            raise ValueError(f"train_ratio {self.train_ratio} outside (0, 1)")


@dataclass
class ClassifierConfig:
    type: str = "softmax_regression"
    hidden: int = 32
    lr: float = 1e-4
    epochs: int = 1
    batch: int = 32

    def __post_init__(self):
        if not (self.lr > 0):
            raise ValueError(f"lr must be positive, got {self.lr}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be nonnegative, got {self.epochs}")
        if self.batch < 1:
            raise ValueError(f"batch must be at least 1, got {self.batch}")
        if self.hidden < 1:
            raise ValueError(f"hidden must be at least 1, got {self.hidden}")


@dataclass
class EstimatorConfig:
    type: str = "kde"
    bandwidth: float = 0.1
    components: int = 4

    def __post_init__(self):
        if not (self.bandwidth > 0):
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")
        if self.components < 1:
            raise ValueError(f"components must be at least 1, got {self.components}")


@dataclass
class PartyConfig:
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)


@dataclass(kw_only=True)
class ExperimentConfig:
    """Everything needed to rerun an experiment; field order is JSON key order."""

    seed: int = 0
    data: DataConfig = field(default_factory=DataConfig)
    partition: PartitionSpec
    parties: list[PartyConfig] = field(default_factory=list)
    calibrate_from_raw: bool = False
    calibration: CalibrationConfig | None = None
    out_dir: str | None = None

    def __post_init__(self):
        k = self.data.num_classes
        for i, rule in enumerate(self.partition.parties):
            outside = sorted(c for c in rule.classes if not 0 <= c < k)
            if outside:
                raise ValueError(
                    f"partition.parties[{i}].classes: {outside} outside [0, {k})"
                )
        missing = self.partition.unassigned(k)
        if missing:
            raise ValueError(f"partition: {missing} not assigned to any party")
        if len(self.parties) != len(self.partition.parties):
            raise ValueError(
                f"parties: got {len(self.parties)} model configs for "
                f"{len(self.partition.parties)} partition rules"
            )
        if self.partition.seed != 0:
            raise ValueError(
                "partition.seed: set by the pipeline from the top-level seed; change seed"
            )
        clip = self.calibration.clip if self.calibration is not None else None
        if clip is not None and clip.seed != 0:
            raise ValueError(
                "calibration.clip.seed: set by the pipeline from the top-level seed; change seed"
            )
        for j, pc in enumerate(self.parties):
            for block, families in (
                ("classifier", classifiers.FAMILIES),
                ("estimator", density.FAMILIES),
            ):
                kind = getattr(pc, block).type
                if kind not in families:
                    raise ValueError(f"parties[{j}].{block}.type: unknown {kind!r}")


@dataclass
class MetricsReport:
    """Accuracies, calibration trace, and stage timings of one experiment.

    The report is the ``metrics.json`` file format: the file holds every
    field but ``trace``, in field order. The ``stream_seeds`` field holds
    the dict the ``stream_seeds`` function returns, as ``config.json``
    records it.
    """

    seed: int
    ensemble_accuracy: float
    max_model_accuracy: float
    local_accuracies: list[float]
    calibrated_accuracy: float | None
    trace: list[TraceRow]
    timings: dict[str, float]
    stream_seeds: dict

    def accuracies(self) -> list[tuple[str, float]]:
        """``(method, accuracy)`` rows: ensemble, max_model, party_j for each
        party, then calibrated if the run calibrated."""
        rows = [("ensemble", self.ensemble_accuracy), ("max_model", self.max_model_accuracy)]
        rows += [(f"party_{j}", acc) for j, acc in enumerate(self.local_accuracies)]
        if self.calibrated_accuracy is not None:
            rows.append(("calibrated", self.calibrated_accuracy))
        return rows


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Parse and validate a config document; errors name the failing field.

    A top-level ``stream_seeds`` (the derived seeds every ``config.json``
    echo carries) is ignored, so an echo loads as the config that wrote it.
    """
    if isinstance(doc, dict):
        doc = {k: v for k, v in doc.items() if k != "stream_seeds"}
    return from_json(ExperimentConfig, doc)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return to_json(cfg, skip=("out_dir",))


def load_config(name_or_path: str) -> ExperimentConfig:
    """Load a config from a file path or a shipped preset name."""
    if os.path.exists(name_or_path):
        doc = read_json(name_or_path)
    elif name_or_path in PRESET_NAMES:
        preset = importlib.resources.files("densemble") / f"presets/{name_or_path}.json"
        with importlib.resources.as_file(preset) as path:
            doc = read_json(path)
    else:
        raise ValueError(
            f"config {name_or_path!r} is neither a file nor a preset "
            f"(presets: {', '.join(PRESET_NAMES)})"
        )
    return config_from_dict(doc)


def stream_seeds(root_seed: int, num_parties: int) -> dict:
    """Named reproducible seed streams derived from one root seed."""
    data_ss, init_ss, batch_ss, noise_ss = np.random.SeedSequence(root_seed).spawn(4)
    gen, split, part = (int(v) for v in data_ss.generate_state(3))
    init = [int(v) for v in init_ss.generate_state(max(num_parties, 1) * 2)]
    batching = [int(v) for v in batch_ss.generate_state(max(num_parties, 1) + 1)]
    noise = int(noise_ss.generate_state(1)[0])
    return {
        "data": gen,
        "split": split,
        "partition": part,
        "init": init,
        "batching": batching,
        "noise": noise,
    }


def build_parties(
    party_cfgs: list[PartyConfig], shards: list[LocalDataset], seeds: dict, pretrain: bool
) -> list[PartyModel]:
    """Initialize every party's classifier, optionally train them, then fit
    every estimator, and bundle each party's models.

    Party j's classifier starts from ``seeds["init"][2 * j]``, trains on
    ``seeds["batching"][j]`` and its estimator fits on
    ``seeds["init"][2 * j + 1]``. Classifiers whose family, parameter
    shapes, shard size, ``lr``, ``epochs`` and ``batch`` all match train in
    lockstep, in one ``classifiers.train`` call; each ends with the bits it
    would have trained to alone. The groups are shared among forked
    workers (module docstring), which cannot move a bit. Each model's class
    is its config block's ``type`` in its module's ``FAMILIES``; any other
    ``type`` raises ``KeyError``.
    """
    clfs = [
        classifiers.FAMILIES[pc.classifier.type].from_config(
            pc.classifier, shard, seeds["init"][2 * j]
        )
        for j, (pc, shard) in enumerate(zip(party_cfgs, shards))
    ]
    if pretrain:
        groups: dict[tuple, list[int]] = {}
        for j, (pc, clf, shard) in enumerate(zip(party_cfgs, clfs, shards)):
            cc = pc.classifier
            key = (clf.type_tag, clf.shapes, len(shard), cc.lr, cc.epochs, cc.batch)
            groups.setdefault(key, []).append(j)
        jobs = list(groups.items())
        workers = min(len(jobs), density._cpu_count())
        if not _can_fork(workers):
            workers = 1

        def train_share(w: int) -> list[tuple[int, np.ndarray]]:
            trained = []
            for (*_, lr, epochs, batch), members in jobs[w::workers]:
                classifiers.train(
                    [clfs[j] for j in members],
                    [shards[j] for j in members],
                    lr=lr,
                    epochs=epochs,
                    batch=batch,
                    seed=[seeds["batching"][j] for j in members],
                )
                trained += [(j, clfs[j].params) for j in members]
            return trained

        # worker 0 trained this process's own classifiers
        for share in _run_forked(train_share, workers)[1:]:
            for j, flat in share:
                clfs[j]._flat[...] = flat
    return [
        PartyModel(
            clf,
            density.FAMILIES[pc.estimator.type].from_config(
                pc.estimator, shard, seeds["init"][2 * j + 1]
            ),
            len(shard),
        )
        for j, (pc, clf, shard) in enumerate(zip(party_cfgs, clfs, shards))
    ]


def _can_fork(workers: int) -> bool:
    """Whether ``workers`` > 1 can run as forked children: only on Linux, and
    only while this is the process's one thread, since a fork copies no
    other thread and any lock one holds stays held in the child."""
    return (
        workers > 1
        and hasattr(os, "fork")
        and sys.platform.startswith("linux")
        and threading.active_count() == 1
    )


def _run_forked(work, workers: int) -> list:
    """``[work(0), ..., work(workers - 1)]``, with ``work(0)`` run here and
    every other call in a forked child that pickles its result back.

    Each pipe is read to EOF, then exactly the pids forked here are reaped,
    and only then is a child's exception re-raised here, or a
    ``RuntimeError`` naming the exit status of a child that sent nothing. If
    this process raises first, every child is killed and reaped before the
    exception propagates.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    pids, fds = [], []
    try:
        for w in range(1, workers):
            r, wfd = os.pipe()
            fds.append(r)
            try:
                pid = os.fork()
                if pid == 0:
                    _child(work, w, wfd)
                pids.append(pid)
            finally:
                os.close(wfd)
        results = [work(0)]
        payloads = [b"".join(iter(partial(os.read, r, 1 << 16), b"")) for r in fds]
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for r in fds:
            os.close(r)
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    for pid, status, payload in zip(pids, statuses, payloads):
        if not payload:
            code = os.waitstatus_to_exitcode(status)
            raise RuntimeError(f"forked worker {pid} exited with status {code} and no result")
        result, error = pickle.loads(payload)
        if error is not None:
            raise error
        results.append(result)
    return results


def _child(work, w: int, wfd: int) -> None:
    """A forked worker's whole life: run ``work(w)``, pickle ``(result,
    None)`` or ``(None, exception)`` into the pipe, and leave through
    ``os._exit``, so no handler, buffer flush or ``finally`` of the parent's
    stack runs twice. A child that cannot pickle either exits with status 1
    and sends nothing."""
    code = 1
    try:
        try:
            payload = pickle.dumps((work(w), None))
        except BaseException as e:
            payload = pickle.dumps((None, e))
        with os.fdopen(wfd, "wb") as fh:
            fh.write(payload)
        code = 0
    finally:
        os._exit(code)


def prepare_data(
    cfg: ExperimentConfig, seeds: dict
) -> tuple[LocalDataset, LocalDataset, list[LocalDataset]]:
    """Generate, split, and partition the experiment's dataset."""
    full = generate_toy(seeds["data"], cfg.data.n, cfg.data.num_classes)
    train_ds, test_ds = split_train_test(full, cfg.data.train_ratio, seeds["split"])
    spec = replace(cfg.partition, seed=seeds["partition"])
    return train_ds, test_ds, partition(train_ds, spec)


def local_accuracies(
    om: ObjectiveMatrix, labels: np.ndarray, parties: list[PartyModel]
) -> list[float]:
    """Each party's accuracy on the queries whose label it could give: the
    argmax of its zero-filled posterior row in ``om`` against ``labels``,
    NaN when no label is in its label space."""
    accs = []
    for j, party in enumerate(parties):
        mask = np.isin(labels, party.classifier.label_space)
        hits = np.argmax(om.posteriors[mask, j], axis=1) == labels[mask]
        accs.append(float(np.mean(hits)) if mask.any() else float("nan"))
    return accs


def run_experiment(cfg: ExperimentConfig) -> MetricsReport:
    """Full pipeline: data, local training, zero-shot evaluation, calibration.

    When ``cfg.out_dir`` is set, all artifacts (config echo, datasets, model
    files, predictions, metrics, trace) are written there. The metrics and
    predictions files are byte-stable across reruns of the same config.
    """
    seeds = stream_seeds(cfg.seed, len(cfg.parties))
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    train_ds, test_ds, shards = prepare_data(cfg, seeds)
    timings["data"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    parties = build_parties(cfg.parties, shards, seeds, pretrain=not cfg.calibrate_from_raw)
    ens = build_ensemble(parties, num_classes=cfg.data.num_classes)
    timings["train_local"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    om = evaluate_objective(ens, test_ds.features)
    ens_labels = decide(om)
    ens_acc = float(np.mean(ens_labels == test_ds.labels))
    mm_labels = max_model_decide(om)
    mm_acc = float(np.mean(mm_labels == test_ds.labels))
    local_accs = local_accuracies(om, test_ds.labels, parties)
    timings["eval_zeroshot"] = time.perf_counter() - t0

    calibrated_acc = None
    trace: list[TraceRow] = []
    if cfg.calibration is not None:
        t0 = time.perf_counter()
        cal_cfg = cfg.calibration
        if cal_cfg.clip is not None:
            cal_cfg = replace(cal_cfg, clip=replace(cal_cfg.clip, seed=seeds["noise"]))
        # the zero-shot log-densities are the held-out table while no
        # estimator changes; calibrate rescores them otherwise
        _, trace = calibrate(
            ens, train_ds, cal_cfg, seed=seeds["batching"][-1], test=test_ds,
            test_loglik=om.loglik,
        )
        # calibrate evaluates the final model at its last step; zero steps
        # leave the model, and so its accuracy, unchanged.
        calibrated_acc = trace[-1].test_accuracy if trace else ens_acc
        timings["calibrate"] = time.perf_counter() - t0

    report = MetricsReport(
        seed=cfg.seed,
        ensemble_accuracy=ens_acc,
        max_model_accuracy=mm_acc,
        local_accuracies=local_accs,
        calibrated_accuracy=calibrated_acc,
        trace=trace,
        timings=timings,
        stream_seeds=seeds,
    )
    if cfg.out_dir:
        _write_artifacts(cfg, train_ds, test_ds, shards, ens, om, report, ens_labels, mm_labels)
    return report


def _write_artifacts(cfg, train_ds, test_ds, shards, ens, om, report, ens_labels, mm_labels):
    out = cfg.out_dir
    os.makedirs(out, exist_ok=True)
    echo = config_to_dict(cfg)
    echo["stream_seeds"] = report.stream_seeds
    write_json(os.path.join(out, "config.json"), echo)
    write_csv(train_ds, os.path.join(out, "train.csv"))
    write_csv(test_ds, os.path.join(out, "test.csv"))
    for j, shard in enumerate(shards):
        write_csv(shard, os.path.join(out, f"shard_{j}.csv"))
    serialize.save_ensemble(ens, out)
    serialize.write_predictions(
        os.path.join(out, "predictions_ensemble.csv"), [(ens_labels, om.objective)],
        ens.num_classes,
    )
    serialize.write_predictions(
        os.path.join(out, "predictions_max_model.csv"), [(mm_labels, None)]
    )
    write_metrics_csv(os.path.join(out, "metrics.csv"), report)
    # not to_json, which drops a None calibrated_accuracy
    metrics = {f.name: getattr(report, f.name) for f in fields(report) if f.name != "trace"}
    write_json(os.path.join(out, "metrics.json"), metrics)
    if report.trace:
        serialize.write_trace(os.path.join(out, "trace.csv"), report.trace)


def write_metrics_csv(path, report: MetricsReport) -> None:
    """Deterministic ``method,accuracy`` rows (no timings, no wall clock)."""
    methods, accuracies = zip(*report.accuracies())
    _write_columns(path, ["method", "accuracy"], [[methods, map(repr, accuracies)]])


def sweep(
    cfg: ExperimentConfig, num_seeds: int, base_seed: int = 0, out_dir: str | None = None
) -> list[MetricsReport]:
    """Run the experiment across consecutive seeds; optionally write a summary."""
    if num_seeds < 1:
        raise ValueError("num_seeds must be at least 1")
    reports = []
    for s in range(base_seed, base_seed + num_seeds):
        run_cfg = replace(cfg, seed=s, out_dir=None)
        reports.append(run_experiment(run_cfg))
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        write_sweep_csv(os.path.join(out_dir, "sweep.csv"), reports)
    return reports


def sweep_summary(reports: list[MetricsReport]) -> dict[str, tuple[float, float]]:
    """Mean and standard deviation per method across a sweep."""
    methods: dict[str, list[float]] = {}
    for r in reports:
        for name, acc in r.accuracies():
            methods.setdefault(name, []).append(acc)
    return {name: (float(np.mean(vals)), float(np.std(vals))) for name, vals in methods.items()}


def write_sweep_csv(path, reports: list[MetricsReport]) -> None:
    summary = sweep_summary(reports)
    means, stds = zip(*summary.values())
    columns = [summary.keys(), map(repr, means), map(repr, stds)]
    _write_columns(path, ["method", "mean", "std"], [columns])
