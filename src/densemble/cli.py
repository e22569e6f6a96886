"""Command-line front end for the experiment pipeline.

Subcommands cover the full lifecycle: data generation, partitioning, local
training, zero-shot evaluation, calibration, plotting, and multi-seed sweeps.
Each prints a short human-readable summary and exits 0 on success, nonzero
with a message on validation failure; an error in a data CSV names the file.
``eval-zeroshot`` and the decision-boundary plot score their queries
through ``ensemble.score_chunks``, so beyond the features, labels and the
(n, N) log-density table they hold one chunk's posteriors, objective and
prediction rows at a time, whatever the row count.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import harness, plotting, serialize
from .calibration import CalibrationConfig
from .datasets import LocalDataset, PartitionSpec, generate_toy, partition, read_csv, write_csv
from .ensemble import decide, max_model_decide, score_chunks
from .jsonconfig import from_json


def int64(text: str) -> int:
    """An integer option, held to the int64 bound of every JSON integer;
    argparse names the option in the error of a value that fails."""
    return from_json(int, int(text))


def _read_csv(path: str, num_classes: int | None = None) -> LocalDataset:
    """``read_csv`` whose errors name the file."""
    try:
        return read_csv(path, num_classes=num_classes)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


def _read_data(path: str, ens) -> LocalDataset:
    """``_read_csv`` that rejects a header-only file or a wrong feature count."""
    ds = _read_csv(path, num_classes=ens.num_classes)
    if len(ds) == 0:
        raise ValueError(f"{path}: no data rows")
    dim = ens.parties[0].estimator.dim
    if ds.dim != dim:
        raise ValueError(f"{path}: {ds.dim} features, ensemble expects {dim}")
    return ds


def _cmd_gen_data(args) -> int:
    ds = generate_toy(args.seed, args.n, args.classes)
    write_csv(ds, args.out)
    print(f"wrote {len(ds)} samples, {args.classes} classes to {args.out}")
    return 0


def _cmd_partition(args) -> int:
    ds = _read_csv(args.data)
    spec = PartitionSpec.load(args.spec)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    shards = partition(ds, spec)
    os.makedirs(args.out, exist_ok=True)
    for j, shard in enumerate(shards):
        path = os.path.join(args.out, f"shard_{j}.csv")
        write_csv(shard, path)
        print(f"party {j}: {len(shard)} samples, classes {list(shard.label_space)} -> {path}")
    return 0


def _load_config(args) -> harness.ExperimentConfig:
    cfg = harness.load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.out is not None:
        cfg = replace(cfg, out_dir=args.out)
    return cfg


def _print_report(report: harness.MetricsReport) -> None:
    print(f"seed {report.seed}")
    print(f"  ensemble accuracy   {report.ensemble_accuracy:.4f}")
    print(f"  max-model accuracy  {report.max_model_accuracy:.4f}")
    for j, acc in enumerate(report.local_accuracies):
        print(f"  party {j} local      {acc:.4f}")
    if report.calibrated_accuracy is not None:
        print(f"  calibrated accuracy {report.calibrated_accuracy:.4f}")


def _cmd_train_local(args) -> int:
    cfg = replace(_load_config(args), calibration=None)
    report = harness.run_experiment(cfg)
    _print_report(report)
    if cfg.out_dir:
        print(f"artifacts in {cfg.out_dir}")
    return 0


def _cmd_eval_zeroshot(args) -> int:
    ens = serialize.load_ensemble(args.ensemble)
    ds = _read_data(args.data, ens)
    hits = mm_hits = 0

    def chunks():
        nonlocal hits, mm_hits
        for rows, om in score_chunks(ens, ds.features):
            labels, truth = decide(om), ds.labels[rows]
            hits += int(np.count_nonzero(labels == truth))
            mm_hits += int(np.count_nonzero(max_model_decide(om) == truth))
            yield labels, om.objective

    if args.out:
        serialize.write_predictions(args.out, chunks(), ens.num_classes)
    else:
        for _ in chunks():
            pass
    print(f"ensemble accuracy   {hits / len(ds):.4f}")
    print(f"max-model accuracy  {mm_hits / len(ds):.4f}")
    if args.out:
        print(f"predictions -> {args.out}")
    return 0


def _cmd_calibrate(args) -> int:
    cfg = _load_config(args)
    if cfg.calibration is None:
        cfg = replace(cfg, calibration=CalibrationConfig())
    if args.from_raw:
        cfg = replace(cfg, calibrate_from_raw=True)
    report = harness.run_experiment(cfg)
    _print_report(report)
    if cfg.out_dir:
        print(f"artifacts in {cfg.out_dir}")
    return 0


def _cmd_plot(args) -> int:
    ens = serialize.load_ensemble(args.ensemble)
    points = labels = None
    if args.data:
        ds = _read_data(args.data, ens)
        points, labels = ds.features, ds.labels
        pad = 1.0
        region = (
            float(points[:, 0].min()) - pad,
            float(points[:, 0].max()) + pad,
            float(points[:, 1].min()) - pad,
            float(points[:, 1].max()) + pad,
        )
    else:
        region = (-10.0, 10.0, -10.0, 10.0)
    if args.density is not None:
        if not (0 <= args.density < ens.num_parties):
            raise ValueError(f"--density {args.density} outside party range")
        est = ens.parties[args.density].estimator
        plotting.plot_density(est, region, args.resolution, args.out)
    else:
        plotting.plot_decision_boundary(
            ens, region, args.resolution, args.out, points, labels
        )
    print(f"plot -> {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = harness.load_config(args.config)
    reports = harness.sweep(cfg, args.seeds, base_seed=args.base_seed, out_dir=args.out)
    summary = harness.sweep_summary(reports)
    print(f"{args.seeds} seeds, config {args.config}")
    for name, (mean, std) in summary.items():
        print(f"  {name:<12} {mean:.4f} +/- {std:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="densemble",
        description="Multiparty model reuse: density-weighted posterior ensembles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate the synthetic blob dataset")
    p.add_argument("--seed", type=int64, default=0)
    p.add_argument("--n", type=int64, default=2000)
    p.add_argument("--classes", type=int64, default=5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("partition", help="split a dataset into party shards")
    p.add_argument("--data", required=True)
    p.add_argument("--spec", required=True, help="partition spec JSON")
    p.add_argument("--seed", type=int64, default=None)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_partition)

    p = sub.add_parser("train-local", help="train party models, save the ensemble")
    p.add_argument("--config", required=True, help="config path or preset name")
    p.add_argument("--seed", type=int64, default=None)
    p.add_argument("--out", default=None, help="artifact directory")
    p.set_defaults(func=_cmd_train_local)

    p = sub.add_parser("eval-zeroshot", help="evaluate a saved ensemble on a CSV")
    p.add_argument("--ensemble", required=True, help="ensemble manifest JSON")
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=None, help="predictions CSV")
    p.set_defaults(func=_cmd_eval_zeroshot)

    p = sub.add_parser("calibrate", help="run the pipeline with calibration")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int64, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--from-raw", action="store_true", help="skip local pre-training")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("plot", help="render a decision boundary or density SVG")
    p.add_argument("--ensemble", required=True)
    p.add_argument("--data", default=None, help="points to overlay / set the region")
    p.add_argument("--resolution", type=int64, default=200)
    p.add_argument("--density", type=int64, default=None, help="party index: plot its density")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_plot)

    p = sub.add_parser("sweep", help="run many seeds, report mean and std")
    p.add_argument("--config", required=True)
    p.add_argument("--seeds", type=int64, default=20)
    p.add_argument("--base-seed", type=int64, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
