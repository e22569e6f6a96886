"""Self-test of the benchmark's tracer and output checks.

    python3 perfbench/selftest.py

Run it from a densemble checkout; it imports the package from ``src``. On
tiny configs it pins the tracer's counters to values derived by hand from the
config, checks that the tracer rebinds (and then restores) every name its
callers resolve, and checks that traced and untraced operations write
byte-identical outputs. Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from densemble import calibration, cli, density, ensemble, harness, plotting  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import one_op  # noqa: E402
from workloads import ExperimentWorkload, ScoreWorkload  # noqa: E402

# n=80 over 4 classes -> 20 per class; train_ratio 0.5 -> 10 train, 10 test per
# class. Two parties claim disjoint class pairs in full, so each shard holds
# 20 points, n_train = n_test = 40.
N_TRAIN = N_TEST = 40
SHARD = 20
STEPS, EVAL_EVERY, BATCH = 5, 2, 64  # BATCH >= N_TRAIN: every step sees all train rows
EPOCHS, CLF_BATCH = 2, 8  # ceil(20 / 8) = 3 minibatches per epoch


def tiny_config(estimators: tuple[dict, dict], update_density: bool) -> dict:
    return {
        "seed": 11,
        "data": {"n": 80, "num_classes": 4, "train_ratio": 0.5},
        "partition": {"parties": [{"classes": [0, 1]}, {"classes": [2, 3]}]},
        "parties": [
            {
                "classifier": {
                    "type": kind, "hidden": 4, "lr": 0.1, "epochs": EPOCHS, "batch": CLF_BATCH,
                },
                "estimator": est,
            }
            for kind, est in zip(("softmax_regression", "mlp"), estimators)
        ],
        "calibration": {
            "lr": 1e-3, "batch": BATCH, "steps": STEPS, "eval_every": EVAL_EVERY,
            "update_density": update_density,
        },
    }


def check(cond: bool, message: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {message}")


def expect(metrics: dict, spans: dict, values: dict, calls: dict) -> None:
    for name, want in values.items():
        got = metrics[name]
        check(math.isclose(got, want, rel_tol=1e-12), f"{name} = {got}, derived {want}")
    for name, want in calls.items():
        got = spans.get(name, {}).get("calls", 0)
        check(got == want, f"calls of {name} = {got}, derived {want}")


def traced_pair(wl, work: str) -> tuple[dict, dict]:
    """Run op 0 untraced, then traced; outputs must match byte for byte."""
    wl.load(work)
    plain = one_op(wl, 0, work, "u")
    tracer = Tracer()
    traced = one_op(wl, 0, work, "t", tracer)
    check(plain["error"] is None, f"{wl.name} untraced op failed: {plain['error']}")
    check(traced["error"] is None, f"{wl.name} traced op failed: {traced['error']}")
    same = plain["digests"] and plain["digests"] == traced["digests"]
    check(same, f"{wl.name}: traced outputs differ")
    return tracer.layer_metrics(1), tracer.span_table()


def experiment(work: str, name: str, doc: dict, from_raw: bool) -> tuple[dict, dict]:
    os.makedirs(work)
    path = os.path.join(work, "tiny.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    wl = ExperimentWorkload(name, path, doc["calibration"], from_raw, None, None, ("python",))
    wl.setup(work, doc["seed"])
    return traced_pair(wl, work)


def test_rebinding() -> None:
    bound = {
        (calibration, "evaluate_objective"), (calibration, "decide"),
        (harness, "evaluate_objective"), (harness, "max_model_decide"),
        (harness, "gmm_fit"), (harness, "kde_fit"), (ensemble, "global_posterior"),
        (cli, "evaluate_objective"), (plotting, "decide"),
    }
    methods = {(density.KdeModel, "log_density"), (density.GmmModel, "nll_grad")}
    before = {key: vars(key[0])[key[1]] for key in bound | methods}
    tracer = Tracer()
    tracer.install()
    try:
        for key, original in before.items():
            check(vars(key[0])[key[1]] is not original, f"{key[1]} in {key[0].__name__} not wrapped")
    finally:
        tracer.uninstall()
    for key, original in before.items():
        check(vars(key[0])[key[1]] is original, f"{key[1]} in {key[0].__name__} not restored")


def test_kde_raw(work: str) -> None:
    """Calibration from raw, two KDE parties."""
    kde = {"type": "kde", "bandwidth": 0.5}
    metrics, spans = experiment(work, "tiny-kde-raw", tiny_config((kde, kde), False), True)
    # zero-shot + max-model, every step, every ceil(S/E) eval, the final accuracy
    evals = 2 + STEPS + math.ceil(STEPS / EVAL_EVERY) + 1
    rows = evals * N_TEST  # batches are the whole train set, as large as the test set
    expect(
        metrics,
        spans,
        {
            "ensemble.evaluate_objective.calls": evals,
            "ensemble.evaluate_objective.rows": rows,
            "ensemble.objective_evals_per_query": rows / (N_TRAIN + N_TEST),
            "density.kde_log_density.calls": 2 * evals,
            "density.kde_pairs": rows * 2 * SHARD,
            "density.kde_bytes_computed": 8 * rows * 2 * SHARD,
            "density.rows_per_distinct_row": 2 * rows / (2 * (N_TRAIN + N_TEST)),
            # one posterior per party per evaluation, plus each local accuracy
            "classifiers.posterior.calls": 2 * evals + 2,
            "classifiers.posterior_grad.calls": 2 * STEPS,
            "classifiers.apply_grad.calls": 2 * STEPS,
            "calibration.steps": STEPS,
        },
        {"harness.run_experiment": 1, "classifiers.train": 0, "density.kde_fit": 2},
    )


def test_gmm_pretrained(work: str) -> None:
    """Pre-trained parties, one KDE and one GMM, densities updated every step."""
    ests = ({"type": "kde", "bandwidth": 0.5}, {"type": "gmm", "components": 2})
    metrics, spans = experiment(work, "tiny-gmm", tiny_config(ests, True), False)
    evals = 2 + STEPS + math.ceil(STEPS / EVAL_EVERY) + 1
    rows = evals * N_TEST
    train_batches = 2 * EPOCHS * math.ceil(SHARD / CLF_BATCH)
    # The GMM changes every step, so a (row, density state) pair repeats only
    # within the zero-shot stage and between the last eval and the final accuracy:
    # test rows at 1 + ceil(S/E) states, train rows at S states.
    gmm_distinct = N_TEST * (1 + math.ceil(STEPS / EVAL_EVERY)) + N_TRAIN * STEPS
    expect(
        metrics,
        spans,
        {
            "ensemble.evaluate_objective.calls": evals,
            "ensemble.evaluate_objective.rows": rows,
            "density.kde_log_density.calls": evals,
            "density.gmm_log_density.calls": evals,
            "density.gmm_nll_grad.calls": STEPS,
            "density.kde_pairs": rows * SHARD,
            "density.rows_per_distinct_row": 2 * rows / (N_TRAIN + N_TEST + gmm_distinct),
            "classifiers.posterior.calls": 2 * evals + 2 + train_batches,
            "classifiers.posterior_grad.calls": train_batches + 2 * STEPS,
            "classifiers.apply_grad.calls": train_batches + 2 * STEPS,
            "calibration.steps": STEPS,
        },
        {
            "classifiers.train": 2,
            "density.gmm_fit": 1,
            "density.GmmModel.set_params": STEPS,
            "calibration.ensemble_accuracy": math.ceil(STEPS / EVAL_EVERY) + 1,
        },
    )


def test_score(work: str) -> None:
    """The scoring workload's op at a small size, on a trained toy3 ensemble."""
    q, r = 200, 8
    # toy3: 400 points per class, 280 train; party 0 holds classes 0-1 in full,
    # parties 1 and 2 half of classes 2-3 and 3-4.
    shards = (560, 280, 280)
    os.makedirs(work)
    wl = ScoreWorkload("tiny-score", q, r)
    wl.setup(work, 5)
    metrics, spans = traced_pair(wl, work)
    objective_rows = 2 * q + r * r  # eval-zeroshot twice, the decision grid once
    # the density plot has no data, so its grid (fixed region) is new to party 0
    expect(
        metrics,
        spans,
        {
            "ensemble.evaluate_objective.calls": 3,
            "ensemble.evaluate_objective.rows": objective_rows,
            "ensemble.objective_evals_per_query": objective_rows / (q + r * r),
            "density.kde_log_density.calls": 3 * 3 + 1,
            "density.kde_pairs": objective_rows * sum(shards) + r * r * shards[0],
            "density.rows_per_distinct_row": (3 * objective_rows + r * r) / (3 * (q + r * r) + r * r),
            "classifiers.posterior.calls": 3 * 3,
            "calibration.steps": 0,
        },
        {
            "serialize.load_ensemble": 3,
            "datasets.read_csv": 2,
            "serialize.write_predictions": 1,
            "plotting.plot_decision_boundary": 1,
            "plotting.plot_density": 1,
            "ensemble.max_model_decide": 1,
        },
    )


def main() -> int:
    base = os.path.join(ROOT, ".perfbench_work", f"selftest-{os.getpid()}")
    shutil.rmtree(base, ignore_errors=True)
    try:
        with contextlib.redirect_stdout(io.StringIO()):  # the CLI's own messages
            test_rebinding()
            test_kde_raw(os.path.join(base, "kde"))
            test_gmm_pretrained(os.path.join(base, "gmm"))
            test_score(os.path.join(base, "score"))
    finally:
        shutil.rmtree(base, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
