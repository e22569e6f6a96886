"""Benchmark for densemble: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout holding ``src/densemble``; the package is
imported from there, never from site-packages. A run sets the workload up in
fresh child processes (five or more when untraced, for the median set-up time,
each between two reference processes), then measures it in one more child
process, whose peak RSS is the workload's memory. Every operation's output is
checked. The run prints each metric with
its unit, direction and sample count, writes the full record (environment,
per-op samples, output digests, per-layer numbers) to
``.perfbench_out/<workload>-seed<N>-trace<T>.json``, and prints one JSON
object as its last line:

- ``--trace 0``: the end-to-end metrics, measured untraced;
- ``--trace 1``: the per-layer metrics, from spans recorded by ``tracer.py``
  around every public densemble function (means per traced operation).

The workloads are defined in ``workloads.py``; METRICS.md says what each
metric measures and which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

from kernels import REF_KERNEL_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")

# One BLAS thread: the workloads' products are small or memory-bound, and a
# single thread keeps run-to-run spread low on a shared host. Never more than
# nproc either way.
BLAS_THREADS = 1
# Set-up runs at least 5 times, and more (up to 11) while the repeats total
# under 2 s: one ~0.2 s set-up (interpreter start and imports, mostly) varies
# by +-25 % from spawn to spawn, so short set-ups need many for a steady median.
SETUP_REPEATS = (5, 11)
SETUP_MIN_TOTAL_S = 2.0
# The host's cost of starting a process drifts by up to 30 % between runs a
# few minutes apart. Each set-up runs between two reference children, which
# start Python, import numpy and run the workload's set-up kernels
# (kernels.py); each set-up time is scaled to a host on which that reference
# takes START_NOMINAL_S plus REF_KERNEL_S per kernel, and setup_s is the median.
START_NOMINAL_S = 0.12
# A run must exit within 180 s; leave room to report and clean up.
DEADLINE_S = 170.0

# (name, unit, better) of the end-to-end metrics every workload reports.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("op_norm_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("accuracy", "fraction", "higher"),
)

# Workload-specific end-to-end metrics, reported where the workload has samples.
DETAIL = (
    ("experiment_s", "s", "lower"),
    ("calibrate_steps_per_s", "1/s", "higher"),
    ("score_rows_per_s", "rows/s", "higher"),
    ("plot_s", "s", "lower"),
    ("ensemble_accuracy", "fraction", "higher"),
    ("calibrated_accuracy", "fraction", "higher"),
)


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def git_commit() -> str | None:
    """HEAD commit of the checkout; None when it is not a git checkout."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None  # do not report the commit of an enclosing repository
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def summarize(values: list[float]) -> dict:
    """Median, plus the highest of p99.9/p99/p90 with at least ten samples beyond it."""
    vals = sorted(values)
    out = {"n": len(vals), "median": statistics.median(vals)}
    for p in (99.9, 99.0, 90.0):
        rank = math.ceil(p / 100.0 * len(vals))
        if len(vals) - rank >= 10:
            out[f"p{p:g}"] = vals[rank - 1]
            break
    return out


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run_child(argv: list[str], deadline: float) -> float:
    """Run ``python ARGV`` to completion; returns its wall time from spawn to exit."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a child process")
    cmd = [sys.executable, *argv]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{' '.join(argv)} timed out") from None
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return elapsed


def setup_scaled(setup_times: list[float], ref_times: list[float], kernels) -> list[float]:
    """Each set-up time scaled by the mean of the reference runs before and after it."""
    nominal = START_NOMINAL_S + REF_KERNEL_S * len(kernels)
    return [s * nominal / (0.5 * (a + b)) for s, a, b in zip(setup_times, ref_times, ref_times[1:])]


def detail_metrics(result: dict, setup_times: list[float], ref_times: list[float],
                   kernels) -> dict:
    """Every end-to-end metric that applies to this workload, summarized."""
    ops = [o for o in result["ops"] if o["error"] is None]
    samples: dict[str, list[float]] = {
        "setup_s": setup_scaled(setup_times, ref_times, kernels),
        "setup_raw_s": setup_times,
        "setup_ref_s": ref_times,
    }
    # With every op failed the run still reports its (failing) op times.
    samples["op_norm_s"] = [o["norm_s"] for o in (ops or result["ops"])]
    if result["op_metric"]:
        samples[result["op_metric"]] = [o["seconds"] for o in ops]
    for name, _, _ in DETAIL:
        vals = [o["samples"][name] for o in ops if name in o["samples"]]
        if vals:
            samples[name] = vals
    units = {n: (u, b) for n, u, b in (*END_TO_END, *DETAIL)}
    units["setup_raw_s"] = units["setup_ref_s"] = ("s", "lower")
    out = {}
    for name, vals in samples.items():
        if not vals:  # every op failed
            continue
        unit, better = units[name]
        out[name] = {"unit": unit, "better": better, **summarize(vals)}
    out["peak_rss_mb"] = {"unit": "MB", "better": "lower", "n": 1, "median": result["peak_rss_mb"]}
    failed = sum(1 for o in result["ops"] if o["error"] is not None)
    out["ops_failed_share"] = {
        "unit": "fraction", "better": "lower", "n": len(result["ops"]),
        "median": failed / len(result["ops"]),
    }
    return out


def run(args) -> dict:
    if not os.path.isfile(os.path.join(SRC, "densemble", "__init__.py")):
        raise BenchError(f"no densemble package under {SRC}; run from a densemble checkout")
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    kernels = WORKLOADS[args.workload].setup_reference
    deadline = time.monotonic() + DEADLINE_S
    work = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        setup_times: list[float] = []
        worker = os.path.join(HERE, "worker.py")
        reference = [os.path.join(HERE, "kernels.py"), "run", *kernels]
        least, most = (1, 1) if args.trace else SETUP_REPEATS
        ref_times = [] if args.trace else [run_child(reference, deadline)]
        while len(setup_times) < least or (
            len(setup_times) < most and sum(setup_times) < SETUP_MIN_TOTAL_S
        ):
            setup_dir = os.path.join(work, f"setup{len(setup_times)}")
            os.makedirs(setup_dir)
            setup_times.append(run_child(
                [worker, "setup", "--workload", args.workload, "--seed", str(args.seed),
                 "--work", setup_dir],
                deadline,
            ))
            if not args.trace:
                ref_times.append(run_child(reference, deadline))
        record_path = os.path.join(work, "measure.json")
        run_child(
            [worker, "measure", "--workload", args.workload, "--seed", str(args.seed),
             "--work", setup_dir, "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--out", record_path,
             "--spans", os.path.join(OUT, f"{args.workload}-seed{args.seed}-spans.csv")],
            deadline,
        )
        with open(record_path) as fh:
            result = json.load(fh)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if os.path.isdir(WORK) and not os.listdir(WORK):
            os.rmdir(WORK)

    ops = result["ops"]
    good = [o for o in ops if o["error"] is None]
    failed = len(ops) - len(good)
    result["env"]["git_commit"] = git_commit()
    detail = None
    if args.trace:
        metrics = result["per_layer"]
    else:
        detail = detail_metrics(result, setup_times, ref_times, kernels)
        # With every op failed there is no accuracy sample; the op scored nothing.
        accuracy = detail.get(result["accuracy_key"], {"median": 0.0})
        values = {**detail, "accuracy": accuracy}
        metrics = {name: {"value": values[name]["median"], "unit": unit}
                   for name, unit, _ in END_TO_END}
    summary = {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "blas_threads_requested": BLAS_THREADS,
        "env": result["env"],
        "end_to_end": detail,
        "summary": summary,
        "errors": [o["error"] for o in ops if o["error"]],
        "ops": [
            {k: o[k] for k in ("op", "tag", "seconds", "ref_s", "norm_s", "samples", "digests")}
            for o in ops
        ],
        "spans": result.get("spans"),
    }
    with open(os.path.join(OUT, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def report(record: dict) -> None:
    env = record["env"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}")
    print(
        f"env: nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']}, "
        f"blas {env['blas']['name']} {env['blas']['version']} threads {env['blas']['threads']}, "
        f"commit {env['git_commit']}"
    )
    if record["end_to_end"]:
        for name, m in record["end_to_end"].items():
            extra = "".join(f", {k} {v:.6g}" for k, v in m.items() if k.startswith("p"))
            print(f"  {name:<24} {m['median']:.6g} {m['unit']}  ({m['better']} is better, "
                  f"median of n={m['n']}{extra})")
    else:
        for name, m in record["summary"]["metrics"].items():
            print(f"  {name:<44} {m['value']:.6g} {m['unit']}")
    for err in record["errors"]:
        print(f"  FAILED: {err.strip().splitlines()[-1]}")
    print(json.dumps(record["summary"]))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    try:
        record = run(args)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
