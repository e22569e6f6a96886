"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME [--workload NAME ...] \
        [--seeds 0-9] [--trace 0] [--out FILE]

Each run measures for BENCHMARK.json's ``run_seconds``.

For every workload and metric it prints the median of the runs and the
distance between the first and third quartile (``statistics.quantiles(n=4)``)
as a share of that median, next to the metric's bound in BENCHMARK.json.
``--out`` writes the environment, the per-run values and the summary as
JSON, the form of ``baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text: str) -> list[int]:
    """``LO-HI``, both ends included."""
    lo, hi = text.split("-")
    return list(range(int(lo), int(hi) + 1))


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(ROOT, ".perfbench_out", f"{workload}-seed{seed}-trace{trace}.json")) as fh:
        summary["env"] = json.load(fh)["env"]
    return summary


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--seeds", type=seed_range, default="0-9", help="LO-HI, both included")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    report = {"seconds": seconds, "trace": args.trace, "env": None, "workloads": {}}
    for wl in args.workload:
        runs = []
        for seed in args.seeds:
            res = one_run(wl, seed, seconds, args.trace)
            report["env"] = res.pop("env")
            runs.append({"seed": seed, **res})
            print(f"{wl} seed {seed}: correct {res['correct']} attempted {res['attempted']} "
                  f"failed {res['failed']}", file=sys.stderr)
        summary = {}
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            summary[name] = {
                "unit": runs[0]["metrics"][name]["unit"],
                "median": med,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / med if med else None,
                "bound": bounds.get(name),
            }
            s = summary[name]
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"{wl:<22} {name:<40} median {med:<12.6g} {s['unit']:<14} spread {spread}"
                  + (f"  bound {s['bound']}" if s["bound"] is not None else ""))
        report["workloads"][wl] = {"runs": runs, "summary": summary}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
