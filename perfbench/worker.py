"""Child process of the benchmark: set up one workload, or measure it.

    worker.py setup   --workload W --seed N --work DIR
    worker.py measure --workload W --seed N --work DIR --seconds S --trace 0|1 --out FILE

``run.py`` starts it with ``src`` on ``PYTHONPATH`` and the BLAS thread
count pinned. ``measure`` runs operations until the next one would end past
``--seconds`` (at least one), checks each, and writes a JSON record. With
``--trace 1`` one unrecorded warm-up operation comes first, then every
operation runs twice at the same op seed, untraced and traced, in alternating
order; the two must write byte-identical outputs, the traced one gives the
spans, and the median difference in wall time is the tracing overhead.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import numpy as np

from kernels import REF_KERNEL_S
from tracer import PER_LAYER_UNITS, STAGES, Tracer
from workloads import WORKLOADS, CheckFailed

HERE = os.path.dirname(os.path.abspath(__file__))


def blas_info() -> dict:
    """BLAS library name and version as numpy reports them, and its live thread count."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                threads = int(fn())
                break
        if threads is not None:
            break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


def environment() -> dict:
    import densemble

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "densemble_file": os.path.relpath(densemble.__file__),
    }


def one_op(wl, i: int, work: str, tag: str, tracer: Tracer | None = None) -> dict:
    """One timed operation, then its check outside the timed region."""
    out = os.path.join(work, "ops", f"{tag}{i}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    record = {"op": i, "tag": tag, "error": None, "samples": {}, "digests": {}}
    if tracer is not None:
        tracer.op = i
        tracer.install()
    t0 = perf_counter()
    try:
        raw = wl.op(i, out)
    except Exception:  # a failing operation is counted, not fatal
        record["error"] = traceback.format_exc(limit=3)
    finally:
        record["seconds"] = perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    if record["error"] is None:
        try:
            record["samples"], record["digests"] = wl.check(i, out, raw)
        except CheckFailed as err:
            record["error"] = f"check failed: {err}"
        except Exception:  # unreadable or malformed outputs fail the op too
            record["error"] = "check failed: " + traceback.format_exc(limit=3)
    shutil.rmtree(out, ignore_errors=True)
    return record


class ReferenceClock:
    """A ``kernels.py serve`` process that times the workload's reference kernels on request.

    The kernels run in that separate process so that their arrays never count
    towards this process's peak RSS, which must be the program's alone.
    """

    def __init__(self, kernels: tuple[str, ...]):
        self.request = " ".join(kernels) + "\n"
        self.nominal = REF_KERNEL_S * len(kernels)
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "kernels.py"), "serve"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def seconds(self) -> float:
        self.proc.stdin.write(self.request)
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"reference process exited {self.proc.wait()}")
        return float(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def measure(wl, work: str, seconds: float, trace: bool, spans_path: str | None) -> dict:
    wl.load(work)
    tracer = Tracer() if trace else None
    ops: list[dict] = []
    unit_seconds: list[float] = []
    clock = ReferenceClock(wl.reference)
    try:
        clock.seconds()  # the first call pays one-off warm-up costs
        if trace:
            # The first op in a process pays one-off costs (lazy imports, allocator
            # growth) that would land on one side of the first pair; run it unrecorded.
            one_op(wl, 0, work, "warm-up")
        t_start = perf_counter()
        ref_before = clock.seconds()
        i = 0
        while True:
            t_unit = perf_counter()
            if trace:
                # Alternate which side of the pair runs first: the second op reuses
                # memory and file cache that the first one warmed.
                order = ("u", "t") if i % 2 == 0 else ("t", "u")
                pair = {tag: one_op(wl, i, work, tag, tracer if tag == "t" else None)
                        for tag in order}
                plain, traced = pair["u"], pair["t"]
                both_ran = traced["error"] is None and plain["error"] is None
                if both_ran and traced["digests"] != plain["digests"]:
                    traced["error"] = "traced outputs differ from untraced outputs"
                unit = [pair[tag] for tag in order]
            else:
                unit = [one_op(wl, i, work, "u")]
            ref_after = clock.seconds()
            for op in unit:
                op["ref_s"] = 0.5 * (ref_before + ref_after)
                op["norm_s"] = op["seconds"] * clock.nominal / op["ref_s"]
            ops.extend(unit)
            ref_before = ref_after
            unit_seconds.append(perf_counter() - t_unit)
            i += 1
            elapsed = perf_counter() - t_start
            if elapsed + statistics.median(unit_seconds) > seconds:
                break
    finally:
        clock.close()
    result = {
        "ops": ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "measured_s": perf_counter() - t_start,
        "env": environment(),
        "op_metric": wl.op_metric,
        "accuracy_key": wl.accuracy_key,
    }
    if trace:
        result["per_layer"] = per_layer(tracer, ops)
        result["spans"] = tracer.span_table()
        tracer.write_spans(spans_path)
    return result


def per_layer(tracer: Tracer, ops: list[dict]) -> dict:
    untraced = [o for o in ops if o["tag"] == "u" and o["error"] is None]
    traced = [o for o in ops if o["tag"] == "t" and o["error"] is None]
    n = sum(1 for o in ops if o["tag"] == "t")
    out = tracer.layer_metrics(n)
    for stage in STAGES:
        key = f"stage.{stage}_s"
        vals = [o["samples"].get(key, 0.0) for o in untraced]
        out[f"harness.{key}"] = statistics.fmean(vals) if vals else 0.0
    plain = {o["op"]: o["seconds"] for o in untraced}
    diffs = [o["seconds"] - plain[o["op"]] for o in traced if o["op"] in plain]
    out["trace.overhead_s"] = statistics.median(diffs) if diffs else 0.0
    return {name: {"value": out[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=("setup", "measure"))
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--spans", default=None)
    args = p.parse_args(argv)
    wl = WORKLOADS[args.workload]
    if args.mode == "setup":
        wl.setup(args.work, args.seed)
        return 0
    result = measure(wl, args.work, args.seconds, bool(args.trace), args.spans)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
