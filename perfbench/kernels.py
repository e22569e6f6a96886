"""Reference kernels that measure the host's current speed.

    kernels.py serve          read kernel names, one request a line; answer each with its seconds
    kernels.py run NAME ...   run the named kernels once and exit

The host's speed drifts by 10-40 % over minutes on a shared machine, in CPU
time as much as in wall time. ``worker.py`` asks a ``serve`` process for the
time of a fixed reference loop of the workload's own kind of work before and
after every operation, and scales each op by (nominal / reference time), which
cancels most of that drift. The loop runs in this separate process so that
its arrays never count towards the measured process's peak RSS. Python-bound
work (many small numpy calls), cache-sized density blocks and large
memory-bound batches slow down by different amounts, so each workload names
the kernels that match it. Each kernel takes about REF_KERNEL_S on an unloaded
host; the constant only sets the unit of the scaled time.

This module imports numpy only, never densemble: a reference must not change
with the code under test.
"""

from __future__ import annotations

import sys
from time import perf_counter

import numpy as np

REF_KERNEL_S = 0.1


def _python_kernel() -> None:
    """Small-matrix numpy in a Python loop, as in classifier training."""
    rng = np.random.default_rng(0)
    X, W = rng.standard_normal((32, 2)), rng.standard_normal((16, 2))
    for _ in range(4000):
        H = np.tanh(X @ W.T)
        P = np.exp(H - H.max(axis=1, keepdims=True))
        P /= P.sum(axis=1, keepdims=True)
        W -= 1e-6 * (P.T @ X)


def _gauss_blocks(rows: int, reps: int) -> None:
    """Gaussian-kernel log-sums of ``rows`` queries against a 560-point shard, as in KDE scoring."""
    rng = np.random.default_rng(0)
    Q, S = rng.standard_normal((rows, 2)), rng.standard_normal((560, 2))
    for _ in range(reps):
        sq = (Q**2).sum(axis=1)[:, None] + (S**2).sum(axis=1)[None, :] - 2.0 * Q @ S.T
        np.maximum(sq, 0.0, out=sq)
        a = -sq / 0.02
        np.log(np.exp(a - a.max(axis=1, keepdims=True)).sum(axis=1))


KERNELS = {
    "python": _python_kernel,
    "kde": lambda: _gauss_blocks(64, 180),  # cache-sized calibration batches
    "batch": lambda: _gauss_blocks(4000, 2),  # one large, memory-bound query batch
}


def reference_seconds(kernels) -> float:
    t0 = perf_counter()
    for name in kernels:
        KERNELS[name]()
    return perf_counter() - t0


def main(argv: list[str]) -> int:
    if argv[:1] == ["run"] and set(argv[1:]) <= set(KERNELS):
        reference_seconds(argv[1:])
        return 0
    if argv != ["serve"]:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    for line in sys.stdin:
        print(repr(reference_seconds(line.split())), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
