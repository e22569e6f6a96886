"""The runner contract of ``densemble.workers``, apart from any caller."""

import os
import threading

import numpy as np
import pytest
from conftest import assert_reaped

from densemble import workers


def share(w):
    """A worker's result: its index, where it ran, and some numpy work."""
    x = np.random.default_rng(w).normal(size=1000)
    return w, os.getpid(), float(np.sum(np.exp(x)))


def failing_at(bad):
    def work(w):
        if w == bad:
            raise ValueError(f"share {bad} failed")
        return share(w)

    return work


@pytest.mark.parametrize("W", [1, 2, 3])
def test_forked_returns_every_share_in_order_with_share_0_here(W, forks):
    got = workers.forked(share, W)
    assert [r[0] for r in got] == list(range(W))
    assert [r[2] for r in got] == [share(w)[2] for w in range(W)]
    assert got[0][1] == os.getpid()
    assert [r[1] for r in got[1:]] == forks
    assert len(forks) == W - 1
    assert_reaped(forks)


@pytest.mark.parametrize("bad", [0, 1, 2])
def test_forked_error_on_any_share_is_raised_after_every_reap(bad, forks):
    with pytest.raises(ValueError, match=f"share {bad} failed"):
        workers.forked(failing_at(bad), 3)
    assert len(forks) == 2
    assert_reaped(forks)


def test_forked_runs_every_share_here_under_a_second_thread(forks):
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(60,))
    thread.start()
    try:
        here = workers.forked(share, 3)
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert forks == []
    assert [r[1] for r in here] == [os.getpid()] * 3
    apart = workers.forked(share, 3)
    assert len(forks) == 2
    assert_reaped(forks)
    assert [r[0] for r in here] == [r[0] for r in apart]
    assert [r[2] for r in here] == [r[2] for r in apart]


@pytest.mark.parametrize(
    "cpus, jobs, want",
    [(1, 1, 1), (1, 3, 1), (1, 50, 1), (2, 0, 1), (2, 1, 1), (2, 3, 3), (2, 4, 4)]
    + [(2, 5, 4), (2, 50, 4), (3, 5, 5), (3, 6, 6), (3, 7, 6)],
)
def test_job_count_is_1_on_one_cpu_else_one_per_job_up_to_the_bound(monkeypatch, cpus, jobs, want):
    monkeypatch.setattr(workers, "cpu_count", lambda: cpus)
    assert workers.MAX_JOBS_PER_CPU == 2
    assert workers.job_count(jobs) == want
