"""Local training shared among forked workers: same bits, safe processes."""

import atexit
import os
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from conftest import assert_reaped

from densemble import classifiers, density, ensemble, workers
from densemble.ensemble import log_density_table
from densemble.harness import (
    ClassifierConfig,
    build_parties,
    load_config,
    prepare_data,
    stream_seeds,
)


def _inputs(cfg):
    seeds = stream_seeds(cfg.seed, len(cfg.parties))
    _, _, shards = prepare_data(cfg, seeds)
    return cfg.parties, shards, seeds


def _splitd_two_mlps():
    # parties 1 and 4 become 16-unit MLPs of one shape and shard size: a
    # two-member lockstep group next to the five softmax parties
    cfg = load_config("splitD")
    parties = list(cfg.parties)
    for j in (1, 4):
        mlp = ClassifierConfig(type="mlp", hidden=16, lr=0.05, epochs=200, batch=32)
        parties[j] = replace(parties[j], classifier=mlp)
    return replace(cfg, parties=parties)


def _params(parties):
    return [p.classifier.params for p in parties]


def _fail_group(monkeypatch, rows, action):
    """Make ``classifiers.train`` run ``action()`` for the group whose first
    parameter array has ``rows`` rows (toy3: 2 is the softmax party's group,
    48 and 32 the two MLPs')."""
    train = classifiers.train

    def failing(models, *args, **kwargs):
        if models[0].shapes[0][0] == rows:
            action()
        return train(models, *args, **kwargs)

    monkeypatch.setattr(classifiers, "train", failing)


@pytest.mark.parametrize("name", ["toy3", "splitD-two-mlps"])
def test_worker_count_moves_no_bit(name, monkeypatch, forks):
    cfg = _splitd_two_mlps() if name == "splitD-two-mlps" else load_config(name)
    inputs = _inputs(cfg)
    monkeypatch.setattr("densemble.workers.cpu_count", lambda: 1)
    alone = _params(build_parties(*inputs, pretrain=True))
    assert forks == []
    for cpus in (2, 3):
        monkeypatch.setattr("densemble.workers.cpu_count", lambda: cpus)
        shared = _params(build_parties(*inputs, pretrain=True))
        # one worker per group on two CPUs as on three: toy3's three
        # groups are one here and two children; splitD's softmax group is
        # here and the two-MLP group in the one child
        assert len(forks) == (2 if name == "toy3" else 1)
        assert_reaped(forks)
        forks.clear()
        assert len(alone) == len(shared) == len(cfg.parties)
        for a, b in zip(alone, shared):
            assert a.tobytes() == b.tobytes()


def test_groups_past_the_bound_are_dealt_round_robin(monkeypatch, forks):
    # seven MLPs of distinct widths are seven groups, past the bound of
    # 2 x 2 workers on two CPUs: four workers, so three children
    cfg = load_config("splitD")
    parties = [
        replace(pc, classifier=ClassifierConfig(type="mlp", hidden=4 + j, lr=0.05, epochs=3))
        for j, pc in enumerate(cfg.parties)
    ]
    inputs = _inputs(replace(cfg, parties=parties))
    monkeypatch.setattr("densemble.workers.cpu_count", lambda: 1)
    alone = _params(build_parties(*inputs, pretrain=True))
    assert forks == []
    monkeypatch.setattr("densemble.workers.cpu_count", lambda: 2)
    bound = workers.job_count(len(parties))
    assert bound == 2 * workers.MAX_JOBS_PER_CPU < len(parties)
    t0 = time.perf_counter()
    shared = _params(build_parties(*inputs, pretrain=True))
    assert time.perf_counter() - t0 < 30
    assert len(forks) == bound - 1
    assert_reaped(forks)
    assert len(alone) == len(shared) == len(parties)
    for a, b in zip(alone, shared):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("rows", [2, 48], ids=["parent-group", "child-group"])
def test_a_failing_group_raises_its_error_and_every_child_is_reaped(rows, monkeypatch, forks):
    monkeypatch.setattr("densemble.workers.cpu_count", lambda: 2)

    def fail():
        raise ValueError(f"group of {rows} rows failed")

    _fail_group(monkeypatch, rows, fail)
    with pytest.raises(ValueError, match=f"group of {rows} rows failed"):
        build_parties(*_inputs(load_config("toy3")), pretrain=True)
    assert len(forks) == 2
    assert_reaped(forks)


@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
def test_parent_error_kills_and_reaps_children(error, monkeypatch, forks):
    # the children would train for a minute; the parent's group fails at once
    monkeypatch.setattr("densemble.workers.cpu_count", lambda: 2)
    train = classifiers.train

    def slow_children(models, *args, **kwargs):
        if models[0].shapes[0][0] == 2:
            raise error("parent group failed")
        time.sleep(60)
        return train(models, *args, **kwargs)

    monkeypatch.setattr(classifiers, "train", slow_children)
    t0 = time.perf_counter()
    with pytest.raises(error, match="parent group failed"):
        build_parties(*_inputs(load_config("toy3")), pretrain=True)
    assert time.perf_counter() - t0 < 30
    assert len(forks) == 2
    assert_reaped(forks)


def test_child_without_a_result_raises_runtime_error_with_its_status(monkeypatch, forks):
    monkeypatch.setattr("densemble.workers.cpu_count", lambda: 2)
    _fail_group(monkeypatch, 48, lambda: os._exit(3))
    with pytest.raises(RuntimeError, match="exited with status 3 and no result"):
        build_parties(*_inputs(load_config("toy3")), pretrain=True)
    assert_reaped(forks)


def test_children_leave_through_os_exit_only(monkeypatch, forks, tmp_path):
    # a SystemExit in a child comes back as an error; the child runs no
    # atexit handler, as a normal interpreter exit would
    parent = os.getpid()
    marker = tmp_path / "child-ran-atexit"

    def mark():
        if os.getpid() != parent:
            marker.write_text("x")

    atexit.register(mark)
    try:
        monkeypatch.setattr("densemble.workers.cpu_count", lambda: 2)

        def leave():
            raise SystemExit(5)

        _fail_group(monkeypatch, 32, leave)
        with pytest.raises(SystemExit) as info:
            build_parties(*_inputs(load_config("toy3")), pretrain=True)
        assert info.value.code == 5
    finally:
        atexit.unregister(mark)
    assert len(forks) == 2
    assert_reaped(forks)
    assert not marker.exists()


def test_streams_flushed_before_the_first_fork(monkeypatch):
    events = []

    class Stream:
        def __init__(self, name):
            self.name = name

        def flush(self):
            events.append(f"flush {self.name}")

        def write(self, text):
            return len(text)

    monkeypatch.setattr(sys, "stdout", Stream("stdout"))
    monkeypatch.setattr(sys, "stderr", Stream("stderr"))
    fork = os.fork

    def recorded():
        pid = fork()
        if pid:
            events.append("fork")
        return pid

    monkeypatch.setattr(os, "fork", recorded)
    monkeypatch.setattr("densemble.workers.cpu_count", lambda: 2)
    build_parties(*_inputs(load_config("toy3")), pretrain=True)
    first = events.index("fork")
    assert {"flush stdout", "flush stderr"} <= set(events[:first])


def test_other_children_of_the_caller_are_left_alone(monkeypatch, forks):
    # an exited child the caller has not reaped yet, as a benchmark's
    # reference process may be: only the caller may collect its status
    pid = os.fork()
    if pid == 0:
        os._exit(7)
    os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)  # exited, not reaped
    monkeypatch.setattr("densemble.workers.cpu_count", lambda: 2)
    build_parties(*_inputs(load_config("toy3")), pretrain=True)
    assert len(forks) == 3  # the caller's child, then two workers
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 7
    assert_reaped(forks[1:])


@pytest.mark.parametrize("case", ["one-group", "one-cpu", "second-thread"])
def test_no_fork_without_two_groups_two_cpus_and_one_thread(case, monkeypatch):
    calls = []

    def refuse():
        calls.append(1)
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr("densemble.workers.cpu_count", lambda: 1 if case == "one-cpu" else 2)
    cfg = load_config("splitD" if case == "one-group" else "toy3")
    inputs = _inputs(cfg)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    if case == "second-thread":
        thread.start()
    try:
        parties = build_parties(*inputs, pretrain=True)
    finally:
        release.set()
        if thread.is_alive():
            thread.join()
    assert calls == []
    assert len(parties) == len(cfg.parties)


def test_forked_scoring_leaves_no_child_so_training_still_forks(monkeypatch, forks):
    # a scoring worker that outlived its table would be a child of this
    # process that no one reaps; local training must fork as before
    monkeypatch.setattr("densemble.workers.cpu_count", lambda: 2)
    rng = np.random.default_rng(17)
    models = [density.kde_fit(rng.normal(size=(560, 2)), 0.1) for _ in range(3)]
    log_density_table(models, rng.normal(size=(ensemble._FORK_ROWS, 2)))
    assert len(forks) == 2
    assert_reaped(forks)
    build_parties(*_inputs(load_config("toy3")), pretrain=True)
    assert len(forks) == 4
    assert_reaped(forks)
