"""Independent jobs on several CPUs: the one module that knows about CPUs
and ``os.fork``.

``job_count(jobs)`` sizes a run of coarse jobs (lockstep training groups,
density scoring jobs) over the CPUs in this process's affinity mask
(``taskset -c 0`` gives one). On one CPU it gives 1, since time-slicing
there only adds the cost of a fork. Otherwise it gives one worker per job,
and the kernel shares the CPUs among them, so no CPU idles while another
runs two jobs back to back. Only past ``MAX_JOBS_PER_CPU`` workers per CPU
does a caller deal several jobs to one worker.

``forked(work, W)`` returns ``[work(0), ..., work(W - 1)]`` in worker
order, with ``work(0)`` run here, so W = 1 forks nothing. A worker's result
never depends on where it ran: each worker must compute the same bits alone
as beside the others. Every other worker runs in a forked child that
pickles its result (or its exception) back through a pipe, so a worker may
change whatever it likes, and the caller copies back what it needs. A fork
copies only the calling thread, and a lock another thread holds stays held
in the child, so ``forked`` forks only on Linux while this is the process's
one thread; otherwise it runs every worker in this process, in worker
order. It flushes stdout and stderr before the first fork. A child leaves
through ``os._exit``, so no handler, buffer flush or ``finally`` of the
caller's stack runs twice. Each pipe is read to EOF, then exactly the pids
forked here are reaped, never another child of the caller, and only then is
a child's exception re-raised here, or a ``RuntimeError`` naming the exit
status of a child that sent nothing. If this process raises first, every
child is killed and reaped before the exception propagates.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
import threading
from functools import partial


def cpu_count() -> int:
    """CPUs this process may run on: its affinity mask, else the machine's."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# ``job_count`` gives at most this many workers per CPU, so that a config
# of very many distinct parties cannot fork without limit. No preset comes
# near it.
MAX_JOBS_PER_CPU = 2


def job_count(jobs: int) -> int:
    """Workers for ``jobs`` coarse jobs: 1 on one CPU, else one per job, at
    most ``MAX_JOBS_PER_CPU`` per CPU (module docstring)."""
    cpus = cpu_count()
    if cpus == 1:
        return 1
    return max(1, min(MAX_JOBS_PER_CPU * cpus, jobs))


def forked(work, workers: int) -> list:
    """``[work(0), ..., work(workers - 1)]``, the calls after the first in
    forked children when a fork is safe, else here (module docstring)."""
    linux = hasattr(os, "fork") and sys.platform.startswith("linux")
    if workers == 1 or not linux or threading.active_count() > 1:
        return [work(w) for w in range(workers)]
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
    ``os._exit``. A child that cannot pickle either exits with status 1
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
