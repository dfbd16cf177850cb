"""Array work in one or two lanes, the second on a worker thread.

The decoder's large blocks split into independent halves: users in
contiguous ranges (receiver.iterate), the check-degree classes of the LDPC
edges, or ranges of variables (ldpc.flood, ldpc.check_messages). numpy's
array loops release the interpreter lock, so two halves run on two CPUs at
once. Each half performs the same operations on the same values in the
same order as the whole, so the results are the same bits whether one lane
runs or two.

Two lanes run only where a block is large enough to gain (_MIN_SIZE), the
process may run on two CPUs, and it is no multiprocessing child: the
workers of monte_carlo's pool already fill the CPUs. The worker is a daemon
thread started on first use in each process, so a child forked after it
started makes its own. A part the worker has not started by the time the
calling thread is done with its own runs on the calling thread, so on a
busy host a two-part call costs about what the one-lane path does, and a
worker that never runs cannot hang the caller.
"""
from __future__ import annotations

import contextvars
import multiprocessing
import os
import queue
import threading

# The smallest block, in batch columns times LDPC edges (n_live x E_ldpc),
# that runs in two lanes. Measured with numpy 2.4.6 on 2 vCPUs (medians):
# check_messages on random LLRs with 5% exact zeros took 0.30 ms on one
# thread against 0.53 ms on two for the DESK code at 30 columns (18 000),
# 0.58 against 0.58 ms for the PAPER code at 30 (36 000), 1.23 against
# 0.68 ms at 45 (54 000) and 2.61 against 1.19 ms at 100 (120 000); a
# whole DESK grant-free iteration (18 000) took 1.12 ms in one lane and
# 1.25-1.36 ms in two, a PAPER one (120 000) 5.2-5.9 ms against 3.9-4.3.
# The bound sits between the two sweep configs, above the crossing.
_MIN_SIZE = 50_000

# (pid, job queue) of this process's worker thread, or None before its
# first use
_worker = None


def two_lanes(size):
    """True if a block of `size` (batch columns x LDPC edges) runs in two
    lanes on this process."""
    return (size >= _MIN_SIZE and _cpu_count() >= 2
            and multiprocessing.parent_process() is None)


def _cpu_count():
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def each(fn, parts):
    """fn(part) for each of one or two parts; with two, the first runs here
    and the second on the worker thread, or here after the first if the
    worker has not started it by then (a busy host may not run the worker
    at once). Returns once both have returned, and raises here what either
    raised."""
    if len(parts) == 1:
        fn(parts[0])
        return
    first, second = parts
    # whoever takes the claim first runs the second part
    claim = threading.Lock()
    reply = queue.SimpleQueue()
    # the worker runs in a copy of this context, so that np.errstate holds
    # there as here
    ctx = contextvars.copy_context()

    def job():
        if claim.acquire(blocking=False):
            ctx.run(fn, second)

    _jobs().put((job, reply))
    try:
        fn(first)
    except BaseException:
        # the worker must not write to the arrays once this returns
        if not claim.acquire(blocking=False):
            reply.get()
        raise
    if claim.acquire(blocking=False):
        fn(second)
        return
    err = reply.get()
    if err is not None:
        raise err


def _jobs():
    """The job queue of this process's worker thread, started on first
    use: a thread started before a fork does not exist in the child."""
    global _worker
    pid = os.getpid()
    if _worker is None or _worker[0] != pid:
        jobs = queue.SimpleQueue()
        threading.Thread(target=_serve, args=(jobs,), daemon=True,
                         name="gfrma-lane").start()
        _worker = (pid, jobs)
    return _worker[1]


def _serve(jobs):
    """The worker's loop: run each job and put its exception, or None, on
    the job's reply queue."""
    while True:
        job, reply = jobs.get()
        try:
            job()
        except BaseException as err:     # handed to the caller, raised there
            reply.put(err)
        else:
            reply.put(None)
