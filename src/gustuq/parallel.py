"""The one way gustuq spreads work over CPUs: ``ForkPool``, worker
processes forked from the caller, one per task, each on a CPU of its own.

``tune`` runs each trial in one; the CSV reader and writer each row range
but the first, and ``explain`` each range of its model evaluations but the
first (``map_pieces``). A worker is started with POSIX ``fork``, so the job
and its data reach it without pickling; only the worker's result, or the
exception it raised, is pickled and sent back through a pipe, together with
the warnings it issued, which the caller issues again.

A worker keeps the caller's BLAS thread count and sets none itself: in a
forked process, setting an OpenBLAS count starts that library's threads,
which then spin for about 0.1 s. ``hold_blas_to_one_thread`` holds every
loaded OpenBLAS to one thread, so that a matrix product sums in the same
order at any ``OPENBLAS_NUM_THREADS``. It has two callers, each in the
process that forks: ``cli.main``, before any command runs, and
``tune.search``, while its trials run, after which each OpenBLAS gets its
count back.
"""

from __future__ import annotations

import functools
import os
import pickle
import select
import signal
import sys
import threading
import warnings

from .errors import WorkerDied

# The thread-count getter and setter each OpenBLAS build exports: numpy's
# 64-bit-integer build, a plain 64-bit build, a plain build, and scipy's
# 32-bit-integer build.
_BLAS_THREAD_FUNCTIONS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
)


def _set_threads(get, set_, n: int) -> int:
    """Set the count to ``n`` and return the count found; a library already
    at ``n`` is left alone."""
    found = get()
    if found != n:
        set_(n)
    return found


def blas_thread_setters() -> list:
    """A thread-count setter for every OpenBLAS mapped into this process,
    found through ``/proc/self/maps``; empty where there is none or no
    ``/proc``."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            fields = [line.split(maxsplit=5) for line in fh]
    except OSError:
        return []
    paths = sorted({f[5].rstrip("\n") for f in fields
                    if len(f) == 6 and "openblas" in os.path.basename(f[5]).lower()})
    setters = []
    for path in paths:
        library = ctypes.CDLL(path)
        for get, set_ in _BLAS_THREAD_FUNCTIONS:
            if hasattr(library, set_):
                setters.append(functools.partial(
                    _set_threads, getattr(library, get), getattr(library, set_)))
                break
    return setters


def hold_blas_to_one_thread() -> list:
    """Hold every loaded OpenBLAS to one thread; return a ``(setter,
    previous count)`` pair for each, so that the caller can give it back."""
    return [(set_threads, set_threads(1)) for set_threads in blas_thread_setters()]


def available_cpus() -> int:
    return len(os.sched_getaffinity(0))


def usable_cpus() -> int:
    """The CPUs that forked workers may share now: the available ones, or
    one where the system lacks ``fork`` or CPU affinity, or while another
    Python thread is alive (a fork copies only the calling thread, so a lock
    that another thread holds would never be released in the worker)."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_setaffinity"):
        return 1
    if threading.active_count() > 1:
        return 1
    return available_cpus()


def cut(n: int, least: int, step: int = 1) -> list[int]:
    """Bounds ``[0, ..., n]`` that cut ``n`` items into one piece per usable
    CPU, as evenly as bounds at multiples of ``step`` allow. Each piece holds
    at least ``least`` items (a multiple of ``step``). Under ``2 * least``
    items, or on one usable CPU, the cut is one piece, ``[0, n]``."""
    pieces = min(n // least, usable_cpus())
    if pieces < 2:
        return [0, n]
    return [n * k // pieces // step * step for k in range(pieces)] + [n]


def warn_again(caught: list) -> None:
    """Issue each warning a worker recorded, as ``(message, category,
    filename, lineno)``, in the caller, where its filters and
    ``catch_warnings`` see it."""
    for message, category, filename, lineno in caught:
        warnings.warn_explicit(message, category, filename, lineno)


class ForkPool:
    """Runs ``job(arg)`` for each submitted ``arg`` in a worker forked for
    it, in the order submitted, one worker per CPU of ``cpus`` at a time:
    each worker pins itself to a CPU that no running worker holds, and a
    finished worker's CPU goes to the next queued task. Left to itself, the
    scheduler may keep a new worker on its parent's CPU for longer than a
    task takes. The warnings a job issues are recorded under the caller's
    filters and sent back with its outcome. Leaving the ``with`` block ends
    every worker, so none outlives the pool; a worker that dies is a
    ``WorkerDied`` naming ``label``."""

    def __init__(self, job, cpus, label: str):
        self._job, self._label = job, label
        self._free = list(cpus)
        self._queued: list = []
        self._running: dict[int, tuple[int, object, int]] = {}  # pipe -> (pid, arg, cpu)

    def __enter__(self) -> "ForkPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def submit(self, arg) -> None:
        self._queued.append(arg)
        self._start()

    def _start(self) -> None:
        while self._queued and self._free:
            arg, cpu = self._queued.pop(0), self._free.pop(0)
            read, write = os.pipe()
            for stream in (sys.stdout, sys.stderr):  # else the worker writes them again
                stream.flush()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                os.close(read)
                self._serve(arg, cpu, write)
            os.close(write)
            self._running[read] = (pid, arg, cpu)

    def _serve(self, arg, cpu: int, pipe: int) -> None:
        """The worker: pin itself to ``cpu``, send back the outcome of
        ``job(arg)`` and exit, without returning into the caller's stack."""
        code = 1
        try:
            os.sched_setaffinity(0, {cpu})
            with warnings.catch_warnings(record=True) as caught:
                try:
                    outcome = (True, self._job(arg))
                except BaseException as exc:  # raised again in the caller
                    outcome = (False, exc)
            issued = [(w.message, w.category, w.filename, w.lineno) for w in caught]
            try:
                sent = pickle.dumps((*outcome, issued), pickle.HIGHEST_PROTOCOL)
            except Exception as exc:  # a result, exception or warning that does not pickle
                sent = pickle.dumps((False, TypeError(
                    f"{self._label}: a worker's outcome cannot be sent back: {exc}"), []))
            with open(pipe, "wb") as out:
                out.write(sent)
            code = 0
        finally:
            try:
                for stream in (sys.stdout, sys.stderr):
                    stream.flush()
            finally:
                os._exit(code)

    def outcomes(self):
        """Yield ``(arg, ok, value, caught)`` for each submitted ``arg`` as
        its worker ends: its job's result (``ok``) or exception, or a
        ``WorkerDied`` for a worker that did not exit cleanly, whatever it
        sent, and the warnings it recorded. A queued task starts when the
        consumer asks for the next outcome, so a consumer that raises
        starts nothing new."""
        while self._running:
            ready, _, _ = select.select(list(self._running), [], [])
            for pipe in ready:
                pid, arg, cpu = self._running.pop(pipe)
                with open(pipe, "rb") as fh:
                    sent = fh.read()
                _, status = os.waitpid(pid, 0)
                self._free.append(cpu)
                if status or not sent:  # killed, perhaps in the middle of sending
                    yield arg, False, WorkerDied(f"{self._label}: a worker process died"), []
                else:
                    yield arg, *pickle.loads(sent)
                self._start()

    def close(self) -> None:
        """Drop the queued tasks, and kill and reap the running workers."""
        self._queued.clear()
        for pipe, (pid, *_) in self._running.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(pipe)
        self._running.clear()


def map_pieces(job, pieces: int, label: str) -> list:
    """``[job(0), ..., job(pieces - 1)]``: the caller runs ``job(0)`` on the
    first available CPU while a ``ForkPool`` runs the others, piece ``k`` on
    the ``k``-th CPU; one piece forks nothing. The caller's CPUs are given
    back on return. The workers' warnings are issued again here in piece
    order, after the caller's own. If pieces fail, the exception of the
    first failing piece is raised here, as a serial run over the pieces
    would raise it, and the warnings of the pieces after it are dropped. No
    worker is left running. Piece 0 and the workers share the caller's
    BLAS thread count.
    """
    if pieces == 1:
        return [job(0)]
    cpus = sorted(os.sched_getaffinity(0))
    try:
        with ForkPool(job, cpus[1:pieces], label) as pool:
            for k in range(1, pieces):
                pool.submit(k)
            os.sched_setaffinity(0, {cpus[0]})
            results = [job(0)]
            rest = {k: outcome for k, *outcome in pool.outcomes()}
    finally:
        os.sched_setaffinity(0, cpus)
    for k in range(1, pieces):
        ok, value, caught = rest[k]
        warn_again(caught)
        if not ok:
            raise value
        results.append(value)
    return results
