"""Where the package's parallel work runs: worker counts, the one shared
pool, sharing work out between the caller and that pool, and whether BLAS
runs on one thread (:func:`one_blas_thread`), which gates the GIL-free QR,
the overlapped reduction of M and the shared Gaussian products.
"""
from __future__ import annotations

import ctypes
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait

from scipy.linalg import cython_lapack


def worker_count(n_jobs: int) -> int:
    """Threads for ``n_jobs`` independent jobs.

    The number of CPUs available to the process, capped by the
    ``SPECTRA_RRQR_THREADS`` environment variable (``ValueError`` unless it
    is an integer) and by ``n_jobs``.
    """
    if hasattr(os, "sched_getaffinity"):
        cap = len(os.sched_getaffinity(0))
    else:
        cap = os.cpu_count() or 1
    env = os.environ.get("SPECTRA_RRQR_THREADS", "").strip()
    if env:
        try:
            cap = min(cap, max(1, int(env)))
        except ValueError:
            msg = f"SPECTRA_RRQR_THREADS must be an integer, got {env!r}"
            raise ValueError(msg) from None
    return max(1, min(n_jobs, cap))


_pool: ThreadPoolExecutor | None = None
_pool_workers = 0
_pool_lock = threading.Lock()


def pool(workers: int) -> ThreadPoolExecutor:
    """The shared worker pool, grown to at least ``workers`` threads.

    It runs the pieces of a sketch (:func:`share`) and reduces a tall
    input of the randomized pipeline to its R factor; no task on it waits on it.

    A replaced pool is dropped, not shut down: a caller still holding it
    keeps it alive, and its idle threads exit once it is collected.
    """
    global _pool, _pool_workers
    with _pool_lock:
        if _pool_workers < workers:
            _pool = ThreadPoolExecutor(workers, thread_name_prefix="spectra-rrqr")
            _pool_workers = workers
        return _pool


def _forget_pool() -> None:
    # a forked child inherits the pool object but none of its threads
    global _pool, _pool_workers, _pool_lock
    _pool, _pool_workers, _pool_lock = None, 0, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _drain(queue: deque):
    """Pop ``queue`` until it is empty; a deque pops atomically across threads."""
    try:
        while True:
            yield queue.popleft()
    except IndexError:
        return


def _run(job: list, queue: deque) -> None:
    for work, args in job[:]:
        work(*args, _drain(queue))


def share(work, items, workers: int, *args) -> None:
    """Call ``work(*args, pieces)`` on the caller and ``workers - 1`` pool tasks.

    Every call's ``pieces`` drain one queue of ``items``; Philox, the ufuncs
    and numpy's matrix products release the GIL.  The caller never waits
    for a task to start: it then cancels those that never started and
    waits for the running ones, so a busy pool only slows the work down.
    """
    queue, job = deque(items), [(work, args)]
    # a cancelled task stays queued in the pool until a thread reaches it;
    # it finds work through job, which the caller empties, so it holds no array
    tasks = [pool(workers).submit(_run, job, queue) for _ in range(workers - 1)]
    try:
        work(*args, _drain(queue))
    finally:
        # on error, no task may go on writing into the caller's arrays; a
        # cancelled task counts as done only once a pool thread reaches it
        queue.clear()
        job.clear()
        running = [fut for fut in tasks if not fut.cancel()]
        wait(running)
    for fut in running:
        fut.result()


# the thread-count query of the OpenBLAS behind scipy's LAPACK, found
# through the module that links it; None for any other LAPACK
_LAPACK_LIB = ctypes.CDLL(cython_lapack.__file__)
_LAPACK_THREADS = getattr(_LAPACK_LIB, "scipy_openblas_get_num_threads", None) or getattr(
    _LAPACK_LIB, "openblas_get_num_threads", None
)
if _LAPACK_THREADS is not None:
    _LAPACK_THREADS.argtypes, _LAPACK_THREADS.restype = [], ctypes.c_int


def one_blas_thread() -> bool:
    """True only when scipy's LAPACK reports exactly one thread."""
    return _LAPACK_THREADS is not None and _LAPACK_THREADS() == 1
