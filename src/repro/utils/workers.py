"""Every child process ``repro`` starts, and the jobs it spreads over them.

:func:`start_child` forks a daemon child with its pipe when
:func:`fork_is_safe` and spawns it otherwise; :func:`reap` ends it.
:func:`map_in_workers` splits a list of jobs into one share per schedulable
CPU, longest first by a caller-given cost.  The caller runs the first share
(the one holding the costliest job); each other share runs in one forked
child.  Jobs are inherited through ``fork``, so only results cross the pipe,
pickled: a fitted model returns with its weights and its RNG state.  With one
CPU, one job, a daemonic caller (which may not have children) or when fork is
not safe there is one share, and every job runs in the caller.  While the
shares run side by side, an OpenBLAS loaded in the process gets its thread
count divided between them, so the shares do not fight over the CPUs.
"""

from __future__ import annotations

import contextlib
import ctypes
import multiprocessing
import os
import pickle
import threading
from typing import Callable, List, Optional, Sequence, TypeVar

Item = TypeVar("Item")
Result = TypeVar("Result")

#: Longest wait (seconds) for a child to exit after SIGKILL.
_KILL_WAIT = 5.0


def available_cores() -> int:
    """CPU cores this process may actually schedule on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def fork_is_safe() -> bool:
    """True when ``fork`` exists and this process runs no other thread.

    A forked child inherits the locks other threads hold, but not the
    threads that would release them.
    """
    return "fork" in multiprocessing.get_all_start_methods() and threading.active_count() == 1


def start_child(target: Callable, *args, name: Optional[str] = None):
    """Start ``target(*args, connection)`` in a daemon child.

    The child is forked when :func:`fork_is_safe` and spawned otherwise (its
    ``target`` and ``args`` must then pickle).  Returns ``(process,
    connection)``, the caller's end of a duplex pipe to the child.
    """
    context = multiprocessing.get_context("fork" if fork_is_safe() else "spawn")
    connection, child_connection = context.Pipe(duplex=True)
    process = context.Process(
        target=target, args=(*args, child_connection), daemon=True, name=name
    )
    try:
        process.start()
    finally:
        child_connection.close()
    return process, connection


def reap(process, grace: Optional[float]) -> bool:
    """Wait for a child to exit, forcing it down if it does not; True when forced.

    Waits ``grace`` seconds (``None``: for ever) for the child to exit by
    itself, as long again after SIGTERM, then SIGKILLs it.  ``grace=0``
    SIGKILLs a live child at once, as a crash or a hung child calls for.
    """
    process.join(grace)
    if not process.is_alive():
        return False
    if grace:
        process.terminate()
        process.join(grace)
    if process.is_alive():
        process.kill()
        process.join(_KILL_WAIT)
    return True


def split_by_cost(costs: Sequence[float], n_shares: int) -> List[List[int]]:
    """Indices of ``costs`` in at most ``n_shares`` non-empty shares.

    Longest processing time first: each job, costliest first (ties in input
    order), joins the share with the least cost so far (ties to the lowest
    share).  Share 0 therefore holds the costliest job.  Indices inside a
    share keep input order.
    """
    shares: List[List[int]] = [[] for _ in range(max(1, n_shares))]
    loads = [0.0] * len(shares)
    for index in sorted(range(len(costs)), key=lambda i: -costs[i]):
        target = loads.index(min(loads))
        shares[target].append(index)
        loads[target] += costs[index]
    return [sorted(share) for share in shares if share]


def _openblas_thread_controls():
    """``(get, set)`` thread-count functions of a loaded OpenBLAS, or None.

    Found by name in each OpenBLAS library the process has mapped (Linux's
    ``/proc/self/maps``); builds prefix and suffix the names differently.
    """
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted(
                {line.split()[-1] for line in maps if "openblas" in line.rsplit("/", 1)[-1]}
            )
    except OSError:
        return None
    for path in paths:
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(library, f"{prefix}_get_num_threads{suffix}", None)
                set_ = getattr(library, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and set_ is not None:
                    return get, set_
    return None


@contextlib.contextmanager
def _blas_threads_divided(n_shares: int):
    """Divide OpenBLAS's threads between ``n_shares`` processes, then restore them.

    Forked workers inherit the setting.  Without it each share runs every
    BLAS thread, and on two CPUs two shares of lockstep attack searches
    took 2.7 times as long as one share.
    """
    controls = _openblas_thread_controls()
    if controls is None:
        yield
        return
    get, set_ = controls
    threads = get()
    set_(max(1, threads // n_shares))
    try:
        yield
    finally:
        set_(threads)


def _share_count(n_items: int) -> int:
    if multiprocessing.current_process().daemon or not fork_is_safe():
        return 1
    return min(available_cores(), n_items)


def _sendable(error: Exception) -> Exception:
    """``error`` if it survives a pickle round trip, else a RuntimeError naming it."""
    try:
        pickle.loads(pickle.dumps(error))
    except Exception:
        return RuntimeError(f"{type(error).__name__}: {error}")
    return error


def _run_share(function, items, share, connection) -> None:
    """Worker body: run one share and send ``(ok, results or error)``."""
    try:
        try:
            message = (True, [function(items[index]) for index in share])
        except Exception as error:
            message = (False, _sendable(error))
        try:
            connection.send(message)
        except Exception as error:  # an unpicklable result
            connection.send((False, _sendable(error)))
    finally:
        connection.close()


def map_in_workers(
    function: Callable[[Item], Result], items: Sequence[Item], costs: Sequence[float]
) -> List[Result]:
    """``[function(item) for item in items]``, spread over every schedulable CPU.

    ``costs[i]`` estimates the work of ``items[i]``; :func:`split_by_cost`
    turns them into one share per CPU.  The caller runs share 0; every
    other share runs in one forked worker.  Results come back in input
    order.  An exception raised by ``function`` in a worker re-raises in
    the caller with its type and message (as a ``RuntimeError`` naming both
    when the exception does not survive pickling), and every worker is
    joined (or killed, when the caller fails first) before this returns or
    raises.  Meanwhile each share gets an equal part of OpenBLAS's threads
    (:func:`_blas_threads_divided`).
    """
    items = list(items)
    if len(costs) != len(items):
        raise ValueError(f"{len(items)} items but {len(costs)} costs")
    shares = split_by_cost(costs, _share_count(len(items)))
    if len(shares) <= 1:
        return [function(item) for item in items]

    with _blas_threads_divided(len(shares)):
        workers = []
        received = False
        try:
            for share in shares[1:]:
                workers.append((share, *start_child(_run_share, function, items, share)))
            results: List[Result] = [None] * len(items)
            for index in shares[0]:
                results[index] = function(items[index])
            for share, process, connection in workers:
                try:
                    ok, payload = connection.recv()
                except EOFError:
                    process.join()
                    raise RuntimeError(
                        f"worker exited with code {process.exitcode} before sending its results"
                    ) from None
                if not ok:
                    raise payload
                for index, result in zip(share, payload):
                    results[index] = result
            received = True
            return results
        finally:
            for _, process, connection in workers:
                connection.close()
                reap(process, None if received else 0)
