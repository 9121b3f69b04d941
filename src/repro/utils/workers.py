"""Run independent jobs on every CPU this process may schedule on.

:func:`map_in_workers` splits a list of jobs into one share per schedulable
CPU, longest first by a caller-given cost.  The caller runs the first share
(the one holding the costliest job) in its own process; each other share runs
in one forked daemon process that sends its results back over its own pipe.
Jobs are inherited through ``fork``, so only results cross the boundary, and
they come back pickled: a fitted model returns with its weights and its RNG
state.

With one CPU, one job, no ``fork`` start method, a daemonic caller (which
may not have children) or a caller running other threads (a forked child
inherits the locks they hold, but not the threads that would release them)
there is one share, and the same code runs every job in the caller without
forking.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from typing import Callable, List, Sequence, TypeVar

Item = TypeVar("Item")
Result = TypeVar("Result")


def available_cores() -> int:
    """CPU cores this process may actually schedule on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


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


def _share_count(n_items: int) -> int:
    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    if multiprocessing.current_process().daemon or threading.active_count() > 1:
        return 1
    return min(available_cores(), n_items)


def _run_share(function, items, share, connection) -> None:
    """Worker body: run one share and send ``(ok, results or error)``."""
    try:
        try:
            message = (True, [function(items[index]) for index in share])
        except Exception as error:
            message = (False, error)
        try:
            connection.send(message)
        except Exception as error:  # an unpicklable result or exception
            connection.send((False, RuntimeError(f"{type(error).__name__}: {error}")))
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
    the caller with its type and message, and every worker is joined (or
    killed, when the caller fails first) before this returns or raises.
    """
    items = list(items)
    if len(costs) != len(items):
        raise ValueError(f"{len(items)} items but {len(costs)} costs")
    shares = split_by_cost(costs, _share_count(len(items)))
    if len(shares) <= 1:
        return [function(item) for item in items]

    context = multiprocessing.get_context("fork")
    workers = []
    received = False
    try:
        for share in shares[1:]:
            receiver, sender = context.Pipe(duplex=False)
            process = context.Process(
                target=_run_share, args=(function, items, share, sender), daemon=True
            )
            workers.append((share, receiver, process))
            try:
                process.start()
            finally:
                sender.close()
        results: List[Result] = [None] * len(items)
        for index in shares[0]:
            results[index] = function(items[index])
        for share, receiver, process in workers:
            try:
                ok, payload = receiver.recv()
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
        for _, receiver, process in workers:
            receiver.close()
            if not received and process.is_alive():
                process.kill()
            if process.pid is not None:
                process.join()
