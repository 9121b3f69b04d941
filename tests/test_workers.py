"""``repro.utils.workers``: one share per CPU, the caller runs the first.

Two shares are forced by pinning the CPU count, so these tests fork on any
host that has the ``fork`` start method.
"""

import multiprocessing
import os
import threading

import numpy as np
import pytest

from repro.glucose import GlucoseModelZoo
from repro.utils.workers import map_in_workers, split_by_cost

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method"
)


def tagged(item):
    """The item with the pid of the process that ran it."""
    return item, os.getpid()


def fail_on_three(item):
    if item == 3:
        raise ValueError(f"boom {item}")
    return item


class TestSplitByCost:
    def test_zoo_costs_put_the_aggregate_alone_in_the_caller_share(self):
        assert split_by_cost([6708] + [559] * 12, 2) == [[0], list(range(1, 13))]

    def test_longest_first_balances_and_keeps_input_order_inside_a_share(self):
        assert split_by_cost([1, 5, 2, 4, 3], 2) == [[0, 1, 2], [3, 4]]

    def test_never_more_shares_than_items_and_at_least_one(self):
        assert split_by_cost([2.0, 1.0], 8) == [[0], [1]]
        assert split_by_cost([2.0, 1.0], 0) == [[0, 1]]


@needs_fork
class TestMapInWorkers:
    def test_results_come_back_in_input_order(self, pin_cpus):
        pin_cpus(2)
        items = [1, 2, 3, 4, 5]
        results = map_in_workers(tagged, items, costs=[1, 5, 2, 4, 3])
        assert [item for item, _ in results] == items
        pids = {item: pid for item, pid in results}
        # Share 0 ({1, 2, 3}: it holds the costliest item 2) ran in the caller.
        assert {pids[1], pids[2], pids[3]} == {os.getpid()}
        assert pids[4] == pids[5] != os.getpid()
        assert multiprocessing.active_children() == []

    def test_worker_exception_reraises_in_the_caller(self, pin_cpus):
        pin_cpus(2)
        # Item 3 is cheap, so it lands in the worker's share.
        with pytest.raises(ValueError, match=r"^boom 3$"):
            map_in_workers(fail_on_three, [1, 2, 3], costs=[10, 1, 1])
        assert multiprocessing.active_children() == []

    def test_caller_exception_leaves_no_child_behind(self, pin_cpus):
        pin_cpus(2)
        with pytest.raises(ValueError, match=r"^boom 3$"):
            map_in_workers(fail_on_three, [1, 2, 3], costs=[1, 1, 10])
        assert multiprocessing.active_children() == []

    def test_one_cpu_caller_forks_nothing(self, pin_cpus):
        pin_cpus(1)
        results = map_in_workers(tagged, [1, 2, 3], costs=[1, 2, 3])
        assert results == [(1, os.getpid()), (2, os.getpid()), (3, os.getpid())]

    def test_daemonic_caller_forks_nothing(self, pin_cpus):
        pin_cpus(2)
        receiver, sender = multiprocessing.get_context("fork").Pipe(duplex=False)

        def in_daemon():
            results = map_in_workers(tagged, [1, 2, 3], costs=[1, 2, 3])
            sender.send((os.getpid(), results))

        process = multiprocessing.get_context("fork").Process(target=in_daemon, daemon=True)
        process.start()
        sender.close()
        assert receiver.poll(60), "the daemonic caller sent nothing"
        daemon_pid, results = receiver.recv()
        process.join(timeout=60)
        assert process.exitcode == 0
        assert results == [(1, daemon_pid), (2, daemon_pid), (3, daemon_pid)]

    def test_caller_with_other_threads_forks_nothing(self, pin_cpus):
        pin_cpus(2)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            results = map_in_workers(tagged, [1, 2, 3], costs=[1, 2, 3])
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert results == [(1, os.getpid()), (2, os.getpid()), (3, os.getpid())]


def rng_state(state) -> tuple:
    generator = state.generator
    return (repr(generator.bit_generator.state), generator.bit_generator.seed_seq.n_children_spawned)


def snapshot(zoo) -> dict:
    """Everything a fit leaves behind, as comparable bytes and values."""
    models = {}
    for label, predictor in zoo.models.items():
        models[label] = dict(
            weights={
                name: (value.dtype.str, value.shape, value.tobytes())
                for name, value in predictor.state_dict().items()
            },
            scaler=predictor.scaler.signature(),
            losses=np.asarray(predictor.history_.epoch_losses).tobytes(),
            state_hash=predictor.state_hash(),
            rng=rng_state(predictor._rng),
            shuffle_rng=rng_state(predictor._shuffle_seed),
        )
    return dict(models=models, zoo_rng=rng_state(zoo._rng))


@needs_fork
@pytest.mark.parametrize("seeded", [True, False], ids=["seeded", "spawned"])
def test_worker_fit_equals_one_share_fit_bitwise(tiny_cohort, pin_cpus, seeded):
    """Fits in a forked worker come back bitwise equal to fits in the caller.

    An unseeded zoo spawns every predictor's seed from its own stream, so
    equal results there also show that the spawns stay in the caller.
    """
    snapshots = []
    for count in (1, 2):
        pin_cpus(count)
        seed = 5 if seeded else np.random.default_rng(7)
        zoo = GlucoseModelZoo(predictor_kwargs=dict(epochs=1, hidden_size=4), seed=seed)
        snapshots.append(snapshot(zoo.fit(tiny_cohort)))
        assert multiprocessing.active_children() == []
    assert snapshots[0] == snapshots[1]
