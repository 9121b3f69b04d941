"""``repro.utils.workers``: one share per CPU, the caller runs the first.

Two shares are forced by pinning the CPU count, so these tests fork on any
host that has the ``fork`` start method.
"""

import multiprocessing
import os
import threading

import numpy as np
import pytest

from repro.detectors import (
    GaussianHMMDetector,
    KNNClassifierDetector,
    LSTMVAEDetector,
    MADGANDetector,
    OneClassSVMDetector,
)
from repro.eval import DetectorSpec, SelectiveTrainingExperiment, default_detector_factories
from repro.glucose import GlucoseModelZoo
from repro.risk import SelectionPlanner, TrainingSelection
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

    def test_paper_experiment_costs_split_into_even_shares(self):
        # perfbench's ``paper`` experiment: five families, each under the
        # Less / More / Random / All selections (plan order, one run each).
        windows = [342, 729, 257, 1071]
        families = [
            KNNClassifierDetector,
            OneClassSVMDetector,
            MADGANDetector,
            LSTMVAEDetector,
            GaussianHMMDetector,
        ]
        costs = [family.fit_cost_per_window * count for family in families for count in windows]
        shares = split_by_cost(costs, 2)
        # MAD-GAN's Random and All fits stay in the caller; its Less and
        # More fits go to the worker.
        assert shares == [
            [1, 5, 6, 7, 10, 11, 12, 18, 19],
            [0, 2, 3, 4, 8, 9, 13, 14, 15, 16, 17],
        ]
        loads = [sum(costs[index] for index in share) for share in shares]
        assert max(loads) / min(loads) < 1.01

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


# ------------------------------------------------------- detector experiment
def detector_state(detector) -> dict:
    """A fitted detector's state as comparable bytes and values."""

    def arrays(*values):
        return [(np.asarray(v).dtype.str, np.shape(v), np.asarray(v).tobytes()) for v in values]

    state = dict(kind=type(detector).__name__)
    if hasattr(detector, "_rng"):  # kNN draws nothing
        state.update(rng=rng_state(detector._rng))
    if isinstance(detector, MADGANDetector):
        state.update(
            weights=[
                arrays(*module.state_dict().values())
                for module in (detector.generator, detector.discriminator)
            ],
            inversion_calls=detector.inversion_calls,
            warm_runs=detector.warm_runs,
            threshold=detector.calibrator.threshold_,
        )
    elif isinstance(detector, KNNClassifierDetector):
        state.update(
            fitted=arrays(detector._train_features, detector._train_labels, detector._scaler.mean_)
        )
    elif isinstance(detector, OneClassSVMDetector):
        state.update(
            fitted=arrays(detector.support_vectors_, detector.dual_coef_, detector._scaler.mean_),
            rho=detector.rho_,
        )
    else:
        state.update(state_hash=detector.state_hash())
    return state


def tiny_specs(calls):
    """The five default families on a tiny budget, recording every factory call."""

    def recording(name, spec):
        def factory():
            detector = spec.factory()
            calls.append((name, detector))
            return detector

        return DetectorSpec(factory=factory, unit=spec.unit)

    specs = default_detector_factories(
        madgan_epochs=1, madgan_inversion_steps=3, vae_epochs=1, hmm_iterations=2
    )
    return {name: recording(name, spec) for name, spec in specs.items()}


@needs_fork
def test_two_share_experiment_equals_one_share_bitwise(
    tiny_train_campaign, tiny_test_campaign, tiny_cohort, pin_cpus, monkeypatch
):
    """Detectors fitted in a worker end up in the caller's objects, bitwise.

    Each fit is tagged with the pid that ran it, so the two-share run is
    seen to fit in both processes and the tag is seen to come back.
    """
    fit_and_score = SelectiveTrainingExperiment._fit_and_score

    def tagged_fit(self, job):
        detector, matrix, count = fit_and_score(self, job)
        detector.fitted_in = os.getpid()
        return detector, matrix, count

    monkeypatch.setattr(SelectiveTrainingExperiment, "_fit_and_score", tagged_fit)
    selections = SelectionPlanner(
        all_labels=sorted(tiny_cohort.labels),
        less_vulnerable=["A_5", "B_2"],
        random_runs=2,
        seed=0,
    ).plan()
    runs = []
    for count in (1, 2):
        pin_cpus(count)
        calls = []
        result = SelectiveTrainingExperiment(
            tiny_train_campaign, tiny_test_campaign, tiny_specs(calls)
        ).run(selections)
        assert multiprocessing.active_children() == []
        pids = {detector.fitted_in for _, detector in calls}
        assert os.getpid() in pids and len(pids) == count
        runs.append(
            dict(
                calls=[name for name, _ in calls],
                detectors=[detector_state(detector) for _, detector in calls],
                outcomes={
                    (name, strategy): (outcome.per_run, outcome.training_windows)
                    for name, per_strategy in result.outcomes.items()
                    for strategy, outcome in per_strategy.items()
                },
            )
        )
    assert len(runs[0]["calls"]) == 5 * 5  # five families x (three strategies + two random runs)
    assert runs[0] == runs[1]


@needs_fork
@pytest.mark.parametrize("share", ["worker", "caller"])
def test_run_without_training_windows_reraises_in_the_caller(
    tiny_train_campaign, tiny_test_campaign, tiny_cohort, pin_cpus, share
):
    pin_cpus(2)
    # A run with no windows costs 0, so it lands in the worker's share next
    # to a real run; two such runs split one per share, the first in the
    # caller's.
    first = sorted(tiny_cohort.labels) if share == "worker" else ["Z_1"]
    selection = TrainingSelection(strategy="Custom", runs=[first, ["Z_2"]])
    expected = f"no training windows for patients ['{'Z_2' if share == 'worker' else 'Z_1'}']"
    experiment = SelectiveTrainingExperiment(
        tiny_train_campaign,
        tiny_test_campaign,
        {"kNN": DetectorSpec(factory=KNNClassifierDetector, unit="sample")},
    )
    with pytest.raises(ValueError) as raised:
        experiment.run({"Custom": selection})
    assert type(raised.value) is ValueError and str(raised.value) == expected
    assert multiprocessing.active_children() == []
