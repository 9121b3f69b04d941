"""Serialization contracts for everything the sharded fabric ships.

``repro.serving.shard`` moves models, detectors, stream state, and configs
across process boundaries as pickled payloads.  The bitwise twin contracts
(``tests/test_twins.py``, ``tests/test_serving_shard.py``) only hold if every
one of those objects round-trips pickle *faithfully* — same ``state_hash``
where hashed, same array bytes where not, same forward/score outputs, same
RNG stream continuation.  These tests pin that contract object by object so a
pickling regression is caught here, with a named culprit, rather than as an
opaque shard-parity failure.
"""

import pickle

import numpy as np
import pytest

from repro.data.dataset import WindowScaler
from repro.detectors.hmm import GaussianHMMDetector
from repro.detectors.knn import KNNDistanceDetector
from repro.detectors.lstm_vae import LSTMVAEDetector
from repro.detectors.madgan import (
    InversionState,
    MADGANDetector,
    SequenceDiscriminator,
    SequenceGenerator,
)
from repro.glucose import GlucosePredictor
from repro.nn import BiLSTM, Dense, LSTM, Sequential
from repro.serving import (
    DeviceClockConfig,
    HealthConfig,
    IngressConfig,
    IngressPolicy,
    SensorFaultConfig,
    SessionChurnConfig,
)
from repro.utils.rng import RandomState

from tests.conftest import make_toy_windows


def round_trip(obj):
    return pickle.loads(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


class TestModuleRoundTrips:
    """Every ``Module`` must rehydrate with an identical ``state_hash``."""

    MODULE_FACTORIES = {
        "dense": lambda: Dense(4, 3, seed=0),
        "lstm": lambda: LSTM(4, 6, seed=1),
        "bilstm": lambda: BiLSTM(4, 6, seed=2),
        "sequential": lambda: Sequential(
            BiLSTM(4, 6, seed=3), Dense(12, 1, seed=4)
        ),
        "madgan_generator": lambda: SequenceGenerator(3, 6, 4, seed=5),
        "madgan_discriminator": lambda: SequenceDiscriminator(4, 6, seed=6),
    }

    @pytest.mark.parametrize("name", sorted(MODULE_FACTORIES))
    def test_state_hash_survives_round_trip(self, name):
        module = self.MODULE_FACTORIES[name]()
        copy = round_trip(module)
        assert copy.state_hash() == module.state_hash()

    @pytest.mark.parametrize("name", sorted(MODULE_FACTORIES))
    def test_parameters_survive_bitwise(self, name):
        module = self.MODULE_FACTORIES[name]()
        copy = round_trip(module)
        originals = list(module.parameters())
        copies = list(copy.parameters())
        assert len(copies) == len(originals)
        for left, right in zip(originals, copies):
            np.testing.assert_array_equal(left.data, right.data)

    def test_forward_is_bitwise_identical(self):
        module = Sequential(BiLSTM(4, 6, seed=3), Dense(12, 1, seed=4))
        copy = round_trip(module)
        windows = np.random.default_rng(0).normal(size=(5, 12, 4))
        from repro.nn import as_tensor

        left = module(as_tensor(windows)).data
        right = copy(as_tensor(windows)).data
        np.testing.assert_array_equal(left, right)


class TestPredictorRoundTrip:
    @pytest.fixture(scope="class")
    def fitted(self):
        windows, _ = make_toy_windows(n_benign=24, n_malicious=0, seed=1)
        targets = windows[:, -1, 0] + 3.0
        predictor = GlucosePredictor(
            history=12, horizon=6, hidden_size=4, epochs=1, seed=0
        )
        predictor.fit(windows, targets)
        return predictor, windows

    def test_state_hash_survives(self, fitted):
        predictor, _ = fitted
        assert round_trip(predictor).state_hash() == predictor.state_hash()

    def test_predictions_bitwise_identical(self, fitted):
        predictor, windows = fitted
        copy = round_trip(predictor)
        np.testing.assert_array_equal(
            copy.predict(windows), predictor.predict(windows)
        )

    def test_scaler_signature_survives(self, fitted):
        predictor, _ = fitted
        copy = round_trip(predictor)
        assert copy.scaler.signature() == predictor.scaler.signature()


class TestModelZooRoundTrip:
    def test_unpickled_zoo_reproduces_the_campaign(
        self, tiny_zoo, tiny_cohort, tiny_test_campaign
    ):
        from repro.attacks import AttackCampaign

        copy = AttackCampaign(round_trip(tiny_zoo), stride=6).run_cohort(
            tiny_cohort, split="test"
        )
        assert len(copy.records) == len(tiny_test_campaign.records) > 0
        for left, right in zip(tiny_test_campaign.records, copy.records):
            assert left.patient_label == right.patient_label
            assert left.window_index == right.window_index
            assert left.result.eligible == right.result.eligible
            assert left.result.success == right.result.success
            assert left.result.path == right.result.path
            assert left.result.queries == right.result.queries
            assert (
                left.result.adversarial_window.tobytes()
                == right.result.adversarial_window.tobytes()
            )


class TestWindowScalerRoundTrip:
    def test_signature_and_transform_survive(self):
        windows, _ = make_toy_windows(n_benign=16, n_malicious=0, seed=2)
        scaler = WindowScaler().fit(windows)
        copy = round_trip(scaler)
        assert copy.signature() == scaler.signature()
        np.testing.assert_array_equal(
            copy.transform(windows), scaler.transform(windows)
        )


class TestStreamStateRoundTrips:
    """Stream state has no hash — pin array bytes and step-parity instead."""

    def test_lstm_stream_state_arrays_survive(self):
        lstm = LSTM(4, 6, seed=0)
        state = lstm.stream_state(batch_size=3)
        samples = np.random.default_rng(1).normal(size=(5, 3, 4))
        for sample in samples:
            lstm.step(sample, state)
        copy = round_trip(state)
        np.testing.assert_array_equal(copy.hidden, state.hidden)
        np.testing.assert_array_equal(copy.cell, state.cell)
        assert copy.ticks == state.ticks

    def test_lstm_stream_continues_identically(self):
        lstm = LSTM(4, 6, seed=0)
        state = lstm.stream_state(batch_size=2)
        samples = np.random.default_rng(2).normal(size=(8, 2, 4))
        for sample in samples[:4]:
            lstm.step(sample, state)
        copy = round_trip(state)
        for sample in samples[4:]:
            left = lstm.step(sample, state)
            right = lstm.step(sample, copy)
            np.testing.assert_array_equal(left, right)

    def test_bilstm_stream_state_survives_and_continues(self):
        bilstm = BiLSTM(4, 6, seed=0)
        state = bilstm.stream_state(n_streams=2, capacity=12)
        samples = np.random.default_rng(3).normal(size=(16, 2, 4))
        for sample in samples[:13]:
            bilstm.step(sample, state)
        copy = round_trip(state)
        np.testing.assert_array_equal(copy.ring, state.ring)
        np.testing.assert_array_equal(copy.cursor, state.cursor)
        np.testing.assert_array_equal(copy.count, state.count)
        for sample in samples[13:]:
            left = bilstm.step(sample, state)
            right = bilstm.step(sample, copy)
            np.testing.assert_array_equal(left, right)

    def test_inversion_state_survives(self):
        state = InversionState(
            latent=np.random.default_rng(4).normal(size=(12, 3)),
            error=0.125,
            ticks=7,
            fallbacks=2,
        )
        copy = round_trip(state)
        np.testing.assert_array_equal(copy.latent, state.latent)
        assert copy.error == state.error
        assert copy.ticks == state.ticks
        assert copy.fallbacks == state.fallbacks


class TestConfigRoundTrips:
    CONFIGS = {
        "faults": lambda: SensorFaultConfig(
            bias_rate=0.05, spike_rate=0.08, malformed_rate=0.05, seed=11
        ),
        "clocks": lambda: DeviceClockConfig(drift=0.05, jitter=0.1, dropout=0.05, seed=19),
        "churn": lambda: SessionChurnConfig(
            join_stagger=2, disconnect_every=25, reconnect_after=2
        ),
        "health": lambda: HealthConfig(
            degrade_after=1, quarantine_after=2, backoff_ticks=4
        ),
        "ingress": lambda: IngressConfig(policy=IngressPolicy.REJECT),
    }

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_config_round_trips_equal(self, name):
        config = self.CONFIGS[name]()
        assert round_trip(config) == config


class TestDetectorRoundTrips:
    #: Deterministic detector brains: the pickle copy must score bitwise and
    #: share the original's content address (the sharded fabric's contract).
    HASHED_FAMILY = {
        "lstm_vae": lambda benign: LSTMVAEDetector(
            epochs=1, hidden_size=8, batch_size=16, seed=0
        ).fit(benign),
        "hmm": lambda benign: GaussianHMMDetector(n_states=3, n_iter=3, seed=0).fit(
            benign
        ),
    }

    @pytest.mark.parametrize("name", sorted(HASHED_FAMILY))
    def test_family_round_trip_preserves_hash_and_scores(self, name):
        windows, labels = make_toy_windows(seed=8)
        detector = self.HASHED_FAMILY[name](windows[labels == 0])
        copy = round_trip(detector)
        assert copy.state_hash() == detector.state_hash()
        np.testing.assert_array_equal(copy.scores(windows), detector.scores(windows))
        np.testing.assert_array_equal(copy.predict(windows), detector.predict(windows))

    def test_knn_scores_bitwise_identical(self):
        windows, labels = make_toy_windows(seed=5)
        benign = windows[labels == 0]
        detector = KNNDistanceDetector(n_neighbors=5).fit(benign)
        copy = round_trip(detector)
        np.testing.assert_array_equal(copy.scores(windows), detector.scores(windows))
        np.testing.assert_array_equal(
            copy.predict(windows), detector.predict(windows)
        )

    def test_madgan_copy_replays_the_original_rng_stream(self):
        """A pickled MAD-GAN reproduces the original's *next* draws bitwise.

        ``scores`` consumes the private ``_rng`` for cold inversion latents,
        so score the original only AFTER pickling: both generators then start
        from the same frozen state and must draw — and score — identically.
        """
        windows, labels = make_toy_windows(n_benign=24, n_malicious=6, seed=6)
        benign = windows[labels == 0]
        detector = MADGANDetector(
            epochs=1, hidden_size=6, latent_dim=3, inversion_steps=5, seed=0
        )
        detector.fit(benign)
        copy = round_trip(detector)
        np.testing.assert_array_equal(
            copy.scores(windows[:4]), detector.scores(windows[:4])
        )


class TestRandomStateRoundTrip:
    def test_stream_continues_bitwise(self):
        state = RandomState(17)
        state.normal(size=32)  # advance mid-stream
        copy = round_trip(state)
        np.testing.assert_array_equal(copy.normal(size=16), state.normal(size=16))

    def test_seed_survives_so_derive_still_works(self):
        state = RandomState(17)
        copy = round_trip(state)
        np.testing.assert_array_equal(
            copy.derive("model").normal(size=8),
            state.derive("model").normal(size=8),
        )
