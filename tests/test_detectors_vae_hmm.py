"""LSTM-VAE + HMM detector family: gradient parity, EM properties, contracts.

Pins the guarantees the new detector family ships under (ISSUE 9):

* the VAE loss head's fused backward matches the autodiff graph within the
  repo-wide 1e-8 gradient tolerance, per layer, across batch sizes and
  timestep counts, and the fused/graph training twins produce identical
  fixed-seed loss curves;
* Baum-Welch is a genuine EM fixed-point iteration — per-iteration data
  log-likelihood is monotonically non-decreasing and the transition matrix
  stays row-stochastic;
* both detectors fit deterministically under a fixed seed (equal
  ``state_hash``);
* the cross-detector serving contract: both brains stream statelessly (one
  ``predict`` per tick), so streaming and cross-lane batched scheduler
  verdicts and scores equal offline ``predict`` / ``scores`` bitwise (see
  ``docs/detectors.md`` for the tolerance table), pickle
  round-trips preserve ``state_hash`` and scores, ensemble membership;
* the scheduler's one incremental call per tick: a MAD-GAN backing one
  lane scores bitwise like its one-shot ``scores_incremental``, and one
  backing several lanes gives identical verdicts with strictly fewer
  inversion batches.
"""

import pickle

import numpy as np
import pytest

from repro.detectors import (
    GaussianHMMDetector,
    LSTMVAEDetector,
    MADGANDetector,
    StreamingDetector,
    VotingEnsembleDetector,
)
from repro.detectors.lstm_vae import _VAECore
from repro.nn import Tensor
from repro.nn.fused import (
    LOG_2PI,
    fused_gaussian_nll_loss,
    fused_kl_standard_normal,
    fused_vae_loss_head,
)

from tests.conftest import make_toy_windows, stream_session, stream_verdicts
from tests.test_detectors import make_toy_trace, sliding_windows

GRADIENT_TOLERANCE = 1e-8
LOSS_CURVE_TOLERANCE = 1e-6


def round_trip(obj):
    return pickle.loads(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


# ------------------------------------------------------------------ loss heads
class TestVAELossHeads:
    def test_gaussian_nll_gradients_match_finite_differences(self):
        rng = np.random.default_rng(0)
        mean = rng.normal(size=(4, 5))
        logvar = rng.normal(scale=0.3, size=(4, 5))
        targets = rng.normal(size=(4, 5))
        loss, d_mean, d_logvar = fused_gaussian_nll_loss(mean, logvar, targets)
        step = 1e-6
        for array, grad in ((mean, d_mean), (logvar, d_logvar)):
            flat, flat_grad = array.ravel(), grad.ravel()
            for index in (0, 7, 19):
                flat[index] += step
                up, _, _ = fused_gaussian_nll_loss(mean, logvar, targets)
                flat[index] -= 2 * step
                down, _, _ = fused_gaussian_nll_loss(mean, logvar, targets)
                flat[index] += step
                numeric = (up - down) / (2 * step)
                assert abs(numeric - flat_grad[index]) < 1e-6

    def test_kl_standard_normal_closed_form_and_gradients(self):
        rng = np.random.default_rng(1)
        mu = rng.normal(size=(3, 4))
        logvar = rng.normal(scale=0.5, size=(3, 4))
        kl, d_mu, d_logvar = fused_kl_standard_normal(mu, logvar)
        expected = 0.5 * (mu**2 + np.exp(logvar) - logvar - 1.0).sum() / mu.size
        assert abs(kl - expected) < 1e-12
        np.testing.assert_allclose(d_mu, mu / mu.size, atol=1e-15)
        np.testing.assert_allclose(
            d_logvar, (np.exp(logvar) - 1.0) * 0.5 / mu.size, atol=1e-15
        )
        # KL(N(0,1) || N(0,1)) = 0 with zero gradients.
        kl0, g0, g1 = fused_kl_standard_normal(np.zeros((2, 2)), np.zeros((2, 2)))
        assert kl0 == 0.0 and not g0.any() and not g1.any()

    def test_vae_loss_head_validates_beta(self):
        with pytest.raises(ValueError, match="beta"):
            fused_vae_loss_head(-0.5)


# ---------------------------------------------------------- VAE gradient parity
class TestVAEGradientParity:
    """Fused backward vs autodiff graph, per layer, across shapes."""

    @pytest.mark.parametrize("batch,timesteps", [(3, 12), (1, 5), (7, 8)])
    def test_per_layer_gradients_within_tolerance(self, batch, timesteps):
        rng = np.random.default_rng(batch * 100 + timesteps)
        core = _VAECore(timesteps, 4, 3, 8, seed=batch + timesteps)
        inputs = rng.normal(size=(batch, timesteps, 4))
        eps = rng.normal(size=(batch, 3))
        loss_head = fused_vae_loss_head(beta=0.7)

        core._pending_eps = eps
        outputs, cache = core.fused_forward_train(inputs)
        fused_loss, grads = loss_head(outputs, inputs)
        core.fused_backward_train(grads, cache)
        fused_grads = {
            name: parameter.grad.copy()
            for name, parameter in core.named_parameters().items()
        }

        core.zero_grad()
        recon_mean, recon_logvar, mu, logvar = core(Tensor(inputs), eps)
        difference = recon_mean - inputs
        inv_var = (recon_logvar * -1.0).exp()
        nll = (recon_logvar + difference * difference * inv_var + LOG_2PI).sum() * (
            0.5 / recon_mean.size
        )
        kl = ((mu * mu) + logvar.exp() - logvar - 1.0).sum() * (0.5 / mu.size)
        loss = nll + kl * 0.7
        loss.backward()

        assert abs(fused_loss - float(loss.item())) < 1e-10
        for name, parameter in core.named_parameters().items():
            gap = np.abs(fused_grads[name] - parameter.grad).max()
            assert gap <= GRADIENT_TOLERANCE, f"{name}: {gap:.3e}"

    def test_eps_shape_validated(self):
        core = _VAECore(6, 4, 3, 8, seed=0)
        core._pending_eps = np.zeros((2, 3))
        with pytest.raises(ValueError, match="eps"):
            core.fused_forward_train(np.zeros((5, 6, 4)))
        core._pending_eps = None
        with pytest.raises(ValueError, match="reparameterization"):
            core.fused_forward_train(np.zeros((5, 6, 4)))


# --------------------------------------------------------- fit determinism/curves
class TestVAETraining:
    @pytest.fixture(scope="class")
    def benign(self):
        windows, labels = make_toy_windows(n_benign=48, n_malicious=0, seed=2)
        return windows[labels == 0]

    def make(self, benign, graph=False, **overrides):
        kwargs = dict(
            epochs=2, hidden_size=8, latent_dim=3, batch_size=16, seed=11
        )
        kwargs.update(overrides)
        detector = LSTMVAEDetector(**kwargs)
        return detector.fit_graph(benign) if graph else detector.fit(benign)

    def test_seeded_fit_is_deterministic(self, benign):
        left, right = self.make(benign), self.make(benign)
        assert left.state_hash() == right.state_hash()
        assert left.history_ == right.history_
        windows, _ = make_toy_windows(seed=3)
        np.testing.assert_array_equal(left.scores(windows), right.scores(windows))

    def test_fused_and_graph_loss_curves_match(self, benign):
        fused = self.make(benign)
        graph = self.make(benign, graph=True)
        assert len(fused.history_) == len(graph.history_) == 2
        gap = np.abs(np.array(fused.history_) - np.array(graph.history_)).max()
        assert gap <= LOSS_CURVE_TOLERANCE
        # 1e-8 per-step gradient gaps compound through Adam, so the weights
        # track within a small tolerance rather than bitwise.
        left = fused._core.named_parameters()
        right = graph._core.named_parameters()
        for name, parameter in left.items():
            np.testing.assert_allclose(
                parameter.data, right[name].data, atol=1e-6, err_msg=name
            )

    def test_separates_toy_anomalies(self, benign):
        detector = self.make(benign, epochs=6)
        windows, labels = make_toy_windows(seed=4)
        scores = detector.scores(windows)
        assert scores[labels == 1].mean() > scores[labels == 0].mean()

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            LSTMVAEDetector(epochs=0)
        with pytest.raises(ValueError):
            LSTMVAEDetector(beta=-1.0)
        with pytest.raises(ValueError):
            LSTMVAEDetector(learning_rate=0.0)


# -------------------------------------------------------------- HMM properties
class TestHMMProperties:
    @pytest.fixture(scope="class")
    def benign(self):
        windows, labels = make_toy_windows(n_benign=60, n_malicious=0, seed=5)
        return windows[labels == 0]

    @pytest.fixture(scope="class")
    def fitted(self, benign):
        return GaussianHMMDetector(n_states=3, n_iter=8, seed=7).fit(benign)

    def test_baum_welch_loglik_monotone(self, fitted):
        history = fitted.loglik_history_
        assert len(history) == 8
        for before, after in zip(history, history[1:]):
            assert after >= before - 1e-9, "EM must not decrease the log-likelihood"

    def test_parameters_stay_stochastic_and_floored(self, fitted):
        np.testing.assert_allclose(fitted.transmat_.sum(axis=1), 1.0, atol=1e-12)
        assert (fitted.transmat_ >= 0.0).all()
        assert abs(fitted.startprob_.sum() - 1.0) < 1e-12
        assert (fitted.startprob_ >= 0.0).all()
        assert (fitted.vars_ >= fitted.var_floor).all()

    def test_seeded_fit_is_deterministic(self, benign):
        left = GaussianHMMDetector(n_states=3, n_iter=8, seed=7).fit(benign)
        right = GaussianHMMDetector(n_states=3, n_iter=8, seed=7).fit(benign)
        assert left.state_hash() == right.state_hash()
        assert left.loglik_history_ == right.loglik_history_

    def test_separates_toy_anomalies(self, fitted):
        windows, labels = make_toy_windows(seed=6)
        scores = fitted.scores(windows)
        assert scores[labels == 1].mean() > scores[labels == 0].mean()
        assert fitted.predict(windows[labels == 1]).mean() > 0.5

    def test_extreme_window_scores_finite(self, fitted):
        # The emission floor keeps a wildly out-of-band window finite instead
        # of poisoning the forward recursion with NaNs.
        absurd = np.full((1, 12, 4), 1e6)
        score = fitted.scores(absurd)
        assert np.isfinite(score).all()
        assert fitted.predict(absurd)[0] == 1

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            GaussianHMMDetector(n_states=0)
        with pytest.raises(ValueError):
            GaussianHMMDetector(n_iter=0)
        with pytest.raises(ValueError):
            GaussianHMMDetector(self_transition=1.0)
        with pytest.raises(ValueError):
            GaussianHMMDetector(var_floor=0.0)


# --------------------------------------------------- cross-detector contracts
@pytest.fixture(scope="module")
def family():
    """Both new brains, fitted on the shared toy fixture."""
    windows, labels = make_toy_windows(n_benign=60, n_malicious=0, seed=8)
    benign = windows[labels == 0]
    vae = LSTMVAEDetector(
        epochs=2, hidden_size=8, latent_dim=3, batch_size=16, seed=0
    ).fit(benign)
    hmm = GaussianHMMDetector(n_states=3, n_iter=5, seed=0).fit(benign)
    return {"lstm_vae": vae, "hmm": hmm}


DETECTOR_NAMES = ["lstm_vae", "hmm"]


@pytest.fixture(scope="module")
def predictor(tiny_zoo):
    """A forecaster to serve the toy streams (12-sample windows, 4 features)."""
    return tiny_zoo.aggregate


def window_session(predictor, detector):
    """A one-session scheduler monitoring with ``detector`` as window brain."""
    adapter = StreamingDetector(detector, unit="window", include_scores=True)
    return stream_session(predictor, brain=adapter)


def stream_through_adapter(session, windows):
    """Feed the sliding windows' samples through the session's window brain.

    ``windows`` are consecutive sliding windows of one trace; returns the
    ``(flags, scores)`` of the warm ticks, one per window.
    """
    trace = np.concatenate([windows[0][:-1], windows[:, -1]])
    verdicts = stream_verdicts(session, trace, "brain")
    warm = [verdict for verdict in verdicts if not verdict.warming]
    assert len(warm) == len(windows)
    return (
        np.array([int(verdict.flagged) for verdict in warm]),
        np.array([verdict.score for verdict in warm]),
    )


class TestStreamingOfflineParity:
    """VAE and HMM stream statelessly: each warm tick is one ``predict`` on
    the session's window, so verdicts are exactly offline ``predict``."""

    @pytest.mark.parametrize("name", DETECTOR_NAMES)
    def test_streaming_verdicts_bitwise_equal_offline(self, family, predictor, name):
        detector = family[name]
        windows = sliding_windows(make_toy_trace(14, seed=21), 14)
        stream_flags, stream_scores = stream_through_adapter(
            window_session(predictor, detector), windows
        )
        np.testing.assert_array_equal(stream_flags, detector.predict(windows))
        # Both scorers are batch-invariant, so one window per tick matches
        # the batched offline call bitwise.
        np.testing.assert_array_equal(stream_scores, detector.scores(windows))

    @pytest.mark.parametrize("name", DETECTOR_NAMES)
    def test_batched_streams_match_single_streams(self, family, name):
        """Scoring k streams in one call == scoring each alone, bitwise."""
        detector = family[name]
        traces = [make_toy_trace(10, seed=30 + index) for index in range(3)]
        for tick in range(10):
            stacked = np.stack([trace[tick : tick + 12] for trace in traces])
            batched = detector.scores(stacked)
            solo = np.array(
                [detector.scores(stacked[index : index + 1])[0] for index in range(3)]
            )
            np.testing.assert_array_equal(batched, solo)

    @pytest.mark.parametrize("name", DETECTOR_NAMES)
    def test_state_reset_recovers_cold_parity(self, family, predictor, name):
        detector = family[name]
        windows = sliding_windows(make_toy_trace(4, seed=33), 4)
        session = window_session(predictor, detector)
        stream_through_adapter(session, windows)
        # Quarantine is the scheduler's stream reset: lane slot and adapters.
        session._scheduler._quarantine_session(session)
        assert session.detectors["brain"].ticks == 0
        flags, scores = stream_through_adapter(session, windows[:1])
        np.testing.assert_array_equal(scores, detector.scores(windows[:1]))
        np.testing.assert_array_equal(flags, detector.predict(windows[:1]))

    @pytest.mark.parametrize("name", DETECTOR_NAMES)
    def test_streaming_adapter_is_stateless(self, family, name):
        adapter = StreamingDetector(family[name], unit="window")
        assert adapter.incremental is False
        assert adapter.inversion_state is None
        assert adapter.drain_inversion_counts() is None

    @pytest.fixture(scope="class")
    def cohort_family(self, tiny_zoo, tiny_cohort):
        windows, _, _ = tiny_zoo.dataset.from_cohort(tiny_cohort, split="train")
        benign = windows[::4]
        return {
            "lstm_vae": LSTMVAEDetector(
                epochs=1, hidden_size=8, latent_dim=3, batch_size=16, seed=0
            ).fit(benign),
            "hmm": GaussianHMMDetector(n_states=3, n_iter=3, seed=0).fit(benign),
        }

    @pytest.mark.parametrize("name", DETECTOR_NAMES)
    def test_scheduler_verdicts_equal_offline_predict(
        self, cohort_family, tiny_zoo, tiny_cohort, name
    ):
        """Cross-lane batched serving: every warm verdict and score is
        offline ``predict`` / ``scores`` on the session's window, bitwise."""
        from repro.serving import StreamScheduler

        detector = cohort_family[name]
        history = tiny_zoo.dataset.history
        records = list(tiny_cohort)
        # Two sessions per lane, at different offsets, so each lane's detector
        # batch holds distinct windows.
        feeds = {
            f"{record.label}/{copy}": record.features("test")[5 * copy : 5 * copy + 30]
            for record in records
            for copy in range(2)
        }
        scheduler = StreamScheduler()
        for session_id in feeds:
            label = session_id.split("/")[0]
            scheduler.open_session(
                label,
                tiny_zoo.model_for(label),
                detectors={
                    name: StreamingDetector(
                        detector, unit="window", history=history, include_scores=True
                    )
                },
                session_id=session_id,
            )
        served = {session_id: [] for session_id in feeds}
        for tick in range(30):
            outcomes = scheduler.tick({sid: trace[tick] for sid, trace in feeds.items()})
            for session_id, outcome in outcomes.items():
                verdict = outcome.verdicts[name]
                assert verdict.warming == (tick < history - 1)
                if not verdict.warming:
                    served[session_id].append((verdict.flagged, verdict.score))
        for session_id, trace in feeds.items():
            windows = np.stack(
                [trace[end - history + 1 : end + 1] for end in range(history - 1, 30)]
            )
            flags = np.array([int(flag) for flag, _ in served[session_id]])
            scores = np.array([score for _, score in served[session_id]])
            np.testing.assert_array_equal(flags, detector.predict(windows))
            np.testing.assert_array_equal(scores, detector.scores(windows))


class TestFamilySerialization:
    @pytest.mark.parametrize("name", DETECTOR_NAMES)
    def test_round_trip_preserves_hash_and_scores(self, family, name):
        detector = family[name]
        copy = round_trip(detector)
        assert copy.state_hash() == detector.state_hash()
        windows, _ = make_toy_windows(seed=9)
        np.testing.assert_array_equal(copy.scores(windows), detector.scores(windows))
        np.testing.assert_array_equal(copy.predict(windows), detector.predict(windows))

    @pytest.mark.parametrize("name", DETECTOR_NAMES)
    def test_stream_state_survives_mid_stream(self, family, predictor, name):
        """A window-monitored scheduler pickled mid-stream continues with
        bitwise-identical verdicts and scores."""
        detector = family[name]
        trace = make_toy_trace(8, seed=35)
        session = window_session(predictor, detector)
        stream_verdicts(session, trace[:14], "brain")
        copy = round_trip(session._scheduler).session(session.session_id)
        for sample in trace[14:]:
            (left,) = stream_verdicts(session, [sample], "brain")
            (right,) = stream_verdicts(copy, [sample], "brain")
            assert not left.warming
            assert (left.flagged, left.score) == (right.flagged, right.score)


class TestEnsembleMembership:
    def test_family_joins_the_voting_ensemble(self, family):
        ensemble = VotingEnsembleDetector(
            [family["lstm_vae"], family["hmm"]], min_votes=2
        )
        windows, labels = make_toy_windows(seed=10)
        flags = ensemble.predict(windows)
        assert flags.shape == (len(windows),)
        assert set(np.unique(flags)) <= {0, 1}
        # Both members separate the toy anomalies, so their conjunction must.
        assert flags[labels == 1].mean() > flags[labels == 0].mean()


# ------------------------------------------------- cold-batch coalescing (MAD-GAN)
class TestColdBatchCoalescing:
    """The scheduler serves MAD-GAN with one call per tick over every lane,
    running the cold work of every lane in one batch: one lane scores
    bitwise like the one-shot path, several lanes give its verdicts
    (``tests/test_madgan_stacking.py`` pins several lanes bitwise against
    the lane-by-lane reference)."""

    @pytest.fixture(scope="class")
    def benign(self):
        windows, labels = make_toy_windows(n_benign=60, n_malicious=0, seed=12)
        return windows[labels == 0]

    def make_madgan(self, benign, warm_fallback_ratio=1.5):
        detector = MADGANDetector(
            epochs=1,
            hidden_size=8,
            batch_size=32,
            inversion_steps=6,
            warm_inversion_steps=2,
            warm_fallback_ratio=warm_fallback_ratio,
            cold_refresh_interval=4,
            max_samples=200,
            seed=0,
        )
        detector.fit(benign)
        return detector

    def test_one_lane_scores_equal_one_shot_bitwise(self, benign, predictor):
        """A MAD-GAN backing one lane serves, tick for tick, the very scores
        and flags of its one-shot ``scores_incremental`` on the same windows:
        cold starts, warm fallbacks and ``cold_refresh_interval`` re-anchors
        included."""
        from repro.serving import StreamScheduler

        served = self.make_madgan(benign, warm_fallback_ratio=1.0)
        reference = self.make_madgan(benign, warm_fallback_ratio=1.0)
        traces = {f"toy/{index}": make_toy_trace(14, seed=60 + index) for index in range(2)}
        scheduler = StreamScheduler()
        for session_id in traces:
            scheduler.open_session(
                "toy",
                predictor,
                detectors={
                    "madgan": StreamingDetector(served, unit="window", include_scores=True)
                },
                session_id=session_id,
            )
        assert scheduler.n_lanes == 1
        states = [reference.make_inversion_state() for _ in traces]
        history = served.sequence_length
        for tick in range(len(traces["toy/0"])):
            outcomes = scheduler.tick({sid: trace[tick] for sid, trace in traces.items()})
            if tick < history - 1:
                continue
            windows = np.stack(
                [trace[tick - history + 1 : tick + 1] for trace in traces.values()]
            )
            scores = reference.scores_incremental(windows, states)
            verdicts = [outcomes[sid].verdicts["madgan"] for sid in traces]
            assert [verdict.score for verdict in verdicts] == scores.tolist()
            assert [verdict.flagged for verdict in verdicts] == [
                bool(flag) for flag in reference.calibrator.predict(scores)
            ]
        assert states[0].ticks > served.cold_refresh_interval
        assert any(state.fallbacks for state in states)
        assert served.inversion_calls == reference.inversion_calls

    def test_scheduler_coalesces_across_lanes_at_identical_verdicts(
        self, benign, tiny_zoo, tiny_cohort
    ):
        """Two lanes sharing one MAD-GAN: coalescing must cut the inversion
        batch count while leaving every verdict identical to an eager run of
        each lane's adapter in the scheduler's lane order."""
        from repro.serving import StreamScheduler

        records = list(tiny_cohort)[:2]
        traces = {record.label: record.features("test")[:26] for record in records}

        def verdict_of(verdict):
            return verdict.warming, verdict.flagged

        detector = self.make_madgan(benign)
        scheduler = StreamScheduler()
        for record in records:
            scheduler.open_session(
                record.label,
                tiny_zoo.model_for(record.label),
                detectors={
                    "madgan": StreamingDetector(detector, unit="window", history=12)
                },
            )
        assert scheduler.n_lanes == len(records)
        coalesced_verdicts = [
            {
                label: verdict_of(outcome.verdicts["madgan"])
                for label, outcome in scheduler.tick(
                    {label: trace[tick] for label, trace in traces.items()}
                ).items()
            }
            for tick in range(26)
        ]

        # Reference: one scheduler per lane, ticked in delivery (= lane)
        # order, so every lane pays its own cold inversion.
        reference = self.make_madgan(benign)
        sessions = {
            record.label: stream_session(
                tiny_zoo.model_for(record.label),
                madgan=StreamingDetector(reference, unit="window", history=12),
            )
            for record in records
        }
        eager_verdicts = [
            {
                label: verdict_of(stream_verdicts(sessions[label], [trace[tick]], "madgan")[0])
                for label, trace in traces.items()
            }
            for tick in range(26)
        ]
        assert coalesced_verdicts == eager_verdicts
        assert detector.inversion_calls < reference.inversion_calls


# ------------------------------------------------- tier-1 parity smoke hook
class TestDetectorFamilySmoke:
    """Wire scripts/check_parity.py's family gate into the tier-1 flow."""

    def test_family_smoke_passes(self, check_parity, tiny_zoo, tiny_cohort):
        report = check_parity.run_detector_family_smoke(tiny_zoo, tiny_cohort)
        assert report["hmm"]["stream_score_gap"] == 0.0
        assert report["lstm_vae"]["stream_score_gap"] == 0.0
