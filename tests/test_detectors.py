"""Tests for the anomaly detectors (kNN, OneClassSVM, MAD-GAN, ensemble) and
the training-set prologue every static detector shares."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tests.conftest import make_toy_windows
from repro.detectors import (
    GaussianHMMDetector,
    KNNClassifierDetector,
    KNNDistanceDetector,
    LSTMVAEDetector,
    MADGANDetector,
    OneClassSVMDetector,
    ThresholdCalibrator,
    VotingEnsembleDetector,
    kernel_matrix,
    minkowski_distances,
)
from repro.utils.timeseries import StandardScaler


class TestThresholdCalibrator:
    def test_quantile_threshold(self):
        calibrator = ThresholdCalibrator(quantile=0.9).fit(np.arange(100.0))
        assert calibrator.threshold_ == pytest.approx(89.1)

    def test_predict_flags_above_threshold(self):
        calibrator = ThresholdCalibrator(quantile=0.5).fit(np.array([0.0, 1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(calibrator.predict(np.array([0.0, 10.0])), [0, 1])

    def test_requires_fit(self):
        with pytest.raises(RuntimeError):
            ThresholdCalibrator().predict(np.array([1.0]))

    def test_invalid_quantile(self):
        with pytest.raises(ValueError):
            ThresholdCalibrator(quantile=1.5).fit(np.arange(10.0))


class TestDistances:
    def test_euclidean_matches_manual(self, rng):
        a = rng.normal(size=(5, 3))
        b = rng.normal(size=(7, 3))
        distances = minkowski_distances(a, b, p=2.0)
        manual = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))
        np.testing.assert_allclose(distances, manual, atol=1e-9)

    def test_manhattan(self):
        distances = minkowski_distances(np.array([[0.0, 0.0]]), np.array([[1.0, 2.0]]), p=1.0)
        assert distances[0, 0] == pytest.approx(3.0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            minkowski_distances(np.zeros((2, 3)), np.zeros((2, 4)))

    def test_kernel_matrix_rbf_diagonal_is_one(self, rng):
        data = rng.normal(size=(6, 4))
        gram = kernel_matrix(data, data, "rbf", gamma=0.5, coef0=0.0, degree=3)
        np.testing.assert_allclose(np.diag(gram), 1.0)

    def test_kernel_matrix_linear(self, rng):
        data = rng.normal(size=(4, 3))
        np.testing.assert_allclose(
            kernel_matrix(data, data, "linear", 1.0, 0.0, 3), data @ data.T
        )

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError):
            kernel_matrix(np.zeros((2, 2)), np.zeros((2, 2)), "mystery", 1.0, 0.0, 3)


class TestKNNClassifier:
    def test_detects_separable_anomalies(self, toy_detection_data):
        windows, labels = toy_detection_data
        detector = KNNClassifierDetector(n_neighbors=5).fit(windows, labels)
        predictions = detector.predict(windows)
        recall = np.mean(predictions[labels == 1] == 1)
        false_positive_rate = np.mean(predictions[labels == 0] == 1)
        assert recall > 0.7
        assert false_positive_rate < 0.2

    def test_requires_labels(self, toy_detection_data):
        windows, _ = toy_detection_data
        with pytest.raises(ValueError):
            KNNClassifierDetector().fit(windows)

    def test_rejects_non_binary_labels(self, toy_detection_data):
        windows, labels = toy_detection_data
        with pytest.raises(ValueError):
            KNNClassifierDetector().fit(windows, labels + 1)

    def test_scores_are_fractions(self, toy_detection_data):
        windows, labels = toy_detection_data
        detector = KNNClassifierDetector().fit(windows, labels)
        scores = detector.scores(windows[:10])
        assert np.all(scores >= 0.0)
        assert np.all(scores <= 1.0)

    def test_distance_weighting_supported(self, toy_detection_data):
        windows, labels = toy_detection_data
        detector = KNNClassifierDetector(weights="distance").fit(windows, labels)
        assert detector.predict(windows[:5]).shape == (5,)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            KNNClassifierDetector().predict(np.zeros((1, 12, 4)))

    def test_single_timestep_windows_supported(self, toy_detection_data):
        windows, labels = toy_detection_data
        samples = windows[:, -1:, :]
        detector = KNNClassifierDetector().fit(samples, labels)
        assert detector.predict(samples[:3]).shape == (3,)


class TestKNNDistance:
    def test_flags_outliers(self, toy_detection_data):
        windows, labels = toy_detection_data
        detector = KNNDistanceDetector(quantile=0.95).fit(windows[labels == 0])
        predictions = detector.predict(windows)
        assert np.mean(predictions[labels == 1] == 1) > 0.8

    def test_benign_false_positive_rate_bounded(self, toy_detection_data):
        windows, labels = toy_detection_data
        detector = KNNDistanceDetector(quantile=0.95).fit(windows[labels == 0])
        predictions = detector.predict(windows[labels == 0])
        assert np.mean(predictions) < 0.25

    def test_accepts_labels_and_filters_benign(self, toy_detection_data):
        windows, labels = toy_detection_data
        detector = KNNDistanceDetector().fit(windows, labels)
        assert detector.predict(windows[:4]).shape == (4,)


def _full_sort_mean_knn_distance(detector, scaled, exclude_self=False):
    """The top-k reference: every distance finished and the whole row sorted."""
    skip = int(exclude_self)
    k = max(min(detector.n_neighbors, len(detector._train_features) - skip), 1)
    distances = minkowski_distances(scaled, detector._train_features, detector.p)
    return np.sort(distances, axis=1)[:, skip : k + skip].mean(axis=1)


class TestKNNTopK:
    """Partitioning powers and finishing only the k nearest is bitwise the
    full sort of finished distances, ties and duplicate references included."""

    @settings(max_examples=80, deadline=None)
    @given(
        n_references=st.integers(2, 12),
        n_duplicates=st.integers(0, 6),
        n_queries=st.integers(1, 9),
        n_neighbors=st.integers(1, 20),
        p=st.sampled_from([2.0, 1.0, 3.0]),
        seed=st.integers(0, 2**16),
    )
    def test_matches_full_sort(self, n_references, n_duplicates, n_queries, n_neighbors, p, seed):
        rng = np.random.default_rng(seed)
        # Small integer grids: many exact distance ties.
        references = rng.integers(0, 3, size=(n_references, 2, 3)).astype(float)
        references = np.concatenate(
            [references, references[rng.integers(0, n_references, n_duplicates)]]
        )
        queries = rng.integers(0, 3, size=(n_queries, 2, 3)).astype(float)
        detector = KNNDistanceDetector(n_neighbors=n_neighbors, p=p, batch_size=4)
        detector.fit(references)
        scaled = detector._apply_scaler(detector._flatten(queries))
        np.testing.assert_array_equal(
            detector.scores(queries), _full_sort_mean_knn_distance(detector, scaled)
        )
        np.testing.assert_array_equal(
            detector._training_scores(),
            _full_sort_mean_knn_distance(detector, detector._train_features, exclude_self=True),
        )

    @pytest.mark.parametrize("exclude_self", [False, True])
    def test_k_equals_the_reference_count(self, toy_detection_data, exclude_self):
        windows, labels = toy_detection_data
        references = windows[labels == 0][:9]
        detector = KNNDistanceDetector(n_neighbors=len(references) - int(exclude_self))
        detector.fit(references)
        scaled = detector._apply_scaler(detector._flatten(windows))
        np.testing.assert_array_equal(
            detector._mean_knn_distance(scaled, exclude_self),
            _full_sort_mean_knn_distance(detector, scaled, exclude_self),
        )


class TestOneClassSVM:
    def test_rbf_detects_anomalies(self, toy_detection_data):
        windows, labels = toy_detection_data
        detector = OneClassSVMDetector(kernel="rbf", gamma="scale", nu=0.1, seed=0)
        detector.fit(windows[labels == 0])
        predictions = detector.predict(windows)
        assert np.mean(predictions[labels == 1] == 1) > 0.8
        assert np.mean(predictions[labels == 0] == 1) < 0.35

    def test_nu_controls_benign_rejection(self, toy_detection_data):
        windows, labels = toy_detection_data
        benign = windows[labels == 0]
        tight = OneClassSVMDetector(kernel="rbf", gamma="scale", nu=0.05, seed=0).fit(benign)
        loose = OneClassSVMDetector(kernel="rbf", gamma="scale", nu=0.5, seed=0).fit(benign)
        tight_rate = np.mean(tight.predict(benign))
        loose_rate = np.mean(loose.predict(benign))
        assert loose_rate > tight_rate

    def test_decision_function_sign_convention(self, toy_detection_data):
        windows, labels = toy_detection_data
        detector = OneClassSVMDetector(kernel="rbf", gamma="scale", nu=0.1, seed=0).fit(
            windows[labels == 0]
        )
        decisions = detector.decision_function(windows)
        predictions = detector.predict(windows)
        np.testing.assert_array_equal(predictions, (decisions < 0).astype(int))

    def test_invalid_nu_rejected(self):
        with pytest.raises(ValueError):
            OneClassSVMDetector(nu=0.0)

    def test_subsampling_limits_training_size(self, toy_detection_data):
        windows, labels = toy_detection_data
        detector = OneClassSVMDetector(kernel="rbf", gamma="scale", nu=0.2, max_samples=30, seed=0)
        detector.fit(windows[labels == 0])
        assert len(detector._train_scaled) <= 30

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            OneClassSVMDetector().predict(np.zeros((1, 12, 4)))

    def test_sigmoid_kernel_runs(self, toy_detection_data):
        windows, labels = toy_detection_data
        detector = OneClassSVMDetector(kernel="sigmoid", coef0=10.0, nu=0.5, seed=0)
        detector.fit(windows[labels == 0][:40])
        assert detector.predict(windows[:5]).shape == (5,)


class TestMADGAN:
    @pytest.fixture(scope="class")
    def fitted_madgan(self):
        windows, labels = make_toy_windows(
            n_benign=120, n_malicious=0, seed=3
        )
        detector = MADGANDetector(epochs=4, hidden_size=12, inversion_steps=25, seed=0)
        detector.fit(windows[labels == 0])
        return detector

    def test_training_history_recorded(self, fitted_madgan):
        assert len(fitted_madgan.history_.generator_losses) == 4
        assert len(fitted_madgan.history_.discriminator_losses) == 4

    def test_detects_large_manipulations(self, fitted_madgan):
        windows, labels = make_toy_windows(
            n_benign=30, n_malicious=30, seed=9
        )
        predictions = fitted_madgan.predict(windows)
        assert np.mean(predictions[labels == 1] == 1) > 0.7

    def test_benign_false_positive_rate_bounded(self, fitted_madgan):
        windows, labels = make_toy_windows(
            n_benign=40, n_malicious=0, seed=11
        )
        assert np.mean(fitted_madgan.predict(windows)) < 0.3

    def test_wrong_window_shape_rejected(self, fitted_madgan):
        with pytest.raises(ValueError):
            fitted_madgan.predict(np.zeros((2, 5, 4)))

    def test_scores_before_fit_raise(self):
        with pytest.raises(RuntimeError):
            MADGANDetector().scores(np.zeros((1, 12, 4)))

    def test_invalid_reconstruction_weight(self):
        with pytest.raises(ValueError):
            MADGANDetector(reconstruction_weight=1.5)


class TestShortFits:
    """A fit on fewer windows than one batch still trains one batch per epoch
    with finite losses (with ``drop_last`` it used to train zero steps)."""

    @pytest.mark.parametrize("name", ["madgan", "lstm_vae"])
    def test_fit_below_batch_size_trains_every_epoch(self, monkeypatch, name):
        from repro.detectors import LSTMVAEDetector
        from repro.detectors import lstm_vae as vae_module
        from repro.detectors import madgan as madgan_module

        module = madgan_module if name == "madgan" else vae_module
        steps = []

        class CountingIterator(module.BatchIterator):
            def __iter__(self):
                batches = 0
                for batch in super().__iter__():
                    batches += 1
                    yield batch
                steps.append(batches)

        monkeypatch.setattr(module, "BatchIterator", CountingIterator)
        windows, _ = make_toy_windows(n_benign=24, n_malicious=0, seed=4)
        if name == "madgan":
            detector = MADGANDetector(epochs=2, hidden_size=6, inversion_steps=4, seed=0)
            history = detector.fit(windows).history_
            losses = history.generator_losses + history.discriminator_losses
        else:
            detector = LSTMVAEDetector(epochs=2, hidden_size=6, latent_dim=2, seed=0)
            losses = detector.fit(windows).history_
        assert detector.batch_size > len(windows)
        assert steps == [1, 1]
        assert len(losses) and np.isfinite(losses).all()


class TestMADGANFastPathRegression:
    """The graph-free inversion/scoring fast paths are pinned to the named
    autodiff references: the float64 inversion's reconstruction errors within
    1e-8, discriminator probabilities within 1e-10, detection decisions
    unchanged.  The float32 production inversion is pinned to the float64 one
    within the documented gap quantiles, with identical verdicts, and must
    stay float32 inside and float64 at its boundary."""

    @pytest.fixture(scope="class")
    def fitted(self):
        windows, labels = make_toy_windows(n_benign=90, n_malicious=0, seed=3)
        detector = MADGANDetector(epochs=3, hidden_size=10, inversion_steps=20, seed=0)
        detector.fit(windows[labels == 0])
        return detector

    def test_reconstruction_errors_match_graph_path(self, fitted):
        windows, _ = make_toy_windows(n_benign=12, n_malicious=8, seed=21)
        scaled = fitted._scale(windows)
        latent = fitted._sample_latent(len(scaled)) * 0.1
        fast, _ = fitted._invert_fast64(scaled, latent, fitted.inversion_steps)
        graph = fitted._reconstruction_errors_graph(scaled, initial_latent=latent)
        np.testing.assert_allclose(fast, graph, atol=1e-8, rtol=0.0)

    def test_float32_inversion_tracks_float64_reference(self, fitted, check_parity):
        windows, _ = make_toy_windows(n_benign=40, n_malicious=20, seed=23)
        report = check_parity.madgan_dtype_gap(fitted, windows)
        assert report["verdict_flips"] == 0
        assert report["flagged"] > 0

    def test_float32_inversion_leaks_no_float64(self, fitted, monkeypatch):
        # One float64 upcast inside the loop (e.g. a dtype-less np.zeros)
        # silently erases the float32 speedup without failing any parity
        # test.  The generator weights are wrapped in a probe that records
        # the dtype of every ufunc result computed from them (the probe
        # passes on to those results), so an upcast anywhere downstream of
        # the weights shows up, not only one at the kernels' boundaries.
        import repro.detectors.madgan as madgan_module

        dtypes = []

        class DtypeProbe(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                def plain(value):
                    return value.view(np.ndarray) if isinstance(value, DtypeProbe) else value

                if "out" in kwargs:
                    kwargs["out"] = tuple(plain(value) for value in kwargs["out"])
                result = getattr(ufunc, method)(*map(plain, inputs), **kwargs)
                results = result if isinstance(result, tuple) else (result,)
                dtypes.extend(np.asarray(value).dtype for value in results)
                probed = tuple(
                    value.view(DtypeProbe) if isinstance(value, np.ndarray) else value
                    for value in results
                )
                return probed if isinstance(result, tuple) else probed[0]

        optimizers = []

        class RecordingAdam(madgan_module.Adam):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                optimizers.append(self)

        generator = fitted.generator
        backward = generator.fused_backward_train
        fast_forward = generator.fast_forward
        gradients = []
        loop_dtypes = []

        def recording_backward(grad_output, cache):
            gradients.append(backward(grad_output, cache))
            return gradients[-1]

        def recording_fast_forward(latent):
            # The final forward closes the float32 region: the error is then
            # taken against the float64 windows on purpose.
            generated = fast_forward(latent)
            loop_dtypes.extend(dtypes + [generated.dtype])
            return generated

        parameters = generator.parameters()
        weights = [parameter.data for parameter in parameters]
        for parameter in parameters:
            parameter.data = parameter.data.view(DtypeProbe)
        monkeypatch.setattr(madgan_module, "Adam", RecordingAdam)
        monkeypatch.setattr(generator, "fused_backward_train", recording_backward)
        monkeypatch.setattr(generator, "fast_forward", recording_fast_forward)
        windows, _ = make_toy_windows(n_benign=6, n_malicious=2, seed=47)
        scaled = fitted._scale(windows)
        try:
            errors, latents = fitted._invert_fast(
                scaled, fitted._sample_latent(len(scaled)) * 0.1, steps=3
            )
        finally:
            monkeypatch.undo()
            for parameter, data in zip(parameters, weights):
                parameter.data = data

        assert len(loop_dtypes) > 100
        assert set(loop_dtypes) == {np.dtype(np.float32)}
        assert len(gradients) == 3
        assert all(gradient.dtype == np.float32 for gradient in gradients)
        (optimizer,) = optimizers
        (latent,) = optimizer.parameters
        assert latent.data.dtype == np.float32
        assert latent.grad is gradients[-1]
        moments = optimizer._first_moment + optimizer._second_moment
        assert all(moment.dtype == np.float32 for moment in moments)
        assert errors.dtype == np.float64
        assert latents.dtype == np.float64

        # The streaming carry-over keeps float64 through cold and warm ticks.
        state = fitted.make_inversion_state()
        trace = make_toy_trace(2, seed=48)
        for tick in range(2):
            window = trace[tick : tick + fitted.sequence_length][np.newaxis]
            scores = fitted.scores_incremental(window, [state])
            assert scores.dtype == np.float64
            assert state.latent.dtype == np.float64

    def test_discrimination_scores_match_graph_path(self, fitted):
        windows, _ = make_toy_windows(n_benign=10, n_malicious=5, seed=22)
        scaled = fitted._scale(windows)
        fast = fitted._discrimination_scores(scaled)
        graph = fitted._discrimination_scores_graph(scaled)
        np.testing.assert_allclose(fast, graph, atol=1e-10, rtol=0.0)

    def test_detection_decisions_unchanged(self, fitted):
        # Same fitted detector, same latent initialization: routing the DR
        # score through the fast path must not flip a single decision on the
        # seed fixture windows.
        windows, _ = make_toy_windows(n_benign=20, n_malicious=12, seed=33)
        scaled = fitted._scale(windows)
        latent = fitted._sample_latent(len(scaled)) * 0.1

        fast = fitted._dr_scores(
            fitted._reconstruction_errors(scaled, initial_latent=latent),
            fitted._discrimination_scores(scaled),
        )
        graph = fitted._dr_scores(
            fitted._reconstruction_errors_graph(scaled, initial_latent=latent),
            fitted._discrimination_scores_graph(scaled),
        )
        np.testing.assert_array_equal(
            fitted.calibrator.predict(fast), fitted.calibrator.predict(graph)
        )

    def test_frozen_fused_inversion_matches_autodiff(self, fitted):
        from repro.nn import Parameter, Tensor, fused_mse_loss

        windows, _ = make_toy_windows(n_benign=6, n_malicious=0, seed=44)
        scaled = fitted._scale(windows)
        latent_values = fitted._sample_latent(len(scaled)) * 0.1

        generator = fitted.generator
        generator.zero_grad()
        generator.requires_grad_(False)
        try:
            generated_fast, cache = generator.fused_forward_train(latent_values)
            _, d_generated = fused_mse_loss(generated_fast, scaled)
            grad_fast = generator.fused_backward_train(d_generated, cache)
        finally:
            generator.requires_grad_(True)
        # Frozen: no weight gradient was computed.
        assert all(parameter.grad is None for parameter in generator.parameters())

        latent = Parameter(latent_values.copy(), name="latent")
        generator.zero_grad()
        generated = generator(latent)
        residual = generated - Tensor(scaled)
        (residual * residual).mean().backward()

        np.testing.assert_allclose(generated_fast, generated.numpy(), atol=1e-10, rtol=0.0)
        np.testing.assert_allclose(grad_fast, latent.grad, atol=1e-12, rtol=0.0)
        generator.zero_grad()

    @staticmethod
    def _caller_state(generator):
        """Freeze one parameter and give another a pending gradient, as a
        caller mid-training might; returns each parameter's flag, ``.grad``
        object and gradient values, and its ``.data`` object and values."""
        parameters = generator.parameters()
        parameters[0].requires_grad = False
        parameters[1].grad = np.full_like(parameters[1].data, 0.25)
        return [
            (
                p.requires_grad,
                p.grad,
                None if p.grad is None else p.grad.copy(),
                p.data,
                p.data.copy(),
            )
            for p in parameters
        ]

    @staticmethod
    def _assert_parameters_unchanged(generator, snapshot):
        for parameter, (flag, grad, values, data, weights) in zip(
            generator.parameters(), snapshot
        ):
            assert parameter.requires_grad is flag
            assert parameter.grad is grad
            if values is not None:
                np.testing.assert_array_equal(parameter.grad, values)
            # The float32 weight copies are swapped back for the originals.
            assert parameter.data is data
            assert parameter.data.dtype == np.float64
            np.testing.assert_array_equal(parameter.data, weights)

    def test_invert_fast_restores_caller_parameter_state(self, fitted):
        generator = fitted.generator
        windows, _ = make_toy_windows(n_benign=5, n_malicious=0, seed=45)
        scaled = fitted._scale(windows)
        latent = fitted._sample_latent(len(scaled)) * 0.1
        snapshot = self._caller_state(generator)
        try:
            fitted._invert_fast(scaled, latent, steps=3)
            self._assert_parameters_unchanged(generator, snapshot)
        finally:
            generator.requires_grad_(True)
            generator.zero_grad()

    def test_invert_fast_restores_parameter_state_on_error(self, fitted, monkeypatch):
        generator = fitted.generator
        windows, _ = make_toy_windows(n_benign=5, n_malicious=0, seed=46)
        scaled = fitted._scale(windows)
        latent = fitted._sample_latent(len(scaled)) * 0.1
        backward = generator.fused_backward_train
        calls = []

        def failing_backward(grad_output, cache):
            calls.append(1)
            if len(calls) == 2:
                # Mid-loop: the generator is frozen and runs on float32 copies.
                assert not any(p.requires_grad for p in generator.parameters())
                assert all(p.data.dtype == np.float32 for p in generator.parameters())
                raise RuntimeError("injected failure")
            return backward(grad_output, cache)

        snapshot = self._caller_state(generator)
        monkeypatch.setattr(generator, "fused_backward_train", failing_backward)
        try:
            with pytest.raises(RuntimeError, match="injected failure"):
                fitted._invert_fast(scaled, latent, steps=4)
            assert len(calls) == 2
            self._assert_parameters_unchanged(generator, snapshot)
        finally:
            monkeypatch.undo()
            generator.requires_grad_(True)
            generator.zero_grad()


def make_toy_trace(n_ticks: int, seed: int = 5, history: int = 12):
    """A smooth benign trace whose sliding windows match the toy statistics."""
    generator = np.random.default_rng(seed)
    length = n_ticks + history - 1
    timeline = np.arange(length) / float(history)
    cgm = 110 + 18 * np.sin(2 * np.pi * (timeline + generator.uniform()))
    cgm = cgm + generator.normal(0, 2.5, size=length)
    other = generator.normal(0.0, 1.0, size=(length, 3))
    return np.column_stack([cgm, other])


def sliding_windows(trace: np.ndarray, n_ticks: int, history: int = 12):
    return np.stack([trace[tick : tick + history] for tick in range(n_ticks)])


class TestMADGANIncremental:
    """Warm-started incremental scoring is pinned to the cold path: a cold
    first call is bitwise-identical, warm continuations stay within a
    documented score tolerance with unchanged decisions, and a regressing
    warm start falls back to the cold inversion."""

    TOLERANCE = 0.5  # warm-vs-cold DR score gap bound on the toy fixture

    @pytest.fixture(scope="class")
    def fitted(self):
        windows, labels = make_toy_windows(n_benign=90, n_malicious=0, seed=3)
        detector = MADGANDetector(
            epochs=3,
            hidden_size=10,
            inversion_steps=20,
            warm_inversion_steps=6,
            seed=0,
        )
        detector.fit(windows[labels == 0])
        return detector

    def test_first_call_matches_cold_scores_exactly(self, fitted):
        from repro.utils.rng import as_random_state

        windows = sliding_windows(make_toy_trace(4), 4)
        fitted._rng = as_random_state(77)
        cold = fitted.scores(windows)
        states = [fitted.make_inversion_state() for _ in range(len(windows))]
        fitted._rng = as_random_state(77)
        warm = fitted.scores_incremental(windows, states)
        np.testing.assert_array_equal(warm, cold)
        for state in states:
            assert state.latent is not None
            assert state.latent.shape == (fitted.sequence_length, fitted.latent_dim)
            assert state.error is not None
            assert state.ticks == 1
            assert state.fallbacks == 0

    def test_warm_scores_track_cold_with_identical_decisions(self, fitted):
        n_streams, n_ticks = 3, 8
        traces = [make_toy_trace(n_ticks, seed=40 + index) for index in range(n_streams)]
        states = [fitted.make_inversion_state() for _ in range(n_streams)]
        for tick in range(n_ticks):
            windows = np.stack(
                [trace[tick : tick + fitted.sequence_length] for trace in traces]
            )
            warm = fitted.scores_incremental(windows, states)
            cold = fitted.scores(windows)
            assert np.abs(warm - cold).max() <= self.TOLERANCE
            np.testing.assert_array_equal(
                fitted.calibrator.predict(warm), fitted.calibrator.predict(cold)
            )
        assert all(state.ticks == n_ticks for state in states)

    def test_regressing_warm_start_falls_back_to_cold(self, fitted):
        windows = sliding_windows(make_toy_trace(1, seed=9), 1)
        state = fitted.make_inversion_state()
        # A stale, far-off latent with an implausibly tiny previous error:
        # the warm residual must regress beyond the fallback ratio.
        state.latent = np.full((fitted.sequence_length, fitted.latent_dim), 2.5)
        state.error = 1e-9
        state.ticks = 1
        warm = fitted.scores_incremental(windows, [state])
        assert state.fallbacks == 1
        cold = fitted.scores(windows)
        assert abs(float(warm[0]) - float(cold[0])) <= self.TOLERANCE

    def test_fallback_keeps_the_better_inversion(self, fitted):
        # Same setup, but the carried error is so tiny the fallback fires even
        # though the warm result may beat the cold restart; the stored error
        # must be the minimum of the two.
        windows = sliding_windows(make_toy_trace(1, seed=10), 1)
        state = fitted.make_inversion_state()
        state.latent = np.zeros((fitted.sequence_length, fitted.latent_dim))
        state.error = 1e-12
        warm = fitted.scores_incremental(windows, [state])
        assert state.fallbacks == 1
        assert np.isfinite(warm).all()
        assert state.error is not None and state.error >= 0.0

    def test_restored_state_without_error_is_cold_verified(self, fitted):
        # A state deserialized with a latent but no carried error must not
        # crash: the fallback comparison runs against the floor instead.
        windows = sliding_windows(make_toy_trace(1, seed=14), 1)
        state = fitted.make_inversion_state()
        state.latent = np.zeros((fitted.sequence_length, fitted.latent_dim))
        state.error = None
        scores = fitted.scores_incremental(windows, [state])
        assert np.isfinite(scores).all()
        assert state.error is not None

    def test_predict_incremental_reuses_one_inversion(self, fitted):
        windows = sliding_windows(make_toy_trace(2, seed=11), 2)
        states = [fitted.make_inversion_state() for _ in range(len(windows))]
        calls_before = fitted.inversion_calls
        flags, scores = fitted.predict_incremental(windows, states)
        np.testing.assert_array_equal(flags, fitted.calibrator.predict(scores))
        assert fitted.inversion_calls == calls_before + 1  # both streams start cold
        assert all(state.ticks == 1 for state in states)

    def test_anomaly_relevant_regression_cold_verifies_same_tick(self):
        """A genuine level shift re-runs the cold inversion in the very tick
        whose warm inversion regressed, and the window is flagged."""
        windows, labels = make_toy_windows(n_benign=120, n_malicious=0, seed=3)
        detector = MADGANDetector(
            epochs=3,
            hidden_size=10,
            inversion_steps=20,
            warm_inversion_steps=2,
            warm_fallback_ratio=1.02,
            cold_refresh_interval=None,
            seed=2,
        ).fit(windows[labels == 0][:100])
        history = detector.sequence_length
        trace = make_toy_trace(4 + history, seed=42)
        state = detector.make_inversion_state()
        # Warm up on the benign prefix, then hit a hard spoofed level.
        for tick in range(3):
            detector.scores_incremental(trace[tick : tick + history][np.newaxis], [state])
        spoofed = trace[3 : 3 + history].copy()
        spoofed[-3:, 0] += 150.0
        calls_before, fallbacks_before = detector.inversion_calls, state.fallbacks
        flags, _ = detector.predict_incremental(spoofed[np.newaxis], [state])
        # Warm + cold = 2 inversion calls in this one tick.
        assert detector.inversion_calls == calls_before + 2
        assert state.fallbacks == fallbacks_before + 1
        assert state.consecutive_fallbacks == 1
        assert int(flags[0]) == 1

    def test_state_alignment_validated(self, fitted):
        windows = sliding_windows(make_toy_trace(2, seed=12), 2)
        with pytest.raises(ValueError, match="same length"):
            fitted.scores_incremental(windows, [fitted.make_inversion_state()])
        bad = fitted.make_inversion_state()
        bad.latent = np.zeros((3, fitted.latent_dim))
        with pytest.raises(ValueError, match="shape"):
            fitted.scores_incremental(windows[:1], [bad])

    def test_invalid_warm_parameters_rejected(self):
        with pytest.raises(ValueError):
            MADGANDetector(warm_inversion_steps=0)
        with pytest.raises(ValueError):
            MADGANDetector(warm_fallback_ratio=0.5)
        with pytest.raises(ValueError):
            MADGANDetector(cold_refresh_interval=0)

    def test_cold_refresh_reanchors_periodically(self, fitted):
        trace = make_toy_trace(7, seed=15)
        state = fitted.make_inversion_state()
        calls = []
        original = fitted._invert_fast

        def recording(scaled, initial, steps):
            calls.append((len(scaled), steps))
            return original(scaled, initial, steps)

        previous_interval = fitted.cold_refresh_interval
        fitted._invert_fast = recording
        fitted.cold_refresh_interval = 3
        try:
            for tick in range(6):
                window = trace[tick : tick + fitted.sequence_length][np.newaxis]
                fitted.scores_incremental(window, [state])
        finally:
            fitted._invert_fast = original
            fitted.cold_refresh_interval = previous_interval
        steps = [step for _, step in calls]
        # tick 0 cold, ticks 1-2 warm, tick 3 refresh (cold), ticks 4-5 warm
        assert steps == [
            fitted.inversion_steps,
            fitted.warm_inversion_steps,
            fitted.warm_inversion_steps,
            fitted.inversion_steps,
            fitted.warm_inversion_steps,
            fitted.warm_inversion_steps,
        ]
        assert state.ticks == 6
        assert state.fallbacks == 0

    def test_state_reset_forgets_carryover(self, fitted):
        windows = sliding_windows(make_toy_trace(1, seed=13), 1)
        state = fitted.make_inversion_state()
        fitted.scores_incremental(windows, [state])
        state.reset()
        assert state.latent is None
        assert state.error is None
        assert state.ticks == 0


class TestEnsemble:
    def test_majority_vote(self, toy_detection_data):
        windows, labels = toy_detection_data
        ensemble = VotingEnsembleDetector(
            [KNNClassifierDetector(n_neighbors=3), KNNDistanceDetector(), OneClassSVMDetector(kernel="rbf", gamma="scale", nu=0.1, seed=0)]
        )
        ensemble.fit(windows, labels)
        predictions = ensemble.predict(windows)
        assert np.mean(predictions[labels == 1] == 1) > 0.6

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ValueError):
            VotingEnsembleDetector([])

    def test_min_votes_validated(self):
        with pytest.raises(ValueError):
            VotingEnsembleDetector([KNNDistanceDetector()], min_votes=5)


#: Toy-sized builders for every static detector sharing the training-set
#: prologue in :class:`~repro.detectors.base.AnomalyDetector`.
PROLOGUE_DETECTORS = {
    "kNN": lambda: KNNDistanceDetector(n_neighbors=3),
    "OneClassSVM": lambda max_samples=1500: OneClassSVMDetector(
        kernel="rbf", gamma="scale", nu=0.2, max_iter=200, max_samples=max_samples, seed=4
    ),
    "MAD-GAN": lambda max_samples=3000: MADGANDetector(
        latent_dim=2, hidden_size=4, epochs=1, batch_size=16, inversion_steps=3,
        max_samples=max_samples, seed=4,
    ),
    "LSTM-VAE": lambda max_samples=3000: LSTMVAEDetector(
        latent_dim=2, hidden_size=4, epochs=1, batch_size=16, max_samples=max_samples, seed=4
    ),
    "HMM": lambda max_samples=3000: GaussianHMMDetector(
        n_states=2, n_iter=2, max_samples=max_samples, seed=4
    ),
}
WINDOW_DETECTORS = ("MAD-GAN", "LSTM-VAE", "HMM")


class TestTrainingSetPrologue:
    """Every static detector starts ``fit`` the same way: keep the label-0
    rows, fit the scaler, cap the set at ``max_samples``."""

    @pytest.fixture(scope="class")
    def data(self):
        windows, labels = make_toy_windows(n_benign=40, n_malicious=12, seed=21)
        order = np.random.default_rng(5).permutation(len(windows))
        queries, _ = make_toy_windows(n_benign=6, n_malicious=4, seed=22)
        return windows[order], labels[order], queries

    @pytest.mark.parametrize("name", sorted(PROLOGUE_DETECTORS))
    def test_labels_filter_equals_benign_only_fit(self, data, name):
        windows, labels, queries = data
        labelled = PROLOGUE_DETECTORS[name]().fit(windows, labels)
        benign_only = PROLOGUE_DETECTORS[name]().fit(windows[labels == 0])
        assert labelled.scores(queries).tobytes() == benign_only.scores(queries).tobytes()
        assert labelled.predict(queries).tolist() == benign_only.predict(queries).tolist()

    @pytest.mark.parametrize("name", sorted(PROLOGUE_DETECTORS))
    def test_all_malicious_labels_rejected(self, data, name):
        windows, labels, _ = data
        with pytest.raises(ValueError, match=r"^no benign samples \(label 0\) to fit on$"):
            PROLOGUE_DETECTORS[name]().fit(windows, np.ones(len(windows), dtype=int))

    @pytest.mark.parametrize("name", sorted(PROLOGUE_DETECTORS))
    def test_unfitted_scaler_names_the_class(self, name):
        detector = PROLOGUE_DETECTORS[name]()
        message = rf"^{type(detector).__name__} is not fitted$"
        with pytest.raises(RuntimeError, match=message):
            if name in WINDOW_DETECTORS:
                detector._scale(np.zeros((1, 12, 4)))
            else:
                detector._apply_scaler(np.zeros((1, 48)))

    @pytest.mark.parametrize("name", ["OneClassSVM", *WINDOW_DETECTORS])
    def test_max_samples_subsample_is_unchanged(self, data, name):
        # The reference is the prologue as each detector wrote it inline:
        # filter, fit the scaler on the benign rows, then draw max_samples
        # indices without replacement from the detector's own generator.
        windows, labels, _ = data
        reference = PROLOGUE_DETECTORS[name](max_samples=17)
        benign = windows[labels == 0]
        if name in WINDOW_DETECTORS:
            frames = benign.reshape(-1, 4)
            scaled = StandardScaler().fit(frames).transform(frames).reshape(benign.shape)
        else:
            flat = benign.reshape(len(benign), -1)
            scaled = StandardScaler().fit(flat).transform(flat)
        expected = scaled[reference._rng.choice(len(scaled), size=17, replace=False)]

        detector = PROLOGUE_DETECTORS[name](max_samples=17)
        if name in WINDOW_DETECTORS:
            drawn = detector._training_windows(windows, labels)
            # The generator sits where the inline draw left it, so every
            # later draw (emission means, batches, latents) is unchanged too.
            assert detector._rng.integers(0, 2**31) == reference._rng.integers(0, 2**31)
        else:
            drawn = detector.fit(windows, labels)._train_scaled
        assert drawn.tobytes() == expected.tobytes()
