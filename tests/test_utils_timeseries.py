"""Tests for repro.utils.timeseries."""

import numpy as np
import pytest

from repro.utils.timeseries import (
    MinMaxScaler,
    SampleRing,
    StandardScaler,
    autocorrelation,
    exponential_moving_average,
    resample_series,
)


class TestStandardScaler:
    def test_zero_mean_unit_std(self, rng):
        data = rng.normal(5.0, 3.0, size=(200, 2))
        scaled = StandardScaler().fit_transform(data)
        np.testing.assert_allclose(scaled.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(scaled.std(axis=0), 1.0, atol=1e-6)

    def test_roundtrip(self, rng):
        data = rng.normal(size=(50, 3))
        scaler = StandardScaler().fit(data)
        np.testing.assert_allclose(scaler.inverse_transform(scaler.transform(data)), data, atol=1e-9)

    def test_requires_fit(self):
        with pytest.raises(RuntimeError):
            StandardScaler().transform([[1.0]])

    def test_handles_constant_feature(self):
        data = np.ones((10, 1))
        scaled = StandardScaler().fit_transform(data)
        assert np.all(np.isfinite(scaled))


class TestMinMaxScaler:
    def test_output_range(self, rng):
        data = rng.normal(size=(100, 2)) * 10
        scaled = MinMaxScaler().fit_transform(data)
        assert scaled.min() >= 0.0 - 1e-12
        assert scaled.max() <= 1.0 + 1e-12

    def test_custom_range(self, rng):
        data = rng.normal(size=(100, 1))
        scaled = MinMaxScaler(feature_range=(-1.0, 1.0)).fit_transform(data)
        assert scaled.min() >= -1.0 - 1e-12
        assert scaled.max() <= 1.0 + 1e-12

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            MinMaxScaler(feature_range=(1.0, 0.0))

    def test_roundtrip(self, rng):
        data = rng.normal(size=(30, 2))
        scaler = MinMaxScaler().fit(data)
        np.testing.assert_allclose(scaler.inverse_transform(scaler.transform(data)), data, atol=1e-9)


class TestSplitAndSmoothing:
    def test_ema_smooths_towards_signal(self):
        series = np.array([0.0, 10.0, 10.0, 10.0])
        smoothed = exponential_moving_average(series, alpha=0.5)
        assert smoothed[0] == 0.0
        assert smoothed[-1] > smoothed[1]

    def test_ema_alpha_validated(self):
        with pytest.raises(ValueError):
            exponential_moving_average([1.0], alpha=0.0)

    def test_resample_length(self):
        assert len(resample_series(np.arange(10), 25)) == 25

    def test_resample_preserves_endpoints(self):
        resampled = resample_series(np.array([1.0, 5.0]), 7)
        assert resampled[0] == 1.0
        assert resampled[-1] == 5.0

    def test_resample_single_value(self):
        np.testing.assert_array_equal(resample_series([3.0], 4), np.full(4, 3.0))

    def test_autocorrelation_lag_zero_is_one(self):
        values = np.sin(np.linspace(0, 10, 100))
        result = autocorrelation(values, max_lag=5)
        assert result[0] == 1.0
        assert len(result) == 6

    def test_autocorrelation_constant_series(self):
        result = autocorrelation(np.ones(10), max_lag=3)
        np.testing.assert_array_equal(result[1:], 0.0)

    def test_autocorrelation_alternating_series_flips_sign(self):
        result = autocorrelation(np.tile([1.0, -1.0], 10), max_lag=2)
        assert result[1] == pytest.approx(-19 / 20)
        assert result[2] == pytest.approx(18 / 20)

    def test_autocorrelation_negative_lag_rejected(self):
        with pytest.raises(ValueError, match="max_lag"):
            autocorrelation(np.arange(5.0), max_lag=-1)


class TestSampleRing:
    def test_window_none_until_full_then_time_ordered(self):
        ring = SampleRing(3)
        samples = [np.array([float(i), 10.0 * i]) for i in range(5)]
        for index, sample in enumerate(samples):
            ring.push(sample)
            if index < 2:
                assert ring.window() is None
                assert not ring.full
            else:
                np.testing.assert_array_equal(
                    ring.window(), np.stack(samples[index - 2 : index + 1])
                )

    def test_tail_with_prepends_recent_history(self):
        ring = SampleRing(3)
        assert ring.tail_with(np.zeros(2)) is None
        ring.push(np.array([1.0, 1.0]))
        assert ring.tail_with(np.zeros(2)) is None
        ring.push(np.array([2.0, 2.0]))
        tail = ring.tail_with(np.array([9.0, 9.0]))
        np.testing.assert_array_equal(
            tail, np.array([[1.0, 1.0], [2.0, 2.0], [9.0, 9.0]])
        )
        # After wrapping, tail keeps only the newest capacity-1 samples.
        for value in (3.0, 4.0, 5.0):
            ring.push(np.array([value, value]))
        tail = ring.tail_with(np.array([9.0, 9.0]))
        np.testing.assert_array_equal(
            tail, np.array([[4.0, 4.0], [5.0, 5.0], [9.0, 9.0]])
        )

    def test_capacity_one(self):
        ring = SampleRing(1)
        np.testing.assert_array_equal(
            ring.tail_with(np.array([7.0])), np.array([[7.0]])
        )
        ring.push(np.array([3.0]))
        np.testing.assert_array_equal(ring.window(), np.array([[3.0]]))

    def test_window_returns_copy(self):
        ring = SampleRing(2)
        ring.push(np.array([1.0]))
        ring.push(np.array([2.0]))
        window = ring.window()
        window[:] = -1.0
        np.testing.assert_array_equal(ring.window(), np.array([[1.0], [2.0]]))

    def test_reset_and_validation(self):
        ring = SampleRing(2)
        ring.push(np.array([1.0]))
        ring.reset()
        assert ring.count == 0
        with pytest.raises(ValueError):
            SampleRing(0)
        with pytest.raises(ValueError):
            ring.push(np.zeros((2, 2)))
