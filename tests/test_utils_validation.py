"""Tests for repro.utils.validation."""

import numpy as np
import pytest

from repro.utils.validation import (
    check_array,
    check_consistent_length,
    check_fitted,
    check_positive,
    check_probability,
    ensure_2d,
)


class TestCheckArray:
    def test_converts_lists(self):
        result = check_array([1, 2, 3])
        assert isinstance(result, np.ndarray)
        assert result.dtype == np.float64

    def test_ndim_enforced(self):
        with pytest.raises(ValueError, match="dimensions"):
            check_array([[1.0, 2.0]], ndim=1)

    def test_min_samples_enforced(self):
        with pytest.raises(ValueError, match="at least"):
            check_array([1.0], min_samples=2)

    def test_empty_rejected_when_disallowed(self):
        with pytest.raises(ValueError, match="empty"):
            check_array([], allow_empty=False)

    def test_empty_allowed_by_default(self):
        assert check_array([]).size == 0


class TestScalarChecks:
    def test_check_positive_accepts(self):
        assert check_positive(2.0) == 2.0

    def test_check_positive_rejects_zero_when_strict(self):
        with pytest.raises(ValueError):
            check_positive(0.0)

    def test_check_positive_non_strict_allows_zero(self):
        assert check_positive(0.0, strict=False) == 0.0

    def test_check_probability_bounds(self):
        assert check_probability(0.0) == 0.0
        assert check_probability(1.0) == 1.0
        with pytest.raises(ValueError):
            check_probability(1.5)


class TestEnsure2d:
    def test_promotes_1d(self):
        assert ensure_2d([1.0, 2.0]).shape == (2, 1)

    def test_keeps_2d(self):
        assert ensure_2d([[1.0, 2.0]]).shape == (1, 2)

    def test_rejects_3d(self):
        with pytest.raises(ValueError):
            ensure_2d(np.zeros((1, 2, 3)))


class TestConsistency:
    def test_consistent_length_ok(self):
        assert check_consistent_length([1, 2], [3, 4]) == 2

    def test_inconsistent_length_raises(self):
        with pytest.raises(ValueError, match="inconsistent"):
            check_consistent_length([1, 2], [3])

    def test_requires_at_least_one(self):
        with pytest.raises(ValueError):
            check_consistent_length(None, None)


class TestCheckFitted:
    def test_passes_when_attributes_set(self):
        class Dummy:
            weights_ = 1.0

        check_fitted(Dummy(), ("weights_",))

    def test_raises_when_missing(self):
        class Dummy:
            weights_ = None

        with pytest.raises(RuntimeError, match="not fitted"):
            check_fitted(Dummy(), ("weights_",))
