"""Tests for the Laplace noise primitives."""

from __future__ import annotations

import numpy as np
import pytest

from repro.privacy import laplace_noise, laplace_variance


class TestLaplaceNoise:
    def test_zero_scale_is_exact(self):
        assert laplace_noise(0.0) == 0.0
        assert np.all(laplace_noise(0.0, size=5) == 0.0)

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            laplace_noise(-1.0)

    def test_statistics(self, rng):
        draws = laplace_noise(2.0, size=200_000, rng=rng)
        assert np.mean(draws) == pytest.approx(0.0, abs=0.05)
        assert np.var(draws) == pytest.approx(2 * 2.0**2, rel=0.05)

    def test_reproducible_with_seed(self):
        a = laplace_noise(1.0, size=10, rng=42)
        b = laplace_noise(1.0, size=10, rng=42)
        assert np.array_equal(a, b)


class TestLaplaceMechanism:
    def test_rejects_bad_epsilon(self):
        for eps in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError):
                laplace_variance(eps)

    def test_variance_matches_formula(self, rng):
        eps, sens = 0.4, 2.0
        draws = laplace_noise(sens / eps, size=100_000, rng=rng)
        assert np.var(draws) == pytest.approx(laplace_variance(eps, sens), rel=0.05)

    def test_variance_formula(self):
        # Var(Lap(1/eps)) = 2 / eps^2 for sensitivity-1 counts (Equation 1).
        assert laplace_variance(0.5) == pytest.approx(2.0 / 0.25)
        assert laplace_variance(1.0, sensitivity=3.0) == pytest.approx(2.0 * 9.0)
