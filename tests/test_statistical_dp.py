"""Empirical differential-privacy checks on the core mechanisms.

These tests estimate output distributions of the mechanisms on *neighbouring*
datasets (differing in one record) and verify that the observed likelihood
ratios respect the ε-DP inequality ``Pr[A(D1) in S] <= e^eps * Pr[A(D2) in S]``
up to sampling error.  They are not proofs — the analytical guarantees are —
but they catch the classic implementation mistakes (wrong sensitivity, wrong
scale, budget split errors) that silently destroy the guarantee while leaving
accuracy tests green.

All tests use fixed seeds and generous slack over the theoretical bound so
they are deterministic and robust.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import QuadSplit, build_psd_releases
from repro.data import uniform_points
from repro.geometry import Domain
from repro.privacy import exponential_mechanism_median_batch


def empirical_ratio_bound(samples_a: np.ndarray, samples_b: np.ndarray, bins: np.ndarray) -> float:
    """The largest observed probability ratio over histogram bins with enough mass."""
    hist_a, _ = np.histogram(samples_a, bins=bins)
    hist_b, _ = np.histogram(samples_b, bins=bins)
    p_a = hist_a / samples_a.size
    p_b = hist_b / samples_b.size
    # Only compare bins where both sides have enough samples for a stable estimate.
    mask = (hist_a >= 50) & (hist_b >= 50)
    if not np.any(mask):
        return 1.0
    return float(np.max(np.maximum(p_a[mask] / p_b[mask], p_b[mask] / p_a[mask])))


def released_root_counts(n_points: int, epsilon: float, seed: int) -> np.ndarray:
    """The noisy root count of 200,000 height-0 releases of ``n_points`` points.

    Drawn through the batched release path every sweep uses, with the whole
    budget on the root (``count_budget="uniform"`` at height 0).
    """
    domain = Domain.unit(2)
    points = uniform_points(51, domain, rng=np.random.default_rng(4000))[:n_points]
    batch = build_psd_releases(points, domain, height=0, split_rule=QuadSplit(),
                               epsilons=[epsilon], repetitions=200_000,
                               count_budget="uniform", rng=np.random.default_rng(seed))
    return batch.flat_batch.noisy_count[:, 0]


def em_medians(values: np.ndarray, epsilon: float, n: int, rng) -> np.ndarray:
    """``n`` EM medians of ``values`` on [0, 100] from one batch call.

    The batch runs over ``n`` tiled copies of the sorted values; by the
    draw-order contract it yields the same samples, bit for bit, as ``n``
    scalar calls on the same generator.
    """
    sorted_values = np.sort(values)
    offsets = np.arange(n + 1) * sorted_values.size
    return exponential_mechanism_median_batch(np.tile(sorted_values, n), offsets,
                                              epsilon, 0.0, 100.0, rng=rng)


class TestLaplaceMechanismDP:
    @pytest.mark.parametrize("epsilon", [0.25, 1.0])
    def test_count_release_respects_epsilon(self, epsilon):
        # Neighbouring datasets: 50 points, and the same 50 plus one.
        samples_a = released_root_counts(50, epsilon, seed=1000)
        samples_b = released_root_counts(51, epsilon, seed=2000)
        bins = np.linspace(30.0, 70.0, 41)
        ratio = empirical_ratio_bound(samples_a, samples_b, bins)
        # Each bin spans 1 unit; the ratio over a bin is at most e^{eps * (1 + bin width)}.
        assert ratio <= np.exp(epsilon * 2.0) * 1.2

    def test_wrong_sensitivity_would_be_caught(self):
        """Sanity check of the test itself: far too little noise violates the bound."""
        rng = np.random.default_rng(3000)
        epsilon = 0.5
        broken_scale = 0.25 / epsilon  # as if sensitivity were 0.25 instead of 1
        samples_a = 50.0 + rng.laplace(scale=broken_scale, size=200_000)
        samples_b = 51.0 + rng.laplace(scale=broken_scale, size=200_000)
        bins = np.linspace(30.0, 70.0, 41)
        ratio = empirical_ratio_bound(samples_a, samples_b, bins)
        assert ratio > np.exp(epsilon * 2.0) * 1.2


class TestExponentialMechanismMedianDP:
    def test_neighbouring_datasets_have_similar_output_distributions(self):
        """Adding one record changes every rank by at most 1, so the output density
        ratio is bounded by e^{eps} (score sensitivity 1, exponent eps/2 * 2)."""
        epsilon = 1.0
        rng_a = np.random.default_rng(11)
        rng_b = np.random.default_rng(12)
        base = np.sort(np.random.default_rng(13).uniform(0.0, 100.0, size=201))
        neighbour = np.append(base, 97.0)  # one extra record near the top
        n = 40_000
        samples_a = em_medians(base, epsilon, n, rng_a)
        samples_b = em_medians(neighbour, epsilon, n, rng_b)
        bins = np.linspace(0.0, 100.0, 21)
        ratio = empirical_ratio_bound(samples_a, samples_b, bins)
        assert ratio <= np.exp(epsilon) * 1.3

    def test_distant_datasets_do_differ(self):
        """Sanity check of the test: non-neighbouring datasets give very different outputs."""
        epsilon = 1.0
        rng = np.random.default_rng(14)
        low = np.random.default_rng(15).uniform(0.0, 20.0, size=200)
        high = np.random.default_rng(16).uniform(80.0, 100.0, size=200)
        n = 20_000
        samples_a = em_medians(low, epsilon, n, rng)
        samples_b = em_medians(high, epsilon, n, rng)
        assert abs(np.median(samples_a) - np.median(samples_b)) > 30.0
