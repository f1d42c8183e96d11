"""Tests for the private-median mechanisms of Section 6.1.

The per-node behaviour of each method is checked through its scalar form in
:mod:`oracle.median` (a batch of one segment of the registry record).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle.median import (
    cell_median,
    exponential_mechanism_median,
    make_sampled_median,
    median_from_noisy_cells,
    noisy_mean_median,
    per_node,
    smooth_sensitivity_median,
    smooth_sensitivity_of_median,
    true_median,
)
from repro.privacy import MEDIAN_METHODS, resolve_median_method
from repro.privacy import make_sampled_median as make_sampled_record
from repro.privacy.median import _tight_base_epsilon_array

LO, HI = 0.0, 1000.0


def tight_base_epsilon(target: float, rate: float, **kwargs) -> float:
    """The per-run budget a sampled median runs at, for one target."""
    return float(_tight_base_epsilon_array(np.array([target]), rate, **kwargs)[0])


@pytest.fixture()
def uniform_values(rng):
    return rng.uniform(LO, HI, size=4_000)


class TestTrueMedian:
    def test_matches_numpy(self, uniform_values):
        assert true_median(uniform_values, 1.0, LO, HI) == pytest.approx(np.median(uniform_values))

    def test_empty_returns_domain_midpoint(self):
        assert true_median(np.array([]), 1.0, LO, HI) == pytest.approx((LO + HI) / 2)

    def test_rejects_values_outside_domain(self):
        with pytest.raises(ValueError):
            true_median(np.array([2000.0]), 1.0, LO, HI)


class TestExponentialMechanismMedian:
    def test_output_in_domain(self, uniform_values, rng):
        for _ in range(20):
            out = exponential_mechanism_median(uniform_values, 0.1, LO, HI, rng=rng)
            assert LO <= out <= HI

    def test_accurate_with_large_budget(self, uniform_values, rng):
        true = np.median(uniform_values)
        outs = [exponential_mechanism_median(uniform_values, 5.0, LO, HI, rng=rng) for _ in range(30)]
        # With a large budget the rank error should be tiny.
        ranks = [np.searchsorted(np.sort(uniform_values), o) for o in outs]
        assert np.median(np.abs(np.array(ranks) - len(uniform_values) / 2)) < len(uniform_values) * 0.02
        assert np.median(np.abs(np.array(outs) - true)) < (HI - LO) * 0.05

    def test_nearly_uniform_with_tiny_budget(self, rng):
        # eps -> 0 makes every rank almost equally likely, so outputs spread widely.
        values = rng.uniform(LO, HI, size=500)
        outs = np.array([exponential_mechanism_median(values, 1e-6, LO, HI, rng=rng) for _ in range(300)])
        assert outs.std() > (HI - LO) * 0.15

    def test_empty_input_uniform_over_domain(self, rng):
        outs = np.array([exponential_mechanism_median(np.array([]), 1.0, LO, HI, rng=rng) for _ in range(200)])
        assert LO <= outs.min() and outs.max() <= HI
        assert outs.std() > (HI - LO) * 0.2

    def test_single_value(self, rng):
        out = exponential_mechanism_median(np.array([400.0]), 1.0, LO, HI, rng=rng)
        assert LO <= out <= HI

    def test_degenerate_domain(self, rng):
        out = exponential_mechanism_median(np.array([5.0, 5.0]), 1.0, 5.0, 5.0, rng=rng)
        assert out == 5.0

    def test_rejects_bad_epsilon(self, uniform_values):
        with pytest.raises(ValueError):
            exponential_mechanism_median(uniform_values, 0.0, LO, HI)

    def test_concentration_lemma6(self, rng):
        """Lemma 6(ii): for non-skewed data, the EM output lands in [x_{n/5}, x_{4n/5}] w.p. >= 1/6."""
        values = np.sort(rng.uniform(LO, HI, size=2_000))
        lo_q, hi_q = values[len(values) // 5], values[4 * len(values) // 5]
        hits = sum(
            lo_q <= exponential_mechanism_median(values, 0.05, LO, HI, rng=rng) <= hi_q
            for _ in range(200)
        )
        assert hits / 200 >= 1 / 6


class TestSmoothSensitivity:
    def test_sigma_positive_and_bounded_by_domain(self, uniform_values):
        sigma = smooth_sensitivity_of_median(uniform_values, 0.1, 1e-4, LO, HI)
        assert 0 < sigma <= HI - LO

    def test_sigma_at_least_local_sensitivity(self, rng):
        values = np.sort(rng.uniform(LO, HI, size=501))
        m = (values.size - 1) // 2
        local = max(values[m + 1] - values[m], values[m] - values[m - 1])
        sigma = smooth_sensitivity_of_median(values, 0.5, 1e-4, LO, HI)
        assert sigma >= local - 1e-9

    def test_sigma_smoothness_under_deletion(self, rng):
        """sigma_s is xi-smooth: deleting one element changes it by at most e^xi."""
        eps, delta = 0.5, 1e-4
        xi = eps / (4 * (1 + np.log(2 / delta)))
        values = np.sort(rng.uniform(LO, HI, size=400))
        sigma_full = smooth_sensitivity_of_median(values, eps, delta, LO, HI)
        for drop in (0, 200, 399):
            neighbour = np.delete(values, drop)
            sigma_neighbour = smooth_sensitivity_of_median(neighbour, eps, delta, LO, HI)
            assert sigma_full <= np.exp(xi) * sigma_neighbour + 1e-9
            assert sigma_neighbour <= np.exp(xi) * sigma_full + 1e-9

    def test_empty_returns_domain_width(self):
        assert smooth_sensitivity_of_median(np.array([]), 0.1, 1e-4, LO, HI) == HI - LO

    def test_median_output_in_domain(self, uniform_values, rng):
        out = smooth_sensitivity_median(uniform_values, 0.5, LO, HI, rng=rng)
        assert LO <= out <= HI

    def test_median_accurate_with_large_budget(self, uniform_values, rng):
        outs = [smooth_sensitivity_median(uniform_values, 5.0, LO, HI, rng=rng) for _ in range(20)]
        assert np.median(np.abs(np.array(outs) - np.median(uniform_values))) < (HI - LO) * 0.1

    def test_rejects_bad_parameters(self, uniform_values):
        with pytest.raises(ValueError):
            smooth_sensitivity_median(uniform_values, 0.0, LO, HI)
        with pytest.raises(ValueError):
            smooth_sensitivity_of_median(uniform_values, 0.5, 2.0, LO, HI)


class TestCellMedian:
    def test_output_in_domain(self, uniform_values, rng):
        out = cell_median(uniform_values, 0.5, LO, HI, rng=rng, n_cells=128)
        assert LO <= out <= HI

    def test_accurate_with_large_budget(self, uniform_values, rng):
        outs = [cell_median(uniform_values, 10.0, LO, HI, rng=rng, n_cells=256) for _ in range(10)]
        assert np.median(np.abs(np.array(outs) - np.median(uniform_values))) < (HI - LO) * 0.05

    def test_rejects_bad_parameters(self, uniform_values):
        with pytest.raises(ValueError):
            cell_median(uniform_values, 0.0, LO, HI)
        with pytest.raises(ValueError):
            cell_median(uniform_values, 1.0, LO, HI, n_cells=0)

    def test_median_from_noisy_cells_interpolation(self):
        # 4 equal cells with mass only in the third cell: the median sits inside it.
        counts = np.array([0.0, 0.0, 10.0, 0.0])
        edges = np.linspace(0.0, 4.0, 5)
        assert 2.0 <= median_from_noisy_cells(counts, edges) <= 3.0

    def test_median_from_noisy_cells_negative_counts_clipped(self):
        counts = np.array([-5.0, 1.0, -2.0, 1.0])
        edges = np.linspace(0.0, 4.0, 5)
        out = median_from_noisy_cells(counts, edges)
        assert 1.0 <= out <= 4.0

    def test_median_from_noisy_cells_all_zero(self):
        counts = np.zeros(4)
        edges = np.linspace(0.0, 4.0, 5)
        assert median_from_noisy_cells(counts, edges) == pytest.approx(2.0)

    def test_mismatched_edges_raise(self):
        with pytest.raises(ValueError):
            median_from_noisy_cells(np.zeros(4), np.linspace(0, 1, 4))


class TestNoisyMeanMedian:
    def test_output_in_domain(self, uniform_values, rng):
        out = noisy_mean_median(uniform_values, 0.5, LO, HI, rng=rng)
        assert LO <= out <= HI

    def test_close_to_mean_for_large_data(self, uniform_values, rng):
        outs = [noisy_mean_median(uniform_values, 2.0, LO, HI, rng=rng) for _ in range(20)]
        assert np.median(outs) == pytest.approx(np.mean(uniform_values), rel=0.05)

    def test_poor_for_skewed_data(self, rng):
        """The mean is a bad median surrogate on skewed data — the paper's point."""
        skewed = np.concatenate([rng.uniform(0, 10, 900), rng.uniform(900, 1000, 100)])
        outs = [noisy_mean_median(skewed, 2.0, LO, HI, rng=rng) for _ in range(20)]
        true = np.median(skewed)
        assert np.median(outs) > true + 50  # pulled far towards the heavy tail

    def test_rejects_bad_epsilon(self, uniform_values):
        with pytest.raises(ValueError):
            noisy_mean_median(uniform_values, -1.0, LO, HI)


class TestSampledVariants:
    def test_registry_contains_paper_methods(self):
        for name in ("true", "em", "ss", "cell", "noisymean", "ems", "sss"):
            assert name in MEDIAN_METHODS

    def test_resolve_by_name_and_callable(self):
        assert resolve_median_method("EM") is MEDIAN_METHODS["em"]
        with pytest.raises(ValueError, match="batch form"):
            resolve_median_method(true_median)
        with pytest.raises(KeyError):
            resolve_median_method("nope")

    def test_sampled_wrapper_validates_rate(self):
        with pytest.raises(ValueError):
            make_sampled_record(MEDIAN_METHODS["true"], sampling_rate=0.0)

    def test_tight_base_epsilon_paper_regime(self):
        """At a 0.01 target with 1% sampling the per-run budget grows ~70x (the
        paper quotes 'about 50 times larger')."""
        eps_prime = tight_base_epsilon(0.01, 0.01)
        assert 0.3 <= eps_prime <= 1.5
        # Closing the loop with the tight amplification formula recovers the target.
        assert math.log(1 + 0.01 * (math.exp(eps_prime) - 1)) == pytest.approx(0.01, rel=1e-6)

    def test_tight_base_epsilon_at_least_target_and_capped(self):
        assert tight_base_epsilon(2.0, 1.0) == pytest.approx(2.0)
        assert tight_base_epsilon(3.0, 1e-6, cap=5.0) == pytest.approx(5.0)

    def test_sampled_em_output_in_domain(self, uniform_values, rng):
        sampled = make_sampled_median("em", sampling_rate=0.05)
        out = sampled(uniform_values, 0.1, LO, HI, rng=rng)
        assert LO <= out <= HI

    def test_sampled_em_reasonable_accuracy(self, rng):
        values = rng.uniform(LO, HI, size=50_000)
        sampled = make_sampled_median("em", sampling_rate=0.01)
        outs = [sampled(values, 0.5, LO, HI, rng=rng) for _ in range(10)]
        assert np.median(np.abs(np.array(outs) - np.median(values))) < (HI - LO) * 0.1


@given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=0, max_size=200),
       st.sampled_from(["em", "cell", "noisymean", "true"]))
@settings(max_examples=50, deadline=None)
def test_all_methods_stay_in_domain(values, method_name):
    """Property: every median method returns a value inside [lo, hi]."""
    method = per_node(method_name)
    out = method(np.array(values), 0.5, 0.0, 100.0, rng=np.random.default_rng(0))
    assert 0.0 <= out <= 100.0


@given(st.floats(0.01, 2.0), st.floats(0.001, 1.0))
@settings(max_examples=60, deadline=None)
def test_tight_base_epsilon_never_exceeds_target(target, rate):
    """Property: the per-run budget, amplified by sampling at ``rate``, never
    lands above the target — or it is the target itself, where running on a
    sample is only more private.  Amplified with the numpy ufuncs the
    inversion steps down with (``math``'s can differ by an ulp)."""
    eps_prime = tight_base_epsilon(target, rate)
    amplified = float(np.log1p(rate * np.expm1(np.array([eps_prime])))[0])
    assert eps_prime == target or amplified <= target
