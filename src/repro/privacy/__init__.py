"""Differential-privacy substrate: Laplace noise, accounting, private medians."""

from .accountant import AnalystAccount, PrivacyAccountant, PrivacyCharge
from .mechanisms import (
    COUNT_SENSITIVITY,
    laplace_from_uniform,
    laplace_noise,
    laplace_variance,
)
from .median import (
    MEDIAN_METHODS,
    MedianMethod,
    cell_median_batch,
    exponential_mechanism_median_batch,
    make_sampled_median,
    noisy_mean_median_batch,
    resolve_median_method,
    smooth_sensitivity_median_batch,
    true_median_batch,
)
from .rng import ensure_rng, spawn_generators

__all__ = [
    "AnalystAccount",
    "PrivacyAccountant",
    "PrivacyCharge",
    "COUNT_SENSITIVITY",
    "laplace_noise",
    "laplace_from_uniform",
    "laplace_variance",
    "MEDIAN_METHODS",
    "MedianMethod",
    "true_median_batch",
    "exponential_mechanism_median_batch",
    "smooth_sensitivity_median_batch",
    "cell_median_batch",
    "noisy_mean_median_batch",
    "make_sampled_median",
    "resolve_median_method",
    "ensure_rng",
    "spawn_generators",
]
