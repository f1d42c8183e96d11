"""Core differential-privacy noise mechanisms.

Implements the Laplace mechanism (Definition 2) the paper builds on — the
noise that populates every node count in a PSD — as the vectorised
:func:`laplace_noise`, the uniform-driven :func:`laplace_from_uniform` the
private medians draw through, and the variance :func:`laplace_variance` of
Equation (1).
"""

from __future__ import annotations

import numpy as np

from .rng import RngLike, ensure_rng

__all__ = [
    "COUNT_SENSITIVITY",
    "laplace_noise",
    "laplace_from_uniform",
    "laplace_variance",
]

#: Sensitivity of a count query.  Adding or removing one tuple changes any
#: count by at most 1 (Definition 2's example).
COUNT_SENSITIVITY: float = 1.0


def _check_epsilon(epsilon: float) -> float:
    epsilon = float(epsilon)
    if not np.isfinite(epsilon) or epsilon <= 0:
        raise ValueError(f"epsilon must be a positive finite number, got {epsilon}")
    return epsilon


def laplace_noise(scale: float, size=None, rng: RngLike = None) -> np.ndarray | float:
    """Draw Laplace noise with the given ``scale`` (mean 0, variance ``2*scale**2``)."""
    if scale < 0:
        raise ValueError("scale must be non-negative")
    gen = ensure_rng(rng)
    if scale == 0:
        return np.zeros(size) if size is not None else 0.0
    noise = gen.laplace(loc=0.0, scale=scale, size=size)
    return noise


def laplace_from_uniform(uniforms, scale: float = 1.0):
    """Standard Laplace noise derived from ``U[0, 1)`` draws by inverse CDF.

    ``u < 1/2`` maps to ``log(2u)`` and ``u >= 1/2`` to ``-log(2 - 2u)`` — the
    same transform NumPy's own sampler applies.  The private-median mechanisms
    use this instead of :func:`laplace_noise` so that *every* draw they make
    is a plain ``Generator.random()`` uniform: a batched mechanism can then
    reproduce a sequence of per-node scalar calls bit for bit by slicing one
    flat uniform vector (the BFS draw-order contract of
    :mod:`repro.privacy.median`).  A ``u`` of exactly 0 is floored at the
    smallest positive double rather than mapping to ``-inf``.
    """
    u = np.asarray(uniforms, dtype=float)
    tiny = np.finfo(float).tiny
    low = np.log(np.maximum(2.0 * u, tiny))
    high = -np.log(np.maximum(2.0 - 2.0 * u, tiny))
    return scale * np.where(u < 0.5, low, high)


def laplace_variance(epsilon: float, sensitivity: float = COUNT_SENSITIVITY) -> float:
    """Variance of the Laplace mechanism: ``2 * (sensitivity / epsilon)**2``.

    With sensitivity 1 this is the ``2 / eps_i**2`` appearing in the paper's
    Equation (1).
    """
    epsilon = _check_epsilon(epsilon)
    scale = sensitivity / epsilon
    return 2.0 * scale * scale
