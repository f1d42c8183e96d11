"""Accuracy metrics used throughout the experimental study.

* **Relative error** of a single query and the **median relative error** of a
  workload — the headline metric of Figures 3, 5 and 6 ("for each shape we
  generate 600 queries that have a non-zero answer, and record the median
  relative error").
* **Average query variance** — the theoretical error measure ``Err(Q)`` of
  Section 4 (the variance of the unbiased estimator), exposed for the
  analytical comparisons.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "relative_error",
    "relative_errors",
    "median_relative_error",
    "mean_relative_error",
    "workload_error_summary",
]


def relative_error(estimate: float, truth: float, sanity_bound: float = 0.001) -> float:
    """Relative error ``|estimate - truth| / max(truth, sanity_bound * something)``.

    The workloads only contain queries with a strictly positive true answer, so
    plain division is normally safe; ``sanity_bound`` guards the degenerate
    case of a zero/near-zero truth by falling back to absolute error scaled by
    the bound (mirroring the common convention in the follow-up literature).
    """
    truth = float(truth)
    estimate = float(estimate)
    denom = truth if truth > 0 else max(sanity_bound, 1e-12)
    return abs(estimate - truth) / denom


def relative_errors(estimates: Sequence[float], truths: Sequence[float]) -> np.ndarray:
    """Per-query relative errors, matrix form included.

    ``estimates`` is either a ``(Q,)`` vector or an ``(R, Q)`` matrix — one
    row per noisy release of a sweep — evaluated against **one** ``(Q,)``
    truth vector; the result has the same shape as ``estimates``.  This is the
    error half of the sweep pipeline's workload algebra: the engine produces
    the whole estimate matrix in one sparse product and this turns it into
    per-release error rows in one broadcast pass.
    """
    est = np.asarray(estimates, dtype=float)
    tru = np.asarray(truths, dtype=float)
    if tru.ndim != 1:
        raise ValueError("truths must be a one-dimensional vector")
    if est.ndim not in (1, 2) or est.shape[-1] != tru.shape[0]:
        raise ValueError(
            f"estimates must be (Q,) or (R, Q) with Q == {tru.shape[0]}, got {est.shape}"
        )
    denom = np.where(tru > 0, tru, 1e-12)
    return np.abs(est - tru) / denom


def median_relative_error(estimates: Sequence[float], truths: Sequence[float]):
    """The paper's workload metric: median of the per-query relative errors.

    For a ``(Q,)`` estimate vector this is the scalar median; for an
    ``(R, Q)`` matrix it returns the ``(R,)`` per-release medians in one pass
    (``np.median`` over the query axis).  Empty workloads give ``nan``.
    """
    errs = relative_errors(estimates, truths)
    if errs.shape[-1] == 0:
        return float("nan") if errs.ndim == 1 else np.full(errs.shape[0], np.nan)
    if errs.ndim == 1:
        return float(np.median(errs))
    return np.median(errs, axis=-1)


def mean_relative_error(estimates: Sequence[float], truths: Sequence[float]):
    """Mean per-query relative error (reported alongside the median in benches).

    Scalar for a ``(Q,)`` input, ``(R,)`` per-release means for an ``(R, Q)``
    estimate matrix — same conventions as :func:`median_relative_error`.
    """
    errs = relative_errors(estimates, truths)
    if errs.shape[-1] == 0:
        return float("nan") if errs.ndim == 1 else np.full(errs.shape[0], np.nan)
    if errs.ndim == 1:
        return float(np.mean(errs))
    return np.mean(errs, axis=-1)


def workload_error_summary(estimates: Sequence[float], truths: Sequence[float]) -> dict:
    """A small dict of summary statistics for one workload."""
    errs = relative_errors(estimates, truths)
    if errs.size == 0:
        return {"n": 0, "median": float("nan"), "mean": float("nan"), "p90": float("nan")}
    return {
        "n": int(errs.size),
        "median": float(np.median(errs)),
        "mean": float(np.mean(errs)),
        "p90": float(np.percentile(errs, 90)),
    }
