"""Per-node private medians: the reference every batched median call must match.

Production evaluates medians only through the ragged-batch forms of the
registry records (:data:`repro.privacy.median.MEDIAN_METHODS`).  The scalar
forms here are batches of one segment — ``method(values, epsilon, lo, hi,
rng)`` on unsorted values — so a loop of them in BFS order consumes the RNG
exactly as one batch over the same segments does (the draw-order contract),
and :mod:`oracle.splits` builds its pointer trees node by node through them.

:func:`fig4_rows` is the per-node form of Figure 4: one scalar median per node,
level by level, against which the level-at-a-time
:func:`repro.experiments.fig4.run_fig4` is held.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.data.synthetic import MEDIAN_STUDY_DOMAIN, uniform_1d
from repro.experiments.fig4 import MIN_NODE_SIZE, PAPER_CELL_WIDTH
from repro.privacy import median as production
from repro.privacy.median import MedianMethod, resolve_median_method
from repro.privacy.rng import RngLike, ensure_rng

__all__ = [
    "per_node",
    "true_median",
    "exponential_mechanism_median",
    "smooth_sensitivity_median",
    "smooth_sensitivity_of_median",
    "cell_median",
    "median_from_noisy_cells",
    "noisy_mean_median",
    "make_sampled_median",
    "rank_error",
    "fig4_rows",
]


def _prepare(values: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Validate one node's inputs and return its sorted values."""
    lo, hi = float(lo), float(hi)
    if hi < lo:
        raise ValueError(f"invalid domain [{lo}, {hi}]")
    vals = np.asarray(values, dtype=float).ravel()
    if vals.size and (vals.min() < lo - 1e-9 or vals.max() > hi + 1e-9):
        raise ValueError("values fall outside the declared domain [lo, hi]")
    return np.sort(np.clip(vals, lo, hi))


def per_node(method: "str | MedianMethod") -> Callable[..., float]:
    """The scalar form ``median(values, epsilon, lo, hi, rng=None, **kwargs)``
    of a registry method: its batch over one segment."""
    record = resolve_median_method(method) if isinstance(method, str) else method

    def median(values: np.ndarray, epsilon: float, lo: float, hi: float,
               rng: RngLike = None, **kwargs) -> float:
        vals = _prepare(values, lo, hi)
        return float(record.batch(vals, np.array([0, vals.size]), epsilon, lo, hi,
                                  rng=ensure_rng(rng), **kwargs)[0])

    median.__name__ = f"{record.name}_median"
    return median


#: The exact median (``epsilon`` and ``rng`` are ignored).
true_median = per_node("true")
#: The exponential mechanism (Definition 5).
exponential_mechanism_median = per_node("em")
#: Smooth-sensitivity Laplace noise (Definition 4), δ = 1e-4.
smooth_sensitivity_median = per_node("ss")
#: The cell heuristic of [26]; ``n_cells=`` sets the grid.
cell_median = per_node("cell")
#: The noisy-mean surrogate of [12].
noisy_mean_median = per_node("noisymean")


def make_sampled_median(base: str, sampling_rate: float) -> Callable[..., float]:
    """The scalar form of registry method ``base`` run on a Bernoulli sample."""
    return per_node(production.make_sampled_median(resolve_median_method(base),
                                                   sampling_rate))


def smooth_sensitivity_of_median(values: np.ndarray, epsilon: float, delta: float,
                                 lo: float, hi: float) -> float:
    """The ξ-smooth sensitivity of one node's median (Definition 4)."""
    if epsilon <= 0 or not 0 < delta < 1:
        raise ValueError("need epsilon > 0 and 0 < delta < 1")
    vals = _prepare(values, lo, hi)
    sigma = production._smooth_sensitivity_kernel(
        vals, np.array([0, vals.size], dtype=np.int64), np.array([vals.size], dtype=np.int64),
        np.full(1, float(epsilon)), np.full(1, float(lo)), np.full(1, float(hi)), delta)
    return float(sigma[0])


def median_from_noisy_cells(noisy_counts: np.ndarray, edges: np.ndarray) -> float:
    """Read a median off noisy per-cell counts, as the cell heuristic does.

    ``edges`` has one more entry than ``noisy_counts``.  Negative noisy counts
    are floored at zero, the half-mass cell is located on the cumulative
    distribution and the position is linearly interpolated inside it.
    """
    counts = np.clip(np.asarray(noisy_counts, dtype=float), 0.0, None)
    edges = np.asarray(edges, dtype=float)
    if edges.size != counts.size + 1:
        raise ValueError("edges must have exactly one more entry than counts")
    total = counts.sum()
    if total <= 0:
        return float((edges[0] + edges[-1]) / 2.0)
    cum = np.cumsum(counts)
    half = total / 2.0
    idx = int(np.searchsorted(cum, half))
    idx = min(idx, counts.size - 1)
    prev = cum[idx - 1] if idx > 0 else 0.0
    in_cell = counts[idx]
    frac = 0.5 if in_cell <= 0 else (half - prev) / in_cell
    frac = min(max(frac, 0.0), 1.0)
    return float(edges[idx] + frac * (edges[idx + 1] - edges[idx]))


def rank_error(values: np.ndarray, estimate: float, lo: float, hi: float) -> float:
    """Normalized rank error of a private median estimate (Figure 4a).

    The error is ``|rank(estimate) - n/2| / n`` expressed as a fraction in
    ``[0, 1]``; estimates falling outside the data range ``[x_1, x_n]`` are
    assigned the worst-case error of 1.0 ("100 % relative error"), as the
    paper specifies.  ``lo``/``hi`` bound the public domain and are used only
    to validate the estimate.
    """
    vals = np.sort(np.asarray(values, dtype=float).ravel())
    n = vals.size
    if n == 0:
        return 0.0
    estimate = float(estimate)
    if estimate < lo or estimate > hi:
        return 1.0
    if estimate < vals[0] or estimate > vals[-1]:
        return 1.0
    rank = float(np.searchsorted(vals, estimate, side="right"))
    return abs(rank - n / 2.0) / n


def fig4_rows(n_points: int, depth: int, epsilon_per_level: float, methods: Sequence[str],
              rng: RngLike = 0) -> List[Dict[str, object]]:
    """Figure 4's rows from one scalar median per node, level by level.

    Nodes of a depth are visited in BFS order (left child, the values
    ``<= split``, first); ``cell`` lays ``round(width / 2^10)`` cells (2 to
    ``2^16``) over each node's own domain.  ``time_sec`` is not measured.
    """
    gen = ensure_rng(rng)
    lo, hi = MEDIAN_STUDY_DOMAIN
    values = uniform_1d(n_points, lo=lo, hi=hi, rng=gen)
    rows: List[Dict[str, object]] = []
    for name in methods:
        median = per_node(name)
        nodes = [(values, lo, hi)]
        for level in range(depth):
            nodes = [(vals, a, b) for vals, a, b in nodes if vals.size >= MIN_NODE_SIZE and b > a]
            errors, children = [], []
            for vals, a, b in nodes:
                kwargs = {}
                if name == "cell":
                    kwargs["n_cells"] = min(max(2, int(round((b - a) / PAPER_CELL_WIDTH))), 1 << 16)
                split = median(vals, epsilon_per_level, a, b, rng=gen, **kwargs)
                errors.append(rank_error(vals, split, a, b))
                children += [(vals[vals <= split], a, split), (vals[vals > split], split, b)]
            rows.append({
                "method": name,
                "depth": level,
                "rank_error_pct": 100.0 * float(np.mean(errors)) if errors else float("nan"),
                "time_sec": 0.0,
                "nodes": len(errors),
            })
            nodes = children
    return rows
