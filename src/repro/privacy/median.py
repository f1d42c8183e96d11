"""Private median selection (Section 6.1 of the paper).

A data-dependent PSD (kd-tree, Hilbert R-tree) splits every internal node at
the median of the points it contains along some axis.  Releasing that median
exactly would leak information, and the global sensitivity of the median is of
the order of the whole domain, so plain Laplace noise is useless.  The paper
surveys four practical alternatives, each registered here as one
:class:`MedianMethod` record under the label Figure 4 uses:

* ``em`` — the exponential mechanism (Definition 5): an output is drawn with
  probability proportional to ``exp(-eps/2 * |rank(x) - rank(median)|)``,
  exactly, with the interval decomposition the paper describes;
* ``ss`` — Laplace noise calibrated to the smooth sensitivity of the median
  (Definition 4); (ε, δ)-DP with the paper's ``δ = 1e-4``;
* ``cell`` — the heuristic of [26]: noisy counts on a fixed grid, median read
  off the noisy cumulative distribution;
* ``noisymean`` — the heuristic of [12]: a noisy mean (noisy sum / noisy
  count) used as a surrogate for the median;

plus the non-private exact median ``true`` ("kd-true" in Section 8.2) and the
1 %-sampled variants ``ems`` / ``sss`` built by :func:`make_sampled_median`
(Theorem 7).

All methods clamp their output to the public domain ``[lo, hi]`` — a value
outside the domain could never be a useful split and the clamp is a
post-processing step, so it costs nothing in privacy.

The record and the draw-order contract
--------------------------------------
A record holds the method's **ragged-batch** form ``batch(sorted_values,
offsets, epsilons, los, his, rng, *, uniforms=None, validate=True)``, which
evaluates one private median per segment — segment ``i`` holds
``sorted_values[offsets[i]:offsets[i+1]]`` with domain ``[los[i], his[i]]``
and budget ``epsilons[i]`` — and its fixed draw layout.  The level-vectorized
tree builders call it once per level and stage; a single median is a batch of
one segment.  Callers name a method by its registry label and
:func:`resolve_median_method` returns the record.

A batch is **bitwise identical** to one call per segment in segment order
(the same contract the Laplace count batching in :mod:`repro.core.flatbuild`
meets), which requires a fixed draw layout:

* every method consumes a *fixed* number of ``Generator.random()`` uniforms
  per segment — ``draws_per_call``: ``em`` 2, ``ss`` 1, ``noisymean`` 2,
  ``cell`` ``n_cells``, ``true`` 0 — independent of the data it sees (unused
  draws are simply discarded, which is distribution- and privacy-neutral);
  the exact median is the one record that draws nothing;
* a Bernoulli-sampled variant additionally consumes one uniform per candidate
  value (``draws_per_value`` 1), *after* sorting, so the sampled subset does
  not depend on the caller's point order;
* Laplace noise inside the methods is derived from those uniforms via
  :func:`repro.privacy.mechanisms.laplace_from_uniform` rather than drawn
  with ``Generator.laplace``, so every draw is a plain uniform;
* a batch over ``k`` segments consumes its uniforms **node-major in segment
  (BFS) order**: segment 0's draws first, then segment 1's, and so on.

``uniforms=`` hands a batch the block a caller pre-drew for a whole level
(see :meth:`repro.core.splits.KDSplit.split_level`).  A record's ``delta`` is
the δ one call spends (non-zero only for the smooth-sensitivity methods); the
release accountant charges it per median on a root-to-leaf path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

import numpy as np

from .mechanisms import laplace_from_uniform
from .rng import RngLike, ensure_rng

__all__ = [
    "MedianMethod",
    "true_median_batch",
    "exponential_mechanism_median_batch",
    "smooth_sensitivity_median_batch",
    "cell_median_batch",
    "noisy_mean_median_batch",
    "make_sampled_median",
    "MEDIAN_METHODS",
    "resolve_median_method",
]

#: δ of one smooth-sensitivity median: the paper's experimental setting.
SS_DELTA = 1e-4


@dataclass(frozen=True)
class MedianMethod:
    """One private-median mechanism: its batch form and fixed draw layout.

    ``draws_per_call`` uniforms per segment plus ``draws_per_value`` per
    value, node-major (see the module docstring); ``delta`` is the δ of one
    call.
    """

    name: str
    batch: Callable[..., np.ndarray]
    draws_per_call: int
    draws_per_value: int = 0
    delta: float = 0.0


def _clamp_array(values: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    return np.minimum(np.maximum(values, lo), hi)


# ----------------------------------------------------------------------
# Ragged-segment plumbing
# ----------------------------------------------------------------------
def _per_segment(x, k: int, name: str) -> np.ndarray:
    """Broadcast a scalar to ``(k,)`` or validate an existing ``(k,)`` array."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        return np.full(k, float(arr))
    arr = arr.ravel()
    if arr.shape != (k,):
        raise ValueError(f"{name} must be a scalar or have one entry per segment ({k})")
    return arr


def _prepare_batch(sorted_values, offsets, los, his, validate: bool = True):
    """Validate a ragged batch: ``(values, offsets, counts, los, his, k)``.

    Values must be sorted within each segment (the clip preserves that) and
    lie inside their segment's domain up to a 1e-9 slack.  ``validate=False``
    skips the domain / sortedness sweeps and the (then identity) clip — for
    callers like the level-vectorized builders whose routing already
    guarantees both.
    """
    vals = np.asarray(sorted_values, dtype=float).ravel()
    offs = np.asarray(offsets, dtype=np.int64).ravel()
    if offs.size < 2 or offs[0] != 0 or offs[-1] != vals.size or np.any(np.diff(offs) < 0):
        raise ValueError("offsets must be non-decreasing, start at 0 and end at len(values)")
    k = offs.size - 1
    lo = _per_segment(los, k, "los")
    hi = _per_segment(his, k, "his")
    if np.any(hi < lo):
        raise ValueError("invalid domain: hi < lo in some segment")
    counts = np.diff(offs)
    if validate and vals.size:
        seg = np.repeat(np.arange(k, dtype=np.int64), counts)
        lo_v, hi_v = lo[seg], hi[seg]
        if np.any(vals < lo_v - 1e-9) or np.any(vals > hi_v + 1e-9):
            raise ValueError("values fall outside the declared domain [lo, hi]")
        if vals.size > 1:
            diffs = np.diff(vals)
            within = np.ones(vals.size - 1, dtype=bool)
            boundary = offs[1:-1]  # pairs straddling a segment boundary
            boundary = boundary[(boundary > 0) & (boundary < vals.size)]
            within[boundary - 1] = False
            if np.any(diffs[within] < 0):
                raise ValueError("values must be sorted within each segment")
        vals = np.clip(vals, lo_v, hi_v)
    return vals, offs, counts, lo, hi, k


def _check_epsilons(epsilons, k: int) -> np.ndarray:
    eps = _per_segment(epsilons, k, "epsilons")
    if np.any(eps <= 0):
        raise ValueError("epsilon must be positive")
    return eps


def _draw_uniforms(uniforms, rng: RngLike, k: int, per_call: int) -> np.ndarray:
    """The ``(k, per_call)`` uniform block of a batch, drawn node-major.

    Pre-drawn uniforms (from a caller that manages a whole level's stream, see
    :meth:`repro.core.splits.KDSplit.split_level`) are validated and reshaped;
    otherwise one ``Generator.random`` call produces the identical stream a
    loop of one-segment calls would consume.
    """
    if uniforms is None:
        return ensure_rng(rng).random(k * per_call).reshape(k, per_call)
    u = np.asarray(uniforms, dtype=float).reshape(k, per_call)
    return u


def _segment_reduce(ufunc, flat: np.ndarray, offsets: np.ndarray, empty):
    """Per-segment ``ufunc.reduce``; ``empty`` fills zero-length segments.

    Using ``reduceat`` on the nonempty starts keeps the accumulation order of
    each segment independent of how the surrounding batch is segmented, which
    is what makes a batch of one bitwise-equal to a segment of many.
    """
    counts = np.diff(offsets)
    out = np.full(counts.shape[0], empty, dtype=flat.dtype)
    nz = counts > 0
    if flat.size and np.any(nz):
        out[nz] = ufunc.reduceat(flat, offsets[:-1][nz])
    return out


def _segment_cumsum(flat: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-segment cumulative sum, bitwise equal to ``np.cumsum`` per segment.

    Segments are bucketed by power-of-two length class, so a class's
    zero-padded rows hold less than twice its values.  A class's values are
    gathered by an index sized to the class, laid into its rows with one
    boolean-mask assignment, accumulated left to right by one row-wise
    ``cumsum``, as the 1-D form does, and scattered back.  Every pass over
    values is sized to its class, so they cost O(n) however many classes a
    call spans: siblings' counts differ widely once private splits leave the
    median, and a deep kd level spans a dozen classes.
    """
    flat = np.asarray(flat, dtype=float)
    counts = np.diff(offsets)
    classes = np.frexp(counts.astype(float))[1]  # floor(log2 n) + 1; 0 when empty
    out = np.empty(flat.size)
    for c in np.unique(classes[counts > 0]):
        pick = np.flatnonzero(classes == c)
        sizes = counts[pick]
        # the class's flat positions, segment after segment
        idx = (np.repeat(offsets[pick] - (np.cumsum(sizes) - sizes), sizes)
               + np.arange(int(sizes.sum())))
        valid = np.arange(int(sizes.max())) < sizes[:, None]
        rows = np.zeros(valid.shape)
        rows[valid] = flat[idx]
        out[idx] = np.cumsum(rows, axis=1, out=rows)[valid]
    return out


def _safe_values(vals: np.ndarray):
    """A gather-safe view: empty input becomes a one-zero array (always masked)."""
    return vals if vals.size else np.zeros(1), max(vals.size - 1, 0)


# ----------------------------------------------------------------------
# Baseline
# ----------------------------------------------------------------------
def true_median_batch(sorted_values, offsets, epsilons=0.0, los=0.0, his=1.0,
                      rng: RngLike = None, *, validate: bool = True) -> np.ndarray:
    """Exact (non-private) medians of every segment; consumes no randomness.

    ``epsilons`` and ``rng`` are accepted and ignored, so the exact median
    has the signature of the private methods.  An empty segment returns its
    domain midpoint.
    """
    vals, offs, counts, lo, hi, k = _prepare_batch(sorted_values, offsets, los, his,
                                                   validate=validate)
    safe, guard = _safe_values(vals)
    lo_idx = np.minimum(offs[:-1] + np.maximum(counts - 1, 0) // 2, guard)
    hi_idx = np.minimum(offs[:-1] + counts // 2, guard)
    med = (safe[lo_idx] + safe[hi_idx]) / 2.0  # odd n: (x + x) / 2 == x exactly
    res = np.where(counts > 0, med, (lo + hi) / 2.0)
    return _clamp_array(res, lo, hi)


# ----------------------------------------------------------------------
# Exponential mechanism (Definition 5)
# ----------------------------------------------------------------------
def exponential_mechanism_median_batch(
    sorted_values, offsets, epsilons, los, his,
    rng: RngLike = None, *, uniforms=None, validate: bool = True,
) -> np.ndarray:
    """Batched EM medians: one interval decomposition sweep over all segments.

    The output ``x`` is drawn with probability proportional to
    ``exp(-eps/2 * |rank(x) - rank(x_m)|)``.  All values between two
    consecutive data points share a rank, so the interval ``I_t`` between
    them is picked with probability proportional to
    ``|I_t| * exp(-eps/2 * |t - m|)`` and the output is uniform inside it,
    exactly as described after Definition 5.  Consumes two uniforms per
    segment, node-major: the first selects the interval (by inverting the
    normalized weight CDF, the same inversion ``Generator.choice`` performs),
    the second places the output inside it.

    All segments' intervals lie in one flat array, segment by segment: two
    ``np.insert`` calls give their left and right bounds, per-segment
    constants are repeated across a segment's intervals, and the weight CDF
    is :func:`_segment_cumsum`, so every segment's arithmetic is that of a
    batch of one.  Zero-width domains are fixed up only when one occurs.
    """
    vals, offs, counts, lo, hi, k = _prepare_batch(sorted_values, offsets, los, his,
                                                   validate=validate)
    eps = _check_epsilons(epsilons, k)
    u = _draw_uniforms(uniforms, rng, k, 2)

    # Segment i contributes n_i + 1 intervals I_0..I_n delimited by
    # lo, x_1, ..., x_n, hi; a value in I_t has rank t.  I_t sits at flat
    # position iv_off[i] + t, and per-segment constants are repeated n_i + 1
    # times to line up with it.
    iv_counts = counts + 1
    iv_off = offs + np.arange(k + 1, dtype=np.int64)
    iv_start = iv_off[:-1]
    left = np.insert(vals, offs[:-1], lo)
    right = np.insert(vals, offs[1:], hi)
    lengths = right - left

    # |t - n/2| as |flat position - (iv_start + n/2)|: integers and
    # half-integers far below 2**53, so both differences are exact.
    log_w = np.abs(np.arange(left.size) - np.repeat(iv_start + counts / 2.0, iv_counts))
    log_w *= np.repeat(-(eps / 2.0), iv_counts)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_w += np.log(lengths)
    log_w[~(lengths > 0)] = -np.inf
    seg_max = np.maximum.reduceat(log_w, iv_start)  # every segment has an interval
    degenerate = ~np.isfinite(seg_max)  # zero-width domain: only one possible output
    any_degenerate = bool(degenerate.any())
    if any_degenerate:  # weight 1 everywhere; the output is fixed below
        seg_max[degenerate] = 0.0
        log_w[np.repeat(degenerate, iv_counts)] = 0.0
    log_w -= np.repeat(seg_max, iv_counts)
    weights = np.exp(log_w, out=log_w)

    cdf = _segment_cumsum(weights, iv_off)
    cdf /= np.repeat(cdf[iv_start + counts], iv_counts)
    below = cdf <= np.repeat(u[:, 0], iv_counts)
    chosen = np.minimum(np.add.reduceat(below, iv_start, dtype=np.int64), counts)

    pos = iv_start + chosen
    l_sel, r_sel = left[pos], right[pos]
    width = r_sel - l_sel
    res = np.where(width > 0, l_sel + width * u[:, 1], l_sel)
    if any_degenerate:  # x_{n//2} (right[iv_start + t] is x_{t+1} for t < n), or lo
        res = np.where(degenerate, np.where(counts > 0, right[iv_start + counts // 2], lo), res)
    return _clamp_array(res, lo, hi)


# ----------------------------------------------------------------------
# Smooth sensitivity (Definition 4)
# ----------------------------------------------------------------------
def _smooth_sensitivity_kernel(vals, offs, counts, eps, lo, hi, delta) -> np.ndarray:
    """ξ-smooth sensitivities of every segment's median, one shared k-scan.

    ``sigma_s`` is the maximum over ``k`` of ``exp(-k * xi) * max_t
    (x_{m+t} - x_{m+t-k-1})`` with ``xi = eps / (4 * (1 + ln(2/delta)))`` and
    values outside ``[1, n]`` padded with ``lo`` / ``hi``.  The loop runs over
    the scan variable ``k`` only — all segments still in play are processed
    per iteration with one window gather — and a segment drops out once
    ``exp(-k * xi) * (hi - lo)`` can no longer beat its best (every remaining
    term is then dominated), so the result is exact.
    """
    n_segs = counts.shape[0]
    domain = hi - lo
    xi = eps / (4.0 * (1.0 + np.log(2.0 / delta)))
    best = np.zeros(n_segs)
    active = counts > 0
    safe, guard = _safe_values(vals)
    starts = offs[:-1]

    step = 0
    while True:
        decay = np.exp(-step * xi)
        active = active & (step <= counts) & (decay * domain > best)
        if not np.any(active):
            break
        idx = np.flatnonzero(active)
        n_a = counts[idx][:, None]
        off_a = starts[idx][:, None]
        med = ((counts[idx] - 1) // 2)[:, None]
        tgrid = np.arange(step + 2, dtype=np.int64)[None, :]
        uidx = med + tgrid
        lidx = uidx - (step + 1)
        upper = np.where(uidx >= n_a, hi[idx][:, None],
                         safe[np.minimum(off_a + np.minimum(uidx, n_a - 1), guard)])
        lower = np.where(lidx < 0, lo[idx][:, None],
                         safe[np.minimum(off_a + np.maximum(lidx, 0), guard)])
        local = np.max(upper - lower, axis=1)
        best[idx] = np.maximum(best[idx], decay[idx] * local)
        step += 1

    return np.where(counts > 0, best, domain)


def smooth_sensitivity_median_batch(
    sorted_values, offsets, epsilons, los, his,
    rng: RngLike = None, *, uniforms=None, validate: bool = True,
) -> np.ndarray:
    """Batched SS medians ``x_m + (2*sigma_s/eps) * Lap(1)``; one uniform per segment.

    (ε, δ)-DP with ``δ = SS_DELTA``.  Empty segments return the (clamped)
    domain midpoint; their uniform is discarded so the draw layout stays data
    independent.  A noise scale that overflows returns nan, never a clamped
    domain edge, so the builder refuses the budget.
    """
    vals, offs, counts, lo, hi, k = _prepare_batch(sorted_values, offsets, los, his,
                                                   validate=validate)
    eps = _check_epsilons(epsilons, k)
    u = _draw_uniforms(uniforms, rng, k, 1)
    sigma = _smooth_sensitivity_kernel(vals, offs, counts, eps, lo, hi, SS_DELTA)
    safe, guard = _safe_values(vals)
    med = safe[np.minimum(offs[:-1] + np.maximum(counts - 1, 0) // 2, guard)]
    noise = laplace_from_uniform(u[:, 0])
    res = np.where(counts > 0, med + (2.0 * sigma / eps) * noise, (lo + hi) / 2.0)
    return np.where(np.isfinite(res), _clamp_array(res, lo, hi), np.nan)


# ----------------------------------------------------------------------
# Cell-based heuristic [26]
# ----------------------------------------------------------------------
def cell_median_batch(
    sorted_values, offsets, epsilons, los, his,
    rng: RngLike = None, *, uniforms=None, validate: bool = True, n_cells: int = 1024,
) -> np.ndarray:
    """Batched cell-heuristic medians; ``n_cells`` uniforms per segment.

    Every segment lays an ``n_cells`` grid of equal cells over its own
    domain and adds Laplace noise of parameter ``epsilon`` to every cell
    count (the cells are disjoint, so this is a single ``epsilon`` charge).
    Negative noisy counts are floored at zero, the half-mass cell is located
    on the cumulative counts and the median is interpolated inside it.  One
    ``bincount`` histograms all segments at once and the inversion runs as
    rectangular row operations.  Zero-width domains return ``lo`` (their
    noise draws are discarded, keeping the layout data independent).
    """
    if n_cells < 1:
        raise ValueError("n_cells must be at least 1")
    vals, offs, counts, lo, hi, k = _prepare_batch(sorted_values, offsets, los, his,
                                                   validate=validate)
    eps = _check_epsilons(epsilons, k)
    u = _draw_uniforms(uniforms, rng, k, n_cells)

    step = (hi - lo) / n_cells
    edges = lo[:, None] + np.arange(n_cells + 1) * step[:, None]
    edges[:, -1] = hi
    degenerate = hi <= lo

    if vals.size:
        seg = np.repeat(np.arange(k, dtype=np.int64), counts)
        safe_step = np.where(step[seg] > 0, step[seg], 1.0)
        b = np.floor((vals - lo[seg]) / safe_step).astype(np.int64)
        b = np.clip(b, 0, n_cells - 1)
        # The formula can be one ulp off the actual edge comparison; nudge
        # until edges[b] <= v < edges[b+1] (last cell closed), as a
        # searchsorted against the edge values would decide.
        for _ in range(2):
            b = np.where((b > 0) & (vals < edges[seg, b]), b - 1, b)
        for _ in range(2):
            b = np.where((b < n_cells - 1) & (vals >= edges[seg, b + 1]), b + 1, b)
        hist = np.bincount(seg * n_cells + b, minlength=k * n_cells).astype(float)
        hist = hist.reshape(k, n_cells)
    else:
        hist = np.zeros((k, n_cells))

    noisy = hist + (1.0 / eps)[:, None] * laplace_from_uniform(u)
    clipped = np.clip(noisy, 0.0, None)
    cum = np.cumsum(clipped, axis=1)
    total = cum[:, -1]
    half = total / 2.0
    rows = np.arange(k)
    idx = np.minimum(np.sum(cum < half[:, None], axis=1), n_cells - 1)
    prev = np.where(idx > 0, cum[rows, np.maximum(idx - 1, 0)], 0.0)
    in_cell = clipped[rows, idx]
    frac = np.where(in_cell > 0, (half - prev) / np.where(in_cell > 0, in_cell, 1.0), 0.5)
    frac = np.clip(frac, 0.0, 1.0)
    res = edges[rows, idx] + frac * (edges[rows, idx + 1] - edges[rows, idx])
    res = np.where(total <= 0, (edges[:, 0] + edges[:, -1]) / 2.0, res)
    res = _clamp_array(res, lo, hi)
    return np.where(degenerate, lo, res)


# ----------------------------------------------------------------------
# Noisy-mean heuristic [12]
# ----------------------------------------------------------------------
def noisy_mean_median_batch(
    sorted_values, offsets, epsilons, los, his,
    rng: RngLike = None, *, uniforms=None, validate: bool = True,
) -> np.ndarray:
    """Batched noisy-mean surrogates; two uniforms per segment (sum, count).

    Half the budget goes to a noisy sum (sensitivity ``max(|lo|, |hi|)``),
    half to a noisy count (sensitivity 1); the released value is their ratio,
    clamped to the domain.  As the paper notes there is no guarantee this is
    close to the median, which is exactly the weakness Figure 4(a) exhibits.
    """
    vals, offs, counts, lo, hi, k = _prepare_batch(sorted_values, offsets, los, his,
                                                   validate=validate)
    eps = _check_epsilons(epsilons, k)
    u = _draw_uniforms(uniforms, rng, k, 2)
    eps_half = eps / 2.0
    sum_scale = np.maximum(np.abs(lo), np.abs(hi)) / eps_half  # sum_sensitivity(lo, hi)
    count_scale = 1.0 / eps_half
    sums = _segment_reduce(np.add, vals, offs, 0.0)
    noisy_sum = sums + sum_scale * laplace_from_uniform(u[:, 0])
    noisy_count = np.maximum(counts + count_scale * laplace_from_uniform(u[:, 1]), 1.0)
    return _clamp_array(noisy_sum / noisy_count, lo, hi)


# ----------------------------------------------------------------------
# Sampling (Theorem 7)
# ----------------------------------------------------------------------
def _tight_base_epsilon_array(epsilons: np.ndarray, rate: float, cap: float = 5.0) -> np.ndarray:
    """Per-run ε under the *tight* amplification bound, ``ln(1 + (e^ε - 1) / p)``.

    Running an ε'-DP algorithm on a Bernoulli ``p``-sample is
    ``ln(1 + p (e^{ε'} - 1))``-DP, which Theorem 7's ``2 p e^{ε'}`` loosely
    upper-bounds.  Inverting the tight form gives a usable per-run budget
    even when the target is below ``2p`` (where the loose form has no
    solution).  The inversion can round a few ulps high, so the result steps
    down until it amplifies back to at most the target.  It is then floored at
    the target (running at the target on a sample is only more private) and
    capped at ``cap``.
    """
    run = np.log1p(np.expm1(epsilons) / rate)
    over = np.log1p(rate * np.expm1(run)) > epsilons
    while np.any(over):
        run = np.where(over, np.nextafter(run, 0.0), run)
        over = np.log1p(rate * np.expm1(run)) > epsilons
    return np.minimum(np.maximum(run, epsilons), cap)


def make_sampled_median(base: MedianMethod, sampling_rate: float) -> MedianMethod:
    """The record of ``base`` run on a Bernoulli sample of each segment.

    Sampling amplifies privacy (Section 7 / Theorem 7), so the sampled method
    runs ``base`` at the per-run budget ``eps' = ln(1 + (e^eps - 1) / p)``
    (see :func:`_tight_base_epsilon_array`) and still delivers the requested
    guarantee; this reproduces the paper's Figure 4 setting where a 0.01
    per-level budget with 1 % sampling becomes a per-run budget roughly
    50-70x larger.  Its δ is ``p`` times the base's.

    Draw contract: the sampled batch takes the sorted (and clipped) values,
    consumes **one uniform per value** for the Bernoulli mask, then hands the
    stream to ``base`` — so the sampled subset is independent of the caller's
    point order and a batch over many segments can slice one flat uniform
    vector node-major.  Pre-drawn ``uniforms`` are the pair ``(mask, base)``.
    """
    if not 0 < sampling_rate <= 1:
        raise ValueError("sampling_rate must lie in (0, 1]")
    d = base.draws_per_call

    def sampled_batch(sorted_values, offsets, epsilons, los, his,
                      rng: RngLike = None, *, uniforms=None, validate: bool = True) -> np.ndarray:
        vals, offs, counts, lo, hi, k = _prepare_batch(sorted_values, offsets, los, his,
                                                       validate=validate)
        seg = np.repeat(np.arange(k, dtype=np.int64), counts)
        eps = _check_epsilons(epsilons, k)
        if uniforms is None:
            u = ensure_rng(rng).random(int(vals.size + d * k))
            # node-major layout: [mask(n_i), base(d)] per segment; the r-th
            # value of segment i (global index j) sits at j + d*i.
            mask_u = u[np.arange(vals.size) + d * seg] if vals.size else np.empty(0)
            base_u = u[offs[1:, None] + d * np.arange(k)[:, None] + np.arange(d)[None, :]]
        else:
            mask_u, base_u = uniforms
            mask_u = np.asarray(mask_u, dtype=float).ravel()
        keep = mask_u < sampling_rate
        new_counts = (np.bincount(seg[keep], minlength=k).astype(np.int64)
                      if vals.size else np.zeros(k, dtype=np.int64))
        new_offsets = np.concatenate(([0], np.cumsum(new_counts)))
        # The sampled subset of a validated batch is itself valid.
        return base.batch(vals[keep], new_offsets, _tight_base_epsilon_array(eps, sampling_rate),
                          lo, hi, uniforms=base_u, validate=False)

    return MedianMethod(name=f"{base.name}s", batch=sampled_batch, draws_per_call=d,
                        draws_per_value=1, delta=sampling_rate * base.delta)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_EM = MedianMethod("em", exponential_mechanism_median_batch, draws_per_call=2)
_SS = MedianMethod("ss", smooth_sensitivity_median_batch, draws_per_call=1, delta=SS_DELTA)

#: The paper's median methods keyed by the labels used in Figure 4.
MEDIAN_METHODS: Dict[str, MedianMethod] = {
    "true": MedianMethod("true", true_median_batch, draws_per_call=0),
    "em": _EM,
    "ss": _SS,
    "cell": MedianMethod("cell", cell_median_batch, draws_per_call=1024),  # the default n_cells
    "noisymean": MedianMethod("noisymean", noisy_mean_median_batch, draws_per_call=2),
    "ems": make_sampled_median(_EM, sampling_rate=0.01),
    "sss": make_sampled_median(_SS, sampling_rate=0.01),
}


def resolve_median_method(name: str) -> MedianMethod:
    """The registry record of a median method, by its (case-insensitive) label.

    Split rules hold the label, so they pickle; anything but a label is
    refused, since the level split needs a record's batch form and draw
    layout.
    """
    if not isinstance(name, str):
        raise ValueError(f"median method {name!r} has no batch form: name one of "
                         f"{sorted(MEDIAN_METHODS)}")
    key = name.lower()
    if key not in MEDIAN_METHODS:
        raise KeyError(f"unknown median method {name!r}; available: {sorted(MEDIAN_METHODS)}")
    return MEDIAN_METHODS[key]
