"""Shared infrastructure for the figure-reproduction experiments.

Every experiment runner in this package follows the same pattern: generate (or
accept) a dataset, build one or more PSDs, evaluate them on fixed query
workloads, and return plain-Python rows that the benchmark harness prints as
the series behind the corresponding figure of the paper.

:class:`ExperimentScale` centralises the knobs that trade fidelity for running
time.  The defaults are deliberately smaller than the paper's setup (which
uses 1.63 M points and 600 queries per shape) so the whole benchmark suite
finishes in minutes; ``ExperimentScale.paper()`` restores the full-scale
parameters.

The sweep driver
----------------
The paper's evaluation is one shape repeated across Figures 3, 5 and 6: for
every grid point (a variant at a budget, a method at a height, ...) build
``repetitions`` fresh noisy releases and score each on fixed workloads.
:func:`run_sweep` is that loop made first class.  Each :class:`SweepCase`
builds its releases **as a batch** (see
:func:`repro.core.builder.build_psd_releases`); evaluation then takes the
fastest route available per batch:

* releases sharing one query structure (data-independent trees, unpruned) are
  scored through a single sparse query-to-node matrix per workload — one
  ``S @ counts`` product replaces one tree traversal per release;
* everything else (per-release geometry, pruned trees, Hilbert R-trees)
  compiles one flat engine per release -- planar for a Hilbert R-tree --
  and evaluates each workload as one vectorized batch.

Per-release workload errors come out as matrices and are reduced by the
matrix-form :func:`repro.queries.metrics.median_relative_error`; the driver
finally averages the per-release medians over each case's repetitions, which
is exactly the aggregation the per-release loops used to do.

Every case runs on its own child RNG stream (one ``SeedSequence.spawn`` per
case, in case order), which decouples the released bits from case execution
order — ``run_sweep(..., workers=N)`` fans cases across a process pool (see
:mod:`repro.parallel.sweep`) and is bitwise identical to ``workers=1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..data.tiger import road_intersections
from ..geometry.domain import TIGER_DOMAIN, Domain
from ..geometry.rect import Rect
from ..obs import counter_add, trace_span
from ..privacy.rng import RngLike, ensure_rng
from ..queries.metrics import median_relative_error
from ..queries.workload import QueryShape, QueryWorkload, generate_workload

__all__ = ["ExperimentScale", "SweepCase", "case_rows", "make_dataset",
           "make_workloads", "evaluate_tree", "evaluate_psd", "format_table",
           "release_workload_errors", "run_sweep"]


@dataclass(frozen=True)
class ExperimentScale:
    """Size parameters shared by the experiment runners.

    Attributes
    ----------
    n_points:
        Number of synthetic road-intersection points.
    n_queries:
        Number of queries per shape in each workload.
    repetitions:
        Number of independent noisy releases averaged per configuration.
    quad_height:
        Height of the quadtree experiments (the paper uses 10).
    kd_height:
        Height of the kd-tree experiments (the paper uses 8).
    """

    n_points: int = 60_000
    n_queries: int = 60
    repetitions: int = 1
    quad_height: int = 8
    kd_height: int = 6

    @staticmethod
    def paper() -> "ExperimentScale":
        """The paper's full-scale parameters (slow: minutes per figure)."""
        return ExperimentScale(n_points=1_630_000, n_queries=600, repetitions=1, quad_height=10, kd_height=8)

    @staticmethod
    def smoke() -> "ExperimentScale":
        """A tiny scale used by the integration tests."""
        return ExperimentScale(n_points=5_000, n_queries=12, repetitions=1, quad_height=5, kd_height=4)


def make_dataset(scale: ExperimentScale, rng: RngLike = 0) -> np.ndarray:
    """The TIGER-like dataset used by Figures 3, 5, 6 and 7(a)."""
    return road_intersections(n=scale.n_points, rng=ensure_rng(rng))


def make_workloads(
    points: np.ndarray,
    shapes: Sequence[QueryShape],
    scale: ExperimentScale,
    domain: Domain = TIGER_DOMAIN,
    rng: RngLike = 1,
) -> Dict[str, QueryWorkload]:
    """One workload per query shape, keyed by the shape label."""
    gen = ensure_rng(rng)
    return {
        shape.label: generate_workload(points, domain, shape, n_queries=scale.n_queries, rng=gen)
        for shape in shapes
    }


def evaluate_tree(
    answer_fn: Callable[[Rect], float],
    workloads: Dict[str, QueryWorkload],
) -> Dict[str, float]:
    """Median relative error of ``answer_fn`` on every workload, keyed by shape label."""
    out: Dict[str, float] = {}
    for label, workload in workloads.items():
        estimates = workload.evaluate(answer_fn)
        out[label] = median_relative_error(estimates, workload.true_answers)
    return out


def evaluate_psd(
    psd,
    workloads: Dict[str, QueryWorkload],
) -> Dict[str, float]:
    """Median relative error of a built PSD on every workload.

    Each workload is answered as one vectorized batch through the compiled
    engine — the natural fit for the many-build / many-query experiment loops.
    """
    from ..engine import batch_range_query

    engine = psd.compile()
    out: Dict[str, float] = {}
    for label, workload in workloads.items():
        estimates = np.asarray(batch_range_query(engine, workload.queries))
        out[label] = median_relative_error(estimates, workload.true_answers)
    return out


# ----------------------------------------------------------------------
# The sweep driver: many releases, sparse workload algebra end to end
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepCase:
    """One grid point of a sweep: a release builder plus per-release row keys.

    ``build(gen)`` returns a :class:`~repro.core.builder.PSDReleaseBatch`
    (every tree family builds one).  ``keys[r]``
    is the row-identifying dict of release ``r`` (e.g. ``{"epsilon": 0.5,
    "variant": "quad-opt"}``); releases sharing a key are that grid point's
    repetitions and their errors are averaged into one row.
    """

    label: str
    keys: Tuple[Mapping[str, object], ...]
    build: Callable[[np.random.Generator], object]


def _structure_fingerprint(engine) -> Tuple:
    """A content hash of everything a query decomposition depends on.

    Two engines with equal fingerprints decompose every query identically, so
    their query matrices are interchangeable — this is what lets a sweep over
    several *variants* of one data-independent structure (identical geometry,
    different budgets/noise) compile each workload matrix once.
    """
    import hashlib

    digest = hashlib.sha1()
    for array in (engine.lo, engine.hi, engine.child_start, engine.child_end,
                  engine.has_count, engine.is_leaf):
        digest.update(np.ascontiguousarray(array).tobytes())
    return (engine.n_nodes, digest.hexdigest())


def _workload_fingerprint(workload: QueryWorkload) -> Tuple:
    """A content hash of a workload's query rectangles.

    Part of the matrix-cache key, so two workloads that merely share a shape
    label (e.g. regenerated ``(5, 5)`` queries) can never alias each other's
    compiled matrices.
    """
    import hashlib

    coords = np.asarray([(*q.lo, *q.hi) for q in workload.queries], dtype=float)
    return (len(workload.queries), hashlib.sha1(coords.tobytes()).hexdigest())


def _case_fingerprint(case: "SweepCase", gen: np.random.Generator) -> str:
    """A content hash of one sweep case *as scheduled*: label, row keys, and
    the spawned RNG stream key (``SeedSequence`` entropy + spawn key).

    Two runs produce equal fingerprints exactly when the case would release
    the same bits — the same grid point built under the same stream — which
    is what lets a checkpoint journal prove a resumed case is interchangeable
    with the one the interrupted run computed.
    """
    import hashlib
    import json

    bitgen = gen.bit_generator
    seed_seq = getattr(bitgen, "seed_seq", None) or bitgen._seed_seq
    payload = {
        "label": case.label,
        "keys": [sorted((str(k), repr(v)) for k, v in key.items()) for key in case.keys],
        "entropy": repr(seed_seq.entropy),
        "spawn_key": list(seed_seq.spawn_key),
    }
    return hashlib.sha1(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _sweep_fingerprint(case_fingerprints: Sequence[str], workloads: Dict) -> str:
    """A content hash of the whole sweep: every case fingerprint plus every
    workload's query-content fingerprint.  The checkpoint header carries it,
    so a journal can never be replayed into a different sweep."""
    import hashlib

    digest = hashlib.sha1()
    digest.update(str(len(case_fingerprints)).encode())
    for fingerprint in case_fingerprints:
        digest.update(fingerprint.encode())
    for label in sorted(workloads):
        digest.update(label.encode())
        digest.update(repr(_workload_fingerprint(workloads[label])).encode())
    return digest.hexdigest()


def _validated_sweep_faults(faults, n_workers: int):
    """Normalise a ``faults=`` argument to FaultSpec objects, or refuse.

    Sweep faults exist to exercise the process-pool recovery paths, so they
    are rejected outright when the sweep would run in-process — a schedule
    that silently never fires is worse than an error.
    """
    if not faults:
        return None
    from ..serve.faults import SWEEP_FAULT_KINDS, FaultSpec, parse_fault, parse_faults

    if isinstance(faults, str):
        specs = parse_faults(faults)
    else:
        specs = [
            spec if isinstance(spec, FaultSpec) else parse_fault(spec) for spec in faults
        ]
    bad = sorted({spec.kind for spec in specs} - set(SWEEP_FAULT_KINDS))
    if bad:
        raise ValueError(
            f"fault kinds {bad} are not sweep faults (choose from {SWEEP_FAULT_KINDS})"
        )
    if n_workers <= 1:
        raise ValueError(
            "sweep fault injection requires workers > 1: the faults exercise "
            "the process-pool recovery paths, which an in-process sweep never takes"
        )
    return specs


def release_workload_errors(
    batch,
    workloads: Dict[str, QueryWorkload],
    matrix_cache: Optional[Dict] = None,
) -> Dict[str, np.ndarray]:
    """Median relative error of every release of ``batch`` (a
    :class:`~repro.core.builder.PSDReleaseBatch`) on every workload.

    Returns ``{shape label: (R,) per-release medians}``.  Batches whose
    releases share one query structure are evaluated through a single
    compiled query matrix per workload (``S @ counts`` for all releases at
    once); otherwise each release's flat engine answers each workload as one
    vectorized batch.  Pass a dict as ``matrix_cache`` to reuse compiled
    query matrices across calls; entries are keyed by (structure, queries)
    content fingerprints, so only batches that decompose the *same* queries
    over the *same* geometry share a matrix (e.g. the four quadtree variants
    of one sweep on its fixed workloads).
    """
    from ..engine.batch import batch_range_query, compile_query_matrix

    if batch.supports_shared_queries():
        engine = batch.query_engine()
        counts = batch.released_matrix()  # (n_nodes, R)
        fingerprint = None if matrix_cache is None else _structure_fingerprint(engine)
        out: Dict[str, np.ndarray] = {}
        for label, workload in workloads.items():
            if matrix_cache is None:
                matrix = compile_query_matrix(engine, workload.queries)
            else:
                key = (fingerprint, _workload_fingerprint(workload))
                matrix = matrix_cache.get(key)
                if matrix is None:
                    matrix = compile_query_matrix(engine, workload.queries)
                    matrix_cache[key] = matrix
            estimates = matrix.dot(counts)  # (Q, R)
            out[label] = np.atleast_1d(
                median_relative_error(estimates.T, workload.true_answers)
            )
        return out

    n = batch.n_releases
    out = {label: np.empty(n) for label in workloads}
    for r in range(n):
        engine = batch.release(r).compile()
        for label, workload in workloads.items():
            estimates = batch_range_query(engine, workload.queries)
            out[label][r] = median_relative_error(estimates, workload.true_answers)
    return out


def case_rows(
    case: SweepCase,
    gen: np.random.Generator,
    workloads: Dict[str, QueryWorkload],
    matrix_cache: Optional[Dict] = None,
) -> List[Dict[str, object]]:
    """Build one case's releases under ``gen`` and aggregate them into rows.

    The releases are built as one batch, scored on every workload, and the
    per-release median errors of releases sharing a row key are averaged.
    Rows carry the key's fields plus ``shape`` and ``median_rel_error_pct``.
    This is the per-case unit of work of :func:`run_sweep`, run verbatim in
    the parent and in pool workers — which is what makes ``workers=N``
    bitwise identical to ``workers=1``.
    """
    import os

    counter_add("sweep.cases", worker=os.getpid())
    with trace_span("sweep.build_case", case=case.label):
        batch = case.build(gen)
    if len(case.keys) != batch.n_releases:
        raise ValueError(
            f"case {case.label!r} declares {len(case.keys)} release keys but "
            f"built {batch.n_releases} releases"
        )
    counter_add("sweep.releases", batch.n_releases)
    with trace_span("sweep.evaluate_case", case=case.label):
        errors = release_workload_errors(batch, workloads, matrix_cache=matrix_cache)
    rows: List[Dict[str, object]] = []
    groups: Dict[Tuple, Tuple[Dict[str, object], List[int]]] = {}
    for r, key in enumerate(case.keys):
        frozen = tuple(sorted(key.items()))
        groups.setdefault(frozen, (dict(key), []))[1].append(r)
    for key_dict, indices in groups.values():
        for label, errs in errors.items():
            rows.append(
                {
                    **key_dict,
                    "shape": label,
                    "median_rel_error_pct": 100.0 * float(np.mean(errs[indices])),
                }
            )
    return rows


def run_sweep(
    cases: Sequence[SweepCase],
    workloads: Dict[str, QueryWorkload],
    rng: RngLike = None,
    workers: Optional[int] = None,
    *,
    checkpoint: Optional[str] = None,
    faults=None,
    case_timeout: Optional[float] = None,
) -> List[Dict[str, object]]:
    """Run every case of a sweep and aggregate repetitions into result rows.

    Every case gets its **own child RNG stream**, spawned off ``rng``'s seed
    sequence — one spawn per case, in case order (see
    :func:`repro.privacy.rng.spawn_generators`).  Because a case's stream no
    longer depends on what earlier cases drew, case execution order is
    irrelevant to the released bits: ``workers=N`` (cases fanned across a
    process pool, the inputs shipped once per pool start)
    is **bitwise identical** to ``workers=1`` (every case in this process)
    for every N.  Both run through the one case executor,
    :func:`repro.parallel.sweep.run_cases_parallel`, which also owns the
    checkpoint skip and the journal hook.

    .. note::
       The per-case spawn replaces the historical single generator threaded
       sequentially through all cases, so sweeps draw *different — equally
       distributed — realizations* than pre-parallel versions of this
       library for the same seed (the same kind of draw-order change as the
       PR 2–4 BFS/batching notes).  Within a version, rows are reproducible
       for any worker count.

    ``workers=None``/``0``/``1`` run in-process; negative means all cores.
    Rows carry each key's fields plus ``shape`` and ``median_rel_error_pct``
    — the exact schema of the historical per-release loops, so tables,
    benchmarks and JSON consumers are unaffected.

    Crash safety
    ------------
    ``checkpoint=path`` journals every completed case to an append-only,
    fsynced JSONL file (:class:`repro.parallel.checkpoint.SweepCheckpoint`,
    floats hex-encoded).  Re-running the same sweep with the same path
    replays the journaled cases and computes only the rest; because each
    replayed case was journaled bit-exact and each remaining case runs on
    its own spawned stream, the resumed sweep's rows are **bitwise
    identical** to an uninterrupted run's.  A journal from a *different*
    sweep (other seed, grid or workloads) refuses to resume with a named
    error.  ``faults=`` (sweep kinds of :mod:`repro.serve.faults`) and
    ``case_timeout=`` thread through to the fault-tolerant executor; faults
    require ``workers > 1``.
    """
    from ..parallel.sweep import resolve_workers, run_cases_parallel
    from ..privacy.rng import spawn_generators

    gen = ensure_rng(rng)
    case_gens = spawn_generators(gen, len(cases))
    n_workers = resolve_workers(workers)
    fault_specs = _validated_sweep_faults(faults, n_workers)

    ck = None
    if checkpoint is not None:
        from ..parallel.checkpoint import SweepCheckpoint

        fingerprints = [_case_fingerprint(c, g) for c, g in zip(cases, case_gens)]
        ck = SweepCheckpoint(
            checkpoint, _sweep_fingerprint(fingerprints, workloads), fingerprints
        )
        if ck.n_completed:
            counter_add("sweep.cases_resumed", ck.n_completed)
            with trace_span("sweep.resume", replayed=ck.n_completed, total=len(cases)):
                pass

    try:
        per_case = run_cases_parallel(
            cases,
            case_gens,
            workloads,
            n_workers,
            skip=() if ck is None else tuple(ck.completed),
            on_case_done=None if ck is None else ck.record,
            faults=fault_specs,
            case_timeout=case_timeout,
        )
        if ck is not None:
            replayed = ck.completed
            per_case = [replayed[i] if rows is None else rows for i, rows in enumerate(per_case)]
        return [row for rows in per_case for row in rows]
    finally:
        if ck is not None:
            ck.close()


def format_table(rows: Iterable[Dict[str, object]], columns: Sequence[str], title: str = "") -> str:
    """Render result rows as a fixed-width text table (used by the benchmarks)."""
    rows = list(rows)
    widths = {c: max(len(c), *(len(_fmt(r.get(c))) for r in rows)) if rows else len(c) for c in columns}
    lines: List[str] = []
    if title:
        lines.append(title)
    header = "  ".join(c.ljust(widths[c]) for c in columns)
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        lines.append("  ".join(_fmt(row.get(c)).ljust(widths[c]) for c in columns))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if abs(value) >= 1000 or (abs(value) < 0.001 and value != 0):
            return f"{value:.3e}"
        return f"{value:.4f}"
    return str(value)
