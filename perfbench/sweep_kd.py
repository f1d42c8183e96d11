"""The sweep-kd workload, run in its own process: Figure-5 sweeps through ``run_sweep``.

Usage: ``python3 perfbench/sweep_kd.py POINTS.npy SEED SECONDS REPETITIONS WORKDIR TRACE OUT.json``

Set-up (``make_workloads`` with exact true answers, then case construction)
runs three times and each is timed.  Then whole sweeps run back to back, each
with ``workers=2`` and a fresh checkpoint journal, while another sweep still
fits in ``SECONDS``.  Finally a second ``run_sweep`` on the last finished
checkpoint must rebuild nothing and return identical rows.  Everything
measured lands in ``OUT.json``; with ``TRACE`` 1 the spans go to
``WORKDIR/spans``.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time

import numpy as np

from spans import SpanLog, TimedBuild
from stats import rows_digest

WORKERS = 2
HEIGHT = 6
PRUNE = 32.0
EPSILONS = (0.1, 0.5, 1.0)
QUERIES_PER_SHAPE = 60
SETUPS = 3


class _NoRebuild:
    """A build that must never run: the replayed sweep recomputes nothing."""

    def __call__(self, gen):
        raise RuntimeError("a sweep resumed from a finished checkpoint rebuilt a case")


def make_cases(points, repetitions, wrap=None):
    from repro.core.kdtree import KDTREE_VARIANTS
    from repro.experiments.common import SweepCase
    from repro.experiments.fig5 import KDTreeSweepBuild
    from repro.geometry import TIGER_DOMAIN

    cases = []
    for variant in KDTREE_VARIANTS:
        keys = tuple({"epsilon": e, "variant": variant} for e in EPSILONS for _ in range(repetitions))
        build = KDTreeSweepBuild(points=points, domain=TIGER_DOMAIN, height=HEIGHT,
                                 epsilons=EPSILONS, repetitions=repetitions, variant=variant,
                                 prune_threshold=PRUNE)
        cases.append(SweepCase(label=variant, keys=keys,
                               build=build if wrap is None else wrap(build, variant)))
    return cases


def main(argv) -> int:
    points_path, seed, seconds, repetitions, workdir, trace, out = argv
    seed, seconds, repetitions, traced = int(seed), float(seconds), int(repetitions), trace == "1"
    from repro.experiments.common import ExperimentScale, SweepCase, make_workloads, run_sweep
    from repro.geometry import TIGER_DOMAIN
    from repro.parallel.checkpoint import SweepCheckpoint
    from repro.queries.workload import KD_QUERY_SHAPES

    points = np.load(points_path)
    scale = ExperimentScale(n_points=len(points), n_queries=QUERIES_PER_SHAPE,
                            repetitions=repetitions, kd_height=HEIGHT)
    setup_s, workload_s = [], []
    for _ in range(SETUPS):
        t0 = time.monotonic()
        workloads = make_workloads(points, KD_QUERY_SHAPES, scale, domain=TIGER_DOMAIN,
                                   rng=np.random.default_rng([seed, 1]))
        t1 = time.monotonic()
        cases = make_cases(points, repetitions)
        setup_s.append(time.monotonic() - t0)
        workload_s.append(t1 - t0)

    log = SpanLog()
    span_dir = os.path.join(workdir, "spans")
    os.makedirs(span_dir, exist_ok=True)
    labels = [case.label for case in cases]
    current = {"root": None}
    if traced:
        record = SweepCheckpoint.record

        def timed_record(self, case_index, rows):
            start = time.monotonic()
            try:
                return record(self, case_index, rows)
            finally:
                log.add("parallel.checkpoint.record", start, time.monotonic(),
                        parent=current["root"], key=labels[int(case_index)])

        SweepCheckpoint.record = timed_record

    sweep_rng = [seed, 2]
    sweeps, digests, errors = [], [], []
    attempted = failed = 0
    rows = finished = None
    started = time.monotonic()
    while True:
        checkpoint = os.path.join(workdir, f"sweep-{len(sweeps)}.ckpt.jsonl")
        root = log.new_id()
        current["root"] = root
        run_cases = cases
        if traced:
            run_cases = make_cases(points, repetitions,
                                   wrap=lambda b, v: TimedBuild(b, v, root, span_dir))
        attempted += len(run_cases)
        t0 = time.monotonic()
        try:
            rows = run_sweep(run_cases, workloads, rng=np.random.default_rng(sweep_rng),
                             workers=WORKERS, checkpoint=checkpoint)
        except Exception as exc:  # a failed case fails its sweep; report it, stop sweeping
            failed += len(run_cases)
            errors.append(f"run_sweep raised {exc!r}")
            break
        t1 = time.monotonic()
        finished = checkpoint
        log.add("sweep.run", t0, t1, key=str(len(sweeps)), span_id=root)
        sweeps.append({"wall_s": t1 - t0, "journal_bytes": os.path.getsize(checkpoint)})
        digests.append(rows_digest(rows))
        elapsed = time.monotonic() - started
        if elapsed + statistics.median(s["wall_s"] for s in sweeps) > seconds:
            break

    if len(set(digests)) > 1:
        errors.append(f"sweeps with one seed returned different rows: {sorted(set(digests))}")
    replay_s = 0.0
    if finished is not None:
        replay_cases = [SweepCase(label=c.label, keys=c.keys, build=_NoRebuild()) for c in cases]
        t0 = time.monotonic()
        try:
            replayed = run_sweep(replay_cases, workloads, rng=np.random.default_rng(sweep_rng),
                                 workers=WORKERS, checkpoint=finished)
        except Exception as exc:
            errors.append(f"resuming the finished checkpoint failed: {exc!r}")
        else:
            replay_s = time.monotonic() - t0
            if replayed != rows:
                errors.append("the resumed sweep returned rows that differ from the original")
        bad = [r for r in rows if not np.isfinite(r["median_rel_error_pct"])]
        expected = len(cases) * len(EPSILONS) * len(KD_QUERY_SHAPES)
        if len(rows) != expected or bad:
            errors.append(f"expected {expected} finite rows, got {len(rows)} with {len(bad)} "
                          "non-finite errors")

    log.dump(os.path.join(span_dir, "parent.jsonl"))
    result = {
        "setup_s": setup_s,
        "workload_s": workload_s,
        "sweeps": sweeps,
        "digest": digests[0] if digests else None,
        "rows": 0 if rows is None else len(rows),
        "cases": len(cases),
        "releases": sum(len(c.keys) for c in cases),
        "queries_per_release": sum(len(w.queries) for w in workloads.values()),
        "replay_s": replay_s,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "labels": labels,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
