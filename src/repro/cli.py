"""Command-line interface for building, querying and benchmarking PSDs.

Five sub-commands cover the life-cycle of a private release:

* ``build``  — read a point dataset (``.npy`` or CSV with one point per row,
  or the built-in synthetic road data), build a chosen PSD variant under a
  privacy budget, and write the release as a FLATPSD2 file;
* ``compile`` — re-store a release (a FLATPSD2 file, or a nested JSON
  release imported from :mod:`repro.core.serialization`) as FLATPSD2,
  optionally with ``--precision float32`` storage;
* ``query``  — load a release (FLATPSD2, or nested JSON compiled on import —
  detected from the file's magic bytes, not its suffix) and answer
  rectangular range queries from it — one-off via
  ``--rect`` or in bulk via ``--queries-file`` — through the same
  :class:`~repro.parallel.ShardedQueryServer` that ``serve`` uses:
  in-process by default, a sharded worker pool with ``--workers`` for
  engines the frontier walk answers (a complete quadtree is always answered
  in-process by its closed form; no access to the original data needed);
* ``experiment`` — run one of the paper-figure experiments through the
  multi-release sweep pipeline at a named scale (``smoke`` / ``default`` /
  ``paper``) and print its series (optionally writing them as JSON), the same
  code path the benchmark suite uses;
* ``serve`` — stand up the fault-tolerant HTTP query service on a release
  (read like ``query`` reads it): per-analyst ε budgets
  enforced through a crash-safe write-ahead ledger, a supervised worker pool
  that survives worker death, bounded admission with load shedding, and
  zero-downtime engine hot swap via ``POST /admin/swap``.  ``--fault``
  schedules deterministic faults (``kill-worker:N``, ``slow-chunk:N[:sec]``,
  ``wal-io-error:N``, ``oom-worker:N``) for drills and tests.

Examples
--------
::

    python -m repro.cli build --synthetic 100000 --variant quad-opt \
        --epsilon 0.5 --height 8 --output release.psdm
    python -m repro.cli query release.psdm --rect=-123,46,-121,48
    python -m repro.cli query release.psdm --queries-file workload.txt --workers 4
    python -m repro.cli compile release.psdm --precision float32 --output engine32.psdm
    python -m repro.cli experiment --figure 3 --scale smoke --json fig3.json
    python -m repro.cli experiment fig3 --epsilons 0.5 --n-points 20000
    python -m repro.cli serve engine.psdm --ledger budget.jsonl --port 8080 \
        --budget-cap 1.0 --workers 4
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
import time
from typing import List, Optional, Sequence

import numpy as np

from .core import (
    build_private_hilbert_rtree,
    build_private_kdtree,
    build_private_quadtree,
    load_psd,
)
from .core.kdtree import KDTREE_VARIANTS
from .core.quadtree import QUADTREE_VARIANTS
from .data import road_intersections
from .engine import (
    PRECISIONS,
    compile_psd,
    is_engine_file,
    load_engine,
    save_engine,
)
from .experiments import (
    ExperimentScale,
    format_table,
    run_fig2,
    run_fig3,
    run_fig4,
    run_fig5,
    run_fig6,
    run_fig7a,
    run_fig7b,
)
from .geometry import Domain, Rect, TIGER_DOMAIN, bounding_rect
from .obs import (
    disable_metrics,
    disable_tracing,
    enable_metrics,
    enable_tracing,
    format_metrics,
    host_metadata,
    metrics_payload,
)

__all__ = ["main", "build_parser"]


# ----------------------------------------------------------------------
# Observability flags (shared by `query` and `experiment`)
# ----------------------------------------------------------------------
def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--metrics", action="store_true",
                        help="collect runtime metrics (counters/gauges/histograms) "
                             "and print a summary on stderr; released bits are "
                             "unaffected (zero RNG draws)")
    parser.add_argument("--metrics-json", default=None,
                        help="write the collected metrics (with a host-metadata "
                             "stamp) to this JSON file; implies metrics collection")
    parser.add_argument("--trace", default=None,
                        help="record span events (wall/CPU time, span tree) to this "
                             "JSON-lines file; released bits are unaffected")


def _obs_begin(args) -> None:
    """Enable the registry/tracer requested by the command's obs flags."""
    if getattr(args, "metrics", False) or getattr(args, "metrics_json", None):
        enable_metrics()
    if getattr(args, "trace", None):
        enable_tracing(path=args.trace)


def _obs_finish(args) -> None:
    """Report and tear down whatever :func:`_obs_begin` enabled."""
    registry = disable_metrics()
    tracer = disable_tracing()  # flushes the JSONL file if one was requested
    if registry is not None:
        if getattr(args, "metrics", False):
            print(format_metrics(registry), file=sys.stderr)
        path = getattr(args, "metrics_json", None)
        if path:
            payload = {"host": host_metadata(), "metrics": metrics_payload(registry)}
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
            print(f"wrote metrics to {path}", file=sys.stderr)
    if tracer is not None and tracer.path:
        print(f"wrote {len(tracer.events())} trace events to {tracer.path}",
              file=sys.stderr)


# ----------------------------------------------------------------------
# Input / output helpers
# ----------------------------------------------------------------------
def _load_points(args) -> np.ndarray:
    if args.synthetic is not None:
        return road_intersections(n=args.synthetic, rng=args.seed)
    if args.input is None:
        raise SystemExit("either --input or --synthetic must be given")
    path = args.input
    if path.endswith(".npy"):
        return np.load(path)
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        rows = [[float(v) for v in row] for row in reader if row and not row[0].startswith("#")]
    if not rows:
        raise SystemExit(f"no points found in {path}")
    return np.asarray(rows, dtype=float)


def _resolve_domain(args, points: np.ndarray) -> Domain:
    if args.domain == "tiger":
        return TIGER_DOMAIN
    if args.domain == "auto":
        pad = 1e-9 + 1e-6 * float(np.max(np.abs(points), initial=1.0))
        return Domain(bounding_rect(points, pad=pad), name="auto")
    parts = [float(v) for v in args.domain.split(",")]
    if len(parts) % 2 != 0:
        raise SystemExit("--domain must be 'tiger', 'auto' or lo1,lo2,...,hi1,hi2,...")
    half = len(parts) // 2
    return Domain.from_bounds(parts[:half], parts[half:], name="cli")


def _parse_rect(spec: str, dims: int) -> Rect:
    try:
        values = [float(v) for v in spec.split(",")]
    except ValueError:
        raise SystemExit(f"malformed query rectangle {spec!r}: values must be numbers")
    if len(values) != 2 * dims:
        raise SystemExit(f"query rectangle {spec!r} needs {2 * dims} "
                         "comma-separated numbers (lo..., hi...)")
    try:
        return Rect(tuple(values[:dims]), tuple(values[dims:]))
    except ValueError as exc:
        raise SystemExit(f"malformed query rectangle {spec!r}: {exc}")


# ----------------------------------------------------------------------
# Sub-commands
# ----------------------------------------------------------------------
def _cmd_build(args) -> int:
    points = _load_points(args)
    domain = _resolve_domain(args, points)
    variant = args.variant
    start = time.perf_counter()
    try:
        if variant in QUADTREE_VARIANTS:
            psd = build_private_quadtree(points, domain, args.height, args.epsilon,
                                         variant=variant, prune_threshold=args.prune,
                                         rng=args.seed)
        elif variant in KDTREE_VARIANTS:
            psd = build_private_kdtree(points, domain, args.height, args.epsilon,
                                       variant=variant, prune_threshold=args.prune,
                                       rng=args.seed)
        elif variant == "hilbert-r":
            psd = build_private_hilbert_rtree(points, domain, 2 * args.height, args.epsilon,
                                              prune_threshold=args.prune, rng=args.seed)
        else:
            raise SystemExit(f"unknown variant {variant!r}")
    except ValueError as exc:
        raise SystemExit(f"cannot build {variant}: {exc}")
    build_time = time.perf_counter() - start
    save_engine(psd.compile(), args.output)
    print(f"released {psd.name}: {psd.node_count()} nodes, height {psd.height}, "
          f"epsilon {args.epsilon}, built in {build_time:.3f}s, "
          f"written to {args.output} (FLATPSD2)")
    return 0


def _read_queries_file(path: str) -> List[str]:
    """One rect spec per line (``lo1,lo2,...,hi1,hi2,...``); '#' comments and
    blank lines are skipped."""
    specs: List[str] = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line and not line.startswith("#"):
                    specs.append(line)
    except OSError as exc:
        raise SystemExit(f"cannot read --queries-file: {exc}")
    return specs


def _load_engine(path: str, verify: bool):
    """The release at ``path`` as a flat engine, for ``query``, ``serve`` and
    ``compile``: a FLATPSD2 file (recognised by its magic bytes, so any file
    name works) is attached, a nested JSON release is imported and compiled.
    Exits with a one-line reason (no traceback) when the file is unreadable,
    truncated or fails validation."""
    try:
        if is_engine_file(path):
            return load_engine(path, verify=verify)
        return compile_psd(load_psd(path))
    except Exception as exc:
        raise SystemExit(f"cannot load release {path!r}: {exc}")


def _cmd_compile(args) -> int:
    # Verified: a re-store must not stamp fresh checksums over rotten bytes.
    engine = _load_engine(args.release, verify=True)
    save_engine(engine, args.output, precision=args.precision)
    print(f"compiled {engine.name}: {engine.n_nodes} nodes, "
          f"{engine.nbytes() / 1024:.1f} KiB of arrays, written to {args.output} "
          f"(FLATPSD2, {args.precision} storage)")
    return 0


def _cmd_query(args) -> int:
    specs = list(args.rect or [])
    if args.queries_file:
        specs.extend(_read_queries_file(args.queries_file))
    if not specs:
        raise SystemExit("provide at least one query via --rect or --queries-file")

    from .parallel import ShardedQueryServer

    engine = _load_engine(args.release, verify=args.verify)
    rects = [_parse_rect(spec, engine.dims) for spec in specs]
    # The path `repro serve` takes.  A complete quadtree is answered here by
    # its closed form at any --workers, the whole file in one batch.  Any
    # other engine is evaluated in-process with one worker (the default);
    # with --workers N > 1 a batch larger than --chunk-queries fans out in
    # chunks across a pool of workers that map the same release file.
    with ShardedQueryServer(engine, workers=args.workers or 1,
                            chunk_queries=args.chunk_queries) as server:
        answers = server.batch_range_query(rects)
        stats = server.stats()
    for spec, answer in zip(specs, answers):
        print(f"{spec}\t{answer:.2f}")
    if args.stats:
        print(f"serve stats: {stats['workers']} workers, "
              f"{stats['queries']} queries in {stats['batches']} batches "
              f"({stats['sharded_batches']} sharded, {stats['chunks']} chunks), "
              f"{stats['engine_mapped_bytes']} engine bytes memory-mapped",
              file=sys.stderr)
    return 0


def _cmd_serve(args) -> int:
    import asyncio
    import signal

    from .serve import BudgetLedger, EngineSupervisor, QueryService, parse_faults

    engine = _load_engine(args.release, verify=not args.no_verify)
    try:
        faults = parse_faults(args.fault)
    except ValueError as exc:
        raise SystemExit(str(exc))

    supervisor = EngineSupervisor(engine, workers=args.workers,
                                  chunk_queries=args.chunk_queries)
    ledger = BudgetLedger(args.ledger, default_cap=args.budget_cap)
    if ledger.replayed_records:
        print(f"replayed {ledger.replayed_records} ledger records from {args.ledger}",
              file=sys.stderr)
    service = QueryService(supervisor, ledger, host=args.host, port=args.port,
                           charge_epsilon=args.charge_epsilon,
                           max_inflight=args.max_inflight,
                           request_timeout=args.timeout, faults=faults)

    async def _run() -> None:
        await service.start()
        # The bound port line is machine-read by the smoke harness: keep the
        # format stable and flush it before blocking.
        print(f"serving {engine.name} on http://{service.host}:{service.port} "
              f"(ledger {args.ledger}, cap {args.budget_cap})", flush=True)
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except NotImplementedError:  # pragma: no cover - non-POSIX loops
                pass
        try:
            await stop.wait()
        finally:
            await service.stop()

    try:
        asyncio.run(_run())
    finally:
        supervisor.close()
        ledger.close()
    print("server stopped; ledger is durable and will replay on restart",
          file=sys.stderr)
    return 0


#: Figures whose runner is a crash-safe sweep (accepts --checkpoint / --fault /
#: --case-timeout); everything else rejects those flags loudly.
_SWEEP_FIGURES = ("fig3", "fig5", "fig6")


def _sweep_kwargs(args) -> dict:
    return {
        "checkpoint": args.checkpoint,
        "faults": args.fault,
        "case_timeout": args.case_timeout,
    }


_EXPERIMENTS = {
    "fig2": lambda args, scale: (run_fig2(), ["height", "err_uniform", "err_geometric", "ratio"]),
    "fig3": lambda args, scale: (
        run_fig3(scale=scale, epsilons=args.epsilons, rng=args.seed, workers=args.workers,
                 **_sweep_kwargs(args)),
        ["epsilon", "variant", "shape", "median_rel_error_pct"],
    ),
    "fig4": lambda args, scale: (
        run_fig4(n_points=scale.n_points, rng=args.seed),
        ["method", "depth", "rank_error_pct", "time_sec"],
    ),
    "fig5": lambda args, scale: (
        run_fig5(scale=scale, epsilons=args.epsilons, rng=args.seed, workers=args.workers,
                 **_sweep_kwargs(args)),
        ["epsilon", "variant", "shape", "median_rel_error_pct"],
    ),
    "fig6": lambda args, scale: (
        run_fig6(scale=scale, rng=args.seed, workers=args.workers,
                 **_sweep_kwargs(args)),
        ["method", "height", "shape", "median_rel_error_pct"],
    ),
    "fig7a": lambda args, scale: (
        run_fig7a(scale=scale, rng=args.seed),
        ["method", "build_time_sec", "n_points"],
    ),
    "fig7b": lambda args, scale: (
        run_fig7b(scale=scale, rng=args.seed, workers=args.workers),
        ["method", "epsilon", "reduction_ratio", "pairs_completeness"],
    ),
}


#: Named scale presets of ``repro experiment --scale`` — ``paper`` restores the
#: full-scale setup of Section 8 (1.63 M points, 600 queries per shape).
_SCALES = {
    "smoke": ExperimentScale.smoke,
    "default": ExperimentScale,
    "paper": ExperimentScale.paper,
}

#: ``--figure`` accepts the paper's figure numbers; 7 runs both panels.
_FIGURE_NUMBERS = {
    "2": ("fig2",), "3": ("fig3",), "4": ("fig4",), "5": ("fig5",),
    "6": ("fig6",), "7": ("fig7a", "fig7b"), "7a": ("fig7a",), "7b": ("fig7b",),
}


def _resolve_scale(args) -> ExperimentScale:
    scale = _SCALES[args.scale]()
    overrides = {
        field: getattr(args, field)
        for field in ("n_points", "n_queries", "repetitions", "quad_height", "kd_height")
        if getattr(args, field) is not None
    }
    return dataclasses.replace(scale, **overrides) if overrides else scale


def _cmd_experiment(args) -> int:
    if args.figure_number is not None and args.figure is not None:
        raise SystemExit("give either a positional figure name or --figure, not both")
    if args.figure_number is not None:
        figures = _FIGURE_NUMBERS[args.figure_number]
    elif args.figure is not None:
        figures = (args.figure,)
    else:
        raise SystemExit("choose an experiment: positional name (e.g. fig3) or --figure 3")
    scale = _resolve_scale(args)

    if args.checkpoint or args.fault or args.case_timeout is not None:
        outside = [f for f in figures if f not in _SWEEP_FIGURES]
        if outside:
            raise SystemExit(
                f"--checkpoint/--fault/--case-timeout apply to the sweep figures "
                f"{'/'.join(_SWEEP_FIGURES)} only, not {'/'.join(outside)}"
            )

    results = []
    for figure in figures:
        rows, columns = _EXPERIMENTS[figure](args, scale)
        print(format_table(rows, columns, title=f"Experiment {figure} ({args.scale} scale)"))
        results.append({"figure": figure, "columns": list(columns), "rows": rows})
    if args.json_out:
        payload = {
            "scale": {"name": args.scale, **dataclasses.asdict(scale)},
            "seed": args.seed,
            "host": host_metadata(),
            "figures": results,
        }
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {sum(len(r['rows']) for r in results)} rows to {args.json_out}",
              file=sys.stderr)
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def _positive_int(text: str) -> int:
    """argparse type: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _non_negative_int(text: str) -> int:
    """argparse type: an integer of at least 0."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return value


def _port(text: str) -> int:
    """argparse type: a TCP port, 0 (ephemeral) to 65535."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError(f"must be a port from 0 to 65535, got {text!r}")
    return value


def _positive_finite(text: str) -> float:
    """argparse type: a number above 0 that is neither inf nor nan."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value) or value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")
    return value


def _non_negative_finite(text: str) -> float:
    """argparse type: a number of at least 0 that is neither inf nor nan."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative finite number, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="build a PSD and write its FLATPSD2 release")
    build.add_argument("--input", help="input points (.npy or CSV, one point per row)")
    build.add_argument("--synthetic", type=_non_negative_int, default=None,
                       help="generate this many synthetic road-intersection points instead of reading --input")
    build.add_argument("--domain", default="tiger",
                       help="'tiger', 'auto', or explicit bounds lo1,lo2,hi1,hi2 (default: tiger)")
    build.add_argument("--variant", default="quad-opt",
                       help=f"one of {sorted(QUADTREE_VARIANTS) + sorted(KDTREE_VARIANTS) + ['hilbert-r']}")
    build.add_argument("--epsilon", type=_positive_finite, default=0.5,
                       help="total privacy budget (positive and finite)")
    build.add_argument("--height", type=_non_negative_int, default=8, help="tree height")
    build.add_argument("--prune", type=_non_negative_finite, default=None,
                       help="optional pruning threshold")
    build.add_argument("--seed", type=_non_negative_int, default=0, help="random seed")
    build.add_argument("--output", required=True,
                       help="path of the FLATPSD2 release (suggested suffix .psdm)")
    build.set_defaults(func=_cmd_build)

    compile_ = sub.add_parser("compile",
                              help="re-store a release (FLATPSD2, or nested JSON to "
                                   "import) as a FLATPSD2 file")
    compile_.add_argument("release", help="path of the release (FLATPSD2 or nested JSON; "
                                          "detected by magic bytes)")
    compile_.add_argument("--output", required=True,
                          help="path of the FLATPSD2 file to write (suggested suffix .psdm)")
    compile_.add_argument("--precision", choices=PRECISIONS, default="float64",
                          help="storage precision: float32 halves count/offset storage "
                               "(geometry stays float64; rounding error sits below the "
                               "Laplace noise floor at realistic epsilons; default float64)")
    compile_.set_defaults(func=_cmd_compile)

    query = sub.add_parser("query",
                           help="answer range queries from a release")
    query.add_argument("release", help="path of the release (FLATPSD2 or nested JSON; "
                                       "detected by magic bytes)")
    query.add_argument("--rect", action="append", default=None,
                       help="query rectangle as lo1,lo2,...,hi1,hi2,... (repeatable)")
    query.add_argument("--queries-file", default=None,
                       help="batch mode: file with one rect spec per line ('#' comments allowed)")
    query.add_argument("--verify", action="store_true",
                       help="check every engine array against the CRC32 stamps in "
                            "the FLATPSD2 header before answering")
    query.add_argument("--stats", action="store_true",
                       help="report the serving counters (workers, batches, chunks, "
                            "memory-mapped engine bytes) on stderr")
    query.add_argument("--workers", type=int, default=None,
                       help="shard the frontier walk across this many processes, each "
                            "mapping the release (-1 = all cores); a complete quadtree "
                            "is answered in-process by its closed form")
    query.add_argument("--chunk-queries", type=_positive_int, default=1024,
                       help="queries per fanned-out chunk of a frontier engine's batch "
                            "(also caps the frontier walk's peak memory; default 1024)")
    _add_obs_args(query)
    query.set_defaults(func=_cmd_query)

    experiment = sub.add_parser(
        "experiment",
        help="run paper-figure experiments through the sweep pipeline",
        description="Run one of the paper-figure experiments at a chosen scale. "
                    "Select the experiment by name (e.g. 'fig3') or paper figure "
                    "number (--figure 3; --figure 7 runs both panels). "
                    "--scale smoke|default|paper trades fidelity for runtime; "
                    "explicit size flags override individual scale fields.",
    )
    experiment.add_argument("figure", nargs="?", choices=sorted(_EXPERIMENTS), default=None,
                            help="experiment name (alternative to --figure)")
    experiment.add_argument("--figure", dest="figure_number",
                            choices=sorted(_FIGURE_NUMBERS), default=None,
                            help="paper figure number (2..7, 7a, 7b); 7 runs both panels")
    experiment.add_argument("--scale", choices=sorted(_SCALES), default="default",
                            help="size preset: smoke (CI-sized), default, or the "
                                 "paper's full-scale setup")
    experiment.add_argument("--json", dest="json_out", default=None,
                            help="also write the result rows (plus scale metadata) as JSON")
    experiment.add_argument("--n-points", type=_positive_int, default=None,
                            help="override the scale's dataset size")
    experiment.add_argument("--n-queries", type=_positive_int, default=None,
                            help="override the scale's queries per shape")
    experiment.add_argument("--repetitions", type=_positive_int, default=None,
                            help="override the scale's noisy releases per grid point")
    experiment.add_argument("--quad-height", type=_non_negative_int, default=None,
                            help="override the scale's quadtree height")
    experiment.add_argument("--kd-height", type=_non_negative_int, default=None,
                            help="override the scale's kd-tree height")
    experiment.add_argument("--epsilons", type=_positive_finite, nargs="+", default=(0.5,))
    experiment.add_argument("--seed", type=_non_negative_int, default=0)
    experiment.add_argument("--workers", type=int, default=None,
                            help="fan work across this many processes (fig3/fig5/fig6 "
                                 "sweep cases, fig7b seeker chunks; -1 = all cores; rows "
                                 "are bitwise identical for any worker count)")
    experiment.add_argument("--checkpoint", default=None, metavar="PATH",
                            help="journal each completed sweep case to this JSONL file and "
                                 "resume from it on re-run; a resumed sweep is bitwise "
                                 "identical to an uninterrupted one (fig3/fig5/fig6)")
    experiment.add_argument("--fault", action="append", default=None,
                            help="deterministic sweep fault schedule kind:every[:param] — "
                                 "kinds: kill-worker, slow-case, oom-worker (repeatable; "
                                 "requires --workers > 1)")
    experiment.add_argument("--case-timeout", type=_positive_finite, default=None,
                            help="soft per-case timeout in seconds: an overdue case is "
                                 "resubmitted once, then runs in-process")
    _add_obs_args(experiment)
    experiment.set_defaults(func=_cmd_experiment)

    serve = sub.add_parser(
        "serve",
        help="serve range queries over HTTP with per-analyst budgets and "
             "fault-tolerant workers",
        description="Stand up the asyncio HTTP query service on a release "
                    "(FLATPSD2, or nested JSON compiled on import). Every "
                    "answer is preceded by a durable charge against the "
                    "analyst's epsilon account in the write-ahead ledger; an "
                    "exhausted account gets 429, an overloaded server sheds "
                    "with 503 + Retry-After, and a crashed worker costs "
                    "latency, not errors. POST /admin/swap hot-swaps the "
                    "engine with zero downtime.",
    )
    serve.add_argument("release", help="release to serve: a FLATPSD2 file, or nested "
                                       "JSON (compiled on startup)")
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=_port, default=0,
                       help="bind port (default 0 = ephemeral; the bound port is printed)")
    serve.add_argument("--ledger", required=True,
                       help="path of the append-only budget WAL (JSON lines); replayed "
                            "on startup, so restarts never forget spend")
    serve.add_argument("--budget-cap", type=_positive_finite, default=1.0,
                       help="default epsilon cap per analyst (default 1.0)")
    serve.add_argument("--charge-epsilon", type=_positive_finite, default=0.01,
                       help="epsilon charged per query when a request names no "
                            "explicit total (default 0.01)")
    serve.add_argument("--workers", type=int, default=None,
                       help="worker pool size per engine generation "
                            "(-1 = all cores; 1 serves in-process); a complete quadtree "
                            "is answered in the server by its closed form and starts no pool")
    serve.add_argument("--chunk-queries", type=_positive_int, default=1024,
                       help="queries per fanned-out chunk of a frontier engine's "
                            "batch (default 1024)")
    serve.add_argument("--max-inflight", type=_positive_int, default=64,
                       help="admitted-request bound before load shedding (default 64)")
    serve.add_argument("--timeout", type=_positive_finite, default=30.0,
                       help="per-request timeout in seconds (default 30)")
    serve.add_argument("--no-verify", action="store_true",
                       help="skip the checksum verification of FLATPSD2 files "
                            "(verification is the serve default; saves one O(bytes) "
                            "scan at startup)")
    serve.add_argument("--fault", action="append", default=None,
                       help="deterministic fault schedule kind:every[:param] — kinds: "
                            "kill-worker, slow-chunk, wal-io-error, oom-worker "
                            "(repeatable; for drills, tests and benchmarks)")
    serve.set_defaults(func=_cmd_serve)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point used both by ``python -m repro.cli`` and the console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    _obs_begin(args)
    try:
        return args.func(args)
    finally:
        _obs_finish(args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in examples
    sys.exit(main())
