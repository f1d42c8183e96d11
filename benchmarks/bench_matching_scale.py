"""Record-matching scale benchmark: the vectorised pipeline vs the seed era.

Measures :func:`repro.applications.record_matching.blocking_from_engine`
(flat-leaf blocking + grid candidate counting + neighbor-join completeness +
optional multicore scoring) against ``oracle.blocking_reference``, the
seed-era per-leaf / per-seeker loop it replaced, kept as the test oracle in
``tests/oracle`` (timed over a pointer view materialised before the clock
starts).  **Parity precedes every timing**:
the two scorers must agree bitwise (every ``BlockingResult`` field), and
``workers=2`` must reproduce ``workers=1`` exactly, before a stopwatch
starts — a fast wrong answer is not a result.

Sections (full mode):

* ``parity``     — fast == reference and workers parity at a mid scale;
* ``speedup``    — both scorers timed at 10^5 records/party on the same
  released tree; gate: the fast path is >= 50x faster;
* ``million``    — a complete 10^6 x 10^6 linkage through the fast path,
  reporting build/blocking wall time and peak RSS.

Runnable two ways:

* ``python benchmarks/bench_matching_scale.py --smoke`` — the CI gate:
  small parties, bitwise parity, and a not-slower check (no 50x floor);
* ``python benchmarks/bench_matching_scale.py --output BENCH_matching.json``
  — the checked-in numbers.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

from hostmeta import host_metadata, write_bench_json

from repro.applications.record_matching import (
    blocking_from_engine,
    build_blocking_tree,
)
from repro.data.synthetic import gaussian_cluster_points
from repro.geometry.domain import TIGER_DOMAIN

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracle import blocking_reference, pointer_view  # noqa: E402  (seed-era scorer)

SPEEDUP_GATE = 50.0


def result_dict(result) -> dict:
    return {
        "reduction_ratio": result.reduction_ratio,
        "candidate_pairs": result.candidate_pairs,
        "total_pairs": result.total_pairs,
        "pairs_completeness": result.pairs_completeness,
        "surviving_leaves": result.surviving_leaves,
    }


def max_rss_mb() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux, bytes on macOS.
    scale = 1024.0 if sys.platform != "darwin" else 1024.0 * 1024.0
    return float(usage) / scale


def make_parties(n_per_party: int, matching_distance: float, seed: int):
    """Two overlapping clustered parties, the Figure 7(b) data shape."""
    rng = np.random.default_rng(seed)
    holders = gaussian_cluster_points(n_per_party, TIGER_DOMAIN, n_clusters=12,
                                      spread=0.03, rng=rng)
    n_overlap = n_per_party // 2
    near = holders[rng.integers(0, holders.shape[0], n_overlap)]
    near = near + rng.normal(scale=matching_distance / 4.0, size=near.shape)
    fresh = gaussian_cluster_points(n_per_party - n_overlap, TIGER_DOMAIN,
                                    n_clusters=12, spread=0.03, rng=rng)
    seekers = TIGER_DOMAIN.clip_points(np.concatenate([near, fresh], axis=0))
    return holders, seekers


def build_case(n_per_party: int, height: int, matching_distance: float, seed: int):
    """The released tree as the oracle's pointer view and as a compiled engine."""
    holders, seekers = make_parties(n_per_party, matching_distance, seed)
    psd = build_blocking_tree(holders, TIGER_DOMAIN, height, epsilon=0.5,
                              method="kd-standard", rng=np.random.default_rng(seed + 1))
    return pointer_view(psd), psd.compile(), holders, seekers


def assert_parity(n_per_party: int, height: int, matching_distance: float, seed: int) -> dict:
    """Bitwise agreement of fast vs reference and workers=2 vs workers=1."""
    pointer, engine, holders, seekers = build_case(n_per_party, height, matching_distance, seed)
    fast = blocking_from_engine(engine, holders, seekers, matching_distance)
    ref = blocking_reference(pointer, holders, seekers, matching_distance)
    assert fast == ref, f"fast scorer diverged from reference:\n{fast}\n{ref}"
    forked = blocking_from_engine(engine, holders, seekers, matching_distance,
                                  workers=2, seeker_chunk=max(64, n_per_party // 7))
    assert forked == fast, f"workers=2 diverged from workers=1:\n{forked}\n{fast}"
    return {
        "n_per_party": n_per_party,
        "height": height,
        "matching_distance": matching_distance,
        "reference_equal": True,
        "workers_equal": True,
        "result": result_dict(fast),
    }


def run_speedup(n_per_party: int, height: int, matching_distance: float,
                seed: int, require_not_slower_only: bool) -> dict:
    """Time reference vs fast on one released tree (parity asserted first)."""
    pointer, engine, holders, seekers = build_case(n_per_party, height, matching_distance, seed)

    fast_result = blocking_from_engine(engine, holders, seekers, matching_distance)
    ref_result = blocking_reference(pointer, holders, seekers, matching_distance)
    assert fast_result == ref_result, "parity must hold before timing"

    start = time.perf_counter()
    blocking_from_engine(engine, holders, seekers, matching_distance)
    fast_sec = time.perf_counter() - start

    start = time.perf_counter()
    blocking_reference(pointer, holders, seekers, matching_distance)
    reference_sec = time.perf_counter() - start

    speedup = reference_sec / fast_sec if fast_sec > 0 else float("inf")
    section = {
        "n_per_party": n_per_party,
        "height": height,
        "matching_distance": matching_distance,
        "reference_sec": reference_sec,
        "fast_sec": fast_sec,
        "speedup": speedup,
        "gate": 1.0 if require_not_slower_only else SPEEDUP_GATE,
        "result": result_dict(fast_result),
    }
    if require_not_slower_only:
        assert fast_sec <= reference_sec, (
            f"fast path slower than the seed-era loop: {fast_sec:.3f}s vs {reference_sec:.3f}s")
    else:
        assert speedup >= SPEEDUP_GATE, (
            f"speedup gate failed: {speedup:.1f}x < {SPEEDUP_GATE:.0f}x "
            f"({reference_sec:.2f}s reference, {fast_sec:.3f}s fast)")
    return section


def run_million(n_per_party: int, height: int, matching_distance: float,
                seed: int, workers: int) -> dict:
    """The headline run: a complete n x n linkage through the fast path."""
    holders, seekers = make_parties(n_per_party, matching_distance, seed)

    start = time.perf_counter()
    psd = build_blocking_tree(holders, TIGER_DOMAIN, height, epsilon=0.5,
                              method="kd-standard", rng=np.random.default_rng(seed + 1))
    engine = psd.compile()
    build_sec = time.perf_counter() - start

    start = time.perf_counter()
    result = blocking_from_engine(engine, holders, seekers, matching_distance,
                                  workers=workers)
    blocking_sec = time.perf_counter() - start

    return {
        "n_per_party": n_per_party,
        "height": height,
        "matching_distance": matching_distance,
        "workers": workers,
        "build_sec": build_sec,
        "blocking_sec": blocking_sec,
        "total_sec": build_sec + blocking_sec,
        "max_rss_mb": max_rss_mb(),
        "result": result_dict(result),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--smoke", action="store_true",
                        help="CI gate: small parties, bitwise parity, fast path "
                             "not slower than the reference (no 50x floor, no "
                             "million-record section)")
    parser.add_argument("--workers", type=int, default=-1,
                        help="pool size for the million-record run (-1 = all "
                             "cores; parity with workers=1 is asserted separately)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", default=None,
                        help="write the result as JSON (e.g. BENCH_matching.json)")
    args = parser.parse_args(argv)

    payload = {
        "mode": "smoke" if args.smoke else "full",
        "host": host_metadata(),
    }

    if args.smoke:
        payload["parity"] = assert_parity(n_per_party=3_000, height=5,
                                          matching_distance=0.02, seed=args.seed)
        payload["speedup"] = run_speedup(n_per_party=4_000, height=5,
                                         matching_distance=0.02, seed=args.seed,
                                         require_not_slower_only=True)
    else:
        payload["parity"] = assert_parity(n_per_party=20_000, height=6,
                                          matching_distance=0.02, seed=args.seed)
        payload["speedup"] = run_speedup(n_per_party=100_000, height=6,
                                         matching_distance=0.01, seed=args.seed,
                                         require_not_slower_only=False)
        payload["million"] = run_million(n_per_party=1_000_000, height=8,
                                         matching_distance=0.002, seed=args.seed,
                                         workers=args.workers)

    print(json.dumps(payload, indent=2))
    if args.output:
        write_bench_json(args.output, payload)

    speedup = payload["speedup"]["speedup"]
    print(f"\nmatching parity OK; fast path {speedup:.1f}x the seed-era scorer "
          f"at {payload['speedup']['n_per_party']:,} records/party", file=sys.stderr)
    if "million" in payload:
        million = payload["million"]
        print(f"million-record linkage: {million['total_sec']:.1f}s wall "
              f"({million['build_sec']:.1f}s build + {million['blocking_sec']:.1f}s "
              f"blocking), peak RSS {million['max_rss_mb']:.0f} MiB", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
