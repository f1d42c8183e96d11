"""The observability layer: registry semantics, span tracing, parity contracts.

The load-bearing promise (mirrored by ``benchmarks/bench_obs_overhead.py``):
instrumentation is **off by default**, consumes **zero RNG draws**, and turning
it on changes no released bit — the fig3 smoke sweep produces identical rows
and leaves the generator in an identical final state with metrics and tracing
enabled.  Everything else here pins the mechanics that make a multi-process
run report one coherent view: counters merge by sum, gauges by max, histograms
by bucket addition, and workers drain per-task so nothing double counts.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.cli import main
from repro.core.builder import build_psd_releases
from repro.core.splits import QuadSplit
from repro.data.tiger import road_intersections
from repro.experiments import ExperimentScale, run_fig3
from repro.geometry.domain import TIGER_DOMAIN
from repro.obs import (
    MetricsRegistry,
    Tracer,
    active_registry,
    active_tracer,
    counter_add,
    disable_metrics,
    disable_tracing,
    enable_metrics,
    enable_tracing,
    format_metrics,
    gauge_max,
    gauge_set,
    host_metadata,
    merge_obs_snapshot,
    metrics_enabled,
    metrics_payload,
    obs_snapshot,
    observe,
    trace_span,
    tracing_enabled,
    write_bench_json,
)
from repro.obs.trace import _NULL_SPAN


@pytest.fixture(autouse=True)
def obs_reset():
    """Every test starts and ends with observability fully off (the default)."""
    disable_metrics()
    disable_tracing(flush=False)
    yield
    disable_metrics()
    disable_tracing(flush=False)


@pytest.fixture(scope="module")
def points():
    return road_intersections(n=1_500, rng=np.random.default_rng(0))


# ----------------------------------------------------------------------
# Registry semantics
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counters_accumulate_and_split_by_labels(self):
        reg = MetricsRegistry()
        reg.counter_add("queries", 3)
        reg.counter_add("queries", 2)
        reg.counter_add("queries", 5, worker=1)
        assert reg.counter_value("queries") == 5.0
        assert reg.counter_value("queries", worker=1) == 5.0
        assert reg.counter_total("queries") == 10.0
        assert reg.counter_value("absent") == 0.0

    def test_label_order_is_canonical(self):
        reg = MetricsRegistry()
        reg.counter_add("c", 1, a=1, b=2)
        reg.counter_add("c", 1, b=2, a=1)
        assert reg.counter_value("c", b=2, a=1) == 2.0

    def test_gauge_set_last_wins_gauge_max_keeps_peak(self):
        reg = MetricsRegistry()
        reg.gauge_set("spend", 0.5, level=0)
        reg.gauge_set("spend", 0.3, level=0)
        assert reg.gauge_value("spend", level=0) == 0.3
        reg.gauge_max("peak", 4)
        reg.gauge_max("peak", 9)
        reg.gauge_max("peak", 7)
        assert reg.gauge_value("peak") == 9.0
        assert reg.gauge_value("absent") is None

    def test_histogram_buckets_and_stats(self):
        reg = MetricsRegistry()
        for value in (0.5, 1.0, 1.5, 99.0):
            reg.observe("h", value, buckets=(1.0, 2.0))
        state = reg.histogram("h")
        # bucket 0: <= 1.0 (two values: 0.5 and the exact edge), bucket 1:
        # (1.0, 2.0], overflow bucket: everything above the last edge.
        assert state["counts"] == (2, 1, 1)
        assert state["count"] == 4
        assert state["total"] == pytest.approx(102.0)
        assert state["min"] == 0.5 and state["max"] == 99.0
        assert reg.histogram("absent") is None

    def test_histogram_rejects_bad_edges(self):
        from repro.obs import Histogram

        with pytest.raises(ValueError):
            Histogram(edges=())
        with pytest.raises(ValueError):
            Histogram(edges=(1.0, 1.0, 2.0))

    def test_merge_sums_counters_maxes_gauges_adds_buckets(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter_add("n", 2)
        b.counter_add("n", 3)
        a.gauge_max("peak", 5)
        b.gauge_max("peak", 8)
        a.observe("h", 0.5, buckets=(1.0,))
        b.observe("h", 2.0, buckets=(1.0,))
        a.merge(b.snapshot())
        assert a.counter_value("n") == 5.0
        assert a.gauge_value("peak") == 8.0
        state = a.histogram("h")
        assert state["counts"] == (1, 1) and state["count"] == 2
        assert state["min"] == 0.5 and state["max"] == 2.0

    def test_merge_rejects_mismatched_histogram_edges(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.observe("h", 0.5, buckets=(1.0, 2.0))
        b.observe("h", 0.5, buckets=(1.0, 3.0))
        with pytest.raises(ValueError, match="bucket edges"):
            a.merge(b.snapshot())

    def test_drain_reports_once_then_resets(self):
        reg = MetricsRegistry()
        reg.counter_add("n", 4)
        reg.observe("h", 0.1)
        first = reg.drain()
        assert first["counters"] and first["histograms"]
        assert reg.counter_value("n") == 0.0
        second = reg.drain()
        assert not second["counters"] and not second["histograms"]

    def test_payload_and_text_rendering(self):
        reg = MetricsRegistry()
        reg.counter_add("queries", 7, worker=3)
        reg.gauge_set("spend", 0.5)
        reg.observe("phase_seconds", 0.01, phase="build")
        payload = metrics_payload(reg)
        assert payload["counters"] == [{"name": "queries", "labels": {"worker": "3"}, "value": 7.0}]
        assert payload["gauges"][0]["value"] == 0.5
        assert payload["histograms"][0]["labels"] == {"phase": "build"}
        json.dumps(payload)  # must be JSON-serialisable as-is
        text = format_metrics(reg)
        assert "queries{worker=3}" in text and "phase_seconds{phase=build}" in text
        assert "(no metrics recorded)" in format_metrics(MetricsRegistry())


# ----------------------------------------------------------------------
# Off-by-default module helpers
# ----------------------------------------------------------------------
class TestModuleState:
    def test_helpers_are_noops_until_enabled(self):
        assert not metrics_enabled() and active_registry() is None
        counter_add("n", 5)
        gauge_set("g", 1.0)
        gauge_max("g", 2.0)
        observe("h", 0.1)
        reg = enable_metrics()
        assert reg.counter_value("n") == 0.0  # pre-enable calls went nowhere
        counter_add("n", 5)
        assert reg.counter_value("n") == 5.0
        assert disable_metrics() is reg
        assert not metrics_enabled()

    def test_obs_snapshot_none_when_off(self):
        assert obs_snapshot() is None
        merge_obs_snapshot(None)  # tolerated no-op

    def test_snapshot_merge_round_trip(self):
        worker = enable_metrics()
        worker_tracer = enable_tracing()
        counter_add("n", 2)
        with trace_span("phase"):
            pass
        payload = obs_snapshot()
        assert worker.counter_value("n") == 0.0  # drained
        assert worker_tracer.events() == []
        parent = enable_metrics()
        parent_tracer = enable_tracing()
        merge_obs_snapshot(payload)
        assert parent.counter_value("n") == 2.0
        assert [e["span"] for e in parent_tracer.events()] == ["phase"]


# ----------------------------------------------------------------------
# Spans and tracing
# ----------------------------------------------------------------------
class TestTracing:
    def test_null_span_when_everything_off(self):
        span = trace_span("anything", level=3)
        assert span is _NULL_SPAN
        with span:
            pass  # usable, records nothing anywhere

    def test_span_tree_ids_and_attrs(self):
        tracer = enable_tracing()
        with trace_span("outer", level=1):
            with trace_span("inner"):
                pass
            with trace_span("inner2"):
                pass
        events = tracer.events()
        # children emit before their parent (exit order)
        assert [e["span"] for e in events] == ["inner", "inner2", "outer"]
        by_name = {e["span"]: e for e in events}
        assert by_name["outer"]["parent_id"] is None
        assert by_name["inner"]["parent_id"] == by_name["outer"]["span_id"]
        assert by_name["inner2"]["parent_id"] == by_name["outer"]["span_id"]
        # ids are sequential integers: no RNG involved, ever
        assert by_name["outer"]["span_id"] == 1
        assert {by_name["inner"]["span_id"], by_name["inner2"]["span_id"]} == {2, 3}
        assert by_name["outer"]["attrs"] == {"level": 1}
        assert by_name["outer"]["pid"] == os.getpid()
        assert by_name["outer"]["wall_s"] >= 0.0 and by_name["outer"]["cpu_s"] >= 0.0

    def test_jsonl_flush_on_disable(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        enable_tracing(path=str(path))
        with trace_span("a"):
            with trace_span("b"):
                pass
        assert tracing_enabled()
        tracer = disable_tracing()
        assert not tracing_enabled() and tracer is not None
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert [json.loads(line)["span"] for line in lines] == ["b", "a"]

    def test_metrics_only_spans_feed_phase_histogram(self):
        reg = enable_metrics()
        with trace_span("build.noise"):
            pass
        with trace_span("build.noise"):
            pass
        state = reg.histogram("phase_seconds", phase="build.noise")
        assert state is not None and state["count"] == 2
        assert active_tracer() is None  # no event stream was created

    def test_tracer_absorb_and_drain(self):
        tracer = Tracer()
        tracer.absorb(None)
        tracer.absorb([{"span": "x"}])
        assert tracer.events() == [{"span": "x"}]
        assert tracer.drain_events() == [{"span": "x"}]
        assert tracer.events() == []


# ----------------------------------------------------------------------
# The parity contract (acceptance)
# ----------------------------------------------------------------------
SMOKE = dict(n_points=1_500, n_queries=4, repetitions=2, quad_height=3)


def _fig3_rows(instrumented: bool, workers: int = 1):
    gen = np.random.default_rng(7)
    if instrumented:
        enable_metrics()
        enable_tracing()
    try:
        rows = run_fig3(scale=ExperimentScale(**SMOKE), epsilons=(0.5,),
                        rng=gen, workers=workers)
    finally:
        if instrumented:
            # keep registry/tracer installed for callers that inspect them;
            # the autouse fixture tears them down.
            pass
    return rows, gen.bit_generator.state


class TestInstrumentationParity:
    def test_release_bits_and_rng_state_identical(self, points):
        gen_plain = np.random.default_rng(3)
        plain = build_psd_releases(points, TIGER_DOMAIN, 3, QuadSplit(), (0.5, 1.0),
                                   repetitions=2, postprocess=True, rng=gen_plain)
        gen_obs = np.random.default_rng(3)
        enable_metrics()
        tracer = enable_tracing()
        instrumented = build_psd_releases(points, TIGER_DOMAIN, 3, QuadSplit(), (0.5, 1.0),
                                          repetitions=2, postprocess=True, rng=gen_obs)
        assert gen_obs.bit_generator.state == gen_plain.bit_generator.state
        for r in range(plain.n_releases):
            ref, got = plain.release(r).flat_tree, instrumented.release(r).flat_tree
            assert np.array_equal(ref.noisy_count, got.noisy_count, equal_nan=True)
            assert np.array_equal(ref.post_count, got.post_count)
        assert tracer.events(), "instrumented build recorded no spans"

    def test_fig3_smoke_rows_identical_with_obs_on(self):
        rows_plain, state_plain = _fig3_rows(instrumented=False)
        rows_obs, state_obs = _fig3_rows(instrumented=True)
        assert rows_obs == rows_plain
        assert state_obs == state_plain
        reg = active_registry()
        assert reg.counter_total("sweep.cases") == 4.0  # four quadtree variants
        assert reg.histogram("phase_seconds", phase="sweep.build_case") is not None
        assert active_tracer().events()

    def test_fig3_workers2_rows_identical_and_metrics_merge(self):
        rows_plain, state_plain = _fig3_rows(instrumented=False)
        rows_obs, state_obs = _fig3_rows(instrumented=True, workers=2)
        assert rows_obs == rows_plain
        assert state_obs == state_plain  # parent RNG only spawns per-case seeds
        reg = active_registry()
        # every case ran exactly once somewhere in the pool; drained snapshots
        # merged back without double counting
        assert reg.counter_total("sweep.cases") == 4.0
        assert reg.counter_total("sweep.releases") == 4.0 * 2
        workers_seen = {
            labels for (name, labels) in reg.snapshot()["counters"] if name == "sweep.cases"
        }
        assert workers_seen, "per-worker label split missing"
        events = active_tracer().events()
        assert events, "worker trace events were not absorbed by the parent"
        assert {e["span"] for e in events} >= {"sweep.build_case", "sweep.evaluate_case"}


# ----------------------------------------------------------------------
# CLI surfaces
# ----------------------------------------------------------------------
FIG3_ARGS = ["experiment", "fig3", "--n-points", "1500", "--n-queries", "4",
             "--quad-height", "3", "--repetitions", "1", "--epsilons", "1.0"]


class TestObsCLI:
    def test_experiment_json_carries_hostmeta(self, tmp_path, capsys):
        out = tmp_path / "fig3.json"
        assert main(FIG3_ARGS + ["--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert set(payload["host"]) >= {"cpu_count", "platform", "python", "numpy", "commit"}
        assert payload["figures"][0]["figure"] == "fig3"

    def test_experiment_metrics_and_trace_flags(self, tmp_path, capsys):
        plain = tmp_path / "plain.json"
        instrumented = tmp_path / "obs.json"
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        assert main(FIG3_ARGS + ["--json", str(plain)]) == 0
        capsys.readouterr()
        assert main(FIG3_ARGS + ["--json", str(instrumented), "--metrics",
                                 "--trace", str(trace), "--metrics-json", str(metrics)]) == 0
        err = capsys.readouterr().err
        assert "metrics" in err and "trace events" in err
        # the released rows are bitwise identical with instrumentation on
        rows_plain = json.loads(plain.read_text())["figures"]
        rows_obs = json.loads(instrumented.read_text())["figures"]
        assert rows_obs == rows_plain
        events = [json.loads(line) for line in trace.read_text().strip().splitlines()]
        assert events and all("span" in e and "wall_s" in e for e in events)
        metrics_doc = json.loads(metrics.read_text())
        assert "host" in metrics_doc
        names = {c["name"] for c in metrics_doc["metrics"]["counters"]}
        assert "sweep.cases" in names
        # the CLI tears obs down on exit
        assert not metrics_enabled() and not tracing_enabled()

    def test_query_workers_stats_reports_serving(self, tmp_path, capsys):
        # Pruned, so the frontier walk answers it and the batch fans out (a
        # complete quadtree is answered in the caller by its closed form).
        release = tmp_path / "release.json"
        assert main(["build", "--synthetic", "500", "--height", "3", "--seed", "1",
                     "--prune", "32", "--output", str(release)]) == 0
        capsys.readouterr()
        rects = ["--rect=-123,46,-121,48", "--rect=-123,46,-121,48", "--rect=-122,45,-120,47"]
        assert main(["query", str(release), *rects]) == 0
        in_process = capsys.readouterr().out
        assert main(["query", str(release), "--workers", "2",
                     "--chunk-queries", "1", "--stats", *rects]) == 0
        out, err = capsys.readouterr()
        assert out == in_process
        assert "cache" not in err
        assert "serve stats: 2 workers, 3 queries in 1 batches (1 sharded, 3 chunks)" in err
        mapped = int(err.split("chunks), ")[1].split(" engine bytes memory-mapped")[0])
        assert mapped > 0 and "shm" not in err


# ----------------------------------------------------------------------
# Host metadata
# ----------------------------------------------------------------------
class TestHostmeta:
    def test_host_metadata_fields(self):
        meta = host_metadata()
        assert meta["cpu_count"] >= 1
        assert meta["numpy"] == np.__version__
        json.dumps(meta)

    def test_write_bench_json_stamps_host(self, tmp_path):
        path = tmp_path / "bench.json"
        stamped = write_bench_json(str(path), {"benchmark": "x", "value": 1})
        on_disk = json.loads(path.read_text())
        assert on_disk == stamped
        assert on_disk["value"] == 1 and "host" in on_disk
