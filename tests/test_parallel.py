"""Tests for the multicore execution layer.

Covers the four contracts of :mod:`repro.parallel`:

* the shared-memory pickler round-trips object graphs with large arrays as
  attached read-only views (exported once per object, not per reference);
* ``run_sweep(..., workers=N)`` is bitwise identical to ``workers=1`` for
  every N — including for cases that cannot be pickled and fall back to the
  parent process;
* chunked ``batch_query`` matches the unchunked evaluator on all three
  outputs for any chunk size (property test over random sizes plus the 1 /
  Q / Q+1 and empty-workload edges), and the sharded server preserves it
  end to end;
* the LRU answer cache stays consistent under concurrent access.
"""

from __future__ import annotations

import pickle
import threading

import numpy as np
import pytest

from repro.core.flatbuild import build_flat_structure
from repro.core.quadtree import build_private_quadtree
from repro.core.splits import QuadSplit
from repro.data import road_intersections
from repro.engine.batch import batch_query, compile_query_matrix, queries_to_arrays
from repro.engine.cache import CachedEngine
from repro.experiments import ExperimentScale, make_workloads, run_fig3
from repro.experiments.common import (
    SweepCase,
    _structure_fingerprint,
    run_sweep,
)
from repro.experiments.fig3 import quadtree_sweep_case
from repro.geometry import Rect, TIGER_DOMAIN
from repro.parallel import ShardedQueryServer, SharedArena, dumps_shared, loads_shared
from repro.parallel.shm import SharedArrayHandle, detach_all
from repro.parallel.sweep import engine_from_structure
from repro.privacy.rng import spawn_generators
from repro.queries import KD_QUERY_SHAPES

SCALE = ExperimentScale.smoke()


@pytest.fixture(scope="module")
def points():
    return road_intersections(n=4_000, rng=0)


@pytest.fixture(scope="module")
def engine(points):
    psd = build_private_quadtree(points, TIGER_DOMAIN, height=5, epsilon=0.5,
                                 rng=np.random.default_rng(7))
    return psd.compile()


@pytest.fixture(scope="module")
def workload(points):
    workloads = make_workloads(points, KD_QUERY_SHAPES[:1], SCALE, rng=1)
    return next(iter(workloads.values()))


# ----------------------------------------------------------------------
# Shared-memory plumbing
# ----------------------------------------------------------------------
class TestSharedArena:
    def test_roundtrip_and_identity_dedupe(self):
        big = np.arange(32_768, dtype=np.float64)  # 256 KiB, above threshold
        small = np.arange(8, dtype=np.float64)
        payload = {"a": big, "b": big, "small": small, "n": 3}
        try:
            with SharedArena() as arena:
                blob = dumps_shared(payload, arena)
                assert arena.n_segments == 1  # big exported once despite two refs
                restored = loads_shared(blob)
                assert np.array_equal(restored["a"], big)
                assert np.array_equal(restored["small"], small)
                assert restored["n"] == 3
                # both references resolve to one shared view, which is frozen
                assert restored["a"] is restored["b"]
                assert not restored["a"].flags.writeable
                # small arrays ride the pickle stream as ordinary copies
                assert restored["small"].flags.writeable
        finally:
            detach_all()

    def test_attach_after_unlink_fails(self):
        arena = SharedArena()
        handle = arena.export(np.zeros(1))
        arena.close()
        detach_all()
        with pytest.raises(Exception):
            loads_shared(dumps_shared_handle(handle))

    def test_non_array_persistent_id_rejected(self):
        import io

        from repro.parallel.shm import _AttachingUnpickler

        class FakePickler(pickle.Pickler):
            def persistent_id(self, obj):
                return "bogus" if obj is marker else None

        marker = object()
        buffer = io.BytesIO()
        FakePickler(buffer).dump([marker])
        with pytest.raises(pickle.UnpicklingError):
            _AttachingUnpickler(io.BytesIO(buffer.getvalue())).load()


def dumps_shared_handle(handle: SharedArrayHandle) -> bytes:
    """A minimal payload whose only content is one persistent handle."""
    import io

    from repro.parallel.shm import _SharingPickler

    class HandleOnly(_SharingPickler):
        def persistent_id(self, obj):
            return obj if isinstance(obj, SharedArrayHandle) else None

    buffer = io.BytesIO()
    HandleOnly(buffer, SharedArena()).dump(handle)
    return buffer.getvalue()


_INTERRUPTED_ARENA_SCRIPT = """\
import json
import numpy as np
from repro.parallel.shm import SharedArena, dumps_shared

arena = SharedArena()
dumps_shared({"a": np.arange(100_000, dtype=np.float64)}, arena)
print(json.dumps([seg.name for seg in arena._segments]), flush=True)
raise KeyboardInterrupt  # Ctrl-C mid-sweep: the atexit guard must unlink
"""


class TestArenaLeakGuard:
    def test_interrupted_process_leaks_no_segments(self, tmp_path):
        """A process dying with a live arena must leave /dev/shm clean —
        unlinked by the atexit sweep itself, not mopped up (with warnings)
        by the multiprocessing resource tracker."""
        import os
        import subprocess
        import sys
        from multiprocessing import shared_memory

        script = tmp_path / "interrupted.py"
        script.write_text(_INTERRUPTED_ARENA_SCRIPT)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(os.getcwd(), "src"), env.get("PYTHONPATH")) if p
        )
        result = subprocess.run([sys.executable, str(script)], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode != 0  # the interrupt escaped
        names = __import__("json").loads(result.stdout)
        assert names, "the arena exported no segment"
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
        assert "leaked shared_memory" not in result.stderr

    def test_forked_child_close_never_unlinks_parent_segments(self):
        """A pool worker inherits the parent's arena object; its exit-time
        close must drop local references only, never the shared names."""
        from multiprocessing import shared_memory

        arena = SharedArena()
        handle = arena.export(np.arange(9_000, dtype=np.float64))
        arena._owner_pid += 1  # simulate running inside a forked child
        arena.close()
        # the segment survives the child's close...
        segment = shared_memory.SharedMemory(name=handle.shm_name)
        segment.close()
        segment.unlink()  # ...and is cleaned up here on the parent's behalf


# ----------------------------------------------------------------------
# Process-parallel sweeps
# ----------------------------------------------------------------------
class TestParallelSweep:
    def test_workers_bitwise_parity(self, points):
        """workers=N == workers=1, for several N, on the fig3 grid."""
        rows_1 = run_fig3(scale=SCALE, epsilons=(0.5, 1.0), points=points, rng=2,
                          workers=1)
        for n in (2, 3):
            rows_n = run_fig3(scale=SCALE, epsilons=(0.5, 1.0), points=points, rng=2,
                              workers=n)
            assert rows_n == rows_1  # exact float equality, row for row

    def test_workers_parity_fig5_kdtree(self, points):
        """Data-dependent kd builds (level sorts over the shared read-only
        points view) must also be bitwise reproducible across worker counts."""
        from repro.experiments import run_fig5

        rows_1 = run_fig5(scale=SCALE, epsilons=(1.0,),
                          variants=("kd-pure", "kd-hybrid"), points=points, rng=4,
                          workers=1)
        rows_2 = run_fig5(scale=SCALE, epsilons=(1.0,),
                          variants=("kd-pure", "kd-hybrid"), points=points, rng=4,
                          workers=2)
        assert rows_2 == rows_1

    def test_workers_parity_fig6_mixed_methods(self, points):
        """The fig6 grid mixes kd and Hilbert family builds in one pool."""
        from repro.experiments import run_fig6

        kwargs = dict(scale=SCALE, heights=(3,), methods=("kd-hybrid", "hilbert-r"),
                      points=points, rng=5)
        assert run_fig6(workers=2, **kwargs) == run_fig6(workers=1, **kwargs)

    def test_default_equals_workers_one(self, points):
        rows_default = run_fig3(scale=SCALE, epsilons=(0.5,), points=points, rng=3)
        rows_1 = run_fig3(scale=SCALE, epsilons=(0.5,), points=points, rng=3, workers=1)
        assert rows_default == rows_1

    def test_unpicklable_case_falls_back_to_parent(self, points):
        """A closure-built case cannot ship to workers; rows must not change."""
        workloads = make_workloads(points, KD_QUERY_SHAPES[:1], SCALE, rng=1)
        structure = build_flat_structure(points, TIGER_DOMAIN, 4, QuadSplit(), 0.0)
        picklable = quadtree_sweep_case(points, TIGER_DOMAIN, 4, (0.5,), 2,
                                        "quad-opt", structure)

        def closure_build(gen):  # local function: not picklable
            return picklable.build(gen)

        closure_case = SweepCase(label="closure", keys=picklable.keys,
                                 build=closure_build)
        cases = [picklable, closure_case]
        rows_1 = run_sweep(cases, workloads, rng=0, workers=1)
        rows_2 = run_sweep(cases, workloads, rng=0, workers=2)
        assert rows_2 == rows_1

    def test_spawned_streams_are_per_case(self):
        """Case i's generator depends only on (rng, i) — not on other cases."""
        first = spawn_generators(np.random.default_rng(9), 3)
        second = spawn_generators(np.random.default_rng(9), 3)
        for a, b in zip(first, second):
            assert a.bit_generator.state == b.bit_generator.state
        draws = {g.random() for g in first}
        assert len(draws) == 3  # distinct streams

    def test_engine_from_structure_fingerprint_matches_release_engine(self, points):
        """The parent's precompile probe must alias the real release engine's
        matrix-cache key, or the shared CSR buffers would never be hit."""
        from repro.core.quadtree import build_private_quadtree_releases

        structure = build_flat_structure(points, TIGER_DOMAIN, 4, QuadSplit(), 0.0)
        probe = engine_from_structure(structure, TIGER_DOMAIN)
        batch = build_private_quadtree_releases(
            points, TIGER_DOMAIN, height=4, epsilons=(0.5,), repetitions=1,
            variant="quad-opt", rng=0, structure=structure)
        assert _structure_fingerprint(probe) == _structure_fingerprint(batch.query_engine())


# ----------------------------------------------------------------------
# Chunked evaluation
# ----------------------------------------------------------------------
class TestChunkedBatchQuery:
    def test_chunk_size_property(self, engine, workload):
        """Parity with the unchunked pass for random chunk sizes and the
        1 / Q / Q+1 edges, on all three outputs."""
        queries = workload.queries
        q = len(queries)
        reference = batch_query(engine, queries)
        rng = np.random.default_rng(123)
        sizes = {1, q, q + 1, *(int(s) for s in rng.integers(2, q + 5, size=6))}
        for chunk in sorted(sizes):
            result = batch_query(engine, queries, chunk_queries=chunk)
            assert np.array_equal(result.estimates, reference.estimates), chunk
            assert np.array_equal(result.nodes_touched, reference.nodes_touched), chunk
            assert np.array_equal(result.variances, reference.variances), chunk

    def test_empty_workload(self, engine):
        result = batch_query(engine, [], chunk_queries=5)
        assert len(result) == 0
        assert result.estimates.shape == (0,)
        assert result.nodes_touched.shape == (0,)
        assert result.variances.shape == (0,)

    def test_invalid_chunk_size(self, engine, workload):
        with pytest.raises(ValueError, match="chunk_queries"):
            batch_query(engine, workload.queries, chunk_queries=0)

    def test_use_uniformity_false_chunked(self, engine, workload):
        reference = batch_query(engine, workload.queries, use_uniformity=False)
        result = batch_query(engine, workload.queries, use_uniformity=False,
                             chunk_queries=7)
        assert np.array_equal(result.estimates, reference.estimates)


class TestShardedResilience:
    """A dead pool must cost latency, never errors — and never leak shm."""

    def test_worker_kill_is_survived_with_parity(self, engine, workload):
        reference = batch_query(engine, workload.queries)
        with ShardedQueryServer(engine, workers=2, chunk_queries=7) as server:
            first = server.batch_query(workload.queries)  # starts the pool
            assert np.array_equal(first.estimates, reference.estimates)
            server.kill_worker()
            # A worker that died may be noticed mid-batch or between batches;
            # either way parity must hold and a rebuild must show up (re-kill
            # a few times in case a fast surviving worker drained the batch
            # before the pool noticed the corpse).
            for _ in range(5):
                result = server.batch_query(workload.queries)
                assert np.array_equal(result.estimates, reference.estimates)
                assert np.array_equal(result.nodes_touched, reference.nodes_touched)
                assert np.array_equal(result.variances, reference.variances)
                stats = server.stats()
                if stats["pool_rebuilds"] + stats["inproc_fallbacks"] >= 1:
                    break
                server.kill_worker()
            stats = server.stats()
            assert stats["pool_rebuilds"] + stats["inproc_fallbacks"] >= 1
            # the server is fully usable again after the crash
            again = server.batch_query(workload.queries)
            assert np.array_equal(again.estimates, reference.estimates)

    def test_matrix_dot_survives_worker_kill(self, engine, workload):
        matrix = compile_query_matrix(engine, workload.queries)
        direct = matrix.dot(engine.released)
        with ShardedQueryServer(engine, workers=2, chunk_queries=7) as server:
            key = server.share_matrix(matrix)
            server.batch_query(workload.queries)  # starts the pool
            server.kill_worker()
            sharded = server.matrix_dot(key, engine.released)
            assert np.allclose(sharded, direct, rtol=1e-9, atol=1e-12)

    def test_close_is_idempotent_and_safe_after_crash(self, engine, workload):
        server = ShardedQueryServer(engine, workers=2, chunk_queries=7)
        server.batch_query(workload.queries)
        server.kill_worker()
        server.close()
        server.close()  # second close is a no-op, not an error
        # a closed server still answers (in-process, pool restarted on demand)
        result = server.batch_query(workload.queries[:3])
        assert len(result) == 3
        server.close()

    def test_worker_task_exception_falls_back_in_process(self, engine, workload,
                                                         monkeypatch):
        """A task raising in the worker (injected OOM) re-evaluates in the
        parent: the pool survives and the answers stay bitwise identical."""
        from repro.serve.faults import FaultInjector, FaultSpec

        reference = batch_query(engine, workload.queries)
        with ShardedQueryServer(engine, workers=2, chunk_queries=7) as server:
            # Every task the pool submits raises MemoryError in its worker.
            monkeypatch.setattr(server._pool, "faults",
                                FaultInjector([FaultSpec("oom-worker", 1)]))
            result = server.batch_query(workload.queries)
            assert np.array_equal(result.estimates, reference.estimates)
            assert server.stats()["inproc_fallbacks"] >= 1
            assert server._pool.started  # the pool was never torn down

    def test_pool_init_failure_unlinks_segments_and_degrades(self, engine, workload,
                                                             monkeypatch):
        """If the pool cannot start, the exported segments must be unlinked
        (no /dev/shm leak) and the batch served in-process."""
        import repro.parallel.pool as pool_mod

        def broken_executor(*args, **kwargs):
            raise RuntimeError("fork failed (injected)")

        shm_before = _shm_entries()
        reference = batch_query(engine, workload.queries)
        monkeypatch.setattr(pool_mod, "ProcessPoolExecutor", broken_executor)
        with ShardedQueryServer(engine, workers=2, chunk_queries=7) as server:
            result = server.batch_query(workload.queries)
            assert np.array_equal(result.estimates, reference.estimates)
            assert server._pool.arena.n_segments == 0
            assert server.stats()["inproc_fallbacks"] >= 1
        assert _shm_entries() == shm_before

    def test_export_failure_unlinks_segment(self, monkeypatch):
        """SharedArena.export must not leak a segment when the copy into it
        raises."""
        from repro.parallel.shm import SharedArena as Arena

        shm_before = _shm_entries()
        real_ndarray = np.ndarray

        def exploding_ndarray(*args, **kwargs):
            raise MemoryError("copy failed (injected)")

        arena = Arena()
        monkeypatch.setattr(np, "ndarray", exploding_ndarray)
        try:
            with pytest.raises(MemoryError):
                arena.export(real_ndarray.__new__(real_ndarray, (4,), dtype=np.float64))
        finally:
            monkeypatch.undo()
        assert arena.n_segments == 0
        assert _shm_entries() == shm_before
        arena.close()


def _shm_entries() -> set:
    """The current /dev/shm segment names (empty off-Linux)."""
    import os

    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


class TestShardedQueryServer:
    def test_parity_and_matrix_dot(self, engine, workload):
        reference = batch_query(engine, workload.queries)
        matrix = compile_query_matrix(engine, workload.queries)
        with ShardedQueryServer(engine, workers=2, chunk_queries=7) as server:
            result = server.batch_query(workload.queries)
            assert np.array_equal(result.estimates, reference.estimates)
            assert np.array_equal(result.nodes_touched, reference.nodes_touched)
            assert np.array_equal(result.variances, reference.variances)
            key = server.share_matrix(matrix)
            sharded = server.matrix_dot(key, engine.released)
            direct = matrix.dot(engine.released)
            assert np.allclose(sharded, direct, rtol=1e-9, atol=1e-12)

    def test_single_worker_runs_in_process(self, engine, workload):
        with ShardedQueryServer(engine, workers=1, chunk_queries=16) as server:
            assert not server._pool.started
            reference = batch_query(engine, workload.queries)
            assert np.array_equal(server.batch_query(workload.queries).estimates,
                                  reference.estimates)

    def test_cache_in_front_of_shards(self, engine, workload):
        with ShardedQueryServer(engine, workers=2, chunk_queries=8) as server:
            cached = CachedEngine(engine, evaluator=server.batch_query)
            first = cached.batch_range_query(workload.queries)
            second = cached.batch_range_query(workload.queries)
            assert np.array_equal(first, second)
            assert cached.hits == len(workload.queries)


# ----------------------------------------------------------------------
# Cache thread safety
# ----------------------------------------------------------------------
class TestCacheConcurrency:
    def test_concurrent_batches_stay_consistent(self, engine, workload):
        queries = list(workload.queries)
        reference = {
            i: v for i, v in enumerate(batch_query(engine, queries).estimates)
        }
        cached = CachedEngine(engine, maxsize=16)  # small: force evictions
        errors: list = []
        rng = np.random.default_rng(5)
        orders = [rng.permutation(len(queries)) for _ in range(8)]

        def worker(order):
            try:
                for _ in range(5):
                    picked = [queries[i] for i in order]
                    answers = cached.batch_range_query(picked)
                    for i, answer in zip(order, answers):
                        if answer != reference[i]:
                            raise AssertionError(f"query {i}: {answer} != {reference[i]}")
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(order,)) for order in orders]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        stats = cached.stats()
        assert stats["size"] <= stats["maxsize"]
        # every lookup was either a hit or a miss, and the counters moved
        assert stats["hits"] + stats["misses"] >= len(queries)


# ----------------------------------------------------------------------
# queries_to_arrays fast path
# ----------------------------------------------------------------------
class TestQueriesToArrays:
    def test_rect_fast_path_matches_row_specs(self):
        rects = [Rect((0.0, 1.0), (2.0, 3.0)), Rect((-1.0, -2.0), (0.5, 0.25))]
        rows = [(*r.lo, *r.hi) for r in rects]
        lo_a, hi_a = queries_to_arrays(rects, 2)
        lo_b, hi_b = queries_to_arrays(rows, 2)
        assert np.array_equal(lo_a, lo_b)
        assert np.array_equal(hi_a, hi_b)

    def test_rect_dims_mismatch(self):
        with pytest.raises(ValueError, match="dims"):
            queries_to_arrays([Rect((0.0,), (1.0,))], 2)

    def test_mixed_input_still_supported(self):
        mixed = [Rect((0.0, 0.0), (1.0, 1.0)), (0.0, 0.0, 2.0, 2.0)]
        lo, hi = queries_to_arrays(mixed, 2)
        assert lo.shape == (2, 2)
        assert hi[1][0] == 2.0
