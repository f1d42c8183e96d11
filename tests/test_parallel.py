"""Tests for the multicore execution layer.

Covers the four contracts of :mod:`repro.parallel`:

* a pool ships its worker state as one plain pickle: no ``/dev/shm`` entry
  appears while a sweep, a sharded server or seeker scoring runs;
* ``run_sweep(..., workers=N)`` is bitwise identical to ``workers=1`` for
  every N — including for cases that cannot be pickled and fall back to the
  parent process;
* chunked ``batch_query`` matches the unchunked evaluator on all three
  outputs for any chunk size (property test over random sizes plus the 1 /
  Q / Q+1 and empty-workload edges), and the sharded server preserves it
  end to end: a frontier engine's batch fans out in chunks, while a complete
  quadtree is answered in the caller by its closed form and starts no pool;
* a sharded server survives its workers: a killed worker or a failed task
  costs latency, never an answer.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.flatbuild import build_flat_structure
from repro.core.quadtree import build_private_quadtree
from repro.core.splits import QuadSplit
from repro.data import road_intersections
from repro.engine.batch import batch_query, queries_to_arrays
from repro.experiments import ExperimentScale, make_workloads, run_fig3
from repro.experiments.common import SweepCase, run_sweep
from repro.experiments.fig3 import quadtree_sweep_case
from repro.geometry import Rect, TIGER_DOMAIN
from repro.parallel import ShardedQueryServer
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
def pruned_engine(points):
    """The same points, pruned: 321 nodes at height 5, answered by the frontier
    walk, so a sharded server fans its batches across the pool."""
    psd = build_private_quadtree(points, TIGER_DOMAIN, height=5, epsilon=0.5,
                                 prune_threshold=32, rng=np.random.default_rng(7))
    return psd.compile()


@pytest.fixture(scope="module")
def workload(points):
    workloads = make_workloads(points, KD_QUERY_SHAPES[:1], SCALE, rng=1)
    return next(iter(workloads.values()))


_ORPHANED_POOL_SCRIPT = """\
import os
import time

from repro.parallel.pool import ResilientPool


def pid(state):
    return os.getpid()


pool = ResilientPool({}, 2, name="orphan")
pool.run(pid, {0: (), 1: ()})
print(" ".join(str(worker) for worker in sorted(pool._executor._processes)), flush=True)
time.sleep(600)
"""


def _process_alive(pid: int) -> bool:
    """Whether ``pid`` runs: a zombie, never reaped by an init that does not
    reap, counts as gone."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestOrphanedWorkers:
    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
    def test_workers_exit_when_their_parent_is_killed(self, tmp_path):
        """SIGKILL the process that holds a two-worker pool: both workers
        notice their parent changed and exit within 5 s."""
        import subprocess
        import sys
        import threading
        import time

        script = tmp_path / "orphaned.py"
        script.write_text(_ORPHANED_POOL_SCRIPT)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(os.getcwd(), "src"), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.Popen([sys.executable, str(script)], env=env,
                                stdout=subprocess.PIPE, text=True)
        stuck = threading.Timer(120, proc.kill)  # a pool that never starts fails, not hangs
        stuck.start()
        try:
            workers = [int(pid) for pid in proc.stdout.readline().split()]
        finally:
            stuck.cancel()
            proc.kill()
            proc.wait(timeout=60)
        assert len(workers) == 2
        deadline = time.monotonic() + 5.0
        while any(_process_alive(pid) for pid in workers) and time.monotonic() < deadline:
            time.sleep(0.05)
        survivors = [pid for pid in workers if _process_alive(pid)]
        for pid in survivors:  # leave nothing behind, then fail
            os.kill(pid, 9)
        assert not survivors


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
    """A dead pool must cost latency, never errors."""

    def test_worker_kill_is_survived_with_parity(self, pruned_engine, workload):
        reference = batch_query(pruned_engine, workload.queries)
        with ShardedQueryServer(pruned_engine, workers=2, chunk_queries=7) as server:
            first = server.batch_query(workload.queries)  # starts the pool
            assert np.array_equal(first.estimates, reference.estimates)
            server.drill("kill-worker")
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
                server.drill("kill-worker")
            stats = server.stats()
            assert stats["pool_rebuilds"] + stats["inproc_fallbacks"] >= 1
            # the server is fully usable again after the crash
            again = server.batch_query(workload.queries)
            assert np.array_equal(again.estimates, reference.estimates)

    def test_close_is_idempotent_and_safe_after_crash(self, pruned_engine, workload):
        server = ShardedQueryServer(pruned_engine, workers=2, chunk_queries=7)
        server.batch_query(workload.queries)
        server.drill("kill-worker")
        server.close()
        server.close()  # second close is a no-op, not an error
        # a closed server still answers (in-process, pool restarted on demand)
        result = server.batch_query(workload.queries[:3])
        assert len(result) == 3
        server.close()

    def test_worker_task_exception_falls_back_in_process(self, pruned_engine, workload,
                                                         monkeypatch):
        """A task raising in the worker (injected OOM) re-evaluates in the
        parent: the pool survives and the answers stay bitwise identical."""
        from repro.serve.faults import FaultInjector, FaultSpec

        reference = batch_query(pruned_engine, workload.queries)
        with ShardedQueryServer(pruned_engine, workers=2, chunk_queries=7) as server:
            # Every task the pool submits raises MemoryError in its worker.
            monkeypatch.setattr(server._pool, "faults",
                                FaultInjector([FaultSpec("oom-worker", 1)]))
            result = server.batch_query(workload.queries)
            assert np.array_equal(result.estimates, reference.estimates)
            assert server.stats()["inproc_fallbacks"] >= 1
            assert server._pool.started  # the pool was never torn down

    def test_degraded_pool_starts_no_workers_until_stopped(self, pruned_engine, workload,
                                                           monkeypatch):
        """Once a batch has fallen back after MAX_REBUILDS, later batches and
        drills start no workers and sleep no backoff; stop() tries again."""
        import repro.parallel.pool as pool_mod

        starts = []

        def broken_executor(*args, **kwargs):
            starts.append(1)
            raise RuntimeError("fork failed (injected)")

        reference = batch_query(pruned_engine, workload.queries)
        monkeypatch.setattr(pool_mod, "ProcessPoolExecutor", broken_executor)
        monkeypatch.setattr(pool_mod, "BACKOFF_BASE_S", 0.0)
        with ShardedQueryServer(pruned_engine, workers=2, chunk_queries=7) as server:
            server.batch_query(workload.queries)
            degraded = server.stats()
            assert len(starts) == pool_mod.MAX_REBUILDS + 1
            for _ in range(3):
                server.drill("kill-worker")
                result = server.batch_query(workload.queries)
                assert result.estimates.tobytes() == reference.estimates.tobytes()
            stats = server.stats()
            assert len(starts) == pool_mod.MAX_REBUILDS + 1
            assert stats["pool_rebuilds"] == degraded["pool_rebuilds"]
            assert stats["backoff_sleeps"] == degraded["backoff_sleeps"]
            assert stats["inproc_fallbacks"] == 4 * degraded["inproc_fallbacks"]
            server._pool.stop()
            server.batch_query(workload.queries)
            assert len(starts) == 2 * (pool_mod.MAX_REBUILDS + 1)

    def test_pool_init_failure_degrades_in_process(self, pruned_engine, workload,
                                                   monkeypatch):
        """If the pool cannot start, the batch is served in-process."""
        import repro.parallel.pool as pool_mod

        def broken_executor(*args, **kwargs):
            raise RuntimeError("fork failed (injected)")

        reference = batch_query(pruned_engine, workload.queries)
        monkeypatch.setattr(pool_mod, "ProcessPoolExecutor", broken_executor)
        with ShardedQueryServer(pruned_engine, workers=2, chunk_queries=7) as server:
            result = server.batch_query(workload.queries)
            assert np.array_equal(result.estimates, reference.estimates)
            assert server.stats()["inproc_fallbacks"] >= 1


def _shm_entries() -> set:
    """The current /dev/shm names, less the named semaphores of a non-fork
    start method (empty off-Linux)."""
    try:
        return {name for name in os.listdir("/dev/shm") if not name.startswith("sem.")}
    except OSError:
        return set()


class TestNoSharedMemory:
    """The worker state ships as one pickle per pool start, so no pool
    creates a /dev/shm entry, even with state above 64 KiB."""

    @pytest.fixture
    def entries_at_close(self, monkeypatch):
        """The /dev/shm names seen as each started pool closes, its workers
        still alive."""
        import repro.parallel.pool as pool_mod

        seen = []
        close = pool_mod.ResilientPool.close

        def recording_close(pool):
            if pool.started:
                seen.append(_shm_entries())
            close(pool)

        monkeypatch.setattr(pool_mod.ResilientPool, "close", recording_close)
        return seen

    def test_sweep(self, entries_at_close):
        points = road_intersections(n=10_000, rng=3)  # 160 KB of points
        before = _shm_entries()
        rows_2 = run_fig3(scale=SCALE, epsilons=(0.5,), points=points, rng=2, workers=2)
        assert entries_at_close and all(seen <= before for seen in entries_at_close)
        assert rows_2 == run_fig3(scale=SCALE, epsilons=(0.5,), points=points, rng=2, workers=1)

    def test_frontier_server_batch(self, points, workload, entries_at_close):
        # A kd-tree of height 6 has 5,461 nodes: its bounds alone take 175 KB,
        # well above the 64 KiB a shared-memory path would kick in at.
        from repro.core import build_private_kdtree

        engine = build_private_kdtree(points, TIGER_DOMAIN, 6, 0.5, rng=4).compile()
        assert engine.n_nodes == 5_461 and engine.lo.nbytes + engine.hi.nbytes > 64 * 1024
        before = _shm_entries()
        with ShardedQueryServer(engine, workers=2, chunk_queries=7) as server:
            result = server.batch_query(workload.queries)
            assert server.stats()["sharded_batches"] == 1
        assert entries_at_close and all(seen <= before for seen in entries_at_close)
        assert result.estimates.tobytes() == batch_query(engine, workload.queries).estimates.tobytes()

    def test_seeker_chunks(self, entries_at_close):
        from repro.engine.points import CellJoinIndex, matching_cell_layout
        from repro.parallel.matching import score_seeker_chunks

        rng = np.random.default_rng(5)
        holders, seekers = rng.random((2_000, 2)), rng.random((20_000, 2))  # 320 KB of seekers
        lo, hi = np.array([[0.0, 0.0], [0.5, 0.5]]), np.array([[0.5, 0.5], [1.0, 1.0]])
        origin, side, extents = matching_cell_layout(holders, seekers, 0.01)
        args = (lo, hi, CellJoinIndex.build(holders, origin, side, extents), seekers, 0.01, None)
        before = _shm_entries()
        two = score_seeker_chunks(*args, workers=2, chunk=4_096)
        assert entries_at_close and all(seen <= before for seen in entries_at_close)
        one = score_seeker_chunks(*args, workers=1, chunk=4_096)
        assert np.array_equal(two[0], one[0]) and two[1:] == one[1:]


class TestShardedQueryServer:
    def test_parity(self, engine, workload):
        reference = batch_query(engine, workload.queries)
        with ShardedQueryServer(engine, workers=2, chunk_queries=7) as server:
            result = server.batch_query(workload.queries)
            assert np.array_equal(result.estimates, reference.estimates)
            assert np.array_equal(result.nodes_touched, reference.nodes_touched)
            assert np.array_equal(result.variances, reference.variances)

    def test_closed_form_engine_never_starts_its_pool(self, engine, workload):
        """A complete quadtree is answered in the caller at any pool size:
        batches larger than the chunk start no pool, and a kill drill is a
        no-op."""
        reference = batch_query(engine, workload.queries)
        assert len(workload.queries) > 7
        with ShardedQueryServer(engine, workers=2, chunk_queries=7) as server:
            for _ in range(2):
                result = server.batch_query(workload.queries)
                for name in ("estimates", "nodes_touched", "variances"):
                    assert getattr(result, name).tobytes() == getattr(reference, name).tobytes()
                server.drill("kill-worker")
            stats = server.stats()
            assert not server._pool.started
        assert stats["sharded_batches"] == 0 and stats["chunks"] == 0
        assert stats["batches"] == 2
        assert stats["pool_rebuilds"] == stats["inproc_fallbacks"] == 0

    def test_frontier_engine_batch_fans_out(self, pruned_engine, workload):
        reference = batch_query(pruned_engine, workload.queries)
        n_queries = len(workload.queries)
        with ShardedQueryServer(pruned_engine, workers=2, chunk_queries=7) as server:
            result = server.batch_query(workload.queries)
            stats = server.stats()
            assert server._pool.started
        for name in ("estimates", "nodes_touched", "variances"):
            assert getattr(result, name).tobytes() == getattr(reference, name).tobytes()
        assert stats["sharded_batches"] == 1
        assert stats["chunks"] == -(-n_queries // 7)

    def test_single_worker_runs_in_process(self, engine, workload):
        with ShardedQueryServer(engine, workers=1, chunk_queries=16) as server:
            assert not server._pool.started
            reference = batch_query(engine, workload.queries)
            assert np.array_equal(server.batch_query(workload.queries).estimates,
                                  reference.estimates)


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
