"""Closed-form range queries on complete quadtree engines (:mod:`repro.engine.grid`).

``batch_query`` answers every engine whose arrays form a complete 2-D
fanout-4 grid in closed form.  The references are the frontier walk
(:func:`repro.engine.batch._evaluate_frontier`) and the recursive oracle
walk: ``n(Q)`` must be identical, and estimates and ``Err(Q)`` within
``1e-9 * max(|reference|, 1)`` -- the tolerance the sharded server and the
benchmark check use, fixed before the closed form was written.  The fused
evaluator must equal the per-depth loop it replaced
(:func:`oracle.evaluate_per_depth`) bit for bit.  A query's answer must not
change by a single bit with the batch it arrives in, its chunking or the
evaluator's blocks, and every other engine must stay on the frontier, bit
for bit.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import pickle
import struct
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from repro.core import (
    build_private_hilbert_rtree,
    build_private_kdtree,
    build_private_quadtree,
    load_psd,
    save_psd,
)
from repro.core.budget import LeafOnlyBudget, LevelSkippingBudget
from repro.core.builder import build_psd
from repro.core.splits import QuadSplit
from repro.data import road_intersections, uniform_points
from repro.engine import (
    batch_query,
    compile_psd,
    engine_with_precision,
    load_engine,
    save_engine,
)
from repro.engine.batch import _evaluate_frontier, queries_to_arrays
from repro.engine.grid import _EVALUATE_BLOCK_ROWS, GridIndex, grid_index
from repro.geometry import TIGER_DOMAIN, Domain, Rect
from repro.obs import disable_metrics, disable_tracing, enable_metrics, enable_tracing
from repro.queries import random_query_rects
from repro.serve import EngineSupervisor

RTOL = 1e-9

#: The four Figure-3 variants, plus the two budgets that skip levels.
BUDGETS = ("quad-baseline", "quad-geo", "quad-post", "quad-opt", "leaf-only", "level-skipping")
STORAGES = ("float64", "float32", "mmap")


@functools.lru_cache(maxsize=None)
def _points() -> np.ndarray:
    return road_intersections(n=3_000, rng=np.random.default_rng(2012))


@functools.lru_cache(maxsize=None)
def _psd(budget: str, height: int):
    if budget.startswith("quad-"):
        return build_private_quadtree(_points(), TIGER_DOMAIN, height, 0.5, variant=budget, rng=height)
    strategy = LeafOnlyBudget() if budget == "leaf-only" else LevelSkippingBudget(stride=2)
    return build_psd(_points(), TIGER_DOMAIN, height, QuadSplit(), 0.5, count_budget=strategy,
                     rng=height, name=budget)


@functools.lru_cache(maxsize=None)
def _pointer_view(budget: str, height: int):
    return oracle.pointer_view(_psd(budget, height))


@pytest.fixture(scope="module")
def engines(tmp_path_factory):
    """``(budget, height, storage) -> engine``, built once per module."""
    directory = tmp_path_factory.mktemp("grid-engines")

    @functools.lru_cache(maxsize=None)
    def get(budget: str, height: int, storage: str):
        engine = compile_psd(_psd(budget, height))
        if storage == "float32":
            return engine_with_precision(engine, "float32")
        if storage == "mmap":
            path = directory / f"{budget}-{height}.psdm"
            save_engine(engine, path, format="mmap")
            return load_engine(path)
        return engine

    return get


def _frontier(engine, rects, use_uniformity=True):
    qlo, qhi = queries_to_arrays(rects, engine.dims)
    return _evaluate_frontier(engine, qlo, qhi, use_uniformity)


def _assert_parity(got, want) -> None:
    np.testing.assert_array_equal(got.nodes_touched, want.nodes_touched)
    for have, expected in ((got.estimates, want.estimates), (got.variances, want.variances)):
        assert np.all(np.abs(have - expected) <= RTOL * np.maximum(np.abs(expected), 1.0)), (
            np.max(np.abs(have - expected)))
        # A query that sums no count answers exactly zero, as on the frontier.
        assert not np.any(have[want.nodes_touched == 0])


def _assert_bitwise(got, want) -> None:
    for name in ("estimates", "nodes_touched", "variances"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def _assert_fused_is_per_depth(index, rects, use_uniformity=True) -> None:
    """The fused evaluator's four outputs equal the per-depth loop's, bit for bit."""
    qlo, qhi = queries_to_arrays(rects, 2)
    got = index.evaluate(qlo, qhi, use_uniformity)
    want = oracle.evaluate_per_depth(index, qlo, qhi, use_uniformity)
    for name, have, expected in zip(("estimates", "nodes_touched", "variances", "exact"), got, want):
        assert have.dtype == expected.dtype, name
        assert have.tobytes() == expected.tobytes(), name


def _edge_cases(engine) -> np.ndarray:
    """Rects every batch carries: the whole domain, larger than the domain,
    outside it, a point and zero-width strips on leaf corners, and boxes
    snapped to leaf edges."""
    index = grid_index(engine)
    xs, ys = index.xs, index.ys
    x0, x1, y0, y1 = xs[0], xs[-1], ys[0], ys[-1]
    wx, wy = x1 - x0, y1 - y0
    mx, my = xs[len(xs) // 3], ys[len(ys) // 2]
    k = (len(xs) - 1) // 4
    return np.array([
        [x0, y0, x1, y1],
        [x0 - wx, y0 - wy, x1 + wx, y1 + wy],
        [x1 + 1.0, y0, x1 + 2.0, y1],
        [x0 - 2.0, y0 - 2.0, x0 - 1.0, y0 - 1.0],
        [mx, my, mx, my],
        [mx, y0, mx, y1],
        [x0, my, x1, my],
        [xs[k], ys[k], xs[-1 - k], ys[-1 - k]],
        [xs[0], ys[-2], xs[1], ys[-1]],
        [mx, my, xs[-1], ys[-1]],
    ])


def _coordinates(edges: np.ndarray):
    span = edges[-1] - edges[0]
    return st.one_of(
        st.floats(edges[0] - 0.25 * span, edges[-1] + 0.25 * span),
        st.sampled_from(edges.tolist()),
    )


@st.composite
def _rects(draw, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        qx = sorted([draw(_coordinates(xs)), draw(_coordinates(xs))])
        qy = sorted([draw(_coordinates(ys)), draw(_coordinates(ys))])
        rows.append([qx[0], qy[0], qx[1], qy[1]])
    return np.asarray(rows)


# ----------------------------------------------------------------------
# Parity
# ----------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(data=st.data(), budget=st.sampled_from(BUDGETS), height=st.integers(0, 8),
       storage=st.sampled_from(STORAGES), use_uniformity=st.booleans())
def test_closed_form_matches_frontier_and_oracle(engines, data, budget, height, storage,
                                                 use_uniformity):
    engine = engines(budget, height, storage)
    index = grid_index(engine)
    assert index is not None, (budget, height, storage)
    rects = np.vstack([_edge_cases(engine), data.draw(_rects(index.xs, index.ys))])

    got = batch_query(engine, rects, use_uniformity=use_uniformity)
    _assert_parity(got, _frontier(engine, rects, use_uniformity))
    _assert_fused_is_per_depth(index, rects, use_uniformity)
    if storage == "float64":
        view = _pointer_view(budget, height)
        for i, row in enumerate(rects.tolist()):
            query = Rect(row[:2], row[2:])
            assert got.nodes_touched[i] == oracle.nodes_touched(view, query)
            for have, want in ((got.estimates[i],
                                oracle.range_query(view, query, use_uniformity=use_uniformity)),
                               (got.variances[i], oracle.query_variance(view, query))):
                assert abs(have - want) <= RTOL * max(abs(want), 1.0), (i, row, have, want)


@pytest.mark.parametrize("storage", STORAGES)
@pytest.mark.parametrize("budget", BUDGETS)
def test_fused_evaluator_is_the_per_depth_loop(engines, budget, storage):
    """Every budget (leaf-only and level-skipping included), height 0-8 and
    storage: the fused closed form is the per-depth loop, bit for bit."""
    for height in range(9):
        engine = engines(budget, height, storage)
        rects = np.vstack([_edge_cases(engine), np.asarray(
            [list(r.lo) + list(r.hi) for r in random_query_rects(TIGER_DOMAIN, 60, rng=height)])])
        for use_uniformity in (True, False):
            _assert_fused_is_per_depth(grid_index(engine), rects, use_uniformity)


def test_empty_batch(engines):
    engine = engines("quad-opt", 3, "float64")
    result = batch_query(engine, np.empty((0, 4)))
    assert len(result) == 0
    assert result.nodes_touched.dtype == np.int64


def test_answers_do_not_change_with_batch_or_chunking(engines):
    engine = engines("quad-opt", 7, "float64")
    rects = np.vstack([_edge_cases(engine), np.asarray(
        [list(r.lo) + list(r.hi) for r in random_query_rects(TIGER_DOMAIN, 300, rng=5)])])
    whole = batch_query(engine, rects)
    for chunk in (1, 7, 64):
        _assert_bitwise(batch_query(engine, rects, chunk_queries=chunk), whole)
    order = np.random.default_rng(3).permutation(rects.shape[0])
    shuffled = batch_query(engine, rects[order])
    back = np.argsort(order)
    for name in ("estimates", "nodes_touched", "variances"):
        assert getattr(shuffled, name)[back].tobytes() == getattr(whole, name).tobytes()
    for i in range(0, rects.shape[0], 37):
        alone = batch_query(engine, rects[i : i + 1])
        assert alone.estimates.tobytes() == whole.estimates[i : i + 1].tobytes()
        assert alone.variances.tobytes() == whole.variances[i : i + 1].tobytes()
    # A batch longer than one evaluator block, chunked across block edges.
    longer = np.vstack([rects, np.asarray([list(r.lo) + list(r.hi) for r in random_query_rects(
        TIGER_DOMAIN, 2 * _EVALUATE_BLOCK_ROWS, rng=6)])])
    whole_longer = batch_query(engine, longer)
    _assert_bitwise(batch_query(engine, longer, chunk_queries=_EVALUATE_BLOCK_ROWS - 1), whole_longer)
    for name in ("estimates", "nodes_touched", "variances"):
        assert getattr(whole_longer, name)[: rects.shape[0]].tobytes() == getattr(whole, name).tobytes()


def test_queries_that_sum_nothing_answer_exactly_zero(engines):
    # Zero-width strips along interior leaf edges: their contained blocks are
    # empty boxes, whose inclusion-exclusion reads would not cancel exactly.
    engine = engines("quad-opt", 6, "float64")
    xs, ys = grid_index(engine).xs, grid_index(engine).ys
    rows = []
    for i in range(1, len(xs) - 1, 3):
        for j in range(1, len(ys) - 5, 5):
            rows += [[xs[i], ys[j], xs[i], ys[j + 4]], [xs[j], ys[i], xs[j + 4], ys[i]]]
    got = batch_query(engine, np.asarray(rows))
    assert not got.nodes_touched.any()
    assert not got.estimates.any() and not got.variances.any()


def test_strips_too_thin_for_the_frontier_are_walked():
    # overlap * leaf width underflows to zero along a strip one subnormal
    # thick, so the frontier drops those leaves; only its walk says which.
    domain = Domain.unit(2)
    points = uniform_points(2_000, domain, rng=np.random.default_rng(9))
    engine = build_private_quadtree(points, domain, height=4, epsilon=1.0, rng=4).compile()
    assert grid_index(engine) is not None
    rects = np.array([
        [0.1, 0.0, 0.9, 5e-324],
        [0.0, 0.1, 5e-324, 0.9],
        [0.0, 0.0, 1e-200, 1e-200],  # one corner leaf, its overlap area underflows
        [0.1, 0.0, 0.9, 1e-300],
        [0.2, 0.3, 0.7, 0.8],
    ])
    got = batch_query(engine, rects)
    _assert_parity(got, _frontier(engine, rects))
    assert got.nodes_touched[0] == got.nodes_touched[1] == got.nodes_touched[2] == 0
    assert got.nodes_touched[3] > 0


# ----------------------------------------------------------------------
# Engines that stay on the frontier
# ----------------------------------------------------------------------
def _complete():
    return compile_psd(_psd("quad-baseline", 4))


def _nudged():
    engine = _complete()
    lo = engine.lo.copy()
    leaf = engine.n_nodes - 100
    lo[leaf, 0] = np.nextafter(lo[leaf, 0], -np.inf)
    return dataclasses.replace(engine, lo=lo)


def _area_changed():
    engine = _complete()
    area = engine.area.copy()
    area[engine.n_nodes - 100] *= 2.0
    return dataclasses.replace(engine, area=area)


def _parent_edge_moved():
    # Every leaf agrees on the moved edge, but it is its parents' edge too:
    # the leaves no longer tile their parents.
    engine = _complete()
    leaves = slice(engine.n_nodes - 4**4, engine.n_nodes)
    edge = np.unique(engine.lo[leaves, 0])[2]
    lo, hi = engine.lo.copy(), engine.hi.copy()
    moved = edge + 0.25 * (np.unique(engine.lo[leaves, 0])[3] - edge)
    lo[leaves, 0][engine.lo[leaves, 0] == edge] = moved
    hi[leaves, 0][engine.hi[leaves, 0] == edge] = moved
    area = engine.area.copy()
    area[leaves] = (hi[leaves, 0] - lo[leaves, 0]) * (hi[leaves, 1] - lo[leaves, 1])
    return dataclasses.replace(engine, lo=lo, hi=hi, area=area)


def _swapped():
    engine = _complete()
    start, end = engine.child_start.copy(), engine.child_end.copy()
    start[[1, 2]], end[[1, 2]] = start[[2, 1]], end[[2, 1]]
    return dataclasses.replace(engine, child_start=start, child_end=end)


INELIGIBLE = {
    "pruned-quad": lambda: build_private_quadtree(_points(), TIGER_DOMAIN, 5, 0.5,
                                                  prune_threshold=30.0, rng=1).compile(),
    "kd": lambda: build_private_kdtree(_points(), TIGER_DOMAIN, 6, 0.5, rng=1).compile(),
    "hilbert-planar": lambda: build_private_hilbert_rtree(_points(), TIGER_DOMAIN, 8, 0.5,
                                                          rng=1).compile(),
    "nudged-bound": _nudged,
    "swapped-children": _swapped,
    "area-changed": _area_changed,
    "parent-edge-moved": _parent_edge_moved,
}


@pytest.mark.parametrize("name", sorted(INELIGIBLE))
def test_ineligible_engines_stay_on_the_frontier(name):
    engine = INELIGIBLE[name]()
    assert grid_index(engine) is None
    rects = [list(r.lo) + list(r.hi) for r in random_query_rects(TIGER_DOMAIN, 80, rng=6)]
    _assert_bitwise(batch_query(engine, rects), _frontier(engine, rects))


def test_nonfinite_count_in_a_crafted_file_stays_on_the_frontier(tmp_path):
    path = tmp_path / "engine.psdm"
    save_engine(_complete(), path, format="mmap")
    with open(path, "r+b") as handle:
        handle.seek(8)
        (header_len,) = struct.unpack("<Q", handle.read(8))
        header = json.loads(handle.read(header_len))
        handle.seek(header["arrays"]["released"]["offset"] + 8 * 7)
        handle.write(struct.pack("<d", float("nan")))
    engine = load_engine(path)
    assert grid_index(engine) is None
    rects = [list(r.lo) + list(r.hi) for r in random_query_rects(TIGER_DOMAIN, 80, rng=7)]
    rects.append(list(engine.lo[7]) + list(engine.hi[7]))  # answered by node 7 alone
    got, want = batch_query(engine, rects), _frontier(engine, rects)
    _assert_bitwise(got, want)
    assert np.isnan(got.estimates).any()


def test_null_count_on_a_released_level_stays_on_the_frontier(tmp_path):
    path = tmp_path / "release.json"
    save_psd(_psd("quad-baseline", 4), str(path))
    payload = json.loads(path.read_text())
    payload["root"]["children"][2]["noisy_count"] = None
    path.write_text(json.dumps(payload))
    engine = load_psd(str(path)).compile()
    assert not engine.has_count[3] and engine.has_count[4]
    assert grid_index(engine) is None
    rects = [list(r.lo) + list(r.hi) for r in random_query_rects(TIGER_DOMAIN, 80, rng=8)]
    _assert_bitwise(batch_query(engine, rects), _frontier(engine, rects))


# ----------------------------------------------------------------------
# The index: once per process per engine, never pickled
# ----------------------------------------------------------------------
def test_threads_sharing_a_fresh_engine_build_the_index_once(monkeypatch):
    psd = _psd("quad-opt", 6)
    rects = np.asarray([list(r.lo) + list(r.hi)
                        for r in random_query_rects(TIGER_DOMAIN, 64, rng=10)])
    serial = batch_query(compile_psd(psd), rects)

    builds = []
    derive = GridIndex.derive.__func__

    def counted(cls, engine):
        builds.append(threading.get_ident())
        return derive(cls, engine)

    monkeypatch.setattr(GridIndex, "derive", classmethod(counted))
    engine = compile_psd(psd)
    n_threads = 4 * (os.cpu_count() or 1)
    barrier = threading.Barrier(n_threads)
    answers, errors = {}, []

    def worker(k: int) -> None:
        try:
            barrier.wait(timeout=30)
            for _ in range(5):
                answers[k] = batch_query(engine, rects)
        except BaseException as exc:  # reported below, in the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert len(builds) == 1
    assert len(answers) == n_threads
    for answer in answers.values():
        _assert_bitwise(answer, serial)


def test_index_is_never_pickled(tmp_path):
    path = tmp_path / "engine.psdm"
    save_engine(compile_psd(_psd("quad-opt", 6)), path, format="mmap")
    mapped = load_engine(path)
    assert grid_index(mapped) is not None
    payload = pickle.dumps(mapped)
    assert len(payload) < 1024  # the path and file identity only
    attached = pickle.loads(payload)
    assert "_grid" not in attached.__dict__
    assert isinstance(attached.released, np.memmap)
    assert attached.released.filename == mapped.released.filename
    rects = [list(r.lo) + list(r.hi) for r in random_query_rects(TIGER_DOMAIN, 40, rng=11)]
    _assert_bitwise(batch_query(attached, rects), batch_query(mapped, rects))
    copy = pickle.loads(pickle.dumps(compile_psd(_psd("quad-opt", 3))))
    assert "_grid" not in copy.__dict__ and grid_index(copy) is not None


def test_supervisor_builds_the_index_at_start_and_swap():
    first, second = compile_psd(_psd("quad-opt", 5)), compile_psd(_psd("quad-geo", 5))
    with EngineSupervisor(first, workers=1) as supervisor:
        assert "_grid" in first.__dict__
        supervisor.swap(second)
        assert "_grid" in second.__dict__


def test_counter_and_span():
    registry, tracer = enable_metrics(), enable_tracing()
    try:
        rects = [list(r.lo) + list(r.hi) for r in random_query_rects(TIGER_DOMAIN, 30, rng=12)]
        engine = compile_psd(_psd("quad-opt", 5))
        batch_query(engine, rects)
        batch_query(engine, rects)
        batch_query(INELIGIBLE["kd"](), rects)
        assert registry.counter_value("engine.queries") == 90
        assert registry.counter_value("engine.grid_queries") == 60
        spans = [event["span"] for event in tracer.events()]
        assert spans.count("engine.batch_query") == 3
        assert spans.count("engine.grid_index") == 2  # the quad engine once, the kd engine once
    finally:
        disable_metrics()
        disable_tracing(flush=False)


# ----------------------------------------------------------------------
# Serving scale
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_serve_bulk_scale_parity(record_property):
    """The serve-bulk engine: 1M road points, h=10, 4,096 rects."""
    points = road_intersections(n=1_000_000, rng=np.random.default_rng([1, 10]))
    engine = build_private_quadtree(points, TIGER_DOMAIN, 10, 0.5, variant="quad-opt", rng=1).compile()
    del points
    assert engine.n_nodes == 1_398_101 and grid_index(engine) is not None
    rects = np.asarray([list(r.lo) + list(r.hi) for r in random_query_rects(
        TIGER_DOMAIN, 4_096, rng=np.random.default_rng(14), min_frac=0.001, max_frac=0.3)])
    _assert_fused_is_per_depth(grid_index(engine), rects)
    got = batch_query(engine, rects, chunk_queries=256)
    est_err = var_err = 0.0
    for start in range(0, rects.shape[0], 256):
        part = rects[start : start + 256]
        want = _frontier(engine, part)
        have = batch_query(engine, part)
        _assert_bitwise(have, dataclasses.replace(
            have, estimates=got.estimates[start : start + 256],
            nodes_touched=got.nodes_touched[start : start + 256],
            variances=got.variances[start : start + 256]))
        _assert_parity(have, want)
        scale = np.maximum(np.abs(want.estimates), 1.0)
        est_err = max(est_err, float(np.max(np.abs(have.estimates - want.estimates) / scale)))
        scale = np.maximum(np.abs(want.variances), 1.0)
        var_err = max(var_err, float(np.max(np.abs(have.variances - want.variances) / scale)))
    record_property("max_estimate_error", est_err)
    record_property("max_variance_error", var_err)
    print(f"serve-bulk scale: max estimate error {est_err:.3g}, max Err(Q) error {var_err:.3g} "
          f"(relative to max(|frontier|, 1))")
