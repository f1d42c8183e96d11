"""Tests for the private record-matching application (Section 8.3)."""

from __future__ import annotations

import multiprocessing
import os
import sys

import numpy as np
import pytest

from repro.applications import (
    BlockingResult,
    MatchingOutcome,
    blocking_from_engine,
    blocking_from_psd,
    blocking_reference,
    build_blocking_tree,
    record_matching_experiment,
)
from repro.data import gaussian_cluster_points
from repro.engine.points import CellJoinIndex, PointGrid, matching_cell_layout
from repro.geometry import Domain
from repro.parallel import matching as matching_mod
from repro.parallel.matching import _score_chunk

#: Marker file claimed by the one worker that :func:`_kill_first_chunk` kills;
#: set per test before the pool forks, so its workers inherit it.
_KILL_MARKER = ""


def _kill_first_chunk(state, start, stop):  # module-level: pickled by name
    """Hard-exit the first pool worker to score a chunk; score normally after."""
    if multiprocessing.parent_process() is not None:
        try:
            os.close(os.open(_KILL_MARKER, os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            pass
        else:
            os._exit(1)
    return _score_chunk(state, start, stop)


@pytest.fixture(scope="module")
def domain():
    return Domain.unit(2)


@pytest.fixture(scope="module")
def parties(domain):
    rng = np.random.default_rng(41)
    holders = gaussian_cluster_points(3_000, domain, n_clusters=5, spread=0.04, rng=rng)
    # Half of party B are near-duplicates of party A records (true matches).
    near = holders[rng.integers(0, holders.shape[0], 1_500)] + rng.normal(scale=0.002, size=(1_500, 2))
    fresh = gaussian_cluster_points(1_500, domain, n_clusters=5, spread=0.04, rng=rng)
    seekers = domain.clip_points(np.concatenate([near, fresh]))
    return holders, seekers


class TestBuildBlockingTree:
    @pytest.mark.parametrize("method", ["quad-baseline", "kd-noisymean", "kd-standard"])
    def test_leaf_only_budget_and_no_postprocessing(self, domain, parties, method):
        holders, _ = parties
        psd = build_blocking_tree(holders, domain, height=4, epsilon=0.3, method=method, rng=1)
        assert psd.count_epsilons[0] == pytest.approx(
            0.3 if method == "quad-baseline" else 0.3 * 0.7
        )
        assert all(e == 0.0 for e in psd.count_epsilons[1:])
        assert all(n.post_count is None for n in psd.nodes())
        psd.accountant.assert_within_budget()

    def test_unknown_method(self, domain, parties):
        with pytest.raises(KeyError):
            build_blocking_tree(parties[0], domain, 4, 0.3, method="rtree")


class TestBlockingFromPsd:
    def test_result_fields_valid(self, domain, parties):
        holders, seekers = parties
        psd = build_blocking_tree(holders, domain, height=4, epsilon=0.5, method="kd-standard", rng=2)
        result = blocking_from_psd(psd, holders, seekers, matching_distance=0.01)
        assert isinstance(result, BlockingResult)
        assert 0.0 <= result.reduction_ratio <= 1.0
        assert 0.0 <= result.pairs_completeness <= 1.0
        assert result.total_pairs == holders.shape[0] * seekers.shape[0]
        assert 0 <= result.candidate_pairs
        assert result.surviving_leaves <= len(psd.leaves())

    def test_blocking_actually_reduces_work(self, domain, parties):
        holders, seekers = parties
        psd = build_blocking_tree(holders, domain, height=4, epsilon=0.5, method="kd-standard", rng=3)
        result = blocking_from_psd(psd, holders, seekers, matching_distance=0.01)
        assert result.reduction_ratio > 0.3
        assert result.pairs_completeness > 0.7

    def test_empty_parties(self, domain, parties):
        holders, _ = parties
        psd = build_blocking_tree(holders, domain, height=3, epsilon=0.5, method="kd-standard", rng=4)
        result = blocking_from_psd(psd, holders, np.empty((0, 2)), matching_distance=0.01)
        assert result.total_pairs == 0
        assert result.reduction_ratio == 1.0

    def test_rejects_bad_shapes(self, domain, parties):
        holders, seekers = parties
        psd = build_blocking_tree(holders, domain, height=3, epsilon=0.5, method="kd-standard", rng=5)
        with pytest.raises(ValueError):
            blocking_from_psd(psd, holders.ravel(), seekers, matching_distance=0.01)

    def test_larger_budget_improves_reduction(self, domain, parties):
        holders, seekers = parties
        results = {}
        for eps in (0.05, 1.0):
            psd = build_blocking_tree(holders, domain, height=5, epsilon=eps, method="kd-standard", rng=6)
            results[eps] = blocking_from_psd(psd, holders, seekers, matching_distance=0.01)
        assert results[1.0].reduction_ratio >= results[0.05].reduction_ratio - 0.02


class TestFastScorerParity:
    """The vectorised engine path must reproduce the seed-era loop bitwise."""

    @pytest.mark.parametrize("method,epsilon,threshold,distance", [
        ("quad-baseline", 0.1, 0.0, 0.05),
        ("kd-noisymean", 0.3, 0.0, 0.02),
        ("kd-standard", 0.5, 0.0, 0.01),
        ("kd-standard", 0.05, 2.0, 0.1),
        ("quad-baseline", 0.5, -5.0, 0.0),
    ])
    def test_engine_matches_reference(self, domain, parties, method, epsilon, threshold, distance):
        holders, seekers = parties
        psd = build_blocking_tree(holders, domain, height=4, epsilon=epsilon, method=method, rng=9)
        engine = psd.compile()
        fast = blocking_from_engine(engine, holders, seekers, distance, count_threshold=threshold)
        ref = blocking_reference(psd, holders, seekers, distance, count_threshold=threshold)
        assert fast == ref  # exact, field for field

    def test_workers_bitwise_parity(self, domain, parties):
        holders, seekers = parties
        psd = build_blocking_tree(holders, domain, height=4, epsilon=0.5, rng=10)
        engine = psd.compile()
        one = blocking_from_engine(engine, holders, seekers, 0.01, workers=1)
        # Small chunks force many tasks; results must not depend on either.
        many = blocking_from_engine(engine, holders, seekers, 0.01, workers=2, seeker_chunk=257)
        assert one == many

    def test_worker_kill_keeps_partials_bitwise(self, domain, parties, tmp_path, monkeypatch):
        holders, seekers = parties
        engine = build_blocking_tree(holders, domain, height=4, epsilon=0.5, rng=10).compile()
        leaves = engine.is_leaf & engine.has_count
        lo, hi = engine.lo[leaves], engine.hi[leaves]
        origin, side, extents = matching_cell_layout(holders, seekers, 0.01)
        args = (lo - 0.01, hi + 0.01, CellJoinIndex.build(holders, origin, side, extents),
                seekers, 0.01, PointGrid.build(holders).mask_in_rects(lo, hi))
        one = matching_mod.score_seeker_chunks(*args, workers=1, chunk=257)
        marker = tmp_path / "killed"
        monkeypatch.setattr(sys.modules[__name__], "_KILL_MARKER", str(marker))
        monkeypatch.setattr(matching_mod, "_score_chunk", _kill_first_chunk)
        two = matching_mod.score_seeker_chunks(*args, workers=2, chunk=257)
        assert marker.exists()  # a worker really died mid-run
        assert two[0].dtype == np.int64
        assert np.array_equal(two[0], one[0])
        assert two[1:] == one[1:]

    def test_empty_seekers_through_engine(self, domain, parties):
        holders, _ = parties
        psd = build_blocking_tree(holders, domain, height=3, epsilon=0.5, rng=11)
        result = blocking_from_engine(psd.compile(), holders, np.empty((0, 2)), 0.01)
        assert result == BlockingResult(1.0, 0, 0, 1.0, 0)


class TestExperimentSweep:
    def test_sweep_structure(self, domain, parties):
        holders, seekers = parties
        out = record_matching_experiment(holders, seekers, domain, epsilons=(0.1, 0.3),
                                         height=4, matching_distance=0.01,
                                         methods=("kd-standard", "kd-noisymean"), rng=7)
        assert [(row.method, row.epsilon) for row in out] == [
            ("kd-standard", 0.1), ("kd-noisymean", 0.1),
            ("kd-standard", 0.3), ("kd-noisymean", 0.3),
        ]
        for row in out:
            assert isinstance(row, MatchingOutcome)
            assert isinstance(row.result, BlockingResult)

    def test_kd_standard_beats_noisymean_on_average(self, domain, parties):
        holders, seekers = parties
        out = record_matching_experiment(holders, seekers, domain, epsilons=(0.1, 0.3, 0.5),
                                         height=4, matching_distance=0.01,
                                         methods=("kd-standard", "kd-noisymean"), rng=8)
        mean_rr = {}
        for row in out:
            mean_rr.setdefault(row.method, []).append(row.result.reduction_ratio)
        assert np.mean(mean_rr["kd-standard"]) > np.mean(mean_rr["kd-noisymean"]) - 0.05

    def test_method_order_is_irrelevant(self, domain, parties):
        """Each (epsilon, method) pair owns a spawned stream: reordering the
        sweep must not change any pair's released bits."""
        holders, seekers = parties
        kwargs = dict(epsilons=(0.1, 0.3), height=4, matching_distance=0.01, rng=12)
        forward = record_matching_experiment(
            holders, seekers, domain, methods=("kd-standard", "kd-noisymean", "quad-baseline"),
            **kwargs)
        backward = record_matching_experiment(
            holders, seekers, domain, methods=("quad-baseline", "kd-noisymean", "kd-standard"),
            **kwargs)
        by_pair = lambda rows: {(r.method, r.epsilon): r.result for r in rows}  # noqa: E731
        assert by_pair(forward) == by_pair(backward)

    def test_epsilon_order_is_irrelevant(self, domain, parties):
        holders, seekers = parties
        kwargs = dict(height=4, matching_distance=0.01, methods=("kd-standard",), rng=13)
        forward = record_matching_experiment(holders, seekers, domain, epsilons=(0.1, 0.5), **kwargs)
        backward = record_matching_experiment(holders, seekers, domain, epsilons=(0.5, 0.1), **kwargs)
        by_pair = lambda rows: {(r.method, r.epsilon): r.result for r in rows}  # noqa: E731
        assert by_pair(forward) == by_pair(backward)

    def test_duplicate_methods_keep_one_row_each(self, domain, parties):
        """``methods=("kd", "kd")`` used to collapse through a dict; now every
        occurrence yields its own row, the first identical to a solo run."""
        holders, seekers = parties
        kwargs = dict(epsilons=(0.3,), height=4, matching_distance=0.01, rng=14)
        doubled = record_matching_experiment(
            holders, seekers, domain, methods=("kd-standard", "kd-standard"), **kwargs)
        solo = record_matching_experiment(
            holders, seekers, domain, methods=("kd-standard",), **kwargs)
        assert len(doubled) == 2
        assert doubled[0].result == solo[0].result
        # The second occurrence continues the pair's stream: deterministic,
        # but an independent repetition (a fresh noisy tree).
        again = record_matching_experiment(
            holders, seekers, domain, methods=("kd-standard", "kd-standard"), **kwargs)
        assert [row.result for row in doubled] == [row.result for row in again]

    def test_reference_scorer_matches_fast(self, domain, parties):
        holders, seekers = parties
        kwargs = dict(epsilons=(0.3,), height=4, matching_distance=0.01,
                      methods=("kd-standard", "quad-baseline"), rng=15)
        fast = record_matching_experiment(holders, seekers, domain, scorer="fast", **kwargs)
        ref = record_matching_experiment(holders, seekers, domain, scorer="reference", **kwargs)
        assert fast == ref

    def test_unknown_scorer_rejected(self, domain, parties):
        holders, seekers = parties
        with pytest.raises(ValueError):
            record_matching_experiment(holders, seekers, domain, epsilons=(0.3,), scorer="turbo")
