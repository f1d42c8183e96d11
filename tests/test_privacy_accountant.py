"""Tests for the privacy accountant (sequential composition along paths)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.builder import BudgetSplit, build_psd, build_psd_releases
from repro.core.hilbert_rtree import build_private_hilbert_rtree
from repro.core.kdtree import build_private_kdtree
from repro.core.splits import KDSplit, QuadSplit
from repro.data.tiger import road_intersections
from repro.geometry.domain import TIGER_DOMAIN
from repro.privacy import AnalystAccount, PrivacyAccountant, PrivacyCharge
from repro.privacy.accountant import BUDGET_TOLERANCE


class TestPrivacyCharge:
    def test_valid_charge(self):
        c = PrivacyCharge(epsilon=0.1, level=3, kind="median", delta=1e-5)
        assert c.epsilon == 0.1 and c.level == 3 and c.kind == "median"

    def test_rejects_negative_epsilon_or_delta(self):
        with pytest.raises(ValueError):
            PrivacyCharge(epsilon=-0.1, level=0)
        with pytest.raises(ValueError):
            PrivacyCharge(epsilon=0.1, level=0, delta=-1e-9)


class TestPrivacyAccountant:
    def test_requires_positive_budget(self):
        with pytest.raises(ValueError):
            PrivacyAccountant(total_budget=0.0)

    def test_path_epsilon_sums_charges(self):
        acc = PrivacyAccountant(total_budget=1.0)
        acc.charge(0.2, level=2, kind="count")
        acc.charge(0.3, level=1, kind="count")
        acc.charge(0.5, level=0, kind="count")
        assert acc.path_epsilon == pytest.approx(1.0)
        acc.assert_within_budget()

    def test_exceeding_budget_raises(self):
        acc = PrivacyAccountant(total_budget=0.5)
        acc.charge(0.4, level=1)
        acc.charge(0.2, level=0)
        with pytest.raises(ValueError, match="budget exceeded"):
            acc.assert_within_budget()

    def test_small_numerical_overshoot_tolerated(self):
        acc = PrivacyAccountant(total_budget=1.0)
        acc.charge(1.0 + 1e-12, level=0)
        acc.assert_within_budget()

    def test_per_level_and_per_kind_breakdown(self):
        acc = PrivacyAccountant(total_budget=1.0)
        acc.charge(0.1, level=2, kind="median")
        acc.charge(0.2, level=2, kind="count")
        acc.charge(0.3, level=0, kind="count")
        assert acc.per_level == {2: pytest.approx(0.3), 0: pytest.approx(0.3)}
        assert acc.per_kind == {"median": pytest.approx(0.1), "count": pytest.approx(0.5)}

    def test_delta_accumulates(self):
        acc = PrivacyAccountant(total_budget=1.0)
        acc.charge(0.1, level=1, kind="median", delta=1e-4)
        acc.charge(0.1, level=0, kind="median", delta=2e-4)
        assert acc.path_delta == pytest.approx(3e-4)

    def test_remaining(self):
        acc = PrivacyAccountant(total_budget=1.0)
        acc.charge(0.25, level=0)
        assert acc.remaining() == pytest.approx(0.75)

    def test_summary_sorted_root_first(self):
        acc = PrivacyAccountant(total_budget=1.0)
        acc.charge(0.1, level=0, kind="count")
        acc.charge(0.2, level=3, kind="median")
        rows = acc.summary()
        assert rows[0][0] == 3 and rows[-1][0] == 0


# ----------------------------------------------------------------------
# Multi-tenant analyst accounts: charge-or-refuse under contention
# ----------------------------------------------------------------------
class TestAnalystAccount:
    def test_charge_accumulates_and_refuses_at_cap(self):
        account = AnalystAccount("alice", cap=1.0)
        assert account.try_charge(0.4)
        assert account.try_charge(0.6)
        assert not account.try_charge(0.1)  # refusal leaves the account intact
        snap = account.snapshot()
        assert snap["spent"] == pytest.approx(1.0)
        assert snap["charges"] == 2
        assert account.remaining() == pytest.approx(0.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            AnalystAccount("a", cap=0.0)
        with pytest.raises(ValueError):
            AnalystAccount("a", cap=1.0, spent=-0.1)
        account = AnalystAccount("a", cap=1.0)
        with pytest.raises(ValueError):
            account.try_charge(0.0)
        with pytest.raises(ValueError):
            account.try_charge(-0.5)

    def test_resumes_from_prior_spend(self):
        account = AnalystAccount("a", cap=1.0, spent=0.95)
        assert not account.try_charge(0.1)
        assert account.try_charge(0.05)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_concurrent_charges_never_exceed_cap(self, seed):
        """Property: under any thread interleaving, successful charges sum to
        at most the cap (plus numerical tolerance) and exactly match the
        account's recorded spend — the lock-protected charge-or-refuse must
        leave no window between the check and the increment."""
        import threading

        rng = np.random.default_rng(seed)
        cap = 1.0
        account = AnalystAccount("alice", cap=cap)
        n_threads, n_attempts = 8, 40
        # Fixed per-thread charge schedules (drawn up front: the property is
        # about interleaving, not about randomness during the race).
        schedules = [
            [float(e) for e in rng.uniform(0.001, 0.09, size=n_attempts)]
            for _ in range(n_threads)
        ]
        granted: list = [[] for _ in range(n_threads)]
        barrier = threading.Barrier(n_threads)

        def worker(tid):
            barrier.wait()  # maximise contention
            for epsilon in schedules[tid]:
                if account.try_charge(epsilon):
                    granted[tid].append(epsilon)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total_granted = sum(sum(g) for g in granted)
        snap = account.snapshot()
        assert snap["spent"] == pytest.approx(total_granted, abs=1e-12)
        assert snap["spent"] <= cap + BUDGET_TOLERANCE
        assert snap["charges"] == sum(len(g) for g in granted)
        # the cap was actually contended: most of the budget went out the door
        assert snap["spent"] > 0.8 * cap


# ----------------------------------------------------------------------
# The accountant as produced by a full release sweep
# ----------------------------------------------------------------------
HEIGHT = 3
EPSILONS = (0.5, 1.0)
REPETITIONS = 2


@pytest.fixture(scope="module")
def points():
    return road_intersections(n=1_200, rng=np.random.default_rng(0))


class TestAccountantThroughSweep:
    """``build_psd_releases`` must hand every release a faithful ledger.

    The batch pipeline never runs the sequential accountant code path, so its
    reconstructed per-release ledgers (``PSDReleaseBatch._make_accountant``)
    are pinned here: per-kind and per-level breakdowns, path composition, and
    equality with what the equivalent sequential ``build_psd`` records.
    """

    def test_quad_sweep_counts_only(self, points):
        batch = build_psd_releases(points, TIGER_DOMAIN, HEIGHT, QuadSplit(),
                                   EPSILONS, repetitions=REPETITIONS, rng=0)
        release_eps = [e for e in EPSILONS for _ in range(REPETITIONS)]
        assert batch.n_releases == len(release_eps)
        for r, epsilon in enumerate(release_eps):
            acc = batch.release(r).accountant
            # data-independent splits spend nothing on medians
            assert set(acc.per_kind) == {"count"}
            assert acc.per_kind["count"] == pytest.approx(epsilon)
            assert acc.path_epsilon == pytest.approx(epsilon)
            # the geometric strategy funds every level of the tree
            assert set(acc.per_level) == set(range(HEIGHT + 1))
            assert sum(acc.per_level.values()) == pytest.approx(epsilon)
            acc.assert_within_budget()

    def test_quad_release_ledger_matches_sequential_build(self, points):
        batch = build_psd_releases(points, TIGER_DOMAIN, HEIGHT, QuadSplit(),
                                   (0.5,), rng=0)
        sequential = build_psd(points, TIGER_DOMAIN, HEIGHT, QuadSplit(),
                               epsilon=0.5, rng=1)
        got, ref = batch.release(0).accountant, sequential.accountant
        assert got.per_level == pytest.approx(ref.per_level)
        assert got.per_kind == pytest.approx(ref.per_kind)
        assert got.path_epsilon == pytest.approx(ref.path_epsilon)

    def test_kd_sweep_splits_count_and_median_budget(self, points):
        rule = KDSplit(median_method="em")
        batch = build_psd_releases(points, TIGER_DOMAIN, HEIGHT, rule, (1.0,),
                                   repetitions=REPETITIONS,
                                   budget_split=BudgetSplit(count_fraction=0.7), rng=0)
        dd_levels = rule.data_dependent_levels(HEIGHT)
        assert dd_levels, "kd splits must be data dependent"
        median_share = 0.3 / len(dd_levels)
        for r in range(batch.n_releases):
            acc = batch.release(r).accountant
            assert set(acc.per_kind) == {"count", "median"}
            assert acc.per_kind["count"] == pytest.approx(0.7)
            assert acc.per_kind["median"] == pytest.approx(0.3)
            assert acc.path_epsilon == pytest.approx(1.0)
            # the median budget is spread evenly over the splitting levels
            for level in dd_levels:
                assert acc.per_level[level] >= median_share - 1e-12
            acc.assert_within_budget()

    def test_kd_ledger_matches_sequential_build(self, points):
        rule_args = dict(median_method="em")
        split = BudgetSplit(count_fraction=0.7)
        batch = build_psd_releases(points, TIGER_DOMAIN, HEIGHT, KDSplit(**rule_args),
                                   (1.0,), budget_split=split, rng=0)
        sequential = build_psd(points, TIGER_DOMAIN, HEIGHT, KDSplit(**rule_args),
                               epsilon=1.0, budget_split=split, rng=1)
        got, ref = batch.release(0).accountant, sequential.accountant
        assert got.per_level == pytest.approx(ref.per_level)
        assert got.per_kind == pytest.approx(ref.per_kind)


class TestMedianDelta:
    """Smooth-sensitivity medians are (ε, δ)-DP: a release charges δ for every
    median a root-to-leaf path meets on a level with median budget — two per
    kd level (the x-median and one y-median), one per Hilbert level."""

    @pytest.mark.parametrize("method,path_delta", [("ss", 8e-4), ("sss", 8e-6), ("em", 0.0)])
    def test_kd_standard(self, points, method, path_delta):
        psd = build_private_kdtree(points, TIGER_DOMAIN, 4, 0.5, variant="kd-standard",
                                   median_method=method, rng=0)
        assert psd.accountant.path_delta == pytest.approx(path_delta, rel=1e-12, abs=0.0)
        if method == "ss":
            assert psd.accountant.path_delta == 8e-4

    def test_hilbert(self, points):
        tree = build_private_hilbert_rtree(points, TIGER_DOMAIN, height=5, epsilon=0.5,
                                           order=10, median_method="ss", rng=0)
        assert tree.accountant.path_delta == pytest.approx(5e-4, rel=1e-12)

    def test_no_median_budget_no_delta(self, points):
        psd = build_psd(points, TIGER_DOMAIN, HEIGHT, KDSplit(median_method="ss"), epsilon=0.5,
                        budget_split=BudgetSplit(count_fraction=1.0), rng=0)
        assert psd.accountant.path_delta == 0.0
