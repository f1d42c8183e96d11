"""Tests for the budget strategies of Section 4."""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import optimal_geometric_epsilons
from repro.core.budget import (
    CustomBudget,
    GeometricBudget,
    LeafOnlyBudget,
    LevelSkippingBudget,
    UniformBudget,
    geometric_level_epsilons,
    resolve_budget,
    uniform_level_epsilons,
)
from repro.core.builder import build_psd, build_psd_releases
from repro.core.kdtree import build_private_kdtree
from repro.core.splits import KDSplit, QuadSplit
from repro.data import road_intersections, uniform_points
from repro.geometry import TIGER_DOMAIN, Domain

HEIGHT = 8
EPSILON = 0.5


class TestUniformBudget:
    def test_equal_shares_summing_to_epsilon(self):
        eps = UniformBudget().validate(HEIGHT, EPSILON)
        assert len(eps) == HEIGHT + 1
        assert all(e == pytest.approx(EPSILON / (HEIGHT + 1)) for e in eps)
        assert sum(eps) == pytest.approx(EPSILON)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            uniform_level_epsilons(-1, 1.0)
        with pytest.raises(ValueError):
            uniform_level_epsilons(3, 0.0)


class TestGeometricBudget:
    def test_sums_to_epsilon(self):
        eps = GeometricBudget().validate(HEIGHT, EPSILON)
        assert sum(eps) == pytest.approx(EPSILON)

    def test_increases_towards_leaves(self):
        eps = geometric_level_epsilons(HEIGHT, EPSILON)
        # eps[0] is the leaf level and must be the largest.
        assert all(eps[i] > eps[i + 1] for i in range(HEIGHT))

    def test_ratio_between_adjacent_levels(self):
        eps = geometric_level_epsilons(HEIGHT, EPSILON)
        for i in range(HEIGHT):
            assert eps[i] / eps[i + 1] == pytest.approx(2 ** (1 / 3))

    def test_matches_lemma3_closed_form(self):
        assert np.allclose(geometric_level_epsilons(HEIGHT, EPSILON),
                           optimal_geometric_epsilons(HEIGHT, EPSILON))

    def test_custom_ratio(self):
        eps = GeometricBudget(ratio=2.0).allocate(4, 1.0)
        assert eps[0] / eps[1] == pytest.approx(2.0)
        assert sum(eps) == pytest.approx(1.0)

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            GeometricBudget(ratio=1.0).allocate(4, 1.0)

    def test_height_zero(self):
        assert geometric_level_epsilons(0, 0.3) == (pytest.approx(0.3),)


class TestLeafOnlyBudget:
    def test_all_on_leaves(self):
        eps = LeafOnlyBudget().validate(HEIGHT, EPSILON)
        assert eps[0] == pytest.approx(EPSILON)
        assert all(e == 0.0 for e in eps[1:])


class TestLevelSkippingBudget:
    def test_alternate_levels_get_zero(self):
        eps = LevelSkippingBudget(stride=2).validate(6, 1.0)
        released = [i for i, e in enumerate(eps) if e > 0]
        assert 0 in released
        assert 6 in released
        assert sum(eps) == pytest.approx(1.0)
        assert len(released) < 7

    def test_stride_one_is_every_level(self):
        eps = LevelSkippingBudget(stride=1).validate(4, 1.0)
        assert all(e > 0 for e in eps)

    def test_invalid_stride(self):
        with pytest.raises(ValueError):
            LevelSkippingBudget(stride=0).allocate(4, 1.0)


class TestCustomBudget:
    def test_weights_normalised(self):
        eps = CustomBudget(weights=(1.0, 1.0, 2.0)).validate(2, 1.0)
        assert eps == (pytest.approx(0.25), pytest.approx(0.25), pytest.approx(0.5))

    def test_wrong_length_or_negative(self):
        with pytest.raises(ValueError):
            CustomBudget(weights=(1.0, 1.0)).allocate(2, 1.0)
        with pytest.raises(ValueError):
            CustomBudget(weights=(1.0, -1.0, 1.0)).allocate(2, 1.0)
        with pytest.raises(ValueError):
            CustomBudget(weights=(0.0, 0.0, 0.0)).allocate(2, 1.0)


class TestResolveBudget:
    def test_by_name(self):
        assert isinstance(resolve_budget("uniform"), UniformBudget)
        assert isinstance(resolve_budget("geometric"), GeometricBudget)
        assert isinstance(resolve_budget("leaf-only"), LeafOnlyBudget)

    def test_instance_passthrough(self):
        strategy = GeometricBudget(ratio=1.5)
        assert resolve_budget(strategy) is strategy

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            resolve_budget("quadratic")


class TestBudgetProperties:
    @given(st.integers(0, 14), st.floats(0.01, 10.0),
           st.sampled_from(["uniform", "geometric", "leaf-only"]))
    @settings(max_examples=80, deadline=None)
    def test_every_strategy_sums_to_epsilon(self, height, epsilon, name):
        """The composition constraint: per-level budgets always sum to the total."""
        eps = resolve_budget(name).validate(height, epsilon)
        assert len(eps) == height + 1
        assert all(e >= 0 for e in eps)
        assert sum(eps) == pytest.approx(epsilon, rel=1e-9)

    @given(st.integers(1, 14), st.floats(0.01, 10.0))
    @settings(max_examples=50, deadline=None)
    def test_geometric_dominates_uniform_at_leaves(self, height, epsilon):
        """The geometric allocation always gives leaves more budget than uniform does."""
        geo = geometric_level_epsilons(height, epsilon)
        uni = uniform_level_epsilons(height, epsilon)
        assert geo[0] > uni[0]
        assert geo[height] < uni[height]


# ----------------------------------------------------------------------
# Budgets too small for floating point
# ----------------------------------------------------------------------
class TestUnrepresentableBudgets:
    """A total budget so small that a funded level's share is zero, its
    Laplace scale ``1 / eps_i`` overflows or (under OLS) its weight
    ``eps_i ** 2`` underflows is refused before the generator is touched."""

    DOMAIN = Domain.unit(2)
    POINTS = uniform_points(200, Domain.unit(2), rng=np.random.default_rng(8))

    @pytest.mark.parametrize("split,epsilon,postprocess,reason", [
        (QuadSplit(), 5e-324, False, "is zero"),
        (QuadSplit(), 1e-310, False, "Laplace scale 1/eps_i that overflows"),
        (QuadSplit(), 1e-200, True, "eps_i\\*\\*2 that underflows"),
        (KDSplit(), 1e-300, True, "eps_i\\*\\*2 that underflows"),
    ])
    def test_refused_before_any_draw(self, split, epsilon, postprocess, reason):
        gen = np.random.default_rng(5)
        state = copy.deepcopy(gen.bit_generator.state)
        with pytest.raises(ValueError, match=f"too small for floating point.*{reason}"):
            build_psd(self.POINTS, self.DOMAIN, 4, split, epsilon=epsilon,
                      postprocess=postprocess, rng=gen)
        assert gen.bit_generator.state == state

    def test_one_tiny_epsilon_refuses_the_batch(self):
        gen = np.random.default_rng(6)
        state = copy.deepcopy(gen.bit_generator.state)
        with pytest.raises(ValueError, match="epsilon 1e-310 is too small"):
            build_psd_releases(self.POINTS, self.DOMAIN, 3, QuadSplit(), (0.5, 1e-310),
                               rng=gen)
        assert gen.bit_generator.state == state

    def test_levels_the_strategy_leaves_unfunded_are_not_refused(self):
        psd = build_psd(self.POINTS, self.DOMAIN, 3, QuadSplit(), epsilon=1e-160,
                        count_budget="leaf-only", postprocess=True, rng=0)
        assert np.all(np.isfinite(psd.compile().released))

    @pytest.mark.parametrize("epsilon,postprocess", [(1e-160, True), (1e-200, False)])
    def test_smallest_workable_budgets_still_build(self, epsilon, postprocess):
        psd = build_psd(self.POINTS, self.DOMAIN, 4, QuadSplit(), epsilon=epsilon,
                        postprocess=postprocess, rng=0)
        assert np.all(np.isfinite(psd.compile().released))

    @pytest.mark.parametrize("variant,median_method,budget", [
        ("kd-noisymean", None, "median budget"),
        ("kd-noisymean", "cell", "median budget"),
        ("kd-noisymean", "ss", "median budget"),
        ("kd-cell", None, "grid budget"),
    ])
    def test_median_budget_too_small_is_refused(self, variant, median_method, budget):
        """Noisy-mean, cell and smooth-sensitivity medians overflow their
        Laplace scale at this budget and used to release nan or infinite
        node bounds, or (smooth sensitivity) zero-width nodes at the domain
        edges its clamp made of infinite splits."""
        with pytest.raises(ValueError, match=f"1e-306 is too small for floating point: the {budget}"), \
                np.errstate(over="ignore", invalid="ignore"):
            build_private_kdtree(road_intersections(n=2000, rng=1), TIGER_DOMAIN, 4, 1e-306,
                                 variant=variant, median_method=median_method,
                                 postprocess=False, rng=2)

    def test_em_median_at_the_same_budget_still_builds(self):
        psd = build_private_kdtree(road_intersections(n=2000, rng=1), TIGER_DOMAIN, 4, 1e-306,
                                   variant="kd-standard", postprocess=False, rng=2)
        assert np.isfinite(psd.flat_tree.lo).all() and np.isfinite(psd.flat_tree.hi).all()
