"""The paper's contribution: private spatial decompositions and their optimisations."""

from .budget import (
    BudgetStrategy,
    CustomBudget,
    GeometricBudget,
    LeafOnlyBudget,
    LevelSkippingBudget,
    UniformBudget,
    geometric_level_epsilons,
    resolve_budget,
    uniform_level_epsilons,
)
from .builder import (
    BudgetSplit,
    PSDReleaseBatch,
    build_psd,
    build_psd_releases,
    populate_noisy_counts,
)

# NB: the raw flat-array mutators (apply_ols_flat, prune_flat) are
# deliberately NOT re-exported: they bypass the compiled-engine invalidation
# that apply_ols / prune_low_count_subtrees perform.  Import them from
# repro.core.flatbuild only if you own the engine lifecycle yourself.
from .flatbuild import (
    FlatTree,
    build_flat_structure,
    ols_beta,
)
from .hilbert_rtree import (
    BinaryMedianSplit,
    build_private_hilbert_rtree,
    build_private_hilbert_rtree_releases,
)
from .kdtree import (
    KDTREE_VARIANTS,
    KDTreeConfig,
    build_private_kdtree,
    build_private_kdtree_releases,
)
from .postprocess import apply_ols, check_consistency
from .pruning import count_pruned_nodes, prune_low_count_subtrees
from .quadtree import (
    QUADTREE_VARIANTS,
    QuadtreeConfig,
    build_private_quadtree,
    build_private_quadtree_releases,
)
from .query import (
    nodes_touched,
    nodes_touched_per_level,
    query_variance,
    range_query,
)
from .serialization import load_psd, psd_from_dict, psd_to_dict, save_psd
from .splits import (
    CellKDSplit,
    HybridSplit,
    KDSplit,
    QuadSplit,
    SplitRule,
)
from .tree import PrivateSpatialDecomposition

__all__ = [
    "PrivateSpatialDecomposition",
    "build_psd",
    "build_psd_releases",
    "PSDReleaseBatch",
    "populate_noisy_counts",
    "FlatTree",
    "build_flat_structure",
    "ols_beta",
    "BudgetSplit",
    "BudgetStrategy",
    "UniformBudget",
    "GeometricBudget",
    "LeafOnlyBudget",
    "LevelSkippingBudget",
    "CustomBudget",
    "resolve_budget",
    "uniform_level_epsilons",
    "geometric_level_epsilons",
    "SplitRule",
    "QuadSplit",
    "KDSplit",
    "HybridSplit",
    "CellKDSplit",
    "apply_ols",
    "check_consistency",
    "prune_low_count_subtrees",
    "count_pruned_nodes",
    "range_query",
    "nodes_touched",
    "nodes_touched_per_level",
    "query_variance",
    "build_private_quadtree",
    "build_private_quadtree_releases",
    "QUADTREE_VARIANTS",
    "QuadtreeConfig",
    "build_private_kdtree",
    "build_private_kdtree_releases",
    "KDTREE_VARIANTS",
    "KDTreeConfig",
    "build_private_hilbert_rtree",
    "build_private_hilbert_rtree_releases",
    "BinaryMedianSplit",
    "psd_to_dict",
    "psd_from_dict",
    "save_psd",
    "load_psd",
]
