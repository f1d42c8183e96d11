"""repro — a full reproduction of "Differentially Private Spatial Decompositions".

Cormode, Procopiuc, Srivastava, Shen, Yu — ICDE 2012.

The package is organised as:

* :mod:`repro.geometry` — rectangles, domains, the Hilbert curve;
* :mod:`repro.privacy` — Laplace noise, private medians (with their
  sampled forms), privacy accounting;
* :mod:`repro.index` — fixed-resolution grids (the fine-grid strawman and
  the noisy grid behind the cell-based kd-tree);
* :mod:`repro.data` — synthetic datasets, including the TIGER-like generator;
* :mod:`repro.queries` — range-query workloads and accuracy metrics;
* :mod:`repro.core` — the paper's contribution: private spatial
  decompositions, budget strategies, OLS post-processing, pruning;
* :mod:`repro.engine` — the compiled flat-array query engine for serving
  released PSDs (vectorised batch queries, FLATPSD2 files);
* :mod:`repro.analysis` — the analytical error bounds of Section 4;
* :mod:`repro.applications` — the private record-matching application;
* :mod:`repro.experiments` — runners reproducing every figure of Section 8.

Quick start::

    import numpy as np
    from repro import TIGER_DOMAIN, build_private_quadtree, road_intersections

    points = road_intersections(n=100_000, rng=0)
    psd = build_private_quadtree(points, TIGER_DOMAIN, height=8, epsilon=0.5, rng=1)
    query = TIGER_DOMAIN.query_rect(center=(-120.0, 47.5), extents=(1.0, 1.0))
    print(psd.range_query(query))
"""

from .core import (
    KDTREE_VARIANTS,
    QUADTREE_VARIANTS,
    PrivateSpatialDecomposition,
    build_private_hilbert_rtree,
    build_private_kdtree,
    build_private_quadtree,
    build_psd,
)
from .data import TIGER_DOMAIN, road_intersections
from .engine import FlatPSD, batch_range_query, compile_psd
from .geometry import Domain, Rect
from .queries import PAPER_QUERY_SHAPES, QueryShape, generate_workload

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "PrivateSpatialDecomposition",
    "build_psd",
    "build_private_quadtree",
    "build_private_kdtree",
    "build_private_hilbert_rtree",
    "QUADTREE_VARIANTS",
    "KDTREE_VARIANTS",
    "Domain",
    "Rect",
    "TIGER_DOMAIN",
    "road_intersections",
    "QueryShape",
    "generate_workload",
    "PAPER_QUERY_SHAPES",
    "FlatPSD",
    "compile_psd",
    "batch_range_query",
]
