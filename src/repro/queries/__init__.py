"""Query workloads and accuracy metrics."""

from .metrics import (
    mean_relative_error,
    median_relative_error,
    relative_error,
    relative_errors,
    workload_error_summary,
)
from .workload import (
    KD_QUERY_SHAPES,
    PAPER_QUERY_SHAPES,
    QueryShape,
    QueryWorkload,
    generate_workload,
    random_query_rects,
)

__all__ = [
    "QueryShape",
    "QueryWorkload",
    "generate_workload",
    "random_query_rects",
    "PAPER_QUERY_SHAPES",
    "KD_QUERY_SHAPES",
    "relative_error",
    "relative_errors",
    "median_relative_error",
    "mean_relative_error",
    "workload_error_summary",
]
