"""Applications built on top of private spatial decompositions."""

from .record_matching import (
    BlockingResult,
    MatchingOutcome,
    blocking_from_engine,
    blocking_from_psd,
    build_blocking_tree,
    record_matching_experiment,
)

__all__ = [
    "BlockingResult",
    "MatchingOutcome",
    "blocking_from_engine",
    "blocking_from_psd",
    "build_blocking_tree",
    "record_matching_experiment",
]
