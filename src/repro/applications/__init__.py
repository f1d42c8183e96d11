"""Applications built on top of private spatial decompositions."""

from .cbf import (
    CBFBlockingResult,
    CountingBloomFilter,
    cbf_blocking,
    cbf_candidate_cells,
    party_filter,
)
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
    "CBFBlockingResult",
    "CountingBloomFilter",
    "MatchingOutcome",
    "blocking_from_engine",
    "blocking_from_psd",
    "build_blocking_tree",
    "cbf_blocking",
    "cbf_candidate_cells",
    "party_filter",
    "record_matching_experiment",
]
