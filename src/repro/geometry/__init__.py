"""Geometric substrate: rectangles, domains and the Hilbert curve."""

from .domain import TIGER_DOMAIN, UNIT_DOMAIN_2D, Domain
from .hilbert import HilbertCurve
from .rect import Rect, bounding_rect

__all__ = [
    "Rect",
    "bounding_rect",
    "Domain",
    "TIGER_DOMAIN",
    "UNIT_DOMAIN_2D",
    "HilbertCurve",
]
