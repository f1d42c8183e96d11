"""Fixed-resolution grids: the fine-grid strawman and the cell-based kd-tree's noisy grid."""

from .grid import NoisyGrid, UniformGrid

__all__ = [
    "UniformGrid",
    "NoisyGrid",
]
