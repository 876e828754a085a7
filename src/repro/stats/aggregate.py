"""Aggregation of per-workload metrics across a workload set."""

from typing import Iterable


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of positive values (used for speedup aggregation)."""
    vals = list(values)
    if not vals:
        return 0.0
    product = 1.0
    for v in vals:
        if v <= 0:
            raise ValueError("geometric mean requires positive values")
        product *= v
    return product ** (1.0 / len(vals))
