"""Experiments: one module per table/figure, a shared context, and a CLI."""

from .base import ExperimentReport
from .world import (
    ExperimentContext,
    ExperimentScale,
    full_scale,
    get_context,
    quick_scale,
)

__all__ = [
    "ExperimentContext",
    "ExperimentReport",
    "ExperimentScale",
    "full_scale",
    "get_context",
    "quick_scale",
]
