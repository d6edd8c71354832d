"""Discovery strategies behind one interface, raced against SRA probing.

:data:`STRATEGIES` names the four built-in strategies (``sra-anycast``,
``random-baseline``, ``entropy-clustered``, ``hitlist-feedback``) — the
``sra-scan --strategy`` choices, raced in sorted-name order;
:func:`build_strategy` instantiates any of them by name against a world,
and :class:`Telescope` observes which of a strategy's probes land in
unallocated space.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .base import DEFAULT_BUDGET, StrategyEpochRow, TargetStrategy, run_strategy_epochs
from .baselines import RandomBaselineStrategy, SRAAnycastStrategy
from .entropy import EntropyClusteredStrategy
from .feedback import HitlistFeedbackStrategy
from .telescope import Telescope, TelescopeReport

if TYPE_CHECKING:
    from ...topology.entities import World

STRATEGIES: dict[str, type[TargetStrategy]] = {
    cls.name: cls
    for cls in (
        SRAAnycastStrategy,
        RandomBaselineStrategy,
        EntropyClusteredStrategy,
        HitlistFeedbackStrategy,
    )
}


def build_strategy(
    name: str,
    world: World,
    *,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
    **kwargs,
) -> TargetStrategy:
    """Instantiate the strategy ``name`` against a world."""
    try:
        cls = STRATEGIES[name]
    except KeyError:
        raise ValueError(
            f"unknown strategy {name!r}; "
            f"choose from {', '.join(sorted(STRATEGIES))}"
        ) from None
    return cls(world, seed=seed, budget=budget, **kwargs)


__all__ = [
    "STRATEGIES",
    "EntropyClusteredStrategy",
    "HitlistFeedbackStrategy",
    "RandomBaselineStrategy",
    "SRAAnycastStrategy",
    "StrategyEpochRow",
    "TargetStrategy",
    "Telescope",
    "TelescopeReport",
    "build_strategy",
    "run_strategy_epochs",
]
