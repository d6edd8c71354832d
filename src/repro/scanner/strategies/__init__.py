"""Discovery strategies behind one interface, raced against SRA probing.

Importing the package registers the four built-in strategies
(``sra-anycast``, ``random-baseline``, ``entropy-clustered``,
``hitlist-feedback``); :func:`build_strategy` instantiates any of them
by name against a world, and :class:`Telescope` observes which of a
strategy's probes land in unallocated space.
"""

from .base import (
    StrategyEpochRow,
    TargetStrategy,
    build_strategy,
    register_strategy,
    run_strategy_epochs,
    strategy_names,
)
from .baselines import RandomBaselineStrategy, SRAAnycastStrategy
from .entropy import EntropyClusteredStrategy
from .feedback import HitlistFeedbackStrategy
from .telescope import Telescope, TelescopeReport

__all__ = [
    "EntropyClusteredStrategy",
    "HitlistFeedbackStrategy",
    "RandomBaselineStrategy",
    "SRAAnycastStrategy",
    "StrategyEpochRow",
    "TargetStrategy",
    "Telescope",
    "TelescopeReport",
    "build_strategy",
    "register_strategy",
    "run_strategy_epochs",
    "strategy_names",
]
