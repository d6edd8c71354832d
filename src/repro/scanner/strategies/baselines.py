"""The two ends of the comparison: SRA probing and random probing.

``sra-anycast`` is the paper's own method packaged as a strategy: probe
the subnet-router anycast (``::``) address of every hitlist-derived /64.
``random-baseline`` probes the *same* /64 population but draws one
random in-subnet address per subnet per epoch — the Fig. 5 control,
wrapped in the lazy per-epoch stream the campaign code already uses.
Both are static (no feedback), so the race's adaptive strategies are
measured against fixed goalposts.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from ...addr.randomgen import random_targets_for_sras
from ...datasets.tum import harvest_hitlist
from ..stream import LazyStream, TargetStream
from ..targets import hitlist_slash64_targets
from .base import TargetStrategy

if TYPE_CHECKING:
    from ...topology.entities import World

__all__ = ["RandomBaselineStrategy", "SRAAnycastStrategy"]


class _HitlistSeededStrategy(TargetStrategy):
    """Shared seeding: the budgeted /64 SRA population of the world's
    hitlist service.  Harvesting is deterministic per world, so two
    instances agree exactly."""

    def __init__(self, world: "World", *, seed: int = 0, budget: int = 10_000):
        super().__init__(world, seed=seed, budget=budget)
        self._seed_targets: list[int] | None = None

    def _seeds(self) -> list[int]:
        if self._seed_targets is None:
            hitlist = harvest_hitlist(self.world)
            self._seed_targets = hitlist_slash64_targets(
                hitlist, max_targets=self.budget
            ).targets
        return self._seed_targets


class SRAAnycastStrategy(_HitlistSeededStrategy):
    """Probe each /64's subnet-router anycast address, every epoch.

    The window is epoch-invariant by design: SRA probing's value per the
    paper is *stability* probing of the same subnet population, and the
    race's overlap column measures exactly that.
    """

    name = "sra-anycast"

    def targets_for(self, epoch: int) -> list[int]:
        return self._window_list(self._seeds())


class RandomBaselineStrategy(_HitlistSeededStrategy):
    """One random in-subnet address per /64 per epoch (Fig. 5 control)."""

    name = "random-baseline"

    def targets_for(self, epoch: int) -> list[int]:
        return self._window_list(
            random_targets_for_sras(self._seeds(), 64, self._rng(epoch))
        )

    def window(self, epoch: int) -> TargetStream:
        # Lazy like the Fig. 5 campaign stream: the epoch's random draw
        # is realised on first access and can be released after the scan.
        rng = self._rng(epoch)
        return LazyStream(
            lambda: self._window_list(
                random_targets_for_sras(self._seeds(), 64, rng)
            ),
            name=f"{self.name}@e{epoch}",
            subnet_length=self.subnet_length,
        )

    def _rng(self, epoch: int) -> random.Random:
        return random.Random((self.seed << 8) | epoch)
