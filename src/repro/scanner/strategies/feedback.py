"""Hitlist-seeded scanning with per-epoch feedback (Gasser et al.).

Epoch 0 probes the community hitlist's /64 SRA population — the highest
yield input the paper found.  Between epochs the strategy runs the scan
records through the hitlist-contribution acceptance rule
(:func:`repro.analysis.hitlist_feedback.contributing_prefixes`): Echo
sources that are not aliased mark their covering /48 as *contributing*.
Later windows spend most of the budget expanding random /64s inside
contributing prefixes — the "a live router implies a populated region"
feedback loop — and re-probe hitlist seeds with whatever budget is left.

Expansion draws are seeded per ``(seed, epoch, prefix)`` with string
seeding (hash-independent), so a window is a deterministic function of
the feedback state alone: a crash-resumed epoch that reproduces the same
records reconstructs the identical next window.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from ...analysis.hitlist_feedback import contributing_prefixes
from ...datasets.tum import published_alias_list
from .baselines import _HitlistSeededStrategy

if TYPE_CHECKING:
    from ...hitlist.aliases import AliasedPrefixList
    from ...topology.entities import World

__all__ = ["HitlistFeedbackStrategy"]

SUBNET_ID_SPACE = 1 << 16  # /64s under one /48


class HitlistFeedbackStrategy(_HitlistSeededStrategy):
    """Hitlist seeds, then expansion around contributing /48 prefixes."""

    name = "hitlist-feedback"

    def __init__(
        self,
        world: "World",
        *,
        seed: int = 0,
        budget: int = 10_000,
        per_prefix: int = 32,
    ) -> None:
        super().__init__(world, seed=seed, budget=budget)
        if per_prefix < 1:
            raise ValueError(f"per_prefix must be >= 1, got {per_prefix}")
        self.per_prefix = per_prefix
        self._aliases: "AliasedPrefixList | None" = None
        self._contributing: set[int] = set()  # /48 networks

    # -- feedback -- #

    def observe(self, records) -> None:
        if self._aliases is None:
            self._aliases = published_alias_list(self.world)
        self._contributing.update(
            contributing_prefixes(
                records, prefix_length=48, alias_list=self._aliases
            )
        )

    def feedback_state(self) -> tuple:
        return tuple(sorted(self._contributing))

    def restore(self, state: tuple) -> None:
        self._contributing = set(state)

    # -- window generation -- #

    def targets_for(self, epoch: int) -> list[int]:
        if epoch == 0 or not self._contributing:
            return self._window_list(self._seeds())
        return self._window_list(self._expansion(epoch))

    def _expansion(self, epoch: int):
        # Exploration is capped at half the budget: random /64s under a
        # contributing /48 are mostly empty, so a window of only them
        # would flatline the yield — the other half re-probes the
        # known-good seeds (the _window_list dedup drops any /64 the
        # expansion already chose).
        cap = self.budget // 2
        emitted = 0
        for network in sorted(self._contributing):
            if emitted >= cap:
                break
            rng = random.Random(f"{self.seed}:{epoch}:{network}")
            count = min(self.per_prefix, SUBNET_ID_SPACE)
            for sid in sorted(rng.sample(range(SUBNET_ID_SPACE), count)):
                if emitted >= cap:
                    break
                yield network | (sid << 64)
                emitted += 1
        yield from self._seeds()
