"""A simulated network telescope watching the scanners themselves.

"Glowing in the Dark" showed that IPv6 scanners are visible from
unrouted address space: probes that fall outside announced BGP prefixes
land in the dark, where a telescope operator — not a router — answers
the question "who is scanning, and how indiscriminately?".

The simulation inverts the paper's vantage point: instead of running a
telescope network, it classifies each strategy's probe windows against
the world's BGP table.  Probes whose longest-prefix match fails are
*dark* — a real telescope would have captured them, and (more
practically for the race) they are probes the budget spent on provably
empty space.  The dark share is therefore both a detectability score
and an efficiency penalty, reported per strategy in the comparison
table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    from ...topology.entities import World

__all__ = ["Telescope", "TelescopeReport"]

@dataclass(slots=True)
class TelescopeReport:
    """What the telescope saw of one strategy window."""

    strategy: str
    epoch: int
    probes: int = 0
    routed: int = 0
    dark: int = 0

    @property
    def dark_share(self) -> float:
        return self.dark / self.probes if self.probes else 0.0


class Telescope:
    """Classify probe targets as routed vs dark against a BGP table."""

    def __init__(self, world: "World") -> None:
        self._bgp = world.bgp

    def observe_window(
        self, targets: Iterable[int], *, strategy: str, epoch: int
    ) -> TelescopeReport:
        """One window's routed/dark split."""
        report = TelescopeReport(strategy=strategy, epoch=epoch)
        is_routed = self._bgp.is_routed
        for target in targets:
            report.probes += 1
            if is_routed(target):
                report.routed += 1
            else:
                report.dark += 1
        return report
