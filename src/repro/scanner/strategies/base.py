"""Pluggable discovery strategies: one interface over many generators.

The paper's core claim is comparative — subnet-router anycast probing
discovers periphery routers that *other* IPv6 scanning strategies miss.
Testing that fairly requires every strategy behind one interface so the
race harness (:mod:`repro.experiments.strategy_race`) can hold the
world, the probe budget and the scan substrate constant while varying
only target generation.

A :class:`TargetStrategy` produces one :class:`~repro.scanner.stream.TargetStream`
per epoch (its *window*).  Windows ride the existing stream machinery
unchanged: they are index-seekable (so :func:`shard_positions` tiles
them), carry provenance (name, subnet length), and cross a process pool
as the targets they hold.

Feedback-driven strategies implement :meth:`TargetStrategy.observe`:
the race feeds each epoch's merged :class:`ScanResult` back before asking
for the next window.  Two invariants make adaptive scans crash-tolerant:

* ``observe`` must be a pure function of the result's row *set* (order
  independent) folded into the prior feedback state, and
* :meth:`feedback_state` / :meth:`restore` round-trip that state as a
  small picklable tuple.

Together they guarantee that a scan interrupted mid-epoch and resumed
from its checkpoint journal — which reproduces the epoch's records
byte-identically — reconstructs the exact same next-epoch window
(pinned by ``tests/test_faults.py``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from ..records import ScanResult
from ..stream import TargetStream
from ..targets import TargetList, _bounded
from .telescope import Telescope

if TYPE_CHECKING:
    from ...telemetry.scan import ScanTelemetry
    from ...topology.entities import World
    from ..sharded import ShardedScanRunner
    from ..zmapv6 import ScanConfig

__all__ = [
    "StrategyEpochRow",
    "TargetStrategy",
    "run_strategy_epochs",
]

DEFAULT_BUDGET = 10_000


class TargetStrategy(ABC):
    """A (possibly feedback-driven) producer of probe-target windows.

    Subclasses set ``name`` (their ``STRATEGIES`` key), implement
    :meth:`targets_for`, and — when adaptive — override
    :meth:`observe`/:meth:`feedback_state`/:meth:`restore` as a matched
    triple.  ``budget`` caps every window's size; ``seed`` drives any
    randomised expansion, so a strategy's windows are a deterministic
    function of ``(world, seed, budget, feedback state, epoch)``.
    """

    name: str = "strategy"
    subnet_length: int | None = 64

    def __init__(
        self, world: "World", *, seed: int = 0, budget: int = DEFAULT_BUDGET
    ) -> None:
        if budget < 1:
            raise ValueError(f"strategy budget must be >= 1, got {budget}")
        self.world = world
        self.seed = seed
        self.budget = budget

    # -- the per-epoch window -- #

    @abstractmethod
    def targets_for(self, epoch: int) -> list[int]:
        """The epoch's probe targets: deduplicated, at most ``budget``."""

    def window(self, epoch: int) -> TargetStream:
        """The epoch's targets as a provenance-carrying stream."""
        return TargetList(
            f"{self.name}@e{epoch}", self.targets_for(epoch), self.subnet_length
        )

    # -- the adaptive feedback loop -- #

    def observe(self, result: ScanResult) -> None:
        """Fold one epoch's scan into the feedback state.

        The default strategy is static: observing is a no-op.  Adaptive
        overrides must derive their update from the result's row *set*
        only — never row order or arrival timing — so resumed scans
        converge to identical state.
        """

    def feedback_state(self) -> tuple:
        """The feedback state as a small, sorted, picklable tuple."""
        return ()

    def restore(self, state: tuple) -> None:
        """Adopt a previously exported :meth:`feedback_state`."""
        if state:
            raise ValueError(
                f"strategy {self.name!r} carries no feedback state"
            )

    # -- shared helpers -- #

    def _window_list(self, targets: Iterable[int]) -> list[int]:
        """First-occurrence dedup cut to the probe budget."""
        return _bounded(targets, self.budget)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(seed={self.seed}, budget={self.budget})"
        )


@dataclass(slots=True)
class StrategyEpochRow:
    """One (strategy, epoch) line of a strategy run's table."""

    strategy: str
    epoch: int
    targets: int
    records: int
    new_router_ips: int
    cumulative_router_ips: int
    overlap: float | None  # Jaccard vs previous epoch; None for epoch 0
    suppressed_errors: int
    dark_probes: int
    dark_share: float


def run_strategy_epochs(
    strategy: TargetStrategy,
    runner: "ShardedScanRunner",
    epochs: int,
    *,
    scan_name: Callable[[int], str],
    scan_config: "Callable[[int, int], ScanConfig]",
    epoch_base: int = 0,
    telemetry: "ScanTelemetry | None" = None,
) -> Iterator[tuple[StrategyEpochRow, ScanResult]]:
    """Run ``strategy`` for ``epochs`` epochs, yielding each one's table
    row and scan result.

    Each epoch scans the strategy's current window through ``runner`` (as
    ``scan_name(index)``, under ``scan_config(index, window size)``, in
    world epoch ``epoch_base + index``), classifies the window against a
    telescope, rolls the router-IP tally and reports the window to
    ``telemetry``.  The merged result is fed back last: adaptive
    strategies shape the next window from exactly the rows a resumed
    run reconstructs from its journal.
    """
    telescope = Telescope(strategy.world)
    cumulative: set[int] = set()
    previous: set[int] | None = None
    for index in range(epochs):
        window = strategy.window(index)
        result = runner.scan(
            window,
            scan_config(index, len(window)),
            name=scan_name(index),
            epoch=epoch_base + index,
            telemetry=telemetry,
        )
        watched = telescope.observe_window(
            window, strategy=strategy.name, epoch=index
        )
        router_ips = result.sources()
        overlap = None
        if previous is not None:
            union = router_ips | previous
            overlap = len(router_ips & previous) / len(union) if union else 0.0
        new_ips = len(router_ips - cumulative)
        cumulative |= router_ips
        previous = router_ips
        stats = result.engine_stats
        row = StrategyEpochRow(
            strategy=strategy.name,
            epoch=index,
            targets=len(window),
            records=result.received,
            new_router_ips=new_ips,
            cumulative_router_ips=len(cumulative),
            overlap=overlap,
            suppressed_errors=stats.suppressed_errors if stats is not None else 0,
            dark_probes=watched.dark,
            dark_share=watched.dark_share,
        )
        if telemetry is not None:
            telemetry.strategy_window_finished(
                strategy=row.strategy,
                epoch=index,
                targets=row.targets,
                new_router_ips=new_ips,
                cumulative_router_ips=row.cumulative_router_ips,
                dark_probes=row.dark_probes,
                suppressed_errors=row.suppressed_errors,
            )
        strategy.observe(result)
        yield row, result
