"""``sim``: the simulation engine behind the backend seam.

A zero-cost adapter — every method is a direct delegation to the wrapped
:class:`~repro.netsim.engine.SimulationEngine`: ``probe_columns``, the
seam's one call, is the engine's columnar kernel, so the scanner's output
through this backend is byte-identical to driving the engine directly
(the determinism suite pins this).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from ...netsim.engine import SimulationEngine
from .base import BackendSpec, ProbeBackend, make_backend_spec, register_backend

if TYPE_CHECKING:
    from ...netsim.engine import EngineStats, ProbeColumns
    from ...topology.entities import World


class SimBackend(ProbeBackend):
    """Probes a :class:`SimulationEngine`; the default backend."""

    name = "sim"
    deterministic = True
    requires_privilege = False

    def __init__(self, engine: SimulationEngine) -> None:
        self.engine = engine

    @classmethod
    def from_spec(
        cls,
        spec: BackendSpec,
        *,
        world: "World | None" = None,
        engine: SimulationEngine | None = None,
        epoch: int = 0,
        defer_rate_limit: bool = False,
    ) -> "SimBackend":
        if engine is None:
            if world is None:
                raise ValueError(
                    "sim backend needs a world (or a pre-built engine)"
                )
            engine = SimulationEngine(
                world, epoch=epoch, defer_rate_limit=defer_rate_limit
            )
        return cls(engine)

    def spec(self) -> BackendSpec:
        return make_backend_spec(self.name)

    # ---------------- epoch + observability ---------------- #

    @property
    def epoch(self) -> int:
        return self.engine.epoch

    def new_epoch(self, epoch: int) -> None:
        self.engine.new_epoch(epoch)

    @property
    def stats(self) -> "EngineStats":
        return self.engine.stats

    @property
    def pending_checks(self) -> list[tuple[float, int]]:
        return self.engine.pending_checks

    @property
    def needs_probe_ids(self) -> bool:
        # probe_ids exist only to decorrelate the loss draw; with loss
        # off the engine never reads them, so the scanner skips building
        # the column (the pre-seam behaviour, bit for bit).
        return self.engine.world.packet_loss > 0.0

    @property
    def telemetry(self):
        return self.engine.telemetry

    @telemetry.setter
    def telemetry(self, collector) -> None:
        self.engine.telemetry = collector

    # ---------------- probing ---------------- #

    # benchmarks/e2e/trace.py looks this name up in the class body
    # (``vars(SimBackend)["send_batch"]``); the phase timers of ROADMAP.md
    # item 3's second slice replace that lookup and delete this line.
    send_batch = ProbeBackend.send_batch

    def probe_columns(
        self,
        targets: Sequence[int],
        times: Sequence[float],
        *,
        hop_limit: int = 64,
        probe_ids: Sequence[int] | None = None,
        out: "ProbeColumns | None" = None,
    ) -> "ProbeColumns":
        return self.engine.probe_columns(
            targets, times, hop_limit=hop_limit, probe_ids=probe_ids, out=out
        )


register_backend(SimBackend.name, SimBackend)
