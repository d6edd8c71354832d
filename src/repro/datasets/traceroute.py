"""A sequential traceroute engine on top of the simulator.

Traceroute sends probes with increasing hop limits; each Time Exceeded
reveals one transit router interface, and the final reply (Echo or
Destination Unreachable) terminates the trace.  Each probe is a one-row
``probe_columns`` batch, sent only after the previous one was answered —
unlike yarrp's stateless randomised sweep (ROADMAP.md item 9(e)).  The
CAIDA-Ark and RIPE-Atlas dataset builders run campaigns of these traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..netsim.engine import FLAG_REPLY, ProbeColumns, SimulationEngine
from ..packet.icmpv6 import ICMPv6Type

_ECHO_REPLY = int(ICMPv6Type.ECHO_REPLY)
_TIME_EXCEEDED = int(ICMPv6Type.TIME_EXCEEDED)


@dataclass(frozen=True, slots=True)
class TracerouteHop:
    """One hop of a trace: the TTL and who answered (None = timeout)."""

    ttl: int
    source: int | None
    icmp_type: int | None


@dataclass(slots=True)
class TracerouteResult:
    """A full trace towards one target."""

    target: int
    hops: list[TracerouteHop] = field(default_factory=list)
    reached: bool = False
    destination_source: int | None = None

    def responding_sources(self) -> set[int]:
        """All addresses that answered along this trace."""
        sources = {hop.source for hop in self.hops if hop.source is not None}
        if self.destination_source is not None:
            sources.add(self.destination_source)
        return sources


def traceroute(
    engine: SimulationEngine,
    target: int,
    *,
    max_hops: int = 32,
    time: float = 0.0,
    probe_id_base: int = 0,
    probes_per_hop: int = 1,
) -> TracerouteResult:
    """Trace towards ``target`` with increasing hop limits.  A probe's
    row carries its one reply (the engine sends no second one)."""
    result = TracerouteResult(target=target)
    cols = ProbeColumns()
    for ttl in range(1, max_hops + 1):
        for attempt in range(probes_per_hop):
            row = engine.probe_columns(
                (target,),
                (time + ttl * 1e-3,),
                hop_limit=ttl,
                probe_ids=(probe_id_base + ttl * 4 + attempt,),
                out=cols,
            )
            if row.flags[0] & FLAG_REPLY:
                break
        else:
            result.hops.append(TracerouteHop(ttl, None, None))
            # Three consecutive silent hops: give up (gap limit).
            if len(result.hops) >= 3 and all(
                hop.source is None for hop in result.hops[-3:]
            ):
                return result
            continue
        source, icmp_type = row.source(0), row.icmp_type[0]
        result.hops.append(TracerouteHop(ttl, source, icmp_type))
        if icmp_type != _TIME_EXCEEDED:
            result.reached = icmp_type == _ECHO_REPLY
            result.destination_source = source
            return result
        # Heuristic every traceroute tool uses: stop when the same source
        # repeats (we are past the last replying router or in a loop: the
        # simulator answers a looping probe from the loop's one customer
        # router, so a loop repeats its source rather than alternating).
        if len(result.hops) >= 2 and result.hops[-2].source == source:
            return result
    return result
