"""Inferring a router's ICMPv6 error rate limit from probe timing.

The paper flags "to what extent rate limiting techniques beyond those
proposed in RFC 4443 are deployed should be part of future work" (§7) and
cites the NDSS'23 side-channel of Pan et al. ("Your Router Is My Prober"):
a router's error token bucket is a measurable, shared resource.

This module implements the measurement: send a train of probes to
*unassigned* addresses behind one router at a chosen rate and watch which
ones come back.  Below the bucket rate everything passes; above it, the
pass fraction approaches ``bucket_rate / probe_rate``.  Sweeping rates and
fitting the knee estimates the bucket's refill rate; the initial
transient estimates its depth (burst).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..netsim.engine import FLAG_REPLY, SimulationEngine
from ..packet.icmpv6 import ICMPv6Type
from ..topology.entities import Subnet, World


@dataclass(frozen=True, slots=True)
class RatePoint:
    """One probe-train observation."""

    probe_rate: float
    sent: int
    received: int

    @property
    def pass_fraction(self) -> float:
        return self.received / self.sent if self.sent else 0.0

    @property
    def received_rate(self) -> float:
        """Errors per second actually emitted during the train."""
        return self.pass_fraction * self.probe_rate


@dataclass(frozen=True, slots=True)
class RateLimitEstimate:
    """The inferred token-bucket parameters."""

    rate: float  # tokens per second (refill)
    burst: float  # bucket depth estimate
    points: tuple[RatePoint, ...]


def probe_train(
    engine: SimulationEngine,
    subnet: Subnet,
    *,
    probe_rate: float,
    duration: float,
    start_time: float,
    probe_id_base: int,
) -> RatePoint:
    """Send probes to one unassigned in-subnet address at a fixed rate,
    as one kernel batch."""
    target = subnet.prefix.network + 0xDEAD0000
    while target in subnet.hosts or target == subnet.router_interface:
        target += 1
    count = max(1, int(probe_rate * duration))
    cols = engine.probe_columns(
        [target] * count,
        [start_time + index / probe_rate for index in range(count)],
        probe_ids=range(probe_id_base, probe_id_base + count),
    )
    received = sum(
        1
        for i in range(count)
        if cols.flags[i] & FLAG_REPLY and ICMPv6Type(cols.icmp_type[i]).is_error
    )
    return RatePoint(probe_rate=probe_rate, sent=count, received=received)


def infer_error_rate_limit(
    world: World,
    subnet: Subnet,
    *,
    probe_rates: tuple[float, ...] = (2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 200.0),
    duration: float = 20.0,
) -> RateLimitEstimate:
    """Estimate the RFC 4443 token-bucket parameters of a subnet's router.

    Each rate gets its own fresh-bucket engine epoch, from 7000 up (real
    measurements space trains far apart for the same reason).  The refill-rate estimate
    is the median *received rate* over saturated trains; the burst
    estimate comes from the excess passes of the most aggressive train
    over its steady-state expectation.
    """
    points: list[RatePoint] = []
    for index, probe_rate in enumerate(probe_rates):
        engine = SimulationEngine(world, epoch=7000 + index)
        points.append(
            probe_train(
                engine,
                subnet,
                probe_rate=probe_rate,
                duration=duration,
                start_time=0.0,
                probe_id_base=index << 20,
            )
        )
    saturated = [p for p in points if p.pass_fraction < 0.95]
    if saturated:
        received_rates = sorted(p.received_rate for p in saturated)
        rate = received_rates[len(received_rates) // 2]
        top = max(saturated, key=lambda p: p.probe_rate)
        burst = max(0.0, top.received - rate * duration)
    else:
        # Never saturated: the limit is at least the highest rate tried.
        rate = max(p.probe_rate for p in points)
        burst = 0.0
    return RateLimitEstimate(rate=rate, burst=burst, points=tuple(points))
