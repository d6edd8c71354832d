"""A deliberately slow, independent model of the simulated Internet.

This is the oracle the production kernel (``SimulationEngine.
probe_columns``) is checked against.  It is written from the behaviour
the paper relies on, not from the kernel:

* RFC 4291 §2.6.1 — a router answers an Echo Request sent to the
  Subnet-Router anycast address (the subnet prefix, host bits zero) of
  a subnet it has an interface on, with an Echo Reply from one of its
  own unicast addresses.  Implementations differ in which address that
  is, and some drop the packet or treat it as unassigned (PAPER.md §1).
* RFC 4443 §2.4(f) — a router rate-limits the ICMPv6 *error* messages it
  originates (a token bucket); Echo replies are never limited.  That
  asymmetry is what makes SRA probing find routers that error-based
  scanning misses.
* RFC 8200 §3 / RFC 4443 §3.3 — each forwarding node decrements the hop
  limit; the node that decrements it to zero drops the packet and
  answers Time Exceeded.  Inside a customer<->provider routing loop the
  packet bounces until its hop limit runs out, and buggy firmware
  replicates it on every pass (the paper's amplification, up to > 250 k
  Time Exceeded messages per probe, all from the same router).

Everything is a straight line and nothing is cached but pure lookups:
longest match is a linear scan over the world's own prefix lists, the
transit path is walked hop by hop, and each router's error budget is a
plain token bucket.  Randomness enters only through ``draw(purpose,
*words) -> float`` (uniform in [0, 1)), which the test harness binds to
the world's keyed hash; the purposes and probabilities below are the
model's calibration, the only thing this file shares with the kernel.

The module may import ``repro.addr``, the ``repro.packet.icmpv6``
constants and ``repro.topology`` data — never code from ``repro.netsim``,
``repro.bgp`` or ``repro.scanner`` (``test_reference_engine.py`` checks).
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from repro.addr import network_of, sra_address
from repro.packet.icmpv6 import ICMPv6Type, TimeExceededCode, UnreachableCode
from repro.topology.profiles import SRABehavior

Draw = Callable[..., float]

# Calibration: the probability of each per-epoch behaviour, keyed as
# noted.  A flaky subnet is up (keyed by its network); a host answers
# (by address); a router answers Echo to its own interface (by router);
# a router with an unstable reply source uses its loopback (by router).
P_FLAKY_UP = 0.55
P_HOST_UP = 0.85
P_DIRECT_PING = 0.96
P_SOURCE_FLIP = 0.5
# Background cross traffic may hold at most this share of a router's
# error budget; the per-epoch jitter scales the router's load by 0.5–1.5.
MAX_BACKGROUND_LOAD = 0.95
# Replies per amplified probe are reported up to this many.
REPLY_CAP = 1 << 22

STAT_NAMES = (
    "probes",
    "lost",
    "echo_replies",
    "error_replies",
    "suppressed_errors",
    "loops_hit",
    "amplified_replies",
)

ECHO = int(ICMPv6Type.ECHO_REPLY)
UNREACHABLE = int(ICMPv6Type.DESTINATION_UNREACHABLE)
EXCEEDED = int(ICMPv6Type.TIME_EXCEEDED)
NO_ROUTE = int(UnreachableCode.NO_ROUTE)
ADDRESS_UNREACHABLE = int(UnreachableCode.ADDRESS_UNREACHABLE)
HOP_LIMIT_EXCEEDED = int(TimeExceededCode.HOP_LIMIT_EXCEEDED)


class Answer(NamedTuple):
    """The one ICMPv6 message (or flood of ``count`` copies) a probe got."""

    source: int
    icmp_type: int
    code: int
    count: int = 1
    router_id: int | None = None


class Outcome(NamedTuple):
    lost: bool = False
    looped: bool = False
    transit: int = 0
    answer: Answer | None = None


def longest_match(entries, address):
    """The ``(prefix, value)`` of ``entries`` with the longest prefix
    containing ``address``, or None — by looking at every entry.  Of two
    entries for one prefix the later wins: registering a prefix again
    replaces what it pointed at."""
    best = None
    for prefix, value in entries:
        if network_of(address, prefix.length) != prefix.network:
            continue
        if best is None or prefix.length >= best[0].length:
            best = (prefix, value)
    return best


class Places:
    """The world's announced routes and destination entries as plain
    ``(prefix, value)`` lists, with a memo of their longest matches (a
    pure function of the address, so one memo serves every epoch)."""

    def __init__(self, world) -> None:
        self.routes = [(a.prefix, a.origin_asn) for a in world.bgp]
        self.entries = (
            [(s.prefix, ("subnet", s)) for s in world.subnets.values()]
            + [(r.prefix, ("alias", r)) for r in world.alias_regions]
            + [(i.prefix, ("infra", i)) for i in world.infra_subnets.values()]
            + [(r.prefix, ("loop", r)) for r in world.loop_regions]
        )
        self._memo: dict = {}

    def lookup(self, target: int):
        """(origin AS or None, ``(kind, entity)`` or None)."""
        found = self._memo.get(target)
        if found is None:
            route = longest_match(self.routes, target)
            entry = longest_match(self.entries, target)
            found = self._memo[target] = (
                None if route is None else route[1],
                None if entry is None else entry[1],
            )
        return found


class ReferenceEngine:
    """One scan epoch of the model: ``probe`` one Echo Request at a time.

    ``stats`` counts what the kernel's ``EngineStats`` counts, by the same
    names.  Router error budgets live for the engine's lifetime, as they
    do within one scan.
    """

    def __init__(
        self,
        world,
        draw: Draw,
        *,
        epoch: int = 0,
        window: float = 1.0,
        places: Places | None = None,
    ) -> None:
        self.world = world
        self.draw = draw
        self.epoch = epoch
        self.window = window
        self.places = places if places is not None else Places(world)
        self.stats = dict.fromkeys(STAT_NAMES, 0)
        # router id -> [background load, tokens, clock of the last refill]
        self._budgets: dict[int, list] = {}

    # ---------------- randomness ---------------- #

    def chance(self, probability: float, purpose: bytes, *words: int) -> bool:
        if probability <= 0:
            return False
        if probability >= 1:
            return True
        return self.draw(purpose, *words) < probability

    # ---------------- the probe ---------------- #

    def probe(
        self, target: int, time: float, *, hop_limit: int = 64, probe_id: int = 0
    ) -> Outcome:
        world, epoch = self.world, self.epoch
        self.stats["probes"] += 1
        if self.chance(world.packet_loss, b"loss", target, probe_id, epoch):
            self.stats["lost"] += 1
            return Outcome(lost=True)

        origin, place = self.places.lookup(target)
        if origin is None:
            # The vantage's upstream router has no route: it answers No
            # Route itself, before any hop is spent.
            upstream = world.routers[world.vantage.upstream_router_id]
            return Outcome(answer=self.error(
                upstream, self.error_source(upstream), UNREACHABLE, NO_ROUTE, time
            ))
        if hop_limit < 1:
            return Outcome()  # nothing left to forward with

        hops = world.paths.get(origin, ())
        left = hop_limit
        for hop in hops:
            left -= 1
            if left == 0:
                router = world.routers[hop.router_id]
                return Outcome(transit=len(hops), answer=self.error(
                    router, hop.interface, EXCEEDED, HOP_LIMIT_EXCEEDED, time
                ))
        transit = len(hops)

        if place is None:
            return Outcome(transit=transit, answer=self.unassigned(origin, target, time))
        kind, thing = place
        if kind == "subnet":
            answer = self.subnet(thing, target, time)
        elif kind == "alias":
            answer = self.echo(target)
        elif kind == "infra":
            answer = self.infra(thing, target, time)
        else:
            return self.loop(thing, left, transit, time)
        return Outcome(transit=transit, answer=answer)

    # ---------------- destinations ---------------- #

    def subnet(self, subnet, target: int, time: float) -> Answer | None:
        router = self.world.routers[subnet.router_id]
        dead = subnet.death_epoch is not None and self.epoch >= subnet.death_epoch
        if dead or (
            subnet.flaky
            and not self.chance(P_FLAKY_UP, b"flaky", subnet.prefix.network, self.epoch)
        ):
            # The interface is down but its route lingers: the last-hop
            # router answers Address Unreachable from the interface that
            # faced the subnet, whatever its usual error-source policy —
            # one distinct source per dead subnet (the paper's Fig. 4).
            return self.error(
                router, subnet.router_interface, UNREACHABLE, ADDRESS_UNREACHABLE, time
            )
        if subnet.aliased:
            return self.echo(target)  # every address, the SRA included
        if target == sra_address(subnet.prefix):
            behavior = router.vendor.sra_behavior
            if behavior is SRABehavior.DROP:
                return None
            if behavior is SRABehavior.ERROR:
                return self.error(
                    router,
                    self.error_source(router, subnet.router_interface),
                    UNREACHABLE,
                    ADDRESS_UNREACHABLE,
                    time,
                )
            return self.echo(self.sra_source(router, subnet), router.router_id)
        if target == subnet.router_interface:
            return self.direct_ping(router, target)
        if target in subnet.hosts:
            if self.chance(P_HOST_UP, b"host", target, self.epoch):
                return self.echo(target)
            return None
        return self.error(
            router,
            self.error_source(router, subnet.router_interface),
            UNREACHABLE,
            ADDRESS_UNREACHABLE,
            time,
        )

    def sra_source(self, router, subnet) -> int:
        """RFC 4291 says the reply comes from the router's "own" address;
        which one depends on the implementation."""
        if router.replies_from_peering and router.peering_lan_address is not None:
            return router.peering_lan_address
        if router.sra_from_primary:
            return router.loopback
        if router.unstable_reply_source and self.chance(
            P_SOURCE_FLIP, b"flip", router.router_id, self.epoch
        ):
            return router.loopback
        return subnet.router_interface

    def direct_ping(self, router, address: int) -> Answer | None:
        if router.answers_direct_ping and self.chance(
            P_DIRECT_PING, b"direct", router.router_id, self.epoch
        ):
            return self.echo(address, router.router_id)
        return None

    def infra(self, infra, target: int, time: float) -> Answer | None:
        owner = infra.interfaces.get(target)
        if owner is not None:
            return self.direct_ping(self.world.routers[owner], target)
        info = self.world.ases.get(infra.asn)
        if info is None or info.border_router_id is None:
            return None
        border = self.world.routers[info.border_router_id]
        return self.error(
            border, self.error_source(border), UNREACHABLE, ADDRESS_UNREACHABLE, time
        )

    def unassigned(self, asn: int, target: int, time: float) -> Answer | None:
        """Announced, unassigned space: the AS's internal router holding
        the covering aggregate of the target's /56 answers No Route."""
        info = self.world.ases.get(asn)
        if info is None or info.filters_unroutable:
            return None
        slash56 = target >> 72
        if info.router_ids:
            pick = int(self.draw(b"aggroute", asn, slash56) * len(info.router_ids))
            router = self.world.routers[info.router_ids[pick]]
        elif info.border_router_id is not None:
            router = self.world.routers[info.border_router_id]
        else:
            return None
        if router.errors_from_primary and router.loopback:
            source = router.loopback
        else:  # the customer-facing sub-interface of that /56
            source = (slash56 << 72) | 0xFFFE
        return self.error(router, source, UNREACHABLE, NO_ROUTE, time)

    def loop(self, region, left: int, transit: int, time: float) -> Outcome:
        """The packet bounces customer<->provider until ``left`` runs out;
        the Time Exceeded comes from the customer edge router.  Buggy
        firmware multiplies the packet by its replication factor on every
        two-hop cycle, in the forwarding plane — so the flood never meets
        the control plane's error budget."""
        self.stats["loops_hit"] += 1
        customer = self.world.routers[region.customer_router_id]
        source = self.error_source(customer)
        copies = 1
        factor = customer.replication_factor
        if factor > 1.0:
            try:
                flood = factor ** (left / 2.0)
            except OverflowError:
                flood = REPLY_CAP
            copies = REPLY_CAP if flood >= REPLY_CAP else max(1, round(flood))
        if copies > 1:
            self.stats["error_replies"] += copies
            self.stats["amplified_replies"] += copies - 1
            answer = Answer(source, EXCEEDED, HOP_LIMIT_EXCEEDED, copies, customer.router_id)
        else:
            answer = self.error(customer, source, EXCEEDED, HOP_LIMIT_EXCEEDED, time)
        return Outcome(looped=True, transit=transit, answer=answer)

    # ---------------- replies ---------------- #

    def echo(self, source: int, router_id: int | None = None) -> Answer:
        self.stats["echo_replies"] += 1
        return Answer(source, ECHO, 0, 1, router_id)

    @staticmethod
    def error_source(router, facing: int | None = None) -> int:
        """A router sources errors from the interface facing the problem,
        or from its loopback under a primary-address policy."""
        if router.errors_from_primary and router.loopback:
            return router.loopback
        if facing is not None:
            return facing
        if router.interface_addresses:
            return router.interface_addresses[0]
        return router.loopback

    def error(
        self, router, source: int, icmp_type: int, code: int, time: float
    ) -> Answer | None:
        """An ICMPv6 error the router originates, if policy and its
        RFC 4443 budget let it."""
        if icmp_type == UNREACHABLE and not router.emits_unreachables:
            return None  # "no ip unreachables": never generated at all
        if not self.budget_allows(router, time):
            self.stats["suppressed_errors"] += 1
            return None
        self.stats["error_replies"] += 1
        return Answer(source, icmp_type, code, 1, router.router_id)

    def budget_allows(self, router, time: float) -> bool:
        """RFC 4443 §2.4(f): a token bucket per router, refilled on the
        virtual clock, behind an on-off gate for background error load
        (a random share of each ``window`` the budget is used up by
        cross traffic)."""
        rid, epoch, vendor = router.router_id, self.epoch, router.vendor
        budget = self._budgets.get(rid)
        if budget is None:
            jitter = 0.5 + self.draw(b"bgjit", rid, epoch)
            load = min(MAX_BACKGROUND_LOAD, router.background_error_load * jitter)
            tokens = vendor.error_burst * (1.0 - self.draw(b"bgjit", rid, epoch, 1) * load)
            budget = self._budgets[rid] = [load, tokens, 0.0]
        load, tokens, clock = budget
        if load > 0.0 and self.draw(b"bgwin", rid, epoch, int(time / self.window)) < load:
            return False
        now = max(time, clock)  # the clock never runs backwards
        rate = vendor.error_rate * (1.0 - load)
        tokens = min(float(vendor.error_burst), tokens + (now - clock) * rate)
        budget[2] = now
        if tokens >= 1.0:
            budget[1] = tokens - 1.0
            return True
        budget[1] = tokens
        return False
