"""Synthetic IPv6 Internet generator.

Builds a :class:`~repro.topology.entities.World` from a
:class:`~repro.topology.config.WorldConfig`:

1. assign AS identities (ASN, country, type, tier) and the business-
   relationship graph (tier-1 clique, tier-2 transit, stub customers),
2. allocate each AS a /28 address block and generate its BGP announcements
   (/32 LIR blocks, /40–/48 slices, /48 PI space, a few more-specifics),
3. create core infrastructure: border/core routers, infrastructure /64s,
   peering LANs along provider edges,
4. compute vantage-to-AS transit paths over the relationship graph,
5. populate active /64 subnets with periphery routers and hosts (clustered
   in low subnet indices, as operationally common),
6. inject aliased regions, routing-loop regions (customer/provider
   misconfiguration, Appendix C) and the amplification firmware bug,
7. register route6 objects in the IRR (including stale ones).

Everything is driven by one seeded ``random.Random`` so worlds are
reproducible bit-for-bit.
"""

from __future__ import annotations

from random import Random
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from math import exp, log
from pathlib import Path

import networkx as nx

from ..addr.ipv6 import IPv6Prefix
from ..bgp.table import Announcement, BGPTable
from ..irr.database import IRRDatabase
from ..irr.rpsl import Route6Object
from .config import LOOP_OTHER_MASS, LOOP_OTHER_ROUTERS, WorldConfig
from .entities import (
    AliasRegion,
    ASInfo,
    ASType,
    EntryKind,
    InfraSubnet,
    LoopRegion,
    Router,
    Subnet,
    TransitHop,
    VantagePoint,
    World,
)
from .profiles import VendorProfile, vendor_by_name

_INFRA_SLASH48_INDEX = 0xFFFF
_ALIAS_INDEX_RANGE = (0x4000, 0x7FFF)
_LOOP_INDEX_RANGE = (0x8000, 0xFEFF)
_ACTIVE_CLUSTER_SLASH48 = 8  # active subnets cluster in the first /48s
_IFACE_IIDS = (1, 1, 1, 2, 0xFE)  # a subnet's router interface IID
# expovariate rates of the /64 placement: each draw divides by one of
# these floats, as Random.expovariate does (1 / 6.0 is inexact, so a
# multiplication by 6 would draw other worlds).
_SLASH64_IN_LONG_RATE = 1 / 8.0
_SLASH48_CLUSTER_RATE = 1 / 6.0
_SLASH64_IN_48_RATE = 1 / 2.0


def _randbelow(getrandbits, n: int) -> int:
    """``Random.randrange(n)`` from the bound ``getrandbits``: CPython's
    ``Random._randbelow_with_getrandbits``, the same calls in the same
    order, so ``randrange(a, b)`` is ``a + _randbelow(g, b - a)`` and
    ``choice(seq)`` is ``seq[_randbelow(g, len(seq))]``, without their
    argument checks."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _random_slash64(prefix: IPv6Prefix, random, getrandbits) -> int:
    """A /64 network inside ``prefix``, drawn with the bound ``random`` /
    ``getrandbits`` of the builder's generator.

    Allocation mimics operational practice: customer /48s are drawn
    half from a dense low-index cluster (sequential assignment) and
    half spread across the whole announcement (regional/PoP split),
    while the /64 index *within* a /48 is strongly low-biased — the
    first /64 of an assignment is the one most likely in use.  The
    spread component is what gives the enumerating/sampling /48 scans
    a realistic, density-proportional hit rate.  Each
    ``-log(1.0 - random()) / rate`` is ``Random.expovariate(rate)``.
    """
    length = prefix.length
    if length >= 64:
        return prefix.network
    if length > 48:
        index = int(-log(1.0 - random()) / _SLASH64_IN_LONG_RATE)
        return prefix.network | (min((1 << (64 - length)) - 1, index) << 64)
    slash48_span = 1 << (48 - length)
    if random() < 0.5:
        slash48 = int(-log(1.0 - random()) / _SLASH48_CLUSTER_RATE)
        if slash48 >= slash48_span:
            slash48 = slash48_span - 1
    else:
        slash48 = _randbelow(getrandbits, slash48_span)
    slash64 = int(-log(1.0 - random()) / _SLASH64_IN_48_RATE)
    if slash64 > 0xFFFF:
        slash64 = 0xFFFF
    elif slash64 == 0 and slash48 == 0:
        # The announcement's subnet zero is governed by the explicit
        # subnet_zero_active_probability coin, not by random placement.
        slash64 = 1
    return prefix.network | (slash48 << 80) | (slash64 << 64)


@dataclass(slots=True)
class _ASSlot:
    """Working state for one AS during generation."""

    info: ASInfo
    block: int  # the /28 allocation network
    tier: int  # 1, 2, or 3 (stub)
    size_factor: float
    used_slash32: set[int] | None = None


class WorldBuilder:
    """Single-use builder; call :meth:`build` once.

    With ``artifact_writer`` set, generation *streams*: finished periphery
    routers and subnets spill straight into the artifact and are evicted
    from the in-memory world, so peak RSS is bounded by the per-AS working
    set plus the O(#ASes) core — not by world size.  The RNG draw sequence
    is byte-for-byte the draw sequence of an eager build, so the loaded
    artifact world is the eager world.
    """

    def __init__(
        self, config: WorldConfig, *, artifact_writer=None
    ) -> None:
        self.config = config
        self.rng = Random(config.seed)
        self.world = World(
            seed=config.seed,
            bgp=BGPTable(),
            irr=IRRDatabase(),
            packet_loss=config.packet_loss,
        )
        self._slots: dict[int, _ASSlot] = {}
        self._graph = nx.Graph()
        self._next_router_id = 1
        self._country_names = [c for c, _, _ in config.countries]
        self._country_weights = [w for _, w, _ in config.countries]
        self._country_size = {c: s for c, _, s in config.countries}
        self._vendor_cache: dict[str, tuple[list[VendorProfile], list[float]]] = {}
        self._writer = artifact_writer
        # Routers created before streaming flush is enabled (core, border)
        # stay pinned in memory: later steps mutate them (peering LANs,
        # loop-edge firmware).  Everything created afterwards is flushed
        # as soon as its owning step finishes with it.
        self._flush_enabled = False
        self._unflushed: list[Router] = []

    # ------------------------------------------------------------------ #
    # public entry point
    # ------------------------------------------------------------------ #

    def build(self) -> World:
        self._assign_identities()
        self._build_relationships()
        self._allocate_announcements()
        self._build_core_infrastructure()
        self._place_vantage()
        self._compute_paths()
        if self._writer is not None:
            self._enable_streaming()
        self._populate_subnets()
        self._inject_aliases()
        self._inject_loops()
        self._register_route6()
        if self._writer is not None:
            self._flush_routers()
            for router in self.world.routers.values():
                self._writer.add_router(router)  # the pinned core
            self._writer.finalize(self.world)
        return self.world

    # ------------------------------------------------------------------ #
    # streaming (artifact) mode
    # ------------------------------------------------------------------ #

    def _enable_streaming(self) -> None:
        """Switch to spill-as-you-go after the core is built.

        Per-AS router-id lists become ``array('q')`` — at paper magnitude
        they are the only O(#routers) state the small (pickled) part of
        the artifact keeps, and boxed ints would cost ~5x the RAM.
        """
        for info in self.world.ases.values():
            info.router_ids = array("q", info.router_ids)  # type: ignore[assignment]
        self._flush_enabled = True

    def _flush_routers(self) -> None:
        """Spill finished periphery routers to the artifact and evict
        them from the in-memory world (no-op in eager builds)."""
        if not self._unflushed:
            return
        writer = self._writer
        routers = self.world.routers
        for router in self._unflushed:
            writer.add_router(router)
            del routers[router.router_id]
        self._unflushed.clear()

    def _register_subnet(self, subnet: Subnet) -> None:
        if self._writer is None:
            self.world.register_subnet(subnet)
            return
        row = self._writer.add_subnet(subnet)
        self._writer.add_resolution(subnet.prefix, EntryKind.SUBNET, row)

    def _register_infra(self, infra: InfraSubnet) -> None:
        if self._writer is None:
            self.world.register_infra(infra)
            return
        # Infra subnets stay in memory (O(#ASes), and later steps add
        # interfaces); only the resolution entry goes to the artifact,
        # keyed by its own network (ref unused).
        self.world.infra_subnets[infra.prefix.network] = infra
        self._writer.add_resolution(infra.prefix, EntryKind.INFRA, -1)

    def _register_alias(self, region: AliasRegion) -> None:
        if self._writer is None:
            self.world.register_alias(region)
            return
        self.world.alias_regions.append(region)
        self._writer.add_resolution(
            region.prefix, EntryKind.ALIAS, len(self.world.alias_regions) - 1
        )

    def _register_loop(self, region: LoopRegion) -> None:
        if self._writer is None:
            self.world.register_loop(region)
            return
        self.world.loop_regions.append(region)
        self._writer.add_resolution(
            region.prefix, EntryKind.LOOP, len(self.world.loop_regions) - 1
        )

    # ------------------------------------------------------------------ #
    # step 1: identities
    # ------------------------------------------------------------------ #

    def _assign_identities(self) -> None:
        config = self.config
        asns = self.rng.sample(range(1000, 64000), config.num_ases)
        type_names = [t for t, _ in config.as_type_weights]
        type_weights = [w for _, w in config.as_type_weights]
        for index, asn in enumerate(asns):
            if index < config.num_tier1:
                tier = 1
                country = self.rng.choice(
                    ["USA", "DEU", "GBR", "JPN", "FRA", "NLD", "SWE"]
                )
                as_type = ASType.ISP
            elif index < config.num_tier1 + config.num_tier2:
                tier = 2
                country = self._draw_country()
                as_type = ASType.ISP
            else:
                tier = 3
                country = self._draw_country()
                as_type = ASType(
                    self.rng.choices(type_names, weights=type_weights)[0]
                )
            info = ASInfo(asn=asn, country=country, as_type=as_type)
            info.is_ixp_member = self.rng.random() < config.ixp_member_fraction
            info.filters_unroutable = (
                self.rng.random() < config.filters_unroutable_fraction
            )
            block = config.base_network + (
                index << (128 - config.allocation_length)
            )
            size = self._size_factor(country, as_type, tier)
            self._slots[asn] = _ASSlot(
                info=info, block=block, tier=tier, size_factor=size
            )
            self.world.ases[asn] = info
            self._graph.add_node(asn)

    def _draw_country(self) -> str:
        return self.rng.choices(self._country_names, weights=self._country_weights)[0]

    def _size_factor(self, country: str, as_type: ASType, tier: int) -> float:
        base = self._country_size.get(country, 0.5)
        if as_type is ASType.ISP:
            base *= 1.6
        elif as_type is ASType.HOSTING:
            base *= 0.8
        else:
            base *= 0.4
        if tier == 2:
            base *= 1.5
        return base

    # ------------------------------------------------------------------ #
    # step 2: relationships
    # ------------------------------------------------------------------ #

    def _build_relationships(self) -> None:
        tier1 = [asn for asn, slot in self._slots.items() if slot.tier == 1]
        tier2 = [asn for asn, slot in self._slots.items() if slot.tier == 2]
        stubs = [asn for asn, slot in self._slots.items() if slot.tier == 3]
        for i, a in enumerate(tier1):
            for b in tier1[i + 1 :]:
                self._add_peer(a, b)
        for asn in tier2:
            for provider in self.rng.sample(tier1, k=min(2, len(tier1))):
                self._add_provider(asn, provider)
            for peer in self.rng.sample(tier2, k=min(2, len(tier2))):
                if peer != asn and peer not in self.world.ases[asn].peers:
                    self._add_peer(asn, peer)
        for asn in stubs:
            count = 1 + (self.rng.random() < 0.35) + (self.rng.random() < 0.10)
            pool = tier2 if self.rng.random() < 0.9 else tier1
            for provider in self.rng.sample(pool, k=min(count, len(pool))):
                self._add_provider(asn, provider)

    def _add_provider(self, customer: int, provider: int) -> None:
        if provider in self.world.ases[customer].providers:
            return
        self.world.ases[customer].providers.append(provider)
        self.world.ases[provider].customers.append(customer)
        self._graph.add_edge(customer, provider)

    def _add_peer(self, a: int, b: int) -> None:
        self.world.ases[a].peers.append(b)
        self.world.ases[b].peers.append(a)
        self._graph.add_edge(a, b)

    # ------------------------------------------------------------------ #
    # step 3: announcements
    # ------------------------------------------------------------------ #

    def _allocate_announcements(self) -> None:
        config = self.config
        for asn, slot in self._slots.items():
            slot.used_slash32 = set()
            prefixes: list[IPv6Prefix] = []
            prefixes.append(self._slash32(slot, 0))
            slot.used_slash32.add(0)
            extra = min(6, self._geometric(config.extra_announcement_mean))
            for _ in range(extra):
                prefixes.append(self._draw_extra_announcement(slot))
            if self.rng.random() < config.more_specific_fraction * 20:
                # a /52 more-specific; half covered by the AS's own /32,
                # half in otherwise-unannounced space (exercises both
                # branches of the stage-2 supernet rule).
                covered = self.rng.random() < 0.5
                slash32_index = 0 if covered else self._free_slash32(slot)
                base = self._slash32(slot, slash32_index)
                subnet_bits = self.rng.randrange(1 << 20)
                prefix = IPv6Prefix(
                    base.network | (subnet_bits << (128 - 52)), 52
                )
                prefixes.append(prefix)
            for prefix in prefixes:
                self.world.bgp.add(Announcement(prefix=prefix, origin_asn=asn))
                slot.info.prefixes.append(prefix)

    def _slash32(self, slot: _ASSlot, index: int) -> IPv6Prefix:
        return IPv6Prefix(slot.block | (index << (128 - 32)), 32)

    def _free_slash32(self, slot: _ASSlot) -> int:
        assert slot.used_slash32 is not None
        for index in range(16):
            if index not in slot.used_slash32:
                slot.used_slash32.add(index)
                return index
        return 15

    def _draw_extra_announcement(self, slot: _ASSlot) -> IPv6Prefix:
        config = self.config
        index = self._free_slash32(slot)
        base = self._slash32(slot, index)
        roll = self.rng.random()
        if roll < config.pi_slash48_fraction:
            length = 48
        elif roll < config.pi_slash48_fraction + 0.15:
            length = 44
        elif roll < config.pi_slash48_fraction + 0.30:
            length = 40
        else:
            return base
        offset = self.rng.randrange(1 << (length - 32))
        return IPv6Prefix(base.network | (offset << (128 - length)), length)

    # ------------------------------------------------------------------ #
    # step 4: core infrastructure
    # ------------------------------------------------------------------ #

    def _build_core_infrastructure(self) -> None:
        for asn, slot in self._slots.items():
            info = slot.info
            home = self._infra_home_prefix(info)
            infra_net = self._infra_slash64(home)
            infra = InfraSubnet(prefix=IPv6Prefix(infra_net, 64), asn=asn)
            core_count = 3 if slot.tier == 1 else 2 if slot.tier == 2 else 1
            for core_index in range(core_count):
                router = self._new_router(info, is_border=core_index == 0)
                iface = infra_net | (core_index + 1)
                router.interface_addresses.append(iface)
                router.loopback = infra_net | (0x100 + core_index)
                infra.interfaces[iface] = router.router_id
                infra.interfaces[router.loopback] = router.router_id
                if core_index == 0:
                    info.border_router_id = router.router_id
            self._register_infra(infra)
        # Peering LANs carved from the provider's infrastructure /48.
        for asn, slot in self._slots.items():
            info = slot.info
            for lan_index, provider_asn in enumerate(info.providers, start=1):
                provider_info = self.world.ases[provider_asn]
                provider_home = self._infra_home_prefix(provider_info)
                lan_net = self._infra_slash64(provider_home, index=asn % 0xFFF0 + 1)
                lan = self.world.infra_subnets.get(lan_net)
                if lan is None:
                    lan = InfraSubnet(prefix=IPv6Prefix(lan_net, 64), asn=provider_asn)
                    self._register_infra(lan)
                provider_border = self.world.routers[
                    provider_info.border_router_id  # type: ignore[index]
                ]
                provider_iface = lan_net | 1
                if provider_iface not in lan.interfaces:
                    lan.interfaces[provider_iface] = provider_border.router_id
                    provider_border.interface_addresses.append(provider_iface)
                border = self.world.routers[info.border_router_id]  # type: ignore[index]
                customer_iface = lan_net | (2 + lan_index)
                lan.interfaces[customer_iface] = border.router_id
                border.interface_addresses.append(customer_iface)
                if border.peering_lan_address is None:
                    border.peering_lan_address = customer_iface

    def _infra_home_prefix(self, info: ASInfo) -> IPv6Prefix:
        return info.prefixes[0]

    def _infra_slash64(self, home: IPv6Prefix, index: int = 0) -> int:
        """The ``index``-th infrastructure /64, placed in ``home``'s *last*
        /48 so it never collides with the low-index active-subnet cluster."""
        if home.length <= 48:
            last_slash48 = home.network | (
                ((1 << (48 - home.length)) - 1) << (128 - 48)
            )
            return last_slash48 | ((index & 0xFFFF) << (128 - 64))
        # Announcement longer than /48: use its last /64s.
        span = 1 << (64 - home.length)
        return home.network | (((span - 1 - index) % span) << (128 - 64))

    def _new_router(self, info: ASInfo, *, is_border: bool = False) -> Router:
        vendor = self._draw_vendor(info.country)
        router = Router(
            router_id=self._next_router_id,
            asn=info.asn,
            country=info.country,
            vendor=vendor,
            is_border=is_border,
            loopback=0,
            answers_direct_ping=self.rng.random()
            < vendor.answers_direct_ping_probability,
            unstable_reply_source=self.rng.random()
            < self.config.unstable_reply_source_fraction,
            errors_from_primary=self.rng.random()
            < self.config.errors_from_primary_fraction,
            sra_from_primary=self.rng.random()
            < self.config.sra_from_primary_fraction,
            emits_unreachables=self.rng.random()
            >= self.config.silent_unreachable_fraction,
            background_error_load=self._draw_background_load(),
        )
        self._next_router_id += 1
        self.world.routers[router.router_id] = router
        info.router_ids.append(router.router_id)
        if self._flush_enabled:
            self._unflushed.append(router)
        return router

    def _draw_vendor(self, country: str) -> VendorProfile:
        cached = self._vendor_cache.get(country)
        if cached is None:
            mix = self.config.vendor_mix.get(
                country, self.config.vendor_mix["default"]
            )
            vendors = [vendor_by_name(name) for name, _ in mix]
            weights = [w for _, w in mix]
            cached = (vendors, weights)
            self._vendor_cache[country] = cached
        vendors, weights = cached
        return self.rng.choices(vendors, weights=weights)[0]

    def _draw_background_load(self) -> float:
        config = self.config
        if self.rng.random() < config.quiet_router_fraction:
            return self.rng.uniform(0.0, config.quiet_background_max)
        return self.rng.uniform(
            config.noisy_background_min, config.noisy_background_max
        )

    # ------------------------------------------------------------------ #
    # step 5: vantage point and transit paths
    # ------------------------------------------------------------------ #

    def _place_vantage(self) -> None:
        tier2 = [asn for asn, slot in self._slots.items() if slot.tier == 2]
        upstream_asn = self.rng.choice(tier2)
        upstream_info = self.world.ases[upstream_asn]
        upstream_router_id = upstream_info.border_router_id
        assert upstream_router_id is not None
        vantage_asn = 64999
        vantage_info = ASInfo(
            asn=vantage_asn, country="DEU", as_type=ASType.EDUCATION
        )
        vantage_info.providers.append(upstream_asn)
        upstream_info.customers.append(vantage_asn)
        self.world.ases[vantage_asn] = vantage_info
        self._graph.add_node(vantage_asn)
        self._graph.add_edge(vantage_asn, upstream_asn)
        # The vantage announces a /48 carved from its upstream's space.
        upstream_home = self._infra_home_prefix(upstream_info)
        vantage_prefix = IPv6Prefix(
            upstream_home.network | (0xFFFE << (128 - 48)), 48
        )
        vantage_info.prefixes.append(vantage_prefix)
        self.world.bgp.add(
            Announcement(prefix=vantage_prefix, origin_asn=vantage_asn)
        )
        self.world.vantage = VantagePoint(
            asn=vantage_asn,
            address=vantage_prefix.network | 0x1,
            upstream_router_id=upstream_router_id,
        )

    def _compute_paths(self) -> None:
        assert self.world.vantage is not None
        source = self.world.vantage.asn
        shortest = nx.single_source_shortest_path(self._graph, source)
        for asn, info in self.world.ases.items():
            if asn == source:
                continue
            as_path = shortest.get(asn)
            if as_path is None:
                # Disconnected AS (should not happen): route via upstream only.
                as_path = [source, asn]
            hops: list[TransitHop] = []
            for hop_asn in as_path[1:]:
                hop_info = self.world.ases[hop_asn]
                border_id = hop_info.border_router_id
                if border_id is None:
                    continue
                border = self.world.routers[border_id]
                iface = border.interface_addresses[0]
                hops.append(TransitHop(router_id=border_id, interface=iface))
            self.world.paths[asn] = tuple(hops)
        self.world.paths[source] = (
            TransitHop(
                router_id=self.world.vantage.upstream_router_id,
                interface=self.world.routers[
                    self.world.vantage.upstream_router_id
                ].interface_addresses[0],
            ),
        )

    # ------------------------------------------------------------------ #
    # step 6: periphery subnets, routers, hosts
    # ------------------------------------------------------------------ #

    def _populate_subnets(self) -> None:
        config = self.config
        for asn, slot in self._slots.items():
            info = slot.info
            count = self._subnet_count(slot)
            networks = self._draw_subnet_networks(info, count)
            if (
                self.rng.random() < config.subnet_zero_active_probability
                and info.prefixes
            ):
                networks.add(info.prefixes[0].network)
            single_router_as = (
                slot.tier == 3
                and self.rng.random() < config.single_router_as_fraction
            )
            self._attach_routers(info, sorted(networks), single_router_as)
            self._flush_routers()

    def _subnet_count(self, slot: _ASSlot) -> int:
        config = self.config
        mean = config.mean_subnets_per_as * slot.size_factor
        sigma = 1.0
        mu = log(max(mean, 1.0)) - sigma * sigma / 2
        value = int(self.rng.lognormvariate(mu, sigma))
        return max(1, min(config.max_subnets_per_as, value))

    def _draw_subnet_networks(self, info: ASInfo, count: int) -> set[int]:
        networks: set[int] = set()
        attempts = 0
        eligible = [p for p in info.prefixes if p.length <= 64]
        if not eligible:
            return networks
        # Random.choices(eligible, weights)[0] per draw, its cumulative
        # weights built once: the same random() call picks the same prefix.
        cum = list(accumulate(3.0 if p == eligible[0] else 1.0 for p in eligible))
        total = cum[-1] + 0.0
        hi = len(eligible) - 1
        random = self.rng.random
        getrandbits = self.rng.getrandbits
        while len(networks) < count and attempts < count * 6:
            attempts += 1
            prefix = eligible[bisect_right(cum, random() * total, 0, hi)]
            networks.add(_random_slash64(prefix, random, getrandbits))
        return networks

    def _attach_routers(
        self, info: ASInfo, networks: list[int], single_router_as: bool
    ) -> None:
        remaining = list(networks)
        self.rng.shuffle(remaining)
        border = (
            self.world.routers[info.border_router_id]
            if info.border_router_id is not None
            else None
        )
        while remaining:
            if single_router_as and border is not None:
                router = border
                take = len(remaining)
            else:
                router = self._new_router(info)
                take = self._router_subnet_count(info)
                self._maybe_assign_peering_source(router, info)
            for network in remaining[:take]:
                self._create_subnet(info, router, network)
            remaining = remaining[take:]

    def _router_subnet_count(self, info: ASInfo) -> int:
        config = self.config
        if (
            info.as_type is ASType.ISP
            and self.rng.random() < config.subnets_per_router_tail
        ):
            # BNG-style aggregation router: heavy-tailed subnet count.
            return min(
                config.max_subnets_per_router,
                int(self.rng.paretovariate(0.9) * 16),
            )
        return 1 + self._geometric(3.0)

    def _maybe_assign_peering_source(self, router: Router, info: ASInfo) -> None:
        config = self.config
        if not info.providers or self.rng.random() > config.replies_from_peering_fraction:
            return
        border = (
            self.world.routers[info.border_router_id]
            if info.border_router_id is not None
            else None
        )
        if border is None or border.peering_lan_address is None:
            return
        # Allocate this router its own address on the provider-side LAN.
        lan_net = border.peering_lan_address & ~((1 << 64) - 1)
        lan = self.world.infra_subnets.get(lan_net)
        if lan is None:
            return
        candidate = lan_net | (0x1000 + router.router_id % 0xE000)
        if candidate in lan.interfaces:
            return
        lan.interfaces[candidate] = router.router_id
        router.peering_lan_address = candidate
        router.replies_from_peering = True

    def _create_subnet(self, info: ASInfo, router: Router, network: int) -> None:
        config = self.config
        random = self.rng.random
        getrandbits = self.rng.getrandbits
        iface = network | _IFACE_IIDS[_randbelow(getrandbits, 5)]
        # Knuth's Poisson draw (the means are tiny), capped.
        limit = exp(-config.mean_hosts_per_subnet)
        count, product = 0, random()
        while product > limit:
            count += 1
            product *= random()
        hosts = set()
        for _ in range(min(config.max_hosts_per_subnet, count)):
            if random() < 0.4:
                hosts.add(network | (3 + _randbelow(getrandbits, 0xFD)))  # low byte
            else:  # SLAAC-ish, never 0
                hosts.add(network | _randbelow(getrandbits, 1 << 64) | 0x1)
        hosts.discard(network)
        hosts.discard(iface)
        death_epoch: int | None = None
        if random() < config.subnet_death_probability * 6:
            death_epoch = 1 + self._geometric(
                1.0 / max(config.subnet_death_probability, 1e-9) / 20
            )
        subnet = Subnet(
            prefix=IPv6Prefix(network, 64),
            asn=info.asn,
            router_id=router.router_id,
            router_interface=iface,
            hosts=tuple(sorted(hosts)),
            aliased=random() < config.aliased_subnet_fraction,
            flaky=random() < config.flaky_subnet_fraction,
            death_epoch=death_epoch,
        )
        router.subnet_interfaces[network] = iface
        router.interface_addresses.append(iface)
        if router.loopback == 0:
            router.loopback = iface
        self._register_subnet(subnet)

    # ------------------------------------------------------------------ #
    # step 7: aliases
    # ------------------------------------------------------------------ #

    def _inject_aliases(self) -> None:
        config = self.config
        for asn, slot in self._slots.items():
            info = slot.info
            if info.as_type is not ASType.HOSTING:
                continue
            if self.rng.random() > config.alias_region_per_hosting_as:
                continue
            home = info.prefixes[0]
            if home.length > 48:
                continue
            index = self.rng.randrange(*_ALIAS_INDEX_RANGE)
            index >>= max(0, home.length - 32)
            network = home.network | (index << (128 - 48))
            region = AliasRegion(prefix=IPv6Prefix(network, 48), asn=asn)
            self._register_alias(region)

    # ------------------------------------------------------------------ #
    # step 8: routing loops and amplification
    # ------------------------------------------------------------------ #

    def _inject_loops(self) -> None:
        config = self.config
        stubs = [
            slot
            for slot in self._slots.values()
            if slot.tier == 3 and slot.info.providers
        ]
        target_count = max(1, int(len(self._slots) * config.looping_as_fraction))
        weights = [
            self._loop_router_weight(slot.info.country) for slot in stubs
        ]
        chosen: set[int] = set()
        while len(chosen) < min(target_count, len(stubs)):
            slot = self.rng.choices(stubs, weights=weights)[0]
            chosen.add(slot.info.asn)
        for asn in chosen:
            self._inject_loops_for_as(self._slots[asn])
            self._flush_routers()

    def _loop_router_weight(self, country: str) -> float:
        prior = self.config.loop_country_priors.get(country)
        if prior is None:
            return LOOP_OTHER_ROUTERS / 60
        return prior[1]

    def _loop_mass_bias(self, country: str) -> float:
        """How strongly the country prefers large loop regions."""
        prior = self.config.loop_country_priors.get(country)
        if prior is None:
            return 1.0
        mass, routers = prior
        return max(0.25, (mass / max(routers, 1e-6)) / (LOOP_OTHER_MASS / LOOP_OTHER_ROUTERS))

    def _inject_loops_for_as(self, slot: _ASSlot) -> None:
        config = self.config
        info = slot.info
        provider_asn = info.providers[0]
        provider_info = self.world.ases[provider_asn]
        provider_router_id = provider_info.border_router_id
        if provider_router_id is None:
            return
        router_count = 1 + self._geometric(config.loops_per_as_mean - 1)
        for index in range(router_count):
            if index == 0 and info.border_router_id is not None:
                edge_router = self.world.routers[info.border_router_id]
            else:
                edge_router = self._new_router(info)
                edge_router.loopback = (
                    info.prefixes[0].network
                    | (_INFRA_SLASH48_INDEX << (128 - 48))
                    | (0x200 + index)
                )
                edge_router.interface_addresses.append(edge_router.loopback)
                self._register_loopback_iface(info, edge_router)
            self._maybe_make_buggy(edge_router)
            for region in self._draw_loop_regions(slot, edge_router.router_id, provider_router_id):
                self._register_loop(region)

    def _register_loopback_iface(self, info: ASInfo, router: Router) -> None:
        home = self._infra_home_prefix(info)
        infra_net = self._infra_slash64(home)
        infra = self.world.infra_subnets.get(infra_net)
        if infra is not None:
            infra.interfaces[router.loopback] = router.router_id

    def _maybe_make_buggy(self, router: Router) -> None:
        config = self.config
        if self.rng.random() > config.buggy_loop_router_fraction:
            return
        if router.country in ("DEU", "USA") and self.rng.random() < 0.25:
            router.vendor = vendor_by_name("buggy-severe")
            router.replication_factor = self.rng.uniform(1.42, 1.55)
        else:
            # Skewed towards barely-replicating firmware: the paper finds
            # 98 % of amplification factors <= 10, with maxima around 51
            # in BRA/CHN (1.14**30 ~ 51 at hop limit 64).
            router.vendor = vendor_by_name("buggy-mild")
            router.replication_factor = 1.01 + 0.13 * self.rng.random() ** 4

    def _draw_loop_regions(
        self, slot: _ASSlot, customer_router_id: int, provider_router_id: int
    ) -> list[LoopRegion]:
        config = self.config
        info = slot.info
        eligible = [p for p in info.prefixes if p.length <= 44]
        if not eligible:
            return []
        regions: list[LoopRegion] = []
        single = self.rng.random() < config.single_slash48_loop_fraction
        region_count = 1 if single else 1 + self._geometric(1.0)
        bias = self._loop_mass_bias(info.country)
        for _ in range(region_count):
            home = self.rng.choice(eligible)
            if single:
                length = 48
            else:
                weights = [
                    w * (bias if length <= 40 else 1.0)
                    for length, w in zip(
                        config.loop_region_length_choices,
                        config.loop_region_length_weights,
                    )
                ]
                length = self.rng.choices(
                    config.loop_region_length_choices, weights=weights
                )[0]
            length = max(length, home.length + 2)
            network = self._loop_region_network(home, length)
            if network is None:
                continue
            regions.append(
                LoopRegion(
                    prefix=IPv6Prefix(network, length),
                    asn=info.asn,
                    customer_router_id=customer_router_id,
                    provider_router_id=provider_router_id,
                )
            )
        return regions

    def _loop_region_network(self, home: IPv6Prefix, length: int) -> int | None:
        """Place a loop region in the upper half of ``home``'s /48 space."""
        free_bits = length - home.length
        if free_bits <= 0:
            return None
        span = 1 << free_bits
        index = self.rng.randrange(span // 2, max(span // 2 + 1, span - span // 16))
        return home.network | (index << (128 - length))

    # ------------------------------------------------------------------ #
    # step 9: IRR registrations
    # ------------------------------------------------------------------ #

    def _register_route6(self) -> None:
        config = self.config
        for asn, slot in self._slots.items():
            info = slot.info
            for prefix in info.prefixes:
                if self.rng.random() < config.route6_registered_fraction:
                    self.world.irr.add(
                        Route6Object(
                            prefix=prefix,
                            origin_asn=asn,
                            descr=f"{info.as_type.value} block",
                            maintainer=f"MAINT-AS{asn}",
                            source="SYNTH",
                        )
                    )
            extras = self._geometric(config.route6_extra_slash48_mean)
            for _ in range(extras):
                prefix = self._draw_route6_extra(slot)
                if prefix is not None:
                    self.world.irr.add(
                        Route6Object(
                            prefix=prefix,
                            origin_asn=asn,
                            descr="customer assignment",
                            maintainer=f"MAINT-AS{asn}",
                            source="SYNTH",
                        )
                    )

    def _draw_route6_extra(self, slot: _ASSlot) -> IPv6Prefix | None:
        config = self.config
        if self.rng.random() < config.route6_stale_fraction:
            # Stale registration: space never announced in BGP.
            index = self._free_slash32(slot)
            base = self._slash32(slot, index)
            offset = self.rng.randrange(1 << 16)
            return IPv6Prefix(base.network | (offset << (128 - 48)), 48)
        home = slot.info.prefixes[0]
        if home.length > 48:
            return None
        offset = self.rng.randrange(1 << (48 - home.length))
        return IPv6Prefix(home.network | (offset << (128 - 48)), 48)

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #

    def _geometric(self, mean: float) -> int:
        if mean <= 0:
            return 0
        return int(self.rng.expovariate(1.0 / mean))


def build_world(config: WorldConfig | None = None) -> World:
    """Build the default (or a custom-configured) simulated Internet."""
    return WorldBuilder(config or WorldConfig()).build()


def build_world_artifact(
    config: WorldConfig | None, path: str | Path
) -> World:
    """Generate a world streamed straight into a binary artifact at
    ``path`` and return the mmap-loaded (lazy) world.

    Peak generation RSS is bounded by the per-AS working set plus the
    O(#ASes) core — periphery routers and subnets spill to disk as soon
    as their owning step finishes with them — so paper-magnitude worlds
    (hundreds of thousands of routers) build in a flat footprint.  The
    returned world carries ``artifact_path``, which switches the sharded
    runner to O(KB) worker bootstrap.
    """
    from .artifact import (
        WorldArtifactWriter,
        build_fingerprint,
        load_world_artifact,
    )

    config = config or WorldConfig()
    writer = WorldArtifactWriter(
        path, seed=config.seed, fingerprint=build_fingerprint(config)
    )
    try:
        WorldBuilder(config, artifact_writer=writer).build()
    except BaseException:
        writer.abort()
        raise
    return load_world_artifact(path)
