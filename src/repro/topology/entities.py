"""Entity model of the simulated IPv6 Internet.

The world is a static description — ASes, routers, subnets, misconfigured
regions — plus a *resolution trie* that maps any probed destination address
to the entity responsible for answering it.  The packet-level behaviour
(forwarding, rate limiting, loop amplification) lives in
:mod:`repro.netsim.engine`; this module only holds state.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Sequence

from ..addr.ipv6 import IPv6Prefix, set_slots
from ..bgp.table import BGPTable
from ..irr.database import IRRDatabase
from .profiles import VendorProfile
from ..bgp.lpm import LengthIndexedLPM


class ASType(enum.Enum):
    """Coarse network categories, mirroring the IPinfo ASN database."""

    ISP = "isp"
    HOSTING = "hosting"
    BUSINESS = "business"
    EDUCATION = "education"
    CONTENT = "content"


@dataclass(slots=True)
class Router:
    """One router: interfaces, vendor behaviour, and reply-source policy.

    ``reply_source_for`` (in the engine) usually picks the interface facing
    the probed subnet; ``peering_lan_address`` — an address inside the
    *provider's* space — substitutes when ``replies_from_peering`` is set,
    reproducing the paper's observation that SRA replies sometimes carry
    upstream addresses, making AS attribution error-prone.

    A router decoded from a world artifact holds read-only views over the
    mapped file in ``interface_addresses`` and ``subnet_interfaces``; they
    compare equal to, and pickle as, the list and dict a built world holds.
    """

    router_id: int
    asn: int
    country: str
    vendor: VendorProfile
    loopback: int
    interface_addresses: list[int] = field(default_factory=list)
    subnet_interfaces: dict[int, int] = field(default_factory=dict)
    peering_lan_address: int | None = None
    replies_from_peering: bool = False
    answers_direct_ping: bool = False
    unstable_reply_source: bool = False
    is_border: bool = False
    # Reply-source policy: routers that source ICMP errors and/or SRA Echo
    # replies from their primary (loopback) address rather than the
    # subnet-facing interface.  When both flags hold, one scan can see the
    # same source address in Echo *and* error roles — the Fig. 4 "Both"
    # class.
    errors_from_primary: bool = False
    sra_from_primary: bool = False
    # Policy: some networks filter outbound Destination Unreachable
    # messages entirely ("no ip unreachables"), replying with silence.
    emits_unreachables: bool = True
    # Effective per-router loop replication multiplier; > 1.0 only for
    # routers running buggy firmware (vendor.replicates_in_loops).
    replication_factor: float = 1.0
    # Fraction of ICMP-error token-bucket capacity consumed by background
    # traffic, the driver of the "on-off" suppression behaviour; the engine
    # jitters this per scan epoch.
    background_error_load: float = 0.0

    def all_addresses(self) -> set[int]:
        addresses = {self.loopback, *self.interface_addresses}
        if self.peering_lan_address is not None:
            addresses.add(self.peering_lan_address)
        return addresses


@dataclass(slots=True)
class Subnet:
    """An active (assigned) subnet with its attached periphery router.

    ``hosts`` are responsive end-host addresses inside the subnet: a tuple
    in a built world, a read-only view over the mapped file in one decoded
    from a world artifact (equal to, and pickled as, the tuple).
    ``flaky`` subnets answer only intermittently across scan epochs and
    ``death_epoch`` marks permanent churn — both drive the paper's
    stability figures (Fig. 6b).
    """

    prefix: IPv6Prefix
    asn: int
    router_id: int
    router_interface: int
    hosts: Sequence[int] = ()
    aliased: bool = False
    flaky: bool = False
    death_epoch: int | None = None

    @property
    def sra_address(self) -> int:
        return self.prefix.network


@dataclass(slots=True)
class LoopRegion:
    """A block of provider-aggregated space that loops customer<->provider.

    Packets to any address in ``prefix`` that does not match a more
    specific active subnet bounce between ``customer_router_id`` and
    ``provider_router_id`` until the hop limit expires.  The number of /48
    subnets the region contributes to loop statistics is
    :meth:`slash48_count`.
    """

    prefix: IPv6Prefix
    asn: int
    customer_router_id: int
    provider_router_id: int

    def slash48_count(self) -> int:
        if self.prefix.length >= 48:
            return 1
        return 1 << (48 - self.prefix.length)


@dataclass(slots=True)
class AliasRegion:
    """A fully-responsive region: every address answers Echo (from itself)."""

    prefix: IPv6Prefix
    asn: int


@dataclass(slots=True)
class InfraSubnet:
    """Infrastructure space (transit links, peering LANs) with router
    interfaces: maps interface address -> router id."""

    prefix: IPv6Prefix
    asn: int
    interfaces: dict[int, int] = field(default_factory=dict)


class EntryKind(enum.Enum):
    SUBNET = "subnet"
    ALIAS = "alias"
    LOOP = "loop"
    INFRA = "infra"


@dataclass(frozen=True, slots=True)
class ResolutionEntry:
    """What the resolution trie stores: a typed pointer to an entity."""

    kind: EntryKind
    payload: object


@dataclass(slots=True)
class ASInfo:
    """One autonomous system: identity, announcements, internals."""

    asn: int
    country: str
    as_type: ASType
    prefixes: list[IPv6Prefix] = field(default_factory=list)
    router_ids: list[int] = field(default_factory=list)
    border_router_id: int | None = None
    providers: list[int] = field(default_factory=list)
    customers: list[int] = field(default_factory=list)
    peers: list[int] = field(default_factory=list)
    is_ixp_member: bool = False
    # Network-wide policy: filter outbound "No Route" unreachables for
    # unrouted internal space (common at network edges).
    filters_unroutable: bool = False


@dataclass(frozen=True, slots=True)
class TransitHop:
    """One traversed transit router: which router, replying from where."""

    router_id: int
    interface: int
    __setstate__ = set_slots


@dataclass(slots=True)
class VantagePoint:
    """The scanner's location: a measurement AS with an upstream router."""

    asn: int
    address: int
    upstream_router_id: int


@dataclass(slots=True)
class World:
    """The full simulated Internet, as consumed by the engine and survey."""

    seed: int
    bgp: BGPTable
    irr: IRRDatabase
    ases: dict[int, ASInfo] = field(default_factory=dict)
    routers: dict[int, Router] = field(default_factory=dict)
    subnets: dict[int, Subnet] = field(default_factory=dict)  # by network int
    loop_regions: list[LoopRegion] = field(default_factory=list)
    alias_regions: list[AliasRegion] = field(default_factory=list)
    infra_subnets: dict[int, InfraSubnet] = field(default_factory=dict)
    resolution: LengthIndexedLPM[ResolutionEntry] = field(
        default_factory=LengthIndexedLPM
    )
    paths: dict[int, tuple[TransitHop, ...]] = field(default_factory=dict)
    vantage: VantagePoint | None = None
    packet_loss: float = 0.01
    # Artifact provenance: set on worlds loaded from (or streamed to) a
    # binary world artifact.  A non-None path switches the sharded runner
    # to O(KB) worker bootstrap — workers receive (path, fingerprint) and
    # mmap the artifact instead of unpickling the whole world.  Such
    # worlds are *static*: ``routers``/``subnets`` are lazy read-only
    # maps and ``resolution`` is a FrozenLPM, so the register_*/remove
    # mutators below raise on them, before changing anything.
    artifact_path: str | None = None
    artifact_fingerprint: bytes | None = None

    def register_subnet(self, subnet: Subnet) -> None:
        self.resolution.insert(
            subnet.prefix, ResolutionEntry(EntryKind.SUBNET, subnet)
        )
        self.subnets[subnet.prefix.network] = subnet

    def register_loop(self, region: LoopRegion) -> None:
        self.resolution.insert(
            region.prefix, ResolutionEntry(EntryKind.LOOP, region)
        )
        self.loop_regions.append(region)

    def register_alias(self, region: AliasRegion) -> None:
        self.resolution.insert(
            region.prefix, ResolutionEntry(EntryKind.ALIAS, region)
        )
        self.alias_regions.append(region)

    def register_infra(self, infra: InfraSubnet) -> None:
        self.resolution.insert(
            infra.prefix, ResolutionEntry(EntryKind.INFRA, infra)
        )
        self.infra_subnets[infra.prefix.network] = infra

    def remove_loop(self, region: LoopRegion) -> None:
        """Drop a loop region (operator applied a null route, Appendix C)."""
        self.resolution.remove(region.prefix)
        self.loop_regions.remove(region)
