"""A TUM-hitlist-like community hitlist harvested from the world.

The real hitlist aggregates years of passive sources (DNS, CT logs, IXP
flows, NTP pools) into ~20 M active hosts plus an aliased-prefix list.  We
reproduce its *statistical* role:

* most entries are genuinely active hosts (sampled from the world's ground
  truth), so hitlist-derived /64s are very likely live subnets — the
  property that makes the Hitlist /64 input the survey's best performer,
* a staleness fraction points at hosts that no longer exist (dead subnets
  or random addresses in announced space), capping the echo rate,
* the published aliased-prefix list covers *most but not all* aliased
  networks, which is why the survey additionally needs the self-reply rule.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from random import Random

from ..addr.ipv6 import IPv6Prefix
from ..hitlist.aliases import AliasedPrefixList
from ..hitlist.hitlist import Hitlist
from ..topology.artifact import LazySubnetMap
from ..topology.entities import World
from ..topology.generator import _randbelow


def _subnet_rows(world: World) -> Iterator[tuple[int, int, bool, Sequence[int]]]:
    """``(network, router interface, aliased, hosts)`` of every subnet in
    ``world.subnets`` order; an artifact world's read from its mapped rows."""
    if isinstance(world.subnets, LazySubnetMap):
        return world.subnets.rows()
    subnets = world.subnets.values()
    return ((s.prefix.network, s.router_interface, s.aliased, s.hosts) for s in subnets)


def harvest_hitlist(
    world: World,
    *,
    coverage: float = 0.65,
    stale_fraction: float = 0.65,
    router_fraction: float = 0.03,
    seed: int = 97,
) -> Hitlist:
    """Build a community-style hitlist from the world's host population.

    ``coverage`` is the fraction of live hosts the community has ever seen;
    ``stale_fraction`` (of the final list) are entries that no longer
    respond: addresses inside announced-but-unassigned space, mimicking
    hosts that existed when collected.  ``router_fraction`` of router
    interface addresses are also included — the extended TUM hitlist folds
    in traceroute-discovered router addresses, which is what gives the
    (small) SRA/hitlist overlap the paper reports (§5.2: 4.4 M shared).
    On an artifact world the walk reads its subnet rows, not ``Subnet``s.
    """
    if not 0 < coverage <= 1:
        raise ValueError("coverage must be in (0, 1]")
    if not 0 <= stale_fraction < 1:
        raise ValueError("stale_fraction must be in [0, 1)")
    if not 0 <= router_fraction < 1:
        raise ValueError("router_fraction must be in [0, 1)")
    rng = Random(seed)
    random = rng.random
    getrandbits = rng.getrandbits
    hitlist = Hitlist(name="tum-hitlist")
    add = hitlist.add
    interfaces = []  # every host draw comes before the first interface draw
    for _, interface, _, hosts in _subnet_rows(world):
        interfaces.append(interface)
        for host in hosts:
            if random() < coverage:
                add(host)
    if router_fraction:
        for interface in interfaces:
            if random() < router_fraction:
                add(interface)
    live_count = len(hitlist)
    stale_count = int(live_count * stale_fraction / (1 - stale_fraction))
    # rng.choice(announcements), then rng.randrange(1, 1 << free_bits)
    # inside it, as the (network, range width) pairs computed once.
    spans = [(p.network, (1 << (128 - p.length)) - 1) for p in world.bgp.prefixes()]
    if any(width == 0 for _, width in spans):
        raise ValueError("a /128 announcement has no stale address to draw")
    added = 0
    while added < stale_count and spans:
        network, width = spans[_randbelow(getrandbits, len(spans))]
        if add(network | (1 + _randbelow(getrandbits, width))):
            added += 1
    return hitlist


def published_alias_list(
    world: World,
    *,
    recall: float = 0.90,
    seed: int = 101,
) -> AliasedPrefixList:
    """The community aliased-prefix list: high but imperfect recall.

    Covers ``recall`` of the world's aliased subnets/regions; the rest must
    be caught by the survey's self-reply rule.  An artifact world's
    subnets are read from its rows, as the harvest reads them.
    """
    if not 0 <= recall <= 1:
        raise ValueError("recall must be in [0, 1]")
    rng = Random(seed)
    alias_list = AliasedPrefixList()
    for region in world.alias_regions:
        if rng.random() < recall:
            alias_list.add(region.prefix)
    for network, _, aliased, _ in _subnet_rows(world):
        if aliased and rng.random() < recall:
            alias_list.add(IPv6Prefix(network, 64))
    return alias_list
