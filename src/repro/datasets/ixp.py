"""IXP flow capture: sampled (1:N) traffic between member ASes.

The paper analyses one month of 1:16k-sampled flow data from a large
regional IXP: 2.5 B sampled packets, 198 M unique addresses, a strong bias
towards a few hyper-active ASNs (>60 % of packets from the top members).

The generator draws packets between *hosts* of IXP member ASes with a
Zipf-like activity skew, then applies packet sampling.  Because flow
endpoints are end hosts while SRA probing discovers router interfaces, the
IP-level overlap between the two datasets is naturally tiny (§5.3: 0.2 %),
while the AS-level overlap is large.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..topology.entities import World
from .common import AddressDataset

# Skew of the members' activity: the r-th busiest sends with weight r**-1.2.
_ZIPF_EXPONENT = 1.2


@dataclass(slots=True)
class IXPFlowDataset:
    """Sampled flow records: source/destination address multisets."""

    name: str = "ixp-flows"
    sample_rate: int = 16_384
    packets_generated: int = 0
    packets_sampled: int = 0
    source_addresses: set[int] = field(default_factory=set)
    destination_addresses: set[int] = field(default_factory=set)

    def all_addresses(self) -> set[int]:
        return self.source_addresses | self.destination_addresses

    def as_dataset(self) -> AddressDataset:
        return AddressDataset(name=self.name, addresses=self.all_addresses())


def run_ixp_capture(
    world: World,
    *,
    seed: int = 79,
    packets: int = 2_000_000,
    sample_rate: int = 256,
) -> IXPFlowDataset:
    """Generate IXP traffic and keep a 1:``sample_rate`` packet sample.

    ``sample_rate`` defaults far below the paper's 1:16k because the
    simulated packet count is also scaled down; what must survive is the
    *sampled* address population's skew, not the raw packet count.
    """
    rng = random.Random(seed)
    dataset = IXPFlowDataset(sample_rate=sample_rate)
    members = [
        info for info in world.ases.values() if info.is_ixp_member
    ]
    if len(members) < 2:
        raise ValueError("world has fewer than two IXP member ASes")

    # Hosts per member, with a Zipf-ranked activity weight per AS.
    member_hosts: list[list[int]] = []
    for info in members:
        hosts = [
            host
            for router_id in info.router_ids
            for network in world.routers[router_id].subnet_interfaces
            for host in world.subnets[network].hosts
        ]
        if not hosts:
            hosts = [
                world.routers[info.router_ids[0]].loopback
            ] if info.router_ids else []
        member_hosts.append(hosts)
    ranked = sorted(
        range(len(members)), key=lambda i: len(member_hosts[i]), reverse=True
    )
    weights = [0.0] * len(members)
    for rank, member_index in enumerate(ranked, start=1):
        weights[member_index] = (
            (1.0 / rank**_ZIPF_EXPONENT) if member_hosts[member_index] else 0.0
        )

    indices = list(range(len(members)))
    dataset.packets_generated = packets
    # Draw only the *sampled* packets: sampling a Bernoulli(1/rate) per
    # generated packet is equivalent and O(packets/rate).
    expected_samples = max(1, packets // sample_rate)
    for _ in range(expected_samples):
        src_member, dst_member = rng.choices(indices, weights=weights, k=2)
        src_hosts = member_hosts[src_member]
        dst_hosts = member_hosts[dst_member]
        if not src_hosts or not dst_hosts:
            continue
        dataset.source_addresses.add(rng.choice(src_hosts))
        dataset.destination_addresses.add(rng.choice(dst_hosts))
        dataset.packets_sampled += 1
    return dataset
