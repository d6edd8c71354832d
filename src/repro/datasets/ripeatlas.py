"""A RIPE Atlas-style traceroute dataset.

Atlas differs from Ark in two ways that matter for the §5.1 comparison:

* probes sit *inside* thousands of member ASes, so the dataset contains
  first-hop and intra-AS router addresses of ASes no outside-in campaign
  traverses (Fig. 7: Atlas contributes exclusive ASes),
* targets are hitlist-style host addresses (built-in measurements, anchor
  meshes), not per-prefix sweeps.

We reproduce both: traceroutes towards sampled hitlist targets from the
central vantage, plus the probe-local view — each probe-hosting AS
contributes its first-hop infrastructure (border/peering interfaces), as
every Atlas trace records them regardless of target.
"""

from __future__ import annotations

import random

from ..hitlist.hitlist import Hitlist
from ..netsim.engine import SimulationEngine
from ..topology.entities import World
from .common import AddressDataset
from .traceroute import traceroute


def run_atlas_campaign(
    world: World,
    hitlist: Hitlist,
    *,
    probe_as_fraction: float = 0.5,
    max_targets: int = 2000,
) -> AddressDataset:
    """Build the Atlas-style dataset: target traces (32 hops at most, in
    epoch 2100) + probe-local hops."""
    rng = random.Random(73)
    dataset = AddressDataset(name="ripe-atlas")
    engine = SimulationEngine(world, epoch=2100)

    # Traces towards (a sample of) hitlist targets.
    addresses = hitlist.addresses()
    if len(addresses) > max_targets:
        addresses = rng.sample(addresses, max_targets)
    time = 0.0
    probe_id = 1 << 41
    for target in addresses:
        trace = traceroute(
            engine, target, max_hops=32, time=time, probe_id_base=probe_id
        )
        dataset.update(trace.responding_sources())
        time += 0.05
        probe_id += 256

    # Probe-local first hops: every Atlas probe's traces start with its
    # host AS's gateway and border interfaces.
    vantage_asn = world.vantage.asn if world.vantage else None
    candidate_asns = [asn for asn in world.ases if asn != vantage_asn]
    probe_asns = rng.sample(
        candidate_asns, k=max(1, int(len(candidate_asns) * probe_as_fraction))
    )
    for asn in probe_asns:
        info = world.ases[asn]
        if info.border_router_id is None:
            continue
        border = world.routers[info.border_router_id]
        if border.interface_addresses:
            dataset.add(border.interface_addresses[0])
        if border.peering_lan_address is not None:
            dataset.add(border.peering_lan_address)
        # One internal gateway interface per probe, if the AS has any.
        internal_candidates = [
            router_id for router_id in info.router_ids
            if router_id != info.border_router_id
        ]
        if internal_candidates:
            router = world.routers[rng.choice(internal_candidates)]
            if router.interface_addresses:
                dataset.add(router.interface_addresses[0])
    return dataset
