"""A CAIDA Ark-style IPv6 topology campaign.

Ark nodes continuously traceroute every BGP-announced prefix: one trace to
the low-byte ``<prefix>::1`` address and one to a random in-prefix address,
every 24 hours.  We run the same target policy over the simulator.  Ark is
globally distributed; our single vantage is a documented simplification —
the dataset's *collection semantics* (traceroute hops towards every
announced prefix) are what the §5.1 comparison depends on.
"""

from __future__ import annotations

import random

from ..addr.randomgen import random_address_in
from ..netsim.engine import SimulationEngine
from ..topology.entities import World
from .common import AddressDataset
from .traceroute import traceroute


def run_ark_campaign(
    world: World,
    *,
    max_prefixes: int | None = None,
) -> AddressDataset:
    """Traceroute ``<prefix>::1`` and a random address per announcement,
    32 hops at most, in epoch 2000."""
    rng = random.Random(71)
    engine = SimulationEngine(world, epoch=2000)
    dataset = AddressDataset(name="caida-ark")
    prefixes = world.bgp.prefixes()
    if max_prefixes is not None and len(prefixes) > max_prefixes:
        prefixes = rng.sample(prefixes, max_prefixes)
    time = 0.0
    probe_id = 1 << 40
    for prefix in prefixes:
        low_byte = prefix.network | 1
        targets = (low_byte, random_address_in(prefix, rng))
        for target in targets:
            trace = traceroute(
                engine,
                target,
                max_hops=32,
                time=time,
                probe_id_base=probe_id,
            )
            dataset.update(trace.responding_sources())
            time += 0.05
            probe_id += 256
    return dataset
