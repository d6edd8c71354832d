"""Tests for the comparison-dataset builders (§5)."""

import pytest
from helpers import all_hosts

from repro.datasets.caida import run_ark_campaign
from repro.datasets.common import AddressDataset
from repro.datasets.ixp import run_ixp_capture
from repro.datasets.ripeatlas import run_atlas_campaign
from repro.datasets.traceroute import traceroute
from repro.datasets.tum import (
    harvest_hitlist,
    published_alias_list,
)
from repro.metadata.asn import ASNMapper
from repro.netsim.engine import SimulationEngine
from repro.packet.icmpv6 import ICMPv6Type


class TestTraceroute:
    def test_hops_match_transit_path(self, tiny_world):
        engine = SimulationEngine(tiny_world, epoch=0)
        subnet = next(
            s
            for s in tiny_world.subnets.values()
            if not s.flaky and s.death_epoch is None and not s.aliased
        )
        trace = traceroute(engine, subnet.sra_address, probes_per_hop=3)
        path = tiny_world.paths[subnet.asn]
        observed = [hop.source for hop in trace.hops if hop.source is not None]
        # Transit TEs follow the precomputed path interfaces in order.
        expected = [hop.interface for hop in path]
        overlap = [src for src in observed if src in expected]
        assert overlap == [e for e in expected if e in observed]

    def test_reached_terminal(self, tiny_world):
        engine = SimulationEngine(tiny_world, epoch=0)
        from repro.topology.profiles import SRABehavior

        subnet = next(
            s
            for s in tiny_world.subnets.values()
            if tiny_world.routers[s.router_id].vendor.sra_behavior
            is SRABehavior.REPLY
            and not s.flaky and s.death_epoch is None and not s.aliased
        )
        trace = traceroute(engine, subnet.sra_address, probes_per_hop=3)
        assert trace.reached
        assert trace.destination_source is not None

    def test_loop_detection(self, tiny_world):
        engine = SimulationEngine(tiny_world, epoch=0)
        region = tiny_world.loop_regions[0]
        target = region.prefix.network | 0x77
        trace = traceroute(engine, target, max_hops=40, probes_per_hop=3)
        assert not trace.reached
        # Looping traces end at the repeat/alternate heuristic or gap.
        assert len(trace.hops) <= 40

    def test_gap_limit_stops_trace(self, tiny_world):
        engine = SimulationEngine(tiny_world, epoch=0)
        # Unrouted space: nothing past the upstream answers.
        trace = traceroute(engine, 0x3ABC << 112, max_hops=30, probes_per_hop=1)
        assert len(trace.hops) < 30

    def test_responding_sources(self):
        from repro.datasets.traceroute import TracerouteHop, TracerouteResult

        result = TracerouteResult(target=1)
        result.hops = [
            TracerouteHop(1, 10, int(ICMPv6Type.TIME_EXCEEDED)),
            TracerouteHop(2, None, None),
        ]
        result.destination_source = 20
        assert result.responding_sources() == {10, 20}


class TestTumHarvest:
    def test_coverage_bounds(self, tiny_world):
        full = harvest_hitlist(
            tiny_world, coverage=1.0, stale_fraction=0.0, router_fraction=0.0
        )
        hosts = set(all_hosts(tiny_world))
        assert set(full.addresses()) == hosts

    def test_router_fraction_adds_interfaces(self, tiny_world):
        """The extended hitlist folds in traceroute-discovered router
        addresses (gives the paper's small SRA/hitlist overlap)."""
        hitlist = harvest_hitlist(
            tiny_world, coverage=0.5, stale_fraction=0.2, router_fraction=0.5
        )
        interfaces = {
            s.router_interface for s in tiny_world.subnets.values()
        }
        assert set(hitlist.addresses()) & interfaces

    def test_stale_entries_added(self, tiny_world):
        hitlist = harvest_hitlist(tiny_world, coverage=0.5, stale_fraction=0.4)
        hosts = set(all_hosts(tiny_world))
        stale = [a for a in hitlist if a not in hosts]
        assert len(stale) == pytest.approx(len(hitlist) * 0.4, rel=0.15)

    def test_stale_entries_routed(self, tiny_world):
        hitlist = harvest_hitlist(tiny_world, coverage=0.3, stale_fraction=0.5)
        hosts = set(all_hosts(tiny_world))
        for address in hitlist:
            if address not in hosts:
                assert tiny_world.bgp.is_routed(address)

    def test_live_entries_are_hosts_or_router_interfaces(self, tiny_world):
        hitlist = harvest_hitlist(
            tiny_world, coverage=0.5, stale_fraction=0.0, router_fraction=0.5
        )
        hosts = set(all_hosts(tiny_world))
        interfaces = {s.router_interface for s in tiny_world.subnets.values()}
        assert hitlist
        for address in hitlist:
            assert address in hosts or address in interfaces

    def test_validation(self, tiny_world):
        with pytest.raises(ValueError):
            harvest_hitlist(tiny_world, coverage=0.0)
        with pytest.raises(ValueError):
            harvest_hitlist(tiny_world, stale_fraction=1.0)

    def test_alias_list_recall(self, tiny_world):
        full = published_alias_list(tiny_world, recall=1.0)
        listed = list(full)
        aliased_subnets = [s for s in tiny_world.subnets.values() if s.aliased]
        for subnet in aliased_subnets:
            assert any(prefix.covers(subnet.prefix) for prefix in listed)
        partial = published_alias_list(tiny_world, recall=0.5)
        assert len(partial) <= len(full)


class TestArkCampaign:
    def test_discovers_transit_routers(self, tiny_world):
        dataset = run_ark_campaign(tiny_world, max_prefixes=30)
        assert dataset.name == "caida-ark"
        assert len(dataset) > 0
        # Traceroute-discovered addresses are dominated by infra interfaces.
        infra_addresses = set()
        for infra in tiny_world.infra_subnets.values():
            infra_addresses |= set(infra.interfaces)
        assert dataset.addresses & infra_addresses

    def test_prefix_budget(self, tiny_world):
        small = run_ark_campaign(tiny_world, max_prefixes=5)
        large = run_ark_campaign(tiny_world, max_prefixes=50)
        assert len(large) >= len(small)


class TestAtlasCampaign:
    def test_includes_probe_local_interfaces(self, tiny_world, tiny_hitlist):
        dataset = run_atlas_campaign(
            tiny_world, tiny_hitlist, max_targets=100, probe_as_fraction=1.0
        )
        border_ifaces = {
            tiny_world.routers[info.border_router_id].interface_addresses[0]
            for info in tiny_world.ases.values()
            if info.border_router_id is not None
            and tiny_world.routers[info.border_router_id].interface_addresses
        }
        assert len(dataset.addresses & border_ifaces) > len(border_ifaces) * 0.8

    def test_more_probe_ases_more_addresses(self, tiny_world, tiny_hitlist):
        few = run_atlas_campaign(
            tiny_world, tiny_hitlist, max_targets=50, probe_as_fraction=0.1
        )
        many = run_atlas_campaign(
            tiny_world, tiny_hitlist, max_targets=50, probe_as_fraction=0.9
        )
        assert len(many) > len(few)


class TestIXPCapture:
    def test_sampled_counts(self, tiny_world):
        capture = run_ixp_capture(tiny_world, packets=100_000, sample_rate=100)
        assert capture.packets_sampled <= 100_000 // 100
        assert capture.all_addresses()

    def test_addresses_are_hosts(self, tiny_world):
        capture = run_ixp_capture(tiny_world, packets=50_000, sample_rate=50)
        hosts = set(all_hosts(tiny_world))
        loopbacks = {r.loopback for r in tiny_world.routers.values()}
        for address in capture.all_addresses():
            assert address in hosts or address in loopbacks

    def test_as_dataset_holds_both_directions(self, tiny_world):
        capture = run_ixp_capture(tiny_world, packets=100_000, sample_rate=50)
        dataset = capture.as_dataset()
        assert dataset.name == capture.name
        assert dataset.addresses == (
            capture.source_addresses | capture.destination_addresses
        )

    def test_capture_deterministic_per_seed(self, tiny_world):
        first = run_ixp_capture(tiny_world, seed=5, packets=50_000, sample_rate=50)
        again = run_ixp_capture(tiny_world, seed=5, packets=50_000, sample_rate=50)
        assert first == again

    def test_traffic_skewed_to_top_ases(self, tiny_world):
        capture = run_ixp_capture(tiny_world, packets=400_000, sample_rate=50)
        mapper = ASNMapper(tiny_world.bgp)
        top = capture.as_dataset().top_asns(mapper, 3)
        assert top
        # The top AS carries a disproportionate share (paper: >40 %).
        assert top[0][1] > 0.15


class TestAddressDataset:
    def test_set_operations(self):
        a = AddressDataset(name="a", addresses={1, 2, 3})
        b = AddressDataset(name="b", addresses={3, 4})
        assert a.overlap(b) == {3}
        assert a.exclusive([b]) == {1, 2}
        assert 2 in a and 9 not in a
        assert len(a) == 3

    def test_asns(self, tiny_world):
        mapper = ASNMapper(tiny_world.bgp)
        subnet = next(iter(tiny_world.subnets.values()))
        dataset = AddressDataset(name="x", addresses={subnet.router_interface})
        assert dataset.asns(mapper) == {subnet.asn}

    def test_top_asns_shares_sum(self, tiny_world):
        mapper = ASNMapper(tiny_world.bgp)
        addresses = {s.router_interface for s in tiny_world.subnets.values()}
        dataset = AddressDataset(name="x", addresses=addresses)
        top = dataset.top_asns(mapper, 5)
        assert len(top) == 5
        assert sum(share for _, share in top) <= 1.0
        assert top == sorted(top, key=lambda t: -t[1])
