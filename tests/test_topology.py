"""Tests for the world generator: structural invariants and determinism."""

import ast
from dataclasses import fields
from pathlib import Path

import pytest

import repro
from repro.addr.ipv6 import IPv6Prefix
from repro.topology.config import WorldConfig, tiny_config
from repro.topology.entities import ASType, EntryKind
from repro.topology.generator import build_world
from repro.topology.mitigation import (
    fix_all_loops_for_asn,
    run_disclosure_campaign,
)
from repro.topology.profiles import (
    DEFAULT_VENDORS,
    SRABehavior,
    VendorProfile,
    vendor_by_name,
)


class TestConfigValidation:
    def test_tiers_must_fit(self):
        with pytest.raises(ValueError):
            WorldConfig(num_ases=10, num_tier1=5, num_tier2=5)

    def test_packet_loss_range(self):
        with pytest.raises(ValueError):
            WorldConfig(packet_loss=1.0)

    def test_loop_weights_length(self):
        with pytest.raises(ValueError):
            WorldConfig(
                loop_region_length_choices=(44,),
                loop_region_length_weights=(0.5, 0.5),
            )

    def test_tiny_config_valid(self):
        config = tiny_config()
        assert config.num_ases == 60

    def test_only_the_queued_priors_are_read_by_nothing(self):
        """A field no ``src/`` module reads as an attribute changes nothing
        when a user sets it.  The two listed wait for the next world
        regeneration (ROADMAP item 9): removing or wiring either one
        changes ``repr(config)``, so the artifact fingerprint and the
        world goldens.  Any other dead prior fails here."""
        read = {
            node.attr
            for path in Path(repro.__file__).parent.rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        }
        unread = [field.name for field in fields(WorldConfig) if field.name not in read]
        assert unread == ["flaky_response_probability", "background_window_seconds"]


class TestVendorProfiles:
    def test_catalogue_lookup(self):
        for vendor in DEFAULT_VENDORS:
            assert vendor_by_name(vendor.name) is vendor

    def test_unknown_vendor(self):
        with pytest.raises(KeyError):
            vendor_by_name("nonexistent")

    def test_replication_requires_bug_flag(self):
        with pytest.raises(ValueError):
            VendorProfile(
                name="x", sra_behavior=SRABehavior.REPLY, replication_factor=2.0
            )
        with pytest.raises(ValueError):
            VendorProfile(
                name="x",
                sra_behavior=SRABehavior.REPLY,
                replicates_in_loops=True,
                replication_factor=1.0,
            )

    def test_rates_positive(self):
        with pytest.raises(ValueError):
            VendorProfile(name="x", sra_behavior=SRABehavior.DROP, error_rate=0)


class TestWorldStructure:
    def test_every_as_has_announcement(self, tiny_world):
        for asn, info in tiny_world.ases.items():
            assert info.prefixes, f"AS{asn} has no prefixes"
            for prefix in info.prefixes:
                assert tiny_world.bgp.origin_of(prefix.network) is not None

    def test_subnets_inside_announced_space(self, tiny_world):
        for subnet in tiny_world.subnets.values():
            origin = tiny_world.bgp.origin_of(subnet.prefix.network)
            assert origin == subnet.asn

    def test_subnet_interfaces_inside_subnet(self, tiny_world):
        for subnet in tiny_world.subnets.values():
            assert subnet.router_interface in subnet.prefix
            assert subnet.router_interface != subnet.prefix.network

    def test_hosts_inside_subnet_and_not_special(self, tiny_world):
        for subnet in tiny_world.subnets.values():
            for host in subnet.hosts:
                assert host in subnet.prefix
                assert host != subnet.prefix.network
                assert host != subnet.router_interface

    def test_router_owns_subnet_interfaces(self, tiny_world):
        for subnet in tiny_world.subnets.values():
            router = tiny_world.routers[subnet.router_id]
            assert router.subnet_interfaces[subnet.prefix.network] == (
                subnet.router_interface
            )
            assert subnet.router_interface in router.interface_addresses

    def test_routers_have_country_and_vendor(self, tiny_world):
        config_countries = {c for c, _, _ in tiny_config().countries}
        for router in tiny_world.routers.values():
            assert router.country in config_countries
            assert router.vendor in DEFAULT_VENDORS or router.vendor.name in (
                "buggy-mild",
                "buggy-severe",
            )

    def test_loop_regions_inside_customer_space(self, tiny_world):
        for region in tiny_world.loop_regions:
            origin = tiny_world.bgp.origin_of(region.prefix.network)
            assert origin == region.asn
            customer = tiny_world.routers[region.customer_router_id]
            assert customer.asn == region.asn
            provider = tiny_world.routers[region.provider_router_id]
            assert provider.asn in tiny_world.ases[region.asn].providers

    def test_loop_slash48_count(self):
        from repro.topology.entities import LoopRegion

        region = LoopRegion(
            prefix=IPv6Prefix.parse("2001:db8:100::/40"),
            asn=1,
            customer_router_id=1,
            provider_router_id=2,
        )
        assert region.slash48_count() == 256

    def test_vantage_exists_and_routed(self, tiny_world):
        vantage = tiny_world.vantage
        assert vantage is not None
        assert tiny_world.bgp.origin_of(vantage.address) == vantage.asn
        assert vantage.upstream_router_id in tiny_world.routers

    def test_paths_cover_all_ases(self, tiny_world):
        for asn in tiny_world.ases:
            if asn == tiny_world.vantage.asn:
                continue
            hops = tiny_world.paths.get(asn)
            assert hops, f"no path to AS{asn}"
            # Last hop is a router of the destination AS.
            assert tiny_world.routers[hops[-1].router_id].asn == asn

    def test_resolution_finds_subnets(self, tiny_world):
        subnet = next(iter(tiny_world.subnets.values()))
        match = tiny_world.resolution.longest_match(subnet.prefix.network + 5)
        assert match is not None
        assert match[1].kind is EntryKind.SUBNET

    def test_resolution_attributes_router_interfaces(self, tiny_world):
        """Every subnet-facing and infrastructure interface resolves to
        the entry naming the router that owns it."""
        for subnet in tiny_world.subnets.values():
            match = tiny_world.resolution.longest_match(subnet.router_interface)
            assert match is not None
            entry = match[1]
            assert entry.kind is EntryKind.SUBNET
            assert entry.payload.router_id == subnet.router_id
        for infra in tiny_world.infra_subnets.values():
            for address, router_id in infra.interfaces.items():
                match = tiny_world.resolution.longest_match(address)
                assert match is not None
                assert match[1].kind is EntryKind.INFRA
                assert match[1].payload.interfaces[address] == router_id
                assert address in tiny_world.routers[router_id].all_addresses()

    def test_routers_listed_by_their_as(self, tiny_world):
        for router_id, router in tiny_world.routers.items():
            info = tiny_world.ases[router.asn]
            assert router_id in info.router_ids
            assert router.country == info.country

    def test_border_routers_marked(self, tiny_world):
        for info in tiny_world.ases.values():
            if info.asn == tiny_world.vantage.asn:
                continue
            assert info.border_router_id is not None
            assert tiny_world.routers[info.border_router_id].is_border

    def test_as_types_match_enum(self, tiny_world):
        for info in tiny_world.ases.values():
            assert isinstance(info.as_type, ASType)

    def test_irr_contains_stale_registrations(self, tiny_world):
        unrouted = [
            obj
            for obj in tiny_world.irr
            if not tiny_world.bgp.is_routed(obj.prefix.network)
        ]
        assert unrouted, "IRR should contain stale (unannounced) registrations"

    def test_all_router_addresses_nonzero(self, tiny_world):
        for router in tiny_world.routers.values():
            assert router.loopback != 0
            for address in router.all_addresses():
                assert address != 0


class TestDeterminism:
    def test_same_seed_same_world(self):
        a = build_world(tiny_config(seed=123))
        b = build_world(tiny_config(seed=123))
        assert set(a.ases) == set(b.ases)
        assert set(a.subnets) == set(b.subnets)
        assert len(a.loop_regions) == len(b.loop_regions)
        assert a.bgp.prefixes() == b.bgp.prefixes()

    def test_different_seed_different_world(self):
        a = build_world(tiny_config(seed=1))
        b = build_world(tiny_config(seed=2))
        assert set(a.subnets) != set(b.subnets)


class TestMitigation:
    def test_fix_all_loops_for_asn(self):
        world = build_world(tiny_config(seed=11))
        assert world.loop_regions, "world should have loops to fix"
        asn = world.loop_regions[0].asn
        before = len(world.loop_regions)
        removed = fix_all_loops_for_asn(world, asn)
        assert removed
        assert len(world.loop_regions) == before - len(removed)
        assert all(region.asn != asn for region in world.loop_regions)
        # The resolution index no longer routes probes into the loop.
        for region in removed:
            match = world.resolution.longest_match(region.prefix.network + 7)
            assert match is None or match[1].kind is not EntryKind.LOOP or (
                match[0] != region.prefix
            )

    def test_disclosure_campaign(self):
        world = build_world(tiny_config(seed=11))
        before = sum(r.slash48_count() for r in world.loop_regions)
        report = run_disclosure_campaign(world, response_rate=0.5)
        assert report.contacted_asns > 0
        after = sum(r.slash48_count() for r in world.loop_regions)
        assert after == before - report.loops_fixed
        assert len(report.fixed_asns) <= report.contacted_asns

    def test_disclosure_zero_response(self):
        world = build_world(tiny_config(seed=11))
        report = run_disclosure_campaign(world, response_rate=0.0)
        assert report.loops_fixed == 0

    def test_disclosure_validates_rate(self):
        world = build_world(tiny_config(seed=11))
        with pytest.raises(ValueError):
            run_disclosure_campaign(world, response_rate=1.5)
