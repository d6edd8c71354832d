"""End-to-end integration tests exercising the full pipeline.

These run complete campaigns over the tiny world and check the cross-module
invariants that individual unit tests cannot see.
"""

import pytest
from helpers import all_hosts
from reference_harness import flood, probe_row

from repro.core.survey import SRASurvey, SurveyConfig
from repro.datasets.tum import published_alias_list
from repro.metadata.asn import ASNMapper
from repro.metadata.geoip import GeoIPDatabase
from repro.netsim.engine import SimulationEngine
from repro.scanner.targets import hitlist_slash64_targets
from repro.scanner.zmapv6 import ScanConfig, ZMapV6Scanner
from repro.topology.config import tiny_config
from repro.topology.generator import build_world
from repro.topology.mitigation import run_disclosure_campaign


@pytest.fixture(scope="module")
def pipeline(tiny_world, tiny_hitlist, tiny_alias_list):
    config = SurveyConfig(
        seed=5,
        slash48_per_prefix=64,
        max_bgp_48=12_000,
        slash64_per_prefix=64,
        max_bgp_64=6_000,
        route6_per_prefix=32,
        max_route6=10_000,
        max_hitlist=6_000,
    )
    survey = SRASurvey(
        tiny_world, tiny_hitlist, alias_list=tiny_alias_list, config=config
    )
    return survey.run()


@pytest.fixture(scope="module")
def router_of(tiny_world):
    """Every router-owned address mapped to its router, read off the
    world's router records rather than the resolution LPM the engine
    answers from."""
    return {
        address: router
        for router in tiny_world.routers.values()
        for address in router.all_addresses()
    }


class TestSurveyEndToEnd:
    def test_discovered_sources_are_plausible(self, pipeline, tiny_world, router_of):
        """Echo sources must be real router addresses, host addresses, or
        aliased self-replies already removed by the filter."""
        hosts = set(all_hosts(tiny_world))
        for result in pipeline.input_sets.values():
            for record in result.result.records:
                if record.is_echo:
                    assert (
                        record.source in router_of
                        or record.source in hosts
                    ), f"unexplained echo source {record.source:#x}"

    def test_no_self_replies_survive_filter(self, pipeline):
        for result in pipeline.input_sets.values():
            for record in result.result.records:
                assert not (record.is_echo and record.source == record.target)

    def test_all_sources_geolocatable(self, pipeline, tiny_world):
        geo = GeoIPDatabase.from_world(tiny_world)
        located = 0
        total = 0
        for result in pipeline.input_sets.values():
            for source in result.router_ips:
                total += 1
                if geo.country_of(source) is not None:
                    located += 1
        assert total > 0
        assert located / total > 0.95

    def test_asn_mapping_mostly_matches_responder(
        self, pipeline, tiny_world, router_of
    ):
        """Most reply sources map to the AS that owns the responding
        router — except peering-LAN sources, which map upstream (the
        paper's attribution caveat)."""
        mapper = ASNMapper(tiny_world.bgp)
        hitlist_result = pipeline.input_sets["hitlist-64"]
        mismatches = 0
        checked = 0
        for record in hitlist_result.result.records:
            if not record.is_echo:
                continue
            router = router_of.get(record.source)
            if router is None:
                continue
            checked += 1
            if mapper.asn_of(record.source) != router.asn:
                mismatches += 1
        assert checked > 0
        assert mismatches / checked < 0.3

    def test_reply_sources_stable_across_reruns(
        self, tiny_world, tiny_hitlist
    ):
        """The whole pipeline is deterministic for a fixed seed."""
        targets = hitlist_slash64_targets(tiny_hitlist, max_targets=1500)
        results = []
        for _ in range(2):
            engine = SimulationEngine(tiny_world, epoch=9)
            scanner = ZMapV6Scanner(engine, ScanConfig(pps=300, seed=13))
            results.append(scanner.scan(targets, name="rerun", epoch=9))
        rows_a = [(r.target, r.source, r.icmp_type) for r in results[0].records]
        rows_b = [(r.target, r.source, r.icmp_type) for r in results[1].records]
        assert rows_a == rows_b


class TestMitigationEndToEnd:
    def test_disclosure_reduces_observed_loops(self):
        world = build_world(tiny_config(seed=33))
        region = max(world.loop_regions, key=lambda r: r.slash48_count())
        targets = [
            region.prefix.network | (i << 80) | 5
            for i in range(min(64, region.slash48_count()))
        ]

        def looping_count(epoch):
            engine = SimulationEngine(world, epoch=epoch)
            scanner = ZMapV6Scanner(engine, ScanConfig(pps=10, seed=3))
            result = scanner.scan(targets, name="loopscan", epoch=epoch)
            return result.loops_observed

        before = looping_count(0)
        assert before > 0
        # The operator of this AS applies the Appendix C null route.
        from repro.topology.mitigation import fix_all_loops_for_asn

        fix_all_loops_for_asn(world, region.asn)
        after = looping_count(1)
        assert after == 0 or after < before * 0.2

    def test_campaign_is_reportable(self):
        world = build_world(tiny_config(seed=34))
        report = run_disclosure_campaign(world, response_rate=0.3)
        assert report.contacted_asns >= len(report.fixed_asns)


class TestAmplificationSafety:
    def test_hop_limit_reduction_bounds_amplification(self):
        """The paper's mitigation advice: smaller hop limits shrink the
        amplification caused by scans."""
        world = build_world(tiny_config(seed=35))
        buggy = [
            region
            for region in world.loop_regions
            if world.routers[region.customer_router_id].replication_factor > 1.1
        ]
        if not buggy:
            pytest.skip("no buggy loop router with this seed")
        region = buggy[0]
        target = region.prefix.network | 0xF00
        engine = SimulationEngine(world, epoch=0)
        amp_64 = flood(probe_row(engine, target, 0.0, hop_limit=64, probe_id=1))
        amp_32 = flood(probe_row(engine, target, 1.0, hop_limit=32, probe_id=2))
        amp_16 = flood(probe_row(engine, target, 2.0, hop_limit=16, probe_id=3))
        assert amp_64 >= amp_32 >= amp_16
        assert amp_64 > amp_16


class TestHitlistQuality:
    def test_hitlist_slash64s_mix_live_and_stale(self, tiny_world, tiny_hitlist):
        live_slash64s = {net for net in tiny_world.subnets}
        targets = tiny_hitlist.unique_slash64s()
        live = sum(1 for t in targets if t in live_slash64s)
        assert 0 < live < len(targets)

    def test_alias_list_improves_filtering(self, tiny_world, tiny_hitlist):
        """Scanning with the published alias list drops more records than
        the self-reply rule alone."""
        from repro.core.aliasfilter import filter_aliased

        targets = hitlist_slash64_targets(tiny_hitlist)
        engine = SimulationEngine(tiny_world, epoch=2)
        scanner = ZMapV6Scanner(engine, ScanConfig(pps=1000, seed=17))
        raw = scanner.scan(targets, name="alias-test", epoch=2)
        alias_list = published_alias_list(tiny_world, recall=1.0)
        _, with_list = filter_aliased(raw, alias_list)
        _, without_list = filter_aliased(raw, None)
        assert with_list.dropped >= without_list.dropped
