"""Tests for metadata services and the analysis layer."""

import pytest

from repro.addr.ipv6 import IPv6Prefix, parse_address
from repro.analysis.comparison import SourceComparison
from repro.analysis.geodist import (
    continent_type_crosstab,
    country_distribution,
    country_shares,
    isp_share,
    type_distribution,
)
from repro.analysis.loops import LoopAnalysis
from repro.analysis.report import (
    format_count,
    format_percent,
    render_ccdf,
    render_shares,
    render_table,
)
from repro.datasets.common import AddressDataset
from repro.metadata.asn import ASNMapper
from repro.metadata.astype import ASTypeDatabase
from repro.metadata.geoip import GeoIPDatabase, continent_of
from repro.packet.icmpv6 import ICMPv6Type
from repro.scanner.records import ScanRecord, ScanResult
from repro.topology.entities import ASType


class TestGeoIP:
    def test_from_world(self, tiny_world):
        geo = GeoIPDatabase.from_world(tiny_world)
        subnet = next(iter(tiny_world.subnets.values()))
        assert geo.country_of(subnet.router_interface) == (
            tiny_world.ases[subnet.asn].country
        )

    def test_unknown_address(self, tiny_world):
        geo = GeoIPDatabase.from_world(tiny_world)
        assert geo.country_of(0x3BAD << 112) is None

    def test_country_is_the_owning_as_country(self, tiny_world):
        geo = GeoIPDatabase.from_world(tiny_world)
        for subnet in tiny_world.subnets.values():
            assert geo.country_of(subnet.router_interface) == (
                tiny_world.ases[subnet.asn].country
            )

    def test_longest_prefix_wins(self):
        geo = GeoIPDatabase()
        geo.add(IPv6Prefix.parse("2001:db8::/32"), "DEU")
        geo.add(IPv6Prefix.parse("2001:db8:1::/48"), "FRA")
        assert len(geo) == 2
        assert geo.country_of(parse_address("2001:db8:1::5")) == "FRA"
        assert geo.country_of(parse_address("2001:db8:2::5")) == "DEU"
        assert geo.country_of(parse_address("2001:db9::5")) is None

    def test_continent_of(self):
        assert continent_of("IND") == "AS"
        assert continent_of("BRA") == "SA"
        assert continent_of("DEU") == "EU"
        assert continent_of(None) == "??"
        assert continent_of("XXX") == "??"


class TestASNMapper:
    def test_asn_of(self, tiny_world):
        mapper = ASNMapper(tiny_world.bgp)
        subnet = next(iter(tiny_world.subnets.values()))
        assert mapper.asn_of(subnet.router_interface) == subnet.asn
        assert mapper.asn_of(0x3BAD << 112) is None

    def test_histogram_drops_unrouted(self, tiny_world):
        mapper = ASNMapper(tiny_world.bgp)
        subnet = next(iter(tiny_world.subnets.values()))
        histogram = mapper.asn_histogram([subnet.router_interface, 0x3BAD << 112])
        assert histogram == {subnet.asn: 1}

    def test_top_asns_shares(self, tiny_world):
        mapper = ASNMapper(tiny_world.bgp)
        addresses = [s.router_interface for s in tiny_world.subnets.values()]
        top = mapper.top_asns(addresses, n=3)
        assert len(top) == 3
        shares = [share for _, share in top]
        assert shares == sorted(shares, reverse=True)
        histogram = mapper.asn_histogram(addresses)
        for asn, share in top:
            assert share == pytest.approx(histogram[asn] / len(addresses))

    def test_histogram(self, tiny_world):
        mapper = ASNMapper(tiny_world.bgp)
        subnet = next(iter(tiny_world.subnets.values()))
        histogram = mapper.asn_histogram(
            [subnet.router_interface, subnet.router_interface + 1]
        )
        assert histogram[subnet.asn] == 2

    def test_top_asns_empty(self, tiny_world):
        mapper = ASNMapper(tiny_world.bgp)
        assert mapper.top_asns([]) == []


class TestASTypeDatabase:
    def test_from_world(self, tiny_world):
        db = ASTypeDatabase.from_world(tiny_world)
        asn = next(iter(tiny_world.ases))
        assert db.type_of(asn) is tiny_world.ases[asn].as_type

    def test_from_world_covers_every_as(self, tiny_world):
        db = ASTypeDatabase.from_world(tiny_world)
        assert len(db) == len(tiny_world.ases)
        for asn, info in tiny_world.ases.items():
            assert db.type_of(asn) is info.as_type

    def test_add(self):
        db = ASTypeDatabase()
        db.add(42, ASType.HOSTING)
        assert db.type_of(42) is ASType.HOSTING

    def test_unknown_asn(self, tiny_world):
        db = ASTypeDatabase.from_world(tiny_world)
        assert db.type_of(999999999) is None


class TestSourceComparison:
    def _comparison(self, tiny_world):
        mapper = ASNMapper(tiny_world.bgp)
        subnets = list(tiny_world.subnets.values())
        a = AddressDataset(
            name="a", addresses={s.router_interface for s in subnets[:50]}
        )
        b = AddressDataset(
            name="b", addresses={s.router_interface for s in subnets[25:75]}
        )
        c = AddressDataset(
            name="c",
            addresses={s.hosts[0] for s in subnets[:60] if s.hosts},
        )
        comparison = SourceComparison(mapper=mapper)
        for dataset in (a, b, c):
            comparison.add(dataset)
        return comparison

    def test_ip_overlap(self, tiny_world):
        comparison = self._comparison(tiny_world)
        assert comparison.ip_overlap("a", "b") == 25

    def test_overlap_matrix_symmetric_pairs(self, tiny_world):
        comparison = self._comparison(tiny_world)
        matrix = comparison.ip_overlap_matrix()
        assert ("a", "b") in matrix
        assert len(matrix) == 3

    def test_exclusive_fraction(self, tiny_world):
        comparison = self._comparison(tiny_world)
        fraction = comparison.exclusive_fraction("a")
        assert 0.0 <= fraction <= 1.0
        assert fraction == pytest.approx(25 / 50)

    def test_as_coverage_and_upset(self, tiny_world):
        comparison = self._comparison(tiny_world)
        coverage = comparison.as_coverage("a")
        assert 0.0 <= coverage <= 1.0
        upset = comparison.upset_counts()
        total_asns = len(
            set().union(*(s for s in comparison.as_sets().values()))
        )
        assert sum(upset.values()) == total_asns

    def test_table3(self, tiny_world):
        comparison = self._comparison(tiny_world)
        table = comparison.table3(3)
        assert set(table) == {"a", "b", "c"}
        for rows in table.values():
            assert len(rows) <= 3

    def test_highlighted(self, tiny_world):
        comparison = self._comparison(tiny_world)
        highlighted = comparison.highlighted_asns(reference="a", n=5)
        table = comparison.table3(5)
        top_a = {asn for asn, _ in table["a"]}
        assert highlighted <= top_a


class TestLoopAnalysis:
    def _scan(self):
        result = ScanResult(name="x", sent=10)
        timex = int(ICMPv6Type.TIME_EXCEEDED)
        echo = int(ICMPv6Type.ECHO_REPLY)
        s48 = 1 << 80
        result.records = [
            ScanRecord(target=0 * s48, source=100, icmp_type=timex, code=0),
            ScanRecord(target=1 * s48, source=100, icmp_type=timex, code=0),
            ScanRecord(target=2 * s48, source=100, icmp_type=timex, code=0, count=500),
            ScanRecord(target=3 * s48, source=200, icmp_type=timex, code=0),
            ScanRecord(target=4 * s48, source=300, icmp_type=echo, code=0),
        ]
        return result

    def test_ingest(self):
        analysis = LoopAnalysis.from_scans(self._scan())
        assert len(analysis.looping_slash48s) == 4
        assert analysis.looping_routers == {100, 200}
        assert analysis.amplifying_routers == {100}

    def test_single_subnet_share(self):
        analysis = LoopAnalysis.from_scans(self._scan())
        assert analysis.single_subnet_router_share() == pytest.approx(0.5)

    def test_amplification_ccdf(self):
        analysis = LoopAnalysis.from_scans(self._scan())
        ccdf = analysis.amplification_ccdf()
        assert ccdf == [(500, 1.0)]

    def test_loops_per_router_ccdf(self):
        analysis = LoopAnalysis.from_scans(self._scan())
        ccdf = analysis.loops_per_router_ccdf()
        assert ccdf[0] == (1, 1.0)
        assert ccdf[-1] == (3, 0.5)

    def test_amplification_share_below(self):
        analysis = LoopAnalysis.from_scans(self._scan())
        assert analysis.amplification_share_below(10) == 0.0
        assert analysis.amplification_share_below(1000) == 1.0

    def test_table4_with_geo(self, tiny_world):
        geo = GeoIPDatabase.from_world(tiny_world)
        # Use real looping scan data from the world.
        from repro.netsim.engine import SimulationEngine
        from repro.scanner.zmapv6 import ScanConfig, ZMapV6Scanner

        region = tiny_world.loop_regions[0]
        targets = [region.prefix.network | (i << 80) | 1 for i in range(8)]
        engine = SimulationEngine(tiny_world, epoch=0)
        scanner = ZMapV6Scanner(engine, ScanConfig(pps=10, seed=2))
        scan = scanner.scan(targets, name="loops")
        analysis = LoopAnalysis.from_scans(scan)
        rows = analysis.table4a(geo)
        if rows:
            assert all(0 <= row["share"] <= 1 for row in rows)

    def test_empty_analysis(self):
        analysis = LoopAnalysis()
        assert analysis.amplification_ccdf() == []
        assert analysis.single_subnet_router_share() == 0.0
        assert analysis.table4a(GeoIPDatabase()) == []


class TestGeoDist:
    def test_country_distribution(self, tiny_world):
        geo = GeoIPDatabase.from_world(tiny_world)
        addresses = [
            s.router_interface for s in list(tiny_world.subnets.values())[:100]
        ]
        counts = country_distribution(addresses, geo)
        assert sum(counts.values()) == 100

    def test_country_shares_sorted(self, tiny_world):
        geo = GeoIPDatabase.from_world(tiny_world)
        addresses = [
            s.router_interface for s in list(tiny_world.subnets.values())[:200]
        ]
        shares = country_shares(addresses, geo)
        values = [share for _, share in shares]
        assert values == sorted(values, reverse=True)
        assert sum(values) == pytest.approx(1.0)

    def test_type_distribution_and_isp_share(self, tiny_world):
        mapper = ASNMapper(tiny_world.bgp)
        types = ASTypeDatabase.from_world(tiny_world)
        addresses = [s.router_interface for s in tiny_world.subnets.values()]
        distribution = type_distribution(addresses, mapper, types)
        assert sum(distribution.values()) == len(addresses)
        share = isp_share(addresses, mapper, types)
        assert 0.0 <= share <= 1.0

    def test_unmapped_addresses_counted_as_unknown(self, tiny_world):
        geo = GeoIPDatabase.from_world(tiny_world)
        mapper = ASNMapper(tiny_world.bgp)
        types = ASTypeDatabase.from_world(tiny_world)
        subnet = next(iter(tiny_world.subnets.values()))
        addresses = [subnet.router_interface, 0x3BAD << 112]
        countries = country_distribution(addresses, geo)
        assert countries == {tiny_world.ases[subnet.asn].country: 1, "??": 1}
        distribution = type_distribution(addresses, mapper, types)
        assert distribution["unknown"] == 1
        assert sum(distribution.values()) == 2

    def test_crosstab(self, tiny_world):
        geo = GeoIPDatabase.from_world(tiny_world)
        mapper = ASNMapper(tiny_world.bgp)
        types = ASTypeDatabase.from_world(tiny_world)
        addresses = [
            s.router_interface for s in list(tiny_world.subnets.values())[:50]
        ]
        crosstab = continent_type_crosstab(addresses, geo, mapper, types)
        total = sum(sum(c.values()) for c in crosstab.values())
        assert total == 50


class TestReport:
    def test_format_count(self):
        assert format_count(950) == "950"
        assert format_count(1234) == "1.2k"
        assert format_count(4_200_000) == "4.2M"
        assert format_count(28_200_000_000) == "28.2B"
        assert format_count(0.5) == "0.50"

    def test_format_percent(self):
        assert format_percent(0.123) == "12.3%"
        assert format_percent(0.1234, 2) == "12.34%"

    def test_render_table(self):
        text = render_table(
            ("a", "bb"), [(1, 2), (30, 40)], title="Title"
        )
        lines = text.splitlines()
        assert lines[0] == "Title"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_render_ccdf(self):
        text = render_ccdf([(1, 1.0), (10, 0.5), (100, 0.1)], title="T")
        assert "T" in text
        assert ">= 1" in text

    def test_render_ccdf_empty(self):
        assert "(no data)" in render_ccdf([], title="T")

    def test_render_shares_limit(self):
        text = render_shares(
            [("a", 0.5), ("b", 0.3), ("c", 0.2)], title="T", limit=2
        )
        assert "c" not in text.splitlines()[-1]
