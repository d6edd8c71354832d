"""Tests for the stateless scanner: records, targets, the zmap driver."""

import csv
import json
import random

import pytest
from helpers import is_time_exceeded

from repro.addr.ipv6 import format_address
from repro.packet.icmpv6 import ICMPv6Type
from repro.scanner.records import (
    ScanRecord,
    ScanResult,
    merge_results,
)
from repro.scanner.targets import (
    bgp_plain_targets,
    bgp_slash48_targets,
    bgp_slash64_targets,
    hitlist_slash64_targets,
    route6_slash64_targets,
)
from repro.scanner.zmapv6 import ScanConfig, ZMapV6Scanner
from repro.netsim.engine import SimulationEngine

ECHO = int(ICMPv6Type.ECHO_REPLY)
UNREACH = int(ICMPv6Type.DESTINATION_UNREACHABLE)
TIMEX = int(ICMPv6Type.TIME_EXCEEDED)


def record(target, source, icmp_type, count=1):
    return ScanRecord(target=target, source=source, icmp_type=icmp_type, code=0, count=count)


class TestScanRecord:
    def test_classification_properties(self):
        assert record(1, 2, ECHO).is_echo
        assert not record(1, 2, ECHO).is_error
        assert record(1, 2, UNREACH).is_error
        assert is_time_exceeded(record(1, 2, TIMEX))


class TestScanResult:
    def _result(self):
        result = ScanResult(name="test", sent=10)
        result.records = [
            record(1, 100, ECHO),
            record(2, 100, UNREACH),  # source 100 is "both"
            record(3, 101, ECHO),
            record(4, 102, UNREACH),
            record(5, 103, TIMEX, count=50),
        ]
        return result

    def test_received_excludes_flood_duplicates(self):
        result = self._result()
        assert result.received == 5
        assert result.flood_packets == 49

    def test_responsive_targets(self):
        assert self._result().responsive_targets == 5

    def test_reply_rate(self):
        assert self._result().reply_rate == 0.5

    def test_source_views(self):
        result = self._result()
        assert result.sources() == {100, 101, 102, 103}
        assert result.echo_sources() == {100, 101}
        assert result.error_sources() == {100, 102, 103}

    def test_classify_sources(self):
        classes = self._result().classify_sources()
        assert classes["both"] == {100}
        assert classes["echo"] == {101}
        assert classes["error"] == {102, 103}

    def test_target_to_source_first_wins(self):
        result = ScanResult(name="x", sent=1)
        result.records = [record(1, 100, ECHO), record(1, 999, ECHO)]
        assert result.target_to_source() == {1: 100}

    def test_write_csv_roundtrip(self, tmp_path):
        result = self._result()
        path = tmp_path / "scan.csv"
        result.write_csv(path)
        with open(path) as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 5
        assert rows[0]["icmp_type"] == str(ECHO)

    def test_write_jsonl(self, tmp_path):
        result = self._result()
        path = tmp_path / "scan.jsonl"
        result.write_jsonl(path)
        lines = path.read_text().splitlines()
        assert len(lines) == 5
        parsed = json.loads(lines[-1])
        assert parsed["count"] == 50

    def test_merge_results(self):
        merged = merge_results("all", [self._result(), self._result()])
        assert merged.sent == 20
        assert len(merged.records) == 10


class TestTargetLists:
    def test_bgp_plain(self, tiny_world):
        targets = bgp_plain_targets(tiny_world.bgp)
        assert len(targets) == len(set(targets.targets))
        assert targets.name == "bgp-plain"

    def test_only_subnet_lists_carry_a_length(self, tiny_world, tiny_hitlist):
        assert bgp_plain_targets(tiny_world.bgp).subnet_length is None
        hitlist = hitlist_slash64_targets(tiny_hitlist, max_targets=10)
        assert hitlist.subnet_length == 64

    def test_max_targets_cap(self, tiny_world):
        targets = bgp_plain_targets(tiny_world.bgp, max_targets=5)
        assert len(targets) == 5

    def test_bgp_slash48_inside_announcements(self, tiny_world):
        rng = random.Random(0)
        targets = bgp_slash48_targets(
            tiny_world.bgp, max_per_prefix=4, rng=rng
        )
        assert targets.subnet_length == 48
        from repro.addr.ipv6 import IPv6Prefix

        announced = tiny_world.bgp.prefixes()
        for target in list(targets)[:100]:
            # Either the target is routed, or it is the SRA of the /48
            # supernet of a more-specific (e.g. /52) announcement — the
            # paper's lifting rule produces those deliberately.
            slash48 = IPv6Prefix.of(target, 48)
            assert tiny_world.bgp.is_routed(target) or any(
                prefix.length > 48 and slash48.covers(prefix)
                for prefix in announced
            )

    def test_bgp_slash64(self, tiny_world):
        rng = random.Random(0)
        targets = bgp_slash64_targets(tiny_world.bgp, max_per_prefix=4, rng=rng)
        assert targets.subnet_length == 64
        slash48s = [
            prefix for prefix in tiny_world.bgp.prefixes() if prefix.length == 48
        ]
        for target in targets:
            assert any(target in prefix for prefix in slash48s)

    def test_route6_targets(self, tiny_world):
        rng = random.Random(0)
        targets = route6_slash64_targets(
            tiny_world.irr, per_prefix=4, rng=rng, max_targets=100
        )
        assert len(targets) == 100

    def test_hitlist_targets(self, tiny_hitlist):
        targets = hitlist_slash64_targets(tiny_hitlist)
        assert len(targets) == len(set(targets.targets))
        for target in list(targets)[:50]:
            assert target & ((1 << 64) - 1) == 0

    def test_sample(self, tiny_hitlist):
        targets = hitlist_slash64_targets(tiny_hitlist)
        sample = targets.sample(7, random.Random(1))
        assert len(sample) == 7
        assert set(sample.targets) <= set(targets.targets)

    def test_sample_covering_everything_returns_a_copy(self, tiny_hitlist):
        # Regression: sample(k >= len) used to return `self`, so mutating
        # the "sample" corrupted the original target list.
        targets = hitlist_slash64_targets(tiny_hitlist)
        original = list(targets.targets)
        sample = targets.sample(10**9, random.Random(1))
        assert sample is not targets
        assert sample.targets == original
        sample.targets.append(0)
        assert targets.targets == original


class TestScanConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ScanConfig(pps=0)
        with pytest.raises(ValueError):
            ScanConfig(hop_limit=0)
        with pytest.raises(ValueError):
            ScanConfig(shard=2, shards=2)


class TestZMapScanner:
    def test_scan_probes_every_target_once(self, tiny_world):
        engine = SimulationEngine(tiny_world, epoch=0)
        scanner = ZMapV6Scanner(engine, ScanConfig(pps=1000, seed=5))
        targets = list(bgp_plain_targets(tiny_world.bgp))
        result = scanner.scan(targets, name="t")
        assert result.sent == len(targets)
        assert engine.stats.probes == len(targets)

    def test_sharding_partitions_targets(self, tiny_world):
        targets = list(bgp_plain_targets(tiny_world.bgp))
        sent = 0
        for shard in range(3):
            engine = SimulationEngine(tiny_world, epoch=0)
            scanner = ZMapV6Scanner(
                engine, ScanConfig(pps=1000, seed=5, shard=shard, shards=3)
            )
            result = scanner.scan(targets, name=f"shard{shard}")
            sent += result.sent
        assert sent == len(targets)

    def test_permutation_off_is_sequential(self, tiny_world):
        engine = SimulationEngine(tiny_world, epoch=0)
        scanner = ZMapV6Scanner(engine, ScanConfig(pps=1000, permute=False))
        order = list(scanner._probe_window(5)[1])
        assert order == [0, 1, 2, 3, 4]

    def test_epoch_reseeds_order(self, tiny_world):
        engine = SimulationEngine(tiny_world, epoch=0)
        scanner = ZMapV6Scanner(engine, ScanConfig(pps=1000, seed=5))
        order0 = list(scanner._probe_window(100)[1])
        engine.new_epoch(1)
        order1 = list(scanner._probe_window(100)[1])
        assert order0 != order1
        assert sorted(order0) == sorted(order1)

    def test_wire_format_equivalent_results(self, tiny_world):
        """The byte-accurate path must match every structured reply."""
        targets = list(bgp_plain_targets(tiny_world.bgp))[:60]
        fast = ZMapV6Scanner(
            SimulationEngine(tiny_world, epoch=3),
            ScanConfig(pps=1000, seed=5),
        ).scan(targets, name="fast", epoch=3)
        wire = ZMapV6Scanner(
            SimulationEngine(tiny_world, epoch=3),
            ScanConfig(pps=1000, seed=5, backend="wire-sim"),
        ).scan(targets, name="wire", epoch=3)
        fast_rows = sorted((r.target, r.source, r.icmp_type) for r in fast.records)
        wire_rows = sorted((r.target, r.source, r.icmp_type) for r in wire.records)
        assert fast_rows == wire_rows

    def test_scan_times_follow_pps(self, tiny_world):
        engine = SimulationEngine(tiny_world, epoch=0)
        scanner = ZMapV6Scanner(engine, ScanConfig(pps=100, seed=1))
        targets = list(bgp_plain_targets(tiny_world.bgp))[:10]
        result = scanner.scan(targets, name="paced")
        assert result.duration == pytest.approx(10 / 100)
        for record_ in result.records:
            assert 0 <= record_.time <= result.duration

    def test_loops_observed_counter(self, tiny_world):
        engine = SimulationEngine(tiny_world, epoch=0)
        scanner = ZMapV6Scanner(engine, ScanConfig(pps=1000, seed=1))
        region = tiny_world.loop_regions[0]
        targets = [region.prefix.network | i for i in range(1, 30)]
        result = scanner.scan(targets, name="loops")
        assert result.loops_observed > 0


class TestTargetListIO:
    def test_save_load_roundtrip(self, tiny_hitlist, tmp_path):
        targets = hitlist_slash64_targets(tiny_hitlist, max_targets=200)
        path = tmp_path / "targets.txt"
        path.write_text("".join(f"{format_address(t)}\n" for t in targets))
        loaded = type(targets).load(path, subnet_length=64)
        assert loaded.targets == targets.targets
        assert loaded.subnet_length == 64

    def test_load_skips_comments_and_dedups(self, tmp_path):
        from repro.scanner.targets import TargetList

        path = tmp_path / "t.txt"
        path.write_text(
            "# header\n2001:db9::\n2001:db8::  # trailing comment\n\n"
            "  # indented\n2001:db9:0::0 # again\n::1\n"
        )
        # Duplicates are dropped, the first occurrence keeping its place.
        assert [format_address(t) for t in TargetList.load(path)] == [
            "2001:db9::",
            "2001:db8::",
            "::1",
        ]

    def test_load_reports_bad_line(self, tmp_path):
        from repro.addr.ipv6 import AddressError
        from repro.scanner.targets import TargetList

        path = tmp_path / "bad.txt"
        # The error must carry the file, the line number, and the
        # offending line text itself (less any trailing comment).
        for bad in ("not-an-address", "not-an-address  # with a comment"):
            path.write_text(f"2001:db8::\n{bad}\n")
            with pytest.raises(
                AddressError, match=r"bad\.txt:2: 'not-an-address'"
            ):
                TargetList.load(path)
