"""Tests for the extension features: pcap capture, rate-limit inference,
hitlist feedback, and the CLIs."""

import pytest

from repro.analysis.hitlist_feedback import contribute_to_hitlist
from repro.analysis.ratelimit_infer import infer_error_rate_limit, probe_train
from repro.hitlist.aliases import AliasedPrefixList
from repro.hitlist.hitlist import Hitlist
from repro.addr.ipv6 import IPv6Prefix
from repro.netsim.engine import SimulationEngine
from repro.netsim.pcap import (
    LINKTYPE_RAW,
    PcapWriter,
    capture_scan,
    read_pcap,
)
from repro.packet.icmpv6 import ICMPv6Type
from repro.packet.ipv6hdr import IPv6Header
from repro.scanner.records import ScanRecord, ScanResult
from repro.topology.profiles import SRABehavior


class TestPcap:
    def test_writer_reader_roundtrip(self, tmp_path):
        path = tmp_path / "test.pcap"
        with PcapWriter.open(path) as pcap:
            pcap.write(1.5, b"\x60" + b"\x00" * 39)
            pcap.write(2.25, b"\x60" + b"\x11" * 50)
        packets = read_pcap(path)
        assert len(packets) == 2
        assert packets[0][0] == pytest.approx(1.5)
        assert packets[1][1][1] == 0x11

    def test_global_header_linktype(self, tmp_path):
        path = tmp_path / "test.pcap"
        with PcapWriter.open(path):
            pass
        raw = path.read_bytes()
        assert int.from_bytes(raw[20:24], "little") == LINKTYPE_RAW

    def test_read_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.pcap"
        path.write_bytes(b"\x00" * 40)
        with pytest.raises(ValueError):
            read_pcap(path)

    def test_snaplen_truncates(self, tmp_path):
        path = tmp_path / "snap.pcap"
        with PcapWriter.open(path, snaplen=10) as pcap:
            pcap.write(0.0, b"\xab" * 100)
        packets = read_pcap(path)
        assert len(packets[0][1]) == 10

    def test_capture_scan_writes_probes_and_replies(self, tiny_world, tmp_path):
        subnets = [
            s
            for s in tiny_world.subnets.values()
            if tiny_world.routers[s.router_id].vendor.sra_behavior
            is SRABehavior.REPLY
            and not s.flaky and s.death_epoch is None and not s.aliased
        ][:20]
        targets = [s.sra_address for s in subnets]
        path = tmp_path / "scan.pcap"
        counters = capture_scan(tiny_world, targets, path, epoch=500)
        assert counters["probes"] == len(targets)
        assert counters["replies"] > 0
        packets = read_pcap(path)
        assert len(packets) == counters["probes"] + counters["replies"] + (
            counters["flood_packets"]
        )
        # Every captured packet is valid IPv6.
        for _, raw in packets[:10]:
            IPv6Header.decode(raw)

    def test_capture_scan_materialises_flood(self, tiny_world, tmp_path):
        buggy_regions = [
            region
            for region in tiny_world.loop_regions
            if tiny_world.routers[region.customer_router_id].replication_factor
            > 1.05
        ]
        if not buggy_regions:
            pytest.skip("no buggy loop in tiny world")
        region = buggy_regions[0]
        targets = [region.prefix.network | 0x31]
        path = tmp_path / "flood.pcap"
        counters = capture_scan(
            tiny_world, targets, path, epoch=501, max_duplicates=50
        )
        assert counters["flood_packets"] + counters["flood_truncated"] >= 1


class TestRateLimitInference:
    def _reply_subnet(self, world):
        # A healthy subnet whose router emits unreachables and is quiet.
        for subnet in world.subnets.values():
            router = world.routers[subnet.router_id]
            if (
                not subnet.flaky
                and subnet.death_epoch is None
                and not subnet.aliased
                and router.emits_unreachables
                and router.background_error_load < 0.05
            ):
                return subnet
        pytest.skip("no suitable subnet")

    def test_probe_train_counts(self, tiny_world):
        subnet = self._reply_subnet(tiny_world)
        engine = SimulationEngine(tiny_world, epoch=600)
        point = probe_train(
            engine,
            subnet,
            probe_rate=2.0,
            duration=5.0,
            start_time=0.0,
            probe_id_base=0,
        )
        assert point.sent == 10
        assert 0 <= point.received <= point.sent

    def test_inferred_rate_close_to_configured(self, tiny_world):
        subnet = self._reply_subnet(tiny_world)
        router = tiny_world.routers[subnet.router_id]
        configured = router.vendor.error_rate
        estimate = infer_error_rate_limit(tiny_world, subnet, duration=30.0)
        # The side channel should land within 3x of the configured rate
        # (background load and loss blur the estimate).
        assert configured / 3 <= estimate.rate <= configured * 3

    def test_estimate_reports_points(self, tiny_world):
        subnet = self._reply_subnet(tiny_world)
        estimate = infer_error_rate_limit(
            tiny_world, subnet, probe_rates=(2.0, 50.0), duration=10.0
        )
        assert len(estimate.points) == 2
        assert estimate.points[0].probe_rate == 2.0


class TestHitlistFeedback:
    def _scan(self):
        echo = int(ICMPv6Type.ECHO_REPLY)
        unreach = int(ICMPv6Type.DESTINATION_UNREACHABLE)
        result = ScanResult(name="x", sent=4)
        result.records = [
            ScanRecord(target=1, source=100, icmp_type=echo, code=0),
            ScanRecord(target=2, source=200, icmp_type=echo, code=0),
            ScanRecord(target=3, source=300, icmp_type=unreach, code=0),
        ]
        return result

    def test_contributes_echo_sources(self):
        hitlist = Hitlist()
        report = contribute_to_hitlist(hitlist, [self._scan()])
        assert report.added == 2
        assert 100 in hitlist and 200 in hitlist
        assert 300 not in hitlist
        assert report.rejected_error_only == 1

    def test_already_known_counted(self):
        hitlist = Hitlist()
        hitlist.add(100)
        report = contribute_to_hitlist(hitlist, [self._scan()])
        assert report.added == 1
        assert report.already_known == 1

    def test_alias_rejection(self):
        hitlist = Hitlist()
        alias_list = AliasedPrefixList([IPv6Prefix(0, 120)])  # covers 100/200
        report = contribute_to_hitlist(
            hitlist, [self._scan()], alias_list=alias_list
        )
        assert report.added == 0
        assert report.rejected_aliased == 2
        assert report.rejected_error_only == 1
        assert report.considered == 3

    def test_aliased_error_only_counted_as_aliased(self):
        # The error-only source 300 sits inside the aliased prefix: it
        # must count as rejected_aliased, exactly like an echo source
        # would, not leak into rejected_error_only (the pre-fix code
        # skipped the alias check for error-only sources).
        hitlist = Hitlist()
        alias_list = AliasedPrefixList([IPv6Prefix(256, 120)])  # covers 300
        report = contribute_to_hitlist(
            hitlist, [self._scan()], alias_list=alias_list
        )
        assert report.added == 2
        assert report.rejected_aliased == 1
        assert report.rejected_error_only == 0
        assert report.considered == 3

    def test_extended_mode_includes_error_sources(self):
        hitlist = Hitlist()
        report = contribute_to_hitlist(
            hitlist, [self._scan()], include_error_sources=True
        )
        assert report.added == 3
        assert 300 in hitlist


class TestCLIs:
    def test_sra_scan_writes_csv(self, tmp_path, capsys):
        from repro.scanner.cli import main

        output = tmp_path / "scan.csv"
        code = main(
            [
                "--seed", "7",
                "--input-set", "bgp-plain",
                "--output", str(output),
                "--summary",
            ]
        )
        assert code == 0
        assert output.exists()
        out = capsys.readouterr().out
        assert "router IPs" in out

    def test_sra_scan_pcap(self, tmp_path):
        from repro.scanner.cli import main

        pcap_path = tmp_path / "scan.pcap"
        code = main(
            [
                "--seed", "7",
                "--input-set", "bgp-plain",
                "--max-targets", "30",
                "--pcap", str(pcap_path),
            ]
        )
        assert code == 0
        assert read_pcap(pcap_path)

    def test_sra_repro_list(self, capsys):
        from repro.experiments.runner import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "table2" in out and "fig8" in out

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--pps", "0"], "--pps must be positive"),
            (["--pps", "-10"], "--pps must be positive"),
            (["--batch-size", "0"], "--batch-size must be >= 1"),
            (["--batch-size", "-2"], "--batch-size must be >= 1"),
            (["--max-targets", "-5"], "--max-targets must be >= 0"),
            # These three used to die in tracebacks: ScanConfig's
            # ValueError, a ZeroDivisionError, int(NaN) inside the engine.
            (["--hop-limit", "0"], "--hop-limit must be in [1, 255]"),
            (["--hop-limit", "256"], "--hop-limit must be in [1, 255]"),
            (["--duration", "0"], "--duration must be finite and positive"),
            (["--duration", "nan"], "--duration must be finite and positive"),
            (["--pps", "nan"], "--pps must be finite"),
            (["--pps", "inf"], "--pps must be finite"),
        ],
    )
    def test_sra_scan_rejects_bad_knobs(self, capsys, flags, message):
        """Bad numeric knobs exit 2 with one stderr line, never a
        traceback or a silently nonsense scan."""
        from repro.scanner.cli import main

        code = main(["--seed", "7", "--input-set", "bgp-plain", *flags])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == f"sra-scan: {message}\n"

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--pps", "0"], "--pps must be positive"),
            (["--pps", "-1"], "--pps must be positive"),
            (["--pps", "nan"], "--pps must be finite"),
        ],
    )
    def test_sra_repro_rejects_bad_knobs(self, capsys, flags, message):
        from repro.experiments.runner import main

        code = main(["table2", "--scale", "quick", *flags])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == f"sra-repro: {message}\n"


class TestCLIVariants:
    @pytest.mark.parametrize("input_set", ["bgp-48", "route6-64"])
    def test_other_input_sets(self, input_set, tmp_path):
        from repro.scanner.cli import main

        output = tmp_path / "scan.jsonl"
        code = main(
            [
                "--seed", "7",
                "--input-set", input_set,
                "--max-targets", "500",
                "--jsonl", str(output),
                "--no-alias-filter",
            ]
        )
        assert code == 0
        assert output.exists()

    def test_explicit_pps(self, capsys):
        from repro.scanner.cli import main

        code = main(
            [
                "--seed", "7",
                "--input-set", "bgp-plain",
                "--pps", "500",
                "--summary",
            ]
        )
        assert code == 0
        assert "500 pps" in capsys.readouterr().out


class TestPcapStreamOwnership:
    def test_non_owning_stream_left_open(self, tmp_path):
        import io

        buffer = io.BytesIO()
        writer = PcapWriter(buffer)
        writer.write(0.0, b"\x60" + b"\x00" * 39)
        writer.close()
        # The writer did not own the stream, so it must stay usable.
        assert not buffer.closed
        assert buffer.getvalue()
